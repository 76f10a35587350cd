//! # dismastd-data
//!
//! Dataset substrate for the DisMASTD reproduction: synthetic sparse-tensor
//! generators, scaled stand-ins for the paper's evaluation datasets
//! (Table III), multi-aspect streaming snapshot sequences (Sec. V-B1), and
//! COO text / JSON I/O.
//!
//! ## Substitution note
//!
//! The paper evaluates on Amazon *Clothing*/*Book* reviews and the *Netflix*
//! prize tensor (10⁷–10⁸ nonzeros) plus a uniform *Synthetic* tensor.  Those
//! datasets are not redistributable here, so [`datasets`] generates tensors
//! with the **same shape ratios** and, crucially, the same *skew contrast*:
//! the three "real-like" profiles use Zipf-distributed mode indices (heavy
//! head slices — what makes GTP struggle in Table IV), while the synthetic
//! profile is uniform (where GTP ≈ MTP).  Scales default to laptop-friendly
//! sizes and are adjustable.

pub mod datasets;
pub mod io;
pub mod stream;
pub mod synth;

pub use datasets::DatasetSpec;
pub use stream::StreamSequence;
pub use synth::{uniform_tensor, zipf_tensor, ZipfSampler};
