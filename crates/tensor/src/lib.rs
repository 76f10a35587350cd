// Triangular and multi-buffer numeric loops read clearer with explicit
// indices; suppress the iterator-style lint crate-wide.
#![allow(clippy::needless_range_loop)]

//! # dismastd-tensor
//!
//! Sparse-tensor and dense linear-algebra substrate for the DisMASTD
//! reproduction (Yang et al., *DisMASTD: An Efficient Distributed
//! Multi-Aspect Streaming Tensor Decomposition*, ICDE 2021).
//!
//! The crate provides everything below the decomposition algorithms:
//!
//! * [`Matrix`] — dense row-major matrices (CP factors, `R x R` Grams) and
//!   the row-wise kernels the paper distributes;
//! * [`linalg`] — Cholesky/LU solvers for the `R x R` normal equations;
//! * [`SparseTensor`] — arbitrary-order COO tensors with the snapshot
//!   split/complement operations of the multi-aspect streaming model;
//! * [`mttkrp`](crate::mttkrp::mttkrp) — the Matricized Tensor Times
//!   Khatri-Rao Product, the paper's bottleneck operator;
//! * [`KruskalTensor`] — the decomposed form with Gram-identity norms and
//!   inner products (the reused intermediates of Sec. IV-B4);
//! * [`DenseTensor`] — a brute-force oracle for testing.

pub mod coo;
pub mod dense;
pub mod error;
pub mod kruskal;
mod lanes;
pub mod layout;
pub mod linalg;
pub mod matrix;
pub mod mttkrp;
pub mod ops;
pub mod pool;
pub mod robust;

pub use coo::{QuarantineCounts, SparseTensor, SparseTensorBuilder, ValidationMode};
pub use dense::DenseTensor;
pub use error::{Result, TensorError};
pub use kruskal::KruskalTensor;
pub use layout::MttkrpPlan;
pub use matrix::Matrix;
pub use pool::{ThreadPolicy, ThreadPool};
pub use robust::{NumericsReport, RobustSolver, SolveDecision, SolvePolicy, SolveTier};

#[cfg(test)]
mod proptests {
    use crate::coo::SparseTensorBuilder;
    use crate::dense::DenseTensor;
    use crate::matrix::Matrix;
    use crate::mttkrp::mttkrp;
    use crate::ops::{grand_sum_hadamard, khatri_rao, khatri_rao_skip};
    use proptest::prelude::*;

    /// Strategy: a small shape, a list of (index, value) entries, a rank.
    fn shape_strategy() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(1usize..5, 2..4)
    }

    type Entries = Vec<(Vec<usize>, f64)>;

    fn tensor_strategy() -> impl Strategy<Value = (Vec<usize>, Entries)> {
        shape_strategy().prop_flat_map(|shape| {
            let idx = shape.iter().map(|&s| 0usize..s).collect::<Vec<_>>();
            let entry = (idx, -2.0f64..2.0);
            (Just(shape), prop::collection::vec(entry, 0..20))
        })
    }

    /// A shape of order 1–6 (the split predicate has a compile-time body
    /// for orders 1–4 and a dynamic one above), entries inside it, and an
    /// old box drawn one of four ways: anywhere within the shape, equal to
    /// it (empty complement), with one zero-sized mode (empty restriction),
    /// or smaller in a single mode only.
    fn split_case_strategy() -> impl Strategy<Value = (Vec<usize>, Entries, Vec<usize>)> {
        (prop::collection::vec(1usize..5, 1..7), 0usize..4, 0usize..6).prop_flat_map(
            |(shape, kind, pick)| {
                let pick = pick % shape.len();
                let old = shape
                    .iter()
                    .enumerate()
                    .map(|(k, &s)| match kind {
                        0 => 0..s + 1,
                        1 => s..s + 1,
                        2 if k == pick => 0..1,
                        2 => 0..s + 1,
                        _ if k == pick => 0..s,
                        _ => s..s + 1,
                    })
                    .collect::<Vec<_>>();
                let idx = shape.iter().map(|&s| 0usize..s).collect::<Vec<_>>();
                let entries = prop::collection::vec((idx, -2.0f64..2.0), 0..30);
                (Just(shape), entries, old)
            },
        )
    }

    /// `(index tuple, value bits)` of every entry, sorted: a tensor's
    /// contents as a multiset.
    fn sorted_entries<'a>(
        tensors: impl IntoIterator<Item = &'a crate::SparseTensor>,
    ) -> Vec<(Vec<u32>, u64)> {
        let mut all: Vec<_> = tensors
            .into_iter()
            .flat_map(|t| t.iter().map(|(idx, v)| (idx.to_vec(), v.to_bits())))
            .collect();
        all.sort();
        all
    }

    proptest! {
        #[test]
        fn one_sided_splits_equal_the_two_sided_one(
            (shape, entries, old) in split_case_strategy(),
            deserialised in 0u8..2,
        ) {
            let t: crate::SparseTensor = if deserialised == 1 {
                // Straight from JSON, in generation order: unsorted, with
                // duplicates — nothing `build` would have normalised.
                let indices: Vec<usize> =
                    entries.iter().flat_map(|(idx, _)| idx.iter().copied()).collect();
                let values: Vec<f64> = entries.iter().map(|(_, v)| *v).collect();
                serde_json::from_str(&format!(
                    "{{\"shape\":{shape:?},\"indices\":{indices:?},\"values\":{values:?}}}"
                ))
                .unwrap()
            } else {
                let mut b = SparseTensorBuilder::new(shape.clone());
                for (idx, v) in &entries {
                    b.push(idx, *v).unwrap();
                }
                b.build().unwrap()
            };
            let restricted = t.restrict(&old).unwrap();
            let complement = t.complement(&old).unwrap();

            // Oracle: filter the stored entries, keeping their order.
            let filtered = |inside: bool| {
                let mut indices = Vec::new();
                let mut values = Vec::new();
                for (idx, v) in t.iter() {
                    if idx.iter().zip(&old).all(|(&i, &o)| (i as usize) < o) == inside {
                        indices.extend_from_slice(idx);
                        values.push(v.to_bits());
                    }
                }
                (indices, values)
            };
            let bits = |x: &crate::SparseTensor| -> Vec<u64> {
                x.values().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(restricted.shape(), &old[..]);
            prop_assert_eq!(complement.shape(), &shape[..]);
            let (indices, values) = filtered(true);
            prop_assert_eq!(restricted.indices_flat(), &indices[..]);
            prop_assert_eq!(bits(&restricted), values);
            let (indices, values) = filtered(false);
            prop_assert_eq!(complement.indices_flat(), &indices[..]);
            prop_assert_eq!(bits(&complement), values);
            // Both bodies of the predicate classify every entry as the
            // oracle does, whichever one the order dispatches to.
            let oracle: Vec<(bool, Vec<u32>, u64)> = t
                .iter()
                .map(|(idx, v)| {
                    let in_box = idx.iter().zip(&old).all(|(&i, &o)| (i as usize) < o);
                    (in_box, idx.to_vec(), v.to_bits())
                })
                .collect();
            let mut dispatched = Vec::new();
            t.scan_box(&old, |in_box, idx, v| dispatched.push((in_box, idx.to_vec(), v.to_bits())));
            let mut dynamic = Vec::new();
            t.scan_box_dyn(&old, |in_box, idx, v| dynamic.push((in_box, idx.to_vec(), v.to_bits())));
            prop_assert_eq!(&dispatched, &oracle);
            prop_assert_eq!(&dynamic, &oracle);
            if old == shape {
                prop_assert!(complement.is_empty());
            }
            if old.contains(&0) {
                prop_assert!(restricted.is_empty());
            }

            // The two-sided form agrees half for half …
            let (inside, outside) = t.split_at(&old).unwrap();
            prop_assert_eq!(&restricted, &inside);
            prop_assert_eq!(&complement, &outside);
            // … and so does the 2^N-way one: block 0 is the restriction,
            // the other signatures union to the complement.
            let blocks = t.split_blocks(&old).unwrap();
            let block0 = blocks.iter().filter(|(sig, _)| *sig == 0).map(|(_, b)| b);
            let rest = blocks.iter().filter(|(sig, _)| *sig != 0).map(|(_, b)| b);
            prop_assert_eq!(sorted_entries(block0), sorted_entries([&restricted]));
            prop_assert_eq!(sorted_entries(rest), sorted_entries([&complement]));
        }

        #[test]
        fn builder_never_stores_zeros_or_duplicates(
            (shape, entries) in tensor_strategy()
        ) {
            let mut b = SparseTensorBuilder::new(shape);
            for (idx, v) in &entries {
                b.push(idx, *v).unwrap();
            }
            let t = b.build().unwrap();
            // no zeros
            prop_assert!(t.values().iter().all(|&v| v != 0.0));
            // sorted + unique
            for e in 1..t.nnz() {
                prop_assert!(t.index(e - 1) < t.index(e));
            }
        }

        #[test]
        fn split_preserves_entries((shape, entries) in tensor_strategy()) {
            let mut b = SparseTensorBuilder::new(shape.clone());
            for (idx, v) in &entries {
                b.push(idx, *v).unwrap();
            }
            let t = b.build().unwrap();
            // Split at roughly half the box.
            let old: Vec<usize> = shape.iter().map(|&s| s / 2).collect();
            let (inside, outside) = t.split_at(&old).unwrap();
            prop_assert_eq!(inside.nnz() + outside.nnz(), t.nnz());
            let total: f64 = inside.norm_sq() + outside.norm_sq();
            prop_assert!((total - t.norm_sq()).abs() < 1e-9);
        }

        #[test]
        fn mttkrp_matches_oracle_on_random_tensors(
            (shape, entries) in tensor_strategy(),
            seed in 0u64..1000,
        ) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut b = SparseTensorBuilder::new(shape.clone());
            for (idx, v) in &entries {
                b.push(idx, *v).unwrap();
            }
            let t = b.build().unwrap();
            let factors: Vec<Matrix> = shape
                .iter()
                .map(|&s| Matrix::random(s, 2, &mut rng))
                .collect();
            for mode in 0..shape.len() {
                let fast = mttkrp(&t, &factors, mode).unwrap();
                let oracle = DenseTensor::from_sparse(&t)
                    .unwrap()
                    .unfold(mode)
                    .unwrap()
                    .matmul(&khatri_rao_skip(&factors, mode).unwrap())
                    .unwrap();
                prop_assert!(fast.max_abs_diff(&oracle).unwrap() < 1e-9);
            }
        }

        #[test]
        fn khatri_rao_column_structure(
            ar in prop::collection::vec(-2.0f64..2.0, 4),
            br in prop::collection::vec(-2.0f64..2.0, 6),
        ) {
            // a: 2x2, b: 3x2; check (a⊙b)[iJ+j, r] = a[i,r] b[j,r].
            let a = Matrix::from_vec(2, 2, ar).unwrap();
            let b = Matrix::from_vec(3, 2, br).unwrap();
            let kr = khatri_rao(&a, &b).unwrap();
            for i in 0..2 {
                for j in 0..3 {
                    for r in 0..2 {
                        let expect = a.get(i, r) * b.get(j, r);
                        prop_assert!((kr.get(i * 3 + j, r) - expect).abs() < 1e-12);
                    }
                }
            }
        }

        #[test]
        fn gram_grand_sum_identity(
            data in prop::collection::vec(-2.0f64..2.0, 12),
        ) {
            // grand_sum(AᵀA ⊛ AᵀA) == ‖AᵀA‖²_F for any A (sanity of the
            // Hadamard grand-sum kernel).
            let a = Matrix::from_vec(4, 3, data).unwrap();
            let g = a.gram();
            let lazy = grand_sum_hadamard(&[&g, &g]).unwrap();
            prop_assert!((lazy - g.frob_norm_sq()).abs() < 1e-9);
        }

        #[test]
        fn solve_right_solves(
            diag in prop::collection::vec(0.5f64..3.0, 3),
            brow in prop::collection::vec(-2.0f64..2.0, 6),
        ) {
            // Random SPD (diagonally dominant) system, verify X·M == B.
            let mut m = Matrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    m.set(i, j, if i == j { diag[i] + 2.0 } else { 0.3 });
                }
            }
            let b = Matrix::from_vec(2, 3, brow).unwrap();
            let x = crate::linalg::solve_right(&b, &m).unwrap();
            let back = x.matmul(&m).unwrap();
            prop_assert!(back.max_abs_diff(&b).unwrap() < 1e-8);
        }
    }
}
