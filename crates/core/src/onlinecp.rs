//! OnlineCP — the *traditional* (one-mode) streaming baseline.
//!
//! The paper's Table I positions DisMASTD against streaming CP methods that
//! assume the tensor grows in a **single** (temporal) mode; OnlineCP
//! (Zhou et al., KDD 2016) is the canonical one.  This module implements it
//! so the repository can demonstrate the boundary the paper draws: on a
//! one-mode stream OnlineCP is a fast incremental update, but it has no
//! answer for snapshots that grow in several modes at once, where DTD
//! (Alg. 1) still applies.
//!
//! ## Algorithm sketch
//!
//! With the temporal mode last, OnlineCP keeps for every non-temporal mode
//! `n` two accumulators over all data seen so far:
//!
//! * `P_n = X_(n) (A_k)^{⊙ k≠n}` — the accumulated MTTKRP;
//! * `Q_n = ⊛_{k≠n} A_kᵀA_k` — the accumulated Gram Hadamard product.
//!
//! For each arriving slice batch `ΔX` (new temporal indices only):
//!
//! 1. project the new slices onto the current factors to get their temporal
//!    rows: `C_new = ΔX_(N) (A_k)^{⊙ k<N} (⊛_{k<N} A_kᵀA_k)⁻¹`;
//! 2. fold `ΔX` (with `C_new`) into every `P_n` and `Q_n`;
//! 3. refresh each non-temporal factor in one shot: `A_n = P_n Q_n⁻¹`;
//! 4. append `C_new` to the temporal factor.
//!
//! No pass over historical data ever happens — but unlike DTD, old factor
//! rows are refreshed from *stale accumulators* (computed with the factors
//! current at the time), which is the approximation OnlineCP accepts.

use crate::config::DecompConfig;
use dismastd_tensor::linalg::solve_right;
use dismastd_tensor::matrix::Matrix;
use dismastd_tensor::mttkrp::mttkrp;
use dismastd_tensor::ops::hadamard_skip;
use dismastd_tensor::{KruskalTensor, MttkrpPlan, Result, SparseTensor, TensorError};

/// Incremental one-mode streaming CP state.
#[derive(Debug, Clone)]
pub struct OnlineCp {
    /// Non-temporal factors `A_1 … A_{N-1}`.
    factors: Vec<Matrix>,
    /// Temporal factor `C`, growing by `d` rows per batch.
    temporal: Matrix,
    /// Accumulated MTTKRPs `P_n`, one per non-temporal mode.
    p: Vec<Matrix>,
    /// Accumulated Gram products `Q_n`, one per non-temporal mode.
    q: Vec<Matrix>,
    rank: usize,
}

impl OnlineCp {
    /// Initialises from a batch decomposition of the starting tensor
    /// (temporal mode **last**), running full CP-ALS under `cfg`.
    ///
    /// # Errors
    /// Propagates configuration/solver errors; rejects order < 2.
    pub fn init(x0: &SparseTensor, cfg: &DecompConfig) -> Result<Self> {
        if x0.order() < 2 {
            return Err(TensorError::InvalidArgument(
                "OnlineCP needs at least an order-2 tensor".into(),
            ));
        }
        let batch = crate::als::cp_als(x0, cfg)?;
        let mut all = batch.kruskal.into_factors();
        // lint:allow(panic_path): invariant — order >= 2 was validated above
        let temporal = all.pop().expect("order >= 2");
        let factors = all;
        let n_non_temporal = factors.len();

        // Accumulators over the initial batch.
        let mut full: Vec<Matrix> = factors.clone();
        full.push(temporal.clone());
        let mut p = Vec::with_capacity(n_non_temporal);
        let mut q = Vec::with_capacity(n_non_temporal);
        let grams: Vec<Matrix> = full.iter().map(Matrix::gram).collect();
        for n in 0..n_non_temporal {
            p.push(mttkrp(x0, &full, n)?);
            q.push(hadamard_skip(&grams, n)?);
        }
        Ok(OnlineCp {
            factors,
            temporal,
            p,
            q,
            rank: cfg.rank,
        })
    }

    /// Decomposition rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Current shape (temporal mode last).
    pub fn shape(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.factors.iter().map(Matrix::rows).collect();
        s.push(self.temporal.rows());
        s
    }

    /// The current decomposition as a Kruskal tensor (temporal mode last).
    ///
    /// # Errors
    /// Never fails in practice; propagates the rank-consistency check.
    pub fn kruskal(&self) -> Result<KruskalTensor> {
        let mut all = self.factors.clone();
        all.push(self.temporal.clone());
        KruskalTensor::new(all)
    }

    /// Ingests a batch of new temporal slices.
    ///
    /// `delta` must have the same non-temporal shape as the current state
    /// and temporal indices local to the batch (`0..d`).
    ///
    /// # Errors
    /// Returns a shape error when the non-temporal dimensions disagree, and
    /// `PlanOverflow` for a batch the MTTKRP plan's `u32` tables cannot
    /// index.
    pub fn ingest_slices(&mut self, delta: &SparseTensor) -> Result<()> {
        let n_modes = self.factors.len() + 1;
        if delta.order() != n_modes {
            return Err(TensorError::ShapeMismatch {
                op: "OnlineCp::ingest_slices order",
                left: self.shape(),
                right: delta.shape().to_vec(),
            });
        }
        for (n, f) in self.factors.iter().enumerate() {
            if delta.shape()[n] != f.rows() {
                return Err(TensorError::ShapeMismatch {
                    op: "OnlineCp::ingest_slices non-temporal shape",
                    left: self.shape(),
                    right: delta.shape().to_vec(),
                });
            }
        }
        let d = delta.shape()[n_modes - 1];
        if d == 0 {
            return Ok(());
        }

        // 1. Temporal rows of the new slices (projection step).
        let grams: Vec<Matrix> = self.factors.iter().map(Matrix::gram).collect();
        let h = {
            // ⊛ over all non-temporal modes.
            let mut acc = grams[0].clone();
            for g in &grams[1..] {
                acc.hadamard_assign(g)?;
            }
            acc
        };
        // One kernel layout per update, shared by all `N` MTTKRPs over ΔX
        // (the serial DTD solver's kernel, so the baseline is not the one
        // left on the slow kernel).
        let plan = {
            let _s = dismastd_obs::span("phase/plan_build");
            MttkrpPlan::build(delta)?
        };
        // Factor list with a placeholder for the temporal mode (its values
        // are never read by mttkrp of the temporal mode itself).
        let mut with_placeholder: Vec<Matrix> = self.factors.clone();
        with_placeholder.push(Matrix::zeros(d, self.rank));
        let hat_temporal = plan.mttkrp(&with_placeholder, n_modes - 1)?;
        let c_new = solve_right(&hat_temporal, &h)?;

        // 2. Fold ΔX into the accumulators using C_new (all hats computed
        //    against the pre-update factors for determinism).
        let mut with_c = self.factors.clone();
        with_c.push(c_new.clone());
        let c_gram = c_new.gram();
        let mut hats = Vec::with_capacity(self.factors.len());
        for n in 0..self.factors.len() {
            hats.push(plan.mttkrp(&with_c, n)?);
        }
        // 3. Refresh non-temporal factors.
        for n in 0..self.factors.len() {
            self.p[n].add_assign(&hats[n])?;
            let mut dq = c_gram.clone();
            for (k, g) in grams.iter().enumerate() {
                if k != n {
                    dq.hadamard_assign(g)?;
                }
            }
            self.q[n].add_assign(&dq)?;
            self.factors[n] = solve_right(&self.p[n], &self.q[n])?;
        }
        // 4. Append the temporal rows.
        self.temporal = self.temporal.vstack(&c_new)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismastd_tensor::SparseTensorBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A low-rank ground truth over `shape` (temporal last), returned as
    /// factors; observations are the full dense tensor, split by time.
    fn ground_truth(shape: &[usize], rank: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        shape
            .iter()
            .map(|&s| Matrix::random(s, rank, &mut rng))
            .collect()
    }

    /// Dense tensor of the truth restricted to temporal range [t0, t1).
    fn slice_batch(truth: &[Matrix], t0: usize, t1: usize) -> SparseTensor {
        let k = KruskalTensor::new(truth.to_vec()).expect("equal ranks");
        let dense = k.to_dense().expect("small");
        let order = truth.len();
        let mut shape: Vec<usize> = truth.iter().map(Matrix::rows).collect();
        shape[order - 1] = t1 - t0;
        let mut b = SparseTensorBuilder::new(shape);
        for (idx, v) in dense.iter_all() {
            let t = idx[order - 1];
            if t < t0 || t >= t1 || v == 0.0 {
                continue;
            }
            let mut local = idx.clone();
            local[order - 1] = t - t0;
            b.push(&local, v).expect("in bounds");
        }
        b.build().expect("valid")
    }

    fn full_tensor(truth: &[Matrix]) -> SparseTensor {
        let t = truth.last().expect("non-empty").rows();
        slice_batch(truth, 0, t)
    }

    fn cfg(rank: usize) -> DecompConfig {
        DecompConfig::default()
            .with_rank(rank)
            .with_max_iters(60)
            .with_tolerance(1e-10)
    }

    #[test]
    fn tracks_a_low_rank_one_mode_stream() {
        let truth = ground_truth(&[8, 7, 12], 2, 2);
        // Initial batch: first 6 time steps; stream the rest in batches.
        let x0 = slice_batch(&truth, 0, 6);
        let mut online = OnlineCp::init(&x0, &cfg(2)).unwrap();
        assert_eq!(online.shape(), vec![8, 7, 6]);
        for (t0, t1) in [(6usize, 8usize), (8, 10), (10, 12)] {
            let delta = slice_batch(&truth, t0, t1);
            online.ingest_slices(&delta).unwrap();
        }
        assert_eq!(online.shape(), vec![8, 7, 12]);
        let fit = online.kruskal().unwrap().fit(&full_tensor(&truth)).unwrap();
        assert!(
            fit > 0.95,
            "OnlineCP fit {fit} on an exactly low-rank stream"
        );
    }

    #[test]
    fn comparable_to_batch_als_on_stream_end() {
        let truth = ground_truth(&[6, 6, 10], 2, 3);
        let full = full_tensor(&truth);
        let batch = crate::als::cp_als(&full, &cfg(2)).unwrap();
        let batch_fit = batch.kruskal.fit(&full).unwrap();

        let x0 = slice_batch(&truth, 0, 5);
        let mut online = OnlineCp::init(&x0, &cfg(2)).unwrap();
        for t in 5..10 {
            online
                .ingest_slices(&slice_batch(&truth, t, t + 1))
                .unwrap();
        }
        let online_fit = online.kruskal().unwrap().fit(&full).unwrap();
        assert!(
            online_fit > batch_fit - 0.1,
            "online {online_fit} vs batch {batch_fit}"
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let truth = ground_truth(&[5, 5, 8], 2, 5);
        let x0 = slice_batch(&truth, 0, 8);
        let mut online = OnlineCp::init(&x0, &cfg(2)).unwrap();
        let before = online.shape();
        let empty = SparseTensor::empty(vec![5, 5, 0]).unwrap();
        online.ingest_slices(&empty).unwrap();
        assert_eq!(online.shape(), before);
    }

    #[test]
    fn rejects_mismatched_batches() {
        let truth = ground_truth(&[5, 5, 8], 2, 7);
        let x0 = slice_batch(&truth, 0, 8);
        let mut online = OnlineCp::init(&x0, &cfg(2)).unwrap();
        // Wrong order.
        let bad_order = SparseTensor::empty(vec![5, 2]).unwrap();
        assert!(online.ingest_slices(&bad_order).is_err());
        // Grown non-temporal mode — the case OnlineCP cannot handle.
        let multi_aspect = SparseTensor::empty(vec![6, 5, 2]).unwrap();
        assert!(online.ingest_slices(&multi_aspect).is_err());
    }

    #[test]
    fn init_rejects_degenerate_order() {
        let x = SparseTensor::empty(vec![4]).unwrap();
        assert!(OnlineCp::init(&x, &cfg(2)).is_err());
    }

    #[test]
    fn fourth_order_stream_supported() {
        let truth = ground_truth(&[4, 4, 3, 8], 2, 9);
        let x0 = slice_batch(&truth, 0, 5);
        let mut online = OnlineCp::init(&x0, &cfg(2)).unwrap();
        online.ingest_slices(&slice_batch(&truth, 5, 8)).unwrap();
        assert_eq!(online.shape(), vec![4, 4, 3, 8]);
        let fit = online.kruskal().unwrap().fit(&full_tensor(&truth)).unwrap();
        assert!(fit > 0.9, "order-4 fit {fit}");
    }
}
