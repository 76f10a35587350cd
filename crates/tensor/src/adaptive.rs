//! Adaptive per-cell MTTKRP kernel selection.
//!
//! The sorted-run layout ([`MttkrpPlan`]) amortises one counting sort per
//! mode into a streaming kernel — a clear win on dense-enough cells, pure
//! overhead on tiny or hyper-sparse ones where almost every run holds a
//! single entry (the "skip plan build" case: the COO kernel already *is*
//! the one-entry-per-run schedule, without paying the sort or the layout
//! tables).  [`AdaptivePolicy`] picks per grid cell from two statistics
//! the partitioner already tracks (see `partition::stats`): the cell's
//! nonzero count and its slice density (nnz per slice of the longest
//! mode).
//!
//! Selection is **bit-safe**: the COO and sorted-run kernels are bitwise
//! identical (pinned by the layout proptests — the stable permutation
//! preserves per-row accumulation order), so a mixed population of cell
//! kernels produces exactly the factors an all-COO or all-plan run would.
//! Cells whose coordinates overflow the plan's `u32` index space are
//! forced to COO rather than erroring, which is the documented fallback
//! for [`TensorError::PlanOverflow`](crate::TensorError::PlanOverflow).

use crate::coo::SparseTensor;
use crate::error::Result;
use crate::layout::MttkrpPlan;
use crate::matrix::Matrix;
use crate::pool::ThreadPool;

/// Which MTTKRP kernel a cell was assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutChoice {
    /// The naive COO kernel: no preprocessing, no entry or row tables to
    /// overflow, one scattered output write per entry.
    NaiveCoo,
    /// The sorted-run plan: one counting sort per mode up front, then
    /// streaming run-accumulated execution (pooled when a pool is given).
    SortedRuns,
}

/// Thresholds for the per-cell layout decision.
///
/// A cell gets a sorted-run plan only when it is big enough for the sort
/// to pay for itself (`min_plan_nnz`) *and* dense enough per slice that
/// runs actually amortise (`min_slice_density` — at density 1.0 the
/// average run holds one entry and the plan degenerates to COO with extra
/// tables).  Anything else, and anything outside the plan's `u32` index
/// space, takes the COO kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Minimum nonzeros before a plan build is worth the sort.
    pub min_plan_nnz: usize,
    /// Minimum nnz-per-slice of the longest mode before runs amortise.
    pub min_slice_density: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            min_plan_nnz: 128,
            min_slice_density: 1.0,
        }
    }
}

impl AdaptivePolicy {
    /// Decides the kernel for a cell with the given shape and nnz.
    pub fn choose(&self, shape: &[usize], nnz: usize) -> LayoutChoice {
        let max_dim = shape.iter().copied().max().unwrap_or(1).max(1);
        self.choose_measured(nnz, max_dim, nnz as f64 / max_dim as f64)
    }

    /// Decides from precomputed statistics — the entry point fed by the
    /// partitioner's `partition::stats::CellStats` (`nnz`, longest mode,
    /// slice density), so the distributed driver reuses numbers it
    /// already tracks.  Every dimension is bounded by `max_dim`, so the
    /// overflow screen on it covers the whole shape.
    pub fn choose_measured(&self, nnz: usize, max_dim: usize, slice_density: f64) -> LayoutChoice {
        if nnz < self.min_plan_nnz {
            return LayoutChoice::NaiveCoo;
        }
        if nnz as u64 > u64::from(u32::MAX) || max_dim as u64 > u64::from(u32::MAX) {
            // The plan would refuse with PlanOverflow; COO is the
            // documented fallback.
            return LayoutChoice::NaiveCoo;
        }
        if slice_density < self.min_slice_density {
            return LayoutChoice::NaiveCoo;
        }
        LayoutChoice::SortedRuns
    }
}

/// One grid cell's chosen MTTKRP kernel: either the raw COO tensor or a
/// prebuilt sorted-run plan.
#[derive(Debug, Clone)]
pub enum CellKernel {
    /// Naive COO execution over the retained tensor.
    Coo(SparseTensor),
    /// Sorted-run plan execution (the tensor itself is dropped — the plan
    /// carries everything the kernel needs).
    Plan(MttkrpPlan),
}

impl CellKernel {
    /// Builds the kernel the policy picks for `tensor`, recording the
    /// decision on the `plan/adaptive_coo` / `plan/adaptive_plan`
    /// counters.  Plan builds run on `pool`.
    ///
    /// # Errors
    /// Propagates plan-build failures (the policy itself never picks a
    /// plan for an overflowing cell, so this is defensive).
    pub fn select(
        tensor: SparseTensor,
        policy: &AdaptivePolicy,
        pool: &ThreadPool,
    ) -> Result<Self> {
        let choice = policy.choose(tensor.shape(), tensor.nnz());
        CellKernel::build(tensor, choice, pool)
    }

    /// Builds the kernel for an explicit choice (see
    /// [`select`](CellKernel::select) for the policy-driven path).
    ///
    /// # Errors
    /// Returns [`TensorError::PlanOverflow`](crate::TensorError::PlanOverflow)
    /// when `SortedRuns` is forced onto a cell outside the plan's `u32`
    /// index space.
    pub fn build(tensor: SparseTensor, choice: LayoutChoice, pool: &ThreadPool) -> Result<Self> {
        match choice {
            LayoutChoice::NaiveCoo => {
                dismastd_obs::counter_add("plan/adaptive_coo", 1);
                Ok(CellKernel::Coo(tensor))
            }
            LayoutChoice::SortedRuns => {
                let plan = MttkrpPlan::build_with(&tensor, pool)?;
                dismastd_obs::counter_add("plan/adaptive_plan", 1);
                Ok(CellKernel::Plan(plan))
            }
        }
    }

    /// Shape of the underlying cell.
    pub fn shape(&self) -> &[usize] {
        match self {
            CellKernel::Coo(t) => t.shape(),
            CellKernel::Plan(p) => p.shape(),
        }
    }

    /// Nonzeros covered by the kernel.
    pub fn nnz(&self) -> usize {
        match self {
            CellKernel::Coo(t) => t.nnz(),
            CellKernel::Plan(p) => p.nnz(),
        }
    }

    /// Extra heap bytes the layout tables hold (zero for COO — the raw
    /// tensor is the layout).
    pub fn layout_bytes(&self) -> usize {
        match self {
            CellKernel::Coo(_) => 0,
            CellKernel::Plan(p) => p.layout_bytes(),
        }
    }

    /// Accumulates the mode-`mode` MTTKRP into `out` (`out +=`) with
    /// whichever kernel the cell carries; plan cells execute on `pool`.
    /// Both kernels are bitwise identical, so the choice never changes
    /// factor bits.
    ///
    /// # Errors
    /// Returns a shape error if `factors` or `out` disagree with the cell.
    pub fn mttkrp_into(
        &self,
        factors: &[Matrix],
        mode: usize,
        out: &mut Matrix,
        pool: &ThreadPool,
    ) -> Result<()> {
        match self {
            CellKernel::Coo(t) => crate::mttkrp::mttkrp_into(t, factors, mode, out),
            CellKernel::Plan(p) => p.mttkrp_into_pooled(factors, mode, out, pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::SparseTensorBuilder;
    use crate::matrix::Matrix;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_tensor(shape: &[usize], nnz: usize, seed: u64) -> SparseTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            b.push(&idx, rng.gen_range(-1.0..1.0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn policy_picks_coo_for_tiny_and_hypersparse_cells() {
        let p = AdaptivePolicy::default();
        // Tiny: below the plan-build payoff threshold.
        assert_eq!(p.choose(&[100, 100, 100], 10), LayoutChoice::NaiveCoo);
        // Hyper-sparse: 200 entries over a 1000-long mode — runs of ~1.
        assert_eq!(p.choose(&[1000, 4, 4], 200), LayoutChoice::NaiveCoo);
        // Dense enough and big enough: plan.
        assert_eq!(p.choose(&[100, 100, 100], 5000), LayoutChoice::SortedRuns);
    }

    #[test]
    fn policy_never_picks_a_plan_that_would_overflow() {
        let p = AdaptivePolicy {
            min_plan_nnz: 0,
            min_slice_density: 0.0,
        };
        let huge = u32::MAX as usize + 1;
        assert_eq!(p.choose(&[huge, 2, 2], 1000), LayoutChoice::NaiveCoo);
        assert_eq!(p.choose(&[10, 10, 10], 1000), LayoutChoice::SortedRuns);
    }

    #[test]
    fn both_kernels_agree_bitwise_through_the_cell_interface() {
        let shape = [12, 10, 8];
        let t = random_tensor(&shape, 400, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect();
        let pool = ThreadPool::new(2);
        let coo = CellKernel::build(t.clone(), LayoutChoice::NaiveCoo, &pool).unwrap();
        let plan = CellKernel::build(t, LayoutChoice::SortedRuns, &pool).unwrap();
        assert!(matches!(coo, CellKernel::Coo(_)));
        assert!(matches!(plan, CellKernel::Plan(_)));
        assert_eq!(coo.nnz(), plan.nnz());
        assert_eq!(coo.layout_bytes(), 0);
        assert!(plan.layout_bytes() > 0);
        for mode in 0..3 {
            let mut a = Matrix::zeros(shape[mode], 3);
            let mut b = Matrix::zeros(shape[mode], 3);
            coo.mttkrp_into(&factors, mode, &mut a, &pool).unwrap();
            plan.mttkrp_into(&factors, mode, &mut b, &pool).unwrap();
            assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0, "mode {mode}");
        }
    }

    #[test]
    fn selection_records_its_choice_on_the_counters() {
        let pool = ThreadPool::new(1);
        let collector = dismastd_obs::begin();
        let tiny = random_tensor(&[6, 5, 4], 20, 3);
        let big = random_tensor(&[10, 10, 10], 600, 4);
        let a = CellKernel::select(tiny, &AdaptivePolicy::default(), &pool).unwrap();
        let b = CellKernel::select(big, &AdaptivePolicy::default(), &pool).unwrap();
        assert!(matches!(a, CellKernel::Coo(_)));
        assert!(matches!(b, CellKernel::Plan(_)));
        let snap = collector.finish();
        assert_eq!(snap.counter_value("plan/adaptive_coo"), 1);
        assert_eq!(snap.counter_value("plan/adaptive_plan"), 1);
    }
}
