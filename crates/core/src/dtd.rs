//! Dynamic Tensor Decomposition — Algorithm 1 with the Eq. 5 update rules,
//! for tensors of arbitrary order.
//!
//! Given the previous snapshot's CP factors `{Ã_n}` and the relative
//! complement `X \ X̃` of the new snapshot, DTD alternates over modes,
//! updating the old-row block `A_n^(0)` and new-row block `A_n^(1)` of each
//! stacked factor.  The previous snapshot tensor itself never appears — its
//! decomposition stands in for it, weighted by the forgetting factor `μ`
//! (Eq. 2) — so the per-iteration cost is `O(nnz(X\X̃)·N·R + N·R³ + …)`
//! (Theorem 2) regardless of how large the accumulated history is.
//!
//! The static CP-ALS baseline falls out as the special case of zero-row
//! previous factors: every row is "new", the `A^(1)` rule is the classic
//! normal equation `A_n ← Â_n (⊛_{k≠n} G_k)⁻¹`, and the loss degenerates to
//! `‖X − ⟦A⟧‖²`.  [`crate::als`] wraps exactly that.

use crate::config::DecompConfig;
use crate::loss::{dtd_loss, GramState, LossParts};
use dismastd_tensor::linalg::{Factorized, RowUpdate};
use dismastd_tensor::matrix::{Matrix, RowSet};
use dismastd_tensor::mttkrp::inner_from_mttkrp;
use dismastd_tensor::ops::grand_sum_hadamard;
use dismastd_tensor::{
    KruskalTensor, MttkrpPlan, NumericsReport, Result, RobustSolver, SparseTensor, TensorError,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Result of a DTD (or static ALS) run.
#[derive(Debug, Clone)]
pub struct DtdOutput {
    /// The CP decomposition of the current snapshot.
    pub kruskal: KruskalTensor,
    /// Number of ALS iterations executed.
    pub iterations: usize,
    /// Eq. 4 loss after every iteration.
    pub loss_trace: Vec<f64>,
    /// Which solver tiers the normal-equation solves escalated through.
    pub numerics: NumericsReport,
}

/// The zero-history "previous factors": with zero-row matrices every row of
/// every mode is a new row, which turns DTD into static CP-ALS.
pub(crate) fn zero_history(order: usize, rank: usize) -> Vec<Matrix> {
    (0..order).map(|_| Matrix::zeros(0, rank)).collect()
}

/// Stacks the previous factors over seeded-random new rows — Alg. 1 lines
/// 1-2 (`A^(0) ← Ã`, `A^(1) ← rand(d_n, R)`).
///
/// Exposed so the serial and distributed solvers initialise identically.
///
/// # Errors
/// Returns shape errors if `old_factors` exceed `new_shape` or disagree on
/// rank.
pub fn init_factors(
    old_factors: &[Matrix],
    new_shape: &[usize],
    rank: usize,
    seed: u64,
) -> Result<Vec<Matrix>> {
    if old_factors.len() != new_shape.len() {
        return Err(TensorError::ShapeMismatch {
            op: "init_factors",
            left: vec![old_factors.len()],
            right: vec![new_shape.len()],
        });
    }
    let mut factors = Vec::with_capacity(new_shape.len());
    for (n, (of, &dim)) in old_factors.iter().zip(new_shape).enumerate() {
        if of.rows() > dim {
            return Err(TensorError::InvalidArgument(format!(
                "mode {n}: old factor has {} rows but the new shape is {dim}",
                of.rows()
            )));
        }
        if of.rows() > 0 && of.cols() != rank {
            return Err(TensorError::ShapeMismatch {
                op: "init_factors rank",
                left: vec![rank],
                right: vec![of.cols()],
            });
        }
        let d = dim - of.rows();
        // Separate stream per mode keeps init independent of mode order.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((n as u64 + 1) << 32));
        let fresh = Matrix::random(d, rank, &mut rng);
        factors.push(if of.rows() == 0 {
            fresh
        } else {
            of.vstack(&fresh)?
        });
    }
    Ok(factors)
}

/// Row ids are `u32` in the MTTKRP plan's tables and in the distributed
/// ownership and routing tables: refuses a mode they cannot number.  Both
/// solvers call it before anything is sized by the shape.
pub(crate) fn check_row_ids(shape: &[usize]) -> Result<()> {
    match shape.iter().find(|&&s| u32::try_from(s).is_err()) {
        Some(&dim) => Err(TensorError::PlanOverflow {
            what: "shape dimension",
            value: dim as u64,
        }),
        None => Ok(()),
    }
}

/// `‖⟦Ã⟧‖²` — a constant of the snapshot (Sec. IV-B4 "pre-computed"
/// terms); `0` when some mode has no old rows, i.e. there is no old box.
pub(crate) fn old_norm_sq(old_factors: &[Matrix]) -> Result<f64> {
    if old_factors.iter().any(|f| f.rows() == 0) {
        return Ok(0.0);
    }
    let grams: Vec<Matrix> = old_factors.iter().map(Matrix::gram).collect();
    grand_sum_hadamard(&grams)
}

/// Runs DTD (Alg. 1) on the complement tensor.
///
/// * `complement` — `X \ X̃` in the **new snapshot's coordinate space**
///   (shape = new shape; no entry fully inside the old box);
/// * `old_factors` — `{Ã_n}`, the CP factors of the previous snapshot
///   (zero-row matrices for a cold start);
/// * the tensor shape doubles as the new snapshot shape.
///
/// # Errors
/// Validates configuration and shapes — a mode longer than `u32::MAX` is
/// refused with [`TensorError::PlanOverflow`] before anything is sized by
/// it; propagates solver errors.
pub fn dtd(
    complement: &SparseTensor,
    old_factors: &[Matrix],
    cfg: &DecompConfig,
) -> Result<DtdOutput> {
    cfg.validate().map_err(TensorError::InvalidArgument)?;
    let new_shape = complement.shape();
    check_row_ids(new_shape)?;
    let n_modes = complement.order();
    if old_factors.len() != n_modes {
        return Err(TensorError::ShapeMismatch {
            op: "dtd old_factors",
            left: vec![n_modes],
            right: vec![old_factors.len()],
        });
    }
    let old_rows: Vec<usize> = old_factors.iter().map(Matrix::rows).collect();
    // Every complement entry must lie outside the old box.
    debug_assert!(complement
        .iter()
        .all(|(idx, _)| SparseTensor::block_of(idx, &old_rows) != 0));

    let mut factors = init_factors(old_factors, new_shape, cfg.rank, cfg.seed)?;
    let mut state = GramState::compute(&factors, old_factors)?;
    let old_norm_sq = old_norm_sq(old_factors)?;
    let complement_norm_sq = complement.norm_sq();

    // The complement's sorted-run plan: built once, without copying the
    // complement, then reused by every mode of every iteration.  Call-local
    // — every step's complement is new data.
    let plan = {
        let _s = dismastd_obs::span("phase/plan_build");
        MttkrpPlan::build(complement)?
    };
    // One Â buffer per mode for the whole call, re-zeroed before each use.
    let mut hats: Vec<Matrix> = new_shape
        .iter()
        .map(|&rows| Matrix::zeros(rows, cfg.rank))
        .collect();

    let solver = RobustSolver::new(cfg.numerics.solver);
    // Scratch of the solves: after the first iteration none allocates.
    let mut fact = Factorized::default();
    let mut numerics = NumericsReport::default();
    let mut loss_trace = Vec::with_capacity(cfg.max_iters);
    let mut iterations = 0;
    for _iter in 0..cfg.max_iters {
        let mut final_inner = 0.0;
        for n in 0..n_modes {
            // MTTKRP over the complement — the bottleneck operator.
            {
                let _s = dismastd_obs::span("phase/mttkrp");
                hats[n].fill_zero();
                plan.mttkrp_into(&factors, n, &mut hats[n])?;
            }
            let hat = &hats[n];

            let old_n = old_rows[n];
            {
                let _s = dismastd_obs::span("phase/solve");
                // Denominators and ⊛G̃ (Eq. 5), then both row blocks solved
                // straight from Â into the factor:
                // A_n^(0) = (μ Ã_n (⊛_{k≠n} G̃_k) + Â^(0)) · D0⁻¹,
                // A_n^(1) = Â^(1) · D1⁻¹.
                state.prepare_mode(n, cfg.forgetting)?;
                let history = Some((cfg.forgetting, &old_factors[n], &state.cross_had));
                for (d, history, rows) in [
                    (&state.d0, history, 0..old_n),
                    (&state.d1, None, old_n..hat.rows()),
                ] {
                    if rows.is_empty() {
                        continue;
                    }
                    let job = RowUpdate {
                        rhs: hat,
                        history,
                        rows: RowSet::Range(rows),
                    };
                    solver.solve_rows(d, &job, &mut factors[n], &mut fact, &mut numerics)?;
                }
            }

            {
                let _s = dismastd_obs::span("phase/gram");
                // Refresh the cached products for mode n (Sec. IV-B3).
                state.refresh(n, &factors[n], &old_factors[n])?;
            }

            if n == n_modes - 1 {
                // Reuse Â for ⟨X\X̃, ⟦A⟧⟩ (Eq. 7): all other factors are at
                // their final values for this iteration, and mode n was just
                // updated from this very Â.
                let _s = dismastd_obs::span("phase/loss");
                final_inner = inner_from_mttkrp(hat, &factors[n])?;
            }
        }
        iterations += 1;
        let loss = {
            let _s = dismastd_obs::span("phase/loss");
            dtd_loss(
                &state,
                &LossParts {
                    mu: cfg.forgetting,
                    old_norm_sq,
                    complement_norm_sq,
                    inner: final_inner,
                },
            )?
        };
        loss_trace.push(loss);
        if converged(&loss_trace, cfg.tolerance) {
            break;
        }
    }

    // Label 0/1/2 = cholesky/lu/ridge: which tiers the solves escalated
    // through, visible per step without digging into NumericsReport.
    if numerics.cholesky_solves > 0 {
        dismastd_obs::counter_add_with("solve/tier", 0, numerics.cholesky_solves);
    }
    if numerics.lu_solves > 0 {
        dismastd_obs::counter_add_with("solve/tier", 1, numerics.lu_solves);
    }
    if numerics.ridge_solves > 0 {
        dismastd_obs::counter_add_with("solve/tier", 2, numerics.ridge_solves);
    }

    Ok(DtdOutput {
        kruskal: KruskalTensor::new(factors)?,
        iterations,
        loss_trace,
        numerics,
    })
}

/// "Fit ceases to improve" test (Alg. 1 line 7): relative improvement of the
/// last step below `tol`.
pub(crate) fn converged(trace: &[f64], tol: f64) -> bool {
    if tol <= 0.0 || trace.len() < 2 {
        return false;
    }
    let prev = trace[trace.len() - 2];
    let cur = trace[trace.len() - 1];
    let denom = prev.abs().max(1e-30);
    (prev - cur) / denom < tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::naive_dtd_loss;
    use dismastd_tensor::SparseTensorBuilder;
    use rand::Rng;

    fn cfg(rank: usize) -> DecompConfig {
        DecompConfig::default()
            .with_rank(rank)
            .with_max_iters(15)
            .with_seed(7)
    }

    /// Complement tensor over `new_shape` given `old_shape`, random entries.
    fn random_complement(
        old_shape: &[usize],
        new_shape: &[usize],
        nnz: usize,
        seed: u64,
    ) -> SparseTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = SparseTensorBuilder::new(new_shape.to_vec());
        let mut placed = 0;
        while placed < nnz {
            let idx: Vec<usize> = new_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            if idx.iter().zip(old_shape).all(|(i, old)| i < old) {
                continue;
            }
            b.push(&idx, rng.gen_range(-1.0..1.0)).unwrap();
            placed += 1;
        }
        b.build().unwrap()
    }

    fn random_old_factors(old_shape: &[usize], rank: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        old_shape
            .iter()
            .map(|&s| Matrix::random(s, rank, &mut rng))
            .collect()
    }

    #[test]
    fn init_factors_stacks_old_over_random() {
        let old = random_old_factors(&[3, 2], 2, 1);
        let f = init_factors(&old, &[5, 4], 2, 9).unwrap();
        assert_eq!(f[0].rows(), 5);
        assert_eq!(f[1].rows(), 4);
        // Old block preserved verbatim.
        assert_eq!(f[0].row_block(0, 3).unwrap(), old[0]);
        assert_eq!(f[1].row_block(0, 2).unwrap(), old[1]);
        // Deterministic per seed.
        let g = init_factors(&old, &[5, 4], 2, 9).unwrap();
        assert_eq!(f, g);
        let h = init_factors(&old, &[5, 4], 2, 10).unwrap();
        assert_ne!(f, h);
    }

    #[test]
    fn init_factors_validates() {
        let old = random_old_factors(&[5], 2, 1);
        assert!(init_factors(&old, &[3], 2, 0).is_err()); // shrinking mode
        assert!(init_factors(&old, &[5, 5], 2, 0).is_err()); // order mismatch
        assert!(init_factors(&old, &[6], 3, 0).is_err()); // rank mismatch
    }

    #[test]
    fn loss_is_monotone_nonincreasing() {
        // ALS minimises Eq. 4 exactly per block, so the surrogate loss must
        // not increase between iterations.
        let old_shape = [4usize, 5, 3];
        let new_shape = [6usize, 7, 5];
        let old = random_old_factors(&old_shape, 3, 2);
        let x = random_complement(&old_shape, &new_shape, 60, 3);
        let out = dtd(&x, &old, &cfg(3)).unwrap();
        for w in out.loss_trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9 * (1.0 + w[0].abs()),
                "loss increased: {:?}",
                out.loss_trace
            );
        }
    }

    #[test]
    fn internal_loss_matches_naive_oracle_at_convergence() {
        let old_shape = [3usize, 3, 2];
        let new_shape = [5usize, 4, 4];
        let old = random_old_factors(&old_shape, 2, 4);
        let x = random_complement(&old_shape, &new_shape, 30, 5);
        let out = dtd(&x, &old, &cfg(2)).unwrap();
        let reported = *out.loss_trace.last().unwrap();
        let naive = naive_dtd_loss(&x, &old, out.kruskal.factors(), 0.8).unwrap();
        assert!(
            (reported - naive).abs() < 1e-8 * (1.0 + naive.abs()),
            "{reported} vs {naive}"
        );
    }

    #[test]
    fn exact_rank_recovery_on_synthetic_complement() {
        // Build a complement that *is* low rank: sample a ground-truth
        // Kruskal tensor on the full box and keep only cells outside the old
        // box.  DTD should drive the complement residual near zero.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let old_shape = [3usize, 3, 3];
        let new_shape = [5usize, 5, 5];
        let rank = 2;
        let truth: Vec<Matrix> = new_shape
            .iter()
            .map(|&s| Matrix::random(s, rank, &mut rng))
            .collect();
        let truth_k = KruskalTensor::new(truth.clone()).unwrap();
        let dense = truth_k.to_dense().unwrap();
        let mut b = SparseTensorBuilder::new(new_shape.to_vec());
        for (idx, v) in dense.iter_all() {
            if idx.iter().zip(&old_shape).any(|(i, old)| i >= old) {
                b.push(&idx, v).unwrap();
            }
        }
        let complement = b.build().unwrap();
        // Old factors: the truth restricted to the old box (a perfectly
        // consistent previous decomposition).
        let old: Vec<Matrix> = truth
            .iter()
            .zip(&old_shape)
            .map(|(f, &r)| f.row_block(0, r).unwrap())
            .collect();
        let out = dtd(
            &complement,
            &old,
            &cfg(rank).with_max_iters(60).with_forgetting(1.0),
        )
        .unwrap();
        let final_loss = *out.loss_trace.last().unwrap();
        let scale = complement.norm_sq();
        assert!(
            final_loss < 1e-4 * scale,
            "loss {final_loss} vs tensor norm² {scale}"
        );
    }

    #[test]
    fn cold_start_equals_static_behaviour() {
        // Zero-row old factors: DTD must run and the loss must equal the
        // static residual ‖X − ⟦A⟧‖².
        let shape = [6usize, 5, 4];
        let zero_old: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(0, 3)).collect();
        let x = random_complement(&[0, 0, 0], &shape, 50, 6);
        let out = dtd(&x, &zero_old, &cfg(3)).unwrap();
        let reported = *out.loss_trace.last().unwrap();
        let direct = out.kruskal.residual_norm_sq(&x).unwrap();
        assert!(
            (reported - direct).abs() < 1e-8 * (1.0 + direct),
            "{reported} vs {direct}"
        );
    }

    #[test]
    fn respects_max_iters_and_tolerance() {
        let old_shape = [3usize, 3];
        let new_shape = [5usize, 5];
        let old = random_old_factors(&old_shape, 2, 8);
        let x = random_complement(&old_shape, &new_shape, 20, 9);
        let out = dtd(&x, &old, &cfg(2).with_max_iters(3)).unwrap();
        assert_eq!(out.iterations, 3);
        assert_eq!(out.loss_trace.len(), 3);
        // With a loose tolerance it stops early.
        let out2 = dtd(&x, &old, &cfg(2).with_max_iters(50).with_tolerance(0.5)).unwrap();
        assert!(out2.iterations < 50);
    }

    #[test]
    fn converged_logic() {
        assert!(!converged(&[10.0], 1e-2));
        assert!(!converged(&[10.0, 5.0], 1e-2)); // 50% improvement
        assert!(converged(&[10.0, 9.9999], 1e-2)); // 0.001% improvement
        assert!(!converged(&[10.0, 9.0], 0.0)); // tol 0 never converges
        assert!(converged(&[5.0, 5.0], 1e-9)); // no improvement at all
    }

    #[test]
    fn fourth_order_tensor_supported() {
        let old_shape = [2usize, 3, 2, 2];
        let new_shape = [4usize, 4, 3, 3];
        let old = random_old_factors(&old_shape, 2, 12);
        let x = random_complement(&old_shape, &new_shape, 40, 13);
        let out = dtd(&x, &old, &cfg(2)).unwrap();
        assert_eq!(out.kruskal.order(), 4);
        assert_eq!(out.kruskal.shape(), new_shape.to_vec());
        for w in out.loss_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-9 * (1.0 + w[0].abs()));
        }
    }

    #[test]
    fn empty_complement_keeps_old_factors_shape() {
        // Snapshot grew but no new nonzeros arrived: DTD still runs (the
        // new rows fit only the μ-term and the zero complement).
        let old_shape = [3usize, 3];
        let old = random_old_factors(&old_shape, 2, 14);
        let x = SparseTensor::empty(vec![4, 4]).unwrap();
        let out = dtd(&x, &old, &cfg(2)).unwrap();
        assert_eq!(out.kruskal.shape(), vec![4, 4]);
    }

    #[test]
    fn numerics_report_counts_solves() {
        let old_shape = [3usize, 3];
        let old = random_old_factors(&old_shape, 2, 8);
        let x = random_complement(&old_shape, &[5, 5], 20, 9);
        let out = dtd(&x, &old, &cfg(2).with_max_iters(3)).unwrap();
        // Both blocks are present in both modes, so every iteration issues
        // two solves per mode.
        let total =
            out.numerics.cholesky_solves + out.numerics.lu_solves + out.numerics.ridge_solves;
        assert_eq!(total, 2 * 2 * 3);
        assert!(!out.numerics.escalated());
    }

    #[test]
    fn post_solve_escalation_resolves_from_the_untouched_mttkrp() {
        // Mode 1 does not grow and its old factor is ~1e-120, so mode 0's
        // new-row denominator D1 = G¹ is ~1e-240: perfectly conditioned,
        // accepted by Cholesky — and Â/D1 ~ 1e190·1e-120/1e-240 overflows.
        // The solve must notice, keep Â, and redo the block under a ridge.
        let rank = 2;
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut tiny = Matrix::random(4, rank, &mut rng);
        tiny.scale_assign(1e-120);
        let old = vec![Matrix::random(3, rank, &mut rng), tiny];
        let mut b = SparseTensorBuilder::new(vec![6, 4]);
        for i in 3..6 {
            for j in 0..4 {
                b.push(&[i, j], 1e190 * rng.gen_range(0.5..1.5)).unwrap();
            }
        }
        let x = b.build().unwrap();
        let cfg = cfg(rank).with_max_iters(1);
        let out = dtd(&x, &old, &cfg).unwrap();
        assert_eq!(out.numerics.post_escalations, 1, "{:?}", out.numerics);
        assert_eq!(out.numerics.max_lambda, 1e-10);

        // What the ridge re-solve must have seen: the first iteration's Â.
        let init = init_factors(&old, &[6, 4], rank, cfg.seed).unwrap();
        let hat = dismastd_tensor::mttkrp::mttkrp(&x, &init, 0).unwrap();
        let mut shifted = old[1].gram();
        for c in 0..rank {
            shifted.set(c, c, shifted.get(c, c) + 1e-10);
        }
        let expected =
            dismastd_tensor::linalg::solve_right(&hat.row_block(3, 6).unwrap(), &shifted).unwrap();
        let got = out.kruskal.factor(0).row_block(3, 6).unwrap();
        for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!(g.is_finite() && (g / e - 1.0).abs() < 1e-12, "{g} vs {e}");
        }
    }

    /// Everything a caller can observe of a run, as bits.
    fn observable(out: &DtdOutput) -> (Vec<Vec<u64>>, Vec<u64>, usize, NumericsReport) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            out.kruskal
                .factors()
                .iter()
                .map(|f| bits(f.as_slice()))
                .collect(),
            bits(&out.loss_trace),
            out.iterations,
            out.numerics,
        )
    }

    /// Alg. 1 as [`dtd`] runs it, with the one difference under test: every
    /// `Â` is the COO kernel's, accumulated into a fresh zeroed matrix.
    fn dtd_over_coo(x: &SparseTensor, old: &[Matrix], cfg: &DecompConfig) -> DtdOutput {
        use dismastd_tensor::mttkrp::mttkrp;
        let mu = cfg.forgetting;
        let mut factors = init_factors(old, x.shape(), cfg.rank, cfg.seed).unwrap();
        let mut state = GramState::compute(&factors, old).unwrap();
        let solver = RobustSolver::new(cfg.numerics.solver);
        let mut fact = Factorized::default();
        let mut numerics = NumericsReport::default();
        let old_norm_sq = old_norm_sq(old).unwrap();
        let mut loss_trace = Vec::new();
        for _ in 0..cfg.max_iters {
            let mut inner = 0.0;
            for n in 0..x.order() {
                let hat = mttkrp(x, &factors, n).unwrap();
                state.prepare_mode(n, mu).unwrap();
                let old_n = old[n].rows();
                let history = Some((mu, &old[n], &state.cross_had));
                for (d, history, rows) in [
                    (&state.d0, history, 0..old_n),
                    (&state.d1, None, old_n..hat.rows()),
                ] {
                    if rows.is_empty() {
                        continue;
                    }
                    let job = RowUpdate {
                        rhs: &hat,
                        history,
                        rows: RowSet::Range(rows),
                    };
                    solver
                        .solve_rows(d, &job, &mut factors[n], &mut fact, &mut numerics)
                        .unwrap();
                }
                state.refresh(n, &factors[n], &old[n]).unwrap();
                if n == x.order() - 1 {
                    inner = inner_from_mttkrp(&hat, &factors[n]).unwrap();
                }
            }
            let parts = LossParts {
                mu,
                old_norm_sq,
                complement_norm_sq: x.norm_sq(),
                inner,
            };
            loss_trace.push(dtd_loss(&state, &parts).unwrap());
            if converged(&loss_trace, cfg.tolerance) {
                break;
            }
        }
        DtdOutput {
            kruskal: KruskalTensor::new(factors).unwrap(),
            iterations: loss_trace.len(),
            loss_trace,
            numerics,
        }
    }

    #[test]
    fn plan_and_coo_kernels_give_identical_runs() {
        // (old shape, new shape, complement nnz): growth in every mode, a
        // mode that does not grow, an empty complement, and a cold start.
        let cases: [([usize; 3], [usize; 3], usize); 4] = [
            ([4, 5, 3], [7, 8, 6], 150),
            ([4, 5, 3], [7, 5, 6], 150),
            ([4, 5, 3], [6, 6, 4], 0),
            ([0, 0, 0], [8, 7, 6], 200),
        ];
        // Rank 5 runs the monomorphised kernel bodies, rank 3 the dynamic.
        for rank in [3usize, 5] {
            for (old_shape, new_shape, nnz) in cases {
                let old = if old_shape == [0, 0, 0] {
                    zero_history(3, rank)
                } else {
                    random_old_factors(&old_shape, rank, 21)
                };
                let x = random_complement(&old_shape, &new_shape, nnz, 22);
                let cfg = cfg(rank).with_max_iters(6);
                let coo = dtd_over_coo(&x, &old, &cfg);
                let tag = format!("rank {rank} {old_shape:?} -> {new_shape:?}");
                assert_eq!(
                    observable(&dtd(&x, &old, &cfg).unwrap()),
                    observable(&coo),
                    "{tag}"
                );
                if old_shape == [0, 0, 0] {
                    let als = crate::als::cp_als(&x, &cfg).unwrap();
                    assert_eq!(observable(&als), observable(&coo), "{tag}");
                }
            }
        }
    }

    #[test]
    fn an_oversized_dimension_is_refused_before_anything_is_sized_by_it() {
        // Shape-only: `init_factors` alone would want `huge × R` doubles.
        let huge = u32::MAX as usize + 1;
        let x = SparseTensor::empty(vec![2, huge, 2]).unwrap();
        let refused = |got: Result<usize>, who: &str| match got {
            Err(TensorError::PlanOverflow { what, value }) => {
                assert_eq!((what, value), ("shape dimension", huge as u64), "{who}");
            }
            other => panic!("{who}: expected PlanOverflow, got {other:?}"),
        };
        let cfg = cfg(2);
        let old = zero_history(3, 2);
        refused(dtd(&x, &old, &cfg).map(|o| o.iterations), "dtd");
        refused(crate::als::cp_als(&x, &cfg).map(|o| o.iterations), "cp_als");
        let cluster = crate::distributed::ClusterConfig::new(2);
        refused(
            crate::distributed::dismastd(&x, &old, &cfg, &cluster).map(|o| o.iterations),
            "dismastd",
        );
    }

    #[test]
    fn rejects_bad_config_and_shapes() {
        let old = random_old_factors(&[2, 2], 2, 15);
        let x = SparseTensor::empty(vec![3, 3]).unwrap();
        assert!(dtd(&x, &old, &cfg(0)).is_err()); // rank 0
        let bad_old = random_old_factors(&[2], 2, 15);
        assert!(dtd(&x, &bad_old, &cfg(2)).is_err()); // order mismatch
    }
}
