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
//! `‖X − ⟦A⟧‖²`.  The one loop is [`crate::distributed`]'s, entered through
//! [`crate::distributed::decompose`]; this module holds the pieces it
//! shares — the factor initialisation, the old box's constant norm, the
//! stopping test — and [`dtd`], its world-1 call.

use crate::config::DecompConfig;
use crate::distributed::{decompose, ClusterConfig, Decomposition};
use dismastd_tensor::matrix::Matrix;
use dismastd_tensor::ops::grand_sum_hadamard;
use dismastd_tensor::{Result, SparseTensor, TensorError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The zero-history "previous factors": with zero-row matrices every row of
/// every mode is a new row, which turns DTD into static CP-ALS.
pub(crate) fn zero_history(order: usize, rank: usize) -> Vec<Matrix> {
    (0..order).map(|_| Matrix::zeros(0, rank)).collect()
}

/// Stacks the previous factors over seeded-random new rows — Alg. 1 lines
/// 1-2 (`A^(0) ← Ã`, `A^(1) ← rand(d_n, R)`).
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

/// `‖⟦Ã⟧‖²` — a constant of the snapshot (Sec. IV-B4 "pre-computed"
/// terms); `0` when some mode has no old rows, i.e. there is no old box.
pub(crate) fn old_norm_sq(old_factors: &[Matrix]) -> Result<f64> {
    if old_factors.iter().any(|f| f.rows() == 0) {
        return Ok(0.0);
    }
    let grams: Vec<Matrix> = old_factors.iter().map(Matrix::gram).collect();
    grand_sum_hadamard(&grams)
}

/// Runs DTD (Alg. 1) on the complement tensor: [`decompose`] at world 1.
///
/// Kept only because the repository benchmark names it; new code calls
/// [`decompose`] with `ClusterConfig::new(1)`.
///
/// # Errors
/// As [`decompose`].
pub fn dtd(
    complement: &SparseTensor,
    old_factors: &[Matrix],
    cfg: &DecompConfig,
) -> Result<Decomposition> {
    decompose(complement, old_factors, cfg, &ClusterConfig::new(1))
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
    use crate::loss::{dtd_loss, mode_grams, naive_dtd_loss, GramState, LossParts, UntouchedRows};
    use dismastd_tensor::linalg::{Factorized, RowUpdate};
    use dismastd_tensor::matrix::{dot, RowSet};
    use dismastd_tensor::{KruskalTensor, NumericsReport, RobustSolver, SparseTensorBuilder};
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

    /// Mode 1 does not grow and its old factor is ~1e-120, so mode 0's
    /// new-row denominator D1 = G¹ is ~1e-240: perfectly conditioned,
    /// accepted by Cholesky — and Â/D1 ~ 1e190·1e-120/1e-240 overflows.
    fn overflowing_step() -> (SparseTensor, Vec<Matrix>) {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut tiny = Matrix::random(4, 2, &mut rng);
        tiny.as_mut_slice().iter_mut().for_each(|x| *x *= 1e-120);
        let old = vec![Matrix::random(3, 2, &mut rng), tiny];
        let mut b = SparseTensorBuilder::new(vec![6, 4]);
        for i in 3..6 {
            for j in 0..4 {
                b.push(&[i, j], 1e190 * rng.gen_range(0.5..1.5)).unwrap();
            }
        }
        (b.build().unwrap(), old)
    }

    #[test]
    fn post_solve_escalation_resolves_from_the_untouched_mttkrp() {
        // The solve must notice the overflow, keep Â, and redo the block
        // under a ridge.
        let rank = 2;
        let (x, old) = overflowing_step();
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

    #[test]
    fn every_world_recovers_the_overflowing_step_in_the_step() {
        // The rank owning an overflowing row re-solves its share under the
        // ridge ladder, as world 1 does for every row.
        let (x, old) = overflowing_step();
        let cfg = cfg(2).with_max_iters(1);
        for world in 1..=3 {
            let cluster = crate::distributed::ClusterConfig::new(world);
            let out = crate::distributed::decompose(&x, &old, &cfg, &cluster).unwrap();
            let numerics = out.numerics;
            assert!(
                numerics.post_escalations >= 1,
                "world {world}: {numerics:?}"
            );
            assert_eq!(numerics.max_lambda, 1e-10, "world {world}");
            for f in out.kruskal.factors() {
                assert!(f.as_slice().iter().all(|v| v.is_finite()), "world {world}");
            }
        }
    }

    /// An oracle's result in the solver's output type; nothing is sent.
    fn oracle_run(
        factors: Vec<Matrix>,
        loss_trace: Vec<f64>,
        numerics: NumericsReport,
    ) -> Decomposition {
        Decomposition {
            kruskal: KruskalTensor::new(factors).unwrap(),
            iterations: loss_trace.len(),
            loss_trace,
            comm: Default::default(),
            setup_bytes: 0,
            elapsed: Default::default(),
            iter_elapsed: Default::default(),
            numerics,
        }
    }

    /// Everything a caller can observe of a run, as bits.
    fn observable(out: &Decomposition) -> (Vec<Vec<u64>>, Vec<u64>, usize, NumericsReport) {
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

    /// `⟨X \ X̃, ⟦A⟧⟩` from the last mode's `Â` (Eq. 7) as the step sums
    /// it: one `dot` per solved row, `rows` in ascending order.
    fn inner_over(hat: &Matrix, factor: &Matrix, rows: impl Iterator<Item = usize>) -> f64 {
        rows.map(|row| dot(hat.row(row), factor.row(row))).sum()
    }

    /// One Eq. 5 block through the escalation ladder: decide, record, solve
    /// every batch under the decision.
    fn solve_block(
        cfg: &DecompConfig,
        d: &Matrix,
        jobs: &mut [(RowUpdate<'_>, &mut Matrix)],
        fact: &mut Factorized,
        numerics: &mut NumericsReport,
    ) {
        let solver = RobustSolver::new(cfg.numerics.solver);
        let decision = solver.decide(d, fact).unwrap();
        numerics.record(&decision);
        assert!(solver
            .solve_rows(d, &decision, jobs, fact, numerics)
            .unwrap());
    }

    /// Alg. 1 as [`dtd`] runs it, with the one difference under test: every
    /// `Â` is the COO kernel's, accumulated into a fresh zeroed matrix, and
    /// the touched rows are read off the COO entries.
    fn dtd_over_coo(x: &SparseTensor, old: &[Matrix], cfg: &DecompConfig) -> Decomposition {
        use dismastd_tensor::mttkrp::mttkrp;
        let mu = cfg.forgetting;
        let mut factors = init_factors(old, x.shape(), cfg.rank, cfg.seed).unwrap();
        let mut state = GramState::compute(&factors, old).unwrap();
        let (touched, untouched): (Vec<Vec<u32>>, Vec<Vec<u32>>) = (0..x.order())
            .map(|n| {
                let hit: std::collections::BTreeSet<u32> =
                    x.iter().map(|(idx, _)| idx[n]).collect();
                (0..old[n].rows() as u32).partition(|i| hit.contains(i))
            })
            .unzip();
        let mut maps = UntouchedRows::new(old, &untouched, cfg.rank).unwrap();
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
                if old_n > 0 {
                    let job = RowUpdate {
                        rhs: &hat,
                        history: Some((mu, &old[n], &state.cross_had)),
                        rows: RowSet::List(&touched[n]),
                    };
                    let (map, m) = maps.map_job(n, mu, &state.cross_had);
                    let jobs = &mut [(job, &mut factors[n]), (map, m)];
                    solve_block(cfg, &state.d0, jobs, &mut fact, &mut numerics);
                }
                if hat.rows() > old_n {
                    let job = RowUpdate {
                        rhs: &hat,
                        history: None,
                        rows: RowSet::Range(old_n..hat.rows()),
                    };
                    let jobs = &mut [(job, &mut factors[n])];
                    solve_block(cfg, &state.d1, jobs, &mut fact, &mut numerics);
                }
                let blocks = [RowSet::List(&touched[n]), RowSet::Range(old_n..hat.rows())];
                mode_grams(&factors[n], &old[n], &blocks, state.targets(n)).unwrap();
                maps.add_grams(n, state.targets(n));
                state.retotal(n);
                if n == x.order() - 1 {
                    let solved = touched[n].iter().map(|&i| i as usize);
                    inner = inner_over(&hat, &factors[n], solved.chain(old_n..hat.rows()));
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
        for (n, rows) in untouched.iter().enumerate() {
            maps.write_rows(n, &mut factors[n], &old[n], rows);
        }
        oracle_run(factors, loss_trace, numerics)
    }

    /// The textbook reference for the untouched-row split: Eq. 5 over
    /// every row of every mode each iteration, every Gram summed over every
    /// row (set-up's [`GramState::refresh`]), the COO kernel's `Â`.
    fn dtd_all_rows(x: &SparseTensor, old: &[Matrix], cfg: &DecompConfig) -> Decomposition {
        use dismastd_tensor::mttkrp::mttkrp;
        let mu = cfg.forgetting;
        let mut factors = init_factors(old, x.shape(), cfg.rank, cfg.seed).unwrap();
        let mut state = GramState::compute(&factors, old).unwrap();
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
                    let jobs = &mut [(job, &mut factors[n])];
                    solve_block(cfg, d, jobs, &mut fact, &mut numerics);
                }
                state.refresh(n, &factors[n], &old[n]).unwrap();
                if n == x.order() - 1 {
                    inner = inner_over(&hat, &factors[n], 0..hat.rows());
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
        oracle_run(factors, loss_trace, numerics)
    }

    /// How a generated complement covers one mode's old rows.
    #[derive(Debug, Clone, Copy)]
    enum Coverage {
        /// Every old row referenced (`U_n = ∅`) where another mode grows,
        /// so that an entry on the row can lie outside the old box.
        All,
        /// Even old rows only: the odd ones stay untouched.
        Some,
        /// No entry in the old range: `U_n` is every old row.
        None,
    }

    /// A complement over `old + growth` whose mode-`n` entries follow
    /// `coverage[n]`: `nnz` random entries plus one per old row of an `All`
    /// mode; empty when no mode grows.
    fn covered_complement(
        old: &[usize],
        growth: &[usize],
        coverage: &[Coverage],
        nnz: usize,
        seed: u64,
    ) -> SparseTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let new: Vec<usize> = old.iter().zip(growth).map(|(o, g)| o + g).collect();
        let mut b = SparseTensorBuilder::new(new.clone());
        let grows: Vec<usize> = (0..old.len()).filter(|&n| growth[n] > 0).collect();
        if grows.is_empty() {
            return b.build().unwrap();
        }
        // `Some` references even old rows only; an entry inside the old box
        // moves into the new range of a growing mode other than `keep`.
        let pick = |rng: &mut ChaCha8Rng, n: usize| match coverage[n] {
            Coverage::None => rng.gen_range(old[n]..new[n]),
            Coverage::Some if growth[n] == 0 || rng.gen_bool(0.5) => {
                2 * rng.gen_range(0..old[n].div_ceil(2))
            }
            Coverage::Some => rng.gen_range(old[n]..new[n]),
            Coverage::All => rng.gen_range(0..new[n]),
        };
        let mut push = |rng: &mut ChaCha8Rng, mut idx: Vec<usize>, keep: Option<usize>| {
            if idx.iter().zip(old).all(|(i, o)| i < o) {
                let free: Vec<usize> = grows.iter().copied().filter(|&m| Some(m) != keep).collect();
                if free.is_empty() {
                    return;
                }
                let m = free[rng.gen_range(0..free.len())];
                idx[m] = rng.gen_range(old[m]..new[m]);
            }
            b.push(&idx, rng.gen_range(-1.0..1.0)).unwrap();
        };
        for _ in 0..nnz {
            let idx = (0..old.len()).map(|n| pick(&mut rng, n)).collect();
            push(&mut rng, idx, None);
        }
        for n in 0..old.len() {
            if matches!(coverage[n], Coverage::All) {
                for i in 0..old[n] {
                    let mut idx: Vec<usize> = (0..old.len()).map(|m| pick(&mut rng, m)).collect();
                    idx[n] = i;
                    push(&mut rng, idx, Some(n));
                }
            }
        }
        b.build().unwrap()
    }

    /// `|U_n|` per mode, counted from the entries.
    fn untouched_counts(x: &SparseTensor, old: &[usize]) -> Vec<usize> {
        (0..old.len())
            .map(|n| {
                let hit: std::collections::BTreeSet<u32> =
                    x.iter().map(|(idx, _)| idx[n]).collect();
                (0..old[n] as u32).filter(|i| !hit.contains(i)).count()
            })
            .collect()
    }

    /// [`dtd`] against [`dtd_all_rows`] on one problem: bit for bit when
    /// no mode has an untouched old row, otherwise to rounding.
    fn assert_matches_all_rows(x: &SparseTensor, prev: &[Matrix], cfg: &DecompConfig) {
        let got = dtd(x, prev, cfg).unwrap();
        let want = dtd_all_rows(x, prev, cfg);
        let old: Vec<usize> = prev.iter().map(Matrix::rows).collect();
        assert_eq!(got.iterations, want.iterations);
        if untouched_counts(x, &old).iter().all(|&u| u == 0) {
            assert_eq!(observable(&got), observable(&want));
        } else if got.numerics.escalated() || want.numerics.escalated() {
            // The ladder regularised a (near-)singular system — rank above
            // a mode's length — where rounding alone can pick the rung or
            // the ridge, and the two trajectories part.  Both must still
            // end finite.
            for f in got.kruskal.factors().iter().chain(want.kruskal.factors()) {
                assert!(f.as_slice().iter().all(|v| v.is_finite()));
            }
        } else {
            // Cholesky throughout: the two differ by rounding, which a solve
            // passes on amplified by up to its condition number κ — 1e-10
            // relative, widened to κ·1e-12 past κ = 1e2.  Eq. 4 assembles a
            // small loss from cancelling sums, so a loss is measured against
            // the magnitude of its terms.
            let tol = 1e-10f64.max(1e-12 * got.numerics.max_cond_est);
            let terms = cfg.forgetting * old_norm_sq(prev).unwrap()
                + x.norm_sq()
                + want.kruskal.norm_sq().max(got.kruskal.norm_sq());
            for (g, w) in got.loss_trace.iter().zip(&want.loss_trace) {
                assert!((g - w).abs() <= tol * (1.0 + terms), "loss {g} vs {w}");
            }
            for (g, w) in got.kruskal.factors().iter().zip(want.kruskal.factors()) {
                let scale = w.as_slice().iter().fold(1.0f64, |m, v| m.max(v.abs()));
                let diff = g.max_abs_diff(w).unwrap();
                assert!(diff <= tol * scale, "factor diff {diff} at scale {scale}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Orders 3 and 4, ranks up to 6 over modes of 1–5 old rows, μ in
        /// {0.5, 0.8, 1}, each mode's old rows all, some or none referenced.
        #[test]
        fn the_untouched_split_matches_the_all_rows_reference(
            order in 3usize..5,
            old in proptest::prop::collection::vec(1usize..6, 4),
            growth in proptest::prop::collection::vec(0usize..4, 4),
            coverage in proptest::prop::collection::vec(0usize..3, 4),
            nnz in 0usize..40,
            mu in 0usize..3,
            rank in 1usize..7,
            seed in 0u64..1_000,
        ) {
            let (old, growth) = (&old[..order], &growth[..order]);
            // A mode without growth has no rows outside the old box.
            let coverage: Vec<Coverage> = (0..order)
                .map(|n| match coverage[n] {
                    0 => Coverage::All,
                    2 if growth[n] > 0 => Coverage::None,
                    _ => Coverage::Some,
                })
                .collect();
            let x = covered_complement(old, growth, &coverage, nnz, seed);
            let prev = random_old_factors(old, rank, seed + 1);
            let mu = [0.5, 0.8, 1.0][mu];
            assert_matches_all_rows(&x, &prev, &cfg(rank).with_max_iters(6).with_forgetting(mu));
        }
    }

    #[test]
    fn the_oracle_family_reaches_every_untouched_pattern() {
        // The proptest's shapes, pinned: untouched rows in no mode, in one,
        // in all (an empty complement among them), and a mode whose old
        // range receives no entry, at order 3 and 4 and at a rank above
        // every mode's length.
        use Coverage::{All, None as Empty, Some as Part};
        // (old shape, growth, coverage, nnz, which modes leave rows untouched)
        type Case = (
            &'static [usize],
            &'static [usize],
            &'static [Coverage],
            usize,
            [bool; 4],
        );
        let cases: [Case; 5] = [
            (&[3, 4, 2], &[2, 1, 1], &[All, All, All], 20, [false; 4]),
            (
                &[3, 4, 2],
                &[2, 1, 1],
                &[All, Empty, All],
                20,
                [false, true, false, false],
            ),
            (
                &[3, 4, 2, 2],
                &[1, 1, 1, 2],
                &[Part, Part, Empty, Part],
                30,
                [true; 4],
            ),
            (&[3, 4, 2], &[2, 0, 1], &[Part, Part, Part], 0, [true; 4]),
            (&[3, 4, 2], &[0, 0, 0], &[All, All, All], 10, [true; 4]),
        ];
        for (old, growth, coverage, nnz, untouched) in cases {
            let tag = format!("{old:?} + {growth:?} {coverage:?}");
            let x = covered_complement(old, growth, coverage, nnz, 3);
            let got: Vec<bool> = untouched_counts(&x, old).iter().map(|&u| u > 0).collect();
            assert_eq!(got, untouched[..old.len()], "{tag}");
            for (rank, mu) in [(2, 0.5), (3, 0.8), (6, 1.0)] {
                let prev = random_old_factors(old, rank, 4);
                let cfg = cfg(rank).with_max_iters(6).with_forgetting(mu);
                assert_matches_all_rows(&x, &prev, &cfg);
            }
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
            crate::distributed::decompose(&x, &old, &cfg, &cluster).map(|o| o.iterations),
            "decompose",
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
