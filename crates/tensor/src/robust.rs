//! Conditioned solves with tiered escalation.
//!
//! Streaming DTD solves the same `R x R` normal equations thousands of
//! times, and any single ill-conditioned denominator (collinear factor
//! columns, an empty slice, an aggressive forgetting factor) poisons every
//! subsequent step.  [`RobustSolver`] wraps the dense solvers in
//! [`crate::linalg`] with a three-tier escalation ladder:
//!
//! 1. **Cholesky** — the fast path; accepted when the diagonal-ratio
//!    condition estimate stays under [`SolvePolicy::condition_limit`].
//! 2. **Pivoted LU** — for indefinite-but-regular systems.
//! 3. **Adaptive Tikhonov ridge** — `G + λI` with λ grown geometrically
//!    from `ridge_initial` until the regularised system factorises with an
//!    acceptable condition estimate.  Because the DTD denominators are
//!    Hadamard products of Gram matrices (positive semidefinite), a large
//!    enough λ always succeeds.
//!
//! The *decision* (tier + λ) is a pure function of the matrix and the
//! policy, so every rank of a distributed run that decides over the same
//! replicated `R x R` matrix walks the same ladder and applies the identical
//! regularisation — factors stay bit-identical across ranks and equal to the
//! serial path with nothing shipped between them.

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::linalg::{
    all_rows, cholesky_condition_estimate, cholesky_into, lu_condition_estimate, lu_into,
    require_square, Factorized, RowUpdate,
};
use crate::matrix::Matrix;

/// Which solver tier a decision selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveTier {
    /// Plain Cholesky on the original matrix.
    Cholesky,
    /// Partially pivoted LU on the original matrix.
    Lu,
    /// Cholesky on the ridge-shifted matrix `G + λI`.
    Ridge,
}

/// The outcome of a conditioning assessment: which tier was accepted and,
/// for the ridge tier, the λ it was accepted at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveDecision {
    /// Selected solver tier.
    pub tier: SolveTier,
    /// Ridge shift applied to the diagonal (0 unless `tier == Ridge`).
    pub lambda: f64,
    /// Diagonal-ratio condition estimate of the accepted factorisation.
    pub cond_est: f64,
}

/// Tunables for the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolvePolicy {
    /// Condition-estimate ceiling above which a tier is rejected.
    pub condition_limit: f64,
    /// First ridge shift, as a multiple of `max(|tr(G)|/n, 1)`.
    pub ridge_initial: f64,
    /// Geometric growth factor between ridge attempts.
    pub ridge_growth: f64,
    /// Maximum ridge attempts before giving up.
    pub max_ridge_steps: u32,
}

impl Default for SolvePolicy {
    fn default() -> Self {
        SolvePolicy {
            condition_limit: 1e12,
            ridge_initial: 1e-10,
            ridge_growth: 10.0,
            max_ridge_steps: 12,
        }
    }
}

/// Per-run tally of which tiers fired, kept by the drivers and surfaced in
/// `StepReport`/`Decomposition`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NumericsReport {
    /// Solves served by plain Cholesky.
    pub cholesky_solves: u64,
    /// Solves that escalated to pivoted LU.
    pub lu_solves: u64,
    /// Solves that escalated to the ridge tier.
    pub ridge_solves: u64,
    /// Solves whose result came back non-finite and were re-run with a
    /// forced ridge escalation.
    pub post_escalations: u64,
    /// Largest λ applied by any ridge solve.
    pub max_lambda: f64,
    /// Largest condition estimate accepted by any solve.
    pub max_cond_est: f64,
}

impl NumericsReport {
    /// Records a decision into the tally.
    pub fn record(&mut self, decision: &SolveDecision) {
        match decision.tier {
            SolveTier::Cholesky => self.cholesky_solves += 1,
            SolveTier::Lu => self.lu_solves += 1,
            SolveTier::Ridge => self.ridge_solves += 1,
        }
        if decision.lambda > self.max_lambda {
            self.max_lambda = decision.lambda;
        }
        if decision.cond_est.is_finite() && decision.cond_est > self.max_cond_est {
            self.max_cond_est = decision.cond_est;
        }
    }

    /// Merges another report (e.g. a retried attempt) into this one.
    pub fn absorb(&mut self, other: &NumericsReport) {
        self.cholesky_solves += other.cholesky_solves;
        self.lu_solves += other.lu_solves;
        self.ridge_solves += other.ridge_solves;
        self.post_escalations += other.post_escalations;
        self.max_lambda = self.max_lambda.max(other.max_lambda);
        self.max_cond_est = self.max_cond_est.max(other.max_cond_est);
    }

    /// True when any solve left the plain Cholesky fast path.
    pub fn escalated(&self) -> bool {
        self.lu_solves > 0 || self.ridge_solves > 0 || self.post_escalations > 0
    }
}

/// Conditioned solver implementing the Cholesky → LU → ridge ladder.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustSolver {
    policy: SolvePolicy,
}

impl RobustSolver {
    /// Creates a solver with the given policy.
    pub fn new(policy: SolvePolicy) -> Self {
        RobustSolver { policy }
    }

    /// Assesses conditioning of `m`, picks the cheapest acceptable tier and
    /// leaves the factorisation it accepted in `fact`, whose buffers it
    /// reuses.
    ///
    /// Pure function of `m` and the policy — every rank deciding over a
    /// replicated matrix reaches the same answer and holds the same
    /// factorisation, bit for bit.
    ///
    /// # Errors
    /// Returns [`TensorError::NonFiniteValue`] (naming the entry) when `m`
    /// contains NaN/Inf, and [`TensorError::Singular`] when even the
    /// largest permitted ridge fails to factorise.
    pub fn decide(&self, m: &Matrix, fact: &mut Factorized) -> Result<SolveDecision> {
        let n = require_square(m)?;
        for i in 0..n {
            for j in 0..n {
                let v = m.get(i, j);
                if !v.is_finite() {
                    return Err(TensorError::NonFiniteValue {
                        index: vec![i, j], // lint:allow(alloc_hygiene): rejected input only, not steady state
                        value: v,
                    });
                }
            }
        }
        let (mut buf, mut perm) = take_buffers(fact);
        if cholesky_into(m, 0.0, &mut buf).is_ok() {
            let cond = cholesky_condition_estimate(&buf);
            if cond <= self.policy.condition_limit {
                *fact = Factorized::Cholesky(buf);
                return Ok(SolveDecision {
                    tier: SolveTier::Cholesky,
                    lambda: 0.0,
                    cond_est: cond,
                });
            }
        }
        if lu_into(m, &mut buf, &mut perm).is_ok() {
            let cond = lu_condition_estimate(&buf);
            if cond <= self.policy.condition_limit {
                *fact = Factorized::Lu(buf, perm);
                return Ok(SolveDecision {
                    tier: SolveTier::Lu,
                    lambda: 0.0,
                    cond_est: cond,
                });
            }
        }
        // Ridge tier: grow λ geometrically until G + λI factorises with an
        // acceptable condition estimate.  Scale the floor by the trace so
        // the shift is meaningful relative to the matrix's magnitude; the
        // max(…, 1) keeps the all-zero matrix (empty-slice snapshot) viable.
        let mut lambda = self.policy.ridge_initial * trace_scale(m);
        let mut last_cond = f64::INFINITY;
        for _ in 0..self.policy.max_ridge_steps {
            if cholesky_into(m, lambda, &mut buf).is_ok() {
                let cond = cholesky_condition_estimate(&buf);
                if cond <= self.policy.condition_limit {
                    *fact = Factorized::Cholesky(buf);
                    return Ok(SolveDecision {
                        tier: SolveTier::Ridge,
                        lambda,
                        cond_est: cond,
                    });
                }
                last_cond = cond;
            }
            lambda *= self.policy.ridge_growth;
        }
        // One final relaxation: if the last shift factorised at all, use it
        // even above the condition limit — a damped solve beats no solve.
        cholesky_into(m, lambda, &mut buf).map_err(|_| TensorError::Singular {
            solver: "robust-ridge",
        })?;
        let cond_est = cholesky_condition_estimate(&buf).min(last_cond);
        *fact = Factorized::Cholesky(buf);
        Ok(SolveDecision {
            tier: SolveTier::Ridge,
            lambda,
            cond_est,
        })
    }

    /// Re-factorises `m` into `fact` (reusing its buffers) exactly as a
    /// decision mandates — the post-solve ridge ladder's step.
    fn factorize(&self, m: &Matrix, decision: &SolveDecision, fact: &mut Factorized) -> Result<()> {
        let (mut buf, mut perm) = take_buffers(fact);
        *fact = match decision.tier {
            SolveTier::Lu => {
                lu_into(m, &mut buf, &mut perm)?;
                Factorized::Lu(buf, perm)
            }
            // `lambda` is 0 off the ridge tier.
            SolveTier::Cholesky | SolveTier::Ridge => {
                cholesky_into(m, decision.lambda, &mut buf)?;
                Factorized::Cholesky(buf)
            }
        };
        Ok(())
    }

    /// Solves `X · M = B` row-wise through the escalation ladder into a
    /// fresh matrix, recording the fired tiers in `report`.
    ///
    /// # Errors
    /// Shape mismatch between `B` and `M`, a non-finite entry inside `M`,
    /// or a ridge ladder that runs out.
    pub fn solve_right(
        &self,
        b: &Matrix,
        m: &Matrix,
        report: &mut NumericsReport,
    ) -> Result<Matrix> {
        let mut out = Matrix::zeros(b.rows(), b.cols());
        let mut fact = Factorized::default();
        let decision = self.decide(m, &mut fact)?;
        report.record(&decision);
        if self.solve_rows(
            m,
            &decision,
            &mut [(all_rows(b), &mut out)],
            &mut fact,
            report,
        )? {
            return Ok(out);
        }
        Err(TensorError::Singular {
            solver: "robust-post-escalation",
        })
    }

    /// Runs batches of row updates against `m` (see [`RowUpdate`]), each
    /// into its own output, under `decision` — the caller's recorded
    /// [`RobustSolver::decide`] over `m`, whose factorisation `fact` holds
    /// (kept scratch: a caller that keeps it allocates nothing here).
    ///
    /// If any batch comes back non-finite, every batch is solved again —
    /// from its `rhs`, which no solve modifies — under a forced ridge
    /// escalation, recorded in `report`.  Returns whether every value
    /// written is finite: `false` once the ladder runs out, which only a
    /// non-finite right-hand side makes it do.
    ///
    /// # Errors
    /// Those of [`Factorized::solve_rows`].
    pub fn solve_rows(
        &self,
        m: &Matrix,
        decision: &SolveDecision,
        jobs: &mut [(RowUpdate<'_>, &mut Matrix)],
        fact: &mut Factorized,
        report: &mut NumericsReport,
    ) -> Result<bool> {
        if solve_all(fact, jobs)? {
            return Ok(true);
        }
        // Post-solve escalation: the accepted tier still produced NaN/Inf
        // (catastrophic cancellation past what the estimate saw).  Force the
        // ridge ladder from one step above the failed λ.
        report.post_escalations += 1;
        let ridge_initial = self
            .policy
            .ridge_initial
            .max(decision.lambda * self.policy.ridge_growth);
        let mut lambda = ridge_initial * trace_scale(m);
        for _ in 0..=self.policy.max_ridge_steps {
            let decision = SolveDecision {
                tier: SolveTier::Ridge,
                lambda,
                cond_est: f64::INFINITY,
            };
            if self.factorize(m, &decision, fact).is_ok() && solve_all(fact, jobs)? {
                report.record(&decision);
                return Ok(true);
            }
            lambda *= self.policy.ridge_growth;
        }
        Ok(false)
    }
}

/// Every batch of `jobs` under `fact`, each into its own output: whether
/// all of them wrote finite values only.
fn solve_all(fact: &Factorized, jobs: &mut [(RowUpdate<'_>, &mut Matrix)]) -> Result<bool> {
    let mut finite = true;
    for (job, out) in jobs.iter_mut() {
        finite &= fact.solve_rows(job, out)?;
    }
    Ok(finite)
}

/// `max(|tr(m)|/n, 1)`: what a ridge shift is measured against.
fn trace_scale(m: &Matrix) -> f64 {
    let n = m.rows().min(m.cols());
    let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
    (trace.abs() / n.max(1) as f64).max(1.0)
}

/// Takes a factorisation's buffers for reuse, leaving an empty one behind.
fn take_buffers(fact: &mut Factorized) -> (Matrix, Vec<usize>) {
    match std::mem::take(fact) {
        // lint:allow(alloc_hygiene): an empty Vec owns no heap block
        Factorized::Cholesky(l) => (l, Vec::new()),
        Factorized::Lu(lu, perm) => (lu, perm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn solver() -> RobustSolver {
        RobustSolver::new(SolvePolicy::default())
    }

    /// The whole ladder over `jobs`: decide, record, solve.
    fn ladder(
        m: &Matrix,
        jobs: &mut [(RowUpdate<'_>, &mut Matrix)],
        fact: &mut Factorized,
        report: &mut NumericsReport,
    ) -> Result<bool> {
        let decision = solver().decide(m, fact)?;
        report.record(&decision);
        solver().solve_rows(m, &decision, jobs, fact, report)
    }

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 5.0]])
    }

    #[test]
    fn well_conditioned_uses_cholesky_and_matches_reference() {
        let m = spd3();
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.5, -1.0, 2.0]]);
        let mut report = NumericsReport::default();
        let x = solver().solve_right(&b, &m, &mut report).unwrap();
        let x_ref = crate::linalg::solve_right(&b, &m).unwrap();
        assert!(x.max_abs_diff(&x_ref).unwrap() < 1e-12);
        assert_eq!(report.cholesky_solves, 1);
        assert!(!report.escalated());
    }

    #[test]
    fn indefinite_escalates_to_lu() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let decision = solver().decide(&m, &mut Factorized::default()).unwrap();
        assert_eq!(decision.tier, SolveTier::Lu);
        assert_eq!(decision.lambda, 0.0);
    }

    #[test]
    fn rank_deficient_escalates_to_ridge() {
        // Rank-1 PSD: Cholesky and LU both fail, ridge succeeds.
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 2.0]]);
        let mut report = NumericsReport::default();
        let decision = solver().decide(&m, &mut Factorized::default()).unwrap();
        assert_eq!(decision.tier, SolveTier::Ridge);
        assert!(decision.lambda > 0.0);
        let x = solver().solve_right(&b, &m, &mut report).unwrap();
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(report.ridge_solves, 1);
        assert!(report.max_lambda > 0.0);
    }

    #[test]
    fn zero_matrix_solves_via_ridge() {
        // The empty-slice snapshot produces an all-zero denominator.
        let m = Matrix::zeros(3, 3);
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut report = NumericsReport::default();
        let x = solver().solve_right(&b, &m, &mut report).unwrap();
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(report.ridge_solves, 1);
    }

    #[test]
    fn non_finite_matrix_entry_is_named() {
        let mut m = spd3();
        m.set(1, 2, f64::NAN);
        let err = solver().decide(&m, &mut Factorized::default()).unwrap_err();
        match err {
            TensorError::NonFiniteValue { index, value } => {
                assert_eq!(index, vec![1, 2]);
                assert!(value.is_nan());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn factorize_is_deterministic_across_calls() {
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-13]]);
        let s = solver();
        let decision = s.decide(&m, &mut Factorized::default()).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        let apply = || {
            let mut fact = Factorized::default();
            s.factorize(&m, &decision, &mut fact).unwrap();
            let mut x = Matrix::zeros(1, 2);
            fact.solve_rows(&all_rows(&b), &mut x).unwrap();
            x
        };
        // Bit-identical: same decision + same matrix => same factors.
        assert_eq!(apply().as_slice(), apply().as_slice());
    }

    #[test]
    fn deciding_leaves_the_factorisation_the_decision_rebuilds() {
        // Cholesky, LU and ridge systems through one scratch, so every
        // variant's buffers get reused by the next.
        let s = solver();
        let mut kept = Factorized::default();
        for m in [
            spd3(),
            Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]),
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]),
            spd3(),
        ] {
            let decision = s.decide(&m, &mut kept).unwrap();
            assert_eq!(
                decision,
                s.decide(&m, &mut Factorized::default()).unwrap(),
                "the scratch's previous contents must not change the decision"
            );
            let mut rebuilt = Factorized::Lu(Matrix::default(), Vec::new());
            s.factorize(&m, &decision, &mut rebuilt).unwrap();
            match (&kept, &rebuilt) {
                (Factorized::Cholesky(a), Factorized::Cholesky(b)) => assert_eq!(a, b),
                (Factorized::Lu(a, p), Factorized::Lu(b, q)) => assert_eq!((a, p), (b, q)),
                _ => panic!("tiers differ for {decision:?}"),
            }
        }
    }

    #[test]
    fn post_solve_escalation_resolves_from_the_untouched_rhs() {
        // 1e-200 passes every conditioning test (cond = 1) yet overflows
        // the row `1e200 / 1e-200`: the accepted tier writes Inf, and the
        // batch — all of it, from `rhs` — is solved again under a ridge.
        let m = Matrix::from_rows(&[&[1e-200, 0.0], &[0.0, 1e-200]]);
        let rhs = Matrix::from_rows(&[&[1.0, 2.0], &[1e200, 1.0], &[3.0, 4.0]]);
        let before = rhs.clone();
        let job = RowUpdate {
            rhs: &rhs,
            history: None,
            rows: crate::matrix::RowSet::List(&[2, 1]),
        };
        let mut out = Matrix::from_fn(3, 2, |_, _| 7.0);
        let mut fact = Factorized::default();
        let mut report = NumericsReport::default();
        assert!(ladder(&m, &mut [(job, &mut out)], &mut fact, &mut report).unwrap());
        assert_eq!(rhs, before);
        assert_eq!(
            (
                report.cholesky_solves,
                report.ridge_solves,
                report.post_escalations
            ),
            (1, 1, 1)
        );
        // λ = ridge_initial · max(tr/n, 1) = 1e-10 swamps 1e-200.
        assert_eq!(report.max_lambda, 1e-10);
        assert_eq!(out.row(0), &[7.0, 7.0], "row 0 is not in the batch");
        for (i, b) in [(1usize, [1e200, 1.0]), (2, [3.0, 4.0])] {
            for c in 0..2 {
                let got = out.get(i, c);
                assert!(got.is_finite());
                assert!((got * 1e-10 / b[c] - 1.0).abs() < 1e-12, "row {i}: {got}");
            }
        }
    }

    #[test]
    fn one_non_finite_batch_escalates_every_batch_of_the_call() {
        // The first batch is finite under the accepted tier, the second
        // overflows: both end solved under the same ridge, one decision.
        let m = Matrix::from_rows(&[&[1e-200, 0.0], &[0.0, 1e-200]]);
        let (calm, wild) = (
            Matrix::from_rows(&[&[1e-300, 2e-300]]),
            Matrix::from_rows(&[&[1e200, 1.0]]),
        );
        let (mut a, mut b) = (Matrix::zeros(1, 2), Matrix::zeros(1, 2));
        let mut report = NumericsReport::default();
        let jobs = &mut [(all_rows(&calm), &mut a), (all_rows(&wild), &mut b)];
        assert!(ladder(&m, jobs, &mut Factorized::default(), &mut report).unwrap());
        assert_eq!(
            (report.ridge_solves, report.post_escalations),
            (1, 1),
            "{report:?}"
        );
        for (out, rhs) in [(&a, &calm), (&b, &wild)] {
            for c in 0..2 {
                let got = out.get(0, c);
                assert!((got * 1e-10 / rhs.get(0, c) - 1.0).abs() < 1e-12, "{got}");
            }
        }
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut a = NumericsReport {
            cholesky_solves: 2,
            ridge_solves: 1,
            max_lambda: 1e-8,
            max_cond_est: 1e3,
            ..NumericsReport::default()
        };
        let b = NumericsReport {
            lu_solves: 3,
            post_escalations: 1,
            max_lambda: 1e-6,
            max_cond_est: 10.0,
            ..NumericsReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.cholesky_solves, 2);
        assert_eq!(a.lu_solves, 3);
        assert_eq!(a.ridge_solves, 1);
        assert_eq!(a.post_escalations, 1);
        assert_eq!(a.max_lambda, 1e-6);
        assert_eq!(a.max_cond_est, 1e3);
        assert!(a.escalated());
    }

    /// Builds an SPD matrix `Vᵀ D V` with eigenvalue spread `spread` (so the
    /// true condition number is exactly `spread`) from a random rotation.
    fn graded_spd(n: usize, spread: f64, angles: &[f64]) -> Matrix {
        // Start from a diagonal with geometric grading 1 .. 1/spread.
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            let t = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.0
            };
            m.set(i, i, spread.powf(-t));
        }
        // Apply Givens rotations to mix the eigenvectors.
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let theta = angles[k % angles.len()];
                k += 1;
                let (c, s) = (theta.cos(), theta.sin());
                // m = Gᵀ m G for the (i, j) rotation.
                for col in 0..n {
                    let a = m.get(i, col);
                    let b = m.get(j, col);
                    m.set(i, col, c * a - s * b);
                    m.set(j, col, s * a + c * b);
                }
                for row in 0..n {
                    let a = m.get(row, i);
                    let b = m.get(row, j);
                    m.set(row, i, c * a - s * b);
                    m.set(row, j, s * a + c * b);
                }
            }
        }
        // Symmetrise against rounding drift.
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (m.get(i, j) + m.get(j, i));
                m.set(i, j, avg);
                m.set(j, i, avg);
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// SPD systems with condition numbers up to ~1e14: the robust solver
        /// never panics and never returns non-finite entries.
        #[test]
        fn near_singular_spd_never_panics_never_nan(
            n in 2usize..6,
            log_spread in 0.0f64..14.0,
            angles in prop::collection::vec(0.0f64..std::f64::consts::PI, 1..16),
            rhs in prop::collection::vec(-10.0f64..10.0, 6),
        ) {
            let m = graded_spd(n, 10f64.powf(log_spread), &angles);
            let mut b = Matrix::zeros(1, n);
            for j in 0..n {
                b.set(0, j, rhs[j]);
            }
            let mut report = NumericsReport::default();
            let x = solver().solve_right(&b, &m, &mut report).unwrap();
            prop_assert!(x.as_slice().iter().all(|v| v.is_finite()));
        }

        /// Well-conditioned SPD systems (condition <= 1e6) match the plain
        /// reference solve tightly and never escalate.
        #[test]
        fn well_conditioned_matches_reference(
            n in 2usize..6,
            log_spread in 0.0f64..6.0,
            angles in prop::collection::vec(0.0f64..std::f64::consts::PI, 1..16),
            rhs in prop::collection::vec(-10.0f64..10.0, 6),
        ) {
            let m = graded_spd(n, 10f64.powf(log_spread), &angles);
            let mut b = Matrix::zeros(1, n);
            for j in 0..n {
                b.set(0, j, rhs[j]);
            }
            let mut report = NumericsReport::default();
            let x = solver().solve_right(&b, &m, &mut report).unwrap();
            let x_ref = crate::linalg::solve_right(&b, &m).unwrap();
            prop_assert!(x.max_abs_diff(&x_ref).unwrap() < 1e-6);
            prop_assert_eq!(report.cholesky_solves, 1);
            prop_assert!(!report.escalated());
        }
    }
}
