//! Decomposition configuration.

use dismastd_tensor::{SolvePolicy, ThreadPolicy, ValidationMode};
use serde::{Deserialize, Serialize};

/// Hyper-parameters shared by every decomposition in this crate.
///
/// Defaults follow the paper's experimental setup (Sec. V-A): rank `R = 10`,
/// forgetting factor `μ = 0.8`, at most 10 ALS iterations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DecompConfig {
    /// CP rank `R` (column count of every factor matrix).
    pub rank: usize,
    /// Forgetting factor `μ ∈ (0, 1]` weighting the previous snapshot's
    /// decomposition error (Eq. 2).  `μ = 1` trusts the old decomposition
    /// fully; smaller values decay it.
    pub forgetting: f64,
    /// Maximum number of ALS iterations per snapshot.
    pub max_iters: usize,
    /// Relative loss-improvement threshold below which iteration stops
    /// ("fit ceases to improve", Alg. 1 line 7).  `0.0` always runs
    /// `max_iters` iterations (the paper's timing protocol).
    pub tolerance: f64,
    /// Seed for the random initialisation of new factor rows.
    pub seed: u64,
    /// Numerical-robustness policy (conditioned solves, divergence
    /// watchdog, ingest validation).  Optional on decode — see the manual
    /// [`Deserialize`] impl — so checkpoints written before this field
    /// existed stay readable.
    pub numerics: NumericsPolicy,
    /// Intra-worker thread budget for the MTTKRP kernels and plan builds.
    /// `Auto` (the default) honours `DISMASTD_THREADS` and falls back to
    /// the machine's available parallelism; `Fixed(n)` pins the count.
    /// Thread count never changes factor bits (the pooled kernels are
    /// bitwise identical to serial), so this is purely a throughput knob.
    /// Optional on decode, like `numerics`.
    pub threads: ThreadPolicy,
}

// Hand-written so `numerics` is optional: checkpoints serialized before the
// robustness layer existed decode to the default policy instead of failing
// with a missing-field error.
impl Deserialize for DecompConfig {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::new("expected object for `DecompConfig`"))?;
        Ok(DecompConfig {
            rank: Deserialize::from_value(serde::field(obj, "rank")?)?,
            forgetting: Deserialize::from_value(serde::field(obj, "forgetting")?)?,
            max_iters: Deserialize::from_value(serde::field(obj, "max_iters")?)?,
            tolerance: Deserialize::from_value(serde::field(obj, "tolerance")?)?,
            seed: Deserialize::from_value(serde::field(obj, "seed")?)?,
            numerics: match serde::field(obj, "numerics") {
                Ok(nested) => Deserialize::from_value(nested)?,
                Err(_) => NumericsPolicy::default(),
            },
            threads: match serde::field(obj, "threads") {
                Ok(nested) => Deserialize::from_value(nested)?,
                Err(_) => ThreadPolicy::default(),
            },
        })
    }
}

impl Default for DecompConfig {
    fn default() -> Self {
        DecompConfig {
            rank: 10,
            forgetting: 0.8,
            max_iters: 10,
            tolerance: 0.0,
            seed: 42,
            numerics: NumericsPolicy::default(),
            threads: ThreadPolicy::default(),
        }
    }
}

impl DecompConfig {
    /// Returns the config with a different rank.
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Returns the config with a different forgetting factor.
    pub fn with_forgetting(mut self, mu: f64) -> Self {
        self.forgetting = mu;
        self
    }

    /// Returns the config with a different iteration cap.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Returns the config with a different convergence tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Returns the config with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different numerics policy.
    pub fn with_numerics(mut self, numerics: NumericsPolicy) -> Self {
        self.numerics = numerics;
        self
    }

    /// Returns the config with a different ingest validation mode.
    pub fn with_validation(mut self, mode: ValidationMode) -> Self {
        self.numerics.validation = mode;
        self
    }

    /// Returns the config with a different intra-worker thread policy.
    pub fn with_threads(mut self, threads: ThreadPolicy) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.rank == 0 {
            return Err("rank must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.forgetting) || self.forgetting == 0.0 {
            return Err("forgetting factor must lie in (0, 1]".into());
        }
        if self.max_iters == 0 {
            return Err("max_iters must be >= 1".into());
        }
        if self.tolerance < 0.0 {
            return Err("tolerance must be non-negative".into());
        }
        self.numerics.validate()
    }
}

/// Bundle of the numerical-robustness knobs: solve escalation, divergence
/// watchdog, and ingest validation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NumericsPolicy {
    /// Escalation ladder for the `R x R` normal-equation solves.
    pub solver: SolvePolicy,
    /// Divergence watchdog over the per-step loss trace.
    pub watchdog: WatchdogPolicy,
    /// How ingested snapshots are validated (default: Strict — reject
    /// non-finite values with a typed error naming the coordinate).
    pub validation: ValidationMode,
}

impl Default for NumericsPolicy {
    fn default() -> Self {
        NumericsPolicy {
            solver: SolvePolicy::default(),
            watchdog: WatchdogPolicy::default(),
            validation: ValidationMode::Strict,
        }
    }
}

impl NumericsPolicy {
    /// Policy with a different solve-escalation ladder.
    pub fn with_solver(mut self, solver: SolvePolicy) -> Self {
        self.solver = solver;
        self
    }

    /// Policy with a different watchdog configuration.
    pub fn with_watchdog(mut self, watchdog: WatchdogPolicy) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Policy with a different ingest validation mode.
    pub fn with_validation(mut self, mode: ValidationMode) -> Self {
        self.validation = mode;
        self
    }

    /// True when the policy tolerates lossy communication (the f32
    /// factor-row downcast of `CommPolicy::downcast_f32`).  Gated on the
    /// divergence watchdog: downcasting perturbs the ALS trajectory, so it
    /// is only safe when a monitor can roll back a step the perturbation
    /// destabilises.
    pub fn allows_lossy_comm(&self) -> bool {
        self.watchdog.enabled
    }

    /// Validates the parameter ranges.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.solver.condition_limit.is_nan() || self.solver.condition_limit <= 1.0 {
            return Err("solver.condition_limit must be > 1".into());
        }
        if self.solver.ridge_initial.is_nan() || self.solver.ridge_initial <= 0.0 {
            return Err("solver.ridge_initial must be positive".into());
        }
        if self.solver.ridge_growth.is_nan() || self.solver.ridge_growth <= 1.0 {
            return Err("solver.ridge_growth must be > 1".into());
        }
        if self.solver.max_ridge_steps == 0 {
            return Err("solver.max_ridge_steps must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.watchdog.mu_damping) || self.watchdog.mu_damping == 0.0 {
            return Err("watchdog.mu_damping must lie in (0, 1]".into());
        }
        if self.watchdog.patience == 0 {
            return Err("watchdog.patience must be >= 1".into());
        }
        if self.watchdog.increase_tolerance < 0.0 {
            return Err("watchdog.increase_tolerance must be non-negative".into());
        }
        Ok(())
    }
}

/// Divergence-watchdog configuration: when a streaming step's loss trace
/// goes non-finite or keeps rising, the session rolls back to its pre-step
/// checkpoint, damps the forgetting factor, and retries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogPolicy {
    /// Master switch; `false` disables divergence monitoring entirely.
    pub enabled: bool,
    /// Rollback-and-restart attempts per ingest before a
    /// `TensorError::Diverged` is propagated.
    pub max_restarts: usize,
    /// Multiplier applied to the forgetting factor `μ` on every restart
    /// (smaller μ trusts the diverging history less).
    pub mu_damping: f64,
    /// Consecutive loss increases tolerated before the step is declared
    /// divergent.
    pub patience: usize,
    /// Relative loss increase below which a rise is ignored (ALS noise
    /// floor).
    pub increase_tolerance: f64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            enabled: true,
            max_restarts: 2,
            mu_damping: 0.5,
            patience: 3,
            increase_tolerance: 1e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DecompConfig::default();
        assert_eq!(c.rank, 10);
        assert_eq!(c.forgetting, 0.8);
        assert_eq!(c.max_iters, 10);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let c = DecompConfig::default()
            .with_rank(4)
            .with_forgetting(0.5)
            .with_max_iters(3)
            .with_tolerance(1e-6)
            .with_seed(7);
        assert_eq!(c.rank, 4);
        assert_eq!(c.forgetting, 0.5);
        assert_eq!(c.max_iters, 3);
        assert_eq!(c.tolerance, 1e-6);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(DecompConfig::default().with_rank(0).validate().is_err());
        assert!(DecompConfig::default()
            .with_forgetting(0.0)
            .validate()
            .is_err());
        assert!(DecompConfig::default()
            .with_forgetting(1.5)
            .validate()
            .is_err());
        assert!(DecompConfig::default()
            .with_max_iters(0)
            .validate()
            .is_err());
        assert!(DecompConfig::default()
            .with_tolerance(-1.0)
            .validate()
            .is_err());
        assert!(DecompConfig::default()
            .with_forgetting(1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn numerics_defaults_are_valid_and_strict() {
        let n = NumericsPolicy::default();
        assert!(n.validate().is_ok());
        assert_eq!(n.validation, ValidationMode::Strict);
        assert!(n.watchdog.enabled);
        assert_eq!(n.watchdog.max_restarts, 2);
    }

    #[test]
    fn numerics_validation_rejects_bad_values() {
        let bad_limit = NumericsPolicy::default().with_solver(SolvePolicy {
            condition_limit: 1.0,
            ..SolvePolicy::default()
        });
        assert!(bad_limit.validate().is_err());
        let bad_growth = NumericsPolicy::default().with_solver(SolvePolicy {
            ridge_growth: 0.5,
            ..SolvePolicy::default()
        });
        assert!(bad_growth.validate().is_err());
        let bad_damping = NumericsPolicy::default().with_watchdog(WatchdogPolicy {
            mu_damping: 0.0,
            ..WatchdogPolicy::default()
        });
        assert!(bad_damping.validate().is_err());
        let bad_patience = NumericsPolicy::default().with_watchdog(WatchdogPolicy {
            patience: 0,
            ..WatchdogPolicy::default()
        });
        assert!(bad_patience.validate().is_err());
        // A bad numerics policy fails the whole config.
        assert!(DecompConfig::default()
            .with_numerics(bad_patience)
            .validate()
            .is_err());
    }

    #[test]
    fn old_checkpoints_without_numerics_still_decode() {
        // A config serialised before the numerics field existed.
        let legacy = r#"{"rank":4,"forgetting":0.8,"max_iters":10,"tolerance":0.0,"seed":42}"#;
        let cfg: DecompConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(cfg.rank, 4);
        assert_eq!(cfg.numerics, NumericsPolicy::default());
        // `threads` postdates `numerics`; legacy checkpoints get `Auto`.
        assert_eq!(cfg.threads, ThreadPolicy::Auto);
    }

    #[test]
    fn thread_policy_round_trips_through_the_config() {
        let cfg = DecompConfig::default().with_threads(ThreadPolicy::Fixed(4));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DecompConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.threads, ThreadPolicy::Fixed(4));
        assert_eq!(back, cfg);
    }
}
