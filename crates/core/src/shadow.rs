//! Shadow-state checking for simulated distributed runs.
//!
//! [`ShadowOracle`] replays every ingested snapshot against two reference
//! executions and cross-checks the observed session after each step:
//!
//! 1. **A fault-free distributed replica** with the same configuration and
//!    the same (mirrored) world-size history.  The distributed
//!    decomposition is deterministic for a fixed configuration, so the
//!    observed factors — however much chaos, virtual latency, or partition
//!    scheduling the simulator injected — must match the replica's
//!    **bit for bit**.  Any divergence means the runtime corrupted state
//!    (a dropped message that should have been retransmitted, a stale
//!    plan-cache entry surviving a world-size change, …).
//! 2. **The serial oracle.**  Serial and distributed execution sum partial
//!    MTTKRP contributions in different orders, so their factors agree to
//!    floating-point *tolerance*, not bitwise (the repo-wide contract,
//!    see `tests/serial_vs_distributed.rs`).  The oracle checks every
//!    factor entry against the serial run within `tolerance`.
//!
//! The split matters: a bitwise check against the serial solver would be
//! wrong (summation order differs by placement), and a tolerance-only
//! check against the replica would be too weak (it would miss single-ulp
//! state corruption that deterministic replay is supposed to exclude).

use crate::config::DecompConfig;
use crate::distributed::ClusterConfig;
use crate::session::{ExecutionMode, StreamingSession};
use dismastd_tensor::{KruskalTensor, Result, SparseTensor, TensorError};

/// Replays ingests against a fault-free distributed replica (bitwise
/// check) and the serial oracle (tolerance check).  See the module docs.
#[derive(Debug)]
pub struct ShadowOracle {
    serial: StreamingSession,
    replica: StreamingSession,
    tolerance: f64,
    steps_checked: usize,
}

impl ShadowOracle {
    /// An oracle mirroring a distributed session created with `cfg` and
    /// `cluster`.  The default serial-vs-distributed tolerance is `1e-5`
    /// per factor entry (matching the repo's equivalence suites).
    pub fn new(cfg: DecompConfig, cluster: ClusterConfig) -> Self {
        ShadowOracle {
            serial: StreamingSession::new(cfg, ExecutionMode::Serial),
            replica: StreamingSession::new(cfg, ExecutionMode::Distributed(cluster)),
            tolerance: 1e-5,
            steps_checked: 0,
        }
    }

    /// Verifies `observed` after it ingested `snapshot`: mirrors the
    /// observed session's current world size onto the replica, ingests
    /// `snapshot` into both references, and runs the bitwise (replica) and
    /// tolerance (serial) comparisons.
    ///
    /// Call once per step, *after* the observed session's ingest returned.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] naming the first differing
    /// factor entry on a mismatch, and propagates reference-execution
    /// failures.
    pub fn check_step(
        &mut self,
        snapshot: &SparseTensor,
        observed: &StreamingSession,
    ) -> Result<()> {
        // Mirror the world: the observed session's mode carries the world
        // its step ran on (a heal degradation included), and the replica
        // follows through the same setter a caller uses.
        self.replica
            .set_workers(observed.mode().cluster().workers)?;
        self.replica.ingest(snapshot)?;
        self.serial.ingest(snapshot)?;

        let observed_factors = observed.factors().ok_or_else(|| {
            TensorError::InvalidArgument("shadow check: observed session has no factors".into())
        })?;
        let replica_factors = self.replica.factors().ok_or_else(|| {
            TensorError::InvalidArgument("shadow check: replica produced no factors".into())
        })?;
        let serial_factors = self.serial.factors().ok_or_else(|| {
            TensorError::InvalidArgument("shadow check: serial oracle produced no factors".into())
        })?;

        compare_bitwise(observed_factors, replica_factors, self.steps_checked)?;
        compare_tolerance(
            observed_factors,
            serial_factors,
            self.tolerance,
            self.steps_checked,
        )?;
        self.steps_checked += 1;
        Ok(())
    }
}

/// Factors must agree bit for bit (observed vs fault-free replica).
fn compare_bitwise(observed: &KruskalTensor, replica: &KruskalTensor, step: usize) -> Result<()> {
    check_same_shape(observed, replica, step)?;
    for mode in 0..observed.order() {
        let a = observed.factor(mode);
        let b = replica.factor(mode);
        for row in 0..a.rows() {
            for (col, (&x, &y)) in a.row(row).iter().zip(b.row(row)).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(TensorError::InvalidArgument(format!(
                        "shadow check (step {step}): factor[{mode}][{row},{col}] diverged \
                         from the fault-free replica: {x:?} vs {y:?} (bitwise)"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Factors must agree within `tol` (observed vs serial oracle).
fn compare_tolerance(
    observed: &KruskalTensor,
    serial: &KruskalTensor,
    tol: f64,
    step: usize,
) -> Result<()> {
    check_same_shape(observed, serial, step)?;
    for mode in 0..observed.order() {
        let a = observed.factor(mode);
        let b = serial.factor(mode);
        for row in 0..a.rows() {
            for (col, (&x, &y)) in a.row(row).iter().zip(b.row(row)).enumerate() {
                let diff = (x - y).abs();
                // NaN diffs (either side non-finite) must fail too.
                if diff.is_nan() || diff > tol {
                    return Err(TensorError::InvalidArgument(format!(
                        "shadow check (step {step}): factor[{mode}][{row},{col}] off the \
                         serial oracle by {diff:e} (> {tol:e}): {x} vs {y}"
                    )));
                }
            }
        }
    }
    Ok(())
}

fn check_same_shape(a: &KruskalTensor, b: &KruskalTensor, step: usize) -> Result<()> {
    if a.order() != b.order() || a.rank() != b.rank() || a.shape() != b.shape() {
        return Err(TensorError::InvalidArgument(format!(
            "shadow check (step {step}): factor geometry mismatch \
             (order {} vs {}, rank {} vs {}, shape {:?} vs {:?})",
            a.order(),
            b.order(),
            a.rank(),
            b.rank(),
            a.shape(),
            b.shape()
        )));
    }
    Ok(())
}
