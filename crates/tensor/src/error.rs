//! Error types for the tensor substrate.

use std::fmt;

/// Errors produced by tensor and linear-algebra operations.
///
/// All fallible operations in this crate return [`Result<T, TensorError>`];
/// the variants carry enough context to diagnose the failing call without a
/// backtrace.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Two operands had incompatible shapes (e.g. mat-mul inner dimensions).
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        left: Vec<usize>,
        /// Shape of the right/second operand.
        right: Vec<usize>,
    },
    /// An index was out of bounds for the given shape.
    IndexOutOfBounds {
        /// The offending index tuple.
        index: Vec<usize>,
        /// The shape it was checked against.
        shape: Vec<usize>,
    },
    /// A mode argument exceeded the tensor order.
    InvalidMode {
        /// The requested mode.
        mode: usize,
        /// The tensor order.
        order: usize,
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Observed number of rows.
        rows: usize,
        /// Observed number of columns.
        cols: usize,
    },
    /// A linear system could not be solved (singular / not positive definite
    /// even after ridge regularisation).
    Singular {
        /// Description of the solver that gave up.
        solver: &'static str,
    },
    /// A solver hit a NaN/Inf pivot — the factorisation (or a caller-built
    /// factor) contains non-finite entries and substitution would only
    /// spread them.
    NonFinitePivot {
        /// Description of the solver that detected the pivot.
        solver: &'static str,
    },
    /// A non-finite (NaN/Inf) value was found where only finite data is
    /// permitted — e.g. an ingested nonzero under strict validation, or an
    /// entry of a normal-equation denominator.
    NonFiniteValue {
        /// Coordinate of the offending value (tensor index, or `[row, col]`
        /// for a matrix).
        index: Vec<usize>,
        /// The offending value.
        value: f64,
    },
    /// Two entries share one coordinate where strict validation forbids
    /// duplicates.
    DuplicateIndex {
        /// The duplicated coordinate.
        index: Vec<usize>,
    },
    /// A streaming step kept diverging (non-finite or rising loss) and the
    /// watchdog's restart budget ran out.
    Diverged {
        /// Rollback-and-restart attempts performed before giving up.
        restarts: usize,
        /// What the watchdog observed on the final attempt.
        detail: String,
    },
    /// A tensor was constructed with an empty shape or a zero-length mode
    /// where that is not permitted.
    EmptyShape,
    /// A quantity exceeded the `u32` index space: a coordinate `≥ 2³²`
    /// where it enters a `SparseTensor` (`"index"`), or a tensor whose
    /// entries or factor rows `MttkrpPlan` and the distributed routing
    /// tables cannot number (`"nnz"`, `"shape dimension"`).  Refused instead
    /// of truncated.
    PlanOverflow {
        /// Which quantity overflowed.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Generic invalid-argument error.
    InvalidArgument(String),
    /// The distributed cluster failed mid-operation (worker crash, receive
    /// timeout, collective mismatch).  Carries the rendered
    /// `ClusterError` from the cluster crate plus, when attributable, the
    /// rank at fault; the recovery and supervision drivers in the core
    /// crate match on this variant to trigger restore-and-replay, and the
    /// heal ladder keys its per-rank respawn budgets on `rank`.
    ClusterFault {
        /// The worker at fault — the crashed rank, or the peer a timeout
        /// was waiting on.  `None` when the failure has no single culprit
        /// (e.g. a payload type mismatch).
        rank: Option<usize>,
        /// Rendered description of the underlying cluster error.
        detail: String,
    },
}

impl TensorError {
    /// Builds a [`TensorError::ShapeMismatch`] from borrowed shapes.
    ///
    /// The hot kernels funnel every shape rejection through this one
    /// out-of-line constructor so their steady-state bodies stay
    /// allocation-free: the owned shape copies exist only here, behind a
    /// `#[cold]` boundary that is reached solely on rejected input.
    #[cold]
    #[inline(never)]
    pub fn shape_mismatch(op: &'static str, left: &[usize], right: &[usize]) -> Self {
        TensorError::ShapeMismatch {
            op,
            left: left.to_vec(), // lint:allow(alloc_hygiene): cold error constructor, not steady state
            right: right.to_vec(), // lint:allow(alloc_hygiene): cold error constructor, not steady state
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, left, right } => {
                write!(f, "shape mismatch in {op}: {left:?} vs {right:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidMode { mode, order } => {
                write!(f, "mode {mode} invalid for order-{order} tensor")
            }
            TensorError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            TensorError::Singular { solver } => {
                write!(f, "{solver}: matrix is singular or not positive definite")
            }
            TensorError::NonFinitePivot { solver } => {
                write!(f, "{solver}: non-finite pivot encountered")
            }
            TensorError::NonFiniteValue { index, value } => {
                write!(f, "non-finite value {value} at index {index:?}")
            }
            TensorError::DuplicateIndex { index } => {
                write!(f, "duplicate entry at index {index:?}")
            }
            TensorError::Diverged { restarts, detail } => {
                write!(
                    f,
                    "decomposition diverged after {restarts} restart(s): {detail}"
                )
            }
            TensorError::EmptyShape => write!(f, "tensor shape must be non-empty"),
            TensorError::PlanOverflow { what, value } => {
                write!(
                    f,
                    "MTTKRP plan overflow: {what} = {value} exceeds the u32 layout \
                     index space"
                )
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            TensorError::ClusterFault { detail, .. } => write!(f, "cluster fault: {detail}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let variants: Vec<TensorError> = vec![
            TensorError::ShapeMismatch {
                op: "matmul",
                left: vec![2, 3],
                right: vec![4, 5],
            },
            TensorError::IndexOutOfBounds {
                index: vec![9],
                shape: vec![3],
            },
            TensorError::InvalidMode { mode: 3, order: 3 },
            TensorError::NotSquare { rows: 2, cols: 3 },
            TensorError::Singular { solver: "cholesky" },
            TensorError::NonFinitePivot { solver: "lu_solve" },
            TensorError::NonFiniteValue {
                index: vec![1, 2],
                value: f64::NAN,
            },
            TensorError::DuplicateIndex { index: vec![0, 0] },
            TensorError::Diverged {
                restarts: 2,
                detail: "loss became NaN at iteration 3".into(),
            },
            TensorError::EmptyShape,
            TensorError::PlanOverflow {
                what: "nnz",
                value: u64::MAX,
            },
            TensorError::InvalidArgument("nope".into()),
            TensorError::ClusterFault {
                rank: Some(2),
                detail: "worker 2 crashed: boom".into(),
            },
        ];
        for v in variants {
            // Every variant must render something non-empty and not panic.
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TensorError::EmptyShape);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(TensorError::EmptyShape, TensorError::EmptyShape);
        assert_ne!(
            TensorError::EmptyShape,
            TensorError::InvalidMode { mode: 0, order: 0 }
        );
    }
}
