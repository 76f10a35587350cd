//! Typed failures of the simulated cluster.
//!
//! The seed runtime treated every fault as a panic: a crashed worker
//! poisoned `join()` while its peers blocked forever in `recv`.  This
//! module gives faults a type so they can propagate — a failing worker
//! fans its [`ClusterError`] out to every peer (the abort protocol in
//! `runtime`), and [`Cluster::run`](crate::Cluster::run) surfaces the
//! originating rank and cause instead of deadlocking.
//!
//! Errors cross worker boundaries as messages, so they carry owned data;
//! workers are threads of one process, so an abort notice carries the
//! value itself, with no byte encoding.

use std::fmt;

/// Why a cluster operation failed.
///
/// Once a worker observes any of these, its [`WorkerCtx`](crate::WorkerCtx)
/// is poisoned: every later communication attempt returns the same error.
/// This mirrors MPI semantics — a communicator that lost a member is dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A worker panicked, was crashed by fault injection, or its inbound
    /// channel vanished.  `rank` is the *failing* worker, which is not
    /// necessarily the rank that reports the error.
    PeerCrashed {
        /// Rank of the worker that failed.
        rank: usize,
        /// Panic message or injected-fault description.
        cause: String,
    },
    /// A receive exceeded the run's deadline
    /// (`ClusterOptions::default_timeout`).
    Timeout {
        /// Rank that was waiting.
        rank: usize,
        /// Rank it was waiting for.
        src: usize,
        /// Message tag it was waiting for.
        tag: u64,
        /// How long it waited, in milliseconds.
        waited_ms: u64,
    },
    /// A payload arrived with the wrong variant — a protocol bug that the
    /// seed runtime turned into a receive-path panic.
    TypeMismatch {
        /// The variant the receiver asked for (`"F64"`, …).
        expected: String,
        /// The variant that actually arrived.
        found: String,
    },
    /// Collective buffers disagreed in length across ranks.
    SizeMismatch {
        /// Rank that contributed the odd buffer, judged against rank 0's
        /// (the ring names the first rank whose chunk disagrees).
        rank: usize,
        /// Element count the collective expected (ring: that chunk's).
        expected: usize,
        /// Element count actually contributed (ring: that chunk's).
        found: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::PeerCrashed { rank, cause } => {
                write!(f, "worker {rank} crashed: {cause}")
            }
            ClusterError::Timeout {
                rank,
                src,
                tag,
                waited_ms,
            } => write!(
                f,
                "worker {rank} timed out after {waited_ms}ms waiting for worker {src} (tag {tag})"
            ),
            ClusterError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected} payload, got {found}")
            }
            ClusterError::SizeMismatch {
                rank,
                expected,
                found,
            } => write!(
                f,
                "size mismatch: worker {rank} contributed {found} elements, collective expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Convenience alias for fallible cluster operations.
pub type ClusterResult<T> = std::result::Result<T, ClusterError>;

#[cfg(test)]
mod tests {
    use super::*;

    fn variants() -> Vec<ClusterError> {
        vec![
            ClusterError::PeerCrashed {
                rank: 3,
                cause: "injected crash".into(),
            },
            ClusterError::Timeout {
                rank: 1,
                src: 2,
                tag: 99,
                waited_ms: 5000,
            },
            ClusterError::TypeMismatch {
                expected: "F64".into(),
                found: "Empty".into(),
            },
            ClusterError::SizeMismatch {
                rank: 0,
                expected: 10,
                found: 7,
            },
        ]
    }

    #[test]
    fn display_covers_all_variants() {
        for v in variants() {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes(_: &dyn std::error::Error) {}
        takes(&ClusterError::PeerCrashed {
            rank: 0,
            cause: "x".into(),
        });
    }
}
