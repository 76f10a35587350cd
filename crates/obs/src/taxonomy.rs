//! The registered metric taxonomy.
//!
//! Every span, counter, and histogram name used by the DisMASTD
//! crates must be listed here.  The registry serves two purposes:
//!
//! 1. **Static analysis** — `dismastd-xtask`'s L3 lint resolves every
//!    string literal passed to [`span`](crate::span) /
//!    [`counter_add`](crate::counter_add) / … against this table, so a
//!    typo'd label (`"phase/solv"`) is a build-gate failure instead of a
//!    silently missing metric.
//! 2. **Documentation** — the table is the single place that says which
//!    instrument families exist and what their prefixes mean.
//!
//! Families:
//! - `kernel/*` — per-kernel hot-loop spans (labelled by mode where
//!   applicable).
//! - `phase/*`  — algorithm phases of DTD / distributed ALS / the
//!   streaming session.
//! - `comm/*`   — collective-communication spans and wire-size
//!   histograms.
//! - `plan/*`, `watchdog/*`, `ingest/*`, `solve/*` — event counters for
//!   plan caching, divergence restarts, quarantined ingest, and the
//!   solve-tier escalation ladder.
//! - `pool/*` — intra-worker thread-pool events (chunks executed).
//! - `sim/*` — deterministic-simulation scheduler events (messages on the
//!   virtual wire, partition holds, time advances, deadlock wakes).
//! - `heal/*` — the supervision layer's crash-heal ladder: respawn
//!   replays, backoff spent, degraded-world transitions, and terminal
//!   give-ups.
//!
//! Adding a metric means adding its name to the matching table below in
//! the same change that introduces the call site; the L3 lint fails
//! otherwise.

/// Registered span names (scoped timers).
pub const SPANS: &[&str] = &[
    // comm family: one span per collective primitive; the allreduce_*
    // algorithm spans and the exchange post/wait halves nest inside their
    // parent primitive's span.
    "comm/allreduce",
    "comm/allreduce_ring",
    "comm/barrier",
    "comm/broadcast",
    "comm/exchange",
    "comm/exchange_post",
    "comm/exchange_wait",
    "comm/gather",
    // kernel family: MTTKRP kernels and plan construction.
    "kernel/mttkrp_naive",
    "kernel/mttkrp_plan",
    "kernel/plan_build",
    // phase family: DTD / distributed ALS / session phases.
    "phase/complement",
    "phase/exchange",
    "phase/fit",
    "phase/gather",
    "phase/gram",
    "phase/loss",
    "phase/mttkrp",
    "phase/partition",
    "phase/plan_build",
    "phase/setup",
    "phase/solve",
    "phase/validate",
    // heal family: one span per replayed ingest attempt of the heal loop.
    "heal/replay",
];

/// Registered counter names (monotone event tallies).
pub const COUNTERS: &[&str] = &[
    // heal family: supervision-ladder decisions and the backoff they cost.
    "heal/backoff_ns",
    "heal/degraded",
    "heal/giveup",
    "heal/respawn",
    // ingest family: entries dropped by validation, and the entries of
    // the snapshot (or of what arrived in it) a step read, per pass
    // (label 0/1/2 = validate/complement/fit).
    "ingest/quarantined",
    "ingest/resident_read",
    // plan family: the grid cells each attempt's placement laid out.
    "plan/rebuild",
    // pool family: intra-worker thread-pool work items.
    "pool/chunks",
    // sim family: virtual-network scheduler events.
    "sim/deadlock_wakes",
    "sim/held_messages",
    "sim/messages",
    "sim/rejoin_delays",
    "sim/time_advances",
    // solve family: the tier each normal-equation solve escalated through
    // (label 0/1/2 = cholesky/lu/ridge), and the old rows per mode (label =
    // mode) that no complement nonzero references, which leave the loop.
    "solve/tier",
    "solve/untouched_rows",
    "watchdog/restart",
];

/// Registered histogram names (log₂-bucketed distributions).
/// `comm/msg_bytes` records every remote message at its size, so it
/// reconciles exactly with `CommStats::bytes`.
pub const HISTOGRAMS: &[&str] = &["comm/msg_bytes"];

/// Instrument kind, used to select the table a name must resolve in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    Span,
    Counter,
    Histogram,
}

impl InstrumentKind {
    /// The registry table for this instrument kind.
    pub fn table(self) -> &'static [&'static str] {
        match self {
            InstrumentKind::Span => SPANS,
            InstrumentKind::Counter => COUNTERS,
            InstrumentKind::Histogram => HISTOGRAMS,
        }
    }
}

/// True when `name` is a registered instrument of the given kind.
pub fn is_registered(kind: InstrumentKind, name: &str) -> bool {
    kind.table().contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_sorted_within_family_and_duplicate_free() {
        for table in [SPANS, COUNTERS, HISTOGRAMS] {
            let mut seen = std::collections::BTreeSet::new();
            for name in table {
                assert!(seen.insert(*name), "duplicate taxonomy entry {name}");
            }
        }
    }

    #[test]
    fn every_name_carries_a_known_family_prefix() {
        const FAMILIES: &[&str] = &[
            "kernel/",
            "phase/",
            "comm/",
            "plan/",
            "pool/",
            "watchdog/",
            "ingest/",
            "solve/",
            "sim/",
            "heal/",
        ];
        for table in [SPANS, COUNTERS, HISTOGRAMS] {
            for name in table {
                assert!(
                    FAMILIES.iter().any(|f| name.starts_with(f)),
                    "taxonomy entry {name} lacks a registered family prefix"
                );
            }
        }
    }

    #[test]
    fn lookup_matches_tables() {
        assert!(is_registered(InstrumentKind::Span, "phase/mttkrp"));
        assert!(is_registered(InstrumentKind::Counter, "solve/tier"));
        assert!(is_registered(InstrumentKind::Histogram, "comm/msg_bytes"));
        assert!(!is_registered(InstrumentKind::Span, "phase/solv"));
        assert!(!is_registered(InstrumentKind::Counter, "phase/mttkrp"));
    }
}
