//! Message payloads and communication accounting.

use crate::error::{ClusterError, ClusterResult};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A typed message body.
///
/// The decomposition only ever ships factor rows (`f64`) and opaque
/// blobs, so a small closed enum beats generic serialisation and keeps
/// byte accounting exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Dense floating-point data (factor rows, Gram matrices, scalars).
    F64(Vec<f64>),
    /// Raw bytes (serialised control structures).
    Bytes(bytes::Bytes),
    /// A message that carries no data (pure synchronisation).
    Empty,
}

impl Payload {
    /// Wire size of the payload in bytes (what a real network would carry,
    /// excluding framing).
    pub fn size_bytes(&self) -> u64 {
        match self {
            Payload::F64(v) => (v.len() * std::mem::size_of::<f64>()) as u64,
            Payload::Bytes(b) => b.len() as u64,
            Payload::Empty => 0,
        }
    }

    /// Name of the payload variant (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::F64(_) => "F64",
            Payload::Bytes(_) => "Bytes",
            Payload::Empty => "Empty",
        }
    }

    /// Unwraps an `F64` payload, surfacing a protocol mismatch as a typed
    /// [`ClusterError::TypeMismatch`] instead of a receive-path panic.
    ///
    /// # Errors
    /// Returns `TypeMismatch` when the payload has a different variant.
    pub fn try_into_f64(self) -> ClusterResult<Vec<f64>> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(ClusterError::TypeMismatch {
                expected: "F64".into(),
                found: other.kind().into(),
            }),
        }
    }
}

/// Shared, thread-safe tallies of simulated network traffic.
///
/// Only bytes that cross a worker boundary count: a worker "sending" to
/// itself is a local move, exactly as co-located data is free on a real
/// cluster.  Per-sender byte counters expose communication imbalance
/// (a hot worker shipping most of the rows is a partitioning smell).
#[derive(Debug, Default)]
pub struct CommStats {
    /// Bytes recorded without a sender ([`CommStats::record_message`]).
    /// Every logical byte lands in exactly one of this, `bytes_by_sender`
    /// and `unattributed_bytes`; a snapshot's `bytes` is their sum, so the
    /// total and its breakdown cannot disagree, even mid-run.
    bytes: AtomicU64,
    messages: AtomicU64,
    collectives: AtomicU64,
    /// Extra wire copies caused by injected drops/duplicates.  Kept apart
    /// from `bytes`/`messages` so logical traffic totals stay explainable
    /// (and bit-identical to a fault-free run) under fault injection.
    retransmits: AtomicU64,
    retransmit_bytes: AtomicU64,
    /// Spurious duplicates the receive path discarded.
    duplicates_suppressed: AtomicU64,
    /// Bytes whose sender rank fell outside the per-sender breakdown (a
    /// caller bug — see [`CommStats::record_message_from`]).
    unattributed_bytes: AtomicU64,
    /// Bytes sent per worker rank (empty when built via `default`).
    bytes_by_sender: Vec<AtomicU64>,
}

impl CommStats {
    /// Fresh zeroed stats with one per-sender counter per worker.
    pub fn with_world(world: usize) -> Self {
        CommStats {
            bytes_by_sender: (0..world).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// Records one remote message of `bytes` payload bytes.
    pub fn record_message(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one remote message attributed to a sender rank.
    ///
    /// With a per-sender breakdown installed ([`CommStats::with_world`]),
    /// an out-of-range `sender` is a caller bug: it trips a debug
    /// assertion, and in release builds the bytes land in
    /// `unattributed_bytes` so snapshots still reconcile exactly.
    pub fn record_message_from(&self, sender: usize, bytes: u64) {
        if self.bytes_by_sender.is_empty() {
            // Totals-only stats (`CommStats::default`): no breakdown to keep
            // consistent, any rank is acceptable.
            self.record_message(bytes);
            return;
        }
        let counter = self.bytes_by_sender.get(sender).unwrap_or_else(|| {
            debug_assert!(
                false,
                "sender rank {sender} outside per-sender breakdown of {} workers",
                self.bytes_by_sender.len()
            );
            &self.unattributed_bytes
        });
        counter.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the start of a collective operation (barrier, all-reduce, …).
    pub fn record_collective(&self) {
        self.collectives.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one extra wire copy (a retransmission after an injected
    /// drop, or a spurious duplicate send).  Does **not** touch the
    /// logical `bytes`/`messages` totals.
    pub fn record_retransmit(&self, bytes: u64) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
        self.retransmit_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a duplicate message discarded on the receive path.
    pub fn record_duplicate_suppressed(&self) {
        self.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy of the counters, safe to take while other ranks are recording.
    ///
    /// The counters are independent atomics, so a mid-run copy is not one
    /// instant: each value is some recent one.  What a copy does
    /// guarantee is [`CommStatsSnapshot::reconciles`]: `bytes` is
    /// computed from the very breakdown it is checked against.  Once every
    /// rank has stopped, the copy is exact.
    pub fn snapshot(&self) -> CommStatsSnapshot {
        let bytes_by_sender: Vec<u64> = self
            .bytes_by_sender
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let unattributed_bytes = self.unattributed_bytes.load(Ordering::Relaxed);
        CommStatsSnapshot {
            bytes: self.bytes.load(Ordering::Relaxed)
                + bytes_by_sender.iter().sum::<u64>()
                + unattributed_bytes,
            messages: self.messages.load(Ordering::Relaxed),
            collectives: self.collectives.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            retransmit_bytes: self.retransmit_bytes.load(Ordering::Relaxed),
            duplicates_suppressed: self.duplicates_suppressed.load(Ordering::Relaxed),
            unattributed_bytes,
            bytes_by_sender,
        }
    }
}

/// Recycles `Vec<f64>` payload capacity across messages on one worker.
///
/// The distributed hot loop packs factor rows into a fresh `Vec<f64>` for
/// every (destination, mode, iteration) triple and drops the received
/// vector right after unpacking — per step that is thousands of
/// allocations whose sizes repeat exactly.  The pool keeps returned
/// buffers and hands them back cleared, so steady-state iterations run
/// allocation-free on the payload path.
///
/// Pooling is invisible to [`CommStats`]: byte accounting uses
/// [`Payload::size_bytes`], which reads the *length*, never the capacity,
/// so recycled buffers produce bit-identical traffic totals.  The
/// `buffer_pool_is_invisible_to_comm_accounting` test in `dismastd-core`
/// pins that invariant end-to-end.
///
/// Not thread-safe by design: each worker owns one pool, matching the
/// share-nothing SPMD layout.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<f64>>,
    enabled: bool,
    hits: u64,
    misses: u64,
    /// Retention cap; buffers returned beyond this are simply dropped.
    max_retained: usize,
}

impl BufferPool {
    /// Buffers retained at most per pool (more than the hot loop's
    /// destinations-per-exchange on any realistic worker grid).
    const DEFAULT_MAX_RETAINED: usize = 64;

    /// Fresh pool; when `enabled` is false every `take` allocates and
    /// every `put` drops, giving an exact no-pooling baseline.
    pub fn new(enabled: bool) -> Self {
        BufferPool {
            free: Vec::new(),
            enabled,
            hits: 0,
            misses: 0,
            max_retained: Self::DEFAULT_MAX_RETAINED,
        }
    }

    /// An empty `Vec<f64>`, recycled when one is available.
    pub fn take(&mut self) -> Vec<f64> {
        if self.enabled {
            if let Some(mut buf) = self.free.pop() {
                buf.clear();
                self.hits += 1;
                return buf;
            }
        }
        self.misses += 1;
        // lint:allow(alloc_hygiene): pool miss allocates by design — steady state is all hits (pinned by the count-alloc integration test)
        Vec::new()
    }

    /// Returns a buffer's capacity to the pool (drops it when pooling is
    /// off, the buffer never grew, or the pool is full).
    pub fn put(&mut self, buf: Vec<f64>) {
        if self.enabled && buf.capacity() > 0 && self.free.len() < self.max_retained {
            self.free.push(buf);
        }
    }

    /// Takes recycled (`hits`) vs freshly allocated (`misses`) counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Plain-data copy of [`CommStats`] counters.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct CommStatsSnapshot {
    /// Total payload bytes that crossed worker boundaries.
    pub bytes: u64,
    /// Number of remote messages.
    pub messages: u64,
    /// Number of collective operations entered.
    pub collectives: u64,
    /// Extra wire copies injected by a fault plan (retransmissions after
    /// drops, spurious duplicates).  Zero in fault-free runs.
    pub retransmits: u64,
    /// Payload bytes of those extra copies (wire bytes = `bytes` +
    /// `retransmit_bytes`).
    pub retransmit_bytes: u64,
    /// Duplicate deliveries the receive path suppressed.
    pub duplicates_suppressed: u64,
    /// Bytes recorded with a sender rank outside the per-sender breakdown
    /// (a caller bug, asserted in debug builds).  Zero in correct runs;
    /// kept so `bytes == Σ bytes_by_sender + unattributed_bytes` is an
    /// invariant rather than a hope.
    pub unattributed_bytes: u64,
    /// Bytes sent per worker rank (empty unless the stats were created
    /// with [`CommStats::with_world`]).
    pub bytes_by_sender: Vec<u64>,
}

// Hand-written so `unattributed_bytes` is optional on decode: session
// checkpoints serialized before it existed read back as zero instead of
// failing with a missing-field error (the vendored derive requires every
// field).  Fields this struct no longer has (the frame counters of older
// checkpoints) are ignored.
impl Deserialize for CommStatsSnapshot {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::new("expected object for `CommStatsSnapshot`"))?;
        Ok(CommStatsSnapshot {
            bytes: Deserialize::from_value(serde::field(obj, "bytes")?)?,
            messages: Deserialize::from_value(serde::field(obj, "messages")?)?,
            collectives: Deserialize::from_value(serde::field(obj, "collectives")?)?,
            retransmits: Deserialize::from_value(serde::field(obj, "retransmits")?)?,
            retransmit_bytes: Deserialize::from_value(serde::field(obj, "retransmit_bytes")?)?,
            duplicates_suppressed: Deserialize::from_value(serde::field(
                obj,
                "duplicates_suppressed",
            )?)?,
            unattributed_bytes: match serde::field(obj, "unattributed_bytes") {
                Ok(nested) => Deserialize::from_value(nested)?,
                Err(_) => 0,
            },
            bytes_by_sender: Deserialize::from_value(serde::field(obj, "bytes_by_sender")?)?,
        })
    }
}

impl CommStatsSnapshot {
    /// Whether the counters are mutually consistent: `bytes == Σ
    /// bytes_by_sender + unattributed_bytes` (trivially true for
    /// totals-only snapshots with no breakdown recorded).
    pub fn reconciles(&self) -> bool {
        self.bytes_by_sender.is_empty()
            || self.bytes == self.bytes_by_sender.iter().sum::<u64>() + self.unattributed_bytes
    }

    /// Bytes that crossed the wire: every payload ships at its logical
    /// size, so this is `bytes` (injected retransmit copies not included —
    /// see `retransmit_bytes`).
    pub fn wire_bytes(&self) -> u64 {
        self.bytes
    }

    /// Accumulates another snapshot into this one (the streaming session
    /// uses this to keep lifetime totals across steps for checkpoints).
    /// Saturating: a restored checkpoint may carry any count, and a total
    /// that would pass `u64::MAX` stays there.
    pub fn merge(&mut self, other: &CommStatsSnapshot) {
        let add = |a: &mut u64, b: u64| *a = a.saturating_add(b);
        add(&mut self.bytes, other.bytes);
        add(&mut self.messages, other.messages);
        add(&mut self.collectives, other.collectives);
        add(&mut self.retransmits, other.retransmits);
        add(&mut self.retransmit_bytes, other.retransmit_bytes);
        add(&mut self.duplicates_suppressed, other.duplicates_suppressed);
        add(&mut self.unattributed_bytes, other.unattributed_bytes);
        if self.bytes_by_sender.len() < other.bytes_by_sender.len() {
            self.bytes_by_sender.resize(other.bytes_by_sender.len(), 0);
        }
        for (a, &b) in self.bytes_by_sender.iter_mut().zip(&other.bytes_by_sender) {
            add(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::F64(vec![1.0; 10]).size_bytes(), 80);
        assert_eq!(
            Payload::Bytes(bytes::Bytes::from_static(b"abcd")).size_bytes(),
            4
        );
        assert_eq!(Payload::Empty.size_bytes(), 0);
    }

    #[test]
    fn stats_accumulate_and_snapshot() {
        let s = CommStats::default();
        s.record_message(100);
        s.record_message(50);
        s.record_collective();
        let snap = s.snapshot();
        assert_eq!(snap.bytes, 150);
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.collectives, 1);
    }

    // Historical name: snapshots no longer subtract; this pins `reset`.
    #[test]
    fn stats_reset_and_delta() {
        let s = CommStats::default();
        s.record_message(10);
        s.record_message(30);
        let snap = s.snapshot();
        assert_eq!(snap.bytes, 40);
        assert_eq!(snap.messages, 2);
    }

    #[test]
    fn bytes_and_empty_payload_size_accounting() {
        // Bytes payloads report their exact length, Empty reports zero —
        // including the degenerate zero-length blob.
        assert_eq!(
            Payload::Bytes(bytes::Bytes::from(vec![0u8; 1000])).size_bytes(),
            1000
        );
        assert_eq!(
            Payload::Bytes(bytes::Bytes::from(Vec::new())).size_bytes(),
            0
        );
        assert_eq!(Payload::Empty.size_bytes(), 0);
        // Cloning a Bytes payload must not change its accounted size.
        let b = Payload::Bytes(bytes::Bytes::from_static(b"wire"));
        assert_eq!(b.clone().size_bytes(), b.size_bytes());
    }

    #[test]
    fn payload_kind_and_try_unwrap() {
        assert_eq!(Payload::F64(vec![1.0]).kind(), "F64");
        assert_eq!(
            Payload::Bytes(bytes::Bytes::from_static(b"x")).kind(),
            "Bytes"
        );
        assert_eq!(Payload::Empty.kind(), "Empty");
        assert_eq!(Payload::F64(vec![2.0]).try_into_f64().unwrap(), vec![2.0]);
        assert_eq!(
            Payload::Empty.try_into_f64(),
            Err(ClusterError::TypeMismatch {
                expected: "F64".into(),
                found: "Empty".into(),
            })
        );
    }

    #[test]
    fn new_stats_have_no_per_sender_breakdown() {
        // `CommStats::default()` tracks totals only: attributing a message to
        // any sender rank still counts globally but records no breakdown.
        let s = CommStats::default();
        s.record_message_from(0, 64);
        s.record_message_from(7, 16);
        let snap = s.snapshot();
        assert_eq!(snap.bytes, 80);
        assert_eq!(snap.messages, 2);
        assert!(snap.bytes_by_sender.is_empty());
    }

    #[test]
    fn retransmit_and_duplicate_counters_are_separate() {
        let s = CommStats::default();
        s.record_message(100);
        s.record_retransmit(100); // the dropped copy's resend
        s.record_duplicate_suppressed();
        let snap = s.snapshot();
        // Logical totals are unchanged by the extra wire copy.
        assert_eq!(snap.bytes, 100);
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.retransmits, 1);
        assert_eq!(snap.retransmit_bytes, 100);
        assert_eq!(snap.duplicates_suppressed, 1);
    }

    #[test]
    fn snapshot_merge_saturates() {
        let mut total = CommStatsSnapshot {
            collectives: u64::MAX,
            bytes_by_sender: vec![u64::MAX - 1, 5],
            ..CommStatsSnapshot::default()
        };
        let step = CommStatsSnapshot {
            collectives: 3,
            bytes: 7,
            bytes_by_sender: vec![2, 2],
            ..CommStatsSnapshot::default()
        };
        total.merge(&step);
        assert_eq!(total.collectives, u64::MAX);
        assert_eq!(total.bytes, 7);
        assert_eq!(total.bytes_by_sender, vec![u64::MAX, 7]);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a = CommStats::with_world(2);
        a.record_message_from(0, 10);
        a.record_collective();
        let b = CommStats::with_world(2);
        b.record_message_from(1, 30);
        b.record_retransmit(30);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.bytes, 40);
        assert_eq!(total.messages, 2);
        assert_eq!(total.collectives, 1);
        assert_eq!(total.retransmits, 1);
        assert_eq!(total.bytes_by_sender, vec![10, 30]);
        // Merging into a breakdown-free snapshot grows the breakdown.
        let mut plain = CommStats::default().snapshot();
        plain.merge(&b.snapshot());
        assert_eq!(plain.bytes_by_sender, vec![0, 30]);
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = BufferPool::new(true);
        let mut a = pool.take();
        assert_eq!(pool.stats(), (0, 1)); // first take allocates
        a.extend_from_slice(&[1.0; 100]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.take();
        assert_eq!(pool.stats(), (1, 1));
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(b.capacity(), cap, "capacity must survive the round trip");
    }

    #[test]
    fn disabled_pool_never_retains() {
        let mut pool = BufferPool::new(false);
        let mut a = pool.take();
        a.extend_from_slice(&[1.0; 10]);
        pool.put(a);
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.take().capacity(), 0);
        assert_eq!(pool.stats(), (0, 2));
    }

    #[test]
    fn pool_drops_beyond_retention_cap_and_empty_buffers() {
        let mut pool = BufferPool::new(true);
        pool.put(Vec::new()); // zero capacity: not worth keeping
        assert_eq!(pool.idle(), 0);
        for _ in 0..(BufferPool::DEFAULT_MAX_RETAINED + 10) {
            pool.put(vec![0.0; 4]);
        }
        assert_eq!(pool.idle(), BufferPool::DEFAULT_MAX_RETAINED);
    }

    #[test]
    fn pooled_payload_bytes_use_length_not_capacity() {
        // The accounting invariant pooling relies on: a recycled buffer
        // with large capacity but short contents reports only its length.
        let mut pool = BufferPool::new(true);
        pool.put(vec![0.0; 1000]);
        let mut buf = pool.take();
        buf.extend_from_slice(&[1.0, 2.0]);
        assert!(buf.capacity() >= 1000);
        assert_eq!(Payload::F64(buf).size_bytes(), 16);
    }
}

#[cfg(test)]
mod per_sender_tests {
    use super::*;

    #[test]
    fn per_sender_attribution() {
        let s = CommStats::with_world(3);
        s.record_message_from(0, 100);
        s.record_message_from(2, 50);
        s.record_message_from(2, 25);
        let snap = s.snapshot();
        assert_eq!(snap.bytes, 175);
        assert_eq!(snap.bytes_by_sender, vec![100, 0, 75]);
    }

    #[test]
    fn sender_imbalance_metric() {
        // The busiest sender's share is read off the per-sender breakdown.
        let s = CommStats::with_world(2);
        assert_eq!(s.snapshot().bytes_by_sender, vec![0, 0]); // nothing sent
        s.record_message_from(0, 300);
        s.record_message_from(1, 100);
        assert_eq!(s.snapshot().bytes_by_sender, vec![300, 100]);
        // Breakdown-free stats record none.
        assert!(CommStats::default().snapshot().bytes_by_sender.is_empty());
    }

    // Historical name: snapshots no longer subtract; this pins how
    // `merge` folds per-sender vectors of different worlds.
    #[test]
    fn delta_handles_sender_vectors() {
        let s = CommStats::with_world(2);
        s.record_message_from(1, 20);
        let mut total = CommStats::with_world(1).snapshot();
        total.merge(&s.snapshot());
        total.merge(&s.snapshot());
        assert_eq!(total.bytes_by_sender, vec![0, 40]);
        assert!(total.reconciles());
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "outside per-sender breakdown")
    )]
    fn out_of_range_sender_asserts_in_debug_and_reconciles_in_release() {
        let s = CommStats::with_world(1);
        s.record_message_from(5, 40); // caller bug: debug builds panic here
        let snap = s.snapshot();
        // Release builds keep totals and the reconciliation invariant.
        assert_eq!(snap.bytes, 40);
        assert_eq!(snap.bytes_by_sender, vec![0]);
        assert_eq!(snap.unattributed_bytes, 40);
        assert!(snap.reconciles());
    }

    #[test]
    fn snapshots_reconcile_while_other_threads_record() {
        // Each byte lives in exactly one counter and the total is derived
        // from them, so no interleaving of recorders and a reader can show
        // a total that disagrees with its breakdown.
        let stats = CommStats::with_world(2);
        std::thread::scope(|scope| {
            for rank in 0..2usize {
                let stats = &stats;
                scope.spawn(move || {
                    for i in 0..20_000u64 {
                        stats.record_message_from(rank, 64 + i % 7);
                    }
                });
            }
            // Read for as long as the recorders run.
            loop {
                let snap = stats.snapshot();
                assert!(snap.reconciles(), "{snap:?}");
                if snap.messages == 40_000 {
                    break;
                }
            }
        });
        let end = stats.snapshot();
        assert!(end.reconciles());
        assert_eq!(end.messages, 40_000);
        assert_eq!(end.bytes, end.bytes_by_sender.iter().sum::<u64>());
    }

    #[test]
    fn snapshots_reconcile_per_sender_bytes() {
        let s = CommStats::with_world(3);
        s.record_message_from(0, 100);
        s.record_message_from(2, 55);
        let snap = s.snapshot();
        assert!(snap.reconciles());
        assert_eq!(snap.unattributed_bytes, 0);
        // Totals-only stats reconcile trivially.
        let plain = CommStats::default();
        plain.record_message_from(9, 10);
        assert!(plain.snapshot().reconciles());
        // A hand-built drifting snapshot is caught.
        let drifted = CommStatsSnapshot {
            bytes: 100,
            bytes_by_sender: vec![40, 40],
            ..CommStatsSnapshot::default()
        };
        assert!(!drifted.reconciles());
    }

    #[test]
    fn snapshot_without_unattributed_field_still_decodes() {
        // A checkpoint serialized before `unattributed_bytes` existed.
        let legacy = r#"{"bytes":10,"messages":1,"collectives":2,"retransmits":0,
            "retransmit_bytes":0,"duplicates_suppressed":0,"bytes_by_sender":[10,0]}"#;
        let snap: CommStatsSnapshot = serde_json::from_str(legacy).unwrap();
        assert_eq!(snap.bytes, 10);
        assert_eq!(snap.unattributed_bytes, 0);
        assert_eq!(snap.wire_bytes(), 10);
        assert_eq!(snap.bytes_by_sender, vec![10, 0]);
        assert!(snap.reconciles());
        // And the current format round-trips.
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("unattributed_bytes"));
        let back: CommStatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
