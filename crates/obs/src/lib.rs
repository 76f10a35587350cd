//! # dismastd-obs
//!
//! Lightweight observability for the DisMASTD crates: scoped span timers,
//! counters, and fixed log-scale histograms, collected into a
//! plain-data [`MetricsSnapshot`].
//!
//! ## Model
//!
//! Metrics are recorded into a **thread-local registry**.  Nothing is
//! collected until a caller installs one with [`begin`]; every recording
//! call on a thread without a registry is a no-op costing one thread-local
//! access and a branch — in particular, [`span`] does not even read the
//! clock when disabled, so instrumented kernels stay at their uninstrumented
//! speed (the disabled-mode cost contract; see DESIGN.md "Observability").
//!
//! ## Dropped-metric accounting
//!
//! A recording call on a thread with **no** registry while some *other*
//! thread is collecting is almost always a bug: a helper thread (a pool
//! worker, a cluster rank) that forgot to install a child registry, whose
//! spans and counters would vanish silently.  Such calls are tallied into
//! a process-wide atomic; [`Collector::finish`] stamps the tally observed
//! during its collection window onto
//! [`MetricsSnapshot::dropped_metrics`], and [`dropped_metrics`] exposes
//! the raw process-wide counter.  Threads that *do* install a child
//! registry hand their snapshot back to the spawning thread via
//! [`absorb`], which folds it into the installed registry so the final
//! snapshot reconciles across every participating thread.
//!
//! ```
//! use dismastd_obs as obs;
//! let collector = obs::begin();
//! {
//!     let _s = obs::span!("phase/mttkrp", 1); // labelled by mode
//!     // ... hot work ...
//! }
//! obs::counter_add("plan/rebuild", 1);
//! let snap = collector.finish();
//! assert_eq!(snap.counter_value("plan/rebuild"), 1);
//! assert!(snap.span_total_ns("phase/mttkrp") > 0);
//! ```
//!
//! Registries nest: [`begin`] displaces the current registry and
//! [`Collector::finish`] restores it, so a session-level collector and a
//! test-local collector can coexist on one thread.  Dropping a [`Collector`]
//! without calling `finish` restores the displaced registry and discards
//! the collected data (the error-path behaviour).
//!
//! ## Serialization
//!
//! [`MetricsSnapshot`] is plain data — names, labels, and integer/float
//! aggregates.  No `Instant` or other monotonic-clock state ever reaches a
//! serialized snapshot; durations are recorded as elapsed nanoseconds at
//! span drop.

#[cfg(feature = "count-alloc")]
pub mod alloc;
pub mod taxonomy;

/// Runs `f` with allocation counting suspended on this thread (see
/// [`alloc::exempt`]).  Always available: with the `count-alloc` feature
/// off this is a plain passthrough, so production call sites carry no
/// `cfg` noise.
#[inline]
pub fn alloc_exempt<T>(f: impl FnOnce() -> T) -> T {
    #[cfg(feature = "count-alloc")]
    {
        alloc::exempt(f)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        f()
    }
}

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Live collectors, process-wide.  Dropped-metric tallying is gated on
/// this: a no-registry recording only counts as *dropped* while someone,
/// somewhere in the process, is collecting.
static ACTIVE_COLLECTORS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of metric recordings that hit a thread with no
/// installed registry while a collector was live (see the module docs).
static DROPPED: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count_dropped() {
    if ACTIVE_COLLECTORS.load(Ordering::Relaxed) > 0 {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-wide dropped-metrics counter (monotone; see module docs).
pub fn dropped_metrics() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Label value meaning "no label": spans/counters recorded without an
/// explicit label use this sentinel, so label `0` stays usable (mode 0).
pub const NO_LABEL: u64 = u64::MAX;

/// Histogram bucket count: bucket `0` holds zero values, bucket `i >= 1`
/// holds values with bit length `i`, i.e. the range `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

struct HistAgg {
    count: u64,
    total: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistAgg {
    fn default() -> Self {
        HistAgg {
            count: 0,
            total: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// The per-thread metrics store.  `BTreeMap` keys keep snapshots
/// deterministically ordered by `(name, label)`.
#[derive(Default)]
struct Inner {
    spans: BTreeMap<(&'static str, u64), SpanAgg>,
    counters: BTreeMap<(&'static str, u64), u64>,
    histograms: BTreeMap<&'static str, HistAgg>,
    /// Snapshots handed back by helper threads via [`absorb`], merged
    /// into the final snapshot at collection time.
    absorbed: MetricsSnapshot,
}

impl Inner {
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.own_snapshot();
        snap.merge(&self.absorbed);
        snap
    }

    fn own_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            spans: self
                .spans
                .iter()
                .map(|(&(name, label), agg)| SpanStat {
                    name: name.to_string(),
                    label,
                    count: agg.count,
                    total_ns: agg.total_ns,
                    max_ns: agg.max_ns,
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(&(name, label), &value)| CounterStat {
                    name: name.to_string(),
                    label,
                    value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&name, agg)| HistogramStat {
                    name: name.to_string(),
                    count: agg.count,
                    total: agg.total,
                    buckets: agg.buckets.to_vec(),
                })
                .collect(),
            dropped_metrics: 0,
        }
    }
}

thread_local! {
    static REGISTRY: RefCell<Option<Box<Inner>>> = const { RefCell::new(None) };
}

/// Runs `f` against the installed registry; without one, the recording is
/// a no-op that bumps the process-wide dropped tally when a collector is
/// live elsewhere.
#[inline]
fn with_inner(f: impl FnOnce(&mut Inner)) {
    REGISTRY.with(|r| match r.borrow_mut().as_mut() {
        Some(inner) => f(inner),
        None => count_dropped(),
    });
}

/// Whether this thread currently has a metrics registry installed.
#[inline]
pub fn installed() -> bool {
    REGISTRY.with(|r| r.borrow().is_some())
}

/// Installs a fresh registry on this thread and returns the handle that
/// collects it.  The previously installed registry (if any) is displaced
/// and restored by [`Collector::finish`] or the collector's `Drop`.
#[must_use = "metrics are discarded unless the collector is finished"]
pub fn begin() -> Collector {
    let prev = REGISTRY.with(|r| r.borrow_mut().replace(Box::new(Inner::default())));
    ACTIVE_COLLECTORS.fetch_add(1, Ordering::Relaxed);
    Collector {
        prev,
        active: true,
        dropped_at_begin: DROPPED.load(Ordering::Relaxed),
    }
}

/// Handle to an installed registry; see [`begin`].
pub struct Collector {
    prev: Option<Box<Inner>>,
    active: bool,
    dropped_at_begin: u64,
}

impl Collector {
    /// Uninstalls the registry, restores the displaced one, and returns
    /// everything recorded on this thread since [`begin`].
    ///
    /// The snapshot's [`MetricsSnapshot::dropped_metrics`] carries the
    /// process-wide dropped tally observed during this collection window
    /// (a zero means no thread lost a recording while this collector was
    /// live; see the module docs).
    pub fn finish(mut self) -> MetricsSnapshot {
        self.active = false;
        ACTIVE_COLLECTORS.fetch_sub(1, Ordering::Relaxed);
        let inner = REGISTRY.with(|r| std::mem::replace(&mut *r.borrow_mut(), self.prev.take()));
        let mut snap = inner.map(|i| i.snapshot()).unwrap_or_default();
        let window = DROPPED
            .load(Ordering::Relaxed)
            .saturating_sub(self.dropped_at_begin);
        snap.dropped_metrics = snap.dropped_metrics.max(window);
        snap
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if self.active {
            // Abandoned mid-collection (error path): restore the displaced
            // registry and discard what was recorded.
            ACTIVE_COLLECTORS.fetch_sub(1, Ordering::Relaxed);
            REGISTRY.with(|r| *r.borrow_mut() = self.prev.take());
        }
    }
}

/// Folds a helper thread's finished snapshot into this thread's installed
/// registry, so spans and counters recorded on pool workers or cluster
/// ranks land in the spawning collector's final snapshot.  Without an
/// installed registry the snapshot is lost and counted as one dropped
/// recording.
pub fn absorb(snap: &MetricsSnapshot) {
    REGISTRY.with(|r| match r.borrow_mut().as_mut() {
        Some(inner) => inner.absorbed.merge(snap),
        None => count_dropped(),
    });
}

/// Scoped timer: measures from creation to drop and records into the
/// thread's registry.  When no registry is installed the guard holds no
/// clock reading at all — creation and drop are each one thread-local
/// access plus a branch.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    label: u64,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            with_inner(|inner| {
                let agg = self.spans_entry(inner);
                agg.count += 1;
                agg.total_ns += ns;
                agg.max_ns = agg.max_ns.max(ns);
            });
        }
    }
}

impl SpanGuard {
    fn spans_entry<'a>(&self, inner: &'a mut Inner) -> &'a mut SpanAgg {
        inner.spans.entry((self.name, self.label)).or_default()
    }
}

/// Starts an unlabelled span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, NO_LABEL)
}

/// Starts a span labelled by a small integer (a mode, a tier, a rank).
#[inline]
pub fn span_with(name: &'static str, label: u64) -> SpanGuard {
    let start = if installed() {
        Some(Instant::now())
    } else {
        count_dropped();
        None
    };
    SpanGuard { name, label, start }
}

/// `span!("name")` or `span!("name", label)` — sugar over [`span`] /
/// [`span_with`]; the label expression is cast to `u64`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $label:expr) => {
        $crate::span_with($name, $label as u64)
    };
}

/// Adds `delta` to an unlabelled counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    counter_add_with(name, NO_LABEL, delta);
}

/// Adds `delta` to a labelled counter.
#[inline]
pub fn counter_add_with(name: &'static str, label: u64, delta: u64) {
    with_inner(|inner| *inner.counters.entry((name, label)).or_insert(0) += delta);
}

/// Records one observation into a fixed log-scale histogram (bucket = bit
/// length of `value`; see [`HISTOGRAM_BUCKETS`]).
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    with_inner(|inner| {
        let agg = inner.histograms.entry(name).or_default();
        agg.count += 1;
        agg.total += value;
        agg.buckets[bucket_index(value)] += 1;
    });
}

/// Bucket index for a histogram value: `0` for zero, otherwise the bit
/// length (so bucket `i` covers `[2^(i-1), 2^i)`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

// ---- snapshot ------------------------------------------------------------

/// Aggregate of one `(name, label)` span: call count, total and maximum
/// elapsed nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    pub name: String,
    /// [`NO_LABEL`] when the span was unlabelled.
    pub label: u64,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// One `(name, label)` counter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    pub name: String,
    /// [`NO_LABEL`] when the counter was unlabelled.
    pub label: u64,
    pub value: u64,
}

/// One histogram: observation count, sum, and log-scale bucket counts
/// (bucket `0` = zero values, bucket `i` = values in `[2^(i-1), 2^i)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramStat {
    pub name: String,
    pub count: u64,
    pub total: u64,
    pub buckets: Vec<u64>,
}

/// Everything one registry collected, sorted by `(name, label)`.
///
/// Plain data: safe to clone, compare, serialize, and merge across threads
/// (worker ranks) or steps.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub spans: Vec<SpanStat>,
    pub counters: Vec<CounterStat>,
    pub histograms: Vec<HistogramStat>,
    /// Process-wide recordings observed to hit a registry-less thread
    /// during this snapshot's collection window (see [`dropped_metrics`]).
    /// Zero means every recording made while collecting landed in *some*
    /// registry.  Windows overlap (a worker's window nests inside the
    /// driver's), so [`merge`](Self::merge) takes the max, never the sum.
    pub dropped_metrics: u64,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.  Deliberately ignores
    /// [`dropped_metrics`](Self::dropped_metrics): the field describes
    /// process-wide losses, not this registry's contents.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Total nanoseconds across every label of the named span.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.total_ns)
            .sum()
    }

    /// Sum across every label of the named counter.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The named counter's value under one label (`0` when not recorded).
    pub fn counter_at(&self, name: &str, label: u64) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map_or(0, |c| c.value)
    }

    /// Folds `other` into `self`: span counts/totals add (max of maxes),
    /// counters add, histograms add
    /// bucket-wise.  Used to combine per-rank worker snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for s in &other.spans {
            match self
                .spans
                .iter_mut()
                .find(|m| m.name == s.name && m.label == s.label)
            {
                Some(m) => {
                    m.count += s.count;
                    m.total_ns += s.total_ns;
                    m.max_ns = m.max_ns.max(s.max_ns);
                }
                None => self.spans.push(s.clone()),
            }
        }
        for c in &other.counters {
            match self
                .counters
                .iter_mut()
                .find(|m| m.name == c.name && m.label == c.label)
            {
                Some(m) => m.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(m) => {
                    m.count += h.count;
                    m.total += h.total;
                    if m.buckets.len() < h.buckets.len() {
                        m.buckets.resize(h.buckets.len(), 0);
                    }
                    for (d, &s) in m.buckets.iter_mut().zip(&h.buckets) {
                        *d += s;
                    }
                }
                None => self.histograms.push(h.clone()),
            }
        }
        // Collection windows overlap (worker windows nest inside the
        // driver's, and both read one process-wide counter), so the max
        // is the loss bound — summing would double-count.
        self.dropped_metrics = self.dropped_metrics.max(other.dropped_metrics);
        self.spans
            .sort_by(|a, b| (&a.name, a.label).cmp(&(&b.name, b.label)));
        self.counters
            .sort_by(|a, b| (&a.name, a.label).cmp(&(&b.name, b.label)));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Human-readable multi-line report.
    pub fn to_text(&self) -> String {
        fn key(name: &str, label: u64) -> String {
            if label == NO_LABEL {
                name.to_string()
            } else {
                format!("{name}[{label}]")
            }
        }
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<28} count={:<6} total={:.3}ms max={:.3}ms\n",
                    key(&s.name, s.label),
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.max_ns as f64 / 1e6,
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!("  {:<28} {}\n", key(&c.name, c.label), c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.total as f64 / h.count as f64
                };
                out.push_str(&format!(
                    "  {:<28} count={} total={} mean={mean:.1}\n",
                    h.name, h.count, h.total
                ));
            }
        }
        if self.dropped_metrics > 0 {
            out.push_str(&format!(
                "dropped_metrics: {} (recordings hit a thread with no registry)\n",
                self.dropped_metrics
            ));
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!installed());
        {
            let s = span("phase/test");
            assert!(s.start.is_none(), "no clock read when disabled");
        }
        counter_add("x", 1);
        histogram_record("h", 7);
        // Nothing was installed, so a fresh collector starts empty.
        let snap = begin().finish();
        assert!(snap.is_empty());
    }

    // Historical name: the gauge instrument kind is gone.
    #[test]
    fn spans_counters_gauges_histograms_round_trip() {
        let c = begin();
        {
            let _a = span!("phase/alpha");
            let _b = span!("kernel/beta", 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        counter_add("plan/rebuild", 2);
        counter_add_with("solve/tier", 1, 3);
        histogram_record("comm/msg_bytes", 0);
        histogram_record("comm/msg_bytes", 1);
        histogram_record("comm/msg_bytes", 800);
        let snap = c.finish();
        assert!(!installed());

        assert!(snap.span_total_ns("phase/alpha") >= 1_000_000);
        assert!(snap.span_total_ns("kernel/beta") >= 1_000_000);
        assert_eq!(snap.counter_value("plan/rebuild"), 2);
        assert_eq!(snap.counter_value("solve/tier"), 3);
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "comm/msg_bytes")
            .expect("recorded");
        assert_eq!(h.count, 3);
        assert_eq!(h.total, 801);
        assert_eq!(h.buckets[0], 1); // value 0
        assert_eq!(h.buckets[1], 1); // value 1
        assert_eq!(h.buckets[10], 1); // 800 in [512, 1024)
    }

    #[test]
    fn phase_total_sums_only_phase_spans() {
        let c = begin();
        {
            let _p = span("phase/a");
            let _k = span("kernel/b");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = c.finish();
        let phase_total_ns: u64 = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("phase/"))
            .map(|s| s.total_ns)
            .sum();
        assert_eq!(phase_total_ns, snap.span_total_ns("phase/a"));
        assert!(phase_total_ns < snap.span_total_ns("phase/a") + snap.span_total_ns("kernel/b"));
    }

    #[test]
    fn collectors_nest_and_restore() {
        let outer = begin();
        counter_add("outer", 1);
        {
            let inner = begin();
            counter_add("inner", 1);
            let snap = inner.finish();
            assert_eq!(snap.counter_value("inner"), 1);
            assert_eq!(snap.counter_value("outer"), 0);
        }
        // The outer registry is restored and still collecting.
        counter_add("outer", 1);
        let snap = outer.finish();
        assert_eq!(snap.counter_value("outer"), 2);
        assert_eq!(snap.counter_value("inner"), 0);
        assert!(!installed());
    }

    #[test]
    fn dropped_collector_discards_and_restores() {
        let outer = begin();
        {
            let _abandoned = begin();
            counter_add("lost", 5);
            // dropped without finish()
        }
        assert!(installed(), "outer registry restored");
        counter_add("kept", 1);
        let snap = outer.finish();
        assert_eq!(snap.counter_value("lost"), 0);
        assert_eq!(snap.counter_value("kept"), 1);
    }

    #[test]
    fn merge_combines_and_sorts() {
        let a = {
            let c = begin();
            counter_add("n", 1);
            {
                let _s = span!("phase/x", 0);
            }
            histogram_record("h", 4);
            c.finish()
        };
        let b = {
            let c = begin();
            counter_add("n", 2);
            counter_add("b-only", 7);
            {
                let _s = span!("phase/x", 0);
            }
            histogram_record("h", 4);
            c.finish()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.counter_value("n"), 3);
        assert_eq!(m.counter_value("b-only"), 7);
        let span_x = m
            .spans
            .iter()
            .find(|s| s.name == "phase/x")
            .expect("merged");
        assert_eq!(span_x.count, 2);
        assert_eq!(
            m.span_total_ns("phase/x"),
            a.span_total_ns("phase/x") + b.span_total_ns("phase/x")
        );
        let h = m.histograms.iter().find(|h| h.name == "h").expect("merged");
        assert_eq!(h.count, 2);
        assert_eq!(h.total, 8);
        assert_eq!(h.buckets[3], 2);
        // Deterministic ordering after merge.
        let names: Vec<&str> = m.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["b-only", "n"]);
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let c = begin();
        {
            let _s = span!("phase/io", 3);
        }
        counter_add("events", 9);
        histogram_record("sizes", 100);
        let snap = c.finish();
        let json = serde_json::to_string(&snap).expect("serializable");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
        let text = snap.to_text();
        assert!(text.contains("phase/io[3]"));
        assert!(text.contains("events"));
    }

    #[test]
    fn bucket_index_covers_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn registries_are_per_thread_and_leaks_are_counted() {
        let c = begin();
        counter_add("main", 1);
        let before = dropped_metrics();
        std::thread::spawn(|| {
            assert!(!installed(), "registry must not leak across threads");
            counter_add("other", 1); // no registry: dropped, and counted
        })
        .join()
        .expect("thread ok");
        assert!(
            dropped_metrics() > before,
            "a cross-thread recording while collecting must be tallied"
        );
        let snap = c.finish();
        assert_eq!(snap.counter_value("main"), 1);
        assert_eq!(snap.counter_value("other"), 0);
        assert!(
            snap.dropped_metrics >= 1,
            "the collection window must report the loss"
        );
    }

    #[test]
    fn absorb_folds_a_child_snapshot_into_the_collector() {
        let c = begin();
        counter_add("parent", 1);
        let child = std::thread::spawn(|| {
            let child = begin();
            counter_add("parent", 2);
            counter_add("child-only", 5);
            {
                let _s = span!("kernel/child");
            }
            child.finish()
        })
        .join()
        .expect("thread ok");
        absorb(&child);
        let snap = c.finish();
        assert_eq!(snap.counter_value("parent"), 3);
        assert_eq!(snap.counter_value("child-only"), 5);
        assert!(snap.spans.iter().any(|s| s.name == "kernel/child"));
    }

    #[test]
    fn merge_takes_the_max_of_dropped_tallies() {
        let mut a = MetricsSnapshot {
            dropped_metrics: 3,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            dropped_metrics: 7,
            ..MetricsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.dropped_metrics, 7, "overlapping windows: max, not sum");
        assert!(a.is_empty(), "dropped tally alone is not recorded data");
        assert!(a.to_text().contains("dropped_metrics: 7"));
    }
}
