//! Benchmark-owned spans around the calls into each layer.
//!
//! Spans live in memory and are written out once, when the run ends.  A
//! layer's self time is its span minus the part its children cover.  No span
//! is recorded inside `crates/`; the program's own `phase/*` registry is
//! reported separately under `obs.*`.

use serde::Value;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Stream step the span belongs to; spans of one `ingest` share it.
    step: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span named `name`, child of the innermost open span,
    /// and returns its result with the span's duration in seconds.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        step: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step,
        });
        self.open.push(id);
        let out = std::hint::black_box(f(self));
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Fastest of `n` runs of `f`, each under its own span.
    pub fn best_of<T>(
        &mut self,
        n: usize,
        name: &'static str,
        mut f: impl FnMut() -> T,
    ) -> (f64, T) {
        assert!(n > 0, "at least one repetition");
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..n {
            let (out, secs) = self.scope(name, None, |_| f());
            best = best.min(secs);
            last = Some(out);
        }
        (best, last.expect("n > 0 repetitions ran"))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span (duration minus children), summed by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= (s.end_ns - s.start_ns) as i128;
            }
        }
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            let secs = ns as f64 / 1e9;
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += secs,
                None => by_name.push((s.name, secs)),
            }
        }
        by_name
    }

    /// The span list as a JSON array, in start order.
    pub fn to_value(&self) -> Value {
        let opt = |v: Option<usize>| v.map_or(Value::Null, |x| Value::U64(x as u64));
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Object(vec![
                        ("id".into(), Value::U64(id as u64)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        ("parent".into(), opt(s.parent)),
                        ("step".into(), opt(s.step)),
                    ])
                })
                .collect(),
        )
    }
}
