//! Event-log ingestion — multi-aspect streams as they arrive in practice.
//!
//! [`StreamSequence`](crate::stream::StreamSequence) cuts a finished tensor
//! into nested boxes; real systems instead see an ordered **event log**
//! (`⟨user, product, time, rating⟩` tuples in the paper's introduction) in
//! which new indices appear in every mode as the log advances.  [`EventLog`]
//! materialises snapshot tensors from arbitrary prefixes of such a log:
//! the snapshot's shape is the smallest box containing every event seen so
//! far, so consecutive snapshot *shapes* grow monotonically in all modes.
//!
//! One modelling boundary worth knowing: Def. 4 assumes the previous
//! snapshot is *frozen* (`X^(T-1)` is exactly the restriction of `X^(T)`),
//! but a real log can deliver a late event whose indices lie inside an
//! already-materialised box (an old user rating an old product).  DTD's
//! complement pass never revisits the old box, so such in-box arrivals are
//! absorbed only through the `μ`-weighted approximation of the history —
//! the same treatment the paper implicitly gives them.  [`EventLog::in_box_events`]
//! counts them so callers can monitor how far a log strays from the ideal
//! model.

use crate::synth::ZipfSampler;
use dismastd_tensor::{Result, SparseTensor, SparseTensorBuilder, TensorError};
use rand::Rng;

/// One observed entry of the growing tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Index tuple (one coordinate per mode).
    pub idx: Vec<usize>,
    /// Observed value (duplicate indices are summed at snapshot time).
    pub value: f64,
}

/// An ordered log of tensor events.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    order: usize,
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log for order-`order` events.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyShape`] for order 0.
    pub fn new(order: usize) -> Result<Self> {
        if order == 0 {
            return Err(TensorError::EmptyShape);
        }
        Ok(EventLog {
            order,
            events: Vec::new(),
        })
    }

    /// Appends one event.
    ///
    /// # Errors
    /// Returns a shape error when the index arity is wrong.
    pub fn push(&mut self, idx: &[usize], value: f64) -> Result<()> {
        if idx.len() != self.order {
            return Err(TensorError::ShapeMismatch {
                op: "EventLog::push",
                left: vec![self.order],
                right: vec![idx.len()],
            });
        }
        self.events.push(Event {
            idx: idx.to_vec(),
            value,
        });
        Ok(())
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The smallest shape containing the first `n` events (all-zero for an
    /// empty prefix).
    pub fn shape_after(&self, n: usize) -> Vec<usize> {
        let mut shape = vec![0usize; self.order];
        for e in &self.events[..n.min(self.events.len())] {
            for (s, &i) in shape.iter_mut().zip(&e.idx) {
                *s = (*s).max(i + 1);
            }
        }
        shape
    }

    /// Materialises the snapshot after the first `n` events.
    ///
    /// # Errors
    /// Propagates builder errors (none expected for well-formed logs).
    pub fn snapshot_after(&self, n: usize) -> Result<SparseTensor> {
        let n = n.min(self.events.len());
        let shape = self.shape_after(n);
        let mut b = SparseTensorBuilder::with_capacity(shape, n);
        for e in &self.events[..n] {
            b.push(&e.idx, e.value)?;
        }
        b.build()
    }

    /// Materialises snapshots at the given event-count cuts.
    ///
    /// Cuts must be non-decreasing; the resulting snapshots are nested
    /// (Def. 4) because each is a prefix of the next.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] on decreasing cuts.
    pub fn snapshots(&self, cuts: &[usize]) -> Result<Vec<SparseTensor>> {
        for w in cuts.windows(2) {
            if w[0] > w[1] {
                return Err(TensorError::InvalidArgument(
                    "cuts must be non-decreasing".into(),
                ));
            }
        }
        cuts.iter().map(|&c| self.snapshot_after(c)).collect()
    }

    /// Counts events in `prefix..n` that fall inside the box spanned by the
    /// first `prefix` events — the late in-box arrivals that the
    /// multi-aspect streaming model (Def. 4) assumes away.
    pub fn in_box_events(&self, prefix: usize, n: usize) -> usize {
        let old_shape = self.shape_after(prefix);
        let n = n.min(self.events.len());
        self.events[prefix.min(n)..n]
            .iter()
            .filter(|e| e.idx.iter().zip(&old_shape).all(|(&i, &s)| i < s))
            .count()
    }

    /// Synthesises a growth log: events whose index ceilings expand over
    /// time in **every** mode (new users/products/timestamps keep
    /// appearing), with Zipf-skewed popularity inside the known population.
    ///
    /// `final_shape` is the population at the end of the log; mode-`k`
    /// index `i` becomes available once `⌊(events_so_far / total)^growth ·
    /// final_shape[k]⌋ > i`, so small `growth` fronts-loads the expansion.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyShape`] for an empty shape.
    pub fn synthetic_growth(
        final_shape: &[usize],
        num_events: usize,
        exponents: &[f64],
        growth: f64,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if final_shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        if exponents.len() != final_shape.len() {
            return Err(TensorError::InvalidArgument(
                "one Zipf exponent per mode required".into(),
            ));
        }
        let samplers: Vec<ZipfSampler> = final_shape
            .iter()
            .zip(exponents)
            .map(|(&s, &e)| ZipfSampler::new(s, e))
            .collect();
        let mut log = EventLog::new(final_shape.len())?;
        let mut idx = vec![0usize; final_shape.len()];
        for t in 0..num_events {
            // Population known at event t.
            let frac = ((t + 1) as f64 / num_events as f64).powf(growth);
            for ((i, s), sampler) in idx.iter_mut().zip(final_shape).zip(&samplers) {
                let ceiling = ((*s as f64 * frac).ceil() as usize).clamp(1, *s);
                // Rejection-sample within the known population.
                loop {
                    let cand = sampler.sample(rng);
                    if cand < ceiling {
                        *i = cand;
                        break;
                    }
                }
            }
            log.push(&idx, rng.gen_range(0.5..1.5))?;
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new(3).unwrap();
        log.push(&[0, 0, 0], 1.0).unwrap();
        log.push(&[1, 0, 2], 2.0).unwrap();
        log.push(&[0, 3, 1], -1.0).unwrap();
        log.push(&[4, 1, 0], 0.5).unwrap();
        log
    }

    #[test]
    fn construction_and_validation() {
        assert!(EventLog::new(0).is_err());
        let mut log = EventLog::new(2).unwrap();
        assert!(log.is_empty());
        assert!(log.push(&[0, 0, 0], 1.0).is_err()); // wrong arity
        log.push(&[3, 4], 1.0).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn shapes_grow_with_prefix() {
        let log = sample_log();
        assert_eq!(log.shape_after(1), vec![1, 1, 1]);
        assert_eq!(log.shape_after(2), vec![2, 1, 3]);
        assert_eq!(log.shape_after(3), vec![2, 4, 3]);
        assert_eq!(log.shape_after(4), vec![5, 4, 3]);
        // Beyond the log length: full shape.
        assert_eq!(log.shape_after(99), vec![5, 4, 3]);
    }

    #[test]
    fn snapshots_shapes_nest_and_entries_persist() {
        let log = sample_log(); // no duplicate indices → exact Def. 4 nesting
        let snaps = log.snapshots(&[1, 2, 4]).unwrap();
        assert_eq!(snaps.len(), 3);
        for w in snaps.windows(2) {
            // Shapes grow monotonically…
            for (a, b) in w[0].shape().iter().zip(w[1].shape()) {
                assert!(a <= b);
            }
            // …and every earlier entry persists (Def. 4).
            for (idx, v) in w[0].iter() {
                let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
                assert_eq!(w[1].get(&idx).unwrap(), v);
            }
        }
    }

    #[test]
    fn in_box_events_counts_late_arrivals() {
        let mut log = EventLog::new(2).unwrap();
        log.push(&[2, 2], 1.0).unwrap(); // box becomes 3x3
        log.push(&[0, 0], 1.0).unwrap(); // inside the box: late arrival
        log.push(&[5, 1], 1.0).unwrap(); // outside: genuine growth
        assert_eq!(log.in_box_events(1, 3), 1);
        assert_eq!(log.in_box_events(0, 3), 0); // empty prefix: 1x1 box
        assert_eq!(log.in_box_events(3, 3), 0);
    }

    #[test]
    fn snapshots_validate_cuts() {
        let log = sample_log();
        assert!(log.snapshots(&[3, 1]).is_err());
        assert!(log.snapshots(&[1, 1, 4]).is_ok());
    }

    #[test]
    fn duplicate_events_merge() {
        let mut log = EventLog::new(2).unwrap();
        log.push(&[0, 0], 1.0).unwrap();
        log.push(&[0, 0], 2.0).unwrap();
        let t = log.snapshot_after(2).unwrap();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(&[0, 0]).unwrap(), 3.0);
    }

    #[test]
    fn synthetic_growth_expands_all_modes() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let log = EventLog::synthetic_growth(&[50, 40, 30], 2000, &[0.8, 0.8, 0.3], 1.0, &mut rng)
            .unwrap();
        assert_eq!(log.len(), 2000);
        let early = log.shape_after(200);
        let late = log.shape_after(2000);
        for k in 0..3 {
            assert!(
                early[k] < late[k],
                "mode {k} did not grow: {early:?} -> {late:?}"
            );
        }
        // Early events live in a strictly smaller box.
        assert!(early.iter().zip(&[50, 40, 30]).all(|(e, f)| e <= f));
    }

    #[test]
    fn synthetic_growth_validates() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert!(EventLog::synthetic_growth(&[], 10, &[], 1.0, &mut rng).is_err());
        assert!(EventLog::synthetic_growth(&[5, 5], 10, &[1.0], 1.0, &mut rng).is_err());
    }

    #[test]
    fn streaming_session_consumes_event_snapshots() {
        // Cross-module smoke: event-log snapshots are valid MASTD input.
        // Late in-box arrivals mean the complement may under-count relative
        // to the nnz delta; the complement itself is always strictly
        // outside the previous box.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let log = EventLog::synthetic_growth(&[30, 25, 20], 1500, &[0.7, 0.7, 0.3], 1.0, &mut rng)
            .unwrap();
        let cuts = [500usize, 1000, 1500];
        let snaps = log.snapshots(&cuts).unwrap();
        for (t, w) in snaps.windows(2).enumerate() {
            let old_shape = w[0].shape().to_vec();
            let complement = w[1].complement(&old_shape).unwrap();
            for (idx, _) in complement.iter() {
                assert_ne!(SparseTensor::block_of(idx, &old_shape), 0);
            }
            // nnz delta = complement + in-box arrivals (minus merges).
            let in_box = log.in_box_events(cuts[t], cuts[t + 1]);
            assert!(
                complement.nnz() <= w[1].nnz() - w[0].nnz() + in_box,
                "complement accounting at step {t}"
            );
        }
    }
}
