//! Multi-aspect streaming tensor sequences (Def. 4, Sec. V-B1).
//!
//! A multi-aspect streaming sequence is a chain of snapshot tensors
//! `X^(1) ⊆ X^(2) ⊆ …` where *every mode* may grow between snapshots
//! (Fig. 1, right).  The paper's Fig. 5 experiment builds the sequence by
//! growing a full dataset "from 75% to 100% of the whole dataset by 5% at
//! each time step"; [`StreamSequence`] reproduces exactly that protocol:
//! snapshot `t` is the restriction of the full tensor to the box
//! `⌈frac_t · I_n⌉` per mode.

use dismastd_tensor::{Result, SparseTensor, TensorError};

/// A materialised multi-aspect streaming snapshot sequence.
#[derive(Debug, Clone)]
pub struct StreamSequence {
    snapshots: Vec<SparseTensor>,
    fractions: Vec<f64>,
}

impl StreamSequence {
    /// The paper's Fig. 5 schedule: 75%, 80%, …, 100%.
    pub fn paper_fractions() -> Vec<f64> {
        vec![0.75, 0.80, 0.85, 0.90, 0.95, 1.00]
    }

    /// Cuts `full` into nested snapshots at the given shape fractions.
    ///
    /// Fractions must be strictly increasing and lie in `(0, 1]`; the
    /// snapshot at fraction `f` has shape `⌈f · I_n⌉` and contains every
    /// entry of `full` inside that box, so `X^(t-1) ⊆ X^(t)` holds by
    /// construction (Def. 4).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] on an empty or non-monotone
    /// fraction list, or fractions outside `(0, 1]`.
    pub fn cut(full: &SparseTensor, fractions: &[f64]) -> Result<Self> {
        if fractions.is_empty() {
            return Err(TensorError::InvalidArgument(
                "at least one fraction required".into(),
            ));
        }
        for w in fractions.windows(2) {
            if w[0] >= w[1] {
                return Err(TensorError::InvalidArgument(
                    "fractions must be strictly increasing".into(),
                ));
            }
        }
        if fractions[0] <= 0.0 || fractions.last().copied().unwrap_or(0.0) > 1.0 {
            return Err(TensorError::InvalidArgument(
                "fractions must lie in (0, 1]".into(),
            ));
        }
        let mut snapshots = Vec::with_capacity(fractions.len());
        for &f in fractions {
            let bounds: Vec<usize> = full
                .shape()
                .iter()
                .map(|&s| ((s as f64 * f).ceil() as usize).clamp(1, s))
                .collect();
            snapshots.push(full.restrict(&bounds)?);
        }
        Ok(StreamSequence {
            snapshots,
            fractions: fractions.to_vec(),
        })
    }

    /// Number of snapshots `T`.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` when the sequence holds no snapshots (cannot happen after a
    /// successful [`StreamSequence::cut`]).
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The snapshot at step `t`.
    pub fn snapshot(&self, t: usize) -> &SparseTensor {
        &self.snapshots[t]
    }

    /// The fraction that produced snapshot `t`.
    pub fn fraction(&self, t: usize) -> f64 {
        self.fractions[t]
    }

    /// Iterates snapshots in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &SparseTensor> {
        self.snapshots.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::uniform_tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn full_tensor() -> SparseTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        uniform_tensor(&[40, 30, 20], 3000, &mut rng).unwrap()
    }

    #[test]
    fn paper_schedule_is_six_steps() {
        let f = StreamSequence::paper_fractions();
        assert_eq!(f.len(), 6);
        assert_eq!(f[0], 0.75);
        assert_eq!(*f.last().unwrap(), 1.0);
    }

    #[test]
    fn snapshots_are_nested_subtensors() {
        let full = full_tensor();
        let seq = StreamSequence::cut(&full, &StreamSequence::paper_fractions()).unwrap();
        assert_eq!(seq.len(), 6);
        for t in 1..seq.len() {
            let prev = seq.snapshot(t - 1);
            let cur = seq.snapshot(t);
            // Shapes grow monotonically in every mode.
            for (a, b) in prev.shape().iter().zip(cur.shape()) {
                assert!(a <= b);
            }
            // Every previous entry exists unchanged in the current snapshot
            // (Def. 4: X^(T-1) ⊆ X^(T)).
            for (idx, v) in prev.iter() {
                let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
                assert_eq!(cur.get(&idx).unwrap(), v);
            }
        }
    }

    #[test]
    fn final_snapshot_is_the_full_tensor() {
        let full = full_tensor();
        let seq = StreamSequence::cut(&full, &[0.5, 1.0]).unwrap();
        assert_eq!(seq.snapshot(1).nnz(), full.nnz());
        assert_eq!(seq.snapshot(1).shape(), full.shape());
    }

    #[test]
    fn snapshots_grow_in_all_modes() {
        // The defining property of *multi-aspect* streaming (vs one-mode).
        let full = full_tensor();
        let seq = StreamSequence::cut(&full, &[0.75, 1.0]).unwrap();
        let s0 = seq.snapshot(0).shape().to_vec();
        let s1 = seq.snapshot(1).shape().to_vec();
        for k in 0..3 {
            assert!(s1[k] > s0[k], "mode {k} did not grow: {s0:?} -> {s1:?}");
        }
    }

    #[test]
    fn validation_errors() {
        let full = full_tensor();
        assert!(StreamSequence::cut(&full, &[]).is_err());
        assert!(StreamSequence::cut(&full, &[0.8, 0.8]).is_err());
        assert!(StreamSequence::cut(&full, &[0.9, 0.7]).is_err());
        assert!(StreamSequence::cut(&full, &[0.0, 1.0]).is_err());
        assert!(StreamSequence::cut(&full, &[0.5, 1.1]).is_err());
    }

    #[test]
    fn fraction_accessor_round_trips() {
        let full = full_tensor();
        let seq = StreamSequence::cut(&full, &[0.6, 0.8, 1.0]).unwrap();
        assert_eq!(seq.fraction(0), 0.6);
        assert_eq!(seq.fraction(2), 1.0);
        assert_eq!(seq.iter().count(), 3);
    }

    #[test]
    fn complement_between_steps_matches_manual_filter() {
        let full = full_tensor();
        let seq = StreamSequence::cut(&full, &[0.75, 1.0]).unwrap();
        let old_shape = seq.snapshot(0).shape().to_vec();
        let complement = seq.snapshot(1).complement(&old_shape).unwrap();
        // complement + previous == current (in nnz).
        assert_eq!(
            complement.nnz() + seq.snapshot(0).nnz(),
            seq.snapshot(1).nnz()
        );
        // No complement entry lies fully inside the old box.
        for (idx, _) in complement.iter() {
            assert_ne!(SparseTensor::block_of(idx, &old_shape), 0);
        }
    }
}
