//! Multi-aspect streaming tensor sequences (Def. 4, Sec. V-B1).
//!
//! A multi-aspect streaming sequence is a chain of snapshot tensors
//! `X^(1) ⊆ X^(2) ⊆ …` where *every mode* may grow between snapshots
//! (Fig. 1, right).  The paper's Fig. 5 experiment builds the sequence by
//! growing a full dataset "from 75% to 100% of the whole dataset by 5% at
//! each time step"; [`StreamSequence`] reproduces exactly that protocol:
//! snapshot `t` holds the entries of the full tensor inside the box
//! `⌈frac_t · I_n⌉` per mode.
//!
//! The sequence stores each nonzero once.  Its entries are sorted by
//! (arrival step, index tuple) — an entry arrives at the first snapshot
//! whose box holds it — and snapshot `t` is the prefix of steps `0..=t`
//! of that one buffer ([`SparseTensor::nested_prefixes`]).  Snapshot `0`
//! and every complement `snapshot(t).complement(snapshot(t − 1).shape())`
//! are therefore, entry for entry and in order, what a `restrict` of the
//! full tensor per fraction gives (lexicographic, for a built tensor); a
//! whole snapshot `t > 0` holds the same entries in arrival order, so a
//! sum over it (`‖X‖²`, `⟨X, Y⟩`) adds them in that order.
//!
//! That complement is also the store's entries between snapshot `t − 1`'s
//! prefix and snapshot `t`'s ([`SparseTensor::since`]).  A
//! `StreamingSession` fed these snapshots in order reads each warm step's
//! arrivals from there, without scanning the prefix: validation and the
//! complement cost what arrived, and `‖X‖²` is carried forward and folded
//! on over the arrivals, in the stored order a whole-snapshot sum takes.

use dismastd_tensor::{Result, SparseTensor, TensorError};

/// A materialised multi-aspect streaming snapshot sequence: one
/// arrival-ordered store, one prefix view per snapshot.
#[derive(Debug, Clone)]
pub struct StreamSequence {
    snapshots: Vec<SparseTensor>,
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
        let boxes: Vec<Vec<usize>> = fractions.iter().map(|&f| bounds(full, f)).collect();
        Ok(StreamSequence {
            snapshots: full.nested_prefixes(&boxes)?,
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

    /// Iterates snapshots in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &SparseTensor> {
        self.snapshots.iter()
    }
}

/// The box of the snapshot at fraction `f`: `⌈f · I_n⌉` per mode, at
/// least 1.
fn bounds(full: &SparseTensor, f: f64) -> Vec<usize> {
    full.shape()
        .iter()
        .map(|&s| ((s as f64 * f).ceil() as usize).clamp(1, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::uniform_tensor;
    use dismastd_tensor::SparseTensorBuilder;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The cut a stream made before it shared one store: one `restrict`
    /// copy of the full tensor per fraction.
    fn restrict_cut(full: &SparseTensor, fractions: &[f64]) -> Vec<SparseTensor> {
        fractions
            .iter()
            .map(|&f| full.restrict(&bounds(full, f)).unwrap())
            .collect()
    }

    /// `(index tuple, value bits)` of every entry, sorted.
    fn entry_set(t: &SparseTensor) -> Vec<(Vec<u32>, u64)> {
        let mut set: Vec<_> = t.iter().map(|(i, v)| (i.to_vec(), v.to_bits())).collect();
        set.sort_unstable();
        set
    }

    /// Entries in stored order, values as bits.
    fn entry_list(t: &SparseTensor) -> Vec<(Vec<u32>, u64)> {
        t.iter().map(|(i, v)| (i.to_vec(), v.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn the_shared_cut_holds_what_a_restrict_per_fraction_holds(
            (shape, raw) in (1usize..5).prop_flat_map(|order| (
                prop::collection::vec(1usize..9, order),
                prop::collection::vec(
                    (prop::collection::vec(0usize..64, order), -4.0f64..4.0),
                    0..80,
                ),
            )),
            // Thousandths: below 1/8 every mode of at most 8 clamps to 1,
            // and the last fraction is often below 1.
            thousandths in prop::collection::btree_set(1u32..1001, 1..7),
        ) {
            let mut b = SparseTensorBuilder::new(shape.clone());
            for (idx, v) in &raw {
                let idx: Vec<usize> = idx.iter().zip(&shape).map(|(&i, &s)| i % s).collect();
                b.push(&idx, *v).unwrap();
            }
            let full = b.build().unwrap();
            let fractions: Vec<f64> = thousandths.iter().map(|&k| f64::from(k) / 1000.0).collect();
            let seq = StreamSequence::cut(&full, &fractions).unwrap();
            let oracle = restrict_cut(&full, &fractions);
            prop_assert_eq!(seq.len(), oracle.len());
            let boxes: Vec<&[usize]> = oracle.iter().map(|o| o.shape()).collect();
            for (t, (snap, want)) in seq.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(snap.shape(), want.shape());
                prop_assert_eq!(entry_set(snap), entry_set(want));
                if t == 0 {
                    prop_assert_eq!(entry_list(snap), entry_list(want));
                } else {
                    let old = seq.snapshot(t - 1).shape();
                    prop_assert_eq!(
                        entry_list(&snap.complement(old).unwrap()),
                        entry_list(&want.complement(old).unwrap())
                    );
                }
                // (arrival step, tuple) order: strictly increasing.
                let arrival = |idx: &[u32]| {
                    boxes.iter().position(|b| idx.iter().zip(*b).all(|(&i, &s)| (i as usize) < s))
                };
                let keys: Vec<_> = snap.iter().map(|(idx, _)| (arrival(idx), idx.to_vec())).collect();
                prop_assert!(keys.iter().all(|(step, _)| step.is_some_and(|s| s <= t)));
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
            }
        }
    }

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
        // Fraction 1.0 cuts the whole tensor.
        assert_eq!(seq.snapshot(2).shape(), full.shape());
        assert_eq!(seq.snapshot(2).nnz(), full.nnz());
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
