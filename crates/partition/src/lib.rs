//! # dismastd-partition
//!
//! Load-balancing tensor partitioners for DisMASTD (Sec. IV-A).
//!
//! The paper proves optimal load-balanced tensor partitioning NP-hard
//! (Theorem 1, reduction from PARTITION) and proposes two heuristics that
//! split every mode into `p_n` slice groups:
//!
//! * **GTP** ([`gtp::gtp`], Alg. 2) — greedy scan in slice order, cutting
//!   when the running nnz reaches the target `nnz/p_n`;
//! * **MTP** ([`mtp::mtp`], Alg. 3) — max-min fit: largest remaining slice
//!   goes to the currently lightest partition.
//!
//! [`optimal`] holds exact (exponential / pseudo-polynomial) solvers for the
//! same problem, usable on small inputs to quantify the heuristics' gap, and
//! [`grid`] assembles per-mode partitions into the medium-grain N-dimensional
//! grid the distributed runtime executes on (Fig. 3 / Fig. 4).

pub mod grid;
pub mod gtp;
pub mod mtp;
pub mod optimal;
pub mod stats;

pub use grid::{CellAssignment, GridPartition};
pub use gtp::gtp;
pub use mtp::mtp;
pub use optimal::{optimal_arbitrary, optimal_contiguous};
pub use stats::BalanceStats;

use serde::{Deserialize, Serialize};

/// Which heuristic partitioner to run — the GTP/MTP toggle that names the
/// paper's method variants (DisMASTD-GTP vs DisMASTD-MTP, Sec. V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Partitioner {
    /// Greedy Tensor Partitioning (Alg. 2).
    Gtp,
    /// Max-min fit Tensor Partitioning (Alg. 3).
    Mtp,
}

impl Partitioner {
    /// Runs the selected heuristic on a slice-nnz histogram.
    pub fn partition(self, slice_nnz: &[u64], num_parts: usize) -> ModePartition {
        match self {
            Partitioner::Gtp => gtp(slice_nnz, num_parts),
            Partitioner::Mtp => mtp(slice_nnz, num_parts),
        }
    }

    /// Short name used in experiment output ("GTP" / "MTP").
    pub fn name(self) -> &'static str {
        match self {
            Partitioner::Gtp => "GTP",
            Partitioner::Mtp => "MTP",
        }
    }
}

/// The partitioning of one tensor mode: a map from slice index to partition
/// id (`P_p^(n)` of Algorithms 2-3, stored inverted for O(1) lookup).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModePartition {
    num_parts: usize,
    /// `assignment[slice] = partition id`.
    assignment: Vec<u32>,
}

impl ModePartition {
    /// Builds a partition from an explicit assignment vector.
    ///
    /// # Panics
    /// Panics if any id is `>= num_parts` (programming error in a
    /// partitioner, not user input).
    pub fn from_assignment(num_parts: usize, assignment: Vec<u32>) -> Self {
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_parts),
            "partition id out of range"
        );
        ModePartition {
            num_parts,
            assignment,
        }
    }

    /// Puts every slice in partition 0 (the trivial 1-way partition).
    pub fn trivial(num_slices: usize) -> Self {
        ModePartition {
            num_parts: 1,
            assignment: vec![0; num_slices],
        }
    }

    /// Number of partitions `p_n`.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of slices `I_n`.
    pub fn num_slices(&self) -> usize {
        self.assignment.len()
    }

    /// Partition id of a slice.
    #[inline]
    pub fn part_of(&self, slice: usize) -> usize {
        self.assignment[slice] as usize
    }

    /// The raw slice→partition map.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Total nnz landing in each partition, given the slice histogram.
    pub fn loads(&self, slice_nnz: &[u64]) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_parts];
        for (slice, &part) in self.assignment.iter().enumerate() {
            loads[part as usize] += slice_nnz[slice];
        }
        loads
    }

    /// `true` when every partition occupies a contiguous slice range (always
    /// true for GTP output, generally false for MTP output).
    pub fn is_contiguous(&self) -> bool {
        let mut last_slice: Vec<Option<usize>> = vec![None; self.num_parts];
        for (slice, &part) in self.assignment.iter().enumerate() {
            let p = part as usize;
            if let Some(last) = last_slice[p] {
                if slice != last + 1 {
                    return false;
                }
            }
            last_slice[p] = Some(slice);
        }
        true
    }

    /// Balance statistics of the partition loads.
    pub fn balance(&self, slice_nnz: &[u64]) -> BalanceStats {
        BalanceStats::from_loads(&self.loads(slice_nnz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_partition() {
        let p = ModePartition::trivial(4);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(p.num_slices(), 4);
        assert!((0..4).all(|s| p.part_of(s) == 0));
        assert_eq!(p.loads(&[1, 2, 3, 4]), vec![10]);
        assert!(p.is_contiguous());
    }

    #[test]
    #[should_panic(expected = "partition id out of range")]
    fn from_assignment_validates() {
        ModePartition::from_assignment(2, vec![0, 2]);
    }

    #[test]
    fn loads_and_groups() {
        let p = ModePartition::from_assignment(2, vec![0, 1, 0, 1]);
        assert_eq!(p.loads(&[5, 1, 2, 3]), vec![7, 4]);
        assert_eq!(p.assignment(), &[0, 1, 0, 1]);
    }

    #[test]
    fn contiguity_detection() {
        assert!(ModePartition::from_assignment(2, vec![0, 0, 1, 1]).is_contiguous());
        assert!(!ModePartition::from_assignment(2, vec![0, 1, 0, 1]).is_contiguous());
        assert!(ModePartition::from_assignment(3, vec![0, 1, 1, 2]).is_contiguous());
        assert!(!ModePartition::from_assignment(2, vec![1, 0, 1, 1]).is_contiguous());
    }

    #[test]
    fn partitioner_enum_dispatch() {
        let hist = [3u64, 3, 3, 3];
        for p in [Partitioner::Gtp, Partitioner::Mtp] {
            let mp = p.partition(&hist, 2);
            assert_eq!(mp.num_parts(), 2);
            assert_eq!(mp.num_slices(), 4);
            assert!(!p.name().is_empty());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn hist_strategy() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..50, 1..40)
    }

    proptest! {
        #[test]
        fn gtp_assigns_every_slice(hist in hist_strategy(), p in 1usize..8) {
            let mp = gtp(&hist, p);
            prop_assert_eq!(mp.num_slices(), hist.len());
            // Conservation: total load preserved.
            let total: u64 = hist.iter().sum();
            prop_assert_eq!(mp.loads(&hist).iter().sum::<u64>(), total);
            // GTP partitions are contiguous by construction.
            prop_assert!(mp.is_contiguous());
        }

        #[test]
        fn mtp_assigns_every_slice(hist in hist_strategy(), p in 1usize..8) {
            let mp = mtp(&hist, p);
            prop_assert_eq!(mp.num_slices(), hist.len());
            let total: u64 = hist.iter().sum();
            prop_assert_eq!(mp.loads(&hist).iter().sum::<u64>(), total);
        }

        #[test]
        fn mtp_max_load_bounded(hist in hist_strategy(), p in 1usize..8) {
            // Classic LPT-style bound: max load ≤ mean + max element.
            let mp = mtp(&hist, p);
            let loads = mp.loads(&hist);
            let total: u64 = hist.iter().sum();
            let maxel = hist.iter().copied().max().unwrap_or(0);
            let parts = mp.num_parts() as u64;
            let bound = total / parts + maxel + 1;
            prop_assert!(loads.iter().all(|&l| l <= bound));
        }

        #[test]
        fn optimal_contiguous_beats_gtp(
            hist in prop::collection::vec(0u64..30, 1..15),
            p in 1usize..5,
        ) {
            let opt = optimal_contiguous(&hist, p);
            let g = gtp(&hist, p);
            let opt_max = opt.loads(&hist).into_iter().max().unwrap_or(0);
            let gtp_max = g.loads(&hist).into_iter().max().unwrap_or(0);
            prop_assert!(opt_max <= gtp_max);
        }

        #[test]
        fn optimal_arbitrary_beats_mtp(
            hist in prop::collection::vec(0u64..30, 1..10),
            p in 1usize..4,
        ) {
            let opt = optimal_arbitrary(&hist, p);
            let m = mtp(&hist, p);
            let opt_max = opt.loads(&hist).into_iter().max().unwrap_or(0);
            let mtp_max = m.loads(&hist).into_iter().max().unwrap_or(0);
            prop_assert!(opt_max <= mtp_max);
        }

        #[test]
        fn optimal_arbitrary_beats_contiguous(
            hist in prop::collection::vec(0u64..30, 1..10),
            p in 1usize..4,
        ) {
            // Arbitrary assignment is a superset of contiguous assignment.
            let arb = optimal_arbitrary(&hist, p);
            let cont = optimal_contiguous(&hist, p);
            let arb_max = arb.loads(&hist).into_iter().max().unwrap_or(0);
            let cont_max = cont.loads(&hist).into_iter().max().unwrap_or(0);
            prop_assert!(arb_max <= cont_max);
        }
    }
}
