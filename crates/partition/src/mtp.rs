//! Max-min fit Tensor Partitioning — Algorithm 3 of the paper.

use crate::ModePartition;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Max-min fit Tensor Partitioning (MTP, Alg. 3) over one mode.
///
/// Sorts the slices by nnz in **descending** order (line 3) and repeatedly
/// assigns the heaviest remaining slice to the partition with the smallest
/// current nnz (lines 5-7) — the classic LPT / max-min fit heuristic, which
/// is what makes MTP robust to skewed nonzero distributions (Table IV).
///
/// The partition chosen among equally light ones is the lowest-numbered one,
/// and ties between equally heavy slices are broken by slice index, so the
/// output is fully deterministic.
///
/// Degenerate inputs follow [`crate::gtp::gtp`]: `num_parts == 0` acts as 1
/// and `num_parts` is capped at the slice count.
///
/// ```
/// use dismastd_partition::mtp;
/// // A skewed histogram: the heavy slice gets its own partition.
/// let slice_nnz = [9u64, 1, 1, 1, 1, 1, 1, 1, 1, 1];
/// let partition = mtp(&slice_nnz, 2);
/// let mut loads = partition.loads(&slice_nnz);
/// loads.sort_unstable();
/// assert_eq!(loads, vec![9, 9]);
/// ```
pub fn mtp(slice_nnz: &[u64], num_parts: usize) -> ModePartition {
    let n_slices = slice_nnz.len();
    if n_slices == 0 {
        return ModePartition::from_assignment(num_parts.max(1), Vec::new());
    }
    let p = num_parts.clamp(1, n_slices);

    // Line 3: slice order by descending nnz, ties by ascending index.
    let mut order: Vec<usize> = (0..n_slices).collect();
    order.sort_unstable_by_key(|&i| (Reverse(slice_nnz[i]), i));

    // Min-heap over (load, partition id): pop = currently lightest partition.
    // lint:allow(narrowing_cast): the part count — `p <= slice_nnz.len()`; modes past u32 are refused upstream (`run_distributed`)
    let ids = 0..p as u32;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = ids.map(|id| Reverse((0u64, id))).collect();

    let mut assignment = vec![0u32; n_slices];
    for slice in order {
        // The heap holds one entry per partition and every pop is
        // re-pushed, so it can never be empty here (panic-free audit).
        let Reverse((load, id)) = heap.pop().unwrap_or(Reverse((0, 0)));
        assignment[slice] = id;
        heap.push(Reverse((load + slice_nnz[slice], id)));
    }
    ModePartition::from_assignment(p, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balances_classic_lpt_example() {
        // Slices 7,6,5,4,3,2 into 3 partitions: LPT gives loads 9,9,9.
        let hist = [7u64, 6, 5, 4, 3, 2];
        let mp = mtp(&hist, 3);
        let mut loads = mp.loads(&hist);
        loads.sort_unstable();
        assert_eq!(loads, vec![9, 9, 9]);
    }

    #[test]
    fn heaviest_slices_go_to_distinct_partitions() {
        let hist = [100u64, 90, 80, 1, 1, 1];
        let mp = mtp(&hist, 3);
        let p0 = mp.part_of(0);
        let p1 = mp.part_of(1);
        let p2 = mp.part_of(2);
        assert_ne!(p0, p1);
        assert_ne!(p1, p2);
        assert_ne!(p0, p2);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let hist = [5u64, 5, 5, 5];
        let a = mtp(&hist, 2);
        let b = mtp(&hist, 2);
        assert_eq!(a, b);
        let mut loads = a.loads(&hist);
        loads.sort_unstable();
        assert_eq!(loads, vec![10, 10]);
    }

    #[test]
    fn handles_degenerate_inputs() {
        assert_eq!(mtp(&[], 4).num_slices(), 0);
        assert_eq!(mtp(&[3, 4], 0).num_parts(), 1);
        let mp = mtp(&[9, 9], 7);
        assert_eq!(mp.num_parts(), 2);
    }

    #[test]
    fn zero_heavy_mixture() {
        let hist = [0u64, 10, 0, 10, 0];
        let mp = mtp(&hist, 2);
        let mut loads = mp.loads(&hist);
        loads.sort_unstable();
        assert_eq!(loads, vec![10, 10]);
    }

    #[test]
    fn skewed_better_than_gtp() {
        // Zipf-ish histogram: the Table IV contrast.
        let hist: Vec<u64> = (1..=50).map(|i| 1000 / i as u64).collect();
        for p in [4usize, 8, 15] {
            let m = mtp(&hist, p).balance(&hist);
            let g = crate::gtp(&hist, p).balance(&hist);
            assert!(
                m.std_dev <= g.std_dev,
                "p={p}: MTP {} vs GTP {}",
                m.std_dev,
                g.std_dev
            );
        }
    }

    #[test]
    fn uniform_close_to_gtp() {
        // On uniform data both heuristics are near-optimal (Table IV,
        // Synthetic row).
        let hist = vec![10u64; 100];
        let m = mtp(&hist, 8).balance(&hist);
        let g = crate::gtp(&hist, 8).balance(&hist);
        // One slice of wiggle room per partition on each side.
        assert!((m.std_dev - g.std_dev).abs() <= 15.0);
        assert!(m.cv < 0.05);
    }

    #[test]
    fn output_is_generally_non_contiguous() {
        let hist = [10u64, 1, 10, 1];
        let mp = mtp(&hist, 2);
        // Heavy slices 0 and 2 land in different partitions, so each
        // partition mixes non-adjacent slices.
        assert_ne!(mp.part_of(0), mp.part_of(2));
    }
}
