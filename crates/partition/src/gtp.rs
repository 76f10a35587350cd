//! Greedy Tensor Partitioning — Algorithm 2 of the paper.

use crate::ModePartition;

/// Greedy Tensor Partitioning (GTP, Alg. 2) over one mode.
///
/// `slice_nnz` is the per-slice nonzero histogram `a_i^(n)`; `num_parts` is
/// `p_n`.  Slices are scanned **in index order** and greedily accumulated
/// until the running sum reaches the target `ω = nnz / p_n`.  When adding a
/// heavy slice overshoots the target, the boundary is placed on whichever
/// side of that slice balances better (lines 10-12); once `p_n - 1`
/// partitions are sealed, all remaining slices go to the last partition
/// (lines 16-17).
///
/// One deliberate fix to the published pseudo-code: when the comparison at
/// line 11 *excludes* slice `i` from the current partition, the pseudo-code
/// as printed resets `P ← ∅` and drops the slice; we instead start the next
/// partition with slice `i`, which is the only reading under which every
/// slice is assigned (an invariant the rest of the paper depends on).
///
/// Degenerate inputs are handled conservatively: `num_parts == 0` is treated
/// as 1, and requesting more partitions than slices caps `p_n` at the slice
/// count (trailing partitions would be structurally empty otherwise).  An
/// all-zero histogram (`total == 0`, e.g. an empty grid cell) would make the
/// target `ω = 0`, sending every slice down the overshoot branch so the
/// first `p_n - 1` partitions each seal a single slice and the last one
/// takes everything else; instead it is special-cased to an even contiguous
/// index split, which keeps all `p_n` partitions structurally non-empty.
///
/// ```
/// use dismastd_partition::gtp;
/// let slice_nnz = [5u64, 5, 5, 5, 5, 5];
/// let partition = gtp(&slice_nnz, 3);
/// assert_eq!(partition.loads(&slice_nnz), vec![10, 10, 10]);
/// ```
pub fn gtp(slice_nnz: &[u64], num_parts: usize) -> ModePartition {
    let n_slices = slice_nnz.len();
    if n_slices == 0 {
        return ModePartition::from_assignment(num_parts.max(1), Vec::new());
    }
    let p = num_parts.clamp(1, n_slices);
    let total: u64 = slice_nnz.iter().sum();
    if total == 0 {
        // All-zero histogram: loads are 0 whatever we do, so balance the
        // *slice counts* with an even contiguous split (every partition
        // non-empty since p <= n_slices) instead of degenerating into
        // singleton partitions via the overshoot branch.
        // lint:allow(narrowing_cast): a part id — below `p <= slice_nnz.len()`; modes past u32 are refused upstream (`run_distributed`)
        let assignment = (0..n_slices).map(|i| ((i * p) / n_slices) as u32).collect();
        return ModePartition::from_assignment(p, assignment);
    }
    // ω = nnz / p_n (line 2). Real-valued to avoid a systematic floor bias.
    let target = total as f64 / p as f64;

    let mut assignment = vec![0u32; n_slices];
    // Part ids are `count < p <= slice_nnz.len()`; modes past u32 are refused upstream (`run_distributed`).
    let mut count: usize = 0; // sealed partitions so far
    let mut sum: u64 = 0; // running nnz of the open partition (line 5)

    let mut i = 0usize;
    while i < n_slices {
        if count == p - 1 {
            // Lines 16-17: only the last partition remains — take the rest.
            for a in assignment.iter_mut().take(n_slices).skip(i) {
                *a = count as u32; // lint:allow(narrowing_cast): part id, see `count`
            }
            break;
        }
        sum += slice_nnz[i];
        if (sum as f64) < target {
            // Line 9: slice joins the open partition.
            assignment[i] = count as u32; // lint:allow(narrowing_cast): part id, see `count`
            i += 1;
            continue;
        }
        // Lines 10-12: overshoot — compare balance with vs without slice i.
        let with_i = sum as f64 - target; // ≥ 0
        let without_i = target - (sum - slice_nnz[i]) as f64; // ≥ 0
        if without_i <= with_i && sum != slice_nnz[i] {
            // Better without slice i (and the partition is non-empty):
            // seal it, slice i opens the next partition.
            count += 1;
            assignment[i] = count as u32; // lint:allow(narrowing_cast): part id, see `count`
            sum = slice_nnz[i];
            i += 1;
        } else {
            // Better with slice i: include it and seal.
            assignment[i] = count as u32; // lint:allow(narrowing_cast): part id, see `count`
            count += 1;
            sum = 0;
            i += 1;
        }
    }
    ModePartition::from_assignment(p, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_slices_split_evenly() {
        let hist = vec![5u64; 8];
        let mp = gtp(&hist, 4);
        assert_eq!(mp.loads(&hist), vec![10, 10, 10, 10]);
        assert!(mp.is_contiguous());
    }

    #[test]
    fn single_partition_takes_everything() {
        let hist = [3u64, 1, 4, 1, 5];
        let mp = gtp(&hist, 1);
        assert_eq!(mp.loads(&hist), vec![14]);
    }

    #[test]
    fn zero_parts_treated_as_one() {
        let hist = [1u64, 2];
        let mp = gtp(&hist, 0);
        assert_eq!(mp.num_parts(), 1);
    }

    #[test]
    fn more_parts_than_slices_caps_at_slices() {
        let hist = [7u64, 7];
        let mp = gtp(&hist, 5);
        assert_eq!(mp.num_parts(), 2);
        assert_eq!(mp.loads(&hist), vec![7, 7]);
    }

    #[test]
    fn empty_histogram() {
        let mp = gtp(&[], 3);
        assert_eq!(mp.num_slices(), 0);
    }

    #[test]
    fn boundary_backoff_excludes_heavy_slice() {
        // target = 12/2 = 6. Scanning: 1+2=3 < 6; +10 = 13 ≥ 6.
        // without slice 2: |3-6| = 3; with: |13-6| = 7 → exclude, so
        // partition 0 = {0,1}, partition 1 = {2}... wait hist has 3 slices
        // but then count==p-1 applies. Use 4 slices to exercise both paths.
        let hist = [1u64, 2, 10, 3];
        let mp = gtp(&hist, 2);
        // Partition 0 should be {0,1} (backoff), the rest go to partition 1.
        assert_eq!(mp.assignment(), &[0, 0, 1, 1]);
        assert_eq!(mp.loads(&hist), vec![3, 13]);
    }

    #[test]
    fn boundary_includes_slice_when_better() {
        // target = 12/2 = 6. 5+2=7 ≥ 6: with = 1, without = |5-6| = 1 →
        // tie, "≤" favours excluding... check: without_i(1) <= with_i(1), so
        // slice 1 starts partition 1.
        let hist = [5u64, 2, 5];
        let mp = gtp(&hist, 2);
        assert_eq!(mp.assignment(), &[0, 1, 1]);

        // Now make inclusion strictly better: target 14/2 = 7; 5+3=8:
        // with = 1, without = 2 → include slice 1 in partition 0.
        let hist2 = [5u64, 3, 6];
        let mp2 = gtp(&hist2, 2);
        assert_eq!(mp2.assignment(), &[0, 0, 1]);
        assert_eq!(mp2.loads(&hist2), vec![8, 6]);
    }

    #[test]
    fn giant_first_slice_does_not_leave_empty_partition() {
        // First slice alone overshoots; "without" would create an empty
        // partition, which the `sum != slice_nnz[i]` guard prevents.
        let hist = [100u64, 1, 1, 1];
        let mp = gtp(&hist, 2);
        assert_eq!(mp.assignment()[0], 0);
        // Every slice is assigned to one of the two partitions.
        assert!(mp.assignment().iter().all(|&p| p < 2));
        let loads = mp.loads(&hist);
        assert_eq!(loads.iter().sum::<u64>(), 103);
        assert!(loads.iter().all(|&l| l > 0));
    }

    #[test]
    fn skewed_distribution_imbalance_exceeds_mtp() {
        // The Table IV phenomenon: on a skewed histogram GTP's std-dev is
        // noticeably worse than MTP's.
        let hist: Vec<u64> = (1..=50).map(|i| 1000 / i as u64).collect();
        let g = gtp(&hist, 4).balance(&hist);
        let m = crate::mtp(&hist, 4).balance(&hist);
        assert!(
            m.std_dev < g.std_dev,
            "expected MTP ({}) < GTP ({}) on skewed data",
            m.std_dev,
            g.std_dev
        );
    }

    #[test]
    fn all_zero_slices() {
        let hist = [0u64; 6];
        let mp = gtp(&hist, 3);
        assert_eq!(mp.num_slices(), 6);
        assert_eq!(mp.loads(&hist), vec![0, 0, 0]);
        // The even-split special case: contiguous, two slices per partition,
        // not the degenerate [{0}, {1}, {2,3,4,5}] the greedy loop produced.
        assert!(mp.is_contiguous());
        assert_eq!(mp.assignment(), &[0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn all_zero_slices_uneven_division() {
        // 7 slices over 3 partitions: every partition stays non-empty and
        // sizes differ by at most one.
        let hist = [0u64; 7];
        let mp = gtp(&hist, 3);
        assert!(mp.is_contiguous());
        let mut sizes = [0usize; 3];
        for &a in mp.assignment() {
            sizes[a as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0));
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn two_slices_two_parts() {
        let hist = [9u64, 1];
        let mp = gtp(&hist, 2);
        assert_eq!(mp.assignment(), &[0, 1]);
    }
}
