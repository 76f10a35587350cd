//! Exact optimal partitioners — the NP-hard problem of Theorem 1.
//!
//! The paper reduces optimal load-balanced tensor partitioning to the
//! PARTITION problem; these solvers pay the exponential (or
//! pseudo-polynomial) price so tests and ablation benches can measure how
//! far GTP/MTP are from the true optimum on small inputs.  Never call these
//! on production-size histograms.

use crate::ModePartition;

/// Optimal **contiguous** partitioning: minimises the maximum partition load
/// over all ways of cutting the slice sequence into `num_parts` runs.
///
/// This is the restricted search space GTP operates in.  Dynamic program
/// over prefix sums, `O(I² · p)` time / `O(I · p)` space.
pub fn optimal_contiguous(slice_nnz: &[u64], num_parts: usize) -> ModePartition {
    let n = slice_nnz.len();
    if n == 0 {
        return ModePartition::from_assignment(num_parts.max(1), Vec::new());
    }
    let p = num_parts.clamp(1, n);
    // prefix[i] = sum of slices [0, i).
    let mut prefix = vec![0u64; n + 1];
    for (i, &v) in slice_nnz.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a]; // load of [a, b)

    // dp[k][i] = minimal max-load splitting the first i slices into k parts
    // (every part non-empty). cut[k][i] remembers the last boundary.
    let inf = u64::MAX;
    let mut dp = vec![vec![inf; n + 1]; p + 1];
    let mut cut = vec![vec![0usize; n + 1]; p + 1];
    dp[0][0] = 0;
    for k in 1..=p {
        for i in k..=n {
            // Last part covers [j, i); previous k-1 parts cover [0, j).
            for j in k - 1..i {
                if dp[k - 1][j] == inf {
                    continue;
                }
                let cand = dp[k - 1][j].max(seg(j, i));
                if cand < dp[k][i] {
                    dp[k][i] = cand;
                    cut[k][i] = j;
                }
            }
        }
    }
    // Reconstruct boundaries.
    let mut assignment = vec![0u32; n];
    let mut i = n;
    let mut k = p;
    while k > 0 {
        let j = cut[k][i];
        for a in assignment.iter_mut().take(i).skip(j) {
            *a = (k - 1) as u32; // lint:allow(narrowing_cast): a part id below `p`; this DP is O(p·n²) and only runs on toy sizes
        }
        i = j;
        k -= 1;
    }
    ModePartition::from_assignment(p, assignment)
}

/// Optimal **arbitrary-assignment** partitioning: minimises the maximum
/// partition load over *all* slice-to-partition maps — multiway number
/// partitioning, the exact problem of Theorem 1's reduction.
///
/// Branch-and-bound over slices in descending-load order with symmetry
/// breaking (a slice may open at most one new empty partition).  Exponential
/// in the worst case; intended for inputs of roughly ≤ 20 slices.
pub fn optimal_arbitrary(slice_nnz: &[u64], num_parts: usize) -> ModePartition {
    let n = slice_nnz.len();
    if n == 0 {
        return ModePartition::from_assignment(num_parts.max(1), Vec::new());
    }
    let p = num_parts.clamp(1, n);

    // Descending order accelerates pruning dramatically.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(slice_nnz[i]));

    // Seed the upper bound with MTP (always feasible).
    let seed = crate::mtp(slice_nnz, p);
    let mut best_assignment: Vec<u32> = seed.assignment().to_vec();
    let mut best_max = seed.loads(slice_nnz).iter().max().copied().unwrap_or(0);

    // Lower bound: ceil(total / p) and the largest single slice.
    let total: u64 = slice_nnz.iter().sum();
    let lower = total.div_ceil(p as u64).max(slice_nnz[order[0]]);
    if best_max == lower {
        return ModePartition::from_assignment(p, best_assignment);
    }

    let mut loads = vec![0u64; p];
    let mut assignment = vec![0u32; n];

    #[allow(clippy::too_many_arguments)]
    fn search(
        depth: usize,
        order: &[usize],
        slice_nnz: &[u64],
        loads: &mut [u64],
        assignment: &mut [u32],
        best_max: &mut u64,
        best_assignment: &mut [u32],
        lower: u64,
    ) {
        if *best_max == lower {
            return; // already optimal
        }
        if depth == order.len() {
            let cur = loads.iter().max().copied().unwrap_or(0);
            if cur < *best_max {
                *best_max = cur;
                best_assignment.copy_from_slice(assignment);
            }
            return;
        }
        let slice = order[depth];
        let w = slice_nnz[slice];
        let mut seen_empty = false;
        for part in 0..loads.len() {
            if loads[part] == 0 {
                // Symmetry breaking: trying one empty partition suffices.
                if seen_empty {
                    continue;
                }
                seen_empty = true;
            }
            if loads[part] + w >= *best_max {
                continue; // prune: cannot beat the incumbent
            }
            loads[part] += w;
            // lint:allow(narrowing_cast): a part id below `p`; the search is exponential and only runs on toy sizes
            assignment[slice] = part as u32;
            search(
                depth + 1,
                order,
                slice_nnz,
                loads,
                assignment,
                best_max,
                best_assignment,
                lower,
            );
            loads[part] -= w;
        }
    }

    search(
        0,
        &order,
        slice_nnz,
        &mut loads,
        &mut assignment,
        &mut best_max,
        &mut best_assignment,
        lower,
    );
    ModePartition::from_assignment(p, best_assignment)
}

/// Decides the classic two-way PARTITION problem exactly (the NP-complete
/// problem of Theorem 1): can `values` be split into two subsets of equal
/// sum?  Pseudo-polynomial subset-sum DP, `O(n · total/2)`.
///
/// Exposed so tests can tie the optimal-partitioning machinery back to the
/// decision problem in the paper's proof.
pub fn two_way_partition_exists(values: &[u64]) -> bool {
    let total: u64 = values.iter().sum();
    if !total.is_multiple_of(2) {
        return false;
    }
    let half = (total / 2) as usize;
    let mut reachable = vec![false; half + 1];
    reachable[0] = true;
    for &v in values {
        let v = v as usize;
        if v > half {
            continue;
        }
        for s in (v..=half).rev() {
            if reachable[s - v] {
                reachable[s] = true;
            }
        }
    }
    reachable[half]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_dp_known_answer() {
        // [1,2,3,4,5] into 2: best contiguous split is [1,2,3,4|5]? loads
        // 10/5 vs [1,2,3|4,5] = 6/9 vs [1,2,3,4|5] = 10/5... best max is 9?
        // Enumerate: cuts after i: (1,14) (3,12) (6,9) (10,5) → best max 9.
        let hist = [1u64, 2, 3, 4, 5];
        let mp = optimal_contiguous(&hist, 2);
        assert_eq!(mp.loads(&hist).into_iter().max().unwrap(), 9);
        assert!(mp.is_contiguous());
    }

    #[test]
    fn contiguous_dp_three_parts() {
        let hist = [2u64, 2, 2, 2, 2, 2];
        let mp = optimal_contiguous(&hist, 3);
        assert_eq!(mp.loads(&hist), vec![4, 4, 4]);
    }

    #[test]
    fn contiguous_handles_degenerate() {
        assert_eq!(optimal_contiguous(&[], 3).num_slices(), 0);
        let mp = optimal_contiguous(&[5], 4);
        assert_eq!(mp.num_parts(), 1);
    }

    #[test]
    fn arbitrary_finds_perfect_split() {
        // {8,7,6,5,4} total 30, p=2 → perfect 15/15 exists (8+7 / 6+5+4).
        let hist = [8u64, 7, 6, 5, 4];
        let mp = optimal_arbitrary(&hist, 2);
        let mut loads = mp.loads(&hist);
        loads.sort_unstable();
        assert_eq!(loads, vec![15, 15]);
    }

    #[test]
    fn arbitrary_beats_lpt_counterexample() {
        // Classic instance where LPT (=MTP) is suboptimal:
        // {3,3,2,2,2} into 2 parts: LPT gives 7/5, optimal is 6/6.
        let hist = [3u64, 3, 2, 2, 2];
        let m = crate::mtp(&hist, 2);
        let mtp_max = m.loads(&hist).into_iter().max().unwrap();
        assert_eq!(mtp_max, 7);
        let opt = optimal_arbitrary(&hist, 2);
        let opt_max = opt.loads(&hist).into_iter().max().unwrap();
        assert_eq!(opt_max, 6);
    }

    #[test]
    fn arbitrary_three_parts() {
        let hist = [9u64, 8, 7, 6, 5, 4, 3];
        let mp = optimal_arbitrary(&hist, 3);
        // total 42 → perfect 14 per part exists: {9,5} {8,6} {7,4,3}.
        assert_eq!(mp.loads(&hist).into_iter().max().unwrap(), 14);
    }

    #[test]
    fn two_way_partition_decision() {
        assert!(two_way_partition_exists(&[1, 5, 11, 5])); // {11} vs {1,5,5}
        assert!(!two_way_partition_exists(&[1, 2, 3, 5])); // total 11, odd
        assert!(!two_way_partition_exists(&[2, 2, 5])); // total 9
        assert!(two_way_partition_exists(&[])); // empty splits trivially
        assert!(two_way_partition_exists(&[3, 3]));
    }

    #[test]
    fn theorem1_reduction_consistency() {
        // If PARTITION says "yes", the optimal 2-way max load must equal
        // total/2, and vice versa — the equivalence in the proof of Thm 1.
        let instances: Vec<Vec<u64>> = vec![
            vec![1, 5, 11, 5],
            vec![3, 1, 1, 2, 2, 1],
            vec![7, 3, 2, 1],
            vec![10, 9, 1, 2],
        ];
        for inst in instances {
            let total: u64 = inst.iter().sum();
            let opt = optimal_arbitrary(&inst, 2);
            let max = opt.loads(&inst).into_iter().max().unwrap();
            let perfectly_split = total.is_multiple_of(2) && max == total / 2;
            assert_eq!(
                perfectly_split,
                two_way_partition_exists(&inst),
                "instance {inst:?}"
            );
        }
    }
}
