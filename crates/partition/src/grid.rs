//! Medium-grain N-dimensional grid partitioning (Sec. IV-A2/IV-A3, Fig. 3-4).
//!
//! Per-mode slice partitions (from GTP or MTP) induce an N-dimensional grid
//! of cells over the tensor; every nonzero falls in exactly one cell.  Cells
//! are mapped onto workers by one of two strategies:
//!
//! * [`CellAssignment::BlockGrid`] (default) — the medium-grain layout of
//!   the paper (and of SPLATT's DMS-MG): the `M` workers form an
//!   `m_1 × … × m_N` grid with `Π m_n = M` (or the largest divisor of `M`
//!   the partition counts admit), and cell `(c_1, …, c_N)` goes to
//!   worker `(⌊c_1 m_1 / p_1⌋, …)`.  Each worker's cells then reference only
//!   `I_n / m_n` factor rows per mode, which is what keeps the row-exchange
//!   volume sub-linear in `M`.  The grid's shape follows the tensor's: the
//!   `m_n` minimise the rows a dense tensor would route (see
//!   `worker_grid_dims`), so a long mode is split rather than replicated.
//! * [`CellAssignment::Scatter`] — max-min fit of cells onto workers by
//!   nnz, ignoring locality.  Best-possible load balance, worst-case
//!   communication; kept as an ablation of the locality/balance trade-off.
//!
//! Factor-matrix rows follow the tensor rows (Sec. IV-A3's row-wise factor
//! assignment, at the grain of a row): a row is owned by the worker holding
//! the most nonzeros *of that row*, ties to the lower rank, and a row no
//! nonzero references goes round-robin (`row % M`).  Every referenced row
//! therefore lives on a worker that reads it, so the rows one mode-iteration
//! routes are `Σ_rows (referencing workers − 1)` — the fewest the cell→worker
//! map admits — and unreferenced rows spread evenly.

use crate::{ModePartition, Partitioner};
use dismastd_tensor::{Result, SparseTensor, TensorError};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Strategy for mapping grid cells onto workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellAssignment {
    /// Locality-preserving medium-grain worker grid (the paper's layout).
    BlockGrid,
    /// Locality-blind max-min fit by cell nnz (ablation).
    Scatter,
}

/// A complete data-placement plan: per-mode partitions, the cell→worker map,
/// and per-mode factor-row ownership.
///
/// Deserialisation is checked (`TryFrom<&serde::Value>`, which
/// `Deserialize` goes through): the tables are indexed without further
/// checks afterwards.
#[derive(Debug, Clone, Serialize)]
pub struct GridPartition {
    mode_partitions: Vec<ModePartition>,
    num_workers: usize,
    /// Dense cell→worker map; cell id = Σ_k coord_k · stride_k.
    cell_workers: Vec<u32>,
    strides: Vec<usize>,
    /// `row_owners[mode][row] = worker` owning that factor row.
    row_owners: Vec<Vec<u32>>,
}

/// [`GridPartition`] as it arrives from outside the program; the strides
/// are recomputed, not read.
#[derive(Deserialize)]
struct UncheckedGrid {
    mode_partitions: Vec<ModePartition>,
    num_workers: usize,
    cell_workers: Vec<u32>,
    row_owners: Vec<Vec<u32>>,
}

/// The checked way in for bytes from outside the program: refuses a plan
/// without workers, a partition id outside its mode's partition count, a
/// cell table that is not one worker per grid cell, an ownership table that
/// is not one owner per slice of every mode, and a worker id
/// `≥ num_workers` in either.
impl TryFrom<&serde::Value> for GridPartition {
    type Error = TensorError;

    fn try_from(v: &serde::Value) -> Result<Self> {
        let bad = |what: String| TensorError::InvalidArgument(format!("GridPartition: {what}"));
        let UncheckedGrid {
            mode_partitions,
            num_workers,
            cell_workers,
            row_owners,
        } = UncheckedGrid::from_value(v).map_err(|e| bad(e.to_string()))?;
        if num_workers == 0 {
            return Err(bad("num_workers must be >= 1".into()));
        }
        for (mode, mp) in mode_partitions.iter().enumerate() {
            let parts = mp.num_parts();
            if mp.assignment().iter().any(|&p| p as usize >= parts) {
                return Err(bad(format!("mode {mode}: partition id out of range")));
            }
        }
        let (strides, num_cells) = cell_strides(&mode_partitions)?;
        if cell_workers.len() != num_cells {
            return Err(TensorError::shape_mismatch(
                "GridPartition cell_workers vs grid cells",
                &[cell_workers.len()],
                &[num_cells],
            ));
        }
        let slices: Vec<usize> = mode_partitions
            .iter()
            .map(ModePartition::num_slices)
            .collect();
        let owners: Vec<usize> = row_owners.iter().map(Vec::len).collect();
        if owners != slices {
            return Err(TensorError::shape_mismatch(
                "GridPartition row_owners vs slices per mode",
                &owners,
                &slices,
            ));
        }
        let workers = cell_workers.iter().chain(row_owners.iter().flatten());
        if workers.into_iter().any(|&w| w as usize >= num_workers) {
            return Err(bad(format!("worker id outside 0..{num_workers}")));
        }
        Ok(GridPartition {
            mode_partitions,
            num_workers,
            cell_workers,
            strides,
            row_owners,
        })
    }
}

impl Deserialize for GridPartition {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        GridPartition::try_from(v).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl GridPartition {
    /// Builds the placement plan for `tensor` with the default
    /// locality-preserving assignment.
    ///
    /// * `partitioner` — GTP or MTP, applied independently per mode;
    /// * `parts_per_mode[n]` — the paper's `p_n`;
    /// * `num_workers` — `M` worker nodes (≥ 1).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] when `parts_per_mode` does
    /// not match the tensor order or `num_workers == 0`.
    pub fn build(
        tensor: &SparseTensor,
        partitioner: Partitioner,
        parts_per_mode: &[usize],
        num_workers: usize,
    ) -> Result<Self> {
        Self::build_with(
            tensor,
            partitioner,
            parts_per_mode,
            num_workers,
            CellAssignment::BlockGrid,
        )
    }

    /// [`GridPartition::build`] with an explicit cell-assignment strategy.
    ///
    /// # Errors
    /// As for [`GridPartition::build`].
    pub fn build_with(
        tensor: &SparseTensor,
        partitioner: Partitioner,
        parts_per_mode: &[usize],
        num_workers: usize,
        assignment: CellAssignment,
    ) -> Result<Self> {
        if parts_per_mode.len() != tensor.order() {
            return Err(TensorError::InvalidArgument(format!(
                "parts_per_mode has {} entries for an order-{} tensor",
                parts_per_mode.len(),
                tensor.order()
            )));
        }
        // Per-mode slice partitions (Algorithms 2-3 applied mode by mode).
        // Either heuristic puts every slice of a one-part mode in part 0,
        // so such a mode needs no slice histogram.
        let mut mode_partitions = Vec::with_capacity(tensor.order());
        for (mode, &p) in parts_per_mode.iter().enumerate() {
            mode_partitions.push(if p <= 1 {
                ModePartition::trivial(tensor.shape()[mode])
            } else {
                partitioner.partition(&tensor.slice_nnz(mode)?, p)
            });
        }
        Self::from_mode_partitions(tensor, mode_partitions, num_workers, assignment)
    }

    /// Builds the plan from explicit per-mode partitions (used by tests and
    /// by the streaming driver, which re-partitions only the complement).
    ///
    /// # Errors
    /// Returns an error if the partitions do not cover the tensor's shape
    /// or `num_workers == 0`.
    pub fn from_mode_partitions(
        tensor: &SparseTensor,
        mode_partitions: Vec<ModePartition>,
        num_workers: usize,
        assignment: CellAssignment,
    ) -> Result<Self> {
        if num_workers == 0 {
            return Err(TensorError::InvalidArgument(
                "num_workers must be >= 1".into(),
            ));
        }
        if mode_partitions.len() != tensor.order() {
            return Err(TensorError::InvalidArgument(
                "one ModePartition per mode required".into(),
            ));
        }
        for (mode, mp) in mode_partitions.iter().enumerate() {
            if mp.num_slices() != tensor.shape()[mode] {
                return Err(TensorError::InvalidArgument(format!(
                    "mode {mode}: partition covers {} slices, tensor has {}",
                    mp.num_slices(),
                    tensor.shape()[mode]
                )));
            }
        }
        let (strides, num_cells) = cell_strides(&mode_partitions)?;

        let cell_workers = match assignment {
            CellAssignment::BlockGrid => {
                assign_block_grid(&mode_partitions, &strides, num_cells, num_workers)
            }
            // The one strategy that places by cell weight pays a scan of
            // its own for it.
            CellAssignment::Scatter => {
                let mut cell_nnz = vec![0u64; num_cells];
                for (idx, _) in tensor.iter() {
                    cell_nnz[cell_id(idx, &mode_partitions, &strides)] += 1;
                }
                assign_scatter(&cell_nnz, num_workers)
            }
        };

        // Factor-row ownership, from one scan of the nonzeros:
        // `held[mode][row · M + w]` counts the row's nonzeros on worker `w`.
        // A lone worker owns every row, so it skips the scan.
        let mut held: Vec<Vec<u64>> = tensor
            .shape()
            .iter()
            .map(|&rows| vec![0u64; rows * num_workers])
            .collect();
        if num_workers > 1 {
            for (idx, _) in tensor.iter() {
                let w = cell_workers[cell_id(idx, &mode_partitions, &strides)] as usize;
                for (counts, &i) in held.iter_mut().zip(idx) {
                    counts[i as usize * num_workers + w] += 1;
                }
            }
        }
        let row_owners = held
            .iter()
            .map(|counts| {
                counts
                    .chunks(num_workers)
                    .enumerate()
                    .map(|(row, by_worker)| {
                        // The first maximum: ties go to the lower rank.
                        let mut best = 0usize;
                        for (w, &nnz) in by_worker.iter().enumerate() {
                            if nnz > by_worker[best] {
                                best = w;
                            }
                        }
                        // An unreferenced row goes round-robin.
                        let owner = if by_worker[best] == 0 {
                            row % num_workers
                        } else {
                            best
                        };
                        // lint:allow(narrowing_cast): a worker id — below `num_workers`, one OS thread each
                        owner as u32
                    })
                    .collect()
            })
            .collect();

        Ok(GridPartition {
            mode_partitions,
            num_workers,
            cell_workers,
            strides,
            row_owners,
        })
    }

    /// Number of workers `M`.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The mode-`n` slice partition.
    pub fn mode_partition(&self, mode: usize) -> &ModePartition {
        &self.mode_partitions[mode]
    }

    /// Worker that owns the nonzero at `idx`.
    #[inline]
    pub fn worker_of(&self, idx: &[u32]) -> usize {
        self.worker_of_cell(self.cell_of(idx))
    }

    /// Worker that owns grid cell `cell` (a [`Self::cell_of`] id).
    ///
    /// # Panics
    /// When `cell` is not below [`Self::num_cells`].
    #[inline]
    pub fn worker_of_cell(&self, cell: usize) -> usize {
        self.cell_workers[cell] as usize
    }

    /// Dense grid-cell id of the nonzero at `idx` (row-major over the
    /// per-mode partition counts).  Cells are the unit of MTTKRP-plan
    /// caching in the distributed driver: a cell whose nonzeros are
    /// unchanged between stream steps keeps its compiled kernel layout.
    #[inline]
    pub fn cell_of(&self, idx: &[u32]) -> usize {
        cell_id(idx, &self.mode_partitions, &self.strides)
    }

    /// Total number of grid cells (product of per-mode partition counts).
    pub fn num_cells(&self) -> usize {
        self.cell_workers.len()
    }

    /// Worker that owns factor row `slice` of `mode`: the one holding the
    /// most of the row's nonzeros (ties to the lower rank), `slice % M` for
    /// a row nothing references.  The single definition of ownership — the
    /// distributed driver's routing and the gather both read it.
    #[inline]
    pub fn row_owner(&self, mode: usize, slice: usize) -> usize {
        self.row_owners[mode][slice] as usize
    }

    /// Per-worker nonzero loads for a tensor placed with this plan.
    pub fn worker_loads(&self, tensor: &SparseTensor) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_workers];
        for (idx, _) in tensor.iter() {
            loads[self.worker_of(idx)] += 1;
        }
        loads
    }
}

/// Cell-id strides (row-major over the partition counts) and the number of
/// grid cells.
fn cell_strides(mode_partitions: &[ModePartition]) -> Result<(Vec<usize>, usize)> {
    let mut strides = vec![1usize; mode_partitions.len()];
    let mut num_cells = 1usize;
    for (k, mp) in mode_partitions.iter().enumerate().rev() {
        strides[k] = num_cells;
        num_cells = num_cells
            .checked_mul(mp.num_parts().max(1))
            .ok_or_else(|| {
                TensorError::InvalidArgument("grid cell count overflows usize".into())
            })?;
    }
    Ok((strides, num_cells))
}

#[inline]
fn cell_id(idx: &[u32], mode_partitions: &[ModePartition], strides: &[usize]) -> usize {
    idx.iter()
        .zip(mode_partitions)
        .zip(strides)
        .map(|((&i, mp), &s)| mp.part_of(i as usize) * s)
        .sum()
}

/// The worker grid `m_1 × … × m_N` for modes of `rows[n]` slices cut into
/// `parts[n]` partitions, on `workers` workers.  Among the tuples with
/// `m_n ≤ p_n` whose product divides `M`:
///
/// 1. the largest product — workers sit idle only when no tuple reaches `M`;
/// 2. the fewest rows routed if every row were dense,
///    `Σ_n I_n · (Π_{k≠n} m_k − 1)`: a mode split `m_n` ways is read by the
///    `Π_{k≠n} m_k` workers of its block, and all but one receive each row;
/// 3. the lexicographically largest tuple.
///
/// So the long mode is the one split, and modes of equal length are split
/// as evenly as `M` allows, earlier modes first.  The grid is a function of
/// `(shape, p, M)` alone, never of the nonzeros.  An exhaustive walk of the
/// divisor tuples: a few hundred for `M ≤ 64`, `N ≤ 4`.
fn worker_grid_dims(rows: &[usize], parts: &[usize], workers: usize) -> Vec<usize> {
    let mut best: Option<(usize, Reverse<u128>, Vec<usize>)> = None;
    let mut dims = Vec::with_capacity(parts.len());
    visit_grids(&mut dims, parts, workers, &mut |dims| {
        let product: usize = dims.iter().product();
        let cost = rows
            .iter()
            .zip(dims)
            .map(|(&i, &m)| i as u128 * (product / m - 1) as u128)
            .sum();
        let candidate = (product, Reverse(cost), dims);
        if best
            .as_ref()
            .is_none_or(|(p, c, d)| candidate > (*p, *c, &d[..]))
        {
            best = Some((product, Reverse(cost), dims.to_vec()));
        }
    });
    best.map_or_else(|| vec![1; parts.len()], |(.., dims)| dims)
}

/// Calls `f` with every tuple extending `dims` by one `m_n ≤ parts[n]` per
/// remaining mode whose product divides `left`.
fn visit_grids(dims: &mut Vec<usize>, parts: &[usize], left: usize, f: &mut impl FnMut(&[usize])) {
    let Some(&p) = parts.get(dims.len()) else {
        f(dims);
        return;
    };
    for m in (1..=p.max(1).min(left)).filter(|&m| left.is_multiple_of(m)) {
        dims.push(m);
        visit_grids(dims, parts, left / m, f);
        dims.pop();
    }
}

/// Medium-grain block assignment: worker grid `m_1 × … × m_N`, cell
/// `(c_1, …, c_N)` → worker coordinates `⌊c_n m_n / p_n⌋`.
fn assign_block_grid(
    mode_partitions: &[ModePartition],
    strides: &[usize],
    num_cells: usize,
    workers: usize,
) -> Vec<u32> {
    let parts: Vec<usize> = mode_partitions
        .iter()
        .map(ModePartition::num_parts)
        .collect();
    let rows: Vec<usize> = mode_partitions
        .iter()
        .map(ModePartition::num_slices)
        .collect();
    let dims = worker_grid_dims(&rows, &parts, workers);
    // Mixed-radix strides for worker coordinates.
    let order = dims.len();
    let mut wstrides = vec![1usize; order];
    for k in (0..order.saturating_sub(1)).rev() {
        wstrides[k] = wstrides[k + 1] * dims[k + 1];
    }
    (0..num_cells)
        .map(|cell| {
            let mut worker = 0usize;
            for n in 0..order {
                let p_n = parts[n].max(1);
                let c_n = (cell / strides[n]) % p_n;
                let w_n = (c_n * dims[n]) / p_n;
                worker += w_n * wstrides[n];
            }
            // lint:allow(narrowing_cast): a worker id — below `Π dims ≤ workers`, one OS thread each
            worker as u32
        })
        .collect()
}

/// Scatter assignment: max-min fit of cells onto workers by nnz (heaviest
/// cell to the lightest worker), empty cells round-robin.
fn assign_scatter(cell_nnz: &[u64], workers: usize) -> Vec<u32> {
    let mut cell_order: Vec<usize> = (0..cell_nnz.len()).collect();
    cell_order.sort_unstable_by_key(|&c| (Reverse(cell_nnz[c]), c));
    // lint:allow(narrowing_cast): the worker count — one OS thread each
    let ids = 0..workers as u32;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = ids.map(|w| Reverse((0u64, w))).collect();
    let mut cell_workers = vec![0u32; cell_nnz.len()];
    for (i, &cell) in cell_order.iter().enumerate() {
        if cell_nnz[cell] == 0 {
            // lint:allow(narrowing_cast): a worker id — below `workers`, one OS thread each
            cell_workers[cell] = (i % workers) as u32;
            continue;
        }
        // The heap holds one entry per worker and every pop is re-pushed,
        // so it can never be empty here; the fallback keeps this path
        // panic-free under the crate-wide no-unwrap audit.
        let Reverse((load, w)) = heap.pop().unwrap_or(Reverse((0, 0)));
        cell_workers[cell] = w;
        heap.push(Reverse((load + cell_nnz[cell], w)));
    }
    cell_workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismastd_tensor::SparseTensorBuilder;

    fn test_tensor() -> SparseTensor {
        let mut b = SparseTensorBuilder::new(vec![4, 4, 4]);
        // A diagonal plus some off-diagonal mass.
        for i in 0..4 {
            b.push(&[i, i, i], 1.0).unwrap();
        }
        b.push(&[0, 1, 2], 2.0).unwrap();
        b.push(&[3, 0, 1], -1.0).unwrap();
        b.push(&[1, 3, 0], 0.5).unwrap();
        b.push(&[2, 2, 0], 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_validates_arguments() {
        let t = test_tensor();
        assert!(GridPartition::build(&t, Partitioner::Mtp, &[2, 2], 2).is_err());
        assert!(GridPartition::build(&t, Partitioner::Mtp, &[2, 2, 2], 0).is_err());
        assert!(GridPartition::build(&t, Partitioner::Mtp, &[2, 2, 2], 2).is_ok());
    }

    #[test]
    fn every_nonzero_has_exactly_one_worker() {
        let t = test_tensor();
        for partitioner in [Partitioner::Gtp, Partitioner::Mtp] {
            for assignment in [CellAssignment::BlockGrid, CellAssignment::Scatter] {
                let g =
                    GridPartition::build_with(&t, partitioner, &[2, 2, 2], 3, assignment).unwrap();
                let loads = g.worker_loads(&t);
                assert_eq!(loads.iter().sum::<u64>(), t.nnz() as u64);
            }
        }
    }

    #[test]
    fn worker_count_one_takes_everything() {
        let t = test_tensor();
        let g = GridPartition::build(&t, Partitioner::Mtp, &[2, 2, 2], 1).unwrap();
        assert_eq!(g.worker_loads(&t), vec![t.nnz() as u64]);
        for (idx, _) in t.iter() {
            assert_eq!(g.worker_of(idx), 0);
        }
    }

    #[test]
    fn grid_dims_factor_workers() {
        // Modes of equal length: the grids the index-order greedy built.
        let cube =
            |parts: &[usize], workers| worker_grid_dims(&vec![100; parts.len()], parts, workers);
        assert_eq!(cube(&[4, 4, 4], 4), vec![2, 2, 1]);
        assert_eq!(cube(&[15, 15, 15], 15), vec![5, 3, 1]);
        assert_eq!(cube(&[8, 8, 8], 8), vec![2, 2, 2]);
        assert_eq!(cube(&[12, 12, 12], 12), vec![3, 2, 2]);
        assert_eq!(cube(&[9, 9], 6), vec![3, 2]);
        assert_eq!(cube(&[4, 4, 4], 1), vec![1, 1, 1]);
        // A mode with few partitions cannot absorb more splits than it has
        // partitions; the 2s spread across all three modes.
        assert_eq!(cube(&[2, 16, 2], 8), vec![2, 2, 2]);
        // Once the small modes are saturated, the rest lands on the big one.
        assert_eq!(cube(&[2, 64, 2], 32), vec![2, 8, 2]);
        // Unabsorbable workers sit idle rather than panic.
        assert_eq!(cube(&[2, 2], 64), vec![2, 2]);
        // ... but only those: the greedy stopped at the first prime factor
        // no mode could take (12 = 3·2·2) and put every cell on rank 0.
        assert_eq!(cube(&[2, 2], 12), vec![2, 2]);
        assert_eq!(cube(&[2, 2, 2], 12), vec![2, 2, 1]);
        // A long mode is split instead of replicated (Netflix-shaped).
        let netflix = [5040, 378, 231];
        assert_eq!(worker_grid_dims(&netflix, &[4; 3], 4), vec![4, 1, 1]);
        assert_eq!(worker_grid_dims(&netflix, &[2; 3], 2), vec![2, 1, 1]);
        assert_eq!(worker_grid_dims(&netflix, &[3; 3], 3), vec![3, 1, 1]);
        // The long mode need not come first.
        assert_eq!(
            worker_grid_dims(&[231, 5040, 378], &[4; 3], 4),
            vec![1, 4, 1]
        );
    }

    #[test]
    fn block_grid_preserves_locality() {
        // With a 2x2x1 worker grid over 4 partitions per mode, cells with
        // the same leading partition coordinates share a worker.
        let mut b = SparseTensorBuilder::new(vec![8, 8, 8]);
        for i in 0..8 {
            for j in 0..8 {
                b.push(&[i, j, (i + j) % 8], 1.0).unwrap();
            }
        }
        let t = b.build().unwrap();
        let g = GridPartition::build(&t, Partitioner::Gtp, &[4, 4, 4], 4).unwrap();
        // Workers referenced per mode-0 partition should be limited: each
        // mode-0 partition block maps to at most half the workers.
        for part_range in [0..2usize, 2..4usize] {
            let mut seen = std::collections::BTreeSet::new();
            for (idx, _) in t.iter() {
                let part = g.mode_partition(0).part_of(idx[0] as usize);
                if part_range.contains(&part) {
                    seen.insert(g.worker_of(idx));
                }
            }
            assert!(
                seen.len() <= 2,
                "mode-0 block {part_range:?} scattered to {seen:?}"
            );
        }
    }

    #[test]
    fn scatter_balances_better_than_or_equal_block() {
        let mut b = SparseTensorBuilder::new(vec![12, 12, 12]);
        let mut v = 0.0;
        for i in 0..12 {
            for j in 0..12 {
                if (i + j) % 2 == 0 {
                    v += 1.0;
                    b.push(&[i, j, (i * j) % 12], v).unwrap();
                }
            }
        }
        let t = b.build().unwrap();
        let max_of = |assignment| {
            let g =
                GridPartition::build_with(&t, Partitioner::Mtp, &[4, 4, 4], 4, assignment).unwrap();
            g.worker_loads(&t).into_iter().max().unwrap()
        };
        assert!(max_of(CellAssignment::Scatter) <= max_of(CellAssignment::BlockGrid));
    }

    #[test]
    fn loads_are_reasonably_balanced() {
        let mut b = SparseTensorBuilder::new(vec![12, 12, 12]);
        let mut v = 0.0;
        for i in 0..12 {
            for j in 0..12 {
                if (i + j) % 2 == 0 {
                    v += 1.0;
                    b.push(&[i, j, (i * j) % 12], v).unwrap();
                }
            }
        }
        let t = b.build().unwrap();
        let g = GridPartition::build(&t, Partitioner::Mtp, &[4, 4, 4], 4).unwrap();
        let loads = g.worker_loads(&t);
        let mean = t.nnz() as f64 / 4.0;
        assert!(
            loads.iter().all(|&l| (l as f64) < 2.5 * mean),
            "loads {loads:?} vs mean {mean}"
        );
    }

    #[test]
    fn a_plan_from_outside_is_checked_before_it_is_indexed() {
        let t = test_tensor();
        let g = GridPartition::build(&t, Partitioner::Mtp, &[2, 2, 2], 2).unwrap();
        // Strides are derived from the partition counts, never read.
        let mut written = g.clone();
        written.strides = vec![8, 4, 2];
        let back = GridPartition::try_from(&written.to_value()).unwrap();
        assert_eq!(back.strides, g.strides);
        for mode in 0..3 {
            for slice in 0..4 {
                assert_eq!(back.row_owner(mode, slice), g.row_owner(mode, slice));
            }
        }
        // What each would do unchecked: index past the ownership table in
        // `row_owner`, past the cell table in `worker_of`, or hand the
        // driver a rank that does not exist.
        let mut short_owners = g.clone();
        short_owners.row_owners[1].pop();
        let mut missing_mode = g.clone();
        missing_mode.row_owners.pop();
        let mut foreign_owner = g.clone();
        foreign_owner.row_owners[2][3] = 2;
        let mut short_cells = g.clone();
        short_cells.cell_workers.pop();
        let mut foreign_cell = g.clone();
        foreign_cell.cell_workers[0] = 9;
        let mut no_workers = g.clone();
        no_workers.num_workers = 0;
        // A partition id past its mode's count sends `cell_of` past the
        // cell table (`from_assignment` would have panicked on it).
        let mut foreign_part = g.clone();
        foreign_part.mode_partitions[0] = ModePartition {
            num_parts: 2,
            assignment: vec![0, 1, 2, 0],
        };
        for (what, hostile) in [
            ("short ownership table", &short_owners),
            ("missing mode", &missing_mode),
            ("owner out of range", &foreign_owner),
            ("short cell table", &short_cells),
            ("cell worker out of range", &foreign_cell),
            ("no workers", &no_workers),
            ("partition id out of range", &foreign_part),
        ] {
            let err = GridPartition::try_from(&hostile.to_value()).unwrap_err();
            assert!(
                matches!(
                    err,
                    TensorError::InvalidArgument(_) | TensorError::ShapeMismatch { .. }
                ),
                "{what}: {err:?}"
            );
        }
        // Through `Deserialize` the same refusals arrive rendered.
        let err = GridPartition::from_value(&short_owners.to_value()).unwrap_err();
        assert!(err.to_string().contains("row_owners"), "{err}");
    }

    #[test]
    fn row_owner_holds_data_when_possible() {
        let mut b = SparseTensorBuilder::new(vec![2, 2, 2]);
        b.push(&[0, 0, 0], 1.0).unwrap();
        b.push(&[0, 1, 1], 1.0).unwrap();
        b.push(&[0, 1, 0], 1.0).unwrap();
        let t = b.build().unwrap();
        let g = GridPartition::build(&t, Partitioner::Mtp, &[2, 2, 2], 2).unwrap();
        let loads = g.worker_loads(&t);
        let owner = g.row_owner(0, 0);
        assert!(
            loads[owner] > 0,
            "owner {owner} of the only populated slice has no data"
        );
    }

    #[test]
    fn empty_tensor_is_placeable() {
        let t = SparseTensor::empty(vec![3, 3]).unwrap();
        let g = GridPartition::build(&t, Partitioner::Gtp, &[2, 2], 2).unwrap();
        assert_eq!(g.worker_loads(&t), vec![0, 0]);
        for mode in 0..2 {
            for slice in 0..3 {
                assert!(g.row_owner(mode, slice) < 2);
            }
        }
    }

    #[test]
    fn grid_deterministic() {
        let t = test_tensor();
        let a = GridPartition::build(&t, Partitioner::Mtp, &[2, 2, 2], 2).unwrap();
        let b = GridPartition::build(&t, Partitioner::Mtp, &[2, 2, 2], 2).unwrap();
        for (idx, _) in t.iter() {
            assert_eq!(a.worker_of(idx), b.worker_of(idx));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dismastd_tensor::mttkrp::mttkrp_into;
    use dismastd_tensor::{Matrix, MttkrpPlan, SparseTensorBuilder, ThreadPool};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use serde::Serialize;
    use std::collections::BTreeMap;

    /// Orders 2–4 with modes of 1–6 rows and 0–39 nonzeros: empty tensors,
    /// rows nothing references and one-row modes all occur.
    fn tensor_strategy() -> impl Strategy<Value = SparseTensor> {
        (
            prop::collection::vec(1usize..7, 2..5),
            prop::collection::vec(prop::collection::vec(0usize..6, 4), 0..40),
        )
            .prop_map(|(shape, seeds)| {
                let mut b = SparseTensorBuilder::new(shape.clone());
                for (k, seed) in seeds.iter().enumerate() {
                    let idx: Vec<usize> = shape.iter().zip(seed).map(|(&s, &i)| i % s).collect();
                    b.push(&idx, 1.0 + k as f64).unwrap();
                }
                b.build().unwrap()
            })
    }

    fn build(
        t: &SparseTensor,
        world: usize,
        parts: usize,
        scatter: bool,
        gtp: bool,
    ) -> GridPartition {
        GridPartition::build_with(
            t,
            if gtp {
                Partitioner::Gtp
            } else {
                Partitioner::Mtp
            },
            &vec![parts; t.order()],
            world,
            if scatter {
                CellAssignment::Scatter
            } else {
                CellAssignment::BlockGrid
            },
        )
        .unwrap()
    }

    /// `(mode, row) → nonzeros of the row per worker`, from the nonzeros
    /// and `worker_of` alone.
    fn held_by_worker(t: &SparseTensor, g: &GridPartition) -> BTreeMap<(usize, usize), Vec<u64>> {
        let mut held = BTreeMap::new();
        for (idx, _) in t.iter() {
            let w = g.worker_of(idx);
            for (mode, &i) in idx.iter().enumerate() {
                held.entry((mode, i as usize))
                    .or_insert_with(|| vec![0u64; g.num_workers()])[w] += 1;
            }
        }
        held
    }

    /// Every tuple of `[1, p_1] × … × [1, p_N]`, by odometer.
    fn all_tuples(parts: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut t = vec![1usize; parts.len()];
        loop {
            out.push(t.clone());
            let Some(k) = (0..t.len()).rev().find(|&k| t[k] < parts[k]) else {
                return out;
            };
            t[k] += 1;
            t[k + 1..].fill(1);
        }
    }

    /// Rows a worker grid routes per mode-iteration if every row is dense:
    /// mode `n` is read by `Π_{k≠n} m_k` workers, of which one owns a row.
    fn dense_bound(rows: &[usize], t: &[usize]) -> u128 {
        (0..t.len())
            .map(|n| {
                let readers: usize = (0..t.len()).filter(|&k| k != n).map(|k| t[k]).product();
                rows[n] as u128 * (readers as u128 - 1)
            })
            .sum()
    }

    /// The three stored orders a step's tensor comes in.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        /// Built: lexicographic and unique (a cold snapshot, a one-group
        /// complement).
        Lexicographic,
        /// What a session reads past a skipped step: two arrival groups of
        /// a stream's store, each lexicographic, one after the other.
        TwoGroups,
        /// Deserialised as drawn: unsorted, coordinates repeated.
        AsGiven,
    }

    /// Orders 2–5, modes of 1–5 rows, 0–29 entries drawn, in one of the
    /// three kinds of stored order.
    fn stored_tensor_strategy() -> impl Strategy<Value = (SparseTensor, Kind)> {
        (
            prop::collection::vec(1usize..6, 2..6),
            prop::collection::vec((prop::collection::vec(0usize..5, 5), -2.0f64..2.0), 0..30),
            0usize..3,
        )
            .prop_map(|(shape, draws, kind)| {
                let entries: Vec<(Vec<usize>, f64)> = draws
                    .into_iter()
                    .map(|(seed, v)| (shape.iter().zip(&seed).map(|(&s, &i)| i % s).collect(), v))
                    .filter(|(_, v)| *v != 0.0)
                    .collect();
                let built = || {
                    let mut b = SparseTensorBuilder::new(shape.clone());
                    for (idx, v) in &entries {
                        b.push(idx, *v).unwrap();
                    }
                    b.build().unwrap()
                };
                match kind {
                    0 => (built(), Kind::Lexicographic),
                    1 => {
                        // Three nested boxes; a session that skipped the
                        // middle snapshot reads groups 1 and 2 past the first.
                        let third: Vec<usize> = shape.iter().map(|&s| s.div_ceil(3)).collect();
                        let two: Vec<usize> = shape.iter().map(|&s| (2 * s).div_ceil(3)).collect();
                        let snaps = built()
                            .nested_prefixes(&[third, two, shape.clone()])
                            .unwrap();
                        (snaps[2].since(&snaps[0].mark()).unwrap(), Kind::TwoGroups)
                    }
                    _ => {
                        let flat: Vec<usize> =
                            entries.iter().flat_map(|(idx, _)| idx.clone()).collect();
                        let values: Vec<f64> = entries.iter().map(|&(_, v)| v).collect();
                        let doc = serde::Value::Object(vec![
                            ("shape".to_string(), shape.to_value()),
                            ("indices".to_string(), flat.to_value()),
                            ("values".to_string(), values.to_value()),
                        ]);
                        (SparseTensor::try_from(&doc).unwrap(), Kind::AsGiven)
                    }
                }
            })
    }

    /// Every cell grid a step at worlds 1–4 can run on: the default `w`
    /// parts per mode at world `w`, and every override of at most four
    /// parts in all at the world it names — a single split mode, the last
    /// one included (where a lexicographic cell's stretches are per fiber),
    /// and two modes split in two.
    fn step_grids(order: usize) -> Vec<(Vec<usize>, usize)> {
        let mut grids: Vec<(Vec<usize>, usize)> = (1..=4).map(|w| (vec![w; order], w)).collect();
        for parts in all_tuples(&vec![4; order]) {
            let world: usize = parts.iter().product();
            if world <= 4 {
                grids.push((parts, world));
            }
        }
        grids
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// A cell's plan reads its stretches of the step's tensor in place,
        /// and that is bit for bit the COO kernel over a `partition_by`
        /// copy of the cell: same cells, same nonzeros, and every mode's
        /// MTTKRP equal at pool sizes 1 and 3, on every grid, for every
        /// kind of stored order, at a fixed-body rank (5) and a dynamic
        /// one (2).
        #[test]
        fn a_cells_stretch_plan_is_the_coo_kernel_over_its_copy(
            (t, kind) in stored_tensor_strategy(),
            seed in 0u64..10_000,
            fixed_body in 0usize..2,
        ) {
            let rank = if fixed_body == 1 { 5 } else { 2 };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let factors: Vec<Matrix> =
                t.shape().iter().map(|&s| Matrix::random(s + 1, rank, &mut rng)).collect();
            let pools = [ThreadPool::new(1), ThreadPool::new(3)];
            for (parts, world) in step_grids(t.order()) {
                let grid = GridPartition::build_with(
                    &t,
                    Partitioner::Mtp,
                    &parts,
                    world,
                    CellAssignment::BlockGrid,
                )
                .unwrap();
                let plans = MttkrpPlan::cells(&t, grid.num_cells(), |idx| grid.cell_of(idx)).unwrap();
                let copies = t.partition_by(|idx| grid.cell_of(idx));
                let cells: Vec<usize> = plans.iter().map(|(c, _)| *c).collect();
                let copied: Vec<usize> = copies.iter().map(|(c, _)| *c).collect();
                prop_assert_eq!(cells, copied, "{:?} parts {:?}", kind, parts);
                for ((cell, plan), (_, copy)) in plans.iter().zip(&copies) {
                    prop_assert_eq!(plan.nnz(), copy.nnz());
                    for mode in 0..t.order() {
                        let mut want = Matrix::zeros(factors[mode].rows(), rank);
                        mttkrp_into(copy, &factors, mode, &mut want).unwrap();
                        for pool in &pools {
                            let mut got = Matrix::zeros(factors[mode].rows(), rank);
                            plan.mttkrp_into_pooled(&factors, mode, &mut got, pool).unwrap();
                            prop_assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{:?} parts {:?} cell {} mode {} threads {}",
                                kind, parts, cell, mode, pool.threads()
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn the_worker_grid_is_the_brute_force_optimum(
            // Lengths from a handful of values half the time, so that ties
            // on the bound (the lexicographic rule's cases) are common.
            dims in prop::collection::vec(
                (1usize..1_000_000, 0usize..2, 1usize..8)
                    .prop_map(|(rows, few, p)| (if few == 1 { rows % 3 + 1 } else { rows }, p)),
                2..5,
            ),
            workers in 1usize..17,
        ) {
            let (rows, parts): (Vec<usize>, Vec<usize>) = dims.into_iter().unzip();
            let chosen = worker_grid_dims(&rows, &parts, workers);
            let product = |t: &[usize]| t.iter().product::<usize>();
            let feasible: Vec<Vec<usize>> = all_tuples(&parts)
                .into_iter()
                .filter(|t| workers % product(t) == 0)
                .collect();
            // The constraints.
            prop_assert_eq!(chosen.len(), parts.len());
            prop_assert!(chosen.iter().zip(&parts).all(|(&m, &p)| 1 <= m && m <= p));
            prop_assert_eq!(workers % product(&chosen), 0);
            // The largest achievable product ...
            let most = feasible.iter().map(|t| product(t)).max().unwrap();
            prop_assert_eq!(product(&chosen), most);
            // ... the least dense-row bound among those tuples ...
            let largest: Vec<&Vec<usize>> =
                feasible.iter().filter(|t| product(t) == most).collect();
            let least = largest.iter().map(|t| dense_bound(&rows, t)).min().unwrap();
            prop_assert_eq!(dense_bound(&rows, &chosen), least);
            // ... and, of the tuples that tie on both, the last in
            // lexicographic order.
            for t in largest.into_iter().filter(|t| dense_bound(&rows, t) == least) {
                prop_assert!(*t <= chosen, "{:?} beats {:?}", t, chosen);
            }
        }

        #[test]
        fn every_row_has_one_owner_that_holds_the_most_of_it(
            t in tensor_strategy(),
            world in 1usize..6,
            parts in 1usize..5,
            scatter in 0usize..2,
            gtp in 0usize..2,
        ) {
            let g = build(&t, world, parts, scatter == 1, gtp == 1);
            let again = build(&t, world, parts, scatter == 1, gtp == 1);
            let held = held_by_worker(&t, &g);
            for (mode, &rows) in t.shape().iter().enumerate() {
                for row in 0..rows {
                    let owner = g.row_owner(mode, row);
                    prop_assert!(owner < world);
                    prop_assert_eq!(owner, again.row_owner(mode, row));
                    match held.get(&(mode, row)) {
                        // Nothing references the row: round-robin.
                        None => prop_assert_eq!(owner, row % world),
                        // The owner reads the row, nobody holds more of it,
                        // and nobody of a lower rank holds as much.
                        Some(by_worker) => {
                            prop_assert!(by_worker[owner] > 0);
                            prop_assert!(by_worker.iter().all(|&n| n <= by_worker[owner]));
                            prop_assert!(by_worker[..owner].iter().all(|&n| n < by_worker[owner]));
                        }
                    }
                }
            }
        }
    }
}
