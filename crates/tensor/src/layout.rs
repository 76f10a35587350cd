//! Cached mode-ordered MTTKRP execution plans (CSF-lite).
//!
//! The COO kernel in [`crate::mttkrp`] walks the nonzeros in lexicographic
//! order and scatters an `R`-vector into `out[idx[mode], :]` per entry —
//! for every mode except the first that is a random-access write stream
//! over the output. [`MttkrpPlan`] trades one preprocessing pass for a
//! compressed per-mode layout:
//!
//! * entries are permuted into **output-row order** for every mode
//!   (stably, so same-row entries keep their stored order — accumulation
//!   order per row is unchanged; a counting sort, or a comparison sort
//!   when the mode has far more rows than the tensor has entries);
//! * consecutive entries sharing an output row form a **run**; the kernel
//!   accumulates a register-resident `R`-vector across the run and writes
//!   each output row exactly once;
//! * the `order−1` factor-row indices of every entry are flattened into a
//!   contiguous `u32` column table, so the inner loop streams `vals`/`cols`
//!   linearly instead of re-deriving coordinates.
//!
//! The plan depends only on the sparsity pattern — not on factor values or
//! row counts — so one plan serves every iteration, mode, and factor
//! snapshot (including grown factor matrices with extra rows). The
//! distributed driver builds one plan per grid cell at partitioning time
//! and reuses it across a whole stream step.  The serial solver builds
//! one plan for the whole complement at the top of each call.

use crate::coo::SparseTensor;
use crate::error::{Result, TensorError};
use crate::lanes::{for_fixed_lanes, lane_products};
use crate::matrix::Matrix;
use crate::pool::ThreadPool;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Compressed execution layout for one mode: entries sorted by output row
/// with run boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
struct ModePlan {
    /// Output row of each run (strictly increasing).
    rows: Vec<u32>,
    /// `run_ptr[i]..run_ptr[i+1]` is run `i`'s entry range in `vals`/`cols`.
    run_ptr: Vec<u32>,
    /// Entry values, permuted into output-row order.
    vals: Vec<f64>,
    /// Per entry, the `order−1` factor-row indices of the other modes in
    /// ascending mode order.
    cols: Vec<u32>,
}

/// Reusable all-modes MTTKRP plan for one sparse tensor.
#[derive(Debug, Clone)]
pub struct MttkrpPlan {
    shape: Vec<usize>,
    nnz: usize,
    modes: Vec<ModePlan>,
}

impl MttkrpPlan {
    /// Builds the per-mode layouts with one stable sort per mode.
    ///
    /// # Errors
    /// Returns [`TensorError::PlanOverflow`] when the tensor's nnz or any
    /// shape dimension exceeds the layout's `u32` index space — entry
    /// positions and row ids would silently truncate.
    pub fn build(tensor: &SparseTensor) -> Result<Self> {
        check_plan_bounds(tensor)?;
        let _span = dismastd_obs::span("kernel/plan_build");
        let order = tensor.order();
        let modes = (0..order).map(|m| build_mode(tensor, m)).collect();
        Ok(MttkrpPlan {
            shape: tensor.shape().to_vec(),
            nnz: tensor.nnz(),
            modes,
        })
    }

    /// Like [`build`](MttkrpPlan::build), with the per-mode sorts
    /// executed on `pool` (one chunk per mode).  Each mode's layout is a
    /// pure function of the tensor and lands in its own slot, so the
    /// result is identical to the serial build for every pool size.
    ///
    /// # Errors
    /// Same as [`build`](MttkrpPlan::build).
    pub fn build_with(tensor: &SparseTensor, pool: &ThreadPool) -> Result<Self> {
        check_plan_bounds(tensor)?;
        let _span = dismastd_obs::span("kernel/plan_build");
        let order = tensor.order();
        let slots: Vec<Mutex<ModePlan>> = (0..order)
            .map(|_| Mutex::new(ModePlan::default()))
            .collect();
        pool.run(order, &|m| {
            let built = build_mode(tensor, m);
            *slots[m].lock().unwrap_or_else(PoisonError::into_inner) = built;
        });
        let modes = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        Ok(MttkrpPlan {
            shape: tensor.shape().to_vec(),
            nnz: tensor.nnz(),
            modes,
        })
    }

    /// Shape of the tensor the plan was built from.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Nonzeros covered by the plan.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Heap bytes held by the layout tables (capacity accounting).
    pub fn layout_bytes(&self) -> usize {
        self.modes
            .iter()
            .map(|m| {
                m.rows.capacity() * 4
                    + m.run_ptr.capacity() * 4
                    + m.vals.capacity() * 8
                    + m.cols.capacity() * 4
            })
            .sum()
    }

    /// Computes the mode-`mode` MTTKRP into a fresh zeroed matrix of
    /// `factors[mode].rows()` rows.
    ///
    /// # Errors
    /// Returns a shape error if `factors` disagree with the plan.
    pub fn mttkrp(&self, factors: &[Matrix], mode: usize) -> Result<Matrix> {
        let r = self.check_factors(factors, mode)?;
        let mut out = Matrix::zeros(factors[mode].rows(), r);
        self.mttkrp_into(factors, mode, &mut out)?;
        Ok(out)
    }

    /// Accumulates the mode-`mode` MTTKRP into `out` (`out +=`), adding one
    /// run total per touched output row.
    ///
    /// On a zeroed `out` the result is bitwise identical to
    /// [`crate::mttkrp::mttkrp_into`]: the stable permutation preserves the
    /// per-row accumulation order and the factor product is formed in the
    /// same ascending mode order.  Onto a non-zero `out` a row becomes
    /// `out[row] + total`, the total summed from zero in stored order —
    /// not the COO kernel's `((out[row] + e₁) + e₂) + …`.
    ///
    /// # Errors
    /// Returns a shape error if `factors` or `out` disagree with the plan.
    pub fn mttkrp_into(&self, factors: &[Matrix], mode: usize, out: &mut Matrix) -> Result<()> {
        let r = self.check_factors(factors, mode)?;
        if out.shape() != (factors[mode].rows(), r) {
            return Err(TensorError::shape_mismatch(
                "MttkrpPlan::mttkrp_into output",
                &[factors[mode].rows(), r],
                &[out.rows(), out.cols()],
            ));
        }
        let _span = dismastd_obs::span_with("kernel/mttkrp_plan", mode as u64);
        let order = self.order();
        let km = order - 1;
        let mp = &self.modes[mode];
        accumulate_runs(mp, factors, mode, km, r, 0..mp.rows.len(), |row, acc| {
            let dst = out.row_mut(row);
            for (d, &a) in dst.iter_mut().zip(acc) {
                *d += a;
            }
        });
        Ok(())
    }

    /// Accumulates the mode-`mode` MTTKRP into `out` on `pool`, chunking
    /// the run list into entry-balanced ranges.
    ///
    /// Runs are row-disjoint by construction and chunks partition the run
    /// list, so each chunk owns its output rows outright and the per-row
    /// left-to-right accumulation order is untouched — the result is
    /// bitwise identical to [`mttkrp_into`](Self::mttkrp_into) for every
    /// pool size (a single-lane pool takes the serial path directly).
    ///
    /// # Errors
    /// Returns a shape error if `factors` or `out` disagree with the plan.
    pub fn mttkrp_into_pooled(
        &self,
        factors: &[Matrix],
        mode: usize,
        out: &mut Matrix,
        pool: &ThreadPool,
    ) -> Result<()> {
        let n_runs = self.modes.get(mode).map_or(0, |mp| mp.rows.len());
        if pool.threads() <= 1 || n_runs < 2 {
            return self.mttkrp_into(factors, mode, out);
        }
        let r = self.check_factors(factors, mode)?;
        if out.shape() != (factors[mode].rows(), r) {
            return Err(TensorError::shape_mismatch(
                "MttkrpPlan::mttkrp_into output",
                &[factors[mode].rows(), r],
                &[out.rows(), out.cols()],
            ));
        }
        let _span = dismastd_obs::span_with("kernel/mttkrp_plan", mode as u64);
        let order = self.order();
        let km = order - 1;
        let mp = &self.modes[mode];
        let n_chunks = (pool.threads() * CHUNKS_PER_THREAD).min(n_runs);
        let bounds = chunk_runs(mp, n_chunks);
        let stride = out.cols();
        let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        pool.run(n_chunks, &|c| {
            let ptr = out_ptr;
            accumulate_runs(
                mp,
                factors,
                mode,
                km,
                r,
                bounds[c]..bounds[c + 1],
                |row, acc| {
                    // Safety: runs are row-disjoint and chunks partition the
                    // run list, so no two chunks touch the same output row;
                    // `row < out.rows()` is guaranteed by `check_factors`.
                    let dst = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(row * stride), r) };
                    for (d, &a) in dst.iter_mut().zip(acc) {
                        *d += a;
                    }
                },
            );
        });
        Ok(())
    }

    /// Validates `factors` against the plan, returning the rank.
    fn check_factors(&self, factors: &[Matrix], mode: usize) -> Result<usize> {
        if factors.len() != self.order() {
            return Err(TensorError::shape_mismatch(
                "MttkrpPlan factors",
                &[self.order()],
                &[factors.len()],
            ));
        }
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let r = factors[0].cols();
        for (k, f) in factors.iter().enumerate() {
            if f.cols() != r {
                return Err(TensorError::shape_mismatch(
                    "MttkrpPlan factor ranks",
                    &[r],
                    &[f.cols()],
                ));
            }
            if f.rows() < self.shape[k] {
                return Err(TensorError::shape_mismatch(
                    "MttkrpPlan factor rows",
                    &[self.shape[k]],
                    &[f.rows()],
                ));
            }
        }
        Ok(r)
    }
}

/// Chunks claimed per pool lane in [`MttkrpPlan::mttkrp_into_pooled`]:
/// more chunks than lanes so a skewed run distribution still balances via
/// work stealing, few enough that chunk overhead stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// Raw output pointer for the pooled kernel.  Chunks write disjoint rows
/// (runs are row-disjoint and chunks partition the run list), so sharing
/// the pointer across pool threads is race-free.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);

unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Rejects tensors whose layout tables would truncate through the `u32`
/// casts in [`build_mode`].  Must run before any per-mode allocation: an
/// oversized dimension would otherwise attempt a multi-gigabyte counting
/// buffer before the first cast even executes.
fn check_plan_bounds(tensor: &SparseTensor) -> Result<()> {
    if tensor.nnz() as u64 > u64::from(u32::MAX) {
        return Err(TensorError::PlanOverflow {
            what: "nnz",
            value: tensor.nnz() as u64,
        });
    }
    for &s in tensor.shape() {
        if s as u64 > u64::from(u32::MAX) {
            return Err(TensorError::PlanOverflow {
                what: "shape dimension",
                value: s as u64,
            });
        }
    }
    Ok(())
}

/// Runs the per-run accumulation loop over `runs`, handing each finished
/// `R`-vector to `write` with its output row.
///
/// This is the single entry shared by the serial, pooled and per-cell
/// distributed call sites.  A rank and order in the dispatch set of
/// [`for_fixed_lanes!`] take the register-resident
/// [`accumulate_runs_fixed`] body, everything else the dynamic
/// [`accumulate_runs_dyn`] loop.  Both form the factor product
/// left-to-right in ascending mode order and add entries to their row's
/// accumulator in stored (stable) order, so every partial is bit-identical
/// to the COO kernel's multi-pass version no matter which body, execution
/// path or chunk drives the loop.
fn accumulate_runs(
    mp: &ModePlan,
    factors: &[Matrix],
    mode: usize,
    km: usize,
    r: usize,
    runs: Range<usize>,
    mut write: impl FnMut(usize, &[f64]),
) {
    for_fixed_lanes!(
        r,
        km,
        accumulate_runs_fixed(mp, factors, mode, runs, &mut write),
        else accumulate_runs_dyn(mp, factors, mode, km, r, runs, &mut write)
    );
}

/// Off-mode factor `j` in ascending mode order, skipping `mode` — indexed
/// directly so callers need not collect a filtered borrow list.
fn off_mode(factors: &[Matrix], mode: usize, j: usize) -> &Matrix {
    &factors[j + usize::from(j >= mode)]
}

/// Monomorphised body for rank `R` and `K` off-mode factors: the run
/// accumulator is a stack `[f64; R]` and every lane and row loop has a
/// compile-time trip count, so a run's total stays in registers until it
/// is written.
fn accumulate_runs_fixed<const R: usize, const K: usize>(
    mp: &ModePlan,
    factors: &[Matrix],
    mode: usize,
    runs: Range<usize>,
    write: &mut impl FnMut(usize, &[f64]),
) {
    let offs: [&Matrix; K] = std::array::from_fn(|j| off_mode(factors, mode, j));
    for run in runs {
        let entries = mp.run_ptr[run] as usize..mp.run_ptr[run + 1] as usize;
        match run_total::<R, K>(mp, &offs, entries) {
            Some(acc) => write(mp.rows[run] as usize, &acc),
            // A factor row that is not `R` wide.  `check_factors` rules it
            // out; the dynamic body handles any width, so hand it the run
            // rather than carry a panic path.
            None => accumulate_runs_dyn(mp, factors, mode, K, R, run..run + 1, write),
        }
    }
}

/// Sum over one run's entries of `v · ⊛_{k≠mode} A_k[i_k, :]`, entries in
/// stored order; `None` when a factor row is not `R` wide.
#[inline(always)]
fn run_total<const R: usize, const K: usize>(
    mp: &ModePlan,
    offs: &[&Matrix; K],
    entries: Range<usize>,
) -> Option<[f64; R]> {
    let vals = &mp.vals[entries.clone()];
    let cols = &mp.cols[K * entries.start..K * entries.end];
    let mut acc = [0.0f64; R];
    for (&v, cols) in vals.iter().zip(cols.chunks_exact(K)) {
        let rows = std::array::from_fn(|j| offs[j].row(cols[j] as usize));
        let lanes = lane_products::<R, K>(v, rows)?;
        for (s, &p) in acc.iter_mut().zip(&lanes) {
            *s += p;
        }
    }
    Some(acc)
}

/// Dynamic body: the fallback for every rank and order outside the
/// dispatch set.
fn accumulate_runs_dyn(
    mp: &ModePlan,
    factors: &[Matrix],
    mode: usize,
    km: usize,
    r: usize,
    runs: Range<usize>,
    write: &mut impl FnMut(usize, &[f64]),
) {
    let off = |j: usize| off_mode(factors, mode, j);
    // Bounded per-call scratch (R lanes + N-1 row borrows), reused across
    // every run this call handles.
    // lint:allow(alloc_hygiene): one bounded scratch pair per kernel call, amortised over all runs
    let mut acc = vec![0.0f64; r];
    // lint:allow(alloc_hygiene): one bounded scratch pair per kernel call, amortised over all runs
    let mut rows_scratch: Vec<&[f64]> = Vec::with_capacity(km);
    for run in runs {
        let lo = mp.run_ptr[run] as usize;
        let hi = mp.run_ptr[run + 1] as usize;
        acc.fill(0.0);
        match km {
            1 => {
                let f0 = off(0);
                for e in lo..hi {
                    let v = mp.vals[e];
                    let a = f0.row(mp.cols[e] as usize);
                    for (s, &av) in acc.iter_mut().zip(a) {
                        *s += v * av;
                    }
                }
            }
            2 => {
                let (f0, f1) = (off(0), off(1));
                for e in lo..hi {
                    let v = mp.vals[e];
                    let a = f0.row(mp.cols[2 * e] as usize);
                    let b = f1.row(mp.cols[2 * e + 1] as usize);
                    for ((s, &av), &bv) in acc.iter_mut().zip(a).zip(b) {
                        *s += v * av * bv;
                    }
                }
            }
            3 => {
                let (f0, f1, f2) = (off(0), off(1), off(2));
                for e in lo..hi {
                    let v = mp.vals[e];
                    let a = f0.row(mp.cols[3 * e] as usize);
                    let b = f1.row(mp.cols[3 * e + 1] as usize);
                    let c = f2.row(mp.cols[3 * e + 2] as usize);
                    for (((s, &av), &bv), &cv) in acc.iter_mut().zip(a).zip(b).zip(c) {
                        *s += v * av * bv * cv;
                    }
                }
            }
            _ => {
                for e in lo..hi {
                    let v = mp.vals[e];
                    rows_scratch.clear();
                    for (j, &col) in mp.cols[e * km..e * km + km].iter().enumerate() {
                        rows_scratch.push(off(j).row(col as usize));
                    }
                    for (c, s) in acc.iter_mut().enumerate() {
                        let mut p = v;
                        for row in &rows_scratch {
                            p *= row[c];
                        }
                        *s += p;
                    }
                }
            }
        }
        write(mp.rows[run] as usize, &acc);
    }
}

/// Entry-balanced chunk boundaries over the run list: boundary `c` lands
/// at the first run whose end passes entry `c·nnz/n_chunks`, so a few
/// heavy runs do not pile into one chunk.  Purely a function of the
/// layout — the same boundaries for every pool size and execution order.
fn chunk_runs(mp: &ModePlan, n_chunks: usize) -> Vec<usize> {
    let n_runs = mp.rows.len();
    let total = u64::from(mp.run_ptr[n_runs]);
    // lint:allow(alloc_hygiene): O(chunks) boundary table, one per pooled call
    let mut bounds = Vec::with_capacity(n_chunks + 1);
    bounds.push(0usize);
    for c in 1..n_chunks {
        // lint:allow(narrowing_cast): `c < n_chunks`, so the quotient is below `total`, itself a u32
        let target = (total * c as u64 / n_chunks as u64) as u32;
        let pos = mp.run_ptr[1..=n_runs].partition_point(|&p| p <= target);
        let prev = bounds[c - 1];
        bounds.push(pos.max(prev).min(n_runs));
    }
    bounds.push(n_runs);
    bounds
}

/// Rows per entry above which a mode is ordered by comparison sort: the
/// counting sort's tables are `shape[mode]` long whatever the tensor holds,
/// so a grid of many thin cells over long modes would pay
/// O(cells × Σ shape) for them (`fig6`'s 38³ cells).
const SPARSE_ROWS_PER_ENTRY: usize = 2;

/// One mode's layout: the entries in stable output-row order, flattened
/// into the run/column tables.  Both orderings produce the same
/// [`ModePlan`]; which one runs is a cost decision read off the input.
fn build_mode(tensor: &SparseTensor, mode: usize) -> ModePlan {
    if tensor.shape()[mode] > SPARSE_ROWS_PER_ENTRY.saturating_mul(tensor.nnz()) {
        build_mode_sorting(tensor, mode)
    } else {
        build_mode_counting(tensor, mode)
    }
}

/// [`build_mode`] by stable counting sort over all `shape[mode]` rows:
/// O(nnz + shape[mode]) time and scratch.
fn build_mode_counting(tensor: &SparseTensor, mode: usize) -> ModePlan {
    let order = tensor.order();
    let km = order - 1;
    let nnz = tensor.nnz();
    let n_rows = tensor.shape()[mode];

    let mut counts = vec![0u32; n_rows];
    for e in 0..nnz {
        counts[tensor.index(e)[mode] as usize] += 1;
    }
    // Exclusive prefix sum → scatter offsets.
    let mut offsets = vec![0u32; n_rows + 1];
    for i in 0..n_rows {
        offsets[i + 1] = offsets[i] + counts[i];
    }
    let mut cursor = offsets[..n_rows].to_vec();
    let mut vals = vec![0.0f64; nnz];
    let mut cols = vec![0u32; nnz * km];
    for e in 0..nnz {
        let idx = tensor.index(e);
        let row = idx[mode] as usize;
        let pos = cursor[row] as usize;
        cursor[row] += 1;
        vals[pos] = tensor.value(e);
        let mut c = pos * km;
        for (k, &i) in idx.iter().enumerate() {
            if k == mode {
                continue;
            }
            cols[c] = i;
            c += 1;
        }
    }
    // Compress non-empty rows into runs.
    let populated = counts.iter().filter(|&&c| c > 0).count();
    let mut rows = Vec::with_capacity(populated);
    let mut run_ptr = Vec::with_capacity(populated + 1);
    run_ptr.push(0);
    for (row, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        // lint:allow(narrowing_cast): `row < shape[mode]`, which `check_plan_bounds` bounded by u32
        rows.push(row as u32);
        run_ptr.push(offsets[row + 1]);
    }
    ModePlan {
        rows,
        run_ptr,
        vals,
        cols,
    }
}

/// [`build_mode`] by sorting `(coordinate, position)` pairs: O(nnz log nnz)
/// time and O(nnz) scratch, whatever `shape[mode]` is.  Positions are
/// unique, so the unstable sort yields the stable order.
fn build_mode_sorting(tensor: &SparseTensor, mode: usize) -> ModePlan {
    let nnz = tensor.nnz();
    let mut by_row: Vec<(u32, u32)> = (0..nnz)
        // lint:allow(narrowing_cast): `e < nnz`, which `check_plan_bounds` bounded by u32
        .map(|e| (tensor.index(e)[mode], e as u32))
        .collect();
    by_row.sort_unstable();
    let mut mp = ModePlan {
        vals: Vec::with_capacity(nnz),
        cols: Vec::with_capacity(nnz * (tensor.order() - 1)),
        ..ModePlan::default()
    };
    for (pos, &(row, e)) in by_row.iter().enumerate() {
        if mp.rows.last() != Some(&row) {
            mp.rows.push(row);
            // lint:allow(narrowing_cast): `pos < nnz`, which `check_plan_bounds` bounded by u32
            mp.run_ptr.push(pos as u32);
        }
        mp.vals.push(tensor.value(e as usize));
        let others = tensor.index(e as usize).iter().enumerate();
        mp.cols
            .extend(others.filter(|&(k, _)| k != mode).map(|(_, &i)| i));
    }
    // lint:allow(narrowing_cast): `check_plan_bounds` bounded nnz by u32
    mp.run_ptr.push(nnz as u32);
    mp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::SparseTensorBuilder;
    use crate::mttkrp::{mttkrp, mttkrp_into};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_tensor(shape: &[usize], nnz: usize, rng: &mut impl Rng) -> SparseTensor {
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            b.push(&idx, rng.gen_range(-1.0..1.0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_naive_bitwise_all_modes() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let shape = [6, 5, 4];
        let t = random_tensor(&shape, 60, &mut rng);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect();
        let plan = MttkrpPlan::build(&t).unwrap();
        for mode in 0..3 {
            let naive = mttkrp(&t, &factors, mode).unwrap();
            let fast = plan.mttkrp(&factors, mode).unwrap();
            assert_eq!(
                fast.max_abs_diff(&naive).unwrap(),
                0.0,
                "mode {mode} not bitwise identical"
            );
        }
    }

    #[test]
    fn accumulates_like_naive_on_zeroed_buffers() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let shape = [5, 4, 3, 2];
        let t = random_tensor(&shape, 40, &mut rng);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 2, &mut rng))
            .collect();
        let plan = MttkrpPlan::build(&t).unwrap();
        for mode in 0..4 {
            let mut a = Matrix::zeros(shape[mode], 2);
            let mut b = Matrix::zeros(shape[mode], 2);
            mttkrp_into(&t, &factors, mode, &mut a).unwrap();
            plan.mttkrp_into(&factors, mode, &mut b).unwrap();
            assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0, "mode {mode}");
        }
    }

    #[test]
    fn oversized_factors_use_global_rows() {
        // Plans outlive snapshot growth: the same plan works after the
        // factors gain rows (global row space), exactly like the COO kernel.
        let mut b = SparseTensorBuilder::new(vec![2, 2]);
        b.push(&[1, 1], 2.0).unwrap();
        let t = b.build().unwrap();
        let plan = MttkrpPlan::build(&t).unwrap();
        let factors = vec![
            Matrix::random(4, 2, &mut ChaCha8Rng::seed_from_u64(1)),
            Matrix::random(5, 2, &mut ChaCha8Rng::seed_from_u64(2)),
        ];
        let fast = plan.mttkrp(&factors, 0).unwrap();
        let naive = mttkrp(&t, &factors, 0).unwrap();
        assert_eq!(fast.rows(), 4);
        assert_eq!(fast.max_abs_diff(&naive).unwrap(), 0.0);
    }

    #[test]
    fn empty_tensor_plan_is_a_noop() {
        let t = SparseTensor::empty(vec![3, 4]).unwrap();
        let plan = MttkrpPlan::build(&t).unwrap();
        assert_eq!(plan.nnz(), 0);
        let factors = vec![Matrix::zeros(3, 2), Matrix::zeros(4, 2)];
        let out = plan.mttkrp(&factors, 1).unwrap();
        assert_eq!(out.frob_norm_sq(), 0.0);
    }

    #[test]
    fn validation_errors() {
        let t = SparseTensor::empty(vec![3, 3]).unwrap();
        let plan = MttkrpPlan::build(&t).unwrap();
        let good = vec![Matrix::zeros(3, 2), Matrix::zeros(3, 2)];
        assert!(plan.mttkrp(&good, 2).is_err()); // bad mode
        let short = vec![Matrix::zeros(2, 2), Matrix::zeros(3, 2)];
        assert!(plan.mttkrp(&short, 0).is_err()); // too few rows
        let ragged = vec![Matrix::zeros(3, 2), Matrix::zeros(3, 3)];
        assert!(plan.mttkrp(&ragged, 0).is_err()); // rank mismatch
        assert!(plan.mttkrp(&good[..1], 0).is_err()); // wrong count
        let mut bad_out = Matrix::zeros(2, 2);
        assert!(plan.mttkrp_into(&good, 0, &mut bad_out).is_err());
    }

    #[test]
    fn plan_build_rejects_u32_overflow_shapes() {
        // Shape-only mock: `empty` allocates nothing per dimension, so the
        // guard is exercised without materialising 4B real entries.  The
        // check must fire before any per-mode work — `build_mode` would
        // otherwise attempt a 16 GiB counting buffer for this dimension.
        let huge = u32::MAX as usize + 1;
        let t = SparseTensor::empty(vec![huge, 2, 2]).unwrap();
        match MttkrpPlan::build(&t) {
            Err(TensorError::PlanOverflow { what, value }) => {
                assert_eq!(what, "shape dimension");
                assert_eq!(value, huge as u64);
            }
            other => panic!("expected PlanOverflow, got {other:?}"),
        }
        // The pooled build takes the same guard.
        let pool = ThreadPool::new(2);
        assert!(matches!(
            MttkrpPlan::build_with(&t, &pool),
            Err(TensorError::PlanOverflow { .. })
        ));
    }

    #[test]
    fn pooled_mttkrp_matches_serial_on_a_larger_tensor() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let shape = [40, 30, 20];
        let t = random_tensor(&shape, 2000, &mut rng);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 5, &mut rng))
            .collect();
        let plan = MttkrpPlan::build(&t).unwrap();
        for mode in 0..3 {
            let mut serial = Matrix::zeros(shape[mode], 5);
            plan.mttkrp_into(&factors, mode, &mut serial).unwrap();
            for threads in [2usize, 4] {
                let pool = ThreadPool::new(threads);
                let mut out = Matrix::zeros(shape[mode], 5);
                plan.mttkrp_into_pooled(&factors, mode, &mut out, &pool)
                    .unwrap();
                assert_eq!(
                    out.max_abs_diff(&serial).unwrap(),
                    0.0,
                    "mode {mode} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn layout_bytes_reports_heap_use() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let t = random_tensor(&[6, 6, 6], 50, &mut rng);
        let plan = MttkrpPlan::build(&t).unwrap();
        // 3 modes × (vals 8B + cols 2×4B) per entry is the floor.
        assert!(plan.layout_bytes() >= t.nnz() * 3 * 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coo::SparseTensorBuilder;
    use crate::mttkrp::mttkrp;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use serde::Serialize;
    use std::ops::Range;

    /// Random MTTKRP problem.
    #[derive(Debug, Clone)]
    struct Problem {
        /// Order 2–5.
        shape: Vec<usize>,
        entries: Vec<(Vec<usize>, f64)>,
        /// Per-mode extra factor rows (grown snapshot).
        extra: Vec<usize>,
        mode: usize,
        /// Factor seed.
        seed: u64,
        /// Entries stored as drawn — unsorted, coordinates repeated —
        /// instead of through the builder.
        stored: bool,
    }

    /// One mode in three is 40–160 rows long against at most 29 entries
    /// (`shape[mode] ≫ nnz`, runs of one entry), and no entries at all is
    /// a drawn case: both orderings of `build_mode` run, each also on
    /// inputs the size test would have sent to the other.
    fn problem_strategy() -> impl Strategy<Value = Problem> {
        let dim = (1usize..5, 0usize..3).prop_map(|(d, kind)| if kind == 0 { 40 * d } else { d });
        prop::collection::vec(dim, 2..6)
            .prop_flat_map(|shape| {
                let order = shape.len();
                let idx: Vec<Range<usize>> = shape.iter().map(|&s| 0..s).collect();
                (
                    Just(shape),
                    prop::collection::vec((idx, -2.0f64..2.0), 0..30),
                    prop::collection::vec(0usize..3, order..order + 1),
                    0usize..order,
                    (0u64..10_000, 0usize..2),
                )
            })
            .prop_map(|(shape, entries, extra, mode, (seed, stored))| Problem {
                shape,
                entries,
                extra,
                mode,
                seed,
                stored: stored == 1,
            })
    }

    /// A tensor holding `entries` exactly as given, through the one door
    /// that neither sorts nor merges.
    fn stored_as_given(shape: &[usize], entries: &[(Vec<usize>, f64)]) -> SparseTensor {
        let flat: Vec<usize> = entries.iter().flat_map(|(idx, _)| idx.clone()).collect();
        let values: Vec<f64> = entries.iter().map(|&(_, v)| v).collect();
        let doc = serde::Value::Object(vec![
            ("shape".to_string(), shape.to_vec().to_value()),
            ("indices".to_string(), flat.to_value()),
            ("values".to_string(), values.to_value()),
        ]);
        SparseTensor::try_from(&doc).unwrap()
    }

    fn build_problem(p: &Problem, rank: usize) -> (SparseTensor, Vec<Matrix>) {
        let t = if p.stored {
            stored_as_given(&p.shape, &p.entries)
        } else {
            let mut b = SparseTensorBuilder::new(p.shape.clone());
            for (idx, v) in &p.entries {
                b.push(idx, *v).unwrap();
            }
            b.build().unwrap()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
        let factors: Vec<Matrix> = p
            .shape
            .iter()
            .zip(&p.extra)
            .map(|(&s, &e)| Matrix::random(s + e, rank, &mut rng))
            .collect();
        (t, factors)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The layout kernel is bitwise identical to the COO kernel for
        /// random tensors of orders 2–5, any mode, and oversized factors.
        #[test]
        fn layout_matches_naive_exactly(p in problem_strategy()) {
            let (t, factors) = build_problem(&p, 2);
            let plan = MttkrpPlan::build(&t).unwrap();
            let naive = mttkrp(&t, &factors, p.mode).unwrap();
            let fast = plan.mttkrp(&factors, p.mode).unwrap();
            prop_assert_eq!(bits(&fast), bits(&naive));
        }

        /// The two orderings of `build_mode` produce the same tables
        /// whichever side of the size test the input falls on, and
        /// `mttkrp_into` adds to each touched row of a non-zero `out` the
        /// total it writes to a zeroed one — the association the
        /// distributed cell loop is defined by.
        #[test]
        fn build_orders_agree_and_runs_are_added_as_totals(p in problem_strategy()) {
            let (t, factors) = build_problem(&p, 2);
            for m in 0..t.order() {
                prop_assert_eq!(build_mode_counting(&t, m), build_mode_sorting(&t, m), "mode {}", m);
            }
            let fresh = mttkrp(&t, &factors, p.mode).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ 0xacc);
            let mut out = Matrix::random(fresh.rows(), 2, &mut rng);
            let expected: Vec<u64> = out
                .as_slice()
                .iter()
                .zip(fresh.as_slice())
                .map(|(o, f)| (o + f).to_bits())
                .collect();
            MttkrpPlan::build(&t).unwrap().mttkrp_into(&factors, p.mode, &mut out).unwrap();
            prop_assert_eq!(bits(&out), expected);
        }

        /// Pooled execution and the pooled build are bitwise identical to
        /// the serial kernel for every tested pool size, over random
        /// order-2..5 tensors, any mode, and oversized factors.
        #[test]
        fn pooled_matches_serial_for_every_thread_count(p in problem_strategy()) {
            let (t, factors) = build_problem(&p, 2);
            let mode = p.mode;
            let plan = MttkrpPlan::build(&t).unwrap();
            let mut serial = Matrix::zeros(factors[mode].rows(), 2);
            plan.mttkrp_into(&factors, mode, &mut serial).unwrap();
            for threads in [1usize, 2, 3, 8] {
                let pool = crate::pool::ThreadPool::new(threads);
                let par = MttkrpPlan::build_with(&t, &pool).unwrap();
                let mut out = Matrix::zeros(factors[mode].rows(), 2);
                par.mttkrp_into_pooled(&factors, mode, &mut out, &pool).unwrap();
                prop_assert_eq!(bits(&out), bits(&serial), "threads={}", threads);
            }
        }

        /// The rank dispatch is invisible: for every rank of the dispatch
        /// set, its neighbours on both sides and plain small ranks, the
        /// kernel as dispatched, the dynamic body driven directly, the
        /// pooled kernel at every tested pool size and the COO kernel
        /// agree bit for bit (order 5 and most ranks have no fixed body,
        /// so both sides of every dispatch edge are covered).
        #[test]
        fn rank_dispatch_matches_dynamic_body_and_naive_bitwise(p in problem_strategy()) {
            let mode = p.mode;
            let pools = [1usize, 2, 3, 8].map(crate::pool::ThreadPool::new);
            for rank in (1..=24).chain([32, 40]) {
                let (t, factors) = build_problem(&p, rank);
                let plan = MttkrpPlan::build(&t).unwrap();
                let naive = bits(&mttkrp(&t, &factors, mode).unwrap());
                prop_assert_eq!(&bits(&plan.mttkrp(&factors, mode).unwrap()), &naive, "rank={}", rank);

                let mp = &plan.modes[mode];
                let mut dynamic = Matrix::zeros(factors[mode].rows(), rank);
                accumulate_runs_dyn(
                    mp,
                    &factors,
                    mode,
                    p.shape.len() - 1,
                    rank,
                    0..mp.rows.len(),
                    &mut |row, acc| dynamic.row_mut(row).copy_from_slice(acc),
                );
                prop_assert_eq!(&bits(&dynamic), &naive, "dynamic body, rank={}", rank);

                for pool in &pools {
                    let mut out = Matrix::zeros(factors[mode].rows(), rank);
                    plan.mttkrp_into_pooled(&factors, mode, &mut out, pool).unwrap();
                    prop_assert_eq!(&bits(&out), &naive, "rank={} threads={}", rank, pool.threads());
                }
            }
        }

        /// A plan built before a snapshot grow stays exact when reused with
        /// the grown factor matrices (more global rows, same nonzeros).
        #[test]
        fn plan_reuse_after_grow_stays_exact(p in problem_strategy()) {
            let (t, factors) = build_problem(&p, 3);
            let mode = p.mode;
            let plan = MttkrpPlan::build(&t).unwrap();
            // First use, pre-grow.
            let before = plan.mttkrp(&factors, mode).unwrap();
            prop_assert_eq!(bits(&before), bits(&mttkrp(&t, &factors, mode).unwrap()));
            // Snapshot grows: every factor gains rows; the cell (and its
            // plan) is unchanged.
            let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ 0xdead_beef);
            let grown: Vec<Matrix> = factors
                .iter()
                .map(|f| f.vstack(&Matrix::random(2, f.cols(), &mut rng)).unwrap())
                .collect();
            let naive = mttkrp(&t, &grown, mode).unwrap();
            let fast = plan.mttkrp(&grown, mode).unwrap();
            prop_assert_eq!(bits(&fast), bits(&naive));
            prop_assert_eq!(fast.rows(), factors[mode].rows() + 2);
        }
    }
}
