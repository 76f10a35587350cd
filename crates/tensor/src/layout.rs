//! Cached mode-ordered MTTKRP execution plans (CSF-lite).
//!
//! The COO kernel in [`crate::mttkrp`] walks the nonzeros in stored order
//! and scatters an `R`-vector into `out[idx[mode], :]` per entry — for
//! every mode but the first a random-access write stream over the output.
//! [`MttkrpPlan`] trades one preprocessing pass for a per-mode layout in
//! **output-row order**: consecutive entries sharing an output row form a
//! **run**, and the kernel accumulates a register-resident `R`-vector
//! across the run and writes each output row exactly once.  Same-row
//! entries keep their stored order, so the per-row accumulation order, and
//! with it every bit, is the COO kernel's.
//!
//! A plan covers one grid cell of a tensor (the whole tensor is the
//! one-cell grid) and reads the tensor where it is:
//!
//! * the cell is a list of **stretches**: maximal ranges of the tensor's
//!   stored order whose entries share the cell and the mode-0 index — one
//!   per row and cell on a lexicographic tensor (one per fiber when the
//!   grid splits the last mode), more on an unsorted one;
//! * mode 0's layout is those stretches grouped by row, read in place from
//!   the tensor's index buffer at stride `order` (skipping index 0) and
//!   from its value buffer: 8 B per stretch and 12 B per row, no entry
//!   copied;
//! * every other mode copies its entries once, stably sorted by output row
//!   (a counting sort, or a comparison sort when the mode has far more rows
//!   than the cell has entries): the value and the `order − 1` other
//!   indices, `8 + 4·(order − 1)` B per entry, read at stride `order − 1`.
//!
//! So an order-3 plan holds 32 B per entry beside the tensor's own 20 B,
//! plus its run and stretch tables.  A stretch read in place costs its
//! cache lines whatever it holds, so mode 0 reads fastest where stretches
//! are long (a row per cell) and slowest where a grid's parts interleave a
//! later mode's indices (as MTP's parts do) and stretches shrink to an
//! entry or two.  A plan keeps the tensor's store alive through the
//! store's `Arc`s, not through a borrow.  It depends only on the sparsity
//! pattern — not on factor values or row counts — so one plan serves every
//! iteration, mode and factor snapshot of a step (including grown factor
//! matrices with extra rows).  The distributed driver builds one plan per
//! grid cell of a step's tensor ([`MttkrpPlan::cells`]) at every world;
//! world 1, the serial solver, is its one-cell grid.

use crate::coo::SparseTensor;
use crate::error::{Result, TensorError};
use crate::lanes::{for_fixed_lanes, lane_products};
use crate::matrix::Matrix;
use crate::pool::ThreadPool;
use std::ops::Range;

/// A maximal range `[start, end)` of a tensor's stored order whose entries
/// share one grid cell and one mode-0 index.
type Stretch = [u32; 2];

/// Where a mode's entries are read from.
#[derive(Debug, Clone, PartialEq)]
enum Entries {
    /// Mode 0, in the plan's tensor: stretch `j` is its stored entries
    /// `stretches[j][0]..stretches[j][1]`, and run `i` follows
    /// `entry_ptr[i]` entries of earlier runs.
    InPlace {
        stretches: Vec<Stretch>,
        entry_ptr: Vec<u32>,
    },
    /// Any other mode, copied in output-row order: the values, and per entry
    /// the other modes' indices in ascending mode order.
    Copied { vals: Vec<f64>, cols: Vec<u32> },
}

/// Execution layout for one mode: its runs, and where their entries are.
#[derive(Debug, Clone, PartialEq)]
struct ModePlan {
    /// Output row of each run (strictly increasing).
    rows: Vec<u32>,
    /// Run `i` is `run_ptr[i]..run_ptr[i + 1]`: stretches of an in-place
    /// mode, in stored order; entries of a copied one.
    run_ptr: Vec<u32>,
    entries: Entries,
}

/// A mode's entry buffers as the kernels read them: entry `e` has value
/// `vals[e]` and, past `skip` indices, its `order − 1` off-mode indices in
/// ascending mode order at `cols[e·(order − 1 + skip) + skip..]`.
#[derive(Clone, Copy)]
struct Columns<'a> {
    vals: &'a [f64],
    cols: &'a [u32],
    skip: usize,
}

impl ModePlan {
    /// Run `run`'s entries as `[start, end)` ranges of the mode's
    /// [`Columns`], in stored order: its stretches in place, or the one
    /// range of a copied mode's own buffers, written to `one`.
    fn run_ranges<'a>(&'a self, run: usize, one: &'a mut [Stretch; 1]) -> &'a [Stretch] {
        let (lo, hi) = (self.run_ptr[run], self.run_ptr[run + 1]);
        match &self.entries {
            Entries::Copied { .. } => {
                *one = [[lo, hi]];
                one
            }
            Entries::InPlace { stretches, .. } => &stretches[lo as usize..hi as usize],
        }
    }

    /// Entries before each run, and before the end: the run table of a
    /// copied mode.
    fn entry_ptr(&self) -> &[u32] {
        match &self.entries {
            Entries::Copied { .. } => &self.run_ptr,
            Entries::InPlace { entry_ptr, .. } => entry_ptr,
        }
    }

    /// The buffers the mode's entries are read from: `source`'s own, past
    /// index 0 of each stored tuple, for the in-place mode 0.
    fn columns<'a>(&'a self, source: &'a SparseTensor) -> Columns<'a> {
        match &self.entries {
            Entries::InPlace { .. } => Columns {
                vals: source.values(),
                cols: source.indices_flat(),
                skip: 1,
            },
            Entries::Copied { vals, cols } => Columns {
                vals,
                cols,
                skip: 0,
            },
        }
    }

    /// Heap bytes of the mode's tables (capacity accounting).
    fn bytes(&self) -> usize {
        let entries = match &self.entries {
            Entries::InPlace {
                stretches,
                entry_ptr,
            } => stretches.capacity() * 8 + entry_ptr.capacity() * 4,
            Entries::Copied { vals, cols } => vals.capacity() * 8 + cols.capacity() * 4,
        };
        (self.rows.capacity() + self.run_ptr.capacity()) * 4 + entries
    }
}

/// Reusable all-modes MTTKRP plan for one grid cell of a sparse tensor.
#[derive(Debug, Clone)]
pub struct MttkrpPlan {
    /// The tensor the cell is part of; mode 0 reads its buffers in place.
    source: SparseTensor,
    nnz: usize,
    modes: Vec<ModePlan>,
}

impl MttkrpPlan {
    /// Builds the plan of the whole tensor: its one-cell grid.
    ///
    /// # Errors
    /// Returns [`TensorError::PlanOverflow`] when the tensor's nnz or any
    /// shape dimension exceeds the layout's `u32` index space — entry
    /// positions and row ids would silently truncate.
    pub fn build(tensor: &SparseTensor) -> Result<Self> {
        let mut cells = Self::cells(tensor, 1, |_| 0)?;
        Ok(match cells.pop() {
            Some((_, plan)) => plan,
            None => Self::from_stretches(tensor, Vec::new()),
        })
    }

    /// One plan per non-empty cell of `tensor`, where `key(tuple)` names an
    /// entry's cell, below `n_cells`: `(cell, plan)` pairs in ascending cell
    /// order.  Two passes over the stored order find each cell's stretches —
    /// one counts them, one lists them, so every list is allocated at its
    /// length — and each cell's layout is then built from its list, which
    /// becomes mode 0's table.  No cell's entries are copied out of
    /// `tensor` first.  `key` is read twice per entry, so it must depend on
    /// the tuple alone.
    ///
    /// # Errors
    /// Same as [`build`](MttkrpPlan::build).
    ///
    /// # Panics
    /// When `key` names a cell that is not below `n_cells`.
    pub fn cells(
        tensor: &SparseTensor,
        n_cells: usize,
        mut key: impl FnMut(&[u32]) -> usize,
    ) -> Result<Vec<(usize, MttkrpPlan)>> {
        check_plan_bounds(tensor)?;
        let _span = dismastd_obs::span("kernel/plan_build");
        let mut counts = vec![0usize; n_cells];
        for_each_stretch(tensor, &mut key, |cell, _| counts[cell] += 1);
        let mut lists: Vec<Vec<Stretch>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        for_each_stretch(tensor, &mut key, |cell, stretch| lists[cell].push(stretch));
        Ok(lists
            .into_iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(cell, list)| (cell, Self::from_stretches(tensor, list)))
            .collect())
    }

    /// The plan of the cell of `source` whose stretches, in stored order,
    /// are `stretches`: the copied modes are built by walking them, then
    /// the list becomes mode 0's table.
    fn from_stretches(source: &SparseTensor, stretches: Vec<Stretch>) -> Self {
        let nnz = stretches.iter().map(|&[a, b]| (b - a) as usize).sum();
        let copied = build_copied(source, &stretches, nnz);
        let modes = std::iter::once(mode_in_place(source, stretches))
            .chain(copied)
            .collect();
        MttkrpPlan {
            source: source.clone(),
            nnz,
            modes,
        }
    }

    /// Shape of the tensor the plan was built from.
    pub fn shape(&self) -> &[usize] {
        self.source.shape()
    }

    /// Nonzeros covered by the plan.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.source.order()
    }

    /// The mode-`mode` rows some nonzero references, strictly increasing:
    /// the only rows [`mttkrp_into`](Self::mttkrp_into) writes.
    ///
    /// # Panics
    /// When `mode` is not below the plan's order.
    pub fn touched_rows(&self, mode: usize) -> &[u32] {
        &self.modes[mode].rows
    }

    /// Heap bytes held by the plan's own tables (capacity accounting): the
    /// tensor it reads in place is not counted.
    pub fn layout_bytes(&self) -> usize {
        self.modes.iter().map(ModePlan::bytes).sum()
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
    /// [`crate::mttkrp::mttkrp_into`] over the cell's entries: each row
    /// sums its entries in stored order and the factor product is formed in
    /// the same ascending mode order.  Onto a non-zero `out` a row becomes
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
        let km = self.order() - 1;
        let mp = &self.modes[mode];
        let src = mp.columns(&self.source);
        accumulate_runs(
            mp,
            src,
            factors,
            mode,
            km,
            r,
            0..mp.rows.len(),
            |row, acc| {
                let dst = out.row_mut(row);
                for (d, &a) in dst.iter_mut().zip(acc) {
                    *d += a;
                }
            },
        );
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
        let km = self.order() - 1;
        let mp = &self.modes[mode];
        let src = mp.columns(&self.source);
        let n_chunks = (pool.threads() * CHUNKS_PER_THREAD).min(n_runs);
        let stride = out.cols();
        let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        // The dynamic body's scratch for every chunk, in the two allocations
        // a single-lane call makes: chunk `c` owns the `c`-th `R` lanes of
        // each.  A fixed body needs none.
        let dynamic = !has_fixed_body(r, km);
        let lanes = if dynamic { r * n_chunks } else { 0 };
        // lint:allow(alloc_hygiene): one bounded scratch pair per kernel call, shared by its chunks
        let (mut accs, mut prods) = (vec![0.0; lanes], vec![0.0; lanes]);
        let (accs, prods) = (SendPtr(accs.as_mut_ptr()), SendPtr(prods.as_mut_ptr()));
        pool.run(n_chunks, &|c| {
            let (out_ptr, accs, prods) = (out_ptr, accs, prods);
            let runs = chunk_bound(mp, n_chunks, c)..chunk_bound(mp, n_chunks, c + 1);
            let write = |row: usize, acc: &[f64]| {
                // Safety: runs are row-disjoint and chunks partition the
                // run list, so no two chunks touch the same output row;
                // `row < out.rows()` is guaranteed by `check_factors`.
                let dst = unsafe { std::slice::from_raw_parts_mut(out_ptr.0.add(row * stride), r) };
                for (d, &a) in dst.iter_mut().zip(acc) {
                    *d += a;
                }
            };
            if dynamic {
                // Safety: both buffers hold `r · n_chunks` lanes and outlive
                // `pool.run`; `c < n_chunks`, and chunk `c` alone touches
                // lanes `c·r .. (c+1)·r` of each.
                let own = |p: SendPtr| unsafe { std::slice::from_raw_parts_mut(p.0.add(c * r), r) };
                accumulate_runs_dyn(mp, src, factors, mode, runs, own(accs), own(prods), write);
            } else {
                accumulate_runs(mp, src, factors, mode, km, r, runs, write);
            }
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
            if f.rows() < self.shape()[k] {
                return Err(TensorError::shape_mismatch(
                    "MttkrpPlan factor rows",
                    &[self.shape()[k]],
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

/// Raw pointer into a buffer the pooled kernel's chunks share: the output
/// (chunks write disjoint rows — runs are row-disjoint and chunks
/// partition the run list) or the dynamic body's per-chunk scratch, so
/// sharing it across pool threads is race-free.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);

unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Rejects tensors whose layout tables would truncate through the `u32`
/// casts of the build.  Must run before any per-mode allocation: an
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

/// Calls `visit(cell, stretch)` for every stretch of `tensor`, in stored
/// order, where `key(tuple)` names an entry's cell.
fn for_each_stretch(
    tensor: &SparseTensor,
    key: &mut impl FnMut(&[u32]) -> usize,
    mut visit: impl FnMut(usize, Stretch),
) {
    // The stretch being extended: its cell, mode-0 index and start.
    let mut open: Option<(usize, u32, u32)> = None;
    let tuples = tensor.indices_flat().chunks_exact(tensor.order());
    for (e, tuple) in (0u32..).zip(tuples) {
        let cell = key(tuple);
        match open {
            Some((c, row, _)) if c == cell && row == tuple[0] => {}
            _ => {
                if let Some((c, _, start)) = open {
                    visit(c, [start, e]);
                }
                open = Some((cell, tuple[0], e));
            }
        }
    }
    if let Some((c, _, start)) = open {
        // lint:allow(narrowing_cast): `check_plan_bounds` bounded nnz by u32
        visit(c, [start, tensor.nnz() as u32]);
    }
}

/// Runs the per-run accumulation loop over `runs`, handing each finished
/// `R`-vector to `write` with its output row.
///
/// This is the single entry shared by the serial, pooled and per-cell
/// distributed call sites, for a copied mode and the in-place mode 0
/// alike (they differ in `src` only).  A rank and order in the dispatch
/// set of [`for_fixed_lanes!`] take the register-resident
/// [`accumulate_runs_fixed`] body, everything else the dynamic
/// [`accumulate_runs_dyn`] loop.  Both form the factor product
/// left-to-right in ascending mode order and add entries to their row's
/// accumulator in stored order, so every partial is bit-identical to the
/// COO kernel's multi-pass version no matter which body, execution path or
/// chunk drives the loop.
#[allow(clippy::too_many_arguments)] // the loop's inputs, passed once per call
fn accumulate_runs(
    mp: &ModePlan,
    src: Columns<'_>,
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
        accumulate_runs_fixed(mp, src, factors, mode, runs, &mut write),
        else dyn_with_own_scratch(mp, src, factors, mode, r, runs, &mut write)
    );
}

/// Whether [`for_fixed_lanes!`] dispatches rank `r` over `km` off-mode
/// factors to a fixed-width body.
fn has_fixed_body(r: usize, km: usize) -> bool {
    fn fixed<const R: usize, const K: usize>() -> bool {
        true
    }
    for_fixed_lanes!(r, km, fixed(), else false)
}

/// [`accumulate_runs_dyn`] with its bounded scratch pair allocated for
/// this call and reused across every run.
fn dyn_with_own_scratch(
    mp: &ModePlan,
    src: Columns<'_>,
    factors: &[Matrix],
    mode: usize,
    r: usize,
    runs: Range<usize>,
    write: impl FnMut(usize, &[f64]),
) {
    // lint:allow(alloc_hygiene): one bounded scratch pair per kernel call, amortised over all runs
    let (mut acc, mut prod) = (vec![0.0f64; r], vec![0.0f64; r]);
    accumulate_runs_dyn(mp, src, factors, mode, runs, &mut acc, &mut prod, write);
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
    src: Columns<'_>,
    factors: &[Matrix],
    mode: usize,
    runs: Range<usize>,
    write: &mut impl FnMut(usize, &[f64]),
) {
    let offs: [&Matrix; K] = std::array::from_fn(|j| off_mode(factors, mode, j));
    for run in runs {
        // The skip, and with it the stride, as compile-time constants: the
        // in-place mode 0 skips index 0 of each stored tuple, a copied mode
        // none.
        let total = match src.skip {
            0 => run_total::<R, K, 0>(mp, src, &offs, run),
            _ => run_total::<R, K, 1>(mp, src, &offs, run),
        };
        match total {
            Some(acc) => write(mp.rows[run] as usize, &acc),
            // A factor row that is not `R` wide.  `check_factors` rules it
            // out; the dynamic body handles any width, so hand it the run
            // rather than carry a panic path.
            None => dyn_with_own_scratch(mp, src, factors, mode, R, run..run + 1, &mut *write),
        }
    }
}

/// Sum over run `run`'s entries of `v · ⊛_{k≠mode} A_k[i_k, :]`, entries
/// in stored order, reading `src` at stride `K + SKIP` past `SKIP` indices
/// (`src.skip` is `SKIP`); `None` when a factor row is not `R` wide.
#[inline(always)]
fn run_total<const R: usize, const K: usize, const SKIP: usize>(
    mp: &ModePlan,
    src: Columns<'_>,
    offs: &[&Matrix; K],
    run: usize,
) -> Option<[f64; R]> {
    let stride = K + SKIP;
    debug_assert_eq!(src.skip, SKIP);
    let mut acc = [0.0f64; R];
    let mut one = [[0; 2]];
    for &[start, end] in mp.run_ranges(run, &mut one) {
        let (start, end) = (start as usize, end as usize);
        let vals = &src.vals[start..end];
        let cols = &src.cols[stride * start..stride * end];
        for (&v, cols) in vals.iter().zip(cols.chunks_exact(stride)) {
            let rows = std::array::from_fn(|j| offs[j].row(cols[SKIP + j] as usize));
            let lanes = lane_products::<R, K>(v, rows)?;
            for (s, &p) in acc.iter_mut().zip(&lanes) {
                *s += p;
            }
        }
    }
    Some(acc)
}

/// Dynamic body: the fallback for every rank and order outside the
/// dispatch set, summing a run's `R` lanes in `acc` and, past three
/// off-mode factors, an entry's lane products in `prod`.
#[allow(clippy::too_many_arguments)] // the loop's inputs and its two scratch lanes
fn accumulate_runs_dyn(
    mp: &ModePlan,
    src: Columns<'_>,
    factors: &[Matrix],
    mode: usize,
    runs: Range<usize>,
    acc: &mut [f64],
    prod: &mut [f64],
    mut write: impl FnMut(usize, &[f64]),
) {
    let off = |j: usize| off_mode(factors, mode, j);
    let km = factors.len() - 1;
    // Entry `e`'s `j`-th off-mode index.
    let stride = km + src.skip;
    let col = |e: usize, j: usize| src.cols[stride * e + src.skip + j] as usize;
    let mut one = [[0; 2]];
    for run in runs {
        acc.fill(0.0);
        for &[start, end] in mp.run_ranges(run, &mut one) {
            let entries = start as usize..end as usize;
            match km {
                1 => {
                    let f0 = off(0);
                    for e in entries {
                        let v = src.vals[e];
                        for (s, &av) in acc.iter_mut().zip(f0.row(col(e, 0))) {
                            *s += v * av;
                        }
                    }
                }
                2 => {
                    let (f0, f1) = (off(0), off(1));
                    for e in entries {
                        let v = src.vals[e];
                        let (a, b) = (f0.row(col(e, 0)), f1.row(col(e, 1)));
                        for ((s, &av), &bv) in acc.iter_mut().zip(a).zip(b) {
                            *s += v * av * bv;
                        }
                    }
                }
                3 => {
                    let (f0, f1, f2) = (off(0), off(1), off(2));
                    for e in entries {
                        let v = src.vals[e];
                        let (a, b) = (f0.row(col(e, 0)), f1.row(col(e, 1)));
                        let c = f2.row(col(e, 2));
                        for (((s, &av), &bv), &cv) in acc.iter_mut().zip(a).zip(b).zip(c) {
                            *s += v * av * bv * cv;
                        }
                    }
                }
                _ => {
                    for e in entries {
                        prod.fill(src.vals[e]);
                        for j in 0..km {
                            for (p, &a) in prod.iter_mut().zip(off(j).row(col(e, j))) {
                                *p *= a;
                            }
                        }
                        for (s, &p) in acc.iter_mut().zip(&*prod) {
                            *s += p;
                        }
                    }
                }
            }
        }
        write(mp.rows[run] as usize, acc);
    }
}

/// Entry-balanced chunk boundary `c` of `n_chunks` over the run list: the
/// first run whose end passes entry `c·nnz/n_chunks`, so a few heavy runs
/// do not pile into one chunk (boundary `0` is run 0, boundary `n_chunks`
/// the end).  Purely a function of the layout — the same boundaries for
/// every pool size and execution order — and non-decreasing in `c`.
fn chunk_bound(mp: &ModePlan, n_chunks: usize, c: usize) -> usize {
    let n_runs = mp.rows.len();
    if c == 0 || c >= n_chunks {
        return if c == 0 { 0 } else { n_runs };
    }
    let entry_ptr = mp.entry_ptr();
    let total = u64::from(entry_ptr[n_runs]);
    // lint:allow(narrowing_cast): `c < n_chunks`, so the quotient is below `total`, itself a u32
    let target = (total * c as u64 / n_chunks as u64) as u32;
    entry_ptr[1..=n_runs].partition_point(|&p| p <= target)
}

/// Rows per entry above which a mode is ordered by comparison sort: the
/// counting sort's tables are `shape[mode]` long whatever the cell holds,
/// so a grid of many thin cells over long modes would pay
/// O(cells × Σ shape) for them (`fig6`'s 38³ cells).
const SPARSE_ROWS_PER_ENTRY: usize = 2;

/// Calls `visit(e)` for each of a cell's entries in stored order, `e` its
/// position in the tensor.  A loop per stretch: a flattening iterator
/// costs the builds a third more.
fn for_each_entry(stretches: &[Stretch], mut visit: impl FnMut(usize)) {
    for &[start, end] in stretches {
        for e in start as usize..end as usize {
            visit(e);
        }
    }
}

/// Distinct rows of `(row, position)` pairs sorted by row.
fn distinct_rows(sorted: &[(u32, u32)]) -> usize {
    let breaks = sorted.windows(2).filter(|w| w[0].0 != w[1].0).count();
    usize::from(!sorted.is_empty()) + breaks
}

/// Mode 0's layout: the stretches grouped by row, each row's in stored
/// order, read in place.  The stretch list becomes the layout's table; a
/// lexicographic cell's is in row order already, and any other is sorted
/// where it is.
fn mode_in_place(source: &SparseTensor, mut stretches: Vec<Stretch>) -> ModePlan {
    let row = |s: &Stretch| source.index(s[0] as usize)[0];
    // Starts are unique, so the `(row, start)` order keeps each row's
    // stretches in stored order.
    if stretches.windows(2).any(|w| row(&w[0]) > row(&w[1])) {
        stretches.sort_unstable_by_key(|s| (row(s), s[0]));
    }
    let runs = usize::from(!stretches.is_empty())
        + stretches
            .windows(2)
            .filter(|w| row(&w[0]) != row(&w[1]))
            .count();
    let mut rows = Vec::with_capacity(runs);
    let mut run_ptr = Vec::with_capacity(runs + 1);
    let mut entry_ptr = Vec::with_capacity(runs + 1);
    let mut entries = 0;
    for (j, s) in (0u32..).zip(&stretches) {
        if rows.last() != Some(&row(s)) {
            rows.push(row(s));
            run_ptr.push(j);
            entry_ptr.push(entries);
        }
        entries += s[1] - s[0];
    }
    // lint:allow(narrowing_cast): a stretch holds an entry, and `check_plan_bounds` bounded nnz by u32
    run_ptr.push(stretches.len() as u32);
    entry_ptr.push(entries);
    ModePlan {
        rows,
        run_ptr,
        entries: Entries::InPlace {
            stretches,
            entry_ptr,
        },
    }
}

/// Every copied mode's layout (modes `1..order`): the cell's entries in
/// stable output-row order, flattened into the run/column tables.  A mode
/// with far more rows than the cell has entries is ordered by comparison
/// sort; the others by counting sort, all together in one counting and
/// one scatter walk over the cell's entries — on a grid that splits later
/// modes those lie scattered through the tensor, so walks cost more than
/// the arithmetic.  Both orderings produce the same [`ModePlan`]; which
/// one runs is a cost decision read off the input.
fn build_copied(source: &SparseTensor, stretches: &[Stretch], nnz: usize) -> Vec<ModePlan> {
    let sparse = |m: usize| source.shape()[m] > SPARSE_ROWS_PER_ENTRY.saturating_mul(nnz);
    let counted: Vec<usize> = (1..source.order()).filter(|&m| !sparse(m)).collect();
    let mut by_counting = build_counting(source, stretches, nnz, &counted).into_iter();
    (1..source.order())
        .filter_map(|m| {
            if sparse(m) {
                Some(build_mode_sorting(source, stretches, nnz, m))
            } else {
                by_counting.next()
            }
        })
        .collect()
}

/// Writes the index tuple's indices other than `mode`'s into `cols`.
fn copy_others(cols: &mut [u32], tuple: &[u32], mode: usize) {
    let others = tuple.iter().enumerate().filter(|&(k, _)| k != mode);
    for (c, (_, &i)) in cols.iter_mut().zip(others) {
        *c = i;
    }
}

/// The layouts of `modes` by stable counting sort over all their rows:
/// O(nnz + Σ shape[mode]) time and scratch, two walks over the entries
/// whatever the number of modes.
fn build_counting(
    source: &SparseTensor,
    stretches: &[Stretch],
    nnz: usize,
    modes: &[usize],
) -> Vec<ModePlan> {
    let km = source.order() - 1;
    // Per mode, `ends[row + 1]` counts the row's entries, then (prefix
    // sums) `ends[row]..ends[row + 1]` is its range.
    let mut ends: Vec<Vec<u32>> = modes
        .iter()
        .map(|&m| vec![0u32; source.shape()[m] + 1])
        .collect();
    for_each_entry(stretches, |e| {
        let tuple = source.index(e);
        for (ends, &m) in ends.iter_mut().zip(modes) {
            ends[tuple[m] as usize + 1] += 1;
        }
    });
    for ends in &mut ends {
        for row in 1..ends.len() {
            ends[row] += ends[row - 1];
        }
    }
    let mut cursors: Vec<Vec<u32>> = ends.iter().map(|e| e[..e.len() - 1].to_vec()).collect();
    let mut tables: Vec<(Vec<f64>, Vec<u32>)> = modes
        .iter()
        .map(|_| (vec![0.0f64; nnz], vec![0u32; nnz * km]))
        .collect();
    for_each_entry(stretches, |e| {
        let (tuple, v) = (source.index(e), source.value(e));
        let per_mode = cursors.iter_mut().zip(&mut tables).zip(modes);
        for ((cursor, (vals, cols)), &m) in per_mode {
            let row = tuple[m] as usize;
            let pos = cursor[row] as usize;
            cursor[row] += 1;
            vals[pos] = v;
            copy_others(&mut cols[pos * km..(pos + 1) * km], tuple, m);
        }
    });
    // Compress non-empty rows into runs.
    ends.iter()
        .zip(tables)
        .map(|(ends, (vals, cols))| {
            let populated = ends.windows(2).filter(|w| w[1] > w[0]).count();
            let mut rows = Vec::with_capacity(populated);
            let mut run_ptr = Vec::with_capacity(populated + 1);
            run_ptr.push(0);
            for (row, w) in (0u32..).zip(ends.windows(2)) {
                if w[1] > w[0] {
                    rows.push(row);
                    run_ptr.push(w[1]);
                }
            }
            ModePlan {
                rows,
                run_ptr,
                entries: Entries::Copied { vals, cols },
            }
        })
        .collect()
}

/// One copied mode's layout by sorting `(coordinate, position)` pairs: O(nnz log nnz)
/// time and O(nnz) scratch, whatever `shape[mode]` is.  Positions are
/// unique and ascend in stored order, so the unstable sort yields the
/// stable order.
fn build_mode_sorting(
    source: &SparseTensor,
    stretches: &[Stretch],
    nnz: usize,
    mode: usize,
) -> ModePlan {
    let km = source.order() - 1;
    let mut by_row: Vec<(u32, u32)> = Vec::with_capacity(nnz);
    for_each_entry(stretches, |e| {
        // lint:allow(narrowing_cast): `e < nnz`, which `check_plan_bounds` bounded by u32
        by_row.push((source.index(e)[mode], e as u32));
    });
    by_row.sort_unstable();
    let runs = distinct_rows(&by_row);
    let (mut rows, mut run_ptr) = (Vec::with_capacity(runs), Vec::with_capacity(runs + 1));
    let mut vals = vec![0.0f64; nnz];
    let mut cols = vec![0u32; nnz * km];
    for (pos, &(row, e)) in (0u32..).zip(&by_row) {
        if rows.last() != Some(&row) {
            rows.push(row);
            run_ptr.push(pos);
        }
        let at = pos as usize;
        vals[at] = source.value(e as usize);
        copy_others(
            &mut cols[at * km..(at + 1) * km],
            source.index(e as usize),
            mode,
        );
    }
    // lint:allow(narrowing_cast): `check_plan_bounds` bounded nnz by u32
    run_ptr.push(nnz as u32);
    ModePlan {
        rows,
        run_ptr,
        entries: Entries::Copied { vals, cols },
    }
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
        assert!(out.as_slice().iter().all(|&a| a == 0.0));
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
        // check must fire before any per-mode work — `build_counting` would
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
        // The per-cell build takes the same guard, before any key is read.
        assert!(matches!(
            MttkrpPlan::cells(&t, 1, |_| unreachable!("no entry to key")),
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
        // Modes 1 and 2 copy (vals 8 B + cols 2×4 B) per entry: the floor.
        // Mode 0 reads the tensor in place, so a third copy is not there:
        // on a lexicographic tensor its table is one stretch per row.
        assert!(plan.layout_bytes() >= t.nnz() * 2 * 16);
        assert!(plan.layout_bytes() < t.nnz() * 3 * 16);
        let rows = plan.touched_rows(0).len();
        let tables = |m: usize| plan.touched_rows(m).len() * 8 + 4;
        assert_eq!(
            plan.layout_bytes(),
            t.nnz() * 2 * 16 + tables(1) + tables(2) + tables(0) + rows * 12 + 4,
            "copies, run tables, and per row one 8-byte stretch and its entry count"
        );
    }

    #[test]
    fn a_plan_keeps_its_tensor_alive_and_reads_it_in_place() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let t = random_tensor(&[7, 5, 4], 60, &mut rng);
        let factors: Vec<Matrix> = t
            .shape()
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect();
        let want = mttkrp(&t, &factors, 0).unwrap();
        let plan = MttkrpPlan::build(&t).unwrap();
        drop(t);
        assert_eq!(
            plan.mttkrp(&factors, 0)
                .unwrap()
                .max_abs_diff(&want)
                .unwrap(),
            0.0
        );
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
    /// a drawn case: both orderings of `build_copied` run, each also on
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

        /// The two orderings of `build_copied` produce the same tables
        /// whichever side of the size test the input falls on (the
        /// counting sort of every copied mode together, or of one), and
        /// `mttkrp_into` adds to each touched row of a non-zero `out` the
        /// total it writes to a zeroed one — the association the
        /// distributed cell loop is defined by.
        #[test]
        fn build_orders_agree_and_runs_are_added_as_totals(p in problem_strategy()) {
            let (t, factors) = build_problem(&p, 2);
            // lint:allow(narrowing_cast): a drawn tensor holds at most 29 entries
            let singles: Vec<Stretch> = (0..t.nnz() as u32).map(|e| [e, e + 1]).collect();
            let copied: Vec<usize> = (1..t.order()).collect();
            let sorted: Vec<ModePlan> = copied
                .iter()
                .map(|&m| build_mode_sorting(&t, &singles, t.nnz(), m))
                .collect();
            prop_assert_eq!(&build_counting(&t, &singles, t.nnz(), &copied), &sorted);
            for (k, &m) in copied.iter().enumerate() {
                prop_assert_eq!(
                    &build_counting(&t, &singles, t.nnz(), &[m])[0],
                    &sorted[k],
                    "mode {}", m
                );
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

        /// Pooled execution is bitwise identical to the serial kernel for
        /// every tested pool size, over random order-2..5 tensors, any
        /// mode, and oversized factors.
        #[test]
        fn pooled_matches_serial_for_every_thread_count(p in problem_strategy()) {
            let (t, factors) = build_problem(&p, 2);
            let mode = p.mode;
            let plan = MttkrpPlan::build(&t).unwrap();
            let mut serial = Matrix::zeros(factors[mode].rows(), 2);
            plan.mttkrp_into(&factors, mode, &mut serial).unwrap();
            for threads in [1usize, 2, 3, 8] {
                let pool = crate::pool::ThreadPool::new(threads);
                let mut out = Matrix::zeros(factors[mode].rows(), 2);
                plan.mttkrp_into_pooled(&factors, mode, &mut out, &pool).unwrap();
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
                dyn_with_own_scratch(
                    mp,
                    mp.columns(&plan.source),
                    &factors,
                    mode,
                    rank,
                    0..mp.rows.len(),
                    |row, acc| dynamic.row_mut(row).copy_from_slice(acc),
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
