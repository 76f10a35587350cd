//! The factor-hash harness: the identity evidence a PR shows for "which
//! bits moved" (ROADMAP ground rules), and the routing audit that ties the
//! bytes a distributed step ships to its row ownership.
//!
//! **Identity** ([`identity_lines`]): one line per (dataset, rank, mode)
//! over a four-snapshot stream, mode ∈ {serial, worlds 1–4}, each an FNV-1a
//! fold of every step's factor bits and of every step's `loss_trace` bits.
//! The stream is driven the way `StreamingSession::ingest` drives it — cold
//! start over the first snapshot with zero-row history, then DTD over each
//! complement with the previous step's factors — through the public
//! solvers, so the loss of every iteration is visible, not only a step's
//! last.  Thread policy stays `Auto`, so `DISMASTD_THREADS` applies: the
//! output must not depend on it, nor on which run produced it.  Serial and
//! world-1 lines are pinned as goldens by this module's test.
//!
//! **Routing** ([`routing_lines`]): for each benchmark workload at worlds 2
//! and 4, per step, the rows one mode-iteration routes under the grid's
//! ownership, the lower bound `Σ_rows (referencing workers − 1)` any
//! ownership of that placement admits, and the largest per-rank share of
//! owned rows — all three from `SparseTensor::iter`, `GridPartition::
//! worker_of` and `GridPartition::row_owner` alone — then the rows every
//! candidate worker grid of that world would route, placed by this module's
//! own block map, which of them the placement is and where it ranks, and
//! last what those counts and the schedule predict for the step — bytes in
//! all, bytes per sending rank, and collectives — against what `CommStats`
//! counted.  The step line also counts the rows ranks 1… gather to rank 0
//! and the owned rows they skip because rank 0 forms them (old rows no
//! nonzero references) or holds them (rows it reads, in a mode below the
//! last).  A per-(workload, world) line totals each candidate's routed
//! rows and the skipped rows over the stream.  Ahead of a workload's lines
//! a `generated` line pins the generator at full scale: an FNV-1a fold of
//! the generated tensor's coordinates and value bits, and each snapshot's
//! nnz, then a `plan_bytes` line: per nonzero, what a cold step's MTTKRP
//! plans hold at worlds 1, 2 and 4, against an exact model of them and a
//! mode-agnostic layout's size (see [`plan_bytes`]).  After them a
//! `resident_read` line counts, per step of one serial session over the
//! stream, the snapshot entries `ingest` read before and after the solve,
//! and hashes every step's fit.

use dismastd_core::{decompose, dtd, ClusterConfig, DecompConfig, ExecutionMode, StreamingSession};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_partition::GridPartition;
use dismastd_tensor::{Matrix, MttkrpPlan, Result, SparseTensor};

/// Dataset scale of the identity stream: small enough for a debug-build
/// test, large enough that every world has populated cells in every mode.
const IDENTITY_SCALE: f64 = 0.12;
/// The last four of the paper's six snapshot fractions.
const IDENTITY_FRACTIONS: [f64; 4] = [0.85, 0.90, 0.95, 1.00];
const RANKS: [usize; 3] = [3, 5, 10];
const MAX_WORLD: usize = 4;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn floats(&mut self, values: &[f64]) {
        values.iter().for_each(|v| self.word(v.to_bits()));
    }
}

/// Runs `stream` through `step`, handing it each snapshot's complement
/// against the previous shape and the previous factors (zero-row history on
/// the cold start); `step` returns the snapshot's factors.
fn drive(
    stream: &StreamSequence,
    rank: usize,
    mut step: impl FnMut(&SparseTensor, &[Matrix]) -> Result<Vec<Matrix>>,
) -> Result<()> {
    let order = stream.snapshot(0).order();
    let mut old: Vec<Matrix> = (0..order).map(|_| Matrix::zeros(0, rank)).collect();
    let mut old_shape = vec![0usize; order];
    for snapshot in stream.iter() {
        let work = snapshot.complement(&old_shape)?;
        old = step(&work, &old)?;
        old_shape = snapshot.shape().to_vec();
    }
    Ok(())
}

/// The identity lines for `worlds` (`None` = the serial solver), all
/// datasets and ranks, in a fixed order.
///
/// # Errors
/// Propagates generator and solver errors.
pub fn identity_lines(worlds: &[Option<usize>]) -> Result<Vec<String>> {
    let mut lines = Vec::new();
    for (spec, stream) in identity_streams()? {
        for rank in RANKS {
            let cfg = DecompConfig::default().with_rank(rank);
            for &world in worlds {
                let (mut factors, mut losses) = (Fnv::new(), Fnv::new());
                drive(&stream, rank, |work, old| {
                    let out = match world {
                        None => dtd(work, old, &cfg)?,
                        Some(world) => decompose(work, old, &cfg, &ClusterConfig::new(world))?,
                    };
                    let (kruskal, loss_trace) = (out.kruskal, out.loss_trace);
                    kruskal
                        .factors()
                        .iter()
                        .for_each(|f| factors.floats(f.as_slice()));
                    losses.floats(&loss_trace);
                    Ok(kruskal.factors().to_vec())
                })?;
                lines.push(format!(
                    "{:<9} R={rank:<2} {:<6} factors={:016x} loss_trace={:016x}",
                    spec.name,
                    world.map_or("serial".into(), |w| format!("world{w}")),
                    factors.0,
                    losses.0
                ));
            }
        }
    }
    Ok(lines)
}

/// The identity datasets, each cut into its four-snapshot stream.
fn identity_streams() -> Result<Vec<(DatasetSpec, StreamSequence)>> {
    [
        DatasetSpec::clothing(IDENTITY_SCALE),
        DatasetSpec::netflix(IDENTITY_SCALE),
        DatasetSpec::synthetic(IDENTITY_SCALE),
    ]
    .into_iter()
    .map(|spec| {
        let stream = StreamSequence::cut(&spec.generate()?, &IDENTITY_FRACTIONS)?;
        Ok((spec, stream))
    })
    .collect()
}

/// One line per identity dataset: the old rows, summed over the stream's
/// steps and modes, that no complement nonzero references — the rows the
/// solvers write from a per-mode map instead of solving them each
/// iteration.  Counted from the nonzeros alone, not by the solvers: a
/// zero Clothing total means the identity lines no longer exercise that
/// path (`scripts/check.sh` refuses it).
///
/// # Errors
/// Propagates generator errors.
pub fn untouched_lines() -> Result<Vec<String>> {
    let mut lines = Vec::new();
    for (spec, stream) in identity_streams()? {
        let mut old_shape = vec![0usize; stream.snapshot(0).order()];
        let mut total = 0;
        for snapshot in stream.iter() {
            let work = snapshot.complement(&old_shape)?;
            for (n, &old) in old_shape.iter().enumerate() {
                let mut referenced = vec![false; old];
                for (idx, _) in work.iter() {
                    if let Some(hit) = referenced.get_mut(idx[n] as usize) {
                        *hit = true;
                    }
                }
                total += referenced.iter().filter(|&&hit| !hit).count();
            }
            old_shape = snapshot.shape().to_vec();
        }
        lines.push(format!("{:<9} untouched_rows={total}", spec.name));
    }
    Ok(lines)
}

/// Serial and worlds 1–4: the full identity matrix.
pub fn all_modes() -> Vec<Option<usize>> {
    std::iter::once(None)
        .chain((1..=MAX_WORLD).map(Some))
        .collect()
}

/// Row routing of one placement, counted from the nonzeros.
struct Routing {
    /// Per mode, Σ over rows of the referencing workers other than the
    /// row's owner: the rows one mode-iteration's partials exchange carries
    /// (and its refresh exchange carries back).
    routed: Vec<u64>,
    /// Σ over modes and referenced rows of (referencing workers − 1).
    bound: u64,
    /// Rows of all modes owned by each rank.
    owned: Vec<u64>,
    /// Owned rows each rank ships in the gather: none from rank 0; from
    /// the others every owned row but the old ones no nonzero references
    /// (rank 0 forms them from the maps) and, in modes below the last, the
    /// ones rank 0 references (it holds their last refreshes).
    gathered: Vec<u64>,
    /// Rows each rank sends per iteration, over all modes: the rows it
    /// references but does not own (its partials) plus, per row it owns,
    /// the other ranks referencing it (their refreshed copies).
    sent: Vec<u64>,
    /// The last mode's refreshed copies each rank sends per iteration.
    last_refresh: Vec<u64>,
}

/// `marks[mode][row * world + w]`: does worker `w` hold a nonzero of the
/// row, with nonzeros placed by `worker_of`?
fn references(
    work: &SparseTensor,
    world: usize,
    worker_of: impl Fn(&[u32]) -> usize,
) -> Vec<Vec<bool>> {
    let mut marks: Vec<Vec<bool>> = work
        .shape()
        .iter()
        .map(|&rows| vec![false; rows * world])
        .collect();
    for (idx, _) in work.iter() {
        let w = worker_of(idx);
        for (marks, &i) in marks.iter_mut().zip(idx) {
            marks[i as usize * world + w] = true;
        }
    }
    marks
}

/// `old_rows[n]`: mode `n`'s rows in the step's history.
fn routing(work: &SparseTensor, grid: &GridPartition, old_rows: &[usize]) -> Routing {
    let world = grid.num_workers();
    let mut out = Routing {
        routed: vec![0; work.order()],
        bound: 0,
        owned: vec![0; world],
        gathered: vec![0; world],
        sent: vec![0; world],
        last_refresh: vec![0; world],
    };
    let marks = references(work, world, |idx| grid.worker_of(idx));
    for (mode, marks) in marks.iter().enumerate() {
        for (row, by_worker) in marks.chunks(world).enumerate() {
            let owner = grid.row_owner(mode, row);
            out.owned[owner] += 1;
            let referencing = by_worker.iter().filter(|&&r| r).count() as u64;
            let formed = referencing == 0 && row < old_rows[mode];
            let held = mode + 1 < work.order() && by_worker[0];
            if owner != 0 && !formed && !held {
                out.gathered[owner] += 1;
            }
            let foreign = referencing - u64::from(by_worker[owner]);
            out.routed[mode] += foreign;
            out.bound += referencing.saturating_sub(1);
            out.sent[owner] += foreign;
            if mode + 1 == work.order() {
                out.last_refresh[owner] += foreign;
            }
            for (w, _) in by_worker
                .iter()
                .enumerate()
                .filter(|&(w, &r)| r && w != owner)
            {
                out.sent[w] += 1;
            }
        }
    }
    out
}

/// One worker grid `m_1 × … × m_N` the placement could have used.
struct Candidate {
    dims: Vec<usize>,
    /// `Σ_rows (referencing workers − 1)` under this grid's block map: what
    /// per-row ownership routes per mode-iteration.
    routed: u64,
    /// The block map puts every nonzero on the worker `grid` does.
    chosen: bool,
}

impl Candidate {
    fn label(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(usize::to_string).collect();
        dims.join("x")
    }
}

/// Every worker grid of `grid`'s world with `m_n ≤ p_n`, in lexicographic
/// order, placed with this harness's own block map — cell coordinate
/// `c_n = mode_partition(n).part_of(i_n)`, worker coordinate
/// `⌊c_n m_n / p_n⌋`, row-major ranks — not with `grid.rs`' choice.
fn candidates(work: &SparseTensor, grid: &GridPartition) -> Vec<Candidate> {
    let world = grid.num_workers();
    let parts: Vec<usize> = (0..work.order())
        .map(|n| grid.mode_partition(n).num_parts())
        .collect();
    let mut tuples: Vec<Vec<usize>> = vec![Vec::new()];
    for &p in &parts {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                (1..=p).map(move |m| {
                    let mut t = t.clone();
                    t.push(m);
                    t
                })
            })
            .collect();
    }
    tuples.retain(|t| t.iter().product::<usize>() == world);
    tuples
        .into_iter()
        .map(|dims| {
            let block_worker = |idx: &[u32]| {
                idx.iter().enumerate().fold(0, |rank, (n, &i)| {
                    let c = grid.mode_partition(n).part_of(i as usize);
                    rank * dims[n] + c * dims[n] / parts[n]
                })
            };
            let chosen = work
                .iter()
                .all(|(idx, _)| block_worker(idx) == grid.worker_of(idx));
            let routed = references(work, world, block_worker)
                .iter()
                .flat_map(|marks| marks.chunks(world))
                .map(|by_worker| by_worker.iter().filter(|&&r| r).count().saturating_sub(1) as u64)
                .sum();
            Candidate {
                dims,
                routed,
                chosen,
            }
        })
        .collect()
}

/// What a fault-free step of `iters` iterations ships, rank by rank, and
/// how many collectives it takes, written down from the schedule rather
/// than read off the code that runs it.  The audit runs the paper's
/// defaults (tolerance 0), so every step reaches its scheduled end: its
/// last refresh — which nothing reads — is not sent, and its last mode's
/// partials and loss slot ride the gather instead.
struct Schedule {
    world: usize,
    order: u64,
    rank: u64,
    iters: u64,
}

impl Schedule {
    /// A mode's Gram partials: the upper triangles of the symmetric `G⁰`
    /// and `G¹` and the whole `G̃`.
    fn packed(&self) -> u64 {
        2 * self.rank * self.rank + self.rank
    }

    /// Per-rank bytes of a reduction of `len` values riding the refresh and
    /// the next partials exchange: rank `k` of `w` reduces the `k`-th of `w`
    /// near-equal contiguous slices, larger ones first, sends every
    /// peer-owned value of its partials once and its own slice `s_k` to
    /// `w − 1` ranks: `len + (w − 2)·s_k`, written so that world 1 (rank 0
    /// owns everything and sends nothing) needs no case of its own.
    fn fused(&self, len: u64) -> Vec<u64> {
        let w = self.world as u64;
        (0..w)
            .map(|k| {
                let s_k = len / w + u64::from(k < len % w);
                (len - s_k + (w - 1) * s_k) * 8
            })
            .collect()
    }

    /// An iteration is two row exchanges per mode, every mode's Gram
    /// reduction riding them; the gather that closes the run takes the
    /// place of the unread final refresh.  Set-up's Gram state is built by
    /// the driver and takes none.
    fn collectives(&self) -> u64 {
        2 * self.order * self.iters
    }

    /// Per-rank bytes: its partials and refreshed rows every
    /// mode-iteration (less the last mode's unread refresh), its share of
    /// every Gram reduction riding them (the last mode's with the loss
    /// slot, the final one's reduce half aside), and (rank 0 aside) the
    /// owned rows rank 0 can neither form nor holds, gathered with that
    /// final reduction's partials and loss slot.
    fn bytes_by_sender(&self, routing: &Routing) -> Vec<u64> {
        let (row_bytes, iters) = (self.rank * 8, self.iters);
        let (mid, last) = (self.fused(self.packed()), self.fused(self.packed() + 1));
        (0..self.world)
            .map(|w| {
                let rows = iters * routing.sent[w] - routing.last_refresh[w];
                let gather = match w {
                    0 => 0,
                    _ => routing.gathered[w] * row_bytes + (self.packed() + 1) * 8,
                };
                rows * row_bytes
                    + iters * (self.order - 1) * mid[w]
                    + (iters - 1) * last[w]
                    + gather
            })
            .collect()
    }
}

/// The benchmark's workloads (`benchmark/src/workload.rs`): dataset, scale
/// and snapshot fractions.
fn benchmark_workloads() -> [(&'static str, DatasetSpec, Vec<f64>); 3] {
    [
        (
            "clothing_rows",
            DatasetSpec::clothing(1.0),
            StreamSequence::paper_fractions(),
        ),
        (
            "netflix_nnz",
            DatasetSpec::netflix(0.7),
            StreamSequence::paper_fractions(),
        ),
        (
            "synthetic_fine",
            DatasetSpec::synthetic(0.8),
            (85..=100).map(|p| f64::from(p) / 100.0).collect(),
        ),
    ]
}

/// The routing audit over the benchmark workloads generated from `seed`:
/// per workload one `generated` line (see [`fingerprint`]), one
/// `plan_bytes` line, one line per (world, step), then one per world with
/// the stream's routed rows under every candidate grid.  Also returns how
/// many lines failed — bytes (in all or of one sender) or collectives
/// `CommStats` counted that the schedule does not predict, a placement no
/// candidate grid reproduces, or plans that hold more than their model.
///
/// # Errors
/// Propagates generator, partitioner and solver errors.
pub fn routing_lines(seed: u64) -> Result<(Vec<String>, usize)> {
    let cfg = DecompConfig::default();
    let mut lines = Vec::new();
    let mut failed = 0;
    for (name, mut spec, fractions) in benchmark_workloads() {
        spec.seed = seed;
        let full = spec.generate()?;
        let stream = StreamSequence::cut(&full, &fractions)?;
        let snapshot_nnz: Vec<usize> = stream.iter().map(SparseTensor::nnz).collect();
        lines.push(format!(
            "{name} seed={seed} generated nnz={} tensor={:016x} snapshot_nnz={snapshot_nnz:?}",
            full.nnz(),
            fingerprint(&full)
        ));
        drop(full);
        let (line, over) = plan_bytes(name, seed, stream.snapshot(0))?;
        lines.push(line);
        failed += usize::from(over);
        let order = stream.snapshot(0).order();
        for world in [2usize, 4] {
            let cluster = ClusterConfig::new(world);
            let mut t = 0;
            let mut totals: Vec<(String, u64)> = Vec::new();
            let mut skipped_total = 0;
            drive(&stream, cfg.rank, |work, old| {
                let grid = GridPartition::build_with(
                    work,
                    cluster.partitioner,
                    &vec![world; order],
                    world,
                    cluster.cell_assignment,
                )?;
                let old_rows: Vec<usize> = old.iter().map(Matrix::rows).collect();
                let routing = routing(work, &grid, &old_rows);
                let grids = candidates(work, &grid);
                let out = decompose(work, old, &cfg, &cluster)?;
                let rows: u64 = routing.owned.iter().sum();
                let largest = routing.owned.iter().copied().max().unwrap_or(0);
                // Ranks 1…: rank 0 gathers nothing from itself.
                let gather_rows: u64 = routing.gathered[1..].iter().sum();
                let gather_skipped = routing.owned[1..].iter().sum::<u64>() - gather_rows;
                skipped_total += gather_skipped;
                let schedule = Schedule {
                    world,
                    order: order as u64,
                    rank: cfg.rank as u64,
                    iters: out.iterations as u64,
                };
                let predicted_sender = schedule.bytes_by_sender(&routing);
                let predicted: u64 = predicted_sender.iter().sum();
                let predicted_collectives = schedule.collectives();
                // Where the chosen grid ranks by routed rows (1 = fewest).
                let chosen = grids.iter().find(|g| g.chosen);
                let place = chosen.map_or("none".into(), |c| {
                    let better = grids.iter().filter(|g| g.routed < c.routed).count();
                    format!("{}/{}", better + 1, grids.len())
                });
                if predicted != out.comm.wire_bytes()
                    || predicted_sender != out.comm.bytes_by_sender
                    || predicted_collectives != out.comm.collectives
                    || chosen.is_none()
                {
                    failed += 1;
                }
                lines.push(format!(
                    "{name} seed={seed} world={world} step={t} nnz={} routed_rows={} bound={} \
                     largest_owned_share={:.3} owned={:?} gather_rows={gather_rows} \
                     gather_skipped={gather_skipped} grids=[{}] chosen={} place={place} \
                     wire_bytes={} predicted={predicted} bytes_by_sender={:?} \
                     predicted_by_sender={predicted_sender:?} collectives={} \
                     predicted_collectives={predicted_collectives}",
                    work.nnz(),
                    routing.routed.iter().sum::<u64>(),
                    routing.bound,
                    largest as f64 / rows as f64,
                    routing.owned,
                    grid_list(grids.iter().map(|g| (g.label(), g.routed))),
                    chosen.map_or("none".into(), Candidate::label),
                    out.comm.wire_bytes(),
                    out.comm.bytes_by_sender,
                    out.comm.collectives,
                ));
                for g in &grids {
                    match totals.iter_mut().find(|(label, _)| *label == g.label()) {
                        Some((_, total)) => *total += g.routed,
                        None => totals.push((g.label(), g.routed)),
                    }
                }
                t += 1;
                Ok(out.kruskal.factors().to_vec())
            })?;
            lines.push(format!(
                "{name} seed={seed} world={world} stream routed_rows grids=[{}] \
                 gather_skipped={skipped_total}",
                grid_list(totals.into_iter())
            ));
        }
        lines.push(resident_reads(name, seed, &stream)?);
    }
    Ok((lines, failed))
}

/// The `plan_bytes` line: what the MTTKRP plans of a cold step over `cold`
/// hold at worlds 1, 2 and 4, in bytes per nonzero (`plan=`), beside an
/// exact model of them counted by this module alone (`model=`), their
/// stretches per nonzero, and what one mode-agnostic layout (Dynasor,
/// arXiv:2309.09131) would hold (`agnostic=`).  Each world's plans are the
/// ones the step builds: the step's grid, one plan per non-empty cell over
/// `cold` itself, so a cell costs its plan and nothing else.  Also returns
/// whether a world's plans hold more than the model: a third copied mode
/// or any table beyond it.
///
/// The model, per cell of the grid (cell coordinates by this module's own
/// `part_of` map): every mode but 0 copies its entries, `8 + 4(N − 1)` B
/// each; mode 0 keeps one 8-byte stretch per maximal range of stored
/// entries sharing the cell and the mode-0 index, and 4 B per run for its
/// entry count; every mode keeps 8 B per run (a distinct row), and
/// `4(N + 1)` B of table ends.  The mode-agnostic layout holds every entry
/// once with all `N` indices (`8 + 4N` B) plus the same run tables; it is a
/// number only, nothing builds it.
fn plan_bytes(name: &str, seed: u64, cold: &SparseTensor) -> Result<(String, bool)> {
    let order = cold.order();
    let nnz = cold.nnz();
    let per_nnz = |count: usize| format!("{:.3}", count as f64 / nnz.max(1) as f64);
    let (mut plan, mut model, mut stretches, mut agnostic) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut over = false;
    for world in [1usize, 2, 4] {
        let cluster = ClusterConfig::new(world);
        let grid = GridPartition::build_with(
            cold,
            cluster.partitioner,
            &vec![world; order],
            world,
            cluster.cell_assignment,
        )?;
        let held: usize = MttkrpPlan::cells(cold, grid.num_cells(), |idx| grid.cell_of(idx))?
            .iter()
            .map(|(_, plan)| plan.layout_bytes())
            .sum();
        let counts = cell_counts(cold, &grid);
        let copied = (order - 1) * (8 + 4 * (order - 1)) * nnz;
        let runs = 8 * counts.runs.iter().sum::<usize>();
        let bound = copied
            + runs
            + 4 * counts.runs[0]
            + 8 * counts.stretches
            + 4 * (order + 1) * counts.cells;
        over |= held > bound;
        plan.push(per_nnz(held));
        model.push(per_nnz(bound));
        stretches.push(per_nnz(counts.stretches));
        agnostic.push(per_nnz((8 + 4 * order) * nnz + runs));
    }
    let line = format!(
        "{name} seed={seed} plan_bytes nnz={nnz} worlds=[1 2 4] plan=[{}] model=[{}] \
         stretches=[{}] agnostic=[{}]",
        plan.join(" "),
        model.join(" "),
        stretches.join(" "),
        agnostic.join(" ")
    );
    Ok((line, over))
}

/// What [`plan_bytes`]' model counts over a grid's cells.
struct CellCounts {
    /// Non-empty cells.
    cells: usize,
    /// Maximal ranges of stored entries sharing the cell and the mode-0
    /// index.
    stretches: usize,
    /// Per mode, distinct `(cell, row)` pairs: the runs of every cell's
    /// layout of that mode.
    runs: Vec<usize>,
}

/// One pass over `t`'s stored order, cells numbered row-major over the
/// per-mode parts `mode_partition(n).part_of(i_n)`, not by `cell_of`.
fn cell_counts(t: &SparseTensor, grid: &GridPartition) -> CellCounts {
    let parts: Vec<_> = (0..t.order()).map(|n| grid.mode_partition(n)).collect();
    let n_cells: usize = parts.iter().map(|p| p.num_parts()).product();
    let cell_of = |idx: &[u32]| {
        idx.iter()
            .zip(&parts)
            .fold(0, |c, (&i, p)| c * p.num_parts() + p.part_of(i as usize))
    };
    let mut seen: Vec<Vec<bool>> = t
        .shape()
        .iter()
        .map(|&rows| vec![false; n_cells * rows])
        .collect();
    let mut populated = vec![false; n_cells];
    let mut counts = CellCounts {
        cells: 0,
        stretches: 0,
        runs: vec![0; t.order()],
    };
    let mut open = None;
    for (idx, _) in t.iter() {
        let cell = cell_of(idx);
        if open != Some((cell, idx[0])) {
            counts.stretches += 1;
            open = Some((cell, idx[0]));
        }
        counts.cells += usize::from(!std::mem::replace(&mut populated[cell], true));
        let modes = seen.iter_mut().zip(&mut counts.runs).zip(t.shape());
        for (((seen, runs), &rows), &i) in modes.zip(idx) {
            let row = &mut seen[cell * rows + i as usize];
            *runs += usize::from(!std::mem::replace(row, true));
        }
    }
    counts
}

/// The `resident_read` line: one serial session over `stream`, collecting
/// metrics, and per step the entries its `ingest` read to validate, to
/// take the complement and to score the fit (`ingest/resident_read`
/// labels 0 / 1 / 2, as `validate/complement/fit`), beside the
/// complement's nnz, then `fits=`, an FNV-1a fold of every step's fit
/// bits.  On a stream's snapshots a warm step validates and takes the
/// complement from what arrived alone, so its first two equal its
/// complement nnz.  One iteration per step: the reads do not depend on
/// the solve.  The fit is the one number no identity line folds, so a
/// change to its summation order shows here alone.
fn resident_reads(name: &str, seed: u64, stream: &StreamSequence) -> Result<String> {
    let cfg = DecompConfig::default().with_max_iters(1);
    let mut session = StreamingSession::new(cfg, ExecutionMode::Serial);
    session.set_collect_metrics(true);
    let (mut reads, mut complement_nnz, mut fits) = (Vec::new(), Vec::new(), Fnv::new());
    for snapshot in stream.iter() {
        let report = session.ingest(snapshot)?;
        fits.word(report.fit.to_bits());
        let metrics = report.metrics.unwrap_or_default();
        let read = |label| metrics.counter_at("ingest/resident_read", label);
        reads.push(format!("{}/{}/{}", read(0), read(1), read(2)));
        complement_nnz.push(report.processed_nnz);
    }
    Ok(format!(
        "{name} seed={seed} resident_read=[{}] complement_nnz={complement_nnz:?} fits={:016x}",
        reads.join(" "),
        fits.0
    ))
}

/// FNV-1a over a tensor's shape, every stored coordinate and every value's
/// bits, in stored order: the generator's output at the benchmark's scale,
/// where Zipf heads collide three and more times and the order a build
/// sums them in shows in the low bits.
fn fingerprint(t: &SparseTensor) -> u64 {
    let mut h = Fnv::new();
    t.shape().iter().for_each(|&s| h.word(s as u64));
    t.indices_flat().iter().for_each(|&i| h.word(u64::from(i)));
    h.floats(t.values());
    h.0
}

/// `4x1x1:12801 2x2x1:41535 …`
fn grid_list(grids: impl Iterator<Item = (String, u64)>) -> String {
    let items: Vec<String> = grids
        .map(|(label, routed)| format!("{label}:{routed}"))
        .collect();
    items.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial and world-1 bits are this repository's fixed point: a PR that
    /// changes what the distributed path sums in which order (placement,
    /// ownership, collectives) moves worlds ≥ 2 and must leave these alone.
    /// Regenerate with `cargo run --release -p dismastd-bench --bin
    /// factor_hash` only for a change that says it moves serial bits.
    /// Serial is world 1 by construction, so each serial line equals the
    /// world-1 line after it, field for field.
    #[test]
    fn serial_and_world1_lines_match_the_goldens() {
        let lines = identity_lines(&[None, Some(1)]).unwrap();
        assert_eq!(lines, GOLDEN, "\n{}", lines.join("\n"));
        for pair in GOLDEN.chunks_exact(2) {
            assert_eq!(
                pair[0].replacen(" serial ", " world1 ", 1),
                pair[1],
                "serial and world 1 are one path"
            );
        }
    }

    /// What one store per stream moves, pinned against the per-fraction
    /// `restrict` cut it replaced.  A session scores each step against the
    /// whole snapshot — `‖X‖²` and `⟨X, Y⟩`, summed in stored order — and a
    /// stream snapshot after the first is stored in (arrival step, tuple)
    /// order, so warm-step fits move by rounding; every other bit a step
    /// reports stays, because its complement is the same.  A static
    /// decomposition of a later snapshot plans its MTTKRP over that order
    /// too, so its factors move by rounding.  The lines pin both sides'
    /// bits: per dataset the fold of every step's fit and the hash of a
    /// static `cp_als` of the last-but-one snapshot.  The fits agree within
    /// [`STREAM_FIT_BOUND`] of the residual ratio.
    #[test]
    fn what_an_arrival_ordered_stream_moves_is_pinned() {
        use dismastd_core::{als::cp_als, ExecutionMode, StreamingSession};
        let cfg = DecompConfig::default().with_rank(3);
        let mut lines = Vec::new();
        for (spec, stream) in identity_streams().unwrap() {
            let full = spec.generate().unwrap();
            let restricted: Vec<SparseTensor> = stream
                .iter()
                .map(|s| full.restrict(s.shape()).unwrap())
                .collect();
            let run = |snapshots: &mut dyn Iterator<Item = &SparseTensor>| {
                let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
                let reports: Vec<_> = snapshots.map(|s| sess.ingest(s).unwrap()).collect();
                let mut factors = Fnv::new();
                for f in sess.factors().unwrap().factors() {
                    factors.floats(f.as_slice());
                }
                (reports, factors.0)
            };
            let (got, got_factors) = run(&mut stream.iter());
            let (want, want_factors) = run(&mut restricted.iter());
            assert_eq!(got_factors, want_factors, "{}", spec.name);
            let (mut fits, mut restrict_fits) = (Fnv::new(), Fnv::new());
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.processed_nnz, w.processed_nnz);
                assert_eq!(g.loss.to_bits(), w.loss.to_bits(), "{} step {t}", spec.name);
                assert!(
                    (g.fit - w.fit).abs() <= STREAM_FIT_BOUND * (1.0 - w.fit),
                    "{} step {t}: fit {} vs {}",
                    spec.name,
                    g.fit,
                    w.fit
                );
                // These streams' fits read the model, so the fit-relative
                // form holds here too (it does not on `synthetic_fine`).
                let rel = (g.fit - w.fit).abs() / w.fit.abs();
                assert!(rel <= 1e-12, "{} step {t}: fit relative {rel}", spec.name);
                if t == 0 {
                    assert_eq!(
                        g.fit.to_bits(),
                        w.fit.to_bits(),
                        "snapshot 0 is lexicographic"
                    );
                }
                fits.word(g.fit.to_bits());
                restrict_fits.word(w.fit.to_bits());
            }
            let last = stream.len() - 1;
            let static_fit = |x: &SparseTensor| {
                let out = cp_als(x, &cfg).unwrap();
                let mut factors = Fnv::new();
                for f in out.kruskal.factors() {
                    factors.floats(f.as_slice());
                }
                (out.kruskal.fit(&restricted[last - 1]).unwrap(), factors.0)
            };
            let (got_fit, got_static) = static_fit(stream.snapshot(last - 1));
            let (want_fit, want_static) = static_fit(&restricted[last - 1]);
            let rel = (got_fit - want_fit).abs() / want_fit.abs();
            assert!(
                rel <= 1e-9,
                "{}: static fit {got_fit} vs {want_fit}",
                spec.name
            );
            lines.push(format!(
                "{:<9} fits={:016x} (restrict cut {:016x}) static={got_static:016x} (restrict cut {want_static:016x})",
                spec.name, fits.0, restrict_fits.0
            ));
        }
        assert_eq!(lines, STREAM_GOLDEN, "\n{}", lines.join("\n"));
    }

    /// `⟨X, Y⟩` summed per entry in stored order, each entry's lanes
    /// `v · Π_k A_k[i_k, :]` summed in lane order: the order
    /// `KruskalTensor::inner_sparse` had before it summed per mode-0
    /// stretch, in 2¹⁶-entry blocks (the tensor crate's tests keep the
    /// same oracle).
    fn per_entry_inner(factors: &[Matrix], x: &SparseTensor) -> f64 {
        let mut prod = vec![0.0f64; factors[0].cols()];
        let mut total = 0.0;
        for (idx, v) in x.iter() {
            prod.iter_mut().for_each(|p| *p = v);
            for (f, &i) in factors.iter().zip(idx) {
                for (p, &a) in prod.iter_mut().zip(f.row(i as usize)) {
                    *p *= a;
                }
            }
            total += prod.iter().sum::<f64>();
        }
        total
    }

    /// What the stretch order of the fit moves, bounded: over the three
    /// benchmark-shaped streams at the identity scale, every step's
    /// reported fit is the public fit's bits against the step's factors,
    /// and within [`STREAM_FIT_BOUND`] of the residual ratio of the fit the
    /// per-entry order gives against the same factors.  Loss and factor
    /// bits do not read the fit: the identity goldens and `static=` above
    /// pin them.
    #[test]
    fn the_fit_moves_by_rounding_alone() {
        use dismastd_core::{ExecutionMode, StreamingSession};
        for rank in [3, 10] {
            let cfg = DecompConfig::default().with_rank(rank);
            for (spec, stream) in identity_streams().unwrap() {
                let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
                for (t, x) in stream.iter().enumerate() {
                    let report = sess.ingest(x).unwrap();
                    let k = sess.factors().unwrap();
                    assert_eq!(report.fit.to_bits(), k.fit(x).unwrap().to_bits());
                    let x_norm_sq = x.norm_sq();
                    let inner = per_entry_inner(k.factors(), x);
                    let residual = (x_norm_sq + k.norm_sq() - 2.0 * inner).max(0.0);
                    let oracle = 1.0 - residual.sqrt() / x_norm_sq.sqrt();
                    assert!(
                        (report.fit - oracle).abs() <= STREAM_FIT_BOUND * (1.0 - oracle),
                        "{} R={rank} step {t}: fit {} vs per-entry {oracle}",
                        spec.name,
                        report.fit
                    );
                }
            }
        }
    }

    /// The bound a stream's warm-step fit holds against the `restrict`
    /// cut's, relative to `1 − fit`: the two add `‖X‖²` and `⟨X, Y⟩` in
    /// other orders, which moves the residual ratio `‖X − Y‖ / ‖X‖ = 1 −
    /// fit` by rounding, whatever the fit.  Relative to the fit itself no
    /// such bound holds where the model explains almost nothing: a fit of
    /// 1.5e-4 (`synthetic_fine`) makes one ulp of the ratio 1.4e-12 of it.
    const STREAM_FIT_BOUND: f64 = 1e-12;

    const STREAM_GOLDEN: [&str; 3] = [
        "Clothing  fits=e575ed2558652135 (restrict cut e5776d255867adb5) static=c45b9cc415f76352 (restrict cut b1b05a73f7c4b0d3)",
        "Netflix   fits=8ec35fec796ea9e1 (restrict cut 74ce23ec65a41239) static=e011bac4f3084685 (restrict cut 7ba76b54511c9cb2)",
        "Synthetic fits=aecd7c2250dde1f5 (restrict cut 045d7baf424db7f5) static=a5d10b6212a4d1c7 (restrict cut d4d53a5cf40aa2e8)",
    ];

    const GOLDEN: [&str; 18] = [
        "Clothing  R=3  serial factors=23af6be6b1cb0800 loss_trace=19859bc08a1ffa96",
        "Clothing  R=3  world1 factors=23af6be6b1cb0800 loss_trace=19859bc08a1ffa96",
        "Clothing  R=5  serial factors=6fcbde481f045d00 loss_trace=aed5da1aa63cec0d",
        "Clothing  R=5  world1 factors=6fcbde481f045d00 loss_trace=aed5da1aa63cec0d",
        "Clothing  R=10 serial factors=d2d3044f4cc500cb loss_trace=61014302eb73adc9",
        "Clothing  R=10 world1 factors=d2d3044f4cc500cb loss_trace=61014302eb73adc9",
        "Netflix   R=3  serial factors=e6c0863ad826dfc5 loss_trace=34453574efa014ac",
        "Netflix   R=3  world1 factors=e6c0863ad826dfc5 loss_trace=34453574efa014ac",
        "Netflix   R=5  serial factors=4967f61f46ab6539 loss_trace=01385e8588752c53",
        "Netflix   R=5  world1 factors=4967f61f46ab6539 loss_trace=01385e8588752c53",
        "Netflix   R=10 serial factors=94666ce42b041f8e loss_trace=4d8ec6c380762f70",
        "Netflix   R=10 world1 factors=94666ce42b041f8e loss_trace=4d8ec6c380762f70",
        "Synthetic R=3  serial factors=2cf0c8ec54fbb977 loss_trace=fe0a4331acb5a023",
        "Synthetic R=3  world1 factors=2cf0c8ec54fbb977 loss_trace=fe0a4331acb5a023",
        "Synthetic R=5  serial factors=71b70bbe4adf3036 loss_trace=2e7053611f48654c",
        "Synthetic R=5  world1 factors=71b70bbe4adf3036 loss_trace=2e7053611f48654c",
        "Synthetic R=10 serial factors=4fba9388d1e10bf1 loss_trace=be3bbd6fb2758d63",
        "Synthetic R=10 world1 factors=4fba9388d1e10bf1 loss_trace=be3bbd6fb2758d63",
    ];

    #[test]
    fn routing_counts_a_hand_placed_tensor() {
        use dismastd_partition::{CellAssignment, ModePartition};
        use dismastd_tensor::SparseTensorBuilder;
        // 4 x 2, two workers split on mode 0: rows {0, 1} | {2, 3}.  Column 0
        // is referenced by both workers, column 1 by worker 1 only.
        let mut b = SparseTensorBuilder::new(vec![4, 2]);
        for idx in [[0, 0], [1, 0], [2, 0], [3, 1]] {
            b.push(&idx, 1.0).unwrap();
        }
        let t = b.build().unwrap();
        let grid = GridPartition::from_mode_partitions(
            &t,
            vec![
                ModePartition::from_assignment(2, vec![0, 0, 1, 1]),
                ModePartition::trivial(2),
            ],
            2,
            CellAssignment::BlockGrid,
        )
        .unwrap();
        // Column 1 lives on its only reader, so column 0 is all that moves.
        let r = routing(&t, &grid, &[0, 0]);
        assert_eq!((r.routed, r.bound), (vec![0, 1], 1));
        assert_eq!(r.owned, vec![3, 3]);
        // Worker 1 gathers rows 2 and 3 of mode 0 — rank 0 reads neither —
        // and column 1, which it owns in the last mode.
        assert_eq!(r.gathered, vec![0, 3]);
        // Mode 1 cannot be split, so 2x1 is the only grid of two workers.
        let only = candidates(&t, &grid);
        assert_eq!(only.len(), 1);
        assert_eq!(
            (only[0].label(), only[0].routed, only[0].chosen),
            ("2x1".into(), 1, true)
        );

        // Columns split too: the grid goes by the dense-row bound (a 4-row
        // mode replicated costs more than a 2-row one), though on these
        // nonzeros 1x2 would route nothing.
        let split = GridPartition::from_mode_partitions(
            &t,
            vec![
                ModePartition::from_assignment(2, vec![0, 0, 1, 1]),
                ModePartition::from_assignment(2, vec![0, 1]),
            ],
            2,
            CellAssignment::BlockGrid,
        )
        .unwrap();
        let both: Vec<_> = candidates(&t, &split)
            .iter()
            .map(|g| (g.label(), g.routed, g.chosen))
            .collect();
        assert_eq!(both, [("1x2".into(), 0, false), ("2x1".into(), 1, true)]);
    }
}
