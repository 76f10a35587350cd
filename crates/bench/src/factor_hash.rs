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
//! last the bytes those counts predict for the step against the bytes
//! `CommStats` counted.  A per-(workload, world) line totals each
//! candidate's routed rows over the stream.

use dismastd_core::{dismastd, dtd, ClusterConfig, DecompConfig};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_partition::GridPartition;
use dismastd_tensor::{Matrix, Result, SparseTensor};

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
    for spec in [
        DatasetSpec::clothing(IDENTITY_SCALE),
        DatasetSpec::netflix(IDENTITY_SCALE),
        DatasetSpec::synthetic(IDENTITY_SCALE),
    ] {
        let stream = StreamSequence::cut(&spec.generate()?, &IDENTITY_FRACTIONS)?;
        for rank in RANKS {
            let cfg = DecompConfig::default().with_rank(rank);
            for &world in worlds {
                let (mut factors, mut losses) = (Fnv::new(), Fnv::new());
                drive(&stream, rank, |work, old| {
                    let (kruskal, loss_trace) = match world {
                        None => {
                            let out = dtd(work, old, &cfg)?;
                            (out.kruskal, out.loss_trace)
                        }
                        Some(world) => {
                            let out = dismastd(work, old, &cfg, &ClusterConfig::new(world))?;
                            (out.kruskal, out.loss_trace)
                        }
                    };
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

fn routing(work: &SparseTensor, grid: &GridPartition) -> Routing {
    let world = grid.num_workers();
    let mut out = Routing {
        routed: vec![0; work.order()],
        bound: 0,
        owned: vec![0; world],
    };
    let marks = references(work, world, |idx| grid.worker_of(idx));
    for (mode, marks) in marks.iter().enumerate() {
        for (row, by_worker) in marks.chunks(world).enumerate() {
            let owner = grid.row_owner(mode, row);
            out.owned[owner] += 1;
            let referencing = by_worker.iter().filter(|&&r| r).count() as u64;
            out.routed[mode] += referencing - u64::from(by_worker[owner]);
            out.bound += referencing.saturating_sub(1);
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

/// Bytes a fault-free step ships given its routing: two row exchanges per
/// mode-iteration, less the last mode's refresh when the run reached its
/// scheduled end (`unread`: nothing reads it, so it is not sent), the Gram
/// all-reduces (`3R²` per mode at set-up and per mode-iteration, plus the
/// loss slot on an iteration's last mode; flat and ring both move
/// `2(w − 1)` copies of the buffer), and the gather of every row rank 0
/// does not own.
fn predicted_bytes(routing: &Routing, rank: usize, iters: usize, unread: bool) -> u64 {
    let world = routing.owned.len() as u64;
    let order = routing.routed.len() as u64;
    let (rank, iters) = (rank as u64, iters as u64);
    let routed: u64 = routing.routed.iter().sum();
    let last = routing.routed.last().copied().unwrap_or(0);
    let exchange = (2 * iters * routed - u64::from(unread) * last) * rank * 8;
    let gram_values = 3 * rank * rank * order * (1 + iters) + iters;
    let allreduce = 2 * (world - 1) * gram_values * 8;
    let gather = routing.owned[1..].iter().sum::<u64>() * rank * 8;
    exchange + allreduce + gather
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
/// one line per (workload, world, step), then one per (workload, world)
/// with the stream's routed rows under every candidate grid.  Also returns
/// how many step lines failed — bytes `CommStats` counted that the routing
/// does not predict, or a placement no candidate grid reproduces.
///
/// # Errors
/// Propagates generator, partitioner and solver errors.
pub fn routing_lines(seed: u64) -> Result<(Vec<String>, usize)> {
    let cfg = DecompConfig::default();
    let mut lines = Vec::new();
    let mut failed = 0;
    for (name, mut spec, fractions) in benchmark_workloads() {
        spec.seed = seed;
        let stream = StreamSequence::cut(&spec.generate()?, &fractions)?;
        let order = stream.snapshot(0).order();
        for world in [2usize, 4] {
            let cluster = ClusterConfig::new(world);
            let mut t = 0;
            let mut totals: Vec<(String, u64)> = Vec::new();
            drive(&stream, cfg.rank, |work, old| {
                let grid = GridPartition::build_with(
                    work,
                    cluster.partitioner,
                    &vec![world; order],
                    world,
                    cluster.cell_assignment,
                )?;
                let routing = routing(work, &grid);
                let grids = candidates(work, &grid);
                let out = dismastd(work, old, &cfg, &cluster)?;
                let rows: u64 = routing.owned.iter().sum();
                let largest = routing.owned.iter().copied().max().unwrap_or(0);
                let predicted = predicted_bytes(
                    &routing,
                    cfg.rank,
                    out.iterations,
                    out.iterations == cfg.max_iters,
                );
                // Where the chosen grid ranks by routed rows (1 = fewest).
                let chosen = grids.iter().find(|g| g.chosen);
                let place = chosen.map_or("none".into(), |c| {
                    let better = grids.iter().filter(|g| g.routed < c.routed).count();
                    format!("{}/{}", better + 1, grids.len())
                });
                if predicted != out.comm.wire_bytes() || chosen.is_none() {
                    failed += 1;
                }
                lines.push(format!(
                    "{name} seed={seed} world={world} step={t} nnz={} routed_rows={} bound={} \
                     largest_owned_share={:.3} owned={:?} grids=[{}] chosen={} place={place} \
                     wire_bytes={} predicted={predicted}",
                    work.nnz(),
                    routing.routed.iter().sum::<u64>(),
                    routing.bound,
                    largest as f64 / rows as f64,
                    routing.owned,
                    grid_list(grids.iter().map(|g| (g.label(), g.routed))),
                    chosen.map_or("none".into(), Candidate::label),
                    out.comm.wire_bytes(),
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
                "{name} seed={seed} world={world} stream routed_rows grids=[{}]",
                grid_list(totals.into_iter())
            ));
        }
    }
    Ok((lines, failed))
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
    #[test]
    fn serial_and_world1_lines_match_the_goldens() {
        let lines = identity_lines(&[None, Some(1)]).unwrap();
        assert_eq!(lines, GOLDEN, "\n{}", lines.join("\n"));
    }

    const GOLDEN: [&str; 18] = [
        "Clothing  R=3  serial factors=b33cbe8c38314a10 loss_trace=d7836648c5e4290a",
        "Clothing  R=3  world1 factors=b33cbe8c38314a10 loss_trace=552f7b1dbb0813da",
        "Clothing  R=5  serial factors=ba815655bcff744d loss_trace=7f654365f2d9f9a3",
        "Clothing  R=5  world1 factors=ba815655bcff744d loss_trace=853497e63877a9f4",
        "Clothing  R=10 serial factors=dc86ba463aac85ee loss_trace=681a8a6bf73afaaa",
        "Clothing  R=10 world1 factors=dc86ba463aac85ee loss_trace=2776a38a16669ffd",
        "Netflix   R=3  serial factors=68ca5fa4f29b12c8 loss_trace=808f1c925ea89753",
        "Netflix   R=3  world1 factors=68ca5fa4f29b12c8 loss_trace=e3dae1f522af3ca5",
        "Netflix   R=5  serial factors=403e7d0ae8743399 loss_trace=cc2a2c19644a7153",
        "Netflix   R=5  world1 factors=403e7d0ae8743399 loss_trace=dedd399d8454a807",
        "Netflix   R=10 serial factors=ae1f857a2174a2f2 loss_trace=04a77914827e06b5",
        "Netflix   R=10 world1 factors=ae1f857a2174a2f2 loss_trace=8c2d3a383bbb4ae2",
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
        let r = routing(&t, &grid);
        assert_eq!((r.routed, r.bound), (vec![0, 1], 1));
        assert_eq!(r.owned, vec![3, 3]);
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
