//! **Ablations** — the design-choice studies DESIGN.md calls out, beyond the
//! paper's own figures:
//!
//! 1. forgetting factor `μ` (Eq. 2) — accuracy across a stream;
//! 2. CP rank `R` — time per iteration (Theorem 2 predicts ~linear in `R`
//!    for the MTTKRP-dominated regime) and fit;
//! 3. loss reuse (Sec. IV-B4) — reused `Σ_i Â[i,:]·A[i,:]` inner product
//!    vs a fresh `O(nnz·N·R)` pass;
//! 4. cell placement — medium-grain block grid (locality) vs max-min
//!    scatter (balance): bytes moved and load imbalance.
//!
//! ```text
//! cargo run -p dismastd-bench --release --bin ablations
//! ```

use dismastd_bench::{print_table, save_records, ExperimentContext, ResultRecord};
use dismastd_core::{decompose, ClusterConfig, DecompConfig, ExecutionMode, StreamingSession};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_partition::{BalanceStats, CellAssignment, GridPartition, Partitioner};
use dismastd_tensor::mttkrp::{inner_from_mttkrp, mttkrp};
use dismastd_tensor::{KruskalTensor, SparseTensor};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExperimentContext::from_env();
    let mut records: Vec<ResultRecord> = Vec::new();
    let full = DatasetSpec::netflix(ctx.scale.min(0.5)).generate()?;
    let stream = StreamSequence::cut(&full, &[0.7, 0.8, 0.9, 1.0])?;

    ablation_mu(&stream, &mut records)?;
    ablation_rank(&stream, &mut records)?;
    ablation_loss_reuse(&full, &mut records)?;
    ablation_placement(&stream, &mut records)?;

    save_records("ablations", &records)?;
    Ok(())
}

/// 1. Forgetting factor sweep: stream all snapshots, report the final fit.
fn ablation_mu(
    stream: &StreamSequence,
    records: &mut Vec<ResultRecord>,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 1: forgetting factor μ ==\n");
    let mut rows = Vec::new();
    for mu in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
        let cfg = DecompConfig::default()
            .with_rank(8)
            .with_max_iters(8)
            .with_forgetting(mu);
        let mut session = StreamingSession::new(cfg, ExecutionMode::Serial);
        let mut final_fit = 0.0;
        let mut final_loss = 0.0;
        for snap in stream.iter() {
            let r = session.ingest(snap)?;
            final_fit = r.fit;
            final_loss = r.loss;
        }
        rows.push(vec![
            format!("{mu:.1}"),
            format!("{final_fit:.4}"),
            format!("{final_loss:.2}"),
        ]);
        records.push(ResultRecord {
            experiment: "ablation_mu".into(),
            dataset: "Netflix".into(),
            method: "DisMASTD".into(),
            x: mu,
            value: final_fit,
            extra: BTreeMap::from([("loss".into(), final_loss)]),
        });
    }
    print_table(&["mu", "final fit", "final loss"], &rows);
    println!();
    Ok(())
}

/// 2. Rank sweep: serial time/iteration and fit at the last stream step.
fn ablation_rank(
    stream: &StreamSequence,
    records: &mut Vec<ResultRecord>,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 2: CP rank R ==\n");
    let mut rows = Vec::new();
    for rank in [5usize, 10, 20, 40] {
        let cfg = DecompConfig::default().with_rank(rank).with_max_iters(5);
        let prev = dismastd_core::als::cp_als(stream.snapshot(stream.len() - 2), &cfg)?;
        let complement = stream
            .snapshot(stream.len() - 1)
            .complement(stream.snapshot(stream.len() - 2).shape())?;
        let start = Instant::now();
        let out = dismastd_core::dtd(&complement, prev.kruskal.factors(), &cfg)?;
        let per_iter = start.elapsed() / out.iterations.max(1) as u32;
        let fit = out.kruskal.fit(stream.snapshot(stream.len() - 1))?;
        rows.push(vec![
            rank.to_string(),
            format!("{:.4}", per_iter.as_secs_f64()),
            format!("{fit:.4}"),
        ]);
        records.push(ResultRecord {
            experiment: "ablation_rank".into(),
            dataset: "Netflix".into(),
            method: "DTD".into(),
            x: rank as f64,
            value: per_iter.as_secs_f64(),
            extra: BTreeMap::from([("fit".into(), fit)]),
        });
    }
    print_table(&["rank", "s/iter", "fit"], &rows);
    println!("(Theorem 2: the nnz·N·R term should make s/iter ~linear in R)\n");
    Ok(())
}

/// 3\. Loss reuse: the Sec. IV-B4 inner product from the kept MTTKRP vs a
/// fresh pass over the nonzeros, at several tensor sizes.
fn ablation_loss_reuse(
    full: &SparseTensor,
    records: &mut Vec<ResultRecord>,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 3: loss computation — reuse vs fresh pass ==\n");
    let mut rows = Vec::new();
    for frac in [0.25f64, 0.5, 1.0] {
        let bounds: Vec<usize> = full
            .shape()
            .iter()
            .map(|&s| ((s as f64 * frac).ceil() as usize).clamp(1, s))
            .collect();
        let t = full.restrict(&bounds)?;
        let factors: Vec<dismastd_tensor::Matrix> = {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
            t.shape()
                .iter()
                .map(|&s| dismastd_tensor::Matrix::random(s, 10, &mut rng))
                .collect()
        };
        let kruskal = KruskalTensor::new(factors.clone())?;
        let hat = mttkrp(&t, &factors, t.order() - 1)?;

        let time_of = |f: &dyn Fn() -> f64| {
            let start = Instant::now();
            let mut acc = 0.0;
            let reps = 20;
            for _ in 0..reps {
                acc += f();
            }
            (start.elapsed() / reps, acc)
        };
        let (reuse_t, a) =
            // lint:allow(panic_path): invariant — factors were built from t's shape above
            time_of(&|| inner_from_mttkrp(&hat, &factors[t.order() - 1]).expect("shapes agree"));
        // lint:allow(panic_path): invariant — factors were built from t's shape above
        let (fresh_t, b) = time_of(&|| kruskal.inner_sparse(&t).expect("shapes agree"));
        assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "methods disagree");
        let speedup = fresh_t.as_secs_f64() / reuse_t.as_secs_f64().max(1e-12);
        rows.push(vec![
            t.nnz().to_string(),
            format!("{:.2}", reuse_t.as_secs_f64() * 1e6),
            format!("{:.2}", fresh_t.as_secs_f64() * 1e6),
            format!("{speedup:.0}x"),
        ]);
        records.push(ResultRecord {
            experiment: "ablation_loss_reuse".into(),
            dataset: "Netflix".into(),
            method: "reuse".into(),
            x: t.nnz() as f64,
            value: speedup,
            extra: BTreeMap::new(),
        });
    }
    print_table(&["nnz", "reuse µs", "fresh-pass µs", "speedup"], &rows);
    println!("(the reused inner product is O(I·R), independent of nnz)\n");
    Ok(())
}

/// 4. Placement strategy: locality (BlockGrid) vs balance (Scatter).
fn ablation_placement(
    stream: &StreamSequence,
    records: &mut Vec<ResultRecord>,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("== Ablation 4: cell placement — block grid vs scatter ==\n");
    let cfg = DecompConfig::default().with_rank(10).with_max_iters(3);
    let prev = dismastd_core::als::cp_als(stream.snapshot(stream.len() - 2), &cfg)?;
    let complement = stream
        .snapshot(stream.len() - 1)
        .complement(stream.snapshot(stream.len() - 2).shape())?;
    let workers = 8;
    let mut rows = Vec::new();
    for (name, assignment) in [
        ("BlockGrid", CellAssignment::BlockGrid),
        ("Scatter", CellAssignment::Scatter),
    ] {
        let cluster = ClusterConfig::new(workers).with_cell_assignment(assignment);
        let out = decompose(&complement, prev.kruskal.factors(), &cfg, &cluster)?;
        let grid = GridPartition::build_with(
            &complement,
            Partitioner::Mtp,
            &vec![workers; complement.order()],
            workers,
            assignment,
        )?;
        let balance = BalanceStats::from_loads(&grid.worker_loads(&complement));
        let kb_per_iter = out.comm.bytes as f64 / 1024.0 / out.iterations.max(1) as f64;
        rows.push(vec![
            name.to_string(),
            format!("{kb_per_iter:.1}"),
            format!("{:.3}", balance.imbalance),
            format!("{:.3}", balance.cv),
        ]);
        records.push(ResultRecord {
            experiment: "ablation_placement".into(),
            dataset: "Netflix".into(),
            method: name.into(),
            x: workers as f64,
            value: kb_per_iter,
            extra: BTreeMap::from([
                ("imbalance".into(), balance.imbalance),
                ("cv".into(), balance.cv),
            ]),
        });
    }
    print_table(&["placement", "KB/iter", "max/mean load", "load CV"], &rows);
    println!("(block grid trades a little balance for much less traffic)\n");
    Ok(())
}
