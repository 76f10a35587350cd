//! **Fig. 6** — running time per iteration versus the number of tensor
//! partitions per mode (8, 15, 23, 30, 38) for DisMASTD-GTP and
//! DisMASTD-MTP, at the paper's 15 worker nodes.
//!
//! ```text
//! cargo run -p dismastd-bench --release --bin fig6
//! ```
//!
//! Expected shape (paper Sec. V-B2): the curve first drops (or stays flat)
//! and then rises as partition counts exceed the node count — more
//! partitions buy parallelism/balance but each costs task overhead.  The
//! empirical sweet spot is partitions ≈ nodes.  MTP runs slightly faster
//! than GTP throughout.

use dismastd_bench::{
    measure_serial_iter, modeled_iter_time, placement_profile, print_table, profile_from_run,
    save_records, secs, ExperimentContext, ResultRecord,
};
use dismastd_core::{decompose, ClusterConfig, DecompConfig};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_partition::Partitioner;
use std::collections::BTreeMap;

const WORKERS: usize = 15;
const PARTS: [usize; 5] = [8, 15, 23, 30, 38];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExperimentContext::from_env();
    let cfg = DecompConfig::default().with_max_iters(5);
    let mut records: Vec<ResultRecord> = Vec::new();

    println!(
        "== Fig. 6: time/iteration vs partitions per mode (15 workers, scale {:.2}) ==\n",
        ctx.scale
    );
    for spec in DatasetSpec::all(ctx.scale) {
        let full = spec.generate()?;
        // The 95% → 100% streaming step of Fig. 5 as the workload.
        let stream = StreamSequence::cut(&full, &[0.95, 1.0])?;
        let prev = dismastd_core::als::cp_als(stream.snapshot(0), &cfg)?;
        let complement = stream.snapshot(1).complement(stream.snapshot(0).shape())?;
        let (serial_iter, _) = measure_serial_iter(&complement, prev.kruskal.factors(), &cfg)?;

        println!("-- {} (complement nnz {}) --", spec.name, complement.nnz());
        let mut rows: Vec<Vec<String>> = Vec::new();
        for partitioner in [Partitioner::Gtp, Partitioner::Mtp] {
            for &parts in &PARTS {
                let cluster = ClusterConfig::new(WORKERS)
                    .with_partitioner(partitioner)
                    .with_parts_per_mode(vec![parts; full.order()]);
                let dist = decompose(&complement, prev.kruskal.factors(), &cfg, &cluster)?;
                let (max_load, _) = placement_profile(&complement, partitioner, parts, WORKERS)?;
                let profile = profile_from_run(&complement, &dist, max_load, WORKERS, parts);
                let modeled = modeled_iter_time(serial_iter, &profile, &ctx.cost);
                let method = format!("DisMASTD-{}", partitioner.name());
                rows.push(vec![
                    method.clone(),
                    parts.to_string(),
                    secs(modeled),
                    secs(dist.time_per_iter()),
                    format!("{:.3}", max_load as f64 / complement.nnz().max(1) as f64),
                ]);
                records.push(ResultRecord {
                    experiment: "fig6".into(),
                    dataset: spec.name.clone(),
                    method,
                    x: parts as f64,
                    value: modeled.as_secs_f64(),
                    extra: BTreeMap::from([
                        ("measured_iter_s".into(), dist.time_per_iter().as_secs_f64()),
                        (
                            "max_load_frac".into(),
                            max_load as f64 / complement.nnz().max(1) as f64,
                        ),
                    ]),
                });
            }
        }
        print_table(
            &[
                "method",
                "parts/mode",
                "modeled s/iter",
                "measured s/iter",
                "max-load frac",
            ],
            &rows,
        );

        // Locate each method's modeled optimum.
        for m in ["DisMASTD-GTP", "DisMASTD-MTP"] {
            let best = records
                .iter()
                .filter(|r| r.dataset == spec.name && r.method == m)
                .min_by(|a, b| a.value.total_cmp(&b.value))
                .ok_or("no rows recorded for method")?;
            println!("=> {m}: fastest at {} partitions/mode", best.x);
        }
        println!();
    }
    save_records("fig6", &records)?;
    Ok(())
}
