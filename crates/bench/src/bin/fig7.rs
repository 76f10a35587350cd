//! **Fig. 7** — running time per iteration versus the number of worker
//! nodes (3, 6, 9, 12, 15) for DisMASTD-GTP and DisMASTD-MTP.
//!
//! ```text
//! cargo run -p dismastd-bench --release --bin fig7
//! ```
//!
//! Expected shape (paper Sec. V-B3): time drops as nodes are added, but the
//! speedup on the small skewed datasets saturates early — task startup
//! costs dominate once per-node compute is tiny — while the large uniform
//! Synthetic dataset keeps scaling.

use dismastd_bench::{
    measure_serial_iter, modeled_iter_time, placement_profile, print_table, profile_from_run,
    save_records, secs, ExperimentContext, ResultRecord,
};
use dismastd_core::{decompose, ClusterConfig, DecompConfig};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_partition::Partitioner;
use std::collections::BTreeMap;

const NODES: [usize; 5] = [3, 6, 9, 12, 15];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExperimentContext::from_env();
    let cfg = DecompConfig::default().with_max_iters(5);
    let mut records: Vec<ResultRecord> = Vec::new();

    println!(
        "== Fig. 7: time/iteration vs number of nodes (scale {:.2}) ==\n",
        ctx.scale
    );
    for spec in DatasetSpec::all(ctx.scale) {
        let full = spec.generate()?;
        let stream = StreamSequence::cut(&full, &[0.95, 1.0])?;
        let prev = dismastd_core::als::cp_als(stream.snapshot(0), &cfg)?;
        let complement = stream.snapshot(1).complement(stream.snapshot(0).shape())?;
        let (serial_iter, _) = measure_serial_iter(&complement, prev.kruskal.factors(), &cfg)?;

        println!("-- {} (complement nnz {}) --", spec.name, complement.nnz());
        let mut rows: Vec<Vec<String>> = Vec::new();
        for partitioner in [Partitioner::Gtp, Partitioner::Mtp] {
            for &nodes in &NODES {
                // Partitions per mode = nodes (the Fig. 6 guidance).
                let cluster = ClusterConfig::new(nodes)
                    .with_partitioner(partitioner)
                    .with_parts_per_mode(vec![nodes; full.order()]);
                let dist = decompose(&complement, prev.kruskal.factors(), &cfg, &cluster)?;
                let (max_load, _) = placement_profile(&complement, partitioner, nodes, nodes)?;
                let profile = profile_from_run(&complement, &dist, max_load, nodes, nodes);
                let modeled = modeled_iter_time(serial_iter, &profile, &ctx.cost);
                let method = format!("DisMASTD-{}", partitioner.name());
                rows.push(vec![
                    method.clone(),
                    nodes.to_string(),
                    secs(modeled),
                    format!("{:.1}", profile.bytes_per_iter as f64 / 1024.0),
                ]);
                records.push(ResultRecord {
                    experiment: "fig7".into(),
                    dataset: spec.name.clone(),
                    method,
                    x: nodes as f64,
                    value: modeled.as_secs_f64(),
                    extra: BTreeMap::from([
                        ("bytes_per_iter".into(), profile.bytes_per_iter as f64),
                        ("serial_iter_s".into(), serial_iter.as_secs_f64()),
                    ]),
                });
            }
        }
        print_table(&["method", "nodes", "modeled s/iter", "KB/iter"], &rows);

        // Speedup 3 → 15 nodes, the paper's scalability observation.
        for m in ["DisMASTD-GTP", "DisMASTD-MTP"] {
            let v = |n: f64| {
                records
                    .iter()
                    .find(|r| r.dataset == spec.name && r.method == m && r.x == n)
                    .map_or(f64::NAN, |r| r.value)
            };
            println!("=> {m}: speedup 3→15 nodes = {:.2}x", v(3.0) / v(15.0));
        }
        println!();
    }
    save_records("fig7", &records)?;
    Ok(())
}
