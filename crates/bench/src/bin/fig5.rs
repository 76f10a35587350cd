//! **Fig. 5** — running time per iteration versus the multi-aspect
//! streaming tensor (75% → 100% of each dataset, 5% steps), comparing
//! DisMASTD-GTP / DisMASTD-MTP against the extended static baseline
//! DMS-MG-GTP / DMS-MG-MTP, on all four datasets.
//!
//! ```text
//! cargo run -p dismastd-bench --release --bin fig5
//! DISMASTD_SCALE=0.5 cargo run -p dismastd-bench --release --bin fig5
//! ```
//!
//! Expected shape (paper Sec. V-B1): DisMASTD is much faster than DMS-MG
//! and stays flat as the stream grows (its cost tracks the complement,
//! not the accumulated tensor); DMS-MG grows with the tensor; MTP edges
//! out GTP.
#![allow(clippy::needless_range_loop)]

use dismastd_bench::{
    measure_serial_iter, modeled_iter_time, placement_profile, print_table, profile_from_run,
    save_records, secs, ExperimentContext, ResultRecord,
};
use dismastd_core::{decompose, ClusterConfig, DecompConfig};
use dismastd_data::{DatasetSpec, StreamSequence};
use dismastd_partition::Partitioner;
use std::collections::BTreeMap;

const WORKERS: usize = 15; // the paper's cluster size
const PARTS: usize = 15; // partitions per mode = nodes (the paper's guide)

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExperimentContext::from_env();
    let cfg = DecompConfig::default().with_max_iters(5);
    // 70% primes the previous decomposition; 75%..100% are the plotted steps.
    let fractions = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00];
    let mut records: Vec<ResultRecord> = Vec::new();

    println!(
        "== Fig. 5: time/iteration vs stream step (scale {:.2}) ==\n",
        ctx.scale
    );
    for spec in DatasetSpec::all(ctx.scale) {
        let full = spec.generate()?;
        let stream = StreamSequence::cut(&full, &fractions)?;
        println!("-- {} {:?}, nnz {} --", spec.name, full.shape(), full.nnz());

        let mut rows: Vec<Vec<String>> = Vec::new();
        for partitioner in [Partitioner::Gtp, Partitioner::Mtp] {
            let cluster = ClusterConfig::new(WORKERS)
                .with_partitioner(partitioner)
                .with_parts_per_mode(vec![PARTS; full.order()]);

            // ---- DisMASTD: DTD over the complement, warm factors ----------
            let method = format!("DisMASTD-{}", partitioner.name());
            let prime = dismastd_core::als::cp_als(stream.snapshot(0), &cfg)?;
            let mut prev = prime.kruskal;
            let mut prev_shape = stream.snapshot(0).shape().to_vec();
            for t in 1..stream.len() {
                let snap = stream.snapshot(t);
                let complement = snap.complement(&prev_shape)?;
                let (serial_iter, serial_out) =
                    measure_serial_iter(&complement, prev.factors(), &cfg)?;
                let dist = decompose(&complement, prev.factors(), &cfg, &cluster)?;
                let (max_load, _) = placement_profile(&complement, partitioner, PARTS, WORKERS)?;
                let profile = profile_from_run(&complement, &dist, max_load, WORKERS, PARTS);
                let modeled = modeled_iter_time(serial_iter, &profile, &ctx.cost);
                rows.push(vec![
                    method.clone(),
                    format!("{:.0}%", fractions[t] * 100.0),
                    complement.nnz().to_string(),
                    secs(modeled),
                    secs(dist.time_per_iter()),
                    format!("{:.1}", profile.bytes_per_iter as f64 / 1024.0),
                ]);
                records.push(ResultRecord {
                    experiment: "fig5".into(),
                    dataset: spec.name.clone(),
                    method: method.clone(),
                    x: fractions[t] * 100.0,
                    value: modeled.as_secs_f64(),
                    extra: BTreeMap::from([
                        ("measured_iter_s".into(), dist.time_per_iter().as_secs_f64()),
                        ("processed_nnz".into(), complement.nnz() as f64),
                        ("bytes_per_iter".into(), profile.bytes_per_iter as f64),
                    ]),
                });
                prev = serial_out.kruskal;
                prev_shape = snap.shape().to_vec();
            }

            // ---- DMS-MG: static re-decomposition of the full snapshot -----
            let method = format!("DMS-MG-{}", partitioner.name());
            for t in 1..stream.len() {
                let snap = stream.snapshot(t);
                let (serial_iter, _) = measure_serial_iter(snap, &[], &cfg)?;
                let dist = decompose(snap, &[], &cfg, &cluster)?;
                let (max_load, _) = placement_profile(snap, partitioner, PARTS, WORKERS)?;
                let profile = profile_from_run(snap, &dist, max_load, WORKERS, PARTS);
                let modeled = modeled_iter_time(serial_iter, &profile, &ctx.cost);
                rows.push(vec![
                    method.clone(),
                    format!("{:.0}%", fractions[t] * 100.0),
                    snap.nnz().to_string(),
                    secs(modeled),
                    secs(dist.time_per_iter()),
                    format!("{:.1}", profile.bytes_per_iter as f64 / 1024.0),
                ]);
                records.push(ResultRecord {
                    experiment: "fig5".into(),
                    dataset: spec.name.clone(),
                    method: method.clone(),
                    x: fractions[t] * 100.0,
                    value: modeled.as_secs_f64(),
                    extra: BTreeMap::from([
                        ("measured_iter_s".into(), dist.time_per_iter().as_secs_f64()),
                        ("processed_nnz".into(), snap.nnz() as f64),
                        ("bytes_per_iter".into(), profile.bytes_per_iter as f64),
                    ]),
                });
            }
        }
        print_table(
            &[
                "method",
                "step",
                "processed nnz",
                "modeled s/iter",
                "measured s/iter",
                "KB/iter",
            ],
            &rows,
        );

        // Headline comparison at the 100% step.
        let at = |m: &str| {
            records
                .iter()
                .rev()
                .find(|r| r.dataset == spec.name && r.method == m && r.x == 100.0)
                .map(|r| r.value)
                .unwrap_or(f64::NAN)
        };
        let best_dis = at("DisMASTD-MTP").min(at("DisMASTD-GTP"));
        let best_dms = at("DMS-MG-MTP").min(at("DMS-MG-GTP"));
        println!(
            "=> at 100%: DisMASTD {:.4}s/iter vs DMS-MG {:.4}s/iter  ({:.1}x)\n",
            best_dis,
            best_dms,
            best_dms / best_dis
        );
    }
    save_records("fig5", &records)?;
    Ok(())
}
