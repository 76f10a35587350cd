//! Cluster scaling study — a miniature of the paper's Fig. 6 and Fig. 7.
//!
//! ```text
//! cargo run -p dismastd-examples --bin cluster_scaling --release
//! ```
//!
//! Runs one DisMASTD snapshot update over the simulated cluster while
//! sweeping (a) the number of worker nodes and (b) the number of tensor
//! partitions per mode, for both partitioning heuristics.  Reports measured
//! iteration time, network bytes, and the per-worker load balance so you
//! can see the trade-offs the paper discusses: more workers → faster until
//! coordination dominates; partitions ≈ workers is the sweet spot; MTP
//! balances skewed tensors better than GTP.

use dismastd_core::{decompose, ClusterConfig, DecompConfig};
use dismastd_data::zipf_tensor;
use dismastd_partition::{BalanceStats, GridPartition, Partitioner};
use dismastd_tensor::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A skewed tensor (Zipf indices) so GTP and MTP actually differ.
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let new_shape = [600usize, 500, 200];
    let old_shape = [450usize, 375, 150];
    let full = zipf_tensor(&new_shape, 60_000, &[1.0, 1.0, 0.7], &mut rng)?;
    let complement = full.complement(&old_shape)?;

    // Previous factors: pretend the old box was already decomposed.
    let rank = 10;
    let mut frng = ChaCha8Rng::seed_from_u64(32);
    let old_factors: Vec<Matrix> = old_shape
        .iter()
        .map(|&s| Matrix::random(s, rank, &mut frng))
        .collect();
    let cfg = DecompConfig::default().with_rank(rank).with_max_iters(5);

    println!(
        "complement: {} nonzeros outside the {:?} box of a {:?} tensor\n",
        complement.nnz(),
        old_shape,
        new_shape
    );

    println!("-- sweep 1: worker count (partitions = workers per mode) --------------");
    println!("workers  method  time/iter   net KB/iter  collectives");
    for &workers in &[1usize, 2, 4, 8] {
        for p in [Partitioner::Gtp, Partitioner::Mtp] {
            let cluster = ClusterConfig::new(workers).with_partitioner(p);
            let out = decompose(&complement, &old_factors, &cfg, &cluster)?;
            println!(
                "{:>7}  {:>6}  {:>9.2?}  {:>10.1}  {:>11}",
                workers,
                p.name(),
                out.time_per_iter(),
                out.comm.bytes as f64 / 1024.0 / out.iterations as f64,
                out.comm.collectives / out.iterations as u64,
            );
        }
    }

    println!("\n-- sweep 2: partitions per mode (4 workers) ---------------------------");
    println!("parts/mode  method  time/iter   worker-load CV");
    for &parts in &[2usize, 4, 8, 16] {
        for p in [Partitioner::Gtp, Partitioner::Mtp] {
            let cluster = ClusterConfig::new(4)
                .with_partitioner(p)
                .with_parts_per_mode(vec![parts; 3]);
            let out = decompose(&complement, &old_factors, &cfg, &cluster)?;
            // Re-derive the placement to report the load balance it gave.
            let grid = GridPartition::build(&complement, p, &[parts; 3], 4)?;
            let balance = BalanceStats::from_loads(&grid.worker_loads(&complement));
            println!(
                "{:>10}  {:>6}  {:>9.2?}  {:>14.4}",
                parts,
                p.name(),
                out.time_per_iter(),
                balance.cv,
            );
        }
    }

    println!("\n-- partition balance detail (per-mode slice partitions, 8 parts) ------");
    println!("mode  GTP std-dev  MTP std-dev");
    for mode in 0..3 {
        let hist = complement.slice_nnz(mode)?;
        let g = dismastd_partition::gtp(&hist, 8).balance(&hist);
        let m = dismastd_partition::mtp(&hist, 8).balance(&hist);
        println!("{:>4}  {:>11.1}  {:>11.1}", mode, g.std_dev, m.std_dev);
    }

    Ok(())
}
