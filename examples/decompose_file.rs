//! Command-line decomposition of a COO tensor file — the "bring your own
//! data" entry point.
//!
//! ```text
//! cargo run -p dismastd-examples --bin decompose_file --release -- \
//!     [INPUT.tns] [RANK] [--distributed N]
//! ```
//!
//! Reads a FROSTT-style COO text file (`%shape I J K` header, 1-based
//! `i j k value` lines — see `dismastd_data::io`), runs CP-ALS at the given
//! rank (default 10), and writes the factor matrices as JSON next to the
//! input.  With `--distributed N` the decomposition runs on the N-worker
//! simulated cluster and reports the network traffic it counted.
//!
//! Run without arguments to see it demonstrated on a bundled synthetic
//! tensor written to a temporary directory.

use dismastd_core::{decompose, ClusterConfig, DecompConfig};
use dismastd_data::io::{read_coo_text, write_coo_text};
use dismastd_data::uniform_tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Demo mode: fabricate an input file when none is given.
    let (input, rank, workers) = parse_args(&args);
    let input = match input {
        Some(path) => path,
        None => demo_input()?,
    };

    // 1. Load.
    let file = File::open(&input).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", input.display());
        std::process::exit(1);
    });
    let tensor = read_coo_text(file).unwrap_or_else(|e| {
        eprintln!("cannot parse {}: {e}", input.display());
        std::process::exit(1);
    });
    println!(
        "loaded {:?} tensor with {} nonzeros from {}",
        tensor.shape(),
        tensor.nnz(),
        input.display()
    );

    // 2. Decompose.
    let cfg = DecompConfig::default()
        .with_rank(rank)
        .with_max_iters(20)
        .with_tolerance(1e-6);
    let start = std::time::Instant::now();
    // No history: a static decomposition, on one worker unless asked.
    let out = decompose(
        &tensor,
        &[],
        &cfg,
        &ClusterConfig::new(workers.unwrap_or(1)),
    )?;
    let (kruskal, iterations, c) = (out.kruskal, out.iterations, out.comm);
    let elapsed = start.elapsed();
    let fit = kruskal.fit(&tensor)?;
    println!("rank-{rank} CP decomposition: {iterations} iterations, fit {fit:.4}, {elapsed:.2?}");
    if workers.is_some() {
        println!(
            "cluster traffic: {:.1} KB in {} messages, {} collectives",
            c.bytes as f64 / 1024.0,
            c.messages,
            c.collectives
        );
    }

    // 3. Rank components by weight and save.
    let mut normalised = kruskal.clone();
    let weights = normalised.normalize_columns();
    let mut ranked: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "component weights (desc): {:?}",
        ranked
            .iter()
            .map(|(_, w)| (w * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    let out_path = input.with_extension("factors.json");
    let json = serde_json::to_string(&kruskal)?;
    std::fs::write(&out_path, json)?;
    println!("factors written to {}", out_path.display());

    Ok(())
}

/// Fabricates the bundled demo tensor in the temp directory.
fn demo_input() -> Result<PathBuf, Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("dismastd_demo.tns");
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let t = uniform_tensor(&[60, 50, 40], 5_000, &mut rng)?;
    let f = File::create(&path)?;
    write_coo_text(&t, f)?;
    println!(
        "(no input given — demo tensor written to {})",
        path.display()
    );
    Ok(path)
}

fn parse_args(args: &[String]) -> (Option<PathBuf>, usize, Option<usize>) {
    let mut input = None;
    let mut rank = 10usize;
    let mut workers = None;
    let mut i = 0;
    let mut positional = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--distributed" => {
                i += 1;
                workers = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--distributed needs a worker count");
                    std::process::exit(2);
                }));
            }
            other => {
                match positional {
                    0 => input = Some(PathBuf::from(other)),
                    1 => {
                        rank = other.parse().unwrap_or_else(|_| {
                            eprintln!("RANK must be a positive integer, got {other}");
                            std::process::exit(2);
                        })
                    }
                    _ => {
                        eprintln!("unexpected argument {other}");
                        std::process::exit(2);
                    }
                }
                positional += 1;
            }
        }
        i += 1;
    }
    (input, rank, workers)
}
