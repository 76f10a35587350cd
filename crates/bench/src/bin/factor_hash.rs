//! Factor-hash harness: which bits a change moves, and what its row
//! routing costs (see `dismastd_bench::factor_hash`).
//!
//! ```text
//! cargo run -p dismastd-bench --release --bin factor_hash             # identity lines
//! cargo run -p dismastd-bench --release --bin factor_hash -- --routes 1   # routing audit, seed 1
//! ```
//!
//! Identity lines must be equal between `DISMASTD_THREADS=1` and `=4` and
//! between two runs (`scripts/check.sh` diffs them); diff parent against
//! change to see which configurations a PR moves.  The routing audit runs
//! the three benchmark workloads at full size at worlds 2 and 4, prints the
//! routed rows of every candidate worker grid beside the chosen one, and
//! exits non-zero when a step's `wire_bytes` differ from its `predicted`
//! bytes (`scripts/check.sh` runs it).

use dismastd_bench::factor_hash::{all_modes, identity_lines, routing_lines};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (lines, failed) = match args.as_slice() {
        [] => (identity_lines(&all_modes())?, 0),
        [flag, seed] if flag == "--routes" => routing_lines(seed.parse()?)?,
        _ => return Err("usage: factor_hash [--routes <seed>]".into()),
    };
    for line in lines {
        println!("{line}");
    }
    if failed > 0 {
        return Err(format!("{failed} routing lines disagree with the bytes counted").into());
    }
    Ok(())
}
