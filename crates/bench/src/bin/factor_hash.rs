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
//! change to see which configurations a PR moves.  One more line per
//! dataset totals the stream's untouched old rows (`scripts/check.sh`
//! fails when Clothing's is 0).  The routing audit runs
//! the three benchmark workloads at full size at worlds 2 and 4 (first
//! fingerprinting each generated tensor: `generated … tensor=`), prints the
//! routed rows of every candidate worker grid beside the chosen one and
//! the rows the gather ships and skips (`gather_rows=` / `gather_skipped=`;
//! `scripts/check.sh` fails when Clothing's stream skips none), and exits
//! non-zero when a step's `wire_bytes` differ from its `predicted` bytes
//! (`scripts/check.sh` runs it).  Each workload's block ends with a
//! `resident_read` line: per step of one serial session over the stream,
//! the entries `ingest` read to validate, to take the complement and to
//! score the fit, beside the complement's nnz and a hash of every step's
//! fit bits (`fits=`; `scripts/check.sh` fails when a `synthetic_fine`
//! warm step validates or takes its complement from more than what
//! arrived).

use dismastd_bench::factor_hash::{all_modes, identity_lines, routing_lines, untouched_lines};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (lines, failed) = match args.as_slice() {
        [] => {
            let mut lines = identity_lines(&all_modes())?;
            lines.extend(untouched_lines()?);
            (lines, 0)
        }
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
