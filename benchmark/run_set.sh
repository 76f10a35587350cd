#!/bin/sh
# Runs every workload once per seed with tracing off, then once traced with
# the first seed, and leaves one result file per run in <out_dir>.
#
#   benchmark/run_set.sh <out_dir> [seed ...]        (default seeds: 1 2 3 4 5)
#
# Run it from the repository root.  Two sets taken some minutes apart are the
# input of benchmark/compare.py.
set -eu
out=${1:?usage: benchmark/run_set.sh <out_dir> [seed ...]}
shift
[ $# -gt 0 ] || set -- 1 2 3 4 5
first=$1
run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@" --out "$out"
}
for workload in clothing_rows netflix_nnz synthetic_fine; do
    for seed in "$@"; do
        run --workload "$workload" --seed "$seed" --trace 0 | tail -n 1
    done
    run --workload "$workload" --seed "$first" --trace 1 | tail -n 1
done
