#!/usr/bin/env bash
# Repo gate: formatting, lints, build, tests.  Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
# Short recv backstop: a hang in a test is a bug, not something to wait
# 30s for.  Suites that legitimately need longer (or no) backstops opt
# out per-run via ClusterOptions.
export DISMASTD_TEST_TIMEOUT_MS=10000
cargo test -q

echo "==> stress suites (numerics robustness + fault injection + recovery + observability)"
cargo test -q -p dismastd-integration-tests --test numerics_robustness --test fault_injection \
  --test observability

echo "==> pooled kernels at DISMASTD_THREADS=4 (factor bits must not move)"
# The kernel pool honours DISMASTD_THREADS when the config says Auto; the
# tensor suite's pooled-vs-serial proptests and the observability suite's
# dropped-recording assertions are the ones a thread-count bug would trip.
# CI additionally runs this whole script under a threads={1,4} matrix.
DISMASTD_THREADS=4 cargo test -q -p dismastd-tensor
DISMASTD_THREADS=4 cargo test -q -p dismastd-integration-tests --test observability

echo "==> factor-hash harness (factor and loss_trace bits equal at DISMASTD_THREADS 1 and 4)"
# One line per dataset x rank x {serial, worlds 1-4} over a 4-step stream.
# Diff the output of a parent build against a change's to see which
# configurations a PR moves; the serial and world-1 lines are also pinned
# as goldens by the dismastd-bench unit tests.
hash_dir=$(mktemp -d)
DISMASTD_THREADS=1 cargo run -q --release -p dismastd-bench --bin factor_hash > "$hash_dir/threads1"
DISMASTD_THREADS=4 cargo run -q --release -p dismastd-bench --bin factor_hash > "$hash_dir/threads4"
diff "$hash_dir/threads1" "$hash_dir/threads4"
rm -r "$hash_dir"

echo "==> routing audit (benchmark workloads at worlds 2 and 4: bytes counted = bytes the row routing predicts)"
# Also prints, per step, the routed rows of every candidate worker grid and
# where the chosen one ranks; exits non-zero on any step whose wire bytes
# the routing does not predict, or whose placement no candidate grid
# reproduces.
cargo run -q --release -p dismastd-bench --bin factor_hash -- --routes 1 > /dev/null

echo "==> deterministic-simulation smoke sweep (16 seeds; CI runs 64)"
# One u64 seed drives scheduler interleaving, link latency, partitions,
# and fault fates; a failing seed is printed in the panic and replays
# bit-for-bit.
DISMASTD_DST_SEEDS=16 cargo test -q -p dismastd-integration-tests --test sim_dst

echo "==> barrier crash races on SimNet seeds (loom scenarios, ordinary build)"
DISMASTD_DST_SEEDS=16 cargo test -q -p dismastd-cluster --test sim_barrier_crash

echo "==> example smoke run (miniature end-to-end pipeline)"
DISMASTD_SMOKE=1 cargo run -q --release -p dismastd-examples --bin quickstart > /dev/null

echo "==> repo benchmark smoke (benchmark/ still compiles against the public API; correctness gate; metric names match BENCHMARK.json)"
# benchmark/ is a package of its own, outside this workspace, so nothing
# above compiles it: a public-API change that breaks it, or a result that
# trips its bit-identity gate, would otherwise first show up in the
# benchmark driver.  All three workloads at scale 0.2, R = 2, both modes.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null
# benchmark/Cargo.lock records the dependency set of every crate the
# benchmark links.  A PR may not edit benchmark/, so a dependency change
# in one of those crates must fail here — when cargo rewrites the lock —
# rather than silently dirty the directory.
git diff --exit-code -- benchmark/Cargo.lock

echo "==> invariant lints (dismastd-xtask: panic-path, determinism, span-taxonomy, error-hygiene, clock-hygiene, narrowing-cast)"
# Replaces the old sed/grep panic audits, which hand-listed files and
# stopped reading at the first inline test module.  The xtask lexes every
# crate in its scope table, exempts test regions structurally, and also
# enforces determinism (no hash-order or wall-clock dependence on the
# bit-identical factor path), the obs span taxonomy, and error hygiene.
# Deliberate panics carry a `// lint:allow(<name>): <reason>` directive.
cargo run -q -p dismastd-xtask -- lint

echo "==> interprocedural audits (dismastd-xtask: collective-order, panic-budget, alloc-hygiene)"
# Whole-workspace call graph on the same lexer: no collective reachable
# from worker_body under a rank-conditioned branch (L6 — no lint:allow
# form: every rank takes the solver decisions itself, so nothing is
# sanctioned to branch on the rank around a collective), the transitive
# panic surface of public APIs pinned against crates/xtask/panic_budget.txt
# (L7 — growth fails; refresh with `analyze --write-budget` after review),
# and no allocating call reachable from the steady-state MTTKRP / row-solve /
# gram / exchange kernels (L8).
cargo run -q -p dismastd-xtask -- analyze

echo "==> allocation audits (count-alloc feature: zero allocations after warm-up; warm-ingest bytes independent of the resident block; serial dtd iterations allocation-free; resident bytes per nonzero; a plan over long modes built from its entries)"
# The dynamic twin of L8: a counting global allocator measures a full
# gram -> all-reduce -> row-exchange round on every rank after the pools
# warm up; the budget is exactly zero.  Its byte counter also holds the
# streaming step to O(nnz(complement)): a warm serial ingest must request
# exactly the same bytes with a 4x denser old block behind the same
# arrivals, and a serial dtd of six iterations makes the allocator calls
# of one of two (solve + Gram work in kept buffers).  Its process-wide
# live-bytes gauge pins the memory model: a stream cut holds 20 B per
# order-3 nonzero and nothing else that scales, and a warm ingest peaks at
# complement + plan + O(rows x R) above its inputs.  And a plan's build is
# sized by its entries, not by its modes' lengths, so one plan per grid
# cell does not cost cells x sum(shape).
cargo test -q -p dismastd-integration-tests --features count-alloc --test steady_state_alloc

echo "All checks passed."
