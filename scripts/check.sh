#!/usr/bin/env bash
# Repo gate: formatting, lints, build, tests.  Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> retired communication-policy, membership and fault names stay gone"
# The distributed step has one exact exchange payload, and every Gram
# reduction riding it splits its buffer into one near-equal slice per rank;
# the first group of names belonged to the lossy f32 row path, its second
# byte ledger, the allreduce override and the frame-corruption fate, all
# deleted.  The second group belonged to the queued join/leave path, the
# restore-into-a-world variants and the migrated-rows probe:
# StreamingSession::set_workers is the one way to change the world size.
# The third is set-up's Gram all-reduce: the driver builds set-up's Gram
# state, so the ingest path runs no all-reduce.  The fourth is the
# size-picking allreduce algorithm whose owner maps the Gram reductions
# once imitated, one per buffer length.  The fifth: crashes are armed only
# in FaultPlan; aborts carry the error value (and the unused gauge
# instrument and index payload went with them).  The sixth belonged to the
# serial solver's own ALS loop: serial `dtd` is the distributed step at
# world 1.  The seventh were the step's hand-written row collectives and
# their routing tables: the step's protocol lives in `Schedule`, compiled
# by `build_plans`, and one executor packs and unpacks every round of it.
# The eighth were the solver's per-method entries and outputs: the one
# entry is `decompose(x, history, cfg, &ClusterConfig)` (an empty history
# is the static baseline), it returns one `Decomposition`, and it folds
# every rank's metrics into the caller's registry itself.  The ninth were
# the step's placement memo and the retry paths split around it: every
# attempt lays out its own placement, and `ingest` holds the one loop
# over attempts.  The tenth belonged to modules the paper does not ask
# for: OnlineCP (a Table I taxonomy entry, not a baseline), rank selection
# and the raw event log, and with them the L7 panic budget, whose last two
# entries they held: L7 admits no public function that reaches a panic.
# Test fixtures that must spell an old checkpoint's fields live in .json
# files, outside this search.
if grep -rnE '\b(CommPolicy|downcast_f32|maybe_compress|WireMeta|Framed|compressed_bytes|with_corruption|allreduce_grams)\b|MembershipChange|request_join|request_leave|pending_membership|_with_world\b|ownership_delta|membership/|AllreduceAlgo::Auto\b|AUTO_RING_MIN_TOTAL_BYTES|last_owners|CrashAndRejoin|with_crash_and_rejoin|crash_rejoins|ABORT_TAG|decode_abort|gauge_set|Payload::U64|rows_missing_from|\b(PendingRefresh|complete_refresh|unpack_gathered|gather_factors|pack_rows|partial_routes|serve_routes)\b|\bdms_mg\b|\bdismastd\(|\bDtdOutput\b|\bDistOutput\b|discarded_metrics|\b(StepPlans|plans_for|decompose_healing|decompose_once)\b|plan/cache_hit|OnlineCp|select_rank|RankSearch|EventLog|panic_budget' \
  crates tests examples --include='*.rs'; then
  echo "a retired name reappeared (above)" >&2
  exit 1
fi

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

echo "==> factor-hash harness (factor and loss_trace bits equal at DISMASTD_THREADS 1 and 4; serial = world 1)"
# One line per dataset x rank x {serial, worlds 1-4} over a 4-step stream.
# Diff the output of a parent build against a change's to see which
# configurations a PR moves; the serial and world-1 lines are also pinned
# as goldens by the dismastd-bench unit tests.  Serial and world 1 are one
# path — `dtd` runs the distributed step at world 1 — so every serial line
# must equal the world-1 line after it, at both thread counts.
hash_dir=$(mktemp -d)
DISMASTD_THREADS=1 cargo run -q --release -p dismastd-bench --bin factor_hash > "$hash_dir/threads1"
DISMASTD_THREADS=4 cargo run -q --release -p dismastd-bench --bin factor_hash > "$hash_dir/threads4"
diff "$hash_dir/threads1" "$hash_dir/threads4"
for threads in 1 4; do
  if ! awk '$3 == "serial" { want = $0; sub(/ serial /, " world1 ", want); pairs++; next }
            $3 == "world1" { if ($0 != want) bad++; want = "" }
            END { exit (bad > 0 || pairs == 0) }' "$hash_dir/threads$threads"; then
    echo "a serial identity line differs from its world-1 line (DISMASTD_THREADS=$threads)" >&2
    exit 1
  fi
done
# The untouched-row path (old rows no complement nonzero references, which
# leave the ALS loop) must stay exercised: its line counts those rows from
# the nonzeros, and Clothing's total must not be 0.
if ! grep -qE '^Clothing +untouched_rows=[1-9]' "$hash_dir/threads1"; then
  echo "the Clothing identity stream leaves no old row untouched" >&2
  exit 1
fi
rm -r "$hash_dir"

echo "==> routing audit (benchmark workloads at worlds 2 and 4: bytes counted = bytes the row routing predicts; generator fingerprints; plan bytes within their model; warm steps read what arrived)"
# Also prints, per step, the routed rows of every candidate worker grid and
# where the chosen one ranks; exits non-zero on any step whose wire bytes
# the routing does not predict, or whose placement no candidate grid
# reproduces.  The gather skips the owned rows rank 0 forms or holds: the
# Clothing stream must keep skipping some, or that path goes unexercised.
routes=$(mktemp)
cargo run -q --release -p dismastd-bench --bin factor_hash -- --routes 1 > "$routes"
if ! grep -qE '^clothing_rows .* stream .* gather_skipped=[1-9]' "$routes"; then
  echo "the Clothing routing audit gathers every owned row" >&2
  exit 1
fi
# The generator and the stream cut at the benchmark's scale: one
# fingerprint line per workload (FNV-1a of the generated tensor's
# coordinates and value bits, and each snapshot's nnz), equal to the
# checked-in text.  A builder or sampler change that moves a generated bit,
# or a cut that drops or duplicates an entry, fails here; a change meant to
# move them rewrites scripts/generated_seed1.txt and says why.
if ! grep -E '^(clothing_rows|netflix_nnz|synthetic_fine) seed=1 generated ' "$routes" |
  diff - scripts/generated_seed1.txt; then
  echo "the generated workloads or their snapshots differ from scripts/generated_seed1.txt" >&2
  exit 1
fi
# A cold step's MTTKRP plans read each grid cell where it is: per workload
# and world (1, 2, 4) the plans a cold step over the first snapshot builds
# may hold what the exact model beside them counts and no more — at order
# 3, 32 B per nonzero for the two copied modes plus the run and stretch
# tables (`plan_bytes … plan=[…] model=[…]`; the bin itself also fails on
# it).  That the step copies no cell before planning it is the count-alloc
# audit's `a_cold_world2_step_holds_its_plans_and_no_cell_copy` below.
if ! awk '/ plan_bytes / {
      seen++
      p = $0; sub(/.* plan=\[/, "", p); sub(/\].*/, "", p)
      m = $0; sub(/.* model=\[/, "", m); sub(/\].*/, "", m)
      worlds = split(p, plan, " ")
      if (split(m, model, " ") != worlds || worlds != 3) bad++
      for (w = 1; w <= worlds; w++) if (plan[w] + 0 > model[w] + 0) bad++
    }
    END { exit (bad > 0 || seen != 3) }' "$routes"; then
  echo "a cold step's plans hold more than their model (plan_bytes lines above the model, or missing)" >&2
  exit 1
fi
# A warm step reads only what arrived: on a stream's snapshots its
# validation and its complement each read exactly its complement's entries
# (`resident_read=[validate/complement/fit …]` beside `complement_nnz=[…]`,
# one serial session over the stream).  A change to the cut, the store or
# the session that silently sends warm steps back to scanning the whole
# snapshot fails here, whatever the timings show.
if ! awk '/^synthetic_fine seed=1 resident_read=/ {
      seen++
      r = $0; sub(/.*resident_read=\[/, "", r); sub(/\].*/, "", r)
      c = $0; sub(/.*complement_nnz=\[/, "", c); sub(/\].*/, "", c); gsub(/,/, "", c)
      steps = split(r, reads, " ")
      if (split(c, nnz, " ") != steps || steps < 2) bad++
      for (t = 2; t <= steps; t++) {
        split(reads[t], x, "/")
        if (x[1] != nnz[t] || x[2] != nnz[t]) bad++
      }
    }
    END { exit (bad > 0 || seen != 1) }' "$routes"; then
  echo "a synthetic_fine warm step read more than its complement to validate or to take it" >&2
  exit 1
fi
rm "$routes"

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

echo "==> interprocedural audits (dismastd-xtask: collective-order, panic-reachability, alloc-hygiene, unreached)"
# Whole-workspace call graph on the same lexer: no collective reachable
# from worker_body under a rank-conditioned branch (L6 — no lint:allow
# form: every rank takes the solver decisions itself, so nothing is
# sanctioned to branch on the rank around a collective), no public function
# of a library crate that transitively reaches a panic site (L7 — no
# lint:allow form and no budget: the finding gives the call chain), no
# allocating call reachable from the steady-state MTTKRP / row-solve /
# gram / exchange kernels (L8), and every public function of the library
# crates reached from a bin, bench, example or the benchmark, kept in
# crates/xtask/api_roots.txt, or listed with a reason in
# crates/xtask/test_only.txt (L10 — a ratchet: refresh with
# `analyze --write-budget` after review).
cargo run -q -p dismastd-xtask -- analyze

echo "==> budget counts (copy this line into CHANGES.md and ROADMAP anchors)"
# Non-test lines: the lines above each file's first `#[cfg(test)]`, over
# crates/*/src/*.rs and crates/*/src/bin/*.rs.  `pub fn`: the lines naming
# one, per library crate.  Then the entries of the test-only budget.
non_test=$(for f in crates/*/src/*.rs crates/*/src/bin/*.rs; do
  awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ s += $1 } END { print s }')
pub_fns=$(for c in tensor core cluster partition data obs; do
  grep -rh 'pub fn' "crates/$c/src" | wc -l
done | paste -sd/)
entries() { grep -cvE '^[[:space:]]*(#|$)' "$1" || true; }
echo "budget: non_test_lines=$non_test pub_fn(tensor/core/cluster/partition/data/obs)=$pub_fns" \
  "test_only=$(entries crates/xtask/test_only.txt)"

echo "==> allocation audits (count-alloc feature: zero allocations after warm-up; warm-ingest bytes independent of the resident block; serial dtd iterations allocation-free; a stream cut holds nnz_T x 20 B + T x TENSOR_SLACK; a plan over long modes built from its entries; a cold world-2 step copies no cell)"
# The dynamic twin of L8: a counting global allocator measures a full
# gram -> all-reduce -> row-exchange round, and a refresh-carrying-Gram-
# slices -> fence -> partials-carrying-reduced-slices round, on every rank
# after the pools warm up; the budget is exactly zero.  Its byte counter also holds the
# streaming step to O(nnz(complement)): a warm serial ingest must request
# exactly the same bytes with a 4x denser old block behind the same
# arrivals, and a serial dtd of six iterations makes the allocator calls
# of one of two (solve + Gram work in kept buffers).  Its process-wide
# live-bytes gauge pins the memory model: a stream cut holds 20 B per
# order-3 nonzero of its last snapshot, once (every snapshot is a prefix
# of one store), and returns every byte when dropped; a warm ingest peaks at
# complement + plan + O(rows x R) above its inputs, and a cold world-2 step
# at its plans' copied modes + O(rows x R + stretches), no cell copied.
# And a plan's build is sized by its entries, not by its modes' lengths, so
# one plan per grid cell does not cost cells x sum(shape).
cargo test -q -p dismastd-integration-tests --features count-alloc --test steady_state_alloc

echo "All checks passed."
