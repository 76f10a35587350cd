//! Pins the allocation-free steady state end-to-end (L8's runtime twin).
//!
//! The static audit (`cargo run -p dismastd-xtask -- analyze`, lint L8)
//! proves no allocating call is *reachable* from the steady-state
//! kernels; this test proves the dynamic side with a counting global
//! allocator: after a warm-up that fills the payload pools, a full
//! gram → all-reduce → row-exchange round performs **zero** allocations
//! on every rank, and so does the round a Gram reduction riding the row
//! exchanges takes (refresh carrying reduce slices → fence → partials
//! carrying reduced slices), an iteration's last mode with its loss slot
//! included.
//!
//! The same allocator's byte counter pins the streaming step's
//! O(nnz(complement)) memory property: a warm serial `ingest` requests
//! the same bytes whether the resident old block is sparse or 4× denser.
//!
//! Its process-wide live-bytes gauge pins the memory model itself — what a
//! stream's snapshots, a complement, a warm step and a cold world-2 step
//! *hold*, in bytes per nonzero — so a resident-set size can be explained
//! rather than observed.
//!
//! Runs only under `--features count-alloc`, which swaps in
//! [`dismastd_obs::alloc::CountingAlloc`]; the ordinary suite stays on
//! the system allocator.  Transport-internal channel nodes are exempted
//! at the send sites (see `WorkerCtx::deliver`) — the audit covers the
//! payload path, not the wire's bookkeeping.
#![cfg(feature = "count-alloc")]

use dismastd_cluster::{decode_rows_and_tail, BufferPool, Cluster, ClusterError, Payload};
use dismastd_obs::alloc::{
    allocated_bytes, allocation_count, live_bytes, peak_live_bytes, reset_peak_live_bytes,
    thread_held_bytes, CountingAlloc,
};
use dismastd_tensor::Matrix;
use std::sync::{PoisonError, RwLock};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The live-bytes gauge is process-wide and the harness runs tests on
/// parallel threads: the test that reads it takes this lock exclusively,
/// every other test shares it.
static GAUGE: RwLock<()> = RwLock::new(());

const WORLD: usize = 2;
const ROWS: usize = 12;
const RANK: usize = 5;
const WARMUP_ROUNDS: usize = 4;
const MEASURED_ROUNDS: usize = 8;

/// Makes the calling rank block once on its inbound channel, as the first
/// step of a warm-up.  std's channel allocates on a thread's first blocking
/// receive (its waiter context and waker entry), and a rank that happens
/// never to block during the warm-up rounds pays that inside the measured
/// ones.  Two barriers, each entered late by one side: in the first rank 0
/// waits for the late ranks' arrivals, in the second every other rank
/// waits for the late rank 0's release.
fn block_once(ctx: &mut dismastd_cluster::WorkerCtx) {
    for late_is_root in [false, true] {
        if (ctx.rank() == 0) == late_is_root {
            std::thread::sleep(Duration::from_millis(20));
        }
        let entered = ctx.try_barrier();
        assert!(entered.is_ok(), "rank {}: {entered:?}", ctx.rank());
    }
}

/// One steady-state round: local gram into `gram_buf`, flat all-reduce,
/// then an all-to-all row exchange with pooled payload staging.
fn round(
    ctx: &mut dismastd_cluster::WorkerCtx,
    factor: &Matrix,
    gram_buf: &mut [f64],
    pool: &mut BufferPool,
    outgoing: &mut Vec<Payload>,
    incoming: &mut Vec<Payload>,
) -> Result<f64, ClusterError> {
    let me = ctx.rank();
    let world = ctx.world();

    // Gram: G = Aᵀ·A accumulated in place, no scratch.
    for c1 in 0..RANK {
        for c2 in 0..RANK {
            let mut acc = 0.0;
            for row in 0..ROWS {
                acc += factor.get(row, c1) * factor.get(row, c2);
            }
            gram_buf[c1 * RANK + c2] = acc;
        }
    }

    // All-reduce the gram (the flat algorithm — the gram path's default).
    ctx.try_allreduce_sum(gram_buf)?;

    // Row exchange: ship this rank's rows to every peer from pooled
    // staging, drain the peers' rows back into the pool.
    outgoing.clear();
    for d in 0..world {
        if d == me {
            outgoing.push(Payload::Empty);
        } else {
            let mut stage = pool.take();
            for row in 0..ROWS {
                stage.extend_from_slice(factor.row(row));
            }
            outgoing.push(Payload::F64(stage));
        }
    }
    let pending = ctx.post_exchange(outgoing)?;
    ctx.complete_exchange(pending, incoming)?;

    let mut checksum = gram_buf.iter().sum::<f64>();
    for (d, payload) in incoming.drain(..).enumerate() {
        if d == me {
            continue;
        }
        let v = payload.try_into_f64()?;
        checksum += v.iter().sum::<f64>();
        pool.put(v);
    }
    Ok(checksum)
}

#[test]
fn gram_allreduce_exchange_round_is_allocation_free_after_warmup() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    let results = Cluster::try_run(WORLD, |ctx| {
        let me = ctx.rank();
        let factor = Matrix::from_fn(ROWS, RANK, |i, j| {
            (me as f64 + 1.0) * (i as f64 + 0.25 * j as f64 + 1.0)
        });
        let mut gram_buf = vec![0.0f64; RANK * RANK];
        let mut pool = BufferPool::new(true);
        let mut outgoing: Vec<Payload> = Vec::with_capacity(WORLD);
        let mut incoming: Vec<Payload> = Vec::with_capacity(WORLD);

        // Warm-up: the channel's first blocking receive, then this rank's
        // payload pool, the collectives' internal staging pool, and the
        // out-of-order receive buffer.
        block_once(ctx);
        let mut warm = 0.0;
        for _ in 0..WARMUP_ROUNDS {
            warm = round(
                ctx,
                &factor,
                &mut gram_buf,
                &mut pool,
                &mut outgoing,
                &mut incoming,
            )?;
        }

        let before = allocation_count();
        let mut measured = 0.0;
        for _ in 0..MEASURED_ROUNDS {
            measured = round(
                ctx,
                &factor,
                &mut gram_buf,
                &mut pool,
                &mut outgoing,
                &mut incoming,
            )?;
        }
        let delta = allocation_count() - before;

        // The rounds are deterministic, so warm and measured agree — a
        // sanity check that the pooled path computes the same values.
        assert_eq!(warm.to_bits(), measured.to_bits(), "rank {me} checksum");
        Ok(delta)
    })
    .expect("cluster run");

    for (rank, delta) in results.iter().enumerate() {
        assert_eq!(
            *delta, 0,
            "rank {rank}: {delta} allocation(s) in {MEASURED_ROUNDS} steady-state rounds"
        );
    }
}

/// Rank `d`'s slice of a packed Gram buffer in the fused round below: the
/// ranks own near-equal contiguous slices.
fn owned_slice(d: usize, len: usize) -> std::ops::Range<usize> {
    let (base, extra) = (len / WORLD, len % WORLD);
    let start = d * base + d.min(extra);
    start..start + base + usize::from(d < extra)
}

/// A row exchange whose payload to `d` is this rank's rows, then `tail(d)`
/// — packed from the pool the way the worker packs its frames.
fn post_rows_and_tail<'t>(
    ctx: &mut dismastd_cluster::WorkerCtx,
    factor: &Matrix,
    tail: impl Fn(usize) -> &'t [f64],
    pool: &mut BufferPool,
    outgoing: &mut Vec<Payload>,
) -> Result<dismastd_cluster::PendingExchange, ClusterError> {
    outgoing.clear();
    for d in 0..ctx.world() {
        if d == ctx.rank() {
            outgoing.push(Payload::Empty);
        } else {
            let mut stage = pool.take();
            for row in 0..ROWS {
                stage.extend_from_slice(factor.row(row));
            }
            stage.extend_from_slice(tail(d));
            outgoing.push(Payload::F64(stage));
        }
    }
    ctx.post_exchange(outgoing)
}

/// One steady-state round of a Gram reduction that rides the row
/// exchanges: a refresh carrying each owner its slice of this rank's
/// partials (the reduce half), the fence that completes it and folds the
/// slices in rank order, then a partials exchange carrying the reduced
/// slice to every rank (the gather half).
fn fused_round(
    ctx: &mut dismastd_cluster::WorkerCtx,
    factor: &Matrix,
    partial: &[f64],
    reduced: &mut [f64],
    pool: &mut BufferPool,
    outgoing: &mut Vec<Payload>,
    incoming: &mut Vec<Payload>,
) -> Result<f64, ClusterError> {
    let me = ctx.rank();
    let len = partial.len();
    let mine = owned_slice(me, len);
    let (lo, hi) = (mine.start, mine.end);

    let refresh = post_rows_and_tail(
        ctx,
        factor,
        |d| &partial[owned_slice(d, len)],
        pool,
        outgoing,
    )?;
    // Fence: fold this rank's slice over ranks 0, 1, … in turn.
    ctx.complete_exchange(refresh, incoming)?;
    for (d, payload) in incoming.drain(..).enumerate() {
        let data = match d == me {
            true => None,
            false => Some(decode_rows_and_tail(payload, d, ALL_ROWS, RANK, hi - lo)?),
        };
        let part = data
            .as_ref()
            .map_or(&partial[lo..hi], |data| &data[ROWS * RANK..]);
        for (s, &p) in reduced[lo..hi].iter_mut().zip(part) {
            *s = if d == 0 { p } else { p + *s };
        }
        if let Some(data) = data {
            pool.put(data);
        }
    }

    let partials = post_rows_and_tail(ctx, factor, |_| &reduced[lo..hi], pool, outgoing)?;
    ctx.complete_exchange(partials, incoming)?;
    let mut checksum = 0.0;
    for (d, payload) in incoming.drain(..).enumerate() {
        if d == me {
            continue;
        }
        let slice = owned_slice(d, len);
        let data = decode_rows_and_tail(payload, d, ALL_ROWS, RANK, slice.len())?;
        checksum += data[..ROWS * RANK].iter().sum::<f64>();
        reduced[slice].copy_from_slice(&data[ROWS * RANK..]);
        pool.put(data);
    }
    Ok(checksum + reduced.iter().sum::<f64>())
}

/// The rows every fused-round payload carries, as a receiver's route.
const ALL_ROWS: &[u32] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

#[test]
fn fused_gram_round_is_allocation_free_after_warmup() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(ALL_ROWS.len(), ROWS);
    let results = Cluster::try_run(WORLD, |ctx| {
        let me = ctx.rank();
        let factor = Matrix::from_fn(ROWS, RANK, |i, j| {
            (me as f64 + 1.0) * (i as f64 + 0.25 * j as f64 + 1.0)
        });
        // A packed `R = 5` buffer: 2R² + R values, then the loss slot an
        // iteration's last mode appends.
        let packed = 2 * RANK * RANK + RANK;
        let partial: Vec<f64> = (0..=packed).map(|i| (me * 7 + i) as f64 * 0.125).collect();
        let mut reduced = vec![0.0f64; partial.len()];
        let mut pool = BufferPool::new(true);
        let mut outgoing: Vec<Payload> = Vec::with_capacity(WORLD);
        let mut incoming: Vec<Payload> = Vec::with_capacity(WORLD);
        // The warm-up starts with the channel's first blocking receive.
        block_once(ctx);
        let mut run = |rounds: usize| -> Result<f64, ClusterError> {
            let mut checksum = 0.0;
            for _ in 0..rounds {
                // A mode's round, then a last mode's with the loss slot.
                checksum = 0.0;
                for len in [packed, packed + 1] {
                    checksum += fused_round(
                        ctx,
                        &factor,
                        &partial[..len],
                        &mut reduced[..len],
                        &mut pool,
                        &mut outgoing,
                        &mut incoming,
                    )?;
                }
            }
            Ok(checksum)
        };
        let warm = run(WARMUP_ROUNDS)?;
        let before = allocation_count();
        let measured = run(MEASURED_ROUNDS)?;
        let delta = allocation_count() - before;
        assert_eq!(warm.to_bits(), measured.to_bits(), "rank {me} checksum");
        Ok(delta)
    })
    .expect("cluster run");

    for (rank, delta) in results.iter().enumerate() {
        assert_eq!(
            *delta, 0,
            "rank {rank}: {delta} allocation(s) in {MEASURED_ROUNDS} fused rounds"
        );
    }
}

/// A heal policy on a serial session is free: a step commits only on
/// success, so nothing — in particular no rollback snapshot of the factors
/// — is taken on the policy's account.  Two identical sessions, one with a
/// policy installed, allocate exactly the same number of times on a warm
/// step.
#[test]
fn heal_policy_on_a_serial_session_allocates_nothing_extra() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    use dismastd_core::{DecompConfig, ExecutionMode, HealPolicy, StreamingSession, ThreadPolicy};
    use dismastd_tensor::SparseTensorBuilder;

    let shape = [9usize, 8, 7];
    let mut full = SparseTensorBuilder::new(shape.to_vec());
    for e in 0..240usize {
        let idx = [e % 9, (e / 3) % 8, (e / 5) % 7];
        full.push(&idx, 1.0 + (e % 11) as f64 * 0.125).unwrap();
    }
    let full = full.build().unwrap();
    let small = full.restrict(&[6, 6, 5]).unwrap();
    // One lane: every allocation of the step happens on this thread.
    let cfg = DecompConfig::default()
        .with_rank(3)
        .with_max_iters(4)
        .with_threads(ThreadPolicy::Fixed(1));

    let warm_step_allocations = |policy: Option<HealPolicy>| {
        let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
        if let Some(policy) = policy {
            sess.set_heal_policy(policy);
        }
        sess.ingest(&small).unwrap();
        let before = allocation_count();
        let report = sess.ingest(&full).unwrap();
        let delta = allocation_count() - before;
        // World 1 plans its one cell per step, like any world; no retry
        // asked for it twice.
        assert_eq!(
            (sess.plan_cache().hits(), sess.plan_cache().misses()),
            (0, 2)
        );
        (delta, report.loss.to_bits())
    };
    let (plain, plain_loss) = warm_step_allocations(None);
    let (healing, healing_loss) = warm_step_allocations(Some(HealPolicy::default()));
    assert!(plain > 0, "the step itself allocates");
    assert_eq!(healing, plain, "an unused heal policy must not allocate");
    assert_eq!(healing_loss, plain_loss);
}

/// A placement lives one attempt: once a world-2 session's cold
/// `ingest` returns, what the session holds has grown by its factors, not
/// by the step's plans.  The bound is one plan's layout over the snapshot,
/// which the step's cells add up to at least (each cell's plan holds its
/// own entries and its own runs).
#[test]
fn a_step_releases_its_plans_when_it_returns() {
    use dismastd_core::{
        ClusterConfig, DecompConfig, ExecutionMode, StreamingSession, ThreadPolicy,
    };
    use dismastd_tensor::{MttkrpPlan, SparseTensorBuilder};

    let _alone = GAUGE.write().unwrap_or_else(PoisonError::into_inner);
    let shape = [30usize, 28, 26];
    let mut b = SparseTensorBuilder::new(shape.to_vec());
    for i in 0..shape[0] {
        for j in 0..shape[1] {
            for k in 0..shape[2] {
                if (i * 7 + j * 3 + k) % 12 != 0 {
                    b.push(&[i, j, k], 0.5 + ((i + j + k) % 13) as f64 * 0.125)
                        .unwrap();
                }
            }
        }
    }
    let snapshot = b.build().unwrap();
    let rank = 3;
    let cfg = DecompConfig::default()
        .with_rank(rank)
        .with_max_iters(2)
        .with_threads(ThreadPolicy::Fixed(1));
    let plan_bytes = MttkrpPlan::build(&snapshot).unwrap().layout_bytes();
    let factor_bytes = shape.iter().sum::<usize>() * rank * 8;
    assert!(
        plan_bytes > 100 * factor_bytes,
        "the plans must dwarf what the session keeps"
    );
    let world2 = || StreamingSession::new(cfg, ExecutionMode::Distributed(ClusterConfig::new(2)));
    // A throwaway step first: state the process sets up once (the
    // transport's first channels, thread-locals) is not the placement's.
    world2().ingest(&snapshot).unwrap();

    let mut sess = world2();
    let before = live_bytes();
    sess.ingest(&snapshot).unwrap();
    let held = live_bytes().saturating_sub(before);
    assert!(
        sess.plan_cache().misses() > 0,
        "the step compiled its cells"
    );
    assert!(
        held < plan_bytes,
        "a cold world-2 step left {held} B behind; one plan over its snapshot is {plan_bytes} B"
    );
}

/// A cold world-2 step plans its grid cells where they are: no cell is
/// copied out of the snapshot.  So what the step holds at its peak above
/// its inputs is its plans' copied modes — `(N − 1)·(8 + 4(N − 1))` B per
/// entry, 32 at order 3 — plus `O(rows · R + stretches)`: the stretch and
/// run tables, row routing, factors and payloads.  Copying each cell first
/// (20 B per entry, and its push growth) or copying mode 0 as well (16 B)
/// would be over the bound.  GTP's parts are index ranges, so a cell's
/// stretches here are one per fiber and part; MTP's parts interleave, and
/// there a cell's stretches approach its entries.
#[test]
fn a_cold_world2_step_holds_its_plans_and_no_cell_copy() {
    use dismastd_core::{
        ClusterConfig, DecompConfig, ExecutionMode, StreamingSession, ThreadPolicy,
    };
    use dismastd_partition::{CellAssignment, GridPartition, Partitioner};
    use dismastd_tensor::SparseTensorBuilder;

    let _alone = GAUGE.write().unwrap_or_else(PoisonError::into_inner);
    const ORDER: usize = 3;
    const COPIED_PER_ENTRY: usize = (ORDER - 1) * (8 + 4 * (ORDER - 1));
    // Long last-mode fibers, so stretches are few against the entries.
    let shape = [16usize, 16, 400];
    let mut b = SparseTensorBuilder::new(shape.to_vec());
    for i in 0..shape[0] {
        for j in 0..shape[1] {
            for k in 0..shape[2] {
                if (i * 7 + j * 3 + k) % 3 != 0 {
                    b.push(&[i, j, k], 0.5 + ((i + j + k) % 13) as f64 * 0.125)
                        .unwrap();
                }
            }
        }
    }
    let snapshot = b.build().unwrap();
    let nnz = snapshot.nnz();
    let rank = 3;
    let cfg = DecompConfig::default()
        .with_rank(rank)
        .with_max_iters(2)
        .with_threads(ThreadPolicy::Fixed(1));
    let cluster = ClusterConfig::new(2).with_partitioner(Partitioner::Gtp);
    let world2 = || StreamingSession::new(cfg, ExecutionMode::Distributed(cluster.clone()));
    // The step's grid (two parts per mode at world 2), and its stretches:
    // maximal runs of stored entries sharing the cell and the mode-0 index.
    let grid = GridPartition::build_with(
        &snapshot,
        Partitioner::Gtp,
        &[2; ORDER],
        2,
        CellAssignment::BlockGrid,
    )
    .unwrap();
    let key = |idx: &[u32]| (grid.cell_of(idx), idx[0]);
    let tuples: Vec<&[u32]> = snapshot.iter().map(|(idx, _)| idx).collect();
    let stretches = 1 + tuples.windows(2).filter(|w| key(w[0]) != key(w[1])).count();
    // A throwaway step first: state the process sets up once (the
    // transport's first channels, thread-locals) is not the step's.
    world2().ingest(&snapshot).unwrap();

    let mut sess = world2();
    reset_peak_live_bytes();
    let before = live_bytes();
    sess.ingest(&snapshot).unwrap();
    let peak = peak_live_bytes() - before;
    let rows_r = shape.iter().sum::<usize>() * rank * 8;
    let bound = COPIED_PER_ENTRY * nnz + 16 * stretches + 64 * rows_r;
    assert!(
        16 * nnz > 16 * stretches + 64 * rows_r,
        "the bound must be able to tell a copied mode or a copied cell: \
         {nnz} entries, {stretches} stretches, {rows_r} B of rows"
    );
    assert!(
        peak <= bound,
        "a cold world-2 step over {nnz} entries ({stretches} stretches) peaked at {peak} B, \
         {:.1} B per entry; bound {bound} B",
        peak as f64 / nnz as f64
    );
}

/// DTD's promise (Alg. 1, Theorem 2) by bytes: a warm step's memory is a
/// function of what arrived, not of what is resident.  Two streams share
/// shapes and the complement `X \ X̃` entry for entry; one's old block holds
/// 4× the nonzeros of the other's.  The warm serial step must request
/// exactly the same bytes from the allocator in both — copying, or even
/// reserving for, the old block would show up as a difference — whether
/// its snapshots own their entries or are prefix views of one store.
#[test]
fn a_warm_serial_step_allocates_by_the_complement_not_by_the_resident_block() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    use dismastd_core::{DecompConfig, ExecutionMode, StreamingSession, ThreadPolicy};
    use dismastd_tensor::{SparseTensor, SparseTensorBuilder};

    let old_shape = [12usize, 10, 9];
    let new_shape = [14usize, 12, 10];
    // `(small snapshot, full snapshot)` with every `stride`-th cell of the
    // old box filled; the entries outside the old box never change.
    let stream = |stride: usize| -> (SparseTensor, SparseTensor) {
        let mut full = SparseTensorBuilder::new(new_shape.to_vec());
        let mut cell = 0usize;
        for i in 0..new_shape[0] {
            for j in 0..new_shape[1] {
                for k in 0..new_shape[2] {
                    cell += 1;
                    let value = 0.5 + (cell % 13) as f64 * 0.125;
                    let inside = i < old_shape[0] && j < old_shape[1] && k < old_shape[2];
                    if cell.is_multiple_of(if inside { stride } else { 5 }) {
                        full.push(&[i, j, k], value).unwrap();
                    }
                }
            }
        }
        let full = full.build().unwrap();
        (full.restrict(&old_shape).unwrap(), full)
    };
    let (sparse_old, sparse_full) = stream(8);
    let (dense_old, dense_full) = stream(2);
    assert_eq!(dense_old.nnz(), 4 * sparse_old.nnz());
    assert_eq!(
        sparse_full.complement(&old_shape).unwrap(),
        dense_full.complement(&old_shape).unwrap(),
        "the two streams receive the same arrivals"
    );

    // One lane: every allocation of the step happens on this thread.  A
    // fixed iteration count: the two streams' numerics differ, their work
    // per iteration must not.
    let cfg = DecompConfig::default()
        .with_rank(3)
        .with_max_iters(4)
        .with_tolerance(0.0)
        .with_threads(ThreadPolicy::Fixed(1));
    let warm_step = |old: &SparseTensor, full: &SparseTensor| {
        let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
        sess.ingest(old).unwrap();
        let before = (allocation_count(), allocated_bytes());
        let report = sess.ingest(full).unwrap();
        let after = (allocation_count(), allocated_bytes());
        assert_eq!(report.iterations, 4);
        assert!(!report.numerics.escalated(), "same solver tier in both");
        (after.0 - before.0, after.1 - before.1, report.processed_nnz)
    };
    let (sparse_calls, sparse_bytes, sparse_nnz) = warm_step(&sparse_old, &sparse_full);
    let (dense_calls, dense_bytes, dense_nnz) = warm_step(&dense_old, &dense_full);
    assert_eq!(sparse_nnz, dense_nnz);
    assert!(sparse_bytes > 0, "the step itself allocates");
    assert_eq!(
        dense_bytes,
        sparse_bytes,
        "a {}-nonzero old block cost {dense_bytes} B, a {}-nonzero one {sparse_bytes} B",
        dense_old.nnz(),
        sparse_old.nnz()
    );
    assert_eq!(dense_calls, sparse_calls);

    // The same on a stream's snapshots (prefix views of one store), whose
    // warm step takes what arrived from the store instead of scanning.
    let cut = |full: &SparseTensor| {
        full.nested_prefixes(&[old_shape.to_vec(), new_shape.to_vec()])
            .unwrap()
    };
    let (sparse_cut, dense_cut) = (cut(&sparse_full), cut(&dense_full));
    let sparse_stream = warm_step(&sparse_cut[0], &sparse_cut[1]);
    let dense_stream = warm_step(&dense_cut[0], &dense_cut[1]);
    assert_eq!(
        dense_stream, sparse_stream,
        "(calls, bytes, nnz) on a stream"
    );
}

/// The serial solver's iteration body is allocation-free: the `Â` buffers,
/// the `R x R` Gram state with its Eq. 5 operands, the untouched old rows'
/// maps and `P_n`, and the factorisation scratch are all set up before —
/// or, for the factorisation, during — the first iteration, and every
/// later one works in place.  So a run of six iterations asks the
/// allocator for exactly what a run of two asks for; the one thing sized
/// by the iteration count is the loss trace the call returns, reserved up
/// front.  Checked on a complement that references every old row and on
/// one that leaves every third old row of mode 0 untouched.
#[test]
fn serial_dtd_iterations_after_the_first_allocate_nothing() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    use dismastd_core::dtd::dtd;
    use dismastd_core::DecompConfig;
    use dismastd_tensor::{SparseTensor, SparseTensorBuilder};

    let old_shape = [10usize, 9, 8];
    let new_shape = [13usize, 12, 10];
    let complement = |untouched: &dyn Fn(usize) -> bool| -> SparseTensor {
        let mut b = SparseTensorBuilder::new(new_shape.to_vec());
        let mut cell = 0usize;
        for i in 0..new_shape[0] {
            for j in 0..new_shape[1] {
                for k in 0..new_shape[2] {
                    cell += 1;
                    let inside = i < old_shape[0] && j < old_shape[1] && k < old_shape[2];
                    if !inside && cell.is_multiple_of(2) && !untouched(i) {
                        let value = 0.5 + (cell % 13) as f64 * 0.125;
                        b.push(&[i, j, k], value).unwrap();
                    }
                }
            }
        }
        b.build().unwrap()
    };
    let every_row = complement(&|_| false);
    let some_left = complement(&|i| i < old_shape[0] && i % 3 == 1);
    for complement in [&every_row, &some_left] {
        // Rank 5 runs the plan's fixed-width kernel bodies; rank 3 the
        // dynamic ones, where the MTTKRP — and only the MTTKRP — takes two
        // bounded scratch vectors per call.
        for (rank, mttkrp_scratch) in [(5usize, 0u64), (3, 2)] {
            let old: Vec<Matrix> = old_shape
                .iter()
                .map(|&rows| {
                    Matrix::from_fn(rows, rank, |i, j| {
                        0.1 + ((i * 7 + j * 3) % 11) as f64 * 0.05
                    })
                })
                .collect();
            let run = |max_iters: usize| {
                let cfg = DecompConfig::default()
                    .with_rank(rank)
                    .with_max_iters(max_iters)
                    .with_tolerance(0.0);
                let before = (allocation_count(), allocated_bytes());
                let out = dtd(complement, &old, &cfg).unwrap();
                let after = (allocation_count(), allocated_bytes());
                assert_eq!(out.iterations, max_iters);
                assert!(!out.numerics.escalated(), "one solver tier throughout");
                (after.0 - before.0, after.1 - before.1)
            };
            let (short_calls, short_bytes) = run(2);
            let (long_calls, long_bytes) = run(6);
            let mttkrp_calls = 4 * new_shape.len() as u64;
            assert_eq!(
                long_calls,
                short_calls + mttkrp_calls * mttkrp_scratch,
                "rank {rank}"
            );
            if mttkrp_scratch == 0 {
                let trace_bytes = (4 * std::mem::size_of::<f64>()) as u64;
                assert_eq!(long_bytes, short_bytes + trace_bytes, "rank {rank}");
            }
        }
    }
}

/// A plan is built from what the tensor holds, not from how long its modes
/// are: a grid of many thin cells over long modes (one plan per cell) must
/// not pay cells × Σ shape.  The counting sort alone would ask for
/// `3 modes × 3 tables × 100 000 rows × 4 B` = 3.6 MB here.
#[test]
fn a_plan_over_long_modes_is_built_from_its_entries() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    use dismastd_tensor::{MttkrpPlan, SparseTensorBuilder};

    let mut b = SparseTensorBuilder::new(vec![100_000; 3]);
    for e in 0..50usize {
        b.push(&[e * 1_999, 99_999 - e * 1_000, e * e], 1.0 + e as f64)
            .unwrap();
    }
    let sparse = b.build().unwrap();
    let before = allocated_bytes();
    let plan = MttkrpPlan::build(&sparse).unwrap();
    let bytes = allocated_bytes() - before;
    assert_eq!(plan.nnz(), 50);
    assert!(bytes < 64 * 1024, "50 entries cost {bytes} B to lay out");
}

/// What a builder holds at its peak, per order-3 entry: its flat staging
/// (`3·4 + 8 = 20` B) and, while it sorts, one 16-byte key beside its
/// value — 36 B; the resolved staging is the built tensor.  A builder that
/// gathered its output into a second buffer held 40 B, one that held the
/// key and the tensor together 56 B, and the `(Vec<usize>, f64)` builder
/// before them 96 B (a 32-byte tuple, a 24-byte heap coordinate, the
/// merged buffers and their zero-compacted copy), so the bound tells all
/// four apart.
#[test]
fn a_builder_holds_its_flat_staging_a_sort_key_and_the_tensor() {
    use dismastd_tensor::SparseTensorBuilder;

    let _alone = GAUGE.write().unwrap_or_else(PoisonError::into_inner);
    const PER_ENTRY_BOUND: usize = 38;
    let n = 200_000usize;
    let shape = [24_000usize, 5_400, 1_400];
    reset_peak_live_bytes();
    let before = live_bytes();
    let mut b = SparseTensorBuilder::with_capacity(shape.to_vec(), n);
    for e in 0..n {
        // Distinct coordinates, pushed out of order.
        let cell = e.wrapping_mul(2_654_435_761) % (shape[0] * shape[1] * shape[2]);
        let idx = [
            cell / (shape[1] * shape[2]),
            cell / shape[2] % shape[1],
            cell % shape[2],
        ];
        b.push(&idx, 0.5 + (e % 7) as f64).unwrap();
    }
    let t = b.build().unwrap();
    let peak = peak_live_bytes() - before;
    assert_eq!(t.nnz(), n);
    assert!(
        peak <= PER_ENTRY_BOUND * n,
        "building {n} entries peaked at {peak} B, {:.1} B per entry",
        peak as f64 / n as f64
    );
}

/// The memory model, in bytes held (order 3: `3·4 + 8 = 20` B per nonzero):
///
/// * a [`StreamSequence::cut`] holds its last snapshot's nonzeros once —
///   every snapshot is a prefix of one store — plus a shape per snapshot,
///   and dropping it returns every byte;
/// * `complement` grows its output by push, so it holds between one and
///   two times the entries it kept;
/// * a warm serial `ingest` peaks at the complement, its MTTKRP plan and
///   `O(rows · R)` of factor-shaped state above its inputs — whatever the
///   resident block weighs.  The plan reads mode 0 in the complement and
///   copies the other two modes: `2·(8 + 2·4) = 32` B per entry, and
///   per-row tables (8 B per run in every mode; mode 0's entry count and
///   one 8-byte stretch per row, the complement being lexicographic).
#[test]
fn resident_bytes_follow_the_memory_model() {
    use dismastd_core::{DecompConfig, ExecutionMode, StreamingSession, ThreadPolicy};
    use dismastd_data::stream::StreamSequence;
    use dismastd_tensor::{MttkrpPlan, SparseTensor, SparseTensorBuilder};

    let _alone = GAUGE.write().unwrap_or_else(PoisonError::into_inner);
    const NNZ_BYTES: usize = 3 * 4 + 8;
    // Per tensor, not per nonzero: a shape vector, a container slot.
    const TENSOR_SLACK: usize = 256;

    let old_shape = [54usize, 45, 36];
    let new_shape = [60usize, 50, 40];
    // `stride`-th cells of the old box, every 5th cell outside it.
    let stream = |stride: usize| -> SparseTensor {
        let mut full = SparseTensorBuilder::new(new_shape.to_vec());
        let mut cell = 0usize;
        for i in 0..new_shape[0] {
            for j in 0..new_shape[1] {
                for k in 0..new_shape[2] {
                    cell += 1;
                    let inside = i < old_shape[0] && j < old_shape[1] && k < old_shape[2];
                    if cell.is_multiple_of(if inside { stride } else { 5 }) {
                        full.push(&[i, j, k], 0.5 + (cell % 13) as f64 * 0.125)
                            .unwrap();
                    }
                }
            }
        }
        full.build().unwrap()
    };
    let sparse_full = stream(8);
    let dense_full = stream(2);

    // A cut holds `nnz_T · 20 B`, not `Σₜ nnzₜ · 20 B`.
    let fractions = [0.5, 0.75, 0.9, 1.0];
    let slack = fractions.len() * TENSOR_SLACK;
    // Counted on this thread alone: the cut runs here, while the
    // harness's threads may allocate beside it.
    let before = thread_held_bytes();
    let seq = StreamSequence::cut(&dense_full, &fractions).unwrap();
    let held = usize::try_from(thread_held_bytes() - before).unwrap();
    let payload = seq.snapshot(fractions.len() - 1).nnz() * NNZ_BYTES;
    let nested: usize = seq.iter().map(|s| s.nnz() * NNZ_BYTES).sum();
    assert!(
        payload > 1_000_000,
        "large enough that slack cannot hide a leak"
    );
    assert!(
        nested > payload + slack,
        "the bound must be able to tell one store from a copy per snapshot"
    );
    assert!(
        (payload..=payload + slack).contains(&held),
        "cut holds {held} B for {payload} B of nonzeros"
    );
    drop(seq);
    assert_eq!(
        thread_held_bytes(),
        before,
        "a dropped cut hands back every byte"
    );

    // A complement holds one to two times what it kept.
    reset_peak_live_bytes();
    let before = live_bytes();
    let complement = dense_full.complement(&old_shape).unwrap();
    let peak = peak_live_bytes() - before;
    let kept = complement.nnz() * NNZ_BYTES;
    assert!(complement.nnz() > 5_000);
    assert!(
        (kept..=2 * kept + TENSOR_SLACK).contains(&peak),
        "complement peaked at {peak} B for {kept} B kept"
    );
    assert_eq!(complement, sparse_full.complement(&old_shape).unwrap());

    // A warm step's peak above its inputs: complement + plan + O(rows · R).
    let rank = 3;
    let cfg = DecompConfig::default()
        .with_rank(rank)
        .with_max_iters(4)
        .with_tolerance(0.0)
        .with_threads(ThreadPolicy::Fixed(1));
    const PLAN_PER_ENTRY: usize = 2 * (8 + 2 * 4);
    let rows: usize = new_shape.iter().sum();
    let plan_bytes = PLAN_PER_ENTRY * complement.nnz() + 24 * rows;
    let built = MttkrpPlan::build(&complement).unwrap().layout_bytes();
    assert!(
        (PLAN_PER_ENTRY * complement.nnz()..=plan_bytes).contains(&built),
        "the plan holds {built} B, the model {plan_bytes} B"
    );
    let factor_bytes = rows * rank * 8;
    let warm_peak = |full: &SparseTensor| {
        let old = full.restrict(&old_shape).unwrap();
        let mut sess = StreamingSession::new(cfg, ExecutionMode::Serial);
        sess.ingest(&old).unwrap();
        reset_peak_live_bytes();
        let before = live_bytes();
        sess.ingest(full).unwrap();
        (peak_live_bytes() - before, old.nnz())
    };
    let (sparse_peak, sparse_resident) = warm_peak(&sparse_full);
    let (dense_peak, dense_resident) = warm_peak(&dense_full);
    assert!(dense_resident >= 4 * sparse_resident);
    assert!(
        dense_peak.abs_diff(sparse_peak) <= 4096,
        "resident {dense_resident} nnz peaked at {dense_peak} B, {sparse_resident} nnz at {sparse_peak} B"
    );
    let bound = 2 * kept + plan_bytes + 16 * factor_bytes;
    assert!(
        dense_peak <= bound,
        "warm step peaked at {dense_peak} B; complement {kept} B, plan {plan_bytes} B, factors {factor_bytes} B"
    );
    assert!(
        bound < dense_resident * NNZ_BYTES,
        "the bound must be able to tell a copy of the resident block"
    );
}

/// Generating a Zipf dataset requests, per final nonzero, one build of the
/// first round's draws — flat staging and a sort key, 36 B per order-3
/// draw — plus, per top-up round, the stored tensor grown in place (the
/// allocator is asked for the grown size, 20 B) and that round's few
/// draws: 158.6 B on this spec (157.4 when each round gathered into a
/// fresh buffer).  A generator that re-stages every stored entry each
/// round pays a whole build again per round: 334.6 B.
#[test]
fn generating_a_zipf_dataset_stages_each_draw_once() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    use dismastd_data::DatasetSpec;

    const BYTES_PER_NNZ_BOUND: f64 = 240.0;
    let before = allocated_bytes();
    let t = DatasetSpec::netflix(0.25).generate().unwrap();
    let per_nnz = (allocated_bytes() - before) as f64 / t.nnz() as f64;
    assert!(
        per_nnz <= BYTES_PER_NNZ_BOUND,
        "generating {} nonzeros requested {per_nnz:.1} B per nonzero",
        t.nnz()
    );
}
