//! Pins the allocation-free steady state end-to-end (L8's runtime twin).
//!
//! The static audit (`cargo run -p dismastd-xtask -- analyze`, lint L8)
//! proves no allocating call is *reachable* from the steady-state
//! kernels; this test proves the dynamic side with a counting global
//! allocator: after a warm-up that fills the payload pools, a full
//! gram → all-reduce → row-exchange round performs **zero** allocations
//! on every rank.
//!
//! The same allocator's byte counter pins the streaming step's
//! O(nnz(complement)) memory property: a warm serial `ingest` requests
//! the same bytes whether the resident old block is sparse or 4× denser.
//!
//! Its process-wide live-bytes gauge pins the memory model itself — what a
//! stream's snapshots, a complement and a warm step *hold*, in bytes per
//! nonzero — so a resident-set size can be explained rather than observed.
//!
//! Runs only under `--features count-alloc`, which swaps in
//! [`dismastd_obs::alloc::CountingAlloc`]; the ordinary suite stays on
//! the system allocator.  Transport-internal channel nodes are exempted
//! at the send sites (see `WorkerCtx::deliver`) — the audit covers the
//! payload path, not the wire's bookkeeping.
#![cfg(feature = "count-alloc")]

use dismastd_cluster::{BufferPool, Cluster, ClusterError, Framed, Payload};
use dismastd_obs::alloc::{
    allocated_bytes, allocation_count, live_bytes, peak_live_bytes, reset_peak_live_bytes,
    CountingAlloc,
};
use dismastd_tensor::Matrix;
use std::sync::{PoisonError, RwLock};

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

/// One steady-state round: local gram into `gram_buf`, flat all-reduce,
/// then a framed all-to-all row exchange with pooled payload staging.
fn round(
    ctx: &mut dismastd_cluster::WorkerCtx,
    factor: &Matrix,
    gram_buf: &mut [f64],
    pool: &mut BufferPool,
    outgoing: &mut Vec<Framed>,
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
            outgoing.push(Framed::plain(Payload::Empty));
        } else {
            let mut stage = pool.take();
            for row in 0..ROWS {
                stage.extend_from_slice(factor.row(row));
            }
            outgoing.push(Framed::plain(Payload::F64(stage)));
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
        let mut outgoing: Vec<Framed> = Vec::with_capacity(WORLD);
        let mut incoming: Vec<Payload> = Vec::with_capacity(WORLD);

        // Warm-up: fills this rank's payload pool, the collectives'
        // internal staging pool, and the out-of-order receive buffer.
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

/// A heal policy on a serial session is free: there is no cluster to
/// fault, and a step commits only on success, so nothing — in particular
/// no rollback snapshot of the factors — is taken on the policy's account.
/// Two identical sessions, one with a policy installed, allocate exactly
/// the same number of times on a warm step.
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
        assert_eq!(sess.plan_cache().hits() + sess.plan_cache().misses(), 0);
        (delta, report.loss.to_bits())
    };
    let (plain, plain_loss) = warm_step_allocations(None);
    let (healing, healing_loss) = warm_step_allocations(Some(HealPolicy::default()));
    assert!(plain > 0, "the step itself allocates");
    assert_eq!(healing, plain, "an unused heal policy must not allocate");
    assert_eq!(healing_loss, plain_loss);
}

/// DTD's promise (Alg. 1, Theorem 2) by bytes: a warm step's memory is a
/// function of what arrived, not of what is resident.  Two streams share
/// shapes and the complement `X \ X̃` entry for entry; one's old block holds
/// 4× the nonzeros of the other's.  The warm serial step must request
/// exactly the same bytes from the allocator in both — copying, or even
/// reserving for, the old block would show up as a difference.
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
}

/// The serial solver's iteration body is allocation-free: the `Â` buffers,
/// the `R x R` Gram state with its Eq. 5 operands, and the factorisation
/// scratch are all set up before — or, for the factorisation, during — the
/// first iteration, and every later one works in place.  So a run of six
/// iterations asks the allocator for exactly what a run of two asks for;
/// the one thing sized by the iteration count is the loss trace the call
/// returns, reserved up front.
#[test]
fn serial_dtd_iterations_after_the_first_allocate_nothing() {
    let _shared = GAUGE.read().unwrap_or_else(PoisonError::into_inner);
    use dismastd_core::dtd::dtd;
    use dismastd_core::DecompConfig;
    use dismastd_tensor::{SparseTensor, SparseTensorBuilder};

    let old_shape = [10usize, 9, 8];
    let new_shape = [13usize, 12, 10];
    let mut b = SparseTensorBuilder::new(new_shape.to_vec());
    let mut cell = 0usize;
    for i in 0..new_shape[0] {
        for j in 0..new_shape[1] {
            for k in 0..new_shape[2] {
                cell += 1;
                let inside = i < old_shape[0] && j < old_shape[1] && k < old_shape[2];
                if !inside && cell.is_multiple_of(2) {
                    let value = 0.5 + (cell % 13) as f64 * 0.125;
                    b.push(&[i, j, k], value).unwrap();
                }
            }
        }
    }
    let complement: SparseTensor = b.build().unwrap();
    // Rank 5 runs the plan's fixed-width kernel bodies; rank 3 the dynamic
    // ones, where the MTTKRP — and only the MTTKRP — takes two bounded
    // scratch vectors per call.
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
            let out = dtd(&complement, &old, &cfg).unwrap();
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

/// The memory model, in bytes held (order 3: `3·4 + 8 = 20` B per nonzero):
///
/// * a [`StreamSequence::cut`] holds its snapshots' nonzeros and nothing
///   that scales with them — `restrict` hands back the capacity it did not
///   use;
/// * `complement` grows its output by push, so it holds between one and
///   two times the entries it kept;
/// * a warm serial `ingest` peaks at the complement, its MTTKRP plan and
///   `O(rows · R)` of factor-shaped state above its inputs — whatever the
///   resident block weighs.
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

    // A cut holds its payload.
    let fractions = [0.5, 0.75, 0.9, 1.0];
    let before = live_bytes();
    let seq = StreamSequence::cut(&dense_full, &fractions).unwrap();
    let held = live_bytes() - before;
    let payload: usize = seq.iter().map(|s| s.nnz() * NNZ_BYTES).sum();
    assert!(
        payload > 1_000_000,
        "large enough that slack cannot hide a leak"
    );
    assert!(
        (payload..=payload + fractions.len() * TENSOR_SLACK).contains(&held),
        "cut holds {held} B for {payload} B of nonzeros"
    );
    drop(seq);

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
    let plan_bytes = MttkrpPlan::build(&complement).unwrap().layout_bytes();
    let factor_bytes = new_shape.iter().sum::<usize>() * rank * 8;
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
