//! Pins the allocation-free steady state end-to-end (L8's runtime twin).
//!
//! The static audit (`cargo run -p dismastd-xtask -- analyze`, lint L8)
//! proves no allocating call is *reachable* from the steady-state
//! kernels; this test proves the dynamic side with a counting global
//! allocator: after a warm-up that fills the payload pools, a full
//! gram → all-reduce → row-exchange round performs **zero** allocations
//! on every rank.
//!
//! Runs only under `--features count-alloc`, which swaps in
//! [`dismastd_obs::alloc::CountingAlloc`]; the ordinary suite stays on
//! the system allocator.  Transport-internal channel nodes are exempted
//! at the send sites (see `WorkerCtx::deliver`) — the audit covers the
//! payload path, not the wire's bookkeeping.
#![cfg(feature = "count-alloc")]

use dismastd_cluster::{BufferPool, Cluster, ClusterError, Framed, Payload};
use dismastd_obs::alloc::{allocation_count, CountingAlloc};
use dismastd_tensor::Matrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
