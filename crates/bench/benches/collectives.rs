//! Benchmarks of the simulated cluster's collectives — the `O(M N R²)`
//! all-reduce and the all-to-all row exchanges of Theorem 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dismastd_cluster::{BufferPool, Cluster, Payload};

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/allreduce");
    group.sample_size(20);
    for &workers in &[2usize, 4, 8] {
        // 3 R x R gram matrices at R = 10, the per-mode payload.
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                Cluster::try_run(w, |ctx| {
                    let mut buf = vec![ctx.rank() as f64; 300];
                    for _ in 0..10 {
                        ctx.try_allreduce_sum(&mut buf)?;
                    }
                    Ok(buf[0])
                })
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/exchange");
    group.sample_size(20);
    for &rows in &[100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            b.iter(|| {
                Cluster::try_run(4, |ctx| {
                    let outgoing: Vec<Payload> =
                        (0..4).map(|_| Payload::F64(vec![1.0; rows * 10])).collect();
                    let incoming = ctx.try_exchange(outgoing)?;
                    Ok(incoming.len())
                })
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_spawn_overhead(c: &mut Criterion) {
    // The fixed cost of standing up the SPMD world — the simulator's
    // analogue of task startup.
    let mut group = c.benchmark_group("cluster/spawn");
    group.sample_size(20);
    for &workers in &[1usize, 4, 15] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| Cluster::run(w, |ctx| ctx.rank()).unwrap())
        });
    }
    group.finish();
}

/// Row exchange with pooled vs freshly allocated payload buffers — the
/// allocation pattern of the distributed hot loop's two exchanges per
/// mode per iteration.
fn bench_pooled_payloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster/pooled-exchange");
    group.sample_size(20);
    let rows = 500usize;
    let rank = 10usize;
    for &pooled in &[false, true] {
        let label = if pooled { "pooled" } else { "fresh" };
        group.bench_with_input(BenchmarkId::new(label, rows), &pooled, |b, &pooled| {
            b.iter(|| {
                Cluster::try_run(4, move |ctx| {
                    let mut pool = BufferPool::new(pooled);
                    let mut total = 0usize;
                    // 20 rounds ≈ the exchanges of a few ALS iterations;
                    // pooling only pays off once buffers start recycling.
                    for _ in 0..20 {
                        let outgoing: Vec<Payload> = (0..4)
                            .map(|d| {
                                if d == ctx.rank() {
                                    Payload::Empty
                                } else {
                                    let mut buf = pool.take();
                                    buf.resize(rows * rank, 1.0);
                                    Payload::F64(buf)
                                }
                            })
                            .collect();
                        let incoming = ctx.try_exchange(outgoing)?;
                        for (d, payload) in incoming.into_iter().enumerate() {
                            if d == ctx.rank() {
                                continue;
                            }
                            let data = payload.try_into_f64()?;
                            total += data.len();
                            pool.put(data);
                        }
                    }
                    Ok(total)
                })
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_allreduce,
    bench_exchange,
    bench_spawn_overhead,
    bench_pooled_payloads
);
criterion_main!(benches);
