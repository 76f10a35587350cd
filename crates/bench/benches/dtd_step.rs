//! Benchmarks of whole decomposition iterations: static CP-ALS vs the
//! streaming DTD update, serial vs distributed — the end-to-end numbers
//! behind Fig. 5's headline contrast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dismastd_core::{decompose, ClusterConfig, DecompConfig};
use dismastd_data::{uniform_tensor, StreamSequence};
use dismastd_tensor::{Matrix, SparseTensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct Workload {
    full: SparseTensor,
    /// The second snapshot, in the stream's arrival order: what a warm
    /// step's fit reads.
    snapshot: SparseTensor,
    complement: SparseTensor,
    old_factors: Vec<Matrix>,
}

fn workload() -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let full = uniform_tensor(&[400, 350, 300], 120_000, &mut rng).expect("feasible");
    let stream = StreamSequence::cut(&full, &[0.9, 1.0]).expect("schedule");
    let cfg = DecompConfig::default().with_max_iters(3);
    let prev = dismastd_core::als::cp_als(stream.snapshot(0), &cfg).expect("als");
    let complement = stream
        .snapshot(1)
        .complement(stream.snapshot(0).shape())
        .expect("nested");
    Workload {
        snapshot: stream.snapshot(1).clone(),
        full,
        complement,
        old_factors: prev.kruskal.into_factors(),
    }
}

fn bench_serial_iteration(c: &mut Criterion) {
    let w = workload();
    let cfg = DecompConfig::default().with_max_iters(1);
    let mut group = c.benchmark_group("dtd/serial_iteration");
    group.sample_size(20);
    group.bench_function("dtd_complement", |b| {
        b.iter(|| dismastd_core::dtd(&w.complement, &w.old_factors, &cfg).expect("runs"))
    });
    group.bench_function("als_full", |b| {
        b.iter(|| dismastd_core::als::cp_als(&w.full, &cfg).expect("runs"))
    });
    group.finish();
}

fn bench_distributed_iteration(c: &mut Criterion) {
    let w = workload();
    let cfg = DecompConfig::default().with_max_iters(1);
    let mut group = c.benchmark_group("dtd/distributed_iteration");
    group.sample_size(10);
    for workers in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("dismastd", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    decompose(
                        &w.complement,
                        &w.old_factors,
                        &cfg,
                        &ClusterConfig::new(workers),
                    )
                    .expect("runs")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dms-mg", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    decompose(&w.full, &[], &cfg, &ClusterConfig::new(workers)).expect("runs")
                })
            },
        );
    }
    group.finish();
}

fn bench_loss_reuse(c: &mut Criterion) {
    // The Sec. IV-B4 claim: loss via reused intermediates is O(R²-ish),
    // vs the naive O(nnz·N·R) inner-product pass it replaces.
    let w = workload();
    let factors: Vec<Matrix> = {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        w.complement
            .shape()
            .iter()
            .map(|&s| Matrix::random(s, 10, &mut rng))
            .collect()
    };
    let kruskal = dismastd_tensor::KruskalTensor::new(factors.clone()).expect("valid");
    let hat = dismastd_tensor::mttkrp::mttkrp(&w.complement, &factors, 2).expect("runs");
    let mut group = c.benchmark_group("dtd/loss");
    group.bench_function("reused_inner", |b| {
        b.iter(|| dismastd_tensor::mttkrp::inner_from_mttkrp(&hat, &factors[2]).expect("ok"))
    });
    group.bench_function("fresh_inner_pass", |b| {
        b.iter(|| kruskal.inner_sparse(&w.complement).expect("ok"))
    });
    // The pass a warm step's fit makes: the whole resident snapshot.
    group.bench_function("fit_inner_resident", |b| {
        b.iter(|| kruskal.inner_sparse(&w.snapshot).expect("ok"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_iteration,
    bench_distributed_iteration,
    bench_loss_reuse
);
criterion_main!(benches);
