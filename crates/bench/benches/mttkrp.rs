//! Micro-benchmark of the MTTKRP kernel — the operator the paper identifies
//! as "the bottleneck cost of tensor decomposition" (Sec. I).
//!
//! Sweeps nonzero count and rank to confirm the `O(nnz · N · R)` cost of
//! Theorem 2's dominant term, and pits the naive COO kernel against the
//! cached mode-ordered layout (`MttkrpPlan`) on a skewed Zipf tensor — the
//! access pattern the layout exists for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dismastd_data::{uniform_tensor, zipf_tensor};
use dismastd_tensor::mttkrp::{mttkrp, mttkrp_into};
use dismastd_tensor::{Matrix, MttkrpPlan, ThreadPool};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_mttkrp_nnz(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp/nnz");
    let shape = [400usize, 300, 200];
    for &nnz in &[10_000usize, 40_000, 160_000] {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = uniform_tensor(&shape, nnz, &mut rng).expect("feasible");
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 10, &mut rng))
            .collect();
        group.throughput(Throughput::Elements(nnz as u64));
        group.bench_with_input(BenchmarkId::from_parameter(nnz), &nnz, |b, _| {
            b.iter(|| mttkrp(&t, &factors, 0).expect("runs"))
        });
    }
    group.finish();
}

/// Rank axis: the naive COO kernel (`mttkrp/rank/<R>`) and the sorted-run
/// plan kernel (`mttkrp/rank/plan/<R>`) on the same tensor and mode.  The
/// paper default 10 and the ablation ranks {5, 20, 40} run the plan's
/// rank-monomorphised body; 12 and 24 are not in its dispatch set and show
/// what the dynamic fallback costs next to their neighbours.
fn bench_mttkrp_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp/rank");
    let shape = [300usize, 300, 100];
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let t = uniform_tensor(&shape, 50_000, &mut rng).expect("feasible");
    let plan = MttkrpPlan::build(&t).expect("fits u32 layout");
    for &rank in &[5usize, 10, 12, 20, 24, 40] {
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, rank, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, _| {
            b.iter(|| mttkrp(&t, &factors, 1).expect("runs"))
        });
        group.bench_with_input(BenchmarkId::new("plan", rank), &rank, |b, _| {
            b.iter(|| plan.mttkrp(&factors, 1).expect("runs"))
        });
    }
    group.finish();
}

fn bench_mttkrp_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp/order");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for order in [3usize, 4, 5] {
        let shape: Vec<usize> = (0..order).map(|_| 60).collect();
        let t = uniform_tensor(&shape, 30_000, &mut rng).expect("feasible");
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 10, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(order), &order, |b, _| {
            b.iter(|| mttkrp(&t, &factors, 0).expect("runs"))
        });
    }
    group.finish();
}

/// Naive COO kernel vs the cached mode-ordered layout at matched nnz and
/// rank, on the Zipf dataset (skewed slices make the naive kernel's output
/// writes collide on hot rows — the layout's best and most realistic
/// case).  Mode 1 is benchmarked: mode 0 shares the naive kernel's
/// iteration order, so any higher mode shows the layout effect.
fn bench_naive_vs_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp/layout");
    let shape = [400usize, 300, 200];
    let nnz = 80_000;
    let rank = 10;
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let t = zipf_tensor(&shape, nnz, &[1.1, 1.1, 1.1], &mut rng).expect("feasible");
    let factors: Vec<Matrix> = shape
        .iter()
        .map(|&s| Matrix::random(s, rank, &mut rng))
        .collect();
    let plan = MttkrpPlan::build(&t).expect("fits u32 layout");
    let mut out = Matrix::zeros(shape[1], rank);
    group.throughput(Throughput::Elements(t.nnz() as u64));
    group.bench_function(BenchmarkId::new("naive", t.nnz()), |b| {
        b.iter(|| {
            out.fill_zero();
            mttkrp_into(&t, &factors, 1, &mut out).expect("runs");
            out.get(0, 0)
        })
    });
    group.bench_function(BenchmarkId::new("layout", t.nnz()), |b| {
        b.iter(|| {
            out.fill_zero();
            plan.mttkrp_into(&factors, 1, &mut out).expect("runs");
            out.get(0, 0)
        })
    });
    // Amortisation context: what one layout build costs relative to the
    // kernels it accelerates (paid once per cell per snapshot).
    group.bench_function(BenchmarkId::new("build", t.nnz()), |b| {
        b.iter(|| MttkrpPlan::build(&t).expect("fits u32 layout").nnz())
    });
    group.finish();
}

/// Thread-scaling axis: the pooled layout kernel on the same 80k-nnz Zipf
/// case, at 1/2/4 pool lanes.  Results depend on
/// the machine's core count — rows recorded in `bench_results` carry the
/// thread count and the cores available so numbers from different boxes
/// stay comparable (a 1-core container shows no scaling by construction).
fn bench_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp/threads");
    let shape = [400usize, 300, 200];
    let nnz = 80_000;
    let rank = 10;
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let t = zipf_tensor(&shape, nnz, &[1.1, 1.1, 1.1], &mut rng).expect("feasible");
    let factors: Vec<Matrix> = shape
        .iter()
        .map(|&s| Matrix::random(s, rank, &mut rng))
        .collect();
    let plan = MttkrpPlan::build(&t).expect("fits u32 layout");
    let mut out = Matrix::zeros(shape[1], rank);
    group.throughput(Throughput::Elements(t.nnz() as u64));
    for &threads in &[1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        group.bench_function(BenchmarkId::new("kernel", threads), |b| {
            b.iter(|| {
                out.fill_zero();
                plan.mttkrp_into_pooled(&factors, 1, &mut out, &pool)
                    .expect("runs");
                out.get(0, 0)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mttkrp_nnz,
    bench_mttkrp_rank,
    bench_mttkrp_order,
    bench_naive_vs_layout,
    bench_threads
);
criterion_main!(benches);
