//! Micro-benchmarks of the dense `R x R` machinery behind every factor
//! update: Gram products (`O(I R²)`), the Hadamard-product denominators,
//! factorisation (`O(R³)`), and the row-wise solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dismastd_tensor::linalg::{Factorized, RowUpdate};
use dismastd_tensor::matrix::RowSet;
use dismastd_tensor::ops::{grand_sum_hadamard, hadamard_skip};
use dismastd_tensor::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Factor rows of the repo benchmark's row-bound workload (`clothing_rows`:
/// 24000 + 5400 + 1400).
const ROWS: usize = 30_800;

/// The rank axis of both row-bound kernels: the dispatch set of
/// `for_fixed_lanes!` plus 12 and 24, which run the dynamic bodies.
const RANKS: [usize; 7] = [5, 8, 10, 12, 20, 24, 40];

/// An SPD `rank x rank` system: Gram of a random tall matrix plus a ridge.
fn spd(rank: usize, rng: &mut ChaCha8Rng) -> Matrix {
    let mut m = Matrix::random(rank * 4, rank, rng).gram();
    for i in 0..rank {
        m.set(i, i, m.get(i, i) + 1.0);
    }
    m
}

fn bench_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/gram");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    group.throughput(Throughput::Elements(ROWS as u64));
    for rank in RANKS {
        let a = Matrix::random(ROWS, rank, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, _| {
            b.iter(|| a.gram())
        });
    }
    group.finish();
}

/// The Eq. 5 row update as the solvers run it: an already factorised
/// system, `Â` read in place, rows written into a kept factor — with the
/// `μ·Ã·⊛G̃` history term (`old/`) and without (`new/`).
fn bench_solve_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/solve_rows");
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    group.throughput(Throughput::Elements(ROWS as u64));
    for rank in RANKS {
        let fact = Factorized::new(&spd(rank, &mut rng)).expect("SPD");
        let hat = Matrix::random(ROWS, rank, &mut rng);
        let prev = Matrix::random(ROWS, rank, &mut rng);
        let had = Matrix::random(rank, rank, &mut rng);
        let mut out = Matrix::zeros(ROWS, rank);
        for (block, history) in [("new", None), ("old", Some((0.8, &prev, &had)))] {
            let job = RowUpdate {
                rhs: &hat,
                history,
                rows: RowSet::Range(0..ROWS),
            };
            group.bench_with_input(BenchmarkId::new(block, rank), &rank, |b, _| {
                b.iter(|| fact.solve_rows(&job, &mut out).expect("shapes agree"))
            });
        }
    }
    group.finish();
}

fn bench_factorize(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/factorize");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for &rank in &[10usize, 40] {
        let m = spd(rank, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, _| {
            b.iter(|| Factorized::new(&m).expect("SPD"))
        });
    }
    group.finish();
}

fn bench_hadamard_chain(c: &mut Criterion) {
    // The (A_k)^{⊛ k≠n} denominators and the grand-sum loss kernel.
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let grams: Vec<Matrix> = (0..5).map(|_| Matrix::random(10, 10, &mut rng)).collect();
    c.bench_function("linalg/hadamard_skip", |b| {
        b.iter(|| hadamard_skip(&grams, 2).expect("valid"))
    });
    let refs: Vec<&Matrix> = grams.iter().collect();
    c.bench_function("linalg/grand_sum_hadamard", |b| {
        b.iter(|| grand_sum_hadamard(&refs).expect("valid"))
    });
}

criterion_group!(
    benches,
    bench_gram,
    bench_solve_rows,
    bench_factorize,
    bench_hadamard_chain
);
criterion_main!(benches);
