//! An independent dense reference for the DTD step (Alg. 1, Eq. 4–5).
//!
//! The reference is written from the paper's equations alone, on dense
//! data and plain loops: the complement as a [`DenseTensor`], its mode-`n`
//! unfolding times an explicit Khatri-Rao product for `Â_n`, the Eq. 5
//! normal equations formed from whole-block Grams and solved by Gaussian
//! elimination, and the Eq. 4 loss by dense reconstruction over every
//! cell.  It shares nothing with the engine's kernels — no plan layout, no
//! kernel lanes, no row solver, no Gram kernel, no communication schedule
//! — only the initial factors (`init_factors`).  Serial `dtd` and world-3
//! `dismastd` must agree with it to 1e-10 relative on every factor and
//! every loss, wherever the engine's decisions stay on the Cholesky tier.

use dismastd_core::dtd::{dtd, init_factors};
use dismastd_core::{decompose, ClusterConfig, DecompConfig, NumericsReport};
use dismastd_tensor::{DenseTensor, Matrix, SparseTensor, SparseTensorBuilder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Iterations every run takes (tolerance 0: no early stop).
const ITERS: usize = 3;
/// Agreement demanded of the engine, relative to the reference's scale.
const REL: f64 = 1e-10;
/// The family's `μ → 0` end: `DecompConfig` refuses `μ = 0` itself, whose
/// old-row rule would drop the history term (and with it what keeps `D₀`
/// invertible when few new rows exist).
const MU_MIN: f64 = 1.0 / (1u64 << 20) as f64;

/// A row-major dense matrix: the reference's only linear-algebra type.
#[derive(Debug, Clone)]
struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    fn of(m: &Matrix) -> Self {
        let mut out = Dense::zeros(m.rows(), m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                out.data[i * m.cols() + j] = m.get(i, j);
            }
        }
        out
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Rows `lo..hi`.
    fn block(&self, lo: usize, hi: usize) -> Dense {
        Dense {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// `self` over `other`.
    fn stack(&self, other: &Dense) -> Dense {
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Dense {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        out
    }

    fn matmul(&self, other: &Dense) -> Dense {
        assert_eq!(self.cols, other.rows);
        let mut out = Dense::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let sum = (0..self.cols).map(|k| self.at(i, k) * other.at(k, j)).sum();
                out.set(i, j, sum);
            }
        }
        out
    }

    /// `AᵀB`.
    fn cross(&self, other: &Dense) -> Dense {
        self.transpose().matmul(other)
    }

    fn zip(&self, other: &Dense, f: impl Fn(f64, f64) -> f64) -> Dense {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b));
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: data.collect(),
        }
    }

    fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

/// `X_(n)`: row `i` holds the cells whose mode-`n` index is `i`; column
/// `j` enumerates the other modes' indices, the first of them fastest.
fn unfold(x: &DenseTensor, n: usize) -> Dense {
    let shape = x.shape();
    let cols: usize = (0..shape.len())
        .filter(|&k| k != n)
        .map(|k| shape[k])
        .product();
    let mut out = Dense::zeros(shape[n], cols);
    for (idx, v) in x.iter_all() {
        let (mut j, mut stride) = (0, 1);
        for k in (0..shape.len()).filter(|&k| k != n) {
            j += idx[k] * stride;
            stride *= shape[k];
        }
        out.set(idx[n], j, v);
    }
    out
}

/// The Khatri-Rao product of every factor but mode `n`, its rows in
/// [`unfold`]'s column order: row `j` is the element-wise product of the
/// factors' rows at the indices `j` encodes.
fn khatri_rao(factors: &[Dense], n: usize) -> Dense {
    let others: Vec<usize> = (0..factors.len()).filter(|&k| k != n).collect();
    let rows: usize = others.iter().map(|&k| factors[k].rows).product();
    let r = factors[n].cols;
    let mut out = Dense::zeros(rows, r);
    for j in 0..rows {
        let mut rest = j;
        let mut row = vec![1.0; r];
        for &k in &others {
            let i = rest % factors[k].rows;
            rest /= factors[k].rows;
            for (c, value) in row.iter_mut().enumerate() {
                *value *= factors[k].at(i, c);
            }
        }
        for (c, value) in row.into_iter().enumerate() {
            out.set(j, c, value);
        }
    }
    out
}

/// `B · D⁻¹` for a symmetric `D`: solves `D Y = Bᵀ` by Gaussian
/// elimination with partial pivoting and returns `Yᵀ`.
fn solve_right(b: &Dense, d: &Dense) -> Dense {
    let r = d.rows;
    let mut a = d.clone();
    let mut y = b.transpose();
    for col in 0..r {
        let pivot = (col..r)
            .max_by(|&p, &q| a.at(p, col).abs().total_cmp(&a.at(q, col).abs()))
            .unwrap();
        for j in 0..r {
            let (top, low) = (a.at(col, j), a.at(pivot, j));
            a.set(col, j, low);
            a.set(pivot, j, top);
        }
        for j in 0..y.cols {
            let (top, low) = (y.at(col, j), y.at(pivot, j));
            y.set(col, j, low);
            y.set(pivot, j, top);
        }
        for row in col + 1..r {
            let f = a.at(row, col) / a.at(col, col);
            for j in col..r {
                a.set(row, j, a.at(row, j) - f * a.at(col, j));
            }
            for j in 0..y.cols {
                y.set(row, j, y.at(row, j) - f * y.at(col, j));
            }
        }
    }
    for col in (0..r).rev() {
        for j in 0..y.cols {
            let known: f64 = (col + 1..r).map(|k| a.at(col, k) * y.at(k, j)).sum();
            y.set(col, j, (y.at(col, j) - known) / a.at(col, col));
        }
    }
    y.transpose()
}

/// The Hadamard product of `f(k)` over every mode `k ≠ n`.
fn hadamard_others(order: usize, n: usize, f: impl Fn(usize) -> Dense) -> Dense {
    let mut others = (0..order).filter(|&k| k != n).map(f);
    let first = others.next().unwrap();
    others.fold(first, |acc, m| acc.zip(&m, |a, b| a * b))
}

/// `⟦A⟧` at one cell.
fn kruskal_at(factors: &[Dense], idx: &[usize]) -> f64 {
    (0..factors[0].cols)
        .map(|c| {
            idx.iter()
                .zip(factors)
                .map(|(&i, f)| f.at(i, c))
                .product::<f64>()
        })
        .sum()
}

/// Eq. 4 by dense reconstruction: `μ‖⟦Ã⟧ − ⟦A⁽⁰⁾⟧‖²` over the old box plus
/// `‖X − ⟦A⟧‖²` over every cell outside it (all cells when the box is
/// empty).
fn dense_loss(x: &DenseTensor, a: &[Dense], old: &[Dense], mu: f64) -> f64 {
    let mut loss = 0.0;
    for (idx, v) in x.iter_all() {
        let in_box = idx.iter().zip(old).all(|(&i, o)| i < o.rows);
        if in_box {
            let gap = kruskal_at(old, &idx) - kruskal_at(a, &idx);
            loss += mu * gap * gap;
        } else {
            let gap = v - kruskal_at(a, &idx);
            loss += gap * gap;
        }
    }
    loss
}

/// The reference DTD: `ITERS` sweeps of Eq. 5 from the engine's initial
/// factors; the factors and the loss after every sweep.
fn dense_dtd(x: &SparseTensor, old: &[Matrix], cfg: &DecompConfig) -> (Vec<Dense>, Vec<f64>) {
    let shape = x.shape().to_vec();
    let order = shape.len();
    let dense = DenseTensor::from_sparse(x).unwrap();
    let old_d: Vec<Dense> = old.iter().map(Dense::of).collect();
    let init = init_factors(old, &shape, cfg.rank, cfg.seed).unwrap();
    let mut a: Vec<Dense> = init.iter().map(Dense::of).collect();
    let mu = cfg.forgetting;
    let mut losses = Vec::new();
    for _ in 0..cfg.max_iters {
        for n in 0..order {
            let split = |k: usize| {
                (
                    a[k].block(0, old_d[k].rows),
                    a[k].block(old_d[k].rows, shape[k]),
                )
            };
            let g0 = |k: usize| split(k).0.cross(&split(k).0);
            let g1 = |k: usize| split(k).1.cross(&split(k).1);
            let tilde = |k: usize| old_d[k].cross(&split(k).0);
            let d1 = hadamard_others(order, n, |k| g0(k).zip(&g1(k), |p, q| p + q));
            let old_only = hadamard_others(order, n, g0);
            let d0 = d1.zip(&old_only, |p, q| p - (1.0 - mu) * q);
            let hat = unfold(&dense, n).matmul(&khatri_rao(&a, n));
            let (rows_old, rows) = (old_d[n].rows, shape[n]);
            let mut updated = Dense::zeros(0, cfg.rank);
            if rows_old > 0 {
                let history = old_d[n].matmul(&hadamard_others(order, n, tilde));
                let rhs = history.zip(&hat.block(0, rows_old), |h, m| mu * h + m);
                updated = solve_right(&rhs, &d0);
            }
            if rows > rows_old {
                updated = updated.stack(&solve_right(&hat.block(rows_old, rows), &d1));
            }
            a[n] = updated;
        }
        losses.push(dense_loss(&dense, &a, &old_d, mu));
    }
    (a, losses)
}

/// One DTD step to check: a complement over `new_shape` with no entry in
/// the old box, and previous factors over that box (zero-row ones for a
/// cold step).
#[derive(Debug, Clone)]
struct Step {
    complement: SparseTensor,
    old: Vec<Matrix>,
    cfg: DecompConfig,
}

fn step(
    old_shape: &[usize],
    new_shape: &[usize],
    nnz: usize,
    rank: usize,
    mu: f64,
    seed: u64,
) -> Step {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let old = old_shape
        .iter()
        .map(|&rows| Matrix::random(rows, rank, &mut rng))
        .collect();
    let mut b = SparseTensorBuilder::new(new_shape.to_vec());
    let outside = new_shape.iter().zip(old_shape).any(|(n, o)| n > o);
    for _ in 0..if outside { nnz } else { 0 } {
        let idx = loop {
            let idx: Vec<usize> = new_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            if idx.iter().zip(old_shape).any(|(i, o)| i >= o) {
                break idx;
            }
        };
        b.push(&idx, rng.gen_range(-1.0..1.0)).unwrap();
    }
    let cfg = DecompConfig::default()
        .with_rank(rank)
        .with_forgetting(mu)
        .with_max_iters(ITERS)
        .with_tolerance(0.0)
        .with_seed(seed ^ 0x5eed);
    Step {
        complement: b.build().unwrap(),
        old,
        cfg,
    }
}

/// Whether every decision of a run stayed on the Cholesky tier.
fn cholesky_only(numerics: &NumericsReport) -> bool {
    !numerics.escalated()
}

/// The engine's factors and losses against the reference, `REL` relative
/// to the reference's scale: a factor's largest entry, and for the loss
/// the step's loss at zero factors, `‖X \ X̃‖² + μ‖⟦Ã⟧‖²`.
fn agree(tag: &str, s: &Step, factors: &[Matrix], losses: &[f64]) {
    let (want, want_losses) = dense_dtd(&s.complement, &s.old, &s.cfg);
    for (n, (got, want)) in factors.iter().zip(&want).enumerate() {
        let got = Dense::of(got);
        let gap = got.zip(want, |p, q| p - q).max_abs();
        assert!(
            gap <= REL * want.max_abs(),
            "{tag}: mode {n} off by {gap:e}"
        );
    }
    let old: Vec<Dense> = s.old.iter().map(Dense::of).collect();
    let zero: Vec<Dense> = want.iter().map(|f| Dense::zeros(f.rows, f.cols)).collect();
    let dense = DenseTensor::from_sparse(&s.complement).unwrap();
    let scale = dense_loss(&dense, &zero, &old, s.cfg.forgetting).max(f64::MIN_POSITIVE);
    assert_eq!(losses.len(), want_losses.len(), "{tag}");
    for (t, (got, want)) in losses.iter().zip(&want_losses).enumerate() {
        let gap = (got - want).abs();
        assert!(gap <= REL * scale, "{tag}: loss {t}: {got} vs {want}");
    }
}

/// Runs serial `dtd` and world-3 `dismastd` on `s` and checks both against
/// the reference.  `false` when a decision left the Cholesky tier — a case
/// outside this oracle's family.
fn check(s: &Step) -> bool {
    let serial = dtd(&s.complement, &s.old, &s.cfg).unwrap();
    let world3 = decompose(&s.complement, &s.old, &s.cfg, &ClusterConfig::new(3)).unwrap();
    if !cholesky_only(&serial.numerics) || !cholesky_only(&world3.numerics) {
        return false;
    }
    agree("serial", s, serial.kruskal.factors(), &serial.loss_trace);
    agree("world 3", s, world3.kruskal.factors(), &world3.loss_trace);
    true
}

#[test]
fn the_engine_matches_the_dense_reference_on_each_named_case() {
    let cases = [
        ("cold", step(&[0, 0, 0], &[5, 4, 4], 40, 2, 0.5, 1)),
        (
            "warm, μ → 0",
            step(&[4, 3, 3], &[6, 5, 5], 40, 2, MU_MIN, 2),
        ),
        ("warm, μ = 1", step(&[4, 3, 3], &[6, 5, 5], 40, 3, 1.0, 3)),
        (
            "empty complement",
            step(&[4, 3, 3], &[6, 5, 5], 0, 2, 0.5, 4),
        ),
        (
            "a non-growing mode",
            step(&[4, 3, 3], &[6, 3, 5], 30, 2, 0.5, 5),
        ),
    ];
    for (name, s) in &cases {
        assert!(check(s), "{name}: a decision left the Cholesky tier");
    }
}

/// A step of the family: cold or warm, `μ ∈ {2⁻²⁰, 0.5, 1}`, up to 30 new
/// nonzeros (none: an empty complement), and modes that may not grow.
fn step_strategy() -> impl Strategy<Value = Step> {
    (
        (0u8..2, 0usize..3),
        prop::collection::vec((2usize..5, 0usize..3), 3),
        (0usize..30, 2usize..4, 0u64..1 << 32),
    )
        .prop_map(|((cold, mu), dims, (nnz, rank, seed))| {
            let cold = cold == 1;
            let old_shape: Vec<usize> = dims
                .iter()
                .map(|&(o, _)| if cold { 0 } else { o })
                .collect();
            let new_shape: Vec<usize> = dims
                .iter()
                .map(|&(o, g)| if cold { o + 1 } else { o + g })
                .collect();
            step(
                &old_shape,
                &new_shape,
                nnz,
                rank,
                [MU_MIN, 0.5, 1.0][mu],
                seed,
            )
        })
}

#[test]
fn the_engine_matches_the_dense_reference_across_the_family() {
    // Cases whose decisions leave the Cholesky tier are outside the
    // family; most must stay inside it, or the check says little.
    let (family, mut rng) = (step_strategy(), TestRng::for_test("dense_oracle"));
    let cases = 48;
    let checked = (0..cases)
        .filter(|_| check(&family.generate(&mut rng)))
        .count();
    assert!(
        checked * 4 >= cases * 3,
        "{checked} of {cases} cases checked"
    );
}
