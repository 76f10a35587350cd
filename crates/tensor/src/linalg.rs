//! Small dense solvers for the `R x R` normal-equation systems.
//!
//! Every ALS/DTD factor update solves `A_n · D = N` for `A_n`, where `D` is
//! an `R x R` Hadamard product of Gram matrices — symmetric and (generically)
//! positive definite, with `R` small (the paper uses `R = 10`).  Cholesky is
//! the right tool; we fall back to partially pivoted LU and, as a last
//! resort, to ridge regularisation, mirroring what practical CP solvers
//! (SPLATT, Tensor Toolbox) do when factors become collinear.

use crate::error::{Result, TensorError};
use crate::lanes::for_fixed_lanes;
use crate::matrix::{Matrix, RowSet};

/// Cholesky factorisation `M = L Lᵀ` of a symmetric positive definite matrix.
///
/// Returns the lower-triangular factor `L`, or an error when a non-positive
/// pivot is encountered (matrix not SPD).
pub fn cholesky(m: &Matrix) -> Result<Matrix> {
    let mut l = Matrix::default();
    cholesky_into(m, 0.0, &mut l)?;
    Ok(l)
}

/// [`cholesky`] of `m + shift·I` into a caller-kept buffer, which is only
/// reallocated when its shape is not `m`'s.
pub(crate) fn cholesky_into(m: &Matrix, shift: f64, l: &mut Matrix) -> Result<()> {
    let n = require_square(m)?;
    if l.shape() != m.shape() {
        // lint:allow(alloc_hygiene): first use of a scratch factorisation only; later calls find the shape
        *l = m.clone();
    }
    l.fill_zero();
    for i in 0..n {
        for j in 0..=i {
            let mut sum = m.get(i, j);
            if i == j {
                sum += shift;
            }
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(TensorError::Singular { solver: "cholesky" });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(())
}

/// LU factorisation with partial pivoting.
///
/// Returns `(lu, perm)` where `lu` packs `L` (unit diagonal, below) and `U`
/// (on and above the diagonal) and `perm` is the row permutation.
pub fn lu_decompose(m: &Matrix) -> Result<(Matrix, Vec<usize>)> {
    let (mut lu, mut perm) = (Matrix::default(), Vec::new());
    lu_into(m, &mut lu, &mut perm)?;
    Ok((lu, perm))
}

/// [`lu_decompose`] into caller-kept buffers.
pub(crate) fn lu_into(m: &Matrix, lu: &mut Matrix, perm: &mut Vec<usize>) -> Result<()> {
    let n = require_square(m)?;
    if lu.shape() == m.shape() {
        lu.as_mut_slice().copy_from_slice(m.as_slice());
    } else {
        // lint:allow(alloc_hygiene): first use of a scratch factorisation only; later calls find the shape
        *lu = m.clone();
    }
    perm.clear();
    perm.extend(0..n);
    for col in 0..n {
        // Partial pivoting: pick the largest remaining entry in this column.
        let (pivot_row, pivot_val) =
            (col..n)
                .map(|r| (r, lu.get(r, col).abs()))
                .fold(
                    (col, 0.0),
                    |best, cur| if cur.1 > best.1 { cur } else { best },
                );
        if pivot_val < 1e-300 || !pivot_val.is_finite() {
            return Err(TensorError::Singular { solver: "lu" });
        }
        if pivot_row != col {
            for j in 0..n {
                let a = lu.get(col, j);
                let b = lu.get(pivot_row, j);
                lu.set(col, j, b);
                lu.set(pivot_row, j, a);
            }
            perm.swap(col, pivot_row);
        }
        let inv_pivot = 1.0 / lu.get(col, col);
        for r in col + 1..n {
            let factor = lu.get(r, col) * inv_pivot;
            lu.set(r, col, factor);
            for j in col + 1..n {
                let v = lu.get(r, j) - factor * lu.get(col, j);
                lu.set(r, j, v);
            }
        }
    }
    Ok(())
}

/// Cheap condition-number estimate from a Cholesky factor `L`:
/// `(max_i L_ii / min_i L_ii)²`.  A lower bound on the true 2-norm
/// condition number of `L Lᵀ`, adequate for tier-escalation decisions.
pub fn cholesky_condition_estimate(l: &Matrix) -> f64 {
    let r = diag_ratio(l, |v| v);
    r * r
}

/// Cheap condition-number estimate from a packed LU factorisation:
/// `max_i |U_ii| / min_i |U_ii|` (a lower bound on the condition of `M`).
pub fn lu_condition_estimate(lu: &Matrix) -> f64 {
    diag_ratio(lu, f64::abs)
}

fn diag_ratio(m: &Matrix, f: impl Fn(f64) -> f64) -> f64 {
    let n = m.rows().min(m.cols());
    if n == 0 {
        return 1.0;
    }
    let mut max = 0.0f64;
    let mut min = f64::INFINITY;
    for i in 0..n {
        let d = f(m.get(i, i));
        if !d.is_finite() {
            return f64::INFINITY;
        }
        max = max.max(d);
        min = min.min(d);
    }
    if min <= 0.0 {
        return f64::INFINITY;
    }
    max / min
}

/// Pre-factorised symmetric system used to apply `·D⁻¹` to many rows.
///
/// The ALS update applies the same `R x R` inverse to every row of the
/// MTTKRP result; factorising once and back-substituting per row is the
/// `O(R³ + I R²)` decomposition the paper's complexity analysis assumes.
pub enum Factorized {
    /// SPD path.
    Cholesky(Matrix),
    /// General fallback.
    Lu(Matrix, Vec<usize>),
}

/// The empty factorisation: scratch for [`crate::RobustSolver`] to build in.
impl Default for Factorized {
    fn default() -> Self {
        Factorized::Cholesky(Matrix::default())
    }
}

/// One batch of Eq. 5 row updates against a [`Factorized`] `M`: for every
/// `i ∈ rows`, `out[i,:] ← (μ·prev[i,:]·C + rhs[i,:]) · M⁻¹`, the history
/// term present only with `history = Some((μ, prev, C))` (`Ã_n` and
/// `⊛_{k≠n} G̃_k` for the old-row block).  `rhs` — the MTTKRP result `Â` —
/// is only read, so a batch can be solved again under another `M`.
#[derive(Debug, Clone)]
pub struct RowUpdate<'a> {
    /// Right-hand sides, one per row.
    pub rhs: &'a Matrix,
    /// `(μ, Ã_n, ⊛_{k≠n} G̃_k)` of the Eq. 5 old-row numerator.
    pub history: Option<(f64, &'a Matrix, &'a Matrix)>,
    /// The rows to update, in order.
    pub rows: RowSet<'a>,
}

/// Rows [`solve_rows_fixed`] substitutes side by side.  One row is a chain
/// of `2R` dependent divisions, so a lone row runs at division *latency*;
/// `W` rows are `W` independent chains (`W/2` SSE2 registers per step, the
/// baseline this workspace builds for) and approach division *throughput*.
/// Picked by measurement — 30.8 k rows at `R = 10`, ms: W = 1 3.98, 2 3.05,
/// 4 1.79, 8 1.15, 16 0.98 — at the knee: doubling the block again buys
/// 15 %, and a batch's last `rows mod W` rows run one at a time.
const SOLVE_WIDTH: usize = 8;

impl Factorized {
    /// Factorises `m`, preferring Cholesky, falling back to LU, and finally
    /// to a ridge-regularised Cholesky (`m + eps·tr(m)/n · I`).
    ///
    /// # Errors
    /// Returns [`TensorError::Singular`] only if all three attempts fail.
    pub fn new(m: &Matrix) -> Result<Factorized> {
        if let Ok(l) = cholesky(m) {
            return Ok(Factorized::Cholesky(l));
        }
        if let Ok((lu, perm)) = lu_decompose(m) {
            return Ok(Factorized::Lu(lu, perm));
        }
        let n = require_square(m)?;
        let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
        let ridge = (trace.abs() / n as f64).max(1.0) * 1e-9;
        let mut l = Matrix::default();
        cholesky_into(m, ridge, &mut l)?;
        Ok(Factorized::Cholesky(l))
    }

    /// Runs one batch of row updates (see [`RowUpdate`]) into `out`, and
    /// says whether every value written is finite.
    ///
    /// The factorisation is validated once per call, not once per row;
    /// ranks in the [`for_fixed_lanes!`] set then run
    /// [`solve_rows_fixed`], the rest [`solve_rows_dyn`].  Each
    /// row sees the same operations in the same order either way — and the
    /// ones a per-row forward/back substitution would perform — so the
    /// dispatch cannot be seen in the results.
    ///
    /// # Errors
    /// [`TensorError::ShapeMismatch`] when `rhs`, `out` or the history
    /// operands are not as wide as the system (or a hand-built permutation
    /// as long), [`TensorError::IndexOutOfBounds`] for a row outside `rhs`,
    /// `out` or `prev`, and — possible only for hand-built values, the
    /// constructors never produce one — [`TensorError::NonFinitePivot`] for
    /// a zero or non-finite diagonal pivot, [`TensorError::InvalidArgument`]
    /// for a permutation entry out of range.
    pub fn solve_rows(&self, job: &RowUpdate<'_>, out: &mut Matrix) -> Result<bool> {
        let (m, perm, solver) = match self {
            Factorized::Cholesky(l) => (l, None, "cholesky_solve"),
            Factorized::Lu(lu, perm) => (lu, Some(perm.as_slice()), "lu_solve"),
        };
        let n = require_square(m)?;
        let history_misfit = job
            .history
            .is_some_and(|(_, prev, had)| prev.cols() != n || had.shape() != (n, n));
        if job.rhs.cols() != n
            || out.cols() != n
            || history_misfit
            || perm.is_some_and(|perm| perm.len() != n)
        {
            return Err(TensorError::shape_mismatch(
                "solve_rows",
                &[n, n],
                &[job.rhs.cols(), out.cols()],
            ));
        }
        let prev_rows = job.history.map_or(usize::MAX, |(_, prev, _)| prev.rows());
        job.rows
            .check_within(prev_rows.min(job.rhs.rows()).min(out.rows()), n)?;
        if perm.is_some_and(|perm| perm.iter().any(|&p| p >= n)) {
            // lint:allow(alloc_hygiene): rejected hand-built input only, not steady state
            return Err(TensorError::InvalidArgument(format!(
                "solve_rows: permutation entry out of range for dimension {n}"
            )));
        }
        if (0..n).any(|i| m.get(i, i) == 0.0 || !m.get(i, i).is_finite()) {
            return Err(TensorError::NonFinitePivot { solver });
        }
        let fixed = for_fixed_lanes!(
            n,
            const SOLVE_WIDTH,
            solve_rows_fixed(m, perm, job, out),
            else None
        );
        Ok(fixed.unwrap_or_else(|| solve_rows_dyn(m, perm, job, out)))
    }

    /// Dimension of the factorised system.
    pub fn dim(&self) -> usize {
        match self {
            Factorized::Cholesky(l) => l.rows(),
            Factorized::Lu(lu, _) => lu.rows(),
        }
    }
}

/// [`Factorized::solve_rows`] for any dimension, row by row in `out`'s
/// own storage: the numerator is written where the (permuted) right-hand
/// side belongs, then substituted in place.  `perm` is `Some` for a
/// packed LU `m` (unit lower diagonal), `None` for a Cholesky factor.
fn solve_rows_dyn(
    m: &Matrix,
    perm: Option<&[usize]>,
    job: &RowUpdate<'_>,
    out: &mut Matrix,
) -> bool {
    let (n, lu) = (m.rows(), perm.is_some());
    let src = |c: usize| perm.map_or(c, |perm| perm[c]);
    let mut finite = true;
    for j in 0..job.rows.len() {
        let i = job.rows.at(j);
        let (rhs, x) = (job.rhs.row(i), out.row_mut(i));
        if let Some((mu, prev, had)) = job.history {
            x.fill(0.0);
            for (f, &pv) in prev.row(i).iter().enumerate() {
                let had = had.row(f);
                for (c, slot) in x.iter_mut().enumerate() {
                    *slot += pv * had[src(c)];
                }
            }
            for (c, slot) in x.iter_mut().enumerate() {
                *slot = mu * *slot + rhs[src(c)];
            }
        } else {
            for (c, slot) in x.iter_mut().enumerate() {
                *slot = rhs[src(c)];
            }
        }
        // Forward: L y = P b.
        for r in 0..n {
            let mut sum = x[r];
            for k in 0..r {
                sum -= m.get(r, k) * x[k];
            }
            x[r] = if lu { sum } else { sum / m.get(r, r) };
        }
        // Backward: U x = y, with U = Lᵀ for a Cholesky factor.
        for r in (0..n).rev() {
            let mut sum = x[r];
            for k in r + 1..n {
                sum -= if lu { m.get(r, k) } else { m.get(k, r) } * x[k];
            }
            x[r] = sum / m.get(r, r);
            finite &= x[r].is_finite();
        }
    }
    finite
}

/// [`Factorized::solve_rows`] for an `R x R` system, `W` rows at a time.
///
/// Both tiers become one pair of stack triangles — `lower` with the
/// diagonal forward substitution divides by (ones for LU, whose `L` is
/// unit: `x / 1.0` is `x`), `upper` = `U` or `Lᵀ` — so one body serves
/// both.  A block's `W` rows sit side by side in the last index of `x`:
/// every multiply-subtract and every division of the substitution is `W`
/// independent lanes wide, and each lane performs exactly the per-row
/// sequence.  The numerator, when asked for, is formed in registers.
/// `None` when a row is not `R` wide; rows already written are then
/// rewritten by the caller's dynamic pass (`rhs` is never modified).
fn solve_rows_fixed<const R: usize, const W: usize>(
    m: &Matrix,
    perm: Option<&[usize]>,
    job: &RowUpdate<'_>,
    out: &mut Matrix,
) -> Option<bool> {
    let mut tri = Triangles {
        lower: [[0.0f64; R]; R],
        upper: [[0.0f64; R]; R],
        perm: std::array::from_fn(|c| perm.map_or(c, |perm| perm[c])),
        had: [[0.0f64; R]; R],
    };
    let lu = perm.is_some();
    for i in 0..R {
        for k in 0..i {
            tri.lower[i][k] = m.get(i, k);
        }
        tri.lower[i][i] = if lu { 1.0 } else { m.get(i, i) };
        for k in i..R {
            tri.upper[i][k] = if lu { m.get(i, k) } else { m.get(k, i) };
        }
    }
    if let Some((_, _, had)) = job.history {
        for (dst, src) in tri.had.iter_mut().zip(had.iter_rows()) {
            *dst = *<&[f64; R]>::try_from(src).ok()?;
        }
    }
    let n = job.rows.len();
    let mut finite = true;
    for block in 0..n / W {
        let idx: [usize; W] = std::array::from_fn(|w| job.rows.at(block * W + w));
        finite &= solve_block(&tri, job, idx, out)?;
    }
    for j in n - n % W..n {
        finite &= solve_block(&tri, job, [job.rows.at(j)], out)?;
    }
    Some(finite)
}

/// The stack copy of a factorisation [`solve_rows_fixed`] works from, plus
/// the history term's `⊛ G̃`.
struct Triangles<const R: usize> {
    lower: [[f64; R]; R],
    upper: [[f64; R]; R],
    perm: [usize; R],
    had: [[f64; R]; R],
}

/// `W` rows of [`solve_rows_fixed`], `x[c][w]` = column `c` of row `w`.
#[inline(always)]
fn solve_block<const R: usize, const W: usize>(
    tri: &Triangles<R>,
    job: &RowUpdate<'_>,
    idx: [usize; W],
    out: &mut Matrix,
) -> Option<bool> {
    let mut x = [[0.0f64; W]; R];
    for (w, &i) in idx.iter().enumerate() {
        let rhs = <&[f64; R]>::try_from(job.rhs.row(i)).ok()?;
        match job.history {
            None => {
                for c in 0..R {
                    x[c][w] = rhs[tri.perm[c]];
                }
            }
            Some((mu, prev, _)) => {
                let prev = <&[f64; R]>::try_from(prev.row(i)).ok()?;
                let mut acc = [0.0f64; R];
                for f in 0..R {
                    for c in 0..R {
                        acc[c] += prev[f] * tri.had[f][c];
                    }
                }
                for c in 0..R {
                    x[c][w] = mu * acc[tri.perm[c]] + rhs[tri.perm[c]];
                }
            }
        }
    }
    for r in 0..R {
        let mut sum = x[r];
        for k in 0..r {
            for w in 0..W {
                sum[w] -= tri.lower[r][k] * x[k][w];
            }
        }
        for w in 0..W {
            x[r][w] = sum[w] / tri.lower[r][r];
        }
    }
    let mut finite = true;
    for r in (0..R).rev() {
        let mut sum = x[r];
        for k in r + 1..R {
            for w in 0..W {
                sum[w] -= tri.upper[r][k] * x[k][w];
            }
        }
        for w in 0..W {
            x[r][w] = sum[w] / tri.upper[r][r];
            finite &= x[r][w].is_finite();
        }
    }
    for (w, &i) in idx.iter().enumerate() {
        let dst = <&mut [f64; R]>::try_from(out.row_mut(i)).ok()?;
        for c in 0..R {
            dst[c] = x[c][w];
        }
    }
    Some(finite)
}

/// The whole of `b` as one plain batch (no history term).
pub(crate) fn all_rows(b: &Matrix) -> RowUpdate<'_> {
    RowUpdate {
        rhs: b,
        history: None,
        rows: RowSet::Range(0..b.rows()),
    }
}

/// Solves `X · M = B` row-wise for symmetric `M` (the ALS "division").
///
/// Because `M` is symmetric, `X M = B  ⇔  M Xᵀ = Bᵀ`, i.e. each row of `X`
/// solves `M x = b` with `b` the matching row of `B`.
///
/// # Errors
/// Propagates factorisation failure, or a shape mismatch when
/// `B.cols() != M.rows()`.
pub fn solve_right(b: &Matrix, m: &Matrix) -> Result<Matrix> {
    if b.cols() != m.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "solve_right",
            left: vec![b.rows(), b.cols()],
            right: vec![m.rows(), m.cols()],
        });
    }
    let mut out = Matrix::zeros(b.rows(), b.cols());
    Factorized::new(m)?.solve_rows(&all_rows(b), &mut out)?;
    Ok(out)
}

/// Explicit inverse of a small square matrix (used only where the paper's
/// analysis literally inverts the denominator; prefer [`solve_right`]).
pub fn invert(m: &Matrix) -> Result<Matrix> {
    let n = require_square(m)?;
    // Row `j` of the solve is `M x = e_j`: column `j` of the inverse.
    let mut columns = Matrix::zeros(n, n);
    Factorized::new(m)?.solve_rows(&all_rows(&Matrix::identity(n)), &mut columns)?;
    Ok(columns.transpose())
}

pub(crate) fn require_square(m: &Matrix) -> Result<usize> {
    if m.rows() != m.cols() {
        return Err(TensorError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    Ok(m.rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The per-row solver this module had before [`Factorized::solve_rows`]
    /// (forward / backward substitution on one right-hand side, LU through
    /// a permuted copy), kept verbatim as the batched kernel's oracle.
    fn per_row_oracle(f: &Factorized, b: &mut [f64]) {
        let n = f.dim();
        match f {
            Factorized::Cholesky(l) => {
                for i in 0..n {
                    let mut sum = b[i];
                    for k in 0..i {
                        sum -= l.get(i, k) * b[k];
                    }
                    b[i] = sum / l.get(i, i);
                }
                for i in (0..n).rev() {
                    let mut sum = b[i];
                    for k in i + 1..n {
                        sum -= l.get(k, i) * b[k];
                    }
                    b[i] = sum / l.get(i, i);
                }
            }
            Factorized::Lu(lu, perm) => {
                let mut x: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
                for i in 0..n {
                    let mut sum = x[i];
                    for k in 0..i {
                        sum -= lu.get(i, k) * x[k];
                    }
                    x[i] = sum;
                }
                for i in (0..n).rev() {
                    let mut sum = x[i];
                    for k in i + 1..n {
                        sum -= lu.get(i, k) * x[k];
                    }
                    x[i] = sum / lu.get(i, i);
                }
                b.copy_from_slice(&x);
            }
        }
    }

    /// One right-hand side through the batched entry point.
    fn solve_one(f: &Factorized, b: &[f64]) -> Result<Vec<f64>> {
        let rhs = Matrix::from_rows(&[b]);
        let mut out = Matrix::zeros(1, f.dim());
        f.solve_rows(&all_rows(&rhs), &mut out)?;
        Ok(out.into_vec())
    }

    fn spd3() -> Matrix {
        // Diagonally dominant symmetric => SPD.
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 5.0]])
    }

    #[test]
    fn cholesky_reconstructs() {
        let m = spd3();
        let l = cholesky(&m).unwrap();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(m.max_abs_diff(&rec).unwrap() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&m),
            Err(TensorError::Singular { solver: "cholesky" })
        ));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(cholesky(&m), Err(TensorError::NotSquare { .. })));
    }

    #[test]
    fn lu_solves_general_system() {
        // Asymmetric, needs pivoting (zero leading pivot).
        let m = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, 1.0], &[2.0, 0.0, 3.0]]);
        let (lu, perm) = lu_decompose(&m).unwrap();
        let x = solve_one(&Factorized::Lu(lu, perm), &[5.0, 6.0, 13.0]).unwrap();
        // Verify M x = b.
        for (i, &bi) in [5.0, 6.0, 13.0].iter().enumerate() {
            let got: f64 = (0..3).map(|j| m.get(i, j) * x[j]).sum();
            assert!((got - bi).abs() < 1e-10, "row {i}: {got} vs {bi}");
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(lu_decompose(&m).is_err());
    }

    #[test]
    fn factorized_prefers_cholesky_then_lu() {
        assert!(matches!(
            Factorized::new(&spd3()).unwrap(),
            Factorized::Cholesky(_)
        ));
        let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            Factorized::new(&indefinite).unwrap(),
            Factorized::Lu(..)
        ));
    }

    #[test]
    fn factorized_ridge_fallback_on_singular_spd_like() {
        // Positive semidefinite rank-1 matrix: Cholesky fails, LU fails,
        // ridge succeeds and gives a usable (approximate) solve.
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let f = Factorized::new(&m).unwrap();
        assert_eq!(f.dim(), 2);
        let x = solve_one(&f, &[2.0, 2.0]).unwrap();
        // Solution of the regularised system stays finite.
        assert!(x.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn solve_rows_rejects_a_width_mismatch_and_rows_out_of_range() {
        let f = Factorized::new(&spd3()).unwrap();
        assert!(matches!(
            solve_one(&f, &[1.0, 2.0]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let (rhs, prev, had) = (Matrix::zeros(4, 3), Matrix::zeros(2, 3), spd3());
        let job = |history, rows| RowUpdate {
            rhs: &rhs,
            history,
            rows,
        };
        // `out`, `Ã` and `⊛G̃` must all be as wide as the system.
        let mut narrow = Matrix::zeros(4, 2);
        assert!(matches!(
            f.solve_rows(&job(None, RowSet::Range(0..4)), &mut narrow),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let mut out = Matrix::zeros(4, 3);
        for (prev, had) in [(&narrow, &had), (&prev, &narrow)] {
            let history = Some((0.5, prev, had));
            assert!(matches!(
                f.solve_rows(&job(history, RowSet::Range(0..2)), &mut out),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
        // Rows are checked against `rhs`, `out` and `Ã` before any is read.
        for (history, rows) in [
            (None, RowSet::Range(2..5)),
            (None, RowSet::List(&[0, 4])),
            (Some((0.5, &prev, &had)), RowSet::Range(0..3)),
        ] {
            assert!(matches!(
                f.solve_rows(&job(history, rows), &mut out),
                Err(TensorError::IndexOutOfBounds { .. })
            ));
        }
        assert!(f
            .solve_rows(
                &job(Some((0.5, &prev, &had)), RowSet::Range(0..2)),
                &mut out
            )
            .unwrap());
    }

    #[test]
    fn lu_solve_rejects_wrong_length_and_bad_perm() {
        let (lu, perm) = lu_decompose(&spd3()).unwrap();
        assert!(matches!(
            solve_one(&Factorized::Lu(lu.clone(), perm.clone()), &[1.0, 2.0]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            solve_one(&Factorized::Lu(lu.clone(), vec![0, 1]), &[1.0, 2.0, 3.0]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        // Hand-built: an out-of-range entry is a typed error, not an
        // index panic, now that it is checked once per batch.
        assert!(matches!(
            solve_one(&Factorized::Lu(lu, vec![0, 1, 7]), &[1.0, 2.0, 3.0]),
            Err(TensorError::InvalidArgument(_))
        ));
        assert!(matches!(
            solve_one(&Factorized::Cholesky(Matrix::zeros(2, 3)), &[1.0, 2.0]),
            Err(TensorError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_non_finite_pivots() {
        // Hand-built corrupted factorisations: a typed error from the
        // batch's one pivot check, and no row is written.
        let rhs = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        for bad in [f64::NAN, 0.0, f64::INFINITY] {
            let mut l = cholesky(&spd3()).unwrap();
            l.set(1, 1, bad);
            let (mut lu, perm) = lu_decompose(&spd3()).unwrap();
            lu.set(2, 2, bad);
            for (f, solver) in [
                (Factorized::Cholesky(l), "cholesky_solve"),
                (Factorized::Lu(lu, perm), "lu_solve"),
            ] {
                let mut out = Matrix::zeros(5, 3);
                match f.solve_rows(&all_rows(&rhs), &mut out) {
                    Err(TensorError::NonFinitePivot { solver: s }) => assert_eq!(s, solver),
                    other => panic!("pivot {bad}: {other:?}"),
                }
                assert_eq!(out, Matrix::zeros(5, 3));
            }
        }
    }

    #[test]
    fn condition_estimates_track_scaling() {
        // Well-conditioned: estimate close to 1.
        let well = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let l = cholesky(&well).unwrap();
        assert!(cholesky_condition_estimate(&l) < 2.0);

        // Badly scaled diagonal: estimate explodes.
        let bad = Matrix::from_rows(&[&[1e12, 0.0], &[0.0, 1e-2]]);
        let l = cholesky(&bad).unwrap();
        assert!(cholesky_condition_estimate(&l) > 1e13);

        let (lu, _) = lu_decompose(&bad).unwrap();
        assert!(lu_condition_estimate(&lu) > 1e13);
    }

    #[test]
    fn solve_right_matches_explicit_inverse() {
        let m = spd3();
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.0]]);
        let x = solve_right(&b, &m).unwrap();
        let x_ref = b.matmul(&invert(&m).unwrap()).unwrap();
        assert!(x.max_abs_diff(&x_ref).unwrap() < 1e-10);
        // And X * M == B.
        let back = x.matmul(&m).unwrap();
        assert!(back.max_abs_diff(&b).unwrap() < 1e-10);
    }

    #[test]
    fn solve_right_shape_check() {
        let m = spd3();
        let b = Matrix::zeros(2, 2);
        assert!(solve_right(&b, &m).is_err());
    }

    #[test]
    fn invert_times_original_is_identity() {
        let m = spd3();
        let inv = invert(&m).unwrap();
        let prod = m.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn invert_1x1() {
        let m = Matrix::from_rows(&[&[4.0]]);
        let inv = invert(&m).unwrap();
        assert!((inv.get(0, 0) - 0.25).abs() < 1e-15);
    }

    /// The three tiers' factorisations of `R x R` systems drawn from `rng`:
    /// Cholesky of an SPD Gram, pivoted LU of a general matrix, and
    /// Cholesky of a rank-deficient Gram shifted by a ridge λ > 0.
    fn three_tiers(r: usize, rng: &mut ChaCha8Rng) -> [Factorized; 3] {
        let mut spd = Matrix::random(r + 3, r, rng).gram();
        for i in 0..r {
            spd.set(i, i, spd.get(i, i) + 1.0);
        }
        let general = Matrix::from_fn(r, r, |_, _| rng.gen_range(-1.0..1.0));
        let (lu, perm) = lu_decompose(&general).unwrap();
        let deficient = Matrix::random(r.div_ceil(2), r, rng).gram();
        let mut ridge = Matrix::default();
        cholesky_into(&deficient, 1e-3, &mut ridge).unwrap();
        [
            Factorized::Cholesky(cholesky(&spd).unwrap()),
            Factorized::Lu(lu, perm),
            Factorized::Cholesky(ridge),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The batched row update — dispatched, so fixed-`R` bodies for the
        /// dispatch ranks at every remainder of `W` — writes the bits of
        /// the dynamic body, of the per-row loop it replaced fed with the
        /// worker's numerator, and of the serial solver's `matmul` →
        /// `scale` → `axpy` numerator; rows outside the batch keep theirs.
        #[test]
        fn batched_row_update_is_the_per_row_loop_bit_for_bit(
            seed in 0u64..u64::MAX,
            n_rows in 0usize..10,
            listed in 0u8..2,
            with_history in 0u8..2,
        ) {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for r in (1..=24).chain([32, 40]) {
                let total = n_rows + 3;
                let rhs = Matrix::from_fn(total, r, |_, _| rng.gen_range(-2.0..2.0));
                // Exact zeros exercise the `matmul` skip the kernel lacks.
                let prev = Matrix::from_fn(total, r, |_, _| {
                    if rng.gen_range(0..4) == 0 { 0.0 } else { rng.gen_range(-1.0..1.0) }
                });
                let had = Matrix::from_fn(r, r, |_, _| rng.gen_range(-1.0..1.0));
                let mu = rng.gen_range(0.1..1.0);
                let start = rng.gen_range(0..=total - n_rows);
                let mut list: Vec<u32> = (0..total as u32).collect();
                for i in (1..list.len()).rev() {
                    list.swap(i, rng.gen_range(0..=i));
                }
                list.truncate(n_rows);
                let rows = if listed == 1 {
                    RowSet::List(&list)
                } else {
                    RowSet::Range(start..start + n_rows)
                };
                let job = RowUpdate {
                    rhs: &rhs,
                    history: (with_history == 1).then_some((mu, &prev, &had)),
                    rows: rows.clone(),
                };
                let serial_num = {
                    let mut num = prev.matmul(&had).unwrap();
                    num.scale_assign(mu);
                    crate::matrix::axpy(1.0, rhs.as_slice(), num.as_mut_slice());
                    num
                };
                for (tier, fact) in three_tiers(r, &mut rng).iter().enumerate() {
                    let untouched = Matrix::from_fn(total, r, |i, j| (i * r + j) as f64);
                    let mut expected = untouched.clone();
                    for j in 0..rows.len() {
                        let i = rows.at(j);
                        let mut b = rhs.row(i).to_vec();
                        if with_history == 1 {
                            for (c, slot) in b.iter_mut().enumerate() {
                                let mut acc = 0.0;
                                for (f, &pv) in prev.row(i).iter().enumerate() {
                                    acc += pv * had.get(f, c);
                                }
                                *slot = mu * acc + rhs.get(i, c);
                            }
                            prop_assert_eq!(
                                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                serial_num.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            );
                        }
                        per_row_oracle(fact, &mut b);
                        expected.row_mut(i).copy_from_slice(&b);
                    }
                    let mut batched = untouched.clone();
                    let finite = fact.solve_rows(&job, &mut batched).unwrap();
                    prop_assert_eq!(bits(&batched), bits(&expected), "rank {} tier {}", r, tier);
                    prop_assert!(finite);

                    let (m, perm) = match fact {
                        Factorized::Cholesky(l) => (l, None),
                        Factorized::Lu(lu, perm) => (lu, Some(perm.as_slice())),
                    };
                    let mut dynamic = untouched.clone();
                    solve_rows_dyn(m, perm, &job, &mut dynamic);
                    prop_assert_eq!(bits(&dynamic), bits(&expected), "rank {} tier {}", r, tier);
                }
            }
        }
    }

    #[test]
    fn a_non_finite_row_is_reported_not_hidden() {
        // Both bodies say so when what they wrote is not finite: the
        // caller's cue for the post-solve escalation.
        for r in [3usize, 5] {
            let f = Factorized::new(&Matrix::identity(r)).unwrap();
            let mut rhs = Matrix::zeros(3, r);
            let mut out = Matrix::zeros(3, r);
            assert!(f.solve_rows(&all_rows(&rhs), &mut out).unwrap());
            rhs.set(2, r - 1, f64::INFINITY);
            assert!(!f.solve_rows(&all_rows(&rhs), &mut out).unwrap());
            assert!(out.row(1).iter().all(|v| *v == 0.0));
        }
    }
}
