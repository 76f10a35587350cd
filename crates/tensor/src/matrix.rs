//! Dense row-major matrix.
//!
//! Factor matrices in CP decomposition are tall-and-skinny (`I_n x R` with
//! small `R`), and every hot kernel in the paper (MTTKRP, Gram products,
//! Hadamard products, row-wise updates) walks rows contiguously.  A flat
//! row-major `Vec<f64>` maximises cache locality for that access pattern and
//! keeps row slices available as `&[f64]` without bounds checks in inner
//! loops.

use crate::error::{Result, TensorError};
use crate::lanes::for_fixed_lanes;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Dense row-major matrix of `f64`.
///
/// The workhorse type for CP factor matrices and all `R x R` intermediates
/// (Gram matrices, Hadamard products, normal-equation systems).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

// Hand-written so a decoded matrix is checked as a built one is: through
// `from_vec`, so `data` holds exactly `rows x cols` values.
impl Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::new("expected object for `Matrix`"))?;
        Matrix::from_vec(
            Deserialize::from_value(serde::field(obj, "rows")?)?,
            Deserialize::from_value(serde::field(obj, "cols")?)?,
            Deserialize::from_value(serde::field(obj, "data")?)?,
        )
        .map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::ShapeMismatch {
                op: "Matrix::from_vec",
                left: vec![rows, cols],
                right: vec![data.len()],
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices (test-friendly constructor).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Fills a matrix with uniform random entries in `[0, 1)` drawn from `rng`.
    ///
    /// Used to initialise the new-row factor blocks `A_n^(1)` (Alg. 1 line 2).
    pub fn random(rows: usize, cols: usize, rng: &mut impl rand::Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen::<f64>()).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// The backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                left: vec![self.rows, self.cols],
                right: vec![other.rows, other.cols],
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order: streams over `other` rows, friendly to the
        // row-major layout (no striding in the innermost loop).
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (`cols x cols`, symmetric).
    ///
    /// This is the `A_kᵀ A_k` product that DisMASTD caches on every worker
    /// (Sec. IV-B2); it is accumulated row by row which is exactly the
    /// row-wise distributed form of Sec. IV-B3.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        gram_kernel(&mut out, self, None, &RowSet::Range(0..self.rows));
        out
    }

    /// Cross-Gram `selfᵀ * other` for matrices with equal row counts.
    ///
    /// Used for the `Ã_kᵀ A_k^(0)` products in the Eq. 5 numerators.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the row counts differ.
    pub fn cross_gram(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "cross_gram",
                left: vec![self.rows, self.cols],
                right: vec![other.rows, other.cols],
            });
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        gram_kernel(&mut out, self, Some(other), &RowSet::Range(0..self.rows));
        Ok(out)
    }

    /// The row-wise partial product of Sec. IV-B3 over a subset of rows:
    /// `out ← Σ_{i ∈ rows} self[i,:]ᵀ · other[i,:]`, the Gram partial when
    /// `other` is `None` (= `self`) and the cross-Gram partial otherwise.
    /// `out` is overwritten, never allocated: the serial solver passes its
    /// old / new row blocks, a worker its owned rows, and both keep their
    /// `R x R` targets for the whole run.
    ///
    /// Rows are summed in `rows` order, so partials over the same rows in
    /// the same order agree bit for bit with [`Matrix::gram`] /
    /// [`Matrix::cross_gram`].
    ///
    /// # Errors
    /// [`TensorError::ShapeMismatch`] when `out` is not
    /// `self.cols() x other.cols()`, [`TensorError::IndexOutOfBounds`] when
    /// a listed row lies outside either operand.
    pub fn gram_rows(
        &self,
        other: Option<&Matrix>,
        rows: &RowSet<'_>,
        out: &mut Matrix,
    ) -> Result<()> {
        let b = other.unwrap_or(self);
        if out.shape() != (self.cols, b.cols) {
            return Err(TensorError::shape_mismatch(
                "gram_rows output",
                &[self.cols, b.cols],
                &[out.rows, out.cols],
            ));
        }
        rows.check_within(self.rows.min(b.rows), self.cols)?;
        gram_kernel(out, self, other, rows);
        Ok(())
    }

    /// In-place Hadamard product `self *= other`.
    pub fn hadamard_assign(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "hadamard_assign",
                left: vec![self.rows, self.cols],
                right: vec![other.rows, other.cols],
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
        Ok(())
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// DTD maintains each factor as the stack `[A^(0); A^(1)]` of old-index
    /// and new-index row blocks; this produces the combined matrix.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols && !self.is_empty() && !other.is_empty() {
            return Err(TensorError::ShapeMismatch {
                op: "vstack",
                left: vec![self.rows, self.cols],
                right: vec![other.rows, other.cols],
            });
        }
        let cols = if self.rows > 0 { self.cols } else { other.cols };
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols,
            data,
        })
    }

    /// Copies rows `[start, end)` into a new matrix.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if the range is invalid.
    pub fn row_block(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![start, end],
                shape: vec![self.rows, self.cols],
            });
        }
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        })
    }

    /// Maximum absolute difference between two equally shaped matrices.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                left: vec![self.rows, self.cols],
                right: vec![other.rows, other.cols],
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

/// The rows of a factor matrix a batched kernel visits, in visiting order.
#[derive(Debug, Clone)]
pub enum RowSet<'a> {
    /// A contiguous block, walked as one slice.
    Range(Range<usize>),
    /// An explicit list, ascending in the step's use: rows a rank owns.
    List(&'a [u32]),
}

impl RowSet<'_> {
    /// Number of rows visited.
    pub fn len(&self) -> usize {
        match self {
            RowSet::Range(r) => r.len(),
            RowSet::List(l) => l.len(),
        }
    }

    /// True when no row is visited.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `j`-th row visited (`j < len()`).
    #[inline(always)]
    pub(crate) fn at(&self, j: usize) -> usize {
        match self {
            RowSet::Range(r) => r.start + j,
            RowSet::List(l) => l[j] as usize,
        }
    }

    /// The batch's one bounds check: every row below `rows`.
    pub(crate) fn check_within(&self, rows: usize, cols: usize) -> Result<()> {
        let end = match self {
            RowSet::Range(r) if r.is_empty() => 0,
            RowSet::Range(r) => r.end,
            RowSet::List(l) => l.iter().map(|&i| i as usize + 1).max().unwrap_or(0),
        };
        if end > rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![end - 1], // lint:allow(alloc_hygiene): rejected input only, not steady state
                shape: vec![rows, cols], // lint:allow(alloc_hygiene): rejected input only, not steady state
            });
        }
        Ok(())
    }
}

/// The one Gram kernel: `out ← Σ_{i ∈ rows} a[i,:]ᵀ · b[i,:]` with `b = a`
/// when `other` is `None`; callers have checked shapes and row bounds.
/// Ranks in the [`for_fixed_lanes!`] set run [`gram_fixed`], the rest
/// [`gram_dyn`]; both sum an entry's products in row order from `+0.0`, so
/// they agree bit for bit.
///
/// Neither skips zero entries the way the loops they replace did.  On
/// finite data the skip could not be seen: a skipped product is `±0.0`,
/// and a sum that starts at `+0.0` is never `-0.0`, so adding it changes
/// nothing.  A row holding both an exact zero and `±Inf`/`NaN` now makes
/// entry `(p, q)` *and* its mirror `(q, p)` `NaN`, where the skipping loop
/// left the zero's own row of `out` clean — either way
/// `RobustSolver::decide` refuses that Gram as `NonFiniteValue`.
fn gram_kernel(out: &mut Matrix, a: &Matrix, other: Option<&Matrix>, rows: &RowSet<'_>) {
    let (b, operands) = match other {
        None => (a, 1),
        Some(b) if b.cols == a.cols => (b, 2),
        Some(b) => (b, 0),
    };
    let fixed = for_fixed_lanes!(a.cols, operands, gram_fixed(out, a, b, rows), else None);
    if fixed.is_none() {
        gram_dyn(out, a, b, rows);
    }
}

/// [`gram_kernel`] for any widths: one rank-one update per row.
fn gram_dyn(out: &mut Matrix, a: &Matrix, b: &Matrix, rows: &RowSet<'_>) {
    out.fill_zero();
    for j in 0..rows.len() {
        let (x, y) = (a.row(rows.at(j)), b.row(rows.at(j)));
        for (lane, &xv) in out.data.chunks_exact_mut(b.cols.max(1)).zip(x) {
            for (o, &yv) in lane.iter_mut().zip(y) {
                *o += xv * yv;
            }
        }
    }
}

/// [`gram_kernel`] for `R` columns on both sides, the `R x R` sums on the
/// stack for the whole batch.  `K` counts the operands: with one (`b` is
/// `a`) only the upper triangle is summed and then mirrored — `(q, p)`
/// would sum the commuted products of `(p, q)` in the same order, so the
/// copy has its bits.  `None` — `out` untouched — when a row is not `R`
/// wide, so the caller runs [`gram_dyn`].
fn gram_fixed<const R: usize, const K: usize>(
    out: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    rows: &RowSet<'_>,
) -> Option<()> {
    let mut acc = [[0.0f64; R]; R];
    let mut rank_one = |x: &[f64], y: &[f64]| {
        let x = <&[f64; R]>::try_from(x).ok()?;
        if K == 1 {
            // One operand read through one name: the form LLVM packs.
            for p in 0..R {
                for q in p..R {
                    acc[p][q] += x[p] * x[q];
                }
            }
        } else {
            let y = <&[f64; R]>::try_from(y).ok()?;
            for p in 0..R {
                for q in 0..R {
                    acc[p][q] += x[p] * y[q];
                }
            }
        }
        Some(())
    };
    match rows {
        // A block is walked as one slice: nothing per row but the update.
        RowSet::Range(r) => {
            let (lo, hi) = (r.start * R, r.end.max(r.start) * R);
            let xs = a.data.get(lo..hi)?.chunks_exact(R);
            for (x, y) in xs.zip(b.data.get(lo..hi)?.chunks_exact(R)) {
                rank_one(x, y)?;
            }
        }
        RowSet::List(list) => {
            for &i in list.iter() {
                rank_one(a.row(i as usize), b.row(i as usize))?;
            }
        }
    }
    for (p, lane) in acc.iter().enumerate() {
        for (q, &sum) in lane.iter().enumerate().skip(if K == 1 { p } else { 0 }) {
            out.data[p * R + q] = sum;
            if K == 1 {
                out.data[q * R + p] = sum;
            }
        }
    }
    Some(())
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` over slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `accumulate_gram` / `cross_gram` / the worker's `local_gram_partials`
    /// as they stood before [`gram_kernel`] — one loop, with its zero skip —
    /// kept verbatim as the kernel's oracle: `m += Σ_rows a[i,:]ᵀ · b[i,:]`.
    fn skipping_oracle(m: &mut Matrix, a: &Matrix, b: &Matrix, rows: &RowSet<'_>) {
        for j in 0..rows.len() {
            let (x, y) = (a.row(rows.at(j)), b.row(rows.at(j)));
            for (p, &av) in x.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut m.data[p * b.cols..(p + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(y) {
                    *o += av * bv;
                }
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.as_slice().iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
        assert!(Matrix::from_vec(usize::MAX, 2, Vec::new()).is_err());
    }

    #[test]
    fn a_decoded_matrix_is_checked_as_a_built_one() {
        let decode = |json: &str| serde_json::from_str::<Matrix>(json);
        let m = decode(r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0,4.0]}"#).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(decode(r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#).is_err());
        assert!(decode(r#"{"rows":18446744073709551615,"cols":2,"data":[]}"#).is_err());
        let kruskal = |json: &str| serde_json::from_str::<crate::KruskalTensor>(json);
        assert!(kruskal(r#"{"factors":[]}"#).is_err());
        let ragged = r#"{"factors":[{"rows":1,"cols":1,"data":[1.0]},{"rows":1,"cols":2,"data":[1.0,2.0]}]}"#;
        assert!(kruskal(ragged).is_err());
    }

    #[test]
    fn row_access_and_mutation() {
        let mut m = sample();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        m.row_mut(1)[0] = -1.0;
        assert_eq!(m.get(1, 0), -1.0);
        m.set(2, 1, 9.0);
        assert_eq!(m.row(2), &[5.0, 9.0]);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let m = sample();
        let g = m.gram();
        let mt = Matrix::from_fn(2, 3, |i, j| m.get(j, i));
        let expected = mt.matmul(&m).unwrap();
        assert_eq!(g, expected);
        // Gram must be symmetric.
        assert_eq!(g.get(0, 1), g.get(1, 0));
    }

    #[test]
    fn cross_gram_matches_explicit() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let g = a.cross_gram(&b).unwrap();
        let at = Matrix::from_fn(2, 3, |i, j| a.get(j, i));
        assert_eq!(g, at.matmul(&b).unwrap());
    }

    #[test]
    fn cross_gram_requires_equal_rows() {
        let a = sample();
        let b = Matrix::zeros(2, 2);
        assert!(a.cross_gram(&b).is_err());
    }

    #[test]
    fn hadamard_and_assign() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        let mut c = a.clone();
        c.hadamard_assign(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 1.0], &[3.0, -4.0]]));
        assert!(c.hadamard_assign(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn norms_and_grand_sum() {
        // `‖M‖_F² = 1ᵀ(M ⊛ M)1` and the grand sum `1ᵀM1`, through the one
        // Hadamard grand-sum kernel.
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(crate::ops::grand_sum_hadamard(&[&m, &m]).unwrap(), 25.0);
        assert_eq!(crate::ops::grand_sum_hadamard(&[&m]).unwrap(), 7.0);
    }

    #[test]
    fn vstack_blocks() {
        let top = Matrix::from_rows(&[&[1.0, 2.0]]);
        let bottom = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = top.vstack(&bottom).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn vstack_with_empty() {
        let top = Matrix::zeros(0, 0);
        let bottom = Matrix::from_rows(&[&[1.0, 2.0]]);
        let s = top.vstack(&bottom).unwrap();
        assert_eq!(s.shape(), (1, 2));
    }

    #[test]
    fn row_block_extracts_range() {
        let m = sample();
        let b = m.row_block(1, 3).unwrap();
        assert_eq!(b, Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        assert!(m.row_block(2, 1).is_err());
        assert!(m.row_block(0, 4).is_err());
    }

    #[test]
    fn accumulate_gram_partial_sums_equal_full_gram() {
        // Distributed identity of Sec. IV-B3: sum of block Grams equals the
        // Gram of the stacked matrix.
        let m = sample();
        let mut top = Matrix::zeros(2, 2);
        let mut bottom = Matrix::zeros(2, 2);
        m.gram_rows(None, &RowSet::Range(0..1), &mut top).unwrap();
        m.gram_rows(None, &RowSet::List(&[1, 2]), &mut bottom)
            .unwrap();
        for (t, b) in top.data.iter_mut().zip(&bottom.data) {
            *t += b;
        }
        assert_eq!(top, m.gram());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        let a = Matrix::random(4, 3, &mut r1);
        let b = Matrix::random(4, 3, &mut r2);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn max_abs_diff_detects_largest_gap() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, -2.0]]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 4.0);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = sample();
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], &[1.0, 2.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Gram and cross-Gram partials over a range or a shuffled list:
        /// the dispatched kernel (fixed bodies at the dispatch ranks) ≡ the
        /// dynamic body ≡ the skipping loops it replaced, bit for bit, on
        /// rows that hold exact `0.0` and `-0.0`.
        #[test]
        fn gram_kernel_is_the_skipping_loop_bit_for_bit(
            seed in 0u64..u64::MAX,
            n_rows in 0usize..10,
            listed in 0u8..2,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut draw = |rows: usize, cols: usize| {
                Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                })
            };
            for r in (1..=24).chain([32, 40]) {
                let total = n_rows + 2;
                let (a, b, wide) = (draw(total, r), draw(total, r), draw(total, r + 1));
                let mut list: Vec<u32> = (0..total as u32).rev().collect();
                list.truncate(n_rows);
                let rows = if listed == 1 {
                    RowSet::List(&list)
                } else {
                    RowSet::Range(1..1 + n_rows)
                };
                // (other operand, symmetric): Gram, cross-Gram, and a
                // cross-Gram of unequal widths (always the dynamic body).
                for (other, symmetric) in [(&a, true), (&b, false), (&wide, false)] {
                    let mut expected = Matrix::zeros(r, other.cols);
                    skipping_oracle(&mut expected, &a, other, &rows);
                    let mut got = Matrix::from_fn(r, other.cols, |_, _| f64::NAN);
                    a.gram_rows((!symmetric).then_some(other), &rows, &mut got).unwrap();
                    prop_assert_eq!(bits(&got), bits(&expected), "rank {}", r);
                    let mut dynamic = Matrix::from_fn(r, other.cols, |_, _| f64::NAN);
                    gram_dyn(&mut dynamic, &a, other, &rows);
                    prop_assert_eq!(bits(&dynamic), bits(&expected), "rank {}", r);
                }
                // The whole-matrix adapters are the same kernel.
                let all = RowSet::Range(0..total);
                let mut expected = Matrix::zeros(r, r);
                skipping_oracle(&mut expected, &a, &a, &all);
                prop_assert_eq!(bits(&a.gram()), bits(&expected));
                let mut expected = Matrix::zeros(r, r);
                skipping_oracle(&mut expected, &a, &b, &all);
                prop_assert_eq!(bits(&a.cross_gram(&b).unwrap()), bits(&expected));
            }
        }

        /// A Gram partial is symmetric bit for bit — what lets the
        /// distributed step reduce only its upper triangle and mirror it.
        /// Fixed bodies mirror their upper triangle; the dynamic body sums
        /// `x_p·x_q` and `x_q·x_p` (the same bits) in the same row order.
        #[test]
        fn gram_partials_are_bitwise_symmetric(
            seed in 0u64..u64::MAX,
            n_rows in 0usize..10,
            listed in 0u8..2,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for r in (1..=24).chain([32, 40]) {
                let total = n_rows + 2;
                let a = Matrix::from_fn(total, r, |_, _| match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                });
                let mut list: Vec<u32> = (0..total as u32).rev().collect();
                list.truncate(n_rows);
                let rows = if listed == 1 {
                    RowSet::List(&list)
                } else {
                    RowSet::Range(1..1 + n_rows)
                };
                let mut dispatched = Matrix::from_fn(r, r, |_, _| f64::NAN);
                a.gram_rows(None, &rows, &mut dispatched).unwrap();
                let mut dynamic = Matrix::from_fn(r, r, |_, _| f64::NAN);
                gram_dyn(&mut dynamic, &a, &a, &rows);
                for g in [&dispatched, &dynamic] {
                    for p in 0..r {
                        for q in p + 1..r {
                            prop_assert_eq!(
                                g.get(p, q).to_bits(),
                                g.get(q, p).to_bits(),
                                "rank {} entry ({}, {})", r, p, q
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_beside_an_infinity_poisons_both_mirrored_entries() {
        // The one place dropping the zero skip shows: 0 · Inf.  The old
        // loop skipped row 0 of the Gram (a[0] == 0) and left (0, 1)
        // finite while (1, 0) went NaN; the kernel mirrors, so both are.
        for r in [3usize, 5] {
            let mut a = Matrix::from_fn(2, r, |i, j| (i + j + 1) as f64);
            a.set(1, 0, 0.0);
            a.set(1, 1, f64::INFINITY);
            let g = a.gram();
            assert!(g.get(0, 1).is_nan() && g.get(1, 0).is_nan(), "rank {r}");
            let mut old = Matrix::zeros(r, r);
            skipping_oracle(&mut old, &a, &a, &RowSet::Range(0..2));
            assert!(old.get(0, 1).is_finite() && old.get(1, 0).is_nan());
            // Entries the bad row's zero and infinity do not meet in agree.
            assert_eq!(g.get(0, 2).to_bits(), old.get(0, 2).to_bits());
            assert!(g.get(1, 2).is_infinite() && old.get(1, 2).is_infinite());
        }
    }

    #[test]
    fn gram_rows_validates_target_and_rows() {
        let (a, short) = (sample(), Matrix::zeros(2, 2));
        let mut out = Matrix::zeros(2, 2);
        assert!(matches!(
            a.gram_rows(None, &RowSet::Range(0..3), &mut Matrix::zeros(2, 3)),
            Err(TensorError::ShapeMismatch { .. })
        ));
        for (other, rows) in [
            (None, RowSet::Range(1..4)),
            (None, RowSet::List(&[0, 3])),
            (Some(&short), RowSet::Range(0..3)),
        ] {
            assert!(matches!(
                a.gram_rows(other, &rows, &mut out),
                Err(TensorError::IndexOutOfBounds { .. })
            ));
        }
        // An empty range is in bounds wherever it starts.
        a.gram_rows(None, &RowSet::Range(9..9), &mut out).unwrap();
        assert_eq!(out, Matrix::zeros(2, 2));
    }
}
