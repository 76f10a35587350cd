//! Kruskal tensors — the CP-decomposed form `⟦A_1, …, A_N⟧` (Table II).
//!
//! All norms and inner products go through `R x R` Gram intermediates
//! (`grand_sum(⊛_k A_kᵀ B_k)`), never through a dense reconstruction, which
//! is exactly the "maintain and reuse the intermediate results" discipline of
//! Sec. IV-B4.

use crate::coo::SparseTensor;
use crate::dense::DenseTensor;
use crate::error::{Result, TensorError};
use crate::lanes::{for_fixed_lanes, lane_products};
use crate::matrix::Matrix;
use crate::ops::grand_sum_hadamard;
use serde::{Deserialize, Serialize};

/// A CP / Kruskal tensor: the sum of `R` rank-one outer products encoded as
/// `N` factor matrices with a common column count `R`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KruskalTensor {
    factors: Vec<Matrix>,
}

impl KruskalTensor {
    /// Wraps factor matrices into a Kruskal tensor.
    ///
    /// # Errors
    /// Returns an error if fewer than one factor is supplied or the column
    /// counts (ranks) differ.
    pub fn new(factors: Vec<Matrix>) -> Result<Self> {
        let first_rank = factors.first().ok_or(TensorError::EmptyShape)?.cols();
        for f in &factors {
            if f.cols() != first_rank {
                return Err(TensorError::ShapeMismatch {
                    op: "KruskalTensor::new",
                    left: vec![first_rank],
                    right: vec![f.cols()],
                });
            }
        }
        Ok(KruskalTensor { factors })
    }

    /// Tensor order (number of factor matrices).
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Decomposition rank `R`.
    pub fn rank(&self) -> usize {
        self.factors[0].cols()
    }

    /// Shape of the represented tensor (`rows` of each factor).
    pub fn shape(&self) -> Vec<usize> {
        self.factors.iter().map(Matrix::rows).collect()
    }

    /// Borrow the factor matrices.
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }

    /// Borrow one factor.
    pub fn factor(&self, n: usize) -> &Matrix {
        &self.factors[n]
    }

    /// Consumes the Kruskal tensor, returning its factors.
    pub fn into_factors(self) -> Vec<Matrix> {
        self.factors
    }

    /// Squared Frobenius norm via the Gram identity:
    /// `‖⟦A⟧‖² = 1ᵀ(⊛_k A_kᵀA_k)1`.
    pub fn norm_sq(&self) -> f64 {
        let grams: Vec<Matrix> = self.factors.iter().map(Matrix::gram).collect();
        // lint:allow(panic_path): invariant — every gram is R×R by construction
        grand_sum_hadamard(&grams).expect("grams share the RxR shape")
    }

    /// Inner product with another Kruskal tensor of the same shape:
    /// `⟨⟦A⟧,⟦B⟧⟩ = 1ᵀ(⊛_k A_kᵀB_k)1`.
    ///
    /// # Errors
    /// Returns an error when orders or shapes differ.
    pub fn inner(&self, other: &KruskalTensor) -> Result<f64> {
        if self.order() != other.order() {
            return Err(TensorError::ShapeMismatch {
                op: "KruskalTensor::inner",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut cross = Vec::with_capacity(self.order());
        for (a, b) in self.factors.iter().zip(&other.factors) {
            cross.push(a.cross_gram(b)?);
        }
        grand_sum_hadamard(&cross)
    }

    /// Inner product with a sparse tensor:
    /// `⟨X, ⟦A⟧⟩ = Σ_nnz x · Σ_f Π_k A_k[i_k, f]` — `O(nnz·N·R)`.
    ///
    /// # Errors
    /// Returns an error when the tensor shape exceeds the factor rows.
    pub fn inner_sparse(&self, x: &SparseTensor) -> Result<f64> {
        if x.order() != self.order() {
            return Err(TensorError::ShapeMismatch {
                op: "KruskalTensor::inner_sparse",
                left: self.shape(),
                right: x.shape().to_vec(),
            });
        }
        for (k, f) in self.factors.iter().enumerate() {
            if f.rows() < x.shape()[k] {
                return Err(TensorError::ShapeMismatch {
                    op: "KruskalTensor::inner_sparse rows",
                    left: vec![x.shape()[k]],
                    right: vec![f.rows()],
                });
            }
        }
        let fixed = for_fixed_lanes!(
            self.rank(),
            self.order(),
            inner_sparse_fixed(&self.factors, x),
            else None
        );
        Ok(fixed.unwrap_or_else(|| inner_sparse_dyn(&self.factors, x)))
    }

    /// Full-tensor squared residual `‖X − ⟦A⟧‖²` against a sparse tensor
    /// whose structural zeros count as zeros (the paper's Eq. 1 loss):
    /// `‖X‖² + ‖⟦A⟧‖² − 2⟨X,⟦A⟧⟩`.
    ///
    /// # Errors
    /// Propagates shape errors from [`Self::inner_sparse`].
    pub fn residual_norm_sq(&self, x: &SparseTensor) -> Result<f64> {
        self.residual_given_norm(x, x.norm_sq())
    }

    /// [`Self::residual_norm_sq`] with `‖X‖²` already summed.
    fn residual_given_norm(&self, x: &SparseTensor, x_norm_sq: f64) -> Result<f64> {
        let val = x_norm_sq + self.norm_sq() - 2.0 * self.inner_sparse(x)?;
        // Guard against tiny negative values from floating-point cancellation.
        Ok(val.max(0.0))
    }

    /// CP *fit* `1 − ‖X − ⟦A⟧‖ / ‖X‖` (1 is perfect).
    ///
    /// # Errors
    /// Propagates shape errors; returns `InvalidArgument` for a zero tensor.
    pub fn fit(&self, x: &SparseTensor) -> Result<f64> {
        // One pass over the values: the residual reuses the sum.
        let x_norm_sq = x.norm_sq();
        let xnorm = x_norm_sq.sqrt();
        if xnorm == 0.0 {
            return Err(TensorError::InvalidArgument(
                "fit undefined for a zero tensor".into(),
            ));
        }
        Ok(1.0 - self.residual_given_norm(x, x_norm_sq)?.sqrt() / xnorm)
    }

    /// Normalises every factor column to unit Euclidean norm, returning the
    /// absorbed component weights `λ_f = Π_k ‖A_k[:, f]‖`.
    ///
    /// The standard CP presentation `X ≈ Σ_f λ_f a_f ∘ b_f ∘ …`: after this
    /// call the represented tensor is *unchanged up to the returned
    /// weights*, and `λ` ranks the components by magnitude (useful for
    /// interpreting latent components, e.g. trend strength).  Columns with
    /// zero norm keep their (zero) entries and contribute `λ_f = 0`.
    pub fn normalize_columns(&mut self) -> Vec<f64> {
        let r = self.rank();
        let mut weights = vec![1.0f64; r];
        for factor in &mut self.factors {
            for f in 0..r {
                let norm = (0..factor.rows())
                    .map(|i| factor.get(i, f).powi(2))
                    .sum::<f64>()
                    .sqrt();
                weights[f] *= norm;
                if norm > 0.0 {
                    for i in 0..factor.rows() {
                        let v = factor.get(i, f) / norm;
                        factor.set(i, f, v);
                    }
                }
            }
        }
        weights
    }

    /// Reconstructs the represented tensor densely.  Oracle/testing only —
    /// cost is `Π_k I_k · R`.
    pub fn to_dense(&self) -> Result<DenseTensor> {
        let shape = self.shape();
        let mut out = DenseTensor::zeros(shape.clone())?;
        let r = self.rank();
        let mut idx = vec![0usize; self.order()];
        loop {
            let mut v = 0.0;
            for f in 0..r {
                let mut p = 1.0;
                for (k, &i) in idx.iter().enumerate() {
                    p *= self.factors[k].get(i, f);
                }
                v += p;
            }
            out.set(&idx, v);
            // Odometer increment over the shape.
            let mut k = self.order();
            loop {
                if k == 0 {
                    return Ok(out);
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < shape[k] {
                    break;
                }
                idx[k] = 0;
            }
        }
    }
}

/// Body of [`KruskalTensor::inner_sparse`] for any rank and order: per
/// entry, the lanes `x · Π_k A_k[i_k, :]` multiplied in mode order, then
/// summed in lane order.
fn inner_sparse_dyn(factors: &[Matrix], x: &SparseTensor) -> f64 {
    let r = factors.first().map_or(0, Matrix::cols);
    let mut prod = vec![0.0f64; r];
    let mut total = 0.0;
    for (idx, v) in x.iter() {
        prod.iter_mut().for_each(|p| *p = v);
        for (f, &i) in factors.iter().zip(idx) {
            for (p, &a) in prod.iter_mut().zip(f.row(i as usize)) {
                *p *= a;
            }
        }
        total += prod.iter().sum::<f64>();
    }
    total
}

/// The same body for rank `R` and order `K` known at compile time: the
/// same products and sums in the same order, on stack lanes.  `None`
/// (nothing accumulated is kept) when the factors are not `K` matrices of
/// `R` columns, so the caller recomputes with [`inner_sparse_dyn`].
fn inner_sparse_fixed<const R: usize, const K: usize>(
    factors: &[Matrix],
    x: &SparseTensor,
) -> Option<f64> {
    let factors = <&[Matrix; K]>::try_from(factors).ok()?;
    let mut total = 0.0;
    for (idx, v) in x.iter() {
        let idx = <&[u32; K]>::try_from(idx).ok()?;
        let rows = std::array::from_fn(|k| factors[k].row(idx[k] as usize));
        total += lane_products::<R, K>(v, rows)?.iter().sum::<f64>();
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::SparseTensorBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_kruskal(seed: u64) -> KruskalTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        KruskalTensor::new(vec![
            Matrix::random(3, 2, &mut rng),
            Matrix::random(4, 2, &mut rng),
            Matrix::random(2, 2, &mut rng),
        ])
        .unwrap()
    }

    #[test]
    fn constructor_validates() {
        assert!(KruskalTensor::new(vec![]).is_err());
        let bad = vec![Matrix::zeros(2, 2), Matrix::zeros(2, 3)];
        assert!(KruskalTensor::new(bad).is_err());
        let k = small_kruskal(1);
        assert_eq!(k.order(), 3);
        assert_eq!(k.rank(), 2);
        assert_eq!(k.shape(), vec![3, 4, 2]);
    }

    #[test]
    fn norm_matches_dense_reconstruction() {
        let k = small_kruskal(2);
        let dense = k.to_dense().unwrap();
        assert!((k.norm_sq() - dense.norm_sq()).abs() < 1e-10);
    }

    #[test]
    fn inner_matches_dense() {
        let a = small_kruskal(3);
        let b = small_kruskal(4);
        let da = a.to_dense().unwrap();
        let db = b.to_dense().unwrap();
        let direct: f64 = da
            .as_slice()
            .iter()
            .zip(db.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        assert!((a.inner(&b).unwrap() - direct).abs() < 1e-10);
        // Inner with self equals the squared norm.
        assert!((a.inner(&a).unwrap() - a.norm_sq()).abs() < 1e-10);
    }

    #[test]
    fn inner_sparse_matches_dense() {
        let k = small_kruskal(5);
        let mut b = SparseTensorBuilder::new(vec![3, 4, 2]);
        b.push(&[0, 0, 0], 1.0).unwrap();
        b.push(&[2, 3, 1], -2.0).unwrap();
        b.push(&[1, 2, 0], 0.5).unwrap();
        let x = b.build().unwrap();
        let dk = k.to_dense().unwrap();
        let mut direct = 0.0;
        for (idx, v) in x.iter() {
            let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
            direct += v * dk.get(&idx);
        }
        assert!((k.inner_sparse(&x).unwrap() - direct).abs() < 1e-10);
    }

    #[test]
    fn inner_sparse_fixed_lanes_match_the_dynamic_body_bitwise() {
        // Every rank of the dispatch set, its neighbours, and plain small
        // ranks, at orders 1–5 (order 5 has no fixed body either).
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for order in 1..=5usize {
            let shape: Vec<usize> = (0..order).map(|k| 3 + k).collect();
            let mut b = SparseTensorBuilder::new(shape.clone());
            for _ in 0..40 {
                let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
                b.push(&idx, rng.gen_range(-2.0..2.0)).unwrap();
            }
            let x = b.build().unwrap();
            for rank in (1..=24).chain([32, 40]) {
                // One extra row per factor: the grown-snapshot case.
                let factors: Vec<Matrix> = shape
                    .iter()
                    .map(|&s| Matrix::random(s + 1, rank, &mut rng))
                    .collect();
                let dynamic = inner_sparse_dyn(&factors, &x);
                let k = KruskalTensor::new(factors).unwrap();
                assert_eq!(
                    k.inner_sparse(&x).unwrap().to_bits(),
                    dynamic.to_bits(),
                    "order {order} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn residual_matches_dense_difference() {
        let k = small_kruskal(6);
        let mut b = SparseTensorBuilder::new(vec![3, 4, 2]);
        b.push(&[1, 1, 1], 2.0).unwrap();
        b.push(&[0, 3, 0], -1.0).unwrap();
        let x = b.build().unwrap();
        let dx = crate::dense::DenseTensor::from_sparse(&x).unwrap();
        let dk = k.to_dense().unwrap();
        let direct = dx.sub(&dk).unwrap().norm_sq();
        assert!((k.residual_norm_sq(&x).unwrap() - direct).abs() < 1e-10);
    }

    #[test]
    fn fit_is_one_for_exact_representation() {
        // Build X as the densification of a rank-1 Kruskal, then check fit≈1.
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.5]]);
        let k = KruskalTensor::new(vec![a, b]).unwrap();
        let dense = k.to_dense().unwrap();
        let mut builder = SparseTensorBuilder::new(vec![2, 2]);
        for (idx, v) in dense.iter_all() {
            if v != 0.0 {
                builder.push(&idx, v).unwrap();
            }
        }
        let x = builder.build().unwrap();
        assert!((k.fit(&x).unwrap() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn fit_rejects_zero_tensor() {
        let k = small_kruskal(7);
        let x = SparseTensor::empty(vec![3, 4, 2]).unwrap();
        assert!(k.fit(&x).is_err());
    }

    #[test]
    fn inner_sparse_validates_shapes() {
        let k = small_kruskal(8);
        let x = SparseTensor::empty(vec![3, 4]).unwrap();
        assert!(k.inner_sparse(&x).is_err());
        let too_big = SparseTensor::empty(vec![10, 4, 2]).unwrap();
        assert!(k.inner_sparse(&too_big).is_err());
    }

    #[test]
    fn oversized_factors_accept_smaller_tensor() {
        // Factors represent the grown snapshot; a tensor over a sub-box must
        // still be accepted (rows ≥ shape).
        let k = small_kruskal(9); // shape [3,4,2]
        let mut b = SparseTensorBuilder::new(vec![2, 2, 2]);
        b.push(&[1, 1, 1], 1.0).unwrap();
        let x = b.build().unwrap();
        assert!(k.inner_sparse(&x).is_ok());
    }

    #[test]
    fn normalize_columns_preserves_tensor_up_to_weights() {
        let mut k = small_kruskal(11);
        let before = k.to_dense().unwrap();
        let weights = k.normalize_columns();
        assert_eq!(weights.len(), k.rank());
        // All columns unit norm now.
        for factor in k.factors() {
            for f in 0..k.rank() {
                let norm: f64 = (0..factor.rows())
                    .map(|i| factor.get(i, f).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!((norm - 1.0).abs() < 1e-12, "column norm {norm}");
            }
        }
        // Reconstruct with weights re-applied: scale one factor's columns.
        let mut factors = k.into_factors();
        for f in 0..weights.len() {
            for i in 0..factors[0].rows() {
                let v = factors[0].get(i, f) * weights[f];
                factors[0].set(i, f, v);
            }
        }
        let rebuilt = KruskalTensor::new(factors).unwrap().to_dense().unwrap();
        let diff: f64 = before
            .as_slice()
            .iter()
            .zip(rebuilt.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-10, "max diff {diff}");
    }

    #[test]
    fn normalize_columns_handles_zero_column() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0]]);
        let b = Matrix::from_rows(&[&[3.0, 0.0]]);
        let mut k = KruskalTensor::new(vec![a, b]).unwrap();
        let weights = k.normalize_columns();
        assert!(weights[0] > 0.0);
        assert_eq!(weights[1], 0.0);
        // The zero column stays zero (no NaNs).
        assert!(k
            .factors()
            .iter()
            .all(|f| f.as_slice().iter().all(|v| v.is_finite())));
    }

    #[test]
    fn into_factors_round_trip() {
        let k = small_kruskal(10);
        let shape = k.shape();
        let factors = k.into_factors();
        let k2 = KruskalTensor::new(factors).unwrap();
        assert_eq!(k2.shape(), shape);
    }
}
