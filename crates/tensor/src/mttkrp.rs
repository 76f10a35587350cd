//! Matricized Tensor Times Khatri-Rao Product (MTTKRP).
//!
//! The bottleneck operator of CP-ALS (Sec. III-B / IV-B1):
//! `Â = X_(n) · (A_k)^{⊙ k≠n}`, computed element-wise over the nonzeros —
//! `Â[i_n, :] += x · ⊛_{k≠n} A_k[i_k, :]` — so the cost is
//! `O(nnz · N · R)` and zero entries never contribute (the paper's first
//! MTTKRP property).  Row indices are *global*, which lets distributed
//! workers run this kernel on their local nonzero sets and reduce partial
//! rows to the row owners afterwards.

use crate::coo::SparseTensor;
use crate::error::{Result, TensorError};
use crate::matrix::{axpy, Matrix};

/// Validates `factors` against `tensor` and returns the common rank `R`.
fn check_factors(tensor: &SparseTensor, factors: &[Matrix], mode: usize) -> Result<usize> {
    if factors.len() != tensor.order() {
        return Err(TensorError::shape_mismatch(
            "mttkrp factors",
            &[tensor.order()],
            &[factors.len()],
        ));
    }
    if mode >= tensor.order() {
        return Err(TensorError::InvalidMode {
            mode,
            order: tensor.order(),
        });
    }
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        if f.cols() != r {
            return Err(TensorError::shape_mismatch(
                "mttkrp factor ranks",
                &[r],
                &[f.cols()],
            ));
        }
        if f.rows() < tensor.shape()[k] {
            return Err(TensorError::shape_mismatch(
                "mttkrp factor rows",
                &[tensor.shape()[k]],
                &[f.rows()],
            ));
        }
    }
    Ok(r)
}

/// Computes the mode-`n` MTTKRP `Â = X_(n) (A_k)^{⊙ k≠n}`.
///
/// The result has `factors[mode].rows()` rows (global row space), so callers
/// can split it into the `Â^(0)` / `Â^(1)` blocks of Eq. 3 by row range.
///
/// ```
/// use dismastd_tensor::{Matrix, SparseTensorBuilder};
/// use dismastd_tensor::mttkrp::mttkrp;
/// let mut b = SparseTensorBuilder::new(vec![2, 2, 2]);
/// b.push(&[0, 1, 1], 2.0).unwrap();
/// let x = b.build().unwrap();
/// let ones = |rows| Matrix::from_fn(rows, 3, |_, _| 1.0);
/// let factors = vec![ones(2), ones(2), ones(2)];
/// let hat = mttkrp(&x, &factors, 0).unwrap();
/// // Row 0 receives 2.0 * B[1,:] ⊛ C[1,:] = [2, 2, 2]; row 1 nothing.
/// assert_eq!(hat.row(0), &[2.0, 2.0, 2.0]);
/// assert_eq!(hat.row(1), &[0.0, 0.0, 0.0]);
/// ```
///
/// # Errors
/// Returns a shape error if `factors` disagree with the tensor or each other.
pub fn mttkrp(tensor: &SparseTensor, factors: &[Matrix], mode: usize) -> Result<Matrix> {
    let r = check_factors(tensor, factors, mode)?;
    let mut out = Matrix::zeros(factors[mode].rows(), r);
    mttkrp_into(tensor, factors, mode, &mut out)?;
    Ok(out)
}

/// Accumulates the mode-`n` MTTKRP of `tensor` into `out` (`out +=`).
///
/// Distributed workers call this with their local nonzero set and a
/// locally-zeroed buffer, then reduce the partial rows (Sec. IV-B1).
///
/// # Errors
/// Returns a shape error if `out` is not `factors[mode].rows() x R`.
pub fn mttkrp_into(
    tensor: &SparseTensor,
    factors: &[Matrix],
    mode: usize,
    out: &mut Matrix,
) -> Result<()> {
    let r = check_factors(tensor, factors, mode)?;
    if out.shape() != (factors[mode].rows(), r) {
        return Err(TensorError::shape_mismatch(
            "mttkrp_into output",
            &[factors[mode].rows(), r],
            &[out.rows(), out.cols()],
        ));
    }
    let _span = dismastd_obs::span_with("kernel/mttkrp_naive", mode as u64);
    let order = tensor.order();
    let mut prod = vec![0.0f64; r];
    for (idx, v) in tensor.iter() {
        // prod = v * ⊛_{k≠mode} A_k[i_k, :]
        prod.iter_mut().for_each(|p| *p = v);
        for k in 0..order {
            if k == mode {
                continue;
            }
            let row = factors[k].row(idx[k] as usize);
            for (p, &a) in prod.iter_mut().zip(row) {
                *p *= a;
            }
        }
        axpy(1.0, &prod, out.row_mut(idx[mode] as usize));
    }
    Ok(())
}

/// Inner product `⟨X, ⟦A_1, …, A_N⟧⟩` computed from a *precomputed* MTTKRP:
/// `Σ_i Â[i,:] · A_n[i,:]` — the reuse identity of Sec. IV-B4 (Eq. 7).
///
/// `hat` must be the mode-`n` MTTKRP of `X` with these factors; `a_n` is the
/// mode-`n` factor.  No pass over the nonzeros happens here.
///
/// # Errors
/// Returns a shape mismatch if `hat` and `a_n` differ in shape.
pub fn inner_from_mttkrp(hat: &Matrix, a_n: &Matrix) -> Result<f64> {
    if hat.shape() != a_n.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "inner_from_mttkrp",
            left: vec![hat.rows(), hat.cols()],
            right: vec![a_n.rows(), a_n.cols()],
        });
    }
    Ok(hat
        .as_slice()
        .iter()
        .zip(a_n.as_slice())
        .map(|(h, a)| h * a)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::SparseTensorBuilder;
    use crate::dense::DenseTensor;
    use crate::ops::khatri_rao_skip;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_tensor(shape: &[usize], nnz: usize, rng: &mut impl Rng) -> SparseTensor {
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            b.push(&idx, rng.gen_range(-1.0..1.0)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_dense_oracle_third_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let shape = [4, 3, 5];
        let t = random_tensor(&shape, 20, &mut rng);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 2, &mut rng))
            .collect();
        for mode in 0..3 {
            let fast = mttkrp(&t, &factors, mode).unwrap();
            let dense = DenseTensor::from_sparse(&t).unwrap();
            let unfolded = dense.unfold(mode).unwrap();
            let kr = khatri_rao_skip(&factors, mode).unwrap();
            let oracle = unfolded.matmul(&kr).unwrap();
            assert!(
                fast.max_abs_diff(&oracle).unwrap() < 1e-10,
                "mode {mode} mismatch"
            );
        }
    }

    #[test]
    fn matches_dense_oracle_fourth_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let shape = [3, 2, 4, 2];
        let t = random_tensor(&shape, 15, &mut rng);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect();
        for mode in 0..4 {
            let fast = mttkrp(&t, &factors, mode).unwrap();
            let dense = DenseTensor::from_sparse(&t).unwrap();
            let oracle = dense
                .unfold(mode)
                .unwrap()
                .matmul(&khatri_rao_skip(&factors, mode).unwrap())
                .unwrap();
            assert!(fast.max_abs_diff(&oracle).unwrap() < 1e-10);
        }
    }

    #[test]
    fn empty_tensor_gives_zero_result() {
        let t = SparseTensor::empty(vec![3, 3, 3]).unwrap();
        let factors: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(3, 2)).collect();
        let out = mttkrp(&t, &factors, 0).unwrap();
        assert!(out.as_slice().iter().all(|&a| a == 0.0));
    }

    #[test]
    fn oversized_factors_use_global_rows() {
        // Factors may have more rows than the tensor shape (grown snapshot);
        // extra rows just never receive contributions for this tensor.
        let mut b = SparseTensorBuilder::new(vec![2, 2]);
        b.push(&[1, 1], 2.0).unwrap();
        let t = b.build().unwrap();
        let factors = vec![
            Matrix::random(4, 2, &mut ChaCha8Rng::seed_from_u64(1)),
            Matrix::random(5, 2, &mut ChaCha8Rng::seed_from_u64(2)),
        ];
        let out = mttkrp(&t, &factors, 0).unwrap();
        assert_eq!(out.rows(), 4);
        assert_eq!(out.row(0), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[0.0, 0.0]);
        let b_row = factors[1].row(1);
        assert_eq!(out.row(1), &[2.0 * b_row[0], 2.0 * b_row[1]]);
    }

    #[test]
    fn mttkrp_into_accumulates_partials() {
        // Splitting the nonzeros across "workers" and accumulating equals the
        // single-shot MTTKRP — the distributed reduction invariant.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let shape = [5, 4, 3];
        let t = random_tensor(&shape, 30, &mut rng);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 2, &mut rng))
            .collect();
        let full = mttkrp(&t, &factors, 1).unwrap();

        // Split entries into two halves by parity.
        let mut b1 = SparseTensorBuilder::new(shape.to_vec());
        let mut b2 = SparseTensorBuilder::new(shape.to_vec());
        for (e, (idx, v)) in t.iter().enumerate() {
            let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
            if e % 2 == 0 {
                b1.push(&idx, v).unwrap();
            } else {
                b2.push(&idx, v).unwrap();
            }
        }
        let t1 = b1.build().unwrap();
        let t2 = b2.build().unwrap();
        let mut acc = Matrix::zeros(4, 2);
        mttkrp_into(&t1, &factors, 1, &mut acc).unwrap();
        mttkrp_into(&t2, &factors, 1, &mut acc).unwrap();
        assert!(acc.max_abs_diff(&full).unwrap() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        let t = SparseTensor::empty(vec![3, 3]).unwrap();
        let good = vec![Matrix::zeros(3, 2), Matrix::zeros(3, 2)];
        assert!(mttkrp(&t, &good, 2).is_err()); // bad mode
        let short = vec![Matrix::zeros(2, 2), Matrix::zeros(3, 2)];
        assert!(mttkrp(&t, &short, 0).is_err()); // too few rows
        let ragged = vec![Matrix::zeros(3, 2), Matrix::zeros(3, 3)];
        assert!(mttkrp(&t, &ragged, 0).is_err()); // rank mismatch
        let wrong_count = vec![Matrix::zeros(3, 2)];
        assert!(mttkrp(&t, &wrong_count, 0).is_err());
    }

    #[test]
    fn inner_from_mttkrp_matches_direct() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let shape = [4, 3, 2];
        let t = random_tensor(&shape, 10, &mut rng);
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 3, &mut rng))
            .collect();
        // Direct: Σ_nnz x · Σ_f Π_k A_k[i_k, f].
        let mut direct = 0.0;
        for (idx, v) in t.iter() {
            for f in 0..3 {
                let mut p = v;
                for (k, &i) in idx.iter().enumerate() {
                    p *= factors[k].get(i as usize, f);
                }
                direct += p;
            }
        }
        for mode in 0..3 {
            let hat = mttkrp(&t, &factors, mode).unwrap();
            let got = inner_from_mttkrp(&hat, &factors[mode]).unwrap();
            assert!((got - direct).abs() < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn inner_from_mttkrp_shape_check() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(inner_from_mttkrp(&a, &b).is_err());
    }
}
