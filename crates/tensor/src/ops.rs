//! Multi-matrix operators used by CP decomposition.
//!
//! Implements the paper's shorthand operators (Table II):
//! `(A_k)^{⊙ k≠n}` — Khatri-Rao product over all factors except mode `n`
//! (reverse mode order), and `(A_k)^{⊛ k≠n}` — the matching Hadamard product
//! of `R x R` matrices.

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;
use std::borrow::Borrow;

/// Khatri-Rao (column-wise Kronecker) product `a ⊙ b`.
///
/// For `a: I x R` and `b: J x R`, the result is `IJ x R` with
/// `(a ⊙ b)[i*J + j, r] = a[i, r] * b[j, r]`.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the column counts differ.
pub fn khatri_rao(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "khatri_rao",
            left: vec![a.rows(), a.cols()],
            right: vec![b.rows(), b.cols()],
        });
    }
    let r = a.cols();
    let mut out = Matrix::zeros(a.rows() * b.rows(), r);
    for i in 0..a.rows() {
        let arow = a.row(i);
        for j in 0..b.rows() {
            let brow = b.row(j);
            let orow = out.row_mut(i * b.rows() + j);
            for c in 0..r {
                orow[c] = arow[c] * brow[c];
            }
        }
    }
    Ok(out)
}

/// Khatri-Rao product of all factors except `skip_mode`, in **reverse** mode
/// order: `A_N ⊙ … ⊙ A_{n+1} ⊙ A_{n-1} ⊙ … ⊙ A_1` (the `(A_k)^{⊙ k≠n}` of
/// Table II, matching the mode-`n` unfolding convention of Kolda & Bader).
///
/// Only used by small/oracle code paths — production MTTKRP never
/// materialises this product.
pub fn khatri_rao_skip(factors: &[Matrix], skip_mode: usize) -> Result<Matrix> {
    if skip_mode >= factors.len() {
        return Err(TensorError::InvalidMode {
            mode: skip_mode,
            order: factors.len(),
        });
    }
    let mut acc: Option<Matrix> = None;
    for (k, f) in factors.iter().enumerate().rev() {
        if k == skip_mode {
            continue;
        }
        acc = Some(match acc {
            None => f.clone(),
            Some(a) => khatri_rao(&a, f)?,
        });
    }
    acc.ok_or(TensorError::InvalidArgument(
        "khatri_rao_skip needs at least two factors".into(),
    ))
}

/// Hadamard product of a sequence of equally shaped matrices.
///
/// # Errors
/// Returns an error if the iterator is empty or shapes differ.
pub fn hadamard_all<'a>(mats: impl IntoIterator<Item = &'a Matrix>) -> Result<Matrix> {
    let mut iter = mats.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| TensorError::InvalidArgument("hadamard_all of empty sequence".into()))?;
    let mut acc = first.clone();
    for m in iter {
        acc.hadamard_assign(m)?;
    }
    Ok(acc)
}

/// Hadamard product of all matrices except index `skip` — the `(M_k)^{⊛ k≠n}`
/// operator applied to cached Gram products in the Eq. 5 denominators.
pub fn hadamard_skip(mats: &[Matrix], skip: usize) -> Result<Matrix> {
    if skip >= mats.len() {
        return Err(TensorError::InvalidMode {
            mode: skip,
            order: mats.len(),
        });
    }
    hadamard_all(
        mats.iter()
            .enumerate()
            .filter(|(k, _)| *k != skip)
            .map(|(_, m)| m),
    )
}

/// Grand sum of the Hadamard product of a list of `R x R` matrices:
/// `1ᵀ (M_1 ⊛ … ⊛ M_K) 1`.
///
/// This is the scalar kernel behind every norm/inner-product identity in
/// Sec. IV-B4 — it never materialises the product.
pub fn grand_sum_hadamard<M: Borrow<Matrix>>(mats: &[M]) -> Result<f64> {
    let first = mats
        .first()
        .ok_or_else(|| TensorError::InvalidArgument("grand_sum_hadamard of empty list".into()))?;
    let (rows, cols) = first.borrow().shape();
    for m in mats {
        let m = m.borrow();
        if m.shape() != (rows, cols) {
            return Err(TensorError::ShapeMismatch {
                op: "grand_sum_hadamard",
                left: vec![rows, cols],
                right: vec![m.rows(), m.cols()],
            });
        }
    }
    let n = rows * cols;
    let mut total = 0.0;
    for idx in 0..n {
        let mut prod = 1.0;
        for m in mats {
            prod *= m.borrow().as_slice()[idx];
        }
        total += prod;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn khatri_rao_small_example() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 10.0]]);
        let kr = khatri_rao(&a, &b).unwrap();
        assert_eq!(kr.shape(), (6, 2));
        // Row (i=1, j=2) => index 1*3+2 = 5: [3*9, 4*10].
        assert_eq!(kr.row(5), &[27.0, 40.0]);
        assert_eq!(kr.row(0), &[5.0, 12.0]);
    }

    #[test]
    fn khatri_rao_rejects_col_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(khatri_rao(&a, &b).is_err());
    }

    #[test]
    fn khatri_rao_skip_order_convention() {
        // Three factors; skipping mode 0 must produce A3 ⊙ A2.
        let a1 = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let a2 = Matrix::from_rows(&[&[3.0], &[5.0]]);
        let a3 = Matrix::from_rows(&[&[7.0], &[11.0]]);
        let got = khatri_rao_skip(&[a1, a2.clone(), a3.clone()], 0).unwrap();
        let expected = khatri_rao(&a3, &a2).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn khatri_rao_skip_middle_mode() {
        let a1 = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.5]]);
        let a2 = Matrix::from_rows(&[&[3.0, 2.0]]);
        let a3 = Matrix::from_rows(&[&[7.0, 4.0], &[11.0, 9.0]]);
        let got = khatri_rao_skip(&[a1.clone(), a2, a3.clone()], 1).unwrap();
        let expected = khatri_rao(&a3, &a1).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn khatri_rao_skip_invalid_mode() {
        let a = Matrix::zeros(2, 2);
        assert!(khatri_rao_skip(&[a.clone(), a], 5).is_err());
    }

    #[test]
    fn hadamard_all_multiplies_everything() {
        let a = Matrix::from_rows(&[&[2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[4.0, 5.0]]);
        let c = Matrix::from_rows(&[&[0.5, 2.0]]);
        let h = hadamard_all([&a, &b, &c]).unwrap();
        assert_eq!(h, Matrix::from_rows(&[&[4.0, 30.0]]));
    }

    #[test]
    fn hadamard_all_empty_errors() {
        let empty: Vec<&Matrix> = vec![];
        assert!(hadamard_all(empty).is_err());
    }

    #[test]
    fn hadamard_skip_excludes_only_requested() {
        let mats = vec![
            Matrix::from_rows(&[&[2.0]]),
            Matrix::from_rows(&[&[100.0]]),
            Matrix::from_rows(&[&[3.0]]),
        ];
        let h = hadamard_skip(&mats, 1).unwrap();
        assert_eq!(h.get(0, 0), 6.0);
    }

    #[test]
    fn grand_sum_hadamard_matches_materialised() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let direct: f64 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        let lazy = grand_sum_hadamard(&[&a, &b]).unwrap();
        assert!((direct - lazy).abs() < 1e-12);
    }

    #[test]
    fn grand_sum_hadamard_single_matrix() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(grand_sum_hadamard(&[&a]).unwrap(), -1.0);
    }

    #[test]
    fn kruskal_inner_product_identity() {
        // ⟨⟦A,B⟧, ⟦C,D⟧⟩ == grand_sum((AᵀC) ⊛ (BᵀD)) for matrix (order-2)
        // Kruskal operators: verify against an explicit reconstruction.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, 1.5]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]);
        let c = Matrix::from_rows(&[&[0.3, 1.0], &[2.0, 0.1]]);
        let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5], &[2.0, 1.0]]);
        // Explicit: X = A Bᵀ? No — Kruskal ⟦A,B⟧ = A Bᵀ for order 2.
        let bt = Matrix::from_fn(2, 3, |i, j| b.get(j, i));
        let dt = Matrix::from_fn(2, 3, |i, j| d.get(j, i));
        let x = a.matmul(&bt).unwrap();
        let y = c.matmul(&dt).unwrap();
        let direct: f64 = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(p, q)| p * q)
            .sum();
        let ac = a.cross_gram(&c).unwrap();
        let bd = b.cross_gram(&d).unwrap();
        let lazy = grand_sum_hadamard(&[&ac, &bd]).unwrap();
        assert!((direct - lazy).abs() < 1e-12);
    }
}
