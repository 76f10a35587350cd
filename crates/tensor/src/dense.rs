//! Small dense tensors — the *oracle* representation.
//!
//! Production code never densifies; this type exists so tests can check the
//! sparse kernels (MTTKRP, Kruskal reconstruction, losses) against brute
//! force on tiny tensors.

use crate::coo::SparseTensor;
use crate::error::{Result, TensorError};
use crate::matrix::Matrix;

/// Dense `N`-th order tensor with row-major (last-mode-fastest) layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// All-zero tensor of the given shape.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyShape`] for an empty shape.
    pub fn zeros(shape: Vec<usize>) -> Result<Self> {
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        let len: usize = shape.iter().product();
        let strides = compute_strides(&shape);
        Ok(DenseTensor {
            shape,
            strides,
            data: vec![0.0; len],
        })
    }

    /// Densifies a sparse tensor (intended for small test tensors only).
    pub fn from_sparse(t: &SparseTensor) -> Result<Self> {
        let mut out = DenseTensor::zeros(t.shape().to_vec())?;
        for (idx, v) in t.iter() {
            let off: usize = idx
                .iter()
                .zip(&out.strides)
                .map(|(&i, s)| i as usize * s)
                .sum();
            out.data[off] += v;
        }
        Ok(out)
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Dimension sizes.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Flat backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Linear offset of an index tuple.
    fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        idx.iter().zip(&self.strides).map(|(i, s)| i * s).sum()
    }

    /// Entry accessor.
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.offset(idx)]
    }

    /// Entry mutator.
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Element-wise difference.
    ///
    /// # Errors
    /// Returns a shape mismatch when shapes differ.
    pub fn sub(&self, other: &DenseTensor) -> Result<DenseTensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "DenseTensor::sub",
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(DenseTensor {
            shape: self.shape.clone(),
            strides: self.strides.clone(),
            data,
        })
    }

    /// Mode-`n` unfolding `X_(n)` (Def. 2), with Kolda-Bader column ordering:
    /// column index `j = Σ_{k≠n} i_k · J_k`, `J_k = Π_{m<k, m≠n} I_m`.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidMode`] for a bad mode.
    pub fn unfold(&self, mode: usize) -> Result<Matrix> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let rows = self.shape[mode];
        let cols: usize = self
            .shape
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != mode)
            .map(|(_, &s)| s)
            .product();
        let mut out = Matrix::zeros(rows, cols);
        // Column strides J_k for the unfolding.
        let mut col_strides = vec![0usize; self.order()];
        let mut acc = 1usize;
        for k in 0..self.order() {
            if k == mode {
                continue;
            }
            col_strides[k] = acc;
            acc *= self.shape[k];
        }
        let mut idx = vec![0usize; self.order()];
        for (off, &v) in self.data.iter().enumerate() {
            unravel(off, &self.strides, &mut idx);
            let col: usize = idx
                .iter()
                .zip(&col_strides)
                .enumerate()
                .filter(|(k, _)| *k != mode)
                .map(|(_, (i, s))| i * s)
                .sum();
            out.set(idx[mode], col, v);
        }
        Ok(out)
    }

    /// Iterates `(index_tuple, value)` over every cell, including zeros.
    pub fn iter_all(&self) -> impl Iterator<Item = (Vec<usize>, f64)> + '_ {
        let strides = self.strides.clone();
        let order = self.order();
        self.data.iter().enumerate().map(move |(off, &v)| {
            let mut idx = vec![0usize; order];
            unravel(off, &strides, &mut idx);
            (idx, v)
        })
    }
}

fn compute_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for k in (0..shape.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * shape[k + 1];
    }
    strides
}

fn unravel(mut off: usize, strides: &[usize], out: &mut [usize]) {
    for (o, &s) in out.iter_mut().zip(strides) {
        *o = off / s;
        off %= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::SparseTensorBuilder;

    #[test]
    fn zeros_and_set_get() {
        let mut t = DenseTensor::zeros(vec![2, 3]).unwrap();
        t.set(&[1, 2], 5.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.norm_sq(), 25.0);
    }

    #[test]
    fn from_sparse_round_trip() {
        let mut b = SparseTensorBuilder::new(vec![2, 2, 2]);
        b.push(&[0, 1, 0], 3.0).unwrap();
        b.push(&[1, 1, 1], -2.0).unwrap();
        let sp = b.build().unwrap();
        let d = DenseTensor::from_sparse(&sp).unwrap();
        assert_eq!(d.get(&[0, 1, 0]), 3.0);
        assert_eq!(d.get(&[1, 1, 1]), -2.0);
        assert_eq!(d.get(&[0, 0, 0]), 0.0);
        assert_eq!(d.norm_sq(), sp.norm_sq());
    }

    #[test]
    fn unfold_shape_follows_definition() {
        // "If X is I x J x K then X_(1) is I x JK" (after Def. 2).
        let t = DenseTensor::zeros(vec![2, 3, 4]).unwrap();
        assert_eq!(t.unfold(0).unwrap().shape(), (2, 12));
        assert_eq!(t.unfold(1).unwrap().shape(), (3, 8));
        assert_eq!(t.unfold(2).unwrap().shape(), (4, 6));
        assert!(t.unfold(3).is_err());
    }

    #[test]
    fn unfold_places_fibers_correctly() {
        let mut t = DenseTensor::zeros(vec![2, 2, 2]).unwrap();
        // Fill with distinct values v = 100*i + 10*j + k.
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    t.set(&[i, j, k], (100 * i + 10 * j + k) as f64);
                }
            }
        }
        let u0 = t.unfold(0).unwrap();
        // Column of (j,k) in mode-0 unfolding is j + 2k? No: col strides are
        // J_j = 1, J_k = 2 per Kolda-Bader (earlier modes vary fastest):
        // col = j*1 + k*2.
        assert_eq!(u0.get(1, 0), 100.0); // (i=1, j=0, k=0)
        assert_eq!(u0.get(1, 1), 110.0); // j=1,k=0 -> col 1
        assert_eq!(u0.get(1, 2), 101.0); // j=0,k=1 -> col 2
        assert_eq!(u0.get(1, 3), 111.0);
    }

    #[test]
    fn unfold_norm_preserved() {
        let mut t = DenseTensor::zeros(vec![3, 2, 2]).unwrap();
        t.set(&[2, 1, 0], 2.0);
        t.set(&[0, 0, 1], -1.5);
        for mode in 0..3 {
            assert!((t.unfold(mode).unwrap().frob_norm_sq() - t.norm_sq()).abs() < 1e-12);
        }
    }

    #[test]
    fn sub_and_shape_check() {
        let mut a = DenseTensor::zeros(vec![2, 2]).unwrap();
        a.set(&[0, 0], 3.0);
        let b = DenseTensor::zeros(vec![2, 2]).unwrap();
        assert_eq!(a.sub(&b).unwrap().get(&[0, 0]), 3.0);
        let c = DenseTensor::zeros(vec![2, 3]).unwrap();
        assert!(a.sub(&c).is_err());
    }

    #[test]
    fn iter_all_covers_every_cell() {
        let t = DenseTensor::zeros(vec![2, 3]).unwrap();
        assert_eq!(t.iter_all().count(), 6);
        let idxs: Vec<Vec<usize>> = t.iter_all().map(|(i, _)| i).collect();
        assert!(idxs.contains(&vec![1, 2]));
        assert!(idxs.contains(&vec![0, 0]));
    }
}
