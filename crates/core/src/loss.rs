//! DTD loss assembly — Sec. IV-B4's "maintain and reuse" computation.
//!
//! The Eq. 4 objective splits into a previous-snapshot surrogate term and a
//! per-subtensor residual term.  Everything reduces to `R x R` Gram products
//! that the ALS iteration already maintains, plus one inner product that
//! reuses the final mode's MTTKRP — so the loss costs `O(N R²)` instead of a
//! second `O(nnz·N·R)` pass.
//!
//! One notational correction relative to the paper: the expansion of
//! `L^(0,0,0)` on page 7 writes `‖ÃᵀÃ ⊛ B̃ᵀB̃ ⊛ C̃ᵀC̃‖²_F` where the Kruskal
//! inner-product identity actually requires the **grand sum** of the
//! Hadamard product (`⟨⟦A⟧,⟦B⟧⟩ = 1ᵀ(⊛_k A_kᵀB_k)1`, Kolda & Bader 2009);
//! we implement the correct identity, which the oracle tests confirm.

use dismastd_tensor::matrix::{Matrix, RowSet};
use dismastd_tensor::ops::grand_sum_hadamard;
use dismastd_tensor::{DenseTensor, KruskalTensor, Result, SparseTensor, TensorError};

/// The `R x R` intermediates maintained per mode during a DTD sweep, and
/// the Eq. 5 operands derived from them.  Everything is allocated once per
/// run and refreshed in place.
#[derive(Debug, Clone)]
pub struct GramState {
    /// `G_n^0 = A_n^(0)ᵀ A_n^(0)` (old-row blocks).
    pub gram0: Vec<Matrix>,
    /// `G_n^1 = A_n^(1)ᵀ A_n^(1)` (new-row blocks).
    pub gram1: Vec<Matrix>,
    /// `G̃_n = Ã_nᵀ A_n^(0)` (previous snapshot × current old block).
    pub cross: Vec<Matrix>,
    /// `G_n^0 + G_n^1`, kept in step by [`GramState::retotal`].
    total: Vec<Matrix>,
    /// Eq. 5 old-row denominator of the mode last passed to
    /// [`GramState::prepare_mode`].
    pub(crate) d0: Matrix,
    /// Eq. 5 new-row denominator `⊛_{k≠n}(G_k^0 + G_k^1)`.
    pub(crate) d1: Matrix,
    /// `⊛_{k≠n} G̃_k` of the Eq. 5 old-row numerator.
    pub(crate) cross_had: Matrix,
}

impl GramState {
    /// All-zero state for `order` modes of rank `rank`: what a worker
    /// all-reduces its partials into.
    pub(crate) fn zeros(order: usize, rank: usize) -> Self {
        let square = Matrix::zeros(rank, rank);
        GramState {
            gram0: vec![square.clone(); order],
            gram1: vec![square.clone(); order],
            cross: vec![square.clone(); order],
            total: vec![square.clone(); order],
            d0: square.clone(),
            d1: square.clone(),
            cross_had: square,
        }
    }

    /// Initialises the state from the stacked factors and the previous
    /// snapshot's factors, whose row counts split each mode into its
    /// old-row and new-row blocks.
    pub fn compute(factors: &[Matrix], old_factors: &[Matrix]) -> Result<Self> {
        let rank = factors.first().map_or(0, Matrix::cols);
        let mut state = GramState::zeros(factors.len(), rank);
        for (n, (f, old)) in factors.iter().zip(old_factors).enumerate() {
            state.refresh(n, f, old)?;
        }
        Ok(state)
    }

    /// Rebuilds mode `n`'s products from its just-updated factor
    /// (Sec. IV-B3): [`mode_grams`] over the old-row and new-row blocks.
    pub(crate) fn refresh(&mut self, n: usize, factor: &Matrix, old: &Matrix) -> Result<()> {
        let blocks = [
            RowSet::Range(0..old.rows()),
            RowSet::Range(old.rows()..factor.rows()),
        ];
        let targets = [&mut self.gram0[n], &mut self.gram1[n], &mut self.cross[n]];
        mode_grams(factor, old, &blocks, targets)?;
        self.retotal(n);
        Ok(())
    }

    /// Re-sums `G_n^0 + G_n^1` after either changed.
    pub(crate) fn retotal(&mut self, n: usize) {
        let (g0, g1) = (self.gram0[n].as_slice(), self.gram1[n].as_slice());
        for (t, (a, b)) in self.total[n]
            .as_mut_slice()
            .iter_mut()
            .zip(g0.iter().zip(g1))
        {
            *t = a + b;
        }
    }

    /// Fills the Eq. 5 operands of mode `n`: `d1 = ⊛_{k≠n}(G_k^0 + G_k^1)`,
    /// `d0 = d1 − (1 − μ)·⊛_{k≠n} G_k^0` and `cross_had = ⊛_{k≠n} G̃_k`.
    pub(crate) fn prepare_mode(&mut self, n: usize, mu: f64) -> Result<()> {
        hadamard_skip_into(&mut self.d1, &self.total, n)?;
        hadamard_skip_into(&mut self.d0, &self.gram0, n)?;
        for (d0, d1) in self.d0.as_mut_slice().iter_mut().zip(self.d1.as_slice()) {
            *d0 = d1 - *d0 * (1.0 - mu);
        }
        hadamard_skip_into(&mut self.cross_had, &self.cross, n)
    }
}

/// One mode's `(G⁰, G¹, G̃)` summed over its old-row and new-row `blocks`
/// — all of them in the serial solver, a worker's owned share before the
/// all-reduce — each product in its own pass over the rows it covers.
pub(crate) fn mode_grams(
    factor: &Matrix,
    old: &Matrix,
    blocks: &[RowSet<'_>; 2],
    [gram0, gram1, cross]: [&mut Matrix; 3],
) -> Result<()> {
    factor.gram_rows(None, &blocks[0], gram0)?;
    factor.gram_rows(None, &blocks[1], gram1)?;
    if old.rows() == 0 {
        // A zero-row `Ã_n` may come without columns (a 0 x 0 matrix).
        cross.fill_zero();
        return Ok(());
    }
    old.gram_rows(Some(factor), &blocks[0], cross)
}

/// `hadamard_skip` into a kept matrix: the same products in the same order.
fn hadamard_skip_into(out: &mut Matrix, mats: &[Matrix], skip: usize) -> Result<()> {
    let mut others = mats.iter().enumerate().filter(|(k, _)| *k != skip);
    let (_, first) = others
        .next()
        .ok_or_else(|| TensorError::InvalidArgument("hadamard_all of empty sequence".into()))?;
    out.as_mut_slice().copy_from_slice(first.as_slice());
    others.try_for_each(|(_, m)| out.hadamard_assign(m))
}

/// Inputs for one loss evaluation, all `O(R²)` or scalars.
#[derive(Debug, Clone, Copy)]
pub struct LossParts {
    /// Forgetting factor `μ`.
    pub mu: f64,
    /// Constant `1ᵀ(⊛_k Ã_kᵀÃ_k)1 = ‖⟦Ã⟧‖²` — precomputed once per snapshot.
    pub old_norm_sq: f64,
    /// `‖X \ X̃‖²` — precomputed once per snapshot.
    pub complement_norm_sq: f64,
    /// `⟨X \ X̃, ⟦A⟧⟩` — reused from the final mode's MTTKRP (Eq. 7).
    pub inner: f64,
}

/// Assembles the Eq. 4 loss from maintained intermediates.
///
/// * `L^(0…0) = μ(‖⟦Ã⟧‖² + 1ᵀ(⊛G⁰)1 − 2·1ᵀ(⊛G̃)1)`
/// * `Σ_{s≠0}‖Y^s‖² = 1ᵀ(⊛(G⁰+G¹))1 − 1ᵀ(⊛G⁰)1` (closed form over the
///   `2^N − 1` non-zero block signatures)
/// * `L₀ = ‖X\X̃‖² + Σ_{s≠0}‖Y^s‖² − 2⟨X\X̃, ⟦A⟧⟩`
///
/// # Errors
/// Propagates shape mismatches from the Gram products.
pub fn dtd_loss(state: &GramState, parts: &LossParts) -> Result<f64> {
    let sum_g0 = grand_sum_hadamard(&state.gram0)?; // 1ᵀ(⊛ G⁰)1
    let sum_cross = grand_sum_hadamard(&state.cross)?; // 1ᵀ(⊛ G̃)1
    let sum_total = grand_sum_hadamard(&state.total)?; // 1ᵀ(⊛ (G⁰+G¹))1

    let l_old = parts.mu * (parts.old_norm_sq + sum_g0 - 2.0 * sum_cross);
    let y_norm_outside = sum_total - sum_g0;
    let l0 = parts.complement_norm_sq + y_norm_outside - 2.0 * parts.inner;
    Ok(l_old + l0)
}

/// Brute-force oracle for [`dtd_loss`] (testing only).
///
/// Evaluates Eq. 4 literally: the surrogate term through exact Kruskal
/// algebra and the complement term by dense reconstruction over every cell
/// outside the old bounding box.  Cost is `Π_k I_k · R` — tiny tensors only.
///
/// # Errors
/// Propagates shape errors from reconstruction.
pub fn naive_dtd_loss(
    complement: &SparseTensor,
    old_factors: &[Matrix],
    factors: &[Matrix],
    mu: f64,
) -> Result<f64> {
    let old_rows: Vec<usize> = old_factors.iter().map(Matrix::rows).collect();
    // Surrogate term μ‖⟦Ã⟧ − ⟦A^(0)⟧‖².
    let l_old = if old_rows.iter().all(|&r| r > 0) {
        let a0: Vec<Matrix> = factors
            .iter()
            .zip(&old_rows)
            .map(|(f, &r)| f.row_block(0, r))
            .collect::<Result<_>>()?;
        let old_k = KruskalTensor::new(old_factors.to_vec())?;
        let a0_k = KruskalTensor::new(a0)?;
        mu * (old_k.norm_sq() + a0_k.norm_sq() - 2.0 * old_k.inner(&a0_k)?)
    } else {
        0.0
    };
    // Complement term: dense residual over cells outside the old box.
    let k = KruskalTensor::new(factors.to_vec())?;
    let y = k.to_dense()?;
    let x = DenseTensor::from_sparse(complement)?;
    let mut l0 = 0.0;
    for (idx, yv) in y.iter_all() {
        if idx.iter().zip(&old_rows).all(|(i, old)| i < old) {
            continue; // inside the old box: covered by the surrogate term
        }
        let d = x.get(&idx) - yv;
        l0 += d * d;
    }
    Ok(l_old + l0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismastd_tensor::mttkrp::{inner_from_mttkrp, mttkrp};
    use dismastd_tensor::SparseTensorBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds a random DTD-shaped problem: old factors, stacked current
    /// factors, and a complement tensor living outside the old box.
    fn setup(seed: u64) -> (SparseTensor, Vec<Matrix>, Vec<Matrix>, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let old_shape = [2usize, 3, 2];
        let new_shape = [4usize, 4, 3];
        let old_factors: Vec<Matrix> = old_shape
            .iter()
            .map(|&s| Matrix::random(s, 2, &mut rng))
            .collect();
        let factors: Vec<Matrix> = new_shape
            .iter()
            .map(|&s| Matrix::random(s, 2, &mut rng))
            .collect();
        let mut b = SparseTensorBuilder::new(new_shape.to_vec());
        // Entries strictly outside the old box (at least one coord beyond).
        b.push(&[3, 0, 0], 1.0).unwrap();
        b.push(&[0, 3, 1], -2.0).unwrap();
        b.push(&[1, 2, 2], 0.7).unwrap();
        b.push(&[3, 3, 2], 1.2).unwrap();
        b.push(&[2, 1, 0], -0.4).unwrap();
        let complement = b.build().unwrap();
        (complement, old_factors, factors, old_shape.to_vec())
    }

    fn assemble_parts(
        complement: &SparseTensor,
        old_factors: &[Matrix],
        factors: &[Matrix],
        old_rows: &[usize],
        mu: f64,
    ) -> (GramState, LossParts) {
        let state = GramState::compute(factors, old_factors).unwrap();
        // True cross Grams Ã ᵀ A^(0).
        for (k, of) in old_factors.iter().enumerate() {
            let a0 = factors[k].row_block(0, old_rows[k]).unwrap();
            assert_eq!(state.cross[k], of.cross_gram(&a0).unwrap());
        }
        let old_k = KruskalTensor::new(old_factors.to_vec()).unwrap();
        let last = factors.len() - 1;
        let hat = mttkrp(complement, factors, last).unwrap();
        let inner = inner_from_mttkrp(&hat, &factors[last]).unwrap();
        let parts = LossParts {
            mu,
            old_norm_sq: old_k.norm_sq(),
            complement_norm_sq: complement.norm_sq(),
            inner,
        };
        (state, parts)
    }

    #[test]
    fn reuse_loss_matches_naive_oracle() {
        for seed in [1u64, 2, 3, 7, 13] {
            let (complement, old_factors, factors, old_rows) = setup(seed);
            let mu = 0.8;
            let (state, parts) = assemble_parts(&complement, &old_factors, &factors, &old_rows, mu);
            let fast = dtd_loss(&state, &parts).unwrap();
            let naive = naive_dtd_loss(&complement, &old_factors, &factors, mu).unwrap();
            assert!(
                (fast - naive).abs() < 1e-9 * (1.0 + naive.abs()),
                "seed {seed}: {fast} vs {naive}"
            );
        }
    }

    #[test]
    fn mu_zero_like_limit_reduces_to_complement_loss() {
        // With μ → 0 only the complement residual remains.
        let (complement, old_factors, factors, old_rows) = setup(5);
        let (state, mut parts) =
            assemble_parts(&complement, &old_factors, &factors, &old_rows, 1e-12);
        parts.mu = 0.0;
        let fast = dtd_loss(&state, &parts).unwrap();
        let naive = naive_dtd_loss(&complement, &old_factors, &factors, 0.0).unwrap();
        assert!((fast - naive).abs() < 1e-9);
    }

    #[test]
    fn cold_start_loss_equals_static_loss() {
        // Zero-row old factors (the DMS-MG / static path): the loss must
        // equal ‖X − ⟦A⟧‖² over the whole tensor.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let shape = [3usize, 3, 3];
        let factors: Vec<Matrix> = shape
            .iter()
            .map(|&s| Matrix::random(s, 2, &mut rng))
            .collect();
        let old_factors: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(0, 2)).collect();
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        b.push(&[0, 0, 0], 2.0).unwrap();
        b.push(&[2, 1, 2], -1.0).unwrap();
        let x = b.build().unwrap();

        let old_rows = vec![0usize; 3];
        let (state, parts) = assemble_parts(&x, &old_factors, &factors, &old_rows, 0.8);
        let fast = dtd_loss(&state, &parts).unwrap();
        let k = KruskalTensor::new(factors.clone()).unwrap();
        let static_loss = k.residual_norm_sq(&x).unwrap();
        assert!((fast - static_loss).abs() < 1e-9, "{fast} vs {static_loss}");
    }

    #[test]
    fn gram_state_totals() {
        let (_, old_factors, factors, _) = setup(11);
        let state = GramState::compute(&factors, &old_factors).unwrap();
        for k in 0..3 {
            let t = &state.total[k];
            let full = factors[k].gram();
            assert!(t.max_abs_diff(&full).unwrap() < 1e-12, "G0+G1 == full gram");
        }
    }

    #[test]
    fn loss_is_nonnegative_for_valid_inputs() {
        for seed in 20..30u64 {
            let (complement, old_factors, factors, old_rows) = setup(seed);
            let (state, parts) =
                assemble_parts(&complement, &old_factors, &factors, &old_rows, 0.8);
            let l = dtd_loss(&state, &parts).unwrap();
            assert!(l > -1e-9, "seed {seed}: loss {l}");
        }
    }
}
