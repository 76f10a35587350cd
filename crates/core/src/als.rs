//! Static CP-ALS — the classic alternating-least-squares CP decomposition.
//!
//! The cold start of a streaming session (the first snapshot has no
//! previous factors) and, at world ≥ 2, the DMS-MG baseline, which
//! re-decomposes the full tensor from scratch at every snapshot.
//!
//! Both are [`decompose`] with an empty history: with zero-row previous
//! factors every row is a "new" row and the Eq. 5 `A^(1)` rule collapses
//! to the textbook normal equation `A_n ← Â_n (⊛_{k≠n} A_kᵀA_k)⁻¹`.

use crate::config::DecompConfig;
use crate::distributed::{decompose, ClusterConfig, Decomposition};
use dismastd_tensor::{Result, SparseTensor};

/// Runs static CP-ALS on `x`: [`decompose`] at world 1 with no history.
///
/// Kept only because the repository benchmark names it; new code calls
/// [`decompose`] with `&[]` and `ClusterConfig::new(1)`.
///
/// # Errors
/// As [`decompose`].
pub fn cp_als(x: &SparseTensor, cfg: &DecompConfig) -> Result<Decomposition> {
    decompose(x, &[], cfg, &ClusterConfig::new(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismastd_tensor::{KruskalTensor, SparseTensorBuilder};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_tensor(shape: &[usize], nnz: usize, seed: u64) -> SparseTensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            b.push(&idx, rng.gen_range(0.5..1.5)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn loss_decreases_monotonically() {
        let x = random_tensor(&[8, 7, 6], 80, 1);
        let out = cp_als(&x, &DecompConfig::default().with_rank(3).with_max_iters(12)).unwrap();
        assert_eq!(out.iterations, 12);
        for w in out.loss_trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9 * (1.0 + w[0].abs()),
                "{:?}",
                out.loss_trace
            );
        }
    }

    #[test]
    fn recovers_exact_low_rank_tensor() {
        // X built from a rank-2 Kruskal tensor: ALS should fit it almost
        // perfectly.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let shape = [6usize, 5, 4];
        let truth = KruskalTensor::new(
            shape
                .iter()
                .map(|&s| dismastd_tensor::Matrix::random(s, 2, &mut rng))
                .collect(),
        )
        .unwrap();
        let dense = truth.to_dense().unwrap();
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        for (idx, v) in dense.iter_all() {
            b.push(&idx, v).unwrap();
        }
        let x = b.build().unwrap();
        let out = cp_als(
            &x,
            &DecompConfig::default()
                .with_rank(2)
                .with_max_iters(100)
                .with_tolerance(1e-12),
        )
        .unwrap();
        let fit = out.kruskal.fit(&x).unwrap();
        assert!(fit > 0.99, "fit {fit}, loss {:?}", out.loss_trace.last());
    }

    #[test]
    fn reported_loss_matches_direct_residual() {
        let x = random_tensor(&[5, 5, 5], 40, 4);
        let out = cp_als(&x, &DecompConfig::default().with_rank(2).with_max_iters(5)).unwrap();
        let direct = out.kruskal.residual_norm_sq(&x).unwrap();
        let reported = *out.loss_trace.last().unwrap();
        assert!((direct - reported).abs() < 1e-8 * (1.0 + direct));
    }

    #[test]
    fn matrix_case_order_two() {
        let x = random_tensor(&[10, 8], 30, 5);
        let out = cp_als(&x, &DecompConfig::default().with_rank(3).with_max_iters(20)).unwrap();
        assert_eq!(out.kruskal.order(), 2);
        let first = out.loss_trace[0];
        let last = *out.loss_trace.last().unwrap();
        assert!(last <= first);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = random_tensor(&[6, 6, 6], 50, 6);
        let cfg = DecompConfig::default().with_rank(2).with_max_iters(4);
        let a = cp_als(&x, &cfg).unwrap();
        let b = cp_als(&x, &cfg).unwrap();
        assert_eq!(a.loss_trace, b.loss_trace);
        for (fa, fb) in a.kruskal.factors().iter().zip(b.kruskal.factors()) {
            assert_eq!(fa, fb);
        }
    }
}
