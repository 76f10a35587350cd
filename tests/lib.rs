//! Shared fixtures for the cross-crate integration tests.

use dismastd_tensor::{SparseTensor, SparseTensorBuilder};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Random sparse tensor with uniform indices and positive values.
pub fn random_tensor(shape: &[usize], nnz: usize, seed: u64) -> SparseTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = SparseTensorBuilder::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
        b.push(&idx, rng.gen_range(0.5..1.5)).expect("in bounds");
    }
    b.build().expect("valid shape")
}

/// Random complement tensor: entries over `new_shape` that all lie outside
/// the `old_shape` box.
pub fn random_complement(
    old_shape: &[usize],
    new_shape: &[usize],
    nnz: usize,
    seed: u64,
) -> SparseTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = SparseTensorBuilder::new(new_shape.to_vec());
    let mut placed = 0;
    while placed < nnz {
        let idx: Vec<usize> = new_shape.iter().map(|&s| rng.gen_range(0..s)).collect();
        if idx.iter().zip(old_shape).all(|(i, old)| i < old) {
            continue;
        }
        b.push(&idx, rng.gen_range(-1.0..1.0)).expect("in bounds");
        placed += 1;
    }
    b.build().expect("valid shape")
}

/// Random factor matrices for a given shape and rank.
pub fn random_factors(shape: &[usize], rank: usize, seed: u64) -> Vec<dismastd_tensor::Matrix> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    shape
        .iter()
        .map(|&s| dismastd_tensor::Matrix::random(s, rank, &mut rng))
        .collect()
}
