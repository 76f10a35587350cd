//! Random sparse tensor generators.

use dismastd_tensor::{Result, SparseTensor, SparseTensorBuilder, TensorError};
use rand::Rng;

/// Uniform sparse tensor: `nnz` entries with independently uniform indices
/// in each mode and values uniform in `[0.5, 1.5)` (positive, away from
/// zero, like rating data).
///
/// Duplicate index draws are merged by the builder, so the resulting tensor
/// can hold slightly fewer than `nnz` entries when density is high; the
/// generator retries a few rounds to close the gap.
///
/// # Errors
/// Returns [`TensorError::InvalidArgument`] if `nnz` exceeds the number of
/// cells in the tensor.
pub fn uniform_tensor(shape: &[usize], nnz: usize, rng: &mut impl Rng) -> Result<SparseTensor> {
    let cells: f64 = shape.iter().map(|&s| s as f64).product();
    if (nnz as f64) > cells {
        return Err(TensorError::InvalidArgument(format!(
            "requested {nnz} nonzeros in a tensor of {cells} cells"
        )));
    }
    let mut builder = SparseTensorBuilder::with_capacity(shape.to_vec(), nnz);
    let mut idx = vec![0usize; shape.len()];
    let mut tensor = {
        for _ in 0..nnz {
            for (i, &s) in idx.iter_mut().zip(shape) {
                *i = rng.gen_range(0..s);
            }
            builder.push(&idx, rng.gen_range(0.5..1.5))?;
        }
        builder.build()?
    };
    // Top up after duplicate merging (bounded retries keep this total).
    for _ in 0..8 {
        if tensor.nnz() >= nnz {
            break;
        }
        let missing = nnz - tensor.nnz();
        let mut b = SparseTensorBuilder::with_capacity(shape.to_vec(), tensor.nnz() + missing);
        for (stored, v) in tensor.iter() {
            for (i, &s) in idx.iter_mut().zip(stored) {
                *i = s as usize;
            }
            b.push(&idx, v)?;
        }
        for _ in 0..missing {
            for (i, &s) in idx.iter_mut().zip(shape) {
                *i = rng.gen_range(0..s);
            }
            b.push(&idx, rng.gen_range(0.5..1.5))?;
        }
        tensor = b.build()?;
    }
    Ok(tensor)
}

/// Inverse-CDF sampler for the Zipf distribution over `{0, …, n-1}` with
/// weight `(i+1)^{-exponent}`.
///
/// Real-world mode indices (users, products) are heavily head-skewed; this
/// sampler produces the "skewed non-zero element distribution" the paper
/// attributes to its real datasets (Sec. V-B2).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative (unnormalised) weights; `cdf[i]` = sum of w_0..w_i.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` items with the given exponent.
    ///
    /// # Panics
    /// Panics if `n == 0` (a zero-sized mode cannot be sampled).
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-exponent);
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` iff the sampler covers no items (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        // Non-empty by construction; fall back to weight 1 to stay
        // panic-free under the crate-wide no-unwrap audit.
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let u = rng.gen_range(0.0..total);
        // First index whose cumulative weight exceeds u.  Weights are finite
        // by construction, so the ordering fallback is unreachable.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Zipf-skewed sparse tensor: mode-`k` indices follow a Zipf distribution
/// with `exponents[k]`; values uniform in `[0.5, 1.5)`.
///
/// # Errors
/// Returns [`TensorError::InvalidArgument`] if `exponents.len()` differs
/// from the order, or the density is infeasible.
pub fn zipf_tensor(
    shape: &[usize],
    nnz: usize,
    exponents: &[f64],
    rng: &mut impl Rng,
) -> Result<SparseTensor> {
    if exponents.len() != shape.len() {
        return Err(TensorError::InvalidArgument(
            "one Zipf exponent per mode required".into(),
        ));
    }
    let cells: f64 = shape.iter().map(|&s| s as f64).product();
    if (nnz as f64) > cells {
        return Err(TensorError::InvalidArgument(format!(
            "requested {nnz} nonzeros in a tensor of {cells} cells"
        )));
    }
    let samplers: Vec<ZipfSampler> = shape
        .iter()
        .zip(exponents)
        .map(|(&s, &e)| ZipfSampler::new(s, e))
        .collect();
    let mut idx = vec![0usize; shape.len()];
    // Zipf draws collide often in the head; over-draw by small rounds until
    // the merged count reaches the target or progress stalls.
    let mut tensor = SparseTensor::empty(shape.to_vec())?;
    let mut stalled = 0;
    while tensor.nnz() < nnz && stalled < 16 {
        let before = tensor.nnz();
        let missing = nnz - before;
        let mut b = SparseTensorBuilder::with_capacity(shape.to_vec(), before + missing);
        for (stored, v) in tensor.iter() {
            for (i, &s) in idx.iter_mut().zip(stored) {
                *i = s as usize;
            }
            b.push(&idx, v)?;
        }
        for _ in 0..missing {
            for (i, s) in idx.iter_mut().zip(&samplers) {
                *i = s.sample(rng);
            }
            b.push(&idx, rng.gen_range(0.5..1.5))?;
        }
        tensor = b.build()?;
        if tensor.nnz() == before {
            stalled += 1;
        } else {
            stalled = 0;
        }
    }
    Ok(tensor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn uniform_tensor_hits_target_nnz() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = uniform_tensor(&[50, 50, 50], 2000, &mut rng).unwrap();
        assert_eq!(t.nnz(), 2000);
        assert_eq!(t.shape(), &[50, 50, 50]);
        // Duplicate draws merge by summation, so values are positive but may
        // exceed the per-draw range.
        assert!(t.values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn uniform_tensor_rejects_overfull() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(uniform_tensor(&[2, 2], 5, &mut rng).is_err());
    }

    #[test]
    fn uniform_tensor_is_roughly_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = uniform_tensor(&[20, 20, 20], 4000, &mut rng).unwrap();
        let hist = t.slice_nnz(0).unwrap();
        let mean = 4000.0 / 20.0;
        // All slices within ±50% of the mean — very loose, just anti-skew.
        assert!(hist
            .iter()
            .all(|&h| (h as f64) > 0.5 * mean && (h as f64) < 1.5 * mean));
    }

    #[test]
    fn zipf_sampler_is_head_heavy() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let z = ZipfSampler::new(100, 1.2);
        assert_eq!(z.len(), 100);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Item 0 must dominate item 50 by a wide margin.
        assert!(counts[0] > 10 * counts[50].max(1));
        // Every draw in range (no panic) and head gets a large share.
        let head: usize = counts[..5].iter().sum();
        assert!(head > 3000, "head share {head}");
    }

    #[test]
    fn zipf_sampler_exponent_zero_is_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let z = ZipfSampler::new(10, 0.0);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700 && c < 1300));
    }

    #[test]
    fn zipf_tensor_is_skewed() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let t = zipf_tensor(&[200, 200, 50], 5000, &[1.1, 1.1, 0.8], &mut rng).unwrap();
        assert!(
            t.nnz() > 4000,
            "collisions ate too many entries: {}",
            t.nnz()
        );
        let hist = t.slice_nnz(0).unwrap();
        let max = *hist.iter().max().unwrap() as f64;
        let mean = t.nnz() as f64 / 200.0;
        assert!(max > 5.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn zipf_tensor_validates_exponents() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert!(zipf_tensor(&[10, 10], 5, &[1.0f64], &mut rng).is_err());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = uniform_tensor(&[30, 30], 100, &mut ChaCha8Rng::seed_from_u64(9)).unwrap();
        let b = uniform_tensor(&[30, 30], 100, &mut ChaCha8Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
        let c = zipf_tensor(
            &[30, 30],
            100,
            &[1.0, 1.0],
            &mut ChaCha8Rng::seed_from_u64(9),
        )
        .unwrap();
        let d = zipf_tensor(
            &[30, 30],
            100,
            &[1.0, 1.0],
            &mut ChaCha8Rng::seed_from_u64(9),
        )
        .unwrap();
        assert_eq!(c, d);
    }
}
