//! Random sparse tensor generators.

use dismastd_tensor::{Result, SparseTensor, SparseTensorBuilder, TensorError};
use rand::Rng;

/// Uniform sparse tensor: `nnz` entries with independently uniform indices
/// in each mode and values uniform in `[0.5, 1.5)` (positive, away from
/// zero, like rating data).
///
/// Duplicate index draws are merged by the builder, so the resulting tensor
/// can hold slightly fewer than `nnz` entries when density is high; the
/// generator retries up to 8 rounds to close the gap.
///
/// # Errors
/// Returns [`TensorError::InvalidArgument`] if `nnz` exceeds the number of
/// cells in the tensor.
pub fn uniform_tensor<R: Rng>(shape: &[usize], nnz: usize, rng: &mut R) -> Result<SparseTensor> {
    let cells: f64 = shape.iter().map(|&s| s as f64).product();
    if (nnz as f64) > cells {
        return Err(TensorError::InvalidArgument(format!(
            "requested {nnz} nonzeros in a tensor of {cells} cells"
        )));
    }
    let mut retries = 0..8;
    let draw = |idx: &mut [usize], rng: &mut R| {
        for (i, &s) in idx.iter_mut().zip(shape) {
            *i = rng.gen_range(0..s);
        }
    };
    top_up(shape, nnz, rng, draw, |_| retries.next().is_some())
}

/// Draws rounds of `nnz − stored` entries — a coordinate from `draw`, then
/// a value uniform in `[0.5, 1.5)` — until `nnz` coordinates are stored or
/// `again(grew)` says stop after a round.  Each round's draws merge into
/// the previous round's tensor, so the result holds every draw, summed in
/// draw order, whatever the round boundaries.
fn top_up<R: Rng>(
    shape: &[usize],
    nnz: usize,
    rng: &mut R,
    mut draw: impl FnMut(&mut [usize], &mut R),
    mut again: impl FnMut(bool) -> bool,
) -> Result<SparseTensor> {
    let mut idx = vec![0usize; shape.len()];
    let mut tensor = SparseTensor::empty(shape.to_vec())?;
    while tensor.nnz() < nnz {
        let before = tensor.nnz();
        let missing = nnz - before;
        let mut b = SparseTensorBuilder::on(tensor)?;
        b.reserve(missing);
        for _ in 0..missing {
            draw(&mut idx, rng);
            b.push(&idx, rng.gen_range(0.5..1.5))?;
        }
        tensor = b.build()?;
        if !again(tensor.nnz() > before) {
            break;
        }
    }
    Ok(tensor)
}

/// Inverse-CDF sampler for the Zipf distribution over `{0, …, n-1}` with
/// weight `(i+1)^{-exponent}`.
///
/// Real-world mode indices (users, products) are heavily head-skewed; this
/// sampler produces the "skewed non-zero element distribution" the paper
/// attributes to its real datasets (Sec. V-B2).
///
/// A draw is one uniform `u` in `[0, total)` and a lookup through a guide
/// table: `n` equal-width buckets of `[0, total)`, each holding the first
/// item whose cumulative weight falls in or after it, from which a short
/// walk right reaches `u`'s item — the index a binary search of the
/// cumulative weights returns, for every `u`, at a fraction of its cost.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative (unnormalised) weights; `cdf[i]` = sum of w_0..w_i.
    cdf: Vec<f64>,
    /// `guide[b]`: the first `i` with `bucket(cdf[i]) >= b`.
    guide: Vec<usize>,
    /// Buckets per unit of cumulative weight: `bucket(u) = ⌊u · scale⌋`.
    scale: f64,
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
        let scale = n as f64 / acc;
        // `bucket` is monotone, so each item opens the buckets up to its
        // own; no `u` below the total lies past the last item's bucket.
        let mut guide = Vec::with_capacity(n);
        for (i, &c) in cdf.iter().enumerate() {
            while guide.len() <= bucket(c, scale, n) {
                guide.push(i);
            }
        }
        ZipfSampler { cdf, guide, scale }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        // Non-empty by construction; fall back to weight 1 to stay
        // panic-free under the crate-wide no-unwrap audit.
        let total = self.cdf.last().copied().unwrap_or(1.0);
        self.index_of(rng.gen_range(0.0..total))
    }

    /// The item `u` falls on: what `binary_search_by` over `cdf` gave —
    /// the last `i` with `cdf[i] == u` when there is one, else the first
    /// `i` with `cdf[i] > u` — clamped to the last item.
    fn index_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let start = self.guide.get(bucket(u, self.scale, self.cdf.len()));
        // Every item before the guide entry lies in an earlier bucket than
        // `u`, so below it (`bucket` is monotone): walk right to the first
        // `i` with `cdf[i] > u`.
        let mut i = start.copied().unwrap_or(last);
        while i <= last && self.cdf[i] <= u {
            i += 1;
        }
        // An exact hit names the item whose cumulative weight ends at `u`.
        if i > 0 && self.cdf[i - 1] == u {
            i -= 1;
        }
        i.min(last)
    }
}

/// The guide bucket of cumulative weight `c`: `⌊c · scale⌋`, at most the
/// last of `n` buckets.  Monotone in `c`.
fn bucket(c: f64, scale: f64, n: usize) -> usize {
    ((c * scale) as usize).min(n - 1)
}

/// Zipf-skewed sparse tensor: mode-`k` indices follow a Zipf distribution
/// with `exponents[k]`; values uniform in `[0.5, 1.5)`.
///
/// # Errors
/// Returns [`TensorError::InvalidArgument`] if `exponents.len()` differs
/// from the order, or the density is infeasible.
pub fn zipf_tensor<R: Rng>(
    shape: &[usize],
    nnz: usize,
    exponents: &[f64],
    rng: &mut R,
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
    // Zipf draws collide often in the head; over-draw by small rounds until
    // the merged count reaches the target or progress stalls.
    let draw = |idx: &mut [usize], rng: &mut R| {
        for (i, s) in idx.iter_mut().zip(&samplers) {
            *i = s.sample(rng);
        }
    };
    let mut stalled = 0;
    top_up(shape, nnz, rng, draw, |grew| {
        stalled = if grew { 0 } else { stalled + 1 };
        stalled < 16
    })
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

    /// The lookup the guide table replaced: a binary search of the
    /// cumulative weights, clamped to the last item.
    fn bisect(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less)) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// `u = 0`, each of the first and last 16 cumulative weights, the
    /// midpoints beside them, and the largest `f64` below the total.
    fn edge_draws(cdf: &[f64]) -> Vec<f64> {
        let n = cdf.len();
        let mut us = vec![0.0, f64::from_bits(cdf[n - 1].to_bits() - 1)];
        for j in (0..n.min(16)).chain(n.saturating_sub(16)..n) {
            us.push(cdf[j]);
            if j > 0 {
                us.push(0.5 * (cdf[j - 1] + cdf[j]));
            }
        }
        us
    }

    #[test]
    fn guide_table_returns_the_binary_search_index_on_every_dataset_profile() {
        use crate::datasets::{DatasetSpec, Skew};
        let mut specs = DatasetSpec::all(1.0);
        // The benchmark's Netflix runs at scale 0.7.
        specs.push(DatasetSpec::netflix(0.7));
        const DRAWS: usize = 1_000_000;
        for spec in specs {
            let Skew::Zipf(exponents) = &spec.skew else {
                continue;
            };
            for (mode, (&n, &e)) in spec.shape.iter().zip(exponents).enumerate() {
                let z = ZipfSampler::new(n, e);
                for u in edge_draws(&z.cdf) {
                    assert_eq!(
                        z.index_of(u),
                        bisect(&z.cdf, u),
                        "{} mode {mode} u={u:e}",
                        spec.name
                    );
                }
                // Two copies of one stream: `sample` on one, the old draw
                // (one `gen_range`, then the search) on the other.
                let mut rng = ChaCha8Rng::seed_from_u64(spec.seed + mode as u64);
                let mut replay = rng.clone();
                let total = z.cdf[n - 1];
                for draw in 0..DRAWS {
                    let want = bisect(&z.cdf, replay.gen_range(0.0..total));
                    assert_eq!(
                        z.sample(&mut rng),
                        want,
                        "{} mode {mode} draw {draw}",
                        spec.name
                    );
                }
                // …which consumed the generator alike.
                assert_eq!(rng.gen::<u64>(), replay.gen::<u64>());
            }
        }
    }

    #[test]
    fn guide_table_matches_the_binary_search_on_flat_cumulative_weights() {
        // From about item 22 on the weights of exponent 12 vanish against the
        // head's, so the cumulative weights repeat: runs of equal values a
        // binary search resolves to one particular index.
        for (n, e) in [(1, 1.0), (2, 0.0), (7, 3.0), (200, 12.0), (1000, 30.0)] {
            let z = ZipfSampler::new(n, e);
            let mut us = edge_draws(&z.cdf);
            us.extend(z.cdf.iter().copied());
            us.extend(z.cdf.windows(2).map(|w| 0.5 * (w[0] + w[1])));
            for u in us {
                assert_eq!(z.index_of(u), bisect(&z.cdf, u), "n={n} e={e} u={u:e}");
            }
        }
        assert!(ZipfSampler::new(200, 12.0)
            .cdf
            .windows(2)
            .any(|w| w[0] == w[1]));
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
    fn a_generated_tensor_is_every_draw_summed_in_draw_order() {
        // 120 cells and a steep head: draws collide three times and more,
        // and the target takes several top-up rounds.
        let shape = [6, 5, 4];
        let samplers: Vec<ZipfSampler> = shape.iter().map(|&s| ZipfSampler::new(s, 1.5)).collect();
        let draw = |idx: &mut [usize], rng: &mut ChaCha8Rng| {
            for (i, s) in idx.iter_mut().zip(&samplers) {
                *i = s.sample(rng);
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut replay = rng.clone();
        let (mut draws, mut rounds) = (0, 0);
        let t = top_up(
            &shape,
            60,
            &mut rng,
            |idx, rng| {
                draws += 1;
                draw(idx, rng);
            },
            |_| {
                rounds += 1;
                true
            },
        )
        .unwrap();
        assert_eq!(t.nnz(), 60);
        assert!(rounds >= 3, "{rounds} rounds");
        // One builder fed every draw in order, no rounds.
        let mut b = SparseTensorBuilder::new(shape.to_vec());
        let mut counts = std::collections::BTreeMap::<Vec<usize>, usize>::new();
        let mut idx = [0; 3];
        for _ in 0..draws {
            draw(&mut idx, &mut replay);
            b.push(&idx, replay.gen_range(0.5..1.5)).unwrap();
            *counts.entry(idx.to_vec()).or_default() += 1;
        }
        assert!(counts.values().any(|&c| c >= 3));
        let want = b.build().unwrap();
        assert_eq!(t.indices_flat(), want.indices_flat());
        let bits = |x: &SparseTensor| x.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t), bits(&want));
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
