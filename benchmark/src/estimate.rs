//! The best-of-R estimator and its diagnostics.
//!
//! Interference on the shared host only ever adds time and the measured
//! computation is deterministic, so the fastest repetition is the program's
//! time and everything above it is the host's.  Median and p90 are kept as
//! diagnostics: they say how noisy the run was, not how fast the program is.

use std::time::Instant;

/// Wall-clock samples of a repeated multi-step pass: `per_step[t][r]` is the
/// duration of step `t` in repetition `r`, in seconds.
#[derive(Debug, Clone)]
pub struct Samples {
    per_step: Vec<Vec<f64>>,
}

impl Samples {
    pub fn new(steps: usize) -> Self {
        Samples {
            per_step: vec![Vec::new(); steps],
        }
    }

    /// Appends one repetition's per-step durations.
    pub fn push_rep(&mut self, times: &[f64]) {
        assert_eq!(times.len(), self.per_step.len(), "one duration per step");
        for (samples, &t) in self.per_step.iter_mut().zip(times) {
            samples.push(t);
        }
    }

    pub fn reps(&self) -> usize {
        self.per_step.first().map_or(0, Vec::len)
    }

    /// The step's value: its minimum over repetitions.
    pub fn best(&self, step: usize) -> f64 {
        self.per_step[step]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Sum of step values over `steps`.
    pub fn best_sum(&self, steps: std::ops::Range<usize>) -> f64 {
        steps.map(|t| self.best(t)).sum()
    }

    /// Largest step value over `steps`.
    pub fn best_max(&self, steps: std::ops::Range<usize>) -> f64 {
        steps.map(|t| self.best(t)).fold(0.0, f64::max)
    }

    /// Nearest-rank quantile `q ∈ [0, 1]` of the step's samples.
    pub fn quantile(&self, step: usize, q: f64) -> f64 {
        quantile(&self.per_step[step], q)
    }

    /// Every sample of a step, in repetition order.
    pub fn samples(&self, step: usize) -> &[f64] {
        &self.per_step[step]
    }

    /// Worst relative gap between a step's two fastest samples — how far
    /// the minimum still is from being confirmed by a second repetition.
    pub fn two_fastest_gap(&self) -> f64 {
        self.per_step
            .iter()
            .filter(|s| s.len() >= 2)
            .map(|s| {
                let mut sorted = s.clone();
                sorted.sort_by(f64::total_cmp);
                sorted[1] / sorted[0] - 1.0
            })
            .fold(0.0, f64::max)
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `f` `n` times and returns the fastest duration in seconds with the
/// last result.
pub fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(n > 0, "at least one repetition");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("n > 0 repetitions ran"))
}
