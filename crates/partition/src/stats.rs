//! Load-balance statistics for partitionings (Table IV of the paper).

use serde::{Deserialize, Serialize};

/// Summary statistics of per-partition loads.
///
/// The paper's Table IV reports "the standard deviation statistics of nnz in
/// tensor partitions"; because we run on scaled-down datasets we also expose
/// the scale-free *coefficient of variation* (`std_dev / mean`) and the
/// *imbalance factor* (`max / mean`, the quantity that actually bounds
/// distributed makespan).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalanceStats {
    /// Number of partitions measured.
    pub parts: usize,
    /// Mean load.
    pub mean: f64,
    /// Population standard deviation of the loads.
    pub std_dev: f64,
    /// Coefficient of variation `std_dev / mean` (0 when mean is 0).
    pub cv: f64,
    /// Smallest load.
    pub min: u64,
    /// Largest load.
    pub max: u64,
    /// `max / mean` (1.0 is perfect balance; 0 when mean is 0).
    pub imbalance: f64,
}

impl BalanceStats {
    /// Computes statistics from raw per-partition loads.
    ///
    /// An empty slice yields all-zero statistics.
    pub fn from_loads(loads: &[u64]) -> Self {
        if loads.is_empty() {
            return BalanceStats {
                parts: 0,
                mean: 0.0,
                std_dev: 0.0,
                cv: 0.0,
                min: 0,
                max: 0,
                imbalance: 0.0,
            };
        }
        let n = loads.len() as f64;
        let mean = loads.iter().map(|&l| l as f64).sum::<f64>() / n;
        let var = loads
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let std_dev = var.sqrt();
        let min = loads.iter().min().copied().unwrap_or(0);
        let max = loads.iter().max().copied().unwrap_or(0);
        BalanceStats {
            parts: loads.len(),
            mean,
            std_dev,
            cv: if mean > 0.0 { std_dev / mean } else { 0.0 },
            min,
            max,
            imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_balanced() {
        let s = BalanceStats::from_loads(&[10, 10, 10, 10]);
        assert_eq!(s.parts, 4);
        assert_eq!(s.mean, 10.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.imbalance, 1.0);
        assert_eq!((s.min, s.max), (10, 10));
    }

    #[test]
    fn known_spread() {
        // loads 2 and 6: mean 4, population std dev 2.
        let s = BalanceStats::from_loads(&[2, 6]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 2.0);
        assert_eq!(s.cv, 0.5);
        assert_eq!(s.imbalance, 1.5);
    }

    #[test]
    fn empty_and_zero_loads() {
        let e = BalanceStats::from_loads(&[]);
        assert_eq!(e.parts, 0);
        assert_eq!(e.std_dev, 0.0);
        let z = BalanceStats::from_loads(&[0, 0]);
        assert_eq!(z.mean, 0.0);
        assert_eq!(z.cv, 0.0);
        assert_eq!(z.imbalance, 0.0);
    }

    #[test]
    fn single_partition() {
        let s = BalanceStats::from_loads(&[42]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.imbalance, 1.0);
    }
}
