//! Cluster cost model — the Spark-shaped overheads of the paper's testbed.
//!
//! The simulator executes on threads, so barrier/launch overheads are
//! microseconds rather than the tens-of-milliseconds Spark pays per task.
//! To reproduce the paper's Fig. 7 observation — "the startup costs of Spark
//! tasks dominate the running time when the datasets are small" — the
//! experiment harness converts *measured compute time + counted bytes* into
//! a modeled cluster time with this cost model.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Parameters of the modeled cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed cost to launch one distributed stage (scheduling + task
    /// startup), paid once per stage regardless of data volume.
    pub stage_startup: Duration,
    /// Network bandwidth in bytes/second (paper: Gigabit Ethernet).
    pub bandwidth_bytes_per_sec: f64,
    /// One-way message latency paid per collective operation.
    pub collective_latency: Duration,
}

impl CostModel {
    /// A model shaped like the paper's testbed: Spark-ish 50 ms stage
    /// startup, Gigabit Ethernet (125 MB/s), 0.5 ms collective latency.
    pub fn spark_like() -> Self {
        CostModel {
            stage_startup: Duration::from_millis(50),
            bandwidth_bytes_per_sec: 125.0e6,
            collective_latency: Duration::from_micros(500),
        }
    }

    /// The paper's testbed, shrunk to match scaled-down datasets.
    ///
    /// The reproduction's datasets are 10²-10³× smaller than the paper's,
    /// so a full 50 ms Spark stage startup would dwarf every compute term
    /// and flatten all the contrasts the experiments exist to show.  This
    /// model scales the fixed overheads down (0.1 ms startup, 10 µs
    /// latency) and the bandwidth up (100 GbE) by roughly the same factor,
    /// restoring the paper's compute-to-overhead balance at the reduced
    /// scale — per-worker compute dominates, with task startup still
    /// visible on the smallest datasets (the Fig. 7 saturation).
    pub fn scaled_testbed() -> Self {
        CostModel {
            stage_startup: Duration::from_micros(100),
            bandwidth_bytes_per_sec: 12.5e9,
            collective_latency: Duration::from_micros(10),
        }
    }

    /// A zero-overhead model: modeled time equals measured compute time.
    pub fn free() -> Self {
        CostModel {
            stage_startup: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
            collective_latency: Duration::ZERO,
        }
    }

    /// Time to move `bytes` over the modeled network.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if self.bandwidth_bytes_per_sec.is_infinite() || bytes == 0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Modeled wall-clock of a distributed phase: measured compute plus
    /// `stages` stage startups, `collectives` latencies, and the transfer
    /// time of `bytes`.
    pub fn phase_time(
        &self,
        compute: Duration,
        stages: u64,
        collectives: u64,
        bytes: u64,
    ) -> Duration {
        compute
            + self.stage_startup * stages as u32
            + self.collective_latency * collectives as u32
            + self.transfer_time(bytes)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_is_identity() {
        let m = CostModel::free();
        let c = Duration::from_millis(7);
        assert_eq!(m.phase_time(c, 10, 10, 1 << 30), c);
        assert_eq!(m.transfer_time(u64::MAX), Duration::ZERO);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let m = CostModel {
            stage_startup: Duration::ZERO,
            bandwidth_bytes_per_sec: 1000.0,
            collective_latency: Duration::ZERO,
        };
        assert_eq!(m.transfer_time(1000), Duration::from_secs(1));
        assert_eq!(m.transfer_time(0), Duration::ZERO);
        assert_eq!(m.transfer_time(500), Duration::from_millis(500));
    }

    #[test]
    fn spark_like_startup_dominates_small_work() {
        // The Fig. 7 effect: for tiny compute, stage startup is the bulk.
        let m = CostModel::spark_like();
        let t = m.phase_time(Duration::from_millis(1), 4, 0, 0);
        assert!(t >= Duration::from_millis(200));
    }

    #[test]
    fn phase_time_adds_all_components() {
        let m = CostModel {
            stage_startup: Duration::from_millis(10),
            bandwidth_bytes_per_sec: 1.0e6,
            collective_latency: Duration::from_millis(1),
        };
        let t = m.phase_time(Duration::from_millis(5), 2, 3, 1_000_000);
        // 5 + 20 + 3 + 1000 ms
        assert_eq!(t, Duration::from_millis(1028));
    }
}
