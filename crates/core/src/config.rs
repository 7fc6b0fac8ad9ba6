//! Run configuration shared by all detection algorithms.

use dcd_dist::CostModel;

/// How local compute time (statistics scans, coordinator checks) enters
/// the simulated response time.
///
/// Only the analytic model remains: simulated clocks never read the
/// host clock. The enum and the [`RunConfig::compute`] field stay so
/// that code building a `RunConfig` as a struct literal (the benchmark
/// under `perfbench/` does) keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeModel {
    /// Use the paper's analytic approximations (`scan ≈ c·n`,
    /// `check ≈ c·n·log n`). Deterministic.
    Analytic,
}

/// Configuration of a detection run: environment cost model plus the
/// compute-time mode.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Network and local-query cost parameters (§III-B).
    pub cost: CostModel,
    /// The local compute model (analytic).
    pub compute: ComputeModel,
    /// OS threads for the "per site in parallel" phases (constant-CFD
    /// local checks, σ-partitioning, coordinator validation). `1` runs
    /// them sequentially on the caller's thread. Every output —
    /// violation reports, ledger totals, paper cost, per-site clocks —
    /// is bit-identical for every value; only wall-clock changes.
    /// Defaults to `DCD_THREADS` or the machine's parallelism
    /// ([`dcd_dist::pool::default_threads`]).
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cost: CostModel::default(),
            compute: ComputeModel::Analytic,
            threads: dcd_dist::pool::default_threads(),
        }
    }
}

impl RunConfig {
    /// This configuration with an explicit pool width (floored at 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_analytic() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.compute, ComputeModel::Analytic);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn with_threads_floors_at_one() {
        assert_eq!(RunConfig::default().with_threads(8).threads, 8);
        assert_eq!(RunConfig::default().with_threads(0).threads, 1);
    }
}
