//! The context of one detection run: its configuration, the
//! [`ShipmentLedger`], the §III-B per-site [`SiteClocks`] and the
//! [`RunObserver`], owned together.
//!
//! Every engine — batch, multi-CFD, hybrid, replicated, vertical and
//! the incremental sessions — builds one [`Run`] and finishes through
//! [`Run::detection`], so the ledger mirror, the run-summary gauges and
//! the trace are uniform across detectors.
//!
//! The clocks move only inside [`Run::phase`]: the combinator snapshots
//! every site's clock before and after the phase body and records one
//! span per site whose clock moved. A phase can therefore be neither
//! unobserved nor left open, and the spans of a site always sum to its
//! final clock. A phase body charges its sites through the
//! [`PhaseClocks`] handle it is given; phases must not nest (the inner
//! phase's time would be spanned twice).

use crate::config::RunConfig;
use crate::report::Detection;
use dcd_cfd::ViolationReport;
use dcd_dist::{ShipmentLedger, SiteClocks, SiteId};
use dcd_obs::{MetricsRegistry, RunObserver};

/// The ledger, clocks and observer of one detection run.
#[derive(Debug)]
pub struct Run {
    cfg: RunConfig,
    obs: RunObserver,
    ledger: ShipmentLedger,
    clocks: SiteClocks,
}

impl Run {
    /// A fresh run over `n_sites` sites: empty ledger (mirrored into
    /// the run's metrics registry), every clock at zero, empty trace.
    pub fn new(n_sites: usize, cfg: RunConfig) -> Run {
        let obs = RunObserver::new();
        let ledger = ShipmentLedger::observed(n_sites, &obs.registry);
        Run { cfg, obs, ledger, clocks: SiteClocks::new(n_sites) }
    }

    /// The run's configuration.
    pub fn cfg(&self) -> &RunConfig {
        &self.cfg
    }

    /// The run's shipment ledger.
    pub fn ledger(&self) -> &ShipmentLedger {
        &self.ledger
    }

    /// The run's metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.obs.registry
    }

    /// The simulated response time so far: the maximum site clock.
    pub fn response_time(&self) -> f64 {
        self.clocks.response_time()
    }

    /// Runs one phase of the protocol. `body` charges sites through the
    /// [`PhaseClocks`] handle; afterwards every site whose clock moved
    /// gets one span named `name`, from its clock before the phase to
    /// its clock after.
    pub fn phase<R>(&self, name: &str, body: impl FnOnce(&PhaseClocks<'_>) -> R) -> R {
        let before = self.clocks.snapshot();
        let out = body(&PhaseClocks { clocks: &self.clocks, cfg: &self.cfg });
        self.obs.span_sites(name, &before, &self.clocks.snapshot());
        out
    }

    /// The [`Detection`] of the run so far: `violations` plus ledger
    /// totals, clock state, and the observer's registry and trace. Sets
    /// the run-summary gauges (`dcd_run_violating_tuples`,
    /// `dcd_run_violating_patterns`, `dcd_run_response_seconds`) before
    /// the snapshot is frozen. Does not consume the run, so incremental
    /// sessions can snapshot it after every batch.
    pub fn detection(
        &self,
        algorithm: &str,
        violations: ViolationReport,
        paper_cost: f64,
    ) -> Detection {
        let tuples = violations.all_tids().len();
        let patterns: usize = violations.per_cfd.iter().map(|(_, v)| v.patterns.len()).sum();
        let response_time = self.clocks.response_time();
        let registry = &self.obs.registry;
        registry
            .gauge("dcd_run_violating_tuples", "Distinct violating tuples across all CFDs", &[])
            .set(tuples as f64);
        registry
            .gauge("dcd_run_violating_patterns", "Total Vioπ patterns across all CFDs", &[])
            .set(patterns as f64);
        registry
            .gauge("dcd_run_response_seconds", "Simulated response time of the run", &[])
            .set(response_time);
        Detection {
            algorithm: algorithm.to_string(),
            violations,
            shipped_tuples: self.ledger.total_tuples(),
            shipped_cells: self.ledger.total_cells(),
            shipped_bytes: self.ledger.total_bytes(),
            control_messages: self.ledger.control_messages(),
            control_bytes: self.ledger.control_bytes(),
            response_time,
            site_clocks: self.clocks.snapshot(),
            paper_cost,
            metrics: registry.snapshot(),
            trace: self.obs.trace(),
        }
    }
}

/// The clocks of a [`Run`] as one phase sees them. Pool tasks may share
/// the handle; see [`SiteClocks`] for the single-writer-per-site rule
/// that keeps clocks bit-identical across pool widths.
#[derive(Debug)]
pub struct PhaseClocks<'a> {
    clocks: &'a SiteClocks,
    cfg: &'a RunConfig,
}

impl PhaseClocks<'_> {
    /// Charges `secs` of local work to `site` and returns `secs`, which
    /// callers add to the site's §III-B local seconds.
    pub fn charge(&self, site: SiteId, secs: f64) -> f64 {
        self.clocks.advance(site, secs);
        secs
    }

    /// The current time at one site.
    pub fn now(&self, site: SiteId) -> f64 {
        self.clocks.now(site)
    }

    /// Makes `site` wait until at least `time`.
    pub fn wait_until(&self, site: SiteId, time: f64) {
        self.clocks.wait_until(site, time);
    }

    /// One bulk transfer round under the run's cost model:
    /// `matrix[to][from]` tuples ([`SiteClocks::transfer`]).
    pub fn transfer(&self, matrix: &[Vec<usize>]) {
        self.clocks.transfer(matrix, &self.cfg.cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_one_span_per_charged_site() {
        let run = Run::new(3, RunConfig::default());
        let secs =
            run.phase("scan", |clk| clk.charge(SiteId(0), 0.25) + clk.charge(SiteId(2), 0.5));
        assert_eq!(secs, 0.75);
        run.phase("idle", |_| ());
        let d = run.detection("test", ViolationReport::default(), 0.0);
        let spans: Vec<(&str, usize)> =
            d.trace.spans.iter().map(|s| (s.name.as_str(), s.site)).collect();
        assert_eq!(spans, [("scan", 0), ("scan", 2)]);
        assert_eq!(d.site_clocks, vec![0.25, 0.0, 0.5]);
    }

    #[test]
    fn detection_freezes_gauges_and_ledger_totals() {
        let run = Run::new(2, RunConfig::default());
        run.ledger().ship(SiteId(0), SiteId(1), 3, 9, 36);
        run.ledger().control(SiteId(0), SiteId(1), 16);
        run.phase("work", |clk| clk.charge(SiteId(0), 0.25));
        let d = run.detection("test", ViolationReport::default(), 0.5);
        assert_eq!(d.shipped_tuples, 3);
        assert_eq!(d.control_messages, 1);
        assert_eq!(d.control_bytes, 16);
        assert_eq!(d.paper_cost, 0.5);
        let v = d.metrics.value("dcd_run_response_seconds", "").expect("gauge present");
        assert_eq!(*v, dcd_obs::SampleValue::GaugeBits(0.25_f64.to_bits()));
        // The registry mirrors the ledger.
        assert_eq!(d.metrics.counter_total("dcd_shipped_tuples_total"), 3);
    }
}
