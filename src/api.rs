//! The code-native detection façade: one request object over every
//! topology.
//!
//! The workspace grew five public detection entry points with five
//! different signatures — the per-topology engine functions
//! (`run_batch`, `run_seq`/`run_clust`, `run_hybrid`,
//! `run_replicated`, `run_vertical`) and the incremental runs. This
//! module folds them into a single front door, the shape a production
//! service exposes
//! (measure-style front doors hiding the placement behind one request
//! object are standard in the inconsistency-measurement literature —
//! Livshits et al., *Properties of Inconsistency Measures for
//! Databases*; Parisi & Grant, *Inconsistency Measures for Relational
//! Databases*):
//!
//! * [`Topology`] names where the data lives: horizontal, vertical,
//!   hybrid or replicated partitions;
//! * [`Algorithm`] names how to detect: the paper's three single-CFD
//!   algorithms plus `SEQDETECT` and `CLUSTDETECT`;
//! * [`DetectRequest`] couples the two with the rules Σ and a
//!   [`RunConfig`]; [`DetectRequest::run`] returns the same
//!   [`Detection`] every engine produces, and
//!   [`DetectRequest::session`] opens an [`IncrementalSession`] that
//!   maintains the result under delta batches instead of re-running.
//!
//! Every engine beneath the façade ships dictionary codes, never value
//! payloads: batch coordinators gather `(tid, codes)` rows charged at
//! 4 bytes/cell ([`dcd_dist::CODE_BYTES`]), and incremental sessions
//! ship delta code rows the same way. The engines remain public for
//! direct use, and `tests/prop_facade.rs` pins the façade
//! bit-identical to them.
//!
//! ```
//! use distributed_cfd::prelude::*;
//!
//! let schema = Schema::builder("r")
//!     .attr("cc", ValueType::Int)
//!     .attr("zip", ValueType::Str)
//!     .attr("street", ValueType::Str)
//!     .build()?;
//! let rel = Relation::from_rows(schema.clone(), vec![
//!     vals![44, "z1", "a"],
//!     vals![44, "z1", "b"],
//!     vals![31, "z2", "c"],
//! ])?;
//! let cfd = parse_cfd(&schema, "phi", "([cc, zip] -> [street])")?;
//! let partition = HorizontalPartition::round_robin(&rel, 3)?;
//!
//! let detection = DetectRequest::over(partition)
//!     .cfd(cfd)
//!     .algorithm(Algorithm::PatDetectS)
//!     .run()?;
//! assert_eq!(detection.violations.all_tids().len(), 2);
//! println!("{}", detection.summary());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use dcd_cfd::{Cfd, SimpleCfd, ViolationReport};
use dcd_core::runner::run_batch;
use dcd_core::{
    run_clust, run_hybrid, run_replicated, run_seq, CoordinatorStrategy, Detection, MiningConfig,
    RunConfig,
};
use dcd_dist::{
    HorizontalPartition, HybridPartition, ReplicatedPartition, SiteId, VerticalPartition,
};
use dcd_incr::{DeltaBatch, IncrementalRun, VerticalIncrementalRun};
use dcd_relation::{Relation, RelationError};
use dcd_vertical::{run_vertical, ShipMode};

/// Where the data lives: one of the four fragmentation schemes the
/// workspace detects over. Each variant owns its partition — a request
/// is a self-contained unit of work, the shape a service queue wants.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Horizontal fragments `Di = σ_Fi(D)` across sites (§II-B).
    Horizontal(HorizontalPartition),
    /// Vertical fragments `Di = π_{key ∪ Xi}(D)` (§II-B, §V).
    Vertical(VerticalPartition),
    /// Horizontal cells, each split vertically (§II-B; §VIII).
    Hybrid(HybridPartition),
    /// Horizontal fragments replicated by chained declustering (§VIII).
    Replicated(ReplicatedPartition),
}

impl Topology {
    /// Number of sites the topology spans.
    pub fn n_sites(&self) -> usize {
        match self {
            Topology::Horizontal(p) => p.n_sites(),
            Topology::Vertical(p) => p.n_sites(),
            Topology::Hybrid(p) => p.n_sites(),
            Topology::Replicated(p) => p.n_sites(),
        }
    }
}

impl From<HorizontalPartition> for Topology {
    fn from(p: HorizontalPartition) -> Self {
        Topology::Horizontal(p)
    }
}
impl From<VerticalPartition> for Topology {
    fn from(p: VerticalPartition) -> Self {
        Topology::Vertical(p)
    }
}
impl From<HybridPartition> for Topology {
    fn from(p: HybridPartition) -> Self {
        Topology::Hybrid(p)
    }
}
impl From<ReplicatedPartition> for Topology {
    fn from(p: ReplicatedPartition) -> Self {
        Topology::Replicated(p)
    }
}

/// How to detect: the paper's single-CFD algorithms (§IV-B) and the
/// multi-CFD ones (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `CTRDETECT`: one coordinator for the whole CFD.
    CtrDetect,
    /// `PATDETECTS`: per-pattern coordinators minimizing shipment.
    PatDetectS,
    /// `PATDETECTRT`: per-pattern coordinators minimizing the §III-B
    /// response-time estimate.
    PatDetectRT,
    /// `SEQDETECT`: pipelined one-CFD-at-a-time processing, each round
    /// run with the given single-CFD strategy.
    SeqDetect(CoordinatorStrategy),
    /// `CLUSTDETECT`: CFDs clustered by LHS containment, one shipment
    /// per tuple per cluster, rounds run with the given strategy.
    ClustDetect(CoordinatorStrategy),
}

impl Algorithm {
    /// `SEQDETECT` with its default inner strategy (`PATDETECTRT`, the
    /// paper's best general choice).
    pub fn seq_detect() -> Self {
        Algorithm::SeqDetect(CoordinatorStrategy::MinResponseTime)
    }

    /// `CLUSTDETECT` with its default inner strategy (`PATDETECTRT`).
    pub fn clust_detect() -> Self {
        Algorithm::ClustDetect(CoordinatorStrategy::MinResponseTime)
    }

    /// The coordinator strategy driving this algorithm's rounds.
    pub fn strategy(self) -> CoordinatorStrategy {
        match self {
            Algorithm::CtrDetect => CoordinatorStrategy::Central,
            Algorithm::PatDetectS => CoordinatorStrategy::MinShipment,
            Algorithm::PatDetectRT => CoordinatorStrategy::MinResponseTime,
            Algorithm::SeqDetect(inner) | Algorithm::ClustDetect(inner) => inner,
        }
    }
}

impl Default for Algorithm {
    /// `PATDETECTS` — the paper's shipment-minimizing default.
    fn default() -> Self {
        Algorithm::PatDetectS
    }
}

/// One detection request: a [`Topology`], the rules Σ, an
/// [`Algorithm`] and a [`RunConfig`] — everything a run needs, behind
/// one `run()`.
///
/// Built builder-style; see the [module docs](self) for an example.
/// With several CFDs and a single-CFD algorithm, the CFDs are
/// processed as sequential rounds over one shared ledger and clock set
/// (exactly how `SEQDETECT` pipelines); on vertical topologies the
/// [`ShipMode`] knob selects full or constant-filtered column
/// shipment, and on replicated ones the replica-aware `REPDETECT`
/// coordinator rule applies regardless of the algorithm's strategy.
#[derive(Debug, Clone)]
pub struct DetectRequest {
    topology: Topology,
    cfds: Vec<Cfd>,
    algorithm: Algorithm,
    config: RunConfig,
    ship_mode: ShipMode,
}

impl DetectRequest {
    /// Starts a request over a topology (any partition converts via
    /// [`From`]).
    pub fn over(topology: impl Into<Topology>) -> Self {
        DetectRequest {
            topology: topology.into(),
            cfds: Vec::new(),
            algorithm: Algorithm::default(),
            config: RunConfig::default(),
            ship_mode: ShipMode::Filtered,
        }
    }

    /// Adds one CFD to Σ.
    pub fn cfd(mut self, cfd: Cfd) -> Self {
        self.cfds.push(cfd);
        self
    }

    /// Adds every CFD of an iterator to Σ.
    pub fn cfds(mut self, cfds: impl IntoIterator<Item = Cfd>) -> Self {
        self.cfds.extend(cfds);
        self
    }

    /// Selects the detection algorithm (default: `PATDETECTS`).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the run configuration (cost model, compute mode, pool
    /// width).
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the vertical column-shipment mode (default:
    /// [`ShipMode::Filtered`]). Ignored by the other topologies.
    pub fn ship_mode(mut self, mode: ShipMode) -> Self {
        self.ship_mode = mode;
        self
    }

    /// The topology the request targets.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs the batch detection and returns the [`Detection`] — same
    /// violations, traffic and timing every engine reports, whatever
    /// the topology.
    ///
    /// How much of the [`Algorithm`] each topology honours:
    ///
    /// * **Horizontal** — fully (all five algorithms);
    /// * **Hybrid** — the algorithm's coordinator *strategy* drives
    ///   the per-CFD horizontal rounds across cells;
    ///   `SeqDetect(inner)` / `ClustDetect(inner)` reduce to
    ///   sequential rounds with `inner` (no cross-CFD clustering);
    /// * **Replicated** — the replica-aware `REPDETECT` coordinator
    ///   rule applies regardless of the algorithm;
    /// * **Vertical** — placement is fixed by column coverage; the
    ///   algorithm is ignored and [`ShipMode`] is the knob that
    ///   matters.
    pub fn run(self) -> Result<Detection, RelationError> {
        let cfg = self.config;
        match &self.topology {
            Topology::Horizontal(p) => match self.algorithm {
                Algorithm::SeqDetect(inner) => Ok(run_seq(p, &self.cfds, inner, &cfg)),
                Algorithm::ClustDetect(inner) => Ok(run_clust(p, &self.cfds, inner, &cfg)),
                single
                @ (Algorithm::CtrDetect | Algorithm::PatDetectS | Algorithm::PatDetectRT) => {
                    let simples: Vec<_> = self.cfds.iter().flat_map(Cfd::simplify).collect();
                    Ok(run_batch(p, &simples, single.strategy(), &cfg))
                }
            },
            Topology::Vertical(p) => run_vertical(p, &self.cfds, self.ship_mode, &cfg),
            Topology::Hybrid(p) => run_hybrid(p, &self.cfds, self.algorithm.strategy(), &cfg),
            Topology::Replicated(p) => Ok(run_replicated(p, &self.cfds, &cfg)),
        }
    }

    /// Opens an incremental session instead of running once: the
    /// initial index build ships code rows to a coordinator, after
    /// which [`IncrementalSession::apply_batch`] maintains the
    /// violation report per delta batch at a fraction of a re-run's
    /// cost. Supported over horizontal, replicated and vertical
    /// topologies; a hybrid topology returns an error (its gather
    /// recomputes per round — re-run the batch request instead).
    ///
    /// The session consumes the request: it owns the partition, which
    /// mutates as batches apply.
    pub fn session(self) -> Result<IncrementalSession, RelationError> {
        let cfg = self.config;
        match self.topology {
            Topology::Horizontal(p) => {
                Ok(IncrementalSession::Horizontal(IncrementalRun::new(p, &self.cfds, cfg)?))
            }
            Topology::Replicated(p) => Ok(IncrementalSession::Horizontal(
                IncrementalRun::new_replicated(&p, &self.cfds, cfg)?,
            )),
            Topology::Vertical(p) => {
                Ok(IncrementalSession::Vertical(VerticalIncrementalRun::new(p, &self.cfds, cfg)?))
            }
            Topology::Hybrid(_) => Err(RelationError::InvalidPartition {
                detail: "incremental sessions are not supported over hybrid topologies; \
                         re-run the batch DetectRequest after applying changes"
                    .into(),
            }),
        }
    }
}

/// A stateful detection session opened by [`DetectRequest::session`]:
/// the topology-appropriate incremental run behind one interface.
#[derive(Debug)]
pub enum IncrementalSession {
    /// A horizontal (or chained-declustering replicated) delta
    /// protocol run.
    Horizontal(IncrementalRun),
    /// A vertical (whole-tuple feed) delta protocol run.
    Vertical(VerticalIncrementalRun),
}

impl IncrementalSession {
    /// Applies one delta batch and returns the resulting report
    /// revision. Vertical sessions consume the batch as one site-order
    /// whole-tuple feed ([`DeltaBatch::flatten`]).
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<ViolationReport, RelationError> {
        match self {
            IncrementalSession::Horizontal(run) => Ok(run.apply_batch(batch)?.report),
            IncrementalSession::Vertical(run) => Ok(run.apply_batch(&batch.flatten())?.report),
        }
    }

    /// The current report revision (maintained, not recomputed).
    pub fn report(&self) -> ViolationReport {
        match self {
            IncrementalSession::Horizontal(run) => run.report(),
            IncrementalSession::Vertical(run) => run.report(),
        }
    }

    /// A [`Detection`] snapshot of the whole session so far: the live
    /// report plus the accumulated traffic, clocks and paper cost.
    pub fn detection(&self) -> Detection {
        match self {
            IncrementalSession::Horizontal(run) => run.detection(),
            IncrementalSession::Vertical(run) => run.detection(),
        }
    }

    /// The coordinator site holding the violation indices.
    pub fn coordinator(&self) -> SiteId {
        match self {
            IncrementalSession::Horizontal(run) => run.coordinator(),
            IncrementalSession::Vertical(run) => run.coordinator(),
        }
    }

    /// Reassembles the materialized relation (for comparison against
    /// centralized detection).
    pub fn materialize(&self) -> Result<Relation, RelationError> {
        match self {
            IncrementalSession::Horizontal(run) => run.materialize(),
            IncrementalSession::Vertical(run) => run.materialize(),
        }
    }

    /// Registers a compiled CFD for incremental mined-tableau
    /// maintenance (§IV-B refinement kept current under deltas): the
    /// per-site support counts are built once from the current
    /// fragments, then every [`Self::apply_batch`] adjusts them from
    /// the batch's affected code rows — `rows × masks` key updates
    /// instead of a full re-mine. Returns a handle for
    /// [`Self::mined_cfd`]. Horizontal (and replicated) sessions only;
    /// vertical sessions return an error (mining walks LHS item sets
    /// over horizontal fragments).
    pub fn track_mining(
        &mut self,
        cfd: &SimpleCfd,
        config: &MiningConfig,
    ) -> Result<usize, RelationError> {
        match self {
            IncrementalSession::Horizontal(run) => Ok(run.track_mining(cfd, config)),
            IncrementalSession::Vertical(_) => Err(RelationError::InvalidPartition {
                detail: "mined-tableau maintenance needs horizontal fragments; \
                         vertical sessions do not support track_mining"
                    .into(),
            }),
        }
    }

    /// The refined CFD derived from a tracked miner's maintained
    /// counts — bit-identical to re-mining the materialized fragments —
    /// plus the number of mined patterns.
    pub fn mined_cfd(&self, id: usize) -> (SimpleCfd, usize) {
        match self {
            IncrementalSession::Horizontal(run) => run.mined_cfd(id),
            IncrementalSession::Vertical(_) => {
                unreachable!("track_mining rejects vertical sessions, so no id can exist")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<dcd_relation::Schema> {
        Schema::builder("r")
            .attr("id", ValueType::Int)
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        i,
                        if i % 3 == 0 { 44 } else { 31 },
                        format!("z{}", i % 5),
                        format!("s{}", i % 4)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn one_request_shape_over_every_topology() {
        let rel = sample(60);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.tids.is_empty());
        let horizontal = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let topologies: Vec<Topology> = vec![
            horizontal.clone().into(),
            VerticalPartition::by_attribute_groups(&rel, &[&["cc", "zip"], &["street"]])
                .unwrap()
                .into(),
            HybridPartition::new(&horizontal, &[&["cc", "zip"], &["street"]]).unwrap().into(),
            ReplicatedPartition::chained(horizontal.clone(), 2).unwrap().into(),
        ];
        for topology in topologies {
            let label = format!("{topology:?}");
            let d = DetectRequest::over(topology).cfd(cfd.clone()).run().unwrap();
            assert_eq!(d.violations.all_tids(), global.tids, "{}", &label[..30.min(label.len())]);
        }
    }

    #[test]
    fn algorithms_map_to_their_strategies_and_labels() {
        let rel = sample(40);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        for (alg, label) in [
            (Algorithm::CtrDetect, "CTRDETECT"),
            (Algorithm::PatDetectS, "PATDETECTS"),
            (Algorithm::PatDetectRT, "PATDETECTRT"),
            (Algorithm::seq_detect(), "SEQDETECT"),
            (Algorithm::clust_detect(), "CLUSTDETECT"),
        ] {
            let d = DetectRequest::over(partition.clone())
                .cfd(cfd.clone())
                .algorithm(alg)
                .run()
                .unwrap();
            assert_eq!(d.algorithm, label);
        }
    }

    #[test]
    fn session_maintains_report_under_deltas() {
        use dcd_relation::{RelationDelta, Tuple, TupleId};
        let rel = sample(20);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let mut session =
            DetectRequest::over(partition).cfd(cfd.clone()).session().expect("session opens");
        // Insert a fresh conflict at site 0.
        let batch = DeltaBatch::new(vec![
            RelationDelta::new(vec![Tuple::new(TupleId(100), vals![100, 44, "z0", "sX"])], vec![]),
            RelationDelta::default(),
        ]);
        session.apply_batch(&batch).unwrap();
        let rel_now = session.materialize().unwrap();
        let global = dcd_cfd::detect(&rel_now, &cfd);
        assert_eq!(session.report().all_tids(), global.tids);
        assert_eq!(session.detection().algorithm, dcd_incr::ALGORITHM);
    }

    #[test]
    fn hybrid_sessions_are_rejected() {
        let rel = sample(12);
        let horizontal = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let hybrid = HybridPartition::new(&horizontal, &[&["cc", "zip"], &["street"]]).unwrap();
        let err = DetectRequest::over(hybrid).session();
        assert!(err.is_err());
    }
}
