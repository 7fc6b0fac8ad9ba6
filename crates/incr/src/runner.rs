//! The distributed delta protocol: stateful incremental detection runs.
//!
//! A run owns the (mutating) partition, one [`ViolationIndex`] per
//! compiled CFD at a fixed *coordinator* site, and the same [`Run`]
//! every batch detector carries — ledger, per-site clocks and
//! observer. Each delta batch is one protocol round:
//!
//! 1. **Apply** — every site applies its local delta
//!    ([`Relation::apply_delta`](dcd_relation::Relation::apply_delta)),
//!    in parallel on the [`dcd_dist::pool`], charged per site like the
//!    batch detectors' scan phases;
//! 2. **Manifest** — each participating site sends the coordinator one
//!    control message (`8·k` bytes, its per-CFD touch counts), charged
//!    [`CostModel::control_time`](dcd_dist::CostModel::control_time);
//! 3. **Ship** — sites ship only `(tid, codes)` delta rows:
//!    `arity + 2` cells per insert (the id rides as [`TID_CELLS`] code
//!    cells) and `2` cells per delete, byte-accurate at 4 bytes/cell
//!    via [`ShipmentLedger::charge_codes`](dcd_dist::ShipmentLedger::charge_codes);
//!    receivers wait for senders through
//!    [`SiteClocks::transfer`](dcd_dist::SiteClocks::transfer);
//! 4. **Maintain** — the coordinator updates every index (in parallel
//!    per CFD on the pool) and re-validates only the touched keys,
//!    charged `check_time` of the members re-examined, in CFD order.
//!
//! Each round yields a [`RoundOutput`] — the same shape the batch
//! detectors produce — whose report is the *full* current report
//! revision, proptest-pinned identical to full re-detection on the
//! materialized state, and whose `paper_cost` is the §III-B formula of
//! that round alone.
//!
//! Replication (chained declustering) reduces coordinator traffic — a
//! fragment the coordinator holds a replica of ships nothing — but
//! adds replica-synchronization traffic from each origin site to the
//! other holders of its fragment. Vertical partitions ship only each
//! site's *owned* columns (first-covering-fragment rule), plus the
//! tuple id to align rows at the coordinator.
//!
//! Determinism contract (same as the batch detectors): within the
//! parallel phases each site's clock is advanced by exactly one task,
//! coordinator charges are applied in CFD order after the pool joins,
//! and all merges run in site order — every output (reports, ledger
//! totals, paper cost, per-site clocks) is bit-identical for every
//! pool width.

use crate::delta::DeltaBatch;
use crate::index::ViolationIndex;
use dcd_cfd::{Cfd, ViolationReport};
use dcd_core::report::Detection;
use dcd_core::run::{PhaseClocks, Run};
use dcd_core::runner::RoundOutput;
use dcd_core::{MinedTableau, MiningConfig, RunConfig};
use dcd_dist::pool::scoped_map;
use dcd_dist::{
    chained_holds as holds, Fragment, HorizontalPartition, ReplicatedPartition, SiteId,
    VerticalPartition,
};
use dcd_relation::{
    AttrId, DeltaEffect, Dictionary, FxHashSet, Relation, RelationDelta, RelationError, Tuple,
    TupleId,
};
use std::sync::{Arc, Mutex};

/// Wire cells occupied by one 8-byte tuple id in the code-shipped
/// protocol (two `u32` cells) — re-exported from the ledger, which all
/// code-shipping protocols (batch and incremental) share.
pub use dcd_dist::TID_CELLS;

/// The algorithm label incremental detections carry.
pub const ALGORITHM: &str = "INCRDETECT";

/// A site's encoded wire payload: `(tid, full-width code row)` pairs.
type CodeRows = Vec<(TupleId, Box<[u32]>)>;

fn shared_dictionaries(fragments: &[Fragment]) -> Result<Vec<Arc<Dictionary>>, RelationError> {
    let first = &fragments[0].data;
    let dicts: Vec<Arc<Dictionary>> = first.columns().iter().map(|c| c.dict().clone()).collect();
    for frag in &fragments[1..] {
        for (a, col) in frag.data.columns().iter().enumerate() {
            if !Arc::ptr_eq(col.dict(), &dicts[a]) {
                return Err(RelationError::SchemaMismatch {
                    detail: format!(
                        "fragment at {} does not share the partition dictionaries \
                         (attribute {a}); the cross-site index needs code-compatible \
                         fragments — build the partition through the dcd-dist \
                         constructors",
                        frag.site
                    ),
                });
            }
        }
    }
    Ok(dicts)
}

/// A stateful incremental detection run over a horizontal partition
/// (optionally replicated by chained declustering).
///
/// Construction performs the one-off index build: every site scans and
/// ships its fragment *as code rows* to the coordinator (already far
/// cheaper than value shipping), after which [`Self::apply_batch`]
/// maintains the violation report per delta batch. All accounting
/// (the [`Run`] and the paper cost) accumulates across the run, exactly
/// like `SEQDETECT` pipelines rounds.
#[derive(Debug)]
pub struct IncrementalRun {
    partition: HorizontalPartition,
    /// Chained-declustering replication factor (1 = no replication).
    factor: usize,
    indices: Vec<ViolationIndex>,
    /// Incrementally-maintained mined tableaux (see
    /// [`Self::track_mining`]); empty unless mining is tracked.
    miners: Vec<MinedTableau>,
    coordinator: SiteId,
    run: Run,
    paper_cost: f64,
    rounds: usize,
}

impl IncrementalRun {
    /// Builds the run over a plain horizontal partition: picks the
    /// coordinator (the site holding the most tuples, ties to the
    /// smallest id — the `CTRDETECT` rule), ships every fragment's code
    /// rows there, and builds one violation index per compiled CFD.
    pub fn new(
        partition: HorizontalPartition,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        Self::build(partition, 1, sigma, cfg)
    }

    /// Builds the run over a replicated partition. The coordinator
    /// reads every fragment it holds a replica of locally — only
    /// non-replicated fragments ship their code rows — and delta
    /// rounds charge replica-synchronization traffic from each origin
    /// site to the other holders of its fragment.
    pub fn new_replicated(
        partition: &ReplicatedPartition,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        Self::build(partition.base().clone(), partition.factor(), sigma, cfg)
    }

    fn build(
        partition: HorizontalPartition,
        factor: usize,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        let n = partition.n_sites();
        let dicts = shared_dictionaries(partition.fragments())?;
        let arity = partition.schema().arity();
        let sizes: Vec<usize> = partition.fragments().iter().map(|f| f.data.len()).collect();
        let coordinator = SiteId((0..n).max_by_key(|&i| (sizes[i], n - i)).expect("n ≥ 1") as u32);
        let run = Run::new(n, cfg);
        let mut local_secs = vec![0.0_f64; n];

        // Phase 1: every site scans its fragment once, encoding the
        // (tid, codes) rows it will ship (parallel).
        let encoded: Vec<(CodeRows, f64)> = run.phase("incr:build-scan", |clk| {
            scoped_map(cfg.threads, n, |i| {
                let frag = &partition.fragments()[i];
                if sizes[i] == 0 {
                    return (Vec::new(), 0.0);
                }
                let rows = fragment_code_rows(&frag.data);
                (rows, clk.charge(frag.site, cfg.cost.scan_time(sizes[i])))
            })
        });
        let mut rows: CodeRows = Vec::with_capacity(sizes.iter().sum());
        for (i, (site_rows, secs)) in encoded.into_iter().enumerate() {
            local_secs[i] += secs;
            rows.extend(site_rows);
        }

        // Phase 2: code rows travel to the coordinator — except from
        // fragments it already holds a replica of.
        let mut matrix = vec![vec![0usize; n]; n];
        run.phase("incr:build-ship", |clk| {
            for (i, frag) in partition.fragments().iter().enumerate() {
                if sizes[i] == 0 || holds(n, factor, coordinator.index(), i) {
                    continue;
                }
                let cells = sizes[i] * (arity + TID_CELLS);
                run.ledger().charge_codes(coordinator, frag.site, sizes[i], cells);
                matrix[coordinator.index()][i] = sizes[i];
            }
            clk.transfer(&matrix);
        });

        // Phase 3: index build at the coordinator, in parallel per CFD,
        // charged in CFD order.
        let cfds: Vec<_> = sigma.iter().flat_map(Cfd::simplify).collect();
        let mut indices: Vec<ViolationIndex> =
            cfds.into_iter().map(|cfd| ViolationIndex::new(cfd, &dicts)).collect();
        let coord_secs = &mut local_secs[coordinator.index()];
        run.phase("incr:build-index", |clk| {
            maintain(&run, clk, coordinator, &mut indices, &[], &rows, coord_secs)
        });

        let paper_cost = cfg.cost.paper_cost(&matrix, &local_secs);
        Ok(IncrementalRun {
            partition,
            factor,
            indices,
            miners: Vec::new(),
            coordinator,
            run,
            paper_cost,
            rounds: 0,
        })
    }

    /// Applies one delta batch — one round of the protocol — and
    /// returns the resulting report revision plus that round's §III-B
    /// cost.
    ///
    /// An error (unknown delete id, ill-typed insert) aborts the round;
    /// because sites apply in parallel, other sites may already have
    /// applied their deltas, so a failed round leaves the run unusable
    /// — treat errors as fatal, as a production ingest pipeline would.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<RoundOutput, RelationError> {
        let n = self.partition.n_sites();
        if batch.per_site.len() != n {
            return Err(RelationError::InvalidPartition {
                detail: format!(
                    "delta batch covers {} sites, partition has {n}",
                    batch.per_site.len()
                ),
            });
        }
        // Cross-site id uniqueness: per-site apply_delta can only see
        // its own fragment, but the index keys on ids being unique
        // across the *whole* partition — a cross-site collision would
        // silently corrupt it. Checked before anything mutates, so a
        // bad batch is rejected cleanly.
        let mut insert_ids: FxHashSet<TupleId> = FxHashSet::default();
        for d in &batch.per_site {
            for t in &d.inserts {
                if !insert_ids.insert(t.tid) {
                    return Err(RelationError::DuplicateTuple { tid: t.tid.0 });
                }
            }
        }
        if !insert_ids.is_empty() {
            let deleted: FxHashSet<TupleId> =
                batch.per_site.iter().flat_map(|d| d.deletes.iter().copied()).collect();
            for frag in self.partition.fragments() {
                for t in frag.data.iter() {
                    if insert_ids.contains(&t.tid) && !deleted.contains(&t.tid) {
                        return Err(RelationError::DuplicateTuple { tid: t.tid.0 });
                    }
                }
            }
        }
        self.rounds += 1;
        let cfg = *self.run.cfg();
        let arity = self.partition.schema().arity();
        let coordinator = self.coordinator;
        let factor = self.factor;
        let mut local_secs = vec![0.0_f64; n];
        let round_start = self.run.response_time();
        let ops: usize = batch.per_site.iter().map(|d| d.n_ops()).sum();
        self.run
            .registry()
            .counter("dcd_incr_deltas_applied_total", "Delta operations applied across sites", &[])
            .inc(ops as u64);

        // Phase 1: apply at every site, in parallel (one task per
        // site; each task owns its fragment through the mutex).
        let outcomes: Vec<Result<(DeltaEffect, f64), RelationError>> =
            self.run.phase("incr:apply", |clk| {
                let tasks: Vec<Mutex<(&mut Fragment, &RelationDelta)>> = self
                    .partition
                    .fragments_mut()
                    .iter_mut()
                    .zip(&batch.per_site)
                    .map(Mutex::new)
                    .collect();
                scoped_map(cfg.threads, n, |i| {
                    let mut slot = tasks[i].lock().expect("apply slot poisoned");
                    let (frag, delta) = &mut *slot;
                    if delta.is_empty() {
                        return Ok((DeltaEffect::default(), 0.0));
                    }
                    // apply_delta scans the fragment once (delete lookup
                    // and insert-id uniqueness) plus per-op interning.
                    let scan_rows = frag.data.len() + delta.n_ops();
                    let applied = frag.data.apply_delta(delta);
                    let secs = clk.charge(frag.site, cfg.cost.scan_time(scan_rows));
                    applied.map(|e| (e, secs))
                })
            });
        let mut effects: Vec<DeltaEffect> = Vec::with_capacity(n);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let (effect, secs) = outcome?;
            local_secs[i] += secs;
            effects.push(effect);
        }

        // Phase 2: delta manifests (one control message per
        // participating non-coordinator site).
        let k = self.indices.len();
        self.run.phase("incr:manifest", |clk| {
            for (i, effect) in effects.iter().enumerate() {
                if effect.is_empty() || i == coordinator.index() {
                    continue;
                }
                self.run.ledger().control(coordinator, SiteId(i as u32), 8 * k);
                clk.charge(SiteId(i as u32), cfg.cost.control_time(1));
            }
        });

        // Phase 3: ship (tid, codes) delta rows — to the other replica
        // holders (synchronization) and to the coordinator unless it
        // holds a replica of the origin fragment.
        let mut matrix = vec![vec![0usize; n]; n];
        self.run.phase("incr:ship", |clk| {
            let ledger = self.run.ledger();
            for (i, effect) in effects.iter().enumerate() {
                if effect.is_empty() {
                    continue;
                }
                let rows = effect.n_rows();
                let cells =
                    effect.inserted.len() * (arity + TID_CELLS) + effect.deleted.len() * TID_CELLS;
                let from = SiteId(i as u32);
                for (h, row) in matrix.iter_mut().enumerate() {
                    if h != i && holds(n, factor, h, i) {
                        ledger.charge_codes(SiteId(h as u32), from, rows, cells);
                        row[i] += rows;
                    }
                }
                if !holds(n, factor, coordinator.index(), i) {
                    ledger.charge_codes(coordinator, from, rows, cells);
                    matrix[coordinator.index()][i] += rows;
                }
            }
            clk.transfer(&matrix);
        });

        // Mined-tableau maintenance: each site adjusts its tracked
        // support counts from its own effect — `rows × masks` key
        // updates instead of the `fragment × masks` scan a re-mine
        // costs. Site order, then miner order, keeps the f64 sums
        // deterministic.
        self.run.phase("incr:mine", |clk| {
            for (i, effect) in effects.iter().enumerate() {
                if effect.is_empty() {
                    continue;
                }
                for miner in &mut self.miners {
                    let secs = cfg.cost.scan_time(effect.n_rows()) * miner.n_masks() as f64;
                    miner.apply_site_effect(i, effect);
                    local_secs[i] += clk.charge(SiteId(i as u32), secs);
                }
            }
        });

        // Phase 4: index maintenance at the coordinator (parallel per
        // CFD, charged in CFD order).
        let deletes: Vec<TupleId> =
            effects.iter().flat_map(|e| e.deleted.iter().map(|&(t, _)| t)).collect();
        let inserts: Vec<(TupleId, Box<[u32]>)> =
            effects.into_iter().flat_map(|e| e.inserted).collect();
        let coord_secs = &mut local_secs[coordinator.index()];
        self.run.phase("incr:maintain", |clk| {
            maintain(&self.run, clk, coordinator, &mut self.indices, &deletes, &inserts, coord_secs)
        });
        observe_lag(&self.run, round_start);

        let round_cost = cfg.cost.paper_cost(&matrix, &local_secs);
        self.paper_cost += round_cost;
        Ok(RoundOutput { report: self.report(), paper_cost: round_cost })
    }

    /// The current report revision: one entry per compiled CFD, in CFD
    /// order, identical to full re-detection on the materialized state.
    pub fn report(&self) -> ViolationReport {
        current_report(&self.indices)
    }

    /// A [`Detection`] snapshot of the whole run so far: the live
    /// report plus the accumulated traffic, clocks and paper cost.
    pub fn detection(&self) -> Detection {
        self.run.detection(ALGORITHM, self.report(), self.paper_cost)
    }

    /// The materialized partition (fragments mutate as batches apply).
    pub fn partition(&self) -> &HorizontalPartition {
        &self.partition
    }

    /// Reassembles the materialized relation (for comparison against
    /// centralized detection).
    pub fn materialize(&self) -> Result<Relation, RelationError> {
        self.partition.reassemble()
    }

    /// The coordinator site holding the cross-site violation index.
    pub fn coordinator(&self) -> SiteId {
        self.coordinator
    }

    /// Number of delta batches applied so far (the build is round 0).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total members re-validated is not tracked across rounds, but the
    /// index sizes are visible for diagnostics: distinct keys per CFD.
    pub fn index_key_counts(&self) -> Vec<usize> {
        self.indices.iter().map(ViolationIndex::key_count).collect()
    }

    /// Registers `cfd` for incremental mined-tableau maintenance: the
    /// per-site support counts are built once from the current
    /// fragments (charged like a full mine, `scan × masks` per site),
    /// then kept current by every subsequent [`Self::apply_batch`] at
    /// `rows × masks` key updates instead of a re-mine. Returns a
    /// handle for [`Self::mined_cfd`].
    pub fn track_mining(&mut self, cfd: &dcd_cfd::SimpleCfd, config: &MiningConfig) -> usize {
        let miner = self.run.phase("incr:mine-build", |clk| {
            let mut miner = MinedTableau::build(&self.partition, cfd, config);
            miner.set_counter(self.run.registry().counter(
                "dcd_mining_mask_updates_total",
                "Per-mask support-count updates applied by incremental mining maintenance",
                &[],
            ));
            let cost = &self.run.cfg().cost;
            for (i, frag) in self.partition.fragments().iter().enumerate() {
                let n = frag.data.len();
                if n > 0 {
                    clk.charge(SiteId(i as u32), cost.scan_time(n) * miner.n_masks() as f64);
                }
            }
            miner
        });
        self.miners.push(miner);
        self.miners.len() - 1
    }

    /// The refined CFD derived from miner `id`'s *maintained* counts —
    /// bit-identical to re-mining the materialized fragments — plus the
    /// number of mined patterns.
    pub fn mined_cfd(&self, id: usize) -> (dcd_cfd::SimpleCfd, usize) {
        self.miners[id].refine()
    }
}

/// The (tid, full-width code row) wire payload of one relation — what
/// a site serializes when shipping its rows to the coordinator.
fn fragment_code_rows(rel: &Relation) -> CodeRows {
    (0..rel.len())
        .map(|i| {
            let codes: Box<[u32]> = rel.columns().iter().map(|c| c.codes()[i]).collect();
            (rel.tuples()[i].tid, codes)
        })
        .collect()
}

/// Assembles the current report revision: one entry per compiled CFD,
/// in CFD order (shared by both run types).
fn current_report(indices: &[ViolationIndex]) -> ViolationReport {
    let mut report = ViolationReport::default();
    for idx in indices {
        report.absorb(&idx.cfd().name, idx.snapshot());
    }
    report
}

/// Applies `deletes` and `inserts` to every index — one pool task per
/// CFD — and charges the coordinator `check_time` of each index's
/// re-examined members in CFD order, so its clock and `local_secs` see
/// the same f64 additions for every pool width (shared by both run
/// types' build and maintenance phases).
fn maintain(
    run: &Run,
    clk: &PhaseClocks<'_>,
    coordinator: SiteId,
    indices: &mut [ViolationIndex],
    deletes: &[TupleId],
    inserts: &[(TupleId, Box<[u32]>)],
    local_secs: &mut f64,
) {
    let slots: Vec<Mutex<&mut ViolationIndex>> = indices.iter_mut().map(Mutex::new).collect();
    let touched = scoped_map(run.cfg().threads, slots.len(), |c| {
        slots[c].lock().expect("index slot poisoned").apply(deletes, inserts)
    });
    for &t in &touched {
        *local_secs += clk.charge(coordinator, run.cfg().cost.check_time(t));
    }
    run.registry()
        .counter(
            "dcd_incr_keys_revalidated_total",
            "Index members re-examined during incremental maintenance",
            &[],
        )
        .inc(touched.iter().map(|&t| t as u64).sum());
}

/// Records one batch's delta lag — simulated seconds from round start
/// to now — into the run's lag histogram (integer microseconds, so
/// merges stay order-free).
fn observe_lag(run: &Run, start: f64) {
    run.registry()
        .histogram(
            "dcd_incr_delta_lag_micros",
            "Simulated delta lag per batch, in microseconds",
            &[],
            &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
        )
        .observe(((run.response_time() - start) * 1e6) as u64);
}

/// A stateful incremental run over a *vertical* partition.
///
/// The delta feed carries whole tuples and reaches every site (each
/// applies its projection locally, CDC fan-out style — ingress is not
/// inter-site traffic). Sites then ship the codes of the attributes
/// they *own* (first-covering-fragment rule) plus the row-aligning
/// tuple id to the coordinator — the fragment owning the most
/// attributes, so the heaviest column group never travels. Delete
/// notifications are part of the feed itself, so only insert codes move
/// between sites.
#[derive(Debug)]
pub struct VerticalIncrementalRun {
    partition: VerticalPartition,
    /// `(owning fragment, local column)` per original attribute — the
    /// first fragment covering it.
    placement: Vec<(usize, AttrId)>,
    /// Attributes owned per fragment.
    owned_count: Vec<usize>,
    indices: Vec<ViolationIndex>,
    coordinator: SiteId,
    run: Run,
    paper_cost: f64,
    rounds: usize,
}

impl VerticalIncrementalRun {
    /// Builds the run: assigns attribute ownership, picks the
    /// coordinator, ships every non-coordinator fragment's owned
    /// columns as code rows, and builds the per-CFD indices.
    pub fn new(
        partition: VerticalPartition,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        let n = partition.n_sites();
        let arity = partition.schema().arity();
        let mut placement = Vec::with_capacity(arity);
        let mut owned_count = vec![0usize; n];
        for a in partition.schema().attr_ids() {
            let f = partition
                .fragments()
                .iter()
                .position(|fr| fr.covers(&[a]))
                .expect("coverage is validated at construction");
            let local = partition.fragments()[f].local_attr(a).expect("covered");
            placement.push((f, local));
            owned_count[f] += 1;
        }
        let coordinator =
            SiteId((0..n).max_by_key(|&f| (owned_count[f], n - f)).expect("n ≥ 1") as u32);
        let dicts: Vec<Arc<Dictionary>> = placement
            .iter()
            .map(|&(f, local)| partition.fragments()[f].data.dictionary(local).clone())
            .collect();
        let run = Run::new(n, cfg);
        let mut local_secs = vec![0.0_f64; n];
        let n_rows = partition.fragments()[0].data.len();

        // Per-site encode scan: each fragment materializes its local
        // code rows — its wire payload.
        let encoded: Vec<(Vec<Box<[u32]>>, f64)> = run.phase("incr:build-scan", |clk| {
            scoped_map(cfg.threads, n, |f| {
                let data = &partition.fragments()[f].data;
                if data.is_empty() {
                    return (Vec::new(), 0.0);
                }
                let rows: Vec<Box<[u32]>> = (0..data.len())
                    .map(|r| data.columns().iter().map(|c| c.codes()[r]).collect())
                    .collect();
                (rows, clk.charge(SiteId(f as u32), cfg.cost.scan_time(data.len())))
            })
        });
        let mut site_rows: Vec<Vec<Box<[u32]>>> = Vec::with_capacity(n);
        for (f, (rows, secs)) in encoded.into_iter().enumerate() {
            local_secs[f] += secs;
            site_rows.push(rows);
        }

        // Owned columns travel to the coordinator.
        let mut matrix = vec![vec![0usize; n]; n];
        run.phase("incr:build-ship", |clk| {
            for f in 0..n {
                if f == coordinator.index() || n_rows == 0 || owned_count[f] == 0 {
                    continue;
                }
                let cells = n_rows * (owned_count[f] + TID_CELLS);
                run.ledger().charge_codes(coordinator, SiteId(f as u32), n_rows, cells);
                matrix[coordinator.index()][f] = n_rows;
            }
            clk.transfer(&matrix);
        });

        // Assemble full code rows by row alignment (each attribute read
        // from its owner's encoded payload) and build indices.
        let rows: Vec<(TupleId, Box<[u32]>)> = (0..n_rows)
            .map(|r| {
                let tid = partition.fragments()[0].data.tuples()[r].tid;
                let codes: Box<[u32]> =
                    placement.iter().map(|&(f, local)| site_rows[f][r][local.index()]).collect();
                (tid, codes)
            })
            .collect();
        let cfds: Vec<_> = sigma.iter().flat_map(Cfd::simplify).collect();
        let mut indices: Vec<ViolationIndex> =
            cfds.into_iter().map(|cfd| ViolationIndex::new(cfd, &dicts)).collect();
        let coord_secs = &mut local_secs[coordinator.index()];
        run.phase("incr:build-index", |clk| {
            maintain(&run, clk, coordinator, &mut indices, &[], &rows, coord_secs)
        });

        let paper_cost = cfg.cost.paper_cost(&matrix, &local_secs);
        Ok(VerticalIncrementalRun {
            partition,
            placement,
            owned_count,
            indices,
            coordinator,
            run,
            paper_cost,
            rounds: 0,
        })
    }

    /// Applies one whole-tuple delta (the same feed reaches every
    /// site; each applies its projection) and returns the report
    /// revision. Error handling matches
    /// [`IncrementalRun::apply_batch`]: a failed round is fatal.
    pub fn apply_batch(&mut self, delta: &RelationDelta) -> Result<RoundOutput, RelationError> {
        let n = self.partition.n_sites();
        self.rounds += 1;
        let cfg = *self.run.cfg();
        let coordinator = self.coordinator;
        let mut local_secs = vec![0.0_f64; n];
        if delta.is_empty() {
            return Ok(RoundOutput { report: self.report(), paper_cost: 0.0 });
        }
        let round_start = self.run.response_time();
        self.run
            .registry()
            .counter("dcd_incr_deltas_applied_total", "Delta operations applied across sites", &[])
            .inc(delta.n_ops() as u64);

        // Phase 1: every site applies its projection of the delta.
        let outcomes: Vec<Result<(DeltaEffect, f64), RelationError>> =
            self.run.phase("incr:apply", |clk| {
                let tasks: Vec<Mutex<&mut dcd_dist::VFragment>> =
                    self.partition.fragments_mut().iter_mut().map(Mutex::new).collect();
                scoped_map(cfg.threads, n, |f| {
                    let mut slot = tasks[f].lock().expect("apply slot poisoned");
                    let frag = &mut *slot;
                    let projected = RelationDelta::new(
                        delta
                            .inserts
                            .iter()
                            .map(|t| Tuple::new(t.tid, t.project(&frag.attrs)))
                            .collect(),
                        delta.deletes.clone(),
                    );
                    // apply_delta scans the fragment once (delete lookup
                    // and insert-id uniqueness) plus per-op interning.
                    let scan_rows = frag.data.len() + projected.n_ops();
                    let applied = frag.data.apply_delta(&projected);
                    let secs = clk.charge(frag.site, cfg.cost.scan_time(scan_rows));
                    applied.map(|e| (e, secs))
                })
            });
        let mut effects: Vec<DeltaEffect> = Vec::with_capacity(n);
        for (f, outcome) in outcomes.into_iter().enumerate() {
            let (effect, secs) = outcome?;
            local_secs[f] += secs;
            effects.push(effect);
        }

        // Phase 2 + 3: manifests and owned-column shipment for the
        // inserted rows (delete ids are already part of the feed), from
        // every non-coordinator site owning attributes.
        let k = self.indices.len();
        let n_inserts = delta.inserts.len();
        let senders: Vec<(SiteId, usize)> = (0..n)
            .filter(|&f| f != coordinator.index() && n_inserts > 0 && self.owned_count[f] > 0)
            .map(|f| (SiteId(f as u32), self.owned_count[f]))
            .collect();
        self.run.phase("incr:manifest", |clk| {
            for &(site, _) in &senders {
                self.run.ledger().control(coordinator, site, 8 * k);
                clk.charge(site, cfg.cost.control_time(1));
            }
        });
        let mut matrix = vec![vec![0usize; n]; n];
        self.run.phase("incr:ship", |clk| {
            for &(site, owned) in &senders {
                let cells = n_inserts * (owned + TID_CELLS);
                self.run.ledger().charge_codes(coordinator, site, n_inserts, cells);
                matrix[coordinator.index()][site.index()] = n_inserts;
            }
            clk.transfer(&matrix);
        });

        // Phase 4: assemble full insert rows from the per-site effects
        // (rows align across fragments — same deletes, same insert
        // order) and maintain the indices.
        let inserts: Vec<(TupleId, Box<[u32]>)> = (0..n_inserts)
            .map(|r| {
                let (tid, _) = effects[0].inserted[r];
                let codes: Box<[u32]> = self
                    .placement
                    .iter()
                    .map(|&(f, local)| {
                        debug_assert_eq!(effects[f].inserted[r].0, tid, "fragments aligned");
                        effects[f].inserted[r].1[local.index()]
                    })
                    .collect();
                (tid, codes)
            })
            .collect();
        let coord_secs = &mut local_secs[coordinator.index()];
        self.run.phase("incr:maintain", |clk| {
            let (run, indices) = (&self.run, &mut self.indices);
            maintain(run, clk, coordinator, indices, &delta.deletes, &inserts, coord_secs)
        });
        observe_lag(&self.run, round_start);

        let round_cost = cfg.cost.paper_cost(&matrix, &local_secs);
        self.paper_cost += round_cost;
        Ok(RoundOutput { report: self.report(), paper_cost: round_cost })
    }

    /// The current report revision.
    pub fn report(&self) -> ViolationReport {
        current_report(&self.indices)
    }

    /// A [`Detection`] snapshot of the whole run so far.
    pub fn detection(&self) -> Detection {
        self.run.detection(ALGORITHM, self.report(), self.paper_cost)
    }

    /// The materialized vertical partition.
    pub fn partition(&self) -> &VerticalPartition {
        &self.partition
    }

    /// Reassembles the materialized relation.
    pub fn materialize(&self) -> Result<Relation, RelationError> {
        self.partition.reassemble()
    }

    /// The coordinator site.
    pub fn coordinator(&self) -> SiteId {
        self.coordinator
    }

    /// Owning fragment per original attribute (derived from the
    /// placement table, the single source of ownership truth).
    pub fn owners(&self) -> Vec<usize> {
        self.placement.iter().map(|&(f, _)| f).collect()
    }
}
