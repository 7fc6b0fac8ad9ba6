//! The three workloads: inputs built from a seed, the one timed call per
//! op, and the correctness check every op's output goes through.
//!
//! All three run cust16 at 160k rows (the paper's size × 0.1) with 2%
//! errors on `street` and on `city`:
//!
//! * `cust-batch` — 8 round-robin sites, the 255-pattern main CFD,
//!   `PATDETECTS` through `DetectRequest::run`;
//! * `cust-stream` — the same partition as an incremental session over
//!   the main CFD plus the CUST rule set, tracking one mined tableau,
//!   fed 1000-change batches (half inserts, so the state stays level);
//! * `cust-vertical` — three column groups, `ShipMode::Filtered`, the
//!   CUST rule set (one rule local to a group, two needing the tid-join).

use crate::probe;
use distributed_cfd::cfd::{detect_set, Cfd, SimpleCfd, ViolationReport, ViolationSet};
use distributed_cfd::core::{ComputeModel, Detection, MiningConfig, RunConfig};
use distributed_cfd::datagen::cust::{cust_cfds, cust_main_cfd, CustConfig};
use distributed_cfd::datagen::{inject_errors, update_stream, UpdateStreamConfig};
use distributed_cfd::dist::{CostModel, HorizontalPartition, VerticalPartition};
use distributed_cfd::incr::DeltaBatch;
use distributed_cfd::obs::SampleValue;
use distributed_cfd::relation::Relation;
use distributed_cfd::vertical::ShipMode;
use distributed_cfd::{Algorithm, DetectRequest, IncrementalSession};
use std::collections::BTreeMap;
use std::time::Instant;

/// Horizontal sites of `cust-batch` and `cust-stream`.
pub const SITES: usize = 8;
/// Pool width of every run. Fixed here, never read from the
/// environment, so `DCD_THREADS` cannot change the workload.
pub const THREADS: usize = 2;
/// Tableau size of the main CFD (the paper's largest).
pub const MAIN_PATTERNS: usize = 255;
/// Share of tuples corrupted on `street` and again on `city`.
pub const ERROR_RATE: f64 = 0.02;
/// Column groups of `cust-vertical` (the key `id` joins each group).
/// `cust_ac_city` is local to the first group; `cust_zip_street` and
/// `cust_title_price` need `CC` from it, so they take the tid-join.
pub const VERTICAL_GROUPS: [&[&str]; 3] = [
    &["name", "CC", "AC", "phn", "city"],
    &["zip", "street"],
    &["item_title", "item_price", "item_qty"],
];
/// The stream re-checks against centralized detection every this many
/// batches (and after the last one).
pub const STREAM_CHECK_EVERY: usize = 50;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `cust-batch`.
    Batch,
    /// `cust-stream`.
    Stream,
    /// `cust-vertical`.
    Vertical,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Batch, Kind::Stream, Kind::Vertical];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Batch => "cust-batch",
            Kind::Stream => "cust-stream",
            Kind::Vertical => "cust-vertical",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Sizes of one run. [`Params::standard`] is what the benchmark runs;
/// tests use smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tuples generated.
    pub rows: usize,
    /// Pool width.
    pub threads: usize,
    /// Delta batches `cust-stream` generates at a time: the first chunk
    /// in setup, each later one from the session's live fragments when
    /// the previous one runs out (untimed).
    pub stream_chunk: usize,
    /// Changes per delta batch.
    pub batch_ops: usize,
    /// Ops after the open whose exact rows (bytes, simulated seconds,
    /// counters) are reported, so they repeat whatever the run length.
    pub exact_ops: usize,
}

impl Params {
    /// The benchmark's configuration.
    pub fn standard() -> Self {
        Params {
            rows: 160_000,
            threads: THREADS,
            stream_chunk: 100,
            batch_ops: 1000,
            exact_ops: 32,
        }
    }
}

/// Seconds of each setup step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generation plus error injection.
    pub generate_s: f64,
    /// Partitioning.
    pub partition_s: f64,
    /// Stream generation (`cust-stream` only).
    pub stream_s: f64,
    /// All of the above.
    pub total_s: f64,
    /// Growth of `VmRSS` over generation and partitioning.
    pub rss_bytes: u64,
    /// Growth of live heap bytes over generation and partitioning.
    pub heap_bytes: u64,
}

enum Placement {
    Horizontal(HorizontalPartition),
    Vertical(VerticalPartition),
}

/// A workload's inputs.
pub struct Setup {
    /// The unpartitioned relation (the centralized reference's input).
    pub relation: Relation,
    placement: Placement,
    /// The current chunk of delta batches (`cust-stream` only).
    stream: Vec<DeltaBatch>,
    seed: u64,
    /// The rules Σ of the workload.
    pub cfds: Vec<Cfd>,
    /// The 255-pattern main CFD.
    pub main: SimpleCfd,
}

fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finalizer: independent generator seeds from one seed.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a workload's inputs from `seed`, timing each step.
pub fn setup(kind: Kind, params: &Params, seed: u64) -> (Setup, SetupTimes) {
    let rss0 = probe::status_bytes("VmRSS");
    let heap0 = probe::AllocSnapshot::now().live;
    let t0 = Instant::now();
    let config = CustConfig { n_tuples: params.rows, seed: mix(seed, 1), ..CustConfig::default() };
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "street", ERROR_RATE, mix(seed, 2));
    drop(clean);
    let (relation, _) = inject_errors(&dirty, "city", ERROR_RATE, mix(seed, 3));
    drop(dirty);
    let t1 = Instant::now();
    let placement = place(kind, &relation);
    let t2 = Instant::now();
    let rss_bytes = probe::status_bytes("VmRSS").saturating_sub(rss0);
    let heap_bytes = probe::AllocSnapshot::now().live.saturating_sub(heap0);
    let stream = match (&placement, kind) {
        (Placement::Horizontal(p), Kind::Stream) => stream_chunk(p, params, seed, 0),
        _ => Vec::new(),
    };
    let t3 = Instant::now();
    let schema = relation.schema().clone();
    let main = cust_main_cfd(&schema, &config, MAIN_PATTERNS);
    let cfds = match kind {
        Kind::Batch => vec![main.to_cfd()],
        Kind::Stream => std::iter::once(main.to_cfd()).chain(cust_cfds(&schema)).collect(),
        Kind::Vertical => cust_cfds(&schema),
    };
    let times = SetupTimes {
        generate_s: (t1 - t0).as_secs_f64(),
        partition_s: (t2 - t1).as_secs_f64(),
        stream_s: (t3 - t2).as_secs_f64(),
        total_s: (t3 - t0).as_secs_f64(),
        rss_bytes,
        heap_bytes,
    };
    (Setup { relation, placement, stream, seed, cfds, main }, times)
}

/// Partitions `relation` the way workload `kind` places it.
fn place(kind: Kind, relation: &Relation) -> Placement {
    match kind {
        Kind::Batch | Kind::Stream => Placement::Horizontal(
            HorizontalPartition::round_robin(relation, SITES).expect("round robin over rows"),
        ),
        Kind::Vertical => Placement::Vertical(
            VerticalPartition::by_attribute_groups(relation, &VERTICAL_GROUPS)
                .expect("static groups cover the CUST schema"),
        ),
    }
}

/// Chunk `chunk` of the `cust-stream` delta stream over the fragments'
/// current state: 1000-change batches, half inserts (so the state size
/// stays level), Zipf 0.8 template reuse, 10% corrupted inserts.
fn stream_chunk(
    part: &HorizontalPartition,
    params: &Params,
    seed: u64,
    chunk: u64,
) -> Vec<DeltaBatch> {
    let cfg = UpdateStreamConfig {
        n_batches: params.stream_chunk,
        ops_per_batch: params.batch_ops,
        insert_ratio: 0.5,
        skew: 0.8,
        corrupt_rate: 0.1,
        seed: mix(seed, 4 + chunk),
    };
    update_stream(part, &cfg).into_iter().map(DeltaBatch::from).collect()
}

/// Per-CFD violations keyed by CFD name: what a correct run reports.
pub struct Reference(BTreeMap<String, ViolationSet>);

impl Reference {
    /// Centralized detection of `cfds` over `rel`.
    pub fn of(rel: &Relation, cfds: &[Cfd]) -> Self {
        Reference::from_report(&detect_set(rel, cfds))
    }

    fn from_report(report: &ViolationReport) -> Self {
        let mut map: BTreeMap<String, ViolationSet> = BTreeMap::new();
        for (name, vs) in &report.per_cfd {
            map.entry(name.to_string()).or_default().merge(vs.clone());
        }
        Reference(map)
    }

    /// Whether `report` holds exactly these violating tids and patterns
    /// per CFD. Engines report each CFD once, so the sets are usually
    /// compared in place.
    pub fn matches(&self, report: &ViolationReport) -> bool {
        let mut theirs: Vec<(&str, &ViolationSet)> =
            report.per_cfd.iter().map(|(n, vs)| (n.as_ref(), vs)).collect();
        theirs.sort_by_key(|&(n, _)| n);
        let merged;
        if theirs.windows(2).any(|w| w[0].0 == w[1].0) {
            merged = Reference::from_report(report);
            theirs = merged.0.iter().map(|(n, vs)| (n.as_str(), vs)).collect();
        }
        self.0.len() == theirs.len()
            && self
                .0
                .iter()
                .zip(theirs)
                .all(|((n1, a), (n2, b))| n1 == n2 && a.tids == b.tids && a.patterns == b.patterns)
    }

    /// Distinct violating tuples over all CFDs.
    pub fn violating_tuples(&self) -> usize {
        let mut all = std::collections::HashSet::new();
        for vs in self.0.values() {
            all.extend(vs.tids.iter().copied());
        }
        all.len()
    }
}

/// An op's input, built before its clock starts.
pub enum Pending {
    /// A request over a copy of the partition.
    Request(Box<DetectRequest>),
    /// The index of the next stream batch.
    Batch(usize),
}

/// What one op returned.
pub enum Output {
    /// A batch or vertical run.
    Detection(Box<Detection>),
    /// A stream batch's report revision.
    Report(ViolationReport),
}

/// A workload ready to run: its inputs, its reference and, on the
/// stream, the open session.
pub struct Bench {
    /// The workload.
    pub kind: Kind,
    /// Its sizes.
    pub params: Params,
    /// The run configuration of every call.
    cfg: RunConfig,
    /// Its inputs.
    pub setup: Setup,
    reference: Reference,
    session: Option<IncrementalSession>,
    /// Stream batches applied so far.
    pub applied: usize,
    /// Position of the next batch in the current chunk.
    next_in_chunk: usize,
}

impl Bench {
    /// Wraps a setup, computing the centralized reference (untimed).
    pub fn new(kind: Kind, params: Params, setup: Setup) -> Self {
        let reference = Reference::of(&setup.relation, &setup.cfds);
        let cfg = RunConfig {
            cost: CostModel::default(),
            compute: ComputeModel::Analytic,
            threads: params.threads,
        };
        Bench { kind, params, cfg, setup, reference, session: None, applied: 0, next_in_chunk: 0 }
    }

    /// The horizontal partition of `cust-batch` and `cust-stream`.
    pub fn horizontal(&self) -> Option<&HorizontalPartition> {
        match &self.setup.placement {
            Placement::Horizontal(p) => Some(p),
            Placement::Vertical(_) => None,
        }
    }

    /// The vertical partition of `cust-vertical`.
    pub fn vertical(&self) -> Option<&VerticalPartition> {
        match &self.setup.placement {
            Placement::Vertical(p) => Some(p),
            Placement::Horizontal(_) => None,
        }
    }

    /// A fresh request over a copy of the inputs. Built before the
    /// clock starts: `DetectRequest::over` takes its partition by value.
    pub fn request(&self) -> DetectRequest {
        let req = match &self.setup.placement {
            Placement::Horizontal(p) => {
                DetectRequest::over(p.clone()).algorithm(Algorithm::PatDetectS)
            }
            Placement::Vertical(p) => DetectRequest::over(p.clone()).ship_mode(ShipMode::Filtered),
        };
        req.cfds(self.setup.cfds.clone()).config(self.cfg)
    }

    /// The first, cold call: the first `run()`, or on the stream the
    /// session open with its mined tableau. Returns its seconds and, on
    /// the batch workloads, its output.
    pub fn open(&mut self) -> Result<(f64, Option<Output>), String> {
        match self.kind {
            Kind::Batch | Kind::Vertical => {
                let (secs, out) = self.op()?;
                Ok((secs, Some(out)))
            }
            Kind::Stream => {
                let req = self.request();
                let t = Instant::now();
                let mut session = req.session().map_err(|e| e.to_string())?;
                session
                    .track_mining(&self.setup.main, &MiningConfig::default())
                    .map_err(|e| e.to_string())?;
                let secs = t.elapsed().as_secs_f64();
                self.session = Some(session);
                Ok((secs, None))
            }
        }
    }

    /// Partitions the setup's relation afresh (untimed) and opens again
    /// over the new fragments: one more cold call on inputs no engine
    /// call has touched. On the stream the live session is dropped
    /// first and the stream starts over at its first batch; the
    /// fragments hold the setup's contents, so its first chunk applies
    /// (rebuilt from them, untimed, if a later chunk replaced it).
    pub fn reopen(&mut self) -> Result<(f64, Option<Output>), String> {
        self.session = None;
        self.setup.placement = place(self.kind, &self.setup.relation);
        if self.applied > self.next_in_chunk {
            if let Placement::Horizontal(p) = &self.setup.placement {
                self.setup.stream = stream_chunk(p, &self.params, self.setup.seed, 0);
            }
        }
        self.applied = 0;
        self.next_in_chunk = 0;
        self.open()
    }

    /// One timed call into the system: `DetectRequest::run()` or
    /// `IncrementalSession::apply_batch()`. Only the call is timed.
    pub fn op(&mut self) -> Result<(f64, Output), String> {
        let pending = self.prepare();
        let t = Instant::now();
        let result = self.call(pending);
        Ok((t.elapsed().as_secs_f64(), result?))
    }

    /// Everything an op needs before its clock starts: on the batch
    /// workloads a request over a copy of the partition
    /// (`DetectRequest::over` takes it by value), on the stream the
    /// index of the next batch.
    pub fn prepare(&mut self) -> Pending {
        match self.kind {
            Kind::Batch | Kind::Vertical => Pending::Request(Box::new(self.request())),
            Kind::Stream => {
                if self.next_in_chunk == self.setup.stream.len() {
                    if let Some(IncrementalSession::Horizontal(run)) = &self.session {
                        let chunk = (self.applied / self.params.stream_chunk) as u64;
                        self.setup.stream =
                            stream_chunk(run.partition(), &self.params, self.setup.seed, chunk);
                        self.next_in_chunk = 0;
                    }
                }
                self.applied += 1;
                self.next_in_chunk += 1;
                Pending::Batch(self.next_in_chunk - 1)
            }
        }
    }

    /// The timed call itself.
    pub fn call(&mut self, pending: Pending) -> Result<Output, String> {
        match pending {
            Pending::Request(req) => {
                let det = std::hint::black_box(req.run()).map_err(|e| e.to_string())?;
                Ok(Output::Detection(Box::new(det)))
            }
            Pending::Batch(i) => {
                let session = self.session.as_mut().ok_or("the session is not open")?;
                let report = std::hint::black_box(session.apply_batch(&self.setup.stream[i]))
                    .map_err(|e| e.to_string())?;
                Ok(Output::Report(report))
            }
        }
    }

    /// Checks an op's output (untimed). Batch and vertical reports must
    /// equal the centralized reference; the stream's report is checked
    /// against centralized detection over the materialized state every
    /// [`STREAM_CHECK_EVERY`] batches.
    pub fn check(&self, out: &Output) -> bool {
        let report = match out {
            Output::Detection(det) => &det.violations,
            Output::Report(report) => report,
        };
        match self.kind {
            Kind::Batch | Kind::Vertical => self.reference.matches(report),
            Kind::Stream => {
                !self.applied.is_multiple_of(STREAM_CHECK_EVERY) || self.stream_matches(report)
            }
        }
    }

    /// The final stream check: the session's live report against
    /// centralized detection over its materialized state.
    pub fn final_check(&self) -> bool {
        match &self.session {
            Some(s) => self.stream_matches(&s.report()),
            None => true,
        }
    }

    fn stream_matches(&self, report: &ViolationReport) -> bool {
        let Some(session) = &self.session else { return false };
        match session.materialize() {
            Ok(rel) => Reference::of(&rel, &self.setup.cfds).matches(report),
            Err(_) => false,
        }
    }

    /// The stream batch the last op applied.
    pub fn last_batch(&self) -> Option<&DeltaBatch> {
        self.next_in_chunk.checked_sub(1).map(|i| &self.setup.stream[i])
    }

    /// The session's accumulated `Detection` (stream only).
    pub fn session_detection(&self) -> Option<Detection> {
        self.session.as_ref().map(IncrementalSession::detection)
    }

    /// The `cust-vertical` bench over this setup's relation: three
    /// column groups, Σ = the CUST rule set, checked against its own
    /// centralized reference. `cust-batch`'s traced run calls it once
    /// per iteration, so the vertical layer is measured there too.
    pub fn vertical_twin(&self) -> Bench {
        let relation = self.setup.relation.clone();
        let setup = Setup {
            placement: place(Kind::Vertical, &relation),
            stream: Vec::new(),
            seed: self.setup.seed,
            cfds: cust_cfds(relation.schema()),
            main: self.setup.main.clone(),
            relation,
        };
        Bench::new(Kind::Vertical, self.params, setup)
    }

    /// CFDs of Σ that no single vertical fragment covers (0 off the
    /// vertical workload): the ones that need the tid-join.
    pub fn cross_cfds(&self) -> usize {
        let Some(p) = self.vertical() else { return 0 };
        self.setup
            .cfds
            .iter()
            .filter(|c| {
                let needed: Vec<_> = c.attrs().iter().collect();
                !p.fragments().iter().any(|f| f.covers(&needed))
            })
            .count()
    }

    /// Distinct violating tuples of the reference.
    pub fn reference_violations(&self) -> usize {
        self.reference.violating_tuples()
    }
}

/// Simulated phases, by span name: `(span prefix, metric)`. Batch spans
/// are named `<phase>:<cfd>`; incremental ones `incr:<phase>`.
const SIM_PHASES: [(&str, &str); 10] = [
    ("sigma", "sim.sigma_s"),
    ("exchange", "sim.exchange_s"),
    ("ship", "sim.ship_s"),
    ("validate", "sim.validate_s"),
    ("gather", "sim.gather_s"),
    ("local", "sim.local_s"),
    ("incr:apply", "sim.incr.apply_s"),
    ("incr:manifest", "sim.incr.manifest_s"),
    ("incr:ship", "sim.incr.ship_s"),
    ("incr:maintain", "sim.incr.maintain_s"),
];

fn phase_of(span: &str) -> &str {
    if span.starts_with("incr:") {
        span
    } else {
        span.split(':').next().unwrap_or(span)
    }
}

fn counter(det: Option<&Detection>, name: &str) -> f64 {
    det.map_or(0, |d| d.metrics.counter_total(name)) as f64
}

fn labelled(det: Option<&Detection>, name: &str, labels: &str) -> f64 {
    match det.and_then(|d| d.metrics.value(name, labels)) {
        Some(SampleValue::Counter(c)) => *c as f64,
        _ => 0.0,
    }
}

/// The exact rows of `ops` ops, from the `Detection` before them (the
/// session at open; `None` for a one-shot run) and after them. They
/// depend on the inputs only: bit-identical across runs, pool widths and
/// host speed.
pub fn exact_rows(
    before: Option<&Detection>,
    after: &Detection,
    ops: usize,
) -> Vec<(&'static str, f64)> {
    let per = |a: f64, b: f64| (a - b) / ops.max(1) as f64;
    let field = |f: fn(&Detection) -> f64| per(f(after), before.map_or(0.0, f));
    let mut rows = vec![
        ("shipped_bytes_per_op", field(|d| (d.shipped_bytes + d.control_bytes) as f64)),
        ("sim_response_s", field(|d| d.response_time)),
        ("dist.shipped_cells_per_op", field(|d| d.shipped_cells as f64)),
        ("dist.control_messages_per_op", field(|d| d.control_messages as f64)),
    ];
    let delta = |name: &str| per(counter(Some(after), name), counter(before, name));
    let groups = "dcd_kernel_groups_total";
    let group = |v: &str| {
        let labels = format!("{{verdict=\"{v}\"}}");
        labelled(Some(after), groups, &labels) - labelled(before, groups, &labels)
    };
    let any = group("any");
    let violating = group("all_flagged") + group("mixed");
    rows.extend([
        ("cfd.groups_per_op", any / ops.max(1) as f64),
        ("cfd.probes_per_op", delta("dcd_kernel_probes_total")),
        ("cfd.violating_group_ratio", if any > 0.0 { violating / any } else { 0.0 }),
        ("incr.deltas_per_op", delta("dcd_incr_deltas_applied_total")),
        ("incr.keys_revalidated_per_op", delta("dcd_incr_keys_revalidated_total")),
        ("core.mining_updates_per_op", delta("dcd_mining_mask_updates_total")),
    ]);

    // Simulated seconds per phase: each maximal run of consecutive spans
    // of one name is one phase instance, as long as its longest site
    // span (sites run a phase in parallel).
    let skip = before.map_or(0, |d| d.trace.spans.len());
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let spans = &after.trace.spans[skip..];
    let mut i = 0;
    while i < spans.len() {
        let name = &spans[i].name;
        let mut longest = 0.0_f64;
        while i < spans.len() && &spans[i].name == name {
            longest = longest.max(spans[i].end - spans[i].start);
            i += 1;
        }
        *sums.entry(phase_of(name)).or_default() += longest;
    }
    for (phase, metric) in SIM_PHASES {
        rows.push((metric, sums.get(phase).copied().unwrap_or(0.0) / ops.max(1) as f64));
    }
    rows
}

/// Runs the open plus `params.exact_ops` ops untimed and returns the
/// exact rows and the number of failed ops — the determinism canary's
/// unit of comparison.
#[cfg(test)]
pub fn exact_profile(kind: Kind, params: Params, seed: u64) -> (Vec<(&'static str, f64)>, usize) {
    let (setup, _) = setup(kind, &params, seed);
    let mut bench = Bench::new(kind, params, setup);
    let mut failed = 0;
    let first = match bench.open() {
        Ok((_, Some(Output::Detection(det)))) => Some(*det),
        Ok(_) => bench.session_detection(),
        Err(_) => return (Vec::new(), 1),
    };
    let before = first.clone();
    let mut last = first;
    for _ in 0..params.exact_ops {
        match bench.op() {
            Ok((_, out)) => {
                failed += usize::from(!bench.check(&out));
                if let Output::Detection(det) = out {
                    last = Some(*det);
                }
            }
            Err(_) => failed += 1,
        }
    }
    failed += usize::from(!bench.final_check());
    let rows = match kind {
        Kind::Stream => {
            let after = bench.session_detection().expect("open session");
            exact_rows(before.as_ref(), &after, params.exact_ops)
        }
        Kind::Batch | Kind::Vertical => exact_rows(None, last.as_ref().expect("a detection"), 1),
    };
    (rows, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(threads: usize) -> Params {
        Params { rows: 6_000, threads, stream_chunk: 3, batch_ops: 200, exact_ops: 4 }
    }

    /// The determinism canary: a short run of each workload gives
    /// bit-identical exact rows twice in a row and at widths 1 and 2.
    /// The property suites already pin this for the engines, so a
    /// mismatch means the benchmark measures the wrong thing.
    #[test]
    fn exact_rows_repeat_across_runs_and_widths() {
        for kind in Kind::ALL {
            let (a, fa) = exact_profile(kind, small(1), 7);
            let (b, fb) = exact_profile(kind, small(1), 7);
            let (c, fc) = exact_profile(kind, small(2), 7);
            assert_eq!((fa, fb, fc), (0, 0, 0), "{}: failed ops", kind.name());
            assert!(!a.is_empty());
            for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                assert_eq!(x.0, y.0);
                assert_eq!(
                    x.1.to_bits(),
                    y.1.to_bits(),
                    "{}: {} differs between runs",
                    kind.name(),
                    x.0
                );
                assert_eq!(
                    x.1.to_bits(),
                    z.1.to_bits(),
                    "{}: {} differs across widths",
                    kind.name(),
                    x.0
                );
            }
            let bytes = a.iter().find(|r| r.0 == "shipped_bytes_per_op").expect("row").1;
            assert!(bytes > 0.0, "{}: nothing shipped", kind.name());
        }
    }

    #[test]
    fn vertical_groups_mix_local_and_cross_rules() {
        let (setup, _) = setup(Kind::Vertical, &small(1), 1);
        let bench = Bench::new(Kind::Vertical, small(1), setup);
        assert_eq!((bench.setup.cfds.len(), bench.cross_cfds()), (3, 2));
    }
}
