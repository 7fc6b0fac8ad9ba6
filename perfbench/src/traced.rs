//! The traced run: per-layer rows, timed from the benchmark's own files
//! around calls into each layer's public functions, on the same
//! fragmented inputs the engine sees.
//!
//! Each iteration runs one untraced op (the reference for the tracing
//! overhead), one traced op (host probes read around the call), and then
//! the layer calls the op decomposes into: on `cust-batch` σ, the
//! shipment build and validation, on `cust-stream` `Relation::apply_delta`
//! on copies of the fragments. Spans stay in memory and are written out
//! when the run ends.

use crate::probe::{self, AllocSnapshot, SchedSnapshot};
use crate::stats::median;
use crate::workload::{Bench, Kind, Output};
use distributed_cfd::cfd::{CodeLayout, CodeRow, ViolationReport, ViolationSet};
use distributed_cfd::core::local::applicable_patterns;
use distributed_cfd::core::sigma::{sigma_partition, sort_for_sigma, SigmaPartition, SortedCfd};
use distributed_cfd::core::Detection;
use distributed_cfd::dist::pool::scoped_map;
use distributed_cfd::dist::HorizontalPartition;
use distributed_cfd::obs::host_registry;
use distributed_cfd::relation::Relation;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span: nanoseconds since the run's origin.
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span store, written out once at the end.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.origin.elapsed().as_nanos();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in milliseconds.
    fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// The spans as JSON: `{"spans": [{"id", "name", "start_ns",
    /// "end_ns", "parent", "op"}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Host probes read around one call.
struct Probes {
    sched: SchedSnapshot,
    alloc: AllocSnapshot,
    minflt: u64,
    morsels: u64,
    steals: u64,
}

impl Probes {
    fn now() -> Self {
        let host = host_registry();
        Probes {
            sched: SchedSnapshot::now(),
            alloc: AllocSnapshot::now(),
            minflt: probe::minflt(),
            morsels: host.counter_total("dcd_pool_morsels_total"),
            steals: host.counter_total("dcd_pool_steals_total"),
        }
    }
}

/// Per-iteration samples, one vector per row.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// σ, shipment build and validation of the batch op, called one by one.
struct Decomposed {
    sigma_ms: f64,
    /// Σ of the per-fragment σ task times (the σ work, whatever the
    /// pool overlapped).
    sigma_work_ms: f64,
    code_rows_ms: f64,
    allocs_per_row: f64,
    validate_ms: f64,
    report: ViolationReport,
}

/// Decomposes one `PATDETECTS` round of `cust-batch` into public layer
/// calls, in the engine's order and on the engine's pool width:
/// `applicable_patterns` + `sigma_partition` per fragment, then
/// `Relation::code_rows` per σ block, then `CodeLayout::of_relation` +
/// `resolve` + `detect_pattern_among` per block at the block's
/// coordinator (the site holding most of its rows, ties to the lowest
/// site — the `PATDETECTS` rule).
fn decompose(
    rec: &mut Recorder,
    parent: usize,
    op: u64,
    part: &HorizontalPartition,
    sorted: &SortedCfd,
    threads: usize,
) -> Decomposed {
    let frags = part.fragments();
    let n = frags.len();
    let k = sorted.cfd.tableau.len();

    let span = rec.open("core.sigma", Some(parent), op);
    let applicable: Vec<Vec<usize>> =
        frags.iter().map(|f| applicable_patterns(f, &sorted.cfd)).collect();
    let parts: Vec<(SigmaPartition, Duration)> = scoped_map(threads, n, |i| {
        let t = Instant::now();
        let p = sigma_partition(&frags[i].data, sorted, &applicable[i]);
        (p, t.elapsed())
    });
    let sigma_ms = rec.close(span);
    let sigma_work_ms = parts.iter().map(|(_, d)| d.as_secs_f64() * 1e3).sum();

    let attrs = sorted.cfd.shipped_attrs();
    let span = rec.open("relation.code_rows", Some(parent), op);
    let allocs0 = AllocSnapshot::now().count;
    let gathered: Vec<Vec<CodeRow>> = (0..k)
        .map(|l| {
            let mut rows = Vec::new();
            for (frag, (p, _)) in frags.iter().zip(&parts) {
                if !p.blocks[l].is_empty() {
                    rows.extend(frag.data.code_rows(&attrs, &p.blocks[l]));
                }
            }
            rows
        })
        .collect();
    let allocs = AllocSnapshot::now().count - allocs0;
    let code_rows_ms = rec.close(span);
    let shipped: usize = gathered.iter().map(Vec::len).sum();

    let span = rec.open("cfd.validate", Some(parent), op);
    let resolved = CodeLayout::of_relation(&frags[0].data, &attrs).resolve(&sorted.cfd);
    let mut jobs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (l, rows) in gathered.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let coord = (0..n).max_by_key(|&i| (parts[i].0.blocks[l].len(), n - i)).expect("sites");
        jobs[coord].push(l);
    }
    let found: Vec<ViolationSet> = scoped_map(threads, n, |c| {
        let mut vs = ViolationSet::default();
        for &l in &jobs[c] {
            vs.merge(resolved.detect_pattern_among(gathered[l].iter(), l));
        }
        vs
    });
    let validate_ms = rec.close(span);

    let mut report = ViolationReport::default();
    report.absorb(&sorted.cfd.name, ViolationSet::default());
    for vs in found {
        report.absorb(&sorted.cfd.name, vs);
    }
    Decomposed {
        sigma_ms,
        sigma_work_ms,
        code_rows_ms,
        allocs_per_row: allocs as f64 / shipped.max(1) as f64,
        validate_ms,
        report,
    }
}

/// Fresh copies of the fragments with dictionaries of their own, so
/// applying deltas to them cannot touch the session's dictionaries.
fn shadow_fragments(part: &HorizontalPartition) -> Vec<Relation> {
    part.fragments()
        .iter()
        .map(|f| {
            Relation::from_tuples(f.data.schema().clone(), f.data.tuples().to_vec())
                .expect("fragment tuples match their schema")
        })
        .collect()
}

/// Applies the batch the last op applied to the shadow fragments;
/// returns the milliseconds it took and whether every site applied.
fn shadow_apply(
    shadow: &mut [Relation],
    bench: &Bench,
    rec: &mut Recorder,
    parent: usize,
    op: u64,
) -> (f64, bool) {
    let Some(batch) = bench.last_batch() else { return (0.0, false) };
    let span = rec.open("relation.apply_delta", Some(parent), op);
    let mut ok = true;
    for (rel, delta) in shadow.iter_mut().zip(&batch.per_site) {
        ok &= rel.apply_delta(delta).is_ok();
    }
    (rec.close(span), ok)
}

/// What the traced run reports.
pub struct TracedOut {
    /// Per-layer rows by name.
    pub rows: BTreeMap<&'static str, f64>,
    /// Ops attempted and failed (untraced, traced and decomposed).
    pub attempted: u64,
    /// Failed ops.
    pub failed: u64,
    /// The span store.
    pub recorder: Recorder,
}

/// Iterations the traced loop runs at least, however long they take.
const MIN_ITERATIONS: usize = 20;

/// The traced run of `bench`, set up and opened (`open_det` is the
/// open's `Detection`): iterations for `seconds`, at least
/// [`MIN_ITERATIONS`] unless `hard_cap` seconds pass first.
pub fn run(
    bench: &mut Bench,
    open_det: Option<Detection>,
    seconds: f64,
    hard_cap: f64,
) -> Result<TracedOut, String> {
    let mut rec = Recorder::new();
    let mut s = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let main_tid = probe::thread_id();
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    if bench.kind == Kind::Stream {
        rows.insert("incr.open_cells", open_det.as_ref().map_or(0.0, |d| d.shipped_cells as f64));
    }

    // cust-batch: the σ of one pass over the unfragmented relation, the
    // base of the fragmentation penalty.
    let sorted = sort_for_sigma(&bench.setup.main);
    let mut unfragmented = Vec::new();
    if bench.kind == Kind::Batch {
        let all: Vec<usize> = (0..sorted.cfd.tableau.len()).collect();
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(sigma_partition(&bench.setup.relation, &sorted, &all));
            unfragmented.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let mut shadow =
        bench.horizontal().filter(|_| bench.kind == Kind::Stream).map(shadow_fragments);
    let part = bench.horizontal().cloned();
    let mut twin = (bench.kind == Kind::Batch).then(|| bench.vertical_twin());

    let start = Instant::now();
    let mut op_id = 0u64;
    let mut exact_after = None;
    let mut iterations = 0usize;
    while (start.elapsed().as_secs_f64() < seconds || iterations < MIN_ITERATIONS)
        && start.elapsed().as_secs_f64() < hard_cap
    {
        iterations += 1;
        let it = rec.open("iteration", None, op_id);

        // Untraced op.
        op_id += 1;
        let span = rec.open("op.untraced", Some(it), op_id);
        attempted += 1;
        match bench.op() {
            Ok((secs, out)) => {
                s.push("untraced_ms", secs * 1e3);
                failed += u64::from(!bench.check(&out));
            }
            Err(_) => failed += 1,
        }
        rec.close(span);
        if let Some(shadow) = shadow.as_mut() {
            let (ms, ok) = shadow_apply(shadow, bench, &mut rec, it, op_id);
            s.push("relation.apply_delta_ms", ms);
            failed += u64::from(!ok);
        }

        // Traced op: the probes are read inside its timed window.
        op_id += 1;
        let pending = bench.prepare();
        let span = rec.open("op.traced", Some(it), op_id);
        let t = Instant::now();
        let before = Probes::now();
        let result = bench.call(pending);
        let after = Probes::now();
        let traced_ms = t.elapsed().as_secs_f64() * 1e3;
        rec.close(span);
        attempted += 1;
        match result {
            Ok(out) => failed += u64::from(!bench.check(&out)),
            Err(_) => failed += 1,
        }
        let sched = after.sched.since(&before.sched, main_tid);
        s.push("traced_ms", traced_ms);
        s.push("pool.parallelism", sched.on_cpu_ns as f64 / 1e6 / traced_ms);
        s.push("pool.worker_cpu_ms", sched.worker_cpu_ns as f64 / 1e6);
        s.push("pool.runq_wait_ms", sched.runq_ns as f64 / 1e6);
        s.push("pool.morsels_per_op", (after.morsels - before.morsels) as f64);
        s.push("pool.steals_per_op", (after.steals - before.steals) as f64);
        s.push("alloc.count_per_op", (after.alloc.count - before.alloc.count) as f64);
        s.push("alloc.bytes_per_op", (after.alloc.bytes - before.alloc.bytes) as f64);
        s.push("proc.minflt_per_op", (after.minflt - before.minflt) as f64);
        if let Some(untraced) = s.0.get("untraced_ms").and_then(|v| v.last()) {
            s.push("bench.trace_overhead", traced_ms - untraced);
        }

        match bench.kind {
            Kind::Batch => {
                let span = rec.open("decomposed", Some(it), op_id);
                let part = part.as_ref().expect("horizontal");
                let d = decompose(&mut rec, span, op_id, part, &sorted, bench.params.threads);
                rec.close(span);
                attempted += 1;
                failed += u64::from(!bench.check(&Output::Report(d.report)));
                s.push("core.sigma_ms", d.sigma_ms);
                s.push("sigma_work_ms", d.sigma_work_ms);
                s.push("relation.code_rows_ms", d.code_rows_ms);
                s.push("alloc.per_shipped_row", d.allocs_per_row);
                s.push("cfd.validate_ms", d.validate_ms);
                s.push("core.other_ms", traced_ms - d.sigma_ms - d.code_rows_ms - d.validate_ms);

                // The vertical layer, on the same relation.
                let twin = twin.as_mut().expect("vertical twin");
                let pending = twin.prepare();
                let span = rec.open("vertical.run", Some(it), op_id);
                let before = Probes::now();
                let result = twin.call(pending);
                let after = Probes::now();
                s.push("vertical.run_ms", rec.close(span));
                s.push("vertical.pool_morsels_per_op", (after.morsels - before.morsels) as f64);
                attempted += 1;
                match result {
                    Ok(out) => failed += u64::from(!twin.check(&out)),
                    Err(_) => failed += 1,
                }
            }
            Kind::Stream => {
                let shadow = shadow.as_mut().expect("stream shadow");
                let (ms, ok) = shadow_apply(shadow, bench, &mut rec, it, op_id);
                s.push("relation.apply_delta_ms", ms);
                failed += u64::from(!ok);
                if exact_after.is_none() && bench.applied >= bench.params.exact_ops {
                    exact_after = bench.session_detection().map(|d| (bench.applied, d));
                }
            }
            Kind::Vertical => {
                s.push("vertical.run_ms", traced_ms);
                s.push("vertical.pool_morsels_per_op", (after.morsels - before.morsels) as f64);
            }
        }
        if bench.kind != Kind::Stream {
            // `run()` consumes its request, so it frees the request's
            // copy of the partition before returning.
            let copy = bench.request();
            let span = rec.open("api.request_drop", Some(it), op_id);
            drop(copy);
            s.push("api.request_drop_ms", rec.close(span));
        }
        rec.close(it);
    }
    attempted += 1;
    failed += u64::from(!bench.final_check());

    let exact = match (bench.kind, &exact_after, &open_det) {
        (Kind::Stream, Some((ops, after)), before) => {
            crate::workload::exact_rows(before.as_ref(), after, *ops)
        }
        (_, _, Some(det)) if bench.kind != Kind::Stream => {
            crate::workload::exact_rows(None, det, 1)
        }
        _ => return Err("too few ops for the exact rows".into()),
    };
    rows.extend(exact.into_iter().filter(|(name, _)| name.contains('.')));

    for name in [
        "pool.parallelism",
        "pool.worker_cpu_ms",
        "pool.runq_wait_ms",
        "pool.morsels_per_op",
        "pool.steals_per_op",
        "alloc.count_per_op",
        "alloc.bytes_per_op",
        "proc.minflt_per_op",
        "bench.trace_overhead",
        "core.sigma_ms",
        "relation.code_rows_ms",
        "alloc.per_shipped_row",
        "cfd.validate_ms",
        "core.other_ms",
        "relation.apply_delta_ms",
        "vertical.run_ms",
        "vertical.pool_morsels_per_op",
        "api.request_drop_ms",
    ] {
        rows.insert(name, s.median(name));
    }
    let untraced = s.median("untraced_ms");
    if bench.kind == Kind::Batch {
        let base = median(&unfragmented);
        rows.insert("core.sigma_frag_penalty", s.median("sigma_work_ms") / base);
        let sum = ["core.sigma_ms", "relation.code_rows_ms", "cfd.validate_ms", "core.other_ms"]
            .iter()
            .map(|n| rows[n])
            .sum::<f64>();
        rows.insert("bench.reconcile_error", (sum - untraced).abs() / untraced);
    }
    let cross = twin.as_ref().map_or_else(|| bench.cross_cfds(), Bench::cross_cfds);
    rows.insert("vertical.cross_cfds", cross as f64);
    rows.insert("bench.untraced_op_ms", untraced);
    Ok(TracedOut { rows, attempted, failed, recorder: rec })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{setup, Params};

    /// The layer calls of the decomposition find exactly what the
    /// engine's `run()` finds.
    #[test]
    fn decomposition_matches_the_engine() {
        let params =
            Params { rows: 6_000, threads: 2, stream_chunk: 0, batch_ops: 0, exact_ops: 1 };
        let (s, _) = setup(Kind::Batch, &params, 5);
        let mut bench = Bench::new(Kind::Batch, params, s);
        let (_, out) = bench.op().expect("run");
        let Output::Detection(det) = out else { panic!("batch ops return detections") };
        let sorted = sort_for_sigma(&bench.setup.main);
        let part = bench.horizontal().expect("horizontal").clone();
        let d = decompose(&mut Recorder::new(), 0, 0, &part, &sorted, 2);
        let names = |r: &ViolationReport| -> Vec<(String, usize, usize)> {
            r.per_cfd.iter().map(|(n, v)| (n.to_string(), v.tids.len(), v.patterns.len())).collect()
        };
        assert_eq!(names(&d.report), names(&det.violations));
        assert!(bench.check(&Output::Report(d.report)));
    }
}
