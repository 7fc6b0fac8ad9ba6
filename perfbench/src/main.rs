//! `perfbench`: the end-to-end benchmark of the distributed-cfd
//! detectors.
//!
//! ```text
//! perfbench --workload <cust-batch|cust-stream|cust-vertical> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it builds the inputs from the seed,
//! opens, then runs warm ops in a closed loop (one client) for the given
//! seconds, checking every output. It prints the host facts as one JSON
//! line, then the result as the last line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer rows
//! of the traced run (see `traced.rs`), whose spans are also written to
//! `perfbench/out/`. See `README.md` for what each metric means.

mod probe;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Bench, Kind, Output, Params, SetupTimes};

#[global_allocator]
static GLOBAL: probe::CountingAlloc = probe::CountingAlloc;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cold calls per setup (the open, then one after each fresh
/// partitioning). The untraced window adds one more every
/// [`cold_every_s`] seconds, so the cold calls sample the whole run;
/// `open_s` is the median of all of them. The host runs in slow and
/// fast phases of seconds, and a cold call happens once, so only
/// samples spread over every phase of the run agree from run to run.
const OPENS_PER_SETUP: usize = 3;
/// Warm ops the untraced window runs at least, so that at least ten
/// samples lie above the reported 90th percentile.
const MIN_OPS: usize = 100;

/// Seconds of window between two cold calls inside it. A cold call
/// costs about half a second untimed on the batch workloads (a fresh
/// partitioning) and about a second on the stream (the final check of
/// the session it replaces, too), so both spend about a sixth of the
/// window on them.
fn cold_every_s(kind: Kind) -> f64 {
    match kind {
        Kind::Batch | Kind::Vertical => 2.5,
        Kind::Stream => 5.0,
    }
}

/// Seconds after which a window stops even short of its minimum, so a
/// run always ends well within three minutes.
const HARD_CAP_S: f64 = 60.0;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("open_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("shipped_bytes_per_op", "B"),
    ("sim_response_s", "s"),
];

/// Per-layer rows (`--trace 1`): name and unit. Rows a workload does not
/// exercise read 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("datagen.generate_s", "s"),
    ("dist.partition_s", "s"),
    ("relation.bytes_per_row", "B"),
    ("relation.heap_bytes_per_row", "B"),
    ("core.sigma_ms", "ms"),
    ("core.sigma_frag_penalty", "ratio"),
    ("relation.code_rows_ms", "ms"),
    ("alloc.per_shipped_row", "count"),
    ("cfd.validate_ms", "ms"),
    ("cfd.groups_per_op", "count"),
    ("cfd.probes_per_op", "count"),
    ("cfd.violating_group_ratio", "ratio"),
    ("core.other_ms", "ms"),
    ("api.request_drop_ms", "ms"),
    ("pool.parallelism", "ratio"),
    ("pool.worker_cpu_ms", "ms"),
    ("pool.runq_wait_ms", "ms"),
    ("pool.morsels_per_op", "count"),
    ("pool.steals_per_op", "count"),
    ("relation.apply_delta_ms", "ms"),
    ("incr.deltas_per_op", "count"),
    ("incr.keys_revalidated_per_op", "count"),
    ("core.mining_updates_per_op", "count"),
    ("incr.open_cells", "count"),
    ("vertical.run_ms", "ms"),
    ("vertical.cross_cfds", "count"),
    ("vertical.pool_morsels_per_op", "count"),
    ("dist.shipped_cells_per_op", "count"),
    ("dist.control_messages_per_op", "count"),
    ("sim.sigma_s", "s"),
    ("sim.exchange_s", "s"),
    ("sim.ship_s", "s"),
    ("sim.validate_s", "s"),
    ("sim.gather_s", "s"),
    ("sim.local_s", "s"),
    ("sim.incr.apply_s", "s"),
    ("sim.incr.manifest_s", "s"),
    ("sim.incr.ship_s", "s"),
    ("sim.incr.maintain_s", "s"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("proc.minflt_per_op", "count"),
    ("bench.trace_overhead", "ms"),
    ("bench.untraced_op_ms", "ms"),
    ("bench.reconcile_error", "ratio"),
    ("setup.stream_s", "s"),
    ("setup.reference_s", "s"),
];

/// The workloads `BENCHMARK.json` runs. `cust-vertical` stays runnable
/// by hand; the benchmark measures its layer in `cust-batch`'s traced
/// run, which leaves each listed workload a longer window within the
/// run budget.
#[cfg(test)]
const BENCHMARK_WORKLOADS: [Kind; 2] = [Kind::Batch, Kind::Stream];

const USAGE: &str = "usage: perfbench --workload <cust-batch|cust-stream|cust-vertical> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if !matches!(flag.as_str(), "--workload" | "--seed" | "--seconds" | "--trace") {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let kind = Kind::parse(get("--workload")?).ok_or("unknown workload")?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args { kind, seed, seconds, trace })
}

/// The checkout's commit, read from `.git` if there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.len() == 40 && id.chars().all(|c| c.is_ascii_hexdigit()) {
        id.to_string()
    } else {
        "unknown".to_string()
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut m = String::new();
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(m, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    )
}

/// What the setups and opens of one run measured.
#[derive(Default)]
struct SetupLog {
    times: Vec<SetupTimes>,
    open_s: Vec<f64>,
    /// Seconds of the centralized reference, per setup.
    reference_s: Vec<f64>,
    /// Opens made.
    opens: u64,
    /// Opens whose output failed its check.
    failed: u64,
}

impl SetupLog {
    /// Sets up one bench from the seed and opens it
    /// [`OPENS_PER_SETUP`] times, timing each; returns the bench with
    /// the last open's output.
    fn set_up_and_open(
        &mut self,
        kind: Kind,
        params: Params,
        seed: u64,
    ) -> Result<(Bench, Option<Output>), String> {
        let (setup, t) = workload::setup(kind, &params, seed);
        self.times.push(t);
        let r = Instant::now();
        let mut bench = Bench::new(kind, params, setup);
        self.reference_s.push(r.elapsed().as_secs_f64());
        let mut last = bench.open()?;
        self.record(&bench, &last);
        for _ in 1..OPENS_PER_SETUP {
            last = bench.reopen()?;
            self.record(&bench, &last);
        }
        Ok((bench, last.1))
    }

    /// One more cold call inside the window, over fresh fragments.
    fn reopen(&mut self, bench: &mut Bench) -> Result<(), String> {
        let last = bench.reopen()?;
        self.record(bench, &last);
        Ok(())
    }

    fn record(&mut self, bench: &Bench, (secs, out): &(f64, Option<Output>)) {
        self.open_s.push(*secs);
        self.opens += 1;
        if let Some(out) = out {
            self.failed += u64::from(!bench.check(out));
        }
    }
}

/// The `Detection` an open returned, or on the stream the session's.
fn open_detection(
    bench: &Bench,
    open_out: Option<Output>,
) -> Option<distributed_cfd::core::Detection> {
    match open_out {
        Some(Output::Detection(det)) => Some(*det),
        _ => bench.session_detection(),
    }
}

fn median_of(times: &[SetupTimes], f: fn(&SetupTimes) -> f64) -> f64 {
    stats::median(&times.iter().map(f).collect::<Vec<_>>())
}

fn same_accounting(
    a: &distributed_cfd::core::Detection,
    b: &distributed_cfd::core::Detection,
) -> bool {
    a.shipped_bytes == b.shipped_bytes
        && a.control_bytes == b.control_bytes
        && a.response_time.to_bits() == b.response_time.to_bits()
}

/// The untraced run. The window is split into one segment per setup
/// (set up, open, run warm ops), so that setups, opens and ops all
/// sample the whole run rather than one stretch of it: the host's speed
/// drifts over seconds.
fn untraced(args: &Args, params: Params) -> Result<String, String> {
    let mut log = SetupLog::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut durations = Vec::new();
    let mut first: Option<distributed_cfd::core::Detection> = None;
    let mut exact = None;
    let mut window = 0.0;
    let mut violations = 0;
    for rep in 0..SETUP_REPS {
        let (mut bench, open_out) = log.set_up_and_open(args.kind, params, args.seed)?;
        violations = bench.reference_violations();
        let open_det = open_detection(&bench, open_out);
        if rep == 0 {
            first = open_det.clone();
            if args.kind != Kind::Stream {
                exact = open_det.as_ref().map(|d| workload::exact_rows(None, d, 1));
            }
        }
        let last = rep + 1 == SETUP_REPS;
        let segment_end = args.seconds * (rep + 1) as f64 / SETUP_REPS as f64;
        let start = Instant::now();
        let mut next_cold = window + cold_every_s(args.kind);
        loop {
            let elapsed = window + start.elapsed().as_secs_f64();
            if (elapsed >= segment_end && !(last && durations.len() < MIN_OPS))
                || elapsed >= HARD_CAP_S
            {
                break;
            }
            if elapsed >= next_cold {
                // The stream's session is replaced: check it first.
                failed += u64::from(!bench.final_check());
                next_cold += cold_every_s(args.kind);
                log.reopen(&mut bench)?;
                continue;
            }
            attempted += 1;
            match bench.op() {
                Ok((secs, out)) => {
                    durations.push(secs);
                    let ok = bench.check(&out)
                        && match (&out, &first) {
                            (Output::Detection(d), Some(f)) => same_accounting(d, f),
                            _ => true,
                        };
                    failed += u64::from(!ok);
                }
                Err(e) => {
                    eprintln!("op failed: {e}");
                    failed += 1;
                }
            }
            if rep == 0
                && args.kind == Kind::Stream
                && bench.applied == params.exact_ops
                && exact.is_none()
            {
                exact = bench
                    .session_detection()
                    .map(|after| workload::exact_rows(open_det.as_ref(), &after, params.exact_ops));
            }
        }
        if !bench.final_check() {
            failed += 1;
        }
        window += start.elapsed().as_secs_f64();
    }
    let attempted = attempted + log.opens;
    let failed = (failed + log.failed).min(attempted);
    let exact = exact.ok_or("the window ended before the exact-row prefix")?;
    let exact_of = |name: &str| exact.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let busy: f64 = durations.iter().sum();
    let ms: Vec<f64> = durations.iter().map(|s| s * 1e3).collect();
    eprintln!(
        "{}: {} warm ops, {} above p90, {} violating tuples in the reference, opens {:?} s",
        args.kind.name(),
        ms.len(),
        stats::above_p90(&ms),
        violations,
        log.open_s
    );
    let values = [
        median_of(&log.times, |t| t.total_s),
        stats::median(&log.open_s),
        durations.len() as f64 / busy,
        stats::p90(&ms),
        probe::status_bytes("VmHWM") as f64 / (1024.0 * 1024.0),
        exact_of("shipped_bytes_per_op"),
        exact_of("sim_response_s"),
    ];
    let metrics: Vec<(&str, &str, f64)> =
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect();
    Ok(result_line(attempted, failed, &metrics))
}

fn traced_run(args: &Args, params: Params) -> Result<String, String> {
    let mut log = SetupLog::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // The previous bench is freed before the next one is built.
        drop(kept.take());
        kept = Some(log.set_up_and_open(args.kind, params, args.seed)?);
    }
    let (mut bench, open_out) = kept.expect("at least one setup");
    let open_det = open_detection(&bench, open_out);
    let out = traced::run(&mut bench, open_det, args.seconds, HARD_CAP_S)?;
    let (times, reference_s, failed, opens) = (log.times, log.reference_s, log.failed, log.opens);
    let mut rows = out.rows;
    let rows_n = params.rows as f64;
    rows.insert("datagen.generate_s", median_of(&times, |t| t.generate_s));
    rows.insert("dist.partition_s", median_of(&times, |t| t.partition_s));
    rows.insert("setup.stream_s", median_of(&times, |t| t.stream_s));
    rows.insert("setup.reference_s", stats::median(&reference_s));
    rows.insert("relation.bytes_per_row", times[0].rss_bytes as f64 / rows_n);
    rows.insert("relation.heap_bytes_per_row", times[0].heap_bytes as f64 / rows_n);

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out.recorder.to_json())) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written ({e})"),
    }
    let metrics: Vec<(&str, &str, f64)> =
        PER_LAYER.iter().map(|&(n, u)| (n, u, rows.get(n).copied().unwrap_or(0.0))).collect();
    let attempted = out.attempted + opens;
    Ok(result_line(attempted, out.failed + failed, &metrics))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The chunk size is pinned like the pool width: `DCD_CHUNK_ROWS` in
    // the environment must not change the workload silently.
    let chunk_rows = distributed_cfd::relation::store::DEFAULT_CHUNK_ROWS;
    distributed_cfd::relation::store::set_chunk_rows(Some(chunk_rows));
    let params = Params::standard();
    let ignored: Vec<String> = ["DCD_SCALE", "DCD_THREADS", "DCD_CHUNK_ROWS"]
        .iter()
        .filter(|v| std::env::var_os(v).is_some())
        .map(|v| format!("\"{v}\""))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"pool_width\": {}, \"chunk_rows\": {chunk_rows}, \"rows\": {}, \
         \"sites\": {}, \"commit\": \"{}\", \"ignored_env\": [{}]}}}}",
        args.kind.name(),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        params.threads,
        params.rows,
        match args.kind {
            Kind::Vertical => workload::VERTICAL_GROUPS.len(),
            Kind::Batch | Kind::Stream => workload::SITES,
        },
        commit(),
        ignored.join(", ")
    );
    let result = if args.trace { traced_run(&args, params) } else { untraced(&args, params) };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names every metric the binary prints, and no
    /// other.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
        let listed = json.matches("\"name\"").count();
        let workloads = BENCHMARK_WORKLOADS.len();
        assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for kind in BENCHMARK_WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload cust-batch --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!((ok.kind, ok.seed, ok.trace), (Kind::Batch, 3, true));
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload cust-batch --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload cust-batch --seed 3 --trace 0").is_err());
        assert!(parse("--workload cust-batch --seed -1 --seconds 10 --trace 0").is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(3, 0, &[("x", "s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
