//! Phase-level run traces on the **simulated clock**.
//!
//! Spans are timestamped by `SiteClocks` seconds, never by the wall
//! clock (the `wall-clock` rule of `dcd_lint` rejects `Instant`/
//! `SystemTime` here, with an obs-specific message): engines record a
//! span *after* a phase joins, as `(end = clock now, start = end −
//! seconds charged)`, on the coordinating thread in site order — so a
//! trace, like a registry snapshot, is bit-identical across pool widths
//! and chunk sizes.

use std::fmt::Write as _;
use std::sync::Mutex;

/// One phase execution on one simulated site.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (e.g. `sigma_partition`, `validate`).
    pub name: String,
    /// The site whose clock the span is charged to.
    pub site: usize,
    /// Start, simulated seconds.
    pub start: f64,
    /// End, simulated seconds (`>= start`).
    pub end: f64,
}

impl PartialEq for Span {
    /// Exact comparison: the simulated timestamps are pinned
    /// bit-identical, so equality goes through the bits.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.site == other.site
            && self.start.to_bits() == other.start.to_bits()
            && self.end.to_bits() == other.end.to_bits()
    }
}

/// An ordered list of [`Span`]s, exportable as chrome-trace JSON
/// (`chrome://tracing` / Perfetto's legacy "JSON Array Format").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl RunTrace {
    /// Appends one span.
    pub fn record(&mut self, name: &str, site: usize, start: f64, end: f64) {
        debug_assert!(end >= start, "span {name} ends before it starts");
        self.spans.push(Span { name: name.to_string(), site, start, end });
    }

    /// The trace as chrome-trace JSON: one complete (`"ph":"X"`) event
    /// per span, `tid` = site, timestamps in microseconds of simulated
    /// time.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                s.name.replace('"', "\\\""),
                s.site,
                s.start * 1e6,
                (s.end - s.start) * 1e6
            );
        }
        out.push_str("]}");
        out
    }
}

/// The per-run observer bundle: a
/// [`MetricsRegistry`](crate::MetricsRegistry) plus a mutexed
/// [`RunTrace`]. Owned by the engine's run context (`dcd_core::Run`)
/// together with the ledger and the clocks; `Default` yields a
/// functional observer whose registry simply goes unread.
#[derive(Debug, Default)]
pub struct RunObserver {
    /// The run's metrics registry.
    pub registry: crate::MetricsRegistry,
    trace: Mutex<RunTrace>,
}

impl RunObserver {
    /// A fresh observer with an empty registry and trace.
    pub fn new() -> Self {
        RunObserver::default()
    }

    /// Records one phase span (simulated seconds; see module docs).
    pub fn span(&self, name: &str, site: usize, start: f64, end: f64) {
        self.trace.lock().expect("trace poisoned").record(name, site, start, end);
    }

    /// Records one span per site whose clock moved across a phase:
    /// `before`/`after` are per-site clock snapshots taken around the
    /// phase (site order = index order). Sites the phase never charged
    /// (`after == before`) contribute no span, so traces stay free of
    /// zero-length noise and identical across pool widths.
    pub fn span_sites(&self, name: &str, before: &[f64], after: &[f64]) {
        let mut trace = self.trace.lock().expect("trace poisoned");
        for (site, (&b, &a)) in before.iter().zip(after).enumerate() {
            if a > b {
                trace.record(name, site, b, a);
            }
        }
    }

    /// A copy of the trace so far.
    pub fn trace(&self) -> RunTrace {
        self.trace.lock().expect("trace poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_compare_through_bits() {
        let mut a = RunTrace::default();
        a.record("scan", 0, 0.0, 1.5);
        let mut b = RunTrace::default();
        b.record("scan", 0, 0.0, 1.5);
        assert_eq!(a, b);
        b.record("scan", 1, 0.0, 1.5);
        assert_ne!(a, b);
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = RunTrace::default();
        t.record("validate", 2, 0.5, 0.75);
        let json = t.chrome_trace_json();
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"name\":\"validate\",\"ph\":\"X\",\"pid\":0,\"tid\":2,\
             \"ts\":500000,\"dur\":250000}]}"
        );
    }

    #[test]
    fn observer_accumulates_spans() {
        let obs = RunObserver::new();
        obs.span("scan", 0, 0.0, 1.0);
        obs.span("scan", 1, 0.0, 2.0);
        assert_eq!(obs.trace().spans.len(), 2);
        obs.registry.counter("dcd_x_total", "x", &[]).inc(1);
        assert_eq!(obs.registry.counter_total("dcd_x_total"), 1);
    }
}
