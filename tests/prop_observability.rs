//! The observability determinism contract, pinned as a matrix: for
//! every detector × every topology, the [`Detection`]'s frozen
//! `metrics` snapshot and its `trace` span set must be bit-identical
//! across pool widths {1, 8} × chunk sizes {257 rows, 64Ki rows}.
//! Metrics are accumulated by order-free atomics and spans are
//! timestamped from `SiteClocks` snapshots, so nothing the scheduler
//! does (who runs which morsel, stolen or not, chunked how) may reach
//! either artifact. Host-scoped pool metrics (`dcd_pool_*`) live in
//! `host_registry()` precisely because they *do* vary with scheduling;
//! this suite pins everything that does not.

use distributed_cfd::datagen::{update_stream, UpdateStreamConfig};
use distributed_cfd::prelude::*;
use distributed_cfd::relation::set_chunk_rows;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .attr("d", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

/// ~300 rows over tiny domains: plenty of FD collisions and, at chunk
/// size 257, at least two chunks per site fragment.
fn sample() -> Relation {
    Relation::from_rows(
        schema(),
        (0..300)
            .map(|i| {
                vals![
                    i,
                    i % 3,
                    i % 5,
                    format!("c{}", i % 4),
                    format!("d{}", if i % 7 == 0 { 9 } else { i % 2 })
                ]
            })
            .collect(),
    )
    .unwrap()
}

fn sigma(s: &Arc<Schema>) -> Vec<Cfd> {
    vec![
        parse_cfd(s, "phi1", "([a, b] -> [d])").unwrap(),
        parse_cfd(s, "phi2", "([a=1, c] -> [d])").unwrap(),
        parse_cfd(s, "phi3", "([b=2, c=c1] -> [d=d1])").unwrap(),
    ]
}

fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::CtrDetect,
        Algorithm::PatDetectS,
        Algorithm::PatDetectRT,
        Algorithm::seq_detect(),
        Algorithm::clust_detect(),
    ]
}

/// One full sweep under a chunk size and pool width: every detector
/// over every topology, labelled, in a fixed order.
fn sweep(chunk: Option<usize>, threads: usize) -> Vec<(String, Detection)> {
    set_chunk_rows(chunk);
    let rel = sample();
    let s = rel.schema().clone();
    let sigma = sigma(&s);
    let horizontal = HorizontalPartition::round_robin(&rel, 4).unwrap();
    let vertical =
        VerticalPartition::by_attribute_groups(&rel, &[&["id", "a", "b"], &["c"], &["d"]]).unwrap();
    let hybrid = HybridPartition::new(&horizontal, &[&["id", "a", "b"], &["c", "d"]]).unwrap();
    let replicated = ReplicatedPartition::chained(horizontal.clone(), 2).unwrap();
    set_chunk_rows(None);

    let cfg = RunConfig::default().with_threads(threads);
    let mut out = Vec::new();
    for alg in algorithms() {
        let topologies: [(&str, Topology); 4] = [
            ("horizontal", horizontal.clone().into()),
            ("vertical", vertical.clone().into()),
            ("hybrid", hybrid.clone().into()),
            ("replicated", replicated.clone().into()),
        ];
        for (name, topo) in topologies {
            let d = DetectRequest::over(topo)
                .cfds(sigma.iter().cloned())
                .algorithm(alg)
                .config(cfg)
                .run()
                .expect("matrix run succeeds");
            out.push((format!("{name}/{alg:?}"), d));
        }
    }
    out
}

/// Every run must carry the uniform observability surface: the ledger
/// mirror, the kernel family, the run-summary gauges, and a non-empty
/// span set whose timestamps agree with the final site clocks.
fn assert_surface(label: &str, d: &Detection) {
    for family in [
        "dcd_shipped_tuples_total",
        "dcd_shipped_cells_total",
        "dcd_shipped_bytes_total",
        "dcd_control_messages_total",
        "dcd_control_bytes_total",
    ] {
        assert!(
            d.metrics.value(family, "").is_some()
                || d.metrics.families.iter().any(|f| f.name == family),
            "{label}: missing ledger-mirror family {family}"
        );
    }
    assert_eq!(
        d.metrics.counter_total("dcd_shipped_tuples_total"),
        d.shipped_tuples as u64,
        "{label}: shipment mirror diverged from the ledger"
    );
    assert!(
        d.metrics.value("dcd_run_response_seconds", "").is_some(),
        "{label}: missing run-summary gauge"
    );
    assert!(!d.trace.spans.is_empty(), "{label}: no spans recorded");
    let horizon = d.site_clocks.iter().fold(0.0f64, |m, &c| m.max(c));
    for span in &d.trace.spans {
        assert!(span.start <= span.end, "{label}: inverted span {}", span.name);
        assert!(
            span.end <= horizon,
            "{label}: span {} ends past the final clock of its run",
            span.name
        );
    }
}

#[test]
fn observability_is_bit_identical_across_widths_and_chunk_sizes() {
    // Baseline: one worker, 257-row chunks.
    let baseline = sweep(Some(257), 1);
    assert!(
        baseline.iter().any(|(_, d)| !d.violations.all_tids().is_empty()),
        "fixture should contain violations"
    );
    for (label, d) in &baseline {
        assert_surface(label, d);
    }
    for chunk in [Some(257), Some(64 * 1024)] {
        for threads in [1usize, 8] {
            if chunk == Some(257) && threads == 1 {
                continue; // the baseline itself
            }
            let got = sweep(chunk, threads);
            assert_eq!(baseline.len(), got.len());
            for ((label, base), (label2, d)) in baseline.iter().zip(&got) {
                assert_eq!(label, label2);
                let cell = format!("{label} @threads={threads}, chunk={chunk:?}");
                // Snapshot and trace types compare f64s through bits.
                assert_eq!(base.metrics, d.metrics, "{cell}: metrics snapshot diverged");
                assert_eq!(base.trace, d.trace, "{cell}: trace diverged");
                assert_eq!(
                    base.metrics.expose(),
                    d.metrics.expose(),
                    "{cell}: exposition text diverged"
                );
            }
        }
    }
}

/// Trace completeness: every clock advance lies inside a phase span, so
/// each site's span durations sum to its final clock.
fn assert_trace_complete(label: &str, d: &Detection) {
    let mut covered = vec![0.0f64; d.site_clocks.len()];
    for span in &d.trace.spans {
        covered[span.site] += span.end - span.start;
    }
    for (site, (&sum, &clock)) in covered.iter().zip(&d.site_clocks).enumerate() {
        assert!(
            (sum - clock).abs() <= 1e-9 * clock,
            "{label}: site {site} spans cover {sum} s of its {clock} s clock"
        );
    }
}

#[test]
fn every_clock_advance_lies_inside_a_span() {
    for (label, d) in sweep(Some(257), 1) {
        assert_trace_complete(&label, &d);
    }

    let rel = sample();
    let s = rel.schema().clone();
    let stream_cfg = UpdateStreamConfig { n_batches: 3, ops_per_batch: 40, ..Default::default() };

    // A horizontal session tracking a mined tableau, then fed batches.
    let horizontal = HorizontalPartition::round_robin(&rel, 4).unwrap();
    let stream = update_stream(&horizontal, &stream_cfg);
    let mut session = DetectRequest::over(horizontal).cfds(sigma(&s)).session().unwrap();
    let phi1 = sigma(&s)[0].simplify().pop().unwrap();
    session.track_mining(&phi1, &MiningConfig::default()).unwrap();
    assert_trace_complete("horizontal session after track_mining", &session.detection());
    for (i, batch) in stream.into_iter().enumerate() {
        session.apply_batch(&DeltaBatch::from(batch)).unwrap();
        assert_trace_complete(&format!("horizontal session, batch {i}"), &session.detection());
    }

    // A vertical session fed whole-tuple inserts and deletes.
    let vertical =
        VerticalPartition::by_attribute_groups(&rel, &[&["id", "a", "b"], &["c"], &["d"]]).unwrap();
    let single = HorizontalPartition::round_robin(&rel, 1).unwrap();
    let mut session = DetectRequest::over(vertical).cfds(sigma(&s)).session().unwrap();
    for (i, batch) in update_stream(&single, &stream_cfg).into_iter().enumerate() {
        session.apply_batch(&DeltaBatch::from(batch)).unwrap();
        assert_trace_complete(&format!("vertical session, batch {i}"), &session.detection());
    }
}
