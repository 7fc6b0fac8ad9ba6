//! Replication-aware detection (§VIII future work, realized).
//!
//! When fragments are replicated, a pattern's coordinator can be chosen
//! so that many of the pattern's tuples are *already* at the coordinator
//! via replicas — those fragments ship nothing. `REPDETECT` is
//! `PATDETECTS` with a replica-aware coordinator rule:
//!
//! > for pattern `l`, pick the site `s` maximizing
//! > `Σ { lstat[f][l] : s holds a replica of fragment f }`
//! > (ties: smallest site id);
//!
//! primaries of the remaining fragments then ship their σ-blocks as
//! usual. With replication factor 1 this degenerates to `PATDETECTS`
//! exactly (tested); with factor `n` it ships nothing.

use crate::config::RunConfig;
use crate::local::applicable_patterns;
use crate::report::Detection;
use crate::run::Run;
use crate::runner::{
    constants_phase, exchange_statistics, shared_layout, sigma_phase, RoundOutput,
};
use crate::sigma::{sort_for_sigma, SigmaPartition};
use dcd_cfd::codes::CodeRow;
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{Cfd, SimpleCfd, ViolationReport};
use dcd_dist::pool::scoped_map;
use dcd_dist::{ReplicatedPartition, SiteId, TID_CELLS};

/// Runs `REPDETECT` over a replicated partition — the engine behind
/// the `DetectRequest` façade of the `distributed-cfd` root crate.
pub fn run_replicated(
    partition: &ReplicatedPartition,
    sigma: &[Cfd],
    cfg: &RunConfig,
) -> Detection {
    let run = Run::new(partition.n_sites(), *cfg);
    let mut total = RoundOutput::default();
    for cfd in sigma.iter().flat_map(Cfd::simplify) {
        total.absorb(run_one(&run, partition, &cfd));
    }
    run.detection("REPDETECT", total.report, total.paper_cost)
}

fn run_one(run: &Run, partition: &ReplicatedPartition, cfd: &SimpleCfd) -> RoundOutput {
    let cfg = run.cfg();
    let base = partition.base();
    let n = base.n_sites();
    let mut report = ViolationReport::default();
    report.absorb(&cfd.name, ViolationSet::default());
    let mut local_secs = vec![0.0_f64; n];

    // Constants: local at primaries (replicas would find the same),
    // one morsel per (site, chunk).
    let (variable, constants) = cfd.split_constant();
    if !constants.is_empty() {
        let checked = constants_phase(run, &cfd.name, base.fragments(), &constants);
        for (i, (vs, secs)) in checked.into_iter().enumerate() {
            local_secs[i] += secs;
            report.absorb(&cfd.name, vs);
        }
    }
    let Some(variable) = variable else {
        let paper_cost = cfg.cost.paper_cost(&vec![vec![0; n]; n], &local_secs);
        return RoundOutput { report, paper_cost };
    };

    // σ-partition primaries (statistics are placement-independent), one
    // morsel per (site, chunk); applicability doubles as exchange
    // participation.
    let sorted = sort_for_sigma(&variable);
    let k = sorted.cfd.tableau.len();
    let applicable: Vec<Vec<usize>> =
        base.fragments().iter().map(|f| applicable_patterns(f, &sorted.cfd)).collect();
    let mut parts: Vec<SigmaPartition> = Vec::with_capacity(n);
    let scanned = sigma_phase(run, &cfd.name, base.fragments(), &sorted, &applicable);
    for (i, (part, secs)) in scanned.into_iter().enumerate() {
        local_secs[i] += secs;
        parts.push(part);
    }
    exchange_statistics(run, &cfd.name, &applicable, k);

    // Replica-aware coordinator per pattern: maximize locally available
    // tuples. Fragments the coordinator holds no replica of ship their
    // blocks as `(tid, codes)` rows over the code-native wire.
    let lstat: Vec<Vec<usize>> = parts.iter().map(SigmaPartition::lstat).collect();
    let mut matrix = vec![vec![0usize; n]; n];
    let mut gathered: Vec<Vec<(usize, Vec<CodeRow>)>> = vec![Vec::new(); n];
    let attrs = sorted.cfd.shipped_attrs();
    // Resolve the tableau once per round; every coordinator job reuses
    // the compiled patterns and feeds the run's kernel counters.
    let mut resolved = shared_layout(base.fragments(), &attrs).resolve(&sorted.cfd);
    resolved.set_counters(dcd_cfd::KernelCounters::register(run.registry()));
    run.phase(&format!("ship:{}", cfd.name), |clk| {
        #[allow(clippy::needless_range_loop)] // l indexes a column of lstat
        for l in 0..k {
            let total: usize = (0..n).map(|f| lstat[f][l]).sum();
            if total == 0 {
                continue;
            }
            let coord = (0..n)
                .max_by_key(|&s| {
                    let available: usize = (0..n)
                        .filter(|&f| partition.holds(SiteId(s as u32), f))
                        .map(|f| lstat[f][l])
                        .sum();
                    (available, n - s)
                })
                .expect("n > 0");
            let coord_site = SiteId(coord as u32);
            let mut rows: Vec<CodeRow> = Vec::new();
            for (f, frag) in base.fragments().iter().enumerate() {
                let block = &parts[f].blocks[l];
                if block.is_empty() {
                    continue;
                }
                if !partition.holds(coord_site, f) {
                    let cells = block.len() * (attrs.len() + TID_CELLS);
                    run.ledger().charge_codes(coord_site, frag.site, block.len(), cells);
                    matrix[coord][f] += block.len();
                }
                rows.extend(frag.data.code_rows(&attrs, block));
            }
            gathered[coord].push((l, rows));
        }
        clk.transfer(&matrix);
    });

    let validated = run.phase(&format!("validate:{}", cfd.name), |clk| {
        scoped_map(cfg.threads, n, |c| {
            let jobs = &gathered[c];
            if jobs.is_empty() {
                return None;
            }
            let mut vs = ViolationSet::default();
            for (l, rs) in jobs {
                vs.merge(resolved.detect_pattern_among(rs.iter(), *l));
            }
            let secs: f64 = jobs.iter().map(|(_, rs)| cfg.cost.check_time(rs.len())).sum();
            Some((vs, clk.charge(SiteId(c as u32), secs)))
        })
    });
    for (c, outcome) in validated.into_iter().enumerate() {
        if let Some((vs, secs)) = outcome {
            local_secs[c] += secs;
            report.absorb(&cfd.name, vs);
        }
    }

    let paper_cost = cfg.cost.paper_cost(&matrix, &local_secs);
    RoundOutput { report, paper_cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_batch, CoordinatorStrategy};
    use dcd_cfd::parse_cfd;
    use dcd_dist::HorizontalPartition;
    use dcd_relation::{vals, Relation, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        if i % 3 == 0 { 44 } else { 31 },
                        format!("z{}", i % 7),
                        format!("s{}", i % 4)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn replication_factor_one_equals_patdetects() {
        let rel = sample(80);
        let base = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let replicated = ReplicatedPartition::chained(base.clone(), 1).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let cfg = RunConfig::default();
        let plain = run_batch(&base, &cfd.simplify(), CoordinatorStrategy::MinShipment, &cfg);
        let rep = run_replicated(&replicated, std::slice::from_ref(&cfd), &cfg);
        assert_eq!(rep.violations.all_tids(), plain.violations.all_tids());
        assert_eq!(rep.shipped_tuples, plain.shipped_tuples);
    }

    #[test]
    fn replication_reduces_shipment_monotonically() {
        let rel = sample(120);
        let base = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let cfg = RunConfig::default();
        let global = dcd_cfd::detect(&rel, &cfd);
        let mut last = usize::MAX;
        for r in 1..=4 {
            let replicated = ReplicatedPartition::chained(base.clone(), r).unwrap();
            let d = run_replicated(&replicated, std::slice::from_ref(&cfd), &cfg);
            assert_eq!(d.violations.all_tids(), global.tids, "r = {r}");
            assert!(
                d.shipped_tuples <= last,
                "shipment must not grow with replication: r={r}, {} > {last}",
                d.shipped_tuples
            );
            last = d.shipped_tuples;
        }
        // Full replication ships nothing.
        assert_eq!(last, 0);
    }

    #[test]
    fn constant_cfds_stay_local_under_replication() {
        let rel = sample(40);
        let base = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let replicated = ReplicatedPartition::chained(base, 2).unwrap();
        let cfd = parse_cfd(rel.schema(), "c", "([cc=44, zip] -> [street=s0])").unwrap();
        let d = run_replicated(&replicated, std::slice::from_ref(&cfd), &RunConfig::default());
        assert_eq!(d.shipped_tuples, 0);
        let global = dcd_cfd::detect(&rel, &cfd);
        assert_eq!(d.violations.all_tids(), global.tids);
    }

    #[test]
    fn multi_cfd_replicated_run() {
        let rel = sample(60);
        let base = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let replicated = ReplicatedPartition::chained(base, 2).unwrap();
        let sigma = vec![
            parse_cfd(rel.schema(), "a", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(rel.schema(), "b", "([zip] -> [street])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let d = run_replicated(&replicated, &sigma, &RunConfig::default());
        assert_eq!(d.violations.all_tids(), global.all_tids());
        assert_eq!(d.violations.per_cfd.len(), 2);
    }
}
