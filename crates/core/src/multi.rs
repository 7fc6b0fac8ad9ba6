//! Multi-CFD detection: `SEQDETECT` and `CLUSTDETECT` (§IV-C).
//!
//! `SEQDETECT` runs a single-CFD algorithm once per CFD, pipelined: the
//! per-site clocks carry over between rounds, so a site that finished its
//! part of CFD `k` immediately starts partitioning for CFD `k+1` while
//! slower sites still validate. The same tuple may ship several times —
//! once per CFD that matches it.
//!
//! `CLUSTDETECT` first clusters CFDs whose LHS attribute sets are related
//! by containment (`X ⊆ X'` or `X' ⊆ X`), partitions the data *once per
//! cluster* on the tableau projected onto the common attributes
//! `Z = X ∩ X'`, and ships each tuple at most once per cluster. Every
//! member CFD is then validated at the coordinators. Because `Z ⊆ X` for
//! every member, tuples agreeing on any member's LHS also agree on `Z`
//! and therefore land at the same coordinator — the Lemma 6 argument
//! lifted to clusters.

use crate::config::RunConfig;
use crate::local::applicable_patterns;
use crate::report::Detection;
use crate::run::Run;
use crate::runner::{
    assign_coordinators, constants_phase, exchange_statistics, run_single_cfd, shared_layout,
    sigma_phase, CoordinatorStrategy, RoundOutput,
};
use crate::sigma::{sort_for_sigma, SigmaPartition};
use dcd_cfd::codes::{CodeRow, ResolvedCfd};
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{Cfd, NormalPattern, PatternValue, SimpleCfd, ViolationReport};
use dcd_dist::pool::scoped_map;
use dcd_dist::{HorizontalPartition, SiteId, TID_CELLS};
use dcd_relation::{AttrId, FxHashSet};

/// Runs `SEQDETECT`: pipelined sequential processing, one CFD at a
/// time over one [`Run`] — the engine behind the `DetectRequest`
/// façade. `inner` is the single-CFD strategy used per round (the
/// paper runs either `PATDETECTS` or `PATDETECTRT`).
pub fn run_seq(
    partition: &HorizontalPartition,
    sigma: &[Cfd],
    inner: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let run = Run::new(partition.n_sites(), *cfg);
    let mut total = RoundOutput::default();
    for simple in sigma.iter().flat_map(Cfd::simplify) {
        total.absorb(run_single_cfd(&run, partition, &simple, inner));
    }
    run.detection("SEQDETECT", total.report, total.paper_cost)
}

/// Runs `CLUSTDETECT`: clusters CFDs by LHS containment and ships each
/// tuple at most once per cluster — the engine behind the
/// `DetectRequest` façade. `inner` assigns coordinators to the
/// projected patterns.
pub fn run_clust(
    partition: &HorizontalPartition,
    sigma: &[Cfd],
    inner: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let run = Run::new(partition.n_sites(), *cfg);
    let mut total = RoundOutput::default();
    let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
    for cluster in cluster_by_lhs(&simples) {
        let members: Vec<&SimpleCfd> = cluster.iter().map(|&i| &simples[i]).collect();
        total.absorb(if members.len() == 1 {
            run_single_cfd(&run, partition, members[0], inner)
        } else {
            run_cluster(&run, partition, &members, inner)
        });
    }
    run.detection("CLUSTDETECT", total.report, total.paper_cost)
}

/// Greedy clustering on the LHS containment condition: a CFD joins the
/// first cluster whose common attribute set `Z` satisfies `X ⊆ Z` or
/// `Z ⊆ X`; `Z` shrinks to the intersection. Returns clusters as index
/// lists into `cfds`, preserving input order.
pub fn cluster_by_lhs(cfds: &[SimpleCfd]) -> Vec<Vec<usize>> {
    let mut clusters: Vec<(FxHashSet<AttrId>, Vec<usize>)> = Vec::new();
    for (i, cfd) in cfds.iter().enumerate() {
        let lhs: FxHashSet<AttrId> = cfd.lhs.iter().copied().collect();
        let mut placed = false;
        for (z, members) in clusters.iter_mut() {
            let z_sub = z.iter().all(|a| lhs.contains(a));
            let lhs_sub = lhs.iter().all(|a| z.contains(a));
            if z_sub || lhs_sub {
                if lhs_sub {
                    *z = lhs.clone();
                }
                members.push(i);
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push((lhs, vec![i]));
        }
    }
    clusters.into_iter().map(|(_, members)| members).collect()
}

/// Runs one cluster of ≥2 CFDs whose LHSs form a containment family:
/// σ-partition on the `Z`-projected tableau, one shipment per tuple, all
/// member CFDs validated at the coordinators.
fn run_cluster(
    run: &Run,
    partition: &HorizontalPartition,
    members: &[&SimpleCfd],
    strategy: CoordinatorStrategy,
) -> RoundOutput {
    let cfg = run.cfg();
    let n = partition.n_sites();
    let mut report = ViolationReport::default();
    for m in members {
        report.absorb(&m.name, ViolationSet::default());
    }
    let mut local_secs = vec![0.0_f64; n];

    // Constants per member: local checks (Proposition 5), as always.
    // The member loop stays sequential (a site recurs across members,
    // and each clock must see one fixed addition order); within a
    // member, (site, chunk) morsels fan out across the pool.
    let mut variable_members: Vec<SimpleCfd> = Vec::new();
    for m in members {
        let (var, constants) = m.split_constant();
        if !constants.is_empty() {
            let checked = constants_phase(run, &m.name, partition.fragments(), &constants);
            for (i, (vs, secs)) in checked.into_iter().enumerate() {
                local_secs[i] += secs;
                report.absorb(&m.name, vs);
            }
        }
        if let Some(v) = var {
            variable_members.push(v);
        }
    }
    if variable_members.is_empty() {
        let paper_cost = cfg.cost.paper_cost(&vec![vec![0; n]; n], &local_secs);
        return RoundOutput { report, paper_cost };
    }

    // Common attributes Z = ∩ LHS; by the containment invariant this is
    // the smallest member LHS. Keep that member's attribute order.
    let z: Vec<AttrId> = {
        let smallest =
            variable_members.iter().min_by_key(|m| m.lhs.len()).expect("non-empty member list");
        smallest
            .lhs
            .iter()
            .copied()
            .filter(|a| variable_members.iter().all(|m| m.lhs.contains(a)))
            .collect()
    };
    if z.is_empty() {
        // Degenerate cluster; fall back to sequential rounds.
        let mut total = RoundOutput { report, paper_cost: 0.0 };
        for m in &variable_members {
            total.absorb(run_single_cfd(run, partition, m, strategy));
        }
        return total;
    }

    // Projected tableau over Z (deduplicated), as a pseudo-CFD for σ.
    let mut seen: FxHashSet<Vec<PatternValue>> = FxHashSet::default();
    let mut projected: Vec<NormalPattern> = Vec::new();
    for m in &variable_members {
        let pos: Vec<usize> =
            z.iter().map(|a| m.lhs.iter().position(|b| b == a).expect("Z ⊆ member LHS")).collect();
        for p in &m.tableau {
            let proj: Vec<PatternValue> = pos.iter().map(|&i| p.lhs[i].clone()).collect();
            if seen.insert(proj.clone()) {
                projected.push(NormalPattern::new(proj, PatternValue::Wild));
            }
        }
    }
    let zcfd = SimpleCfd {
        name: "cluster".to_string(),
        schema: variable_members[0].schema.clone(),
        lhs: z.clone(),
        rhs: variable_members[0].rhs,
        tableau: projected,
    };
    let sorted = sort_for_sigma(&zcfd);
    let k = sorted.cfd.tableau.len();

    // σ-partition per site (one scan for the whole cluster), one morsel
    // per (site, chunk); the partitioning condition doubles as the
    // Phase-2 participation rule, exactly as in `run_single_cfd`.
    let applicable: Vec<Vec<usize>> =
        partition.fragments().iter().map(|f| applicable_patterns(f, &sorted.cfd)).collect();
    let mut parts: Vec<SigmaPartition> = Vec::with_capacity(n);
    let scanned = sigma_phase(run, "cluster", partition.fragments(), &sorted, &applicable);
    for (i, (part, secs)) in scanned.into_iter().enumerate() {
        local_secs[i] += secs;
        parts.push(part);
    }

    // Statistics exchange, among participating sites only.
    exchange_statistics(run, "cluster", &applicable, k);

    // Coordinators per projected pattern.
    let lstat: Vec<Vec<usize>> = parts.iter().map(SigmaPartition::lstat).collect();
    let frag_sizes: Vec<usize> = partition.fragments().iter().map(|f| f.data.len()).collect();
    let assignment = assign_coordinators(strategy, &lstat, &frag_sizes, &cfg.cost);

    // Shipment, on the code-native wire: the union of the members'
    // (X ∪ A) attributes, once per tuple for the whole cluster, shipped
    // as `(tid, codes)` rows and charged at 4 bytes/cell.
    let mut attrs: Vec<AttrId> = Vec::new();
    for m in &variable_members {
        for a in m.shipped_attrs() {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
    }
    attrs.sort();
    let layout = shared_layout(partition.fragments(), &attrs);
    // Resolve every member against the union layout once; each
    // coordinator validates all members from the same compilation,
    // feeding the run's kernel counters.
    let counters = dcd_cfd::KernelCounters::register(run.registry());
    let resolved: Vec<ResolvedCfd> = variable_members
        .iter()
        .map(|m| {
            let mut r = layout.resolve(m);
            r.set_counters(counters.clone());
            r
        })
        .collect();
    let mut matrix = vec![vec![0usize; n]; n];
    let mut gathered: Vec<Vec<CodeRow>> = vec![Vec::new(); n];
    run.phase("ship:cluster", |clk| {
        for (l, coord) in assignment.iter().enumerate() {
            let Some(c) = *coord else { continue };
            for (i, frag) in partition.fragments().iter().enumerate() {
                let block = &parts[i].blocks[l];
                if block.is_empty() {
                    continue;
                }
                if i != c.index() {
                    let cells = block.len() * (attrs.len() + TID_CELLS);
                    run.ledger().charge_codes(c, frag.site, block.len(), cells);
                    matrix[c.index()][i] += block.len();
                }
                gathered[c.index()].extend(frag.data.code_rows(&attrs, block));
            }
        }
        clk.transfer(&matrix);
    });

    // Validate every member CFD at each coordinator, in parallel, on
    // codes (each member's attributes resolve to cell positions of the
    // cluster's union layout).
    let validated = run.phase("validate:cluster", |clk| {
        scoped_map(cfg.threads, n, |c| {
            let rows = &gathered[c];
            if rows.is_empty() {
                return None;
            }
            let results: Vec<(String, ViolationSet)> = variable_members
                .iter()
                .zip(&resolved)
                .map(|(m, r)| (m.name.clone(), r.detect_among(rows)))
                .collect();
            let secs = cfg.cost.check_time(rows.len()) * variable_members.len() as f64;
            Some((results, clk.charge(SiteId(c as u32), secs)))
        })
    });
    for (c, outcome) in validated.into_iter().enumerate() {
        if let Some((results, secs)) = outcome {
            local_secs[c] += secs;
            for (name, vs) in results {
                report.absorb(&name, vs);
            }
        }
    }

    let paper_cost = cfg.cost.paper_cost(&matrix, &local_secs);
    RoundOutput { report, paper_cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Relation, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("ac", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("city", ValueType::Str)
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
                        (i % 4) as i64,
                        format!("z{}", i % 6),
                        format!("s{}", i % 4),
                        format!("c{}", i % 3)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    /// Overlapping pair like the paper's Exp-5: LHS(φ2) ⊂ LHS(φ1).
    fn overlapping_sigma(s: &Arc<Schema>) -> Vec<Cfd> {
        vec![
            parse_cfd(s, "phi1", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(s, "phi2", "([cc] -> [city])").unwrap(),
        ]
    }

    #[test]
    fn clustering_groups_containment_families() {
        let s = schema();
        let sigma = [
            parse_cfd(&s, "a", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(&s, "b", "([cc] -> [city])").unwrap(),
            parse_cfd(&s, "c", "([ac] -> [city])").unwrap(),
        ];
        let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
        let clusters = cluster_by_lhs(&simples);
        assert_eq!(clusters, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn seq_and_clust_agree_with_centralized() {
        let rel = sample(80);
        let s = rel.schema().clone();
        let sigma = overlapping_sigma(&s);
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfg = RunConfig::default();
        let inner = CoordinatorStrategy::MinResponseTime;
        let runs =
            [run_seq(&partition, &sigma, inner, &cfg), run_clust(&partition, &sigma, inner, &cfg)];
        for d in runs {
            assert_eq!(d.violations.all_tids(), global.all_tids(), "{}", d.algorithm);
            // Per-CFD sets match too.
            for (name, vs) in &global.per_cfd {
                let (_, got) =
                    d.violations.per_cfd.iter().find(|(n, _)| n == name).expect("cfd present");
                assert_eq!(&got.tids, &vs.tids, "{} / {}", d.algorithm, name);
            }
        }
    }

    #[test]
    fn clust_ships_fewer_tuples_than_seq() {
        let rel = sample(200);
        let s = rel.schema().clone();
        let sigma = overlapping_sigma(&s);
        let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfg = RunConfig::default();
        let inner = CoordinatorStrategy::MinResponseTime;
        let seq = run_seq(&partition, &sigma, inner, &cfg);
        let clust = run_clust(&partition, &sigma, inner, &cfg);
        assert!(
            clust.shipped_tuples < seq.shipped_tuples,
            "clust {} !< seq {}",
            clust.shipped_tuples,
            seq.shipped_tuples
        );
    }

    #[test]
    fn disjoint_lhs_cfds_fall_back_to_singleton_clusters() {
        let rel = sample(60);
        let s = rel.schema().clone();
        let sigma = vec![
            parse_cfd(&s, "a", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(&s, "b", "([ac] -> [city])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let d = run_clust(
            &partition,
            &sigma,
            CoordinatorStrategy::MinResponseTime,
            &RunConfig::default(),
        );
        assert_eq!(d.violations.all_tids(), global.all_tids());
    }

    #[test]
    fn constant_patterns_inside_clusters_are_checked() {
        let rel = sample(60);
        let s = rel.schema().clone();
        let sigma = vec![
            parse_cfd(&s, "a", "([cc=44, zip] -> [street])").unwrap(),
            parse_cfd(&s, "b", "([cc=44] -> [city=c0])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        assert!(!global.all_tids().is_empty());
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let d = run_clust(
            &partition,
            &sigma,
            CoordinatorStrategy::MinResponseTime,
            &RunConfig::default(),
        );
        assert_eq!(d.violations.all_tids(), global.all_tids());
    }

    #[test]
    fn seq_with_min_shipment_inner() {
        let rel = sample(60);
        let s = rel.schema().clone();
        let sigma = overlapping_sigma(&s);
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let d =
            run_seq(&partition, &sigma, CoordinatorStrategy::MinShipment, &RunConfig::default());
        assert_eq!(d.violations.all_tids(), global.all_tids());
    }
}
