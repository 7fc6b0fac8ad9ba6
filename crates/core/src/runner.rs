//! Shared machinery for the single-CFD detection algorithms of §IV-B.
//!
//! `CTRDETECT`, `PATDETECTS` and `PATDETECTRT` differ *only* in how
//! coordinators are assigned to pattern tuples (a single global
//! coordinator vs. per-pattern max-shipper vs. per-pattern greedy
//! response-time). Everything else — constant-CFD local checks,
//! partitioning-condition filtering, σ-partitioning, the statistics
//! exchange, shipment execution, coordinator-side validation and cost
//! accounting — is identical and lives here.

use crate::config::RunConfig;
use crate::local::{applicable_patterns, check_constants_range_with, compile_constants};
use crate::report::Detection;
use crate::run::Run;
use crate::sigma::{
    sigma_partition_range_with, sort_for_sigma, SigmaIndex, SigmaPartition, SortedCfd,
};
use dcd_cfd::codes::{CodeLayout, CodeRow};
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{NormalCfd, SimpleCfd, ViolationReport};
use dcd_dist::pool::{morsel_map, scoped_map};
use dcd_dist::{CostModel, Fragment, HorizontalPartition, SiteId, TID_CELLS};
use dcd_relation::{AttrId, Relation};

/// How coordinators are assigned to the pattern tuples of one CFD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorStrategy {
    /// One coordinator for the whole CFD: the site with the most
    /// matching tuples (`CTRDETECT`).
    Central,
    /// Per pattern, the site holding the most tuples for that pattern —
    /// it would otherwise ship the most (`PATDETECTS`).
    MinShipment,
    /// Per pattern, greedily minimize the §III-B response-time estimate
    /// (`PATDETECTRT`).
    MinResponseTime,
}

impl CoordinatorStrategy {
    /// The paper's name for the single-CFD algorithm this strategy
    /// realizes — the label a [`crate::Detection`] carries.
    pub fn algorithm_name(self) -> &'static str {
        match self {
            CoordinatorStrategy::Central => "CTRDETECT",
            CoordinatorStrategy::MinShipment => "PATDETECTS",
            CoordinatorStrategy::MinResponseTime => "PATDETECTRT",
        }
    }
}

/// The [`CodeLayout`] of wire rows shipped over `attrs` in a
/// partition. Fragments of one partition code against a single shared
/// dictionary set (the `dcd-dist` constructors guarantee it), so the
/// first fragment's dictionaries describe every site's rows; debug
/// builds verify the sharing.
pub(crate) fn shared_layout(fragments: &[Fragment], attrs: &[AttrId]) -> CodeLayout {
    debug_assert!(
        fragments.iter().all(|f| attrs.iter().all(|&a| std::sync::Arc::ptr_eq(
            f.data.dictionary(a),
            fragments[0].data.dictionary(a)
        ))),
        "fragments must share one dictionary set (build partitions through dcd-dist)"
    );
    CodeLayout::of_relation(&fragments[0].data, attrs)
}

/// Result of one single-CFD detection round.
#[derive(Debug, Default)]
pub struct RoundOutput {
    /// Violations found this round (constant + variable parts merged
    /// under the CFD's name).
    pub report: ViolationReport,
    /// The literal §III-B formula evaluated for this round alone.
    pub paper_cost: f64,
}

impl RoundOutput {
    /// Folds a later round into this one: reports merge per CFD, paper
    /// costs add up.
    pub(crate) fn absorb(&mut self, round: RoundOutput) {
        for (name, vs) in round.report.per_cfd {
            self.report.absorb(&name, vs);
        }
        self.paper_cost += round.paper_cost;
    }
}

/// Global row range of chunk `c` of `rel` — the span one (site, chunk)
/// morsel scans.
fn chunk_span(rel: &Relation, c: usize) -> (usize, usize) {
    let cr = rel.chunk_rows();
    (c * cr, ((c + 1) * cr).min(rel.len()))
}

/// The morselized Proposition-5 phase shared by every engine, run as
/// the phase `constants:{label}`: constant CFDs checked locally, one
/// morsel per (site, chunk), partial violation sets merged per site in
/// chunk order. Each site is charged exactly once, by the same formula
/// the site-granular phase used, so clocks are bit-identical across
/// pool widths *and* chunk sizes. Returns per-site
/// `(violations, secs_charged)`.
pub(crate) fn constants_phase(
    run: &Run,
    label: &str,
    fragments: &[Fragment],
    constants: &[NormalCfd],
) -> Vec<(ViolationSet, f64)> {
    let cfg = run.cfg();
    run.phase(&format!("constants:{label}"), |clk| {
        let counts: Vec<usize> = fragments.iter().map(|f| f.data.n_chunks()).collect();
        // Per-fragment resolution (partitioning condition + tableau
        // compilation) happens once, not once per morsel.
        let compiled: Vec<_> = fragments.iter().map(|f| compile_constants(f, constants)).collect();
        let partials = morsel_map(cfg.threads, &counts, |i, c| {
            let frag = &fragments[i];
            let (start, end) = chunk_span(&frag.data, c);
            check_constants_range_with(frag, &compiled[i], start, end)
        });
        partials
            .into_iter()
            .zip(fragments)
            .map(|(per_site, frag)| {
                let mut vs = ViolationSet::default();
                for partial in per_site {
                    vs.merge(partial);
                }
                let rows = frag.data.len();
                let secs = cfg.cost.scan_time(rows)
                    + cfg.cost.match_coeff * rows as f64 * constants.len() as f64;
                (vs, clk.charge(frag.site, secs))
            })
            .collect()
    })
}

/// The morselized σ-partition phase shared by every engine, run as the
/// phase `sigma:{label}`: one morsel per (site, chunk), per-range
/// partitions merged per site in chunk order — block concatenation
/// reproduces the whole-fragment partition and `comparisons` sums
/// exactly (each row's tries depend only on its LHS key), so clocks
/// stay bit-identical across pool widths and chunk sizes. Sites the
/// partitioning condition excludes (`applicable[i]` empty) contribute
/// no morsels, get an empty partition, and are not charged. Returns
/// per-site `(partition, secs_charged)`.
pub(crate) fn sigma_phase(
    run: &Run,
    label: &str,
    fragments: &[Fragment],
    sorted: &SortedCfd,
    applicable: &[Vec<usize>],
) -> Vec<(SigmaPartition, f64)> {
    let cfg = run.cfg();
    run.phase(&format!("sigma:{label}"), |clk| {
        let k = sorted.cfd.tableau.len();
        let counts: Vec<usize> = fragments
            .iter()
            .zip(applicable)
            .map(|(f, app)| if app.is_empty() { 0 } else { f.data.n_chunks() })
            .collect();
        // The tableau compiles — and the σ decision index builds — once
        // per fragment; every morsel of the fragment shares the index.
        let indexes: Vec<SigmaIndex> = fragments
            .iter()
            .zip(applicable)
            .map(|(f, app)| {
                if app.is_empty() {
                    return SigmaIndex::build(&[], &[]);
                }
                let compiled = dcd_cfd::pattern::compile_tableau(
                    &sorted.cfd.tableau,
                    &f.data,
                    &sorted.cfd.lhs,
                    sorted.cfd.rhs,
                );
                SigmaIndex::build(&compiled, app)
            })
            .collect();
        let partials = morsel_map(cfg.threads, &counts, |i, c| {
            let frag = &fragments[i];
            let (start, end) = chunk_span(&frag.data, c);
            sigma_partition_range_with(&frag.data, sorted, &indexes[i], start, end)
        });
        partials
            .into_iter()
            .enumerate()
            .map(|(i, per_site)| {
                let mut merged = SigmaPartition { blocks: vec![Vec::new(); k], comparisons: 0 };
                if applicable[i].is_empty() {
                    // Partitioning condition: the site is irrelevant to
                    // every pattern — it does not even scan (and is not
                    // charged).
                    return (merged, 0.0);
                }
                for partial in per_site {
                    for (block, partial_block) in merged.blocks.iter_mut().zip(partial.blocks) {
                        block.extend(partial_block);
                    }
                    merged.comparisons += partial.comparisons;
                }
                let frag = &fragments[i];
                let secs = cfg.cost.scan_time(frag.data.len())
                    + cfg.cost.match_coeff * merged.comparisons as f64;
                (merged, clk.charge(frag.site, secs))
            })
            .collect()
    })
}

/// The §IV-B statistics exchange, run as the phase `exchange:{label}`,
/// with the participation rules shared by every detection round: sites
/// whose fragmentation predicate refutes every pattern
/// (`applicable[i]` empty) are excluded from the exchange, and with
/// fewer than two participants the exchange — its `8·k`-byte messages,
/// their send time, and the barrier — is skipped entirely. Each
/// participant is charged [`CostModel::control_time`] for its outgoing
/// control packets before the barrier, and the barrier spans
/// *participants only*: an excluded site keeps its own clock and
/// pipelines straight into the next round instead of idling through an
/// exchange it takes no part in.
pub(crate) fn exchange_statistics(run: &Run, label: &str, applicable: &[Vec<usize>], k: usize) {
    let participants: Vec<SiteId> = (0..applicable.len())
        .filter(|&i| !applicable[i].is_empty())
        .map(|i| SiteId(i as u32))
        .collect();
    if participants.len() < 2 {
        return;
    }
    run.phase(&format!("exchange:{label}"), |clk| {
        for &i in &participants {
            for &j in &participants {
                if i != j {
                    run.ledger().control(j, i, 8 * k);
                }
            }
            clk.charge(i, run.cfg().cost.control_time(participants.len() - 1));
        }
        let latest = participants.iter().map(|&i| clk.now(i)).fold(0.0, f64::max);
        for &i in &participants {
            clk.wait_until(i, latest);
        }
    });
}

/// Runs one single-CFD detection round over a horizontal partition,
/// recording traffic and time in `run` (which may carry state from
/// earlier rounds — that is how `SEQDETECT` pipelines). The
/// per-fragment phases run on `cfg.threads` pool threads; results are
/// merged in site order, so every output is bit-identical to a
/// sequential run.
pub fn run_single_cfd(
    run: &Run,
    partition: &HorizontalPartition,
    cfd: &SimpleCfd,
    strategy: CoordinatorStrategy,
) -> RoundOutput {
    let cfg = run.cfg();
    let n = partition.n_sites();
    let mut report = ViolationReport::default();
    // Consumers always get an entry for this CFD, even when clean.
    report.absorb(&cfd.name, dcd_cfd::violation::ViolationSet::default());
    // Local compute charged per site this round (feeds the paper formula).
    let mut local_secs = vec![0.0_f64; n];

    // ---- Phase 0: constant CFDs, checked locally (Proposition 5),
    // one morsel per (site, chunk). ----
    let (variable, constants) = cfd.split_constant();
    if !constants.is_empty() {
        let checked = constants_phase(run, &cfd.name, partition.fragments(), &constants);
        for (i, (vs, secs)) in checked.into_iter().enumerate() {
            local_secs[i] += secs;
            report.absorb(&cfd.name, vs);
        }
    }

    let Some(variable) = variable else {
        // Purely constant CFD: no shipment at all.
        let paper_cost = cfg.cost.paper_cost(&vec![vec![0; n]; n], &local_secs);
        return RoundOutput { report, paper_cost };
    };

    // ---- Phase 1: σ-partition + statistics, one morsel per (site,
    // chunk), merged in chunk order per site. ----
    let sorted = sort_for_sigma(&variable);
    let k = sorted.cfd.tableau.len();
    // The partitioning condition, per site, up front: it decides both
    // who scans here and who participates in the Phase-2 exchange.
    let applicable: Vec<Vec<usize>> =
        partition.fragments().iter().map(|f| applicable_patterns(f, &sorted.cfd)).collect();
    let mut parts: Vec<SigmaPartition> = Vec::with_capacity(n);
    let scanned = sigma_phase(run, &cfd.name, partition.fragments(), &sorted, &applicable);
    for (i, (part, secs)) in scanned.into_iter().enumerate() {
        local_secs[i] += secs;
        parts.push(part);
    }

    // ---- Phase 2: statistics exchange (control traffic + barrier),
    // among participating sites only. Sites the partitioning condition
    // excluded never scanned and owe nobody their (empty) counts; when
    // fewer than two sites hold an applicable pattern there is nothing
    // to exchange and the whole phase — messages and barrier — is
    // skipped, preserving `SEQDETECT`'s pipelining across such rounds.
    exchange_statistics(run, &cfd.name, &applicable, k);

    // ---- Phase 3: coordinator assignment. ----
    let lstat: Vec<Vec<usize>> = parts.iter().map(SigmaPartition::lstat).collect();
    let frag_sizes: Vec<usize> = partition.fragments().iter().map(|f| f.data.len()).collect();
    let assignment = assign_coordinators(strategy, &lstat, &frag_sizes, &cfg.cost);

    // ---- Phase 4: shipment, on the code-native wire. Sites ship
    // `(tid, codes)` rows over the CFD's shipped attributes —
    // dictionaries are shared across fragments, so codes are
    // site-portable — charged byte-accurately at 4 bytes/cell via
    // `charge_codes` (attribute cells plus `TID_CELLS` id cells per
    // row). No tuple payload crosses the simulated wire. ----
    let attrs = sorted.cfd.shipped_attrs();
    let layout = shared_layout(partition.fragments(), &attrs);
    // Resolve the tableau once per round; every coordinator job reuses
    // the compiled patterns — and feeds the run's kernel counters
    // (register-or-get: rounds of one run accumulate into one family).
    let mut resolved = layout.resolve(&sorted.cfd);
    resolved.set_counters(dcd_cfd::KernelCounters::register(run.registry()));
    let mut matrix = vec![vec![0usize; n]; n];
    // gathered[c] = (pattern, wire rows) pairs to validate at site c.
    let mut gathered: Vec<Vec<(usize, Vec<CodeRow>)>> = vec![Vec::new(); n];
    run.phase(&format!("ship:{}", cfd.name), |clk| {
        for (l, coord) in assignment.iter().enumerate() {
            let Some(c) = *coord else { continue };
            let mut rows: Vec<CodeRow> = Vec::new();
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
                rows.extend(frag.data.code_rows(&attrs, block));
            }
            gathered[c.index()].push((l, rows));
        }
        clk.transfer(&matrix);
    });

    // ---- Phase 5: validation at coordinators, in parallel, on codes:
    // grouping keys are packed `CodeKey`s and the distinct-RHS test
    // compares `u32` codes; only violating group keys are decoded. ----
    let validated = run.phase(&format!("validate:{}", cfd.name), |clk| {
        scoped_map(cfg.threads, n, |c| {
            let jobs = &gathered[c];
            if jobs.is_empty() {
                return None;
            }
            let site = SiteId(c as u32);
            Some(match strategy {
                CoordinatorStrategy::Central => {
                    // One detection query over everything gathered
                    // (flattened by reference — no row buffer is cloned).
                    let all: Vec<&CodeRow> = jobs.iter().flat_map(|(_, rs)| rs.iter()).collect();
                    let vs = resolved.detect_among(&all);
                    (vs, clk.charge(site, cfg.cost.check_time(all.len())))
                }
                _ => {
                    // One detection query per pattern block.
                    let mut vs = ViolationSet::default();
                    for (l, rs) in jobs {
                        vs.merge(resolved.detect_pattern_among(rs.iter(), *l));
                    }
                    let secs: f64 = jobs.iter().map(|(_, rs)| cfg.cost.check_time(rs.len())).sum();
                    (vs, clk.charge(site, secs))
                }
            })
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

/// Runs a full batch detection session of single-RHS CFDs over a
/// horizontal partition — the engine behind the `DetectRequest` façade
/// of the `distributed-cfd` root crate. CFDs are processed as
/// sequential rounds over one [`Run`] (the pipelining `SEQDETECT` also
/// builds on); the returned [`Detection`] is labelled with the
/// strategy's paper name ([`CoordinatorStrategy::algorithm_name`]).
pub fn run_batch(
    partition: &HorizontalPartition,
    cfds: &[SimpleCfd],
    strategy: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let run = Run::new(partition.n_sites(), *cfg);
    let mut total = RoundOutput::default();
    for cfd in cfds {
        total.absorb(run_single_cfd(&run, partition, cfd, strategy));
    }
    run.detection(strategy.algorithm_name(), total.report, total.paper_cost)
}

/// Assigns a coordinator to every pattern (None if no site holds any
/// matching tuple). Implements all three strategies.
pub(crate) fn assign_coordinators(
    strategy: CoordinatorStrategy,
    lstat: &[Vec<usize>],
    frag_sizes: &[usize],
    cost: &CostModel,
) -> Vec<Option<SiteId>> {
    let n = lstat.len();
    let k = if n == 0 { 0 } else { lstat[0].len() };
    let mut assignment: Vec<Option<SiteId>> = vec![None; k];
    match strategy {
        CoordinatorStrategy::Central => {
            // argmax_i Σ_l lstat[i][l]; ties → smallest site id.
            let totals: Vec<usize> = lstat.iter().map(|row| row.iter().sum()).collect();
            if totals.iter().any(|&t| t > 0) {
                let coord = (0..n).max_by_key(|&i| (totals[i], n - i)).expect("n > 0");
                for (l, slot) in assignment.iter_mut().enumerate() {
                    let any: usize = (0..n).map(|i| lstat[i][l]).sum();
                    if any > 0 {
                        *slot = Some(SiteId(coord as u32));
                    }
                }
            }
        }
        CoordinatorStrategy::MinShipment => {
            for (l, slot) in assignment.iter_mut().enumerate() {
                let total: usize = (0..n).map(|i| lstat[i][l]).sum();
                if total == 0 {
                    continue;
                }
                let coord = (0..n).max_by_key(|&i| (lstat[i][l], n - i)).expect("n > 0");
                *slot = Some(SiteId(coord as u32));
            }
        }
        CoordinatorStrategy::MinResponseTime => {
            // Greedy over patterns in tableau (generality) order: place
            // each pattern where it increases cost_RS the least.
            let mut sent = vec![0usize; n];
            let mut recv = vec![0usize; n];
            for (l, slot) in assignment.iter_mut().enumerate() {
                let total: usize = (0..n).map(|i| lstat[i][l]).sum();
                if total == 0 {
                    continue;
                }
                let mut best: Option<(f64, usize)> = None;
                for s in 0..n {
                    let max_send = (0..n)
                        .map(|i| {
                            let extra = if i == s { 0 } else { lstat[i][l] };
                            cost.send_time(sent[i] + extra)
                        })
                        .fold(0.0_f64, f64::max);
                    let max_check = (0..n)
                        .map(|j| {
                            let extra = if j == s { total - lstat[s][l] } else { 0 };
                            cost.check_time(frag_sizes[j] + recv[j] + extra)
                        })
                        .fold(0.0_f64, f64::max);
                    let c = max_send + max_check;
                    if best.is_none_or(|(bc, _)| c < bc) {
                        best = Some((c, s));
                    }
                }
                let (_, s) = best.expect("n > 0");
                for (i, sent_i) in sent.iter_mut().enumerate() {
                    if i != s {
                        *sent_i += lstat[i][l];
                    }
                }
                recv[s] += total - lstat[s][l];
                *slot = Some(SiteId(s as u32));
            }
        }
    }
    assignment
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
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn cost0() -> CostModel {
        CostModel {
            transfer_rate: 1.0,
            packet_tuples: 1.0,
            scan_coeff: 0.0,
            check_coeff: 0.0,
            match_coeff: 0.0,
        }
    }

    #[test]
    fn central_picks_max_total_with_smallest_tie() {
        // lstat[i][l]: site 0 has 3 total, site 1 has 3 total → pick S1.
        let lstat = vec![vec![2, 1], vec![1, 2]];
        let a = assign_coordinators(CoordinatorStrategy::Central, &lstat, &[10, 10], &cost0());
        assert_eq!(a, vec![Some(SiteId(0)), Some(SiteId(0))]);
    }

    #[test]
    fn central_skips_empty_patterns() {
        let lstat = vec![vec![2, 0], vec![1, 0]];
        let a = assign_coordinators(CoordinatorStrategy::Central, &lstat, &[10, 10], &cost0());
        assert_eq!(a, vec![Some(SiteId(0)), None]);
    }

    #[test]
    fn min_shipment_is_per_pattern_argmax() {
        // Example 6 of the paper: S2 holds 3 tuples with cc=44, S1 and
        // S3 one each; S1 holds 2 with cc=31, S2 one, S3 none.
        let lstat = vec![
            vec![1, 2], // S1
            vec![3, 1], // S2
            vec![1, 0], // S3
        ];
        let a = assign_coordinators(CoordinatorStrategy::MinShipment, &lstat, &[4; 3], &cost0());
        assert_eq!(a, vec![Some(SiteId(1)), Some(SiteId(0))]);
    }

    #[test]
    fn min_response_time_balances_receivers() {
        // One huge pattern at site 0 and an equally huge one at site 1;
        // a third small pattern should not pile onto the busiest checker.
        let cost = CostModel { check_coeff: 1.0, ..cost0() };
        let lstat = vec![vec![100, 0, 4], vec![0, 100, 4], vec![0, 0, 0]];
        let a = assign_coordinators(
            CoordinatorStrategy::MinResponseTime,
            &lstat,
            &[100, 100, 0],
            &cost,
        );
        assert_eq!(a[0], Some(SiteId(0)));
        assert_eq!(a[1], Some(SiteId(1)));
        // Pattern 2's 8 tuples go to the idle site 2 (shipping 8 beats
        // inflating a 100-tuple check).
        assert_eq!(a[2], Some(SiteId(2)));
    }

    #[test]
    fn round_finds_all_violations_single_site_baseline() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"],
                vals![31, "z2", "c"],
                vals![31, "z2", "d"],
                vals![31, "z3", "e"],
            ],
        )
        .unwrap();
        let global = {
            let cfd = parse_cfd(&s, "phi", "([cc, zip] -> [street])").unwrap();
            dcd_cfd::detect(&rel, &cfd)
        };
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        for strategy in STRATEGIES {
            let run = Run::new(3, RunConfig::default());
            let out = run_single_cfd(&run, &partition, &simple, strategy);
            let (_, vs) = &out.report.per_cfd[0];
            assert_eq!(vs.tids, global.tids, "{strategy:?}");
            assert_eq!(vs.patterns, global.patterns, "{strategy:?}");
            assert!(out.paper_cost >= 0.0);
            assert!(run.response_time() > 0.0);
        }
    }

    #[test]
    fn each_tuple_shipped_at_most_once() {
        let s = schema();
        // All tuples match; 2 sites; whatever the strategy, shipment
        // must not exceed the tuples held off-coordinator.
        let rel = Relation::from_rows(
            s.clone(),
            (0..20).map(|i| vals![44, format!("z{}", i % 4), format!("s{i}")]).collect(),
        )
        .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc=44, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        for strategy in STRATEGIES {
            let run = Run::new(2, RunConfig::default());
            run_single_cfd(&run, &partition, &simple, strategy);
            let shipped = run.ledger().total_tuples();
            assert!(shipped <= rel.len(), "{strategy:?} shipped {shipped} > {}", rel.len());
        }
    }

    #[test]
    fn constant_cfd_ships_nothing() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![vals![44, "z1", "a"], vals![44, "z2", "b"], vals![31, "z1", "c"]],
        )
        .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street=a])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let run = Run::new(3, RunConfig::default());
        let out = run_single_cfd(&run, &partition, &simple, CoordinatorStrategy::MinShipment);
        assert_eq!(run.ledger().total_tuples(), 0);
        // Tuple 1 (44, z2, b) violates street=a.
        let (_, vs) = &out.report.per_cfd[0];
        assert_eq!(vs.tids.len(), 1);
    }

    const STRATEGIES: [CoordinatorStrategy; 3] = [
        CoordinatorStrategy::Central,
        CoordinatorStrategy::MinShipment,
        CoordinatorStrategy::MinResponseTime,
    ];

    /// `sample(n)`: cc ∈ {44, 31}, 7 zips, 5 streets, one city — many
    /// `[cc, zip] -> [street]` conflicts.
    fn sample(n: usize) -> Relation {
        let schema = Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("city", ValueType::Str)
            .build()
            .unwrap();
        Relation::from_rows(
            schema,
            (0..n)
                .map(|i| {
                    vals![
                        if i % 3 == 0 { 44 } else { 31 },
                        format!("z{}", i % 7),
                        format!("s{}", i % 5),
                        "c"
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn all_algorithms_agree_with_centralized() {
        let rel = sample(60);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.tids.is_empty(), "fixture should contain violations");
        let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfg = RunConfig::default();
        for strategy in STRATEGIES {
            let d = run_batch(&partition, &cfd.simplify(), strategy, &cfg);
            assert_eq!(d.algorithm, strategy.algorithm_name());
            assert_eq!(d.violations.all_tids(), global.tids, "{strategy:?}");
            assert_eq!(d.violations.per_cfd[0].1.patterns, global.patterns, "{strategy:?}");
        }
    }

    #[test]
    fn pattern_algorithms_never_ship_more_than_central() {
        // CTRDETECT ships everything not at the single coordinator;
        // per-pattern max-shipper coordinators can only reduce that.
        let rel = sample(90);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc=44, zip] -> [street])").unwrap();
        let cfd2 = parse_cfd(rel.schema(), "phi", "([cc=31, zip] -> [street])").unwrap();
        let merged = dcd_cfd::Cfd::merge("phi", &[&cfd, &cfd2]).unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfg = RunConfig::default();
        let ctr = run_batch(&partition, &merged.simplify(), CoordinatorStrategy::Central, &cfg);
        let pats =
            run_batch(&partition, &merged.simplify(), CoordinatorStrategy::MinShipment, &cfg);
        assert!(pats.shipped_tuples <= ctr.shipped_tuples);
        assert_eq!(pats.violations.all_tids(), ctr.violations.all_tids());
    }

    #[test]
    fn detection_reports_traffic_and_time() {
        let rel = sample(30);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let strategy = CoordinatorStrategy::MinResponseTime;
        let d = run_batch(&partition, &cfd.simplify(), strategy, &RunConfig::default());
        assert_eq!(d.algorithm, "PATDETECTRT");
        assert!(d.shipped_tuples > 0);
        assert!(d.shipped_cells >= d.shipped_tuples * 3);
        assert!(d.control_messages > 0);
        assert!(d.response_time > 0.0);
        assert!(d.paper_cost >= 0.0);
        let s = d.summary();
        assert_eq!(s.shipped_tuples, d.shipped_tuples);
    }

    #[test]
    fn multi_rhs_cfd_processes_all_components() {
        let rel = sample(30);
        let schema = rel.schema().clone();
        let cfd = dcd_cfd::Cfd::fd("both", schema, &["cc", "zip"], &["street", "city"]).unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let strategy = CoordinatorStrategy::MinShipment;
        let d = run_batch(&partition, &cfd.simplify(), strategy, &RunConfig::default());
        assert_eq!(d.violations.per_cfd.len(), 2); // one entry per RHS attr
    }

    #[test]
    fn single_site_partition_ships_nothing() {
        let rel = sample(40);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 1).unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        for strategy in STRATEGIES {
            let d = run_batch(&partition, &cfd.simplify(), strategy, &RunConfig::default());
            assert_eq!(d.shipped_tuples, 0, "{strategy:?}");
            assert_eq!(d.violations.all_tids(), global.tids);
        }
    }
}
