//! Violation detection in vertically partitioned data.
//!
//! A CFD whose attributes fit one fragment is checked there with zero
//! shipment. Otherwise data must move (§V; the paper defers detailed
//! algorithms to a later report and points at semijoin-style reductions
//! \[25\] — §VII). We implement the natural coordinator strategy:
//!
//! 1. pick as coordinator the fragment holding the most of the CFD's
//!    attributes (fewest columns move),
//! 2. every other fragment owning needed attributes ships row-aligned
//!    `(tid, codes)` rows of those attributes — the same code wire the
//!    horizontal engines and the incremental delta protocol use,
//!    charged at 4 bytes/cell via
//!    [`ShipmentLedger::charge_codes`](dcd_dist::ShipmentLedger::charge_codes)
//!    (the tuple id rides as [`TID_CELLS`] cells; key *columns* never
//!    travel, the id aligns rows),
//! 3. the coordinator intersects the shipments by tuple id and
//!    validates on the gathered code rows through
//!    [`CodeLayout`]/[`ResolvedCfd`](dcd_cfd::ResolvedCfd) — decoding
//!    only violating group keys.
//!
//! With [`ShipMode::Filtered`], step 2 first applies the CFD's constant
//! patterns *locally*: a fragment owning pattern-constant attributes
//! ships only rows that could match some pattern — the semijoin-style
//! reduction, often cutting traffic dramatically.

use dcd_cfd::{Cfd, CodeLayout, CodeRow, PatternValue, ViolationReport, ViolationSet};
use dcd_core::{Detection, Run, RunConfig};
use dcd_dist::{CostModel, SiteId, VerticalPartition, TID_CELLS};
use dcd_relation::{AttrId, Dictionary, FxHashMap, Relation, RelationError, TupleId};
use std::sync::Arc;

/// Shipment strategy for cross-fragment CFDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipMode {
    /// Ship whole projected columns.
    Full,
    /// Apply the CFD's pattern constants locally before shipping
    /// (rows that match no pattern on the locally visible attributes
    /// cannot participate in a violation).
    Filtered,
}

/// Runs `VERTDETECT` over a vertical partition — the engine behind the
/// `DetectRequest` façade of the `distributed-cfd` root crate, with the
/// full [`Detection`] accounting (bytes, per-site clocks, the §III-B
/// paper cost) every other topology reports.
pub fn run_vertical(
    partition: &VerticalPartition,
    sigma: &[Cfd],
    mode: ShipMode,
    cfg: &RunConfig,
) -> Result<Detection, RelationError> {
    run_impl(partition, sigma, mode, cfg).map(|(d, _)| d)
}

fn run_impl(
    partition: &VerticalPartition,
    sigma: &[Cfd],
    mode: ShipMode,
    cfg: &RunConfig,
) -> Result<(Detection, usize), RelationError> {
    let cost: &CostModel = &cfg.cost;
    let n = partition.n_sites();
    let run = Run::new(n, *cfg);
    let mut report = ViolationReport::default();
    let mut locally_checked = 0usize;
    let mut paper_cost = 0.0;

    for cfd in sigma {
        let mut local_secs = vec![0.0_f64; n];
        let needed: Vec<AttrId> = {
            let set = cfd.attrs();
            set.iter().collect()
        };
        // Locally checkable: all attributes in one fragment.
        if let Some(host) = partition.fragments().iter().position(|f| f.covers(&needed)) {
            let frag = &partition.fragments()[host];
            let local_cfd = rebase_cfd(cfd, &frag.data, &frag.attrs)?;
            let vs = dcd_cfd::detect(&frag.data, &local_cfd);
            let secs = run.phase(&format!("local:{}", cfd.name()), |clk| {
                clk.charge(SiteId(host as u32), cost.check_time(frag.data.len()))
            });
            report.absorb(cfd.name(), vs);
            locally_checked += 1;
            // §III-B with zero shipment and one active site reduces to
            // the host's check time (`local_secs` is not involved —
            // this branch never reaches the shipment accounting below).
            paper_cost += secs;
            continue;
        }

        // Coordinator: fragment covering the most needed attributes.
        let coord = (0..n)
            .max_by_key(|&i| {
                let f = &partition.fragments()[i];
                (needed.iter().filter(|a| f.attrs.contains(a)).count(), n - i)
            })
            .expect("non-empty partition");
        let coord_site = SiteId(coord as u32);

        // Gather on the code wire: the coordinator's own columns stay
        // put; every other fragment ships row-aligned `(tid, codes)`
        // rows of the needed attributes it contributes. The tuple id
        // aligns rows across fragments, so key columns never travel.
        let coord_attrs: Vec<AttrId> = needed
            .iter()
            .copied()
            .filter(|a| partition.fragments()[coord].attrs.contains(a))
            .collect();
        let (mut dicts, mut acc) = code_shipment(partition, coord, &coord_attrs, cfd, mode);
        let mut acc_attrs = coord_attrs;
        let mut matrix = vec![vec![0usize; n]; n];
        run.phase(&format!("gather:{}", cfd.name()), |clk| {
            for (i, frag) in partition.fragments().iter().enumerate() {
                if i == coord {
                    continue;
                }
                let useful: Vec<AttrId> = needed
                    .iter()
                    .copied()
                    .filter(|a| frag.attrs.contains(a) && !acc_attrs.contains(a))
                    .collect();
                if useful.is_empty() {
                    continue;
                }
                let (frag_dicts, shipped) = code_shipment(partition, i, &useful, cfd, mode);
                local_secs[i] += clk.charge(frag.site, cost.scan_time(frag.data.len()));
                run.ledger().charge_codes(
                    coord_site,
                    frag.site,
                    shipped.len(),
                    shipped.len() * (useful.len() + TID_CELLS),
                );
                matrix[coord][i] += shipped.len();
                // Intersect by tuple id: a row survives only if every
                // contributing fragment kept it (in filtered mode each
                // drops rows its visible constants rule out). Coordinator
                // row order is preserved — the merge is deterministic.
                let mut by_tid: FxHashMap<TupleId, Vec<u32>> = shipped.into_iter().collect();
                acc.retain_mut(|(tid, codes)| match by_tid.remove(tid) {
                    Some(extra) => {
                        codes.extend(extra);
                        true
                    }
                    None => false,
                });
                acc_attrs.extend(useful);
                dicts.extend(frag_dicts);
            }
            clk.transfer(&matrix);
        });
        // Coordinator validates on the gathered code rows, feeding the
        // run's kernel counters.
        let rows: Vec<CodeRow> =
            acc.into_iter().map(|(tid, codes)| (tid, codes.into_boxed_slice())).collect();
        let layout = CodeLayout::new(acc_attrs, dicts);
        let counters = dcd_cfd::KernelCounters::register(run.registry());
        let mut vs = ViolationSet::default();
        for simple in cfd.simplify() {
            let mut resolved = layout.resolve(&simple);
            resolved.set_counters(counters.clone());
            vs.merge(resolved.detect_among(&rows));
        }
        local_secs[coord] += run.phase(&format!("validate:{}", cfd.name()), |clk| {
            clk.charge(coord_site, cost.check_time(rows.len()))
        });
        report.absorb(cfd.name(), vs);
        paper_cost += cost.paper_cost(&matrix, &local_secs);
    }

    Ok((run.detection("VERTDETECT", report, paper_cost), locally_checked))
}

/// A fragment's wire payload: the shipped attributes' dictionaries
/// plus the `(tid, codes)` rows.
type WirePayload = (Vec<Arc<Dictionary>>, Vec<(TupleId, Vec<u32>)>);

/// Fragment `idx`'s wire payload for `ship_attrs` (original-schema
/// ids): the attributes' dictionaries plus the `(tid, codes)` rows.
/// In filtered mode, rows that cannot match any pattern of `cfd`
/// judging by the locally visible constants are dropped before
/// shipping.
fn code_shipment(
    partition: &VerticalPartition,
    idx: usize,
    ship_attrs: &[AttrId],
    cfd: &Cfd,
    mode: ShipMode,
) -> WirePayload {
    let frag = &partition.fragments()[idx];
    let locals: Vec<AttrId> =
        ship_attrs.iter().map(|&a| frag.local_attr(a).expect("attr is in fragment")).collect();
    let dicts: Vec<Arc<Dictionary>> =
        locals.iter().map(|&l| frag.data.dictionary(l).clone()).collect();
    // Keep rows that could match ≥1 pattern on locally visible
    // constant positions (every row in Full mode).
    let visible: Vec<(usize, AttrId)> = match mode {
        ShipMode::Full => Vec::new(),
        ShipMode::Filtered => cfd
            .lhs()
            .iter()
            .enumerate()
            .filter_map(|(pi, &a)| frag.local_attr(a).map(|local| (pi, local)))
            .collect(),
    };
    let keeps = |t: &dcd_relation::Tuple| {
        visible.is_empty()
            || cfd.tableau().iter().any(|tp| {
                visible.iter().all(|&(pi, local)| match &tp.lhs[pi] {
                    PatternValue::Wild => true,
                    PatternValue::Const(c) => t.get(local) == c,
                })
            })
    };
    let cols: Vec<_> = locals.iter().map(|&l| frag.data.column(l).codes()).collect();
    let rows = frag
        .data
        .tuples()
        .iter()
        .enumerate()
        .filter(|(_, t)| keeps(t))
        .map(|(r, t)| (t.tid, cols.iter().map(|c| c.at(r)).collect()))
        .collect();
    (dicts, rows)
}

/// Re-expresses a CFD over a fragment/gathered schema by matching
/// attribute names (ids differ between the original schema and
/// projections).
fn rebase_cfd(cfd: &Cfd, local: &Relation, _frag_attrs: &[AttrId]) -> Result<Cfd, RelationError> {
    rebase_cfd_by_names(cfd, local)
}

fn rebase_cfd_by_names(cfd: &Cfd, local: &Relation) -> Result<Cfd, RelationError> {
    let orig = cfd.schema();
    let names = |ids: &[AttrId]| -> Result<Vec<&str>, RelationError> {
        ids.iter()
            .map(|&a| {
                let name = orig.attr_name(a);
                local.schema().require(name)?;
                Ok(name)
            })
            .collect()
    };
    let lhs = names(cfd.lhs())?;
    let rhs = names(cfd.rhs())?;
    Cfd::with_names(cfd.name(), local.schema().clone(), &lhs, &rhs, cfd.tableau().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local result shape: the engine's [`Detection`] fields plus
    /// how many CFDs were checked without shipment.
    struct VerticalDetection {
        violations: ViolationReport,
        shipped_tuples: usize,
        response_time: f64,
        locally_checked: usize,
    }

    /// The tests drive the engine (`run_impl`) directly, which also
    /// reports how many CFDs were checked locally.
    fn vdetect(
        p: &VerticalPartition,
        sigma: &[Cfd],
        mode: ShipMode,
    ) -> Result<VerticalDetection, RelationError> {
        let (d, locally_checked) = run_impl(p, sigma, mode, &RunConfig::default())?;
        Ok(VerticalDetection {
            violations: d.violations,
            shipped_tuples: d.shipped_tuples,
            response_time: d.response_time,
            locally_checked,
        })
    }

    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Schema, ValueType};

    fn emp() -> Relation {
        let schema = Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("CC", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("salary", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vals![1, "MTS", 44, "z1", "a", "80k"],
                vals![2, "MTS", 44, "z1", "b", "80k"], // street conflict with t1
                vals![3, "VP", 44, "z2", "c", "200k"],
                vals![4, "MTS", 44, "z2", "c", "90k"], // salary conflict with t1/t2
                vals![5, "MTS", 31, "z9", "d", "75k"],
            ],
        )
        .unwrap()
    }

    fn partition(rel: &Relation) -> VerticalPartition {
        VerticalPartition::by_attribute_groups(
            rel,
            &[&["title", "zip", "street"], &["CC"], &["salary"]],
        )
        .unwrap()
    }

    #[test]
    fn cross_fragment_cfd_matches_centralized() {
        let rel = emp();
        let p = partition(&rel);
        let cfd = parse_cfd(rel.schema(), "phi1", "([CC=44, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.tids.is_empty());
        for mode in [ShipMode::Full, ShipMode::Filtered] {
            let out = vdetect(&p, std::slice::from_ref(&cfd), mode).unwrap();
            let (_, vs) = &out.violations.per_cfd[0];
            assert_eq!(vs.tids, global.tids, "{mode:?}");
            assert!(out.shipped_tuples > 0, "{mode:?} must ship");
            assert_eq!(out.locally_checked, 0);
        }
    }

    #[test]
    fn local_cfd_ships_nothing() {
        let rel = emp();
        let p = partition(&rel);
        // zip → street lives entirely in fragment 0.
        let cfd = parse_cfd(rel.schema(), "local", "([zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let out = vdetect(&p, std::slice::from_ref(&cfd), ShipMode::Full).unwrap();
        assert_eq!(out.shipped_tuples, 0);
        assert_eq!(out.locally_checked, 1);
        let (_, vs) = &out.violations.per_cfd[0];
        assert_eq!(vs.tids, global.tids);
    }

    #[test]
    fn filtered_mode_ships_less_with_selective_patterns() {
        let rel = emp();
        let p = partition(&rel);
        // CC=31 matches one tuple only; the CC fragment can pre-filter.
        let cfd = parse_cfd(rel.schema(), "phi", "([CC=31, zip] -> [street])").unwrap();
        let full = vdetect(&p, std::slice::from_ref(&cfd), ShipMode::Full).unwrap();
        let filt = vdetect(&p, std::slice::from_ref(&cfd), ShipMode::Filtered).unwrap();
        assert_eq!(
            full.violations.all_tids(),
            filt.violations.all_tids(),
            "filtering must not change results"
        );
        assert!(
            filt.shipped_tuples < full.shipped_tuples,
            "filtered {} !< full {}",
            filt.shipped_tuples,
            full.shipped_tuples
        );
    }

    /// Pins the code-wire accounting of the gather. Before the port
    /// the CC fragment shipped `π_{id, CC}(D1)` as value rows — 5
    /// tuples × 2 value cells, value-sized bytes, the key column
    /// riding along to join on. On the code wire the key column stays
    /// home (the tuple id aligns rows as [`TID_CELLS`] cells), so the
    /// same gather is `rows × (1 + TID_CELLS)` code cells at
    /// [`CODE_BYTES`](dcd_dist::CODE_BYTES) each, and filtered mode
    /// drops the CC≠44 row before it ever travels.
    #[test]
    fn code_wire_accounting_is_pinned() {
        use dcd_dist::CODE_BYTES;
        let rel = emp();
        let p = partition(&rel);
        let cfd = parse_cfd(rel.schema(), "phi1", "([CC=44, zip] -> [street])").unwrap();
        let (full, _) =
            run_impl(&p, std::slice::from_ref(&cfd), ShipMode::Full, &RunConfig::default())
                .unwrap();
        assert_eq!(full.shipped_tuples, 5);
        assert_eq!(full.shipped_cells, 5 * (1 + TID_CELLS));
        assert_eq!(full.shipped_bytes, full.shipped_cells * CODE_BYTES);
        let (filt, _) =
            run_impl(&p, std::slice::from_ref(&cfd), ShipMode::Filtered, &RunConfig::default())
                .unwrap();
        assert_eq!(filt.shipped_tuples, 4, "CC≠44 row filtered before shipping");
        assert_eq!(filt.shipped_cells, 4 * (1 + TID_CELLS));
        assert_eq!(filt.shipped_bytes, filt.shipped_cells * CODE_BYTES);
    }

    #[test]
    fn three_fragment_gather() {
        let rel = emp();
        let p = partition(&rel);
        // CC, title → salary touches all three fragments.
        let cfd = parse_cfd(rel.schema(), "phi2", "([CC, title] -> [salary])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.tids.is_empty());
        let out = vdetect(&p, std::slice::from_ref(&cfd), ShipMode::Full).unwrap();
        let (_, vs) = &out.violations.per_cfd[0];
        assert_eq!(vs.tids, global.tids);
        assert!(out.response_time > 0.0);
    }

    #[test]
    fn multiple_cfds_mixed_local_and_remote() {
        let rel = emp();
        let p = partition(&rel);
        let sigma = vec![
            parse_cfd(rel.schema(), "local", "([zip] -> [street])").unwrap(),
            parse_cfd(rel.schema(), "remote", "([CC, title] -> [salary])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let out = vdetect(&p, &sigma, ShipMode::Filtered).unwrap();
        assert_eq!(out.locally_checked, 1);
        assert_eq!(out.violations.all_tids(), global.all_tids());
    }
}
