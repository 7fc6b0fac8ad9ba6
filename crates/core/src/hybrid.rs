//! Detection under hybrid fragmentation (§VIII future work, realized).
//!
//! Two phases per CFD:
//!
//! 1. **Vertical gather within each cell**: the cell's sub-site covering
//!    the most of the CFD's attributes becomes the *cell coordinator*;
//!    the other sub-sites ship the dictionary codes of their needed
//!    columns — `(tid, codes)` rows at 4 bytes per cell — which the
//!    coordinator aligns row-by-row into the cell's projection of the
//!    relation (vertical fragments of one cell hold the same rows in
//!    the same order, so no join is needed; the codes are portable
//!    because every fragment shares the parent relation's
//!    dictionaries).
//! 2. **Horizontal detection across cells**: the cell projections form a
//!    synthesized horizontal partition (located at the cell
//!    coordinators; all other sites empty), over which the standard
//!    §IV-B machinery runs unchanged — σ-partitioning, statistics
//!    exchange, per-pattern coordinators, code-native shipment and
//!    validation.
//!
//! Both phases charge the same [`Run`], so the reported
//! shipment and response time cover the whole pipeline. No tuple
//! payload crosses the simulated wire in either phase.

use crate::config::RunConfig;
use crate::report::Detection;
use crate::run::{PhaseClocks, Run};
use crate::runner::{run_single_cfd, CoordinatorStrategy, RoundOutput};
use dcd_cfd::{Cfd, SimpleCfd};
use dcd_dist::pool::scoped_map;
use dcd_dist::{Fragment, HorizontalPartition, HybridPartition, TID_CELLS};
use dcd_relation::{AttrId, Dictionary, Relation, RelationError, Value};
use std::sync::Arc;

/// Runs `HYBRIDDETECT` over a hybrid partition — the engine behind the
/// `DetectRequest` façade of the `distributed-cfd` root crate.
pub fn run_hybrid(
    partition: &HybridPartition,
    sigma: &[Cfd],
    strategy: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Result<Detection, RelationError> {
    let n = partition.n_sites();
    let run = Run::new(n, *cfg);
    let mut total = RoundOutput::default();

    // The full-width dictionary set, one per original attribute: every
    // cell's vertical fragments share the parent relation's
    // dictionaries, so cell 0's first-covering fragment names the
    // dictionary all sites code that attribute against. Null is
    // interned up front (before any pool phase) — it is the padding
    // code for attributes outside a gathered projection.
    let schema = partition.schema().clone();
    let cell0 = &partition.cells()[0].vertical;
    let full_dicts: Vec<Arc<Dictionary>> = schema
        .attr_ids()
        .map(|a| {
            let owner = cell0
                .fragments()
                .iter()
                .find(|f| f.covers(std::slice::from_ref(&a)))
                .expect("vertical coverage is validated at construction");
            let local = owner.local_attr(a).expect("covered");
            owner.data.dictionary(local).clone()
        })
        .collect();
    let null_codes: Vec<u32> = full_dicts.iter().map(|d| d.intern(&Value::Null).0).collect();
    // The join-free gather rests on cross-cell dictionary sharing:
    // every cell's fragment must code attribute `a` against the same
    // dictionary cell 0 does (guaranteed by the dcd-dist constructors,
    // which project all cells from one parent relation). Debug builds
    // verify it, like `shared_layout` does for horizontal partitions.
    debug_assert!(
        partition.cells().iter().all(|cell| cell.vertical.fragments().iter().all(|f| {
            f.attrs.iter().enumerate().all(|(local, &a)| {
                Arc::ptr_eq(f.data.dictionary(AttrId(local as u16)), &full_dicts[a.index()])
            })
        })),
        "hybrid cells must share one dictionary set per attribute \
         (build the partition through dcd-dist)"
    );

    let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
    for cfd in &simples {
        // ---- Phase 1: vertical gather inside each cell, cells in
        // parallel (each cell touches only its own sites' clocks —
        // `site_of` is injective across cells — so the merge in cell
        // order is deterministic). ----
        let mut fragments: Vec<Fragment> = (0..n)
            .map(|_| Fragment {
                site: dcd_dist::SiteId(0),
                predicate: None,
                data: Relation::with_dictionaries(schema.clone(), full_dicts.clone(), 0)
                    .expect("one dictionary per attribute"),
            })
            .collect();
        let gathered = run.phase(&format!("gather:{}", cfd.name), |clk| {
            scoped_map(cfg.threads, partition.cells().len(), |ci| {
                gather_cell(&run, clk, partition, ci, cfd, &full_dicts, &null_codes)
            })
        });
        for (ci, outcome) in gathered.into_iter().enumerate() {
            let (coord_vfrag, projection) = outcome?;
            let site = partition.site_of(ci, coord_vfrag);
            let cell = &partition.cells()[ci];
            fragments[site.index()] =
                Fragment { site, predicate: cell.predicate.clone(), data: projection };
        }
        for (i, f) in fragments.iter_mut().enumerate() {
            f.site = dcd_dist::SiteId(i as u32);
        }
        let synthesized = HorizontalPartition::from_fragments(schema.clone(), fragments)?;

        // ---- Phase 2: standard horizontal detection across cells. ----
        total.absorb(run_single_cfd(&run, &synthesized, cfd, strategy));
    }

    Ok(run.detection("HYBRIDDETECT", total.report, total.paper_cost))
}

/// Gathers one cell's projection of the CFD's attributes at the cell's
/// best-covering sub-site, entirely on the code-native wire. Returns
/// the chosen sub-site index and the gathered rows as a *full-width*
/// relation over the shared dictionaries (attributes outside the
/// projection carry the null code), so phase 2 can treat it as a
/// horizontal fragment.
fn gather_cell(
    run: &Run,
    clk: &PhaseClocks<'_>,
    partition: &HybridPartition,
    cell_idx: usize,
    cfd: &SimpleCfd,
    full_dicts: &[Arc<Dictionary>],
    null_codes: &[u32],
) -> Result<(usize, Relation), RelationError> {
    let cost = &run.cfg().cost;
    let cell = &partition.cells()[cell_idx];
    let vertical = &cell.vertical;
    let schema = partition.schema();
    let needed: Vec<AttrId> = cfd.shipped_attrs();
    let n_rows = vertical.fragments()[0].data.len();
    // Row alignment is what replaces the key join: every vertical
    // fragment of a cell holds the same tuples in the same order (the
    // dcd-dist constructor projects them in one pass). Debug builds
    // verify the tid sequences match before codes are paired
    // positionally.
    debug_assert!(
        vertical.fragments().iter().all(|f| {
            f.data.len() == n_rows
                && f.data
                    .tuples()
                    .iter()
                    .zip(vertical.fragments()[0].data.tuples())
                    .all(|(a, b)| a.tid == b.tid)
        }),
        "vertical fragments of a hybrid cell must be row-aligned"
    );

    // Cell coordinator: vertical fragment covering most needed attrs.
    let coord = (0..vertical.n_sites())
        .max_by_key(|&i| {
            let f = &vertical.fragments()[i];
            (needed.iter().filter(|a| f.attrs.contains(a)).count(), vertical.n_sites() - i)
        })
        .expect("cells have at least one vertical fragment");
    let coord_site = partition.site_of(cell_idx, coord);

    // Attribute placement: which vertical fragment supplies each needed
    // attribute — the coordinator's own columns first, then the other
    // fragments in site order (each ships only attributes nobody
    // earlier supplied, so every column moves at most once).
    let mut owner_of: Vec<Option<(usize, AttrId)>> = vec![None; schema.arity()];
    for &a in &needed {
        if let Some(local) = vertical.fragments()[coord].local_attr(a) {
            owner_of[a.index()] = Some((coord, local));
        }
    }
    for (vi, frag) in vertical.fragments().iter().enumerate() {
        if vi == coord {
            continue;
        }
        let useful: Vec<AttrId> = frag
            .attrs
            .iter()
            .copied()
            .filter(|a| needed.contains(a) && owner_of[a.index()].is_none())
            .collect();
        if useful.is_empty() {
            continue;
        }
        for &a in &useful {
            owner_of[a.index()] = Some((vi, frag.local_attr(a).expect("attr in fragment")));
        }
        // The fragment scans its rows once and ships the useful columns
        // as `(tid, codes)` rows; the coordinator waits for the sender.
        let from = partition.site_of(cell_idx, vi);
        clk.charge(from, cost.scan_time(frag.data.len()));
        run.ledger().charge_codes(coord_site, from, n_rows, n_rows * (useful.len() + TID_CELLS));
        clk.charge(from, cost.send_time(n_rows));
        clk.wait_until(coord_site, clk.now(from));
    }

    // Assemble the full-width code rows by row alignment (vertical
    // fragments of one cell hold the same tuples in the same order);
    // unneeded attributes pad with the null code.
    let columns: Vec<Option<dcd_relation::CodesView<'_>>> = schema
        .attr_ids()
        .map(|a| {
            owner_of[a.index()]
                .map(|(vi, local)| vertical.fragments()[vi].data.column(local).codes())
        })
        .collect();
    let mut out = Relation::with_dictionaries(schema.clone(), full_dicts.to_vec(), n_rows)?;
    let tuples = vertical.fragments()[coord].data.tuples();
    let mut row: Vec<u32> = vec![0; schema.arity()];
    for (r, tuple) in tuples.iter().enumerate().take(n_rows) {
        for (i, col) in columns.iter().enumerate() {
            row[i] = col.map_or(null_codes[i], |c| c.at(r));
        }
        out.push_code_row(tuple.tid, &row)?;
    }
    Ok((coord, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("salary", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        i,
                        ["MTS", "VP", "DMTS"][i % 3],
                        if i % 2 == 0 { 44 } else { 31 },
                        format!("z{}", i % 5),
                        format!("s{}", i % 3),
                        format!("{}k", 70 + (i % 4) * 10)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    fn hybrid(rel: &Relation, n_cells: usize) -> HybridPartition {
        let horizontal = HorizontalPartition::round_robin(rel, n_cells).unwrap();
        HybridPartition::new(&horizontal, &[&["title", "cc", "zip"], &["street", "salary"]])
            .unwrap()
    }

    #[test]
    fn hybrid_detection_equals_centralized() {
        let rel = sample(60);
        let partition = hybrid(&rel, 3);
        let sigma = vec![
            parse_cfd(rel.schema(), "phi1", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(rel.schema(), "phi2", "([cc, title] -> [salary])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        assert!(!global.all_tids().is_empty());
        let d =
            run_hybrid(&partition, &sigma, CoordinatorStrategy::MinShipment, &RunConfig::default())
                .unwrap();
        assert_eq!(d.violations.all_tids(), global.all_tids());
        assert!(d.shipped_tuples > 0, "cross-fragment CFDs must ship");
        assert!(d.response_time > 0.0);
    }

    #[test]
    fn single_cell_hybrid_reduces_to_vertical_gather_only() {
        let rel = sample(30);
        let partition = hybrid(&rel, 1);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let d = run_hybrid(
            &partition,
            std::slice::from_ref(&cfd),
            CoordinatorStrategy::MinShipment,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(d.violations.all_tids(), global.tids);
        // Only the intra-cell column shipment remains; no horizontal
        // shipping with one cell.
        assert_eq!(d.shipped_tuples, rel.len());
    }

    #[test]
    fn cfd_contained_in_one_vgroup_ships_nothing_vertically() {
        let rel = sample(40);
        let partition = hybrid(&rel, 2);
        // title, cc, zip all live in vertical group 0.
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, title] -> [zip])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let d = run_hybrid(
            &partition,
            std::slice::from_ref(&cfd),
            CoordinatorStrategy::MinShipment,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(d.violations.all_tids(), global.tids);
        // Shipment comes only from the horizontal phase: at most the
        // matching tuples of the smaller cell.
        assert!(d.shipped_tuples <= rel.len() / 2 + 1);
    }

    #[test]
    fn all_strategies_agree() {
        let rel = sample(45);
        let partition = hybrid(&rel, 3);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        for strategy in [
            CoordinatorStrategy::Central,
            CoordinatorStrategy::MinShipment,
            CoordinatorStrategy::MinResponseTime,
        ] {
            let d =
                run_hybrid(&partition, std::slice::from_ref(&cfd), strategy, &RunConfig::default())
                    .unwrap();
            assert_eq!(d.violations.all_tids(), global.tids, "{strategy:?}");
        }
    }
}
