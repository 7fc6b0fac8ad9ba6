//! `WorkspaceFacts`: the queryable symbol graph the flow rules consume.
//!
//! Built once per lint run from every file's [`crate::items::FileItems`],
//! it holds a name-indexed function table, an approximate call graph,
//! and the derived sets the flow rules need: which functions charge the
//! `ShipmentLedger`, which return a `Detection` (engine entry points),
//! and which are reachable from public engine entry points without a
//! charge anywhere on the path. It also renders itself as Graphviz DOT
//! (`dcd_lint check --format dot`) so CI can publish the graph as an
//! artifact.

use crate::items::{extract, FileItems, FnItem};
use crate::source::{FileClass, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Function names whose call charges the shipment ledger. `ship` and
/// `control` are the two mutation authorities on `ShipmentLedger`;
/// `charge_codes` composes `ship` with the wire-byte math.
pub const CHARGE_FNS: [&str; 3] = ["charge_codes", "ship", "control"];

/// The sending-side wire-payload constructors: the functions that turn
/// tuple blocks into `(tid, codes)` rows for shipment. Receiving-side
/// decoders (`push_code_row`) are deliberately absent — applying a
/// received row is not a shipment.
pub const WIRE_BUILDERS: [&str; 3] = ["code_rows", "fragment_code_rows", "code_shipment"];

/// A function's position in the workspace: `(file index, fn index)`.
pub type FnId = (usize, usize);

/// The workspace-level symbol graph.
#[derive(Debug, Default)]
pub struct WorkspaceFacts {
    /// Per-file items, parallel to the `SourceFile` list the engine
    /// built the facts from.
    pub items: Vec<FileItems>,
    /// Per-file class, same order.
    pub classes: Vec<FileClass>,
    /// Per-file path, same order.
    pub paths: Vec<String>,
    /// Function definitions by bare name (approximate resolution: a
    /// call to `name` edges to *every* definition of `name`).
    by_name: BTreeMap<String, Vec<FnId>>,
}

impl WorkspaceFacts {
    /// Indexes every file. `test_region` functions (inside
    /// `#[cfg(test)]`) stay in the table but are excluded from the
    /// engine sets below.
    pub fn build(files: &[SourceFile]) -> WorkspaceFacts {
        let mut facts = WorkspaceFacts::default();
        for (fi, file) in files.iter().enumerate() {
            let items = extract(file);
            for (gi, f) in items.fns.iter().enumerate() {
                facts.by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
            facts.classes.push(file.class);
            facts.paths.push(file.path.clone());
            facts.items.push(items);
        }
        facts
    }

    /// The function behind an id.
    pub fn fn_at(&self, id: FnId) -> &FnItem {
        &self.items[id.0].fns[id.1]
    }

    /// All definitions of `name`, workspace-wide.
    pub fn fn_defs(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Does this function charge the ledger itself?
    pub fn charges(&self, f: &FnItem) -> bool {
        CHARGE_FNS.iter().any(|c| f.calls_fn(c))
    }

    /// Is this function engine code outside `#[cfg(test)]` regions?
    pub fn is_engine_fn(&self, files: &[SourceFile], id: FnId) -> bool {
        self.classes[id.0] == FileClass::Engine && !files[id.0].in_test_code(self.fn_at(id).line)
    }

    /// Every engine function reachable from a *public, non-charging*
    /// engine function through calls that never pass a charging
    /// function. The BFS does not descend into charging functions:
    /// once a `charge_codes`/`ship`/`control` call covers a node, every
    /// path through it is accounted for.
    pub fn uncharged_reachable(&self, files: &[SourceFile]) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: Vec<FnId> = Vec::new();
        for fi in 0..self.items.len() {
            for gi in 0..self.items[fi].fns.len() {
                let id = (fi, gi);
                let f = self.fn_at(id);
                if f.is_pub && self.is_engine_fn(files, id) && !self.charges(f) && seen.insert(id) {
                    queue.push(id);
                }
            }
        }
        while let Some(id) = queue.pop() {
            for call in &self.fn_at(id).calls {
                for &target in self.fn_defs(&call.name) {
                    if self.is_engine_fn(files, target)
                        && !self.charges(self.fn_at(target))
                        && seen.insert(target)
                    {
                        queue.push(target);
                    }
                }
            }
        }
        seen
    }

    /// The symbol graph as Graphviz DOT: one cluster per crate, one
    /// node per engine function, edges for name-resolved calls.
    /// Charging functions are double-bordered; `Detection`-returning
    /// entry points are boxes.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph dcd_symbols {\n");
        out.push_str("  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n");

        // Group engine fns by crate.
        let mut by_crate: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (fi, items) in self.items.iter().enumerate() {
            if self.classes[fi] != FileClass::Engine {
                continue;
            }
            for gi in 0..items.fns.len() {
                by_crate.entry(items.krate.as_str()).or_default().push((fi, gi));
            }
        }
        for (krate, ids) in &by_crate {
            out.push_str(&format!("  subgraph \"cluster_{krate}\" {{\n    label=\"{krate}\";\n"));
            for &id in ids {
                let f = self.fn_at(id);
                let mut attrs = format!("label=\"{}\"", f.name);
                if f.returns("Detection") {
                    attrs.push_str(", shape=box");
                }
                if self.charges(f) {
                    attrs.push_str(", peripheries=2");
                }
                out.push_str(&format!("    \"{}\" [{}];\n", f.qual, attrs));
            }
            out.push_str("  }\n");
        }

        // Resolved call edges between engine fns, deduplicated.
        let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
        for (fi, items) in self.items.iter().enumerate() {
            if self.classes[fi] != FileClass::Engine {
                continue;
            }
            for f in &items.fns {
                for call in &f.calls {
                    for &target in self.fn_defs(&call.name) {
                        if self.classes[target.0] == FileClass::Engine {
                            edges.insert((f.qual.clone(), self.fn_at(target).qual.clone()));
                        }
                    }
                }
            }
        }
        for (from, to) in &edges {
            if from != to {
                out.push_str(&format!("  \"{from}\" -> \"{to}\";\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(files: &[(&str, &str)]) -> (Vec<SourceFile>, WorkspaceFacts) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile::parse(p.to_string(), crate::engine::classify(p), s))
            .collect();
        let facts = WorkspaceFacts::build(&sources);
        (sources, facts)
    }

    #[test]
    fn charging_functions_stop_the_uncharged_bfs() {
        let (files, facts) = parse(&[(
            "crates/core/src/x.rs",
            "pub fn covered(l: &L) { let r = build(); l.charge_codes(0, 0, r, 0); }\n\
             pub fn leaky() { let _ = build(); }\n\
             fn build() -> u32 { 1 }\n",
        )]);
        let reach = facts.uncharged_reachable(&files);
        let names: Vec<&str> = reach.iter().map(|&id| facts.fn_at(id).name.as_str()).collect();
        assert!(names.contains(&"leaky"), "{names:?}");
        assert!(names.contains(&"build"), "reached through the uncharged caller: {names:?}");
        assert!(!names.contains(&"covered"), "charging fns are covered: {names:?}");
    }

    #[test]
    fn dot_output_has_clusters_nodes_and_edges() {
        let (_, facts) = parse(&[("crates/core/src/x.rs", "pub fn a() { b(); }\nfn b() {}\n")]);
        let dot = facts.to_dot();
        assert!(dot.starts_with("digraph dcd_symbols {"));
        assert!(dot.contains("cluster_dcd_core"));
        assert!(dot.contains("\"dcd_core::x::a\" -> \"dcd_core::x::b\";"), "{dot}");
    }
}
