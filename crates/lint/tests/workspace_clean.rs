//! The lint gate's own gate: the workspace must be clean under
//! `dcd_lint`. Every pre-existing violation was either fixed or given
//! an inline `// dcd-lint: allow(<rule>) — <reason>` with a real
//! justification, so any regression shows up here (and in CI) with a
//! rendered `file:line` diagnostic.

use std::path::Path;

use dcd_lint::{check_workspace, render, Format, RULE_IDS};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_workspace(&root).expect("workspace sources should be readable");

    assert!(
        report.checked_files > 50,
        "workspace walk looks truncated: only {} files checked",
        report.checked_files
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint findings:\n{}",
        render(&report.diagnostics, report.checked_files, Format::Text)
    );
}

#[test]
fn the_rule_set_is_pinned() {
    // Adding a rule must be a conscious act: it needs a describe()/
    // explain() entry, a baseline key, fixtures, and a README row.
    // This pin makes a drive-by rule (or a silently dropped one) a
    // test failure pointing at the full checklist.
    assert_eq!(
        RULE_IDS,
        [
            "hash-iteration-order",
            "raw-ledger-mutation",
            "stray-thread",
            "wall-clock",
            "relaxed-atomic",
            "duplicate-detect-loop",
            "unledgered-shipment",
            "exhaustive-dispatch",
            "crate-layering",
            "unused-suppression",
            "bad-suppression",
        ]
    );
}

#[test]
fn the_symbol_graph_artifact_covers_the_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_workspace(&root).expect("workspace sources should be readable");
    let dot = &report.symbol_graph_dot;
    assert!(dot.starts_with("digraph dcd_symbols {"), "DOT header");
    for cluster in ["dcd_core", "dcd_dist", "dcd_cfd", "dcd_relation"] {
        assert!(dot.contains(&format!("cluster_{cluster}")), "missing {cluster} cluster");
    }
    assert!(dot.contains("->"), "the call graph should have at least one resolved edge");
}
