//! The flow-aware rule families — the rules that need the workspace
//! symbol graph ([`crate::graph::WorkspaceFacts`]), not just a token
//! window: `unledgered-shipment`, `exhaustive-dispatch` and
//! `crate-layering`.

use crate::diag::Diagnostic;
use crate::graph::{WorkspaceFacts, CHARGE_FNS, WIRE_BUILDERS};
use crate::source::{FileClass, SourceFile};

/// The engine dependency DAG, as `(crate, allowed direct references)`.
/// This is the layering the crate manifests implement; the lint
/// re-states it so a `use` added without a manifest edit (or a path
/// dependency smuggled through a re-export) still trips. Crates absent
/// from the table (the root package, `dcd_lint` itself, future service
/// crates) are unconstrained.
const LAYERS: [(&str, &[&str]); 9] = [
    ("dcd_relation", &[]),
    ("dcd_obs", &[]),
    ("dcd_cfd", &["dcd_relation", "dcd_obs"]),
    ("dcd_dist", &["dcd_relation", "dcd_obs"]),
    ("dcd_core", &["dcd_relation", "dcd_obs", "dcd_cfd", "dcd_dist"]),
    ("dcd_incr", &["dcd_relation", "dcd_obs", "dcd_cfd", "dcd_dist", "dcd_core"]),
    ("dcd_vertical", &["dcd_relation", "dcd_obs", "dcd_cfd", "dcd_dist", "dcd_core"]),
    ("dcd_complexity", &["dcd_relation", "dcd_cfd", "dcd_dist"]),
    ("dcd_datagen", &["dcd_relation", "dcd_cfd", "dcd_dist", "rand"]),
];

/// Runs every flow rule over the workspace. `files` and `facts.items`
/// are parallel.
pub fn check_flows(files: &[SourceFile], facts: &WorkspaceFacts, out: &mut Vec<Diagnostic>) {
    unledgered_shipment(files, facts, out);
    for file in files {
        exhaustive_dispatch(file, out);
    }
    crate_layering(files, facts, out);
}

fn diag(file: &SourceFile, line: u32, col: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic { rule, file: file.path.clone(), line, col, message }
}

// ---------------------------------------------------- unledgered-shipment

/// `unledgered-shipment`: a function that builds code-wire payloads
/// (calls one of [`WIRE_BUILDERS`]) and is reachable from a public
/// engine function without a ledger charge anywhere on the path. The
/// charge may live in the builder's own body or in any transitive
/// caller — what must not exist is a path from an entry point to a
/// payload constructor that never passes `charge_codes`/`ship`/
/// `control`. Functions *named* like a wire builder are exempt: they
/// are the wire format's definition, and the rule polices their
/// callers.
fn unledgered_shipment(files: &[SourceFile], facts: &WorkspaceFacts, out: &mut Vec<Diagnostic>) {
    let reach = facts.uncharged_reachable(files);
    for id in reach {
        let f = facts.fn_at(id);
        if WIRE_BUILDERS.contains(&f.name.as_str()) {
            continue;
        }
        let Some(call) = f.calls.iter().find(|c| WIRE_BUILDERS.contains(&c.name.as_str())) else {
            continue;
        };
        out.push(diag(
            &files[id.0],
            f.line,
            1,
            "unledgered-shipment",
            format!(
                "`{}` builds code-wire payloads (`{}`) and is reachable from public \
                 engine entry points with no `ShipmentLedger` charge on the path \
                 ({}); every simulated transfer must be charged — add the \
                 `charge_codes` call here or in every caller",
                f.name,
                call.name,
                CHARGE_FNS.join("/"),
            ),
        ));
    }
}

// --------------------------------------------------- exhaustive-dispatch

/// `exhaustive-dispatch`: in engine files, a `match` whose arms name
/// `Topology::` or `Algorithm::` variants may not have a wildcard
/// (`_ =>`) or a lowercase catch-all binding (`single =>`) arm — a new
/// enum variant must be a compile error at every dispatch site, never a
/// silent no-op. `_` *inside* a variant pattern (`Topology::Hybrid(_)`)
/// stays legal: the variant is still named. Tuple-pattern catch-alls
/// (`(t, n) =>`) are beyond a token scan and are left to code review.
fn exhaustive_dispatch(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Engine {
        return;
    }
    let n = file.code.len();
    for ci in 0..n {
        if file.text(ci) != "match" || file.text(ci.wrapping_sub(1)) == "." {
            continue;
        }
        if file.in_test_code(file.ct(ci).line) {
            continue;
        }
        // The match body: first `{` after the head (match heads cannot
        // contain braces without parentheses).
        let mut open = ci + 1;
        while open < n && !matches!(file.text(open), "{" | ";") {
            open += 1;
        }
        if file.text(open) != "{" {
            continue;
        }
        let close = file.matching_brace(open);
        // In scope only if the arms dispatch on the engine enums.
        let dispatches = (open..=close)
            .any(|w| matches!(file.text(w), "Topology" | "Algorithm") && file.text(w + 1) == "::");
        if !dispatches {
            continue;
        }
        scan_arms(file, open, close, out);
    }
}

/// Walks the arms of one match body, flagging catch-all patterns. A
/// small state machine over the code tokens at the arm nesting level:
/// `InPattern` from an arm's first token to its `=>`, `InBody` after.
fn scan_arms(file: &SourceFile, open: usize, close: usize, out: &mut Vec<Diagnostic>) {
    let base = file.depth[open] + 1;
    let mut in_pattern = true;
    let mut at_start = true;
    let mut paren = 0i32;
    let mut w = open + 1;
    while w < close {
        // Nested braces (arm blocks, struct patterns, nested matches)
        // are skipped wholesale.
        if file.text(w) == "{" && file.depth[w] == base {
            let end = file.matching_brace(w);
            w = end + 1;
            if in_pattern {
                continue; // struct pattern — still before `=>`
            }
            // A braced arm body ends the arm; a trailing method call
            // (`match .. {..}.foo()`) keeps us in the body.
            if matches!(file.text(w), ",") {
                w += 1;
            } else if matches!(file.text(w), "." | "?" | ";") {
                continue;
            }
            in_pattern = true;
            at_start = true;
            continue;
        }
        match file.text(w) {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "," if paren == 0 && !in_pattern => {
                in_pattern = true;
                at_start = true;
                w += 1;
                continue;
            }
            "=" if in_pattern && paren == 0 && file.text(w + 1) == ">" => {
                in_pattern = false;
                w += 2;
                continue;
            }
            t if in_pattern && at_start && paren == 0 => {
                let next = file.text(w + 1);
                let arrow_next = next == "if" || (next == "=" && file.text(w + 2) == ">");
                let is_wild = t == "_";
                let is_binding = t.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                    && t != "_"
                    && t.chars().all(|c| c.is_alphanumeric() || c == '_');
                if arrow_next && (is_wild || is_binding) {
                    let tok = file.ct(w);
                    let what = if is_wild {
                        "a `_` wildcard arm".to_string()
                    } else {
                        format!("a catch-all binding arm (`{t} =>`)")
                    };
                    out.push(diag(
                        file,
                        tok.line,
                        tok.col,
                        "exhaustive-dispatch",
                        format!(
                            "{what} in a `Topology`/`Algorithm` dispatch; name every \
                             variant (bind with `v @ (A | B)` if the body is shared) so \
                             adding a variant is a compile error at this site, not a \
                             silent no-op"
                        ),
                    ));
                }
                at_start = false;
            }
            _ => {}
        }
        w += 1;
    }
}

// ------------------------------------------------------- crate-layering

/// `crate-layering`: enforce the engine dependency DAG at reference
/// granularity. Engine files may only name their own crate and the
/// crates in their [`LAYERS`] row; compat stand-ins may not name any
/// `dcd_*` crate at all (they sit outside the engine). Test and bench
/// files are exempt (dev-dependencies legitimately cut across layers).
fn crate_layering(files: &[SourceFile], facts: &WorkspaceFacts, out: &mut Vec<Diagnostic>) {
    for (fi, file) in files.iter().enumerate() {
        let items = &facts.items[fi];
        match file.class {
            FileClass::Compat => {
                for r in &items.crate_refs {
                    if r.name.starts_with("dcd_") {
                        let col = file.ct(r.ci).col;
                        out.push(diag(
                            file,
                            r.line,
                            col,
                            "crate-layering",
                            format!(
                                "compat stand-in references `{}`; the vendored crates sit \
                                 outside the engine DAG and must not depend back into it",
                                r.name
                            ),
                        ));
                    }
                }
            }
            FileClass::Engine => {
                let Some(&(_, allowed)) = LAYERS.iter().find(|(k, _)| *k == items.krate.as_str())
                else {
                    continue; // root package and unknown crates: unconstrained
                };
                for r in &items.crate_refs {
                    if r.name == items.krate || allowed.contains(&r.name.as_str()) {
                        continue;
                    }
                    if file.in_test_code(r.line) {
                        continue; // dev-dependencies in #[cfg(test)] mods
                    }
                    let col = file.ct(r.ci).col;
                    out.push(diag(
                        file,
                        r.line,
                        col,
                        "crate-layering",
                        format!(
                            "`{}` references `{}`, which is not among its allowed \
                             dependencies ({}); the engine DAG is \
                             relation/obs → cfd/dist → core → incr/vertical — route the \
                             call through a layer that owns the edge",
                            items.krate,
                            r.name,
                            if allowed.is_empty() {
                                "none".to_string()
                            } else {
                                allowed.join(", ")
                            },
                        ),
                    ));
                }
            }
            FileClass::Test | FileClass::Bench => {}
        }
    }
}
