//! The rule set. Every rule guards one invariant the test suite pins
//! dynamically; the lint catches the *shortcut* that breaks it before a
//! property-test seed happens to.
//!
//! | rule id | invariant guarded |
//! |---|---|
//! | `hash-iteration-order` | bit-identical outputs across pool widths |
//! | `raw-ledger-mutation` | byte-accurate shipment accounting |
//! | `stray-thread` | all parallelism goes through `dcd_dist::pool` |
//! | `wall-clock` | simulated `SiteClocks` time only |
//! | `relaxed-atomic` | audited atomic orderings, justified `unsafe` |
//! | `duplicate-detect-loop` | group validation lives in `dcd_cfd::kernel` only |
//! | `unledgered-shipment` | every wire payload is charged to the ledger |
//! | `exhaustive-dispatch` | `Topology`/`Algorithm` matches stay total |
//! | `crate-layering` | the engine dependency DAG holds at reference level |
//! | `unused-suppression` | allows excuse a live finding, or get deleted |
//!
//! The per-file rules here are token-window analyses, not AST passes:
//! sound about strings and comments (the tokenizer guarantees that),
//! heuristic about types. The flow families live in [`crate::flows`]
//! and consume the workspace symbol graph instead of a token window.
//! Where a heuristic over-approximates, the inline
//! `// dcd-lint: allow(<rule>) — <reason>` escape hatch documents the
//! reasoning right at the site it excuses.

use crate::diag::Diagnostic;
use crate::source::{FileClass, SourceFile};
use std::collections::BTreeSet;

/// All rule ids, in reporting order. The first six are token-window
/// rules (this module); the next three are the flow-aware families over
/// the workspace symbol graph ([`crate::flows`]); the last two police
/// the suppression mechanism itself ([`crate::engine`]).
pub const RULE_IDS: [&str; 11] = [
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
];

/// One-line description per rule (the `rules` subcommand and README).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "hash-iteration-order" => {
            "iterating a HashMap/HashSet/FxHashMap in engine code without an \
             order-restoring sink (sort, BTree collection, commutative reduction) \
             — the classic way pool-width determinism breaks"
        }
        "raw-ledger-mutation" => {
            "ShipmentLedger counter mutation outside `ship`/`control`, or ad-hoc \
             `CODE_BYTES` wire-byte math outside `charge_codes` — accounting must \
             have exactly one authority"
        }
        "stray-thread" => {
            "`thread::spawn`/`thread::scope` outside `dcd_dist::pool` — parallelism \
             that bypasses the pool bypasses the bit-identical-across-widths contract"
        }
        "wall-clock" => {
            "`Instant::now`/`SystemTime` outside bench/compat — engine time is the \
             simulated `SiteClocks` cost model, never the host clock; `crates/obs` \
             gets its own message because span timestamps there must come from \
             `SiteClocks` snapshots"
        }
        "relaxed-atomic" => {
            "`Ordering::Relaxed` outside the audited dist modules and the \
             order-free `dcd_obs` metrics registry, or an `unsafe` block without \
             a `// SAFETY:` comment"
        }
        "duplicate-detect-loop" => {
            "a hand-rolled per-group tableau-validation loop outside \
             `dcd_cfd::kernel` — the group-validation semantics (distinct-RHS \
             conflict, wildcard/constant flagging) have exactly one home; \
             instantiate `kernel::detect_grouped`/`validate_group` instead"
        }
        "unledgered-shipment" => {
            "a function reachable from a public engine entry point that builds \
             code-wire payloads (`code_rows`/`code_shipment`) with no \
             `ShipmentLedger` charge anywhere on the call path — every simulated \
             transfer must be accounted"
        }
        "exhaustive-dispatch" => {
            "a `_` wildcard or lowercase catch-all arm in an engine `match` on \
             `Topology`/`Algorithm` — adding a variant must be a compile error at \
             every dispatch site, never a silent no-op"
        }
        "crate-layering" => {
            "a reference that violates the engine dependency DAG \
             (relation/obs → cfd/dist → core → incr/vertical), or a compat \
             stand-in reaching back into `dcd_*`"
        }
        "unused-suppression" => {
            "a well-formed `dcd-lint: allow(..)` whose rule no longer fires on \
             the covered line — stale permission slips get deleted, not inherited"
        }
        "bad-suppression" => {
            "a `dcd-lint:` marker that is malformed or missing its reason — every \
             allow must say why it is sound"
        }
        _ => "unknown rule",
    }
}

/// Long-form rationale per rule: what the rule analyses, why the
/// invariant matters, and how to fix or soundly suppress a finding.
/// This backs `dcd_lint explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "hash-iteration-order" => {
            "Engine outputs must be bit-identical across pool widths and chunk \
             sizes. Iterating a HashMap/FxHashMap leaks the hasher's order into \
             whatever consumes the loop, and that order varies run to run. The \
             rule resolves hash-typed bindings (local `let`s, fields, \
             hash-returning fns) and flags iterations whose statement window has \
             no order-restoring sink: a sort, a BTree collection, or a \
             commutative reduction (sum/count/min/max). Fix by sorting before \
             the order escapes; allow only with a proof it cannot."
        }
        "raw-ledger-mutation" => {
            "The ShipmentLedger is the single accounting authority for simulated \
             wire traffic; the paper's cost claims are only checkable because \
             every byte goes through `ship`/`control`, with `charge_codes` \
             composing the code-wire byte math. Inside `ledger.rs` the atomic \
             counters may be touched only by those authorities; everywhere else, \
             multiplying by CODE_BYTES is ad-hoc wire math that will drift from \
             the ledger. Fix by passing cell counts to `charge_codes`."
        }
        "stray-thread" => {
            "All parallelism goes through `dcd_dist::pool`: the persistent \
             worker pool merges per-site outputs in (site, chunk) order, which \
             is what makes results independent of DCD_THREADS. A bare \
             `thread::spawn`/`scope`/`Builder` bypasses that merge discipline. \
             Fix by expressing the work as `pool::morsel_map`/`scoped_map`."
        }
        "wall-clock" => {
            "Engine time is simulated: `SiteClocks` advanced by the `CostModel`. \
             `Instant::now`/`SystemTime` in a detection path makes reports and \
             traces irreproducible. Only `crates/bench` and the compat stand-ins \
             may read host time."
        }
        "relaxed-atomic" => {
            "`Ordering::Relaxed` is correct only where commutativity, not \
             ordering, carries the contract — the audited ledger/pool counters \
             and the obs metrics registry. Anywhere else, pick the ordering the \
             happens-before argument needs and document it. The rule also \
             requires a `// SAFETY:` comment above every `unsafe` block."
        }
        "duplicate-detect-loop" => {
            "Group validation (distinct-RHS conflict, wildcard/constant \
             flagging) lives in `dcd_cfd::kernel` and nowhere else — the \
             workspace once carried five divergent copies. The rule flags `for` \
             bodies that re-implement the shape (hash accumulation + RHS reads \
             + flag decision + distinctness test) without delegating to \
             `validate_group`/`detect_grouped`."
        }
        "unledgered-shipment" => {
            "Flow rule over the symbol graph. Wire payloads are built by the \
             sending-side constructors (`code_rows`, `fragment_code_rows`, \
             `code_shipment`); a path from a public engine entry point to one \
             of them that never passes `charge_codes`/`ship`/`control` is a \
             shipment the ledger never saw — exactly the accounting drift the \
             response-time claims cannot survive. The BFS does not descend into \
             charging functions (their paths are covered), so the charge may \
             live in the builder's caller at any depth. Fix by charging in the \
             flagged function or every caller; the constructors themselves are \
             exempt by name."
        }
        "exhaustive-dispatch" => {
            "Topology and Algorithm are the engine's dispatch enums: every \
             variant must reach a real implementation. A `_` or catch-all \
             binding arm in an engine match on them means a future variant \
             silently inherits someone else's behavior instead of failing to \
             compile. Name every variant; when several share a body, bind with \
             `v @ (A | B | C)` — that stays exhaustive. `_` inside a variant's \
             own pattern (`Topology::Hybrid(_)`) is fine."
        }
        "crate-layering" => {
            "The engine DAG — relation/obs at the bottom, cfd/dist above them, \
             core above those, incr/vertical/complexity/datagen at the top — is \
             what keeps the kernel reusable and the compat stand-ins swappable. \
             The rule checks every `dcd_*`/compat crate reference in engine \
             code against a hardcoded copy of that DAG, and forbids compat \
             crates from referencing `dcd_*` at all. Tests and benches are \
             exempt (dev-dependencies cut across layers by design)."
        }
        "unused-suppression" => {
            "An `allow(..)` comment whose rule no longer fires on the covered \
             line is a stale permission slip: it documents a hazard that no \
             longer exists and will silently excuse the next, unrelated finding \
             on that line. The engine tracks which suppressions actually \
             matched a finding during the run and flags the rest. Fix by \
             deleting the comment (or re-pointing it at the line that needs it)."
        }
        "bad-suppression" => {
            "The accepted shape is `// dcd-lint: allow(<rule>) — <reason>`, \
             reason mandatory: an allow that does not say why it is sound is a \
             future regression with a permission slip. Malformed markers and \
             unknown rule names are findings; neither can be suppressed."
        }
        _ => return None,
    })
}

/// Hash-container type names the heuristic treats as unordered.
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Iterator-producing methods on hash containers whose order leaks.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Tokens in a statement window that restore or neutralize iteration
/// order: explicit sorts, ordered collections, and order-insensitive
/// reductions.
const ORDER_SINKS: [&str; 19] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "count",
    "product",
    "min",
    "max",
    "all",
    "any",
    "len",
    "is_empty",
    "contains",
];

/// Atomic mutation verbs (for the ledger rule).
const ATOMIC_MUTATORS: [&str; 9] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "store",
    "swap",
    "get_mut",
];

/// Facts collected across the whole workspace before per-file rules
/// run: which function names return hash containers. This feeds the
/// `hash-iteration-order` binding heuristic so `let g = group_by(..)`
/// is recognized across file boundaries. Field and parameter names, by
/// contrast, are resolved *per file* — short names like `lhs` or
/// `groups` recur all over the workspace with different types, and a
/// global name registry would drown the rule in collisions.
#[derive(Debug, Default)]
pub struct HashFacts {
    /// Function names whose return type mentions a hash container.
    pub hash_fns: BTreeSet<String>,
}

/// Scans one file's declarations into the global facts.
pub fn collect_facts(file: &SourceFile, facts: &mut HashFacts) {
    let n = file.code.len();
    for ci in 0..n {
        // `fn NAME ( .. ) -> ..Hash..` — record NAME.
        if file.text(ci) == "fn" && !file.text(ci + 2).is_empty() {
            let name = file.text(ci + 1).to_string();
            // Walk to the parameter close, then look for `->` and scan
            // the return type until the body/semicolon.
            let mut j = ci + 2;
            while j < n && file.text(j) != "(" {
                j += 1;
            }
            let mut d = 0i32;
            while j < n {
                match file.text(j) {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if file.text(j + 1) == "-" && file.text(j + 2) == ">" {
                let mut k = j + 3;
                while k < n && !matches!(file.text(k), "{" | ";" | "where") {
                    if HASH_TYPES.contains(&file.text(k)) {
                        facts.hash_fns.insert(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
}

/// Per-file hash-typed names from `NAME: HashType<..>` declarations —
/// struct fields, fn parameters, and `let` ascriptions alike. The hash
/// type must be the *outermost* constructor: `groups: FxHashMap<..>`
/// counts, `clusters: Vec<(FxHashSet<..>, ..)>` does not (iterating
/// that `Vec` is ordered).
fn file_hash_names(file: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for ci in 0..file.code.len() {
        if file.text(ci + 1) == ":"
            && HASH_TYPES.contains(&file.text(ci + 2))
            && file.text(ci + 3) == "<"
        {
            let name = file.text(ci);
            if !name.is_empty()
                && name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Runs every rule over one file.
pub fn check_file(file: &SourceFile, facts: &HashFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    hash_iteration_order(file, facts, &mut out);
    raw_ledger_mutation(file, &mut out);
    stray_thread(file, &mut out);
    wall_clock(file, &mut out);
    relaxed_atomic(file, &mut out);
    duplicate_detect_loop(file, &mut out);
    bad_suppression(file, &mut out);
    out
}

fn diag(file: &SourceFile, ci: usize, rule: &'static str, message: String) -> Diagnostic {
    let t = file.ct(ci);
    Diagnostic { rule, file: file.path.clone(), line: t.line, col: t.col, message }
}

// ---------------------------------------------------------------- rule 1

/// `hash-iteration-order`: engine code iterating a hash container whose
/// element order escapes. Binding-based: the rule first resolves which
/// local names / fields / function results are hash-typed, then flags
/// `for .. in <hash>` and `<hash>.iter()/keys()/values()/..` unless the
/// statement window contains an order sink (sort, BTree, commutative
/// reduction) or the elements land in another hash container.
fn hash_iteration_order(file: &SourceFile, facts: &HashFacts, out: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Engine {
        return;
    }
    let n = file.code.len();
    // Local hash-typed bindings in this file.
    let mut local: BTreeSet<String> = BTreeSet::new();
    for ci in 0..n {
        if file.text(ci) != "let" {
            continue;
        }
        let mut j = ci + 1;
        if file.text(j) == "mut" {
            j += 1;
        }
        let name = file.text(j).to_string();
        if name.is_empty() || !name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
            continue;
        }
        // Scan the rest of the statement (type + initializer). A type
        // ascription only counts when its outermost constructor is a
        // hash container (`Vec<(FxHashSet, ..)>` iterates in Vec order).
        let (_, end) = file.statement_window(j);
        let mut typed_hash = false;
        let mut k = j + 1;
        if file.text(k) == ":" {
            let mut t = k + 1;
            while matches!(file.text(t), "&" | "mut") {
                t += 1;
            }
            if HASH_TYPES.contains(&file.text(t)) {
                typed_hash = true;
            }
            while k <= end && !matches!(file.text(k), ";" | "=") {
                k += 1;
            }
        }
        if file.text(k) == "=" {
            // Initializer: `HashType::new()`, `.collect::<FxHashMap..>`,
            // a known hash-returning fn, or cloning a known hash binding.
            let lead = file.text(k + 1);
            if HASH_TYPES.contains(&lead)
                || (facts.hash_fns.contains(lead) && file.text(k + 2) == "(")
                || (local.contains(lead) && file.text(k + 2) == "clone")
            {
                typed_hash = true;
            }
            let mut m = k + 1;
            while m <= end && file.text(m) != ";" {
                if file.text(m) == "collect" {
                    // turbofish `collect::<FxHashMap<..>>`
                    let mut q = m + 1;
                    while q <= end && q < m + 8 {
                        if HASH_TYPES.contains(&file.text(q)) {
                            typed_hash = true;
                        }
                        q += 1;
                    }
                }
                m += 1;
            }
        }
        if typed_hash {
            local.insert(name);
        }
    }

    let fields = file_hash_names(file);
    let is_hash_name = |name: &str| local.contains(name) || fields.contains(name);

    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    let mut flag = |file: &SourceFile, ci: usize, what: &str, out: &mut Vec<Diagnostic>| {
        let line = file.ct(ci).line;
        if file.in_test_code(line) || !flagged_lines.insert(line) {
            return;
        }
        // Sanction: an order sink in the statement window, or the
        // elements land in a hash container again (order never escapes).
        let (a, b) = file.statement_window(ci);
        for w in a..=b {
            let t = file.text(w);
            if ORDER_SINKS.contains(&t) || HASH_TYPES.contains(&t) {
                return;
            }
            // `<hash>.extend(..)` / `<hash>.insert(..)` as the consumer.
            if (t == "extend" || t == "insert") && w >= 2 && file.text(w.wrapping_sub(1)) == "." {
                let recv = file.text(w - 2);
                if is_hash_name(recv) {
                    return;
                }
            }
        }
        out.push(diag(
            file,
            ci,
            "hash-iteration-order",
            format!(
                "iteration order of `{what}` is hash-randomized across runs and pool \
                 widths; sort the items (or collect into a BTree map/set) before the \
                 order can escape, or allow with the reason order cannot escape here"
            ),
        ));
    };

    for ci in 0..n {
        // `NAME . method(` where NAME is hash-typed.
        if file.text(ci + 1) == "."
            && HASH_ITER_METHODS.contains(&file.text(ci + 2))
            && file.text(ci + 3) == "("
        {
            let name = file.text(ci);
            let prev = if ci == 0 { "" } else { file.text(ci - 1) };
            let full = if prev == "." && file.text(ci.saturating_sub(2)) == "self" {
                // `self.field.iter()` — field lookup.
                file.text(ci).to_string()
            } else if prev == "." {
                continue; // some_expr.NAME.iter(): unknown receiver type
            } else {
                name.to_string()
            };
            if is_hash_name(&full) {
                flag(file, ci, &format!("{}.{}()", full, file.text(ci + 2)), out);
            }
            // Direct call of a hash-returning fn then iterated:
            // `group_by(..).iter()` handled below via `)` receiver.
        }
        // `hash_fn( .. ) . iter_method (` — iterate a fresh hash result.
        if facts.hash_fns.contains(file.text(ci)) && file.text(ci + 1) == "(" {
            // find matching close paren
            let mut d = 0i32;
            let mut j = ci + 1;
            while j < n {
                match file.text(j) {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if file.text(j + 1) == "." && HASH_ITER_METHODS.contains(&file.text(j + 2)) {
                flag(file, ci, &format!("{}(..).{}()", file.text(ci), file.text(j + 2)), out);
            }
        }
        // `for PAT in [&[mut]] NAME {` — direct container iteration.
        if file.text(ci) == "for" {
            // find `in` at the same nesting (patterns have no `in`).
            let mut j = ci + 1;
            while j < n && file.text(j) != "in" && file.text(j) != "{" {
                j += 1;
            }
            if file.text(j) != "in" {
                continue;
            }
            let mut k = j + 1;
            while matches!(file.text(k), "&" | "mut") {
                k += 1;
            }
            let (name, adv) = if file.text(k) == "self" && file.text(k + 1) == "." {
                (file.text(k + 2).to_string(), 3)
            } else {
                (file.text(k).to_string(), 1)
            };
            // Only a *direct* iteration (`for x in map {`): method chains
            // were flagged by the patterns above.
            if is_hash_name(&name) && file.text(k + adv) == "{" {
                flag(file, k, &format!("for .. in {name}"), out);
            }
        }
    }
}

// ---------------------------------------------------------------- rule 2

/// `raw-ledger-mutation`: inside `ledger.rs`, the atomic counters may be
/// mutated only by `new`/`ship`/`control` (with `charge_codes` composing
/// `ship`); everywhere else in engine code, multiplying by `CODE_BYTES`
/// is ad-hoc wire-byte math that must go through
/// `ShipmentLedger::charge_codes` instead.
fn raw_ledger_mutation(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let n = file.code.len();
    if file.path.ends_with("crates/dist/src/ledger.rs") || file.path == "crates/dist/src/ledger.rs"
    {
        // Collect sanctioned fn body ranges.
        let mut allowed: Vec<(usize, usize)> = Vec::new();
        for ci in 0..n {
            if file.text(ci) == "fn"
                && matches!(file.text(ci + 1), "new" | "ship" | "control" | "charge_codes")
            {
                let mut j = ci + 2;
                while j < n && file.text(j) != "{" {
                    j += 1;
                }
                if j < n {
                    allowed.push((j, file.matching_brace(j)));
                }
            }
        }
        for ci in 0..n {
            let t = file.text(ci);
            let is_mutator = ATOMIC_MUTATORS.contains(&t) && file.text(ci + 1) == "(";
            let is_byte_math = t == "CODE_BYTES"
                && (file.text(ci.wrapping_sub(1)) == "*" || file.text(ci + 1) == "*");
            if (is_mutator || is_byte_math)
                && !allowed.iter().any(|&(a, b)| a <= ci && ci <= b)
                && !file.in_test_code(file.ct(ci).line)
            {
                out.push(diag(
                    file,
                    ci,
                    "raw-ledger-mutation",
                    format!(
                        "`{t}` touches ledger accounting outside `ship`/`control`/`charge_codes`; \
                         shipment counters have exactly one mutation authority"
                    ),
                ));
            }
        }
        return;
    }
    if file.class != FileClass::Engine {
        return;
    }
    for ci in 0..n {
        if file.text(ci) == "CODE_BYTES"
            && (file.text(ci.wrapping_sub(1)) == "*" || file.text(ci + 1) == "*")
            && !file.in_use_statement(ci)
            && !file.in_test_code(file.ct(ci).line)
        {
            out.push(diag(
                file,
                ci,
                "raw-ledger-mutation",
                "ad-hoc `CODE_BYTES` byte math in engine code; pass cell counts to \
                 `ShipmentLedger::charge_codes` — it is the single place wire bytes \
                 are computed"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 3

/// `stray-thread`: `thread::spawn` / `thread::scope` anywhere but
/// `dcd_dist::pool`. The pool is the one place allowed to create
/// threads, because it is the one place that guarantees index-ordered
/// merges (and therefore pool-width-independent outputs).
fn stray_thread(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path.ends_with("crates/dist/src/pool.rs") || file.class == FileClass::Compat {
        return;
    }
    for ci in 0..file.code.len() {
        if file.text(ci) == "thread"
            && file.text(ci + 1) == "::"
            && matches!(file.text(ci + 2), "spawn" | "scope" | "Builder")
            && !file.in_use_statement(ci)
        {
            out.push(diag(
                file,
                ci,
                "stray-thread",
                format!(
                    "`thread::{}` outside `dcd_dist::pool`; go through \
                     `pool::morsel_map`/`pool::scoped_map` so work runs on the \
                     persistent workers and per-site outputs merge in (site, chunk) \
                     order, bit-identical across pool widths",
                    file.text(ci + 2)
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 4

/// `wall-clock`: `Instant::now` / `SystemTime` outside bench and compat.
/// Engine and test time is the simulated `SiteClocks` cost model; host
/// time in a detection path makes reports irreproducible.
fn wall_clock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if matches!(file.class, FileClass::Bench | FileClass::Compat) {
        return;
    }
    for ci in 0..file.code.len() {
        if file.in_use_statement(ci) {
            continue;
        }
        let hit =
            (file.text(ci) == "Instant" && file.text(ci + 1) == "::" && file.text(ci + 2) == "now")
                || file.text(ci) == "SystemTime";
        if hit {
            let what = if file.text(ci) == "SystemTime" { "SystemTime" } else { "Instant::now" };
            let message = if file.path.contains("crates/obs/") {
                format!(
                    "`{what}` in `dcd_obs`; observability timestamps must come from \
                     `SiteClocks` snapshots so traces and metrics stay bit-identical \
                     across pool widths — record spans from simulated seconds, never \
                     the host clock"
                )
            } else {
                format!(
                    "`{what}` reads the host clock; detection time is simulated via \
                     `SiteClocks`/`CostModel` (only `crates/bench` and `crates/compat` \
                     may touch real time)"
                )
            };
            out.push(diag(file, ci, "wall-clock", message));
        }
    }
}

// ---------------------------------------------------------------- rule 5

/// `relaxed-atomic`: `Relaxed` atomic orderings outside the audited
/// modules (`dcd_dist`'s `ledger.rs` — monotonic counters read after
/// the pool join; `pool.rs` — a work-claiming counter whose atomicity,
/// not ordering, carries the contract; `dcd_obs`'s `registry.rs` —
/// commutative metric accumulators read only from frozen snapshots),
/// plus `unsafe` without a `// SAFETY:` justification in the preceding
/// comment.
fn relaxed_atomic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let whitelisted = file.path.ends_with("crates/dist/src/ledger.rs")
        || file.path.ends_with("crates/dist/src/pool.rs")
        || file.path.ends_with("crates/obs/src/registry.rs");
    for ci in 0..file.code.len() {
        if file.text(ci) == "Relaxed" && !whitelisted {
            out.push(diag(
                file,
                ci,
                "relaxed-atomic",
                "`Ordering::Relaxed` outside the audited `dcd_dist` ledger/pool \
                 modules and the `dcd_obs` registry; pick the ordering the \
                 happens-before argument needs and document it (see the atomics \
                 audit in `crates/dist`)"
                    .to_string(),
            ));
        }
    }
    // `unsafe` needs a SAFETY comment nearby — scan the *full* token
    // stream so comments are visible.
    for (ti, t) in file.tokens.iter().enumerate() {
        if t.is_comment() || t.text != "unsafe" {
            continue;
        }
        let justified = file.tokens[..ti]
            .iter()
            .rev()
            .take(6)
            .any(|p| p.is_comment() && p.text.contains("SAFETY"));
        if !justified {
            out.push(Diagnostic {
                rule: "relaxed-atomic",
                file: file.path.clone(),
                line: t.line,
                col: t.col,
                message: "`unsafe` without a `// SAFETY:` comment immediately above; \
                          state the invariant that makes this sound"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------- rule 6

/// `duplicate-detect-loop`: a hand-rolled group-validation loop outside
/// `dcd_cfd::kernel`. The workspace once carried five per-group
/// tableau-validation loops (columnar, code-row, value-wise, per-pattern
/// ×2); they were folded into the one kernel, and this rule is the
/// reintroduction ratchet. The shape flagged is a `for` body that does
/// all four things every duplicated loop did:
///
/// 1. accumulates into a hash container (`insert`/`or_insert`/..),
/// 2. reads RHS cells (an identifier mentioning `rhs`),
/// 3. decides a flag/conflict (an identifier mentioning `flag` or
///    `conflict`),
/// 4. compares for distinctness (`!=`, or a `> 1` distinct count).
///
/// A body that delegates to the kernel (`validate_group`,
/// `detect_grouped`, `emit_group`, or matching on `GroupVerdict`/
/// building `RhsSpec`s) is sanctioned — that is the *intended* way to
/// run group validation, not a duplicate of it.
fn duplicate_detect_loop(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Engine || file.path.ends_with("crates/cfd/src/kernel.rs") {
        return;
    }
    const KERNEL_CALLS: [&str; 5] =
        ["validate_group", "detect_grouped", "emit_group", "GroupVerdict", "RhsSpec"];
    const ACCUMULATORS: [&str; 4] = ["insert", "or_insert", "or_insert_with", "get_or_insert_with"];
    let n = file.code.len();
    for ci in 0..n {
        if file.text(ci) != "for" {
            continue;
        }
        // Loop head: `for PAT in EXPR {` — find the `in`, then the body.
        let mut j = ci + 1;
        while j < n && file.text(j) != "in" && file.text(j) != "{" {
            j += 1;
        }
        if file.text(j) != "in" {
            continue;
        }
        let mut b = j + 1;
        while b < n && !matches!(file.text(b), "{" | ";") {
            b += 1;
        }
        if file.text(b) != "{" {
            continue;
        }
        let end = file.matching_brace(b);
        let (mut accumulates, mut rhs, mut flags, mut compares) = (false, false, false, false);
        let mut sanctioned = false;
        for w in b..=end {
            let t = file.text(w);
            if KERNEL_CALLS.contains(&t) {
                sanctioned = true;
                break;
            }
            if ACCUMULATORS.contains(&t) {
                accumulates = true;
            }
            if t.contains("rhs") {
                rhs = true;
            }
            if t.contains("flag") || t.contains("conflict") {
                flags = true;
            }
            if (t == "!" && file.text(w + 1) == "=") || (t == ">" && file.text(w + 1) == "1") {
                compares = true;
            }
        }
        if !sanctioned
            && accumulates
            && rhs
            && flags
            && compares
            && !file.in_test_code(file.ct(ci).line)
        {
            out.push(diag(
                file,
                ci,
                "duplicate-detect-loop",
                "this loop re-implements per-group tableau validation (RHS \
                 accumulation + distinctness test + flag decision); the one \
                 group-validation kernel is `dcd_cfd::kernel` — instantiate \
                 `kernel::detect_grouped` (or `validate_group` for a \
                 pre-grouped member list) instead of duplicating its semantics"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 7

/// `bad-suppression`: malformed `dcd-lint:` markers. Not suppressible —
/// a suppression that cannot parse cannot excuse anything, least of all
/// itself.
fn bad_suppression(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (line, why) in &file.bad_suppressions {
        out.push(Diagnostic {
            rule: "bad-suppression",
            file: file.path.clone(),
            line: *line,
            col: 1,
            message: why.clone(),
        });
    }
    // Unknown rule names in otherwise well-formed suppressions.
    for s in &file.suppressions {
        if !RULE_IDS.contains(&s.rule.as_str()) {
            out.push(Diagnostic {
                rule: "bad-suppression",
                file: file.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "`allow({})` names an unknown rule; known rules: {}",
                    s.rule,
                    RULE_IDS.join(", ")
                ),
            });
        }
    }
}
