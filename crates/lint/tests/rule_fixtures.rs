//! Per-rule fixture tests: every rule gets one positive fixture (the
//! violation is reported, at the expected place) and one negative
//! fixture (the sanctioned idiom stays silent). Fixtures live under
//! `tests/fixtures/` and are *tokenized, never compiled* — the virtual
//! path passed to `check_source` selects the file class and the
//! path-based whitelists, so the same bytes can be a finding in engine
//! code and sanctioned inside `crates/dist`.

use dcd_lint::check_source;

/// Runs a fixture under a virtual path, returning `(rule, line)` pairs.
fn lint(virtual_path: &str, src: &str) -> Vec<(String, u32)> {
    check_source(virtual_path, src).into_iter().map(|d| (d.rule.to_string(), d.line)).collect()
}

fn rules(findings: &[(String, u32)]) -> Vec<&str> {
    findings.iter().map(|(r, _)| r.as_str()).collect()
}

// ------------------------------------------------- hash-iteration-order

#[test]
fn hash_iteration_positive_flags_escaping_order() {
    let src = include_str!("fixtures/hash_iteration_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["hash-iteration-order"], "{findings:?}");
    assert_eq!(findings[0].1, 9, "the `for .. in &m` loop is the leak");
}

#[test]
fn hash_iteration_negative_sanctions_sorts_and_reductions() {
    let src = include_str!("fixtures/hash_iteration_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_iteration_ignores_test_code() {
    let src = include_str!("fixtures/hash_iteration_pos.rs");
    let findings = lint("tests/fixture.rs", src);
    assert!(findings.is_empty(), "test files may iterate freely: {findings:?}");
}

// -------------------------------------------------- raw-ledger-mutation

#[test]
fn ledger_mutation_positive_flags_adhoc_byte_math() {
    let src = include_str!("fixtures/ledger_mutation_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["raw-ledger-mutation"], "{findings:?}");
    assert_eq!(findings[0].1, 4, "`cells * CODE_BYTES` is the ad-hoc math");
}

#[test]
fn ledger_mutation_negative_sanctions_the_authorities() {
    let src = include_str!("fixtures/ledger_mutation_neg.rs");
    let findings = lint("crates/dist/src/ledger.rs", src);
    assert!(findings.is_empty(), "`ship`/`charge_codes` own the counters: {findings:?}");
}

// --------------------------------------------------------- stray-thread

#[test]
fn stray_thread_positive_flags_spawn_outside_pool() {
    let src = include_str!("fixtures/stray_thread_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["stray-thread", "stray-thread"], "{findings:?}");
    assert_eq!(findings[0].1, 3, "the bare `thread::spawn`");
    assert_eq!(findings[1].1, 9, "the hand-rolled `thread::Builder` pool");
}

#[test]
fn stray_thread_negative_allows_the_pool_itself() {
    // The persistent-pool internals: scoped spawns, named `Builder`
    // workers, parking — all sanctioned inside `dcd_dist::pool`.
    let src = include_str!("fixtures/stray_thread_neg.rs");
    let findings = lint("crates/dist/src/pool.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn stray_thread_flags_pool_idiom_outside_the_pool() {
    // The same worker-spawning idiom is a finding anywhere else.
    let src = include_str!("fixtures/stray_thread_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(
        findings.iter().filter(|(r, _)| r == "stray-thread").count() >= 2,
        "scope + Builder both flagged outside the pool: {findings:?}"
    );
}

// ----------------------------------------------------------- wall-clock

#[test]
fn wall_clock_positive_flags_engine_instant_now() {
    let src = include_str!("fixtures/wall_clock_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["wall-clock"], "{findings:?}");
    assert_eq!(findings[0].1, 4);
}

#[test]
fn wall_clock_negative_allows_bench_code() {
    let src = include_str!("fixtures/wall_clock_neg.rs");
    let findings = lint("crates/bench/src/fixture.rs", src);
    assert!(findings.is_empty(), "bench code measures real time: {findings:?}");
}

#[test]
fn wall_clock_obs_positive_gets_the_obs_specific_message() {
    // Host-clock span timestamps inside `crates/obs` are flagged with a
    // message that names the sanctioned source: `SiteClocks` snapshots.
    let src = include_str!("fixtures/wall_clock_obs_pos.rs");
    let diags = check_source("crates/obs/src/trace.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "wall-clock");
    assert_eq!(diags[0].line, 4, "the `Instant::now` timestamp");
    assert!(diags[0].message.contains("dcd_obs"), "{}", diags[0].message);
    assert!(diags[0].message.contains("SiteClocks"), "{}", diags[0].message);
}

#[test]
fn wall_clock_obs_negative_sanctions_snapshots_and_registry_atomics() {
    // The sanctioned obs idioms: span timestamps derived from per-site
    // clock snapshots, and `Relaxed` accumulators inside the registry.
    let src = include_str!("fixtures/wall_clock_obs_neg.rs");
    let findings = lint("crates/obs/src/registry.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn relaxed_atomics_flagged_outside_the_obs_registry() {
    // The registry whitelist is file-exact: the same accumulator idiom
    // elsewhere in `crates/obs` is still a finding.
    let src = include_str!("fixtures/wall_clock_obs_neg.rs");
    let findings = lint("crates/obs/src/trace.rs", src);
    assert_eq!(rules(&findings), ["relaxed-atomic"], "{findings:?}");
}

// ------------------------------------------------------- relaxed-atomic

#[test]
fn relaxed_atomic_positive_flags_relaxed_and_bare_unsafe() {
    let src = include_str!("fixtures/relaxed_atomic_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["relaxed-atomic", "relaxed-atomic"], "{findings:?}");
    assert_eq!(findings[0].1, 4, "`Ordering::Relaxed` outside the audited modules");
    assert_eq!(findings[1].1, 5, "`unsafe` without a SAFETY comment");
}

#[test]
fn relaxed_atomic_negative_allows_audited_module_and_safety_comment() {
    let src = include_str!("fixtures/relaxed_atomic_neg.rs");
    let findings = lint("crates/dist/src/ledger.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

// ------------------------------------------------ duplicate-detect-loop

#[test]
fn duplicate_detect_loop_positive_flags_handrolled_validation() {
    let src = include_str!("fixtures/duplicate_detect_loop_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["duplicate-detect-loop"], "{findings:?}");
    assert_eq!(findings[0].1, 12, "the outer per-group loop is the duplicate");
}

#[test]
fn duplicate_detect_loop_negative_sanctions_kernel_and_maintenance() {
    let src = include_str!("fixtures/duplicate_detect_loop_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "kernel delegation + bookkeeping stay silent: {findings:?}");
}

#[test]
fn duplicate_detect_loop_is_exempt_inside_the_kernel() {
    // The kernel itself is the one place the shape is *supposed* to
    // live.
    let src = include_str!("fixtures/duplicate_detect_loop_pos.rs");
    let findings = lint("crates/cfd/src/kernel.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

// ------------------------------------------------------ bad-suppression

#[test]
fn suppression_without_reason_is_flagged_and_does_not_excuse() {
    let src = include_str!("fixtures/suppression_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    let mut found = rules(&findings);
    found.sort_unstable();
    assert_eq!(found, ["bad-suppression", "wall-clock"]);
}

#[test]
fn suppression_with_reason_filters_the_finding() {
    let src = include_str!("fixtures/suppression_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(
        findings.is_empty(),
        "a reasoned multi-line allow covers the next code line: {findings:?}"
    );
}

#[test]
fn suppression_naming_an_unknown_rule_is_flagged() {
    let src = "// dcd-lint: allow(no-such-rule) — typo'd rule id\nfn f() {}\n";
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["bad-suppression"], "{findings:?}");
}

// -------------------------------------------------- unledgered-shipment

#[test]
fn unledgered_shipment_positive_flags_direct_and_transitive_leaks() {
    let src = include_str!("fixtures/unledgered_shipment_pos.rs");
    let findings = lint("crates/dist/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["unledgered-shipment", "unledgered-shipment"], "{findings:?}");
    assert_eq!(findings[0].1, 7, "`broadcast` builds rows with no charge");
    assert_eq!(findings[1].1, 18, "`stage` is reached uncharged through `resync`");
}

#[test]
fn unledgered_shipment_negative_accepts_charges_anywhere_on_the_path() {
    let src = include_str!("fixtures/unledgered_shipment_neg.rs");
    let findings = lint("crates/dist/src/fixture.rs", src);
    assert!(findings.is_empty(), "in-body and in-caller charges both cover: {findings:?}");
}

#[test]
fn unledgered_shipment_ignores_test_code() {
    let src = include_str!("fixtures/unledgered_shipment_pos.rs");
    let findings = lint("crates/dist/tests/fixture.rs", src);
    assert!(findings.is_empty(), "test topologies ship freely: {findings:?}");
}

// --------------------------------------------------- exhaustive-dispatch

#[test]
fn exhaustive_dispatch_positive_flags_wildcard_and_binding_arms() {
    let src = include_str!("fixtures/exhaustive_dispatch_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["exhaustive-dispatch", "exhaustive-dispatch"], "{findings:?}");
    assert_eq!(findings[0].1, 9, "the `_ =>` arm");
    assert_eq!(findings[1].1, 17, "the `other =>` arm");
}

#[test]
fn exhaustive_dispatch_negative_accepts_total_matches_and_at_bindings() {
    let src = include_str!("fixtures/exhaustive_dispatch_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn exhaustive_dispatch_ignores_test_code() {
    let src = include_str!("fixtures/exhaustive_dispatch_pos.rs");
    let findings = lint("tests/fixture.rs", src);
    assert!(findings.is_empty(), "test dispatches may catch-all: {findings:?}");
}

// ------------------------------------------------------- crate-layering

#[test]
fn crate_layering_positive_flags_upward_references() {
    let src = include_str!("fixtures/crate_layering_pos.rs");
    let findings = lint("crates/relation/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["crate-layering", "crate-layering"], "{findings:?}");
    assert_eq!(findings[0].1, 5, "the `use dcd_core::..`");
    assert_eq!(findings[1].1, 7, "the `dcd_cfd::Cfd` parameter type");
}

#[test]
fn crate_layering_negative_accepts_owned_edges() {
    let src = include_str!("fixtures/crate_layering_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "core may name relation/obs/cfd/dist: {findings:?}");
}

#[test]
fn crate_layering_exempts_tests_and_constrains_compat() {
    let src = include_str!("fixtures/crate_layering_pos.rs");
    assert!(lint("crates/relation/tests/fixture.rs", src).is_empty(), "tests cut across layers");
    let findings = lint("crates/compat/rand/src/fixture.rs", src);
    assert!(
        findings.iter().all(|(r, _)| r == "crate-layering") && findings.len() == 2,
        "compat may not reference dcd_* at all: {findings:?}"
    );
}

// --------------------------------------------------- unused-suppression

#[test]
fn unused_suppression_positive_flags_the_stale_allow() {
    let src = include_str!("fixtures/unused_suppression_pos.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert_eq!(rules(&findings), ["unused-suppression"], "{findings:?}");
    assert_eq!(findings[0].1, 5, "the allow line itself is the finding site");
}

#[test]
fn unused_suppression_negative_stays_silent_for_live_allows() {
    let src = include_str!("fixtures/unused_suppression_neg.rs");
    let findings = lint("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "the allow excuses a real wall-clock finding: {findings:?}");
}
