//! Fixture tests: every rule gets a failing and a passing fixture, the
//! allowlist grammar gets exercised end to end, and the workspace
//! itself must lint clean (the self-application gate).

use privpath_lint::{lint_sources, lint_workspace, Diagnostic};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---- privacy-taint ----

/// The acceptance fixture: moving a private-weights read into
/// `crates/serve` produces a diagnostic.
#[test]
fn taint_weights_read_in_serve_is_flagged() {
    let src = fixture("taint_bad_serve.rs");
    let diags = lint_sources(&[("crates/serve/src/handler.rs", &src)]);
    let fired = rules_fired(&diags);
    assert!(
        fired.iter().filter(|r| **r == "privacy-taint").count() >= 2,
        "expected EdgeWeights + .weights() findings, got {diags:?}"
    );
    assert!(diags
        .iter()
        .all(|d| d.path == "crates/serve/src/handler.rs"));
}

#[test]
fn taint_snapshot_read_in_serve_is_clean() {
    let src = fixture("taint_ok_serve.rs");
    let diags = lint_sources(&[("crates/serve/src/handler.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn taint_same_code_in_write_path_is_clean() {
    // The identical weights read is legal in the engine's write path.
    let src = fixture("taint_bad_serve.rs");
    let diags = lint_sources(&[("crates/engine/src/engine.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- budget-discipline ----

#[test]
fn noise_in_store_without_justification_is_flagged() {
    let src = fixture("budget_bad_store.rs");
    let diags = lint_sources(&[("crates/store/src/staging.rs", &src)]);
    assert_eq!(rules_fired(&diags), vec!["budget-discipline"], "{diags:?}");
}

#[test]
fn noise_in_dp_crate_is_clean() {
    let src = fixture("budget_bad_store.rs");
    let diags = lint_sources(&[("crates/dp/src/noise.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn justified_allow_suppresses_and_is_not_stale() {
    let src = fixture("budget_allowed_store.rs");
    let diags = lint_sources(&[("crates/store/src/staging.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- crash-safety-commit ----

#[test]
fn rename_without_sync_is_flagged() {
    let src = fixture("crash_bad.rs");
    let diags = lint_sources(&[("crates/store/src/manifest.rs", &src)]);
    assert_eq!(
        rules_fired(&diags),
        vec!["crash-safety-commit"],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("sync_all"));
}

#[test]
fn temp_write_sync_rename_is_clean() {
    let src = fixture("crash_ok.rs");
    let diags = lint_sources(&[("crates/store/src/manifest.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- panic-freedom ----

#[test]
fn panics_in_serve_are_flagged() {
    let src = fixture("panic_bad_serve.rs");
    let diags = lint_sources(&[("crates/serve/src/server.rs", &src)]);
    let fired = rules_fired(&diags);
    // unwrap, expect, panic!, unreachable! — all four forms.
    assert_eq!(fired, vec!["panic-freedom"; 4], "{diags:?}");
}

#[test]
fn unwrap_in_test_module_is_clean() {
    let src = fixture("panic_ok_test_only.rs");
    let diags = lint_sources(&[("crates/serve/src/server.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unwrap_outside_serve_store_is_not_this_rules_business() {
    let src = fixture("panic_bad_serve.rs");
    let diags = lint_sources(&[("crates/core/src/paths.rs", &src)]);
    assert!(diags.iter().all(|d| d.rule != "panic-freedom"), "{diags:?}");
}

// ---- budget-float-eq ----

#[test]
fn float_equality_on_budget_values_is_flagged() {
    let src = fixture("float_eq_bad.rs");
    let diags = lint_sources(&[("crates/dp/src/accounting.rs", &src)]);
    assert_eq!(rules_fired(&diags), vec!["budget-float-eq"], "{diags:?}");
}

#[test]
fn ranges_bits_and_integers_are_clean() {
    let src = fixture("float_eq_ok.rs");
    let diags = lint_sources(&[("crates/dp/src/accounting.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- metrics-taint ----

/// The acceptance fixture: a weight-valued gauge sample is flagged.
#[test]
fn weight_valued_gauge_is_flagged() {
    let src = fixture("metrics_taint_bad.rs");
    let diags = lint_sources(&[("crates/store/src/telemetry.rs", &src)]);
    let fired = rules_fired(&diags);
    assert!(
        fired.iter().filter(|r| **r == "metrics-taint").count() >= 1,
        "expected a metrics-taint finding for the weight-valued sample, got {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "metrics-taint" && d.message.contains("weights")),
        "{diags:?}"
    );
}

#[test]
fn counts_timings_epochs_are_clean() {
    let src = fixture("metrics_taint_ok.rs");
    let diags = lint_sources(&[("crates/store/src/telemetry.rs", &src)]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn weight_valued_sample_in_fixture_dir_is_out_of_scope() {
    // Fixture/vendored paths are not production code; the same source
    // under a fixtures/ path must not fire.
    let src = fixture("metrics_taint_bad.rs");
    let diags = lint_sources(&[("crates/lint/tests/fixtures/metrics_taint_bad.rs", &src)]);
    assert!(diags.iter().all(|d| d.rule != "metrics-taint"), "{diags:?}");
}

// ---- allowlist grammar ----

#[test]
fn unjustified_unknown_and_stale_allows_are_findings() {
    let src = "\
// privlint: allow(panic-freedom, \"\")\n\
let a = x.unwrap();\n\
// privlint: allow(no-such-rule, \"why\")\n\
let b = y.unwrap();\n\
// privlint: allow(privacy-taint, \"nothing tainted here\")\n\
let c = 1;\n";
    let diags = lint_sources(&[("crates/store/src/x.rs", src)]);
    let allowlist = diags.iter().filter(|d| d.rule == "allowlist").count();
    // Empty justification, unknown rule, and an unused (stale) allow.
    assert_eq!(allowlist, 3, "{diags:?}");
    // The unsuppressed unwraps still fire.
    assert_eq!(
        diags.iter().filter(|d| d.rule == "panic-freedom").count(),
        2,
        "{diags:?}"
    );
}

// ---- self-application ----

/// The workspace gate: `privpath-lint --workspace` must be clean, with
/// every suppression justified and none stale.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels under the workspace root");
    let diags = lint_workspace(root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace must lint clean; run `cargo run -p privpath-lint -- --workspace`:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
