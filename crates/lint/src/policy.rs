//! Which workspace paths each rule covers. Paths are workspace-relative
//! with forward slashes (`crates/store/src/store.rs`).
//!
//! The scoping encodes the architecture the rules defend:
//!
//! * **Write path** (may touch private weights, may construct noise
//!   after debiting): `crates/dp`, the engine's `engine.rs` /
//!   `mechanism.rs`, and the store's writer modules.
//! * **Read path / wire** (must never see private state, must never
//!   panic): all of `crates/serve`, the store's snapshot cache, the
//!   engine's `QueryService`.
//! * **Persistence** (must commit via temp-write + fsync + rename):
//!   anywhere `rename` appears in production code.
//!
//! `crates/bench`, `examples/`, and test code run mechanisms on
//! synthetic public data and are exempt from the noise-construction and
//! panic rules.

/// Production source: workspace crates' `src/` trees plus the root
/// crate's `src/`. Benches, examples, integration tests, vendored
/// stubs, and lint fixtures are not production code.
pub fn is_production(path: &str) -> bool {
    if path.starts_with("vendor/") || path.contains("/fixtures/") {
        return false;
    }
    if path.starts_with("src/") {
        return true;
    }
    path.starts_with("crates/") && path.contains("/src/") && !path.starts_with("crates/bench/")
}

/// Rule `panic-freedom`: non-test serve, store, geo, and graph-algorithm
/// sources (the geo crate sits on the ingest and read paths: a malformed
/// DIMACS file or an out-of-range coordinate must surface as a typed
/// error, never a panic in the serving process; the search algorithms in
/// `crates/graph/src/algo/` run inside every query and release path, so
/// an `.expect` there is a panic in the serving process too).
pub fn panic_freedom_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path.starts_with("crates/store/src/")
        || path.starts_with("crates/geo/src/")
        || path.starts_with("crates/graph/src/algo/")
}

/// Rule `privacy-taint`: the read-path / wire modules that must never
/// reference private weight state.
pub fn taint_forbidden_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path == "crates/store/src/cache.rs"
        || path == "crates/engine/src/service.rs"
}

/// Rule `budget-discipline`: production code outside crates/dp and the
/// engine's debit path (`engine.rs` holds the check-before-noise
/// release paths, `mechanism.rs` the trait's default `release`).
pub fn budget_discipline_scope(path: &str) -> bool {
    is_production(path)
        && !path.starts_with("crates/dp/src/")
        && !path.starts_with("crates/lint/src/")
        && path != "crates/engine/src/engine.rs"
        && path != "crates/engine/src/mechanism.rs"
}

/// Rule `crash-safety-commit`: all production code (any `rename` is a
/// commit point).
pub fn crash_safety_scope(path: &str) -> bool {
    is_production(path)
}

/// Rule `metrics-taint`: every production call site can feed the
/// observability plane, and everything the plane holds is exported by
/// the `metrics` / `trace` wire verbs — so the whole production tree is
/// in scope.
pub fn metrics_taint_scope(path: &str) -> bool {
    is_production(path)
}

/// Rule `budget-float-eq`: the accounting paths — dp, engine, store.
pub fn float_eq_scope(path: &str) -> bool {
    path.starts_with("crates/dp/src/")
        || path.starts_with("crates/engine/src/")
        || path.starts_with("crates/store/src/")
}
