//! The lint rules. Each rule is a pure function from the modeled file
//! set to line-anchored findings; scoping (which paths a rule covers)
//! lives in [`crate::policy`].

use crate::lexer::{Tok, TokKind};
use crate::model::SourceFile;
use crate::policy;
use crate::Diagnostic;

/// Rule id for the privacy-taint rule.
pub const PRIVACY_TAINT: &str = "privacy-taint";
/// Rule id for the budget-discipline rule.
pub const BUDGET_DISCIPLINE: &str = "budget-discipline";
/// Rule id for the crash-safety-commit rule.
pub const CRASH_SAFETY: &str = "crash-safety-commit";
/// Rule id for the panic-freedom rule.
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// Rule id for the budget-float-eq rule.
pub const BUDGET_FLOAT_EQ: &str = "budget-float-eq";
/// Rule id for the metrics-taint rule.
pub const METRICS_TAINT: &str = "metrics-taint";

/// Every rule id with a one-line description, in reporting order.
pub const RULES: &[(&str, &str)] = &[
    (
        PRIVACY_TAINT,
        "private weights (EdgeWeights, .weights(), tree estimates) must not be \
         referenced from the serve crate, wire codecs, or snapshot read paths",
    ),
    (
        BUDGET_DISCIPLINE,
        "noise sources may only be constructed in crates/dp or the engine's \
         check-before-noise debit path",
    ),
    (
        CRASH_SAFETY,
        "fs::rename in persistence code must live in a function that also \
         performs the temp-write + sync_all pattern",
    ),
    (
        PANIC_FREEDOM,
        "unwrap/expect/panic!/unreachable! are denied in non-test serve and \
         store code (a panic kills a worker or poisons a writer lock)",
    ),
    (
        BUDGET_FLOAT_EQ,
        "budget values (eps/delta/rho) must not be compared with float == or \
         != in accounting paths; use ranges or exact bit comparisons",
    ),
    (
        METRICS_TAINT,
        "weight- or noise-valued data must not flow into observability sinks \
         (metric names, label values, samples, span labels): everything the \
         plane exports is wire-visible and must be a function of public data",
    ),
];

/// All rule ids, for allow-directive validation.
pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|(id, _)| *id).collect()
}

fn finding(rule: &'static str, file: &SourceFile, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path_str(),
        line,
        message,
    }
}

/// Runs every per-file rule that covers `file`.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let path = file.path_str();
    let mut out = Vec::new();
    if policy::panic_freedom_scope(&path) {
        out.extend(panic_freedom(file));
    }
    if policy::taint_forbidden_scope(&path) {
        out.extend(privacy_taint(file));
    }
    if policy::budget_discipline_scope(&path) {
        out.extend(budget_discipline(file));
    }
    if policy::crash_safety_scope(&path) {
        out.extend(crash_safety(file));
    }
    if policy::float_eq_scope(&path) {
        out.extend(budget_float_eq(file));
    }
    if policy::metrics_taint_scope(&path) {
        out.extend(metrics_taint(file));
    }
    out
}

/// Rule `panic-freedom`: `.unwrap()` / `.expect(...)` /
/// `panic!`-family macros in non-test serve/store code.
fn panic_freedom(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test(i) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
        if (t.text == "unwrap" || t.text == "expect") && prev_dot && next_paren {
            out.push(finding(
                PANIC_FREEDOM,
                file,
                t.line,
                format!(
                    "`.{}(...)` in non-test serve/store code: a panic kills a \
                     worker or poisons a writer lock; return a typed error, \
                     recover, or justify with an allow",
                    t.text
                ),
            ));
        } else if matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && next_bang
        {
            out.push(finding(
                PANIC_FREEDOM,
                file,
                t.line,
                format!(
                    "`{}!` in non-test serve/store code: per-connection \
                     isolation depends on workers never panicking",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Rule `privacy-taint`: references that reach private weight state
/// inside read-path / wire-codec code.
fn privacy_taint(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test(i) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct(".");
        let tainted = t.text == "EdgeWeights"
            || t.text.contains("private_weights")
            || (prev_dot && (t.text == "weights" || t.text == "estimate_weights"));
        if tainted {
            out.push(finding(
                PRIVACY_TAINT,
                file,
                t.line,
                format!(
                    "`{}` reaches private weight state from a read-path / wire \
                     module: only dp, the engine, and the store write path may \
                     touch private weights — releases must flow through a \
                     debited noise mechanism before serving",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Noise-source type names whose associated-function use (`Type::...`)
/// counts as construction.
const NOISE_TYPES: &[&str] = &["RngNoise", "RecordingNoise", "Gaussian", "Laplace"];

/// Rule `budget-discipline`: noise construction outside crates/dp and
/// the engine debit path. `use` imports are not construction.
fn budget_discipline(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.in_test(i) || file.in_use(i) {
            continue;
        }
        let next_path = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
        let hit = (NOISE_TYPES.contains(&t.text.as_str()) && next_path) || t.text == "ZeroNoise";
        if hit {
            out.push(finding(
                BUDGET_DISCIPLINE,
                file,
                t.line,
                format!(
                    "`{}` noise source constructed outside crates/dp and the \
                     engine's debit path: every released statistic must pass \
                     through the Accountant's check-before-noise accounting",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Rule `crash-safety-commit`: any `rename(...)` call must sit in a
/// function that also syncs a temp file (`sync_all` + a tmp/temp
/// identifier), so the rename is the single atomic commit point.
fn crash_safety(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("rename") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")))
            || file.in_test(i)
        {
            continue;
        }
        let Some(f) = file.enclosing_fn(i) else {
            out.push(finding(
                CRASH_SAFETY,
                file,
                t.line,
                "`rename(...)` outside any function: cannot verify the \
                 temp-write + sync_all commit pattern"
                    .to_string(),
            ));
            continue;
        };
        let body = &toks[f.body.0..f.body.1];
        let has_sync = body.iter().any(|t| t.is_ident("sync_all"));
        let has_temp = body.iter().any(|t| {
            t.kind == TokKind::Ident
                && (t.text.to_ascii_lowercase().contains("tmp")
                    || t.text.to_ascii_lowercase().contains("temp"))
        });
        if !(has_sync && has_temp) {
            out.push(finding(
                CRASH_SAFETY,
                file,
                t.line,
                format!(
                    "`rename(...)` in `{}` without the temp-write + sync_all \
                     pattern in the same function: a crash between write and \
                     rename could commit an unsynced or partial file (missing: \
                     {}{}{})",
                    f.name,
                    if has_sync { "" } else { "sync_all" },
                    if !has_sync && !has_temp { " and " } else { "" },
                    if has_temp { "" } else { "a tmp/temp file" },
                ),
            ));
        }
    }
    out
}

/// Identifier fragments that mark a comparison operand as a budget
/// value.
const BUDGET_FRAGMENTS: &[&str] = &["eps", "delta", "rho", "budget", "spend", "spent"];

/// Identifiers that mark an integer bookkeeping context, where a
/// `==`/`!=` near a budget-named field is fine (`spends.len() == 0`,
/// and `to_bits()` — the sanctioned exact form this rule points to).
const INTEGER_CONTEXT: &[&str] = &[
    "len",
    "is_empty",
    "count",
    "horizon",
    "epoch",
    "position",
    "items",
    "index",
    "capacity",
    "value_count",
    "num_nodes",
    "num_edges",
    "to_bits",
];

/// Rule `budget-float-eq`: `==` / `!=` on budget-typed floats in
/// accounting paths.
fn budget_float_eq(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || file.in_test(i) {
            continue;
        }
        // A non-float literal operand (integer, string, char) right next
        // to the operator makes this a non-float comparison: Rust will
        // not compare f64 against them (`n == 0`, `line == "budget …"`).
        // A digit preceded by `.` is a tuple-field access (`self.0`),
        // not a literal operand, so it does not disqualify.
        let non_float_literal = |j: usize| {
            toks.get(j).is_some_and(|t| {
                t.kind == TokKind::Literal
                    && !t.is_float_literal()
                    && !(j > 0 && toks[j - 1].is_punct("."))
            })
        };
        if non_float_literal(i.wrapping_sub(1)) || non_float_literal(i + 1) {
            continue;
        }
        let lo = i.saturating_sub(4);
        let hi = (i + 5).min(toks.len());
        let window: Vec<&Tok> = toks[lo..hi].iter().collect();
        let has_float = window.iter().any(|t| t.is_float_literal());
        let budget_ident = window.iter().find(|t| {
            t.kind == TokKind::Ident
                && BUDGET_FRAGMENTS
                    .iter()
                    .any(|f| t.text.to_ascii_lowercase().contains(f))
        });
        let integer_ctx = window
            .iter()
            .any(|t| t.kind == TokKind::Ident && INTEGER_CONTEXT.contains(&t.text.as_str()));
        let flagged = if has_float {
            true
        } else {
            budget_ident.is_some() && !integer_ctx
        };
        if flagged {
            let subject = budget_ident
                .map(|t| format!("`{}`", t.text))
                .unwrap_or_else(|| "a float literal".to_string());
            out.push(finding(
                BUDGET_FLOAT_EQ,
                file,
                t.line,
                format!(
                    "float `{}` comparison involving {subject} in an accounting \
                     path: accumulated budget floats drift, so exact equality \
                     silently mis-gates spends; compare with `<=`/`>=` ranges \
                     or exact `to_bits()` for persisted-state cross-checks",
                    t.text
                ),
            ));
        }
    }
    out
}

/// The observability plane's data sinks: method and constructor names
/// through which a value becomes a metric sample, a metric name, a
/// label value, or a span label — all of which the `metrics` / `trace`
/// verbs export on the wire.
const METRIC_SINKS: &[&str] = &[
    "observe",
    "record",
    "inc",
    "inc_by",
    "set_value",
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
    "histogram_with",
    "enter",
    "phase",
];

/// Identifiers that carry private weight state or noise internals. A
/// string literal is always fine (it is a compile-time constant, not
/// data); these are the *runtime values* that must never be sampled.
fn tainted_metric_ident(text: &str) -> bool {
    if text == "EdgeWeights" {
        return true;
    }
    let lower = text.to_ascii_lowercase();
    lower.contains("weight")
        || lower.contains("noise")
        || lower.contains("private")
        || lower == "l1_shift"
        || lower == "changed_edges"
}

/// Rule `metrics-taint`: a tainted identifier (private weights, noise
/// values, weight-derived aggregates) used as an argument to an
/// observability sink. Draw *counts* are public; drawn *values* and
/// weight magnitudes are not, and neither are identifiers that merely
/// smell of them — rename the variable or justify with an allow.
fn metrics_taint(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !METRIC_SINKS.contains(&t.text.as_str()) || file.in_test(i) {
            continue;
        }
        // A sink is a *call*: `.observe(...)` / `Span::enter(...)`. Bare
        // idents (field names, definitions) are not data flow.
        let qualified = i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::"));
        if !qualified || !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            let a = &toks[j];
            if a.is_punct("(") {
                depth += 1;
            } else if a.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokKind::Ident && tainted_metric_ident(&a.text) {
                out.push(finding(
                    METRICS_TAINT,
                    file,
                    a.line,
                    format!(
                        "`{}` flows into observability sink `{}(...)`: metric \
                         samples, names, labels, and span labels are exported \
                         by the `metrics`/`trace` verbs, so they must be \
                         functions of public data (counts, timings, epochs) — \
                         never of private weights or drawn noise",
                        a.text, t.text
                    ),
                ));
            }
            j += 1;
        }
    }
    out
}
