//! `privpath-lint`: a workspace privacy / crash-safety lint pass.
//!
//! Sealfon's model is only private if every released statistic passes
//! through a noise mechanism whose cost is debited **before**
//! publication. The codebase enforces that invariant by convention —
//! engine write path, `Accountant::check`-before-noise, two-phase store
//! commits — and by runtime tests. This crate makes the conventions
//! machine-checked: a self-contained static pass (hand-rolled lexer +
//! lightweight item model, no `syn`, no registry dependencies) that
//! walks the workspace and reports typed, `file:line` diagnostics.
//!
//! Rules (see [`rules::RULES`]):
//!
//! 1. `privacy-taint` — private weights never referenced from serve /
//!    wire / snapshot read paths.
//! 2. `budget-discipline` — noise sources constructed only in
//!    `crates/dp` and the engine's debit path.
//! 3. `crash-safety-commit` — every `fs::rename` lives in a function
//!    with the temp-write + `sync_all` pattern.
//! 4. `panic-freedom` — no `unwrap`/`expect`/`panic!`-family in
//!    non-test serve/store code.
//! 5. `budget-float-eq` — no float `==`/`!=` on budget values in
//!    accounting paths.
//! 6. `metrics-taint` — weight/noise-valued identifiers never flow into
//!    observability sinks (the `metrics`/`trace` verbs export them).
//!
//! Suppressions use the in-source grammar
//! `// privlint: allow(<rule>, "<justification>")` (see [`allow`]);
//! unjustified, unknown-rule, and unused directives are findings.

pub mod allow;
pub mod lexer;
pub mod model;
pub mod policy;
pub mod rules;

use model::SourceFile;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One finding, anchored to a workspace-relative `path:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (or `"allowlist"` for directive problems).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[privlint::{}]: {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// Lints a modeled file set: per-file rules, then allow-directive
/// application per file. Returns findings
/// sorted by `(path, line, rule)`.
pub fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let known = rules::rule_ids();
    let mut by_path: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for f in files {
        by_path.entry(f.path_str()).or_default();
    }
    for d in files.iter().flat_map(rules::check_file) {
        by_path.entry(d.path.clone()).or_default().push(d);
    }
    let mut out = Vec::new();
    for f in files {
        let path = f.path_str();
        let findings = by_path.remove(&path).unwrap_or_default();
        let (directives, mut issues) = allow::parse_directives(f, &known);
        let (kept, unused) = allow::apply_directives(&path, &directives, findings);
        out.extend(kept);
        out.append(&mut issues);
        out.extend(unused);
    }
    // Findings attributed to paths not in the file set (cannot happen
    // today, but never drop a diagnostic silently).
    out.extend(by_path.into_values().flatten());
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

/// Lints in-memory `(path, source)` pairs — the fixture-test entry
/// point. Paths decide rule scoping exactly as on disk.
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(p, s)| SourceFile::parse(*p, s))
        .collect();
    lint_files(&files)
}

/// The directories walked under the workspace root.
const WALK_ROOTS: &[&str] = &["src", "crates", "tests", "examples"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Collects and models every workspace `.rs` file under `root`.
///
/// # Errors
/// Propagates filesystem errors other than a missing walk root.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for sub in WALK_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let source = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        files.push(SourceFile::parse(rel, &source));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
/// As [`collect_workspace`].
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_files(&collect_workspace(root)?))
}

/// Locates the workspace root from `start`: the nearest ancestor
/// containing both `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}
