//! The per-namespace manifest: the store's crash-safe source of truth.
//!
//! Every mutation rewrites the manifest via **temp-write + fsync +
//! rename**, so a reader of the directory always sees either the old or
//! the new manifest, never a torn one. Opening a store replays each
//! manifest: the budget and the full spend ledger come back first (they
//! are the privacy source of truth — they cover spends on records since
//! replaced by `update-weights` or dropped, which the release files alone
//! cannot reconstruct), then the referenced weights and release files are
//! attached without re-debiting. Files in the directory that the manifest
//! does not reference (a crash between a file rename and the manifest
//! rename) are deleted on open — the noise and weights they hold are
//! never served.
//!
//! ```text
//! privpath-store-manifest v2
//! namespace <name>
//! epoch <u64>
//! budget eps <f64> delta <f64>   |   budget unbounded
//! weights file <name>
//! continual horizon <u64> rho-total <f64> delta <f64> file <name>   (optional)
//! geo file <name>                                                   (optional)
//! spends <count>
//! spend <eps> <delta> <label to end of line>     (count times)
//! releases <count>
//! release <id> <filename> <spec tokens>          (count times)
//! ```
//!
//! The `weights` line names the epoch-suffixed private-weights file
//! (binary `privpath-weights v2`); like the release files it is written
//! before the manifest rename, so the rename commits new weights,
//! releases and ledger together. A `privpath-store-manifest v1`
//! manifest, whose namespace kept its weights in one text file renamed in
//! place, is refused with `bad header`.
//!
//! The `continual` line (absent for standard namespaces) pins the
//! stream's privacy configuration and names the epoch-suffixed
//! tree-state file, written before the manifest rename like the weights.
//! The `geo` line (absent for non-geo namespaces) names the spatial-index
//! artifact built from the public node coordinates; the index is
//! epoch-invariant (coordinates never change), written once at namespace
//! creation before the first manifest rename.

use crate::error::StoreError;
use crate::spec::ReleaseSpec;
use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const HEADER: &str = "privpath-store-manifest v2";

/// The manifest file name inside a namespace directory.
pub(crate) const MANIFEST_FILE: &str = "manifest";
/// The public-topology file name inside a namespace directory.
pub(crate) const TOPOLOGY_FILE: &str = "topology";
/// The spatial-index file name inside a geo namespace directory. The
/// index covers public coordinates only and never changes after
/// creation, so (unlike release files) it needs no epoch suffix.
pub(crate) const GEO_INDEX_FILE: &str = "geo.index";

/// The release file name for a registry id at one epoch. The epoch
/// suffix makes release files **write-once**: an `update-weights` pass
/// writes the new generation under new names and the manifest rename is
/// the single commit point — a crash mid-generation leaves the old
/// files untouched and still referenced, never a half-overwritten mix.
pub(crate) fn release_file_name(id: u64, epoch: u64) -> String {
    format!("r{id}.e{epoch}.release")
}

/// The private-weights file name at one epoch: write-once and
/// generation-suffixed like release files, so a crash before the
/// manifest rename leaves the old weights referenced and untouched.
pub(crate) fn weights_file_name(epoch: u64) -> String {
    format!("weights.e{epoch}")
}

/// The continual-mode configuration a manifest pins for a namespace.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ContinualManifest {
    /// The declared stream horizon `T` (maximum weight updates).
    pub horizon: u64,
    /// The total zCDP budget the tree composer may consume.
    pub rho_total: f64,
    /// The delta at which rho converts back to the eps ledger.
    pub delta: f64,
    /// The epoch-suffixed tree-state file this manifest references.
    pub file: String,
}

/// Everything the manifest records for one namespace.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ManifestData {
    pub namespace: String,
    pub epoch: u64,
    /// The namespace's total `(eps, delta)` budget, or `None` when
    /// unbounded.
    pub budget: Option<(f64, f64)>,
    /// The private-weights file this manifest references.
    pub weights: String,
    /// Continual-mode configuration, or `None` for a standard namespace.
    pub continual: Option<ContinualManifest>,
    /// The spatial-index file this namespace owns, or `None` when the
    /// namespace has no coordinates.
    pub geo: Option<String>,
    /// The full spend ledger: `(label, eps, delta)` in spend order.
    pub spends: Vec<(String, f64, f64)>,
    /// The live releases: `(id, file name, re-run spec)` in id order.
    pub releases: Vec<(u64, String, ReleaseSpec)>,
}

/// Writes `content` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target.
pub(crate) fn atomic_write(path: &Path, content: &[u8]) -> Result<(), StoreError> {
    let tmp = tmp_path(path);
    let write = |tmp: &Path| -> std::io::Result<()> {
        let mut f = BufWriter::new(File::create(tmp)?);
        f.write_all(content)?;
        let f = f.into_inner().map_err(|e| e.into_error())?;
        let sync_started = std::time::Instant::now();
        f.sync_all()?;
        privpath_obs::MetricRegistry::global()
            .histogram("store_fsync_seconds")
            .observe(sync_started.elapsed().as_secs_f64());
        fs::rename(tmp, path)
    };
    write(&tmp).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        StoreError::io(path, e)
    })
}

/// The temp-file path a crash may leave next to `path`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".tmp");
    path.with_file_name(name)
}

fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Renders the manifest text.
fn render(data: &ManifestData) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("namespace {}\n", data.namespace));
    out.push_str(&format!("epoch {}\n", data.epoch));
    match data.budget {
        Some((e, d)) => out.push_str(&format!("budget eps {} delta {}\n", fmt_f64(e), fmt_f64(d))),
        None => out.push_str("budget unbounded\n"),
    }
    out.push_str(&format!("weights file {}\n", data.weights));
    if let Some(c) = &data.continual {
        out.push_str(&format!(
            "continual horizon {} rho-total {} delta {} file {}\n",
            c.horizon,
            fmt_f64(c.rho_total),
            fmt_f64(c.delta),
            c.file
        ));
    }
    if let Some(g) = &data.geo {
        out.push_str(&format!("geo file {g}\n"));
    }
    out.push_str(&format!("spends {}\n", data.spends.len()));
    for (label, eps, delta) in &data.spends {
        out.push_str(&format!(
            "spend {} {} {label}\n",
            fmt_f64(*eps),
            fmt_f64(*delta)
        ));
    }
    out.push_str(&format!("releases {}\n", data.releases.len()));
    for (id, file, spec) in &data.releases {
        out.push_str(&format!("release {id} {file} {}\n", spec.to_line()));
    }
    out
}

/// Writes the manifest for a namespace directory atomically.
pub(crate) fn write_manifest(dir: &Path, data: &ManifestData) -> Result<(), StoreError> {
    atomic_write(&dir.join(MANIFEST_FILE), render(data).as_bytes())
}

/// Reads and parses a namespace directory's manifest.
pub(crate) fn read_manifest(dir: &Path) -> Result<ManifestData, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    let mut text = String::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| StoreError::io(&path, e))?;
    parse(&text).map_err(|msg| StoreError::manifest(&path, msg))
}

fn parse(text: &str) -> Result<ManifestData, String> {
    let mut lines = text.lines();
    let mut next = |expect: &str| -> Result<&str, String> {
        lines
            .next()
            .ok_or_else(|| format!("unexpected end of manifest, expected {expect}"))
    };

    if next("header")? != HEADER {
        return Err(format!("bad header (expected {HEADER:?})"));
    }
    let namespace = next("namespace")?
        .strip_prefix("namespace ")
        .ok_or("expected `namespace <name>`")?
        .to_string();
    let epoch: u64 = next("epoch")?
        .strip_prefix("epoch ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or("expected `epoch <u64>`")?;
    let budget_line = next("budget")?;
    let budget = if budget_line == "budget unbounded" {
        None
    } else {
        let rest = budget_line
            .strip_prefix("budget eps ")
            .ok_or("expected `budget eps <f64> delta <f64>` or `budget unbounded`")?;
        let (eps_tok, delta_part) = rest
            .split_once(" delta ")
            .ok_or("expected `budget eps <f64> delta <f64>`")?;
        let eps: f64 = eps_tok.trim().parse().map_err(|_| "invalid budget eps")?;
        let delta: f64 = delta_part
            .trim()
            .parse()
            .map_err(|_| "invalid budget delta")?;
        Some((eps, delta))
    };
    let weights = next("weights")?
        .strip_prefix("weights file ")
        .map(str::trim)
        .filter(|f| !f.is_empty())
        .ok_or("expected `weights file <name>`")?
        .to_string();

    let mut spends_line = next("spends")?;
    let continual = if let Some(rest) = spends_line.strip_prefix("continual ") {
        let rest = rest
            .strip_prefix("horizon ")
            .ok_or("expected `continual horizon <u64> rho-total <f64> delta <f64> file <name>`")?;
        let (horizon_tok, rest) = rest
            .split_once(" rho-total ")
            .ok_or("expected `rho-total` in continual line")?;
        let (rho_tok, rest) = rest
            .split_once(" delta ")
            .ok_or("expected `delta` in continual line")?;
        let (delta_tok, file) = rest
            .split_once(" file ")
            .ok_or("expected `file` in continual line")?;
        let horizon: u64 = horizon_tok
            .trim()
            .parse()
            .map_err(|_| "invalid continual horizon")?;
        let rho_total: f64 = rho_tok
            .trim()
            .parse()
            .map_err(|_| "invalid continual rho-total")?;
        let delta: f64 = delta_tok
            .trim()
            .parse()
            .map_err(|_| "invalid continual delta")?;
        if file.trim().is_empty() {
            return Err("missing continual state file".into());
        }
        spends_line = next("spends")?;
        Some(ContinualManifest {
            horizon,
            rho_total,
            delta,
            file: file.trim().to_string(),
        })
    } else {
        None
    };
    let geo = if let Some(rest) = spends_line.strip_prefix("geo ") {
        let file = rest
            .strip_prefix("file ")
            .ok_or("expected `geo file <name>`")?;
        if file.trim().is_empty() {
            return Err("missing geo index file".into());
        }
        spends_line = next("spends")?;
        Some(file.trim().to_string())
    } else {
        None
    };
    let num_spends: usize = spends_line
        .strip_prefix("spends ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or("expected `spends <count>`")?;
    let mut spends = Vec::with_capacity(num_spends);
    for _ in 0..num_spends {
        let line = next("spend")?
            .strip_prefix("spend ")
            .ok_or("expected `spend <eps> <delta> <label>`")?;
        let mut parts = line.splitn(3, ' ');
        let eps: f64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("invalid spend eps")?;
        let delta: f64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("invalid spend delta")?;
        let label = parts.next().ok_or("missing spend label")?.to_string();
        spends.push((label, eps, delta));
    }

    let num_releases: usize = next("releases")?
        .strip_prefix("releases ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or("expected `releases <count>`")?;
    let mut releases = Vec::with_capacity(num_releases);
    for _ in 0..num_releases {
        let line = next("release")?
            .strip_prefix("release ")
            .ok_or("expected `release <id> <file> <spec>`")?;
        let mut parts = line.splitn(3, ' ');
        let id: u64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("invalid release id")?;
        let file = parts.next().ok_or("missing release file")?.to_string();
        let spec_line = parts.next().ok_or("missing release spec")?;
        let spec = ReleaseSpec::parse_line(spec_line).map_err(|e| e.to_string())?;
        if releases.iter().any(|(other, _, _)| *other == id) {
            return Err(format!("release id {id} listed twice"));
        }
        releases.push((id, file, spec));
    }
    if let Some(extra) = lines.next() {
        if !extra.trim().is_empty() {
            return Err(format!("unexpected trailing line {extra:?}"));
        }
    }
    Ok(ManifestData {
        namespace,
        epoch,
        budget,
        weights,
        continual,
        geo,
        spends,
        releases,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use privpath_dp::Epsilon;
    use privpath_engine::ReleaseKind;

    fn sample() -> ManifestData {
        ManifestData {
            namespace: "metro".into(),
            epoch: 7,
            budget: Some((4.0, 1e-6)),
            weights: weights_file_name(7),
            continual: None,
            geo: None,
            spends: vec![
                ("shortest-path#0".into(), 1.0, 0.0),
                ("shortest-path#0@u2".into(), 1.0, 0.0),
            ],
            releases: vec![(
                0,
                release_file_name(0, 7),
                ReleaseSpec::new(ReleaseKind::ShortestPath, Epsilon::new(1.0).unwrap()).unwrap(),
            )],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let data = sample();
        assert_eq!(parse(&render(&data)).unwrap(), data);
        let unbounded = ManifestData {
            budget: None,
            spends: vec![],
            releases: vec![],
            ..data
        };
        assert_eq!(parse(&render(&unbounded)).unwrap(), unbounded);
    }

    #[test]
    fn continual_line_round_trips() {
        let mut data = sample();
        data.continual = Some(ContinualManifest {
            horizon: 256,
            rho_total: 0.09533,
            delta: 1e-6,
            file: "continual.e7.state".into(),
        });
        assert_eq!(parse(&render(&data)).unwrap(), data);
        // A namespace literally named "continual" must not trip the
        // optional-line detection (the keyword is line-initial and the
        // spends header follows unambiguously).
        data.namespace = "continual".into();
        assert_eq!(parse(&render(&data)).unwrap(), data);
        // Malformed continual lines are rejected, not skipped.
        let good = render(&data);
        let bad = good.replace(" rho-total ", " rho ");
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn geo_line_round_trips() {
        let mut data = sample();
        data.geo = Some(GEO_INDEX_FILE.into());
        assert_eq!(parse(&render(&data)).unwrap(), data);
        // Both optional lines together, in their fixed order.
        data.continual = Some(ContinualManifest {
            horizon: 16,
            rho_total: 0.01,
            delta: 1e-6,
            file: "continual.e7.state".into(),
        });
        assert_eq!(parse(&render(&data)).unwrap(), data);
        // A namespace literally named "geo" must not trip detection.
        data.namespace = "geo".into();
        assert_eq!(parse(&render(&data)).unwrap(), data);
        // Malformed geo lines are rejected, not skipped.
        let good = render(&data);
        let bad = good.replace("geo file ", "geo file\n");
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn weights_line_is_required_and_v1_is_refused() {
        let text = render(&sample());
        assert!(text.contains("\nweights file weights.e7\n"));
        let missing = text.replace("weights file weights.e7\n", "");
        assert!(parse(&missing).unwrap_err().contains("weights file"));
        let v1 = text.replace("manifest v2", "manifest v1");
        assert!(parse(&v1).unwrap_err().starts_with("bad header"));
    }

    #[test]
    fn labels_with_spaces_survive() {
        let mut data = sample();
        data.spends.push(("a label with spaces".into(), 0.5, 0.0));
        assert_eq!(parse(&render(&data)).unwrap(), data);
    }

    #[test]
    fn duplicate_ids_and_truncation_are_rejected() {
        let mut data = sample();
        data.releases.push(data.releases[0].clone());
        assert!(parse(&render(&data)).is_err());
        let text = render(&sample());
        let truncated = &text[..text.len() - 10];
        assert!(parse(truncated).is_err());
    }
}
