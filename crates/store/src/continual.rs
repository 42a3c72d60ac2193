//! Continual-mode namespace state: the tree composer plus the budget
//! arithmetic that turns a store-level `(eps, delta)` budget into a
//! polylog stream spend.
//!
//! A continual namespace fixes a horizon `T` at init. The composer's
//! capacity is `T + 1`: stream item 1 is the base weight vector itself
//! (pushed at init, so every later prefix sum *is* the current weights)
//! and items `2 ..= T + 1` are the update deltas. The namespace's rho
//! allowance — derived from its `(eps, delta)` budget through the tight
//! zCDP inverse — is split evenly over the `floor(log2(T + 1)) + 1` tree
//! levels, and the eps ledger is debited by *telescoping increments*:
//! after `n` items the stream's cumulative cost is
//! `eps(rho_node * levels_used(n))`, which steps only when `n` crosses a
//! power of two — the sublinearity the whole subsystem exists for.
//!
//! The composer's full state (per-level raw and noisy vectors) persists
//! to an epoch-suffixed `continual.e<epoch>.state` file written before
//! the manifest rename, so the rename atomically commits the stream
//! position together with the ledger and release files. The file is
//! text header lines plus one binary body (see [`privpath_graph::io`]):
//!
//! ```text
//! privpath-continual-state v2
//! horizon <u64>
//! rho-total <f64>
//! delta <f64>
//! dim <usize>
//! items <u64>
//! levels <u32>
//! level <j> empty | level <j> full       (levels times)
//! body <bytes> <checksum>
//! <raw then noisy vector of each full level, little-endian f64>
//! ```

use crate::error::StoreError;
use crate::manifest::atomic_write;
use privpath_core::bounds::AccuracyContract;
use privpath_dp::continual::{levels_used, TreeComposer};
use privpath_dp::zcdp::zcdp_epsilon;
use privpath_graph::io::{put_f64s, read_body, take_f64s, write_body};
use privpath_graph::EdgeWeights;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

const STATE_HEADER: &str = "privpath-continual-state v2";

/// The tree-state file name at one epoch (write-once, like release
/// files: a crash mid-generation leaves the old state referenced).
pub(crate) fn state_file_name(epoch: u64) -> String {
    format!("continual.e{epoch}.state")
}

/// Read-only continual status, published on every snapshot so `stats`
/// can report it without touching the writer lock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContinualStatus {
    /// Updates absorbed so far (the base release does not count).
    pub position: u64,
    /// The declared horizon `T`.
    pub horizon: u64,
    /// Cumulative rho consumed by the stream.
    pub rho_spent: f64,
    /// The namespace's total rho allowance.
    pub rho_total: f64,
}

/// The writer-side state of a continual namespace.
#[derive(Clone, Debug)]
pub(crate) struct ContinualState {
    /// The declared horizon `T` (maximum weight updates).
    pub horizon: u64,
    /// Total rho allowance over the whole stream.
    pub rho_total: f64,
    /// The delta at which rho converts back into the eps ledger.
    pub delta: f64,
    /// The binary-tree composer over `(base, delta_1, ..., delta_T)`.
    pub composer: TreeComposer,
}

impl ContinualState {
    /// A fresh stream over `dim` edges: capacity `horizon + 1` (base
    /// weights plus `horizon` deltas), rho split evenly over the tree
    /// levels.
    pub fn new(horizon: u64, rho_total: f64, delta: f64, dim: usize) -> Result<Self, StoreError> {
        let capacity = horizon
            .checked_add(1)
            .ok_or_else(|| StoreError::ContinualAccountant("horizon overflow".into()))?;
        let levels = privpath_dp::continual::levels_for(capacity);
        if levels == 0 || !(rho_total.is_finite() && rho_total > 0.0) {
            return Err(StoreError::ContinualAccountant(format!(
                "cannot split rho {rho_total} over {levels} tree levels"
            )));
        }
        let rho_node = rho_total / levels as f64;
        // Per-item L2 sensitivity 1 (Sealfon's neighboring weightings):
        // sigma_node = 1 / sqrt(2 rho_node).
        let sigma_node = 1.0 / (2.0 * rho_node).sqrt();
        let composer = TreeComposer::new(dim, capacity, sigma_node)
            .map_err(|e| StoreError::ContinualAccountant(e.to_string()))?;
        Ok(ContinualState {
            horizon,
            rho_total,
            delta,
            composer,
        })
    }

    /// rho per tree node.
    pub fn rho_node(&self) -> f64 {
        self.rho_total / self.composer.levels() as f64
    }

    /// Cumulative rho consumed after the items pushed so far.
    pub fn rho_spent(&self) -> f64 {
        self.rho_node() * levels_used(self.composer.items()) as f64
    }

    /// Updates absorbed so far (excluding the base item).
    pub fn position(&self) -> u64 {
        self.composer.items().saturating_sub(1)
    }

    /// The composed per-edge noise after any prefix:
    /// `sqrt(levels) * sigma_node`.
    pub fn sigma_edge(&self) -> f64 {
        (self.composer.levels() as f64).sqrt() * self.composer.sigma_node()
    }

    /// The `(eps, delta)` ledger increment the **next** push will cost:
    /// the telescoping difference of the tight conversion, plus the full
    /// namespace delta on the very first item (delta is paid once for
    /// the whole Gaussian stream).
    pub fn prospective_debit(&self) -> Result<(f64, f64), StoreError> {
        let n = self.composer.items();
        let eps_at = |items: u64| {
            zcdp_epsilon(self.rho_node() * levels_used(items) as f64, self.delta)
                .map_err(|e| StoreError::ContinualAccountant(e.to_string()))
        };
        let inc_eps = (eps_at(n + 1)? - eps_at(n)?).max(0.0);
        let inc_delta = if n == 0 { self.delta } else { 0.0 };
        Ok((inc_eps, inc_delta))
    }

    /// The read-only status for snapshots.
    pub fn status(&self) -> ContinualStatus {
        ContinualStatus {
            position: self.position(),
            horizon: self.horizon,
            rho_spent: self.rho_spent(),
            rho_total: self.rho_total,
        }
    }

    /// The accuracy contract continual releases carry.
    pub fn contract(&self, v: usize, num_edges: usize) -> AccuracyContract {
        AccuracyContract::ContinualRelease {
            v,
            num_edges,
            horizon: self.horizon,
            levels: self.composer.levels(),
            sigma_edge: self.sigma_edge(),
        }
    }

    /// The current weight estimate, clamped nonnegative so every exact
    /// mechanism (Dijkstra included) accepts it.
    #[allow(clippy::disallowed_methods)] // justified: see the privlint allow below
    pub fn estimate_weights(&self) -> EdgeWeights {
        let est: Vec<f64> = self
            .composer
            .estimate()
            .into_iter()
            .map(|v| v.max(0.0))
            .collect();
        // privlint: allow(panic-freedom, "estimates are max(0.0)-clamped sums of finite tree-node values, so the finiteness check cannot reject")
        EdgeWeights::new(est).expect("composer estimates are finite")
    }

    /// Renders the state file.
    fn render(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(STATE_HEADER);
        out.push('\n');
        out.push_str(&format!("horizon {}\n", self.horizon));
        out.push_str(&format!("rho-total {:?}\n", self.rho_total));
        out.push_str(&format!("delta {:?}\n", self.delta));
        out.push_str(&format!("dim {}\n", self.composer.dim()));
        out.push_str(&format!("items {}\n", self.composer.items()));
        out.push_str(&format!("levels {}\n", self.composer.levels()));
        let mut body = Vec::new();
        for j in 0..self.composer.levels() {
            match self.composer.level_state(j) {
                None => out.push_str(&format!("level {j} empty\n")),
                Some((raw, noisy)) => {
                    out.push_str(&format!("level {j} full\n"));
                    put_f64s(&mut body, raw);
                    put_f64s(&mut body, noisy);
                }
            }
        }
        let mut bytes = out.into_bytes();
        // Writing into a `Vec` cannot fail.
        let _ = write_body(&mut bytes, &body);
        bytes
    }

    /// Writes the state file atomically at `dir/file`.
    pub fn write_state(&self, dir: &Path, file: &str) -> Result<(), StoreError> {
        atomic_write(&dir.join(file), &self.render())
    }

    /// Reads a state file back; `dim` cross-checks the namespace's edge
    /// count so a mismatched file is rejected rather than served.
    pub fn read_state(dir: &Path, file: &str, dim: usize) -> Result<Self, StoreError> {
        let path = dir.join(file);
        let input = BufReader::new(File::open(&path).map_err(|e| StoreError::io(&path, e))?);
        Self::parse(input, dim).map_err(|msg| StoreError::manifest(&path, msg))
    }

    fn parse(mut input: impl BufRead, expect_dim: usize) -> Result<Self, String> {
        let mut next = |what: &str| -> Result<String, String> {
            let mut line = String::new();
            match input.read_line(&mut line) {
                Ok(0) => Err(format!("unexpected end of state file, expected {what}")),
                Ok(_) => Ok(line.trim_end().to_string()),
                Err(e) => Err(e.to_string()),
            }
        };
        if next("header")? != STATE_HEADER {
            return Err(format!("bad header (expected {STATE_HEADER:?})"));
        }
        let field = |line: String, key: &str| -> Result<String, String> {
            line.strip_prefix(key)
                .and_then(|s| s.strip_prefix(' '))
                .map(|s| s.trim().to_string())
                .ok_or_else(|| format!("expected `{key} <value>`"))
        };
        let horizon: u64 = field(next("horizon")?, "horizon")?
            .parse()
            .map_err(|_| "invalid horizon")?;
        let rho_total: f64 = field(next("rho-total")?, "rho-total")?
            .parse()
            .map_err(|_| "invalid rho-total")?;
        let delta: f64 = field(next("delta")?, "delta")?
            .parse()
            .map_err(|_| "invalid delta")?;
        let dim: usize = field(next("dim")?, "dim")?
            .parse()
            .map_err(|_| "invalid dim")?;
        if dim != expect_dim {
            return Err(format!(
                "state dimension {dim} does not match namespace edge count {expect_dim}"
            ));
        }
        let items: u64 = field(next("items")?, "items")?
            .parse()
            .map_err(|_| "invalid items")?;
        let levels: u32 = field(next("levels")?, "levels")?
            .parse()
            .map_err(|_| "invalid levels")?;
        // The horizon fixes the level count; check it before trusting
        // `levels` to size anything.
        let template =
            ContinualState::new(horizon, rho_total, delta, dim).map_err(|e| e.to_string())?;
        if template.composer.levels() != levels {
            return Err(format!(
                "state has {levels} levels, horizon {horizon} implies {}",
                template.composer.levels()
            ));
        }
        let mut full = Vec::with_capacity(levels as usize);
        for j in 0..levels {
            let line = next("level")?;
            match line.strip_prefix(&format!("level {j} ")) {
                Some("empty") => full.push(false),
                Some("full") => full.push(true),
                _ => return Err(format!("expected `level {j} empty|full`, got {line:?}")),
            }
        }
        let vectors = full.iter().filter(|&&f| f).count();
        let body = read_body(
            &mut input,
            dim.checked_mul(16).and_then(|b| b.checked_mul(vectors)),
        )
        .map_err(|e| e.to_string())?;
        let mut rest = body.as_slice();
        let mut slots: Vec<Option<(Vec<f64>, Vec<f64>)>> = Vec::with_capacity(full.len());
        for is_full in full {
            slots.push(if is_full {
                let raw = take_f64s(&mut rest, dim).map_err(|e| e.to_string())?;
                let noisy = take_f64s(&mut rest, dim).map_err(|e| e.to_string())?;
                Some((raw, noisy))
            } else {
                None
            });
        }
        // The composer invariants come from the same constructor path as
        // a fresh stream (`template`); install the persisted slots.
        let composer = TreeComposer::restore(
            dim,
            horizon + 1,
            template.composer.sigma_node(),
            items,
            slots,
        )
        .map_err(|e| e.to_string())?;
        Ok(ContinualState {
            horizon,
            rho_total,
            delta,
            composer,
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pushed(state: &mut ContinualState, n: u64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = state.composer.dim();
        for t in 0..n {
            let delta: Vec<f64> = (0..dim).map(|c| (t + c as u64) as f64 * 0.25).collect();
            state.composer.push(&delta, &mut rng).unwrap();
        }
    }

    #[test]
    fn telescoping_debits_step_at_powers_of_two() {
        let mut state = ContinualState::new(16, 0.5, 1e-6, 2).unwrap();
        // First push pays delta and a positive eps increment.
        let (e1, d1) = state.prospective_debit().unwrap();
        assert!(e1 > 0.0);
        assert_eq!(d1, 1e-6);
        pushed(&mut state, 1, 1);
        // Second item crosses 2 = 2^1: another eps step, no more delta.
        let (e2, d2) = state.prospective_debit().unwrap();
        assert!(e2 > 0.0);
        assert_eq!(d2, 0.0);
        pushed(&mut state, 1, 2);
        // Third item stays at 2 levels: free.
        let (e3, _) = state.prospective_debit().unwrap();
        assert_eq!(e3, 0.0);
        pushed(&mut state, 1, 3);
        // Fourth item crosses 4 = 2^2: a step again.
        let (e4, _) = state.prospective_debit().unwrap();
        assert!(e4 > 0.0);
    }

    #[test]
    fn rho_spend_is_polylog_in_position() {
        let mut state = ContinualState::new(256, 1.0, 1e-6, 1).unwrap();
        pushed(&mut state, 257, 4);
        // All 257 items consumed: exactly levels * rho_node = rho_total.
        assert!((state.rho_spent() - 1.0).abs() < 1e-12);
        assert_eq!(state.position(), 256);
        let status = state.status();
        assert_eq!(status.horizon, 256);
        assert_eq!(status.position, 256);
        assert!((status.rho_total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn state_file_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "privpath-continual-state-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = ContinualState::new(20, 0.3, 1e-7, 3).unwrap();
        pushed(&mut state, 11, 9);
        state.write_state(&dir, "continual.e5.state").unwrap();
        let back = ContinualState::read_state(&dir, "continual.e5.state", 3).unwrap();
        assert_eq!(back.composer, state.composer);
        assert_eq!(back.horizon, 20);
        assert_eq!(back.rho_total, 0.3);
        assert_eq!(back.delta, 1e-7);
        // Wrong dimension is refused.
        assert!(ContinualState::read_state(&dir, "continual.e5.state", 4).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimate_weights_clamps_negatives() {
        let mut state = ContinualState::new(4, 1e-4, 1e-6, 2).unwrap();
        // Tiny rho means huge sigma: some coordinates will go negative.
        pushed(&mut state, 3, 13);
        let w = state.estimate_weights();
        for i in 0..w.len() {
            assert!(w.get(privpath_graph::EdgeId::new(i)) >= 0.0);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ContinualState::new(16, 0.0, 1e-6, 2).is_err());
        assert!(ContinualState::new(16, f64::NAN, 1e-6, 2).is_err());
        assert!(ContinualState::new(u64::MAX, 1.0, 1e-6, 2).is_err());
    }
}
