//! The store's commit path against crash states and damaged files. A
//! store directory is rebuilt as a crash would leave it, or altered on
//! disk, and `ReleaseStore::open` must then replay exactly one committed
//! generation — releases, ledger and private weights together — or
//! refuse with a typed error rather than serve part of a namespace.
//!
//! No fault hook in the store is needed: a crash just before an update's
//! manifest rename leaves the old directory plus every file the update
//! wrote first, which copies taken before and after the update rebuild.

use privpath::engine::{ReleaseId, ReleaseKind};
use privpath::prelude::*;
use privpath::store::{NamespaceStats, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("privpath-crash-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn network(seed: u64) -> (Topology, EdgeWeights, EdgeWeights) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = privpath::graph::generators::connected_gnm(30, 80, &mut rng);
    let before = EdgeWeights::new((0..80).map(|_| rng.gen_range(1.0..9.0)).collect()).unwrap();
    let after = EdgeWeights::new((0..80).map(|_| rng.gen_range(1.0..9.0)).collect()).unwrap();
    (topo, before, after)
}

/// Copies every file of directory `from` into `to` (created).
fn copy_files(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// Rebuilds the directory a crash just before `after`'s manifest rename
/// leaves: `before` as committed, plus every other file of `after` — the
/// files an update writes ahead of its commit point. A name both share
/// takes `after`'s bytes, as a rename in place would have left it.
fn crash_before_manifest(before: &Path, after: &Path, into: &Path) {
    copy_files(before, into);
    for entry in fs::read_dir(after).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap();
        if name != "manifest" {
            fs::copy(&path, into.join(name)).unwrap();
        }
    }
}

/// What a reader can observe of a namespace's committed state, cache
/// counters aside (they restart at zero on every open).
fn committed(stats: NamespaceStats) -> NamespaceStats {
    NamespaceStats {
        cache_hits: 0,
        cache_misses: 0,
        ..stats
    }
}

fn distance_bits(store: &ReleaseStore, ns: &str) -> Vec<u64> {
    let snap = store.snapshot(ns).unwrap();
    (0..30)
        .step_by(7)
        .flat_map(|s| (0..30).step_by(5).map(move |t| (s, t)))
        .map(|(s, t)| {
            snap.distance(ReleaseId::new(0), NodeId::new(s), NodeId::new(t))
                .unwrap()
                .to_bits()
        })
        .collect()
}

/// Runs one update on a namespace made by `create`, rebuilds the crash
/// state from copies taken around it, and checks that reopening serves
/// the old epoch, ledger, releases and private weights.
fn crash_mid_update_replays_the_old_generation(
    tag: &str,
    create: impl FnOnce(&ReleaseStore, Topology, EdgeWeights),
) {
    let root = temp_root(tag);
    let (topo, before_w, after_w) = network(41);
    let store = ReleaseStore::open(root.join("live")).unwrap().with_seed(5);
    create(&store, topo, before_w.clone());
    store
        .publish(
            "metro",
            &ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1.0)).unwrap(),
        )
        .unwrap();
    let old_state = committed(store.stats_for("metro").unwrap());
    let old_answers = distance_bits(&store, "metro");
    copy_files(&root.join("live/metro"), &root.join("before/metro"));
    let receipt = store.update_weights("metro", after_w).unwrap();
    assert!(receipt.changed_edges > 0);
    copy_files(&root.join("live/metro"), &root.join("after/metro"));
    drop(store);

    crash_before_manifest(
        &root.join("before/metro"),
        &root.join("after/metro"),
        &root.join("crashed/metro"),
    );
    let reopened = ReleaseStore::open(root.join("crashed")).unwrap();
    assert_eq!(
        committed(reopened.stats_for("metro").unwrap()),
        old_state,
        "epoch, ledger or stream position is not the committed one"
    );
    assert_eq!(distance_bits(&reopened, "metro"), old_answers);
    // The private weights are the old generation's too: updating to them
    // changes nothing. (New weights beside old releases would make this
    // update — and, in a continual namespace, its stream item — wrong.)
    let receipt = reopened.update_weights("metro", before_w).unwrap();
    assert_eq!(
        (receipt.changed_edges, receipt.l1_shift),
        (0, 0.0),
        "reopen served the uncommitted private weights"
    );
    drop(reopened);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn crash_before_commit_keeps_old_weights_in_a_standard_namespace() {
    crash_mid_update_replays_the_old_generation("standard", |store, topo, w| {
        store
            .create_namespace("metro", topo, w, Some((eps(10.0), Delta::zero())))
            .unwrap();
    });
}

#[test]
fn crash_before_commit_keeps_old_weights_in_a_continual_namespace() {
    crash_mid_update_replays_the_old_generation("continual", |store, topo, w| {
        store
            .create_namespace_continual("metro", topo, w, (eps(1.0), Delta::new(1e-6).unwrap()), 8)
            .unwrap();
    });
}

/// A store with one namespace after one publish and one update, and the
/// namespace directory.
fn committed_store(tag: &str, continual: bool) -> (PathBuf, PathBuf) {
    let root = temp_root(tag);
    let (topo, before_w, after_w) = network(43);
    let store = ReleaseStore::open(&root).unwrap().with_seed(9);
    if continual {
        store
            .create_namespace_continual(
                "metro",
                topo,
                before_w,
                (eps(1.0), Delta::new(1e-6).unwrap()),
                8,
            )
            .unwrap();
    } else {
        store
            .create_namespace("metro", topo, before_w, None)
            .unwrap();
    }
    store
        .publish(
            "metro",
            &ReleaseSpec::new(ReleaseKind::ShortestPath, eps(1.0)).unwrap(),
        )
        .unwrap();
    store.update_weights("metro", after_w).unwrap();
    drop(store);
    assert!(ReleaseStore::open(&root).is_ok());
    let ns = root.join("metro");
    (root, ns)
}

/// The one namespace file whose name starts with `prefix`.
fn file_named(ns: &Path, prefix: &str) -> PathBuf {
    let mut found: Vec<PathBuf> = fs::read_dir(ns)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix))
        .collect();
    assert_eq!(found.len(), 1, "{prefix}* files: {found:?}");
    found.pop().unwrap()
}

/// Applies `damage` to one file of a committed store and expects open to
/// refuse the whole store with a typed error whose text has `expect`.
fn open_refuses(tag: &str, continual: bool, prefix: &str, expect: &str, damage: fn(&mut Vec<u8>)) {
    let (root, ns) = committed_store(tag, continual);
    let path = file_named(&ns, prefix);
    let mut bytes = fs::read(&path).unwrap();
    damage(&mut bytes);
    fs::write(&path, &bytes).unwrap();
    match ReleaseStore::open(&root) {
        Err(err @ (StoreError::Io { .. } | StoreError::Manifest { .. })) => {
            assert!(
                err.to_string().contains(expect),
                "{tag}: expected {expect:?} in {err}"
            )
        }
        Err(other) => panic!("{tag}: untyped refusal {other:?}"),
        Ok(_) => panic!("{tag}: a damaged {prefix} file was served"),
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn truncated_bodies_are_refused() {
    let cut: fn(&mut Vec<u8>) = |b| b.truncate(b.len() - 3);
    open_refuses("trunc-release", false, "r0.", "truncated", cut);
    open_refuses("trunc-weights", false, "weights.", "truncated", cut);
    open_refuses("trunc-state", true, "continual.", "truncated", cut);
}

#[test]
fn flipped_bytes_are_refused() {
    // One bit of the last 8-byte value in the file's body.
    let flip_last_value: fn(&mut Vec<u8>) = |b| {
        let at = b.len() - 5;
        b[at] ^= 0x04;
    };
    open_refuses("flip-release", false, "r0.", "checksum", flip_last_value);
    open_refuses(
        "flip-weights",
        false,
        "weights.",
        "checksum",
        flip_last_value,
    );
    open_refuses(
        "flip-state",
        true,
        "continual.",
        "checksum",
        flip_last_value,
    );
}

#[test]
fn a_release_naming_another_topology_is_refused() {
    open_refuses("other-topology", false, "r0.", "names topology", |bytes| {
        let at = bytes
            .windows(16)
            .position(|w| w == b"topology shared ")
            .unwrap()
            + 16;
        // Another (well-formed) 16-digit checksum.
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
    });
}

#[test]
fn retired_text_formats_are_refused_as_bad_headers() {
    open_refuses("v3-release", false, "r0.", "bad header", |bytes| {
        assert!(bytes.starts_with(b"privpath-release v4\n"));
        bytes[18] = b'3';
    });
    // The text weights file an earlier store kept.
    open_refuses("v1-weights", false, "weights.", "bad header", |bytes| {
        *bytes = b"privpath-weights v1\nlen 1\n1.0\n".to_vec();
    });
    open_refuses("v1-manifest", false, "manifest", "bad header", |bytes| {
        assert!(bytes.starts_with(b"privpath-store-manifest v2\n"));
        bytes[25] = b'1';
    });
}
