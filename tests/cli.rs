//! End-to-end tests of the `privpath` command-line tool: generate a demo
//! network, release a private routing table, query routes and distances
//! from the stored release.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_privpath")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("privpath_cli_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn privpath");
    assert!(
        out.status.success(),
        "command {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn full_workflow() {
    let prefix = tmp("demo");
    let prefix_str = prefix.to_str().unwrap();
    let release = tmp("demo.release");
    let release_str = release.to_str().unwrap();

    let out = run_ok(&[
        "gen-demo",
        "--nodes",
        "80",
        "--out-prefix",
        prefix_str,
        "--seed",
        "3",
    ]);
    assert!(out.contains("80 nodes"), "{out}");

    let out = run_ok(&[
        "release",
        "--topo",
        &format!("{prefix_str}.topo"),
        "--weights",
        &format!("{prefix_str}.weights"),
        "--eps",
        "1.0",
        "--out",
        release_str,
    ]);
    assert!(out.contains("eps = 1"), "{out}");

    let out = run_ok(&[
        "route",
        "--release",
        release_str,
        "--from",
        "0",
        "--to",
        "41",
    ]);
    assert!(out.starts_with("route 0 -> 41"), "{out}");
    assert!(out.contains("hops"), "{out}");

    let out = run_ok(&[
        "distance",
        "--release",
        release_str,
        "--from",
        "0",
        "--to",
        "41",
    ]);
    assert!(out.contains("estimated travel time 0 -> 41"), "{out}");

    // Determinism: the same seed regenerates the same route.
    let a = run_ok(&[
        "route",
        "--release",
        release_str,
        "--from",
        "5",
        "--to",
        "60",
    ]);
    let b = run_ok(&[
        "route",
        "--release",
        release_str,
        "--from",
        "5",
        "--to",
        "60",
    ]);
    assert_eq!(a, b);
}

#[test]
fn multi_mechanism_release_and_query_through_engine() {
    let prefix = tmp("multi");
    let prefix_str = prefix.to_str().unwrap();
    let out = tmp("multi_rel");
    let out_str = out.to_str().unwrap();

    run_ok(&[
        "gen-demo",
        "--nodes",
        "60",
        "--out-prefix",
        prefix_str,
        "--seed",
        "9",
    ]);

    // Three mechanism kinds released through one engine run, under one
    // tracked budget.
    let stdout = run_ok(&[
        "release",
        "--topo",
        &format!("{prefix_str}.topo"),
        "--weights",
        &format!("{prefix_str}.weights"),
        "--mechanism",
        "shortest-path,synthetic-graph,bounded-weight",
        "--eps",
        "1.0",
        "--max-weight",
        "120",
        "--budget-eps",
        "3.0",
        "--out",
        out_str,
    ]);
    assert!(stdout.contains("shortest-path table"), "{stdout}");
    assert!(stdout.contains("synthetic-graph table"), "{stdout}");
    assert!(stdout.contains("bounded-weight table"), "{stdout}");
    assert!(stdout.contains("privacy ledger: spent (eps 3"), "{stdout}");
    assert!(stdout.contains("remaining (eps 0"), "{stdout}");

    // Every stored kind answers distance queries; only shortest-path
    // carries routes.
    for kind in ["shortest-path", "synthetic-graph", "bounded-weight"] {
        let file = format!("{out_str}.{kind}.release");
        let q = run_ok(&["distance", "--release", &file, "--from", "3", "--to", "41"]);
        assert!(q.contains("estimated travel time 3 -> 41"), "{kind}: {q}");
        assert!(q.contains(&format!("{kind} release")), "{kind}: {q}");
        let meta = run_ok(&["inspect", "--release", &file]);
        assert!(meta.contains(&format!("kind: {kind}")), "{meta}");
        assert!(meta.contains("eps: 1"), "{meta}");
    }
    let route = run_ok(&[
        "route",
        "--release",
        &format!("{out_str}.shortest-path.release"),
        "--from",
        "3",
        "--to",
        "41",
    ]);
    assert!(route.starts_with("route 3 -> 41"), "{route}");
    let no_route = Command::new(bin())
        .args([
            "route",
            "--release",
            &format!("{out_str}.synthetic-graph.release"),
            "--from",
            "3",
            "--to",
            "41",
        ])
        .output()
        .expect("spawn");
    assert!(
        !no_route.status.success(),
        "synthetic-graph should not serve routes"
    );
}

#[test]
fn tree_mechanism_workflow() {
    let prefix = tmp("treedemo");
    let prefix_str = prefix.to_str().unwrap();
    let release = tmp("treedemo.release");
    let release_str = release.to_str().unwrap();

    run_ok(&[
        "gen-demo",
        "--nodes",
        "40",
        "--out-prefix",
        prefix_str,
        "--seed",
        "5",
        "--shape",
        "tree",
    ]);
    run_ok(&[
        "release",
        "--topo",
        &format!("{prefix_str}.topo"),
        "--weights",
        &format!("{prefix_str}.weights"),
        "--mechanism",
        "tree",
        "--eps",
        "2.0",
        "--out",
        release_str,
    ]);
    let out = run_ok(&[
        "distance",
        "--release",
        release_str,
        "--from",
        "0",
        "--to",
        "39",
    ]);
    assert!(out.contains("estimated travel time 0 -> 39"), "{out}");
    assert!(out.contains("tree release"), "{out}");
}

#[test]
fn over_budget_release_is_refused() {
    let prefix = tmp("budget");
    let prefix_str = prefix.to_str().unwrap();
    run_ok(&[
        "gen-demo",
        "--nodes",
        "30",
        "--out-prefix",
        prefix_str,
        "--seed",
        "2",
    ]);
    let out = Command::new(bin())
        .args([
            "release",
            "--topo",
            &format!("{prefix_str}.topo"),
            "--weights",
            &format!("{prefix_str}.weights"),
            "--mechanism",
            "shortest-path,synthetic-graph",
            "--eps",
            "1.0",
            "--budget-eps",
            "1.5",
            "--out",
            tmp("budget_rel").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        !out.status.success(),
        "second release should exceed the eps = 1.5 budget"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget"), "{stderr}");
}

#[test]
fn duplicate_mechanism_and_dangling_budget_delta_rejected() {
    let prefix = tmp("dup");
    let prefix_str = prefix.to_str().unwrap();
    run_ok(&[
        "gen-demo",
        "--nodes",
        "20",
        "--out-prefix",
        prefix_str,
        "--seed",
        "8",
    ]);
    let topo = format!("{prefix_str}.topo");
    let weights = format!("{prefix_str}.weights");
    let out_file = tmp("dup_rel");
    let base = [
        "release",
        "--topo",
        topo.as_str(),
        "--weights",
        weights.as_str(),
        "--eps",
        "1.0",
        "--out",
        out_file.to_str().unwrap(),
    ];

    // A repeated mechanism would overwrite its own output file while
    // double-spending the budget.
    let mut args = base.to_vec();
    args.extend(["--mechanism", "tree,tree"]);
    let out = Command::new(bin()).args(&args).output().expect("spawn");
    assert!(!out.status.success(), "duplicate mechanism accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("duplicate mechanism"), "{stderr}");

    // A knob no listed mechanism takes is refused, not silently dropped.
    let mut args = base.to_vec();
    args.extend([
        "--mechanism",
        "shortest-path",
        "--delta",
        "1e-6",
        "--max-weight",
        "3",
    ]);
    let out = Command::new(bin()).args(&args).output().expect("spawn");
    assert!(!out.status.success(), "misplaced knobs accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--delta applies to none of the listed mechanisms"),
        "{stderr}"
    );

    // --budget-delta without --budget-eps enforces nothing; refuse it.
    let mut args = base.to_vec();
    args.extend(["--budget-delta", "1e-6"]);
    let out = Command::new(bin()).args(&args).output().expect("spawn");
    assert!(!out.status.success(), "dangling --budget-delta accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--budget-delta needs --budget-eps"),
        "{stderr}"
    );
}

#[test]
fn unknown_and_duplicate_flags_rejected() {
    // parse_flags must reject unknown flags rather than ignore them...
    let out = Command::new(bin())
        .args([
            "gen-demo",
            "--nodes",
            "10",
            "--out-prefix",
            "/tmp/x",
            "--frobnicate",
            "1",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "unknown flag accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --frobnicate"), "{stderr}");

    // ...and duplicated flags rather than silently overwrite.
    let out = Command::new(bin())
        .args([
            "gen-demo",
            "--nodes",
            "10",
            "--nodes",
            "20",
            "--out-prefix",
            "/tmp/x",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "duplicate flag accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("duplicate flag --nodes"), "{stderr}");
}

#[test]
fn bad_invocations_fail_cleanly() {
    let cases: &[&[&str]] = &[
        &[],
        &["frobnicate"],
        &["gen-demo"],                                      // missing flags
        &["gen-demo", "--nodes", "1", "--out-prefix", "x"], // too small
        &[
            "release",
            "--topo",
            "/nonexistent",
            "--weights",
            "/nonexistent",
            "--eps",
            "1",
            "--out",
            "/tmp/x",
        ],
        &[
            "route",
            "--release",
            "/nonexistent",
            "--from",
            "0",
            "--to",
            "1",
        ],
        &["gen-demo", "--nodes"], // flag without value
    ];
    for args in cases {
        let out = Command::new(bin()).args(*args).output().expect("spawn");
        assert!(
            !out.status.success(),
            "command {args:?} unexpectedly succeeded: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            !out.stderr.is_empty(),
            "command {args:?} gave no error message"
        );
    }
}

#[test]
fn serve_and_query_over_tcp() {
    use std::io::{BufRead, BufReader};

    let prefix = tmp("served");
    let prefix_str = prefix.to_str().unwrap();
    let store = tmp("served_store");
    std::fs::create_dir_all(&store).expect("create store dir");
    let store_str = store.to_str().unwrap();

    run_ok(&[
        "gen-demo",
        "--nodes",
        "50",
        "--out-prefix",
        prefix_str,
        "--seed",
        "11",
    ]);
    run_ok(&[
        "release",
        "--topo",
        &format!("{prefix_str}.topo"),
        "--weights",
        &format!("{prefix_str}.weights"),
        "--mechanism",
        "shortest-path,synthetic-graph",
        "--eps",
        "1.0",
        "--out",
        &format!("{store_str}/demo"),
    ]);

    // Ephemeral port; the server prints `listening on HOST:PORT`.
    let mut server = Command::new(bin())
        .args(["serve", "--store-dir", store_str, "--port", "0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = server.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };

    // Distance query answered over the wire, by release id.
    let out = run_ok(&[
        "query",
        "--connect",
        &addr,
        "--release",
        "r0",
        "--from",
        "0",
        "--to",
        "30",
    ]);
    assert!(out.contains("estimated travel time 0 -> 30"), "{out}");
    assert!(out.contains("release r0"), "{out}");

    // Both stored releases are listed with their metadata.
    let out = run_ok(&["query", "--connect", &addr, "--op", "list"]);
    assert!(out.contains("r0 shortest-path eps=1"), "{out}");
    assert!(out.contains("r1 synthetic-graph eps=1"), "{out}");

    // Graceful shutdown: acknowledged, and the server process exits 0.
    let out = run_ok(&["query", "--connect", &addr, "--op", "shutdown"]);
    assert!(out.contains("server acknowledged shutdown"), "{out}");
    let status = server.wait().expect("server exit status");
    assert!(status.success(), "serve exited with {status}");
}

/// `--read-only` disables the admin verbs entirely, and a frozen
/// `--store-dir` set has nothing to administer: pairing either with
/// `--admin-port` is a CLI error before anything binds, never a live
/// mutating endpoint.
#[test]
fn serve_rejects_admin_port_with_read_only_or_store_dir() {
    use std::time::{Duration, Instant};

    let prefix = tmp("adminport");
    let prefix_str = prefix.to_str().unwrap();
    let store = tmp("adminport_store");
    let _ = std::fs::remove_dir_all(&store);
    let store_str = store.to_str().unwrap();
    let frozen = tmp("adminport_frozen");
    std::fs::create_dir_all(&frozen).expect("create frozen dir");
    let frozen_str = frozen.to_str().unwrap();
    run_ok(&[
        "gen-demo",
        "--nodes",
        "20",
        "--out-prefix",
        prefix_str,
        "--seed",
        "5",
    ]);
    let topo = format!("{prefix_str}.topo");
    let weights = format!("{prefix_str}.weights");
    run_ok(&[
        "store",
        "init",
        "--dir",
        store_str,
        "--namespace",
        "ns",
        "--topo",
        &topo,
        "--weights",
        &weights,
    ]);
    run_ok(&[
        "release",
        "--topo",
        &topo,
        "--weights",
        &weights,
        "--eps",
        "1.0",
        "--out",
        &format!("{frozen_str}/demo.release"),
    ]);

    let cases: [&[&str]; 2] = [
        &[
            "serve",
            "--store",
            store_str,
            "--read-only",
            "--admin-port",
            "0",
            "--port",
            "0",
        ],
        &[
            "serve",
            "--store-dir",
            frozen_str,
            "--admin-port",
            "0",
            "--port",
            "0",
        ],
    ];
    for args in cases {
        let mut child = Command::new(bin())
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve");
        // A regression would start serving and never exit on its own.
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("poll serve").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("{args:?} started serving instead of failing");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("serve output");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded: {stdout}");
        assert!(
            !stdout.contains("listening on"),
            "{args:?} bound a port: {stdout}"
        );
        assert!(stderr.contains("--admin-port"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_usage() {
    let out = run_ok(&["help"]);
    assert!(out.contains("usage: privpath"));
    assert!(out.contains("gen-demo"));
}

#[test]
fn calibrate_then_release_stores_the_contract() {
    let prefix = tmp("calib");
    let prefix_str = prefix.to_str().unwrap();
    let release = tmp("calib.release");
    let release_str = release.to_str().unwrap();
    run_ok(&[
        "gen-demo",
        "--nodes",
        "50",
        "--out-prefix",
        prefix_str,
        "--seed",
        "9",
    ]);
    let topo = format!("{prefix_str}.topo");

    // Solve Cor 5.6 backwards for the smallest eps with error <= 5000.
    let out = run_ok(&[
        "calibrate",
        "--topo",
        &topo,
        "--mechanism",
        "shortest-path",
        "--target-alpha",
        "5000",
        "--gamma",
        "0.05",
    ]);
    let eps_line = out
        .lines()
        .find(|l| l.starts_with("calibrated eps "))
        .unwrap_or_else(|| panic!("no calibrated eps line in {out}"));
    let eps: f64 = eps_line["calibrated eps ".len()..].parse().unwrap();
    assert!(eps > 0.0, "{out}");
    assert!(out.contains("contract cor-5.6"), "{out}");
    // The reported bound meets the target.
    let alpha_str = out
        .split("error <= ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no bound in {out}"));
    let alpha: f64 = alpha_str.parse().unwrap();
    assert!(alpha <= 5000.0 + 1e-6, "{out}");

    // Release at the calibrated eps; the stored file carries the
    // contract, and inspect reports the same theorem and bound.
    let out = run_ok(&[
        "release",
        "--topo",
        &topo,
        "--weights",
        &format!("{prefix_str}.weights"),
        "--eps",
        &eps.to_string(),
        "--out",
        release_str,
    ]);
    assert!(out.contains("contract cor-5.6"), "{out}");

    let out = run_ok(&["inspect", "--release", release_str]);
    assert!(out.contains("accuracy: cor-5.6"), "{out}");
    let stored_alpha: f64 = out
        .split("alpha ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (stored_alpha - alpha).abs() < 1e-6,
        "stored contract {stored_alpha} != calibrated {alpha}"
    );

    // A local distance query reports the error bar from the contract.
    let out = run_ok(&[
        "distance",
        "--release",
        release_str,
        "--from",
        "0",
        "--to",
        "20",
    ]);
    assert!(out.contains("error bound: ±"), "{out}");
    assert!(out.contains("cor-5.6"), "{out}");
}

#[test]
fn calibrate_rejects_bad_targets_and_mechanisms() {
    let prefix = tmp("calib_bad");
    let prefix_str = prefix.to_str().unwrap();
    run_ok(&[
        "gen-demo",
        "--nodes",
        "20",
        "--out-prefix",
        prefix_str,
        "--seed",
        "4",
    ]);
    let topo = format!("{prefix_str}.topo");
    for args in [
        vec!["calibrate", "--topo", topo.as_str(), "--target-alpha", "0"],
        vec![
            "calibrate",
            "--topo",
            topo.as_str(),
            "--target-alpha",
            "10",
            "--gamma",
            "2.0",
        ],
        vec![
            "calibrate",
            "--topo",
            topo.as_str(),
            "--target-alpha",
            "10",
            "--mechanism",
            "frobnicate",
        ],
        // bounded-weight without --max-weight
        vec![
            "calibrate",
            "--topo",
            topo.as_str(),
            "--target-alpha",
            "10",
            "--mechanism",
            "bounded-weight",
        ],
        // knobs the tree mechanism does not take
        vec![
            "calibrate",
            "--topo",
            topo.as_str(),
            "--target-alpha",
            "10",
            "--mechanism",
            "tree",
            "--delta",
            "1e-6",
            "--max-weight",
            "5",
        ],
    ] {
        let out = Command::new(bin())
            .args(&args)
            .output()
            .expect("spawn privpath");
        assert!(!out.status.success(), "{args:?} should fail");
    }
}

#[test]
fn shortcut_apsp_end_to_end_via_cli() {
    let prefix = tmp("shortcut");
    let prefix_str = prefix.to_str().unwrap();
    let release = tmp("shortcut.release");
    let release_str = release.to_str().unwrap();
    // A tree demo network is connected by construction with weights in
    // [1, 9] — within the --max-weight 10 promise.
    run_ok(&[
        "gen-demo",
        "--nodes",
        "60",
        "--out-prefix",
        prefix_str,
        "--seed",
        "21",
        "--shape",
        "tree",
    ]);
    let topo = format!("{prefix_str}.topo");

    // The accuracy theorem solves backwards for the new mechanism too.
    let out = run_ok(&[
        "calibrate",
        "--topo",
        &topo,
        "--mechanism",
        "shortcut-apsp",
        "--target-alpha",
        "4000",
        "--delta",
        "1e-6",
        "--max-weight",
        "10",
    ]);
    assert!(out.contains("contract cnx-shortcut"), "{out}");
    let eps_line = out
        .lines()
        .find(|l| l.starts_with("calibrated eps "))
        .unwrap_or_else(|| panic!("no calibrated eps line in {out}"));
    let eps: f64 = eps_line["calibrated eps ".len()..].parse().unwrap();
    assert!(eps > 0.0, "{out}");

    // Release, inspect, query: the ninth mechanism is a first-class
    // stored-release kind.
    let out = run_ok(&[
        "release",
        "--topo",
        &topo,
        "--weights",
        &format!("{prefix_str}.weights"),
        "--mechanism",
        "shortcut-apsp",
        "--eps",
        "1.0",
        "--delta",
        "1e-6",
        "--max-weight",
        "10",
        "--out",
        release_str,
    ]);
    assert!(out.contains("shortcut-apsp table"), "{out}");
    assert!(out.contains("contract cnx-shortcut"), "{out}");

    let out = run_ok(&["inspect", "--release", release_str]);
    assert!(out.contains("kind: shortcut-apsp"), "{out}");
    assert!(out.contains("accuracy: cnx-shortcut"), "{out}");

    let out = run_ok(&[
        "distance",
        "--release",
        release_str,
        "--from",
        "0",
        "--to",
        "31",
    ]);
    assert!(out.contains("estimated travel time 0 -> 31"), "{out}");
    assert!(out.contains("shortcut-apsp release"), "{out}");
    assert!(out.contains("cnx-shortcut"), "{out}");
}
