//! `perfbench`: the privpath benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload geo-p2p|hot-batch|update-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the `privpath` CLI from this repository, generates the
//! workload's road network from the seed, and sets up a live store
//! served by a real `privpath serve --store DIR --threads $(nproc)`
//! child. A single client process then drives it over TCP with
//! `min(2, nproc)` closed-loop connections (callers of a routing
//! service wait for their answer) through the workload's seeded op
//! sequence, checks every answer, and prints one JSON result as the
//! last stdout line. The line before it (`meta {...}`) records what a
//! later comparison needs: git rev, nproc, seed, op counts, connection
//! count and the store's filesystem. Both are also kept under
//! `.bench_work/results/`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! TCP phase, then replays the op sequence in-process through each
//! crate's public functions with one span per layer call, writes the
//! spans to `.bench_work/spans/`, and reports the per-layer metrics.
//! A run exits non-zero on any wrong answer.

mod load;
mod proc;
mod stats;
mod trace;
mod workload;

use proc::{Result, ScratchDir, Server};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Check, Kind, Network, Plan, Spec};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Closed-loop connections, capped by the cores the box has.
const MAX_CONNECTIONS: usize = 2;
/// Ops not sent within this long after the measured phase starts fail,
/// so a badly slowed program still ends its run in time.
const PHASE_LIMIT: Duration = Duration::from_secs(100);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("flag {:?} needs a value", pair[0]));
        };
        let key = key
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown flag {key:?}"))?;
        flags.insert(key, value.as_str());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let num = |k: &str| -> Result<u64> { get(k)?.parse().map_err(|_| format!("invalid --{k}")) };
    Ok(Args {
        workload: get("workload")?.to_string(),
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Returns whether every answer was correct.
fn run() -> Result<bool> {
    let args = parse_args()?;
    let spec = Spec::by_name(&args.workload)?;
    let root = proc::repo_root();
    let bin = proc::build_privpath(&root)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = nproc.min(MAX_CONNECTIONS);
    let bench_dir = root.join(".bench_work");
    let work = ScratchDir::create(bench_dir.join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    )))?;

    let net = Network::generate(&bin, &spec, args.seed, work.path())?;
    let plan = Plan::new(&spec, args.seed, args.seconds, connections, &net);
    let budget_eps = (plan.updates() + 2) as f64 * workload::RELEASE_EPS;

    // Set up from scratch several times and keep the last server; the
    // median set-up time is reported. Its directory is declared before
    // the server so the server is stopped first.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::with_capacity(setups);
    let mut kept_dir = None;
    let mut server: Option<Server> = None;
    let mut first_answer = String::new();
    for k in 0..setups {
        let dir = ScratchDir::create(work.path().join(format!("setup{k}")))?;
        let (s, secs, answer) = workload::setup(
            &bin,
            &spec,
            args.seed,
            dir.path(),
            nproc,
            budget_eps,
            &plan.first,
        )?;
        setup_times.push(secs);
        if k + 1 < setups {
            s.shutdown()?;
        } else {
            kept_dir = Some(dir);
            server = Some(s);
            first_answer = answer;
        }
    }
    let server = server.ok_or("no set-up ran")?;
    let store_fs = proc::filesystem_of(kept_dir.as_ref().ok_or("no set-up ran")?.path());
    let (addr, pid) = (server.addr().to_string(), server.pid());

    let route = format!("path {}/r0 0 {}\n", spec.ns, spec.nodes - 1);
    let (conns, spread) =
        load::open_spread(&addr, connections, &route, &format!("list {}\n", spec.ns))?;
    let (_, stats_before) = workload::ledger(&addr, spec.ns)?;
    let cpu_before = proc::cpu_seconds(pid)?;
    let wchar_before = proc::written_bytes(pid)?;
    let deadline = Instant::now() + PHASE_LIMIT;
    let main = load::run_closed_loop(conns, &plan.conns, deadline)?;
    let cpu = proc::cpu_seconds(pid)? - cpu_before;
    let writes = if plan.writes.is_empty() {
        None
    } else {
        let conn = load::Conn::new(load::connect(&addr)?)?;
        Some(load::run_closed_loop(
            vec![conn],
            std::slice::from_ref(&plan.writes),
            deadline,
        )?)
    };
    let wchar = proc::written_bytes(pid)? - wchar_before;
    let rss_mib = proc::peak_rss_mib(pid)?;
    let (epoch, stats_after) = workload::ledger(&addr, spec.ns)?;
    let rtt_us = if args.trace {
        trace::rtt_us(&addr, spec.ns)?
    } else {
        0.0
    };
    server.shutdown()?;
    drop(kept_dir);

    // Hot-batch reads one epoch, warmed by the set-up's first query:
    // every repeated pair must match, from the warm-up on.
    let mut check = Check::default();
    let mut repeats = HashMap::new();
    let mut epoch_repeats = (spec.kind == Kind::HotBatch).then_some(&mut repeats);
    check.op(
        &plan.first,
        load::answer(&first_answer),
        epoch_repeats.as_deref_mut(),
    );
    check.phase(&plan.conns, &main.outcomes, epoch_repeats);
    if let Some(w) = &writes {
        check.phase(std::slice::from_ref(&plan.writes), &w.outcomes, None);
    }
    check.ledger(spec.ns, epoch, &stats_after);
    let attempted = plan.reads() + plan.updates();
    let correct = check.mismatches.is_empty();
    for m in check.mismatches.iter().take(5) {
        eprintln!("perfbench: mismatch: {m}");
    }

    let mut samples = Samples::default();
    samples.add(&plan.conns, &main.outcomes);
    if let Some(w) = &writes {
        samples.add(std::slice::from_ref(&plan.writes), &w.outcomes);
    }
    let reads = &samples.reads_ms;
    let updates = &samples.updates_ms;
    let metrics = if args.trace {
        let lookups = (stats_after.cache_hits + stats_after.cache_misses)
            .saturating_sub(stats_before.cache_hits + stats_before.cache_misses);
        // What the server wrote beyond the responses the client read.
        let store_bytes = wchar.saturating_sub(samples.read_bytes + samples.update_bytes);
        let tcp = trace::TcpFigures {
            read_p50_ms: stats::median(reads).unwrap_or(0.0),
            bytes_per_read: samples.read_bytes as f64 / reads.len().max(1) as f64,
            cache_hits: stats_after.cache_hits - stats_before.cache_hits,
            cache_lookups: lookups,
            write_bytes_per_update: store_bytes as f64 / check.updates_ok.max(1) as f64,
            rtt_us,
        };
        let spans = bench_dir.join("spans");
        trace::per_layer(&spec, args.seed, &plan, &net, work.path(), &spans, &tcp)?
    } else {
        let main_ops: usize = plan.conns.iter().map(Vec::len).sum();
        vec![
            metric("setup_s", stats::median(&setup_times).unwrap_or(0.0), "s"),
            metric("read_p50_ms", stats::median(reads).unwrap_or(0.0), "ms"),
            metric(
                "read_p99_ms",
                stats::percentile(reads, 99.0).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "read_ops_per_s",
                reads.len() as f64 / main.wall.as_secs_f64(),
                "1/s",
            ),
            metric("update_p50_ms", stats::median(updates).unwrap_or(0.0), "ms"),
            metric(
                "update_p90_ms",
                stats::percentile(updates, 90.0).unwrap_or(0.0),
                "ms",
            ),
            metric("server_cpu_us_per_op", cpu * 1e6 / main_ops as f64, "us"),
            metric("server_rss_mb", rss_mib, "MiB"),
            metric(
                "ok_ratio",
                (attempted - check.failed) as f64 / attempted as f64,
                "ratio",
            ),
        ]
    };

    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"nproc\": {nproc}, \"connections\": {connections}, \"connections_spread\": {spread}, \"setups\": {setups}, \"nodes\": {}, \
         \"edges\": {}, \"reads\": {}, \"updates\": {}, \"store_fs\": \"{store_fs}\"}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        proc::git_rev(&root),
        spec.nodes,
        net.edges,
        plan.reads(),
        plan.updates(),
    );
    let result = result_json(correct, attempted, check.failed, &metrics);
    drop(work);
    let results = bench_dir.join("results");
    let _ = std::fs::create_dir_all(&results).and_then(|()| {
        std::fs::write(
            results.join(format!(
                "{}-seed{}-trace{}.json",
                spec.name,
                args.seed,
                u8::from(args.trace)
            )),
            format!("{{\"meta\": {meta}, \"result\": {result}}}\n"),
        )
    });
    println!("meta {meta}");
    println!("{result}");
    Ok(correct)
}

/// Latencies and response bytes of every answered op, by kind (failed
/// ops give no sample).
#[derive(Default)]
struct Samples {
    reads_ms: Vec<f64>,
    updates_ms: Vec<f64>,
    read_bytes: u64,
    update_bytes: u64,
}

impl Samples {
    fn add(&mut self, plans: &[Vec<load::Op>], outcomes: &[Vec<load::Outcome>]) {
        for (op, out) in plans.iter().flatten().zip(outcomes.iter().flatten()) {
            let Some(answer) = out.answer() else {
                continue;
            };
            let ms = out.latency.as_secs_f64() * 1e3;
            // The newline the client read is part of the response.
            let bytes = answer.len() as u64 + 1;
            if op.is_update() {
                self.updates_ms.push(ms);
                self.update_bytes += bytes;
            } else {
                self.reads_ms.push(ms);
                self.read_bytes += bytes;
            }
        }
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
