//! `bench_load` — a closed-loop TCP load generator for the live release
//! store, reporting p50/p99 latency and queries/sec.
//!
//! In its default self-contained mode it builds a temporary store (one
//! namespace, one shortest-path release over a random bounded-weight
//! graph), serves it live on an ephemeral port, and drives a
//! repeated-source `batch` workload through real sockets — once with
//! the read-path source cache on and once with it off — then writes the
//! comparison to `results/bench_load_cache.csv`. Pass `--connect
//! HOST:PORT --release REF` to drive an external server instead (one
//! run, no comparison).
//!
//! Closed loop means every client thread keeps exactly one request in
//! flight: measured latency is service latency, and queries/sec is the
//! throughput the server actually sustained at that concurrency.
//!
//! Pass `--update-rate R` to add a third, mixed read/write run: a
//! writer issues `update-weights` admin requests at `R` updates/sec
//! over the same wire while the closed-loop readers drive the batch
//! workload — the latency profile under live re-releases and cache
//! invalidation, not just a frozen snapshot.
//!
//! Latency percentiles come from `privpath-obs` histograms (one local
//! histogram per client thread, snapshots merged exactly on the shared
//! bucket ladder) — the same machinery the server exports over the
//! `metrics` verb, so bench numbers and scrape numbers are directly
//! comparable. Pass `--with-metrics-artifact` to also run the cache-on
//! workload with the observability plane disabled and enabled and write
//! the overhead comparison to `results/BENCH_serve_metrics.json`.
//!
//! ```text
//! bench_load [--requests N] [--threads T] [--batch B] [--sources S]
//!            [--nodes V] [--update-rate R] [--out FILE]
//!            [--with-metrics-artifact]
//!            [--connect ADDR --release REF]
//! ```

use privpath_dp::Epsilon;
use privpath_engine::ReleaseKind;
use privpath_graph::generators::{connected_gnm, uniform_weights};
use privpath_graph::NodeId;
use privpath_obs::{Histogram, HistogramSnapshot};
use privpath_serve::{
    AdminRequest, AdminResponse, Client, QueryRequest, QueryResponse, ReleaseRef, Server,
    StoreHandler,
};
use privpath_store::{ReleaseSpec, ReleaseStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    requests: u64,
    threads: usize,
    batch: usize,
    sources: usize,
    nodes: usize,
    update_rate: f64,
    out: String,
    metrics_artifact: bool,
    connect: Option<String>,
    release: Option<String>,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        requests: 400,
        threads: 4,
        batch: 16,
        sources: 4,
        nodes: 1024,
        update_rate: 0.0,
        out: "results/bench_load_cache.csv".into(),
        metrics_artifact: false,
        connect: None,
        release: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if key == "--with-metrics-artifact" {
            cfg.metrics_artifact = true;
            i += 1;
            continue;
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{key} needs a value"))?;
        match key {
            "--requests" => cfg.requests = val.parse().map_err(|_| "bad --requests")?,
            "--threads" => cfg.threads = val.parse().map_err(|_| "bad --threads")?,
            "--batch" => cfg.batch = val.parse().map_err(|_| "bad --batch")?,
            "--sources" => cfg.sources = val.parse().map_err(|_| "bad --sources")?,
            "--nodes" => cfg.nodes = val.parse().map_err(|_| "bad --nodes")?,
            "--update-rate" => cfg.update_rate = val.parse().map_err(|_| "bad --update-rate")?,
            "--out" => cfg.out = val.clone(),
            "--connect" => cfg.connect = Some(val.clone()),
            "--release" => cfg.release = Some(val.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(cfg)
}

struct RunResult {
    p50_us: f64,
    p99_us: f64,
    qps: f64,
    cache_hits: u64,
    cache_misses: u64,
    updates_applied: u64,
}

/// Drives `cfg.requests` batch requests through `cfg.threads` closed-loop
/// clients against `addr` and returns the latency/throughput profile.
///
/// Each thread records into its own `privpath-obs` histogram with the
/// unconditional [`Histogram::record`] entry point (the bench must keep
/// measuring even when the plane under test is disabled); the per-thread
/// snapshots merge exactly on the shared bucket ladder, and the reported
/// percentiles are the merged quantile bounds — the same numbers a
/// `metrics` scrape of `serve_request_seconds` would yield.
fn drive(addr: &str, release: &ReleaseRef, cfg: &Config) -> Result<RunResult, String> {
    let remaining = AtomicU64::new(cfg.requests);
    let started = Instant::now();
    let snapshots: Vec<HistogramSnapshot> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let remaining = &remaining;
            let release = release.clone();
            handles.push(scope.spawn(move || -> Result<HistogramSnapshot, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut rng = StdRng::seed_from_u64(0xbe9c4 + t as u64);
                let lats = Histogram::new();
                while remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
                {
                    // Repeated-source workload: every batch draws all its
                    // pairs from a small pool of sources, the shape the
                    // store cache slots.
                    let source = NodeId::new(rng.gen_range(0..cfg.sources) * 7 % cfg.nodes);
                    let pairs: Vec<(NodeId, NodeId)> = (0..cfg.batch)
                        .map(|_| (source, NodeId::new(rng.gen_range(0..cfg.nodes))))
                        .collect();
                    let req = QueryRequest::DistanceBatch {
                        release: release.clone(),
                        pairs,
                        gamma: None,
                    };
                    let start = Instant::now();
                    match client.request(&req).map_err(|e| e.to_string())? {
                        QueryResponse::Distances { values, .. } => {
                            assert_eq!(values.len(), cfg.batch);
                        }
                        QueryResponse::Error { code, message } => {
                            return Err(format!("server error [{code}]: {message}"))
                        }
                        other => return Err(format!("unexpected response {other}")),
                    }
                    lats.record(start.elapsed().as_secs_f64());
                }
                Ok(lats.snapshot())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall = started.elapsed().as_secs_f64();
    let mut merged = HistogramSnapshot::empty();
    for s in &snapshots {
        merged.merge(s);
    }
    let pct = |q: f64| -> f64 { merged.quantile(q).map_or(f64::NAN, |s| s * 1e6) };
    Ok(RunResult {
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        qps: merged.count() as f64 / wall,
        cache_hits: 0,
        cache_misses: 0,
        updates_applied: 0,
    })
}

/// A background writer for the mixed read/write run: issues sparse
/// one-edge `update-weights` admin requests at `rate` updates/sec until
/// `stop` flips, and returns how many committed. Every update debits,
/// re-releases, and hot-swaps the namespace — the readers racing it are
/// what the mixed profile measures.
fn write_load(
    addr: &str,
    namespace: &str,
    num_edges: usize,
    rate: f64,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<u64, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(0x5107);
    let interval = std::time::Duration::from_secs_f64(1.0 / rate);
    let mut applied = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let req = AdminRequest::UpdateWeights {
            namespace: namespace.to_string(),
            updates: vec![(rng.gen_range(0..num_edges), rng.gen_range(0.0..1.0))],
            full: false,
        };
        match client.admin(&req).map_err(|e| e.to_string())? {
            AdminResponse::Updated { .. } => applied += 1,
            AdminResponse::Error { code, message } => {
                return Err(format!("update refused [{code}]: {message}"))
            }
            other => return Err(format!("unexpected admin response {other}")),
        }
        std::thread::sleep(interval);
    }
    Ok(applied)
}

/// One self-contained run: build the store with the cache on or off,
/// serve it, drive the load (plus a background writer when
/// `update_rate > 0`), shut down. Cache counters are reported as deltas
/// across the drive: the underlying cells live in the process-global
/// metric registry (keyed by namespace label), so successive runs in
/// one process see cumulative values.
fn self_contained_run(cfg: &Config, cache: bool, update_rate: f64) -> Result<RunResult, String> {
    let dir = std::env::temp_dir().join(format!(
        "privpath-bench-load-{}-{}",
        if cache { "on" } else { "off" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ReleaseStore::open(&dir)
        .map_err(|e| e.to_string())?
        .with_cache(cache)
        .with_seed(7);
    let mut rng = StdRng::seed_from_u64(42);
    let topo = connected_gnm(cfg.nodes, 3 * cfg.nodes, &mut rng);
    let num_edges = topo.num_edges();
    let weights = uniform_weights(num_edges, 0.0, 1.0, &mut rng);
    store
        .create_namespace("load", topo, weights, None)
        .map_err(|e| e.to_string())?;
    let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, Epsilon::new(1.0).unwrap())
        .map_err(|e| e.to_string())?;
    let id = store.publish("load", &spec).map_err(|e| e.to_string())?.id;

    let store = Arc::new(store);
    let running = Server::bind("127.0.0.1:0", StoreHandler::new(Arc::clone(&store)))
        .map_err(|e| e.to_string())?
        .with_threads(cfg.threads)
        .spawn()
        .map_err(|e| e.to_string())?;
    let release = ReleaseRef::from(id);
    let addr = running.addr().to_string();
    let cache_before = store.stats_for("load").map_err(|e| e.to_string())?;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (result, updates) = std::thread::scope(|scope| {
        let writer = (update_rate > 0.0).then(|| {
            let (addr, stop) = (addr.clone(), &stop);
            scope.spawn(move || write_load(&addr, "load", num_edges, update_rate, stop))
        });
        let result = drive(&addr, &release, cfg);
        stop.store(true, Ordering::Relaxed);
        let updates = writer.map(|w| w.join().expect("writer panicked"));
        (result, updates)
    });
    let mut result = result?;
    result.updates_applied = updates.transpose()?.unwrap_or(0);
    let stats = store.stats_for("load").map_err(|e| e.to_string())?;
    result.cache_hits = stats.cache_hits - cache_before.cache_hits;
    result.cache_misses = stats.cache_misses - cache_before.cache_misses;
    running.shutdown().map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(result)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let cfg = parse_args()?;
    println!(
        "bench_load: {} requests x {} pair batches, {} closed-loop clients, \
         {} distinct sources, {} nodes",
        cfg.requests, cfg.batch, cfg.threads, cfg.sources, cfg.nodes
    );

    if let Some(addr) = &cfg.connect {
        let release: ReleaseRef = cfg
            .release
            .as_deref()
            .ok_or("--connect needs --release")?
            .parse()
            .map_err(|e| format!("{e}"))?;
        let r = drive(addr, &release, &cfg)?;
        println!(
            "external {addr}: p50 {:.0}us p99 {:.0}us {:.0} req/s",
            r.p50_us, r.p99_us, r.qps
        );
        return Ok(());
    }

    let on = self_contained_run(&cfg, true, 0.0)?;
    println!(
        "cache-on : p50 {:.0}us p99 {:.0}us {:.0} req/s ({} hits / {} misses)",
        on.p50_us, on.p99_us, on.qps, on.cache_hits, on.cache_misses
    );
    let off = self_contained_run(&cfg, false, 0.0)?;
    println!(
        "cache-off: p50 {:.0}us p99 {:.0}us {:.0} req/s",
        off.p50_us, off.p99_us, off.qps
    );
    let speedup = on.qps / off.qps;
    println!("cache speedup on repeated-source batches: {speedup:.2}x queries/sec");

    if cfg.metrics_artifact {
        // Instrumentation overhead: the identical cache-on workload with
        // the observability plane off (every recording call is a single
        // relaxed atomic load) and on (counters, histograms, spans all
        // live). The bench's own latency histograms always record.
        privpath_obs::set_enabled(false);
        let plane_off = self_contained_run(&cfg, true, 0.0);
        privpath_obs::set_enabled(true);
        let plane_off = plane_off?;
        let plane_on = self_contained_run(&cfg, true, 0.0)?;
        println!(
            "obs-off  : p50 {:.0}us p99 {:.0}us {:.0} req/s",
            plane_off.p50_us, plane_off.p99_us, plane_off.qps
        );
        println!(
            "obs-on   : p50 {:.0}us p99 {:.0}us {:.0} req/s",
            plane_on.p50_us, plane_on.p99_us, plane_on.qps
        );
        let artifact = "results/BENCH_serve_metrics.json";
        if let Some(parent) = std::path::Path::new(artifact).parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        let json = format!(
            "{{\n  \"bench\": \"bench_load\",\n  \"workload\": {{\n    \"requests\": {},\n    \
             \"threads\": {},\n    \"batch\": {},\n    \"sources\": {},\n    \"nodes\": {}\n  \
             }},\n  \"observability_disabled\": {{ \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"qps\": {:.1} }},\n  \"observability_enabled\": {{ \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"qps\": {:.1} }},\n  \"overhead\": {{ \"p50_delta_us\": {:.1}, \
             \"p99_delta_us\": {:.1}, \"qps_ratio\": {:.4} }}\n}}\n",
            cfg.requests,
            cfg.threads,
            cfg.batch,
            cfg.sources,
            cfg.nodes,
            plane_off.p50_us,
            plane_off.p99_us,
            plane_off.qps,
            plane_on.p50_us,
            plane_on.p99_us,
            plane_on.qps,
            plane_on.p50_us - plane_off.p50_us,
            plane_on.p99_us - plane_off.p99_us,
            plane_on.qps / plane_off.qps,
        );
        std::fs::write(artifact, json).map_err(|e| e.to_string())?;
        println!("wrote {artifact}");
    }

    let mixed = if cfg.update_rate > 0.0 {
        let r = self_contained_run(&cfg, true, cfg.update_rate)?;
        println!(
            "mixed    : p50 {:.0}us p99 {:.0}us {:.0} req/s under {} live updates \
             ({:.1}/s target)",
            r.p50_us, r.p99_us, r.qps, r.updates_applied, cfg.update_rate
        );
        Some(r)
    } else {
        None
    };

    if let Some(parent) = std::path::Path::new(&cfg.out).parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let mut f = std::fs::File::create(&cfg.out).map_err(|e| e.to_string())?;
    writeln!(
        f,
        "mode,requests,threads,batch,sources,nodes,update_rate,updates,p50_us,p99_us,qps,\
         cache_hits,cache_misses"
    )
    .map_err(|e| e.to_string())?;
    let mut rows = vec![("cache-on", &on, 0.0), ("cache-off", &off, 0.0)];
    if let Some(r) = &mixed {
        rows.push(("mixed", r, cfg.update_rate));
    }
    for (mode, r, rate) in rows {
        writeln!(
            f,
            "{mode},{},{},{},{},{},{rate},{},{:.1},{:.1},{:.1},{},{}",
            cfg.requests,
            cfg.threads,
            cfg.batch,
            cfg.sources,
            cfg.nodes,
            r.updates_applied,
            r.p50_us,
            r.p99_us,
            r.qps,
            r.cache_hits,
            r.cache_misses
        )
        .map_err(|e| e.to_string())?;
    }
    println!("wrote {}", cfg.out);
    Ok(())
}
