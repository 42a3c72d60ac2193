//! `privpath` — command-line front end for the private routing workflow:
//! generate or import a network, release private distance products once
//! through the budget-accounted [`ReleaseEngine`], then answer queries
//! from the stored releases (post-processing, so queries are free of
//! further privacy cost).
//!
//! ```text
//! privpath gen-demo  --nodes 200 --out-prefix demo           # demo.topo / demo.weights
//! privpath calibrate --topo demo.topo --mechanism shortest-path \
//!                    --target-alpha 150 --gamma 0.05         # smallest eps for the target
//! privpath release   --topo demo.topo --weights demo.weights \
//!                    --mechanism shortest-path,synthetic-graph \
//!                    --eps 1.0 --budget-eps 2.0 --out demo
//! privpath route     --release demo.shortest-path.release --from 0 --to 17
//! privpath distance  --release demo.synthetic-graph.release --from 0 --to 17
//! privpath inspect   --release demo.shortest-path.release   # incl. accuracy contract
//! ```

use privpath::engine::{
    read_release, Knob, Knobs, MechanismVisitor, QueryService, ReleaseEngine, ReleaseKind,
};
use privpath::geo::{generate_road_network, read_co_path, read_gr_path, write_co, write_gr};
use privpath::graph::generators::{random_geometric_graph, random_tree_prufer, uniform_weights};
use privpath::graph::io::{read_topology, read_weights, write_topology, write_weights};
use privpath::prelude::*;
use privpath::serve::{
    AdminRequest, AdminResponse, Client, QueryRequest, QueryResponse, ReleaseRef, RunningServer,
    Server, StoreHandler,
};
use privpath::store::{NamespaceSnapshot, ReleaseSpec, ReleaseStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: privpath <command> [--flag value ...]

commands:
  gen-demo   --nodes N --out-prefix P [--seed S] [--shape geometric|tree]
             generate a demo road network: P.topo (public topology) and
             P.weights (private travel times)
  geo gen    --nodes N --out-prefix P [--seed S]
             generate a deterministic DIMACS road network: P.gr (directed
             arcs + private travel times) and P.co (public lat/lon node
             coordinates); same --nodes/--seed reproduce the same network
             byte for byte, so the whole geo pipeline runs offline
  calibrate  --topo F --mechanism M --target-alpha A
             [--gamma G] [--delta D] [--max-weight W]
             solve the mechanism's accuracy theorem backwards: print the
             smallest eps whose error bound meets `error <= A with
             probability 1 - G` (G defaults to 0.05) on the given
             topology, plus the theorem-named contract; mechanisms:
             shortest-path, tree, hld-tree, bounded-weight,
             shortcut-apsp, synthetic-graph, all-pairs-baseline, mst,
             matching (hld-tree/mst/matching have no stored-release
             format, so their calibrated eps feeds the library API, not
             `release`)
  release    --topo F --weights F --eps E --out F
             [--mechanism M[,M...]] [--gamma G] [--delta D]
             [--max-weight W] [--budget-eps E --budget-delta D] [--seed S]
             [--threads N]
             run one or more mechanisms through the release engine under a
             tracked privacy budget and store each release (with its
             accuracy contract); --threads N fans the per-source Dijkstras
             over N cores (default: all cores; the released bytes are
             identical for any N);
             mechanisms: shortest-path (default), tree, bounded-weight,
             shortcut-apsp, synthetic-graph, all-pairs-baseline
  route      --release F --from A --to B
             print the released route between two intersections
             (route-capable releases only)
  distance   --release F --from A --to B
             print the released travel-time estimate from any stored
             release kind
  inspect    --release F
             print a stored release's kind, privacy metadata, and
             accuracy contract
  serve      (--store D | --store-dir D) --port P [--host H] [--threads N]
             [--no-cache] [--read-only] [--admin-port Q]
             --store D serves a LIVE release store rooted at D: queries
             resolve namespace-qualified refs (NS/r0) against hot-swapped
             snapshots through the read-path cache (--no-cache disables
             it). Admin verbs (publish, update-weights, drop, epoch,
             stats) mutate the store: by default they share the main
             port (operator-local deployments); --admin-port Q moves
             them to 127.0.0.1:Q and makes the main port read-only (the
             public deployment); --read-only disables them entirely
             (so it cannot be combined with --admin-port).
             --store-dir D serves a frozen release set: every *.release
             file in D (sorted by name, ids r0, r1, ...) becomes one
             read-only namespace named `frozen` (refs r0 or frozen/r0;
             no cache, no geo index, no admin verbs, so --no-cache,
             --read-only and --admin-port need --store). --port 0
             picks an ephemeral port (printed as `listening on
             HOST:PORT`); a client sending the `shutdown` line stops
             the server gracefully. --metrics
             prints the final telemetry exposition (Prometheus text)
             after shutdown
  query      --connect HOST:PORT [--op OP] [--release REF]
             [--from A --to B] [--pairs A:B,A:B,...] [--gamma G]
             [--namespace NS]
             query a running server; OP is one of distance (default),
             route, batch, geo-distance, geo-route, geo-batch, accuracy,
             list, budget, metrics, trace, shutdown; metrics dumps the
             server's telemetry exposition; trace (admin endpoints only)
             prints the newest --limit N request traces with per-phase
             timings; REF is a release ref (`r0`, or `NS/r0`;
             `frozen/r0` on a --store-dir server); --namespace scopes
             list/budget; --gamma on distance/batch/
             geo-distance/geo-batch attaches the release's ±error bound
             at that confidence, and is the evaluation point for
             accuracy. The geo-* ops take lat/lon coordinates instead of
             vertex ids — --from/--to as LAT,LON and --pairs as
             LAT,LON:LAT,LON[;...] — and answer against the namespace's
             spatial index (live geo namespaces only)
  store      <init|publish|update|drop|epoch|stats> ...
             manage a live release store. `init` works on a local store
             directory (--dir); the others take either --dir (offline)
             or --connect HOST:PORT (admin verbs against a live server):
               store init    --dir D --namespace NS
                             (--topo F --weights F |
                              --from-gr F.gr --coords F.co)
                             [--budget-eps E] [--budget-delta D]
                             [--continual --horizon T]
                             --from-gr ingests a DIMACS road network
                             (arcs + weights) with its --coords lat/lon
                             file, builds the namespace's quad-tree
                             spatial index once, and persists it next to
                             the manifest — enabling the geo-* query
                             verbs on this namespace
                             --continual streams weight updates through a
                             binary-tree composer under a zCDP allowance
                             (budget with delta > 0 required): T updates
                             cost polylog(T) budget instead of T debits
               store publish (--dir D | --connect A) --namespace NS
                             --mechanism M --eps E [--delta D] [--gamma G]
                             [--max-weight W]
               store update  (--dir D | --connect A) --namespace NS
                             (--weights F | --set E:W[,E:W...])
                             re-releases every live release against the
                             new weights under a fresh budget debit
               store drop    (--dir D | --connect A) --namespace NS
                             [--release R]      (no R: drop the namespace)
               store epoch   (--dir D | --connect A) --namespace NS
               store stats   (--dir D | --connect A) [--namespace NS]
";

/// Parses `--flag value` pairs, rejecting unknown and duplicated flags.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (expected one of: {})",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("duplicate flag --{key}"));
        }
        i += 2;
    }
    Ok(flags)
}

/// Removes every occurrence of a valueless switch from the args,
/// reporting whether it was present.
fn extract_switch(args: &[String], switch: &str) -> (Vec<String>, bool) {
    let mut present = false;
    let rest = args
        .iter()
        .filter(|a| {
            if a.as_str() == switch {
                present = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, present)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn parse<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {what}: {value:?}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "gen-demo" => gen_demo(&parse_flags(
            rest,
            &["nodes", "out-prefix", "seed", "shape"],
        )?),
        "calibrate" => calibrate(&parse_flags(
            rest,
            &[
                "topo",
                "mechanism",
                "target-alpha",
                "gamma",
                "delta",
                "max-weight",
            ],
        )?),
        "release" => release(&parse_flags(
            rest,
            &[
                "topo",
                "weights",
                "mechanism",
                "eps",
                "gamma",
                "delta",
                "max-weight",
                "budget-eps",
                "budget-delta",
                "seed",
                "threads",
                "out",
            ],
        )?),
        "route" => query(&parse_flags(rest, &["release", "from", "to"])?, true),
        "distance" => query(&parse_flags(rest, &["release", "from", "to"])?, false),
        "inspect" => inspect(&parse_flags(rest, &["release"])?),
        "serve" => {
            // `--no-cache`/`--read-only`/`--metrics` are switches (no
            // value); split them off before the `--flag value` parser
            // sees the list.
            let (rest, no_cache) = extract_switch(rest, "--no-cache");
            let (rest, read_only) = extract_switch(&rest, "--read-only");
            let (rest, metrics) = extract_switch(&rest, "--metrics");
            let result = serve(
                &parse_flags(
                    &rest,
                    &[
                        "store",
                        "store-dir",
                        "port",
                        "host",
                        "threads",
                        "admin-port",
                    ],
                )?,
                no_cache,
                read_only,
            );
            // Snapshot-on-shutdown: dump the full exposition once the
            // server has wound down, so a scripted run keeps its final
            // telemetry even without a live `metrics` scrape.
            if metrics && result.is_ok() {
                println!("{}", privpath_obs::MetricRegistry::global().render());
            }
            result
        }
        "query" => remote_query(&parse_flags(
            rest,
            &[
                "connect",
                "op",
                "release",
                "from",
                "to",
                "pairs",
                "gamma",
                "namespace",
                "limit",
            ],
        )?),
        "store" => store_cmd(rest),
        "geo" => geo_cmd(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn gen_demo(flags: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = parse(required(flags, "nodes")?, "node count")?;
    let prefix = required(flags, "out-prefix")?;
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| parse(s, "seed"))?;
    let shape = flags.get("shape").map_or("geometric", String::as_str);
    if n < 2 {
        return Err("--nodes must be at least 2".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (topo, weights) = match shape {
        "geometric" => {
            let radius = (4.0 / n as f64).sqrt().clamp(0.05, 0.5);
            let geo = random_geometric_graph(n, radius, &mut rng);
            let mut minutes = Vec::with_capacity(geo.topo.num_edges());
            for e in geo.topo.edge_ids() {
                let (u, v) = geo.topo.endpoints(e);
                minutes.push(100.0 * geo.euclid(u, v) + rng.gen::<f64>() * 8.0);
            }
            let weights = EdgeWeights::new(minutes).map_err(|e| e.to_string())?;
            (geo.topo, weights)
        }
        "tree" => {
            let topo = random_tree_prufer(n, &mut rng);
            let weights = uniform_weights(topo.num_edges(), 1.0, 9.0, &mut rng);
            (topo, weights)
        }
        other => return Err(format!("invalid --shape {other:?} (geometric or tree)")),
    };

    let topo_path = format!("{prefix}.topo");
    let weights_path = format!("{prefix}.weights");
    let mut tf = BufWriter::new(File::create(&topo_path).map_err(|e| e.to_string())?);
    write_topology(&mut tf, &topo).map_err(|e| e.to_string())?;
    let mut wf = BufWriter::new(File::create(&weights_path).map_err(|e| e.to_string())?);
    write_weights(&mut wf, &weights).map_err(|e| e.to_string())?;
    println!(
        "wrote {topo_path} ({} nodes, {} roads) and {weights_path}",
        topo.num_nodes(),
        topo.num_edges()
    );
    Ok(())
}

/// Parses a `--mechanism` name, admitting only the kinds `keep` accepts.
fn parse_kind(name: &str, keep: fn(&ReleaseKind) -> bool) -> Result<ReleaseKind, String> {
    ReleaseKind::parse(name).filter(keep).ok_or_else(|| {
        let names: Vec<&str> = ReleaseKind::ALL
            .iter()
            .filter(|k| keep(k))
            .map(ReleaseKind::as_str)
            .collect();
        format!(
            "unknown mechanism {name:?} (expected one of: {})",
            names.join(", ")
        )
    })
}

/// Reads the flags of `knobs` into [`Knobs`] at `eps`. A flag given must
/// be taken by at least one of `kinds`; [`ReleaseKind::dispatch`] then
/// applies it to exactly the kinds that take it.
fn knob_flags(
    flags: &HashMap<String, String>,
    kinds: &[ReleaseKind],
    knobs: &[Knob],
    eps: Epsilon,
) -> Result<Knobs, String> {
    let mut out = Knobs::new(eps);
    for &knob in knobs {
        let Some(raw) = flags.get(knob.as_str()) else {
            continue;
        };
        if !kinds.iter().any(|k| k.takes(knob)) {
            return Err(format!(
                "--{knob} applies to none of the listed mechanisms (only to {})",
                knob.kinds()
            ));
        }
        let value: f64 = parse(raw, knob.as_str())?;
        match knob {
            Knob::Delta => out.delta = Delta::new(value).map_err(|e| e.to_string())?,
            Knob::Gamma => out.gamma = value,
            Knob::MaxWeight => out.max_weight = Some(value),
        }
    }
    Ok(out)
}

/// Phrases a [`ReleaseKind::dispatch`] failure in CLI flag terms.
fn dispatch_error(e: EngineError) -> String {
    match e {
        EngineError::MissingKnob { mechanism, knob } => {
            format!("--mechanism {mechanism} needs --{knob}")
        }
        other => other.to_string(),
    }
}

/// Solves one mechanism's accuracy theorem backwards: the smallest
/// epsilon meeting the target, plus the contract it buys.
struct Calibrate<'a> {
    topo: &'a Topology,
    target: &'a ErrorTarget,
}

impl MechanismVisitor for Calibrate<'_> {
    type Output = Result<(f64, ErrorBound), String>;

    fn visit<M: Mechanism>(self, mechanism: &M, template: &M::Params) -> Self::Output
    where
        AnyRelease: From<M::Release>,
    {
        let Calibrate { topo, target } = self;
        let eps = mechanism.calibrate(topo, template, target).ok_or_else(|| {
            format!(
                "cannot calibrate `{}` to error <= {} at gamma {} (target below the \
                 bound's floor?)",
                mechanism.name(),
                target.alpha(),
                target.gamma()
            )
        })?;
        let params = mechanism.with_eps(template, eps);
        let bound = mechanism
            .error_bound(topo, &params, target.gamma())
            .ok_or_else(|| format!("`{}` declares no accuracy contract", mechanism.name()))?;
        Ok((eps.value(), bound))
    }
}

/// Runs one mechanism through the engine's budget-checked write path.
struct Release<'a, R> {
    engine: &'a mut ReleaseEngine,
    rng: &'a mut R,
}

impl<R: Rng> MechanismVisitor for Release<'_, R> {
    type Output = Result<ReleaseId, String>;

    fn visit<M: Mechanism>(self, mechanism: &M, params: &M::Params) -> Self::Output
    where
        AnyRelease: From<M::Release>,
    {
        self.engine
            .release(mechanism, params, self.rng)
            .map_err(|e| e.to_string())
    }
}

fn calibrate(flags: &HashMap<String, String>) -> Result<(), String> {
    let topo_file = File::open(required(flags, "topo")?).map_err(|e| e.to_string())?;
    let topo = read_topology(BufReader::new(topo_file)).map_err(|e| e.to_string())?;
    let alpha: f64 = parse(required(flags, "target-alpha")?, "target alpha")?;
    let gamma: f64 = flags
        .get("gamma")
        .map_or(Ok(DEFAULT_GAMMA), |s| parse(s, "gamma"))?;
    let target = ErrorTarget::new(alpha, gamma).map_err(|e| e.to_string())?;
    let name = flags
        .get("mechanism")
        .map_or("shortest-path", String::as_str);
    let kind = parse_kind(name, |_| true)?;
    // The template epsilon is a placeholder: calibration solves for it.
    // `--gamma` is the target confidence for every kind (and the
    // shortest-path shift confidence); the other knobs come from flags.
    let unit = Epsilon::new(1.0).expect("valid constant");
    let knobs = Knobs {
        gamma,
        ..knob_flags(flags, &[kind], &[Knob::Delta, Knob::MaxWeight], unit)?
    };
    let (eps, bound) = kind
        .dispatch(
            &knobs,
            Calibrate {
                topo: &topo,
                target: &target,
            },
        )
        .map_err(dispatch_error)??;

    // First line is machine-readable (the serve-smoke CI step feeds it
    // back into `privpath release --eps`); details follow.
    println!("calibrated eps {eps}");
    println!("mechanism {name}");
    println!(
        "contract {}: error <= {} with probability {} (gamma {})",
        bound.theorem(),
        bound.alpha(),
        1.0 - bound.gamma(),
        bound.gamma()
    );
    Ok(())
}

fn release(flags: &HashMap<String, String>) -> Result<(), String> {
    let topo_file = File::open(required(flags, "topo")?).map_err(|e| e.to_string())?;
    let topo = read_topology(BufReader::new(topo_file)).map_err(|e| e.to_string())?;
    let weights_file = File::open(required(flags, "weights")?).map_err(|e| e.to_string())?;
    let weights = read_weights(BufReader::new(weights_file)).map_err(|e| e.to_string())?;

    let eps_v: f64 = parse(required(flags, "eps")?, "epsilon")?;
    let seed: u64 = flags.get("seed").map_or(Ok(42), |s| parse(s, "seed"))?;
    if let Some(t) = flags.get("threads") {
        let threads: usize = parse(t, "threads")?;
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        // Release construction fans its per-source Dijkstras over this many
        // worker threads; outputs are bit-for-bit identical for any value,
        // so the knob trades wall-clock for cores without touching the
        // released bytes.
        privpath::graph::algo::set_default_search_threads(threads);
    }
    let out = required(flags, "out")?;
    let mechanism_list = flags
        .get("mechanism")
        .map_or("shortest-path", String::as_str);
    let names: Vec<&str> = mechanism_list.split(',').map(str::trim).collect();
    if names.is_empty() || names.iter().any(|n| n.is_empty()) {
        return Err("--mechanism needs a comma-separated list of names".into());
    }
    let kinds = names
        .iter()
        .map(|name| parse_kind(name, |k| k.is_storable()))
        .collect::<Result<Vec<_>, _>>()?;
    // Each mechanism writes to a name-derived output path, so a repeat
    // would overwrite its own earlier release while double-spending.
    for (i, kind) in kinds.iter().enumerate() {
        if kinds[..i].contains(kind) {
            return Err(format!(
                "duplicate mechanism {:?} in --mechanism",
                kind.as_str()
            ));
        }
    }
    let eps = Epsilon::new(eps_v).map_err(|e| e.to_string())?;
    let knobs = knob_flags(flags, &kinds, &Knob::ALL, eps)?;

    let mut engine = match flags.get("budget-eps") {
        Some(be) => {
            let be = Epsilon::new(parse(be, "budget epsilon")?).map_err(|e| e.to_string())?;
            let bd: f64 = flags
                .get("budget-delta")
                .map_or(Ok(0.0), |s| parse(s, "budget delta"))?;
            let bd = Delta::new(bd).map_err(|e| e.to_string())?;
            ReleaseEngine::with_budget(topo.clone(), weights, be, bd)
        }
        None => {
            if flags.contains_key("budget-delta") {
                return Err("--budget-delta needs --budget-eps (no budget is \
                            enforced without an epsilon cap)"
                    .into());
            }
            ReleaseEngine::new(topo.clone(), weights)
        }
    }
    .map_err(|e| e.to_string())?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut saved: Vec<(ReleaseId, String)> = Vec::new();
    for kind in &kinds {
        let id = kind
            .dispatch(
                &knobs,
                Release {
                    engine: &mut engine,
                    rng: &mut rng,
                },
            )
            .map_err(dispatch_error)??;

        let path = if kinds.len() == 1 {
            out.to_string()
        } else {
            format!("{out}.{kind}.release")
        };
        let mut f = BufWriter::new(File::create(&path).map_err(|e| e.to_string())?);
        engine.save(id, &mut f).map_err(|e| e.to_string())?;
        saved.push((id, path));
    }

    for (id, path) in &saved {
        let record = engine.get(*id).expect("saved release is registered");
        println!(
            "released eps = {} {} table over {} roads to {path}",
            record.eps(),
            record.kind(),
            topo.num_edges(),
        );
        if let Some(b) = record.error_bound(DEFAULT_GAMMA) {
            println!(
                "  contract {}: error <= {} with probability {}",
                b.theorem(),
                b.alpha(),
                1.0 - b.gamma()
            );
        }
    }
    let (se, sd) = engine.spent();
    match engine.remaining() {
        Some((re, rd)) => println!(
            "privacy ledger: spent (eps {se}, delta {sd}); remaining (eps {re}, delta {rd})"
        ),
        None => println!("privacy ledger: spent (eps {se}, delta {sd}); no budget cap"),
    }
    Ok(())
}

fn load_stored(flags: &HashMap<String, String>) -> Result<StoredRelease, String> {
    let file = File::open(required(flags, "release")?).map_err(|e| e.to_string())?;
    read_release(BufReader::new(file), None).map_err(|e| e.to_string())
}

fn query(flags: &HashMap<String, String>, want_route: bool) -> Result<(), String> {
    let stored = load_stored(flags)?;
    let from: usize = parse(required(flags, "from")?, "source id")?;
    let to: usize = parse(required(flags, "to")?, "target id")?;
    let (s, t) = (NodeId::new(from), NodeId::new(to));
    let oracle = stored.release.as_distance().ok_or_else(|| {
        format!(
            "release kind `{}` has no query surface",
            stored.release.kind()
        )
    })?;
    if want_route {
        let path = oracle
            .path(s, t)
            .ok_or_else(|| {
                format!(
                    "release kind `{}` does not carry routes",
                    stored.release.kind()
                )
            })?
            .map_err(|e| e.to_string())?;
        let stops: Vec<String> = path.nodes().iter().map(|n| n.index().to_string()).collect();
        println!(
            "route {from} -> {to} ({} hops): {}",
            path.hops(),
            stops.join(" -> ")
        );
    } else {
        let d = oracle.distance(s, t).map_err(|e| e.to_string())?;
        println!(
            "estimated travel time {from} -> {to}: {d:.2} ({} release, eps = {})",
            stored.release.kind(),
            stored.eps
        );
        if let Some(b) = stored
            .accuracy
            .as_ref()
            .and_then(|c| c.evaluate(DEFAULT_GAMMA))
        {
            println!(
                "error bound: ±{:.2} with probability {} ({})",
                b.alpha(),
                1.0 - b.gamma(),
                b.theorem()
            );
        }
    }
    Ok(())
}

fn inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let stored = load_stored(flags)?;
    println!("kind: {}", stored.release.kind());
    println!("label: {}", stored.label);
    println!("eps: {}", stored.eps);
    println!("delta: {}", stored.delta);
    match stored.release.as_distance() {
        Some(oracle) => println!("vertices: {}", oracle.num_nodes()),
        None => println!("vertices: (no distance surface)"),
    }
    match stored
        .accuracy
        .as_ref()
        .and_then(|c| c.evaluate(DEFAULT_GAMMA))
    {
        Some(b) => println!(
            "accuracy: {} alpha {} gamma {}",
            b.theorem(),
            b.alpha(),
            b.gamma()
        ),
        None => println!("accuracy: none"),
    }
    Ok(())
}

fn serve(flags: &HashMap<String, String>, no_cache: bool, read_only: bool) -> Result<(), String> {
    let port: u16 = parse(required(flags, "port")?, "port")?;
    let host = flags.get("host").map_or("127.0.0.1", String::as_str);
    let threads: usize = flags
        .get("threads")
        .map_or(Ok(4), |s| parse(s, "threads"))?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    // The same knob sizes both the HTTP worker pool and the search fan-out
    // used by batch queries and update-weights re-releases.
    privpath::graph::algo::set_default_search_threads(threads);
    let admin_port: Option<u16> = flags
        .get("admin-port")
        .map(|s| parse(s, "admin port"))
        .transpose()?;

    // Each mode rejects the flags it cannot honour before anything opens
    // or binds.
    let (handler, admin) = match (flags.get("store"), flags.get("store-dir")) {
        (Some(_), Some(_)) => {
            return Err("--store (live) and --store-dir (frozen) are mutually exclusive".into())
        }
        (Some(dir), None) => {
            if read_only && admin_port.is_some() {
                return Err(
                    "--read-only disables the admin verbs entirely; drop --admin-port".into(),
                );
            }
            live_handler(dir, no_cache, read_only, admin_port)?
        }
        (None, Some(dir)) => {
            if no_cache || read_only || admin_port.is_some() {
                return Err(
                    "--store-dir serves a fixed release set read-only with no cache \
                     and nothing to administer: --no-cache, --read-only and \
                     --admin-port need --store"
                        .into(),
                );
            }
            (frozen_handler(dir)?, None)
        }
        (None, None) => return Err("serve needs --store (live) or --store-dir (frozen)".into()),
    };
    let server = Server::bind((host, port), handler)
        .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?
        .with_threads(threads);
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    // The smoke tests parse the line above from a pipe; make sure it is
    // visible before the first connection arrives.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let stats = server.run().map_err(|e| e.to_string())?;
    if let Some(admin) = admin {
        let _ = admin.shutdown();
    }
    println!(
        "shut down after {} connections, {} requests ({} connection errors)",
        stats.connections, stats.requests, stats.connection_errors
    );
    Ok(())
}

/// Loads every `*.release` file in `dir` (sorted by name, ids `r0, r1,
/// ...`; no private weights in the process) as one frozen, read-only
/// namespace, named `frozen`.
fn frozen_handler(dir: &str) -> Result<StoreHandler, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read --store-dir {dir:?}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "release"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.release files in --store-dir {dir:?}"));
    }
    let mut stored = Vec::with_capacity(paths.len());
    for path in &paths {
        let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        stored.push(
            read_release(BufReader::new(file), None)
                .map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }

    let service = QueryService::from_stored(stored);
    for (record, path) in service.releases().zip(&paths) {
        println!(
            "{}: {} (eps {}, delta {}) from {}",
            record.id(),
            record.kind(),
            record.eps(),
            record.delta(),
            path.display()
        );
    }
    Ok(StoreHandler::frozen(NamespaceSnapshot::frozen(service)))
}

/// Opens a live [`ReleaseStore`]: query verbs resolve namespaces against
/// hot-swapped snapshots; admin verbs mutate the store — on the main
/// port by default, or on a separate loopback-only admin server (returned
/// running) with `--admin-port`, the main port then serving read-only,
/// or nowhere with `--read-only`.
fn live_handler(
    dir: &str,
    no_cache: bool,
    read_only: bool,
    admin_port: Option<u16>,
) -> Result<(StoreHandler, Option<RunningServer>), String> {
    let store = Arc::new(
        ReleaseStore::open(dir)
            .map_err(|e| e.to_string())?
            .with_cache(!no_cache),
    );
    for s in store.stats() {
        println!(
            "namespace {}: epoch {}, {} releases (eps {} spent)",
            s.namespace, s.epoch, s.releases, s.spent_eps
        );
    }
    println!(
        "live store at {dir} ({} namespaces, cache {})",
        store.len(),
        if no_cache { "off" } else { "on" }
    );

    // A dedicated admin endpoint stays on loopback; the public port then
    // serves read-only, so the unauthenticated admin verbs never face
    // the open network.
    let Some(p) = admin_port else {
        let handler = if read_only {
            StoreHandler::read_only(store)
        } else {
            StoreHandler::new(store)
        };
        return Ok((handler, None));
    };
    let admin = Server::bind(("127.0.0.1", p), StoreHandler::new(Arc::clone(&store)))
        .map_err(|e| format!("cannot bind admin 127.0.0.1:{p}: {e}"))?
        .with_threads(1)
        .spawn()
        .map_err(|e| e.to_string())?;
    println!("admin listening on {}", admin.addr());
    Ok((StoreHandler::read_only(store), Some(admin)))
}

/// Parses `--release` through [`ReleaseRef`]'s `FromStr` (`r3`, `3`, or
/// `namespace/r3`).
fn release_ref(flags: &HashMap<String, String>) -> Result<ReleaseRef, String> {
    required(flags, "release")?
        .parse()
        .map_err(|e: privpath::serve::ParseLineError| e.to_string())
}

/// Parses a `LAT,LON` coordinate for the geo query ops. Non-finite
/// components are refused here, mirroring the wire grammar.
fn parse_coord(spec: &str, what: &str) -> Result<(f64, f64), String> {
    let (lat, lon) = spec
        .split_once(',')
        .ok_or_else(|| format!("invalid {what} coordinate {spec:?} (expected LAT,LON)"))?;
    let lat: f64 = parse(lat.trim(), "latitude")?;
    let lon: f64 = parse(lon.trim(), "longitude")?;
    if !lat.is_finite() || !lon.is_finite() {
        return Err(format!("non-finite {what} coordinate {spec:?}"));
    }
    Ok((lat, lon))
}

fn remote_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = required(flags, "connect")?;
    let op = flags.get("op").map_or("distance", String::as_str);
    let gamma = flags
        .get("gamma")
        .map(|s| parse::<f64>(s, "gamma"))
        .transpose()?;
    let namespace = flags.get("namespace").cloned();

    // Validate the request fully before dialing the server.
    let request = match op {
        "distance" => QueryRequest::Distance {
            release: release_ref(flags)?,
            from: NodeId::new(parse(required(flags, "from")?, "source id")?),
            to: NodeId::new(parse(required(flags, "to")?, "target id")?),
            gamma,
        },
        "route" => QueryRequest::Path {
            release: release_ref(flags)?,
            from: NodeId::new(parse(required(flags, "from")?, "source id")?),
            to: NodeId::new(parse(required(flags, "to")?, "target id")?),
        },
        "batch" => {
            let spec = required(flags, "pairs")?;
            let mut pairs = Vec::new();
            for tok in spec.split(',') {
                let (u, v) = tok
                    .split_once(':')
                    .ok_or_else(|| format!("invalid pair {tok:?} (expected FROM:TO)"))?;
                pairs.push((
                    NodeId::new(parse(u, "source id")?),
                    NodeId::new(parse(v, "target id")?),
                ));
            }
            QueryRequest::DistanceBatch {
                release: release_ref(flags)?,
                pairs,
                gamma,
            }
        }
        "geo-distance" => QueryRequest::GeoDistance {
            release: release_ref(flags)?,
            from: parse_coord(required(flags, "from")?, "--from")?,
            to: parse_coord(required(flags, "to")?, "--to")?,
            gamma,
        },
        "geo-route" => QueryRequest::GeoRoute {
            release: release_ref(flags)?,
            from: parse_coord(required(flags, "from")?, "--from")?,
            to: parse_coord(required(flags, "to")?, "--to")?,
        },
        "geo-batch" => {
            let spec = required(flags, "pairs")?;
            let mut pairs = Vec::new();
            for tok in spec.split(';') {
                let (from, to) = tok.split_once(':').ok_or_else(|| {
                    format!("invalid geo pair {tok:?} (expected LAT,LON:LAT,LON)")
                })?;
                pairs.push((parse_coord(from, "--pairs")?, parse_coord(to, "--pairs")?));
            }
            QueryRequest::GeoBatch {
                release: release_ref(flags)?,
                pairs,
                gamma,
            }
        }
        "accuracy" => QueryRequest::Accuracy {
            release: release_ref(flags)?,
            gamma: gamma.unwrap_or(DEFAULT_GAMMA),
        },
        "list" => QueryRequest::ListReleases { namespace },
        "budget" => QueryRequest::BudgetStatus { namespace },
        "metrics" => QueryRequest::Metrics,
        "trace" => {
            let limit: usize = flags
                .get("limit")
                .map_or(Ok(16), |s| parse(s, "trace limit"))?;
            match wire_admin(addr, &AdminRequest::Trace { limit })? {
                AdminResponse::Traces(entries) => {
                    if entries.is_empty() {
                        println!("no traces recorded");
                    }
                    for t in entries {
                        let phases: Vec<String> = t
                            .phases
                            .iter()
                            .map(|(name, us)| format!("{name}={us}us"))
                            .collect();
                        println!("{} {}us [{}]", t.op, t.total_us, phases.join(" "));
                    }
                }
                other => return Err(format!("unexpected response: {other}")),
            }
            return Ok(());
        }
        "shutdown" => {
            let mut client =
                Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server acknowledged shutdown");
            return Ok(());
        }
        other => {
            return Err(format!(
                "invalid --op {other:?} (expected distance, route, batch, geo-distance, \
                 geo-route, geo-batch, accuracy, list, budget, metrics, trace, or \
                 shutdown)"
            ))
        }
    };

    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let response = client.request(&request).map_err(|e| e.to_string())?;
    match (&request, response) {
        (
            QueryRequest::Distance {
                release, from, to, ..
            },
            QueryResponse::Distance { value, bound },
        ) => {
            match bound {
                Some(b) => println!(
                    "estimated travel time {} -> {}: {value:.2} ±{b:.2} (release {release})",
                    from.index(),
                    to.index()
                ),
                None => println!(
                    "estimated travel time {} -> {}: {value:.2} (release {release})",
                    from.index(),
                    to.index()
                ),
            };
        }
        (QueryRequest::Path { from, to, .. }, QueryResponse::Path(nodes)) => {
            let stops: Vec<String> = nodes.iter().map(|n| n.index().to_string()).collect();
            println!(
                "route {} -> {} ({} hops): {}",
                from.index(),
                to.index(),
                nodes.len().saturating_sub(1),
                stops.join(" -> ")
            );
        }
        (QueryRequest::DistanceBatch { pairs, .. }, QueryResponse::Distances { values, bound }) => {
            for ((u, v), d) in pairs.iter().zip(values) {
                println!("{} -> {}: {d:.2}", u.index(), v.index());
            }
            if let Some(b) = bound {
                println!("error bound: ±{b:.2} for every pair");
            }
        }
        (
            QueryRequest::GeoDistance { release, .. },
            QueryResponse::GeoDistance {
                from,
                to,
                value,
                bound,
            },
        ) => {
            let tail = bound.map_or(String::new(), |b| format!(" ±{b:.2}"));
            println!(
                "estimated travel time (snapped to nodes {} -> {}): {value:.2}{tail} \
                 (release {release})",
                from.index(),
                to.index()
            );
        }
        (QueryRequest::GeoRoute { release, .. }, QueryResponse::GeoRoute { from, to, nodes }) => {
            let stops: Vec<String> = nodes.iter().map(|n| n.index().to_string()).collect();
            println!(
                "route (snapped to nodes {} -> {}, {} hops, release {release}): {}",
                from.index(),
                to.index(),
                nodes.len().saturating_sub(1),
                stops.join(" -> ")
            );
        }
        (QueryRequest::GeoBatch { .. }, QueryResponse::GeoDistances { triples, bound }) => {
            for (u, v, d) in triples {
                println!("{} -> {}: {d:.2}", u.index(), v.index());
            }
            if let Some(b) = bound {
                println!("error bound: ±{b:.2} for every pair");
            }
        }
        (QueryRequest::Accuracy { release, .. }, QueryResponse::Accuracy(b)) => {
            println!(
                "release {release} accuracy {}: error <= {} with probability {} (gamma {})",
                b.theorem(),
                b.alpha(),
                1.0 - b.gamma(),
                b.gamma()
            );
        }
        (QueryRequest::ListReleases { .. }, QueryResponse::Releases(rs)) => {
            for r in rs {
                let nodes = r.num_nodes.map_or("-".to_string(), |n| n.to_string());
                let accuracy = r.accuracy.as_ref().map_or("-".to_string(), |b| {
                    format!("{}:{}", b.theorem(), b.alpha())
                });
                println!(
                    "{} {} eps={} delta={} vertices={nodes} accuracy={accuracy}",
                    r.id, r.kind, r.eps, r.delta
                );
            }
        }
        (
            QueryRequest::BudgetStatus { .. },
            QueryResponse::Budget {
                spent_eps,
                spent_delta,
                remaining,
            },
        ) => match remaining {
            Some((re, rd)) => println!(
                "privacy ledger: spent (eps {spent_eps}, delta {spent_delta}); \
                 remaining (eps {re}, delta {rd})"
            ),
            None => println!(
                "privacy ledger: spent (eps {spent_eps}, delta {spent_delta}); no budget cap"
            ),
        },
        (QueryRequest::Metrics, QueryResponse::Metrics { lines }) => {
            for line in lines {
                println!("{line}");
            }
        }
        (_, QueryResponse::Error { code, message }) => {
            return Err(format!("server error [{code}]: {message}"));
        }
        (_, other) => {
            return Err(format!("unexpected response: {other}"));
        }
    }
    Ok(())
}

/// Builds a [`ReleaseSpec`] from `--mechanism/--eps/--delta/--gamma/
/// --max-weight` flags (shared by the offline and wire publish paths).
fn build_spec(flags: &HashMap<String, String>) -> Result<ReleaseSpec, String> {
    let name = required(flags, "mechanism")?;
    let kind = ReleaseKind::parse(name).ok_or_else(|| format!("unknown mechanism {name:?}"))?;
    let eps =
        Epsilon::new(parse(required(flags, "eps")?, "epsilon")?).map_err(|e| e.to_string())?;
    let mut spec = ReleaseSpec::new(kind, eps).map_err(|e| e.to_string())?;
    if let Some(d) = flags.get("delta") {
        let delta = Delta::new(parse(d, "delta")?).map_err(|e| e.to_string())?;
        spec = spec.with_delta(delta).map_err(|e| e.to_string())?;
    }
    if let Some(g) = flags.get("gamma") {
        spec = spec
            .with_gamma(parse(g, "gamma")?)
            .map_err(|e| e.to_string())?;
    }
    if let Some(m) = flags.get("max-weight") {
        spec = spec
            .with_max_weight(parse(m, "max weight")?)
            .map_err(|e| e.to_string())?;
    }
    Ok(spec)
}

/// Prints one stats entry (shared by the offline and wire paths).
fn print_stats(s: &privpath::store::NamespaceStats) {
    let remaining = match s.remaining {
        Some((e, d)) => format!("remaining (eps {e}, delta {d})"),
        None => "unbounded".to_string(),
    };
    let mode = match &s.continual {
        None => String::new(),
        Some(c) => format!(
            " continual {}/{} updates rho {:.6}/{:.6}",
            c.position, c.horizon, c.rho_spent, c.rho_total
        ),
    };
    println!(
        "{} epoch {} releases {} spent (eps {}, delta {}) {remaining} cache {} hits / {} misses{mode}",
        s.namespace, s.epoch, s.releases, s.spent_eps, s.spent_delta, s.cache_hits, s.cache_misses
    );
}

/// Either side of a store subcommand: a local store directory or a live
/// server address.
enum StoreTarget {
    Dir(String),
    Wire(String),
}

fn store_target(flags: &HashMap<String, String>) -> Result<StoreTarget, String> {
    match (flags.get("dir"), flags.get("connect")) {
        (Some(d), None) => Ok(StoreTarget::Dir(d.clone())),
        (None, Some(a)) => Ok(StoreTarget::Wire(a.clone())),
        _ => Err("need exactly one of --dir (offline) or --connect (live server)".into()),
    }
}

/// Sends one admin request and renders the typed response (errors become
/// CLI failures).
fn wire_admin(addr: &str, request: &AdminRequest) -> Result<AdminResponse, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    match client.admin(request).map_err(|e| e.to_string())? {
        AdminResponse::Error { code, message } => Err(format!("server error [{code}]: {message}")),
        ok => Ok(ok),
    }
}

fn store_cmd(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("store needs a subcommand: init, publish, update, drop, epoch, stats".into());
    };
    match sub.as_str() {
        "init" => {
            let (rest, continual) = extract_switch(rest, "--continual");
            let flags = parse_flags(
                &rest,
                &[
                    "dir",
                    "namespace",
                    "topo",
                    "weights",
                    "from-gr",
                    "coords",
                    "budget-eps",
                    "budget-delta",
                    "horizon",
                ],
            )?;
            if flags.contains_key("horizon") && !continual {
                return Err("--horizon needs --continual".into());
            }
            let dir = required(&flags, "dir")?;
            let ns = required(&flags, "namespace")?;
            // Two ingestion forms: the native --topo/--weights pair, or a
            // DIMACS --from-gr/--coords pair that additionally builds the
            // namespace's spatial index.
            let geo_input = match (flags.get("from-gr"), flags.get("coords")) {
                (Some(gr), Some(co)) => {
                    if flags.contains_key("topo") || flags.contains_key("weights") {
                        return Err(
                            "--from-gr/--coords and --topo/--weights are mutually exclusive".into(),
                        );
                    }
                    if continual {
                        return Err(
                            "--continual does not support geo namespaces yet (use --topo/--weights)"
                                .into(),
                        );
                    }
                    Some((gr.clone(), co.clone()))
                }
                (None, None) => None,
                _ => return Err("--from-gr and --coords must be given together".into()),
            };
            let (topo, weights, coords) = match &geo_input {
                Some((gr, co)) => {
                    let gr = read_gr_path(std::path::Path::new(gr)).map_err(|e| e.to_string())?;
                    let coords =
                        read_co_path(std::path::Path::new(co), Some(gr.topology.num_nodes()))
                            .map_err(|e| e.to_string())?;
                    (gr.topology, gr.weights, Some(coords))
                }
                None => {
                    let topo_file =
                        File::open(required(&flags, "topo")?).map_err(|e| e.to_string())?;
                    let topo =
                        read_topology(BufReader::new(topo_file)).map_err(|e| e.to_string())?;
                    let weights_file =
                        File::open(required(&flags, "weights")?).map_err(|e| e.to_string())?;
                    let weights =
                        read_weights(BufReader::new(weights_file)).map_err(|e| e.to_string())?;
                    (topo, weights, None)
                }
            };
            let budget = match flags.get("budget-eps") {
                Some(be) => {
                    let be =
                        Epsilon::new(parse(be, "budget epsilon")?).map_err(|e| e.to_string())?;
                    let bd: f64 = flags
                        .get("budget-delta")
                        .map_or(Ok(0.0), |s| parse(s, "budget delta"))?;
                    Some((be, Delta::new(bd).map_err(|e| e.to_string())?))
                }
                None => {
                    if flags.contains_key("budget-delta") {
                        return Err("--budget-delta needs --budget-eps".into());
                    }
                    None
                }
            };
            let store = ReleaseStore::open(dir).map_err(|e| e.to_string())?;
            let (nodes, edges) = (topo.num_nodes(), topo.num_edges());
            if continual {
                let horizon: u64 = parse(required(&flags, "horizon")?, "horizon")?;
                let budget = budget.ok_or_else(|| {
                    "--continual needs --budget-eps and --budget-delta (delta > 0)".to_string()
                })?;
                store
                    .create_namespace_continual(ns, topo, weights, budget, horizon)
                    .map_err(|e| e.to_string())?;
                println!(
                    "initialized continual namespace {ns} in {dir} ({nodes} nodes, {edges} roads, \
                     horizon {horizon}, budget (eps {}, delta {}))",
                    budget.0, budget.1
                );
                return Ok(());
            }
            let budget_text = match budget {
                Some((e, d)) => format!("budget (eps {e}, delta {d})"),
                None => "unbounded budget".to_string(),
            };
            match coords {
                Some(coords) => {
                    store
                        .create_namespace_geo(ns, topo, weights, coords, budget)
                        .map_err(|e| e.to_string())?;
                    println!(
                        "initialized geo namespace {ns} in {dir} ({nodes} nodes, {edges} roads, \
                         spatial index persisted, {budget_text})"
                    );
                }
                None => {
                    store
                        .create_namespace(ns, topo, weights, budget)
                        .map_err(|e| e.to_string())?;
                    println!(
                        "initialized namespace {ns} in {dir} ({nodes} nodes, {edges} roads, \
                         {budget_text})"
                    );
                }
            }
            Ok(())
        }
        "publish" => {
            let flags = parse_flags(
                rest,
                &[
                    "dir",
                    "connect",
                    "namespace",
                    "mechanism",
                    "eps",
                    "delta",
                    "gamma",
                    "max-weight",
                ],
            )?;
            let ns = required(&flags, "namespace")?;
            let spec = build_spec(&flags)?;
            match store_target(&flags)? {
                StoreTarget::Dir(dir) => {
                    let store = ReleaseStore::open(&dir).map_err(|e| e.to_string())?;
                    let r = store.publish(ns, &spec).map_err(|e| e.to_string())?;
                    println!(
                        "published {}/{} epoch {} (eps {}, delta {})",
                        r.namespace, r.id, r.epoch, r.eps, r.delta
                    );
                }
                StoreTarget::Wire(addr) => {
                    let resp = wire_admin(
                        &addr,
                        &AdminRequest::Publish {
                            namespace: ns.to_string(),
                            spec,
                        },
                    )?;
                    let AdminResponse::Published {
                        namespace,
                        id,
                        epoch,
                        eps,
                        delta,
                    } = resp
                    else {
                        return Err(format!("unexpected response: {resp}"));
                    };
                    println!("published {namespace}/{id} epoch {epoch} (eps {eps}, delta {delta})");
                }
            }
            Ok(())
        }
        "update" => {
            let flags = parse_flags(rest, &["dir", "connect", "namespace", "weights", "set"])?;
            let ns = required(&flags, "namespace")?;
            // Either a full replacement weight file (length-checked: a
            // short file is an error, never a silent partial update) or
            // sparse E:W pairs applied onto the current weights.
            let (updates, full): (Vec<(usize, f64)>, bool) =
                match (flags.get("weights"), flags.get("set")) {
                    (Some(path), None) => {
                        let f = File::open(path).map_err(|e| e.to_string())?;
                        let w = read_weights(BufReader::new(f)).map_err(|e| e.to_string())?;
                        (w.iter().map(|(e, v)| (e.index(), v)).collect(), true)
                    }
                    (None, Some(spec)) => {
                        let mut updates = Vec::new();
                        for tok in spec.split(',') {
                            let (e, v) = tok.split_once(':').ok_or_else(|| {
                                format!("invalid update {tok:?} (expected EDGE:W)")
                            })?;
                            updates.push((parse(e, "edge id")?, parse(v, "weight")?));
                        }
                        (updates, false)
                    }
                    _ => {
                        return Err("need exactly one of --weights (full) or --set (sparse)".into())
                    }
                };
            match store_target(&flags)? {
                StoreTarget::Dir(dir) => {
                    let store = ReleaseStore::open(&dir).map_err(|e| e.to_string())?;
                    let sparse: Vec<(EdgeId, f64)> =
                        updates.iter().map(|&(e, v)| (EdgeId::new(e), v)).collect();
                    let r = if full {
                        store.update_weights_full(ns, &sparse)
                    } else {
                        store.update_weights_sparse(ns, &sparse)
                    }
                    .map_err(|e| e.to_string())?;
                    println!(
                        "updated {} epoch {} rereleased {} (eps {}, delta {})",
                        r.namespace, r.epoch, r.rereleased, r.eps, r.delta
                    );
                    // Write-path log only: the shift is a function of the
                    // private weights and is never served.
                    println!(
                        "  weights moved by l1 {} over {} edges",
                        r.l1_shift, r.changed_edges
                    );
                }
                StoreTarget::Wire(addr) => {
                    let resp = wire_admin(
                        &addr,
                        &AdminRequest::UpdateWeights {
                            namespace: ns.to_string(),
                            updates,
                            full,
                        },
                    )?;
                    let AdminResponse::Updated {
                        namespace,
                        epoch,
                        rereleased,
                        eps,
                        delta,
                    } = resp
                    else {
                        return Err(format!("unexpected response: {resp}"));
                    };
                    println!(
                        "updated {namespace} epoch {epoch} rereleased {rereleased} \
                         (eps {eps}, delta {delta})"
                    );
                }
            }
            Ok(())
        }
        "drop" => {
            let flags = parse_flags(rest, &["dir", "connect", "namespace", "release"])?;
            let ns = required(&flags, "namespace")?;
            let release: Option<ReleaseId> = flags
                .get("release")
                .map(|s| {
                    s.parse()
                        .map_err(|e: privpath::engine::ParseReleaseIdError| e.to_string())
                })
                .transpose()?;
            match store_target(&flags)? {
                StoreTarget::Dir(dir) => {
                    let store = ReleaseStore::open(&dir).map_err(|e| e.to_string())?;
                    match release {
                        Some(id) => {
                            let epoch = store.drop_release(ns, id).map_err(|e| e.to_string())?;
                            println!("dropped {ns}/{id} epoch {epoch}");
                        }
                        None => {
                            store.drop_namespace(ns).map_err(|e| e.to_string())?;
                            println!("dropped namespace {ns}");
                        }
                    }
                }
                StoreTarget::Wire(addr) => {
                    let resp = wire_admin(
                        &addr,
                        &AdminRequest::Drop {
                            namespace: ns.to_string(),
                            release,
                        },
                    )?;
                    match resp {
                        AdminResponse::Dropped {
                            namespace,
                            release: Some(id),
                            epoch: Some(epoch),
                        } => println!("dropped {namespace}/{id} epoch {epoch}"),
                        AdminResponse::Dropped { namespace, .. } => {
                            println!("dropped namespace {namespace}")
                        }
                        other => return Err(format!("unexpected response: {other}")),
                    }
                }
            }
            Ok(())
        }
        "epoch" => {
            let flags = parse_flags(rest, &["dir", "connect", "namespace"])?;
            let ns = required(&flags, "namespace")?;
            match store_target(&flags)? {
                StoreTarget::Dir(dir) => {
                    let store = ReleaseStore::open(&dir).map_err(|e| e.to_string())?;
                    println!("{ns} epoch {}", store.epoch(ns).map_err(|e| e.to_string())?);
                }
                StoreTarget::Wire(addr) => {
                    let resp = wire_admin(
                        &addr,
                        &AdminRequest::Epoch {
                            namespace: ns.to_string(),
                        },
                    )?;
                    let AdminResponse::Epoch { namespace, epoch } = resp else {
                        return Err(format!("unexpected response: {resp}"));
                    };
                    println!("{namespace} epoch {epoch}");
                }
            }
            Ok(())
        }
        "stats" => {
            let flags = parse_flags(rest, &["dir", "connect", "namespace"])?;
            let namespace = flags.get("namespace").cloned();
            match store_target(&flags)? {
                StoreTarget::Dir(dir) => {
                    let store = ReleaseStore::open(&dir).map_err(|e| e.to_string())?;
                    let entries = match &namespace {
                        Some(ns) => vec![store.stats_for(ns).map_err(|e| e.to_string())?],
                        None => store.stats(),
                    };
                    for s in &entries {
                        print_stats(s);
                    }
                }
                StoreTarget::Wire(addr) => {
                    let resp = wire_admin(&addr, &AdminRequest::Stats { namespace })?;
                    let AdminResponse::Stats(entries) = resp else {
                        return Err(format!("unexpected response: {resp}"));
                    };
                    for s in &entries {
                        print_stats(s);
                    }
                }
            }
            Ok(())
        }
        other => Err(format!(
            "unknown store subcommand {other:?} (expected init, publish, update, drop, \
             epoch, or stats)"
        )),
    }
}

fn geo_cmd(rest: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err("geo needs a subcommand: gen".into());
    };
    match sub.as_str() {
        "gen" => {
            let flags = parse_flags(rest, &["nodes", "out-prefix", "seed"])?;
            let n: usize = parse(required(&flags, "nodes")?, "node count")?;
            let prefix = required(&flags, "out-prefix")?;
            let seed: u64 = flags.get("seed").map_or(Ok(7), |s| parse(s, "seed"))?;
            let network = generate_road_network(n, seed).map_err(|e| e.to_string())?;
            let gr_path = format!("{prefix}.gr");
            let co_path = format!("{prefix}.co");
            let gr = BufWriter::new(File::create(&gr_path).map_err(|e| e.to_string())?);
            write_gr(gr, &network.topology, &network.weights).map_err(|e| e.to_string())?;
            let co = BufWriter::new(File::create(&co_path).map_err(|e| e.to_string())?);
            write_co(co, &network.coords).map_err(|e| e.to_string())?;
            println!(
                "wrote {gr_path} ({} nodes, {} roads) and {co_path} (seed {seed})",
                network.topology.num_nodes(),
                network.topology.num_edges()
            );
            Ok(())
        }
        other => Err(format!("unknown geo subcommand {other:?} (expected gen)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
