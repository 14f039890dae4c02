//! Implementations of the `tpa` subcommands, separated from `main` for
//! testability. Every command takes parsed [`Args`] and a writer for
//! output, and returns a process exit code.

use crate::args::Args;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use tpa_core::{
    AdmissionConfig, DegradationLevel, EngineBackend, FrontierPolicy, IndexStalenessPolicy,
    MaintenanceMode, QueryRequest, QueryResponse, RwrService, ServiceBuilder, ShedPolicy, TpaIndex,
    TpaParams,
};
use tpa_graph::{
    algo, io as gio, reorder, CsrGraph, DynamicGraph, EdgeUpdate, NodeId, ReorderStrategy,
};
use tpa_obs::{parse_prometheus, MetricsRegistry};

/// Runs a subcommand; prints results to `out` and errors to stderr.
pub fn run(args: &Args, out: &mut dyn Write) -> i32 {
    let result = match args.command.as_str() {
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", usage());
            Ok(())
        }
        "generate" => cmd_generate(args, out),
        "stats" => cmd_stats(args, out),
        "preprocess" => cmd_preprocess(args, out),
        "query" => cmd_query(args, out),
        "batch" => cmd_batch(args, out),
        "exact" => cmd_exact(args, out),
        "update" => cmd_update(args, out),
        "convert" => cmd_convert(args, out),
        other => Err(format!("unknown subcommand {other:?}; try `tpa help`")),
    };
    match result {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            1
        }
    }
}

/// CLI usage text.
pub fn usage() -> &'static str {
    "tpa — Two-Phase Approximation for Random Walk with Restart

USAGE: tpa <command> [flags]

COMMANDS:
  generate   --dataset <key> [--scale N] --out <file>
             write a synthetic Table-II analog graph (binary snapshot)
  convert    --in <edges.txt|snapshot> --out <file> [--format edges|snapshot]
             convert between edge-list and snapshot formats
  stats      --graph <file> [--cc-sample N]
             print node/edge counts, degrees, components, reciprocity
  stats      --metrics <dump.prom> [--require fam1,fam2,...]
             validate a saved Prometheus metrics dump (written by
             --metrics-out below): parse it, print a per-family summary,
             and fail unless every --require family is present
  preprocess --graph <file> --s <S> --t <T> --out <index.tpa>
             [--reorder none|degree|rcm|hub|slashburn]
             run TPA's preprocessing phase and save the index; --reorder
             relabels the graph for cache locality first and stores the
             permutation inside the index (queries restore it)
  query      --graph <file> --index <index.tpa> --seed <node>
             [--topk K [--exact-bounds]] [--threads N]
             [--frontier auto|dense|sparse]
             approximate RWR scores for a seed (fast online phase); if
             the index was preprocessed with --reorder, the same
             relabeling is applied transparently
  batch      --graph <file> --seeds <file> [--index <index.tpa>]
             [--topk K] [--threads N]
             [--reorder none|degree|rcm|hub|slashburn]
             [--frontier auto|dense|sparse]
             serve every seed in the file in one batched engine pass
             (seeds are whitespace/newline separated; # comments ok);
             without --index the batch is answered exactly; --reorder
             only applies to the exact (index-less) path — an index
             brings its own ordering
  exact      --graph <file> --seed <node> [--topk K [--exact-bounds]]
             [--threads N] [--reorder none|degree|rcm|hub|slashburn]
             [--frontier auto|dense|sparse]
             exact RWR via power iteration (ground truth)
  update     --graph <file> --stream <file> [--index <index.tpa>]
             [--topk K] [--threads N] [--maintain] [--auto-refresh]
             [--patch-index] [--compact-threshold F] [--stale-threshold F]
             replay an edge-update stream with interleaved queries on a
             dynamic (delta-overlay) graph. Stream lines:
               + u v     insert edge        - u v     delete edge
               ? seed    answer a top-k query at this point
               compact   fold the overlay into a fresh snapshot
             --maintain serves repeat queries from incrementally
             maintained cached scores (OSP offset propagation) instead of
             re-running the full online phase; --patch-index repairs a
             stale index by propagating the accumulated operator delta
             through its stranger vector (O(affected) offset propagation)
             instead of the full re-preprocess --auto-refresh runs

--threads 0 uses all available cores; the default (1) is sequential.
--top is accepted as an alias of --topk.
--exact-bounds (query, exact) runs the top-k cut through the bounded
sweep: per-node lower/upper bounds ride the iteration and stop it as
soon as the k results and their order are provably final, printing the
proof (early termination, iterations saved, nodes pruned). The answer
is always the same set in the same order as the dense cut. Requires an
explicit --topk.
--metrics-out FILE (query, batch, update) attaches a metrics registry to
the serving layer and writes its rendered dump to FILE when the command
finishes: Prometheus text format, or JSON when FILE ends in .json.
--metrics-every N re-writes the dump mid-run — every N seeds on the
batch path, every N update batches on the update path — so a long replay
can be scraped while it runs (requires --metrics-out).
--frontier picks the propagation direction for single-seed plans:
auto (default) runs the sparse-frontier kernel while the seed's
neighborhood is small and switches to the dense kernels once it
saturates; results are bitwise identical under every setting.
--deadline-ms N (query, batch, update) gives every request a hard
budget: expired requests fail with a typed deadline error at the next
CPI iteration boundary instead of running to completion.
--max-inflight N (query, batch, update) puts an admission gate in front
of the serving layer: at most N requests execute concurrently, excess
waits in a bounded queue, overflow is rejected with a typed overload
error. --shed-policy off|reject|degrade (requires --max-inflight) picks
what happens under pressure: off queues until a slot or the deadline,
reject never queues, degrade climbs an explicit precision-shedding
ladder (cache-first, loosened epsilon, dropped top-k proof, reject) —
the applied level is printed in the response metadata, never silent.

Dataset keys: slashdot-s google-s pokec-s livejournal-s wikilink-s
              twitter-s friendster-s"
}

/// Loads a graph from either format (snapshot detected by magic).
fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let p = Path::new(path);
    let head = std::fs::read(p).map_err(|e| format!("{path}: {e}"))?;
    if head.starts_with(b"TPAGRAF1") {
        gio::read_snapshot(std::io::Cursor::new(head)).map_err(|e| format!("{path}: {e}"))
    } else {
        gio::read_edge_list(std::io::Cursor::new(head), None).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let key = args.required("dataset").map_err(|e| e.to_string())?;
    let scale = args.get_or::<usize>("scale", 1).map_err(|e| e.to_string())?;
    let path = args.required("out").map_err(|e| e.to_string())?;
    let spec = tpa_datasets::spec(key).ok_or_else(|| format!("unknown dataset {key}"))?;
    let spec = if scale > 1 { spec.scaled_down(scale) } else { *spec };
    let d = tpa_datasets::generate(&spec);
    gio::write_snapshot_file(&d.graph, path).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "wrote {} ({} nodes, {} edges, S={}, T={})",
        path,
        d.graph.n(),
        d.graph.m(),
        spec.s,
        spec.t
    );
    Ok(())
}

fn cmd_convert(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let input = args.required("in").map_err(|e| e.to_string())?;
    let output = args.required("out").map_err(|e| e.to_string())?;
    let format = args.get("format").unwrap_or("snapshot");
    let g = load_graph(input)?;
    match format {
        "snapshot" => gio::write_snapshot_file(&g, output).map_err(|e| e.to_string())?,
        "edges" => gio::write_edge_list_file(&g, output).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown --format {other}; use edges|snapshot")),
    }
    let _ = writeln!(out, "wrote {output} ({} nodes, {} edges)", g.n(), g.m());
    Ok(())
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    if let Some(path) = args.get("metrics") {
        return cmd_stats_metrics(path, args.get("require"), out);
    }
    let g = load_graph(args.required("graph").map_err(|e| e.to_string())?)?;
    let cc_sample = args.get_or::<usize>("cc-sample", 500).map_err(|e| e.to_string())?;
    let (_, wcc) = algo::weakly_connected_components(&g);
    let (_, scc) = algo::strongly_connected_components(&g);
    let hist = algo::degree_histogram(&g);
    let max_deg = hist.len().saturating_sub(1);
    let gamma = algo::power_law_exponent(&g, 4);
    let _ = writeln!(out, "nodes                {}", g.n());
    let _ = writeln!(out, "edges                {}", g.m());
    let _ = writeln!(out, "avg out-degree       {:.3}", g.avg_degree());
    let _ = writeln!(out, "max out-degree       {max_deg}");
    let _ = writeln!(out, "dangling nodes       {}", g.dangling_nodes().len());
    let _ = writeln!(out, "weakly connected     {wcc}");
    let _ = writeln!(out, "strongly connected   {scc}");
    let _ = writeln!(out, "reciprocity          {:.4}", algo::reciprocity(&g));
    match gamma {
        Some(v) => {
            let _ = writeln!(out, "power-law exponent   {v:.2} (MLE, d>=4)");
        }
        None => {
            let _ = writeln!(out, "power-law exponent   n/a");
        }
    }
    let _ = writeln!(
        out,
        "clustering coeff     {:.4} (sampled {})",
        algo::clustering_coefficient(&g, cc_sample, 42),
        cc_sample.min(g.n())
    );
    Ok(())
}

/// `stats --metrics`: parse and validate a saved Prometheus dump. Doubles
/// as the CI scraper — a dump that fails to parse, or is missing a
/// `--require`d family, is a hard error.
fn cmd_stats_metrics(path: &str, require: Option<&str>, out: &mut dyn Write) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let dump = parse_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
    let _ =
        writeln!(out, "{path}: {} families, {} samples", dump.families.len(), dump.total_samples());
    for (name, fam) in &dump.families {
        let _ = writeln!(out, "  {:<40} {:<8} {} samples", name, fam.kind, fam.samples);
    }
    if let Some(req) = require {
        let missing: Vec<&str> = req
            .split(',')
            .map(str::trim)
            .filter(|f| !f.is_empty() && !dump.has_family(f))
            .collect();
        if !missing.is_empty() {
            return Err(format!("{path}: missing required families: {}", missing.join(", ")));
        }
        let _ = writeln!(out, "all required families present");
    }
    Ok(())
}

/// The registry behind `--metrics-out`, if requested.
fn metrics_registry_flag(args: &Args) -> Option<(String, Arc<MetricsRegistry>)> {
    args.get("metrics-out").map(|p| (p.to_string(), Arc::new(MetricsRegistry::new())))
}

/// `--metrics-every N` (0 / absent ⇒ only a final dump). Rejected
/// without `--metrics-out` — there would be nowhere to write.
fn metrics_every_flag(args: &Args) -> Result<usize, String> {
    let every = args.get_or::<usize>("metrics-every", 0).map_err(|e| e.to_string())?;
    if every > 0 && args.get("metrics-out").is_none() {
        return Err("--metrics-every requires --metrics-out".into());
    }
    Ok(every)
}

/// Renders the registry to `path`: JSON when the extension is `.json`,
/// Prometheus text format otherwise.
fn write_metrics_dump(path: &str, registry: &MetricsRegistry) -> Result<(), String> {
    let rendered =
        if path.ends_with(".json") { registry.render_json() } else { registry.render_prometheus() };
    std::fs::write(path, rendered).map_err(|e| format!("{path}: {e}"))
}

/// Parses `--reorder {none,degree,rcm,hub,slashburn}` (absent ⇒ `None`).
fn reorder_flag(args: &Args) -> Result<Option<ReorderStrategy>, String> {
    match args.get("reorder") {
        None | Some("none") => Ok(None),
        Some(name) => ReorderStrategy::parse(name)
            .map(Some)
            .ok_or_else(|| format!("unknown --reorder {name}; use none|degree|rcm|hub|slashburn")),
    }
}

/// Parses `--frontier {auto,dense,sparse}` (absent ⇒ `Auto`).
fn frontier_flag(args: &Args) -> Result<FrontierPolicy, String> {
    match args.get("frontier") {
        None => Ok(FrontierPolicy::Auto),
        Some(name) => FrontierPolicy::parse(name)
            .ok_or_else(|| format!("unknown --frontier {name}; use auto|dense|sparse")),
    }
}

fn cmd_preprocess(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let g = load_graph(args.required("graph").map_err(|e| e.to_string())?)?;
    let s = args.get_or::<usize>("s", 5).map_err(|e| e.to_string())?;
    let t = args.get_or::<usize>("t", 10).map_err(|e| e.to_string())?;
    let path = args.required("out").map_err(|e| e.to_string())?;
    let strategy = reorder_flag(args)?;
    let params = TpaParams::new(s, t);
    let (index, dt) = tpa_eval::time(|| match strategy {
        None => TpaIndex::preprocess(&g, params),
        Some(strategy) => {
            let perm = reorder(&g, strategy);
            TpaIndex::preprocess(&g.permuted(&perm), params).with_permutation(perm)
        }
    });
    let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    index.save(std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "preprocessed in {} — index {}{} → {}",
        tpa_eval::format_secs(dt.as_secs_f64()),
        tpa_eval::format_bytes(index.index_bytes()),
        match strategy {
            Some(s) => format!(" (reordered: {})", s.name()),
            None => String::new(),
        },
        path
    );
    Ok(())
}

/// `--topk` with `--top` accepted as a legacy alias.
fn topk_flag(args: &Args) -> Result<usize, String> {
    match args.get("topk") {
        Some(_) => args.get_or::<usize>("topk", 10).map_err(|e| e.to_string()),
        None => args.get_or::<usize>("top", 10).map_err(|e| e.to_string()),
    }
}

/// `--exact-bounds`: only meaningful with an explicit top-k cut, so the
/// flag refuses to ride the implicit `--topk` default.
fn exact_bounds_flag(args: &Args) -> Result<bool, String> {
    if !args.switch("exact-bounds") {
        return Ok(false);
    }
    if args.get("topk").is_none() && args.get("top").is_none() {
        return Err("--exact-bounds requires an explicit --topk K".into());
    }
    Ok(true)
}

/// One line describing what the bounded top-k proof did.
fn print_topk_guarantee(out: &mut dyn Write, g: &tpa_core::TopKGuarantee) {
    let verdict = match (g.proven_exact, g.fallback_dense) {
        (true, true) => "proven exact (dense fallback: backend can't carry bounds)".to_string(),
        (false, _) => "NOT proven exact (iteration cap hit before separation)".to_string(),
        (true, false) if g.early_terminated => format!(
            "proven exact, terminated early ({} iterations saved, {} nodes pruned)",
            g.iterations_saved, g.pruned_nodes
        ),
        (true, false) => {
            format!("proven exact at natural end ({} nodes pruned)", g.pruned_nodes)
        }
    };
    let _ = writeln!(out, "top-k guarantee: {verdict}");
}

/// Starts a [`ServiceBuilder`] from the shared serving flags:
/// `--threads` (1 = sequential default, 0 = all cores, N workers) and
/// `--frontier`.
fn service_builder(g: CsrGraph, args: &Args) -> Result<ServiceBuilder, String> {
    let threads = args.get_or::<usize>("threads", 1).map_err(|e| e.to_string())?;
    Ok(ServiceBuilder::in_memory(g).threads(threads).frontier(frontier_flag(args)?))
}

/// One timing/metadata line for a served response.
fn print_response_meta(out: &mut dyn Write, resp: &QueryResponse, secs: f64) {
    let iters = match resp.iterations {
        Some(i) => format!(", {i} CPI iterations"),
        None => String::new(),
    };
    let degraded = match resp.degradation {
        DegradationLevel::None => String::new(),
        level => format!(", degraded: {level}"),
    };
    let _ = writeln!(
        out,
        "query took {} (backend {}, epoch {}, {}{iters}{degraded})",
        tpa_eval::format_secs(secs),
        resp.backend,
        resp.epoch,
        if resp.indexed { "indexed" } else { "exact" },
    );
}

/// Parses the shared resilience flags — `--deadline-ms` (per-request
/// budget, whole milliseconds), `--max-inflight` (admission gate bound),
/// and `--shed-policy off|reject|degrade` — into a per-request deadline
/// and an optional [`AdmissionConfig`].
fn admission_flags(
    args: &Args,
) -> Result<(Option<std::time::Duration>, Option<AdmissionConfig>), String> {
    let deadline = match args.get("deadline-ms") {
        None => None,
        Some(raw) => {
            let ms: u64 =
                raw.parse().map_err(|_| format!("--deadline-ms: cannot parse {raw:?}"))?;
            if ms == 0 {
                return Err("--deadline-ms must be at least 1".into());
            }
            Some(std::time::Duration::from_millis(ms))
        }
    };
    let admission = match (args.get("max-inflight"), args.get("shed-policy")) {
        (None, None) => None,
        (None, Some(_)) => {
            return Err("--shed-policy requires --max-inflight (the gate it configures)".into())
        }
        (Some(raw), shed) => {
            let max: usize =
                raw.parse().map_err(|_| format!("--max-inflight: cannot parse {raw:?}"))?;
            let mut cfg = AdmissionConfig::new(max);
            if let Some(policy) = shed {
                cfg = cfg.with_shed(ShedPolicy::parse(policy).map_err(|e| e.to_string())?);
            }
            Some(cfg)
        }
    };
    Ok((deadline, admission))
}

fn load_index(path: &str, g: &CsrGraph) -> Result<TpaIndex, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let index = TpaIndex::load(std::io::BufReader::new(f)).map_err(|e| e.to_string())?;
    if index.stranger().len() != g.n() {
        return Err(format!(
            "index is for a graph with {} nodes, this graph has {}",
            index.stranger().len(),
            g.n()
        ));
    }
    Ok(index)
}

fn cmd_query(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let g = load_graph(args.required("graph").map_err(|e| e.to_string())?)?;
    let index_path = args.required("index").map_err(|e| e.to_string())?;
    let seed = args.get_or::<u32>("seed", 0).map_err(|e| e.to_string())?;
    let top = topk_flag(args)?;
    if args.get("metrics-every").is_some() {
        return Err(
            "--metrics-every only applies to batch/update; query is a single request".into()
        );
    }
    let metrics = metrics_registry_flag(args);
    let index = load_index(index_path, &g)?;
    let (deadline, admission) = admission_flags(args)?;
    let mut builder = service_builder(g, args)?.index(index);
    if let Some((_, reg)) = &metrics {
        builder = builder.metrics(Arc::clone(reg));
    }
    if let Some(cfg) = admission {
        builder = builder.admission(cfg);
    }
    let service = builder.build().map_err(|e| e.to_string())?;
    let bounded = exact_bounds_flag(args)?;
    let mut request = QueryRequest::single(seed).top_k(top);
    if bounded {
        request = request.with_exact_bounds();
    }
    if let Some(d) = deadline {
        request = request.with_deadline(d);
    }
    let (resp, dt) = tpa_eval::time(|| service.submit(&request));
    let resp = resp.map_err(|e| e.to_string())?;
    print_response_meta(out, &resp, dt.as_secs_f64());
    if let Some(g) = &resp.topk {
        print_topk_guarantee(out, g);
    }
    print_ranking(out, &resp.result.into_ranked().pop().unwrap());
    if let Some((path, reg)) = &metrics {
        write_metrics_dump(path, reg)?;
        let _ = writeln!(out, "metrics written to {path}");
    }
    Ok(())
}

fn cmd_exact(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let g = load_graph(args.required("graph").map_err(|e| e.to_string())?)?;
    let seed = args.get_or::<u32>("seed", 0).map_err(|e| e.to_string())?;
    let top = topk_flag(args)?;
    let mut builder = service_builder(g, args)?;
    if let Some(strategy) = reorder_flag(args)? {
        builder = builder.reordering(strategy);
    }
    let service = builder.build().map_err(|e| e.to_string())?;
    let mut request = QueryRequest::single(seed).top_k(top).exact();
    if exact_bounds_flag(args)? {
        request = request.with_exact_bounds();
    }
    let (resp, dt) = tpa_eval::time(|| service.submit(&request));
    let resp = resp.map_err(|e| e.to_string())?;
    print_response_meta(out, &resp, dt.as_secs_f64());
    if let Some(g) = &resp.topk {
        print_topk_guarantee(out, g);
    }
    print_ranking(out, &resp.result.into_ranked().pop().unwrap());
    Ok(())
}

/// Parses a seed file: whitespace/newline-separated node ids; `#` starts
/// a comment running to end of line.
fn parse_seed_file(path: &str) -> Result<Vec<NodeId>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut seeds = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("");
        for tok in line.split_whitespace() {
            let seed: NodeId =
                tok.parse().map_err(|_| format!("{path}:{}: bad seed {tok:?}", lineno + 1))?;
            seeds.push(seed);
        }
    }
    if seeds.is_empty() {
        return Err(format!("{path}: no seeds found"));
    }
    Ok(seeds)
}

fn cmd_batch(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let g = load_graph(args.required("graph").map_err(|e| e.to_string())?)?;
    let seeds = parse_seed_file(args.required("seeds").map_err(|e| e.to_string())?)?;
    let top = topk_flag(args)?;
    let index = match args.get("index") {
        Some(path) => {
            if reorder_flag(args)?.is_some() {
                return Err("--reorder conflicts with --index: the index stores the ordering it \
                            was preprocessed with"
                    .into());
            }
            Some(load_index(path, &g)?)
        }
        None => None,
    };
    let exact = index.is_none();
    let mut builder = service_builder(g, args)?;
    match index {
        Some(index) => builder = builder.index(index),
        None => {
            if let Some(strategy) = reorder_flag(args)? {
                builder = builder.reordering(strategy);
            }
        }
    }
    let metrics = metrics_registry_flag(args);
    let every = metrics_every_flag(args)?;
    if let Some((_, reg)) = &metrics {
        builder = builder.metrics(Arc::clone(reg));
    }
    let (deadline, admission) = admission_flags(args)?;
    if let Some(cfg) = admission {
        builder = builder.admission(cfg);
    }
    let service = builder.build().map_err(|e| e.to_string())?;
    // With --metrics-every the batch is submitted in chunks of that many
    // seeds and the dump re-written between chunks, so a long batch can
    // be scraped mid-run. One chunk == one submit == the whole batch
    // otherwise; rankings are identical either way (lanes are
    // independent).
    let chunk = if every > 0 { every } else { seeds.len() };
    let mut rankings = Vec::with_capacity(seeds.len());
    let mut backend = "";
    let mut epoch = 0;
    let started = std::time::Instant::now();
    let mut worst_degradation = DegradationLevel::None;
    for part in seeds.chunks(chunk) {
        let mut request = QueryRequest::batch(part.to_vec()).top_k(top);
        if exact {
            request = request.exact();
        }
        if let Some(d) = deadline {
            request = request.with_deadline(d);
        }
        let resp = service.submit(&request).map_err(|e| e.to_string())?;
        backend = resp.backend;
        epoch = resp.epoch;
        worst_degradation = worst_degradation.max(resp.degradation);
        rankings.extend(resp.result.into_ranked());
        if let Some((path, reg)) = &metrics {
            write_metrics_dump(path, reg)?;
        }
    }
    let dt = started.elapsed();
    let degraded = match worst_degradation {
        DegradationLevel::None => String::new(),
        level => format!(", degraded: {level}"),
    };
    let _ = writeln!(
        out,
        "batched {} seeds in {} ({} per seed, backend {backend}, epoch {epoch}{degraded})",
        seeds.len(),
        tpa_eval::format_secs(dt.as_secs_f64()),
        tpa_eval::format_secs(dt.as_secs_f64() / seeds.len() as f64),
    );
    for (seed, ranked) in seeds.iter().zip(rankings) {
        let _ = writeln!(out, "\nseed {seed}:");
        print_ranking(out, &ranked);
    }
    if let Some((path, _)) = &metrics {
        let _ = writeln!(out, "\nmetrics written to {path}");
    }
    Ok(())
}

/// One event of an update stream (see [`parse_stream_file`]).
#[derive(Clone, Copy, Debug, PartialEq)]
enum StreamEvent {
    Update(EdgeUpdate),
    Query(NodeId),
    Compact,
}

/// Parses an update-stream file. Line grammar (whitespace-separated,
/// `#` starts a comment):
/// `+ u v` insert, `- u v` delete, `? seed` query, `compact` compaction.
fn parse_stream_file(path: &str) -> Result<Vec<StreamEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}: {line:?}", lineno + 1);
        let mut toks = line.split_whitespace();
        let op = toks.next().unwrap();
        let node = |toks: &mut dyn Iterator<Item = &str>, what: &str| -> Result<NodeId, String> {
            toks.next().ok_or_else(|| bad(what))?.parse().map_err(|_| bad(what))
        };
        let event = match op {
            "+" => StreamEvent::Update(EdgeUpdate::Insert(
                node(&mut toks, "bad insert")?,
                node(&mut toks, "bad insert")?,
            )),
            "-" => StreamEvent::Update(EdgeUpdate::Delete(
                node(&mut toks, "bad delete")?,
                node(&mut toks, "bad delete")?,
            )),
            "?" => StreamEvent::Query(node(&mut toks, "bad query")?),
            "compact" => StreamEvent::Compact,
            _ => return Err(bad("unknown stream op")),
        };
        if toks.next().is_some() {
            return Err(bad("trailing tokens"));
        }
        events.push(event);
    }
    if events.is_empty() {
        return Err(format!("{path}: empty update stream"));
    }
    Ok(events)
}

/// `update`: replay an edge-update stream with interleaved queries on a
/// dynamic [`RwrService`]. Consecutive edge updates are published as one
/// epoch at each query/compact boundary.
fn cmd_update(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let g = load_graph(args.required("graph").map_err(|e| e.to_string())?)?;
    let events = parse_stream_file(args.required("stream").map_err(|e| e.to_string())?)?;
    let top = topk_flag(args)?;
    let maintain = args.switch("maintain");
    let patch_index = args.switch("patch-index");
    if patch_index && args.switch("auto-refresh") {
        return Err("--patch-index conflicts with --auto-refresh: pick one repair strategy \
                    (incremental patch vs full re-preprocess)"
            .into());
    }
    if patch_index && args.get("index").is_none() {
        return Err("--patch-index requires --index".into());
    }
    let compact_threshold =
        args.get_or::<f64>("compact-threshold", 0.02).map_err(|e| e.to_string())?;
    let stale_threshold = args.get_or::<f64>("stale-threshold", 0.05).map_err(|e| e.to_string())?;
    // NaN must fail too, so test "positive" directly rather than `<= 0`.
    if compact_threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("--compact-threshold must be positive, got {compact_threshold}"));
    }
    if stale_threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("--stale-threshold must be positive, got {stale_threshold}"));
    }
    let n = g.n();
    for ev in &events {
        let in_range = |v: NodeId| (v as usize) < n;
        let ok = match *ev {
            StreamEvent::Update(up) => in_range(up.source()) && in_range(up.target()),
            StreamEvent::Query(s) => in_range(s),
            StreamEvent::Compact => true,
        };
        if !ok {
            return Err(format!("stream event {ev:?} out of range (n = {n})"));
        }
    }

    let dynamic = DynamicGraph::new(g).with_compact_threshold(Some(compact_threshold));
    let threads = args.get_or::<usize>("threads", 1).map_err(|e| e.to_string())?;
    let mut builder =
        ServiceBuilder::dynamic(dynamic).threads(threads).staleness(IndexStalenessPolicy {
            threshold: stale_threshold,
            auto_refresh: args.switch("auto-refresh"),
        });
    let metrics = metrics_registry_flag(args);
    let metrics_every = metrics_every_flag(args)?;
    if let Some((_, reg)) = &metrics {
        builder = builder.metrics(Arc::clone(reg));
    }
    let (deadline, admission) = admission_flags(args)?;
    if let Some(cfg) = admission {
        builder = builder.admission(cfg);
    }
    if let Some(path) = args.get("index") {
        let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let index = TpaIndex::load(std::io::BufReader::new(f)).map_err(|e| e.to_string())?;
        if index.stranger().len() != n {
            return Err(format!(
                "index is for a graph with {} nodes, this graph has {n}",
                index.stranger().len()
            ));
        }
        builder = builder.index(index);
    }
    if maintain {
        // Pin every seed the stream queries: the service keeps their
        // exact lanes current at each publish, and `.exact()` requests
        // below are answered straight from the cache.
        let mut seeds: Vec<NodeId> = events
            .iter()
            .filter_map(|ev| match *ev {
                StreamEvent::Query(seed) => Some(seed),
                _ => None,
            })
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        builder = builder.score_cache(seeds, MaintenanceMode::Exact);
    }
    let service = builder.build().map_err(|e| e.to_string())?;

    let mut pending: Vec<EdgeUpdate> = Vec::new();
    let mut stats = ReplayStats::default();

    // Re-writes the `--metrics-out` dump every `--metrics-every` batches
    // (so a long replay can be scraped mid-run) and once at the end.
    let mut dumped_at = 0usize;
    let mut dump_metrics = |stats: &ReplayStats, done: bool| -> Result<(), String> {
        let Some((path, reg)) = &metrics else { return Ok(()) };
        let due = metrics_every > 0 && stats.batches >= dumped_at + metrics_every;
        if due || done {
            dumped_at = stats.batches;
            write_metrics_dump(path, reg)?;
        }
        Ok(())
    };

    for ev in &events {
        match *ev {
            StreamEvent::Update(up) => pending.push(up),
            StreamEvent::Compact => {
                flush_updates(&service, &mut pending, patch_index, &mut stats)?;
                dump_metrics(&stats, false)?;
                service.compact().map_err(|e| e.to_string())?;
                stats.compactions += 1;
            }
            StreamEvent::Query(seed) => {
                flush_updates(&service, &mut pending, patch_index, &mut stats)?;
                dump_metrics(&stats, false)?;
                stats.queries += 1;
                let mut request = QueryRequest::single(seed).top_k(top);
                if maintain {
                    request = request.exact();
                }
                if let Some(d) = deadline {
                    request = request.with_deadline(d);
                }
                let (resp, dt) = tpa_eval::time(|| service.submit(&request));
                let resp = resp.map_err(|e| e.to_string())?;
                stats.query_time += dt;
                match resp.degradation {
                    DegradationLevel::None => {
                        let _ = writeln!(out, "query seed {seed} (top {top}):");
                    }
                    level => {
                        let _ = writeln!(out, "query seed {seed} (top {top}, degraded: {level}):");
                    }
                }
                let ranked = resp.result.into_ranked().pop().unwrap_or_default();
                print_ranking(out, &ranked);
            }
        }
    }
    flush_updates(&service, &mut pending, patch_index, &mut stats)?;
    dump_metrics(&stats, true)?;

    let snap = service.snapshot();
    let (m, patch_entries) = match snap.backend() {
        EngineBackend::Patched(p) => (p.m(), p.delta_edges()),
        other => return Err(format!("dynamic service published a {} snapshot", other.name())),
    };
    let _ = writeln!(
        out,
        "\nreplayed {} events: {} edges changed ({} no-ops) in {} batches, {} queries",
        events.len(),
        stats.applied,
        stats.noops,
        stats.batches,
        stats.queries
    );
    let _ = writeln!(
        out,
        "graph now {} nodes / {} edges ({} patch entries pending), {} compactions, \
         {} index refreshes{}",
        snap.n(),
        m,
        patch_entries,
        stats.compactions,
        stats.refreshes,
        if service.index_stale() { " — index STALE (refresh advised)" } else { "" }
    );
    if patch_index {
        let _ =
            writeln!(out, "index stranger-patched {} times (offset propagation)", stats.patches);
    }
    let _ = writeln!(
        out,
        "update time {} · query time {}{}",
        tpa_eval::format_secs(stats.update_time.as_secs_f64()),
        tpa_eval::format_secs(stats.query_time.as_secs_f64()),
        if maintain { " (served from maintained cache)" } else { "" }
    );
    if let Some((path, _)) = &metrics {
        let _ = writeln!(out, "metrics written to {path}");
    }
    Ok(())
}

/// Counters accumulated while replaying an update stream.
#[derive(Default)]
struct ReplayStats {
    applied: usize,
    noops: usize,
    batches: usize,
    compactions: usize,
    refreshes: usize,
    patches: usize,
    queries: usize,
    update_time: std::time::Duration,
    query_time: std::time::Duration,
}

/// Publishes the pending update batch (the service refreshes any pinned
/// score-cache lanes as part of the publish), folding the outcome into
/// `stats`. A base rebuild the batch triggered is joined and installed
/// before returning, so compactions land at the same point of the
/// stream on every run. With `patch_index`, a batch that tips the index
/// past its staleness threshold triggers an incremental stranger patch
/// instead of leaving the index flagged stale.
fn flush_updates(
    service: &RwrService,
    pending: &mut Vec<EdgeUpdate>,
    patch_index: bool,
    stats: &mut ReplayStats,
) -> Result<(), String> {
    if pending.is_empty() {
        return Ok(());
    }
    let (outcome, dt) = tpa_eval::time(|| service.apply_updates(pending));
    let outcome = outcome.map_err(|e| e.to_string())?;
    let (installed, dt_compact) = tpa_eval::time(|| service.flush_compaction());
    stats.update_time += dt + dt_compact;
    stats.batches += 1;
    let report = &outcome.report;
    stats.applied += report.delta.stats.inserted + report.delta.stats.deleted;
    stats.noops += report.delta.stats.noops;
    stats.compactions += installed as usize;
    stats.refreshes += report.index_refreshed as usize;
    if patch_index && report.index_stale {
        let (patched, dt) = tpa_eval::time(|| service.patch_index());
        stats.update_time += dt;
        stats.patches += (patched.map_err(|e| e.to_string())? != outcome.epoch) as usize;
    }
    pending.clear();
    Ok(())
}

fn print_ranking(out: &mut dyn Write, ranked: &[(NodeId, f64)]) {
    let _ = writeln!(out, "rank  node        score");
    for (rank, &(v, score)) in ranked.iter().enumerate() {
        let _ = writeln!(out, "{:<5} {:<11} {:.8}", rank + 1, v, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn run_cmd(line: &str) -> (i32, String) {
        let args = Args::parse(line.split_whitespace().map(str::to_string)).expect("parse");
        let mut buf = Vec::new();
        let code = run(&args, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tpa-cli-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn help_prints_usage() {
        let (code, text) = run_cmd("help");
        assert_eq!(code, 0);
        assert!(text.contains("preprocess"));
    }

    #[test]
    fn unknown_command_fails() {
        let (code, _) = run_cmd("frobnicate");
        assert_eq!(code, 1);
    }

    #[test]
    fn full_pipeline_generate_stats_preprocess_query() {
        let d = tmpdir("pipeline");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");

        let (code, text) =
            run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("nodes"));

        let (code, text) = run_cmd(&format!("stats --graph {}", graph.display()));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("reciprocity"));
        assert!(text.contains("strongly connected"));

        let (code, text) = run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 0, "{text}");

        let (code, text) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --top 5",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("rank"));

        let (code, text) = run_cmd(&format!("exact --graph {} --seed 3", graph.display()));
        assert_eq!(code, 0, "{text}");

        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn convert_roundtrip() {
        let d = tmpdir("convert");
        let snap = d.join("c.bin");
        let edges = d.join("c.txt");
        let (code, _) =
            run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", snap.display()));
        assert_eq!(code, 0);
        let (code, _) = run_cmd(&format!(
            "convert --in {} --out {} --format edges",
            snap.display(),
            edges.display()
        ));
        assert_eq!(code, 0);
        let g1 = load_graph(snap.to_str().unwrap()).unwrap();
        let g2 = load_graph(edges.to_str().unwrap()).unwrap();
        assert_eq!(g1, g2);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn query_rejects_mismatched_index() {
        let d = tmpdir("mismatch");
        let g1 = d.join("a.bin");
        let g2 = d.join("b.bin");
        let idx = d.join("a.tpa");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", g1.display()));
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", g2.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            g1.display(),
            idx.display()
        ));
        let (code, _) =
            run_cmd(&format!("query --graph {} --index {} --seed 0", g2.display(), idx.display()));
        assert_eq!(code, 1);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn batch_serves_seed_file_through_engine() {
        let d = tmpdir("batch");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        let seeds = d.join("seeds.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        std::fs::write(&seeds, "0 3\n7 # trailing comment\n# full comment line\n9\n").unwrap();

        let (code, text) = run_cmd(&format!(
            "batch --graph {} --index {} --seeds {} --topk 3 --threads 2",
            graph.display(),
            index.display(),
            seeds.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("batched 4 seeds"), "{text}");
        assert!(text.contains("backend parallel"), "{text}");
        assert!(text.contains("seed 7:"), "{text}");

        // Without an index the batch falls back to exact execution.
        let (code, text) = run_cmd(&format!(
            "batch --graph {} --seeds {} --topk 2",
            graph.display(),
            seeds.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("backend sequential"), "{text}");

        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn batch_rejects_bad_seed_file() {
        let d = tmpdir("badseeds");
        let graph = d.join("g.bin");
        let seeds = d.join("seeds.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", graph.display()));
        std::fs::write(&seeds, "1 frog 2\n").unwrap();
        let (code, _) =
            run_cmd(&format!("batch --graph {} --seeds {}", graph.display(), seeds.display()));
        assert_eq!(code, 1);
        std::fs::write(&seeds, "# only comments\n").unwrap();
        let (code, _) =
            run_cmd(&format!("batch --graph {} --seeds {}", graph.display(), seeds.display()));
        assert_eq!(code, 1);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn query_accepts_topk_and_threads_flags() {
        let d = tmpdir("flags");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        let (code, text) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --topk 4 --threads 0",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 0, "{text}");
        // Header + 4 ranked rows after the timing line.
        assert_eq!(text.lines().count(), 6, "{text}");
        let (code, text) =
            run_cmd(&format!("exact --graph {} --seed 3 --topk 4 --threads 2", graph.display()));
        assert_eq!(code, 0, "{text}");
        assert_eq!(text.lines().count(), 6, "{text}");
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn exact_bounds_flag_prints_guarantee_and_needs_topk() {
        let d = tmpdir("bounds");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        let (code, text) =
            run_cmd(&format!("exact --graph {} --seed 3 --topk 4 --exact-bounds", graph.display()));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("top-k guarantee: proven exact"), "{text}");
        let (code, text) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --topk 4 --exact-bounds",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("top-k guarantee: proven exact"), "{text}");
        // Without the flag no guarantee line appears...
        let (code, text) = run_cmd(&format!("exact --graph {} --seed 3 --topk 4", graph.display()));
        assert_eq!(code, 0, "{text}");
        assert!(!text.contains("top-k guarantee"), "{text}");
        // ...and without an explicit --topk the switch is refused
        // (the message goes to stderr; the buffer stays empty).
        let (code, text) =
            run_cmd(&format!("exact --graph {} --seed 3 --exact-bounds", graph.display()));
        assert_eq!(code, 1, "{text}");
        assert!(text.is_empty(), "{text}");
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn update_replays_stream_with_interleaved_queries() {
        let d = tmpdir("update");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        let stream = d.join("stream.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        std::fs::write(
            &stream,
            "? 3            # query before any change\n\
             + 3 40\n+ 40 3\n- 3 40   # a batch of three updates\n\
             ? 3            # re-query on the evolved graph\n\
             compact\n\
             + 7 3\n\
             ? 7\n",
        )
        .unwrap();

        let (code, text) = run_cmd(&format!(
            "update --graph {} --index {} --stream {} --topk 3",
            graph.display(),
            index.display(),
            stream.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("query seed 3"), "{text}");
        assert!(text.contains("query seed 7"), "{text}");
        assert!(text.contains("3 queries"), "{text}");
        assert!(text.contains("1 compactions") || text.contains("2 compactions"), "{text}");

        // Maintained mode serves the same stream from cached scores.
        let (code, text) = run_cmd(&format!(
            "update --graph {} --stream {} --topk 3 --maintain",
            graph.display(),
            stream.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("served from maintained cache"), "{text}");

        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn update_maintained_ranking_matches_engine_ranking() {
        // The maintained cache and the plain service must agree on the
        // final ranking (same graph state, exact scores either way).
        let d = tmpdir("update-agree");
        let graph = d.join("g.bin");
        let stream = d.join("stream.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", graph.display()));
        std::fs::write(&stream, "+ 1 5\n+ 5 9\n- 1 5\n? 2\n").unwrap();
        let args = |extra: &str| {
            format!(
                "update --graph {} --stream {} --topk 4{extra}",
                graph.display(),
                stream.display()
            )
        };
        let (code_a, text_a) = run_cmd(&args(""));
        let (code_b, text_b) = run_cmd(&args(" --maintain"));
        assert_eq!(code_a, 0, "{text_a}");
        assert_eq!(code_b, 0, "{text_b}");
        let ranking = |t: &str| -> Vec<String> {
            t.lines()
                .skip_while(|l| !l.starts_with("rank"))
                .take_while(|l| !l.is_empty())
                .map(str::to_string)
                .collect()
        };
        assert_eq!(ranking(&text_a), ranking(&text_b));
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn update_patch_index_repairs_staleness_in_place() {
        let d = tmpdir("update-patch");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        let stream = d.join("stream.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        std::fs::write(&stream, "+ 3 40\n+ 40 3\n? 3\n- 3 40\n? 40\n").unwrap();

        // A microscopic staleness threshold forces a patch per batch.
        let (code, text) = run_cmd(&format!(
            "update --graph {} --index {} --stream {} --patch-index --stale-threshold 1e-12",
            graph.display(),
            index.display(),
            stream.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("index stranger-patched 2 times"), "{text}");
        assert!(!text.contains("index STALE"), "{text}");

        // Contradictory or incomplete flag combinations are clean errors.
        let (code, _) = run_cmd(&format!(
            "update --graph {} --index {} --stream {} --patch-index --auto-refresh",
            graph.display(),
            index.display(),
            stream.display()
        ));
        assert_eq!(code, 1, "--patch-index + --auto-refresh must be rejected");
        let (code, _) = run_cmd(&format!(
            "update --graph {} --stream {} --patch-index",
            graph.display(),
            stream.display()
        ));
        assert_eq!(code, 1, "--patch-index without --index must be rejected");
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn update_rejects_bad_streams() {
        let d = tmpdir("update-bad");
        let graph = d.join("g.bin");
        let stream = d.join("stream.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", graph.display()));
        for bad in ["+ 1\n", "? frog\n", "jump 1 2\n", "+ 1 2 3\n", "# only comments\n"] {
            std::fs::write(&stream, bad).unwrap();
            let (code, _) = run_cmd(&format!(
                "update --graph {} --stream {}",
                graph.display(),
                stream.display()
            ));
            assert_eq!(code, 1, "stream {bad:?} should be rejected");
        }
        // Out-of-range node in an otherwise well-formed stream.
        std::fs::write(&stream, "+ 0 999999\n").unwrap();
        let (code, _) =
            run_cmd(&format!("update --graph {} --stream {}", graph.display(), stream.display()));
        assert_eq!(code, 1);
        // Non-positive thresholds are clean CLI errors, not panics.
        std::fs::write(&stream, "? 1\n").unwrap();
        for flag in ["--compact-threshold 0", "--compact-threshold -1", "--stale-threshold 0"] {
            let (code, _) = run_cmd(&format!(
                "update --graph {} --stream {} {flag}",
                graph.display(),
                stream.display()
            ));
            assert_eq!(code, 1, "{flag} should be rejected cleanly");
        }
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn reordered_index_roundtrips_through_query() {
        let d = tmpdir("reorder");
        let graph = d.join("g.bin");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        let plain_idx = d.join("plain.tpa");
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            plain_idx.display()
        ));
        let (code, plain) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --topk 5",
            graph.display(),
            plain_idx.display()
        ));
        assert_eq!(code, 0, "{plain}");
        for strategy in ["degree", "rcm", "hub", "slashburn"] {
            let idx = d.join(format!("{strategy}.tpa"));
            let (code, text) = run_cmd(&format!(
                "preprocess --graph {} --s 5 --t 10 --out {} --reorder {strategy}",
                graph.display(),
                idx.display()
            ));
            assert_eq!(code, 0, "{text}");
            assert!(text.contains(&format!("reordered: {strategy}")), "{text}");
            let (code, text) = run_cmd(&format!(
                "query --graph {} --index {} --seed 3 --topk 5",
                graph.display(),
                idx.display()
            ));
            assert_eq!(code, 0, "{text}");
            // Same ranked ids as the un-reordered index (scores differ
            // only in floating-point association).
            let ids = |t: &str| -> Vec<String> {
                t.lines()
                    .skip_while(|l| !l.starts_with("rank"))
                    .skip(1)
                    .map(|l| l.split_whitespace().nth(1).unwrap_or("").to_string())
                    .collect()
            };
            assert_eq!(ids(&plain), ids(&text), "strategy {strategy}");
        }
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn exact_accepts_reorder_and_batch_rejects_it_with_index() {
        let d = tmpdir("reorder-exact");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        let seeds = d.join("seeds.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        std::fs::write(&seeds, "0 3 7\n").unwrap();

        let (code, text) =
            run_cmd(&format!("exact --graph {} --seed 3 --reorder degree", graph.display()));
        assert_eq!(code, 0, "{text}");
        let (code, _) =
            run_cmd(&format!("exact --graph {} --seed 3 --reorder frog", graph.display()));
        assert_eq!(code, 1);

        let (code, text) = run_cmd(&format!(
            "batch --graph {} --seeds {} --reorder rcm",
            graph.display(),
            seeds.display()
        ));
        assert_eq!(code, 0, "{text}");
        let (code, _) = run_cmd(&format!(
            "batch --graph {} --seeds {} --index {} --reorder rcm",
            graph.display(),
            seeds.display(),
            index.display()
        ));
        assert_eq!(code, 1, "reorder+index must be rejected");
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn update_accepts_threads_flag() {
        let d = tmpdir("update-threads");
        let graph = d.join("g.bin");
        let stream = d.join("stream.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", graph.display()));
        std::fs::write(&stream, "? 1\n+ 1 5\n? 1\n").unwrap();
        let single =
            run_cmd(&format!("update --graph {} --stream {}", graph.display(), stream.display()));
        let multi = run_cmd(&format!(
            "update --graph {} --stream {} --threads 4",
            graph.display(),
            stream.display()
        ));
        assert_eq!(single.0, 0, "{}", single.1);
        assert_eq!(multi.0, 0, "{}", multi.1);
        // Bit-identical serving: identical rankings line for line.
        let rankings = |t: &str| -> Vec<String> {
            t.lines()
                .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
                .map(Into::into)
                .collect()
        };
        assert_eq!(rankings(&single.1), rankings(&multi.1));
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn frontier_flag_roundtrips_and_is_bitwise_invisible() {
        let d = tmpdir("frontier");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        let seeds = d.join("seeds.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        std::fs::write(&seeds, "0 3 7\n").unwrap();

        // Rankings (node + score text) must be identical under every
        // policy, on the indexed, exact, and batch paths.
        let ranking = |t: &str| -> Vec<String> {
            t.lines()
                .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
                .map(Into::into)
                .collect()
        };
        let mut per_policy = Vec::new();
        for policy in ["auto", "dense", "sparse"] {
            let (code, q) = run_cmd(&format!(
                "query --graph {} --index {} --seed 3 --topk 5 --frontier {policy}",
                graph.display(),
                index.display()
            ));
            assert_eq!(code, 0, "{q}");
            let (code, e) = run_cmd(&format!(
                "exact --graph {} --seed 3 --topk 5 --frontier {policy}",
                graph.display()
            ));
            assert_eq!(code, 0, "{e}");
            let (code, b) = run_cmd(&format!(
                "batch --graph {} --seeds {} --topk 3 --frontier {policy}",
                graph.display(),
                seeds.display()
            ));
            assert_eq!(code, 0, "{b}");
            per_policy.push((ranking(&q), ranking(&e), ranking(&b)));
        }
        assert_eq!(per_policy[0], per_policy[1], "auto vs dense");
        assert_eq!(per_policy[0], per_policy[2], "auto vs sparse");

        let (code, _) =
            run_cmd(&format!("exact --graph {} --seed 3 --frontier frog", graph.display()));
        assert_eq!(code, 1, "bad --frontier must be rejected");
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn metrics_out_writes_a_scrapeable_dump() {
        let d = tmpdir("metrics");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        let dump = d.join("metrics.prom");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));

        let (code, text) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --metrics-out {}",
            graph.display(),
            index.display(),
            dump.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("metrics written"), "{text}");
        let rendered = std::fs::read_to_string(&dump).unwrap();
        assert!(rendered.contains("tpa_requests_total"), "{rendered}");

        // `stats --metrics` validates the dump and enforces --require.
        let (code, text) = run_cmd(&format!(
            "stats --metrics {} --require tpa_requests_total,tpa_request_latency_seconds",
            dump.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("all required families present"), "{text}");
        let (code, _) =
            run_cmd(&format!("stats --metrics {} --require tpa_no_such_family", dump.display()));
        assert_eq!(code, 1, "a missing required family must fail");

        // A corrupt dump is a parse error, not a silent pass.
        std::fs::write(&dump, "tpa_requests_total{unclosed 1\n").unwrap();
        let (code, _) = run_cmd(&format!("stats --metrics {}", dump.display()));
        assert_eq!(code, 1);

        // JSON dumps keyed by extension.
        let json = d.join("metrics.json");
        let (code, text) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --metrics-out {}",
            graph.display(),
            index.display(),
            json.display()
        ));
        assert_eq!(code, 0, "{text}");
        let rendered = std::fs::read_to_string(&json).unwrap();
        assert!(rendered.trim_start().starts_with('['), "{rendered}");
        assert!(rendered.contains("tpa_requests_total"), "{rendered}");
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn metrics_every_chunks_batch_and_update() {
        let d = tmpdir("metrics-every");
        let graph = d.join("g.bin");
        let seeds = d.join("seeds.txt");
        let stream = d.join("stream.txt");
        let dump = d.join("m.prom");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", graph.display()));
        std::fs::write(&seeds, "0 1 2 3 4\n").unwrap();
        std::fs::write(&stream, "+ 1 5\n? 1\n+ 5 9\n? 5\n").unwrap();

        let (code, text) = run_cmd(&format!(
            "batch --graph {} --seeds {} --topk 2 --metrics-out {} --metrics-every 2",
            graph.display(),
            seeds.display(),
            dump.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("batched 5 seeds"), "{text}");
        assert!(std::fs::read_to_string(&dump).unwrap().contains("tpa_requests_total"));

        let (code, text) = run_cmd(&format!(
            "update --graph {} --stream {} --metrics-out {} --metrics-every 1",
            graph.display(),
            stream.display(),
            dump.display()
        ));
        assert_eq!(code, 0, "{text}");
        let rendered = std::fs::read_to_string(&dump).unwrap();
        assert!(rendered.contains("tpa_epoch_publishes_total"), "{rendered}");

        // --metrics-every without --metrics-out, and on query, are errors.
        let (code, _) = run_cmd(&format!(
            "batch --graph {} --seeds {} --metrics-every 2",
            graph.display(),
            seeds.display()
        ));
        assert_eq!(code, 1);
        let (code, _) = run_cmd(&format!(
            "query --graph {} --index nope.tpa --seed 1 --metrics-out {} --metrics-every 2",
            graph.display(),
            dump.display()
        ));
        assert_eq!(code, 1);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn seed_out_of_range_rejected() {
        let d = tmpdir("range");
        let graph = d.join("s.bin");
        run_cmd(&format!("generate --dataset slashdot-s --scale 40 --out {}", graph.display()));
        let (code, _) = run_cmd(&format!("exact --graph {} --seed 999999", graph.display()));
        assert_eq!(code, 1);
        let _ = std::fs::remove_dir_all(d);
    }

    #[test]
    fn admission_flags_gate_query_batch_update() {
        let d = tmpdir("admission");
        let graph = d.join("g.bin");
        let index = d.join("g.tpa");
        let seeds = d.join("seeds.txt");
        let stream = d.join("stream.txt");
        run_cmd(&format!("generate --dataset slashdot-s --scale 20 --out {}", graph.display()));
        run_cmd(&format!(
            "preprocess --graph {} --s 5 --t 10 --out {}",
            graph.display(),
            index.display()
        ));
        std::fs::write(&seeds, "0 3 7\n").unwrap();
        std::fs::write(&stream, "+ 1 5\n? 1\n").unwrap();

        // A generous deadline + a one-wide gate pass on every command.
        let (code, text) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --deadline-ms 60000 --max-inflight 1 \
             --shed-policy degrade",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("rank"), "{text}");
        let (code, text) = run_cmd(&format!(
            "batch --graph {} --seeds {} --topk 2 --deadline-ms 60000 --max-inflight 2 \
             --shed-policy off",
            graph.display(),
            seeds.display()
        ));
        assert_eq!(code, 0, "{text}");
        let (code, text) = run_cmd(&format!(
            "update --graph {} --stream {} --deadline-ms 60000 --max-inflight 1 \
             --shed-policy reject",
            graph.display(),
            stream.display()
        ));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("query seed 1"), "{text}");

        // Bad values are rejected with a message, not a panic.
        let (code, _) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --deadline-ms 0",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 1, "--deadline-ms 0 must be rejected");
        let (code, _) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --max-inflight 0",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 1, "--max-inflight 0 must be rejected");
        let (code, _) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --shed-policy degrade",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 1, "--shed-policy without --max-inflight must be rejected");
        let (code, _) = run_cmd(&format!(
            "query --graph {} --index {} --seed 3 --max-inflight 2 --shed-policy sometimes",
            graph.display(),
            index.display()
        ));
        assert_eq!(code, 1, "an unknown shed policy must be rejected");
        let _ = std::fs::remove_dir_all(d);
    }
}
