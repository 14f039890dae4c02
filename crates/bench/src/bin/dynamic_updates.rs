//! Dynamic-graph serving bench: incremental maintenance vs
//! rebuild-and-requery.
//!
//! Scenario: a graph with ≥100k nodes serves a working set of cached RWR
//! score vectors while a 1% edge-update batch (half inserts, half
//! deletes) lands. Two ways to get the scores current again:
//!
//! * **incremental** — `RwrService::apply_updates` on a dynamic service
//!   whose score cache pins the working set
//!   (`ServiceBuilder::score_cache`): the publish applies the batch to
//!   the delta overlay and folds the OSP offset into each cached lane,
//!   exact mode and approximate mode (`tolerance = 1e-6`);
//! * **rebuild** — materialize a fresh CSR from the merged view and
//!   recompute every cached seed from scratch.
//!
//! Also measured: raw update throughput through the overlay (edges/sec,
//! batches of 1 000), the L1 agreement of both incremental modes with
//! the from-scratch answer, and **publish latency** — the cost of
//! freezing the overlay into an immutable epoch snapshot after a small
//! batch, copy-on-write (`DynamicTransition::publish_patched`, the
//! `O(batch)` path the service uses) vs a full CSR rebuild
//! (`DynamicGraph::snapshot`, `O(n + m)`). The p99 CoW publish must
//! beat the median rebuild by a wide margin or the publish path has
//! regressed to scaling with the graph; the process exits nonzero below
//! 5× so the CI smoke run catches it.
//!
//! Output: ASCII table, `results/dynamic_updates.csv`, and
//! `BENCH_dynamic.json` (trajectory record for later PRs).
//!
//! Env knobs: `TPA_QUICK=1` shrinks the graph 5×; `TPA_DYN_N` overrides
//! the node count; `TPA_DYN_PROFILE=1` prints per-kernel timings
//! (clean vs patched block pass, apply+snapshot) and exits.

use rand::{rngs::StdRng, Rng, SeedableRng};
use tpa_bench::harness::results_dir;
use tpa_bench::report::{ns_to_secs, BenchReport};
use tpa_core::batch::cpi_batch;
use tpa_core::{
    CpiConfig, DynamicTransition, MaintenanceMode, QueryRequest, ServiceBuilder, Transition,
};
use tpa_eval::Table;
use tpa_graph::gen::{rmat, RmatConfig};
use tpa_graph::{DynamicGraph, EdgeUpdate, NodeId};
use tpa_obs::Histogram;

const SEEDS: usize = 8;
const UPDATE_FRACTION: f64 = 0.01;
const APPROX_TOLERANCE: f64 = 1e-6;

fn main() {
    let n: usize = std::env::var("TPA_DYN_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if tpa_bench::harness::quick() { 20_000 } else { 100_000 });
    let m = 10 * n;
    let mut rng = StdRng::seed_from_u64(0xd15c);
    let base = rmat(n, m, RmatConfig::default(), &mut rng);
    let m = base.m(); // includes dangling self-loop patches
    eprintln!("[dynamic_updates] R-MAT graph: n={n} m={m}");

    let batch = make_update_batch(&base, (m as f64 * UPDATE_FRACTION) as usize, &mut rng);
    eprintln!(
        "[dynamic_updates] update batch: {} updates (~{UPDATE_FRACTION:.0e} of m)",
        batch.len()
    );

    let cfg = CpiConfig::default();
    let seeds: Vec<NodeId> = (0..SEEDS).map(|i| ((i * 2654435761) % n) as NodeId).collect();

    // --- Raw update throughput through the overlay (no score upkeep). ---
    let mut tput_graph = DynamicGraph::new(base.clone());
    let (applied, dt) = tpa_eval::time(|| {
        let mut applied = 0usize;
        for chunk in batch.chunks(1000) {
            let stats = tput_graph.apply(chunk);
            applied += stats.inserted + stats.deleted;
        }
        applied
    });
    let throughput = batch.len() as f64 / dt.as_secs_f64();
    eprintln!(
        "[dynamic_updates] overlay throughput: {throughput:.0} updates/sec ({applied} applied)"
    );

    if std::env::var("TPA_DYN_PROFILE").is_ok() {
        use tpa_core::batch::ScoreBlock;
        use tpa_core::Propagator;
        let lanes = SEEDS;
        let xb = ScoreBlock::zeros(n, lanes);
        let mut yb = ScoreBlock::zeros(n, lanes);
        let clean_t = Transition::new(&base);
        let (_, dt) = tpa_eval::time(|| {
            for _ in 0..10 {
                clean_t.propagate_block_into(0.85, &xb, &mut yb);
            }
        });
        eprintln!("[profile] clean CSR block iter: {:.1} ms", dt.as_secs_f64() * 100.0);
        let mut dyn_t =
            DynamicTransition::new(DynamicGraph::new(base.clone()).with_compact_threshold(None));
        dyn_t.apply(&batch);
        let patched = dyn_t.publish_patched();
        let (_, dt) = tpa_eval::time(|| {
            for _ in 0..10 {
                patched.propagate_block_into(0.85, &xb, &mut yb);
            }
        });
        eprintln!("[profile] patched view block iter: {:.1} ms", dt.as_secs_f64() * 100.0);
        let (_, dt) = tpa_eval::time(|| {
            let mut g2 = DynamicGraph::new(base.clone());
            g2.apply(&batch);
            std::hint::black_box(g2.snapshot());
        });
        eprintln!("[profile] apply+snapshot: {:.1} ms", dt.as_secs_f64() * 1000.0);
        return;
    }

    // --- Publish latency: CoW patch snapshots vs full-rebuild
    // publishes. Small batches land on the overlay and each one is
    // frozen into an epoch; rebuilds are sampled sparsely (they cost
    // O(n + m) each). ---
    let publish_rounds = if tpa_bench::harness::quick() { 24 } else { 48 };
    let mut pub_t =
        DynamicTransition::new(DynamicGraph::new(base.clone()).with_compact_threshold(None));
    let cow_hist = Histogram::new();
    let rebuild_hist = Histogram::new();
    let publish_started = std::time::Instant::now();
    for round in 0..publish_rounds {
        let small = make_update_batch(&base, 16, &mut rng);
        pub_t.apply(&small);
        let (snap, dt) = tpa_eval::time(|| pub_t.publish_patched());
        std::hint::black_box(snap.delta_edges());
        cow_hist.record_duration(dt);
        if round % 8 == 0 {
            let (full, dt) = tpa_eval::time(|| pub_t.graph().snapshot());
            std::hint::black_box(full.m());
            rebuild_hist.record_duration(dt);
        }
    }
    let epochs_per_sec = publish_rounds as f64 / publish_started.elapsed().as_secs_f64();
    let cow_p50 = ns_to_secs(cow_hist.quantile(0.50));
    let cow_p99 = ns_to_secs(cow_hist.quantile(0.99));
    let rebuild_p50 = ns_to_secs(rebuild_hist.quantile(0.50));
    let publish_speedup = rebuild_p50 / cow_p99.max(1e-12);
    eprintln!(
        "[dynamic_updates] publish: {epochs_per_sec:.0} epochs/sec, CoW p50 {} p99 {}, \
         rebuild p50 {} ({publish_speedup:.0}x at p99)",
        tpa_eval::format_secs(cow_p50),
        tpa_eval::format_secs(cow_p99),
        tpa_eval::format_secs(rebuild_p50),
    );

    // --- Incremental maintenance, exact and approximate: one publish
    // of the batch on a service whose score cache pins the working set.
    // Compaction runs in the background and never touches a published
    // epoch, so it is switched off here to keep stray rebuild threads
    // out of the timings. ---
    let mut results = Vec::new();
    for (label, mode) in [
        ("incremental-exact", MaintenanceMode::Exact),
        ("incremental-approx", MaintenanceMode::Approximate { tolerance: APPROX_TOLERANCE }),
    ] {
        let service =
            ServiceBuilder::dynamic(DynamicGraph::new(base.clone()).with_compact_threshold(None))
                .score_cache(seeds.clone(), mode)
                .cpi_config(cfg)
                .build()
                .expect("valid serving configuration");
        let (outcome, dt) = tpa_eval::time(|| service.apply_updates(&batch));
        outcome.expect("dynamic service accepts updates");
        let lanes: Vec<Vec<f64>> = seeds
            .iter()
            .map(|&s| {
                let resp = service.submit(&QueryRequest::single(s).exact()).unwrap();
                assert!(resp.cached, "seed {s} must be served from the cache");
                resp.result.into_scores().pop().unwrap()
            })
            .collect();
        results.push((label, dt.as_secs_f64(), lanes));
    }

    // --- Rebuild-and-requery baseline (same final graph state; the
    // requery uses the same fused block kernel the refresh does, so the
    // comparison isolates incremental-vs-from-scratch, not batching). ---
    let (rebuild_scores, rebuild_secs) = {
        let mut g = DynamicGraph::new(base.clone());
        g.apply(&batch);
        let (scores, dt) = tpa_eval::time(|| {
            let snapshot = g.snapshot();
            let t = Transition::new(&snapshot);
            cpi_batch(&t, &seeds, &cfg, 0, None).into_lanes()
        });
        (scores, dt.as_secs_f64())
    };

    // --- Accuracy + report. ---
    let mut table = Table::new(
        format!(
            "Dynamic updates on R-MAT n={n} m={m} ({} updates, {SEEDS} cached seeds)",
            batch.len()
        ),
        &["path", "seconds", "speedup_vs_rebuild", "max_L1_vs_rebuild"],
    );
    table.row(&[
        "rebuild+requery".into(),
        format!("{rebuild_secs:.4}"),
        "1.00x".into(),
        "0".into(),
    ]);
    table.row(&[
        "publish-cow-p99".into(),
        format!("{cow_p99:.6}"),
        format!("{publish_speedup:.2}x"),
        "-".into(),
    ]);
    table.row(&[
        "publish-rebuild-p50".into(),
        format!("{rebuild_p50:.6}"),
        "1.00x".into(),
        "-".into(),
    ]);
    let mut json_rows = Vec::new();
    for (label, secs, lanes) in &results {
        let max_l1 = lanes
            .iter()
            .zip(&rebuild_scores)
            .map(|(lane, fresh)| lane.iter().zip(fresh).map(|(a, b)| (a - b).abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        let speedup = rebuild_secs / secs;
        table.row(&[
            label.to_string(),
            format!("{secs:.4}"),
            format!("{speedup:.2}x"),
            format!("{max_l1:.2e}"),
        ]);
        json_rows.push((label.to_string(), *secs, speedup, max_l1));
    }
    print!("{}", table.render());

    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    table.write_csv(dir.join("dynamic_updates.csv")).unwrap();

    // Trajectory record for later PRs.
    let mut report = BenchReport::new("dynamic_updates")
        .field("graph", format!("{{\"generator\": \"rmat\", \"n\": {n}, \"m\": {m}}}"))
        .field("update_batch", batch.len().to_string())
        .field("cached_seeds", SEEDS.to_string())
        .field("update_throughput_per_sec", format!("{throughput:.0}"))
        .field(
            "publish",
            format!(
                "{{\"epochs_per_sec\": {epochs_per_sec:.1}, \"cow_p50_secs\": {cow_p50:.8}, \
                 \"cow_p99_secs\": {cow_p99:.8}, \"rebuild_p50_secs\": {rebuild_p50:.8}, \
                 \"p99_speedup_vs_rebuild\": {publish_speedup:.2}}}"
            ),
        )
        .field("rebuild_requery_secs", format!("{rebuild_secs:.6}"));
    for (label, secs, speedup, max_l1) in &json_rows {
        report = report.field(
            label,
            format!(
                "{{\"secs\": {secs:.6}, \"speedup_vs_rebuild\": {speedup:.3}, \
                 \"max_l1_vs_rebuild\": {max_l1:.3e}}}"
            ),
        );
    }
    report.write("BENCH_dynamic.json");

    let exact_speedup = json_rows
        .iter()
        .find(|(l, ..)| l == "incremental-exact")
        .map(|(_, _, s, _)| *s)
        .unwrap_or(0.0);
    eprintln!(
        "[dynamic_updates] exact incremental speedup: {exact_speedup:.2}x {}",
        if exact_speedup > 1.0 { "(PASS, > 1x)" } else { "(FAIL, <= 1x)" }
    );
    eprintln!(
        "[dynamic_updates] publish p99 speedup vs rebuild: {publish_speedup:.1}x {}",
        if publish_speedup >= 10.0 { "(PASS, >= 10x)" } else { "(FAIL, < 10x)" }
    );
    // Hard floor for the CI smoke run: a CoW publish within 5x of a
    // full rebuild means the publish path scales with the graph again.
    if publish_speedup < 5.0 {
        eprintln!("[dynamic_updates] ERROR: publish path is no longer O(batch)");
        std::process::exit(1);
    }
}

/// Builds the update batch: half deletes sampled evenly from existing
/// edges, half inserts of fresh random pairs (collisions with existing
/// edges become no-ops, matching a real stream).
fn make_update_batch(g: &tpa_graph::CsrGraph, k: usize, rng: &mut StdRng) -> Vec<EdgeUpdate> {
    let n = g.n();
    let mut batch = Vec::with_capacity(k);
    let deletes = k / 2;
    let stride = (g.m() / deletes.max(1)).max(1);
    for (u, v) in g.edges().step_by(stride).take(deletes) {
        batch.push(EdgeUpdate::Delete(u, v));
    }
    while batch.len() < k {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        batch.push(EdgeUpdate::Insert(u, v));
    }
    batch
}
