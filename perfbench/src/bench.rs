//! One benchmark run: build the service, drive the workload's load for
//! the run's length, check the answers, and compute the metrics.

use crate::inputs::{Inputs, Read, ReadKind, Workload};
use crate::probe::{scale, Probe, ProbeLog};
use crate::replay::{indexed_top_k, SweepCounts};
use crate::stats::{mean, median, ms, peak_rss_mb, quantile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpa_core::bounds::total_bound;
use tpa_core::{
    top_k_scored, CpiConfig, MaintenanceMode, Propagator, QueryRequest, QueryResponse, RwrService,
    ServiceBuilder, Snapshot, TpaIndex, TpaParams, Transition,
};
use tpa_graph::{CsrGraph, DynamicGraph, NodeId};

pub const K: usize = 20;
pub const PARAMS: TpaParams = TpaParams { c: 0.15, eps: 1e-9, s: 5, t: 10 };
/// Hot-seed cache lanes are refreshed under this tolerance on `churn`.
pub const CACHE_TOLERANCE: f64 = 1e-4;
/// Service builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;
/// Probe passes run just before and just after each build.
const SETUP_PASSES: usize = 8;
/// Untimed reads before the measured loop.
const WARMUP_READS: usize = 8;
/// Reads checked against exact CPI after the run: the first read after
/// each of `SAMPLES` evenly spaced moments of the run.
const SAMPLES: u32 = 16;
/// The reader runs a probe pass once this long has passed since the
/// last one, unless the writer is busy.
const PROBE_EVERY: Duration = Duration::from_millis(25);
/// p99 is reported only from at least this many reads.
pub const MIN_READS_FOR_P99: usize = 1_000;
/// `churn` writer: one batch per period, `patch_index` every
/// `PATCH_EVERY` batches.
pub const BATCH_PERIOD: Duration = Duration::from_millis(50);
pub const PATCH_EVERY: usize = 50;
/// `churn` batches applied before the measured run, back to back. They
/// cross the default 2% compaction trigger once (after ~650 batches of
/// 32 net delta edges), so the measured run starts on a freshly compacted
/// base with a small overlay, and the overlay regrows through the
/// trigger about every 17 s inside the run.
pub const PRELOAD_BATCHES: usize = 700;
/// Writer span request ids start here, apart from read ids.
const WRITER_REQ: u64 = 1 << 40;
/// Kernel repetitions behind `transition.spmv_ms` / `patch.spmv_ms`.
const SPMV_REPS: usize = 21;

/// Per-layer metrics of the `churn` writer and hot-seed cache: zero on
/// the read-only workloads, which have neither.
const CHURN_ONLY_METRICS: [&str; 11] = [
    "publish_p50_ms",
    "publish_p99_ms",
    "service.publish_ms_p50",
    "service.publish_ms_p99",
    "service.patch_index_ms",
    "service.schedule_lag_ms_max",
    "dynamic.delta_sources",
    "dynamic.drift",
    "patch.spmv_ms",
    "service.cache_hit_share",
    "service.compactions",
];

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run prints: checks, counts and named metrics.
#[derive(Default)]
pub struct Outcome {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let batches =
        PRELOAD_BATCHES + (cfg.seconds as usize + 1) * 1000 / BATCH_PERIOD.as_millis() as usize;
    let inputs = Inputs::generate(
        cfg.workload,
        cfg.seed,
        crate::inputs::N,
        crate::inputs::M_TARGET,
        batches,
    );
    let generated = epoch.elapsed();
    let g = &inputs.graph;
    let updates: usize = inputs.batches.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "input n={} m={} cold_pool={} ({:.3} of nodes) global_pool={} hot_seeds={:?} reads_generated={} \
         update_batches={} updates={} fingerprint={:016x}",
        g.n(),
        g.m(),
        inputs.cold.len(),
        inputs.cold.len() as f64 / g.n() as f64,
        inputs.global.len(),
        inputs.hot,
        inputs.reads.len(),
        inputs.batches.len(),
        updates,
        inputs.fingerprint()
    ));

    // Set-up: the median of several full builds, each scaled to the
    // reference host speed by the probe passes around it; the last build
    // serves.
    let mut probe = Probe::new();
    let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
    let mut service = None;
    for _ in 0..SETUP_BUILDS {
        drop(service.take());
        let builder = builder(cfg.workload, g.clone(), &inputs.hot);
        let mut passes: Vec<f64> = (0..SETUP_PASSES).map(|_| probe.pass()).collect();
        let t = Instant::now();
        let built = builder.build();
        let raw = t.elapsed().as_secs_f64();
        passes.extend((0..SETUP_PASSES).map(|_| probe.pass()));
        setup_raw.push(raw);
        setup.push(raw * scale(&passes));
        match built {
            Ok(s) => service = Some(s),
            Err(e) => {
                out.failures.push(format!("service build failed: {e}"));
                return out;
            }
        }
    }
    let service = service.expect("at least one build ran");
    out.notes.push(format!("setup raw builds_s={setup_raw:?} scaled={setup:?}"));
    out.e2e.insert("setup_s", median(&setup));

    let mut tracer = Tracer::new(cfg.trace, epoch);
    if cfg.trace {
        layer_setup_metrics(&service, g, &mut out);
    }
    for r in inputs.reads.iter().rev().take(WARMUP_READS) {
        let _ = service.submit(&request(r));
    }
    if cfg.workload == Workload::Churn {
        let t = Instant::now();
        let preload = &inputs.batches[..PRELOAD_BATCHES];
        let applied = preload.iter().all(|b| service.apply_updates(b).is_ok());
        out.check(applied && service.patch_index().is_ok(), || "preloading updates failed".into());
        // A rebuild still in flight is installed now, not in the run.
        let flushed = service.flush_compaction();
        out.notes.push(format!(
            "preloaded {PRELOAD_BATCHES} batches in {:.3} s (rebuild installed at the end: {flushed})",
            t.elapsed().as_secs_f64()
        ));
    }

    let writer_busy = AtomicBool::new(false);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs(cfg.seconds);
    let (reader, writer) = std::thread::scope(|s| {
        let writer = (cfg.workload == Workload::Churn).then(|| {
            let (service, busy) = (&service, &writer_busy);
            let batches = &inputs.batches[PRELOAD_BATCHES..];
            let trace = cfg.trace;
            s.spawn(move || writer_loop(service, batches, busy, t0, end, Tracer::new(trace, epoch)))
        });
        let reader =
            reader_loop(&service, &inputs.reads, &mut probe, &writer_busy, t0, end, &mut tracer);
        (reader, writer.map(|h| h.join().expect("writer thread panicked")))
    });
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    out.attempted += reader.reads;
    out.failed += reader.failed;
    // Untraced reads at the reference host speed (see `probe`).
    let lat: Vec<f64> = reader.untraced.iter().map(|&(_, ms)| ms).collect();
    let scaled: Vec<f64> =
        reader.untraced.iter().map(|&(at, ms)| ms * reader.probes.scale_at(at)).collect();
    out.e2e.insert("read_rps_ref", scaled.len() as f64 * 1e3 / scaled.iter().sum::<f64>());
    out.e2e.insert("read_p50_ref_ms", median(&scaled));
    if lat.len() >= MIN_READS_FOR_P99 {
        out.e2e.insert("read_p99_ref_ms", quantile(&scaled, 0.99));
    } else if !cfg.trace {
        out.failures.push(format!(
            "only {} timed reads; read_p99_ref_ms needs at least {MIN_READS_FOR_P99}",
            lat.len()
        ));
    }
    let elapsed = (reader.finished - t0).as_secs_f64();
    let probe_p50 = median(&reader.probes.ms);
    out.layer.insert("probe.pass_ms_p50", probe_p50);
    out.notes.push(format!(
        "raw (unscaled): read_rps={:.4} read_p50_ms={:.4} read_p99_ms={:.4}; probe passes={} \
         pass_ms p10/p50/p90={:.3}/{probe_p50:.3}/{:.3} (reference {})",
        reader.reads as f64 / elapsed,
        median(&lat),
        quantile(&lat, 0.99),
        reader.probes.ms.len(),
        quantile(&reader.probes.ms, 0.1),
        quantile(&reader.probes.ms, 0.9),
        crate::probe::REF_MS
    ));
    let deciles: Vec<String> =
        (1..=9).map(|d| format!("{:.3}", quantile(&lat, d as f64 / 10.0))).collect();
    out.notes.push(format!("read_ms_deciles=[{}]", deciles.join(", ")));
    out.notes.push(format!(
        "reads={} timed_untraced={} failed={} traced={} hot_reads={} hot_cached={}",
        reader.reads,
        lat.len(),
        reader.failed,
        reader.traced_ms.len(),
        reader.hot_reads,
        reader.hot_cached
    ));
    out.check(reader.hot_cached == reader.hot_reads, || {
        format!(
            "{} of {} hot-seed reads missed the cache",
            reader.hot_reads - reader.hot_cached,
            reader.hot_reads
        )
    });

    let checks = Instant::now();
    check_samples(&reader.samples, &mut out);

    match writer {
        Some(w) => {
            let hits = reader.hot_cached as f64 / reader.hot_reads.max(1) as f64;
            out.layer.insert("service.cache_hit_share", hits);
            // Joins a background rebuild still in flight, so no thread
            // outlives the run.
            let installed_at_end = service.flush_compaction();
            let failures = service.compaction_failures();
            let installed = w.compactions_finished.saturating_sub(failures);
            out.notes.push(format!(
                "background compactions: started={} installed_during_run={installed} \
                 installed_at_end={installed_at_end} failed={failures}",
                w.compactions_started
            ));
            out.check(installed >= 1 && failures == 0, || {
                format!("{installed} background compactions installed during the run, {failures} failed; expected at least one and none failed")
            });
            out.layer.insert("service.compactions", installed as f64);
            writer_metrics(&service, &w, &inputs.hot, &mut out);
            if let Some(t) = w.tracer {
                tracer.absorb(t);
            }
        }
        None => {
            for name in CHURN_ONLY_METRICS {
                out.layer.insert(name, 0.0);
            }
        }
    }
    out.notes.push(format!(
        "phases: inputs_s={:.3} setup_total_s={:.3} measured_s={elapsed:.3} checks_s={:.3}",
        generated.as_secs_f64(),
        setup_raw.iter().sum::<f64>(),
        checks.elapsed().as_secs_f64()
    ));
    if cfg.trace {
        out.check(reader.mismatches == 0, || {
            format!("{} replayed reads differ from their submit answer", reader.mismatches)
        });
        if let Err(e) = tracer.check_nesting() {
            out.failures.push(e);
        }
        read_layer_metrics(&tracer, &reader, &mut out);
        out.tracer = Some(tracer);
    }
    out
}

fn builder(workload: Workload, g: CsrGraph, hot: &[NodeId]) -> ServiceBuilder {
    match workload {
        Workload::TopkGlobal | Workload::TopkCold => {
            ServiceBuilder::in_memory(g).preprocess(PARAMS)
        }
        Workload::Churn => ServiceBuilder::dynamic(DynamicGraph::new(g))
            .preprocess(PARAMS)
            .score_cache(hot.to_vec(), MaintenanceMode::Approximate { tolerance: CACHE_TOLERANCE }),
    }
}

fn request(r: &Read) -> QueryRequest {
    match r.kind {
        ReadKind::Indexed => QueryRequest::single(r.seed).top_k(K),
        ReadKind::HotExact => QueryRequest::single(r.seed).top_k(K).exact(),
    }
}

fn ranking(resp: QueryResponse) -> Vec<(NodeId, f64)> {
    resp.result.into_ranked().pop().unwrap_or_default()
}

fn bit_identical(a: &[(NodeId, f64)], b: &[(NodeId, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// A served read kept for the checks, with the snapshot that served it.
struct Sample {
    snap: Arc<Snapshot<'static>>,
    read: Read,
    answer: Vec<(NodeId, f64)>,
}

struct ReaderOut {
    /// When the last read returned.
    finished: Instant,
    reads: u64,
    failed: u64,
    /// Start and latency of untraced reads (all reads when tracing is
    /// off; every other read when it is on).
    untraced: Vec<(Instant, f64)>,
    /// Host-speed probe passes made between reads.
    probes: ProbeLog,
    /// Latency of traced reads: pin + submit, with their spans.
    traced_ms: Vec<f64>,
    hot_reads: u64,
    hot_cached: u64,
    samples: Vec<Sample>,
    sweeps: Vec<SweepCounts>,
    mismatches: u64,
    /// Traced reads not replayed: a publish landed between the pins.
    unreplayed: u64,
}

/// One closed-loop client: sends the stream's next read as soon as the
/// previous one returns, until `end`. With tracing on, every other read
/// is traced and replayed layer by layer on the snapshot that served it;
/// the reads in between stay untraced, for the overhead comparison.
/// Between reads it runs a probe pass every `PROBE_EVERY`, skipped while
/// the writer is inside a call, so the probe sees the host and not this
/// process's own writes.
fn reader_loop(
    service: &RwrService,
    reads: &[Read],
    probe: &mut Probe,
    writer_busy: &AtomicBool,
    t0: Instant,
    end: Instant,
    tracer: &mut Tracer,
) -> ReaderOut {
    let mut last_probe = t0 - PROBE_EVERY;
    let sample_every = (end - t0) / SAMPLES;
    let mut out = ReaderOut {
        finished: Instant::now(),
        reads: 0,
        failed: 0,
        untraced: Vec::new(),
        probes: ProbeLog::default(),
        traced_ms: Vec::new(),
        hot_reads: 0,
        hot_cached: 0,
        samples: Vec::new(),
        sweeps: Vec::new(),
        mismatches: 0,
        unreplayed: 0,
    };
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        // ord: a hint only; a stale read costs one skipped or extra pass
        if now - last_probe >= PROBE_EVERY && !writer_busy.load(Ordering::Relaxed) {
            let pass = probe.pass();
            out.probes.push(now, pass);
            last_probe = now;
        }
        let r = reads[i % reads.len()];
        let req = request(&r);
        let traced = tracer.enabled && i.is_multiple_of(2);
        let sampled = Instant::now() >= t0 + sample_every * out.samples.len() as u32
            && out.samples.len() < SAMPLES as usize;
        let id = i as u64;
        i += 1;
        let (pinned, result) = if traced {
            let root = tracer.open("read", None, id);
            let pinned = tracer.time("service.pin", root, id, || service.snapshot());
            let result = tracer.time("service.submit", root, id, || service.submit(&req));
            tracer.close(root);
            out.traced_ms.push(tracer.spans()[root.expect("tracing is on")].ms());
            (Some(pinned), result)
        } else {
            let pinned = sampled.then(|| service.snapshot());
            let t = Instant::now();
            let result = service.submit(&req);
            out.untraced.push((t, ms(t.elapsed())));
            (pinned, result)
        };
        out.reads += 1;
        let resp = match result {
            Ok(resp) => resp,
            Err(_) => {
                out.failed += 1;
                continue;
            }
        };
        if r.kind == ReadKind::HotExact {
            out.hot_reads += 1;
            out.hot_cached += resp.cached as u64;
        }
        let served_epoch = resp.epoch;
        let answer = ranking(resp);
        // The snapshot that served the read: pinned just before submit,
        // or the one published while it ran.
        let snap = pinned.and_then(|p| {
            if p.epoch() == served_epoch {
                Some(p)
            } else {
                Some(service.snapshot()).filter(|s| s.epoch() == served_epoch)
            }
        });
        if traced && r.kind == ReadKind::Indexed {
            match &snap {
                Some(snap) => {
                    let root = tracer.open("replay", None, id);
                    let replayed = indexed_top_k(snap, r.seed, K, tracer, root, id);
                    tracer.close(root);
                    match replayed {
                        Some((top, counts)) => {
                            out.mismatches += !bit_identical(&top, &answer) as u64;
                            out.sweeps.push(counts);
                        }
                        None => out.mismatches += 1,
                    }
                }
                None => out.unreplayed += 1,
            }
        }
        if sampled {
            if let Some(snap) = snap {
                out.samples.push(Sample { snap, read: r, answer });
            }
        }
    }
    out.finished = Instant::now();
    out
}

/// Checks each sampled answer after the run, two seeds at a time: the
/// top-k equals `top_k_scored` of the full answer on the same snapshot,
/// an indexed answer is within Theorem 2's bound of exact CPI, and
/// `l1_error_mean` / `recall_at_20` come from the same exact runs.
fn check_samples(samples: &[Sample], out: &mut Outcome) {
    let exact_cfg = CpiConfig::default();
    let results: Vec<Result<Option<(f64, f64)>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = samples
            .chunks(samples.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || chunk.iter().map(|x| check_one(x, &exact_cfg)).collect::<Vec<_>>())
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("check worker panicked")).collect()
    });
    let (mut l1s, mut recalls) = (Vec::new(), Vec::new());
    for r in results {
        match r {
            Ok(Some((l1, recall))) => {
                l1s.push(l1);
                recalls.push(recall);
            }
            Ok(None) => {}
            Err(e) => out.failures.push(e),
        }
    }
    out.check(!l1s.is_empty(), || "no indexed read was sampled for the accuracy checks".into());
    out.notes.push(format!("checked_samples={} accuracy_samples={}", samples.len(), l1s.len()));
    out.e2e.insert("l1_error_mean", mean(&l1s));
    out.e2e.insert("recall_at_20", mean(&recalls));
}

/// `Ok(Some((l1, recall)))` for an indexed sample, `Ok(None)` for a
/// hot-seed sample (only its top-k identity is checked).
fn check_one(x: &Sample, exact_cfg: &CpiConfig) -> Result<Option<(f64, f64)>, String> {
    let seed = x.read.seed;
    let fail = |what: &str| format!("seed {seed}: {what}");
    let full_req = match x.read.kind {
        ReadKind::Indexed => QueryRequest::single(seed),
        ReadKind::HotExact => QueryRequest::single(seed).exact(),
    };
    let full = x.snap.run(&full_req).map_err(|e| fail(&e.to_string()))?;
    let full = full.result.into_scores().pop().unwrap_or_default();
    if !bit_identical(&top_k_scored(&full, K), &x.answer) {
        return Err(fail("top-k differs from top_k_scored of the full answer on its snapshot"));
    }
    if x.read.kind == ReadKind::HotExact {
        return Ok(None);
    }
    // A per-request ε (the default one) bypasses the hot-seed cache.
    let exact = x
        .snap
        .run(&QueryRequest::single(seed).exact().with_epsilon(exact_cfg.eps))
        .map_err(|e| fail(&e.to_string()))?;
    let exact = exact.result.into_scores().pop().unwrap_or_default();
    let l1: f64 = full.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum();
    let bound = total_bound(PARAMS.c, PARAMS.s) + exact_cfg.eps / exact_cfg.c;
    if l1 > bound {
        return Err(fail(&format!("L1 error {l1} exceeds Theorem 2's bound {bound}")));
    }
    // Recall against the exact top-k's positive-score nodes: zero scores
    // tie, so they rank nothing.
    let truth: Vec<NodeId> =
        top_k_scored(&exact, K).into_iter().filter(|p| p.1 > 0.0).map(|p| p.0).collect();
    let hit = truth.iter().filter(|v| x.answer.iter().any(|p| p.0 == **v)).count();
    Ok(Some((l1, hit as f64 / truth.len().max(1) as f64)))
}

#[derive(Default)]
struct WriterOut {
    attempted: u64,
    failed: u64,
    /// Due time to the return of `apply_updates`.
    due_ms: Vec<f64>,
    /// `apply_updates` service time alone.
    service_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    patch_ms: Vec<f64>,
    drift_max: f64,
    delta_sources: Vec<f64>,
    /// Publishes that refreshed the cache lanes.
    refreshes: u64,
    /// Background compactions seen to start, and to finish (installed
    /// or failed), by polling after each publish.
    compactions_started: u64,
    compactions_finished: u64,
    tracer: Option<Tracer>,
}

/// Open-loop writer: batch `i` is due at `t0 + i·BATCH_PERIOD`, whether
/// or not the previous one has returned. `busy` is set while it is
/// inside a service call.
fn writer_loop(
    service: &RwrService,
    batches: &[Vec<tpa_graph::EdgeUpdate>],
    busy: &AtomicBool,
    t0: Instant,
    end: Instant,
    mut tracer: Tracer,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut compacting = service.compaction_pending();
    for (i, batch) in batches.iter().enumerate() {
        let due = t0 + BATCH_PERIOD * i as u32;
        if due >= end {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        // ord: a hint for the reader's probe only
        busy.store(true, Ordering::Relaxed);
        let start = Instant::now();
        let id = WRITER_REQ + i as u64;
        out.attempted += 1;
        let result =
            tracer.time("service.apply_updates", None, id, || service.apply_updates(batch));
        let done = Instant::now();
        let pending = service.compaction_pending();
        out.compactions_started += (pending && !compacting) as u64;
        out.compactions_finished += (!pending && compacting) as u64;
        compacting = pending;
        out.due_ms.push(ms(done - due));
        out.service_ms.push(ms(done - start));
        out.lag_ms.push(ms(start - due));
        match result {
            Ok(o) => {
                out.delta_sources.push(o.report.delta.sources.len() as f64);
                out.refreshes += !o.report.delta.sources.is_empty() as u64;
            }
            Err(_) => out.failed += 1,
        }
        if (i + 1) % PATCH_EVERY == 0 {
            out.drift_max = out.drift_max.max(service.accumulated_drift());
            out.attempted += 1;
            let t = Instant::now();
            let patched = tracer.time("service.patch_index", None, id, || service.patch_index());
            out.patch_ms.push(ms(t.elapsed()));
            out.failed += patched.is_err() as u64;
        }
        // ord: a hint for the reader's probe only
        busy.store(false, Ordering::Relaxed);
    }
    out.tracer = Some(tracer);
    out
}

fn writer_metrics(service: &RwrService, w: &WriterOut, hot: &[NodeId], out: &mut Outcome) {
    out.attempted += w.attempted;
    out.failed += w.failed;
    out.layer.insert("publish_p50_ms", median(&w.due_ms));
    out.layer.insert("publish_p99_ms", quantile(&w.due_ms, 0.99));
    out.layer.insert("service.publish_ms_p50", median(&w.service_ms));
    out.layer.insert("service.publish_ms_p99", quantile(&w.service_ms, 0.99));
    out.layer.insert("service.patch_index_ms", median(&w.patch_ms));
    out.layer.insert("service.schedule_lag_ms_max", quantile(&w.lag_ms, 1.0));
    out.layer.insert("dynamic.delta_sources", mean(&w.delta_sources));
    out.layer.insert("dynamic.drift", w.drift_max);
    // Backlog of a patch cycle: how many whole batch periods the writer
    // was still behind at its best moment in the cycle. A writer that
    // keeps up catches up once per cycle (0); one that cannot falls
    // further behind from cycle to cycle.
    let backlog: Vec<u64> = w
        .lag_ms
        .chunks_exact(PATCH_EVERY)
        .map(|c| (quantile(c, 0.0) / ms(BATCH_PERIOD)) as u64)
        .collect();
    out.notes.push(format!(
        "publishes={} patch_index_calls={} refreshes={} publish_p50_ms={} publish_p99_ms={} \
         backlog_per_cycle={backlog:?}",
        w.due_ms.len(),
        w.patch_ms.len(),
        w.refreshes,
        median(&w.due_ms),
        quantile(&w.due_ms, 0.99),
    ));
    out.notes.push(format!(
        "writer cycles: patch_ms={:?} max_publish_ms={:?}",
        w.patch_ms.iter().map(|v| v.round()).collect::<Vec<_>>(),
        w.service_ms
            .chunks_exact(PATCH_EVERY)
            .map(|c| quantile(c, 1.0).round())
            .collect::<Vec<_>>()
    ));

    // Open-loop honesty: the writer may not be further behind in the
    // last cycle than in the mid-run one.
    match (backlog.get(backlog.len() / 2), backlog.last()) {
        (Some(&mid), Some(&last)) if backlog.len() >= 2 => out.check(last <= mid, || {
            format!("writer backlog grew from {mid} batches at mid-run to {last} at the end")
        }),
        _ => {
            out.failures.push("churn ran too few patch cycles to judge the writer's backlog".into())
        }
    }

    // Cached hot-seed lanes stay within the refresh tolerance of a cold
    // exact query on the final snapshot.
    let cfg = CpiConfig::default();
    let bound = w.refreshes as f64 * 2.0 * CACHE_TOLERANCE / cfg.c + 2.0 * cfg.eps / cfg.c;
    let snap = service.snapshot();
    if let Some(cache) = snap.score_cache() {
        out.check(!cache.is_empty(), || "score cache holds no lanes".into());
    }
    let lane_check = |h: NodeId| -> Result<(), String> {
        let cached = snap.run(&QueryRequest::single(h).exact());
        let cold = snap.run(&QueryRequest::single(h).exact().with_epsilon(cfg.eps));
        match (cached, cold) {
            (Ok(a), Ok(b)) if a.cached && !b.cached => {
                let a = a.result.into_scores().pop().unwrap_or_default();
                let b = b.result.into_scores().pop().unwrap_or_default();
                let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
                if l1 <= bound {
                    Ok(())
                } else {
                    Err(format!("hot seed {h}: cached lane is {l1} (L1) from exact, over {bound}"))
                }
            }
            _ => Err(format!("hot seed {h}: the cached or the cold exact query failed")),
        }
    };
    let (hot_a, hot_b) = hot.split_at(hot.len() / 2);
    let results = std::thread::scope(|s| {
        let other = s.spawn(|| hot_b.iter().map(|&h| lane_check(h)).collect::<Vec<_>>());
        let mut mine: Vec<_> = hot_a.iter().map(|&h| lane_check(h)).collect();
        mine.extend(other.join().expect("lane check panicked"));
        mine
    });
    out.failures.extend(results.into_iter().filter_map(Result::err));

    if let tpa_core::EngineBackend::Patched(p) = snap.backend() {
        out.layer.insert("patch.spmv_ms", spmv_ms(p));
    }
}

/// Median time of one `y ← (1−c)·Ãᵀx` on `backend`.
fn spmv_ms<P: Propagator + ?Sized>(backend: &P) -> f64 {
    let n = backend.n();
    let x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let times: Vec<f64> = (0..SPMV_REPS)
        .map(|_| {
            let t = Instant::now();
            backend.propagate_into(1.0 - PARAMS.c, std::hint::black_box(&x), &mut y);
            std::hint::black_box(&y);
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// Per-layer set-up figures, taken once before the load starts.
fn layer_setup_metrics(service: &RwrService, g: &CsrGraph, out: &mut Outcome) {
    let snap = service.snapshot();
    let t = Instant::now();
    let index = TpaIndex::preprocess_on(snap.backend(), PARAMS);
    std::hint::black_box(&index);
    out.layer.insert("tpa.preprocess_s", t.elapsed().as_secs_f64());
    let spmv = spmv_ms(&Transition::new(g));
    // Bytes one pull-gather SpMV moves: offsets and outputs per node,
    // source id plus x[u] and 1/outdeg[u] per edge.
    let (n, m) = (g.n() as f64, g.m() as f64);
    let bytes = 8.0 * (n + 1.0) + 8.0 * n + (4.0 + 8.0 + 8.0) * m;
    out.layer.insert("transition.spmv_ms", spmv);
    out.layer.insert("transition.spmv_gbps", bytes / (spmv * 1e-3) / 1e9);
}

/// Stage times of one traced, replayed read, in ms.
#[derive(Default)]
struct Stages {
    submit: f64,
    family: f64,
    scan: f64,
    finish: f64,
    unpermute: f64,
    select: f64,
}

fn read_layer_metrics(tracer: &Tracer, reader: &ReaderOut, out: &mut Outcome) {
    let mut per_req: BTreeMap<u64, Stages> = BTreeMap::new();
    let (mut pin_us, mut iter_ms) = (Vec::new(), Vec::new());
    for s in tracer.spans() {
        let st = per_req.entry(s.req).or_default();
        match s.name {
            "service.pin" => pin_us.push(s.ms() * 1e3),
            "service.submit" => st.submit += s.ms(),
            "tpa.family" => st.family += s.ms(),
            "trace.scan" => st.scan += s.ms(),
            "cpi.iter" => iter_ms.push(s.ms()),
            "tpa.finish" => st.finish += s.ms(),
            "reorder.unpermute" => st.unpermute += s.ms(),
            "engine.select" => st.select += s.ms(),
            _ => {}
        }
    }
    let replayed: Vec<&Stages> = per_req.values().filter(|s| s.family > 0.0).collect();
    let col = |f: &dyn Fn(&Stages) -> f64| replayed.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let family = col(&|s| s.family - s.scan);
    let self_ms = col(&|s| s.submit - (s.family - s.scan + s.finish + s.unpermute + s.select));
    let submit_total: f64 = col(&|s| s.submit).iter().sum();
    out.layer.insert("service.pin_us_p50", median(&pin_us));
    out.layer.insert("service.pin_us_p99", quantile(&pin_us, 0.99));
    out.layer.insert("service.self_ms_p50", median(&self_ms));
    out.layer.insert("tpa.family_ms_p50", median(&family));
    out.layer.insert("tpa.family_ms_p99", quantile(&family, 0.99));
    out.layer.insert(
        "tpa.family_share",
        family.iter().sum::<f64>() / submit_total.max(f64::MIN_POSITIVE),
    );
    out.layer.insert("tpa.finish_ms_p50", median(&col(&|s| s.finish)));
    out.layer.insert("reorder.unpermute_ms_p50", median(&col(&|s| s.unpermute)));
    out.layer.insert("engine.select_ms_p50", median(&col(&|s| s.select)));
    let sweeps = &reader.sweeps;
    out.layer.insert(
        "cpi.iterations",
        median(&sweeps.iter().map(|c| c.iterations as f64).collect::<Vec<_>>()),
    );
    out.layer.insert("cpi.iter_ms_p50", median(&iter_ms));
    out.layer.insert(
        "cpi.support_nodes",
        median(&sweeps.iter().map(|c| c.support_nodes as f64).collect::<Vec<_>>()),
    );
    let untraced = median(&reader.untraced.iter().map(|&(_, ms)| ms).collect::<Vec<_>>());
    out.layer.insert("trace.overhead", median(&reader.traced_ms) / untraced - 1.0);
    out.layer.insert("trace.replayed_reads", replayed.len() as f64);
    out.notes.push(format!(
        "traced_reads={} replayed={} unreplayed={} spans={}",
        reader.traced_ms.len(),
        replayed.len(),
        reader.unreplayed,
        tracer.spans().len()
    ));
}
