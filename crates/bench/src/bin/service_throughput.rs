//! Multi-threaded serving throughput: reader QPS against an
//! `Arc<RwrService>` with an edge-update stream in flight.
//!
//! Two measurements:
//!
//! 1. **Reader QPS** at 1/2/4 reader threads, first on a quiet service,
//!    then with a writer thread continuously applying update batches
//!    (each one publishing a new snapshot epoch). On a multi-core host
//!    reader QPS should scale with threads and stay close to the quiet
//!    numbers — the epoch swap never serializes readers behind the
//!    writer. (On a single-core host parallel scaling is physically
//!    impossible; the numbers are still recorded, and the verdict comes
//!    from the stall probe below.)
//!
//! 1b. **Publish latency** — writer-side `apply_updates` timings
//!    (p50/p99 plus epochs/sec). Every batch publishes a copy-on-write
//!    patch snapshot in `O(batch)`; the p99 stays flat in `n` because no
//!    publish ever rebuilds the CSR.
//! 2. **Stall probe** — the architectural difference the redesign
//!    exists for. The writer applies a batch and then runs a full index
//!    refresh (a re-preprocess, the most expensive publish). Readers on
//!    the epoch-swapped service keep answering from the previous epoch
//!    the whole time, so their worst-case request latency stays at
//!    normal-query scale. The pre-redesign architecture — a
//!    single-owner server behind one mutex, the only way to share a
//!    `&mut self` update API across threads — blocks every reader for
//!    the entire refresh. It is modeled here as a second service behind
//!    a `Mutex<()>` that readers hold per query and the writer holds
//!    across `apply_updates` + `refresh_index`.
//!    The probe measures the worst reader-observed request latency
//!    under both architectures; the bar is that the mutex architecture
//!    stalls readers ≥ 2× longer than the service (in practice it is
//!    orders of magnitude).
//!
//! Output: ASCII table, `results/service_throughput.csv`, and
//! `BENCH_service.json`. Env knobs: `TPA_QUICK=1` for a small smoke
//! config, `TPA_SERVICE_N=<n>` to force one graph size,
//! `TPA_METRICS_OUT=<file>` to attach a metrics registry to the
//! service and write its Prometheus dump at exit (what the CI smoke
//! step scrapes with `tpa stats --metrics`).

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tpa_bench::harness::results_dir;
use tpa_bench::report::{ns_to_secs, BenchReport};
use tpa_core::{IndexStalenessPolicy, QueryRequest, RwrService, ServiceBuilder, TpaParams};
use tpa_eval::Table;
use tpa_graph::gen::{rmat, RmatConfig};
use tpa_graph::{CsrGraph, DynamicGraph, EdgeUpdate, NodeId, Permutation};
use tpa_obs::{Histogram, MetricsRegistry};

const PARAMS: TpaParams = TpaParams { c: 0.15, eps: 1e-9, s: 5, t: 10 };
const READER_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    let quick = tpa_bench::harness::quick();
    let (n, m_target) = if let Some(n) =
        std::env::var("TPA_SERVICE_N").ok().and_then(|v| v.parse::<usize>().ok())
    {
        (n, 10 * n)
    } else if quick {
        (20_000, 200_000)
    } else {
        (200_000, 2_000_000)
    };
    let queries_per_thread = if quick { 40 } else { 120 };
    let cores = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);

    let mut rng = StdRng::seed_from_u64(0x5e1f);
    let generated = rmat(n, m_target, RmatConfig::default(), &mut rng);
    let shuffle = random_permutation(n, &mut rng);
    let g = generated.permuted(&shuffle);
    let m = g.m();
    eprintln!("[service_throughput] R-MAT graph (labels shuffled): n={n} m={m}, {cores} core(s)");

    let metrics_out = std::env::var("TPA_METRICS_OUT").ok().filter(|p| !p.is_empty());
    let registry = metrics_out.as_ref().map(|_| Arc::new(MetricsRegistry::new()));
    let (service, dt) = tpa_eval::time(|| {
        let mut builder = ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(PARAMS)
            .staleness(IndexStalenessPolicy { threshold: f64::INFINITY, auto_refresh: false });
        if let Some(reg) = &registry {
            builder = builder.metrics(Arc::clone(reg));
        }
        Arc::new(builder.build().expect("valid serving configuration"))
    });
    eprintln!(
        "[service_throughput] built + preprocessed in {}",
        tpa_eval::format_secs(dt.as_secs_f64())
    );

    // --- Measurement 1: reader QPS, quiet and with a writer in flight.
    let mut table = Table::new(
        format!("RwrService reader throughput on R-MAT n={n} m={m} (S={})", PARAMS.s),
        &["readers", "quiet_qps", "with_writer_qps", "epochs_seen"],
    );
    let mut qps_rows = Vec::new();
    let mut scaling_base = 0.0f64;
    let mut scaling_top = 0.0f64;
    for &readers in &READER_COUNTS {
        let quiet = run_readers(&service, readers, queries_per_thread, n, None);
        let with_writer = run_readers(&service, readers, queries_per_thread, n, Some(n));
        if readers == READER_COUNTS[0] {
            scaling_base = with_writer.qps;
        }
        if readers == *READER_COUNTS.last().unwrap() {
            scaling_top = with_writer.qps;
        }
        table.row(&[
            readers.to_string(),
            format!("{:.1}", quiet.qps),
            format!("{:.1}", with_writer.qps),
            with_writer.epochs_seen.to_string(),
        ]);
        qps_rows.push(format!(
            "    \"readers_{readers}\": {{\"quiet_qps\": {:.3}, \"with_writer_qps\": {:.3}, \
             \"epochs_seen\": {}}}",
            quiet.qps, with_writer.qps, with_writer.epochs_seen
        ));
    }
    let scaling = scaling_top / scaling_base.max(1e-12);

    // --- Measurement 1b: writer-side publish latency. Each
    // `apply_updates` call publishes a copy-on-write epoch snapshot —
    // O(batch) assembly, never a CSR rebuild — so the p99 should sit at
    // microsecond-to-millisecond scale regardless of n.
    let publish_rounds = if quick { 40 } else { 80 };
    let publish_hist = Histogram::new();
    let publish_started = std::time::Instant::now();
    for round in 0..publish_rounds {
        let (out, dt) = tpa_eval::time(|| service.apply_updates(&update_batch(round + 1000, n)));
        std::hint::black_box(out.unwrap().epoch);
        publish_hist.record_duration(dt);
    }
    let epochs_per_sec = publish_rounds as f64 / publish_started.elapsed().as_secs_f64();
    let publish_p50 = ns_to_secs(publish_hist.quantile(0.50));
    let publish_p99 = ns_to_secs(publish_hist.quantile(0.99));
    eprintln!(
        "[service_throughput] publish: {epochs_per_sec:.0} epochs/sec, p50 {} p99 {}",
        tpa_eval::format_secs(publish_p50),
        tpa_eval::format_secs(publish_p99),
    );

    // --- Measurement 2: the stall probe (service vs one global mutex).
    let refresh_rounds = if quick { 2 } else { 3 };
    let service_stall = service_stall_probe(&service, n, refresh_rounds);
    let mutex_stall = mutex_stall_probe(&g, n, refresh_rounds);
    let stall_ratio = mutex_stall.max_request / service_stall.max_request.max(1e-12);

    print!("{}", table.render());
    println!(
        "stall probe over {refresh_rounds} full index refreshes (refresh ≈ {}):\n  \
         epoch-swap service: worst reader request {}\n  \
         global mutex (old architecture): worst reader request {}\n  \
         stall ratio {stall_ratio:.1}x",
        tpa_eval::format_secs(service_stall.refresh_secs),
        tpa_eval::format_secs(service_stall.max_request),
        tpa_eval::format_secs(mutex_stall.max_request),
    );

    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    table.write_csv(dir.join("service_throughput.csv")).unwrap();

    // Verdict: the stall bar holds on any host; the scaling bar needs
    // real cores to be physically measurable.
    let stall_pass = stall_ratio >= 2.0;
    let scaling_evaluable = cores > *READER_COUNTS.last().unwrap();
    let scaling_pass = !scaling_evaluable || scaling >= 1.8;
    let verdict = if quick {
        "(smoke run, no bar)".to_string()
    } else {
        format!(
            "({}, bars: stall ratio >= 2x{})",
            if stall_pass && scaling_pass { "PASS" } else { "FAIL" },
            if scaling_evaluable {
                format!(", reader scaling >= 1.8x (measured {scaling:.2}x)")
            } else {
                format!("; scaling bar skipped on a {cores}-core host (measured {scaling:.2}x)")
            }
        )
    };

    BenchReport::new("service_throughput")
        .field("s", PARAMS.s.to_string())
        .field("t", PARAMS.t.to_string())
        .field("cores", cores.to_string())
        .field("graph", format!("{{\"generator\": \"rmat\", \"n\": {n}, \"m\": {m}}}"))
        .field("reader_qps", format!("{{\n{}\n  }}", qps_rows.join(",\n")))
        .field("reader_scaling_with_writer", format!("{scaling:.3}"))
        .field(
            "publish",
            format!(
                "{{\"epochs_per_sec\": {epochs_per_sec:.1}, \"p50_secs\": {publish_p50:.8}, \
                 \"p99_secs\": {publish_p99:.8}}}"
            ),
        )
        .field(
            "stall_probe",
            format!(
                "{{\"refresh_secs\": {:.6}, \"service_max_request_secs\": {:.6}, \
                 \"mutex_engine_max_request_secs\": {:.6}, \"stall_ratio\": {stall_ratio:.3}}}",
                service_stall.refresh_secs, service_stall.max_request, mutex_stall.max_request,
            ),
        )
        .write("BENCH_service.json");
    if let (Some(path), Some(reg)) = (&metrics_out, &registry) {
        std::fs::write(path, reg.render_prometheus()).unwrap();
        eprintln!("[service_throughput] wrote metrics dump to {path}");
    }
    eprintln!(
        "[service_throughput] reader scaling {scaling:.2}x, stall ratio {stall_ratio:.1}x {verdict}"
    );
}

struct ReaderRun {
    qps: f64,
    epochs_seen: usize,
}

/// `readers` threads each issue `queries_per_thread` indexed single-seed
/// requests; with `writer_pace: Some(n)` a writer thread concurrently
/// applies small batches (publishing epochs) until the readers finish.
fn run_readers(
    service: &Arc<RwrService>,
    readers: usize,
    queries_per_thread: usize,
    n: usize,
    writer: Option<usize>,
) -> ReaderRun {
    let done = Arc::new(AtomicBool::new(false));
    let start_epoch = service.epoch();
    let started = std::time::Instant::now();
    let total = readers * queries_per_thread;
    std::thread::scope(|scope| {
        if writer.is_some() {
            let service = Arc::clone(service);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut round = 0usize;
                // ord: Acquire pairs with the harness's Release store of the done flag
                while !done.load(Ordering::Acquire) {
                    service.apply_updates(&update_batch(round, n)).unwrap();
                    round += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
        let mut handles = Vec::new();
        for r in 0..readers {
            let service = Arc::clone(service);
            handles.push(scope.spawn(move || {
                for q in 0..queries_per_thread {
                    let seed = ((r * 7919 + q * 613 + 29) % n) as NodeId;
                    let resp = service.submit(&QueryRequest::single(seed)).unwrap();
                    std::hint::black_box(&resp.result);
                }
            }));
        }
        for h in handles {
            h.join().expect("reader thread");
        }
        done.store(true, Ordering::Release); // ord: Release pairs with the reader's Acquire poll of the done flag
    });
    let secs = started.elapsed().as_secs_f64();
    ReaderRun {
        qps: total as f64 / secs.max(1e-12),
        epochs_seen: (service.epoch() - start_epoch) as usize + 1,
    }
}

struct StallProbe {
    max_request: f64,
    refresh_secs: f64,
}

/// Worst reader request latency on the epoch-swapped service while the
/// writer runs `rounds` full index refreshes.
fn service_stall_probe(service: &Arc<RwrService>, n: usize, rounds: usize) -> StallProbe {
    let done = Arc::new(AtomicBool::new(false));
    let mut refresh_secs = 0.0f64;
    let mut max_request = 0.0f64;
    std::thread::scope(|scope| {
        let reader = {
            let service = Arc::clone(service);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut worst = 0.0f64;
                let mut q = 0usize;
                // ord: Acquire pairs with the harness's Release store of the done flag
                while !done.load(Ordering::Acquire) {
                    let seed = ((q * 613 + 29) % n) as NodeId;
                    let (resp, dt) = tpa_eval::time(|| service.submit(&QueryRequest::single(seed)));
                    std::hint::black_box(&resp.unwrap().result);
                    worst = worst.max(dt.as_secs_f64());
                    q += 1;
                }
                worst
            })
        };
        for round in 0..rounds {
            service.apply_updates(&update_batch(round, n)).unwrap();
            let (_, dt) = tpa_eval::time(|| service.refresh_index().unwrap());
            refresh_secs += dt.as_secs_f64() / rounds as f64;
        }
        done.store(true, Ordering::Release); // ord: Release pairs with the reader's Acquire poll of the done flag
        max_request = reader.join().expect("reader thread");
    });
    StallProbe { max_request, refresh_secs }
}

/// The same probe against the pre-redesign architecture: one global
/// lock shared by reader and writer, the writer holding it across the
/// apply and the refresh (a single-owner `&mut self` update API gives
/// no other choice). A fresh service stands in for the single-owner
/// server; the `Mutex<()>` supplies the serialization.
fn mutex_stall_probe(g: &CsrGraph, n: usize, rounds: usize) -> StallProbe {
    let service = ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
        .preprocess(PARAMS)
        .staleness(IndexStalenessPolicy { threshold: f64::INFINITY, auto_refresh: false })
        .build()
        .expect("valid serving configuration");
    let lock = Mutex::new(());
    let done = AtomicBool::new(false);
    let mut max_request = 0.0f64;
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut worst = 0.0f64;
            let mut q = 0usize;
            // ord: Acquire pairs with the harness's Release store of the done flag
            while !done.load(Ordering::Acquire) {
                let seed = ((q * 613 + 29) % n) as NodeId;
                let (scores, dt) = tpa_eval::time(|| {
                    let _held = lock.lock().unwrap();
                    service.query(seed).unwrap()
                });
                std::hint::black_box(&scores);
                worst = worst.max(dt.as_secs_f64());
                q += 1;
            }
            worst
        });
        for round in 0..rounds {
            let _held = lock.lock().unwrap();
            service.apply_updates(&update_batch(round, n)).unwrap();
            service.refresh_index().unwrap();
        }
        done.store(true, Ordering::Release); // ord: Release pairs with the reader's Acquire poll of the done flag
        max_request = reader.join().expect("reader thread");
    });
    StallProbe { max_request, refresh_secs: 0.0 }
}

/// Deterministic small update batch for round `round`.
fn update_batch(round: usize, n: usize) -> Vec<EdgeUpdate> {
    let pick = |k: usize| ((round * 613 + k * 211 + 17) % n) as NodeId;
    vec![
        EdgeUpdate::Insert(pick(1), pick(2)),
        EdgeUpdate::Insert(pick(3), pick(4)),
        EdgeUpdate::Delete(pick(1), pick(2)),
    ]
}

/// Uniform random relabeling (Fisher–Yates) for the "as-ingested"
/// baseline.
fn random_permutation(n: usize, rng: &mut StdRng) -> Permutation {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    Permutation::from_new_to_old(ids)
}
