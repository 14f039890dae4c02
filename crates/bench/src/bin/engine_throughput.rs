//! Serving throughput: seeds/second across backend × batch size.
//!
//! The serving claim behind `RwrService` batching: answering a batch of
//! B seeds through the fused block kernel shares one edge pass per CPI
//! iteration across all B lanes, so per-seed cost drops with the batch
//! size — while staying bit-identical to per-seed queries. This binary
//! measures it and reports the batched-vs-sequential speedup the serving
//! layer buys.
//!
//! Measurement note: every speedup is a ratio of *interleaved* runs
//! (baseline, batch, baseline, batch, …) over the same seeds, so shared
//! hosts with drifting clock speed or contended caches can't skew the
//! comparison.
//!
//! Output: ASCII table + `results/engine_throughput.csv`.

use std::sync::Arc;
use tpa_bench::harness::{load_dataset, results_dir};
use tpa_core::{FrontierPolicy, QueryRequest, RwrService, ServiceBuilder, TpaIndex, TpaParams};
use tpa_eval::Table;
use tpa_graph::NodeId;

const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];
const ROUNDS: usize = 5;

fn main() {
    let d = load_dataset("slashdot-s");
    let g = Arc::clone(&d.graph);
    eprintln!("[engine_throughput] slashdot-s: n={} m={}", g.n(), g.m());

    let params = TpaParams::new(d.spec.s, d.spec.t);
    let index = Arc::new(TpaIndex::preprocess(&g, params));
    let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);

    // The baseline pins FrontierPolicy::Dense: this bench isolates the
    // *batching* lever (shared edge passes), and frontier-auto singles
    // would fold the sparse-frontier win into the denominator — see
    // `query_latency` for that axis. Batched lanes are dense either way.
    let service = |threads: usize| {
        ServiceBuilder::in_memory(Arc::clone(&g))
            .threads(threads)
            .index(Arc::clone(&index))
            .frontier(FrontierPolicy::Dense)
            .build()
            .expect("valid serving configuration")
    };
    let baseline = service(1);
    let engines = [("sequential", service(1)), ("parallel", service(threads))];

    let n = g.n();
    let seeds: Vec<NodeId> = (0..256).map(|i| ((i * 2654435761) % n) as NodeId).collect();

    let mut table = Table::new(
        format!("Engine throughput on slashdot-s (parallel = {threads} threads)"),
        &["backend", "batch", "seeds_per_sec", "speedup_vs_single_seq"],
    );
    let mut batch32_speedup = 0.0;

    for (name, engine) in &engines {
        for batch in BATCH_SIZES {
            // Interleave baseline and batched rounds; compare medians.
            let mut base_samples = Vec::with_capacity(ROUNDS);
            let mut batch_samples = Vec::with_capacity(ROUNDS);
            serve_singles(&baseline, &seeds); // warm-up
            serve_batched(engine, &seeds, batch);
            for _ in 0..ROUNDS {
                base_samples.push(serve_singles(&baseline, &seeds));
                batch_samples.push(serve_batched(engine, &seeds, batch));
            }
            let base = median(&mut base_samples);
            let per_seed = median(&mut batch_samples);
            let speedup = base / per_seed;
            if *name == "parallel" && batch == 32 {
                batch32_speedup = speedup;
            }
            table.row(&[
                name.to_string(),
                batch.to_string(),
                format!("{:.1}", 1.0 / per_seed),
                format!("{speedup:.2}x"),
            ]);
        }
    }

    print!("{}", table.render());
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    table.write_csv(dir.join("engine_throughput.csv")).unwrap();

    // The serving-layer acceptance bar: a 32-seed batch must beat 32
    // sequential single-seed queries by ≥ 2×.
    eprintln!(
        "[engine_throughput] 32-seed batch speedup: {batch32_speedup:.2}x {}",
        if batch32_speedup >= 2.0 { "(PASS, >= 2x)" } else { "(FAIL, < 2x)" }
    );
}

/// Seconds per seed answering every seed with its own single-seed
/// request (the unbatched serving pattern), results collected per 32
/// like a request batch.
fn serve_singles(service: &RwrService, seeds: &[NodeId]) -> f64 {
    let (_, dt) = tpa_eval::time(|| {
        for chunk in seeds.chunks(32) {
            let out: Vec<Vec<f64>> = chunk.iter().map(|&s| service.query(s).unwrap()).collect();
            std::hint::black_box(out);
        }
    });
    dt.as_secs_f64() / seeds.len() as f64
}

/// Seconds per seed answering the workload in `batch`-sized requests.
fn serve_batched(service: &RwrService, seeds: &[NodeId], batch: usize) -> f64 {
    let (_, dt) = tpa_eval::time(|| {
        for chunk in seeds.chunks(batch) {
            let out = service.submit(&QueryRequest::batch(chunk.to_vec())).unwrap().result;
            std::hint::black_box(out);
        }
    });
    dt.as_secs_f64() / seeds.len() as f64
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}
