//! Benchmark of `RwrService`: top-k reads on global and on cold seeds,
//! and reads beside an open-loop publish stream.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload topk_global --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it describe the inputs and print every metric by name, unit and
//! direction. A traced run also writes its spans, one JSON object per
//! line, next to the benchmark's executable.

mod bench;
mod inputs;
mod probe;
mod replay;
mod stats;
mod trace;

use inputs::Workload;

/// The benchmark's definition; its metric lists are the tables printed.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit, better)` of each entry of `BENCHMARK.json`'s `section`
/// list, in order. Expects the committed layout: `"key": "value"` pairs
/// and no `]` or `}` inside a string.
fn metric_table(section: &str) -> Vec<(&'static str, &'static str, &'static str)> {
    let body = BENCHMARK_JSON.split(&format!("\"{section}\"")).nth(1).unwrap_or_default();
    let body = body.split(']').next().unwrap_or_default();
    let field = |entry: &'static str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).map(|i| i + key.len() + 5);
        at.and_then(|i| entry[i..].split('"').next()).unwrap_or_default()
    };
    body.split('}')
        .filter(|e| e.contains("\"name\""))
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <topk_global|topk_cold|churn> --seed <n> --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> bench::Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        let i = args.iter().position(|a| a == flag).unwrap_or_else(|| usage());
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let workload = Workload::parse(&get("--workload")).unwrap_or_else(|| usage());
    let seed = get("--seed").parse().unwrap_or_else(|_| usage());
    let seconds = get("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    bench::Config { workload, seed, seconds, trace }
}

fn main() {
    let cfg = parse_args();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} threads_available={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = bench::run(&cfg);
    for note in &out.notes {
        println!("# {note}");
    }
    let (table, values) = if cfg.trace {
        (metric_table("per_layer"), &out.layer)
    } else {
        (metric_table("end_to_end"), &out.e2e)
    };
    if table.is_empty() {
        out.failures.push("BENCHMARK.json lists no metrics for this run".into());
    }
    let mut metrics = Vec::new();
    for (name, unit, better) in table {
        let value = values.get(name).copied();
        match value {
            Some(v) if v.is_finite() => {
                println!("metric {name} = {v} {unit} ({better} is better)");
                metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
            }
            _ => out.failures.push(format!("metric {name} was not measured")),
        }
    }
    if let Some(tracer) = &out.tracer {
        let path = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.to_path_buf()))
            .unwrap_or_default()
            .join("perfbench-spans")
            .join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => out.failures.push(format!("writing spans failed: {e}")),
        }
        for (name, (count, self_ms)) in tracer.self_times() {
            println!("# span {name}: count={count} self_ms_total={self_ms:.3}");
        }
    }
    if out.attempted == 0 {
        out.failures.push("no operation was attempted".into());
    }
    println!(
        "# attempted={} failed={} failed_share={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for f in &out.failures {
        println!("# CHECK FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_both_metric_lists() {
        let e2e = metric_table("end_to_end");
        assert_eq!(e2e[0], ("setup_s", "s", "lower"));
        assert!(e2e
            .iter()
            .chain(&metric_table("per_layer"))
            .all(|m| !m.1.is_empty() && !m.2.is_empty()));
    }
}
