//! Single-seed query latency: dense vs direction-optimizing frontier
//! propagation through the serving layer.
//!
//! The TPA online phase runs `S` CPI iterations; for a single seed the
//! interim vector is nonzero only on the seed's i-hop neighborhood, so
//! the dense kernels waste almost all of their memory traffic on the
//! early iterations. This bench measures the indexed single-seed path
//! (`RwrService::submit` — family sweep + rescale + stranger add) under
//! [`FrontierPolicy::Dense`] / [`FrontierPolicy::Sparse`] /
//! [`FrontierPolicy::Auto`], picked per request with
//! `QueryRequest::with_frontier` on one service per graph, for three
//! seed classes on label-shuffled R-MAT graphs:
//!
//! * **low** — the minimum-positive-out-degree seed (tiny early
//!   frontiers, the sparse path's best case);
//! * **median** — a median-out-degree seed;
//! * **hub** — the maximum-out-degree seed (the frontier saturates in
//!   one hop; `Auto` must latch dense immediately and stay within 10%
//!   of forced dense).
//!
//! All policies are bitwise identical (asserted here on every seed).
//! The three policies are timed interleaved within each round (the
//! order rotates per round), and every speedup is the median of the
//! per-round ratios, so a slow host episode hits both sides of a ratio
//! — the estimator `metrics_overhead` and `spmv_kernels` use.
//! Output: ASCII table (median per-policy times),
//! `results/query_latency_<n>.csv`, and `BENCH_frontier.json` (on the
//! shared [`BenchReport`] envelope).
//! Acceptance (full run, n=1M): `Auto` ≥ 3× the dense latency on the
//! low-degree seed, and never > 1.1× dense on the hub seed; a full run
//! exits nonzero when either bar fails.
//!
//! Env knobs: `TPA_QUICK=1` runs a single tiny config (CI smoke);
//! `TPA_LATENCY_N=<n>` forces one config of that size.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use tpa_bench::harness::results_dir;
use tpa_bench::report::BenchReport;
use tpa_core::{
    FrontierPolicy, ParallelTransition, QueryRequest, RwrService, ServiceBuilder, TpaIndex,
    TpaParams,
};
use tpa_eval::Table;
use tpa_graph::gen::{rmat, RmatConfig};
use tpa_graph::{CsrGraph, NodeId, Permutation};

const ROUNDS: usize = 11;
const POLICIES: [FrontierPolicy; 3] =
    [FrontierPolicy::Dense, FrontierPolicy::Sparse, FrontierPolicy::Auto];
/// Paper-style split points: the family sweep is `S − 1` propagations.
const PARAMS: TpaParams = TpaParams { c: 0.15, eps: 1e-9, s: 5, t: 10 };

fn main() {
    let quick = tpa_bench::harness::quick();
    let configs: Vec<(usize, usize)> = if let Some(n) =
        std::env::var("TPA_LATENCY_N").ok().and_then(|v| v.parse::<usize>().ok())
    {
        vec![(n, 10 * n)]
    } else if quick {
        vec![(20_000, 200_000)]
    } else {
        vec![(100_000, 1_000_000), (1_000_000, 10_000_000)]
    };

    let mut json_configs = Vec::new();
    // Acceptance numbers come from the LAST (largest) config.
    let mut low_speedup = 0.0f64;
    let mut hub_ratio = 0.0f64;
    for (n, m_target) in configs {
        let mut rng = StdRng::seed_from_u64(0x7a11);
        let generated = rmat(n, m_target, RmatConfig::default(), &mut rng);
        // Same honest baseline as spmv_kernels: uniformly shuffled labels
        // (raw R-MAT is already near-degree-ordered).
        let shuffle = random_permutation(n, &mut rng);
        let g = Arc::new(generated.permuted(&shuffle));
        let m = g.m();
        eprintln!("[query_latency] R-MAT graph (labels shuffled): n={n} m={m}");

        // Preprocess once (parallel backend — bitwise identical to
        // sequential); one sequential service serves every policy.
        let (index, dt) = tpa_eval::time(|| {
            TpaIndex::preprocess_on(&ParallelTransition::with_default_threads(&g), PARAMS)
        });
        eprintln!("[query_latency] preprocessed in {}", tpa_eval::format_secs(dt.as_secs_f64()));
        let service = ServiceBuilder::in_memory(Arc::clone(&g))
            .index(index)
            .build()
            .expect("valid serving configuration");

        let seeds = [
            ("low", low_degree_seed(&g)),
            ("median", median_degree_seed(&g)),
            ("hub", hub_seed(&g)),
        ];

        let mut table = Table::new(
            format!("Single-seed indexed query latency on R-MAT n={n} m={m} (S={})", PARAMS.s),
            &["seed_class", "out_degree", "dense_ms", "sparse_ms", "auto_ms", "auto_speedup"],
        );
        let mut json_rows = Vec::new();
        for (label, seed) in seeds {
            let (times, speedup, auto_vs_dense) = time_policies(&service, seed, label);
            let [dense, sparse, auto] = times;
            if label == "low" {
                low_speedup = speedup;
            }
            if label == "hub" {
                hub_ratio = auto_vs_dense;
            }
            table.row(&[
                label.into(),
                format!("{}", g.out_degree(seed)),
                format!("{:.3}", dense * 1e3),
                format!("{:.3}", sparse * 1e3),
                format!("{:.3}", auto * 1e3),
                format!("{speedup:.2}x"),
            ]);
            json_rows.push(format!(
                "    \"{label}\": {{\"seed\": {seed}, \"out_degree\": {}, \"dense_secs\": \
                 {dense:.6}, \"sparse_secs\": {sparse:.6}, \"auto_secs\": {auto:.6}, \
                 \"auto_speedup_vs_dense\": {speedup:.3}}}",
                g.out_degree(seed)
            ));
        }
        print!("{}", table.render());
        let dir = results_dir();
        std::fs::create_dir_all(&dir).ok();
        table.write_csv(dir.join(format!("query_latency_{n}.csv"))).unwrap();
        json_configs.push((
            format!("n{n}"),
            format!(
                "{{\n    \"graph\": {{\"generator\": \"rmat\", \"n\": {n}, \"m\": {m}}},\n{}\n  }}",
                json_rows.join(",\n")
            ),
        ));
    }

    let pass = low_speedup >= 3.0 && hub_ratio <= 1.1;
    let mut report = BenchReport::new("query_latency")
        .field("s", format!("{}", PARAMS.s))
        .field("t", format!("{}", PARAMS.t));
    for (key, config) in json_configs {
        report = report.field(&key, config);
    }
    report
        .field("low_seed_auto_speedup", format!("{low_speedup:.3}"))
        .field("hub_seed_auto_vs_dense", format!("{hub_ratio:.3}"))
        .field("pass", if quick { "null".into() } else { format!("{pass}") })
        .write("BENCH_frontier.json");
    let verdict = if quick {
        "(smoke run, no bar)".to_string()
    } else {
        format!(
            "({}, bars: low >= 3x and hub <= 1.1x dense, medians of per-round ratios)",
            if pass { "PASS" } else { "FAIL" }
        )
    };
    eprintln!(
        "[query_latency] low-seed auto speedup {low_speedup:.2}x, hub auto/dense \
         {hub_ratio:.2} {verdict}"
    );
    if !quick && !pass {
        std::process::exit(1);
    }
}

/// Times `seed`'s indexed query under every policy, interleaved: each
/// round runs Dense, Sparse and Auto once (rotating which goes first).
/// Returns the median seconds per policy, the median per-round
/// `dense / auto` speedup and the median per-round `auto / dense` ratio.
fn time_policies(service: &RwrService, seed: NodeId, label: &str) -> ([f64; 3], f64, f64) {
    let request = |policy: FrontierPolicy| QueryRequest::single(seed).with_frontier(policy);
    // Warm-up + correctness: every policy answers bit-identically.
    let mut reference: Option<Vec<f64>> = None;
    for policy in POLICIES {
        let scores = service.submit(&request(policy)).unwrap().result.into_scores();
        match &reference {
            None => reference = scores.into_iter().next(),
            Some(r) => {
                assert_eq!(&scores[0], r, "policy {} diverged on seed {label}", policy.name())
            }
        }
    }
    let mut samples: [Vec<f64>; 3] = Default::default();
    for round in 0..ROUNDS {
        for k in 0..POLICIES.len() {
            let k = (k + round) % POLICIES.len();
            let (resp, dt) = tpa_eval::time(|| service.submit(&request(POLICIES[k])));
            std::hint::black_box(&resp.unwrap().result);
            samples[k].push(dt.as_secs_f64());
        }
    }
    let [dense, sparse, auto] = &samples;
    let speedups: Vec<f64> = dense.iter().zip(auto).map(|(d, a)| d / a).collect();
    let auto_vs_dense: Vec<f64> = dense.iter().zip(auto).map(|(d, a)| a / d).collect();
    ([median(dense), median(sparse), median(auto)], median(&speedups), median(&auto_vs_dense))
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

/// The lowest-positive-out-degree node (ties to the lowest id): a
/// dangling seed's walk dies instantly, which benchmarks nothing.
fn low_degree_seed(g: &CsrGraph) -> NodeId {
    (0..g.n() as NodeId)
        .filter(|&v| g.out_degree(v) > 0)
        .min_by_key(|&v| (g.out_degree(v), v))
        .expect("graph has at least one edge")
}

/// A node of median positive out-degree.
fn median_degree_seed(g: &CsrGraph) -> NodeId {
    let mut nodes: Vec<NodeId> = (0..g.n() as NodeId).filter(|&v| g.out_degree(v) > 0).collect();
    nodes.sort_by_key(|&v| (g.out_degree(v), v));
    nodes[nodes.len() / 2]
}

/// The maximum-out-degree node.
fn hub_seed(g: &CsrGraph) -> NodeId {
    (0..g.n() as NodeId).max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v))).unwrap()
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[sorted.len() / 2]
}
