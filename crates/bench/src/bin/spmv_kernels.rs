//! SpMV (propagation) kernel micro-bench: the flat gather on the
//! as-ingested node order vs the same gather on reordered graphs.
//!
//! The CPI inner loop is one sparse transition apply per iteration; on
//! graphs whose score vector outgrows L2 it is memory-bound, and the
//! lever that moves it is node ordering. This bench runs, on
//! label-shuffled R-MAT graphs:
//!
//! * **flat** — the gather on the shuffled (arbitrary) labels;
//! * **`<strategy>+flat`** — the same gather on the graph relabeled by
//!   each [`ReorderStrategy`].
//!
//! Relabeling changes the memory access pattern and also the order in
//! which each destination folds its in-row, so the variants agree up to
//! relabeling and floating-point association, not bit for bit. Every
//! run (quick included) checks this before timing: flat's output must
//! equal a textbook `x[u]·(1/outdeg u)` gather computed here bit for
//! bit, and each reordered variant's output, unpermuted, must lie within
//! 1e-12 relative L1 of flat's. Scalar (1-lane) and fused 8-lane block
//! passes are both timed. Rounds are interleaved across variants and
//! each speedup is the median of per-round `flat / variant` ratios, so
//! a slow host episode hits both sides of a ratio.
//!
//! Output: ASCII table, `results/spmv_kernels_<n>.csv`, and
//! `BENCH_spmv.json` (on the shared [`BenchReport`] envelope). The
//! acceptance bar is best reordering + flat ≥ 1.3× flat on the n=1M
//! config's scalar pass; a run that includes that config exits nonzero
//! when the bar fails.
//!
//! Env knobs: `TPA_QUICK=1` runs a single tiny config (CI smoke, no
//! bar, output checks still on); `TPA_SPMV_N=<n>` runs one config of
//! `n` nodes and `10·n` edges (the bar applies only at `n` = 1M).

use rand::{rngs::StdRng, Rng, SeedableRng};
use tpa_bench::harness::results_dir;
use tpa_bench::report::BenchReport;
use tpa_core::batch::ScoreBlock;
use tpa_core::{Propagator, Transition};
use tpa_eval::Table;
use tpa_graph::gen::{rmat, RmatConfig};
use tpa_graph::{reorder, CsrGraph, NodeId, Permutation, ReorderStrategy};

const BLOCK_LANES: usize = 8;
const SCALAR_ROUNDS: usize = 5;
const BLOCK_ROUNDS: usize = 3;
/// The config the acceptance bar is defined on.
const BAR_N: usize = 1_000_000;
/// Best reordered scalar speedup the bar requires.
const BAR_SPEEDUP: f64 = 1.3;
/// Largest relative L1 gap a reordered variant may show against flat.
const REORDER_TOL: f64 = 1e-12;
/// The propagation coefficient every pass uses.
const COEFF: f64 = 0.85;

struct Variant {
    label: String,
    graph: CsrGraph,
    /// The relabeling applied to the flat graph (`None` for flat).
    perm: Option<Permutation>,
    reorder_secs: f64,
}

fn main() {
    let quick = tpa_bench::harness::quick();
    let configs: Vec<(usize, usize)> =
        if let Some(n) = std::env::var("TPA_SPMV_N").ok().and_then(|v| v.parse::<usize>().ok()) {
            vec![(n, 10 * n)]
        } else if quick {
            vec![(20_000, 200_000)]
        } else {
            vec![(100_000, 1_000_000), (BAR_N, 10 * BAR_N)]
        };

    let mut json_configs = Vec::new();
    // Best reordered scalar speedup of the last config (recorded in the
    // JSON) and of the BAR_N config (gated): smaller configs must not be
    // allowed to satisfy the bar.
    let mut best = 0.0f64;
    let mut bar_best = None;
    for (n, m_target) in configs {
        let mut rng = StdRng::seed_from_u64(0x5b3c);
        let generated = rmat(n, m_target, RmatConfig::default(), &mut rng);
        // R-MAT assigns low ids to the hottest quadrant, so the raw
        // generator output is already near-degree-ordered — unlike real
        // ingestion (crawl order, hash-sharded ids, …). Shuffle labels
        // uniformly so the baseline is an honest "arbitrary ids" graph,
        // which is exactly what the reordering layer exists to fix.
        let shuffle = random_permutation(n, &mut rng);
        let g = generated.permuted(&shuffle);
        drop(generated);
        let m = g.m();
        eprintln!("[spmv_kernels] R-MAT graph (labels shuffled): n={n} m={m}");

        let mut variants = Vec::with_capacity(1 + ReorderStrategy::ALL.len());
        for strategy in ReorderStrategy::ALL {
            let ((perm, graph), dt) = tpa_eval::time(|| {
                let perm = reorder(&g, strategy);
                let graph = g.permuted(&perm);
                (perm, graph)
            });
            variants.push(Variant {
                label: format!("{}+flat", strategy.name()),
                graph,
                perm: Some(perm),
                reorder_secs: dt.as_secs_f64(),
            });
        }
        variants
            .insert(0, Variant { label: "flat".into(), graph: g, perm: None, reorder_secs: 0.0 });

        let transitions: Vec<Transition<'_>> =
            variants.iter().map(|v| Transition::new(&v.graph)).collect();
        let max_rel_l1 = check_outputs(&variants, &transitions, n);
        eprintln!(
            "[spmv_kernels] flat == textbook gather bitwise; reordered max rel L1 {max_rel_l1:.2e}"
        );
        let scalar = time_scalar(&transitions, n);
        let block = time_block(&transitions, n);

        let mut table = Table::new(
            format!("SpMV kernels on R-MAT n={n} m={m}"),
            &[
                "variant",
                "scalar_ms",
                "scalar_speedup",
                "block8_ms",
                "block8_speedup",
                "reorder_secs",
            ],
        );
        let mut config_best = 0.0f64;
        let mut json_rows = Vec::new();
        for (i, v) in variants.iter().enumerate() {
            let (scalar_secs, s_speed) = (median(&scalar[i]), median_ratio(&scalar[0], &scalar[i]));
            let (block_secs, b_speed) = (median(&block[i]), median_ratio(&block[0], &block[i]));
            if i > 0 {
                config_best = config_best.max(s_speed);
            }
            table.row(&[
                v.label.clone(),
                format!("{:.2}", scalar_secs * 1e3),
                format!("{s_speed:.2}x"),
                format!("{:.2}", block_secs * 1e3),
                format!("{b_speed:.2}x"),
                format!("{:.2}", v.reorder_secs),
            ]);
            json_rows.push(format!(
                "    \"{}\": {{\"scalar_secs\": {scalar_secs:.6}, \"scalar_speedup_vs_flat\": \
                 {s_speed:.3}, \"block8_secs\": {block_secs:.6}, \"block8_speedup_vs_flat\": \
                 {b_speed:.3}, \"reorder_secs\": {:.3}}}",
                v.label, v.reorder_secs
            ));
        }
        print!("{}", table.render());
        let dir = results_dir();
        std::fs::create_dir_all(&dir).ok();
        table.write_csv(dir.join(format!("spmv_kernels_{n}.csv"))).unwrap();

        json_configs.push((
            format!("n{n}"),
            format!(
                "{{\n    \"graph\": {{\"generator\": \"rmat\", \"n\": {n}, \"m\": {m}}},\n    \
                 \"reordered_max_rel_l1\": {max_rel_l1:.3e},\n{}\n  }}",
                json_rows.join(",\n")
            ),
        ));
        best = config_best;
        if n == BAR_N {
            bar_best = Some(config_best);
        }
    }

    let pass = bar_best.map(|b| b >= BAR_SPEEDUP);
    let mut report =
        BenchReport::new("spmv_kernels").field("block_lanes", format!("{BLOCK_LANES}"));
    for (key, config) in json_configs {
        report = report.field(&key, config);
    }
    report
        .field("best_reordered_flat_scalar_speedup", format!("{best:.3}"))
        .field("bar", format!("{BAR_SPEEDUP:.2}"))
        .field("pass", pass.map_or("null".into(), |p| format!("{p}")))
        .write("BENCH_spmv.json");
    eprintln!("[spmv_kernels] best reordered+flat scalar speedup: {best:.2}x");
    match bar_best {
        None => eprintln!("[spmv_kernels] no n={BAR_N} config, no bar"),
        Some(b) if b >= BAR_SPEEDUP => {
            eprintln!("[spmv_kernels] PASS: {b:.2}x >= {BAR_SPEEDUP}x at n={BAR_N}")
        }
        Some(b) => {
            eprintln!("[spmv_kernels] FAIL: {b:.2}x < {BAR_SPEEDUP}x at n={BAR_N}");
            std::process::exit(1);
        }
    }
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

/// Deterministic dense input vector (every entry non-zero so no gather
/// is skippable).
fn input_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i.wrapping_mul(2654435761)) % 1000 + 1) as f64 / 1000.0 / n as f64).collect()
}

/// The CPI step as written down: `y[v] = coeff · Σ_{u∈in(v)} x[u]·(1/outdeg u)`,
/// folded left over `v`'s ascending in-row.
fn textbook_gather(g: &CsrGraph, x: &[f64]) -> Vec<f64> {
    let inv = g.inv_out_degrees();
    (0..g.n() as NodeId)
        .map(|v| {
            COEFF * g.in_neighbors(v).iter().fold(0.0, |a, &u| a + x[u as usize] * inv[u as usize])
        })
        .collect()
}

/// Checks every variant's scalar output before anything is timed:
/// flat must equal [`textbook_gather`] bit for bit, and each reordered
/// variant (fed the relabeled input, its output unpermuted) must lie
/// within [`REORDER_TOL`] relative L1 of flat. Panics on a miss; returns
/// the largest relative L1 gap seen.
fn check_outputs(variants: &[Variant], ts: &[Transition<'_>], n: usize) -> f64 {
    let x = input_vector(n);
    let mut flat = vec![0.0; n];
    ts[0].propagate_into(COEFF, &x, &mut flat);
    let want = textbook_gather(&variants[0].graph, &x);
    assert!(
        flat.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
        "flat gather diverged from the textbook fold"
    );
    let flat_l1: f64 = flat.iter().map(|v| v.abs()).sum();
    let mut max_rel = 0.0f64;
    let mut y = vec![0.0; n];
    for (v, t) in variants.iter().zip(ts).skip(1) {
        let perm = v.perm.as_ref().expect("reordered variants carry their permutation");
        t.propagate_into(COEFF, &perm.permute_values(&x), &mut y);
        let back = perm.unpermute_values(&y);
        let gap: f64 = back.iter().zip(&flat).map(|(a, b)| (a - b).abs()).sum();
        let rel = gap / flat_l1;
        assert!(rel <= REORDER_TOL, "{} is {rel:.3e} relative L1 from flat", v.label);
        max_rel = max_rel.max(rel);
    }
    max_rel
}

/// Scalar-pass samples, `[variant][round]`: each round times every
/// variant once, in order, so per-round ratios are paired.
fn time_scalar(ts: &[Transition<'_>], n: usize) -> Vec<Vec<f64>> {
    let x = input_vector(n);
    let mut y = vec![0.0; n];
    interleaved(ts, SCALAR_ROUNDS, |t| {
        t.propagate_into(COEFF, &x, &mut y);
        std::hint::black_box(&mut y);
    })
}

/// Fused 8-lane block-pass samples, `[variant][round]`.
fn time_block(ts: &[Transition<'_>], n: usize) -> Vec<Vec<f64>> {
    let mut x = ScoreBlock::zeros(n, BLOCK_LANES);
    x.data_mut().copy_from_slice(&input_vector(n * BLOCK_LANES));
    let mut y = ScoreBlock::zeros(n, BLOCK_LANES);
    interleaved(ts, BLOCK_ROUNDS, |t| {
        t.propagate_block_into(COEFF, &x, &mut y);
        std::hint::black_box(y.data());
    })
}

/// One warm-up pass per variant, then `rounds` rounds that time every
/// variant once each.
fn interleaved<F>(ts: &[Transition<'_>], rounds: usize, mut pass: F) -> Vec<Vec<f64>>
where
    F: FnMut(&Transition<'_>),
{
    ts.iter().for_each(&mut pass);
    let mut samples = vec![Vec::with_capacity(rounds); ts.len()];
    for _ in 0..rounds {
        for (t, s) in ts.iter().zip(&mut samples) {
            let (_, dt) = tpa_eval::time(|| pass(t));
            s.push(dt.as_secs_f64());
        }
    }
    samples
}

/// Median of the per-round `base / variant` time ratios.
fn median_ratio(base: &[f64], variant: &[f64]) -> f64 {
    let ratios: Vec<f64> = base.iter().zip(variant).map(|(b, v)| b / v).collect();
    median(&ratios)
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted[sorted.len() / 2]
}
