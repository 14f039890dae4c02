//! Figure 9: effect of the parameter T (start of the stranger
//! approximation) on the L1 errors of the neighbor approximation (NA), the
//! stranger approximation (SA) and full TPA, with S fixed to 5.
//!
//! A single traced CPI run per seed (plus one for PageRank) provides the
//! exact decomposition at every candidate T via cumulative-sum snapshots.

use tpa_bench::harness::{load_dataset, query_seeds, results_dir};
use tpa_core::{cpi_trace_policy, CpiConfig, FrontierPolicy, SeedSet, Transition};
use tpa_eval::{metrics, Stats, Table};

const S: usize = 5;
const T_SET: [usize; 6] = [6, 8, 10, 15, 20, 25];

/// Cumulative sums `Σ_{i<T} x(i)` snapshot at S and every T, plus the full
/// converged sum.
struct TraceSnapshots {
    at_s: Vec<f64>,
    at_t: Vec<Vec<f64>>,
    full: Vec<f64>,
}

fn snapshots(transition: &Transition<'_>, seeds: &SeedSet, cfg: &CpiConfig) -> TraceSnapshots {
    let n = transition.n();
    let mut cum = vec![0.0f64; n];
    let mut at_s = vec![0.0f64; n];
    let mut at_t: Vec<Vec<f64>> = vec![Vec::new(); T_SET.len()];
    cpi_trace_policy(transition, seeds, cfg, 0, None, FrontierPolicy::Auto, |i, x| {
        if i == S {
            at_s = cum.clone();
        }
        if let Some(pos) = T_SET.iter().position(|&t| t == i) {
            at_t[pos] = cum.clone();
        }
        for (c, v) in cum.iter_mut().zip(x) {
            *c += v;
        }
    });
    // Any T beyond convergence: snapshot equals the full sum.
    for slot in at_t.iter_mut() {
        if slot.is_empty() {
            *slot = cum.clone();
        }
    }
    TraceSnapshots { at_s, at_t, full: cum }
}

fn main() {
    let cfg = CpiConfig::default();
    let mut table = Table::new(
        "Fig 9: effect of T on the L1 errors of NA, SA and TPA (S=5)",
        &["dataset", "T", "na_error", "sa_error", "tpa_error"],
    );

    for key in ["livejournal-s", "pokec-s", "wikilink-s"] {
        let d = load_dataset(key);
        eprintln!("[fig9] {key}");
        let transition = Transition::new(&d.graph);
        let pr = snapshots(&transition, &SeedSet::Uniform, &cfg);
        let seeds = query_seeds(&d);
        let traces: Vec<TraceSnapshots> =
            seeds.iter().map(|&s| snapshots(&transition, &SeedSet::single(s), &cfg)).collect();

        for (ti, &t) in T_SET.iter().enumerate() {
            let decay = 1.0 - cfg.c;
            let scale =
                (decay.powi(S as i32) - decay.powi(t as i32)) / (1.0 - decay.powi(S as i32));
            let mut na = Vec::new();
            let mut sa = Vec::new();
            let mut tpa = Vec::new();
            // PageRank stranger part for this T.
            let p_stranger: Vec<f64> =
                pr.full.iter().zip(&pr.at_t[ti]).map(|(f, c)| f - c).collect();
            for tr in &traces {
                let family = &tr.at_s;
                let neighbor: Vec<f64> =
                    tr.at_t[ti].iter().zip(family).map(|(c, f)| c - f).collect();
                let stranger: Vec<f64> =
                    tr.full.iter().zip(&tr.at_t[ti]).map(|(f, c)| f - c).collect();
                let approx_neighbor: Vec<f64> = family.iter().map(|&f| scale * f).collect();
                na.push(metrics::l1_error(&neighbor, &approx_neighbor));
                sa.push(metrics::l1_error(&stranger, &p_stranger));
                let tpa_vec: Vec<f64> =
                    family.iter().zip(&p_stranger).map(|(&f, &p)| f + scale * f + p).collect();
                tpa.push(metrics::l1_error(&tr.full, &tpa_vec));
            }
            table.row(&[
                key.into(),
                t.to_string(),
                format!("{:.4}", Stats::from_samples(&na).mean),
                format!("{:.4}", Stats::from_samples(&sa).mean),
                format!("{:.4}", Stats::from_samples(&tpa).mean),
            ]);
        }
    }

    print!("{}", table.render());
    table.write_csv(results_dir().join("fig9_effect_t.csv")).unwrap();
}
