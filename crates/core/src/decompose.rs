//! Exact family/neighbor/stranger decomposition of a CPI series.
//!
//! Table III and Fig. 9 need the *true* `r_family`, `r_neighbor` and
//! `r_stranger` (and their PageRank counterparts) to measure how far the
//! approximations deviate from each part. A single traced CPI run captures
//! all three.

use crate::{cpi_trace_policy, CpiConfig, FrontierPolicy, Propagator, SeedSet};

/// The three exact parts of one CPI series at split points `S` and `T`.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// `Σ x(i)` for `0 ≤ i < S`.
    pub family: Vec<f64>,
    /// `Σ x(i)` for `S ≤ i < T`.
    pub neighbor: Vec<f64>,
    /// `Σ x(i)` for `T ≤ i` (to convergence).
    pub stranger: Vec<f64>,
    /// Total iterations run.
    pub iterations: usize,
}

impl Decomposition {
    /// The full CPI vector `family + neighbor + stranger`.
    pub fn total(&self) -> Vec<f64> {
        self.family
            .iter()
            .zip(&self.neighbor)
            .zip(&self.stranger)
            .map(|((f, n), s)| f + n + s)
            .collect()
    }
}

/// Runs CPI to convergence from `seeds`, splitting the accumulated series
/// at iterations `s` and `t`.
pub fn decompose<P: Propagator + ?Sized>(
    transition: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    s: usize,
    t: usize,
) -> Decomposition {
    assert!(s < t, "need S < T");
    let n = transition.n();
    let mut family = vec![0.0; n];
    let mut neighbor = vec![0.0; n];
    let mut stranger = vec![0.0; n];
    let result = cpi_trace_policy(transition, seeds, cfg, 0, None, FrontierPolicy::Auto, |i, x| {
        let acc = if i < s {
            &mut family
        } else if i < t {
            &mut neighbor
        } else {
            &mut stranger
        };
        for (a, b) in acc.iter_mut().zip(x) {
            *a += b;
        }
    });
    Decomposition { family, neighbor, stranger, iterations: result.last_iteration }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;
    use crate::{cpi, exact_rwr};
    use tpa_graph::gen::{cycle_graph, star_graph};

    fn l1_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    #[test]
    fn parts_sum_to_exact_rwr() {
        let g = star_graph(12);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let d = decompose(&t, &SeedSet::single(3), &cfg, 5, 10);
        let exact = exact_rwr(&g, 3, &cfg);
        assert!(l1_dist(&d.total(), &exact) < 1e-9);
    }

    #[test]
    fn family_matches_windowed_cpi() {
        let g = cycle_graph(9);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let d = decompose(&t, &SeedSet::single(0), &cfg, 4, 8);
        let fam = cpi(&t, &SeedSet::single(0), &cfg, 0, Some(3)).scores;
        assert!(l1_dist(&d.family, &fam) < 1e-12);
    }

    #[test]
    fn part_masses_match_lemma2() {
        // ‖family‖ = 1−(1−c)^S, ‖neighbor‖ = (1−c)^S−(1−c)^T.
        let g = cycle_graph(7);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let (s, tt) = (5, 10);
        let d = decompose(&t, &SeedSet::single(1), &cfg, s, tt);
        let dfac = 1.0 - cfg.c;
        let fam: f64 = d.family.iter().sum();
        let nei: f64 = d.neighbor.iter().sum();
        let str: f64 = d.stranger.iter().sum();
        assert!((fam - (1.0 - dfac.powi(s as i32))).abs() < 1e-12);
        assert!((nei - (dfac.powi(s as i32) - dfac.powi(tt as i32))).abs() < 1e-12);
        assert!((str - dfac.powi(tt as i32)).abs() < 1e-7);
    }

    #[test]
    fn pagerank_decomposition_uniform_seed() {
        let g = cycle_graph(5);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let d = decompose(&t, &SeedSet::Uniform, &cfg, 2, 4);
        // On a cycle with uniform seed every part stays uniform.
        for part in [&d.family, &d.neighbor, &d.stranger] {
            let first = part[0];
            assert!(part.iter().all(|&v| (v - first).abs() < 1e-12));
        }
    }
}
