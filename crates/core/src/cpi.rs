//! Cumulative Power Iteration (CPI) — Algorithm 1 of the paper.
//!
//! CPI interprets RWR as score propagation: `x(0) = c·q`, then
//! `x(i) = (1−c)·Ãᵀ·x(i−1)`, and the RWR vector is the cumulative sum
//! `r = Σᵢ x(i)`. The `start`/`end` iteration window is what TPA uses to
//! split the sum into family / neighbor / stranger parts.

use crate::frontier::{FrontierPolicy, FrontierScratch, SPARSE_CUMULATIVE_BUDGET};
use crate::{Propagator, SeedSet};
use tpa_graph::NodeId;

/// Shared CPI parameters.
#[derive(Clone, Copy, Debug)]
pub struct CpiConfig {
    /// Restart probability `c` (the paper uses 0.15 throughout).
    pub c: f64,
    /// Convergence tolerance ε: iteration stops once `‖x(i)‖₁ < ε`.
    pub eps: f64,
    /// Safety cap on iterations (the geometric decay normally stops the
    /// loop long before).
    pub max_iters: usize,
}

impl Default for CpiConfig {
    fn default() -> Self {
        Self { c: 0.15, eps: 1e-9, max_iters: 1000 }
    }
}

impl CpiConfig {
    /// Config with a custom restart probability.
    pub fn with_c(c: f64) -> Self {
        Self { c, ..Self::default() }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            // lint:allow(panic-freedom, "documented panicking wrapper over the fallible check(); admission paths call check() directly")
            panic!("{e}");
        }
    }

    /// Fallible version of [`CpiConfig::validate`] for admission paths
    /// that must report a [`crate::TpaError`] instead of panicking.
    pub fn check(&self) -> Result<(), crate::TpaError> {
        let bad = |msg: String| Err(crate::TpaError::InvalidConfig(msg));
        if !(self.c > 0.0 && self.c < 1.0) {
            return bad(format!("restart probability must be in (0,1), got {}", self.c));
        }
        // NaN must fail too, so test "positive" directly.
        if self.eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return bad(format!("tolerance must be positive, got {}", self.eps));
        }
        if self.max_iters < 1 {
            return bad("max_iters must be at least 1".into());
        }
        Ok(())
    }

    /// Number of iterations CPI needs to converge:
    /// `log_{1−c}(ε/c)` (paper, Lemma 4).
    pub fn iterations_to_converge(&self) -> usize {
        ((self.eps / self.c).ln() / (1.0 - self.c).ln()).ceil().max(1.0) as usize
    }
}

/// Result of a CPI run.
#[derive(Clone, Debug)]
pub struct CpiResult {
    /// Accumulated score vector (the sum of `x(i)` over the window).
    pub scores: Vec<f64>,
    /// Index of the last iteration whose interim vector was computed.
    pub last_iteration: usize,
    /// `‖x(last)‖₁` at exit.
    pub final_residual: f64,
    /// True if the ε-criterion (not the window end or iteration cap)
    /// terminated the run.
    pub converged: bool,
}

/// Runs CPI accumulating `x(i)` for `start ≤ i ≤ end` (`end = None` ⇒ run
/// to convergence). This is Algorithm 1 with `siter = start`,
/// `titer = end`.
///
/// Iteration 0 is the seed vector `x(0) = c·q` itself; it is accumulated
/// when `start == 0`, matching the series `r = Σ_{i≥0} x(i)`.
///
/// Propagation is scheduled by [`FrontierPolicy::Auto`]: iterations whose
/// interim vector is supported on a small frontier run the backend's
/// sparse kernel, and the run latches onto the dense kernels once the
/// frontier saturates. Any policy is bitwise invisible — use
/// [`cpi_policy`] to force one.
pub fn cpi<P: Propagator + ?Sized>(
    transition: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    start: usize,
    end: Option<usize>,
) -> CpiResult {
    cpi_trace(transition, seeds, cfg, start, end, |_, _| {})
}

/// [`cpi`] with an explicit [`FrontierPolicy`] (forced dense, forced
/// sparse, or the default direction-optimizing `Auto`). All policies
/// produce bitwise-identical results on every backend; only the memory
/// traffic differs.
pub fn cpi_policy<P: Propagator + ?Sized>(
    transition: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    start: usize,
    end: Option<usize>,
    policy: FrontierPolicy,
) -> CpiResult {
    cpi_trace_policy(transition, seeds, cfg, start, end, policy, |_, _| {})
}

/// [`cpi`] with a per-iteration callback receiving `(i, x(i))` for every
/// interim vector computed — the hook the decomposition experiments
/// (Table III, Fig. 9) use to capture the family/neighbor/stranger split.
pub fn cpi_trace<P: Propagator + ?Sized>(
    transition: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    start: usize,
    end: Option<usize>,
    on_iteration: impl FnMut(usize, &[f64]),
) -> CpiResult {
    cpi_trace_policy(transition, seeds, cfg, start, end, FrontierPolicy::Auto, on_iteration)
}

/// [`cpi_trace`] with an explicit [`FrontierPolicy`]. The direction
/// decision is made here, per iteration, from the backend's
/// [`Propagator::frontier_work`] probe:
///
/// * `Dense` — every iteration runs `propagate_into_norm` (the
///   pre-frontier behavior, with the residual folded inside the kernel).
/// * `Sparse` — every iteration runs `propagate_frontier`, however large
///   the frontier grows.
/// * `Auto` — sparse while (a) the backend has a sparse path, (b) the
///   seed support is known (not [`SeedSet::Uniform`]), (c) the
///   frontier's out-edge count stays under `m / DENSE_SWITCH_DIVISOR`,
///   and (d) cumulative sparse edge work stays under
///   `SPARSE_CUMULATIVE_BUDGET · m`; then latches dense for the rest of
///   the run (propagation frontiers only grow).
///
/// While sparse, the per-iteration `O(n)` costs disappear too: the
/// residual comes out of the kernel's reachable-set fold, and the window
/// accumulation adds only the frontier's entries (both bitwise equal to
/// their dense counterparts — the skipped terms are exact zeros).
pub fn cpi_trace_policy<P: Propagator + ?Sized>(
    transition: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    start: usize,
    end: Option<usize>,
    policy: FrontierPolicy,
    on_iteration: impl FnMut(usize, &[f64]),
) -> CpiResult {
    cpi_sweep_policy(transition, seeds, cfg, start, end, policy, on_iteration, |_| false)
}

/// [`cpi_policy`] with an admission guard riding the sweep: the guard's
/// probe is consulted after every accumulated iteration — exactly the
/// hook the bounded top-k checker uses — so a cancelled or
/// deadline-expired request stops at the next iteration boundary
/// instead of running its sweep to completion. A tripped guard surfaces
/// as `converged: false`; the caller maps the trip to its typed error
/// via `SweepGuard::abort_error` and discards the partial scores.
pub(crate) fn cpi_guarded_policy<P: Propagator + ?Sized>(
    transition: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    start: usize,
    end: Option<usize>,
    policy: FrontierPolicy,
    guard: &crate::admission::SweepGuard,
) -> CpiResult {
    cpi_sweep_policy(transition, seeds, cfg, start, end, policy, |_, _| {}, |_| guard.probe())
}

/// Point-in-time view of a CPI sweep handed to an early-stop probe after
/// each accumulated iteration (see [`cpi_sweep_policy`]).
pub(crate) struct SweepProbe<'a> {
    /// Iteration index of the interim vector just accumulated.
    pub i: usize,
    /// Accumulated window sum so far — every node's score lower bound.
    pub scores: &'a [f64],
    /// The interim vector `x(i)` itself (zero off `support` while the
    /// sweep runs sparse).
    pub iterate: &'a [f64],
    /// `‖x(i)‖₁` of the interim vector (blocked-canonical fold).
    pub residual: f64,
    /// Ascending support of `x(i)` while the sweep runs sparse; `None`
    /// once the run has gone dense (the support is no longer tracked).
    /// Note this is the support of the *current* interim vector only,
    /// not the union over the run — observers that need "every node
    /// ever touched" must maintain their own union.
    pub support: Option<&'a [NodeId]>,
}

/// [`cpi_trace_policy`] plus an early-stop probe: `stop` is called after
/// every accumulated iteration (`i ≥ start`, including iteration 0) and
/// returning `true` ends the sweep immediately. The bounded top-k path
/// rides this hook to terminate once its bound proof fires; the public
/// entry points delegate with a never-stop probe, so the shared loop
/// stays the single source of truth for bitwise behavior.
///
/// An early-stopped run reports `converged: false` — the caller that
/// requested the stop knows why the loop ended.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cpi_sweep_policy<P: Propagator + ?Sized>(
    transition: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    start: usize,
    end: Option<usize>,
    policy: FrontierPolicy,
    mut on_iteration: impl FnMut(usize, &[f64]),
    mut stop: impl FnMut(SweepProbe<'_>) -> bool,
) -> CpiResult {
    cfg.validate();
    if let Some(e) = end {
        assert!(start <= e, "empty CPI window: start {start} > end {e}");
    }
    let n = transition.n();
    let mut x = vec![0.0f64; n];
    seeds.fill_seed_vector(cfg.c, &mut x);
    let mut next = vec![0.0f64; n];
    let mut scores = vec![0.0f64; n];

    // Sparse-mode state: the support of `x` (`active`), the stale
    // support still written in the `next` buffer, and the kernel
    // workspace. `Auto` without a known seed support (or a backend
    // without a sparse path) starts — and therefore stays — dense.
    let mut sparse = match policy {
        FrontierPolicy::Dense => false,
        FrontierPolicy::Sparse => true,
        FrontierPolicy::Auto => {
            seeds.support().is_some() && transition.frontier_work(&[]).is_some()
        }
    };
    let mut active: Vec<NodeId> = Vec::new();
    let mut stale: Vec<NodeId> = Vec::new();
    let mut scratch = None;
    let mut cumulative_work = 0usize;
    if sparse {
        active = seeds.support().unwrap_or_else(|| (0..n as NodeId).collect());
        scratch = Some(FrontierScratch::new(n));
    }
    // Profiling accumulates into locals (pure register traffic) and
    // flushes once at the end; disabled, the only cost is one relaxed
    // bool load here.
    let prof = crate::profiling::profiling_enabled();
    let mut tally = crate::profiling::RunTally::default();
    let dense_edges: u64 = if prof {
        transition.frontier_work(&[]).map(|w| w.total_edges as u64).unwrap_or(0)
    } else {
        0
    };

    on_iteration(0, &x);
    if start == 0 {
        if sparse {
            add_assign_support(&mut scores, &x, &active);
        } else {
            add_assign(&mut scores, &x);
        }
    }

    let mut i = 0usize;
    let mut residual = if sparse { l1_support(&x, &active) } else { l1(&x) };
    let mut converged = residual < cfg.eps;
    let hard_end = end.unwrap_or(usize::MAX);
    let mut stopped = start == 0
        && stop(SweepProbe {
            i: 0,
            scores: &scores,
            iterate: &x,
            residual,
            support: if sparse { Some(&active) } else { None },
        });

    while !converged && !stopped && i < hard_end && i < cfg.max_iters {
        i += 1;
        if sparse && policy == FrontierPolicy::Auto {
            // Per-iteration direction decision (one-way: sparse → dense).
            let keep = match transition.frontier_work(&active) {
                Some(w) => {
                    w.prefers_sparse()
                        && (cumulative_work as f64)
                            < SPARSE_CUMULATIVE_BUDGET * w.total_edges as f64
                }
                None => false,
            };
            if !keep {
                sparse = false;
                tally.auto_dense_switches = 1;
            }
        }
        if sparse {
            tally.sparse_iterations += 1;
            // lint:allow(panic-freedom, "scratch is allocated above whenever the sweep can enter sparse mode; sparse implies Some by construction")
            let scratch = scratch.as_mut().expect("sparse mode allocates its scratch");
            // `next` still holds x(i−2): zero its stale support so the
            // kernel's untouched entries are exact zeros.
            for &v in &stale {
                next[v as usize] = 0.0;
            }
            let step = transition.propagate_frontier(1.0 - cfg.c, &x, &mut next, &active, scratch);
            cumulative_work += step.edge_work;
            tally.sparse_edge_work += step.edge_work as u64;
            residual = step.residual;
            std::mem::swap(&mut x, &mut next);
            // Rotate the support lists alongside the buffers: the old
            // `active` is now the stale support of `next`.
            std::mem::swap(&mut active, &mut stale);
            std::mem::swap(&mut active, scratch.next_active_mut());
            if step.went_dense {
                tally.gather_bails += 1;
                if policy == FrontierPolicy::Auto {
                    sparse = false;
                }
            }
            on_iteration(i, &x);
            if i >= start {
                if sparse {
                    add_assign_support(&mut scores, &x, &active);
                } else {
                    add_assign(&mut scores, &x);
                }
                // `active` is the exact support of x(i) even after a
                // gather bail: the fallback scan rebuilt it densely.
                stopped = stop(SweepProbe {
                    i,
                    scores: &scores,
                    iterate: &x,
                    residual,
                    support: Some(&active),
                });
            }
        } else {
            tally.dense_iterations += 1;
            tally.dense_edge_work += dense_edges;
            residual = transition.propagate_into_norm(1.0 - cfg.c, &x, &mut next);
            std::mem::swap(&mut x, &mut next);
            on_iteration(i, &x);
            if i >= start {
                add_assign(&mut scores, &x);
                stopped =
                    stop(SweepProbe { i, scores: &scores, iterate: &x, residual, support: None });
            }
        }
        if residual < cfg.eps {
            converged = true;
        }
    }

    if prof {
        tally.iterations = i as u64;
        crate::profiling::record_cpi_run(tally);
    }
    CpiResult { scores, last_iteration: i, final_residual: residual, converged }
}

#[inline]
fn add_assign(acc: &mut [f64], x: &[f64]) {
    for (a, b) in acc.iter_mut().zip(x) {
        *a += b;
    }
}

/// Support-only accumulation: `x` is zero off `active`, and adding an
/// exact `0.0` to a score is the identity, so this matches
/// [`add_assign`] bit for bit while touching `O(|active|)` entries.
#[inline]
fn add_assign_support(acc: &mut [f64], x: &[f64], active: &[NodeId]) {
    for &v in active {
        acc[v as usize] += x[v as usize];
    }
}

/// The canonical residual chain (blocked two-level fold) — what every
/// dense `propagate_into_norm` returns.
#[inline]
fn l1(x: &[f64]) -> f64 {
    crate::gather::blocked_norm(x)
}

/// Support-only L1: ascending `active` covers every nonzero of `x`, and
/// the fold groups entries by their `NORM_BLOCK` so the chain matches
/// [`l1`] bit for bit — blocks without support contribute an exact
/// `+0.0` partial (elided), and within a block the skipped terms are
/// exact zeros.
#[inline]
pub(crate) fn l1_support(x: &[f64], active: &[NodeId]) -> f64 {
    let mut acc = 0.0f64;
    let mut i = 0usize;
    while i < active.len() {
        let block = active[i] as usize / crate::gather::NORM_BLOCK;
        let mut part = 0.0f64;
        while i < active.len() && active[i] as usize / crate::gather::NORM_BLOCK == block {
            part += x[active[i] as usize].abs();
            i += 1;
        }
        acc += part;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;
    use tpa_graph::gen::{complete_graph, cycle_graph};
    use tpa_graph::CsrGraph;

    fn l1_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    #[test]
    fn full_window_sums_to_one() {
        // Mass conservation: Σ r = Σᵢ c(1−c)ⁱ = 1 at convergence.
        let g = cycle_graph(10);
        let t = Transition::new(&g);
        let r = cpi(&t, &SeedSet::single(0), &CpiConfig::default(), 0, None);
        assert!(r.converged);
        let total: f64 = r.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-7, "total {total}");
    }

    #[test]
    fn satisfies_steady_state_equation() {
        // Theorem 1: r = (1−c)·Ãᵀ·r + c·q.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 2)]);
        let t = Transition::new(&g);
        let cfg = CpiConfig { eps: 1e-12, ..Default::default() };
        let r = cpi(&t, &SeedSet::single(0), &cfg, 0, None);
        let mut rhs = vec![0.0; 4];
        t.propagate_into(1.0 - cfg.c, &r.scores, &mut rhs);
        rhs[0] += cfg.c;
        assert!(l1_dist(&r.scores, &rhs) < 1e-9);
    }

    #[test]
    fn window_split_equals_full_run() {
        // family(0..=s−1) + rest(s..) must equal the full sum.
        let g = complete_graph(8);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let seeds = SeedSet::single(3);
        let full = cpi(&t, &seeds, &cfg, 0, None);
        let s = 4;
        let family = cpi(&t, &seeds, &cfg, 0, Some(s - 1));
        let rest = cpi(&t, &seeds, &cfg, s, None);
        let merged: Vec<f64> = family.scores.iter().zip(&rest.scores).map(|(a, b)| a + b).collect();
        assert!(l1_dist(&full.scores, &merged) < 1e-9);
    }

    #[test]
    fn family_mass_matches_lemma2() {
        // ‖r_family‖₁ = 1 − (1−c)^S (Lemma 2) on a dangling-free graph.
        let g = cycle_graph(6);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        for s in [1usize, 3, 5] {
            let fam = cpi(&t, &SeedSet::single(2), &cfg, 0, Some(s - 1));
            let want = 1.0 - (1.0 - cfg.c).powi(s as i32);
            let got: f64 = fam.scores.iter().sum();
            assert!((got - want).abs() < 1e-12, "S={s}: {got} vs {want}");
        }
    }

    #[test]
    fn interim_norm_is_geometric() {
        // ‖x(i)‖₁ = c(1−c)ⁱ exactly (column-stochastic case).
        let g = cycle_graph(5);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let mut norms = Vec::new();
        cpi_trace(&t, &SeedSet::single(0), &cfg, 0, Some(10), |_, x| {
            norms.push(x.iter().sum::<f64>());
        });
        for (i, &norm) in norms.iter().enumerate() {
            let want = cfg.c * (1.0 - cfg.c).powi(i as i32);
            assert!((norm - want).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn callback_sees_every_iteration() {
        let g = cycle_graph(4);
        let t = Transition::new(&g);
        let mut seen = Vec::new();
        cpi_trace(&t, &SeedSet::single(0), &CpiConfig::default(), 0, Some(5), |i, _| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn multi_seed_splits_initial_mass() {
        let g = cycle_graph(4);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let r = cpi(&t, &SeedSet::set(vec![0, 2]), &cfg, 0, Some(0));
        assert_eq!(r.scores[0], cfg.c / 2.0);
        assert_eq!(r.scores[2], cfg.c / 2.0);
        assert_eq!(r.scores[1], 0.0);
    }

    #[test]
    fn uniform_seed_is_pagerank_start() {
        let g = cycle_graph(4);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let r = cpi(&t, &SeedSet::Uniform, &cfg, 0, Some(0));
        for &v in &r.scores {
            assert!((v - cfg.c / 4.0).abs() < 1e-15);
        }
    }

    #[test]
    fn iterations_to_converge_formula() {
        let cfg = CpiConfig::default();
        let predicted = cfg.iterations_to_converge();
        let g = cycle_graph(7);
        let t = Transition::new(&g);
        let r = cpi(&t, &SeedSet::single(0), &cfg, 0, None);
        // Within ±2 iterations of the closed form.
        assert!(
            (r.last_iteration as i64 - predicted as i64).abs() <= 2,
            "ran {} predicted {predicted}",
            r.last_iteration
        );
    }

    #[test]
    #[should_panic(expected = "empty CPI window")]
    fn rejects_inverted_window() {
        let g = cycle_graph(3);
        let t = Transition::new(&g);
        cpi(&t, &SeedSet::single(0), &CpiConfig::default(), 5, Some(2));
    }
}
