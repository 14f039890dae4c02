//! Bounded exact top-k: K-dash-style early termination riding the CPI
//! sweep (ROADMAP direction 2; shape from Fujiwara et al., "Fast and
//! Exact Top-k Search for Random Walk with Restart", adapted to TPA's
//! cumulative iteration).
//!
//! CPI accumulates only nonnegative interim mass, so every node's
//! running window sum is a monotone *lower bound* on its converged
//! score — bitwise (correctly-rounded addition of nonnegative terms
//! never decreases). The matching *upper bound* adds what the sweep can
//! still deliver to `v`, term by lookahead term:
//!
//! * one step out, `x(i+1)[v] = (1−c)·Σ_{u∈in(v)} x(i)[u]/d_u` is at
//!   most `(1−c)·min(‖x(i)‖∞·w₁(v), ‖x(i)‖₁·ĉ₁(v))` with
//!   `w₁ = Ãᵀ𝟙` the raw in-mass and `ĉ₁ = min(w₁, 1)` its
//!   substochastic clamp;
//! * two steps out the same argument applies to `Ãᵀx`, giving
//!   `(1−c)²·min(‖x‖∞·(Ãᵀw₁)(v), ‖x‖₁·ĉ₂(v))`;
//! * every deeper step contracts in L1, so step `t` is bounded by
//!   `(1−c)ᵗ·‖x‖₁·ĉ_t(v)` with the *chained caps*
//!   `ĉ_{t+1} = min(Ãᵀĉ_t, ĉ_t)` — each extra hop multiplies a
//!   typical node's share by the mean inverse degree of its
//!   in-neighborhood, which is what makes the bound bite tens of
//!   iterations before the residual itself is small.
//!
//! The geometric remainder past the last precomputed level falls back
//! to the deepest cap ([`crate::bounds::remaining_mass_bound`] shape,
//! or the truncated window sum inside a TPA family window).
//!
//! After each accumulated iteration a checker ranks the current lower
//! bounds and keeps a *contender band*: any node whose upper bound
//! falls strictly below the k-th lower bound is excluded **forever** —
//! upper bounds certify the converged score, and the k-th lower bound
//! only grows — so the band collapses monotonically and the per-
//! iteration check cost collapses with it. The sweep stops as soon as
//! the band is empty, unreached nodes are covered (O(1) via the cap
//! maxima), and every adjacent pair inside the top k separates
//! strictly. Strict separation means the converged ranking cannot
//! differ — including tie order, because ties are impossible across a
//! strict gap — so the answer equals the dense partial-selection
//! path's set and order exactly. If the sweep instead reaches its
//! natural end (ε-convergence or the family-window end) without a
//! proof, the caller finishes through the ordinary dense path and the
//! result is bitwise identical to it, ties and all.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::cpi::{cpi_probed, SweepProbe};
use crate::frontier::{FrontierPolicy, SupportUnion};
use crate::tpa::finish_one;
use crate::{CpiConfig, CpiResult, Propagator, SeedSet};
use tpa_graph::NodeId;

/// Relative inflation applied to the geometric-tail term of every upper
/// bound. Covers the floating-point rounding of the residual fold, the
/// cap vectors, and the tail arithmetic itself (all ≪ 1e-12 relative).
const TAIL_SLACK: f64 = 1.0 + 1e-9;

/// Relative inflation applied to the accumulated-score term of every
/// upper bound: the converged accumulation performs a few hundred
/// rounded additions, so its value can exceed `lower + true tail` by a
/// few hundred ulps of the score. 1e-12 dominates that with ~40×
/// margin while costing nothing against real score gaps.
const UB_REL_SLACK: f64 = 1e-12;

/// Number of chained cap levels in [`TopkCaps`]: lookahead steps beyond
/// the last level fall back to the deepest cap.
const CAP_LEVELS: usize = 4;

/// Band size above which failed checks back off to every
/// [`FAR_CADENCE`]-th iteration: while most of the graph is still in
/// contention the check scans rival a propagation in cost, and the
/// k-th lower bound moves too slowly for per-iteration checks to pay.
/// Once the band collapses below this, checks are near-free and run
/// every iteration so the proof fires the moment it can.
const CADENCE_BAND: usize = 4096;

/// Check stride while the band is larger than [`CADENCE_BAND`]. Safe
/// at any value: a proof needs an empty band, and the stride drops to
/// 1 on the first check that sees the band below [`CADENCE_BAND`], so
/// firing is delayed only if the band collapse itself lands mid-stride
/// — a handful of iterations out of the ~30 the backoff saves.
const FAR_CADENCE: usize = 8;

/// What the bounded top-k path established about its answer, carried in
/// [`crate::QueryResponse::topk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopKGuarantee {
    /// The returned set *and order* are provably identical to the dense
    /// partial-selection path's. Always `true` today: the bounded path
    /// either proves stability from its bounds or finishes through the
    /// dense path itself. The field exists so future budget-capped
    /// variants can report an unproven answer honestly.
    pub proven_exact: bool,
    /// The bound proof fired before the sweep's natural end (ε-
    /// convergence, or the family-window end on the indexed path).
    pub early_terminated: bool,
    /// Iterations the proof saved against the sweep's natural horizon
    /// (`CpiConfig::iterations_to_converge`, or the family-window end).
    pub iterations_saved: usize,
    /// Nodes the last bound check excluded from contention without
    /// finishing their exact score.
    pub pruned_nodes: usize,
    /// The request was answered by the dense path because bounds can't
    /// ride the sweep on its backend (out-of-core).
    pub fallback_dense: bool,
}

/// Per-node tail-share caps for the bounded upper bounds, computed once
/// per published snapshot (lazily, [`chained_caps`]).
pub(crate) struct TopkCaps {
    /// Raw one-hop in-mass `w₁ = Ãᵀ𝟙` (unclamped — pairs with the
    /// live ∞-norm, which a single step cannot amplify past it).
    w1: Vec<f64>,
    /// Raw two-hop in-mass `Ãᵀw₁` (unclamped, ∞-norm pairing).
    w2: Vec<f64>,
    /// Chained substochastic caps: `caps[0] = min(w₁, 1)`,
    /// `caps[t] = min(Ãᵀcaps[t−1], caps[t−1])`. Monotone in `t`.
    caps: [Vec<f64>; CAP_LEVELS],
    /// Component maxima of `w1`/`w2`, for the O(1) unreached bound.
    w1_max: f64,
    w2_max: f64,
    /// Component maxima of each cap level.
    cap_max: [f64; CAP_LEVELS],
}

/// How to map a family-window score to a final TPA score — the bounded
/// indexed path's view of [`crate::TpaIndex::finish_family`].
pub(crate) struct IndexedFinish<'a> {
    /// `TpaParams::neighbor_scale()`.
    pub scale: f64,
    /// The precomputed stranger vector (backend id space).
    pub stranger: &'a [f64],
    /// Last family iteration, `S − 1`.
    pub window_end: usize,
}

/// Inputs of a bounded run beyond the ordinary CPI arguments.
pub(crate) struct BoundedSpec<'a> {
    /// Number of results wanted (validated `1 ≤ k ≤ n` at admission).
    pub k: usize,
    /// Per-node tail-share caps of the snapshot's graph.
    pub caps: &'a TopkCaps,
    /// `Some` for the indexed (TPA) path, `None` for exact CPI.
    pub indexed: Option<IndexedFinish<'a>>,
}

/// What [`bounded_top_k`] did.
pub(crate) struct BoundedRun {
    /// The underlying sweep's accounting (scores are family scores on
    /// the indexed path).
    pub run: CpiResult,
    /// `Some(ranked)` when the proof fired: the exact top-k ids in
    /// exact converged order, scored by their bound-time lower bounds
    /// (equal to the dense values when the proof fired at the family-
    /// window end or at ε-convergence). `None`: the caller must finish
    /// through the dense path.
    pub proven: Option<Vec<(NodeId, f64)>>,
    /// Nodes the last bound check excluded (`n − k` when proven).
    pub pruned: usize,
    /// Iterations saved against the natural horizon (0 unless proven).
    pub iterations_saved: usize,
}

/// A top-k contender: compares by lower bound, ties toward the smaller
/// id — the same preference [`crate::top_k_scored`]'s tie-break has, so
/// "greater" always means "ranked ahead".
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cand {
    lb: f64,
    id: NodeId,
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.lb.total_cmp(&other.lb).then_with(|| other.id.cmp(&self.id))
    }
}

/// Per-check tail coefficients: `tail(v) = min(a1·w₁(v), b1·ĉ₁(v)) +
/// min(a2·w₂(v), b2·ĉ₂(v)) + g3·ĉ₃(v) + g4·ĉ₄(v)`, truncated to the
/// remaining horizon. All terms carry the residual's geometric decay;
/// the `a` terms carry the live iterate's ∞-norm instead of its mass —
/// much tighter once the sweep has spread the residual out.
struct TailEval<'a> {
    caps: &'a TopkCaps,
    a1: f64,
    b1: f64,
    a2: f64,
    b2: f64,
    g3: f64,
    g4: f64,
    /// O(1) bound for any node the sweep never touched (computed from
    /// the cap maxima).
    unreached: f64,
}

impl<'a> TailEval<'a> {
    /// `remaining = None` means an unbounded horizon (exact path: the
    /// bound must bracket the converged limit); `Some(r)` truncates the
    /// series to `r` further iterations (the family-window case,
    /// level-by-level what [`crate::bounds::windowed_mass_bound`] is
    /// globally).
    fn new(caps: &'a TopkCaps, c: f64, res: f64, xmax: f64, remaining: Option<usize>) -> Self {
        let d = 1.0 - c;
        let r = remaining.unwrap_or(usize::MAX);
        let (mut a1, mut b1, mut a2, mut b2, mut g3, mut g4) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        if r >= 1 {
            a1 = d * xmax;
            b1 = d * res;
        }
        if r >= 2 {
            a2 = d * d * xmax;
            b2 = d * d * res;
        }
        if r >= 3 {
            g3 = d * d * d * res;
        }
        if r >= 4 {
            let whole = d * d * d * d / c;
            g4 = res
                * match remaining {
                    None => whole,
                    // Σ_{t=4}^{r} dᵗ = (d⁴ − d^{r+1})/c.
                    Some(r) => whole - d.powi(r as i32 + 1) / c,
                };
        }
        let unreached = f64::min(a1 * caps.w1_max, b1 * caps.cap_max[0])
            + f64::min(a2 * caps.w2_max, b2 * caps.cap_max[1])
            + g3 * caps.cap_max[2]
            + g4 * caps.cap_max[3];
        Self { caps, a1, b1, a2, b2, g3, g4, unreached }
    }

    #[inline]
    fn tail(&self, v: usize) -> f64 {
        let c = self.caps;
        f64::min(self.a1 * c.w1[v], self.b1 * c.caps[0][v])
            + f64::min(self.a2 * c.w2[v], self.b2 * c.caps[1][v])
            + self.g3 * c.caps[2][v]
            + self.g4 * c.caps[3][v]
    }
}

/// Per-sweep bound-check state, reused across iterations.
///
/// `alive` is the contender band: every node that might still displace
/// the current top k. Exclusion is permanent — a node leaves the band
/// only when its upper bound (a certificate on its converged score)
/// drops strictly below the k-th lower bound, which never decreases —
/// so the band, and with it the per-check cost, shrinks monotonically.
struct Checker<'a> {
    spec: &'a BoundedSpec<'a>,
    c: f64,
    n: usize,
    /// Union of every support seen — the only nodes with nonzero
    /// accumulated score while the sweep stays sparse.
    union: SupportUnion,
    /// Prefix of `union.nodes()` already folded into the band.
    consumed: usize,
    /// True once supports are no longer tracked (dense mode) or the
    /// finish involves the everywhere-nonzero stranger vector.
    full_scan: bool,
    /// The band has been seeded with the never-reached ids (done once,
    /// when `full_scan` first latches).
    full_seeded: bool,
    alive: Vec<NodeId>,
    in_top: Vec<bool>,
    top: Vec<Cand>,
    evicted: Vec<NodeId>,
    heap: BinaryHeap<Reverse<Cand>>,
    /// Permanently excluded node count (monotone).
    excluded: usize,
    /// First iteration the next check is allowed to run at.
    next_check: usize,
    trace: bool,
    checks: u64,
    pruned: usize,
    proven: Option<Vec<(NodeId, f64)>>,
}

impl<'a> Checker<'a> {
    fn new(n: usize, c: f64, spec: &'a BoundedSpec<'a>) -> Self {
        Self {
            spec,
            c,
            n,
            union: SupportUnion::new(n),
            consumed: 0,
            full_scan: spec.indexed.is_some(),
            full_seeded: false,
            alive: Vec::new(),
            in_top: vec![false; n],
            top: Vec::with_capacity(spec.k),
            evicted: Vec::new(),
            heap: BinaryHeap::with_capacity(spec.k + 1),
            excluded: 0,
            next_check: 0,
            trace: std::env::var_os("TPA_TOPK_TRACE").is_some(),
            checks: 0,
            pruned: 0,
            proven: None,
        }
    }

    /// One bound check against the probe's scores; `true` stops the
    /// sweep (the proof fired and `self.proven` holds the answer).
    fn observe(&mut self, probe: SweepProbe<'_>) -> bool {
        // The union must fold in every iteration's support, even on
        // iterations the cadence skips — it is what makes the O(1)
        // unreached bound sound.
        match probe.support {
            Some(s) if !self.full_scan => self.union.merge(s),
            _ => self.full_scan = true,
        }
        let k = self.spec.k;
        if !self.full_scan && self.union.len() < k {
            return false;
        }
        if probe.i < self.next_check {
            return false;
        }
        self.checks += 1;
        // ∞-norm of the live iterate (exact over its support).
        let xmax = match probe.support {
            Some(s) => s.iter().fold(0.0f64, |m, &v| m.max(probe.iterate[v as usize])),
            None => probe.iterate.iter().fold(0.0f64, |m, &x| m.max(x)),
        };
        let remaining = self.spec.indexed.as_ref().map(|ix| ix.window_end - probe.i);
        let te = TailEval::new(self.spec.caps, self.c, probe.residual, xmax, remaining);

        // Grow the contender band: new union nodes, and — once the
        // sweep goes dense — every node never reached while sparse.
        // (Nodes excluded earlier were in the union already; their
        // certificates stand.)
        if self.full_scan && !self.full_seeded {
            self.full_seeded = true;
            for v in 0..self.n as NodeId {
                if !self.union.contains(v) && !self.in_top[v as usize] {
                    self.alive.push(v);
                }
            }
        }
        while self.consumed < self.union.len() {
            let v = self.union.nodes()[self.consumed];
            self.consumed += 1;
            if !self.in_top[v as usize] {
                self.alive.push(v);
            }
        }

        let scores = probe.scores;
        let Self { spec, n, union, full_scan, in_top, alive, top, evicted, heap, excluded, .. } =
            self;
        let (n, full_scan) = (*n, *full_scan);
        let lb_of = |v: NodeId| match &spec.indexed {
            Some(ix) => finish_one(ix.scale, scores[v as usize], ix.stranger[v as usize]),
            None => scores[v as usize],
        };
        let ub_of = |v: NodeId| {
            let f = scores[v as usize];
            let fam_ub = f + (f * UB_REL_SLACK + te.tail(v as usize) * TAIL_SLACK);
            match &spec.indexed {
                Some(ix) => finish_one(ix.scale, fam_ub, ix.stranger[v as usize]),
                None => fam_ub,
            }
        };

        // Pass 1: the k largest lower bounds over band ∪ top (small
        // min-heap; band members promoted here leave the band below).
        heap.clear();
        let push = |cand: Cand, heap: &mut BinaryHeap<Reverse<Cand>>| {
            if heap.len() < k {
                heap.push(Reverse(cand));
            } else if heap.peek().is_some_and(|min| cand > min.0) {
                heap.pop();
                heap.push(Reverse(cand));
            }
        };
        for &v in alive.iter() {
            push(Cand { lb: lb_of(v), id: v }, heap);
        }
        for cand in top.iter() {
            push(Cand { lb: lb_of(cand.id), id: cand.id }, heap);
        }
        // Band ∪ top holds ≥ k nodes by the union-size gate above, but
        // an empty heap simply means "no proof yet" — never a panic.
        let Some(kth) = heap.peek().map(|r| r.0) else { return false };
        evicted.clear();
        for cand in top.iter() {
            evicted.push(cand.id);
            in_top[cand.id as usize] = false;
        }
        top.clear();
        for &Reverse(cand) in heap.iter() {
            top.push(cand);
        }
        top.sort_unstable_by(|a, b| b.cmp(a));
        for cand in top.iter() {
            in_top[cand.id as usize] = true;
        }
        for &v in evicted.iter() {
            if !in_top[v as usize] {
                alive.push(v);
            }
        }

        // A wide band only starts shedding once residual-scaled tails
        // dip below the k-th lower bound: bulk nodes carry f ≈ 0 and
        // ub ≈ tail ≤ res·(chain sum) with cap ≤ 1 per level, so while
        // `res ≥ kth.lb` the expensive bound scan is provably (to
        // within the chain constant) fruitless. Spend O(band) on the
        // heap refresh only and skip passes 2–3 until then.
        let shallow = alive.len() > CADENCE_BAND && probe.residual >= kth.lb;
        let mut ok = false;
        if shallow {
            // Nodes promoted in pass 1 must still leave the band, or
            // the next heap refresh would double-count them (and a
            // duplicated top entry can never pass the pair check).
            alive.retain(|&v| !in_top[v as usize]);
        } else {
            // Pass 2: permanent band pruning. Promoted nodes just move
            // to the top; a node whose upper bound sits strictly below
            // the k-th lower bound can never re-enter (its bound
            // certifies the converged score, and the k-th lower bound
            // only grows).
            alive.retain(|&v| {
                if in_top[v as usize] {
                    return false;
                }
                if ub_of(v) >= kth.lb {
                    true
                } else {
                    *excluded += 1;
                    false
                }
            });
            let band_ok = alive.is_empty();

            // Unreached nodes (score exactly 0) are covered in O(1) by
            // the cap maxima while the sweep stays sparse.
            let unreached = if full_scan { 0 } else { n - union.len() };
            let unreached_ok = unreached == 0 || te.unreached * TAIL_SLACK < kth.lb;

            // Pass 3: strict separation of every adjacent pair inside
            // the top k — this is what pins the *order* (and rules out
            // ties).
            ok = band_ok && unreached_ok;
            if ok {
                for w in top.windows(2) {
                    if ub_of(w[1].id) >= w[0].lb {
                        ok = false;
                        break;
                    }
                }
            }
            self.pruned = *excluded + if unreached_ok { unreached } else { 0 };
        }
        // Back off while the band is wide (checks cost ~a propagation
        // and can't succeed yet); re-arm per-iteration checks once it
        // collapses.
        self.next_check = probe.i + if !ok && alive.len() > CADENCE_BAND { FAR_CADENCE } else { 1 };
        if self.trace && (probe.i.is_multiple_of(5) || ok) {
            let worst_band =
                alive.iter().map(|&v| ub_of(v) - kth.lb).fold(f64::NEG_INFINITY, f64::max);
            let worst_pair =
                top.windows(2).map(|w| ub_of(w[1].id) - w[0].lb).fold(f64::NEG_INFINITY, f64::max);
            eprintln!(
                "[trace] i={} band={} kth_lb={:.3e} res={:.3e} xmax={:.3e} \
                 worst_band_margin={:.3e} worst_pair_margin={:.3e} shallow={} ok={}",
                probe.i,
                alive.len(),
                kth.lb,
                probe.residual,
                xmax,
                worst_band,
                worst_pair,
                shallow,
                ok
            );
        }
        if ok {
            self.proven = Some(top.iter().map(|cand| (cand.id, cand.lb)).collect());
        }
        ok
    }
}

/// Runs the bounded top-k sweep: an ordinary CPI sweep (same kernels,
/// same policy scheduling, bitwise-identical interim state) with the
/// bound checker riding the early-stop probe. See the module docs for
/// the proof the checker requires before it stops the sweep.
pub(crate) fn bounded_top_k<P: Propagator + ?Sized>(
    backend: &P,
    seeds: &SeedSet,
    cfg: &CpiConfig,
    policy: FrontierPolicy,
    spec: &BoundedSpec<'_>,
    guard: Option<&crate::admission::SweepGuard>,
) -> BoundedRun {
    let n = backend.n();
    debug_assert!(spec.k >= 1 && spec.k <= n, "admission validates k");
    let (end, horizon) = match &spec.indexed {
        Some(ix) => (Some(ix.window_end), ix.window_end.min(cfg.max_iters)),
        None => (None, cfg.iterations_to_converge().min(cfg.max_iters)),
    };
    let mut checker = Checker::new(n, cfg.c, spec);
    let run = cpi_probed(
        backend,
        seeds,
        cfg,
        0,
        end,
        policy,
        // The admission guard shares the checker's probe: a tripped
        // deadline/cancel stops the sweep before the next bound check.
        |probe| guard.is_some_and(|g| g.probe()) || checker.observe(probe),
    );
    // A sweep that hit ε-convergence holds fully converged scores: on
    // the exact path the dense finish is then free *and* bitwise equal
    // to the baseline (proven or not), so prefer it. The indexed proof
    // stays authoritative — at ε or at the window end the family scores
    // are the dense path's own, and keeping the proof skips the O(n)
    // finish + select.
    let proven = match (&spec.indexed, run.converged) {
        (None, true) => None,
        _ => checker.proven.take(),
    };
    let early_terminated = proven.is_some() && run.last_iteration < horizon && !run.converged;
    let iterations_saved = if early_terminated { horizon - run.last_iteration } else { 0 };
    let pruned = if proven.is_some() { n - spec.k } else { checker.pruned };
    if crate::profiling::profiling_enabled() {
        crate::profiling::record_topk_run(checker.checks, early_terminated, pruned as u64);
    }
    BoundedRun { run, proven, pruned, iterations_saved }
}

/// Builds the per-node tail-share caps backend-agnostically with
/// `CAP_LEVELS + 1` propagations of all-ones / cap vectors:
/// `(Ãᵀy)[v] = Σ_{u∈in(v)} y_u/outdeg(u)`. O(m) each, done lazily once
/// per published snapshot.
pub(crate) fn chained_caps<P: Propagator + ?Sized>(backend: &P) -> TopkCaps {
    let n = backend.n();
    let propagate = |input: &[f64]| {
        let mut out = vec![0.0f64; n];
        backend.propagate_into(1.0, input, &mut out);
        out
    };
    let vec_max = |v: &[f64]| v.iter().fold(0.0f64, |m, &x| m.max(x));

    let w1 = propagate(&vec![1.0f64; n]);
    let w2 = propagate(&w1);
    let c1: Vec<f64> = w1.iter().map(|&w| w.min(1.0)).collect();
    let mut caps = [c1, Vec::new(), Vec::new(), Vec::new()];
    for t in 1..CAP_LEVELS {
        let mut next = propagate(&caps[t - 1]);
        for (a, b) in next.iter_mut().zip(&caps[t - 1]) {
            *a = a.min(*b);
        }
        caps[t] = next;
    }
    let cap_max = [vec_max(&caps[0]), vec_max(&caps[1]), vec_max(&caps[2]), vec_max(&caps[3])];
    TopkCaps { w1_max: vec_max(&w1), w2_max: vec_max(&w2), w1, w2, caps, cap_max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cpi, top_k_scored, Transition};
    use tpa_graph::gen::{cycle_graph, star_graph};
    use tpa_graph::CsrGraph;

    fn exact_spec(caps: &TopkCaps, k: usize) -> BoundedSpec<'_> {
        BoundedSpec { k, caps, indexed: None }
    }

    #[test]
    fn caps_are_in_weight_shares() {
        // star_graph: center 0 with spokes both ways. Every spoke has
        // exactly one in-neighbor (the center, out-degree n−1); the
        // center receives 1/1 from each spoke — raw in-mass 4, clamped
        // to 1.
        let g = star_graph(5);
        let t = Transition::new(&g);
        let caps = chained_caps(&t);
        assert!((caps.w1[0] - 4.0).abs() < 1e-15);
        assert_eq!(caps.cap_max[0], 1.0);
        assert!((caps.caps[0][0] - 1.0).abs() < 1e-15);
        for &c in &caps.caps[0][1..] {
            assert!((c - 0.25).abs() < 1e-15, "spoke cap {c}");
        }
        // The chain is monotone level to level.
        for v in 0..5 {
            for t in 1..CAP_LEVELS {
                assert!(caps.caps[t][v] <= caps.caps[t - 1][v] + 1e-15, "level {t} node {v}");
            }
        }
    }

    #[test]
    fn proven_run_matches_dense_order() {
        // A graph with clearly separated scores: the bounded run must
        // terminate early and agree with the dense selection exactly.
        let g = CsrGraph::from_edges(
            6,
            &[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (3, 4), (4, 3), (2, 3), (4, 5)],
        );
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let caps = chained_caps(&t);
        let spec = exact_spec(&caps, 3);
        let seeds = SeedSet::single(0);
        let out = bounded_top_k(&t, &seeds, &cfg, FrontierPolicy::Auto, &spec, None);
        let dense = cpi(&t, &seeds, &cfg, 0, None);
        let want = top_k_scored(&dense.scores, 3);
        match out.proven {
            Some(ranked) => {
                let got: Vec<_> = ranked.iter().map(|&(v, _)| v).collect();
                let expect: Vec<_> = want.iter().map(|&(v, _)| v).collect();
                assert_eq!(got, expect);
                // Lower-bound scores never exceed the converged scores.
                for (&(v, lb), &(_, s)) in ranked.iter().zip(&want) {
                    assert!(lb <= s, "lb {lb} > score {s} for {v}");
                }
                assert!(out.iterations_saved > 0 || out.run.converged);
            }
            None => {
                // Unproven runs hold the converged scores: dense finish.
                assert!(out.run.converged);
                assert_eq!(top_k_scored(&out.run.scores, 3), want);
            }
        }
    }

    #[test]
    fn tied_scores_never_fake_a_proof() {
        // Perfect symmetry: every node of a cycle scores identically
        // except for distance effects; with k = n all adjacent pairs at
        // equal score can never strictly separate, so the run must fall
        // through to the converged dense finish.
        let g = cycle_graph(4);
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let caps = chained_caps(&t);
        let spec = exact_spec(&caps, 4);
        let out = bounded_top_k(&t, &SeedSet::Uniform, &cfg, FrontierPolicy::Auto, &spec, None);
        assert!(out.proven.is_none(), "equal scores cannot strictly separate");
        assert!(out.run.converged);
    }
}
