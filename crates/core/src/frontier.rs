//! Direction-optimizing sparse-frontier propagation.
//!
//! A single-seed CPI run starts with `x(0)` supported on one node; after
//! `i` iterations the interim vector is nonzero only on the seed's
//! `i`-hop out-neighborhood. The dense gather kernels still sweep every
//! destination row each iteration, so on a billion-scale power-law graph
//! the first few iterations waste almost all of their memory traffic on
//! rows that gather exactly `0.0`. This module tracks the **active
//! frontier** — the support of `x(i)` — and propagates only where mass
//! can actually arrive:
//!
//! 1. **Discover** the reachable destination set `R = ∪_{u∈F} out(u)`
//!    from the CSR out-rows of the frontier `F` (a marked-visited list,
//!    cleared in `O(|R|)`).
//! 2. **Gather** each reachable destination's *full* CSC in-row,
//!    skipping sources outside the frontier. Skipped terms are exactly
//!    `0.0` adds (`x[u] == 0.0` ⇒ `x[u]·w = +0.0`, and `acc + 0.0`
//!    leaves a non-negative accumulator bit-for-bit unchanged), so the
//!    per-destination floating-point chain is **identical** to the
//!    dense gather kernel's, which is what lets [`FrontierPolicy`] be
//!    bitwise invisible on every backend.
//! 3. **Fold** the convergence residual `‖x(i+1)‖₁` and the next
//!    frontier over `R` in ascending order during the same pass, so the
//!    sparse path never touches the other `n − |R|` entries at all.
//!
//! Direction switching (after Beamer's push/pull BFS): sparse propagation
//! wins while the frontier is small and loses once it saturates — power-
//! law graphs reach most of the graph within a few hops. The
//! [`FrontierPolicy::Auto`] heuristic therefore runs sparse while the
//! frontier's out-edge count stays under `m / `[`DENSE_SWITCH_DIVISOR`]
//! and the cumulative sparse edge work stays under
//! [`SPARSE_CUMULATIVE_BUDGET`]` · m`, and latches to the dense kernels
//! for the remainder of the run (frontiers only grow under propagation,
//! so the switch is one-way). A second guard lives inside the kernel:
//! reachable hubs drag their whole in-row into the gather, so if the
//! discovered gather cost exceeds `m / `[`GATHER_BAIL_DIVISOR`] the step
//! bails to the dense kernel before paying it.

use crate::gather::InAdjacency;
use tpa_graph::{CsrGraph, NodeId};

/// How CPI schedules its per-iteration propagation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierPolicy {
    /// Beamer-style direction optimization: sparse while the frontier is
    /// small, latching to dense once it saturates (the default).
    #[default]
    Auto,
    /// Always the dense kernels (the pre-frontier behavior).
    Dense,
    /// Always the sparse-frontier kernel, however large the frontier
    /// grows (diagnostics / benchmarking; `Auto` is faster in general).
    Sparse,
}

impl FrontierPolicy {
    /// Stable lowercase name (CLI flag value / bench label).
    pub fn name(&self) -> &'static str {
        match self {
            FrontierPolicy::Auto => "auto",
            FrontierPolicy::Dense => "dense",
            FrontierPolicy::Sparse => "sparse",
        }
    }

    /// Parses a [`FrontierPolicy::name`] string.
    pub fn parse(s: &str) -> Option<FrontierPolicy> {
        match s {
            "auto" => Some(FrontierPolicy::Auto),
            "dense" => Some(FrontierPolicy::Dense),
            "sparse" => Some(FrontierPolicy::Sparse),
            _ => None,
        }
    }
}

/// `Auto` switches to dense when the frontier's out-edges exceed
/// `m / DENSE_SWITCH_DIVISOR`: past that point the sparse step's
/// discovery + gather + bookkeeping costs rival a full dense sweep.
pub const DENSE_SWITCH_DIVISOR: usize = 8;

/// `Auto` also latches dense once *cumulative* sparse edge work crosses
/// this fraction of `m`: a full sweep's worth of sparse work means the
/// frontier has effectively saturated and the per-step overheads are
/// pure loss from here on.
pub const SPARSE_CUMULATIVE_BUDGET: f64 = 1.0;

/// A sparse step bails to the dense kernel when the reachable set's
/// in-edge count exceeds `m / GATHER_BAIL_DIVISOR` — reachable hubs drag
/// their entire in-row into the masked gather, which the cheap out-edge
/// predictor cannot see. The masked gather costs roughly twice the dense
/// kernel per edge (per-term branch, no streaming writes), so capping it
/// at an eighth of a sweep bounds a hub seed's one wasted sparse attempt
/// at a few percent before `Auto` latches dense (measured: divisor 2
/// left hub seeds ~10% over forced dense).
pub const GATHER_BAIL_DIVISOR: usize = 8;

/// Frontier cost probe: what a sparse step would have to touch.
/// Returned by [`crate::Propagator::frontier_work`]; `None` from a
/// backend means it has no sparse path and `Auto` should stay dense.
#[derive(Clone, Copy, Debug)]
pub struct FrontierWork {
    /// Σ out-degree over the active frontier (edges a discovery pass
    /// scans; an upper bound on the reachable-set size).
    pub frontier_edges: usize,
    /// Total edge count `m` (the dense sweep's work).
    pub total_edges: usize,
}

impl FrontierWork {
    /// True when [`FrontierPolicy::Auto`] should keep this step sparse.
    pub fn prefers_sparse(&self) -> bool {
        self.frontier_edges < self.total_edges / DENSE_SWITCH_DIVISOR
    }
}

/// What one [`crate::Propagator::propagate_frontier`] call did.
#[derive(Clone, Copy, Debug)]
pub struct FrontierStep {
    /// `‖y‖₁` in the blocked-canonical association — bitwise equal to a
    /// dense `propagate_into_norm` of the same step (skipped entries are
    /// exact zeros).
    pub residual: f64,
    /// Edges actually scanned (discovery + gather); 0 when the step ran
    /// the dense kernel.
    pub edge_work: usize,
    /// True if the step fell back to the dense kernel (no sparse path,
    /// or the gather-cost guard fired). `Auto` latches dense on it.
    pub went_dense: bool,
}

/// Reusable workspace for sparse-frontier steps: the visited bitmap and
/// reachable list for discovery, plus the next-frontier output. One
/// allocation per CPI run, `O(n)` bytes.
pub struct FrontierScratch {
    mark: Vec<bool>,
    reachable: Vec<NodeId>,
    next_active: Vec<NodeId>,
}

impl std::fmt::Debug for FrontierScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontierScratch").field("n", &self.mark.len()).finish_non_exhaustive()
    }
}

impl FrontierScratch {
    /// Workspace for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        Self { mark: vec![false; n], reachable: Vec::new(), next_active: Vec::new() }
    }

    /// The frontier the last step produced: ascending nodes with
    /// `y != 0.0`.
    pub fn next_active(&self) -> &[NodeId] {
        &self.next_active
    }

    /// Mutable access for callers that rotate the frontier buffers
    /// between iterations (see [`crate::cpi`]).
    pub fn next_active_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.next_active
    }
}

/// Monotone union of per-iteration supports. The sweep's `active` list
/// is the support of the *current* interim vector only — on DAG-ish
/// graphs the frontier moves on and earlier nodes drop out — so
/// observers that need "every node with a nonzero accumulated score"
/// (the bounded top-k checker) fold each iteration's support into this
/// set. `O(n)` bytes, `O(|support|)` per merge, membership list kept
/// unordered.
pub(crate) struct SupportUnion {
    mark: Vec<bool>,
    nodes: Vec<NodeId>,
}

impl SupportUnion {
    /// Empty union over an `n`-node graph.
    pub fn new(n: usize) -> Self {
        Self { mark: vec![false; n], nodes: Vec::new() }
    }

    /// Folds one iteration's support in.
    pub fn merge(&mut self, support: &[NodeId]) {
        for &v in support {
            let m = &mut self.mark[v as usize];
            if !*m {
                *m = true;
                self.nodes.push(v);
            }
        }
    }

    /// Every node seen in any merged support, in merge order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of distinct nodes seen so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `v` has appeared in any merged support.
    pub fn contains(&self, v: NodeId) -> bool {
        self.mark[v as usize]
    }
}

/// Out-adjacency access for frontier discovery, mirroring
/// [`InAdjacency`] on the gather side: implemented by [`CsrGraph`]
/// (plain CSR rows) and by the patched view's merged out-rows, so all
/// backends share one discovery pass.
pub(crate) trait OutAdjacency {
    /// Out-degree of `u` (the discovery-cost predictor).
    fn out_deg(&self, u: NodeId) -> usize;
    /// Visits every out-neighbor of `u`.
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, f: F);
}

impl OutAdjacency for CsrGraph {
    #[inline]
    fn out_deg(&self, u: NodeId) -> usize {
        self.out_degree(u)
    }
    #[inline]
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        for &v in self.out_neighbors(u) {
            f(v);
        }
    }
}

/// Σ out-degree over the frontier — the cheap `O(|F|)` work predictor
/// behind [`crate::Propagator::frontier_work`].
pub(crate) fn frontier_out_edges<O: OutAdjacency + ?Sized>(out: &O, active: &[NodeId]) -> usize {
    active.iter().map(|&u| out.out_deg(u)).sum()
}

/// Discovery: fills `scratch.reachable` with the ascending reachable set
/// `∪_{u∈active} out(u)` and returns the edges scanned. Marks stay set
/// for the caller (cleared by [`clear_marks`]).
fn discover<O: OutAdjacency + ?Sized>(
    out: &O,
    active: &[NodeId],
    scratch: &mut FrontierScratch,
) -> usize {
    scratch.reachable.clear();
    let mark = &mut scratch.mark;
    let reachable = &mut scratch.reachable;
    let mut scanned = 0usize;
    for &u in active {
        out.for_each_out(u, |v| {
            scanned += 1;
            let m = &mut mark[v as usize];
            if !*m {
                *m = true;
                reachable.push(v);
            }
        });
    }
    reachable.sort_unstable();
    scanned
}

fn clear_marks(scratch: &mut FrontierScratch) {
    for &v in &scratch.reachable {
        scratch.mark[v as usize] = false;
    }
}

/// One destination's masked gather: the full in-row in ascending order,
/// folded left exactly like the dense kernels, with zero-valued sources
/// skipped (each skip elides an exact `+ 0.0`).
#[inline]
fn masked_row_gather(row: &[NodeId], x: &[f64], inv: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for &u in row {
        let xu = x[u as usize];
        if xu != 0.0 {
            acc += xu * inv[u as usize];
        }
    }
    acc
}

/// Writes `y[v] = coeff · gather(v)` for every `v` in
/// `reachable[lo..hi]`, into the range-local slice `y_local`
/// (`y_local[0]` is node `range_start`). Shared by the sequential and
/// per-worker parallel sparse paths.
pub(crate) fn gather_reachable_into<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y_local: &mut [f64],
    reachable: &[NodeId],
    range_start: NodeId,
) {
    for &v in reachable {
        let acc = masked_row_gather(adj.in_row(v), x, inv);
        y_local[(v - range_start) as usize] = coeff * acc;
    }
}

/// Post-gather fold over the ascending reachable set: accumulates
/// `‖y‖₁` and collects the next frontier (`y != 0.0`). Entries are
/// grouped by their `NORM_BLOCK`, matching the blocked-canonical
/// association of the dense kernels' fused residual: blocks without reachable entries contribute an
/// exact `+0.0` partial (elided), and within a block the skipped terms
/// are exact zeros — so the residual is bitwise equal to a dense
/// `propagate_into_norm` of the same step.
pub(crate) fn fold_reachable(
    y: &[f64],
    reachable: &[NodeId],
    next_active: &mut Vec<NodeId>,
) -> f64 {
    next_active.clear();
    let mut residual = 0.0f64;
    let mut i = 0usize;
    while i < reachable.len() {
        let block = reachable[i] as usize / crate::gather::NORM_BLOCK;
        let mut part = 0.0f64;
        while i < reachable.len() && reachable[i] as usize / crate::gather::NORM_BLOCK == block {
            let v = reachable[i];
            let yv = y[v as usize];
            if yv != 0.0 {
                part += yv.abs();
                next_active.push(v);
            }
            i += 1;
        }
        residual += part;
    }
    residual
}

/// The sequential sparse-frontier step of [`crate::Transition`] (the
/// ranged backends go through [`sparse_step_ranged`]). Returns `None` —
/// leaving `y` untouched — when the reachable set's gather cost busts
/// [`GATHER_BAIL_DIVISOR`]; the caller then runs its dense kernel.
///
/// Contract (same for every implementor of
/// [`crate::Propagator::propagate_frontier`]): `active` is ascending and
/// covers the support of `x`, every entry of `y` is `0.0` on entry, and
/// `inv` is non-negative.
// A kernel entry point mirrors the full propagation state; bundling the
// slices into a struct would only rename the argument list.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sparse_step<O, A>(
    out: &O,
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y: &mut [f64],
    active: &[NodeId],
    total_edges: usize,
    scratch: &mut FrontierScratch,
) -> Option<FrontierStep>
where
    O: OutAdjacency + ?Sized,
    A: InAdjacency + ?Sized,
{
    let scanned = discover(out, active, scratch);
    let gather_cost: usize = scratch.reachable.iter().map(|&v| adj.in_row(v).len()).sum();
    clear_marks(scratch);
    if gather_cost > total_edges / GATHER_BAIL_DIVISOR {
        return None;
    }
    gather_reachable_into(adj, inv, coeff, x, y, &scratch.reachable, 0);
    let residual = fold_reachable(y, &scratch.reachable, &mut scratch.next_active);
    Some(FrontierStep { residual, edge_work: scanned + gather_cost, went_dense: false })
}

/// The parallel variant: reachable destinations are split by the
/// backend's destination ranges (each worker gathers the reachable
/// nodes inside its band — disjoint writes, shared reads), then one
/// ascending fold on the calling thread produces the residual and next
/// frontier, so the result — residual included — is bit-identical to
/// the sequential step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sparse_step_ranged<O, A>(
    out: &O,
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y: &mut [f64],
    active: &[NodeId],
    total_edges: usize,
    ranges: &[(u32, u32)],
    scratch: &mut FrontierScratch,
) -> Option<FrontierStep>
where
    O: OutAdjacency + ?Sized,
    A: InAdjacency + Sync + ?Sized,
{
    let scanned = discover(out, active, scratch);
    let gather_cost: usize = scratch.reachable.iter().map(|&v| adj.in_row(v).len()).sum();
    clear_marks(scratch);
    if gather_cost > total_edges / GATHER_BAIL_DIVISOR {
        return None;
    }
    let reachable = &scratch.reachable;
    // Below this many reachable rows the spawn cost outweighs the split;
    // the single-threaded path is bit-identical either way.
    const PAR_MIN_REACHABLE: usize = 2048;
    if ranges.len() == 1 || reachable.len() < PAR_MIN_REACHABLE {
        gather_reachable_into(adj, inv, coeff, x, y, reachable, 0);
    } else {
        crate::gather::par_ranges(ranges, 1, y, |slice, start, end| {
            let lo = reachable.partition_point(|&v| v < start);
            let hi = reachable.partition_point(|&v| v < end);
            gather_reachable_into(adj, inv, coeff, x, slice, &reachable[lo..hi], start);
        });
    }
    let residual = fold_reachable(y, reachable, &mut scratch.next_active);
    Some(FrontierStep { residual, edge_work: scanned + gather_cost, went_dense: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        lfr_lite(LfrConfig { n: 300, m: 2700, ..Default::default() }, &mut rng).graph
    }

    /// A graph whose small frontiers stay far under the gather-bail
    /// budget: three 10-way fans plus a long filler chain that inflates
    /// `m` without being reachable from the fan roots.
    fn fan_graph() -> CsrGraph {
        let n = 1200usize;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (root, base) in [(0u32, 10u32), (1, 100), (2, 200)] {
            for k in 0..10 {
                edges.push((root, base + k));
            }
        }
        edges.extend((400..1199u32).map(|v| (v, v + 1)));
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in [FrontierPolicy::Auto, FrontierPolicy::Dense, FrontierPolicy::Sparse] {
            assert_eq!(FrontierPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FrontierPolicy::parse("frog"), None);
        assert_eq!(FrontierPolicy::default(), FrontierPolicy::Auto);
    }

    #[test]
    fn sparse_step_matches_dense_bitwise() {
        let g = fan_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        // A sparse input supported on the three fan roots.
        let active: Vec<NodeId> = vec![0, 1, 2];
        let mut x = vec![0.0f64; n];
        for (k, &u) in active.iter().enumerate() {
            x[u as usize] = 0.05 * (k + 1) as f64;
        }
        let mut dense = vec![0.0f64; n];
        let dense_res =
            crate::gather::propagate_norm(&g, &inv, &[(0, n as u32)], 0.85, &x, &mut dense);
        let mut sparse = vec![0.0f64; n];
        let mut scratch = FrontierScratch::new(n);
        let step =
            sparse_step(&g, &g, &inv, 0.85, &x, &mut sparse, &active, g.m(), &mut scratch).unwrap();
        assert_eq!(sparse, dense);
        assert_eq!(step.residual.to_bits(), dense_res.to_bits());
        assert!(step.edge_work > 0 && !step.went_dense);
        // The reported frontier is exactly the support of the output.
        let support: Vec<NodeId> = (0..n as NodeId).filter(|&v| dense[v as usize] != 0.0).collect();
        assert_eq!(scratch.next_active(), &support[..]);
    }

    #[test]
    fn gather_bail_guard_fires_on_saturated_frontiers() {
        let g = fan_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let active: Vec<NodeId> = (0..n as NodeId).collect();
        let x = vec![1.0 / n as f64; n];
        let mut y = vec![0.0f64; n];
        let mut scratch = FrontierScratch::new(n);
        // With the whole graph active the reachable in-edge count is m,
        // which busts m / GATHER_BAIL_DIVISOR.
        assert!(sparse_step(&g, &g, &inv, 0.85, &x, &mut y, &active, g.m(), &mut scratch).is_none());
        assert!(y.iter().all(|&v| v == 0.0), "bail must leave y untouched");
        // Marks were cleared by the bail: a subsequent small-frontier
        // step through the same scratch still works (a fan root's
        // 10-edge neighborhood is well under the budget).
        let mut x2 = vec![0.0f64; n];
        x2[0] = 1.0;
        assert!(sparse_step(&g, &g, &inv, 0.85, &x2, &mut y, &[0], g.m(), &mut scratch).is_some());
    }

    #[test]
    fn empty_frontier_propagates_to_nothing() {
        let g = test_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let x = vec![0.0f64; n];
        let mut y = vec![0.0f64; n];
        let mut scratch = FrontierScratch::new(n);
        let step = sparse_step(&g, &g, &inv, 0.85, &x, &mut y, &[], g.m(), &mut scratch).unwrap();
        assert_eq!(step.residual, 0.0);
        assert!(scratch.next_active().is_empty());
    }

    #[test]
    fn switch_heuristic_prefers_sparse_only_for_small_frontiers() {
        let small = FrontierWork { frontier_edges: 10, total_edges: 1000 };
        assert!(small.prefers_sparse());
        let big = FrontierWork { frontier_edges: 400, total_edges: 1000 };
        assert!(!big.prefers_sparse());
    }
}
