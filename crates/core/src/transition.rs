//! The RWR transition operator `Ãᵀ` bound to a graph.

use crate::batch::ScoreBlock;
use crate::frontier::{self, FrontierScratch, FrontierStep, FrontierWork};
use crate::gather;
use std::sync::Arc;
use tpa_graph::{CsrGraph, NodeId};

/// A propagation backend: anything that can compute the CPI step
/// `y ← coeff·Ãᵀ·x`. The in-memory [`Transition`] is the default; the
/// multi-threaded [`crate::ParallelTransition`] splits destinations over
/// workers; the out-of-core [`crate::offcore::DiskGraph`] streams edges
/// from disk (the paper's "disk-based RWR" future work).
pub trait Propagator {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// `y ← coeff · Ãᵀ·x`; `x` and `y` have length `n`.
    fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]);

    /// Batched step `Y ← coeff·Ãᵀ·X` over every lane of a
    /// [`ScoreBlock`]. The default runs the scalar kernel lane by lane;
    /// backends override it with fused kernels that share one edge pass
    /// across all lanes. Overrides must stay **bit-identical** to the
    /// default: per destination and lane, contributions are accumulated
    /// in in-neighbor order.
    fn propagate_block_into(&self, coeff: f64, x: &ScoreBlock, y: &mut ScoreBlock) {
        let n = self.n();
        assert_eq!(x.n(), n, "input block height mismatch");
        assert_eq!(y.n(), n, "output block height mismatch");
        assert_eq!(x.lanes(), y.lanes(), "lane count mismatch");
        let mut xl = vec![0.0f64; n];
        let mut yl = vec![0.0f64; n];
        for j in 0..x.lanes() {
            x.copy_lane_into(j, &mut xl);
            self.propagate_into(coeff, &xl, &mut yl);
            y.set_lane(j, &yl);
        }
    }

    /// [`Propagator::propagate_into`] that also returns `‖y‖₁` in the
    /// blocked-canonical association (per-`NORM_BLOCK` partials folded in
    /// ascending block order), so CPI's convergence check costs nothing
    /// extra and every backend — fused, parallel-partial, or sparse —
    /// produces the identical residual bits. The default propagates and then scans; the in-memory
    /// backends fuse the fold into the kernel's destination loop, and
    /// the multi-range backends fold per-worker partials.
    fn propagate_into_norm(&self, coeff: f64, x: &[f64], y: &mut [f64]) -> f64 {
        self.propagate_into(coeff, x, y);
        gather::blocked_norm(y)
    }

    /// Cost probe for a sparse-frontier step over `active` (the
    /// ascending support of the current interim vector): `None` means
    /// the backend has no sparse path and
    /// [`crate::FrontierPolicy::Auto`] should run dense. Backends with a
    /// native [`Propagator::propagate_frontier`] return the frontier's
    /// out-edge count and `m`.
    fn frontier_work(&self, active: &[NodeId]) -> Option<FrontierWork> {
        let _ = active;
        None
    }

    /// Sparse-frontier step `y ← coeff·Ãᵀ·x` touching only rows
    /// reachable from `active`. Contract: `active` is ascending and
    /// covers the support of `x`, and every entry of `y` is `0.0` on
    /// entry (the caller zeroes the stale support; see [`crate::cpi`]).
    /// On return `scratch.next_active()` holds the ascending support of
    /// `y`, and the step's residual is `‖y‖₁`.
    ///
    /// Results must be **bit-identical** to [`Propagator::propagate_into`]:
    /// native implementations gather each reachable destination's full
    /// in-row and skip only sources whose `x` entry is exactly `0.0`
    /// (an elided `+ 0.0`), so the floating-point chain matches the
    /// dense kernels term for term. The default runs the dense kernel
    /// and scans for the support — correct everywhere, sparse nowhere.
    fn propagate_frontier(
        &self,
        coeff: f64,
        x: &[f64],
        y: &mut [f64],
        active: &[NodeId],
        scratch: &mut FrontierScratch,
    ) -> FrontierStep {
        let _ = active;
        dense_frontier_fallback(self, coeff, x, y, scratch)
    }
}

/// Borrowed or shared ownership of a [`CsrGraph`]. Backends were born
/// borrowing (`&'g CsrGraph`); a service additionally needs backends
/// that *own* the (possibly permuted) graph they serve, so backends
/// accept either. One indirection resolved per propagation call — never
/// inside a kernel loop.
pub(crate) enum GraphHandle<'g> {
    /// Caller-owned graph, borrowed for the backend's lifetime.
    Borrowed(&'g CsrGraph),
    /// Backend-(co)owned graph (e.g. built by `with_reordering`).
    Shared(Arc<CsrGraph>),
}

impl GraphHandle<'_> {
    #[inline]
    pub(crate) fn get(&self) -> &CsrGraph {
        match self {
            GraphHandle::Borrowed(g) => g,
            GraphHandle::Shared(g) => g,
        }
    }
}

/// Row-normalized transposed adjacency operator `Ãᵀ` with the per-source
/// `1/outdeg` weights precomputed.
///
/// The propagation `y ← (1−c)·Ãᵀ·x` is implemented as a *gather* over
/// in-edges: each source's share `z[u] = x[u]·(1/outdeg u)` is computed
/// once per node in a sequential pass, and each node pulls `z[u]` from
/// its in-neighbors `u` — one random read per in-edge. Writes are
/// sequential (good for cache), the `z` reads are the random part;
/// relabeling the graph ([`mod@tpa_graph::reorder`]) is what makes them
/// local. The kernel is the one flat gather every in-memory backend
/// shares, run here over a single destination range.
pub struct Transition<'g> {
    graph: GraphHandle<'g>,
    inv_out_deg: Vec<f64>,
}

impl std::fmt::Debug for Transition<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transition").finish_non_exhaustive()
    }
}

impl<'g> Transition<'g> {
    /// Binds the operator to a graph, precomputing `1/outdeg`.
    pub fn new(graph: &'g CsrGraph) -> Self {
        let inv_out_deg = graph.inv_out_degrees();
        Self { graph: GraphHandle::Borrowed(graph), inv_out_deg }
    }

    /// Binds the operator to a shared-ownership graph (used by services,
    /// which own the — possibly permuted — graph they serve).
    pub fn shared(graph: Arc<CsrGraph>) -> Transition<'static> {
        let inv_out_deg = graph.inv_out_degrees();
        Transition { graph: GraphHandle::Shared(graph), inv_out_deg }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        self.graph.get()
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.get().n()
    }

    /// `y ← coeff · Ãᵀ·x`. `x` and `y` must both have length `n` and be
    /// distinct buffers.
    pub fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
        gather::propagate(self.graph.get(), &self.inv_out_deg, &self.range(), coeff, x, y);
    }

    /// The single destination range covering every node.
    #[inline]
    fn range(&self) -> [(u32, u32); 1] {
        [(0, self.n() as u32)]
    }

    /// Precomputed `1/outdeg` weights (0.0 for dangling nodes).
    #[inline]
    pub fn inv_out_degrees(&self) -> &[f64] {
        &self.inv_out_deg
    }
}

impl Propagator for Transition<'_> {
    fn n(&self) -> usize {
        Transition::n(self)
    }
    fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
        Transition::propagate_into(self, coeff, x, y)
    }
    fn propagate_block_into(&self, coeff: f64, x: &ScoreBlock, y: &mut ScoreBlock) {
        gather::propagate_block(self.graph.get(), &self.inv_out_deg, &self.range(), coeff, x, y);
    }
    fn propagate_into_norm(&self, coeff: f64, x: &[f64], y: &mut [f64]) -> f64 {
        gather::propagate_norm(self.graph.get(), &self.inv_out_deg, &self.range(), coeff, x, y)
    }
    fn frontier_work(&self, active: &[NodeId]) -> Option<FrontierWork> {
        let g = self.graph.get();
        Some(FrontierWork {
            frontier_edges: frontier::frontier_out_edges(g, active),
            total_edges: g.m(),
        })
    }
    fn propagate_frontier(
        &self,
        coeff: f64,
        x: &[f64],
        y: &mut [f64],
        active: &[NodeId],
        scratch: &mut FrontierScratch,
    ) -> FrontierStep {
        let g = self.graph.get();
        let n = g.n();
        assert_eq!(x.len(), n, "input vector length mismatch");
        assert_eq!(y.len(), n, "output vector length mismatch");
        match frontier::sparse_step(g, g, &self.inv_out_deg, coeff, x, y, active, g.m(), scratch) {
            Some(step) => step,
            // Gather-cost guard fired: one dense step (the frontier has
            // effectively saturated; Auto latches dense on the flag).
            None => dense_frontier_fallback(self, coeff, x, y, scratch),
        }
    }
}

/// Shared dense fallback for native `propagate_frontier` impls whose
/// gather-cost guard fired: runs the backend's dense-with-norm kernel
/// and scans for the support, flagging `went_dense` so
/// [`crate::FrontierPolicy::Auto`] latches.
pub(crate) fn dense_frontier_fallback<P: Propagator + ?Sized>(
    p: &P,
    coeff: f64,
    x: &[f64],
    y: &mut [f64],
    scratch: &mut FrontierScratch,
) -> FrontierStep {
    let residual = p.propagate_into_norm(coeff, x, y);
    let next = scratch.next_active_mut();
    next.clear();
    for (v, &yv) in y.iter().enumerate() {
        if yv != 0.0 {
            next.push(v as NodeId);
        }
    }
    FrontierStep { residual, edge_work: 0, went_dense: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_graph::CsrGraph;

    #[test]
    fn propagation_splits_mass_over_out_edges() {
        // 0 → {1, 2}: half of x[0] should arrive at each target.
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 0), (2, 0)]);
        let t = Transition::new(&g);
        let x = vec![1.0, 0.0, 0.0];
        let mut y = vec![0.0; 3];
        t.propagate_into(1.0, &x, &mut y);
        assert_eq!(y, vec![0.0, 0.5, 0.5]);
    }

    #[test]
    fn propagation_conserves_mass_without_dangling() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert!(g.dangling_nodes().is_empty());
        let t = Transition::new(&g);
        let x = vec![0.25; 4];
        let mut y = vec![0.0; 4];
        t.propagate_into(1.0, &x, &mut y);
        let total: f64 = y.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coefficient_scales_output() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0)]);
        let t = Transition::new(&g);
        let x = vec![1.0, 0.0];
        let mut y = vec![0.0; 2];
        t.propagate_into(0.85, &x, &mut y);
        assert_eq!(y, vec![0.0, 0.85]);
    }

    #[test]
    fn dangling_mass_leaks_under_keep_policy() {
        use tpa_graph::{DanglingPolicy, GraphBuilder};
        let g = GraphBuilder::new(2)
            .dangling_policy(DanglingPolicy::Keep)
            .extend_edges([(0, 1)])
            .build();
        let t = Transition::new(&g);
        let x = vec![0.5, 0.5];
        let mut y = vec![0.0; 2];
        t.propagate_into(1.0, &x, &mut y);
        // Node 1 is dangling: its 0.5 disappears.
        assert_eq!(y, vec![0.0, 0.5]);
    }

    #[test]
    fn shared_ownership_matches_borrowed() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let borrowed = Transition::new(&g);
        let shared = Transition::shared(Arc::new(g.clone()));
        let x: Vec<f64> = (0..4).map(|i| i as f64 / 4.0).collect();
        let mut y1 = vec![0.0; 4];
        let mut y2 = vec![0.0; 4];
        borrowed.propagate_into(0.85, &x, &mut y1);
        shared.propagate_into(0.85, &x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(shared.graph(), &g);
    }
}
