//! Multi-threaded propagation backend.
//!
//! The gather kernel is embarrassingly parallel over *destination* nodes:
//! each thread owns a contiguous slice of `y` and reads shared `x`, so the
//! result is bit-identical to the sequential kernel (no atomics, no
//! reduction reordering). Thread ranges are balanced by in-edge count, not
//! node count, because power-law graphs concentrate edges on few nodes.
//! Within its range each worker runs the same flat gather as the
//! sequential backend.

use crate::batch::ScoreBlock;
use crate::frontier::{self, FrontierScratch, FrontierStep, FrontierWork};
use crate::gather;
use crate::transition::{dense_frontier_fallback, GraphHandle};
use crate::Propagator;
use std::sync::Arc;
use tpa_graph::{CsrGraph, NodeId};

/// Parallel version of [`crate::Transition`].
pub struct ParallelTransition<'g> {
    graph: GraphHandle<'g>,
    inv_out_deg: Vec<f64>,
    /// Destination ranges, one per worker, balanced by in-edge count.
    ranges: Vec<(u32, u32)>,
}

impl std::fmt::Debug for ParallelTransition<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelTransition")
            .field("threads", &self.ranges.len())
            .finish_non_exhaustive()
    }
}

impl<'g> ParallelTransition<'g> {
    /// Binds the operator with `threads` workers. The worker count is
    /// clamped to `[1, n]` — a range per worker is only useful while
    /// there are nodes to hand out — and every range is non-empty by
    /// construction.
    pub fn new(graph: &'g CsrGraph, threads: usize) -> Self {
        Self::from_handle(GraphHandle::Borrowed(graph), threads)
    }

    /// Binds the operator to a shared-ownership graph (used by reordered
    /// engines, which own the permuted graph they serve).
    pub fn shared(graph: Arc<CsrGraph>, threads: usize) -> ParallelTransition<'static> {
        ParallelTransition::from_handle(GraphHandle::Shared(graph), threads)
    }

    fn from_handle(graph: GraphHandle<'_>, threads: usize) -> ParallelTransition<'_> {
        let g = graph.get();
        let ranges = gather::balance_ranges(g.in_offsets(), threads);
        let inv_out_deg = g.inv_out_degrees();
        ParallelTransition { graph, inv_out_deg, ranges }
    }

    /// Default worker count: available parallelism.
    pub fn with_default_threads(graph: &'g CsrGraph) -> Self {
        let threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        Self::new(graph, threads)
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        self.graph.get()
    }

    /// Number of worker ranges.
    pub fn threads(&self) -> usize {
        self.ranges.len()
    }

    #[cfg(test)]
    pub(crate) fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

impl Propagator for ParallelTransition<'_> {
    fn n(&self) -> usize {
        self.graph.get().n()
    }

    fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
        gather::propagate(self.graph.get(), &self.inv_out_deg, &self.ranges, coeff, x, y);
    }

    /// Fused-residual step with the `O(n)` fold parallelized: each
    /// worker folds the per-`NORM_BLOCK` partials of its block-aligned
    /// band, and the partials compose into the same blocked-canonical
    /// residual bits as the sequential backends. Graphs too small for
    /// block-aligned ranges pay one sequential blocked scan instead.
    fn propagate_into_norm(&self, coeff: f64, x: &[f64], y: &mut [f64]) -> f64 {
        gather::propagate_norm(self.graph.get(), &self.inv_out_deg, &self.ranges, coeff, x, y)
    }

    fn frontier_work(&self, active: &[NodeId]) -> Option<FrontierWork> {
        let g = self.graph.get();
        Some(FrontierWork {
            frontier_edges: frontier::frontier_out_edges(g, active),
            total_edges: g.m(),
        })
    }

    /// Sparse-frontier step with the reachable set split over the same
    /// destination ranges as the dense kernels: each worker gathers the
    /// reachable nodes inside its band (disjoint writes), and the
    /// residual/next-frontier fold runs ascending on the calling thread
    /// — bit-identical to the sequential backend's step.
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
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        match frontier::sparse_step_ranged(
            g,
            g,
            &self.inv_out_deg,
            coeff,
            x,
            y,
            active,
            g.m(),
            &self.ranges,
            scratch,
        ) {
            Some(step) => step,
            None => dense_frontier_fallback(self, coeff, x, y, scratch),
        }
    }

    /// Fused parallel block kernel: each worker owns a contiguous band of
    /// destination *rows* (`lanes` floats per node), so the split is the
    /// same disjoint-write scheme as the scalar path — bit-identical to
    /// the sequential block kernel, no atomics.
    fn propagate_block_into(&self, coeff: f64, x: &ScoreBlock, y: &mut ScoreBlock) {
        gather::propagate_block(self.graph.get(), &self.inv_out_deg, &self.ranges, coeff, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cpi, CpiConfig, SeedSet, Transition};
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(83);
        lfr_lite(LfrConfig { n: 500, m: 4000, ..Default::default() }, &mut rng).graph
    }

    #[test]
    fn matches_sequential_bitwise() {
        let g = test_graph();
        let seq = Transition::new(&g);
        for threads in [1usize, 2, 3, 8] {
            let par = ParallelTransition::new(&g, threads);
            let x: Vec<f64> = (0..g.n()).map(|i| (i % 13) as f64 / 13.0).collect();
            let mut y_seq = vec![0.0; g.n()];
            let mut y_par = vec![0.0; g.n()];
            seq.propagate_into(0.85, &x, &mut y_seq);
            par.propagate_into(0.85, &x, &mut y_par);
            assert_eq!(y_seq, y_par, "threads = {threads}");
        }
    }

    #[test]
    fn cpi_identical_through_parallel_backend() {
        let g = test_graph();
        let seq = Transition::new(&g);
        let par = ParallelTransition::new(&g, 4);
        let cfg = CpiConfig::default();
        let a = cpi(&seq, &SeedSet::single(3), &cfg, 0, None).scores;
        let b = cpi(&par, &SeedSet::single(3), &cfg, 0, None).scores;
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_cover_all_nodes_disjointly() {
        let g = test_graph();
        for threads in [1usize, 2, 5, 16, 1000] {
            let par = ParallelTransition::new(&g, threads);
            let mut covered = 0u32;
            for &(start, end) in par.ranges() {
                assert_eq!(start, covered);
                covered = end;
            }
            assert_eq!(covered as usize, g.n());
        }
    }

    #[test]
    fn large_reachable_sets_split_across_workers_bitwise() {
        // A 3000-way fan-out from one seed pushes the reachable set past
        // the parallel sparse path's spawn threshold, exercising the
        // range-partitioned gather (small property graphs never do).
        use crate::frontier::FrontierScratch;
        let n = 9001usize;
        // Fan-out 0 → 1..=3000 (the reachable set, in-degree 1 each),
        // plus dense unreachable filler among 3001..9000 so the
        // reachable in-edge count (3000) stays under the m/8 gather
        // guard.
        // The builder's default SelfLoop dangling policy gives every fan
        // target a second in-edge, so the reachable in-edge count is
        // 2 × 3000; nine filler edges per chain node keep that under the
        // m/8 gather budget.
        let mut edges: Vec<(u32, u32)> = (1..=3000u32).map(|v| (0, v)).collect();
        for v in 3001..9000u32 {
            for k in 1..=9u32 {
                edges.push((v, 3001 + (v - 3001 + k * 997) % 6000));
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        let x = {
            let mut x = vec![0.0; n];
            x[0] = 1.0;
            x
        };
        let seq = Transition::new(&g);
        let mut dense = vec![0.0; n];
        seq.propagate_into(0.85, &x, &mut dense);
        for threads in [2usize, 4] {
            let par = ParallelTransition::new(&g, threads);
            let mut y = vec![0.0; n];
            let mut scratch = FrontierScratch::new(n);
            let step = par.propagate_frontier(0.85, &x, &mut y, &[0], &mut scratch);
            assert!(!step.went_dense, "fan-out frontier must stay sparse");
            assert_eq!(y, dense, "threads = {threads}");
            assert_eq!(scratch.next_active().len(), 3000);
        }
    }

    #[test]
    fn parallel_residual_fold_matches_sequential_bitwise() {
        // n spans several NORM_BLOCKs, so the parallel backends really
        // fold per-worker partials — and must still return the exact
        // bits of the sequential fused fold (and of a full CPI run's
        // convergence decisions). The second input runs the same
        // block-aligned fold over overlay rows: a patched view published
        // from a threaded overlay against the rebuilt CSR.
        use crate::batch::ScoreBlock;
        use crate::DynamicTransition;
        use rand::{rngs::StdRng, SeedableRng};
        use tpa_graph::{DynamicGraph, EdgeUpdate};
        let mut rng = StdRng::seed_from_u64(97);
        let g = lfr_lite(LfrConfig { n: 10_000, m: 60_000, ..Default::default() }, &mut rng).graph;
        let n = g.n();
        let seq = Transition::new(&g);
        let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 / 17.0).collect();
        let mut xb = ScoreBlock::zeros(n, 8);
        for (i, e) in xb.data_mut().iter_mut().enumerate() {
            *e = ((i * 7) % 23) as f64 / 23.0;
        }
        let mut y_seq = vec![0.0; n];
        let norm_seq = seq.propagate_into_norm(0.85, &x, &mut y_seq);
        for threads in [2usize, 3] {
            let par = ParallelTransition::new(&g, threads);
            assert!(par.ranges().len() > 1, "threads = {threads}");
            let mut y_par = vec![0.0; n];
            let norm_par = par.propagate_into_norm(0.85, &x, &mut y_par);
            assert_eq!(y_seq, y_par, "threads = {threads}");
            assert_eq!(norm_seq.to_bits(), norm_par.to_bits(), "threads = {threads}");
            let a = cpi(&seq, &SeedSet::single(5), &CpiConfig::default(), 0, None);
            let b = cpi(&par, &SeedSet::single(5), &CpiConfig::default(), 0, None);
            assert_eq!(a.scores, b.scores);
            assert_eq!(a.last_iteration, b.last_iteration);
            assert_eq!(a.final_residual.to_bits(), b.final_residual.to_bits());

            let mut overlay =
                DynamicTransition::new(DynamicGraph::new(g.clone()).with_compact_threshold(None))
                    .with_threads(threads);
            overlay.apply(&[
                EdgeUpdate::Insert(3, 9_000),
                EdgeUpdate::Insert(9_000, 3),
                EdgeUpdate::Insert(4_500, 8_300),
                EdgeUpdate::Delete(3, 9_000),
                EdgeUpdate::Insert(7, 5_000),
            ]);
            let patched = overlay.publish_patched();
            assert!(patched.delta_edges() > 0);
            assert_eq!(patched.threads(), threads);
            let rebuilt = overlay.graph().snapshot();
            let reference = Transition::new(&rebuilt);
            let mut y_ref = vec![0.0; n];
            let mut y_patched = vec![0.0; n];
            let norm_ref = reference.propagate_into_norm(0.85, &x, &mut y_ref);
            let norm_patched = patched.propagate_into_norm(0.85, &x, &mut y_patched);
            assert_eq!(y_ref, y_patched, "patched, threads = {threads}");
            assert_eq!(norm_ref.to_bits(), norm_patched.to_bits(), "patched, threads = {threads}");
            let mut yb_ref = ScoreBlock::zeros(n, 8);
            let mut yb_patched = ScoreBlock::zeros(n, 8);
            reference.propagate_block_into(0.85, &xb, &mut yb_ref);
            patched.propagate_block_into(0.85, &xb, &mut yb_patched);
            assert_eq!(yb_ref.data(), yb_patched.data(), "patched, threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let g = tpa_graph::gen::cycle_graph(3);
        let par = ParallelTransition::new(&g, 64);
        let x = vec![1.0 / 3.0; 3];
        let mut y = vec![0.0; 3];
        par.propagate_into(1.0, &x, &mut y);
        let total: f64 = y.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
