//! Copy-on-write patch snapshots: the immutable backend a near-free
//! epoch publish hands to readers.
//!
//! The original serving loop rebuilt a fresh CSR from the writer's
//! merged overlay on **every** update batch — an `O(n + m)` snapshot
//! (allocation, merge walk, range rebalance) to publish an `O(batch)`
//! change. [`PatchedTransition`] is the other half of the overlay
//! design: an *immutable* bundle of
//!
//! * the base CSR, shared by `Arc` with the writer and every other
//!   epoch published since the last compaction,
//! * the materialized merged in-rows of dirty destinations and merged
//!   out-rows of changed sources (per-row `Arc`s, shared across
//!   epochs — a publish clones two small maps, not their contents),
//! * flat copies of the two per-node arrays the kernels index
//!   (`1/outdeg` and the dirty-destination flags — plain `memcpy`s,
//!   the only `O(n)` terms left in a publish, with no edge traversal),
//!
//! frozen at one epoch. It implements [`Propagator`] with the same
//! shared gather kernels as the static backends, over the overlay's
//! [`OverlayRows`](crate::dynamic) view, so its scores — residuals
//! included — are, by the `dynamic_equiv` property suite, **bitwise
//! identical** to a CSR rebuilt from scratch. Readers at epoch `e+1` therefore see
//! exactly the view a full rebuild would have published, at a publish
//! cost that scales with the accumulated overlay delta instead of the
//! graph; folding the delta back into a fresh base is demoted to a
//! background activity (see [`crate::RwrService`]).

use crate::dynamic::OverlayRows;
use crate::frontier::{self, FrontierScratch, FrontierStep, FrontierWork};
use crate::gather;
use crate::transition::dense_frontier_fallback;
use crate::Propagator;
use std::collections::HashMap;
use std::sync::Arc;
use tpa_graph::{CsrGraph, NodeId};

/// An immutable, shareable patched view of a dynamic graph: base CSR
/// plus merged-overlay delta, frozen at one epoch. See the module docs.
///
/// `Send + Sync`: any number of reader threads propagate on one
/// instance concurrently (it is the backend inside a published
/// [`crate::Snapshot`]).
pub struct PatchedTransition {
    base: Arc<CsrGraph>,
    inv_out_deg: Arc<Vec<f64>>,
    in_dirty: Arc<Vec<bool>>,
    in_rows: HashMap<NodeId, Arc<Vec<NodeId>>>,
    out_rows: HashMap<NodeId, Arc<Vec<NodeId>>>,
    /// Merged edge count (the base's `m` shifted by the overlay delta).
    m: usize,
    /// Pending patch entries the view carries over its base.
    delta_edges: usize,
    ranges: Vec<(u32, u32)>,
}

impl std::fmt::Debug for PatchedTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatchedTransition")
            .field("patched_rows", &self.in_rows.len())
            .finish_non_exhaustive()
    }
}

/// Out-adjacency view for frontier discovery: changed sources read
/// their materialized merged row, everyone else the base CSR slice —
/// the out-side mirror of [`OverlayRows`].
struct PatchedOut<'a> {
    base: &'a CsrGraph,
    out_rows: &'a HashMap<NodeId, Arc<Vec<NodeId>>>,
}

impl frontier::OutAdjacency for PatchedOut<'_> {
    #[inline]
    fn out_deg(&self, u: NodeId) -> usize {
        match self.out_rows.get(&u) {
            Some(r) => r.len(),
            None => self.base.out_degree(u),
        }
    }

    #[inline]
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        let row: &[NodeId] = match self.out_rows.get(&u) {
            Some(r) => r,
            None => self.base.out_neighbors(u),
        };
        for &v in row {
            f(v);
        }
    }
}

impl PatchedTransition {
    /// Bundles a published view; called by
    /// [`crate::DynamicTransition::publish_patched`], which owns the
    /// invariants (rows materialized against `base`, `inv_out_deg`
    /// merged-current, ranges balanced on `base`).
    // One field per argument: a builder would restate the struct.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        base: Arc<CsrGraph>,
        inv_out_deg: Arc<Vec<f64>>,
        in_dirty: Arc<Vec<bool>>,
        in_rows: HashMap<NodeId, Arc<Vec<NodeId>>>,
        out_rows: HashMap<NodeId, Arc<Vec<NodeId>>>,
        m: usize,
        delta_edges: usize,
        ranges: Vec<(u32, u32)>,
    ) -> Self {
        debug_assert_eq!(inv_out_deg.len(), base.n());
        debug_assert_eq!(in_dirty.len(), base.n());
        Self { base, inv_out_deg, in_dirty, in_rows, out_rows, m, delta_edges, ranges }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Number of edges in the patched view.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Patch entries (inserts + deletes) this view carries over its
    /// base; `0` means the view *is* the base.
    pub fn delta_edges(&self) -> usize {
        self.delta_edges
    }

    /// Number of destination-range workers.
    pub fn threads(&self) -> usize {
        self.ranges.len()
    }

    /// The shared base CSR this view patches.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    fn rows(&self) -> OverlayRows<'_> {
        OverlayRows { base: &self.base, in_dirty: &self.in_dirty, dirty_rows: &self.in_rows }
    }

    fn out_view(&self) -> PatchedOut<'_> {
        PatchedOut { base: &self.base, out_rows: &self.out_rows }
    }
}

impl Propagator for PatchedTransition {
    fn n(&self) -> usize {
        self.base.n()
    }

    /// The flat gather over the frozen patch rows: dirty destinations
    /// read their materialized merged row, everyone else the base CSC
    /// slice — the accumulation order of a rebuilt CSR, so the scores
    /// are bitwise identical to it.
    fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
        gather::propagate(&self.rows(), &self.inv_out_deg, &self.ranges, coeff, x, y);
    }

    fn propagate_into_norm(&self, coeff: f64, x: &[f64], y: &mut [f64]) -> f64 {
        gather::propagate_norm(&self.rows(), &self.inv_out_deg, &self.ranges, coeff, x, y)
    }

    fn frontier_work(&self, active: &[NodeId]) -> Option<FrontierWork> {
        Some(FrontierWork {
            frontier_edges: frontier::frontier_out_edges(&self.out_view(), active),
            total_edges: self.m,
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
        let n = self.n();
        assert_eq!(x.len(), n, "input vector length mismatch");
        assert_eq!(y.len(), n, "output vector length mismatch");
        let rows = self.rows();
        match frontier::sparse_step_ranged(
            &self.out_view(),
            &rows,
            &self.inv_out_deg,
            coeff,
            x,
            y,
            active,
            self.m,
            &self.ranges,
            scratch,
        ) {
            Some(step) => step,
            None => dense_frontier_fallback(self, coeff, x, y, scratch),
        }
    }

    fn propagate_block_into(
        &self,
        coeff: f64,
        x: &crate::batch::ScoreBlock,
        y: &mut crate::batch::ScoreBlock,
    ) {
        gather::propagate_block(&self.rows(), &self.inv_out_deg, &self.ranges, coeff, x, y);
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        cpi, cpi_trace_policy, CpiConfig, DynamicTransition, FrontierPolicy, SeedSet, Transition,
    };
    use tpa_graph::gen::{lfr_lite, LfrConfig};
    use tpa_graph::{DynamicGraph, EdgeUpdate};

    fn overlay() -> DynamicTransition {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let g = lfr_lite(LfrConfig { n: 400, m: 3600, ..Default::default() }, &mut rng).graph;
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(None));
        t.apply(&[
            EdgeUpdate::Insert(3, 250),
            EdgeUpdate::Insert(250, 3),
            EdgeUpdate::Delete(3, 250),
            EdgeUpdate::Insert(7, 120),
            EdgeUpdate::Delete(120, 7),
        ]);
        t
    }

    #[test]
    fn patched_view_matches_overlay_bitwise() {
        // The published view answers exactly like a CSR rebuilt from the
        // overlay's merged graph: scores, stopping step and residual.
        let t = overlay();
        let p = t.publish_patched();
        assert_eq!(p.n(), t.n());
        assert_eq!(p.m(), t.graph().m());
        assert!(p.delta_edges() > 0);
        let rebuilt = t.graph().snapshot();
        let reference = Transition::new(&rebuilt);
        let cfg = CpiConfig::default();
        for seed in [3u32, 120, 399] {
            let live = cpi(&reference, &SeedSet::single(seed), &cfg, 0, None);
            let snap = cpi(&p, &SeedSet::single(seed), &cfg, 0, None);
            assert_eq!(live.last_iteration, snap.last_iteration);
            assert_eq!(live.final_residual.to_bits(), snap.final_residual.to_bits());
            assert!(live.scores.iter().zip(&snap.scores).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn patched_frontier_policies_are_bitwise_invisible() {
        let t = overlay();
        let p = t.publish_patched();
        let cfg = CpiConfig::default();
        let seeds = SeedSet::single(7);
        let dense = cpi_trace_policy(&p, &seeds, &cfg, 0, None, FrontierPolicy::Dense, |_, _| {});
        for policy in [FrontierPolicy::Sparse, FrontierPolicy::Auto] {
            let run = cpi_trace_policy(&p, &seeds, &cfg, 0, None, policy, |_, _| {});
            assert_eq!(run.last_iteration, dense.last_iteration, "{policy:?}");
            assert!(run.scores.iter().zip(&dense.scores).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn published_view_is_frozen_while_the_overlay_moves_on() {
        let mut t = overlay();
        let p = t.publish_patched();
        let cfg = CpiConfig::default();
        let before = cpi(&p, &SeedSet::single(7), &cfg, 0, None).scores;
        t.apply(&[EdgeUpdate::Insert(7, 300), EdgeUpdate::Insert(300, 7)]);
        let after = cpi(&p, &SeedSet::single(7), &cfg, 0, None).scores;
        assert!(before.iter().zip(&after).all(|(a, b)| a.to_bits() == b.to_bits()));
        // The next publish sees the new edges.
        let p2 = t.publish_patched();
        let moved = cpi(&p2, &SeedSet::single(7), &cfg, 0, None).scores;
        assert_ne!(before, moved);
    }
}
