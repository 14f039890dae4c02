//! Dynamic RWR: the writer-side delta overlay plus OSP-style offset
//! propagation.
//!
//! Two pieces make the streaming workload serviceable:
//!
//! 1. [`DynamicTransition`] — the bookkeeping of the transition
//!    operator `Ãᵀ` over a mutable [`DynamicGraph`]: `1/outdeg` kept
//!    current across updates, and the merged in-rows of dirty
//!    destinations materialized once per update. It runs no kernels
//!    itself: [`DynamicTransition::publish_patched`] freezes its state
//!    into an immutable [`crate::PatchedTransition`], whose gather order
//!    matches a CSR rebuilt from scratch **bit for bit**. That is the
//!    backend [`crate::RwrService`] serves every dynamic epoch from.
//!
//! 2. Offset Score Propagation (after *"Fast and Accurate Random Walk
//!    with Restart on Dynamic Graphs with Guarantees"*, Yoon et al. —
//!    the TPA authors' follow-up). When the graph changes from `Ã` to
//!    `Ã'`, the new RWR vector is `r' = r + Δ` where the correction `Δ`
//!    solves the *same* linear system with the **offset seed**
//!    `b = (1−c)·(Ã'ᵀ − Ãᵀ)·r` in place of the restart vector:
//!
//!    ```text
//!    Δ = Σ_{i≥0} ((1−c)·Ã'ᵀ)^i · b
//!    ```
//!
//!    `b` is supported only on the out-neighborhoods of nodes whose
//!    adjacency changed, and `‖b‖₁` scales with the update batch — so
//!    propagating the offset costs a few sparse-ish CPI iterations
//!    instead of a full from-scratch rerun. The overlay builds `b`
//!    ([`DynamicTransition::offset_seed_for`]), and the CPI sweep loop
//!    itself propagates it through the published view, started from `b`
//!    instead of `c·q`. The service keeps its
//!    hot-seed score cache ([`crate::ServiceBuilder::score_cache`]) and
//!    the index's stranger vector current this way, with an exact mode
//!    (refresh to the CPI tolerance) and an approximate mode that drops
//!    offset mass below a tolerance for an `L1` error bounded by
//!    `2·tolerance / c` per refresh: the geometric series
//!    `Σ (1−c)^i = 1/c` amplifies the ≤ `tolerance` of dropped seed
//!    mass by at most `1/c`, and stopping once the residual falls below
//!    `tolerance` leaves a tail of at most `tolerance·(1−c)/c` more.

use crate::frontier::FrontierPolicy;
use crate::gather::{self, InAdjacency};
use crate::{CpiConfig, Propagator};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tpa_graph::{CsrGraph, DynamicGraph, EdgeUpdate, NodeId};

pub use tpa_graph::ApplyStats;

/// The writer-side state of the transition operator `Ãᵀ` over a
/// [`DynamicGraph`]'s merged view, with `1/outdeg` maintained
/// incrementally across updates. Queries never run on it: readers get
/// the frozen view [`DynamicTransition::publish_patched`] returns, whose
/// ascending in-neighbor gather order is identical to
/// [`crate::Transition`] on a CSR rebuilt from the merged edge set.
pub struct DynamicTransition {
    graph: DynamicGraph,
    inv_out_deg: Vec<f64>,
    /// Destinations whose in-adjacency may carry a patch. Kernels route
    /// every other node straight to the base CSR slice — between
    /// compactions that is the overwhelming majority, so a dirty overlay
    /// propagates at nearly clean-CSR speed. May over-approximate after
    /// patches cancel out (harmless: the merged view equals the base
    /// there, and the merge yields the identical sequence).
    in_dirty: Vec<bool>,
    /// Materialized merged in-rows of dirty destinations, refreshed on
    /// [`DynamicTransition::apply`]. Propagation runs ~100 edge sweeps
    /// per converged query, so paying one merge per *update* instead of
    /// one per *sweep* is a large win — and it gives every destination a
    /// plain slice, which is what lets the published view share the
    /// gather kernels (and the identical gather order) of the static
    /// backends. Rows are `Arc`'d so a copy-on-write publish
    /// ([`DynamicTransition::publish_patched`]) shares them instead of
    /// deep-copying the accumulated overlay on every epoch.
    dirty_rows: HashMap<NodeId, Arc<Vec<NodeId>>>,
    /// Materialized merged out-rows of sources whose column changed —
    /// the out-side mirror of `dirty_rows`, maintained for the patched
    /// snapshot's frontier discovery (the published view cannot carry
    /// the mutable [`DynamicGraph`], so it reads these shared rows).
    out_rows: HashMap<NodeId, Arc<Vec<NodeId>>>,
    /// Destination ranges, one per worker (mirrors
    /// [`crate::ParallelTransition`]; length 1 = sequential), handed to
    /// every published view.
    ranges: Vec<(u32, u32)>,
}

impl std::fmt::Debug for DynamicTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicTransition").finish_non_exhaustive()
    }
}

/// The overlay's row view for the shared gather kernels: dirty
/// destinations read their materialized merged row, everyone else reads
/// the base CSC slice. [`crate::patch::PatchedTransition`] gathers
/// through it over its frozen copy of the overlay's rows.
pub(crate) struct OverlayRows<'a> {
    pub(crate) base: &'a CsrGraph,
    pub(crate) in_dirty: &'a [bool],
    pub(crate) dirty_rows: &'a HashMap<NodeId, Arc<Vec<NodeId>>>,
}

impl InAdjacency for OverlayRows<'_> {
    #[inline]
    fn in_row(&self, v: NodeId) -> &[NodeId] {
        if self.in_dirty[v as usize] {
            self.dirty_rows.get(&v).map(|r| r.as_slice()).unwrap_or_default()
        } else {
            self.base.in_neighbors(v)
        }
    }
}

/// The out-adjacency column of one node *before* an update batch touched
/// it — everything the offset seed needs about the old operator.
#[derive(Clone, Debug)]
pub struct SourceDelta {
    /// The changed source node.
    pub node: NodeId,
    /// Its merged out-neighbors before the batch.
    pub old_out: Vec<NodeId>,
    /// Its `1/outdeg` before the batch (`0.0` if it was dangling).
    pub old_inv: f64,
}

/// Everything captured by one [`DynamicTransition::apply`] batch: what
/// changed structurally, and the old columns needed to build offset seeds.
#[derive(Clone, Debug)]
pub struct UpdateDelta {
    /// Structural outcome (inserted/deleted/no-op counts, compaction).
    pub stats: ApplyStats,
    /// Old out-columns of every source the batch touched.
    pub sources: Vec<SourceDelta>,
    /// `Σ_u ‖Ã'[:,u] − Ã[:,u]‖₁` over the touched sources: the total L1
    /// change of the transition operator. Drives index staleness
    /// accounting (see [`crate::RwrService::apply_updates`]).
    pub column_delta_mass: f64,
}

impl DynamicTransition {
    /// Binds the operator to a dynamic graph, computing `1/outdeg` from
    /// the merged view. Publishes single-range views; see
    /// [`DynamicTransition::with_threads`] for destination-range
    /// parallelism.
    pub fn new(graph: DynamicGraph) -> Self {
        let inv_out_deg = (0..graph.n() as NodeId)
            .map(|u| {
                let d = graph.out_degree(u);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f64
                }
            })
            .collect();
        let in_dirty: Vec<bool> = (0..graph.n() as NodeId).map(|v| graph.has_in_patch(v)).collect();
        let mut dirty_rows = HashMap::new();
        let mut out_rows = HashMap::new();
        for v in 0..graph.n() as NodeId {
            if in_dirty[v as usize] {
                dirty_rows.insert(v, Arc::new(graph.in_neighbors(v).collect()));
            }
            if graph.has_out_patch(v) {
                out_rows.insert(v, Arc::new(graph.out_neighbors(v).collect()));
            }
        }
        let ranges = vec![(0, graph.n() as u32)];
        Self { graph, inv_out_deg, in_dirty, dirty_rows, out_rows, ranges }
    }

    /// Publishes views that propagate with `threads` destination-range
    /// workers, mirroring [`crate::ParallelTransition`]: each worker owns
    /// a contiguous band of destinations balanced by base in-edge count,
    /// writes are disjoint, and results stay bit-identical to a
    /// single-range view (and to a rebuilt CSR). `0` means "use
    /// available parallelism".
    pub fn with_threads(mut self, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
        } else {
            threads
        };
        self.ranges = gather::balance_ranges(self.graph.base().in_offsets(), threads);
        self
    }

    /// Re-balances worker ranges against the current base snapshot
    /// (called after compaction replaces the base).
    fn rebalance(&mut self) {
        let threads = self.ranges.len();
        self.ranges = gather::balance_ranges(self.graph.base().in_offsets(), threads);
    }

    /// The underlying dynamic graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Applies an update batch to the graph (threshold-triggered
    /// compaction included), refreshes the cached `1/outdeg` entries of
    /// changed sources, and captures the old columns the offset seed
    /// needs. Old columns are snapshotted *before* any mutation, so the
    /// delta is exact even when a batch touches one source repeatedly.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> UpdateDelta {
        // Capture each distinct source's pre-batch column.
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut sources = Vec::new();
        for up in updates {
            let u = up.source();
            if seen.insert(u) {
                sources.push(SourceDelta {
                    node: u,
                    old_out: self.graph.out_neighbors(u).collect(),
                    old_inv: self.inv_out_deg[u as usize],
                });
            }
        }

        let stats = self.graph.apply(updates);

        // Refresh 1/outdeg and measure the operator change per column.
        let mut column_delta_mass = 0.0;
        for sd in &mut sources {
            let u = sd.node;
            let d = self.graph.out_degree(u);
            let new_inv = if d == 0 { 0.0 } else { 1.0 / d as f64 };
            self.inv_out_deg[u as usize] = new_inv;
            column_delta_mass +=
                column_delta(&sd.old_out, sd.old_inv, self.graph.out_neighbors(u), new_inv);
        }
        if stats.compacted {
            self.in_dirty.iter_mut().for_each(|d| *d = false);
            self.dirty_rows.clear();
            self.out_rows.clear();
            self.rebalance();
        } else {
            // Re-merge each touched in-row once per distinct target —
            // update batches hammer the same hubs on power-law graphs.
            let touched: HashSet<NodeId> = updates.iter().map(|up| up.target()).collect();
            for v in touched {
                self.in_dirty[v as usize] = true;
                self.dirty_rows.insert(v, Arc::new(self.graph.in_neighbors(v).collect()));
            }
            // And each changed source's merged out-row (the patched
            // snapshot's frontier-discovery view).
            for sd in &sources {
                self.out_rows
                    .insert(sd.node, Arc::new(self.graph.out_neighbors(sd.node).collect()));
            }
        }
        UpdateDelta { stats, sources, column_delta_mass }
    }

    /// Folds the overlay into a fresh base snapshot. The merged view —
    /// and therefore the operator and every score — is unchanged; only
    /// the patch maps empty, so later published views gather from plain
    /// CSR slices again.
    pub fn compact(&mut self) {
        self.graph.compact();
        self.in_dirty.iter_mut().for_each(|d| *d = false);
        self.dirty_rows.clear();
        self.out_rows.clear();
        self.rebalance();
    }

    /// Swaps the overlay onto a freshly compacted `base` and replays
    /// `log` — the updates applied to this overlay *after* the base was
    /// snapshotted — on top of it. Set semantics make the replay exact:
    /// the merged view (and therefore every published score, bit for
    /// bit) is unchanged; only the patch maps shrink to the replayed
    /// tail. This is the install half of background compaction: the
    /// `O(n + m)` snapshot ran off-thread, and this call costs
    /// `O(n + |log|)` with no edge traversal.
    pub fn rebase(&mut self, base: Arc<CsrGraph>, log: &[EdgeUpdate]) {
        let threads = self.ranges.len();
        let threshold = self.graph.compact_threshold();
        let mut dg = DynamicGraph::shared(base).with_compact_threshold(threshold);
        dg.apply(log);
        *self = DynamicTransition::new(dg).with_threads(threads);
    }

    /// Publishes an immutable copy-on-write view of the current merged
    /// state: the base CSR, the materialized dirty rows, and the worker
    /// ranges are shared (`Arc` bumps and `O(dirty)` map clones); only
    /// the two flat per-node arrays (`1/outdeg`, dirty flags) are
    /// copied. No edge is touched — publishing scales with the overlay
    /// delta, not with `m`. The view gathers through the shared flat
    /// kernels over these rows, so its scores are bitwise equal (by the
    /// `dynamic_equiv` property tests) to a full rebuild.
    pub fn publish_patched(&self) -> crate::patch::PatchedTransition {
        crate::patch::PatchedTransition::assemble(
            Arc::clone(self.graph.base_arc()),
            Arc::new(self.inv_out_deg.clone()),
            Arc::new(self.in_dirty.clone()),
            self.dirty_rows.clone(),
            self.out_rows.clone(),
            self.graph.m(),
            self.graph.delta_edges(),
            self.ranges.clone(),
        )
    }

    /// The OSP offset seed `b = (1−c)·(Ã'ᵀ − Ãᵀ)·r` for one score
    /// vector `r` measured against the old columns in `sources`. Only the
    /// changed columns contribute:
    /// `b[v] = (1−c)·Σ_u r[u]·(w'(u→v) − w(u→v))`. The columns may be
    /// one batch's [`UpdateDelta::sources`] or telescope across many
    /// batches (the first pre-batch state per source), which is how the
    /// index's stranger vector is patched long after the individual
    /// deltas were folded in.
    pub fn offset_seed_for(&self, sources: &[SourceDelta], c: f64, old_scores: &[f64]) -> Vec<f64> {
        assert_eq!(old_scores.len(), self.n(), "cached scores are for a different graph");
        let mut b = vec![0.0f64; self.n()];
        for sd in sources {
            let w = (1.0 - c) * old_scores[sd.node as usize];
            if w == 0.0 {
                continue;
            }
            for &v in &sd.old_out {
                b[v as usize] -= w * sd.old_inv;
            }
            let new_inv = self.inv_out_deg[sd.node as usize];
            for v in self.graph.out_neighbors(sd.node) {
                b[v as usize] += w * new_inv;
            }
        }
        b
    }
}

/// Exact L1 distance between one node's old and new transition column,
/// exploiting that both neighbor sequences are ascending.
fn column_delta(
    old: &[NodeId],
    old_inv: f64,
    new: impl Iterator<Item = NodeId>,
    new_inv: f64,
) -> f64 {
    let mut mass = 0.0;
    let mut oi = 0usize;
    for v in new {
        while oi < old.len() && old[oi] < v {
            mass += old_inv;
            oi += 1;
        }
        if oi < old.len() && old[oi] == v {
            mass += (new_inv - old_inv).abs();
            oi += 1;
        } else {
            mass += new_inv;
        }
    }
    mass += (old.len() - oi) as f64 * old_inv;
    mass
}

/// How offset propagation maintains a score vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MaintenanceMode {
    /// Propagate the offset to the CPI tolerance: cached scores track a
    /// from-scratch recomputation to within `ε/c`.
    Exact,
    /// Drop offset-seed entries below `tolerance / n` and stop
    /// propagating once the residual falls below `tolerance`. Bounds the
    /// L1 drift per refresh by `2·tolerance/c` while skipping most of
    /// the propagation work for small update batches.
    Approximate {
        /// Offset mass (L1) this refresh is allowed to discard.
        tolerance: f64,
    },
}

/// Accounting from one offset propagation.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefreshStats {
    /// Propagation iterations run (0 when the whole offset was dropped).
    pub iterations: usize,
    /// `‖b‖₁` of the offset seed before any dropping.
    pub offset_mass: f64,
    /// Offset mass discarded by the approximate mode (0.0 in exact mode).
    pub dropped_mass: f64,
}

/// Propagates an offset seed through the current operator, folding the
/// correction `Δ = Σ_i ((1−c)Ãᵀ)^i·b` into `scores` in place. This is
/// the CPI loop ([`crate::cpi::cpi_sweep_policy`]) started from `b`
/// instead of `c·q`: the offset seed is sparse by construction —
/// supported only on the changed sources' out-neighborhoods — so `Auto`
/// routes the first Neumann iterations through the sparse-frontier
/// kernel and latches dense once the correction's support saturates.
/// Every policy produces bitwise-identical scores and makes the same
/// stopping decisions.
pub(crate) fn propagate_offset_policy<P: Propagator + ?Sized>(
    t: &P,
    mut offset: Vec<f64>,
    cfg: &CpiConfig,
    mode: MaintenanceMode,
    policy: FrontierPolicy,
    scores: &mut [f64],
) -> RefreshStats {
    cfg.validate();
    let n = t.n();
    assert_eq!(offset.len(), n, "offset length mismatch");
    assert_eq!(scores.len(), n, "scores length mismatch");
    let mut stats = RefreshStats {
        offset_mass: offset.iter().map(|v| v.abs()).sum(),
        ..RefreshStats::default()
    };

    let eps = match mode {
        MaintenanceMode::Exact => cfg.eps,
        MaintenanceMode::Approximate { tolerance } => {
            assert!(tolerance > 0.0, "tolerance must be positive");
            // Sparsify the seed: entries below a uniform share of the
            // tolerance can never matter more than `tolerance/c` in sum.
            let cut = tolerance / n.max(1) as f64;
            for v in offset.iter_mut() {
                if v.abs() < cut {
                    stats.dropped_mass += v.abs();
                    *v = 0.0;
                }
            }
            tolerance.max(cfg.eps)
        }
    };
    if offset.iter().all(|&v| v == 0.0) {
        return stats;
    }
    let support = (policy != FrontierPolicy::Dense)
        .then(|| (0..n as NodeId).filter(|&v| offset[v as usize] != 0.0).collect());
    // Neumann series: scores += b + (1−c)Ãᵀb + ((1−c)Ãᵀ)²b + …
    let run = crate::cpi::cpi_sweep_policy(
        t,
        offset,
        support,
        scores,
        &CpiConfig { eps, ..*cfg },
        0,
        None,
        policy,
        |_| false,
    );
    stats.iterations = run.last_iteration;
    if let Some(tally) = run.tally {
        crate::profiling::record_offset_run(tally);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cpi, exact_rwr, SeedSet, Transition};
    use tpa_graph::gen::{lfr_lite, LfrConfig};
    use tpa_graph::{CsrGraph, DanglingPolicy, GraphBuilder};
    use EdgeUpdate::{Delete, Insert};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        lfr_lite(LfrConfig { n: 200, m: 1600, ..Default::default() }, &mut rng).graph
    }

    fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    /// Rebuilds the merged view from scratch, Keep policy (overlay
    /// semantics), and returns exact scores on it.
    fn rebuild_scores(g: &DynamicGraph, seed: NodeId, cfg: &CpiConfig) -> Vec<f64> {
        let mut b = GraphBuilder::with_capacity(g.n(), g.m()).dangling_policy(DanglingPolicy::Keep);
        for u in 0..g.n() as NodeId {
            for v in g.out_neighbors(u) {
                b.add_edge(u, v);
            }
        }
        let rebuilt = b.build();
        cpi(&Transition::new(&rebuilt), &SeedSet::single(seed), cfg, 0, None).scores
    }

    /// Exact scores on the overlay's current published view.
    fn exact_on(t: &DynamicTransition, seed: NodeId) -> Vec<f64> {
        cpi(&t.publish_patched(), &SeedSet::single(seed), &CpiConfig::default(), 0, None).scores
    }

    /// Drops the updates a graph would treat as no-ops.
    fn applicable(t: &DynamicTransition, updates: &[EdgeUpdate]) -> Vec<EdgeUpdate> {
        updates
            .iter()
            .copied()
            .filter(|u| match *u {
                Insert(a, b) => !t.graph().has_edge(a, b),
                Delete(a, b) => t.graph().has_edge(a, b),
            })
            .collect()
    }

    /// One OSP refresh of `scores` for the batch behind `delta`, swept
    /// through the overlay's freshly published view — the service's
    /// score-cache refresh for a single lane.
    fn refresh(
        t: &DynamicTransition,
        delta: &UpdateDelta,
        mode: MaintenanceMode,
        scores: &mut [f64],
    ) -> RefreshStats {
        let cfg = CpiConfig::default();
        let offset = t.offset_seed_for(&delta.sources, cfg.c, scores);
        propagate_offset_policy(
            &t.publish_patched(),
            offset,
            &cfg,
            mode,
            FrontierPolicy::Auto,
            scores,
        )
    }

    #[test]
    fn clean_overlay_matches_csr_transition_bitwise() {
        let g = test_graph();
        let dyn_t = DynamicTransition::new(DynamicGraph::new(g.clone()));
        let cfg = CpiConfig::default();
        let a = cpi(&Transition::new(&g), &SeedSet::single(7), &cfg, 0, None).scores;
        let b = cpi(&dyn_t.publish_patched(), &SeedSet::single(7), &cfg, 0, None).scores;
        assert_eq!(a, b);
    }

    #[test]
    fn dirty_overlay_matches_rebuild_bitwise() {
        let g = test_graph();
        let mut dyn_t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(None));
        dyn_t.apply(&[Insert(0, 50), Insert(7, 120), Delete(7, 120), Insert(3, 3), Delete(0, 1)]);
        assert!(dyn_t.graph().is_dirty());
        let cfg = CpiConfig::default();
        let overlay = cpi(&dyn_t.publish_patched(), &SeedSet::single(7), &cfg, 0, None).scores;
        assert_eq!(overlay, rebuild_scores(dyn_t.graph(), 7, &cfg));
    }

    #[test]
    fn parallel_dynamic_matches_sequential_bitwise() {
        let g = test_graph();
        let mut seq = DynamicTransition::new(DynamicGraph::new(g.clone()));
        seq.apply(&[Insert(0, 50), Delete(0, 1), Insert(7, 120)]);
        let seq = seq.publish_patched();
        let x: Vec<f64> = (0..g.n()).map(|i| (i % 11) as f64 / 11.0).collect();
        let mut y_seq = vec![0.0; g.n()];
        seq.propagate_into(0.85, &x, &mut y_seq);
        let mut xb = crate::batch::ScoreBlock::zeros(g.n(), 3);
        for (i, e) in xb.data_mut().iter_mut().enumerate() {
            *e = ((i * 7) % 13) as f64 / 13.0;
        }
        let mut yb_seq = crate::batch::ScoreBlock::zeros(g.n(), 3);
        seq.propagate_block_into(0.85, &xb, &mut yb_seq);
        for threads in [2usize, 3, 8] {
            let mut par =
                DynamicTransition::new(DynamicGraph::new(g.clone())).with_threads(threads);
            par.apply(&[Insert(0, 50), Delete(0, 1), Insert(7, 120)]);
            let par = par.publish_patched();
            assert_eq!(par.threads(), threads);
            let mut y_par = vec![0.0; g.n()];
            par.propagate_into(0.85, &x, &mut y_par);
            assert_eq!(y_seq, y_par, "threads = {threads}");
            let mut yb_par = crate::batch::ScoreBlock::zeros(g.n(), 3);
            par.propagate_block_into(0.85, &xb, &mut yb_par);
            assert_eq!(yb_seq.data(), yb_par.data(), "block, threads = {threads}");
        }
    }

    #[test]
    fn parallel_dynamic_survives_compaction() {
        // Compaction swaps the base snapshot out from under the worker
        // ranges; they must re-balance and keep covering every node.
        let g = test_graph();
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(Some(1e-9)))
            .with_threads(4);
        let delta = t.apply(&[Insert(0, 50), Insert(50, 0)]);
        assert!(delta.stats.compacted);
        let view = t.publish_patched();
        assert_eq!(view.threads(), 4);
        let x = vec![1.0 / 200.0; 200];
        let mut y = vec![0.0; 200];
        view.propagate_into(1.0, &x, &mut y);
        let reference = cpi(
            &Transition::new(&t.graph().snapshot()),
            &SeedSet::single(3),
            &CpiConfig::default(),
            0,
            None,
        )
        .scores;
        let through_overlay =
            cpi(&view, &SeedSet::single(3), &CpiConfig::default(), 0, None).scores;
        assert_eq!(reference, through_overlay);
    }

    #[test]
    fn apply_updates_inv_out_degrees() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(None));
        let delta = t.apply(&[Insert(0, 2), Delete(1, 2)]);
        assert_eq!(t.inv_out_deg[0], 0.5); // degree 1 → 2
        assert_eq!(t.inv_out_deg[1], 0.0); // degree 1 → 0 (dangling)
        assert_eq!(delta.stats.inserted, 1);
        assert_eq!(delta.stats.deleted, 1);
        // Column 0: was {1: 1.0}, now {1: 0.5, 2: 0.5} ⇒ ‖Δ‖₁ = 1.0.
        // Column 1: was {2: 1.0}, now {} ⇒ ‖Δ‖₁ = 1.0.
        assert!((delta.column_delta_mass - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exact_refresh_tracks_rebuild() {
        let g = test_graph();
        let cfg = CpiConfig::default();
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(None));
        let mut lanes: Vec<Vec<f64>> = [3u32, 77].iter().map(|&s| exact_on(&t, s)).collect();

        let updates = [Insert(3, 90), Insert(90, 3), Delete(3, 4), Insert(10, 11), Delete(77, 78)];
        let delta = t.apply(&applicable(&t, &updates));
        for (seed, lane) in [3u32, 77].into_iter().zip(&mut lanes) {
            let stats = refresh(&t, &delta, MaintenanceMode::Exact, lane);
            assert!(stats.iterations > 0);
            assert_eq!(stats.dropped_mass, 0.0);
            let fresh = rebuild_scores(t.graph(), seed, &cfg);
            let err = l1(lane, &fresh);
            assert!(err < 1e-7, "seed {seed}: refreshed scores drifted {err}");
        }
    }

    #[test]
    fn approximate_refresh_within_tolerance_bound() {
        let g = test_graph();
        let cfg = CpiConfig::default();
        let tolerance = 1e-4;
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(None));
        let mut exact = exact_on(&t, 11);
        let mut approx = exact.clone();

        let delta = t.apply(&[Insert(11, 150), Insert(150, 11), Delete(11, 12)]);
        let exact_stats = refresh(&t, &delta, MaintenanceMode::Exact, &mut exact);
        let stats = refresh(&t, &delta, MaintenanceMode::Approximate { tolerance }, &mut approx);

        let fresh = rebuild_scores(t.graph(), 11, &cfg);
        let err = l1(&approx, &fresh);
        let bound = 2.0 * tolerance / cfg.c;
        assert!(err <= bound, "approximate error {err} above bound {bound}");
        // The approximate path must do no more work than the exact one.
        assert!(stats.iterations <= exact_stats.iterations);
        let exact_fresh_err = l1(&exact, &fresh);
        assert!(exact_fresh_err <= err || err < 1e-9);
        assert!(stats.offset_mass > 0.0);
    }

    #[test]
    fn standalone_propagate_offset_maintains_a_single_vector() {
        // The dense-only sweep (no frontier routing) must track a rebuild
        // just like the Auto refresh path does.
        let g = test_graph();
        let cfg = CpiConfig::default();
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(None));
        let mut manual = exact_on(&t, 3);

        let updates = applicable(&t, &[Insert(3, 99), Insert(99, 3), Delete(3, 4)]);
        assert!(!updates.is_empty());
        let delta = t.apply(&updates);
        let b = t.offset_seed_for(&delta.sources, cfg.c, &manual);
        let stats = propagate_offset_policy(
            &t.publish_patched(),
            b,
            &cfg,
            MaintenanceMode::Exact,
            FrontierPolicy::Dense,
            &mut manual,
        );
        assert!(stats.iterations > 0);
        assert_eq!(stats.dropped_mass, 0.0);

        let fresh = rebuild_scores(t.graph(), 3, &cfg);
        assert!(l1(&manual, &fresh) < 1e-7, "standalone offset propagation drifted");
    }

    #[test]
    fn offset_policy_is_bitwise_invisible() {
        // Dense, Sparse, and Auto must produce bit-identical refreshed
        // scores and make the same stopping decisions: the offset seed is
        // sparse, so Auto should route the early Neumann iterations
        // through the frontier kernel. Multi-block graph so the
        // block-grouped support folds cross NORM_BLOCK boundaries.
        let g = {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(61);
            let cfg =
                LfrConfig { n: 2 * gather::NORM_BLOCK + 511, m: 60_000, ..Default::default() };
            lfr_lite(cfg, &mut rng).graph
        };
        let cfg = CpiConfig::default();
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(None));
        let base = exact_on(&t, 17);
        let delta = t.apply(&[Insert(17, 4100), Insert(4100, 17), Delete(17, 4099)]);
        let b = t.offset_seed_for(&delta.sources, cfg.c, &base);
        let view = t.publish_patched();

        for mode in [MaintenanceMode::Exact, MaintenanceMode::Approximate { tolerance: 1e-4 }] {
            let run = |policy: FrontierPolicy| {
                let mut scores = base.clone();
                let stats =
                    propagate_offset_policy(&view, b.clone(), &cfg, mode, policy, &mut scores);
                (scores, stats)
            };
            let (dense, dense_stats) = run(FrontierPolicy::Dense);
            for policy in [FrontierPolicy::Sparse, FrontierPolicy::Auto] {
                let (scores, stats) = run(policy);
                assert_eq!(stats.iterations, dense_stats.iterations, "{policy:?} ({mode:?})");
                assert_eq!(stats.dropped_mass.to_bits(), dense_stats.dropped_mass.to_bits());
                for (v, (a, d)) in scores.iter().zip(&dense).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        d.to_bits(),
                        "{policy:?} ({mode:?}) diverged from Dense at node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn noop_batch_produces_zero_offset() {
        let g = test_graph();
        let mut t = DynamicTransition::new(DynamicGraph::new(g));
        let old = exact_on(&t, 5);
        // Insert an edge that already exists: structural no-op.
        let existing = t.graph().out_neighbors(5).next().unwrap();
        let delta = t.apply(&[Insert(5, existing)]);
        assert_eq!(delta.stats.noops, 1);
        assert_eq!(delta.column_delta_mass, 0.0);
        let b = t.offset_seed_for(&delta.sources, 0.15, &old);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn refresh_survives_compaction() {
        // Compaction inside apply must not disturb the delta/refresh path.
        let g = test_graph();
        let cfg = CpiConfig::default();
        let mut t = DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(Some(1e-9)));
        let mut lane = exact_on(&t, 9);
        let delta = t.apply(&[Insert(9, 100), Insert(100, 9)]);
        assert!(delta.stats.compacted);
        assert!(!t.graph().is_dirty());
        refresh(&t, &delta, MaintenanceMode::Exact, &mut lane);
        let fresh = rebuild_scores(t.graph(), 9, &cfg);
        assert!(l1(&lane, &fresh) < 1e-7);
    }

    #[test]
    fn column_delta_merge_cases() {
        // old {1,2} @ 0.5 each → new {2,3} @ 0.5: removed 1 (0.5),
        // kept 2 (|0.5−0.5|=0), added 3 (0.5) ⇒ 1.0.
        let mass = column_delta(&[1, 2], 0.5, [2u32, 3].into_iter(), 0.5);
        assert!((mass - 1.0).abs() < 1e-15);
        // Degree change only: old {1,2} @ 0.5 → new {1,2,3} @ 1/3:
        // 2·|1/3−1/2| + 1/3 = 2/3.
        let mass = column_delta(&[1, 2], 0.5, [1u32, 2, 3].into_iter(), 1.0 / 3.0);
        assert!((mass - 2.0 / 3.0).abs() < 1e-12);
        // Emptied column.
        let mass = column_delta(&[4, 9], 0.5, std::iter::empty(), 0.0);
        assert!((mass - 1.0).abs() < 1e-15);
    }

    #[test]
    fn exact_refresh_matches_exact_rwr_after_many_batches() {
        let g = test_graph();
        let cfg = CpiConfig::default();
        let mut t = DynamicTransition::new(DynamicGraph::new(g));
        let mut lane = exact_on(&t, 0);
        for round in 0u32..5 {
            let u = (round * 17) % 200;
            let v = (round * 53 + 7) % 200;
            let delta = t.apply(&applicable(&t, &[Insert(u, v), Insert(v, u)]));
            refresh(&t, &delta, MaintenanceMode::Exact, &mut lane);
        }
        let snap = t.graph().snapshot();
        let fresh = exact_rwr(&snap, 0, &cfg);
        assert!(l1(&lane, &fresh) < 1e-6);
    }
}
