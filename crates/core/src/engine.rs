//! The single-owner `QueryEngine` serving shim.
//!
//! [`QueryEngine`] predates the concurrent serving layer: it owns one
//! propagation backend and an optional [`TpaIndex`] and executes typed
//! requests — single-seed, multi-seed batched (lane tiles share one edge
//! pass per CPI iteration through the backend's fused block kernel),
//! indexed (TPA online phase) or exact (full CPI), with optional top-k
//! via partial selection.
//!
//! Since the [`crate::RwrService`] redesign it is a **thin shim over a
//! single-owner [`Snapshot`]**: every query delegates to
//! [`Snapshot::run`], so the engine and the concurrent service answer
//! bit-identically by construction, and improvements to the snapshot
//! execution path land in both. Keep using `QueryEngine` for
//! single-threaded tools (CLI subcommands, benches, replay loops) and
//! borrow-friendly call sites; reach for
//! [`crate::ServiceBuilder`] / [`crate::RwrService`] when queries and
//! updates run on different threads.
//!
//! Failures surface as [`TpaError`] from [`QueryEngine::execute`] /
//! [`QueryEngine::submit`] / [`QueryEngine::apply_updates`]; the
//! infallible conveniences ([`QueryEngine::query`], …) panic with the
//! same rendered message.

use crate::dynamic::{DynamicTransition, MaintenanceMode, SourceDelta, UpdateDelta};
use crate::frontier::{FrontierScratch, FrontierStep, FrontierWork};
use crate::offcore::DiskGraph;
use crate::patch::PatchedTransition;
use crate::service::{map_updates, QueryResponse, Snapshot};
use crate::{
    CpiConfig, FrontierPolicy, ParallelTransition, Propagator, QueryRequest, TpaError, TpaIndex,
    TpaParams, Transition,
};
use std::collections::HashMap;
use std::sync::Arc;
use tpa_graph::{
    reorder, CsrGraph, DynamicGraph, EdgeUpdate, NodeId, Permutation, ReorderStrategy,
};

/// Compatibility alias from the pre-service API: a `QueryPlan` *is* a
/// [`QueryRequest`] (same constructors, same builder methods), so
/// existing call sites compile unchanged.
pub type QueryPlan = QueryRequest;

// These types lived in this module before the service redesign;
// re-export them so `tpa_core::engine::…` paths keep compiling.
pub use crate::service::{ExecMode, QueryResult};

/// A propagation backend the engine can own: sequential in-memory,
/// multi-threaded in-memory, streaming from disk, or a mutable
/// delta-overlay graph.
pub enum EngineBackend<'g> {
    /// Single-threaded in-memory gather ([`Transition`]).
    Sequential(Transition<'g>),
    /// Multi-threaded in-memory gather ([`ParallelTransition`]).
    Parallel(ParallelTransition<'g>),
    /// Out-of-core edge streaming ([`DiskGraph`]), `O(n)` memory.
    OutOfCore(DiskGraph),
    /// Mutable delta-overlay graph ([`DynamicTransition`]); accepts
    /// update batches via [`QueryEngine::apply_updates`]. Boxed: the
    /// overlay owns its graph and patch maps, far larger than the other
    /// variants' thin handles.
    Dynamic(Box<DynamicTransition>),
    /// Immutable copy-on-write patch snapshot ([`PatchedTransition`]):
    /// a base CSR shared by `Arc` plus the merged overlay delta, frozen
    /// at one epoch. This is what [`crate::RwrService`] publishes for
    /// dynamic sources — assembling one costs `O(batch)`, not the
    /// `O(n + m)` of a full CSR rebuild.
    Patched(PatchedTransition),
}

impl std::fmt::Debug for EngineBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EngineBackend({})", self.name())
    }
}

impl EngineBackend<'_> {
    /// Short human-readable backend name (for logs and bench tables).
    pub fn name(&self) -> &'static str {
        match self {
            EngineBackend::Sequential(_) => "sequential",
            EngineBackend::Parallel(_) => "parallel",
            EngineBackend::OutOfCore(_) => "out-of-core",
            EngineBackend::Dynamic(_) => "dynamic",
            EngineBackend::Patched(_) => "patched",
        }
    }
}

impl Propagator for EngineBackend<'_> {
    fn n(&self) -> usize {
        match self {
            EngineBackend::Sequential(t) => Propagator::n(t),
            EngineBackend::Parallel(t) => t.n(),
            EngineBackend::OutOfCore(d) => Propagator::n(d),
            EngineBackend::Dynamic(t) => Propagator::n(t.as_ref()),
            EngineBackend::Patched(t) => Propagator::n(t),
        }
    }

    fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
        match self {
            EngineBackend::Sequential(t) => Propagator::propagate_into(t, coeff, x, y),
            EngineBackend::Parallel(t) => t.propagate_into(coeff, x, y),
            EngineBackend::OutOfCore(d) => Propagator::propagate_into(d, coeff, x, y),
            EngineBackend::Dynamic(t) => Propagator::propagate_into(t.as_ref(), coeff, x, y),
            EngineBackend::Patched(t) => Propagator::propagate_into(t, coeff, x, y),
        }
    }

    fn propagate_block_into(
        &self,
        coeff: f64,
        x: &crate::batch::ScoreBlock,
        y: &mut crate::batch::ScoreBlock,
    ) {
        match self {
            EngineBackend::Sequential(t) => t.propagate_block_into(coeff, x, y),
            EngineBackend::Parallel(t) => t.propagate_block_into(coeff, x, y),
            EngineBackend::OutOfCore(d) => Propagator::propagate_block_into(d, coeff, x, y),
            EngineBackend::Dynamic(t) => Propagator::propagate_block_into(t.as_ref(), coeff, x, y),
            EngineBackend::Patched(t) => Propagator::propagate_block_into(t, coeff, x, y),
        }
    }

    // The frontier entry points forward to the wrapped backend so its
    // native kernels (not the trait defaults) serve engine plans.

    fn propagate_into_norm(&self, coeff: f64, x: &[f64], y: &mut [f64]) -> f64 {
        match self {
            EngineBackend::Sequential(t) => Propagator::propagate_into_norm(t, coeff, x, y),
            EngineBackend::Parallel(t) => t.propagate_into_norm(coeff, x, y),
            EngineBackend::OutOfCore(d) => Propagator::propagate_into_norm(d, coeff, x, y),
            EngineBackend::Dynamic(t) => Propagator::propagate_into_norm(t.as_ref(), coeff, x, y),
            EngineBackend::Patched(t) => Propagator::propagate_into_norm(t, coeff, x, y),
        }
    }

    fn frontier_work(&self, active: &[NodeId]) -> Option<FrontierWork> {
        match self {
            EngineBackend::Sequential(t) => Propagator::frontier_work(t, active),
            EngineBackend::Parallel(t) => t.frontier_work(active),
            EngineBackend::OutOfCore(d) => Propagator::frontier_work(d, active),
            EngineBackend::Dynamic(t) => Propagator::frontier_work(t.as_ref(), active),
            EngineBackend::Patched(t) => Propagator::frontier_work(t, active),
        }
    }

    fn propagate_frontier(
        &self,
        coeff: f64,
        x: &[f64],
        y: &mut [f64],
        active: &[NodeId],
        scratch: &mut FrontierScratch,
    ) -> FrontierStep {
        match self {
            EngineBackend::Sequential(t) => {
                Propagator::propagate_frontier(t, coeff, x, y, active, scratch)
            }
            EngineBackend::Parallel(t) => t.propagate_frontier(coeff, x, y, active, scratch),
            EngineBackend::OutOfCore(d) => {
                Propagator::propagate_frontier(d, coeff, x, y, active, scratch)
            }
            EngineBackend::Dynamic(t) => {
                Propagator::propagate_frontier(t.as_ref(), coeff, x, y, active, scratch)
            }
            EngineBackend::Patched(t) => {
                Propagator::propagate_frontier(t, coeff, x, y, active, scratch)
            }
        }
    }
}

/// When is an attached [`TpaIndex`] too stale to keep serving?
///
/// The engine accumulates the relative operator drift
/// `Σ ‖ΔÃ[:,u]‖₁ / n` across update batches (a proxy for the L1 error
/// the drift induces in the index's stranger vector — amplified by at
/// most `(1−c)/c` through the CPI tail). Past `threshold` the index is
/// *stale*: with `auto_refresh` the engine re-preprocesses on the spot
/// (inside [`QueryEngine::apply_updates`]); otherwise it keeps serving
/// and flags the caller, who decides when to run
/// [`QueryEngine::refresh_index`].
#[derive(Clone, Copy, Debug)]
pub struct IndexStalenessPolicy {
    /// Accumulated relative drift that marks the index stale.
    pub threshold: f64,
    /// Re-preprocess inside `apply_updates` when stale (vs. only flag).
    pub auto_refresh: bool,
}

impl Default for IndexStalenessPolicy {
    /// Flag-only, at 5% accumulated relative operator drift.
    fn default() -> Self {
        Self { threshold: 0.05, auto_refresh: false }
    }
}

impl IndexStalenessPolicy {
    /// Validates the policy for admission paths: the threshold must be a
    /// positive (possibly infinite, never NaN) drift bound.
    pub fn check(&self) -> Result<(), TpaError> {
        // NaN must fail too, so test "positive" directly.
        if self.threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(TpaError::InvalidConfig(format!(
                "staleness threshold must be positive, got {}",
                self.threshold
            )));
        }
        Ok(())
    }
}

/// What one [`QueryEngine::apply_updates`] call did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The captured delta (feed to [`crate::ScoreCache::refresh`]).
    pub delta: UpdateDelta,
    /// Accumulated relative operator drift since the index was last
    /// (re)built. 0.0 when no index is attached.
    pub accumulated_drift: f64,
    /// True if the attached index is past the staleness threshold (and
    /// was not auto-refreshed).
    pub index_stale: bool,
    /// True if this call re-preprocessed the attached index.
    pub index_refreshed: bool,
}

/// The single-owner serving shim: one [`Snapshot`] plus writer-side
/// staleness accounting. See the module docs.
pub struct QueryEngine<'g> {
    snap: Snapshot<'g>,
    staleness: IndexStalenessPolicy,
    accumulated_drift: f64,
    /// First-occurrence column deltas since the index was last
    /// (re)built or patched — the telescoped `Ã_old → Ã_now` change per
    /// source node, fuel for [`QueryEngine::patch_index`].
    index_deltas: HashMap<NodeId, SourceDelta>,
    /// Optional admission gate in front of [`QueryEngine::submit`] —
    /// the same bounded-concurrency/deadline/shed semantics as
    /// [`crate::RwrService::submit`] (see
    /// [`QueryEngine::with_admission`]). `None` admits unconditionally.
    admission: Option<crate::admission::AdmissionGate>,
}

impl std::fmt::Debug for QueryEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine").field("backend", &self.snap.backend).finish_non_exhaustive()
    }
}

/// Default lane-tile width for batched plans (see
/// [`QueryEngine::with_lane_tile`]): wide enough to amortize the edge
/// pass, narrow enough that the three working blocks
/// (`x`/`next`/`acc` ≈ `3·n·tile·8` bytes) stay resident in a ~2 MB
/// private L2 for the bench-scale graphs.
pub const DEFAULT_LANE_TILE: usize = 8;

impl<'g> QueryEngine<'g> {
    /// Engine over the single-threaded in-memory backend.
    pub fn sequential(graph: &'g CsrGraph) -> Self {
        Self::from_backend(EngineBackend::Sequential(Transition::new(graph)))
    }

    /// Engine over the multi-threaded in-memory backend; `threads = 0`
    /// means "use available parallelism".
    pub fn parallel(graph: &'g CsrGraph, threads: usize) -> Self {
        let t = if threads == 0 {
            ParallelTransition::with_default_threads(graph)
        } else {
            ParallelTransition::new(graph, threads)
        };
        Self::from_backend(EngineBackend::Parallel(t))
    }

    /// Engine streaming a disk-resident graph (`O(n)` memory).
    pub fn out_of_core(disk: DiskGraph) -> QueryEngine<'static> {
        QueryEngine::from_backend(EngineBackend::OutOfCore(disk))
    }

    /// Engine over a mutable delta-overlay graph: every plan kind runs
    /// unchanged while [`QueryEngine::apply_updates`] evolves the graph
    /// in place.
    pub fn dynamic(graph: DynamicGraph) -> QueryEngine<'static> {
        QueryEngine::from_backend(EngineBackend::Dynamic(Box::new(DynamicTransition::new(graph))))
    }

    /// Engine over a mutable delta-overlay graph with destination-range
    /// worker threads (`0` = available parallelism): both scaling axes —
    /// streaming updates and multi-core propagation — composed.
    pub fn dynamic_parallel(graph: DynamicGraph, threads: usize) -> QueryEngine<'static> {
        QueryEngine::from_backend(EngineBackend::Dynamic(Box::new(
            DynamicTransition::new(graph).with_threads(threads),
        )))
    }

    /// Engine over an explicit backend.
    pub fn from_backend(backend: EngineBackend<'g>) -> Self {
        QueryEngine {
            snap: Snapshot::new(backend),
            staleness: IndexStalenessPolicy::default(),
            accumulated_drift: 0.0,
            index_deltas: HashMap::new(),
            admission: None,
        }
    }

    /// The engine's internal snapshot: the immutable view every query
    /// runs against. Single-seed/batched/top-k execution is literally
    /// [`Snapshot::run`], so engine answers are bit-identical to a
    /// [`crate::RwrService`] serving the same frozen graph.
    pub fn snapshot(&self) -> &Snapshot<'g> {
        &self.snap
    }

    /// Sets the [`FrontierPolicy`] for scalar (single-seed) plans — the
    /// default is [`FrontierPolicy::Auto`], which runs the sparse
    /// frontier kernel while a seed's neighborhood is small and latches
    /// onto the dense kernels once it saturates. Any policy is bitwise
    /// invisible; only latency changes. Batched lanes always use the
    /// dense fused block kernels (frontier-aware batching is future
    /// work). A plan-level [`QueryRequest::with_frontier`] overrides this.
    pub fn with_frontier(mut self, policy: FrontierPolicy) -> Self {
        self.snap.frontier = policy;
        self
    }

    /// The engine-level frontier policy.
    pub fn frontier(&self) -> FrontierPolicy {
        self.snap.frontier
    }

    /// Relabels the served graph for cache locality with `strategy` (see
    /// [`mod@tpa_graph::reorder`]): the permuted graph is built once here,
    /// and from then on reordering is transparent — seeds map in, scores
    /// and rankings map back out, updates to a dynamic backend are
    /// relabeled on entry, and [`QueryEngine::preprocess`] stamps the
    /// permutation into the index so saved indexes round-trip.
    ///
    /// Must be applied before an index is attached. Panics on
    /// [`EngineBackend::OutOfCore`] — permute the graph *before*
    /// [`crate::offcore::DiskGraph::create`] instead (the edge file is
    /// laid out once and cannot be relabeled in place).
    ///
    /// Reordering is the locality lever for the gather: on a shuffled
    /// R-MAT at n=1M it speeds propagation up ~2× (see `spmv_kernels`).
    pub fn with_reordering(self, strategy: ReorderStrategy) -> Self {
        // The dynamic arm materializes the merged snapshot once and
        // reuses it for the permuted rebuild below.
        let (perm, snapshot) = match &self.snap.backend {
            EngineBackend::Sequential(t) => (reorder(t.graph(), strategy), None),
            EngineBackend::Parallel(t) => (reorder(t.graph(), strategy), None),
            EngineBackend::Dynamic(t) => {
                let snap = t.graph().snapshot();
                (reorder(&snap, strategy), Some(snap))
            }
            EngineBackend::OutOfCore(_) => {
                // lint:allow(panic-freedom, "construction-time builder misuse, documented panic; never reached by a served request")
                panic!("out-of-core backends cannot be reordered in place; permute the graph before DiskGraph::create")
            }
            EngineBackend::Patched(_) => {
                // lint:allow(panic-freedom, "construction-time builder misuse, documented panic; never reached by a served request")
                panic!("patched snapshots are immutable published views; reorder the dynamic source they were published from")
            }
        };
        self.apply_permutation(perm, snapshot)
    }

    /// [`QueryEngine::with_reordering`] with an explicit permutation
    /// (e.g. one recovered from a saved [`TpaIndex`]). Panics if an
    /// index is already attached, if the engine is already reordered, or
    /// if the permutation's size does not match the graph.
    pub fn with_permutation(self, perm: Permutation) -> Self {
        self.apply_permutation(perm, None)
    }

    /// Rebuilds the backend on the permuted graph; `dyn_snapshot` lets
    /// [`QueryEngine::with_reordering`] hand over the merged snapshot it
    /// already materialized for a dynamic backend.
    fn apply_permutation(mut self, perm: Permutation, dyn_snapshot: Option<CsrGraph>) -> Self {
        assert!(self.snap.index.is_none(), "apply reordering before attaching an index");
        assert!(self.snap.perm.is_none(), "engine is already reordered");
        assert_eq!(perm.len(), self.snap.backend.n(), "permutation size does not match the graph");
        self.snap.backend = match self.snap.backend {
            EngineBackend::Sequential(t) => {
                let g = Arc::new(t.graph().permuted(&perm));
                EngineBackend::Sequential(Transition::shared(g))
            }
            EngineBackend::Parallel(t) => {
                let threads = t.threads();
                let g = Arc::new(t.graph().permuted(&perm));
                EngineBackend::Parallel(ParallelTransition::shared(g, threads))
            }
            EngineBackend::Dynamic(t) => {
                let threads = t.threads();
                let threshold = t.graph().compact_threshold();
                let snap = dyn_snapshot.unwrap_or_else(|| t.graph().snapshot());
                let g = snap.permuted(&perm);
                EngineBackend::Dynamic(Box::new(
                    DynamicTransition::new(DynamicGraph::new(g).with_compact_threshold(threshold))
                        .with_threads(threads),
                ))
            }
            EngineBackend::OutOfCore(_) => {
                // lint:allow(panic-freedom, "construction-time builder misuse, documented panic; never reached by a served request")
                panic!("out-of-core backends cannot be reordered in place; permute the graph before DiskGraph::create")
            }
            EngineBackend::Patched(_) => {
                // lint:allow(panic-freedom, "construction-time builder misuse, documented panic; never reached by a served request")
                panic!("patched snapshots are immutable published views; reorder the dynamic source they were published from")
            }
        };
        self.snap.perm = Some(Arc::new(perm));
        self
    }

    /// The relabeling this engine serves under, if reordered.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.snap.perm.as_deref()
    }

    /// Sets the lane-tile width: batches wider than this execute as
    /// consecutive tiles of at most `tile` lanes. Per-lane results are
    /// unaffected (lanes are independent), but throughput is sensitive to
    /// it — one tile's score blocks should fit in cache. `usize::MAX`
    /// disables tiling.
    pub fn with_lane_tile(mut self, tile: usize) -> Self {
        assert!(tile >= 1, "lane tile must be at least 1");
        self.snap.lane_tile = tile;
        self
    }

    /// Attaches a metrics registry: the engine registers the service
    /// instruments there and records every executed request, exactly
    /// like [`crate::ServiceBuilder::metrics`] does for the concurrent
    /// service. Also enables the kernel profiling counters.
    pub fn with_metrics(mut self, registry: std::sync::Arc<tpa_obs::MetricsRegistry>) -> Self {
        self.snap.metrics = Some(crate::metrics::ServiceMetrics::new(registry));
        self
    }

    /// Typed readout of the engine's instruments, or `None` when no
    /// registry is attached.
    pub fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        self.snap.metrics.as_ref().map(|m| m.snapshot())
    }

    /// Attaches a preprocessed index (shared, so many engines can serve
    /// one index). Panics if the index was built for a different graph.
    ///
    /// Reordering handshake: an index preprocessed on a relabeled graph
    /// carries its [`Permutation`]. Attaching one to an un-reordered
    /// engine applies that permutation first (so a loaded index
    /// transparently restores the ordering it was built under); an
    /// engine already reordered must match the index's permutation
    /// exactly, and an index *without* a permutation cannot serve a
    /// reordered engine.
    pub fn with_index(mut self, index: impl Into<Arc<TpaIndex>>) -> Self {
        let index = index.into();
        index.check_backend(&self.snap.backend).unwrap_or_else(|e| {
            // lint:allow(panic-freedom, "construction-time builder handshake, documented panic; never reached by a served request")
            panic!("{e}");
        });
        match (index.permutation(), &self.snap.perm) {
            (Some(ip), None) => self = self.with_permutation(ip.clone()),
            (Some(ip), Some(ep)) => {
                assert!(ip == ep.as_ref(), "index and engine were reordered differently")
            }
            // lint:allow(panic-freedom, "construction-time builder handshake, documented panic; never reached by a served request")
            (None, Some(_)) => panic!(
                "engine is reordered but the index has no permutation; preprocess through the \
                 reordered engine"
            ),
            (None, None) => {}
        }
        self.snap.index = Some(index);
        self
    }

    /// Runs TPA preprocessing on this engine's own backend and attaches
    /// the resulting index (stamped with the engine's reordering, if
    /// any, so saving it round-trips).
    pub fn preprocess(self, params: TpaParams) -> Self {
        let mut index = TpaIndex::preprocess_on(&self.snap.backend, params);
        if let Some(p) = &self.snap.perm {
            index = index.with_permutation(p.as_ref().clone());
        }
        self.with_index(index)
    }

    /// Config used for exact (non-indexed) execution.
    pub fn with_cpi_config(mut self, cfg: CpiConfig) -> Self {
        cfg.validate();
        self.snap.exact_cfg = cfg;
        self
    }

    /// Sets the index staleness policy for dynamic serving (see
    /// [`IndexStalenessPolicy`]). Returns
    /// [`TpaError::InvalidConfig`] — instead of panicking — when the
    /// policy's threshold is not positive, matching the rest of the
    /// engine/service construction paths.
    pub fn with_staleness_policy(mut self, policy: IndexStalenessPolicy) -> Result<Self, TpaError> {
        policy.check()?;
        self.staleness = policy;
        Ok(self)
    }

    /// The propagation backend.
    pub fn backend(&self) -> &EngineBackend<'g> {
        &self.snap.backend
    }

    /// The dynamic transition, when this engine serves an evolving graph.
    pub fn dynamic_transition(&self) -> Option<&DynamicTransition> {
        match &self.snap.backend {
            EngineBackend::Dynamic(t) => Some(t.as_ref()),
            _ => None,
        }
    }

    /// Applies an edge-update batch to the dynamic backend, tracks index
    /// staleness (accumulated relative operator drift), and — under an
    /// auto-refresh policy — re-preprocesses a stale index on the spot.
    /// Also advances the engine's epoch, mirroring a service publish.
    /// Returns [`TpaError::BackendMismatch`] on every
    /// non-[`EngineBackend::Dynamic`] backend.
    pub fn apply_updates(&mut self, updates: &[EdgeUpdate]) -> Result<UpdateReport, TpaError> {
        // Callers speak old ids; a reordered backend stores new ones.
        // The returned delta is in backend (new-id) space — consistent
        // with `dynamic_transition()`, which serves that same space.
        let mapped = map_updates(&self.snap.perm, updates);
        let updates = mapped.as_deref().unwrap_or(updates);
        let delta = match &mut self.snap.backend {
            EngineBackend::Dynamic(t) => t.apply(updates),
            other => {
                return Err(TpaError::BackendMismatch {
                    operation: "edge updates",
                    backend: other.name(),
                })
            }
        };
        let mut report = UpdateReport {
            delta,
            accumulated_drift: 0.0,
            index_stale: false,
            index_refreshed: false,
        };
        if self.snap.index.is_some() {
            // Telescoping: keep the *earliest* captured column per source
            // node, so old→now composes across batches.
            for sd in &report.delta.sources {
                self.index_deltas.entry(sd.node).or_insert_with(|| sd.clone());
            }
            self.accumulated_drift +=
                report.delta.column_delta_mass / self.snap.backend.n().max(1) as f64;
            if self.accumulated_drift > self.staleness.threshold {
                if self.staleness.auto_refresh {
                    self.refresh_index();
                    report.index_refreshed = true;
                } else {
                    report.index_stale = true;
                }
            }
            report.accumulated_drift = self.accumulated_drift;
        }
        self.snap.epoch += 1;
        Ok(report)
    }

    /// Explicitly compacts the dynamic backend's overlay into a fresh
    /// base snapshot (scores unchanged). Returns
    /// [`TpaError::BackendMismatch`] on static backends.
    pub fn compact_dynamic(&mut self) -> Result<(), TpaError> {
        match &mut self.snap.backend {
            EngineBackend::Dynamic(t) => {
                t.compact();
                Ok(())
            }
            other => Err(TpaError::BackendMismatch {
                operation: "overlay compaction",
                backend: other.name(),
            }),
        }
    }

    /// Re-runs TPA preprocessing on the current backend state with the
    /// attached index's parameters, replacing the index and resetting the
    /// drift accumulator. No-op without an index.
    pub fn refresh_index(&mut self) {
        if let Some(old) = &self.snap.index {
            let params = *old.params();
            let mut index = TpaIndex::preprocess_on(&self.snap.backend, params);
            if let Some(p) = &self.snap.perm {
                index = index.with_permutation(p.as_ref().clone());
            }
            self.snap.index = Some(Arc::new(index));
            self.accumulated_drift = 0.0;
            self.index_deltas.clear();
        }
    }

    /// Patches the attached index's stranger vector by propagating the
    /// operator delta accumulated since the last (re)build or patch —
    /// `O(affected)` offset propagation via
    /// [`TpaIndex::patch_stranger_on`] instead of the full `T`-iteration
    /// re-preprocess of [`QueryEngine::refresh_index`]. Resets the drift
    /// accumulator and the captured deltas. The patched stranger tracks a
    /// re-preprocess within CPI tolerance plus the `O((1−c)^T)` window
    /// tail (not bitwise); re-anchor with a periodic full refresh.
    ///
    /// Returns `Ok(false)` without an index or with nothing accumulated;
    /// [`TpaError::BackendMismatch`] on non-dynamic backends.
    pub fn patch_index(&mut self) -> Result<bool, TpaError> {
        let overlay = match &self.snap.backend {
            EngineBackend::Dynamic(t) => t.as_ref(),
            other => {
                return Err(TpaError::BackendMismatch {
                    operation: "index patching",
                    backend: other.name(),
                })
            }
        };
        let Some(old) = &self.snap.index else { return Ok(false) };
        if self.index_deltas.is_empty() {
            return Ok(false);
        }
        let deltas: Vec<SourceDelta> = self.index_deltas.values().cloned().collect();
        let offset = overlay.offset_seed_for(&deltas, old.params().c, old.stranger());
        let (patched, _stats) = old.patch_stranger_on(
            &self.snap.backend,
            offset,
            MaintenanceMode::Exact,
            self.snap.frontier,
        );
        self.snap.index = Some(Arc::new(patched));
        self.accumulated_drift = 0.0;
        self.index_deltas.clear();
        Ok(true)
    }

    /// Accumulated relative operator drift since the attached index was
    /// last (re)built.
    pub fn accumulated_drift(&self) -> f64 {
        self.accumulated_drift
    }

    /// True when the attached index has drifted past the staleness
    /// threshold without being refreshed.
    pub fn index_stale(&self) -> bool {
        self.snap.index.is_some() && self.accumulated_drift > self.staleness.threshold
    }

    /// The attached index, if any.
    pub fn index(&self) -> Option<&TpaIndex> {
        self.snap.index.as_deref()
    }

    /// Number of nodes served.
    pub fn n(&self) -> usize {
        self.snap.backend.n()
    }

    /// Executes a plan, returning the scores/rankings. Single-seed plans
    /// take the scalar path; larger batches run lane tiles through the
    /// backend's fused block kernel, bit-identical to per-seed
    /// execution. An empty plan yields an empty result (serving queues
    /// legitimately drain to zero); an out-of-range seed is rejected at
    /// admission with [`TpaError::SeedOutOfRange`].
    pub fn execute(&self, plan: &QueryPlan) -> Result<QueryResult, TpaError> {
        Ok(self.snap.run(plan)?.result)
    }

    /// [`QueryEngine::execute`] returning the full [`QueryResponse`]
    /// (scores plus backend/epoch/iteration metadata) — the same shape
    /// [`crate::RwrService::submit`] returns. When an admission gate is
    /// attached ([`QueryEngine::with_admission`]), the request clears it
    /// first, with the same deadline/shed/rejection semantics as the
    /// concurrent service.
    pub fn submit(&self, req: &QueryRequest) -> Result<QueryResponse, TpaError> {
        let Some(gate) = &self.admission else {
            return self.snap.run(req);
        };
        let started = std::time::Instant::now();
        let (permit, level, deadline_at) =
            crate::service::admit(gate, self.snap.metrics.as_deref(), req, started)?;
        let result = self.snap.run_shaped(req, level, deadline_at, &gate.config().shed);
        drop(permit);
        result
    }

    /// Puts an admission gate in front of [`QueryEngine::submit`]: the
    /// same bounded in-flight/queue, deadline, and shed-ladder semantics
    /// as [`crate::ServiceBuilder::admission`] gives the concurrent
    /// service. On a single-owner engine the gate mostly matters for its
    /// deadline/shed behaviour (there is at most one caller), but the
    /// semantics — and the stamped [`crate::DegradationLevel`] — are
    /// identical, so CLI flows behave the same on either serving layer.
    pub fn with_admission(self, cfg: crate::admission::AdmissionConfig) -> Result<Self, TpaError> {
        cfg.check()?;
        let metrics = self.snap.metrics.clone();
        Ok(QueryEngine {
            admission: Some(crate::admission::AdmissionGate::new(cfg, metrics)),
            ..self
        })
    }

    /// Full scores for one seed (index path when available). Panics on
    /// an invalid request; use [`QueryEngine::execute`] to handle
    /// [`TpaError`]s instead.
    pub fn query(&self, seed: NodeId) -> Vec<f64> {
        // lint:allow(panic-freedom, "documented panicking convenience; the serving path is QueryEngine::execute, and a single request always yields one vector")
        self.expect(&QueryRequest::single(seed)).into_scores().pop().unwrap()
    }

    /// Full scores for a batch of seeds: one fused edge pass per CPI
    /// iteration per lane tile (so a batch of `B` seeds costs
    /// `⌈B / lane_tile⌉` edge passes per iteration instead of `B`; see
    /// [`QueryEngine::with_lane_tile`]). Panics on an invalid request.
    pub fn query_batch(&self, seeds: &[NodeId]) -> Vec<Vec<f64>> {
        // lint:allow(panic-freedom, "documented panicking convenience; the serving path is QueryEngine::execute")
        self.expect(&QueryRequest::batch(seeds.to_vec())).into_scores()
    }

    /// Best `k` nodes for one seed, best first. Panics on an invalid
    /// request.
    pub fn top_k(&self, seed: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        // lint:allow(panic-freedom, "documented panicking convenience; the serving path is QueryEngine::execute, and a single request always yields one ranking")
        self.expect(&QueryRequest::single(seed).top_k(k)).into_ranked().pop().unwrap()
    }

    /// Best `k` nodes for each seed in a batch. Panics on an invalid
    /// request.
    pub fn top_k_batch(&self, seeds: &[NodeId], k: usize) -> Vec<Vec<(NodeId, f64)>> {
        // lint:allow(panic-freedom, "documented panicking convenience; the serving path is QueryEngine::execute")
        self.expect(&QueryRequest::batch(seeds.to_vec()).top_k(k)).into_ranked()
    }

    /// Shared panic path of the infallible conveniences: renders the
    /// [`TpaError`] so every entry point fails with the same message.
    fn expect(&self, req: &QueryRequest) -> QueryResult {
        // lint:allow(panic-freedom, "shared panic path of the documented panicking conveniences; fallible callers use execute")
        self.execute(req).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The `k` best `(node, score)` pairs, best first, ties broken by lower
/// node id. Partial selection (`select_nth_unstable_by`) followed by a
/// sort of only the selected prefix: `O(n + k log k)` instead of the
/// `O(n log n)` full sort.
pub fn top_k_scored(scores: &[f64], k: usize) -> Vec<(NodeId, f64)> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    // `total_cmp`, not `partial_cmp().expect(…)`: RWR scores are finite
    // and non-negative, so the two orders agree — and the total order
    // keeps this path panic-free by construction.
    let cmp = |a: &u32, b: &u32| scores[*b as usize].total_cmp(&scores[*a as usize]).then(a.cmp(b));
    idx.select_nth_unstable_by(k - 1, cmp);
    idx.truncate(k);
    idx.sort_unstable_by(cmp);
    idx.into_iter().map(|v| (v, scores[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_rwr;
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(71);
        lfr_lite(LfrConfig { n: 400, m: 3200, ..Default::default() }, &mut rng).graph
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tpa-engine-{name}-{}", std::process::id()))
    }

    #[test]
    fn indexed_query_matches_direct_index_use() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let engine = QueryEngine::sequential(&g).preprocess(params);
        let index = TpaIndex::preprocess(&g, params);
        let t = Transition::new(&g);
        assert_eq!(engine.query(13), index.query(&t, 13));
    }

    #[test]
    fn batch_bitwise_identical_to_singles_on_every_backend() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let index = Arc::new(TpaIndex::preprocess(&g, params));
        let seeds: Vec<NodeId> = (0..32).map(|i| (i * 13) % g.n() as NodeId).collect();
        let path = tmp("backends");
        let disk = DiskGraph::create(&g, &path).unwrap();

        let engines = [
            QueryEngine::sequential(&g).with_index(Arc::clone(&index)),
            QueryEngine::parallel(&g, 4).with_index(Arc::clone(&index)),
            QueryEngine::out_of_core(disk).with_index(Arc::clone(&index)),
        ];
        let reference = QueryEngine::sequential(&g).with_index(Arc::clone(&index));
        let singles: Vec<Vec<f64>> = seeds.iter().map(|&s| reference.query(s)).collect();
        for engine in &engines {
            let batch = engine.query_batch(&seeds);
            assert_eq!(batch, singles, "backend {}", engine.backend().name());
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn exact_mode_ignores_index() {
        let g = test_graph();
        let engine = QueryEngine::sequential(&g).preprocess(TpaParams::new(4, 9));
        let exact =
            engine.execute(&QueryPlan::single(7).exact()).unwrap().into_scores().pop().unwrap();
        assert_eq!(exact, exact_rwr(&g, 7, &CpiConfig::default()));
        // The indexed answer is an approximation — close, but distinct.
        assert_ne!(exact, engine.query(7));
    }

    #[test]
    fn engine_without_index_serves_exact_scores() {
        let g = test_graph();
        let engine = QueryEngine::sequential(&g);
        assert_eq!(engine.query(3), exact_rwr(&g, 3, &CpiConfig::default()));
    }

    #[test]
    fn submit_reports_metadata() {
        let g = test_graph();
        let engine = QueryEngine::sequential(&g).preprocess(TpaParams::new(5, 10));
        let resp = engine.submit(&QueryRequest::single(7)).unwrap();
        assert_eq!(resp.backend, "sequential");
        assert_eq!(resp.epoch, 0);
        assert!(resp.indexed);
        // The indexed family sweep runs S − 1 propagations.
        assert_eq!(resp.iterations, Some(4));
        assert!(resp.residual.unwrap() > 0.0);
        let exact = engine.submit(&QueryRequest::single(7).exact()).unwrap();
        assert!(!exact.indexed);
        assert!(exact.iterations.unwrap() > 4);
    }

    #[test]
    fn top_k_matches_full_sort() {
        let g = test_graph();
        let engine = QueryEngine::sequential(&g).preprocess(TpaParams::new(5, 10));
        let scores = engine.query(42);
        let ranked = engine.top_k(42, 10);
        // Reference: full sort.
        let mut full: Vec<(NodeId, f64)> =
            scores.iter().enumerate().map(|(i, &s)| (i as NodeId, s)).collect();
        full.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        full.truncate(10);
        assert_eq!(ranked, full);
    }

    #[test]
    fn top_k_scored_handles_edge_cases() {
        assert_eq!(top_k_scored(&[], 5), vec![]);
        assert_eq!(top_k_scored(&[1.0, 2.0], 0), vec![]);
        assert_eq!(top_k_scored(&[1.0, 2.0], 99), vec![(1, 2.0), (0, 1.0)]);
        // Ties break toward the lower node id.
        assert_eq!(top_k_scored(&[0.5, 0.5, 0.5], 2), vec![(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn parallel_preprocess_matches_sequential() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let seq = QueryEngine::sequential(&g).preprocess(params);
        let par = QueryEngine::parallel(&g, 4).preprocess(params);
        assert_eq!(seq.index().unwrap().stranger(), par.index().unwrap().stranger());
        assert_eq!(seq.query(99), par.query(99));
    }

    #[test]
    fn empty_batch_yields_empty_result() {
        // Serving queues drain to zero; an empty plan is not an error.
        let g = test_graph();
        let engine = QueryEngine::sequential(&g).preprocess(TpaParams::new(4, 9));
        assert!(engine.query_batch(&[]).is_empty());
        assert!(engine.top_k_batch(&[], 5).is_empty());
    }

    #[test]
    fn dynamic_backend_serves_all_plan_kinds() {
        use tpa_graph::{DynamicGraph, EdgeUpdate};
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let reference = QueryEngine::sequential(&g).preprocess(params);
        let mut engine = QueryEngine::dynamic(DynamicGraph::new(g.clone())).preprocess(params);

        // Before any update, every plan kind matches the static engine
        // bitwise (same index parameters, same kernel order).
        assert_eq!(engine.query(13), reference.query(13));
        assert_eq!(engine.query_batch(&[1, 5, 9]), reference.query_batch(&[1, 5, 9]));
        assert_eq!(engine.top_k(13, 5), reference.top_k(13, 5));
        let exact =
            engine.execute(&QueryPlan::single(7).exact()).unwrap().into_scores().pop().unwrap();
        assert_eq!(exact, exact_rwr(&g, 7, &CpiConfig::default()));

        // After updates the engine answers on the evolved graph, and the
        // engine's epoch advances like a service publish.
        assert_eq!(engine.snapshot().epoch(), 0);
        let report = engine
            .apply_updates(&[EdgeUpdate::Insert(13, 200), EdgeUpdate::Insert(200, 13)])
            .unwrap();
        assert_eq!(report.delta.stats.inserted, 2);
        assert_eq!(engine.snapshot().epoch(), 1);
        let evolved =
            engine.execute(&QueryPlan::single(13).exact()).unwrap().into_scores().pop().unwrap();
        assert_ne!(evolved, exact_rwr(&g, 13, &CpiConfig::default()));
        assert!(engine.dynamic_transition().unwrap().graph().has_edge(13, 200));
    }

    #[test]
    fn static_backends_reject_updates() {
        use tpa_graph::EdgeUpdate;
        let g = test_graph();
        let mut engine = QueryEngine::sequential(&g);
        let err = engine.apply_updates(&[EdgeUpdate::Insert(0, 1)]).unwrap_err();
        assert!(
            matches!(
                err,
                TpaError::BackendMismatch { operation: "edge updates", backend: "sequential" }
            ),
            "{err}"
        );
        let err = engine.compact_dynamic().unwrap_err();
        assert!(matches!(err, TpaError::BackendMismatch { .. }), "{err}");
    }

    #[test]
    fn staleness_policy_flags_then_auto_refreshes() {
        use tpa_graph::{DynamicGraph, EdgeUpdate};
        let g = test_graph();
        let params = TpaParams::new(4, 9);
        let tight = IndexStalenessPolicy { threshold: 1e-12, auto_refresh: false };
        let mut engine = QueryEngine::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            .with_staleness_policy(tight)
            .unwrap();
        let report = engine.apply_updates(&[EdgeUpdate::Insert(0, 399)]).unwrap();
        assert!(report.index_stale && !report.index_refreshed);
        assert!(engine.index_stale());
        let drift = engine.accumulated_drift();
        assert!(drift > 0.0);

        // Manual refresh rebuilds the index on the evolved graph.
        engine.refresh_index();
        assert!(!engine.index_stale());
        assert_eq!(engine.accumulated_drift(), 0.0);

        // Auto-refresh does the same inside apply_updates.
        let mut auto = QueryEngine::dynamic(DynamicGraph::new(g))
            .preprocess(params)
            .with_staleness_policy(IndexStalenessPolicy { threshold: 1e-12, auto_refresh: true })
            .unwrap();
        let report = auto.apply_updates(&[EdgeUpdate::Insert(0, 399)]).unwrap();
        assert!(report.index_refreshed && !report.index_stale);
        assert_eq!(auto.accumulated_drift(), 0.0);
        // The refreshed index serves the evolved graph exactly like a
        // fresh preprocess over the same state.
        let snap = auto.dynamic_transition().unwrap().graph().snapshot();
        let fresh = QueryEngine::sequential(&snap).preprocess(params);
        assert_eq!(auto.query(42), fresh.query(42));
    }

    #[test]
    fn patch_index_repairs_a_stale_index_incrementally() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let tight = IndexStalenessPolicy { threshold: 1e-12, auto_refresh: false };
        let mut engine = QueryEngine::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            .with_staleness_policy(tight)
            .unwrap();
        // Nothing accumulated yet: patching is a no-op.
        assert!(!engine.patch_index().unwrap());

        let ups = [
            EdgeUpdate::Insert(0, 399),
            EdgeUpdate::Insert(399, 17),
            EdgeUpdate::Delete(0, 399),
            EdgeUpdate::Insert(42, 7),
        ];
        let report = engine.apply_updates(&ups).unwrap();
        assert!(report.index_stale);
        let stale: Vec<f64> = engine.index().unwrap().stranger().to_vec();

        assert!(engine.patch_index().unwrap());
        assert!(!engine.index_stale());
        assert_eq!(engine.accumulated_drift(), 0.0);
        // Consecutive patch with nothing new accumulated: no-op.
        assert!(!engine.patch_index().unwrap());

        // The patched stranger tracks a from-scratch re-preprocess far
        // more closely than the stale vector it replaced (it is not
        // bitwise: the O((1−c)^T) window-shift tail is dropped).
        let snap = engine.dynamic_transition().unwrap().graph().snapshot();
        let fresh = TpaIndex::preprocess(&snap, params);
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        let patched_err = l1(engine.index().unwrap().stranger(), fresh.stranger());
        let stale_err = l1(&stale, fresh.stranger());
        assert!(
            patched_err < 1e-3 && patched_err < stale_err,
            "patched drifted {patched_err} (stale was {stale_err})"
        );

        // Static backends reject patching with a typed error.
        let mut st = QueryEngine::sequential(&g).preprocess(params);
        let err = st.patch_index().unwrap_err();
        assert!(
            matches!(err, TpaError::BackendMismatch { operation: "index patching", .. }),
            "{err}"
        );
    }

    #[test]
    fn invalid_staleness_policy_is_an_error_not_a_panic() {
        let g = test_graph();
        for threshold in [0.0, -1.0, f64::NAN] {
            let err = match QueryEngine::sequential(&g)
                .with_staleness_policy(IndexStalenessPolicy { threshold, auto_refresh: false })
            {
                Ok(_) => panic!("threshold {threshold} must be rejected"),
                Err(e) => e,
            };
            assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("staleness threshold"), "{err}");
        }
        // Infinite thresholds are a legitimate "never stale" policy.
        let ok = QueryEngine::sequential(&g).with_staleness_policy(IndexStalenessPolicy {
            threshold: f64::INFINITY,
            auto_refresh: false,
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn tie_break_is_deterministic_across_backends() {
        // A graph with massive symmetry produces many exactly-equal
        // scores; the ranking must still be identical across backends and
        // runs (ascending node id within a tie).
        let g = tpa_graph::gen::cycle_graph(64);
        let plans = QueryPlan::single(0).top_k(10).exact();
        let seq = QueryEngine::sequential(&g).execute(&plans).unwrap().into_ranked();
        let par = QueryEngine::parallel(&g, 4).execute(&plans).unwrap().into_ranked();
        let dynamic = QueryEngine::dynamic(tpa_graph::DynamicGraph::new(g.clone()))
            .execute(&plans)
            .unwrap()
            .into_ranked();
        assert_eq!(seq, par);
        assert_eq!(seq, dynamic);
        let again = QueryEngine::sequential(&g).execute(&plans).unwrap().into_ranked();
        assert_eq!(seq, again);
        // Within every run of equal scores, node ids ascend.
        for w in seq[0].windows(2) {
            if w[0].1 == w[1].1 {
                assert!(w[0].0 < w[1].0, "tie not broken by ascending id: {w:?}");
            }
        }
    }

    #[test]
    fn reordered_engine_is_transparent_to_callers() {
        use tpa_graph::ReorderStrategy;
        let g = test_graph();
        let plain = QueryEngine::sequential(&g);
        for strategy in ReorderStrategy::ALL {
            let reordered = QueryEngine::sequential(&g).with_reordering(strategy);
            assert_eq!(reordered.permutation().unwrap().len(), g.n());
            let a = plain.query(13);
            let b = reordered.query(13);
            // Same CPI on an isomorphic graph: equal up to FP association
            // (the gather visits neighbors in relabeled order).
            let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(l1 < 1e-8, "{}: unmapped scores drifted {l1}", strategy.name());
            // Top-k ranks in caller (old-id) space.
            let ranked = reordered.top_k(13, 5);
            for (v, _) in &ranked {
                assert!((*v as usize) < g.n());
            }
        }
    }

    #[test]
    fn reordered_backends_agree_bitwise() {
        use tpa_graph::ReorderStrategy;
        let g = test_graph();
        let seeds: Vec<NodeId> = vec![2, 77, 201];
        let seq = QueryEngine::sequential(&g).with_reordering(ReorderStrategy::DegreeDescending);
        let par = QueryEngine::parallel(&g, 4).with_reordering(ReorderStrategy::DegreeDescending);
        let dynamic = QueryEngine::dynamic(DynamicGraph::new(g.clone()))
            .with_reordering(ReorderStrategy::DegreeDescending);
        let reference = seq.query_batch(&seeds);
        assert_eq!(par.query_batch(&seeds), reference);
        assert_eq!(dynamic.query_batch(&seeds), reference);
    }

    #[test]
    fn preprocess_stamps_permutation_and_index_roundtrips() {
        use tpa_graph::ReorderStrategy;
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let engine =
            QueryEngine::sequential(&g).with_reordering(ReorderStrategy::Rcm).preprocess(params);
        let index = engine.index().unwrap();
        assert_eq!(index.permutation(), engine.permutation());

        // Save, load, attach to a *fresh* engine: the stored permutation
        // restores the ordering transparently and answers are identical.
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = TpaIndex::load(std::io::Cursor::new(&buf)).unwrap();
        let served = QueryEngine::sequential(&g).with_index(loaded);
        assert!(served.permutation().is_some());
        assert_eq!(served.query(42), engine.query(42));
        assert_eq!(served.top_k(42, 7), engine.top_k(42, 7));
    }

    #[test]
    fn reordered_dynamic_engine_accepts_old_id_updates() {
        use tpa_graph::ReorderStrategy;
        let g = test_graph();
        let mut plain = QueryEngine::dynamic(DynamicGraph::new(g.clone()));
        let mut reordered = QueryEngine::dynamic(DynamicGraph::new(g.clone()))
            .with_reordering(ReorderStrategy::HubCluster);
        let ups =
            [EdgeUpdate::Insert(13, 200), EdgeUpdate::Delete(13, 200), EdgeUpdate::Insert(7, 40)];
        let a = plain.apply_updates(&ups).unwrap();
        let b = reordered.apply_updates(&ups).unwrap();
        assert_eq!(a.delta.stats, b.delta.stats);
        let x = plain.query(7);
        let y = reordered.query(7);
        let l1: f64 = x.iter().zip(&y).map(|(p, q)| (p - q).abs()).sum();
        assert!(l1 < 1e-8, "post-update scores drifted {l1}");
    }

    #[test]
    fn frontier_policy_is_bitwise_invisible_through_the_engine() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let index = Arc::new(TpaIndex::preprocess(&g, params));
        let dense = QueryEngine::sequential(&g)
            .with_index(Arc::clone(&index))
            .with_frontier(FrontierPolicy::Dense);
        let sparse = QueryEngine::sequential(&g)
            .with_index(Arc::clone(&index))
            .with_frontier(FrontierPolicy::Sparse);
        let auto = QueryEngine::sequential(&g).with_index(Arc::clone(&index));
        assert_eq!(auto.frontier(), FrontierPolicy::Auto);
        // Indexed, exact, and top-k paths all agree to the bit.
        assert_eq!(dense.query(13), sparse.query(13));
        assert_eq!(dense.query(13), auto.query(13));
        assert_eq!(dense.top_k(13, 7), auto.top_k(13, 7));
        let exact_of = |e: &QueryEngine<'_>| {
            e.execute(&QueryPlan::single(7).exact()).unwrap().into_scores().pop().unwrap()
        };
        assert_eq!(exact_of(&dense), exact_of(&sparse));
        assert_eq!(exact_of(&dense), exact_of(&auto));
        // A plan-level override beats the engine default.
        let plan = QueryPlan::single(13).with_frontier(FrontierPolicy::Sparse);
        assert_eq!(plan.frontier(), Some(FrontierPolicy::Sparse));
        assert_eq!(
            dense.execute(&plan).unwrap().into_scores(),
            auto.execute(&QueryPlan::single(13)).unwrap().into_scores()
        );
    }

    #[test]
    fn frontier_policy_agrees_across_backends() {
        let g = test_graph();
        let reference = QueryEngine::sequential(&g).with_frontier(FrontierPolicy::Dense).query(42);
        for policy in [FrontierPolicy::Auto, FrontierPolicy::Sparse] {
            let seq = QueryEngine::sequential(&g).with_frontier(policy);
            let par = QueryEngine::parallel(&g, 4).with_frontier(policy);
            let dynamic = QueryEngine::dynamic(DynamicGraph::new(g.clone())).with_frontier(policy);
            assert_eq!(seq.query(42), reference, "seq {}", policy.name());
            assert_eq!(par.query(42), reference, "par {}", policy.name());
            assert_eq!(dynamic.query(42), reference, "dyn {}", policy.name());
        }
    }

    #[test]
    #[should_panic(expected = "reordered differently")]
    fn mismatched_permutations_are_rejected() {
        use tpa_graph::ReorderStrategy;
        let g = test_graph();
        let index = QueryEngine::sequential(&g)
            .with_reordering(ReorderStrategy::DegreeDescending)
            .preprocess(TpaParams::new(4, 9))
            .index()
            .unwrap()
            .clone();
        let _ = QueryEngine::sequential(&g).with_reordering(ReorderStrategy::Rcm).with_index(index);
    }

    #[test]
    fn execute_rejects_out_of_range_seed() {
        let g = test_graph();
        let engine = QueryEngine::sequential(&g);
        let err = engine.execute(&QueryPlan::single(g.n() as NodeId)).unwrap_err();
        assert!(
            matches!(err, TpaError::SeedOutOfRange { seed, n } if seed as usize == g.n() && n == g.n()),
            "{err}"
        );
        // A bad seed anywhere in a batch is caught at admission too.
        let err = engine.execute(&QueryPlan::batch(vec![0, 1, 9999])).unwrap_err();
        assert!(matches!(err, TpaError::SeedOutOfRange { seed: 9999, .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn infallible_query_panics_on_out_of_range_seed() {
        let g = test_graph();
        QueryEngine::sequential(&g).query(g.n() as NodeId);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn rejects_foreign_index() {
        let g = test_graph();
        let other = tpa_graph::gen::cycle_graph(7);
        let index = TpaIndex::preprocess(&other, TpaParams::new(3, 6));
        let _ = QueryEngine::sequential(&g).with_index(index);
    }
}
