//! The serving layer: [`RwrService`] over epoch-swapped [`Snapshot`]s.
//!
//! TPA's whole point is cheap online queries over a preprocessed index
//! (Yoon et al., ICDE 2018), and the dynamic-RWR line (Yoon et al.,
//! *"Fast and Accurate Random Walk with Restart on Dynamic Graphs with
//! Guarantees"*) assumes queries and updates interleave continuously —
//! so the serving surface lets them, without readers ever waiting on
//! the writer.
//!
//! The design here is the classic epoch swap:
//!
//! * A [`Snapshot`] is an **immutable** bundle of everything a query
//!   needs — propagation backend, optional [`TpaIndex`], reordering
//!   permutation, CPI / frontier / lane-tile configuration — stamped
//!   with an epoch number. All of its query methods take `&self`, and
//!   `Snapshot<'static>` (the owned form the service publishes) is
//!   `Send + Sync`.
//! * [`RwrService`] keeps the current snapshot behind an
//!   `RwLock<Arc<Snapshot>>`. A reader's only synchronized step is
//!   cloning that `Arc` (a refcount bump under a read lock held for
//!   nanoseconds); the query itself runs lock-free on the pinned
//!   snapshot, so any number of threads query concurrently and are
//!   never serialized behind the writer.
//! * A single writer (serialized by an internal mutex) owns the mutable
//!   delta-overlay graph. [`RwrService::apply_updates`] applies an
//!   [`EdgeUpdate`] batch to the overlay and atomically publishes the
//!   next epoch by swapping the `Arc`. In-flight queries keep reading
//!   the epoch they pinned; the next `submit` sees the new one. Every
//!   epoch is **bitwise consistent**: a query on epoch `e` returns
//!   exactly what the TPA online phase returns on a CSR rebuilt from
//!   that epoch's graph — never a blend of two epochs.
//! * Publishing is **copy-on-write**, not a rebuild: the new epoch's
//!   backend is a [`crate::PatchedTransition`] — the immutable base CSR
//!   shared via `Arc` plus the merged-overlay delta (per-row `Arc`s
//!   shared across epochs) — so a publish costs `O(batch)` map clones
//!   plus two flat per-node `memcpy`s, never an `O(n + m)` CSR rebuild
//!   or edge traversal. Folding the delta back into a fresh base is
//!   demoted to a *background* thread: past the compaction trigger the
//!   writer clones the overlay graph (cheap — the base is shared),
//!   rebuilds off-thread, and splices the fresh base back in under the
//!   writer lock without ever blocking a publish or changing a single
//!   published bit (the merged view is identical by construction).
//! * Hot seeds can be pinned in a service-side score cache
//!   ([`ServiceBuilder::score_cache`]): each publish refreshes the
//!   cached lanes by OSP offset propagation routed through the
//!   sparse-frontier kernel — cost scales with the update's reach —
//!   and cache hits answer single-seed requests with no kernel run at
//!   all ([`QueryResponse::cached`]).
//!
//! Requests and responses are typed ([`QueryRequest`] /
//! [`QueryResponse`]), failures are a real error type
//! ([`crate::TpaError`]), and construction goes through one
//! [`ServiceBuilder`].
//!
//! ```
//! use std::sync::Arc;
//! use tpa_core::{QueryRequest, ServiceBuilder, TpaParams};
//! use tpa_graph::gen::star_graph;
//! use tpa_graph::{DynamicGraph, EdgeUpdate};
//!
//! let service = Arc::new(
//!     ServiceBuilder::dynamic(DynamicGraph::new(star_graph(100)))
//!         .preprocess(TpaParams::new(5, 10))
//!         .build()
//!         .unwrap(),
//! );
//! // Readers (any number of threads): pin a snapshot implicitly.
//! let resp = service.submit(&QueryRequest::single(42).top_k(5)).unwrap();
//! assert_eq!(resp.epoch, 0);
//! // The writer publishes the next epoch; readers are never blocked.
//! let outcome = service.apply_updates(&[EdgeUpdate::Insert(42, 7)]).unwrap();
//! assert_eq!(outcome.epoch, 1);
//! ```

use crate::admission::{
    AdmissionConfig, AdmissionGate, CancelToken, DegradationLevel, FaultPlan, ShedPolicy,
    SweepGuard,
};
use crate::batch::cpi_batch_guarded;
use crate::cpi::cpi_probed;
use crate::dynamic::{
    propagate_offset_policy, DynamicTransition, MaintenanceMode, SourceDelta, UpdateDelta,
};
use crate::error::check_seeds;
use crate::frontier::{FrontierScratch, FrontierStep, FrontierWork};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::offcore::DiskGraph;
use crate::patch::PatchedTransition;
use crate::{
    CpiConfig, FrontierPolicy, ParallelTransition, Propagator, SeedSet, TpaError, TpaIndex,
    TpaParams, Transition,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use tpa_graph::{
    reorder, CsrGraph, DynamicGraph, EdgeUpdate, NodeId, Permutation, ReorderStrategy,
};
use tpa_obs::MetricsRegistry;

/// The propagation backend a [`Snapshot`] serves from: sequential
/// in-memory, multi-threaded in-memory, streaming from disk, or a
/// frozen copy-on-write patch view of a dynamic graph.
pub enum EngineBackend<'g> {
    /// Single-threaded in-memory gather ([`Transition`]).
    Sequential(Transition<'g>),
    /// Multi-threaded in-memory gather ([`ParallelTransition`]).
    Parallel(ParallelTransition<'g>),
    /// Out-of-core edge streaming ([`DiskGraph`]), `O(n)` memory.
    OutOfCore(DiskGraph),
    /// Immutable copy-on-write patch snapshot ([`PatchedTransition`]):
    /// a base CSR shared by `Arc` plus the merged overlay delta, frozen
    /// at one epoch. This is what [`RwrService`] publishes for dynamic
    /// sources — assembling one costs `O(batch)`, not the `O(n + m)` of
    /// a full CSR rebuild.
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
            EngineBackend::Patched(t) => Propagator::n(t),
        }
    }

    fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
        match self {
            EngineBackend::Sequential(t) => Propagator::propagate_into(t, coeff, x, y),
            EngineBackend::Parallel(t) => t.propagate_into(coeff, x, y),
            EngineBackend::OutOfCore(d) => Propagator::propagate_into(d, coeff, x, y),
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
            EngineBackend::Patched(t) => Propagator::propagate_block_into(t, coeff, x, y),
        }
    }

    // The frontier entry points forward to the wrapped backend so its
    // native kernels (not the trait defaults) serve requests.

    fn propagate_into_norm(&self, coeff: f64, x: &[f64], y: &mut [f64]) -> f64 {
        match self {
            EngineBackend::Sequential(t) => Propagator::propagate_into_norm(t, coeff, x, y),
            EngineBackend::Parallel(t) => t.propagate_into_norm(coeff, x, y),
            EngineBackend::OutOfCore(d) => Propagator::propagate_into_norm(d, coeff, x, y),
            EngineBackend::Patched(t) => Propagator::propagate_into_norm(t, coeff, x, y),
        }
    }

    fn frontier_work(&self, active: &[NodeId]) -> Option<FrontierWork> {
        match self {
            EngineBackend::Sequential(t) => Propagator::frontier_work(t, active),
            EngineBackend::Parallel(t) => t.frontier_work(active),
            EngineBackend::OutOfCore(d) => Propagator::frontier_work(d, active),
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
            EngineBackend::Patched(t) => {
                Propagator::propagate_frontier(t, coeff, x, y, active, scratch)
            }
        }
    }
}

/// When is the served [`TpaIndex`] too stale to keep serving?
///
/// The writer accumulates the relative operator drift
/// `Σ ‖ΔÃ[:,u]‖₁ / n` across update batches (a proxy for the L1 error
/// the drift induces in the index's stranger vector — amplified by at
/// most `(1−c)/c` through the CPI tail). Past `threshold` the index is
/// *stale*: with `auto_refresh` the writer re-preprocesses before
/// publishing (inside [`RwrService::apply_updates`]); otherwise it keeps
/// serving and flags the caller, who decides when to run
/// [`RwrService::refresh_index`] or [`RwrService::patch_index`].
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

/// The structural delta and index-staleness accounting of one
/// [`RwrService::apply_updates`] batch.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The captured delta. The service has already folded it into its
    /// score-cache lanes and the index drift accounting.
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

/// Default lane-tile width for batched requests (see
/// [`ServiceBuilder::lane_tile`]): wide enough to amortize the edge
/// pass, narrow enough that the three working blocks
/// (`x`/`next`/`acc` ≈ `3·n·tile·8` bytes) stay resident in a ~2 MB
/// private L2 for the bench-scale graphs.
pub const DEFAULT_LANE_TILE: usize = 8;

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

/// How a request computes scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Use the [`TpaIndex`] if the snapshot has one, exact CPI otherwise.
    Auto,
    /// Full-convergence CPI (ground truth), even when an index is loaded.
    Exact,
}

/// A typed query: which seeds, how to execute, what to return.
///
/// Built fluently: [`QueryRequest::single`] / [`QueryRequest::batch`],
/// then [`top_k`](QueryRequest::top_k), [`exact`](QueryRequest::exact),
/// [`with_frontier`](QueryRequest::with_frontier) and
/// [`with_epsilon`](QueryRequest::with_epsilon) overrides. Submitted to
/// [`RwrService::submit`] or [`Snapshot::run`].
#[derive(Clone, Debug)]
pub struct QueryRequest {
    seeds: Vec<NodeId>,
    k: Option<usize>,
    mode: ExecMode,
    frontier: Option<FrontierPolicy>,
    eps: Option<f64>,
    exact_bounds: bool,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl QueryRequest {
    /// Request for one seed.
    pub fn single(seed: NodeId) -> Self {
        Self::batch(vec![seed])
    }

    /// Request for a batch of seeds (one lane per seed, shared edge
    /// passes). An empty batch is legal and yields an empty response
    /// (serving queues legitimately drain to zero).
    pub fn batch(seeds: impl Into<Vec<NodeId>>) -> Self {
        QueryRequest {
            seeds: seeds.into(),
            k: None,
            mode: ExecMode::Auto,
            frontier: None,
            eps: None,
            exact_bounds: false,
            deadline: None,
            cancel: None,
        }
    }

    /// Return only the `k` best-scoring nodes per seed (partial
    /// selection, no full sort).
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Force exact CPI even if the snapshot holds an index.
    pub fn exact(mut self) -> Self {
        self.mode = ExecMode::Exact;
        self
    }

    /// Overrides the snapshot's [`FrontierPolicy`] for this request.
    /// Applies to the scalar (single-seed) path; batched lanes always
    /// run the dense fused block kernels. Bitwise invisible either way.
    pub fn with_frontier(mut self, policy: FrontierPolicy) -> Self {
        self.frontier = Some(policy);
        self
    }

    /// Per-request convergence tolerance for **exact** execution (a
    /// latency/accuracy knob individual callers can turn without
    /// touching the shared configuration). Indexed execution ignores it:
    /// the family sweep is window-capped at `S − 1` iterations, whose
    /// residual `c(1−c)^i` never falls below any practical ε first.
    /// Must be positive, checked at admission.
    pub fn with_epsilon(mut self, eps: f64) -> Self {
        self.eps = Some(eps);
        self
    }

    /// The requested seeds.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// The requested execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The per-request frontier override, if any.
    pub fn frontier(&self) -> Option<FrontierPolicy> {
        self.frontier
    }

    /// The requested top-k cut, if any.
    pub fn k(&self) -> Option<usize> {
        self.k
    }

    /// The per-request exact-mode tolerance override, if any.
    pub fn epsilon(&self) -> Option<f64> {
        self.eps
    }

    /// Serve the top-k request through the bounded exact path: per-node
    /// lower/upper score bounds ride the CPI sweep and terminate it as
    /// soon as the top-k set *and order* are provably stable, with the
    /// proof reported as [`QueryResponse::topk`]. The returned set and
    /// order always equal the dense path's exactly; early-terminated
    /// exact-mode scores are the proof-time lower bounds (within the
    /// residual tail of the converged values). Requires
    /// [`top_k`](QueryRequest::top_k) — rejected at admission otherwise.
    /// Bypasses the snapshot score cache (the bounded sweep is the
    /// point); falls back to the dense path (counted in the guarantee
    /// and the metrics) only on the out-of-core backend.
    pub fn with_exact_bounds(mut self) -> Self {
        self.exact_bounds = true;
        self
    }

    /// True when the request asked for the bounded exact top-k path.
    pub fn exact_bounds(&self) -> bool {
        self.exact_bounds
    }

    /// Per-request deadline: the wall-clock budget covering admission
    /// queueing *and* kernel execution. Once it expires the request
    /// fails with [`TpaError::DeadlineExceeded`] — in the queue
    /// immediately, mid-sweep at the next CPI iteration boundary — so
    /// no request consumes a full sweep after its caller gave up. Must
    /// be nonzero, checked at admission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative cancellation token: call
    /// [`CancelToken::cancel`] from any thread and the running sweep
    /// stops at the next iteration boundary with
    /// [`TpaError::Cancelled`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The per-request deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Graph-independent admission checks, shared by
    /// [`RwrService::submit`] (before the gate, so a malformed request
    /// never queues) and [`Snapshot::run`]: the per-request ε must be
    /// positive and finite, the deadline nonzero.
    pub(crate) fn validate_limits(&self) -> Result<(), TpaError> {
        if let Some(eps) = self.eps {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(TpaError::InvalidConfig(format!(
                    "per-request epsilon must be positive and finite, got {eps}"
                )));
            }
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err(TpaError::InvalidConfig("deadline must be a nonzero duration".into()));
        }
        Ok(())
    }
}

/// What a request produced: one entry per seed, in request order.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// Full score vectors (no `top_k` requested).
    Scores(Vec<Vec<f64>>),
    /// `(node, score)` rankings, best first (`top_k` requested).
    Ranked(Vec<Vec<(NodeId, f64)>>),
}

impl QueryResult {
    /// Unwraps full score vectors; panics if the request asked for top-k.
    pub fn into_scores(self) -> Vec<Vec<f64>> {
        match self {
            QueryResult::Scores(s) => s,
            // lint:allow(panic-freedom, "documented caller-contract panic: the variant is fixed by the request shape the caller built")
            QueryResult::Ranked(_) => panic!("request returned rankings, not score vectors"),
        }
    }

    /// Unwraps rankings; panics if the request asked for full scores.
    pub fn into_ranked(self) -> Vec<Vec<(NodeId, f64)>> {
        match self {
            QueryResult::Ranked(r) => r,
            // lint:allow(panic-freedom, "documented caller-contract panic: the variant is fixed by the request shape the caller built")
            QueryResult::Scores(_) => panic!("request returned score vectors, not rankings"),
        }
    }
}

/// Scores/rankings plus serving metadata: which backend answered, at
/// which snapshot epoch, and — on scalar paths — how much CPI work the
/// answer took.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The scores or rankings, one entry per requested seed.
    pub result: QueryResult,
    /// Name of the propagation backend that served the request (see
    /// [`EngineBackend::name`]).
    pub backend: &'static str,
    /// Epoch of the snapshot that served the request. Two responses
    /// with the same epoch were computed on the identical frozen graph.
    pub epoch: u64,
    /// True when the answer came through the TPA index (approximate
    /// online phase); false for exact CPI.
    pub indexed: bool,
    /// CPI iterations run, for single-seed requests (batched lanes
    /// share iterations across seeds and report `None`).
    pub iterations: Option<usize>,
    /// `‖x(i)‖₁` when the sweep stopped, for single-seed requests.
    pub residual: Option<f64>,
    /// True when the answer came straight from the snapshot's score
    /// cache — no kernel ran. Cached lanes are maintained across epochs
    /// by offset propagation, so they track a cold exact query within
    /// the cache's [`MaintenanceMode`] tolerance (not bitwise).
    pub cached: bool,
    /// The bounded top-k guarantee, present iff the request asked for
    /// [`QueryRequest::with_exact_bounds`]: whether the answer is
    /// provably the dense path's, whether the proof terminated the
    /// sweep early, iterations saved, nodes pruned, and whether the
    /// request fell back to the dense path. Batched requests aggregate
    /// across lanes (sums for the counts, any-lane for the flags).
    pub topk: Option<crate::TopKGuarantee>,
    /// Wall-clock time [`Snapshot::run`] spent on this request —
    /// admission through result assembly — measured inside the call so
    /// callers get per-request timing without wrapping it themselves.
    pub elapsed: Duration,
    /// How far the shed ladder downgraded this request (see
    /// [`DegradationLevel`]). [`DegradationLevel::None`] — the vast
    /// majority — means full fidelity; anything else was applied by
    /// [`RwrService::submit`] under load and is never silent.
    pub degradation: DegradationLevel,
}

/// Hot-seed score lanes folded into a published [`Snapshot`] (pinned
/// with [`ServiceBuilder::score_cache`]).
///
/// Lanes hold exact-CPI score vectors in backend (relabeled) space, one
/// per pinned seed. At every [`RwrService::apply_updates`] publish the
/// writer refreshes each lane by OSP offset propagation — the offset
/// seed is built from the batch's old columns
/// ([`crate::DynamicTransition::offset_seed_for`]) and swept through
/// the CPI sweep loop under [`FrontierPolicy::Auto`], so the
/// refresh cost scales with the update's reach, not with `n + m`. A
/// cache hit ([`Snapshot::run`] on a single pinned seed at an
/// exact-serving path) returns the lane with no kernel run.
pub struct SnapshotCache {
    /// Pinned seeds, in backend (relabeled) space.
    seeds: Vec<NodeId>,
    /// One score lane per seed, same order. `Arc` per lane: an
    /// update-free publish shares lanes instead of copying them.
    lanes: Vec<Arc<Vec<f64>>>,
    /// How lanes are maintained across epochs (exact offset
    /// convergence, or tolerance-bounded with mass dropping).
    mode: MaintenanceMode,
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCache").field("seeds", &self.seeds.len()).finish_non_exhaustive()
    }
}

impl SnapshotCache {
    /// The lane for `seed` (backend space), if pinned.
    fn lookup(&self, seed: NodeId) -> Option<&Arc<Vec<f64>>> {
        let i = self.seeds.iter().position(|&s| s == seed)?;
        Some(&self.lanes[i])
    }

    /// Number of pinned seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// True when no seeds are pinned.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The maintenance mode lanes are refreshed under.
    pub fn mode(&self) -> MaintenanceMode {
        self.mode
    }
}

/// An immutable, consistently-queryable view of the served graph: the
/// propagation backend, the optional [`TpaIndex`], the reordering
/// permutation, and the execution configuration, stamped with an epoch.
///
/// All query entry points take `&self`; `Snapshot<'static>` (the owned
/// form [`RwrService`] publishes) is `Send + Sync`, so any number of
/// threads can run [`Snapshot::run`] concurrently on one snapshot.
pub struct Snapshot<'g> {
    pub(crate) backend: EngineBackend<'g>,
    pub(crate) index: Option<Arc<TpaIndex>>,
    pub(crate) exact_cfg: CpiConfig,
    pub(crate) lane_tile: usize,
    pub(crate) frontier: FrontierPolicy,
    /// Set when the snapshot serves a relabeled graph: seeds are mapped
    /// on the way in and scores/rankings unmapped on the way out, so
    /// callers never see the new ids.
    pub(crate) perm: Option<Arc<Permutation>>,
    /// Hot-seed score lanes, refreshed at each publish (see
    /// [`SnapshotCache`]). `None` unless the builder pinned seeds.
    pub(crate) cache: Option<Arc<SnapshotCache>>,
    /// Request-path instruments, shared with the owning service (see
    /// [`crate::ServiceMetrics`]). `None` (the default) keeps the query
    /// path at two `Instant` reads and a handful of `Option` branches.
    pub(crate) metrics: Option<Arc<ServiceMetrics>>,
    pub(crate) epoch: u64,
    /// The deterministic fault plan the owning service injects from
    /// ([`ServiceBuilder::fault_plan`]): carried by every published
    /// snapshot so slow-kernel draws hit the read path. `None` (the
    /// default) costs one `Option` branch per request.
    pub(crate) fault: Option<Arc<FaultPlan>>,
    /// Per-node remaining-mass caps for the bounded top-k checker
    /// (`min((Ãᵀ𝟙)[v], 1)`, plus their max), computed lazily on the
    /// first exact-bounds request so epoch publishes stay O(batch).
    /// Each published snapshot gets a fresh cell — the caps describe
    /// that epoch's operator.
    pub(crate) topk_caps: std::sync::OnceLock<Arc<crate::topk::TopkCaps>>,
}

impl<'g> Snapshot<'g> {
    /// Number of nodes served.
    pub fn n(&self) -> usize {
        self.backend.n()
    }

    /// The epoch this snapshot was published at (0 for the initial
    /// build).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The propagation backend.
    pub fn backend(&self) -> &EngineBackend<'g> {
        &self.backend
    }

    /// The attached index, if any.
    pub fn index(&self) -> Option<&TpaIndex> {
        self.index.as_deref()
    }

    /// The relabeling this snapshot serves under, if reordered.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.perm.as_deref()
    }

    /// The snapshot-level frontier policy (a request can override it).
    pub fn frontier(&self) -> FrontierPolicy {
        self.frontier
    }

    /// The hot-seed score cache carried by this snapshot, if any.
    pub fn score_cache(&self) -> Option<&SnapshotCache> {
        self.cache.as_deref()
    }

    /// The cached lane answering `req`, if the request is a single
    /// pinned seed on an exact-serving path (no per-request epsilon; an
    /// indexed snapshot only caches explicit [`ExecMode::Exact`]
    /// requests — the index path computes different, TPA-approximate
    /// scores).
    ///
    /// At [`DegradationLevel::PreferCache`] and above the eligibility
    /// widens: a pinned single seed is served from its exact lane even
    /// on the indexed path or under an ε override — the cheaper answer
    /// the shed ladder prefers, labeled on the response rather than
    /// silent.
    fn cached_lane(
        &self,
        req: &QueryRequest,
        seeds: &[NodeId],
        level: DegradationLevel,
    ) -> Option<Vec<f64>> {
        let cache = self.cache.as_ref()?;
        if level < DegradationLevel::PreferCache
            && (req.eps.is_some() || (req.mode == ExecMode::Auto && self.index.is_some()))
        {
            return None;
        }
        let [seed] = seeds[..] else { return None };
        Some(cache.lookup(seed)?.as_ref().clone())
    }

    /// Executes a request against this (frozen) snapshot. Single-seed
    /// requests take the scalar path; larger batches run lane tiles
    /// through the backend's fused block kernel, bit-identical to
    /// per-seed execution.
    ///
    /// Admission errors — out-of-range seeds
    /// ([`TpaError::SeedOutOfRange`]), a non-positive per-request
    /// epsilon ([`TpaError::InvalidConfig`]) — are returned before any
    /// kernel runs; an empty batch yields an empty response.
    ///
    /// When the snapshot carries metrics ([`ServiceBuilder::metrics`])
    /// each call records the admission and kernel-run spans, the
    /// per-(kind × backend) latency, cache hit/miss, and — on failure —
    /// the error variant. [`QueryResponse::elapsed`] is measured here
    /// regardless.
    pub fn run(&self, req: &QueryRequest) -> Result<QueryResponse, TpaError> {
        self.run_shed(req, DegradationLevel::None, None)
    }

    /// [`Snapshot::run`] with the shed ladder's verdict and the
    /// service-computed deadline instant. [`RwrService::submit`] enters
    /// here so queue time counts against the deadline; direct
    /// [`Snapshot::run`] calls compute their own instant from the
    /// request's budget.
    pub(crate) fn run_shed(
        &self,
        req: &QueryRequest,
        level: DegradationLevel,
        deadline_at: Option<Instant>,
    ) -> Result<QueryResponse, TpaError> {
        let started = Instant::now();
        match self.run_timed(req, started, level, deadline_at) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                if let Some(m) = &self.metrics {
                    m.record_error(&e);
                }
                Err(e)
            }
        }
    }

    /// [`Snapshot::run_shed`] after shaping the request per the shed
    /// ladder rung: at [`DegradationLevel::LoosenedEpsilon`] and above
    /// the per-request ε is floored at the policy's `shed_epsilon`, and
    /// at [`DegradationLevel::DroppedProof`] the exact-bounds tie-order
    /// proof is dropped to the cheaper dense cut. Shaping is explicit —
    /// the response carries `level`, so no downgrade is ever silent.
    pub(crate) fn run_shaped(
        &self,
        req: &QueryRequest,
        level: DegradationLevel,
        deadline_at: Option<Instant>,
        shed: &ShedPolicy,
    ) -> Result<QueryResponse, TpaError> {
        if level < DegradationLevel::LoosenedEpsilon {
            return self.run_shed(req, level, deadline_at);
        }
        let mut shaped = req.clone();
        if let ShedPolicy::Degrade(cfg) = shed {
            let floor = cfg.shed_epsilon;
            shaped.eps = Some(shaped.eps.map_or(floor, |e| e.max(floor)));
        }
        if level >= DegradationLevel::DroppedProof {
            shaped.exact_bounds = false;
        }
        self.run_shed(&shaped, level, deadline_at)
    }

    fn run_timed(
        &self,
        req: &QueryRequest,
        started: Instant,
        level: DegradationLevel,
        deadline_at: Option<Instant>,
    ) -> Result<QueryResponse, TpaError> {
        let n = self.backend.n();
        req.validate_limits()?;
        check_seeds(&req.seeds, n)?;
        if let Some(k) = req.k {
            if k == 0 {
                return Err(TpaError::InvalidConfig("top-k requests need k ≥ 1 (got 0)".into()));
            }
            if k > n {
                return Err(TpaError::InvalidConfig(format!(
                    "top-k cut k = {k} exceeds the graph's {n} nodes"
                )));
            }
        }
        if req.exact_bounds && req.k.is_none() {
            return Err(TpaError::InvalidConfig("exact_bounds requires a top_k request".into()));
        }
        // A per-request epsilon forms the exact-mode config here, so the
        // shared CpiConfig validation covers it (NaN and ≤ 0 both fail).
        let exact_cfg = match req.eps {
            Some(eps) => {
                let cfg = CpiConfig { eps, ..self.exact_cfg };
                cfg.check()?;
                cfg
            }
            None => self.exact_cfg,
        };
        if let Some(m) = &self.metrics {
            m.record_admission(started.elapsed());
        }
        // The guard rides every kernel below at iteration boundaries.
        // A submit-provided instant already includes queue time; direct
        // Snapshot::run callers start the clock here.
        let deadline_at = deadline_at.or_else(|| req.deadline.map(|d| started + d));
        let guard = SweepGuard::new(started, deadline_at, req.deadline, req.cancel.clone());
        let mut resp = QueryResponse {
            result: QueryResult::Scores(Vec::new()),
            backend: self.backend.name(),
            epoch: self.epoch,
            indexed: false,
            iterations: None,
            residual: None,
            cached: false,
            topk: None,
            elapsed: Duration::ZERO,
            degradation: level,
        };
        if req.seeds.is_empty() {
            if req.k.is_some() {
                resp.result = QueryResult::Ranked(Vec::new());
            }
            if req.exact_bounds {
                resp.topk = Some(crate::TopKGuarantee { proven_exact: true, ..Default::default() });
            }
            return Ok(self.finish(resp, req, started, Duration::ZERO));
        }
        // Reordered snapshots run in new-id space: map seeds in here,
        // map scores back out below (before top-k, so ranking ties keep
        // breaking on the caller-visible old ids).
        let mapped: Vec<NodeId>;
        let seeds: &[NodeId] = match &self.perm {
            None => &req.seeds,
            Some(p) => {
                mapped = req.seeds.iter().map(|&s| p.new_of(s)).collect();
                &mapped
            }
        };
        let policy = req.frontier.unwrap_or(self.frontier);
        // Fault injection (chaos harness only): a drawn slow-kernel
        // fault sleeps here, before the pre-kernel guard check — a
        // deadline-carrying request stalled by the fault fails with the
        // explicit typed error instead of a silently late answer.
        if let Some(f) = &self.fault {
            if let Some(stall) = f.slow_kernel() {
                std::thread::sleep(stall);
            }
        }
        guard.check()?;
        // Bounded exact top-k: native on in-memory backends, bypassing
        // the snapshot cache (the bounded sweep is the point of the
        // request). Out-of-core lanes fall through to the dense path and
        // get stamped as a fallback below.
        if req.exact_bounds && !matches!(self.backend, EngineBackend::OutOfCore(_)) {
            return self.run_bounded(req, seeds, policy, &exact_cfg, resp, started, &guard);
        }
        let run_started = Instant::now();
        let mut scores = if let Some(lane) = self.cached_lane(req, seeds, level) {
            resp.cached = true;
            vec![lane]
        } else {
            match (req.mode, &self.index) {
                (ExecMode::Auto, Some(index)) => {
                    resp.indexed = true;
                    if let [seed] = seeds[..] {
                        let run = index.family_sweep(
                            &self.backend,
                            &SeedSet::single(seed),
                            policy,
                            |_| guard.probe(),
                        );
                        guard.check()?;
                        resp.iterations = Some(run.last_iteration);
                        resp.residual = Some(run.final_residual);
                        vec![index.finish_family(run.scores)]
                    } else {
                        self.tiled(seeds, &guard, |tile| index.query_batch_on(&self.backend, tile))?
                    }
                }
                _ => {
                    if let [seed] = seeds[..] {
                        let run = cpi_probed(
                            &self.backend,
                            &SeedSet::single(seed),
                            &exact_cfg,
                            0,
                            None,
                            policy,
                            |_| guard.probe(),
                        );
                        guard.check()?;
                        resp.iterations = Some(run.last_iteration);
                        resp.residual = Some(run.final_residual);
                        vec![run.scores]
                    } else {
                        self.tiled(seeds, &guard, |tile| {
                            cpi_batch_guarded(&self.backend, tile, &exact_cfg, 0, None, || {
                                guard.probe()
                            })
                            .into_lanes()
                        })?
                    }
                }
            }
        };
        let run_elapsed = run_started.elapsed();
        if let Some(p) = &self.perm {
            for s in scores.iter_mut() {
                *s = p.unpermute_values(s);
            }
        }
        resp.result = match req.k {
            None => QueryResult::Scores(scores),
            Some(k) => QueryResult::Ranked(scores.iter().map(|s| top_k_scored(s, k)).collect()),
        };
        if req.exact_bounds {
            // Only the out-of-core backend reaches here with
            // exact_bounds set: the dense cut is exact, but no bounded
            // sweep ran.
            resp.topk = Some(crate::TopKGuarantee {
                proven_exact: !resp.cached,
                early_terminated: false,
                iterations_saved: 0,
                pruned_nodes: 0,
                fallback_dense: true,
            });
        }
        Ok(self.finish(resp, req, started, run_elapsed))
    }

    /// The bounded exact top-k path: per-lane CPI sweeps carrying live
    /// lower/upper score bounds, terminated as soon as the top-k set and
    /// order are provably stable (see [`crate::topk`]). Lanes whose
    /// proof fires before natural convergence return the proven
    /// candidates directly; lanes that reach the natural end finish
    /// densely — bitwise identical to the unbounded path.
    #[allow(clippy::too_many_arguments)]
    fn run_bounded(
        &self,
        req: &QueryRequest,
        seeds: &[NodeId],
        policy: FrontierPolicy,
        exact_cfg: &CpiConfig,
        mut resp: QueryResponse,
        started: Instant,
        guard: &SweepGuard,
    ) -> Result<QueryResponse, TpaError> {
        use crate::topk::{bounded_top_k, BoundedSpec, IndexedFinish};
        let k = req.k.ok_or(TpaError::Internal("exact_bounds request admitted without k"))?;
        let run_started = Instant::now();
        // Per-node tail-share caps, computed once per epoch on first
        // use (a handful of dense propagations) and shared by every
        // bounded request.
        let caps = self
            .topk_caps
            .get_or_init(|| Arc::new(crate::topk::chained_caps(&self.backend)))
            .clone();
        let index = match req.mode {
            ExecMode::Auto => self.index.as_deref(),
            ExecMode::Exact => None,
        };
        let mut agg = crate::TopKGuarantee {
            proven_exact: true,
            early_terminated: false,
            iterations_saved: 0,
            pruned_nodes: 0,
            fallback_dense: false,
        };
        let single = seeds.len() == 1;
        let mut ranked_out = Vec::with_capacity(seeds.len());
        for &seed in seeds {
            let spec = BoundedSpec {
                k,
                caps: &caps,
                indexed: index.map(|ix| IndexedFinish {
                    scale: ix.params().neighbor_scale(),
                    stranger: ix.stranger(),
                    window_end: ix.params().s - 1,
                }),
            };
            let cfg = match index {
                Some(ix) => ix.params().cpi_config(),
                None => *exact_cfg,
            };
            let out = bounded_top_k(
                &self.backend,
                &SeedSet::single(seed),
                &cfg,
                policy,
                &spec,
                Some(guard),
            );
            guard.check()?;
            if single {
                resp.iterations = Some(out.run.last_iteration);
                resp.residual = Some(out.run.final_residual);
            }
            agg.proven_exact &= out.proven.is_some() || out.run.converged || index.is_some();
            agg.early_terminated |= out.iterations_saved > 0;
            agg.iterations_saved += out.iterations_saved;
            agg.pruned_nodes += out.pruned;
            match out.proven {
                Some(mut cut) => {
                    if let Some(p) = &self.perm {
                        for (id, _) in cut.iter_mut() {
                            *id = p.old_of(*id);
                        }
                    }
                    ranked_out.push(cut);
                }
                None => {
                    let mut scores = out.run.scores;
                    if let Some(ix) = index {
                        scores = ix.finish_family(scores);
                    }
                    if let Some(p) = &self.perm {
                        scores = p.unpermute_values(&scores);
                    }
                    ranked_out.push(top_k_scored(&scores, k));
                }
            }
        }
        resp.indexed = index.is_some();
        resp.topk = Some(agg);
        resp.result = QueryResult::Ranked(ranked_out);
        Ok(self.finish(resp, req, started, run_started.elapsed()))
    }

    /// Stamps [`QueryResponse::elapsed`] and records the request into
    /// the attached metrics, if any.
    fn finish(
        &self,
        mut resp: QueryResponse,
        req: &QueryRequest,
        started: Instant,
        run: Duration,
    ) -> QueryResponse {
        resp.elapsed = started.elapsed();
        if let Some(m) = &self.metrics {
            m.record_degradation(resp.degradation);
            if let Some(g) = &resp.topk {
                m.record_topk(g);
            }
            m.record_request(
                crate::metrics::kind_index(req.seeds.len(), req.k.is_some()),
                resp.backend,
                resp.cached,
                self.cache.is_some(),
                resp.elapsed,
                run,
            );
        }
        resp
    }

    /// Runs `serve` over consecutive lane tiles of the batch, keeping
    /// the score blocks cache-sized.
    fn tiled(
        &self,
        seeds: &[NodeId],
        guard: &SweepGuard,
        mut serve: impl FnMut(&[NodeId]) -> Vec<Vec<f64>>,
    ) -> Result<Vec<Vec<f64>>, TpaError> {
        let mut out = Vec::with_capacity(seeds.len());
        for tile in seeds.chunks(self.lane_tile) {
            guard.check()?;
            out.extend(serve(tile));
        }
        guard.check()?;
        Ok(out)
    }
}

impl std::fmt::Debug for Snapshot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("backend", &self.backend.name())
            .field("n", &self.backend.n())
            .field("epoch", &self.epoch)
            .field("indexed", &self.index.is_some())
            .field("reordered", &self.perm.is_some())
            .finish_non_exhaustive()
    }
}

/// The gate-side half of an admitted [`RwrService::submit`]: validate
/// limits, start
/// the deadline clock (queue wait counts), sample the shed ladder —
/// [`DegradationLevel::Rejected`] fails *before* taking a slot — then
/// acquire an execution permit. Gate-side failures are recorded into
/// `metrics` here (they never reach [`Snapshot::run`], whose own error
/// path records run failures).
fn admit<'g>(
    gate: &'g crate::admission::AdmissionGate,
    metrics: Option<&ServiceMetrics>,
    req: &QueryRequest,
    started: Instant,
) -> Result<(crate::admission::AdmissionPermit<'g>, DegradationLevel, Option<Instant>), TpaError> {
    let record = |e: TpaError| {
        if let Some(m) = metrics {
            m.record_error(&e);
        }
        e
    };
    // Validate before queueing — malformed requests should fail fast,
    // not occupy a queue slot first.
    req.validate_limits().map_err(record)?;
    let deadline_at = req.deadline.map(|d| started + d);
    // Sample the shed ladder *before* acquiring: a rejected request
    // must not consume (or even briefly hold) an execution slot.
    let level = gate.degradation();
    if level == DegradationLevel::Rejected {
        let (inflight, queued) = gate.pressure();
        return Err(record(TpaError::Overloaded { inflight, queued }));
    }
    let permit = gate.acquire(started, deadline_at, req.deadline).map_err(record)?;
    Ok((permit, level, deadline_at))
}

/// Relabels caller-space updates into backend (new-id) space.
fn map_updates(perm: &Option<Arc<Permutation>>, updates: &[EdgeUpdate]) -> Option<Vec<EdgeUpdate>> {
    perm.as_ref().map(|p| {
        updates
            .iter()
            .map(|up| match *up {
                EdgeUpdate::Insert(u, v) => EdgeUpdate::Insert(p.new_of(u), p.new_of(v)),
                EdgeUpdate::Delete(u, v) => EdgeUpdate::Delete(p.new_of(u), p.new_of(v)),
            })
            .collect()
    })
}

/// What one [`RwrService::apply_updates`] call did, and which epoch it
/// published.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// The structural delta and index-staleness accounting.
    pub report: UpdateReport,
    /// The epoch the batch was published at; responses carrying this
    /// epoch (or later) see the updated graph.
    pub epoch: u64,
}

/// A background base rebuild in flight: a spawned thread folding a
/// clone of the overlay graph into a fresh CSR, plus the (backend-space)
/// updates the writer has applied since the clone was taken. When the
/// thread finishes, the writer splices the fresh base in with
/// [`DynamicTransition::rebase`] — replaying `log` onto it reproduces
/// the current merged view exactly (edge updates are set-semantic), so
/// nothing reader-visible changes.
struct CompactionJob {
    /// The rebuild thread. Panics are caught inside the closure so the
    /// join never sees an `Err`: the thread returns the fresh base and
    /// its own fold duration, or the panic message.
    // lint:allow(stringly-error, "the Err arm carries a rendered panic payload (inherently a string); internal thread plumbing that never crosses the public API")
    handle: std::thread::JoinHandle<Result<(CsrGraph, Duration), String>>,
    /// Set by the thread before returning `Err` — lets
    /// [`RwrService::compaction_pending`] observe an aborted rebuild
    /// without blocking on a join.
    failed: Arc<AtomicBool>,
    log: Vec<EdgeUpdate>,
}

/// Best-effort extraction of a panic payload's message.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Writer-side state: the mutable delta overlay plus everything needed
/// to build the next snapshot. Serialized by [`RwrService`]'s mutex —
/// one writer at a time, readers unaffected.
struct WriterState {
    /// `Some` when the service was built over a [`DynamicGraph`];
    /// `None` for immutable (in-memory / out-of-core) services, which
    /// refuse updates with [`TpaError::BackendMismatch`].
    /// The overlay's own auto-compaction is disabled (threshold `None`):
    /// the service compacts in the background instead, so the write
    /// path never pays an inline `O(n + m)` fold.
    overlay: Option<DynamicTransition>,
    /// Relative overlay-size trigger for *background* compaction (the
    /// source graph's [`tpa_graph::DynamicGraph::compact_threshold`]):
    /// once `delta_edges > trigger · base.m()`, the writer spawns a
    /// rebuild thread. `None` disables background compaction.
    compact_trigger: Option<f64>,
    /// The in-flight background rebuild, if any.
    compaction: Option<CompactionJob>,
    staleness: IndexStalenessPolicy,
    accumulated_drift: f64,
    /// First-occurrence old out-columns of every source changed since
    /// the index was last (re)built or patched — the telescoped operator
    /// delta [`RwrService::patch_index`] builds its offset seed from.
    /// Only fed while an index is attached; cleared on refresh/patch.
    index_deltas: HashMap<NodeId, SourceDelta>,
    /// Background rebuilds that panicked since the service was built.
    /// The overlay is untouched by a failed rebuild — a later batch
    /// re-triggers — but the failure no longer vanishes: it is counted
    /// here, surfaced through [`RwrService::compaction_failures`], and
    /// recorded as a `compaction_failed` metrics event.
    compaction_failures: u64,
    /// Panic message of the most recent failed rebuild.
    last_compaction_failure: Option<String>,
    /// Test hook: poisons the next spawned rebuild so the failure path
    /// is exercisable (see [`RwrService::debug_fail_next_compaction`]).
    fail_next_compaction: bool,
    /// Consecutive failed rebuilds since the last successful install —
    /// drives the exponential retry backoff below. Reset on success.
    compaction_attempts: u32,
    /// No rebuild is spawned before this instant: capped exponential
    /// backoff (`10ms · 2^(attempts−1)`, capped at 5s) after a failure,
    /// so a persistently-poisoned fold can't spin a thread per batch.
    compaction_backoff_until: Option<Instant>,
    /// Rebuilds re-spawned after an earlier failure (the writer kept
    /// publishing epochs in between — failures never stop the service).
    compaction_retries: u64,
}

/// First retry delay after a failed background rebuild.
const COMPACTION_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling for the exponential rebuild backoff.
const COMPACTION_BACKOFF_CAP: Duration = Duration::from_secs(5);

impl WriterState {
    /// Splices a *finished* background rebuild into the overlay
    /// (non-blocking: a still-running job is left alone). Reader-visible
    /// scores are unchanged — the rebased overlay has the identical
    /// merged view, only its base/patch split differs.
    fn install_finished_compaction(&mut self, metrics: Option<&ServiceMetrics>) {
        if self.compaction.as_ref().is_some_and(|job| job.handle.is_finished()) {
            self.install_compaction(metrics);
        }
    }

    /// Joins the pending rebuild (blocking) and splices it in. Returns
    /// false when there was no job or the rebuild thread panicked (the
    /// overlay is untouched either way; a failed job is reaped —
    /// counted and recorded — and a later batch re-triggers).
    fn install_compaction(&mut self, metrics: Option<&ServiceMetrics>) -> bool {
        let Some(job) = self.compaction.take() else {
            return false;
        };
        match job.handle.join() {
            Ok(Ok((base, took))) => {
                let Some(overlay) = self.overlay.as_mut() else {
                    return false;
                };
                overlay.rebase(Arc::new(base), &job.log);
                self.compaction_attempts = 0;
                self.compaction_backoff_until = None;
                if let Some(m) = metrics {
                    m.record_compaction_installed(took);
                }
                true
            }
            Ok(Err(reason)) => {
                self.note_compaction_failure(reason, metrics);
                false
            }
            // `join` itself can only fail on a panic that escaped the
            // catch (e.g. a panicking payload drop); treat it the same.
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                self.note_compaction_failure(reason, metrics);
                false
            }
        }
    }

    fn note_compaction_failure(&mut self, reason: String, metrics: Option<&ServiceMetrics>) {
        self.compaction_failures += 1;
        self.compaction_attempts = self.compaction_attempts.saturating_add(1);
        let delay = COMPACTION_BACKOFF_BASE
            .saturating_mul(1u32 << (self.compaction_attempts - 1).min(16))
            .min(COMPACTION_BACKOFF_CAP);
        self.compaction_backoff_until = Some(Instant::now() + delay);
        if let Some(m) = metrics {
            m.record_compaction_failed(&reason);
        }
        self.last_compaction_failure = Some(reason);
    }

    /// Spawns a background rebuild when the overlay has outgrown its
    /// trigger and none is already running. The spawned thread folds a
    /// clone of the graph (cheap: the base CSR is shared by `Arc`) into
    /// a fresh CSR; publishes continue meanwhile. Panics inside the
    /// fold are caught and reported instead of silently dropped.
    ///
    /// A rebuild whose predecessor failed waits out the capped
    /// exponential backoff first, then counts as a *retry* — the writer
    /// never stops publishing epochs while retrying.
    fn maybe_spawn_compaction(
        &mut self,
        metrics: Option<&ServiceMetrics>,
        fault: Option<&FaultPlan>,
    ) {
        if self.compaction.is_some() {
            return;
        }
        if self.compaction_backoff_until.is_some_and(|until| Instant::now() < until) {
            return;
        }
        let (Some(trigger), Some(overlay)) = (self.compact_trigger, self.overlay.as_ref()) else {
            return;
        };
        let g = overlay.graph();
        let delta_edges = g.delta_edges() as u64;
        if (delta_edges as f64) > trigger * g.base_arc().m() as f64 {
            let clone = g.clone();
            let poison = std::mem::take(&mut self.fail_next_compaction)
                || fault.is_some_and(|f| f.poison_compaction());
            if self.compaction_attempts > 0 {
                self.compaction_retries += 1;
                if let Some(m) = metrics {
                    m.record_compaction_retry();
                }
            }
            let failed = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&failed);
            let handle = std::thread::spawn(move || {
                let t = Instant::now();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    assert!(!poison, "injected compaction failure");
                    clone.snapshot()
                }));
                match result {
                    Ok(base) => Ok((base, t.elapsed())),
                    Err(payload) => {
                        flag.store(true, Ordering::Release); // ord: Release pairs with the Acquire in compaction_pending — the reaper must see the failure flag no later than the thread's exit
                        Err(panic_reason(payload.as_ref()))
                    }
                }
            });
            self.compaction = Some(CompactionJob { handle, failed, log: Vec::new() });
            if let Some(m) = metrics {
                m.record_compaction_started(delta_edges);
            }
        }
    }
}

/// A concurrent, owned RWR serving handle: `Send + Sync`, shared across
/// threads as `Arc<RwrService>`. Readers call [`RwrService::submit`]
/// with `&self` and are never serialized behind the writer; a single
/// writer evolves the graph through [`RwrService::apply_updates`],
/// which publishes a new [`Snapshot`] epoch atomically. See the module
/// docs for the epoch-swap design.
pub struct RwrService {
    /// The published snapshot. Readers hold the read lock only long
    /// enough to clone the `Arc`; the writer holds the write lock only
    /// long enough to swap it.
    current: RwLock<Arc<Snapshot<'static>>>,
    writer: Mutex<WriterState>,
    /// Shared with every published snapshot; `None` unless the builder
    /// attached a registry ([`ServiceBuilder::metrics`]).
    metrics: Option<Arc<ServiceMetrics>>,
    /// The admission gate, when [`ServiceBuilder::admission`] configured
    /// one. `None` keeps [`RwrService::submit`] unconditional — the
    /// pre-admission behaviour, bit for bit.
    admission: Option<AdmissionGate>,
    /// Deterministic fault plan for chaos testing; shared with every
    /// published snapshot (see [`FaultPlan`]). `None` in production.
    fault: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for RwrService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwrService").field("snapshot", &self.snapshot()).finish_non_exhaustive()
    }
}

impl RwrService {
    /// Pins the current snapshot: an `Arc` the caller can query any
    /// number of times, all on the same frozen epoch, regardless of
    /// concurrent publishes.
    pub fn snapshot(&self) -> Arc<Snapshot<'static>> {
        // Lock poisoning only happens if a publisher panicked; the Arc
        // itself is always a fully-published snapshot, so recover.
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Executes a request on the current snapshot — through the
    /// admission gate when one is configured.
    ///
    /// Without a gate this is equivalent to `self.snapshot().run(req)`
    /// (pin the snapshot explicitly instead when several requests must
    /// observe the same epoch). With a gate, the request first clears
    /// admission: at most `max_inflight` requests execute concurrently,
    /// excess submissions wait in a bounded queue (time spent queued
    /// counts against the request's deadline), and overflow is rejected
    /// with [`TpaError::Overloaded`]. Under [`ShedPolicy::Degrade`] the
    /// shed ladder may additionally shape the request — the applied
    /// [`DegradationLevel`] is stamped on the response, never silent.
    pub fn submit(&self, req: &QueryRequest) -> Result<QueryResponse, TpaError> {
        let started = Instant::now();
        let Some(gate) = &self.admission else {
            let snap = self.snapshot();
            if let Some(m) = &snap.metrics {
                m.record_pin(started.elapsed());
            }
            return snap.run(req);
        };
        let (permit, level, deadline_at) = admit(gate, self.metrics.as_deref(), req, started)?;
        let snap = self.snapshot();
        if let Some(m) = &snap.metrics {
            m.record_pin(started.elapsed());
        }
        let result = snap.run_shaped(req, level, deadline_at, &gate.config().shed);
        drop(permit);
        result
    }

    /// Full scores for one seed (index path when available).
    pub fn query(&self, seed: NodeId) -> Result<Vec<f64>, TpaError> {
        let resp = self.submit(&QueryRequest::single(seed))?;
        resp.result
            .into_scores()
            .pop()
            .ok_or(TpaError::Internal("single request yielded no score vector"))
    }

    /// Best `k` nodes for one seed, best first.
    pub fn top_k(&self, seed: NodeId, k: usize) -> Result<Vec<(NodeId, f64)>, TpaError> {
        let resp = self.submit(&QueryRequest::single(seed).top_k(k))?;
        resp.result
            .into_ranked()
            .pop()
            .ok_or(TpaError::Internal("single request yielded no ranking"))
    }

    /// Number of nodes served.
    pub fn n(&self) -> usize {
        self.snapshot().n()
    }

    /// The currently-published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Accumulated relative operator drift since the index was last
    /// (re)built (see [`IndexStalenessPolicy`]).
    pub fn accumulated_drift(&self) -> f64 {
        self.writer_state().accumulated_drift
    }

    /// True when the served index has drifted past the staleness
    /// threshold without being refreshed.
    pub fn index_stale(&self) -> bool {
        let snap = self.snapshot();
        let w = self.writer_state();
        snap.index.is_some() && w.accumulated_drift > w.staleness.threshold
    }

    fn writer_state(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies an edge-update batch to the dynamic overlay and
    /// atomically publishes the next snapshot epoch. Queries already in
    /// flight finish on the epoch they pinned; later submissions see
    /// the new graph. Tracks index staleness under the builder's
    /// [`IndexStalenessPolicy`] (auto-refresh re-preprocesses before
    /// publishing).
    ///
    /// The publish is copy-on-write: the new epoch's backend is a
    /// [`crate::PatchedTransition`] sharing the base CSR and the
    /// merged-overlay rows with the writer, so the cost is `O(batch)`
    /// map clones plus two flat per-node copies — no CSR rebuild, no
    /// edge traversal, flat in `m`. Once the overlay outgrows its
    /// compaction trigger a *background* thread folds it into a fresh
    /// base, spliced in here (non-blocking) when ready; published
    /// scores are bitwise unaffected.
    ///
    /// Returns [`TpaError::BackendMismatch`] when the service was built
    /// over an immutable (non-dynamic) graph. Concurrent writers are
    /// serialized on an internal mutex — batches never interleave.
    pub fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<UpdateOutcome, TpaError> {
        let publish_started = Instant::now();
        let mut w = self.writer_state();
        let prev = self.snapshot();
        w.install_finished_compaction(self.metrics.as_deref());
        let WriterState { overlay, compaction, index_deltas, .. } = &mut *w;
        let overlay = overlay.as_mut().ok_or(TpaError::BackendMismatch {
            operation: "edge updates",
            backend: prev.backend.name(),
        })?;
        // Fault injection (chaos harness): a drawn publish fault fails
        // the batch *before* any overlay mutation, so the retry path is
        // exercisable and a retried batch is bitwise equivalent to one
        // that never failed.
        if let Some(f) = &self.fault {
            if f.publish_failure() {
                let e =
                    TpaError::Io(std::io::Error::other("injected publish failure (fault plan)"));
                if let Some(m) = &self.metrics {
                    m.record_error(&e);
                }
                return Err(e);
            }
        }
        // Callers speak old ids; a reordered service stores new ones.
        let mapped = map_updates(&prev.perm, updates);
        let updates = mapped.as_deref().unwrap_or(updates);
        let delta = overlay.apply(updates);
        // A rebuild in flight misses this batch; log it for the replay.
        if let Some(job) = compaction.as_mut() {
            job.log.extend_from_slice(updates);
        }
        if prev.index.is_some() {
            // First occurrence wins: each node's entry keeps the column
            // as it was when the index was last (re)built, so the
            // accumulated deltas telescope across batches.
            for sd in &delta.sources {
                index_deltas.entry(sd.node).or_insert_with(|| sd.clone());
            }
        }
        let n = overlay.n();
        let mut report = UpdateReport {
            delta,
            accumulated_drift: 0.0,
            index_stale: false,
            index_refreshed: false,
        };
        let backend = EngineBackend::Patched(overlay.publish_patched());
        let cache = refresh_cache(
            prev.cache.as_ref(),
            overlay,
            &backend,
            &report.delta.sources,
            &prev.exact_cfg,
        );
        let overlay_edges = overlay.graph().delta_edges() as u64;
        let base_m = overlay.graph().base_arc().m();
        let mut index = prev.index.clone();
        if let Some(old) = &index {
            w.accumulated_drift += report.delta.column_delta_mass / n.max(1) as f64;
            if w.accumulated_drift > w.staleness.threshold {
                if w.staleness.auto_refresh {
                    let mut fresh = TpaIndex::preprocess_on(&backend, *old.params());
                    if let Some(p) = &prev.perm {
                        fresh = fresh.with_permutation(p.as_ref().clone());
                    }
                    index = Some(Arc::new(fresh));
                    w.accumulated_drift = 0.0;
                    w.index_deltas.clear();
                    report.index_refreshed = true;
                } else {
                    report.index_stale = true;
                }
            }
            report.accumulated_drift = w.accumulated_drift;
        }
        w.maybe_spawn_compaction(self.metrics.as_deref(), self.fault.as_deref());
        // The writer mutex serializes publishes, so the pinned snapshot's
        // epoch is the latest one and the successor is race-free.
        let epoch = prev.epoch + 1;
        let trigger_edges = w.compact_trigger.map(|t| t * base_m as f64);
        self.publish(&prev, backend, index, cache, epoch);
        if let Some(m) = &self.metrics {
            m.record_publish(
                epoch,
                updates.len(),
                publish_started.elapsed(),
                overlay_edges,
                trigger_edges,
            );
        }
        Ok(UpdateOutcome { report, epoch })
    }

    /// Folds the writer-side overlay into a fresh base snapshot. The
    /// merged view — and therefore every published score — is
    /// unchanged, so no new epoch is published; only the writer's
    /// per-update merge costs drop back to clean-CSR levels.
    pub fn compact(&self) -> Result<(), TpaError> {
        let mut w = self.writer_state();
        let backend_name = self.snapshot().backend.name();
        let overlay = w.overlay.as_mut().ok_or(TpaError::BackendMismatch {
            operation: "overlay compaction",
            backend: backend_name,
        })?;
        overlay.compact();
        Ok(())
    }

    /// Re-runs TPA preprocessing on the current graph state, publishing
    /// a new epoch with the refreshed index and resetting the drift
    /// accumulator. No-op (returning the current epoch) when no index
    /// is attached; [`TpaError::BackendMismatch`] on immutable services
    /// (their index can never drift).
    pub fn refresh_index(&self) -> Result<u64, TpaError> {
        let mut w = self.writer_state();
        let prev = self.snapshot();
        let overlay = w.overlay.as_ref().ok_or(TpaError::BackendMismatch {
            operation: "index refresh",
            backend: prev.backend.name(),
        })?;
        let Some(old) = &prev.index else {
            return Ok(prev.epoch);
        };
        let backend = EngineBackend::Patched(overlay.publish_patched());
        let mut fresh = TpaIndex::preprocess_on(&backend, *old.params());
        if let Some(p) = &prev.perm {
            fresh = fresh.with_permutation(p.as_ref().clone());
        }
        w.accumulated_drift = 0.0;
        w.index_deltas.clear();
        let epoch = prev.epoch + 1;
        // The graph did not change, so the cache lanes are carried over.
        self.publish(&prev, backend, Some(Arc::new(fresh)), prev.cache.clone(), epoch);
        if let Some(m) = &self.metrics {
            m.record_epoch(epoch);
            m.record_index_rebuilt(epoch, false);
        }
        Ok(epoch)
    }

    /// Patches the served index's stranger tail for the operator drift
    /// accumulated since it was last (re)built, publishing a new epoch —
    /// the cheap alternative to [`RwrService::refresh_index`]. The
    /// offset seed is built from the telescoped first-occurrence old
    /// columns and propagated through the updated operator by the
    /// frontier-routed offset kernel, so the cost scales with the
    /// drift's reach instead of a full `O(n + m)` re-preprocess; the
    /// patched stranger tracks a re-preprocessed one within the CPI
    /// tolerance plus the already-truncated `O((1−c)^T)` window-shift
    /// tail (see [`TpaIndex::patch_stranger_on`]). Resets the drift
    /// accumulator.
    ///
    /// No-op (returning the current epoch) when no index is attached or
    /// nothing changed since the last (re)build/patch;
    /// [`TpaError::BackendMismatch`] on immutable services.
    pub fn patch_index(&self) -> Result<u64, TpaError> {
        let mut w = self.writer_state();
        let prev = self.snapshot();
        let overlay = w.overlay.as_ref().ok_or(TpaError::BackendMismatch {
            operation: "index patching",
            backend: prev.backend.name(),
        })?;
        let Some(old) = &prev.index else {
            return Ok(prev.epoch);
        };
        if w.index_deltas.is_empty() {
            return Ok(prev.epoch);
        }
        let deltas: Vec<SourceDelta> = w.index_deltas.values().cloned().collect();
        let offset = overlay.offset_seed_for(&deltas, old.params().c, old.stranger());
        let backend = EngineBackend::Patched(overlay.publish_patched());
        let (fresh, _stats) =
            old.patch_stranger_on(&backend, offset, MaintenanceMode::Exact, prev.frontier);
        w.index_deltas.clear();
        w.accumulated_drift = 0.0;
        let epoch = prev.epoch + 1;
        self.publish(&prev, backend, Some(Arc::new(fresh)), prev.cache.clone(), epoch);
        if let Some(m) = &self.metrics {
            m.record_epoch(epoch);
            m.record_index_rebuilt(epoch, true);
        }
        Ok(epoch)
    }

    /// Joins any in-flight background compaction and splices the fresh
    /// base into the overlay (blocking). Returns true when a rebuild
    /// was installed. Published scores never change — this only resets
    /// the overlay's base/patch split — so no epoch is published; it
    /// exists for deterministic shutdown and tests.
    pub fn flush_compaction(&self) -> bool {
        self.writer_state().install_compaction(self.metrics.as_deref())
    }

    /// True while a background base rebuild is in flight. A rebuild
    /// whose thread already *failed* is reaped here — counted, recorded,
    /// and reported as no-longer-pending — so a panicked compaction is
    /// never mistaken for one that is still running.
    pub fn compaction_pending(&self) -> bool {
        let mut w = self.writer_state();
        // ord: Acquire pairs with the Release store in the compaction thread's panic handler
        if w.compaction.as_ref().is_some_and(|job| job.failed.load(Ordering::Acquire)) {
            w.install_compaction(self.metrics.as_deref());
        }
        w.compaction.is_some()
    }

    /// Number of background base rebuilds that panicked since the
    /// service was built. The overlay is never corrupted by a failed
    /// rebuild (the fresh base is only spliced in on success), but the
    /// failure is counted here instead of vanishing with the thread.
    pub fn compaction_failures(&self) -> u64 {
        self.writer_state().compaction_failures
    }

    /// Panic message of the most recent failed background rebuild.
    pub fn last_compaction_failure(&self) -> Option<String> {
        self.writer_state().last_compaction_failure.clone()
    }

    /// Number of background rebuilds re-spawned after an earlier
    /// failure (each waited out the capped exponential backoff first).
    pub fn compaction_retries(&self) -> u64 {
        self.writer_state().compaction_retries
    }

    /// Test hook: makes the *next* spawned background rebuild panic, so
    /// the failure-surfacing path is exercisable deterministically.
    #[doc(hidden)]
    pub fn debug_fail_next_compaction(&self) {
        self.writer_state().fail_next_compaction = true;
    }

    /// Typed readout of every instrument the service records, or `None`
    /// when the builder attached no registry (see
    /// [`ServiceBuilder::metrics`]).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.snapshot())
    }

    /// The metrics registry this service records into, if any — hand it
    /// to [`tpa_obs::MetricsRegistry::render_prometheus`] /
    /// [`tpa_obs::MetricsRegistry::render_json`] for export.
    pub fn metrics_registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(|m| m.registry())
    }

    /// Swaps in the next snapshot, inheriting the previous epoch's
    /// execution configuration.
    fn publish(
        &self,
        prev: &Snapshot<'static>,
        backend: EngineBackend<'static>,
        index: Option<Arc<TpaIndex>>,
        cache: Option<Arc<SnapshotCache>>,
        epoch: u64,
    ) {
        let snap = Snapshot {
            backend,
            index,
            exact_cfg: prev.exact_cfg,
            lane_tile: prev.lane_tile,
            frontier: prev.frontier,
            perm: prev.perm.clone(),
            cache,
            metrics: self.metrics.clone(),
            epoch,
            topk_caps: std::sync::OnceLock::new(),
            fault: self.fault.clone(),
        };
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snap);
    }
}

/// Refreshes the hot-seed lanes for the epoch being published: each
/// lane is corrected by OSP offset propagation — seed from the batch's
/// old columns, swept through the *updated* operator under
/// [`FrontierPolicy::Auto`] so the work scales with the update's reach.
/// A batch that changed no columns shares the previous cache wholesale
/// (pure `Arc` bump).
fn refresh_cache(
    prev: Option<&Arc<SnapshotCache>>,
    overlay: &DynamicTransition,
    backend: &EngineBackend<'static>,
    sources: &[SourceDelta],
    cfg: &CpiConfig,
) -> Option<Arc<SnapshotCache>> {
    let cache = prev?;
    if sources.is_empty() {
        return Some(Arc::clone(cache));
    }
    let lanes = cache
        .lanes
        .iter()
        .map(|lane| {
            let mut scores = lane.as_ref().clone();
            let offset = overlay.offset_seed_for(sources, cfg.c, &scores);
            propagate_offset_policy(
                backend,
                offset,
                cfg,
                cache.mode,
                FrontierPolicy::Auto,
                &mut scores,
            );
            Arc::new(scores)
        })
        .collect();
    Some(Arc::new(SnapshotCache { seeds: cache.seeds.clone(), lanes, mode: cache.mode }))
}

/// The graph a [`ServiceBuilder`] starts from.
enum GraphSource {
    /// Immutable in-memory CSR (updates refused).
    InMemory(Arc<CsrGraph>),
    /// Mutable delta-overlay graph (updates publish new epochs).
    Dynamic(DynamicGraph),
    /// Immutable disk-resident graph, `O(n)` memory (updates refused).
    Disk(DiskGraph),
}

/// How the builder obtains the [`TpaIndex`].
enum IndexSpec {
    /// Serve exact CPI only.
    None,
    /// Run TPA preprocessing on the built backend.
    Preprocess(TpaParams),
    /// Attach an existing (e.g. loaded) index.
    Attach(Arc<TpaIndex>),
}

/// One place for every serving knob: graph source, worker threads,
/// frontier policy, lane tile, CPI config, reordering, index, score
/// cache, and staleness policy. `build()` validates the combination and returns a
/// ready [`RwrService`] — or a [`TpaError`] explaining what's wrong,
/// instead of a panic halfway through construction.
pub struct ServiceBuilder {
    source: GraphSource,
    threads: usize,
    frontier: FrontierPolicy,
    lane_tile: usize,
    exact_cfg: CpiConfig,
    reorder: Option<ReorderStrategy>,
    index: IndexSpec,
    staleness: IndexStalenessPolicy,
    cache: Option<(Vec<NodeId>, MaintenanceMode)>,
    metrics: Option<Arc<MetricsRegistry>>,
    admission: Option<AdmissionConfig>,
    fault: Option<FaultPlan>,
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder").field("threads", &self.threads).finish_non_exhaustive()
    }
}

impl ServiceBuilder {
    fn from_source(source: GraphSource) -> Self {
        ServiceBuilder {
            source,
            threads: 1,
            frontier: FrontierPolicy::Auto,
            lane_tile: DEFAULT_LANE_TILE,
            exact_cfg: CpiConfig::default(),
            reorder: None,
            index: IndexSpec::None,
            staleness: IndexStalenessPolicy::default(),
            cache: None,
            metrics: None,
            admission: None,
            fault: None,
        }
    }

    /// Service over an immutable in-memory graph (updates refused with
    /// [`TpaError::BackendMismatch`]). Hand in an `Arc` to share the
    /// graph with the caller instead of moving a copy in.
    pub fn in_memory(graph: impl Into<Arc<CsrGraph>>) -> Self {
        Self::from_source(GraphSource::InMemory(graph.into()))
    }

    /// Service over a mutable delta-overlay graph:
    /// [`RwrService::apply_updates`] evolves it and publishes epochs.
    pub fn dynamic(graph: DynamicGraph) -> Self {
        Self::from_source(GraphSource::Dynamic(graph))
    }

    /// Service streaming a disk-resident graph (`O(n)` memory; updates
    /// and reordering refused).
    pub fn out_of_core(disk: DiskGraph) -> Self {
        Self::from_source(GraphSource::Disk(disk))
    }

    /// Worker threads for the propagation backend: `1` (default) is
    /// sequential, `0` means "use available parallelism", `N > 1` that
    /// many destination-range workers. Ignored by the out-of-core
    /// backend (a single sequential disk stream).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Default [`FrontierPolicy`] for scalar requests (a request-level
    /// [`QueryRequest::with_frontier`] overrides it).
    pub fn frontier(mut self, policy: FrontierPolicy) -> Self {
        self.frontier = policy;
        self
    }

    /// Lane-tile width for batched requests: batches wider than this
    /// execute as consecutive tiles of at most `tile` lanes (default
    /// [`DEFAULT_LANE_TILE`]). Per-lane results are unaffected — lanes
    /// are independent — but one tile's score blocks should fit in
    /// cache. `usize::MAX` disables tiling. Must be at least 1.
    pub fn lane_tile(mut self, tile: usize) -> Self {
        self.lane_tile = tile;
        self
    }

    /// Config used for exact (non-indexed) execution.
    pub fn cpi_config(mut self, cfg: CpiConfig) -> Self {
        self.exact_cfg = cfg;
        self
    }

    /// Relabels the served graph for cache locality (see
    /// [`mod@tpa_graph::reorder`]); transparent to callers — seeds map in,
    /// scores and update endpoints map through. Refused for out-of-core
    /// sources and when the attached index already stores an ordering.
    pub fn reordering(mut self, strategy: ReorderStrategy) -> Self {
        self.reorder = Some(strategy);
        self
    }

    /// Runs TPA preprocessing on the built backend and serves through
    /// the resulting index.
    pub fn preprocess(mut self, params: TpaParams) -> Self {
        self.index = IndexSpec::Preprocess(params);
        self
    }

    /// Attaches an existing index (e.g. loaded with
    /// [`TpaIndex::load`]). An index preprocessed on a reordered graph
    /// carries its permutation; the built service adopts it. An `Arc`
    /// shares one index across services without copying it.
    pub fn index(mut self, index: impl Into<Arc<TpaIndex>>) -> Self {
        self.index = IndexSpec::Attach(index.into());
        self
    }

    /// Staleness policy for the index under update streams (see
    /// [`IndexStalenessPolicy`]).
    pub fn staleness(mut self, policy: IndexStalenessPolicy) -> Self {
        self.staleness = policy;
        self
    }

    /// Pins hot seeds (caller id space) in a service-side score cache:
    /// their exact-CPI lanes are computed once at build, refreshed at
    /// every publish by frontier-routed offset propagation under
    /// `mode`, and served straight from the snapshot on a cache hit
    /// (see [`SnapshotCache`] and [`QueryResponse::cached`]). On
    /// immutable sources the lanes simply never need refreshing.
    pub fn score_cache(mut self, seeds: impl Into<Vec<NodeId>>, mode: MaintenanceMode) -> Self {
        self.cache = Some((seeds.into(), mode));
        self
    }

    /// Attaches a metrics registry: the built service registers its
    /// instruments there and records every request, publish, and
    /// compaction event (see [`crate::ServiceMetrics`] and the
    /// `tpa-obs` crate). Also enables the kernel profiling counters
    /// ([`crate::kernel_profile`]). Without this call the service
    /// records nothing and the query path stays metrics-free.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Puts an admission gate in front of [`RwrService::submit`]: at
    /// most [`AdmissionConfig::max_inflight`] requests execute
    /// concurrently, excess waits in a bounded queue, overflow is
    /// rejected with [`TpaError::Overloaded`], and — under
    /// [`ShedPolicy::Degrade`] — the shed ladder trades precision for
    /// goodput as pressure rises (see [`DegradationLevel`]). Without
    /// this call `submit` admits unconditionally, exactly as before.
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(cfg);
        self
    }

    /// Arms a deterministic fault plan for chaos testing: seeded slow
    /// kernels, injected publish failures, and poisoned background
    /// compactions (see [`FaultPlan`]). Test-only — never configure in
    /// production.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Validates the configuration and constructs the service.
    pub fn build(self) -> Result<RwrService, TpaError> {
        self.exact_cfg.check()?;
        if self.lane_tile < 1 {
            return Err(TpaError::InvalidConfig("lane tile must be at least 1".into()));
        }
        if let IndexSpec::Preprocess(params) = &self.index {
            params.check()?;
        }
        self.staleness.check()?;
        if let Some(adm) = &self.admission {
            adm.check()?;
        }
        let metrics = self.metrics.as_ref().map(|r| ServiceMetrics::new(Arc::clone(r)));
        let sequential = self.threads == 1;
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1),
            t => t,
        };

        // Out-of-core: no relabeling (the edge file is laid out once),
        // single sequential stream.
        if let GraphSource::Disk(disk) = self.source {
            if self.reorder.is_some() {
                return Err(TpaError::BackendMismatch {
                    operation: "reordering",
                    backend: "out-of-core",
                });
            }
            let backend = EngineBackend::OutOfCore(disk);
            let index = match self.index {
                IndexSpec::None => None,
                IndexSpec::Preprocess(params) => {
                    Some(Arc::new(TpaIndex::preprocess_on(&backend, params)))
                }
                IndexSpec::Attach(idx) => {
                    idx.check_backend(&backend)?;
                    if idx.permutation().is_some() {
                        return Err(TpaError::BackendMismatch {
                            operation: "a reordered index",
                            backend: "out-of-core",
                        });
                    }
                    Some(idx)
                }
            };
            let cache = build_cache(self.cache, &backend, &None, &self.exact_cfg, self.frontier)?;
            return Ok(Self::assemble(
                backend,
                index,
                cache,
                None,
                None,
                None,
                self.frontier,
                self.lane_tile,
                self.exact_cfg,
                self.staleness,
                metrics,
                self.admission,
                self.fault,
            ));
        }

        // Resolve the permutation before any backend exists: either the
        // builder's reordering strategy, or the ordering stored in an
        // attached index.
        let stored_perm = match &self.index {
            IndexSpec::Attach(idx) => idx.permutation().cloned(),
            _ => None,
        };
        if self.reorder.is_some() && stored_perm.is_some() {
            return Err(TpaError::InvalidConfig(
                "the attached index already stores an ordering; drop .reordering(..) and let the \
                 index restore it"
                    .into(),
            ));
        }
        if self.reorder.is_some() && matches!(self.index, IndexSpec::Attach(_)) {
            return Err(TpaError::InvalidConfig(
                "cannot reorder under an index preprocessed without one; preprocess through a \
                 reordered builder instead"
                    .into(),
            ));
        }

        match self.source {
            GraphSource::InMemory(g) => {
                if let IndexSpec::Attach(idx) = &self.index {
                    idx.check_backend_n(g.n())?;
                }
                let perm = match (&self.reorder, stored_perm) {
                    (Some(strategy), _) => Some(Arc::new(reorder(&g, *strategy))),
                    (None, Some(p)) => Some(Arc::new(p)),
                    (None, None) => None,
                };
                if let Some(p) = &perm {
                    if p.len() != g.n() {
                        return Err(TpaError::InvalidConfig(format!(
                            "permutation relabels {} nodes but the graph has {}",
                            p.len(),
                            g.n()
                        )));
                    }
                }
                let served = match &perm {
                    Some(p) => Arc::new(g.permuted(p)),
                    None => g,
                };
                let backend = if sequential {
                    EngineBackend::Sequential(Transition::shared(served))
                } else {
                    EngineBackend::Parallel(ParallelTransition::shared(served, threads))
                };
                let index = resolve_index(self.index, &backend, &perm)?;
                let cache =
                    build_cache(self.cache, &backend, &perm, &self.exact_cfg, self.frontier)?;
                Ok(Self::assemble(
                    backend,
                    index,
                    cache,
                    perm,
                    None,
                    None,
                    self.frontier,
                    self.lane_tile,
                    self.exact_cfg,
                    self.staleness,
                    metrics,
                    self.admission,
                    self.fault,
                ))
            }
            GraphSource::Dynamic(dg) => {
                if let IndexSpec::Attach(idx) = &self.index {
                    idx.check_backend_n(dg.n())?;
                }
                let threshold = dg.compact_threshold();
                let (dg, perm) = match (&self.reorder, stored_perm) {
                    (Some(strategy), _) => {
                        let snap = dg.snapshot();
                        let p = reorder(&snap, *strategy);
                        let relabeled =
                            DynamicGraph::new(snap.permuted(&p)).with_compact_threshold(threshold);
                        (relabeled, Some(Arc::new(p)))
                    }
                    (None, Some(p)) => {
                        let snap = dg.snapshot();
                        if p.len() != snap.n() {
                            return Err(TpaError::InvalidConfig(format!(
                                "permutation relabels {} nodes but the graph has {}",
                                p.len(),
                                snap.n()
                            )));
                        }
                        let relabeled =
                            DynamicGraph::new(snap.permuted(&p)).with_compact_threshold(threshold);
                        (relabeled, Some(Arc::new(p)))
                    }
                    (None, None) => (dg, None),
                };
                // The overlay never self-compacts inline: the graph's
                // threshold becomes the *background* compaction trigger,
                // keeping every inline `O(n + m)` fold off the write path.
                let overlay =
                    DynamicTransition::new(dg.with_compact_threshold(None)).with_threads(threads);
                // Epoch 0 publishes copy-on-write too — no CSR rebuild
                // anywhere on the dynamic serving path.
                let backend = EngineBackend::Patched(overlay.publish_patched());
                let index = resolve_index(self.index, &backend, &perm)?;
                let cache =
                    build_cache(self.cache, &backend, &perm, &self.exact_cfg, self.frontier)?;
                Ok(Self::assemble(
                    backend,
                    index,
                    cache,
                    perm,
                    Some(overlay),
                    threshold,
                    self.frontier,
                    self.lane_tile,
                    self.exact_cfg,
                    self.staleness,
                    metrics,
                    self.admission,
                    self.fault,
                ))
            }
            // lint:allow(panic-freedom, "build-time only: the Disk arm returned earlier in this function, so this match sees Csr/Dynamic sources only")
            GraphSource::Disk(_) => unreachable!("handled above"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        backend: EngineBackend<'static>,
        index: Option<Arc<TpaIndex>>,
        cache: Option<Arc<SnapshotCache>>,
        perm: Option<Arc<Permutation>>,
        overlay: Option<DynamicTransition>,
        compact_trigger: Option<f64>,
        frontier: FrontierPolicy,
        lane_tile: usize,
        exact_cfg: CpiConfig,
        staleness: IndexStalenessPolicy,
        metrics: Option<Arc<ServiceMetrics>>,
        admission: Option<AdmissionConfig>,
        fault: Option<FaultPlan>,
    ) -> RwrService {
        if let Some(m) = &metrics {
            m.record_epoch(0);
        }
        let fault = fault.map(Arc::new);
        let gate = admission.map(|cfg| AdmissionGate::new(cfg, metrics.clone()));
        let snap = Snapshot {
            backend,
            index,
            exact_cfg,
            lane_tile,
            frontier,
            perm,
            cache,
            metrics: metrics.clone(),
            epoch: 0,
            topk_caps: std::sync::OnceLock::new(),
            fault: fault.clone(),
        };
        RwrService {
            current: RwLock::new(Arc::new(snap)),
            writer: Mutex::new(WriterState {
                overlay,
                compact_trigger,
                compaction: None,
                staleness,
                accumulated_drift: 0.0,
                index_deltas: HashMap::new(),
                compaction_failures: 0,
                last_compaction_failure: None,
                fail_next_compaction: false,
                compaction_attempts: 0,
                compaction_backoff_until: None,
                compaction_retries: 0,
            }),
            metrics,
            admission: gate,
            fault,
        }
    }
}

/// Builds the initial [`SnapshotCache`] from the builder's pinned
/// seeds: validates them, maps into backend space under `perm`, and
/// computes each lane by cold exact CPI on the built backend.
fn build_cache(
    spec: Option<(Vec<NodeId>, MaintenanceMode)>,
    backend: &EngineBackend<'static>,
    perm: &Option<Arc<Permutation>>,
    cfg: &CpiConfig,
    policy: FrontierPolicy,
) -> Result<Option<Arc<SnapshotCache>>, TpaError> {
    let Some((seeds, mode)) = spec else {
        return Ok(None);
    };
    if let MaintenanceMode::Approximate { tolerance } = mode {
        // NaN must fail too, so test "positive" directly.
        if tolerance.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(TpaError::InvalidConfig(format!(
                "cache maintenance tolerance must be positive, got {tolerance}"
            )));
        }
    }
    check_seeds(&seeds, backend.n())?;
    let seeds: Vec<NodeId> = match perm {
        Some(p) => seeds.iter().map(|&s| p.new_of(s)).collect(),
        None => seeds,
    };
    let lanes = seeds
        .iter()
        .map(|&s| {
            Arc::new(
                cpi_probed(backend, &SeedSet::single(s), cfg, 0, None, policy, |_| false).scores,
            )
        })
        .collect();
    Ok(Some(Arc::new(SnapshotCache { seeds, lanes, mode })))
}

/// Finishes the builder's index spec against the built backend:
/// preprocess on it, or attach after a dimension check.
fn resolve_index(
    spec: IndexSpec,
    backend: &EngineBackend<'static>,
    perm: &Option<Arc<Permutation>>,
) -> Result<Option<Arc<TpaIndex>>, TpaError> {
    match spec {
        IndexSpec::None => Ok(None),
        IndexSpec::Preprocess(params) => {
            let mut idx = TpaIndex::preprocess_on(backend, params);
            if let Some(p) = perm {
                idx = idx.with_permutation(p.as_ref().clone());
            }
            Ok(Some(Arc::new(idx)))
        }
        IndexSpec::Attach(idx) => {
            idx.check_backend(backend)?;
            Ok(Some(idx))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShedConfig;
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(71);
        lfr_lite(LfrConfig { n: 300, m: 2400, ..Default::default() }, &mut rng).graph
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RwrService>();
        assert_send_sync::<Arc<Snapshot<'static>>>();
        assert_send_sync::<QueryRequest>();
        assert_send_sync::<QueryResponse>();
    }

    #[test]
    fn static_service_answers_like_the_engine() {
        // The service's indexed answers are the TPA online phase over the
        // same graph, bit for bit: single, batched and top-k.
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let index = TpaIndex::preprocess(&g, params);
        let t = Transition::new(&g);
        let service = ServiceBuilder::in_memory(g.clone()).preprocess(params).build().unwrap();
        let resp = service.submit(&QueryRequest::single(13)).unwrap();
        assert_eq!(resp.backend, "sequential");
        assert_eq!(resp.epoch, 0);
        assert!(resp.indexed);
        assert!(resp.iterations.is_some());
        assert_eq!(resp.result.into_scores().pop().unwrap(), index.query(&t, 13));
        // Batch and top-k paths too.
        let want: Vec<_> =
            [1, 5, 9].iter().map(|&s| top_k_scored(&index.query(&t, s), 4)).collect();
        assert_eq!(
            service
                .submit(&QueryRequest::batch(vec![1, 5, 9]).top_k(4))
                .unwrap()
                .result
                .into_ranked(),
            want
        );
    }

    /// Full scores for one seed through `submit`.
    fn scores(service: &RwrService, req: QueryRequest) -> Vec<f64> {
        service.submit(&req).unwrap().result.into_scores().pop().unwrap()
    }

    fn batch(service: &RwrService, seeds: &[NodeId]) -> Vec<Vec<f64>> {
        service.submit(&QueryRequest::batch(seeds.to_vec())).unwrap().result.into_scores()
    }

    #[test]
    fn indexed_query_matches_direct_index_use() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let index = Arc::new(TpaIndex::preprocess(&g, params));
        let service =
            ServiceBuilder::in_memory(g.clone()).index(Arc::clone(&index)).build().unwrap();
        assert_eq!(service.query(13).unwrap(), index.query(&Transition::new(&g), 13));
    }

    #[test]
    fn batch_bitwise_identical_to_singles_on_every_backend() {
        let g = Arc::new(test_graph());
        let index = Arc::new(TpaIndex::preprocess(&g, TpaParams::new(5, 10)));
        let seeds: Vec<NodeId> = (0..32).map(|i| (i * 13) % g.n() as NodeId).collect();
        let path =
            std::env::temp_dir().join(format!("tpa-service-backends-{}", std::process::id()));
        let disk = DiskGraph::create(&g, &path).unwrap();
        let reference =
            ServiceBuilder::in_memory(Arc::clone(&g)).index(Arc::clone(&index)).build().unwrap();
        let singles: Vec<Vec<f64>> = seeds.iter().map(|&s| reference.query(s).unwrap()).collect();
        let services = [
            ServiceBuilder::in_memory(Arc::clone(&g)).index(Arc::clone(&index)),
            ServiceBuilder::in_memory(Arc::clone(&g)).threads(4).index(Arc::clone(&index)),
            ServiceBuilder::out_of_core(disk).index(Arc::clone(&index)),
            ServiceBuilder::dynamic(DynamicGraph::new((*g).clone())).index(Arc::clone(&index)),
        ];
        for builder in services {
            let service = builder.build().unwrap();
            let name = service.snapshot().backend().name();
            assert_eq!(batch(&service, &seeds), singles, "backend {name}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn exact_mode_ignores_index() {
        let g = test_graph();
        let service =
            ServiceBuilder::in_memory(g.clone()).preprocess(TpaParams::new(4, 9)).build().unwrap();
        let exact = scores(&service, QueryRequest::single(7).exact());
        assert_eq!(exact, crate::exact_rwr(&g, 7, &CpiConfig::default()));
        // The indexed answer is an approximation — close, but distinct.
        assert_ne!(exact, service.query(7).unwrap());
    }

    #[test]
    fn service_without_index_serves_exact_scores() {
        let g = test_graph();
        let service = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        assert_eq!(service.query(3).unwrap(), crate::exact_rwr(&g, 3, &CpiConfig::default()));
    }

    #[test]
    fn submit_reports_metadata() {
        let g = test_graph();
        let service =
            ServiceBuilder::in_memory(g).preprocess(TpaParams::new(5, 10)).build().unwrap();
        let resp = service.submit(&QueryRequest::single(7)).unwrap();
        assert_eq!(resp.backend, "sequential");
        assert_eq!(resp.epoch, 0);
        assert!(resp.indexed);
        // The indexed family sweep runs S − 1 propagations.
        assert_eq!(resp.iterations, Some(4));
        assert!(resp.residual.unwrap() > 0.0);
        let exact = service.submit(&QueryRequest::single(7).exact()).unwrap();
        assert!(!exact.indexed);
        assert!(exact.iterations.unwrap() > 4);
    }

    #[test]
    fn top_k_matches_full_sort() {
        let g = test_graph();
        let service =
            ServiceBuilder::in_memory(g).preprocess(TpaParams::new(5, 10)).build().unwrap();
        let scores = service.query(42).unwrap();
        let ranked = service.top_k(42, 10).unwrap();
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
        let g = Arc::new(test_graph());
        let params = TpaParams::new(5, 10);
        let seq = ServiceBuilder::in_memory(Arc::clone(&g)).preprocess(params).build().unwrap();
        let par = ServiceBuilder::in_memory(g).threads(4).preprocess(params).build().unwrap();
        assert_eq!(
            seq.snapshot().index().unwrap().stranger(),
            par.snapshot().index().unwrap().stranger()
        );
        assert_eq!(seq.query(99).unwrap(), par.query(99).unwrap());
    }

    #[test]
    fn dynamic_backend_serves_all_plan_kinds() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let reference = ServiceBuilder::in_memory(g.clone()).preprocess(params).build().unwrap();
        let service = ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            .build()
            .unwrap();
        // Before any update, every request kind matches the static
        // service bitwise (same index parameters, same kernel order).
        assert_eq!(service.query(13).unwrap(), reference.query(13).unwrap());
        assert_eq!(batch(&service, &[1, 5, 9]), batch(&reference, &[1, 5, 9]));
        assert_eq!(service.top_k(13, 5).unwrap(), reference.top_k(13, 5).unwrap());
        let exact = scores(&service, QueryRequest::single(7).exact());
        assert_eq!(exact, crate::exact_rwr(&g, 7, &CpiConfig::default()));
        // After an update the next epoch answers on the evolved graph.
        let outcome = service
            .apply_updates(&[EdgeUpdate::Insert(13, 200), EdgeUpdate::Insert(200, 13)])
            .unwrap();
        assert_eq!(outcome.report.delta.stats.inserted, 2);
        assert_eq!(service.epoch(), 1);
        let evolved = scores(&service, QueryRequest::single(13).exact());
        assert_ne!(evolved, crate::exact_rwr(&g, 13, &CpiConfig::default()));
        let mut replay = DynamicGraph::new(g);
        replay.apply(&[EdgeUpdate::Insert(13, 200), EdgeUpdate::Insert(200, 13)]);
        assert_eq!(evolved, crate::exact_rwr(&replay.snapshot(), 13, &CpiConfig::default()));
    }

    #[test]
    fn staleness_policy_flags_then_auto_refreshes() {
        let g = test_graph();
        let params = TpaParams::new(4, 9);
        let tight = IndexStalenessPolicy { threshold: 1e-12, auto_refresh: false };
        let service = ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            .staleness(tight)
            .build()
            .unwrap();
        let outcome = service.apply_updates(&[EdgeUpdate::Insert(0, 299)]).unwrap();
        assert!(outcome.report.index_stale && !outcome.report.index_refreshed);
        assert!(service.index_stale());
        assert!(service.accumulated_drift() > 0.0);

        // A manual refresh rebuilds the index on the evolved graph.
        service.refresh_index().unwrap();
        assert!(!service.index_stale());
        assert_eq!(service.accumulated_drift(), 0.0);

        // Auto-refresh does the same inside apply_updates, and the
        // refreshed index serves like a fresh preprocess of that state.
        let auto = ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            .staleness(IndexStalenessPolicy { threshold: 1e-12, auto_refresh: true })
            .build()
            .unwrap();
        let outcome = auto.apply_updates(&[EdgeUpdate::Insert(0, 299)]).unwrap();
        assert!(outcome.report.index_refreshed && !outcome.report.index_stale);
        assert_eq!(auto.accumulated_drift(), 0.0);
        let mut replay = DynamicGraph::new(g);
        replay.apply(&[EdgeUpdate::Insert(0, 299)]);
        let fresh =
            ServiceBuilder::in_memory(replay.snapshot()).preprocess(params).build().unwrap();
        assert_eq!(auto.query(42).unwrap(), fresh.query(42).unwrap());
    }

    #[test]
    fn patch_index_repairs_a_stale_index_incrementally() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let service = ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            .staleness(IndexStalenessPolicy { threshold: 1e-12, auto_refresh: false })
            .build()
            .unwrap();
        // Nothing accumulated yet: patching is a no-op (no new epoch).
        assert_eq!(service.patch_index().unwrap(), 0);

        let ups = [
            EdgeUpdate::Insert(0, 299),
            EdgeUpdate::Insert(299, 17),
            EdgeUpdate::Delete(0, 299),
            EdgeUpdate::Insert(42, 7),
        ];
        let outcome = service.apply_updates(&ups).unwrap();
        assert!(outcome.report.index_stale);
        let stale: Vec<f64> = service.snapshot().index().unwrap().stranger().to_vec();

        assert_eq!(service.patch_index().unwrap(), outcome.epoch + 1);
        assert!(!service.index_stale());
        assert_eq!(service.accumulated_drift(), 0.0);
        // Consecutive patch with nothing new accumulated: no-op.
        assert_eq!(service.patch_index().unwrap(), outcome.epoch + 1);

        // The patched stranger tracks a from-scratch re-preprocess far
        // more closely than the stale vector it replaced (it is not
        // bitwise: the O((1−c)^T) window-shift tail is dropped).
        let mut replay = DynamicGraph::new(g);
        replay.apply(&ups);
        let fresh = TpaIndex::preprocess(&replay.snapshot(), params);
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        let patched_err = l1(service.snapshot().index().unwrap().stranger(), fresh.stranger());
        let stale_err = l1(&stale, fresh.stranger());
        assert!(
            patched_err < 1e-3 && patched_err < stale_err,
            "patched drifted {patched_err} (stale was {stale_err})"
        );
    }

    #[test]
    fn invalid_staleness_policy_is_an_error_not_a_panic() {
        let g = test_graph();
        for threshold in [0.0, -1.0, f64::NAN] {
            let err = ServiceBuilder::in_memory(g.clone())
                .staleness(IndexStalenessPolicy { threshold, auto_refresh: false })
                .build()
                .unwrap_err();
            assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("staleness threshold"), "{err}");
        }
        // Infinite thresholds are a legitimate "never stale" policy.
        let never = IndexStalenessPolicy { threshold: f64::INFINITY, auto_refresh: false };
        assert!(ServiceBuilder::in_memory(g).staleness(never).build().is_ok());
    }

    #[test]
    fn tie_break_is_deterministic_across_backends() {
        // A graph with massive symmetry produces many exactly-equal
        // scores; the ranking must still be identical across backends and
        // runs (ascending node id within a tie).
        let g = tpa_graph::gen::cycle_graph(64);
        let req = QueryRequest::single(0).top_k(10).exact();
        let ranked =
            |b: ServiceBuilder| b.build().unwrap().submit(&req).unwrap().result.into_ranked();
        let seq = ranked(ServiceBuilder::in_memory(g.clone()));
        assert_eq!(seq, ranked(ServiceBuilder::in_memory(g.clone()).threads(4)));
        assert_eq!(seq, ranked(ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))));
        assert_eq!(seq, ranked(ServiceBuilder::in_memory(g)));
        // Within every run of equal scores, node ids ascend.
        for w in seq[0].windows(2) {
            if w[0].1 == w[1].1 {
                assert!(w[0].0 < w[1].0, "tie not broken by ascending id: {w:?}");
            }
        }
    }

    #[test]
    fn reordered_backends_agree_bitwise() {
        let g = test_graph();
        let seeds: Vec<NodeId> = vec![2, 77, 201];
        let strategy = ReorderStrategy::DegreeDescending;
        let seq = ServiceBuilder::in_memory(g.clone()).reordering(strategy).build().unwrap();
        let par =
            ServiceBuilder::in_memory(g.clone()).threads(4).reordering(strategy).build().unwrap();
        let dynamic =
            ServiceBuilder::dynamic(DynamicGraph::new(g)).reordering(strategy).build().unwrap();
        let reference = batch(&seq, &seeds);
        assert_eq!(batch(&par, &seeds), reference);
        assert_eq!(batch(&dynamic, &seeds), reference);
    }

    #[test]
    fn frontier_policy_is_bitwise_invisible_through_the_service() {
        let g = Arc::new(test_graph());
        let index = Arc::new(TpaIndex::preprocess(&g, TpaParams::new(5, 10)));
        let with = |policy: FrontierPolicy| {
            ServiceBuilder::in_memory(Arc::clone(&g))
                .index(Arc::clone(&index))
                .frontier(policy)
                .build()
                .unwrap()
        };
        let (dense, sparse) = (with(FrontierPolicy::Dense), with(FrontierPolicy::Sparse));
        let auto =
            ServiceBuilder::in_memory(Arc::clone(&g)).index(Arc::clone(&index)).build().unwrap();
        assert_eq!(auto.snapshot().frontier(), FrontierPolicy::Auto);
        // Indexed, exact, and top-k paths all agree to the bit.
        assert_eq!(dense.query(13).unwrap(), sparse.query(13).unwrap());
        assert_eq!(dense.query(13).unwrap(), auto.query(13).unwrap());
        assert_eq!(dense.top_k(13, 7).unwrap(), auto.top_k(13, 7).unwrap());
        let exact_of = |s: &RwrService| scores(s, QueryRequest::single(7).exact());
        assert_eq!(exact_of(&dense), exact_of(&sparse));
        assert_eq!(exact_of(&dense), exact_of(&auto));
        // A request-level override beats the service default.
        let req = QueryRequest::single(13).with_frontier(FrontierPolicy::Sparse);
        assert_eq!(req.frontier(), Some(FrontierPolicy::Sparse));
        assert_eq!(scores(&dense, req), auto.query(13).unwrap());
    }

    #[test]
    fn frontier_policy_agrees_across_backends() {
        let g = test_graph();
        let reference =
            ServiceBuilder::in_memory(g.clone()).frontier(FrontierPolicy::Dense).build().unwrap();
        let reference = reference.query(42).unwrap();
        for policy in [FrontierPolicy::Auto, FrontierPolicy::Sparse] {
            for (name, builder) in [
                ("seq", ServiceBuilder::in_memory(g.clone())),
                ("par", ServiceBuilder::in_memory(g.clone()).threads(4)),
                ("dyn", ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))),
            ] {
                let service = builder.frontier(policy).build().unwrap();
                assert_eq!(service.query(42).unwrap(), reference, "{name} {}", policy.name());
            }
        }
    }

    #[test]
    fn mismatched_permutations_are_rejected() {
        let g = test_graph();
        let index = ServiceBuilder::in_memory(g.clone())
            .reordering(ReorderStrategy::DegreeDescending)
            .preprocess(TpaParams::new(4, 9))
            .build()
            .unwrap()
            .snapshot()
            .index()
            .unwrap()
            .clone();
        let err = ServiceBuilder::in_memory(g)
            .reordering(ReorderStrategy::Rcm)
            .index(index)
            .build()
            .unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("already stores an ordering"), "{err}");
    }

    #[test]
    fn dynamic_service_publishes_epochs() {
        let g = test_graph();
        let service = ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(TpaParams::new(4, 9))
            .build()
            .unwrap();
        let before = service.query(13).unwrap();
        assert_eq!(service.epoch(), 0);
        let outcome = service
            .apply_updates(&[EdgeUpdate::Insert(13, 200), EdgeUpdate::Insert(200, 13)])
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.report.delta.stats.inserted, 2);
        assert_eq!(service.epoch(), 1);
        let after = service.query(13).unwrap();
        assert_ne!(before, after, "the published epoch must see the new edges");
        // A pinned snapshot keeps answering on its own epoch.
        let pinned = service.snapshot();
        service.apply_updates(&[EdgeUpdate::Delete(13, 200)]).unwrap();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.run(&QueryRequest::single(13)).unwrap().result.into_scores()[0], after);
        assert_eq!(service.epoch(), 2);
    }

    #[test]
    fn static_service_refuses_updates() {
        let g = test_graph();
        let service = ServiceBuilder::in_memory(g).build().unwrap();
        let err = service.apply_updates(&[EdgeUpdate::Insert(0, 1)]).unwrap_err();
        assert!(
            matches!(err, TpaError::BackendMismatch { operation: "edge updates", .. }),
            "{err}"
        );
        assert!(service.compact().is_err());
        assert!(service.refresh_index().is_err());
    }

    #[test]
    fn per_request_overrides() {
        let g = test_graph();
        let service = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        // Frontier overrides are bitwise invisible.
        let dense =
            service.submit(&QueryRequest::single(7).with_frontier(FrontierPolicy::Dense)).unwrap();
        let sparse =
            service.submit(&QueryRequest::single(7).with_frontier(FrontierPolicy::Sparse)).unwrap();
        assert_eq!(dense.result, sparse.result);
        // A looser per-request epsilon stops earlier.
        let tight = service.submit(&QueryRequest::single(7)).unwrap();
        let loose = service.submit(&QueryRequest::single(7).with_epsilon(1e-3)).unwrap();
        assert!(loose.iterations.unwrap() < tight.iterations.unwrap());
        // Non-positive epsilon is an admission error.
        let err = service.submit(&QueryRequest::single(7).with_epsilon(0.0)).unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn reordered_service_is_transparent() {
        let g = test_graph();
        let plain = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        let reordered = ServiceBuilder::in_memory(g.clone())
            .reordering(ReorderStrategy::DegreeDescending)
            .build()
            .unwrap();
        let a = plain.query(13).unwrap();
        let b = reordered.query(13).unwrap();
        let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 < 1e-8, "unmapped scores drifted {l1}");
        // Dynamic + reordered: old-id updates are accepted and answers
        // keep tracking an un-reordered service.
        let plain_dyn = ServiceBuilder::dynamic(DynamicGraph::new(g.clone())).build().unwrap();
        let reordered_dyn = ServiceBuilder::dynamic(DynamicGraph::new(g))
            .reordering(ReorderStrategy::HubCluster)
            .build()
            .unwrap();
        let ups = [EdgeUpdate::Insert(7, 40), EdgeUpdate::Delete(7, 40), EdgeUpdate::Insert(3, 9)];
        let x = plain_dyn.apply_updates(&ups).unwrap();
        let y = reordered_dyn.apply_updates(&ups).unwrap();
        assert_eq!(x.report.delta.stats, y.report.delta.stats);
        let a = plain_dyn.query(7).unwrap();
        let b = reordered_dyn.query(7).unwrap();
        let l1: f64 = a.iter().zip(&b).map(|(p, q)| (p - q).abs()).sum();
        assert!(l1 < 1e-8, "post-update scores drifted {l1}");
    }

    #[test]
    fn reordered_service_is_transparent_to_callers() {
        let g = test_graph();
        let plain = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        let a = plain.query(13).unwrap();
        for strategy in ReorderStrategy::ALL {
            let reordered =
                ServiceBuilder::in_memory(g.clone()).reordering(strategy).build().unwrap();
            assert_eq!(reordered.snapshot().permutation().unwrap().len(), g.n());
            let b = reordered.query(13).unwrap();
            // Same CPI on an isomorphic graph: equal up to FP association
            // (the gather visits neighbors in relabeled order).
            let l1: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(l1 < 1e-8, "{}: unmapped scores drifted {l1}", strategy.name());
            // Top-k ranks in caller (old-id) space.
            for (v, _) in reordered.top_k(13, 5).unwrap() {
                assert!((v as usize) < g.n());
            }
        }
    }

    #[test]
    fn reordered_dynamic_service_accepts_old_id_updates() {
        let g = test_graph();
        let plain = ServiceBuilder::dynamic(DynamicGraph::new(g.clone())).build().unwrap();
        let reordered = ServiceBuilder::dynamic(DynamicGraph::new(g))
            .reordering(ReorderStrategy::HubCluster)
            .build()
            .unwrap();
        let ups =
            [EdgeUpdate::Insert(13, 200), EdgeUpdate::Delete(13, 200), EdgeUpdate::Insert(7, 40)];
        let a = plain.apply_updates(&ups).unwrap();
        let b = reordered.apply_updates(&ups).unwrap();
        assert_eq!(a.report.delta.stats, b.report.delta.stats);
        let x = plain.query(7).unwrap();
        let y = reordered.query(7).unwrap();
        let l1: f64 = x.iter().zip(&y).map(|(p, q)| (p - q).abs()).sum();
        assert!(l1 < 1e-8, "post-update scores drifted {l1}");
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let g = test_graph();
        let err = ServiceBuilder::in_memory(g.clone()).lane_tile(0).build().unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
        let err = ServiceBuilder::in_memory(g.clone())
            .cpi_config(CpiConfig { eps: -1.0, ..CpiConfig::default() })
            .build()
            .unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
        let err = ServiceBuilder::in_memory(g.clone())
            .preprocess(TpaParams::new(5, 5))
            .build()
            .unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
        // Foreign index: dimension mismatch surfaces as an Err, not a panic.
        let other = tpa_graph::gen::cycle_graph(7);
        let index = TpaIndex::preprocess(&other, TpaParams::new(3, 6));
        let err = ServiceBuilder::in_memory(g).index(index).build().unwrap_err();
        assert!(matches!(err, TpaError::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn admission_gate_bounds_and_recovers() {
        let g = test_graph();
        let service = Arc::new(
            ServiceBuilder::in_memory(g)
                .admission(AdmissionConfig::new(2).with_queue(1))
                .build()
                .unwrap(),
        );
        // Sequential requests all pass: the gate only bounds concurrency.
        for seed in 0..8 {
            assert!(
                service.submit(&QueryRequest::single(seed)).unwrap().degradation
                    == DegradationLevel::None
            );
        }
        // Hammer it from many threads: every outcome is either a full
        // answer or an explicit typed rejection — never a panic, never
        // a silent drop — and the gate drains back to empty.
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let svc = Arc::clone(&service);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0usize;
                let mut shed = 0usize;
                for i in 0..20 {
                    match svc.submit(&QueryRequest::single(((t * 20 + i) % 300) as NodeId)) {
                        Ok(_) => ok += 1,
                        Err(TpaError::Overloaded { .. }) => shed += 1,
                        Err(e) => panic!("unexpected error under load: {e}"),
                    }
                }
                (ok, shed)
            }));
        }
        let (mut ok, mut shed) = (0, 0);
        for h in handles {
            let (o, s) = h.join().unwrap();
            ok += o;
            shed += s;
        }
        assert_eq!(ok + shed, 160);
        assert!(ok > 0, "some requests must get through");
        // Fully drained: a fresh submit admits immediately.
        service.submit(&QueryRequest::single(0)).unwrap();
    }

    #[test]
    fn deadline_and_cancellation_fail_fast_and_typed() {
        let g = test_graph();
        let service = ServiceBuilder::in_memory(g).build().unwrap();
        // A zero deadline is rejected at validation.
        let err =
            service.submit(&QueryRequest::single(3).with_deadline(Duration::ZERO)).unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
        // A pre-cancelled request never runs a sweep.
        let token = CancelToken::new();
        token.cancel();
        let err = service.submit(&QueryRequest::single(3).with_cancel(token)).unwrap_err();
        assert!(matches!(err, TpaError::Cancelled), "{err}");
        // An already-expired deadline fails with the typed error and
        // reports the elapsed time past its budget.
        let tiny = Duration::from_nanos(1);
        let err = service.submit(&QueryRequest::single(3).with_deadline(tiny)).unwrap_err();
        match err {
            TpaError::DeadlineExceeded { budget, elapsed } => {
                assert_eq!(budget, tiny);
                assert!(elapsed >= budget);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // A generous deadline passes untouched and answers exactly.
        let quiet = service.submit(&QueryRequest::single(3)).unwrap();
        let bounded = service
            .submit(&QueryRequest::single(3).with_deadline(Duration::from_secs(60)))
            .unwrap();
        assert_eq!(quiet.result, bounded.result);
        assert_eq!(bounded.degradation, DegradationLevel::None);
    }

    #[test]
    fn degrade_policy_sheds_explicitly_under_pressure() {
        let g = test_graph();
        // A p99 target of zero-ish with a pre-filled run histogram would
        // need traffic; instead drive pressure through the queue: one
        // slot, tiny queue, and a degrade policy whose epsilon floor is
        // loose enough to observe.
        let service = ServiceBuilder::in_memory(g)
            .admission(AdmissionConfig::new(1).with_queue(4).with_shed(ShedPolicy::Degrade(
                ShedConfig { p99_target: Duration::from_secs(3600), shed_epsilon: 1e-3 },
            )))
            .build()
            .unwrap();
        // Unloaded: no degradation, full-precision answer.
        let resp = service.submit(&QueryRequest::single(5)).unwrap();
        assert_eq!(resp.degradation, DegradationLevel::None);
        // The shaped-request path itself: run_shed with a ladder rung
        // loosens epsilon and stamps the level.
        let snap = service.snapshot();
        let quiet = snap.run(&QueryRequest::single(5)).unwrap();
        let shed = snap
            .run_shed(
                &QueryRequest::single(5).with_epsilon(1e-3),
                DegradationLevel::LoosenedEpsilon,
                None,
            )
            .unwrap();
        assert_eq!(shed.degradation, DegradationLevel::LoosenedEpsilon);
        assert!(shed.iterations.unwrap() < quiet.iterations.unwrap());
    }

    #[test]
    fn builder_rejects_bad_admission_configs() {
        let g = test_graph();
        let err = ServiceBuilder::in_memory(g.clone())
            .admission(AdmissionConfig::new(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
        let err = ServiceBuilder::in_memory(g)
            .admission(AdmissionConfig::new(4).with_shed(ShedPolicy::Degrade(ShedConfig {
                p99_target: Duration::from_millis(50),
                shed_epsilon: f64::NAN,
            })))
            .build()
            .unwrap_err();
        assert!(matches!(err, TpaError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn compaction_failure_backs_off_then_retries() {
        let g = test_graph();
        let service =
            ServiceBuilder::dynamic(DynamicGraph::new(g).with_compact_threshold(Some(0.001)))
                .build()
                .unwrap();
        service.debug_fail_next_compaction();
        let ups: Vec<EdgeUpdate> =
            (0..40).map(|i| EdgeUpdate::Insert(i % 300, (i * 7 + 1) % 300)).collect();
        service.apply_updates(&ups).unwrap();
        // Reap the poisoned rebuild.
        while service.compaction_pending() {
            std::thread::sleep(Duration::from_millis(2));
            service.flush_compaction();
        }
        assert_eq!(service.compaction_failures(), 1);
        assert_eq!(service.compaction_retries(), 0);
        // Immediately re-triggering is suppressed by the backoff…
        service.apply_updates(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        assert!(!service.compaction_pending());
        // …but once it expires the writer retries, and the retry heals.
        std::thread::sleep(Duration::from_millis(15));
        service.apply_updates(&[EdgeUpdate::Insert(2, 3)]).unwrap();
        assert!(service.flush_compaction(), "the retried rebuild must install");
        assert_eq!(service.compaction_retries(), 1);
        assert_eq!(service.compaction_failures(), 1);
        // The service kept publishing throughout.
        assert_eq!(service.epoch(), 3);
    }

    #[test]
    fn index_roundtrips_through_the_builder() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        // Preprocess through a reordered builder, save, rebuild a fresh
        // service from the loaded index: the stored permutation restores
        // the ordering and answers are identical.
        let first = ServiceBuilder::in_memory(g.clone())
            .reordering(ReorderStrategy::Rcm)
            .preprocess(params)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        first.snapshot().index().unwrap().save(&mut buf).unwrap();
        let loaded = TpaIndex::load(std::io::Cursor::new(&buf)).unwrap();
        let second = ServiceBuilder::in_memory(g).index(loaded).build().unwrap();
        assert!(second.snapshot().permutation().is_some());
        assert_eq!(first.query(42).unwrap(), second.query(42).unwrap());
        assert_eq!(first.top_k(42, 7).unwrap(), second.top_k(42, 7).unwrap());
    }

    #[test]
    fn preprocess_stamps_permutation_and_index_roundtrips() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let service = ServiceBuilder::in_memory(g.clone())
            .reordering(ReorderStrategy::Rcm)
            .preprocess(params)
            .build()
            .unwrap();
        // Preprocessing stamped the service's permutation into the index.
        let snap = service.snapshot();
        let index = snap.index().unwrap();
        assert_eq!(index.permutation(), snap.permutation());

        // Save, load, attach to a *fresh* builder: the stored permutation
        // restores the ordering transparently and answers are identical.
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = TpaIndex::load(std::io::Cursor::new(&buf)).unwrap();
        let served = ServiceBuilder::in_memory(g).index(loaded).build().unwrap();
        assert_eq!(served.snapshot().permutation(), snap.permutation());
        assert_eq!(served.query(42).unwrap(), service.query(42).unwrap());
        assert_eq!(served.top_k(42, 7).unwrap(), service.top_k(42, 7).unwrap());
    }

    #[test]
    fn empty_batch_yields_empty_result() {
        // Serving queues drain to zero; an empty plan is not an error.
        let g = test_graph();
        let service =
            ServiceBuilder::in_memory(g).preprocess(TpaParams::new(4, 9)).build().unwrap();
        assert!(batch(&service, &[]).is_empty());
        let ranked = service.submit(&QueryRequest::batch(Vec::<NodeId>::new()).top_k(5)).unwrap();
        assert!(ranked.result.into_ranked().is_empty());
    }

    #[test]
    fn submit_rejects_out_of_range_seed() {
        let g = test_graph();
        let service = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        let err = service.submit(&QueryRequest::single(g.n() as NodeId)).unwrap_err();
        assert!(
            matches!(err, TpaError::SeedOutOfRange { seed, n } if seed as usize == g.n() && n == g.n()),
            "{err}"
        );
        // A bad seed anywhere in a batch is caught at admission too.
        let err = service.submit(&QueryRequest::batch(vec![0, 1, 9999])).unwrap_err();
        assert!(matches!(err, TpaError::SeedOutOfRange { seed: 9999, .. }), "{err}");
        // The convenience entry points return the same typed error.
        let err = service.query(g.n() as NodeId).unwrap_err();
        assert!(matches!(err, TpaError::SeedOutOfRange { .. }), "{err}");
    }

    #[test]
    fn rejects_foreign_index() {
        let g = test_graph();
        let other = tpa_graph::gen::cycle_graph(7);
        let index = TpaIndex::preprocess(&other, TpaParams::new(3, 6));
        let err = ServiceBuilder::in_memory(g.clone()).index(index).build().unwrap_err();
        assert!(
            matches!(err, TpaError::DimensionMismatch { backend, index: 7 } if backend == g.n()),
            "{err}"
        );
    }

    #[test]
    fn static_backends_reject_updates() {
        let g = test_graph();
        let sequential = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        let err = sequential.apply_updates(&[EdgeUpdate::Insert(0, 1)]).unwrap_err();
        assert!(
            matches!(
                err,
                TpaError::BackendMismatch { operation: "edge updates", backend: "sequential" }
            ),
            "{err}"
        );
        let err = sequential.compact().unwrap_err();
        assert!(matches!(err, TpaError::BackendMismatch { .. }), "{err}");
        // The parallel backend is just as immutable.
        let parallel = ServiceBuilder::in_memory(g).threads(2).build().unwrap();
        let err = parallel.apply_updates(&[EdgeUpdate::Insert(0, 1)]).unwrap_err();
        assert!(matches!(err, TpaError::BackendMismatch { .. }), "{err}");
    }
}
