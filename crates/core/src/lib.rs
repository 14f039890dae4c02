//! # tpa-core — TPA: Two-Phase Approximation for RWR
//!
//! Reproduction of *"TPA: Fast, Scalable, and Accurate Method for
//! Approximate Random Walk with Restart on Billion Scale Graphs"*
//! (Yoon, Jung & Kang, ICDE 2018).
//!
//! The crate implements the paper's computational model and contribution:
//!
//! * [`Transition`] — the row-normalized transition operator `Ãᵀ`.
//! * [`cpi`] / [`cpi_trace`] — **Algorithm 1**, Cumulative Power Iteration,
//!   with the `siter`/`titer` window TPA splits on.
//! * [`pagerank`], [`exact_rwr`], [`personalized_pagerank`] — CPI
//!   instances differing only in the seed vector.
//! * [`TpaIndex::preprocess`] — **Algorithm 2**, the stranger
//!   approximation (seed-independent PageRank tail, precomputed once).
//! * [`TpaIndex::query`] — **Algorithm 3**, the online phase: exact family
//!   part + rescaled neighbor estimate + precomputed stranger part.
//! * [`bounds`] — Lemmas 1–3 and Theorem 2 in closed form.
//! * [`decompose`] — exact part-wise decomposition used by the accuracy
//!   experiments (Table III, Fig. 9).
//! * [`RwrService`] / [`ServiceBuilder`] — the concurrent serving
//!   layer: an immutable [`Snapshot`] (backend + index + configuration)
//!   published behind an epoch-swapped `Arc`, any number of `&self`
//!   reader threads racing a single writer that applies
//!   [`tpa_graph::EdgeUpdate`] batches; typed [`QueryRequest`] /
//!   [`QueryResponse`] and a real [`TpaError`].
//! * [`QueryEngine`] — the single-owner shim over a [`Snapshot`]:
//!   executes single / batched / top-k requests over any
//!   [`Propagator`] backend (sequential, [`ParallelTransition`],
//!   out-of-core [`offcore::DiskGraph`], dynamic delta-overlay
//!   [`DynamicTransition`]), with results bit-identical across backends
//!   and bit-identical to the concurrent service.
//! * [`dynamic`] — the streaming workload: [`DynamicTransition`] over a
//!   mutable overlay graph, OSP-style incremental maintenance of cached
//!   scores ([`ScoreCache`]), and index staleness tracking
//!   ([`IndexStalenessPolicy`]).
//! * [`metrics`] / [`profiling`] — service-wide observability:
//!   [`ServiceMetrics`] records request latency, cache hits, errors,
//!   and epoch/compaction lifecycle events into a shared
//!   `tpa_obs::MetricsRegistry` (attached via
//!   [`ServiceBuilder::metrics`]); [`kernel_profile`] exposes cheap
//!   kernel-level counters (CPI iterations, frontier decisions,
//!   sparse/dense work) behind a near-zero-cost disabled path.
//! * [`frontier`] — direction-optimizing sparse propagation:
//!   [`FrontierPolicy`] schedules each CPI iteration onto a masked
//!   sparse-frontier kernel or the dense kernels (Beamer-style
//!   switching), bitwise identically, for single-seed query latency.
//! * **Bounded exact top-k** — K-dash-style early termination riding
//!   the same sweep: per-node lower/upper score bounds prune contenders
//!   and stop the iteration once the top-k set and order are provably
//!   stable, with the proof reported as a [`TopKGuarantee`] on the
//!   response ([`QueryRequest::with_exact_bounds`]).
//!
//! ## Quick start
//!
//! ```
//! use tpa_core::{TpaIndex, TpaParams, Transition};
//! use tpa_graph::gen::star_graph;
//!
//! let graph = star_graph(100);
//! // One-time preprocessing (stranger approximation).
//! let index = TpaIndex::preprocess(&graph, TpaParams::new(5, 10));
//! // Fast online query for any seed.
//! let transition = Transition::new(&graph);
//! let scores = index.query(&transition, 42);
//! assert_eq!(scores.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod admission;
pub mod batch;
pub mod bounds;
mod cpi;
mod decompose;
pub mod dynamic;
pub mod engine;
mod error;
pub mod frontier;
mod gather;
pub mod metrics;
pub mod offcore;
mod pagerank;
mod parallel;
pub mod params;
mod patch;
pub mod profiling;
mod seeds;
pub mod service;
mod topk;
mod tpa;
mod transition;
mod weighted;

pub use admission::{
    AdmissionConfig, CancelToken, DegradationLevel, FaultPlan, ShedConfig, ShedPolicy,
    DEGRADATION_LEVELS,
};
pub use cpi::{cpi, cpi_policy, cpi_trace, cpi_trace_policy, CpiConfig, CpiResult};
pub use decompose::{decompose, Decomposition};
pub use dynamic::{
    propagate_offset, propagate_offset_policy, DynamicTransition, MaintenanceMode, RefreshStats,
    ScoreCache, SourceDelta, UpdateDelta,
};
pub use engine::{
    top_k_scored, EngineBackend, IndexStalenessPolicy, QueryEngine, QueryPlan, UpdateReport,
};
pub use error::TpaError;
pub use frontier::{FrontierPolicy, FrontierScratch, FrontierStep, FrontierWork};
pub use metrics::{
    AdmissionMetrics, EpochEvent, LatencyStats, MetricsSnapshot, RequestMetrics, ServiceMetrics,
    ValueStats, WriterMetrics,
};
pub use pagerank::{exact_rwr, pagerank, pagerank_window, personalized_pagerank};
pub use parallel::ParallelTransition;
pub use patch::PatchedTransition;
pub use profiling::{kernel_profile, reset_profiling, set_profiling_enabled, KernelProfile};
pub use seeds::SeedSet;
pub use service::{
    ExecMode, QueryRequest, QueryResponse, QueryResult, RwrService, ServiceBuilder, Snapshot,
    SnapshotCache, UpdateOutcome,
};
pub use topk::TopKGuarantee;
pub use tpa::{PreprocessStats, TpaIndex, TpaParams, TpaParts};
pub use transition::{Propagator, Transition};
pub use weighted::WeightedTransition;
