//! Kernel-layer profiling counters, behind a near-zero-cost disabled
//! path.
//!
//! The serving layer's per-request metrics ([`crate::ServiceMetrics`])
//! answer *how long* a query took; the counters here answer *what the
//! kernels did* while it ran — CPI iterations, the per-iteration
//! [`crate::FrontierPolicy::Auto`] direction decisions, sparse vs dense
//! edge work, sparse-kernel mid-gather bails, OSP offset propagations,
//! and bounded top-k sweeps.
//!
//! Counters are process-wide relaxed atomics, flushed **once per kernel
//! run** from locally accumulated values — never inside the iteration
//! loop. While profiling is disabled (the default) the entire cost on a
//! kernel run is one relaxed `AtomicBool` load and a predictable
//! branch; attaching metrics to a service
//! ([`crate::ServiceBuilder::metrics`]) enables it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

static CPI_RUNS: AtomicU64 = AtomicU64::new(0);
static CPI_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static SPARSE_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static DENSE_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static AUTO_DENSE_SWITCHES: AtomicU64 = AtomicU64::new(0);
static GATHER_BAILS: AtomicU64 = AtomicU64::new(0);
static SPARSE_EDGE_WORK: AtomicU64 = AtomicU64::new(0);
static DENSE_EDGE_WORK: AtomicU64 = AtomicU64::new(0);
static OFFSET_RUNS: AtomicU64 = AtomicU64::new(0);
static OFFSET_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static TOPK_RUNS: AtomicU64 = AtomicU64::new(0);
static TOPK_BOUND_CHECKS: AtomicU64 = AtomicU64::new(0);
static TOPK_EARLY_TERMINATIONS: AtomicU64 = AtomicU64::new(0);
static TOPK_PRUNED_NODES: AtomicU64 = AtomicU64::new(0);

/// True when kernel profiling is collecting (process-wide).
#[inline(always)]
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) // ord: advisory enable flag; a stale read only delays toggling by one kernel run
}

/// Turns kernel profiling on or off (process-wide). Enabled
/// automatically when a service attaches a metrics registry.
pub fn set_profiling_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed); // ord: advisory enable flag; no data is published under it
}

/// Zeroes every profiling counter (benchmarks isolating one phase).
pub fn reset_profiling() {
    for c in [
        &CPI_RUNS,
        &CPI_ITERATIONS,
        &SPARSE_ITERATIONS,
        &DENSE_ITERATIONS,
        &AUTO_DENSE_SWITCHES,
        &GATHER_BAILS,
        &SPARSE_EDGE_WORK,
        &DENSE_EDGE_WORK,
        &OFFSET_RUNS,
        &OFFSET_ITERATIONS,
        &TOPK_RUNS,
        &TOPK_BOUND_CHECKS,
        &TOPK_EARLY_TERMINATIONS,
        &TOPK_PRUNED_NODES,
    ] {
        c.store(0, Ordering::Relaxed); // ord: benchmark-only reset of independent counters; nothing synchronizes with it
    }
}

/// Locally accumulated tallies of one CPI (or offset) sweep, flushed to
/// the process counters in a single call at the end of the run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunTally {
    pub iterations: u64,
    pub sparse_iterations: u64,
    pub dense_iterations: u64,
    /// 1 when the Auto policy latched dense mid-run (frontier outgrew
    /// its divisor or the cumulative sparse budget ran out).
    pub auto_dense_switches: u64,
    /// Sparse kernels that bailed to dense mid-gather.
    pub gather_bails: u64,
    pub sparse_edge_work: u64,
    pub dense_edge_work: u64,
}

pub(crate) fn record_cpi_run(t: RunTally) {
    CPI_RUNS.fetch_add(1, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    flush_tally(&t);
    CPI_ITERATIONS.fetch_add(t.iterations, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
}

pub(crate) fn record_offset_run(t: RunTally) {
    OFFSET_RUNS.fetch_add(1, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    flush_tally(&t);
    OFFSET_ITERATIONS.fetch_add(t.iterations, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
}

fn flush_tally(t: &RunTally) {
    SPARSE_ITERATIONS.fetch_add(t.sparse_iterations, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    DENSE_ITERATIONS.fetch_add(t.dense_iterations, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    AUTO_DENSE_SWITCHES.fetch_add(t.auto_dense_switches, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    GATHER_BAILS.fetch_add(t.gather_bails, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    SPARSE_EDGE_WORK.fetch_add(t.sparse_edge_work, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    DENSE_EDGE_WORK.fetch_add(t.dense_edge_work, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
}

/// One bounded top-k sweep ([`crate::topk`]), flushed once per run like
/// the CPI tallies: how many bound checks it ran, whether the proof
/// terminated the sweep early, and how many nodes the last check
/// pruned from contention.
pub(crate) fn record_topk_run(bound_checks: u64, early_terminated: bool, pruned_nodes: u64) {
    TOPK_RUNS.fetch_add(1, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    TOPK_BOUND_CHECKS.fetch_add(bound_checks, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    if early_terminated {
        TOPK_EARLY_TERMINATIONS.fetch_add(1, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
    }
    TOPK_PRUNED_NODES.fetch_add(pruned_nodes, Ordering::Relaxed); // ord: monotonic tally increment; no other memory is published with it
}

/// A point-in-time reading of the kernel profiling counters
/// (process-wide totals since the last [`reset_profiling`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// CPI sweeps completed (query paths, preprocessing, cache builds).
    pub cpi_runs: u64,
    /// Total CPI iterations across those sweeps.
    pub cpi_iterations: u64,
    /// Iterations routed through the sparse frontier kernel.
    pub sparse_iterations: u64,
    /// Iterations routed through the dense kernels.
    pub dense_iterations: u64,
    /// Runs where [`crate::FrontierPolicy::Auto`] latched from sparse
    /// onto dense (frontier outgrew `m / DENSE_SWITCH_DIVISOR` or the
    /// cumulative sparse budget ran out).
    pub auto_dense_switches: u64,
    /// Sparse kernels that bailed to the dense path mid-gather.
    pub gather_bails: u64,
    /// Edges traversed by sparse-frontier iterations.
    pub sparse_edge_work: u64,
    /// Edges traversed by dense iterations (where the backend exposes
    /// its edge count; unknown backends contribute 0).
    pub dense_edge_work: u64,
    /// OSP offset propagations (score-cache refreshes, index patches).
    pub offset_runs: u64,
    /// Total iterations across offset propagations.
    pub offset_iterations: u64,
    /// Bounded top-k sweeps run (exact-bounds requests that reached a
    /// kernel; dense fallbacks never start a bounded sweep).
    pub topk_runs: u64,
    /// Per-iteration bound checks those sweeps performed.
    pub topk_bound_checks: u64,
    /// Bounded sweeps whose separation proof fired before the natural
    /// end of the iteration (early terminations).
    pub topk_early_terminations: u64,
    /// Nodes excluded from contention by the last bound check of each
    /// sweep, summed across sweeps.
    pub topk_pruned_nodes: u64,
}

impl KernelProfile {
    /// Fraction of profiled edge work done by sparse iterations
    /// (0 when nothing was profiled).
    pub fn sparse_work_ratio(&self) -> f64 {
        let total = self.sparse_edge_work + self.dense_edge_work;
        if total == 0 {
            0.0
        } else {
            self.sparse_edge_work as f64 / total as f64
        }
    }
}

/// Reads the current kernel profile (all zeros while profiling never
/// ran).
pub fn kernel_profile() -> KernelProfile {
    KernelProfile {
        cpi_runs: CPI_RUNS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        cpi_iterations: CPI_ITERATIONS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        sparse_iterations: SPARSE_ITERATIONS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        dense_iterations: DENSE_ITERATIONS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        auto_dense_switches: AUTO_DENSE_SWITCHES.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        gather_bails: GATHER_BAILS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        sparse_edge_work: SPARSE_EDGE_WORK.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        dense_edge_work: DENSE_EDGE_WORK.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        offset_runs: OFFSET_RUNS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        offset_iterations: OFFSET_ITERATIONS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        topk_runs: TOPK_RUNS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        topk_bound_checks: TOPK_BOUND_CHECKS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        topk_early_terminations: TOPK_EARLY_TERMINATIONS.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
        topk_pruned_nodes: TOPK_PRUNED_NODES.load(Ordering::Relaxed), // ord: statistical snapshot; counters are independent, cross-counter skew is fine
    }
}
