//! Admission control, load shedding, and fault injection for the
//! serving layer.
//!
//! [`crate::RwrService::submit`] used to admit unbounded concurrent
//! work: a hub-seed stampede ran every request to completion however
//! long the caller was willing to wait, and there was no way to bound
//! in-flight kernels, abandon a sweep whose caller gave up, or serve a
//! cheaper answer under pressure. This module is that missing layer:
//!
//! * [`AdmissionConfig`] / `AdmissionGate` — a max-in-flight gate
//!   with a bounded wait queue. A request that finds all slots busy
//!   waits (up to its deadline) in a bounded queue; an overflowing
//!   queue rejects with [`TpaError::Overloaded`] *immediately*, so
//!   under sustained oversubscription callers fail in microseconds
//!   instead of timing out one by one.
//! * [`CancelToken`] / `SweepGuard` — per-request deadlines
//!   ([`crate::QueryRequest::with_deadline`]) and cooperative
//!   cancellation ([`crate::QueryRequest::with_cancel`]). The guard
//!   rides the CPI sweep through the same early-stop probe the bounded
//!   top-k checker uses: it is consulted at every iteration boundary,
//!   so no request consumes a full sweep after its caller gave up —
//!   the sweep stops and the request returns
//!   [`TpaError::DeadlineExceeded`] / [`TpaError::Cancelled`].
//! * [`ShedPolicy`] / [`DegradationLevel`] — graceful degradation: a
//!   ladder keyed off live queue depth and the kernel-run p99 from the
//!   service's [`crate::ServiceMetrics`]. Under rising pressure the
//!   service prefers [`crate::SnapshotCache`] hits, then loosens the
//!   exact-mode ε, then drops the bounded top-k tie-order proof to the
//!   cheaper set path, and only then rejects. Every applied downgrade
//!   is stamped on [`crate::QueryResponse::degradation`] — a degraded
//!   answer is never silent. PowerWalk's online/offline split
//!   motivates serving a cheaper answer *now* over queueing, and the
//!   dynamic-RWR tolerance guarantees are what make a looser-ε
//!   response a principled (bounded-error) downgrade rather than a
//!   wrong one.
//! * [`FaultPlan`] — a deterministic, seeded fault-injection harness:
//!   slow kernels, publish failures, compaction panics, and reader
//!   stalls, all decided by a counter-keyed hash of the plan's seed so
//!   a chaos run is exactly reproducible. The chaos suite
//!   (`tests/chaos.rs`) drives a faulted service against a quiet twin
//!   and asserts every response is bit-identical or carries an
//!   explicit degradation/error — never a silently wrong answer.

use crate::error::TpaError;
use crate::metrics::ServiceMetrics;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How far the shed ladder downgraded a request, stamped on every
/// [`crate::QueryResponse`] so no degradation is silent. Levels are
/// ordered: each rung implies the ones before it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// Served at full fidelity.
    #[default]
    None,
    /// Cache-eligibility was widened: a pinned seed is served from the
    /// snapshot score cache even on paths that would normally run a
    /// kernel (e.g. the indexed path). The lane is an exact-CPI score
    /// vector maintained within the cache's tolerance.
    PreferCache,
    /// The exact-mode convergence tolerance was loosened to the shed
    /// ε — fewer iterations, with the residual bound still explicit.
    LoosenedEpsilon,
    /// The bounded top-k tie-order proof was dropped: the request ran
    /// the cheaper dense selection path instead (same set semantics,
    /// no early-termination proof riding the sweep).
    DroppedProof,
    /// The request was rejected with [`TpaError::Overloaded`].
    Rejected,
}

/// Label values for the per-level shed counters and the CLI readout,
/// in [`DegradationLevel`] order.
pub const DEGRADATION_LEVELS: [&str; 5] =
    ["none", "prefer_cache", "loosened_epsilon", "dropped_proof", "rejected"];

impl DegradationLevel {
    /// Stable snake_case name (metrics label value, CLI metadata).
    pub fn as_str(self) -> &'static str {
        DEGRADATION_LEVELS[self.index()]
    }

    /// Position on the ladder (0 = no degradation).
    pub fn index(self) -> usize {
        match self {
            DegradationLevel::None => 0,
            DegradationLevel::PreferCache => 1,
            DegradationLevel::LoosenedEpsilon => 2,
            DegradationLevel::DroppedProof => 3,
            DegradationLevel::Rejected => 4,
        }
    }

    /// Maps a pressure score (max of queue-fullness and p99-overrun
    /// fractions) onto the ladder: the rungs engage at 25% steps and
    /// full pressure rejects.
    pub fn from_pressure(pressure: f64) -> Self {
        if pressure >= 1.0 {
            DegradationLevel::Rejected
        } else if pressure >= 0.75 {
            DegradationLevel::DroppedProof
        } else if pressure >= 0.5 {
            DegradationLevel::LoosenedEpsilon
        } else if pressure >= 0.25 {
            DegradationLevel::PreferCache
        } else {
            DegradationLevel::None
        }
    }
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning for [`ShedPolicy::Degrade`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedConfig {
    /// Kernel-run p99 budget: the live p99 (from the service metrics)
    /// over this target contributes to the pressure score. Zero
    /// disables the latency signal (queue depth still sheds).
    pub p99_target: Duration,
    /// The ε exact-mode requests are loosened to at
    /// [`DegradationLevel::LoosenedEpsilon`] (never *tightened*: a
    /// request already looser than this keeps its own ε).
    pub shed_epsilon: f64,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig { p99_target: Duration::from_millis(50), shed_epsilon: 1e-5 }
    }
}

/// What the service does when the gate is under pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ShedPolicy {
    /// Never degrade: wait in the bounded queue, reject only on
    /// overflow.
    #[default]
    Off,
    /// Fail fast: never queue — a request that finds every in-flight
    /// slot busy is rejected immediately with
    /// [`TpaError::Overloaded`].
    Reject,
    /// The degradation ladder: prefer cache hits, loosen ε, drop the
    /// tie-order proof, then reject, keyed off live queue depth and
    /// kernel p99 (see [`DegradationLevel`]).
    Degrade(ShedConfig),
}

impl ShedPolicy {
    /// Parses the CLI spelling (`off` / `reject` / `degrade`).
    pub fn parse(s: &str) -> Result<Self, TpaError> {
        match s {
            "off" => Ok(ShedPolicy::Off),
            "reject" => Ok(ShedPolicy::Reject),
            "degrade" => Ok(ShedPolicy::Degrade(ShedConfig::default())),
            other => Err(TpaError::InvalidConfig(format!(
                "unknown shed policy '{other}' (expected off, reject, or degrade)"
            ))),
        }
    }
}

/// Admission-control knobs for [`crate::ServiceBuilder::admission`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Requests allowed to run concurrently. Must be ≥ 1.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot; an arrival past this is
    /// rejected immediately ([`ShedPolicy::Reject`] forces 0).
    pub max_queue: usize,
    /// What to do under pressure.
    pub shed: ShedPolicy,
}

impl AdmissionConfig {
    /// Gate with `max_inflight` slots, a same-sized wait queue, and no
    /// shedding.
    pub fn new(max_inflight: usize) -> Self {
        AdmissionConfig { max_inflight, max_queue: max_inflight, shed: ShedPolicy::Off }
    }

    /// Sets the bounded wait-queue length.
    pub fn with_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Sets the shed policy.
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Validates the configuration (builder admission).
    pub fn check(&self) -> Result<(), TpaError> {
        if self.max_inflight == 0 {
            return Err(TpaError::InvalidConfig(
                "admission max_inflight must be at least 1".into(),
            ));
        }
        if let ShedPolicy::Degrade(cfg) = &self.shed {
            if !(cfg.shed_epsilon.is_finite() && cfg.shed_epsilon > 0.0) {
                return Err(TpaError::InvalidConfig(format!(
                    "shed epsilon must be positive and finite, got {}",
                    cfg.shed_epsilon
                )));
            }
        }
        Ok(())
    }
}

/// A cooperative cancellation handle: clone it into a
/// [`crate::QueryRequest`] ([`crate::QueryRequest::with_cancel`]) and
/// call [`CancelToken::cancel`] from any thread. The running sweep
/// observes it at the next iteration boundary and the request returns
/// [`TpaError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the next
    /// CPI iteration boundary of any sweep carrying this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release); // ord: Release pairs with the Acquire in is_cancelled — writes before cancel() are visible to the observer
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire) // ord: Acquire pairs with the Release in cancel(); see above
    }
}

/// Guard state: which abort condition tripped first.
const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_CANCELLED: u8 = 2;

/// Rides a request through its kernels the way
/// [`crate::cpi::SweepProbe`] rides the sweep: [`SweepGuard::probe`]
/// is consulted at every CPI iteration boundary (and at lane-tile
/// boundaries on batched paths) and trips once the deadline passes or
/// the cancel token fires. An idle guard (no deadline, no token) costs
/// two `Option` loads per check.
pub(crate) struct SweepGuard {
    started: Instant,
    deadline_at: Option<Instant>,
    budget: Option<Duration>,
    cancel: Option<CancelToken>,
    tripped: AtomicU8,
}

impl SweepGuard {
    pub(crate) fn new(
        started: Instant,
        deadline_at: Option<Instant>,
        budget: Option<Duration>,
        cancel: Option<CancelToken>,
    ) -> Self {
        SweepGuard { started, deadline_at, budget, cancel, tripped: AtomicU8::new(TRIP_NONE) }
    }

    /// The early-stop probe: true once the request should abort.
    /// Sticky — after the first trip every later probe is true without
    /// re-reading the clock.
    pub(crate) fn probe(&self) -> bool {
        // ord: sticky one-way flag; only the trip reason is transferred, and abort_error re-reads it on the same thread
        if self.tripped.load(Ordering::Relaxed) != TRIP_NONE {
            return true;
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                self.tripped.store(TRIP_CANCELLED, Ordering::Relaxed); // ord: single-threaded guard — probe and abort_error run on the request's own thread, no cross-thread edge needed
                return true;
            }
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                self.tripped.store(TRIP_DEADLINE, Ordering::Relaxed); // ord: single-threaded guard — probe and abort_error run on the request's own thread, no cross-thread edge needed
                return true;
            }
        }
        false
    }

    /// The typed error for a tripped guard, `None` while live.
    pub(crate) fn abort_error(&self) -> Option<TpaError> {
        // ord: reads a flag this same thread stored in probe(); program order suffices
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_DEADLINE => Some(TpaError::DeadlineExceeded {
                budget: self.budget.unwrap_or_default(),
                elapsed: self.started.elapsed(),
            }),
            TRIP_CANCELLED => Some(TpaError::Cancelled),
            _ => None,
        }
    }

    /// Probes and converts a trip into its error — the pre-kernel and
    /// tile-boundary check.
    pub(crate) fn check(&self) -> Result<(), TpaError> {
        if self.probe() {
            // probe() returning true means a trip reason was stored, so
            // abort_error() is Some; the Cancelled fallback keeps this
            // path panic-free even if that invariant ever broke.
            Err(self.abort_error().unwrap_or(TpaError::Cancelled))
        } else {
            Ok(())
        }
    }
}

struct GateState {
    inflight: usize,
    queued: usize,
}

/// The max-in-flight gate with its bounded wait queue. One per
/// service; acquisition happens in [`crate::RwrService::submit`]
/// before the snapshot is pinned.
pub(crate) struct AdmissionGate {
    cfg: AdmissionConfig,
    state: Mutex<GateState>,
    cv: Condvar,
    metrics: Option<Arc<ServiceMetrics>>,
}

impl AdmissionGate {
    pub(crate) fn new(cfg: AdmissionConfig, metrics: Option<Arc<ServiceMetrics>>) -> Self {
        AdmissionGate {
            cfg,
            state: Mutex::new(GateState { inflight: 0, queued: 0 }),
            cv: Condvar::new(),
            metrics,
        }
    }

    pub(crate) fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    fn publish_depth(&self, s: &GateState) {
        if let Some(m) = &self.metrics {
            m.record_gate_depth(s.inflight as u64, s.queued as u64);
        }
    }

    /// Acquires an in-flight slot, waiting in the bounded queue up to
    /// `deadline_at`. Fails fast with [`TpaError::Overloaded`] when
    /// the queue is full (always, under [`ShedPolicy::Reject`], when
    /// any queueing would be needed), and with
    /// [`TpaError::DeadlineExceeded`] when the deadline passes while
    /// queued.
    pub(crate) fn acquire(
        &self,
        started: Instant,
        deadline_at: Option<Instant>,
        budget: Option<Duration>,
    ) -> Result<AdmissionPermit<'_>, TpaError> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.inflight < self.cfg.max_inflight {
            s.inflight += 1;
            self.publish_depth(&s);
            return Ok(AdmissionPermit { gate: self });
        }
        let max_queue = match self.cfg.shed {
            ShedPolicy::Reject => 0,
            _ => self.cfg.max_queue,
        };
        if s.queued >= max_queue {
            return Err(TpaError::Overloaded { inflight: s.inflight, queued: s.queued });
        }
        s.queued += 1;
        self.publish_depth(&s);
        loop {
            if s.inflight < self.cfg.max_inflight {
                s.queued -= 1;
                s.inflight += 1;
                self.publish_depth(&s);
                return Ok(AdmissionPermit { gate: self });
            }
            match deadline_at {
                None => s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        s.queued -= 1;
                        self.publish_depth(&s);
                        return Err(TpaError::DeadlineExceeded {
                            budget: budget.unwrap_or_default(),
                            elapsed: started.elapsed(),
                        });
                    }
                    s = self.cv.wait_timeout(s, at - now).unwrap_or_else(|e| e.into_inner()).0;
                }
            }
        }
    }

    /// The current rung of the shed ladder: the max of queue fullness
    /// and kernel-p99 overrun, mapped through
    /// [`DegradationLevel::from_pressure`]. `None`-policy gates never
    /// degrade (the gate still bounds and rejects).
    pub(crate) fn degradation(&self) -> DegradationLevel {
        let ShedPolicy::Degrade(shed) = &self.cfg.shed else {
            return DegradationLevel::None;
        };
        let queued = {
            let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.queued
        };
        let queue_frac = queued as f64 / self.cfg.max_queue.max(1) as f64;
        let p99_frac = match (&self.metrics, shed.p99_target) {
            (Some(m), target) if target > Duration::ZERO => {
                m.live_run_p99_secs() / target.as_secs_f64()
            }
            _ => 0.0,
        };
        DegradationLevel::from_pressure(queue_frac.max(p99_frac))
    }

    /// Current `(inflight, queued)` occupancy — for error payloads.
    pub(crate) fn pressure(&self) -> (usize, usize) {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (s.inflight, s.queued)
    }
}

/// RAII in-flight slot: dropping it frees the slot and wakes one
/// queued waiter.
pub(crate) struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit").finish_non_exhaustive()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().unwrap_or_else(|e| e.into_inner());
        s.inflight -= 1;
        self.gate.publish_depth(&s);
        drop(s);
        self.gate.cv.notify_one();
    }
}

/// SplitMix64 — the fault plan's decision hash. Deterministic and
/// well-mixed, so "every Nth on average, seed-dependent which" fault
/// patterns reproduce exactly across runs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministic, seeded fault injection for chaos testing
/// ([`crate::ServiceBuilder::fault_plan`]). Each fault family draws
/// from its own counter stream keyed by the plan's seed, so two runs
/// of the same workload against the same plan inject the identical
/// fault sequence. Faults only slow, fail, or panic components that
/// already have a recovery path — they can never corrupt a published
/// answer, which is exactly what the chaos suite asserts.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    slow_every: u64,
    slow_for: Duration,
    publish_fail_every: u64,
    compaction_panic_every: u64,
    reader_stall_every: u64,
    reader_stall_for: Duration,
    queries: AtomicU64,
    publishes: AtomicU64,
    compactions: AtomicU64,
    reads: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given decision seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// Inject a `by`-long sleep into roughly one in `every` kernel
    /// runs (0 disables).
    pub fn slow_kernels(mut self, every: u64, by: Duration) -> Self {
        self.slow_every = every;
        self.slow_for = by;
        self
    }

    /// Fail roughly one in `every` [`crate::RwrService::apply_updates`]
    /// calls *before* any state is mutated (0 disables). The overlay
    /// is untouched; the caller retries.
    pub fn publish_failures(mut self, every: u64) -> Self {
        self.publish_fail_every = every;
        self
    }

    /// Panic roughly one in `every` background compaction threads
    /// (0 disables). Exercises the retry/backoff recovery path.
    pub fn compaction_panics(mut self, every: u64) -> Self {
        self.compaction_panic_every = every;
        self
    }

    /// Tell the chaos harness to stall roughly one in `every` readers
    /// for `by` while they hold a pinned snapshot (0 disables). The
    /// service itself never sleeps for this — the harness calls
    /// [`FaultPlan::reader_stall`] and sleeps on the reader thread, so
    /// the fault models a slow consumer, not a slow server.
    pub fn reader_stalls(mut self, every: u64, by: Duration) -> Self {
        self.reader_stall_every = every;
        self.reader_stall_for = by;
        self
    }

    fn hit(&self, stream: u64, k: u64, every: u64) -> bool {
        every != 0
            && splitmix64(self.seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f) ^ k)
                .is_multiple_of(every)
    }

    /// Kernel-side draw: `Some(duration)` when this run should sleep.
    pub(crate) fn slow_kernel(&self) -> Option<Duration> {
        let k = self.queries.fetch_add(1, Ordering::Relaxed); // ord: deterministic draw counter; the splitmix hash, not ordering, decides fault placement
        self.hit(1, k, self.slow_every).then_some(self.slow_for)
    }

    /// Publish-side draw: true when this `apply_updates` should fail.
    pub(crate) fn publish_failure(&self) -> bool {
        let k = self.publishes.fetch_add(1, Ordering::Relaxed); // ord: deterministic draw counter; the splitmix hash, not ordering, decides fault placement
        self.hit(2, k, self.publish_fail_every)
    }

    /// Compaction-side draw: true when this spawned rebuild should
    /// panic.
    pub(crate) fn poison_compaction(&self) -> bool {
        let k = self.compactions.fetch_add(1, Ordering::Relaxed); // ord: deterministic draw counter; the splitmix hash, not ordering, decides fault placement
        self.hit(3, k, self.compaction_panic_every)
    }

    /// Harness-side draw: `Some(duration)` when this reader should
    /// stall while holding its pinned snapshot.
    pub fn reader_stall(&self) -> Option<Duration> {
        let k = self.reads.fetch_add(1, Ordering::Relaxed); // ord: deterministic draw counter; the splitmix hash, not ordering, decides fault placement
        self.hit(4, k, self.reader_stall_every).then_some(self.reader_stall_for)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ladder_is_monotone_in_pressure() {
        let mut last = DegradationLevel::None;
        for i in 0..=40 {
            let level = DegradationLevel::from_pressure(i as f64 / 32.0);
            assert!(level >= last, "ladder regressed at pressure {}", i as f64 / 32.0);
            last = level;
        }
        assert_eq!(DegradationLevel::from_pressure(0.0), DegradationLevel::None);
        assert_eq!(DegradationLevel::from_pressure(0.3), DegradationLevel::PreferCache);
        assert_eq!(DegradationLevel::from_pressure(0.6), DegradationLevel::LoosenedEpsilon);
        assert_eq!(DegradationLevel::from_pressure(0.8), DegradationLevel::DroppedProof);
        assert_eq!(DegradationLevel::from_pressure(1.5), DegradationLevel::Rejected);
        for (i, name) in DEGRADATION_LEVELS.iter().enumerate() {
            assert!(!name.is_empty(), "level {i}");
        }
    }

    #[test]
    fn gate_bounds_inflight_and_rejects_overflow() {
        let gate = AdmissionGate::new(AdmissionConfig::new(2).with_queue(1), None);
        let now = Instant::now();
        let a = gate.acquire(now, None, None).unwrap();
        let _b = gate.acquire(now, None, None).unwrap();
        // Slots full: a deadline-carrying waiter times out in queue...
        let deadline = Some(Instant::now() + Duration::from_millis(10));
        let err = gate.acquire(now, deadline, Some(Duration::from_millis(10))).unwrap_err();
        assert!(matches!(err, TpaError::DeadlineExceeded { .. }), "{err}");
        // ...and with the queue already holding a waiter, the next
        // arrival is rejected immediately.
        let waiter = std::thread::spawn({
            let deadline = Some(Instant::now() + Duration::from_secs(5));
            move || deadline
        });
        waiter.join().unwrap();
        std::thread::scope(|scope| {
            let queued = scope.spawn(|| {
                gate.acquire(Instant::now(), Some(Instant::now() + Duration::from_secs(5)), None)
            });
            // Give the queued waiter time to enter the queue.
            while gate.state.lock().unwrap().queued == 0 {
                std::thread::yield_now();
            }
            let err = gate.acquire(Instant::now(), None, None).unwrap_err();
            assert!(matches!(err, TpaError::Overloaded { .. }), "{err}");
            // Freeing a slot admits the queued waiter.
            drop(a);
            let permit = queued.join().unwrap().unwrap();
            drop(permit);
        });
    }

    #[test]
    fn reject_policy_never_queues() {
        let gate = AdmissionGate::new(
            AdmissionConfig::new(1).with_queue(8).with_shed(ShedPolicy::Reject),
            None,
        );
        let _a = gate.acquire(Instant::now(), None, None).unwrap();
        let err = gate
            .acquire(Instant::now(), Some(Instant::now() + Duration::from_secs(5)), None)
            .unwrap_err();
        assert!(matches!(err, TpaError::Overloaded { .. }), "{err}");
    }

    #[test]
    fn permits_release_under_contention() {
        let gate = Arc::new(AdmissionGate::new(AdmissionConfig::new(2).with_queue(64), None));
        let served = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let gate = Arc::clone(&gate);
                let served = Arc::clone(&served);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let permit = gate.acquire(Instant::now(), None, None).unwrap();
                        let s = gate.state.lock().unwrap();
                        assert!(s.inflight <= 2, "gate admitted {} concurrent", s.inflight);
                        drop(s);
                        served.fetch_add(1, Ordering::Relaxed);
                        drop(permit);
                    }
                });
            }
        });
        assert_eq!(served.load(Ordering::Relaxed), 400);
        let s = gate.state.lock().unwrap();
        assert_eq!((s.inflight, s.queued), (0, 0), "gate must drain to empty");
    }

    #[test]
    fn cancel_token_trips_the_guard() {
        let token = CancelToken::new();
        let guard = SweepGuard::new(Instant::now(), None, None, Some(token.clone()));
        assert!(guard.check().is_ok());
        token.cancel();
        assert!(guard.probe());
        assert!(matches!(guard.abort_error(), Some(TpaError::Cancelled)));
        // Sticky: probes keep reporting the trip.
        assert!(guard.probe());
    }

    #[test]
    fn deadline_trips_the_guard() {
        let start = Instant::now();
        let budget = Duration::from_millis(5);
        let guard = SweepGuard::new(start, Some(start + budget), Some(budget), None);
        while !guard.probe() {
            std::thread::sleep(Duration::from_millis(1));
        }
        match guard.abort_error() {
            Some(TpaError::DeadlineExceeded { budget: b, elapsed }) => {
                assert_eq!(b, budget);
                assert!(elapsed >= budget);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_is_deterministic_and_seed_dependent() {
        let draws = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).publish_failures(3);
            (0..64).map(|_| plan.publish_failure()).collect()
        };
        assert_eq!(draws(7), draws(7), "same seed, same fault sequence");
        assert_ne!(draws(7), draws(8), "different seeds, different sequences");
        let hits = draws(7).iter().filter(|&&b| b).count();
        assert!(hits > 4 && hits < 44, "one-in-3 plan drew {hits}/64 faults");
        // Empty plans never inject.
        let quiet = FaultPlan::seeded(9);
        assert!(quiet.slow_kernel().is_none());
        assert!(!quiet.publish_failure());
        assert!(!quiet.poison_compaction());
        assert!(quiet.reader_stall().is_none());
    }
}
