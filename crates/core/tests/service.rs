//! Error-path and concurrency tests for the `RwrService` serving layer.
//!
//! The stress test is the load-bearing one: N reader threads race a
//! writer that publishes epochs, and every response must be **bitwise
//! identical** to the TPA online phase (`TpaIndex::query_on`) over a
//! `Transition` of the CSR frozen at that response's epoch — an
//! independent reference that shares no serving code with the service.
//! Readers may see an older epoch or a newer one, but never a blend of
//! two. CI additionally runs this file under
//! `--release` (more interleavings per second, and the kernels the
//! threads race through are the optimized ones).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tpa_core::{
    IndexStalenessPolicy, QueryRequest, QueryResult, SeedSet, ServiceBuilder, TpaError, TpaIndex,
    TpaParams, Transition,
};
use tpa_graph::gen::{lfr_lite, LfrConfig};
use tpa_graph::{CsrGraph, DynamicGraph, EdgeUpdate, NodeId};

fn test_graph(seed: u64, n: usize, m: usize) -> CsrGraph {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    lfr_lite(LfrConfig { n, m, ..Default::default() }, &mut rng).graph
}

#[test]
fn empty_batch_yields_empty_response() {
    let g = test_graph(3, 200, 1600);
    let service = ServiceBuilder::in_memory(g).preprocess(TpaParams::new(4, 9)).build().unwrap();
    let resp = service.submit(&QueryRequest::batch(Vec::<NodeId>::new())).unwrap();
    assert!(matches!(resp.result, QueryResult::Scores(ref s) if s.is_empty()), "{resp:?}");
    assert_eq!(resp.iterations, None);
    let resp = service.submit(&QueryRequest::batch(Vec::<NodeId>::new()).top_k(5)).unwrap();
    assert!(matches!(resp.result, QueryResult::Ranked(ref r) if r.is_empty()), "{resp:?}");
}

#[test]
fn invalid_seed_is_an_admission_error() {
    let g = test_graph(5, 200, 1600);
    let n = g.n();
    let service = ServiceBuilder::in_memory(g).build().unwrap();
    let err = service.submit(&QueryRequest::single(n as NodeId)).unwrap_err();
    assert!(
        matches!(err, TpaError::SeedOutOfRange { seed, n: got } if seed as usize == n && got == n),
        "{err}"
    );
    // Mid-batch bad seeds are caught before any kernel runs too.
    let err = service.submit(&QueryRequest::batch(vec![0, 1, 1_000_000])).unwrap_err();
    assert!(matches!(err, TpaError::SeedOutOfRange { seed: 1_000_000, .. }), "{err}");
    // The error is a real std::error::Error with a stable message.
    let rendered = err.to_string();
    assert!(rendered.contains("out of range"), "{rendered}");
    let _: &dyn std::error::Error = &err;
}

#[test]
fn mismatched_index_dimension_is_an_error_not_a_panic() {
    let g = test_graph(7, 200, 1600);
    let other = test_graph(8, 150, 1200);
    let index = TpaIndex::preprocess(&other, TpaParams::new(4, 9));
    let err = ServiceBuilder::in_memory(g).index(index).build().unwrap_err();
    match err {
        TpaError::DimensionMismatch { backend, index } => {
            assert_eq!(backend, 200);
            assert_eq!(index, 150);
        }
        other => panic!("expected DimensionMismatch, got {other}"),
    }
}

#[test]
fn updates_on_immutable_services_are_backend_mismatches() {
    let g = test_graph(9, 200, 1600);
    let service = ServiceBuilder::in_memory(g).build().unwrap();
    for err in [
        service.apply_updates(&[EdgeUpdate::Insert(0, 1)]).unwrap_err(),
        service.compact().unwrap_err(),
        service.refresh_index().unwrap_err(),
    ] {
        assert!(matches!(err, TpaError::BackendMismatch { backend: "sequential", .. }), "{err}");
    }
}

/// Deterministic update batch for a stress round; includes no-ops and a
/// delete so the overlay exercises all paths.
fn stress_batch(round: usize, n: usize) -> Vec<EdgeUpdate> {
    let pick = |k: usize| ((round * 613 + k * 211 + 17) % n) as NodeId;
    vec![
        EdgeUpdate::Insert(pick(1), pick(2)),
        EdgeUpdate::Insert(pick(3), pick(4)),
        EdgeUpdate::Insert(pick(5), pick(6)),
        EdgeUpdate::Delete(pick(3), pick(4)),
    ]
}

/// Queries racing a publishing writer always see a bitwise-consistent
/// epoch: scores match the online phase on a frozen pre- or post-update
/// graph, never a blend.
#[test]
fn racing_readers_see_bitwise_consistent_epochs() {
    const READERS: usize = 3;
    const BATCHES: usize = 8;
    let g = test_graph(11, 300, 2400);
    let n = g.n();
    let params = TpaParams::new(4, 9);
    let service = Arc::new(
        ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            // Keep one index across all epochs so frozen references are
            // reconstructable from (index, graph-at-epoch) alone.
            .staleness(IndexStalenessPolicy { threshold: f64::INFINITY, auto_refresh: false })
            .build()
            .unwrap(),
    );
    let index = service.snapshot().index().unwrap().clone();

    // Readers sample (epoch, seed, scores) while the writer publishes.
    let done = Arc::new(AtomicBool::new(false));
    let mut observations: Vec<(u64, NodeId, Vec<f64>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for r in 0..READERS {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                let mut q = 0usize;
                // Keep polling until the writer finishes, then once more
                // so the final epoch is observed too.
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let seed = ((r * 997 + q * 31) % n) as NodeId;
                    let resp = service.submit(&QueryRequest::single(seed)).unwrap();
                    local.push((resp.epoch, seed, resp.result.into_scores().pop().unwrap()));
                    q += 1;
                    if finished {
                        break;
                    }
                }
                local
            }));
        }
        for round in 0..BATCHES {
            let outcome = service.apply_updates(&stress_batch(round, n)).unwrap();
            assert_eq!(outcome.epoch, round as u64 + 1);
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        for h in handles {
            observations.extend(h.join().expect("reader thread"));
        }
    });
    assert!(!observations.is_empty());

    // Frozen per-epoch references: replay the same batches on a mirror.
    let mut replay = DynamicGraph::new(g);
    let mut frozen = vec![replay.snapshot()];
    for round in 0..BATCHES {
        replay.apply(&stress_batch(round, n));
        frozen.push(replay.snapshot());
    }
    for (epoch, seed, scores) in &observations {
        let frozen = Transition::new(&frozen[*epoch as usize]);
        assert_eq!(
            scores,
            &index.query_on(&frozen, &SeedSet::single(*seed)),
            "epoch {epoch} seed {seed}: concurrent response is not the frozen graph's answer"
        );
    }
}

/// A snapshot pinned before a publish keeps serving its own epoch, and
/// several requests against it are mutually consistent.
#[test]
fn pinned_snapshots_are_immutable_views() {
    let g = test_graph(13, 250, 2000);
    let service = ServiceBuilder::dynamic(DynamicGraph::new(g))
        .preprocess(TpaParams::new(4, 9))
        .build()
        .unwrap();
    let pinned = service.snapshot();
    let before = pinned.run(&QueryRequest::single(7)).unwrap().result.into_scores();
    service.apply_updates(&[EdgeUpdate::Insert(7, 100), EdgeUpdate::Insert(100, 7)]).unwrap();
    // The pinned view is frozen; the service has moved on.
    let again = pinned.run(&QueryRequest::single(7)).unwrap();
    assert_eq!(again.epoch, 0);
    assert_eq!(again.result.into_scores(), before);
    let fresh = service.submit(&QueryRequest::single(7)).unwrap();
    assert_eq!(fresh.epoch, 1);
    assert_ne!(fresh.result.into_scores(), before);
}

/// Auto-refresh under a racing reader load: published epochs always pair
/// the index with the graph it was preprocessed on.
#[test]
fn auto_refreshed_index_publishes_atomically() {
    let g = test_graph(17, 250, 2000);
    let params = TpaParams::new(4, 9);
    let service = Arc::new(
        ServiceBuilder::dynamic(DynamicGraph::new(g.clone()))
            .preprocess(params)
            .staleness(IndexStalenessPolicy { threshold: 1e-12, auto_refresh: true })
            .build()
            .unwrap(),
    );
    let outcome = service.apply_updates(&[EdgeUpdate::Insert(0, 249)]).unwrap();
    assert!(outcome.report.index_refreshed);
    assert_eq!(service.accumulated_drift(), 0.0);
    // The published epoch answers exactly like a fresh single-threaded
    // preprocess over the same evolved graph.
    let mut replay = DynamicGraph::new(g);
    replay.apply(&[EdgeUpdate::Insert(0, 249)]);
    let snap = replay.snapshot();
    let fresh = TpaIndex::preprocess(&snap, params);
    let want = fresh.query_on(&Transition::new(&snap), &SeedSet::single(42));
    assert_eq!(service.query(42).unwrap(), want);
}

/// Cancellation safety under admission pressure: racing readers fire a
/// mix of plain, pre-cancelled, and expired-deadline requests through a
/// tiny rejecting gate while a writer publishes epochs. Afterwards:
/// the client-side tally of every outcome class matches the metrics
/// registry **exactly**, aborted/shed requests left no observable state
/// (the service still answers bitwise like a quiet replay), pinned
/// snapshots drop cleanly (a `Weak` to the pre-stress epoch dies), and
/// the gate drains to zero.
#[test]
fn aborted_requests_leave_no_state_and_metrics_tally_exactly() {
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use tpa_core::{AdmissionConfig, CancelToken, FaultPlan, ShedPolicy};

    const READERS: usize = 6;
    const REQUESTS: usize = 24;
    const ROUNDS: usize = 12;
    let n = 250;
    let g = test_graph(29, n, 2000);
    let registry = Arc::new(tpa_obs::MetricsRegistry::new());
    let service = Arc::new(
        ServiceBuilder::dynamic(DynamicGraph::new(g.clone()).with_compact_threshold(Some(1e-9)))
            .preprocess(TpaParams::new(4, 9))
            .metrics(Arc::clone(&registry))
            // Two slots, no queue: simultaneous submits beyond two are
            // rejected with `Overloaded`, never silently queued.
            .admission(AdmissionConfig::new(2).with_shed(ShedPolicy::Reject))
            // Every admitted request holds its slot for 10ms before the
            // kernel's first guard check, so the barrier-synced racers
            // below reliably find the gate full — no wall-clock luck.
            .fault_plan(FaultPlan::seeded(31).slow_kernels(1, std::time::Duration::from_millis(10)))
            .build()
            .unwrap(),
    );

    // Pin the pre-stress epoch; its Weak must die once released.
    let pinned = service.snapshot();
    let weak = Arc::downgrade(&pinned);

    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let deadlined = Arc::new(AtomicU64::new(0));
    let cancelled = Arc::new(AtomicU64::new(0));
    // All readers submit in lockstep each iteration so the two-slot gate
    // is genuinely oversubscribed (6 submits race for 2 slots).
    let barrier = Arc::new(Barrier::new(READERS));
    std::thread::scope(|s| {
        for r in 0..READERS {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            let deadlined = Arc::clone(&deadlined);
            let cancelled = Arc::clone(&cancelled);
            s.spawn(move || {
                for i in 0..REQUESTS {
                    let seed = ((r * 53 + i * 7) % n) as NodeId;
                    // Offset by reader id so every class collides with
                    // every other class at the barrier.
                    let req = match (i + r) % 4 {
                        0 => QueryRequest::single(seed),
                        1 => {
                            let token = CancelToken::new();
                            token.cancel();
                            QueryRequest::single(seed).with_cancel(token)
                        }
                        2 => QueryRequest::single(seed)
                            .with_deadline(std::time::Duration::from_nanos(1)),
                        _ => QueryRequest::batch(vec![seed, (seed + 1) % n as NodeId]).top_k(4),
                    };
                    barrier.wait();
                    match service.submit(&req) {
                        Ok(resp) => {
                            assert!(resp.elapsed.as_nanos() > 0);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TpaError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TpaError::DeadlineExceeded { .. }) => {
                            deadlined.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TpaError::Cancelled) => {
                            cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("inadmissible error under stress: {e}"),
                    }
                }
            });
        }
        // A writer publishes epochs under the readers' feet the whole
        // time; none of its batches may fail.
        let service = Arc::clone(&service);
        s.spawn(move || {
            for round in 0..ROUNDS {
                service.apply_updates(&stress_batch(round, n)).unwrap();
                std::thread::yield_now();
            }
        });
    });
    service.flush_compaction();

    // Exact accounting: the registry agrees with the client tally to
    // the last request, for every outcome class.
    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    let deadlined = deadlined.load(Ordering::Relaxed);
    let cancelled = cancelled.load(Ordering::Relaxed);
    assert_eq!(ok + shed + deadlined + cancelled, (READERS * REQUESTS) as u64);
    assert!(shed > 0, "6 racing submits against 2 slots must shed");
    assert!(deadlined > 0 && cancelled > 0, "abort classes must fire");
    let snap = service.metrics_snapshot().unwrap();
    assert_eq!(snap.requests.total, ok, "completed-request count drifted");
    assert_eq!(snap.requests.errors_total, shed + deadlined + cancelled);
    assert_eq!(snap.admission.shed_total, shed, "shed tally drifted");
    assert_eq!(snap.admission.deadline_exceeded, deadlined, "deadline tally drifted");
    assert_eq!(snap.admission.cancelled, cancelled, "cancel tally drifted");

    // The gate drained: nothing in flight, nothing queued, and every
    // aborted request released its slot.
    assert_eq!(snap.admission.inflight, 0, "gate leaked an in-flight slot");
    assert_eq!(snap.admission.queue_depth, 0, "gate leaked a queued waiter");

    // No observable state from aborted requests: the stressed service
    // answers bitwise like a quiet replay of the same update script.
    let quiet = ServiceBuilder::dynamic(DynamicGraph::new(g).with_compact_threshold(Some(1e-9)))
        .preprocess(TpaParams::new(4, 9))
        .build()
        .unwrap();
    for round in 0..ROUNDS {
        quiet.apply_updates(&stress_batch(round, n)).unwrap();
    }
    quiet.flush_compaction();
    assert_eq!(service.epoch(), quiet.epoch());
    for seed in [0 as NodeId, 17, 101, 249] {
        assert_eq!(
            service.submit(&QueryRequest::single(seed)).unwrap().result,
            quiet.submit(&QueryRequest::single(seed)).unwrap().result,
            "stressed service diverged at seed {seed}"
        );
    }

    // Pinned snapshots drop cleanly: the pre-stress epoch has been
    // superseded, so releasing our pin must free the last reference.
    drop(pinned);
    assert!(weak.upgrade().is_none(), "pre-stress snapshot leaked a reference");
}

#[test]
fn exact_batch_lanes_stop_at_their_own_convergence() {
    // A 10-cycle beside a chain 10→…→30 whose every node also points to
    // the dangling sink 39. Mass leaks at the sink, so seed 10's residual
    // decays far faster than seed 0's: a batch that stopped on a shared
    // residual would cut seed 0's series short.
    let mut edges: Vec<(NodeId, NodeId)> = (0..10).map(|v| (v, (v + 1) % 10)).collect();
    edges.extend((10..30).map(|v| (v, v + 1)));
    edges.extend((10..=30).map(|v| (v, 39)));
    let g = tpa_graph::GraphBuilder::new(40)
        .dangling_policy(tpa_graph::DanglingPolicy::Keep)
        .extend_edges(edges)
        .build();
    let service = ServiceBuilder::dynamic(DynamicGraph::new(g)).build().unwrap();
    let scores = |req: QueryRequest| service.submit(&req).unwrap().result.into_scores();
    let batch = scores(QueryRequest::batch([0, 10]).exact());
    for (lane, seed) in batch.iter().zip([0 as NodeId, 10]) {
        let single = scores(QueryRequest::single(seed).exact()).remove(0);
        assert!(
            lane.iter().zip(&single).all(|(a, b)| a.to_bits() == b.to_bits()),
            "seed {seed}: batch lane differs from its single run"
        );
    }
}
