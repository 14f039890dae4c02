//! Property tests for the dynamic subsystem: after an arbitrary
//! interleaving of inserts, deletes, and compactions,
//!
//! * exact-mode scores served through the overlay's published view
//!   (`DynamicTransition::publish_patched`) and through a dynamic
//!   `RwrService` are **bit-identical** to a `CsrGraph` rebuilt from
//!   scratch, across the sequential and parallel backends;
//! * the service's incrementally maintained score-cache lanes (OSP
//!   offset propagation at every publish) match a from-scratch
//!   recomputation to the exact-mode tolerance, and stay within the
//!   stated bound in approximate mode.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tpa_core::{
    cpi, CpiConfig, DynamicTransition, MaintenanceMode, ParallelTransition, QueryRequest,
    RwrService, SeedSet, ServiceBuilder, Transition,
};
use tpa_graph::gen::erdos_renyi_gnm;
use tpa_graph::{CsrGraph, DanglingPolicy, DynamicGraph, EdgeUpdate, GraphBuilder, NodeId};

fn random_graph(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (4 * n).min(n * (n - 1) / 2);
    erdos_renyi_gnm(n, m, &mut rng)
}

/// Derives an update script from fraction triples: (kind, u, v).
fn script(n: usize, raw: &[(u8, f64, f64)]) -> Vec<EdgeUpdate> {
    let node = |f: f64| ((n as f64 * f) as usize).min(n - 1) as NodeId;
    raw.iter()
        .map(|&(k, fu, fv)| {
            if k % 2 == 0 {
                EdgeUpdate::Insert(node(fu), node(fv))
            } else {
                EdgeUpdate::Delete(node(fu), node(fv))
            }
        })
        .collect()
}

/// The merged view rebuilt from scratch with overlay semantics
/// (no dangling patching).
fn rebuild(g: &DynamicGraph) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(g.n(), g.m()).dangling_policy(DanglingPolicy::Keep);
    for u in 0..g.n() as NodeId {
        for v in g.out_neighbors(u) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A dynamic service pinning `seed` in an exact-CPI score cache
/// maintained under `mode`.
fn cached_service(base: CsrGraph, seed: NodeId, mode: MaintenanceMode) -> RwrService {
    ServiceBuilder::dynamic(DynamicGraph::new(base)).score_cache([seed], mode).build().unwrap()
}

/// The service's cached lane for `seed` (an exact request the cache
/// answers without running a kernel).
fn cached_lane(service: &RwrService, seed: NodeId) -> Vec<f64> {
    let resp = service.submit(&QueryRequest::single(seed).exact()).unwrap();
    assert!(resp.cached, "seed {seed} must be answered from the cache");
    resp.result.into_scores().pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact-mode queries through the dynamic overlay are bit-identical
    /// to a from-scratch rebuild, on both the sequential and the parallel
    /// backend, with and without a mid-script compaction.
    #[test]
    fn overlay_scores_bitwise_equal_rebuild(
        n in 8usize..60,
        gseed in 0u64..300,
        raw in proptest::collection::vec((0u8..4, 0.0f64..1.0, 0.0f64..1.0), 1..40),
        compact_at in 0usize..40,
        seed_frac in 0.0f64..1.0,
        threads in 2usize..5,
    ) {
        let base = random_graph(n, gseed);
        let updates = script(n, &raw);
        let mut dynamic = DynamicGraph::new(base).with_compact_threshold(None);
        for (i, &up) in updates.iter().enumerate() {
            dynamic.apply_one(up);
            if i == compact_at {
                dynamic.compact();
            }
        }
        let rebuilt = rebuild(&dynamic);
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let cfg = CpiConfig::default();

        let overlay = cpi(
            &DynamicTransition::new(dynamic.clone()).publish_patched(),
            &SeedSet::single(seed), &cfg, 0, None,
        ).scores;
        let sequential = cpi(&Transition::new(&rebuilt), &SeedSet::single(seed), &cfg, 0, None)
            .scores;
        let parallel = cpi(
            &ParallelTransition::new(&rebuilt, threads),
            &SeedSet::single(seed), &cfg, 0, None,
        ).scores;
        prop_assert_eq!(&overlay, &sequential);
        prop_assert_eq!(&overlay, &parallel);

        // The service's exact request path agrees too.
        let service = ServiceBuilder::dynamic(dynamic).threads(threads).build().unwrap();
        let via_service = service
            .submit(&QueryRequest::single(seed).exact())
            .expect("in-range seed")
            .result
            .into_scores()
            .pop()
            .unwrap();
        prop_assert_eq!(&via_service, &sequential);
    }

    /// Incremental maintenance: exact-mode refreshes track a from-scratch
    /// recomputation; approximate-mode refreshes stay within the
    /// `2·tolerance/c` bound per batch.
    #[test]
    fn incremental_refresh_matches_rebuild(
        n in 8usize..50,
        gseed in 0u64..300,
        raw in proptest::collection::vec((0u8..4, 0.0f64..1.0, 0.0f64..1.0), 1..25),
        batch_split in 1usize..25,
        seed_frac in 0.0f64..1.0,
    ) {
        let base = random_graph(n, gseed);
        let updates = script(n, &raw);
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let cfg = CpiConfig::default();
        let tolerance = 1e-4;

        let mut replay = DynamicGraph::new(base.clone());
        let exact = cached_service(base.clone(), seed, MaintenanceMode::Exact);
        let approx = cached_service(base, seed, MaintenanceMode::Approximate { tolerance });

        // Apply the script as two batches (each publish refreshes the
        // lanes), exercising multi-batch maintenance.
        let split = batch_split.min(updates.len());
        let mut batches = 0usize;
        for chunk in [&updates[..split], &updates[split..]] {
            if chunk.is_empty() {
                continue;
            }
            replay.apply(chunk);
            exact.apply_updates(chunk).unwrap();
            approx.apply_updates(chunk).unwrap();
            batches += 1;
        }

        let fresh = cpi(
            &Transition::new(&rebuild(&replay)),
            &SeedSet::single(seed), &cfg, 0, None,
        ).scores;
        let l1 = |a: &[f64]| -> f64 {
            a.iter().zip(&fresh).map(|(x, y)| (x - y).abs()).sum()
        };
        prop_assert!(l1(&cached_lane(&exact, seed)) < 1e-7, "exact drift");
        let bound = batches as f64 * 2.0 * tolerance / cfg.c;
        prop_assert!(
            l1(&cached_lane(&approx, seed)) <= bound,
            "approximate drift above bound",
        );
    }
}
