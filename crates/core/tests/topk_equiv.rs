//! Property tests for the bounded exact top-k path's core contract:
//! **an `exact_bounds` request returns exactly the same top-k set, in
//! exactly the same order (including id tie-breaks), as the dense
//! partial-selection path** — on every backend, under every frontier
//! policy, every reordering, indexed or exact, and on
//! dirty dynamic overlays and patched epochs. The bounds may only ever
//! save work, never move a result.
//!
//! Scores are compared only where the contract pins them: a proof that
//! fires early reports lower-bound scores (within the residual tail of
//! the converged values), so set-and-order equality is the invariant;
//! lanes that fall through to the dense finish are additionally
//! bitwise.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tpa_core::offcore::DiskGraph;
use tpa_core::{
    FrontierPolicy, QueryRequest, QueryResult, RwrService, ServiceBuilder, TpaError, TpaParams,
};
use tpa_graph::gen::{erdos_renyi_gnm, star_graph};
use tpa_graph::{CsrGraph, DynamicGraph, EdgeUpdate, NodeId, ReorderStrategy};

fn random_graph(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (4 * n).min(n * (n - 1) / 2);
    erdos_renyi_gnm(n, m, &mut rng)
}

/// The three k regimes the issue pins: a single winner, a mid cut, and
/// the full ranking.
fn pick_k(n: usize, which: usize) -> usize {
    match which {
        0 => 1,
        1 => 20.min(n),
        _ => n,
    }
}

fn ids(cut: &[(NodeId, f64)]) -> Vec<NodeId> {
    cut.iter().map(|&(id, _)| id).collect()
}

/// Runs `seed`'s top-k twice on `service` — densely and with bounds —
/// and asserts the set-and-order contract plus guarantee sanity.
fn assert_bounded_matches(service: &RwrService, seed: NodeId, k: usize, ctx: &str) {
    let dense = service.submit(&QueryRequest::single(seed).top_k(k)).expect("dense");
    let bounded =
        service.submit(&QueryRequest::single(seed).top_k(k).with_exact_bounds()).expect("bounded");
    let g = bounded.topk.expect("exact_bounds responses carry a guarantee");
    assert!(g.proven_exact, "{ctx}: guarantee not proven");
    assert!(!g.fallback_dense, "{ctx}: unexpected dense fallback");
    let dense_cut = dense.result.into_ranked().pop().unwrap();
    let bounded_cut = bounded.result.into_ranked().pop().unwrap();
    assert_eq!(
        ids(&bounded_cut),
        ids(&dense_cut),
        "{ctx} k={k} seed={seed}: set or tie order diverged"
    );
}

const POLICIES: [FrontierPolicy; 3] =
    [FrontierPolicy::Dense, FrontierPolicy::Sparse, FrontierPolicy::Auto];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential, parallel, and dynamic services all hold the contract
    /// for every k regime, exact and indexed.
    #[test]
    fn bounded_cut_matches_dense_across_backends(
        n in 8usize..60,
        gseed in 0u64..500,
        seed_frac in 0.0f64..1.0,
        threads in 2usize..5,
        which_k in 0usize..3,
        indexed in 0usize..2,
    ) {
        let g = random_graph(n, gseed);
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let k = pick_k(n, which_k);
        let with_index = |b: ServiceBuilder| {
            if indexed == 1 { b.preprocess(TpaParams::new(4, 9)) } else { b }
        };
        for (name, service) in [
            ("seq", with_index(ServiceBuilder::in_memory(g.clone())).build().unwrap()),
            ("par", with_index(ServiceBuilder::in_memory(g.clone()).threads(threads))
                .build().unwrap()),
            ("dyn", with_index(ServiceBuilder::dynamic(DynamicGraph::new(g.clone())))
                .build().unwrap()),
        ] {
            assert_bounded_matches(&service, seed, k, name);
        }
    }

    /// Frontier policies may reschedule the sweep the bounds ride,
    /// never move a result.
    #[test]
    fn frontier_policies_hold_the_contract(
        n in 8usize..50,
        gseed in 0u64..300,
        seed_frac in 0.0f64..1.0,
        which_k in 0usize..3,
    ) {
        let g = random_graph(n, gseed);
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let k = pick_k(n, which_k);
        for policy in POLICIES {
            let service = ServiceBuilder::in_memory(g.clone())
                .frontier(policy)
                .build()
                .unwrap();
            assert_bounded_matches(&service, seed, k, policy.name());
        }
    }

    /// Reordered services answer in caller id space; the bounded path
    /// must map its proven candidates through the same permutation.
    #[test]
    fn reordered_services_hold_the_contract(
        n in 8usize..50,
        gseed in 0u64..300,
        pick in 0usize..4,
        seed_frac in 0.0f64..1.0,
        which_k in 0usize..3,
    ) {
        let g = random_graph(n, gseed);
        let strategy = ReorderStrategy::ALL[pick];
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let k = pick_k(n, which_k);
        let plain = ServiceBuilder::in_memory(g.clone()).build().unwrap();
        let reordered = ServiceBuilder::in_memory(g).reordering(strategy).build().unwrap();
        assert_bounded_matches(&reordered, seed, k, strategy.name());
        // And the reordered bounded cut equals the unreordered dense cut
        // outright: permutation is invisible end to end.
        let a = plain.submit(&QueryRequest::single(seed).top_k(k)).unwrap();
        let b = reordered
            .submit(&QueryRequest::single(seed).top_k(k).with_exact_bounds())
            .unwrap();
        prop_assert_eq!(
            ids(&b.result.into_ranked().pop().unwrap()),
            ids(&a.result.into_ranked().pop().unwrap())
        );
    }

    /// Dirty overlays and patched epochs: after update batches the
    /// dynamic service serves a [`tpa_core::PatchedTransition`]; the
    /// bounded sweep rides it natively.
    #[test]
    fn dirty_overlays_and_patched_epochs_hold_the_contract(
        n in 12usize..50,
        gseed in 0u64..300,
        u in 0u32..50,
        v in 0u32..50,
        which_k in 0usize..3,
    ) {
        let g = random_graph(n, gseed);
        let m = n as u32;
        let service = ServiceBuilder::dynamic(
            DynamicGraph::new(g).with_compact_threshold(None),
        )
        .build()
        .unwrap();
        service
            .apply_updates(&[
                EdgeUpdate::Insert(u % m, v % m),
                EdgeUpdate::Insert(v % m, (u + 1) % m),
                EdgeUpdate::Delete(u % m, (v + 1) % m),
            ])
            .expect("apply");
        prop_assert!(service.epoch() > 0, "updates must publish a patched epoch");
        let seed = (u % m).min(m - 1);
        assert_bounded_matches(&service, seed, pick_k(n, which_k), "patched");
    }

    /// Batched requests run one bounded sweep per lane and aggregate
    /// the guarantee; every lane must match its dense counterpart.
    #[test]
    fn batched_bounded_requests_hold_the_contract(
        n in 8usize..50,
        gseed in 0u64..300,
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
        f3 in 0.0f64..1.0,
        which_k in 0usize..3,
    ) {
        let g = random_graph(n, gseed);
        let pick = |f: f64| ((n as f64 * f) as usize).min(n - 1) as NodeId;
        let seeds = vec![pick(f1), pick(f2), pick(f3)];
        let k = pick_k(n, which_k);
        let service = ServiceBuilder::in_memory(g).build().unwrap();
        let dense = service.submit(&QueryRequest::batch(seeds.clone()).top_k(k)).unwrap();
        let bounded = service
            .submit(&QueryRequest::batch(seeds).top_k(k).with_exact_bounds())
            .unwrap();
        let guar = bounded.topk.expect("guarantee present");
        prop_assert!(guar.proven_exact && !guar.fallback_dense);
        let dense_cuts = dense.result.into_ranked();
        let bounded_cuts = bounded.result.into_ranked();
        prop_assert_eq!(bounded_cuts.len(), dense_cuts.len());
        for (b, d) in bounded_cuts.iter().zip(&dense_cuts) {
            prop_assert_eq!(ids(b), ids(d));
        }
    }
}

/// Exact score ties (structural symmetry) can never be proven separated
/// — the sweep must run to its natural end and fall into the dense
/// finish, whose id tie-break is the caller-visible contract.
#[test]
fn exact_ties_fall_through_to_the_dense_tie_break() {
    // Star: seeding the center ties all 9 spokes at the same score, so
    // any k cutting through the spokes has an unprovable boundary.
    let service = ServiceBuilder::in_memory(star_graph(10)).build().unwrap();
    for k in [2usize, 5, 9] {
        let dense = service.submit(&QueryRequest::single(0).top_k(k)).unwrap();
        let bounded =
            service.submit(&QueryRequest::single(0).top_k(k).with_exact_bounds()).unwrap();
        let g = bounded.topk.unwrap();
        assert!(g.proven_exact, "converged dense finish is exact");
        assert!(!g.early_terminated, "a tied boundary must not fake a proof (k={k})");
        assert_eq!(
            bounded.result.into_ranked().pop().unwrap(),
            dense.result.into_ranked().pop().unwrap(),
            "dense fall-through is bitwise, k={k}"
        );
    }
}

/// On a well-separated graph the proof actually fires early and the
/// guarantee reports the saved work.
#[test]
fn separated_scores_terminate_early() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = erdos_renyi_gnm(500, 2500, &mut rng);
    let service = ServiceBuilder::in_memory(g).build().unwrap();
    let dense = service.submit(&QueryRequest::single(3).top_k(5)).unwrap();
    let bounded = service.submit(&QueryRequest::single(3).top_k(5).with_exact_bounds()).unwrap();
    let g = bounded.topk.unwrap();
    assert!(g.proven_exact && !g.fallback_dense);
    assert!(g.early_terminated, "top-5 of a 500-node ER graph should separate early: {g:?}");
    assert!(g.iterations_saved > 0);
    assert!(g.pruned_nodes >= 495, "a fired proof prunes everyone outside the cut: {g:?}");
    assert!(
        bounded.iterations < dense.iterations,
        "bounded sweep must stop before the dense one ({:?} vs {:?})",
        bounded.iterations,
        dense.iterations
    );
    assert_eq!(
        ids(&bounded.result.into_ranked().pop().unwrap()),
        ids(&dense.result.into_ranked().pop().unwrap())
    );
}

/// The out-of-core backend can't carry bounds through its disk stream:
/// the request still succeeds, densely, and says so in the guarantee.
#[test]
fn out_of_core_falls_back_densely() {
    let g = random_graph(40, 11);
    let path = std::env::temp_dir().join("tpa-topk-equiv-offcore.bin");
    let disk = DiskGraph::create(&g, &path).unwrap();
    let service = ServiceBuilder::out_of_core(disk).build().unwrap();
    let dense = service.submit(&QueryRequest::single(3).top_k(5)).unwrap();
    let bounded = service.submit(&QueryRequest::single(3).top_k(5).with_exact_bounds()).unwrap();
    let _ = std::fs::remove_file(&path);
    let g = bounded.topk.unwrap();
    assert!(g.fallback_dense, "out-of-core must report the dense fallback");
    assert!(g.proven_exact, "the dense cut is still exact");
    assert!(!g.early_terminated);
    assert_eq!(
        bounded.result.into_ranked().pop().unwrap(),
        dense.result.into_ranked().pop().unwrap(),
        "fallback is bitwise dense"
    );
}

/// Admission: k is validated on every ranked request, and exact bounds
/// without a top-k cut are meaningless.
#[test]
fn admission_validates_k_and_bounds() {
    let service = ServiceBuilder::in_memory(random_graph(20, 3)).build().unwrap();
    let err = service.submit(&QueryRequest::single(0).top_k(0)).unwrap_err();
    assert!(matches!(err, TpaError::InvalidConfig(_)), "{err:?}");
    let err = service.submit(&QueryRequest::single(0).top_k(21)).unwrap_err();
    assert!(matches!(err, TpaError::InvalidConfig(_)), "{err:?}");
    let err = service.submit(&QueryRequest::single(0).with_exact_bounds()).unwrap_err();
    assert!(matches!(err, TpaError::InvalidConfig(_)), "{err:?}");
    // Full-graph k is fine, and an empty bounded batch is trivially
    // proven.
    assert!(service.submit(&QueryRequest::single(0).top_k(20)).is_ok());
    let resp = service
        .submit(&QueryRequest::batch(Vec::<NodeId>::new()).top_k(5).with_exact_bounds())
        .unwrap();
    assert!(matches!(resp.result, QueryResult::Ranked(ref r) if r.is_empty()));
    assert!(resp.topk.unwrap().proven_exact);
}
