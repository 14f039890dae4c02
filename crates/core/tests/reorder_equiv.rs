//! Property tests for the locality layer's serving invariants:
//!
//! 1. **Permutation invariance** — a query through a reordered service,
//!    unmapped back to caller ids, equals the un-reordered service's
//!    answer (up to floating-point association: the relabeled gather
//!    sums in-neighbors in a different order), across the sequential,
//!    parallel, and dynamic backends.
//! 2. **Reordered backends agree bitwise** — all three backends serve
//!    the *same* permuted graph, so their answers must be identical to
//!    the last bit, exactly as they are un-reordered.
//! 3. **One gather, any split** — the sequential and the range-split
//!    parallel backends run the same flat gather, so their scalar and
//!    block propagations are bit-identical.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tpa_core::{
    ParallelTransition, Propagator, QueryRequest, RwrService, ServiceBuilder, TpaParams, Transition,
};
use tpa_graph::gen::erdos_renyi_gnm;
use tpa_graph::{CsrGraph, DynamicGraph, NodeId, ReorderStrategy};

fn random_graph(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (4 * n).min(n * (n - 1) / 2);
    erdos_renyi_gnm(n, m, &mut rng)
}

const STRATEGIES: [ReorderStrategy; 4] = ReorderStrategy::ALL;

fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// CPI converges to `eps = 1e-9`; relabeled summation can shift the last
/// iteration across the stopping boundary, so answers agree to ~`eps`
/// in L1, far below any serving-visible difference.
const TOL: f64 = 1e-7;

fn build(builder: ServiceBuilder) -> RwrService {
    builder.build().expect("valid serving configuration")
}

fn query(service: &RwrService, seed: NodeId) -> Vec<f64> {
    service.query(seed).expect("in-range seed")
}

fn query_batch(service: &RwrService, seeds: &[NodeId]) -> Vec<Vec<f64>> {
    service.submit(&QueryRequest::batch(seeds.to_vec())).unwrap().result.into_scores()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: exact queries unmap to the un-reordered answer on
    /// every backend.
    #[test]
    fn reordered_query_unmaps_to_plain_answer(
        n in 8usize..60,
        gseed in 0u64..500,
        seed_frac in 0.0f64..1.0,
        pick in 0usize..4,
    ) {
        let g = random_graph(n, gseed);
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let strategy = STRATEGIES[pick];
        let plain = query(&build(ServiceBuilder::in_memory(g.clone())), seed);
        let services = [
            build(ServiceBuilder::in_memory(g.clone()).reordering(strategy)),
            build(ServiceBuilder::in_memory(g.clone()).threads(3).reordering(strategy)),
            build(ServiceBuilder::dynamic(DynamicGraph::new(g.clone())).reordering(strategy)),
        ];
        for service in &services {
            let unmapped = query(service, seed);
            let err = l1(&plain, &unmapped);
            prop_assert!(
                err < TOL,
                "{} / {}: unmapped scores drifted {} (> {})",
                strategy.name(),
                service.snapshot().backend().name(),
                err,
                TOL
            );
        }
    }

    /// Invariant 1, indexed path: TPA-approximate answers unmap too
    /// (same params, so the same approximation on the relabeled graph).
    #[test]
    fn reordered_indexed_query_unmaps_to_plain_answer(
        n in 20usize..60,
        gseed in 0u64..300,
        pick in 0usize..4,
    ) {
        let g = random_graph(n, gseed);
        let params = TpaParams::new(4, 9);
        let strategy = STRATEGIES[pick];
        let plain = build(ServiceBuilder::in_memory(g.clone()).preprocess(params));
        let reordered =
            build(ServiceBuilder::in_memory(g).reordering(strategy).preprocess(params));
        let seed = (n / 2) as NodeId;
        let err = l1(&query(&plain, seed), &query(&reordered, seed));
        prop_assert!(err < TOL, "{}: indexed drift {}", strategy.name(), err);
    }

    /// Invariant 2: sequential, parallel, and dynamic backends over the
    /// same permuted graph answer bitwise identically, single and
    /// batched.
    #[test]
    fn reordered_backends_bitwise_agree(
        n in 8usize..60,
        gseed in 0u64..500,
        threads in 2usize..6,
        pick in 0usize..4,
    ) {
        let g = random_graph(n, gseed);
        let strategy = STRATEGIES[pick];
        let seeds: Vec<NodeId> = vec![0, (n / 3) as NodeId, (n - 1) as NodeId];
        let seq = build(ServiceBuilder::in_memory(g.clone()).reordering(strategy));
        let par = build(ServiceBuilder::in_memory(g.clone()).threads(threads).reordering(strategy));
        let dynamic =
            build(ServiceBuilder::dynamic(DynamicGraph::new(g.clone())).reordering(strategy));
        let reference = query_batch(&seq, &seeds);
        prop_assert_eq!(&query_batch(&par, &seeds), &reference);
        prop_assert_eq!(&query_batch(&dynamic, &seeds), &reference);
        for &s in &seeds {
            prop_assert_eq!(&query(&seq, s), &reference[seeds.iter().position(|&x| x == s).unwrap()]);
        }
    }

    /// Invariant 3: the sequential and parallel backends agree bitwise,
    /// scalar and block.
    #[test]
    fn sequential_and_parallel_gathers_agree_bitwise(
        n in 8usize..60,
        gseed in 0u64..500,
        threads in 2usize..5,
    ) {
        let g = random_graph(n, gseed);
        let seq = Transition::new(&g);
        let par = ParallelTransition::new(&g, threads);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 / 17.0).collect();
        let mut y_seq = vec![0.0; n];
        let mut y_par = vec![0.0; n];
        seq.propagate_into(0.85, &x, &mut y_seq);
        par.propagate_into(0.85, &x, &mut y_par);
        prop_assert_eq!(&y_seq, &y_par);

        let mut xb = tpa_core::batch::ScoreBlock::zeros(n, 4);
        for (i, e) in xb.data_mut().iter_mut().enumerate() {
            *e = ((i * 7) % 23) as f64 / 23.0;
        }
        let mut yb_seq = tpa_core::batch::ScoreBlock::zeros(n, 4);
        let mut yb_par = tpa_core::batch::ScoreBlock::zeros(n, 4);
        seq.propagate_block_into(0.85, &xb, &mut yb_seq);
        par.propagate_block_into(0.85, &xb, &mut yb_par);
        prop_assert_eq!(yb_seq.data(), yb_par.data());
    }

    /// Reordered dynamic services accept old-id updates and keep
    /// tracking the un-reordered service across update batches.
    #[test]
    fn reordered_dynamic_updates_track_plain_engine(
        n in 12usize..50,
        gseed in 0u64..300,
        u in 0u32..12,
        v in 0u32..12,
        pick in 0usize..4,
    ) {
        use tpa_graph::EdgeUpdate;
        let g = random_graph(n, gseed);
        let ups = [
            EdgeUpdate::Insert(u % n as u32, v % n as u32),
            EdgeUpdate::Insert(v % n as u32, u % n as u32),
            EdgeUpdate::Delete(u % n as u32, (u + 1) % n as u32),
        ];
        let plain = build(ServiceBuilder::dynamic(DynamicGraph::new(g.clone())));
        let reordered = build(
            ServiceBuilder::dynamic(DynamicGraph::new(g.clone())).reordering(STRATEGIES[pick]),
        );
        let a = plain.apply_updates(&ups).unwrap();
        let b = reordered.apply_updates(&ups).unwrap();
        prop_assert_eq!(a.report.delta.stats, b.report.delta.stats);
        let seed = (n / 2) as NodeId;
        let err = l1(&query(&plain, seed), &query(&reordered, seed));
        prop_assert!(err < TOL, "post-update drift {}", err);
    }
}
