//! Property tests for the sparse-frontier layer's core invariant:
//! **every [`FrontierPolicy`] is bitwise identical to the dense flat
//! kernel, on every backend, for arbitrary graphs and seeds** — the
//! direction decision may only ever change latency, never a bit of
//! output. Covered surfaces:
//!
//! 1. `cpi_policy` across sequential / parallel / dynamic backends ×
//!    {Dense, Sparse, Auto} × single- and multi-seed sets × full and
//!    windowed (family-style) runs.
//! 2. Dynamic backends *after* update batches (dirty overlays), where
//!    the sparse path walks the merged out-view and materialized
//!    in-rows.
//! 3. Reordered engines (`with_reordering` × `with_frontier`): the
//!    permuted gather must stay bitwise stable under every policy.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tpa_core::{
    cpi_policy, CpiConfig, FrontierPolicy, ParallelTransition, QueryEngine, SeedSet, Transition,
};
use tpa_graph::gen::erdos_renyi_gnm;
use tpa_graph::{CsrGraph, DynamicGraph, EdgeUpdate, NodeId, ReorderStrategy};

fn random_graph(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (4 * n).min(n * (n - 1) / 2);
    erdos_renyi_gnm(n, m, &mut rng)
}

const POLICIES: [FrontierPolicy; 3] =
    [FrontierPolicy::Dense, FrontierPolicy::Sparse, FrontierPolicy::Auto];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: every policy × backend × window reproduces the
    /// dense sequential result bit for bit.
    #[test]
    fn policies_bitwise_identical_across_backends(
        n in 8usize..60,
        gseed in 0u64..500,
        seed_frac in 0.0f64..1.0,
        threads in 2usize..6,
        window in 0usize..2,
    ) {
        let g = random_graph(n, gseed);
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let cfg = CpiConfig::default();
        let seeds = SeedSet::single(seed);
        let end = if window == 0 { None } else { Some(4) };
        let seq = Transition::new(&g);
        let reference = cpi_policy(&seq, &seeds, &cfg, 0, end, FrontierPolicy::Dense);
        let par = ParallelTransition::new(&g, threads);
        let dyn_t = tpa_core::DynamicTransition::new(DynamicGraph::new(g.clone()));
        for policy in POLICIES {
            for (name, run) in [
                ("seq", cpi_policy(&seq, &seeds, &cfg, 0, end, policy)),
                ("par", cpi_policy(&par, &seeds, &cfg, 0, end, policy)),
                ("dyn", cpi_policy(&dyn_t, &seeds, &cfg, 0, end, policy)),
            ] {
                prop_assert_eq!(&run.scores, &reference.scores,
                    "{} diverged under {}", name, policy.name());
                prop_assert_eq!(run.last_iteration, reference.last_iteration);
                prop_assert_eq!(run.final_residual.to_bits(), reference.final_residual.to_bits(),
                    "{} residual drifted under {}", name, policy.name());
                prop_assert_eq!(run.converged, reference.converged);
            }
        }
    }

    /// Invariant 1, multi-seed: arbitrary (possibly duplicated) seed
    /// sets take the sparse path through their deduplicated support.
    #[test]
    fn multi_seed_sets_agree_bitwise(
        n in 8usize..50,
        gseed in 0u64..300,
        s1 in 0u32..50,
        s2 in 0u32..50,
        s3 in 0u32..50,
    ) {
        let g = random_graph(n, gseed);
        let pick = |s: u32| s % n as u32;
        // Duplicates on purpose: support() must deduplicate.
        let seeds = SeedSet::set(vec![pick(s1), pick(s2), pick(s3), pick(s1)]);
        let cfg = CpiConfig::default();
        let t = Transition::new(&g);
        let dense = cpi_policy(&t, &seeds, &cfg, 0, None, FrontierPolicy::Dense);
        for policy in [FrontierPolicy::Sparse, FrontierPolicy::Auto] {
            let run = cpi_policy(&t, &seeds, &cfg, 0, None, policy);
            prop_assert_eq!(&run.scores, &dense.scores, "policy {}", policy.name());
        }
    }

    /// Invariant 2: post-update overlays (dirty merged rows) stay
    /// bitwise stable under every policy, sequential and threaded.
    #[test]
    fn dirty_dynamic_overlays_agree_bitwise(
        n in 12usize..50,
        gseed in 0u64..300,
        u in 0u32..50,
        v in 0u32..50,
        threads in 2usize..5,
    ) {
        let g = random_graph(n, gseed);
        let m = n as u32;
        let ups = [
            EdgeUpdate::Insert(u % m, v % m),
            EdgeUpdate::Insert(v % m, (u + 1) % m),
            EdgeUpdate::Delete(u % m, (v + 1) % m),
        ];
        let mut seq = tpa_core::DynamicTransition::new(
            DynamicGraph::new(g.clone()).with_compact_threshold(None),
        );
        seq.apply(&ups);
        let mut par = tpa_core::DynamicTransition::new(
            DynamicGraph::new(g.clone()).with_compact_threshold(None),
        )
        .with_threads(threads);
        par.apply(&ups);
        let cfg = CpiConfig::default();
        let seeds = SeedSet::single((u % m).min(n as u32 - 1));
        let dense = cpi_policy(&seq, &seeds, &cfg, 0, None, FrontierPolicy::Dense);
        for policy in POLICIES {
            prop_assert_eq!(
                &cpi_policy(&seq, &seeds, &cfg, 0, None, policy).scores,
                &dense.scores,
                "seq overlay, policy {}", policy.name()
            );
            prop_assert_eq!(
                &cpi_policy(&par, &seeds, &cfg, 0, None, policy).scores,
                &dense.scores,
                "par overlay, policy {}", policy.name()
            );
        }
    }

    /// Invariant 3: reordering and frontier scheduling compose — on the
    /// permuted graph every policy still matches that engine's dense
    /// answer bit for bit (including SlashBurn, the newest ordering).
    #[test]
    fn reordered_engines_agree_bitwise_under_every_policy(
        n in 8usize..50,
        gseed in 0u64..300,
        pick in 0usize..4,
        seed_frac in 0.0f64..1.0,
    ) {
        let g = random_graph(n, gseed);
        let strategy = ReorderStrategy::ALL[pick];
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let dense = QueryEngine::sequential(&g)
            .with_reordering(strategy)
            .with_frontier(FrontierPolicy::Dense)
            .query(seed);
        for policy in [FrontierPolicy::Sparse, FrontierPolicy::Auto] {
            let seq = QueryEngine::sequential(&g)
                .with_reordering(strategy)
                .with_frontier(policy)
                .query(seed);
            prop_assert_eq!(&seq, &dense, "seq {} {}", strategy.name(), policy.name());
            let par = QueryEngine::parallel(&g, 3)
                .with_reordering(strategy)
                .with_frontier(policy)
                .query(seed);
            prop_assert_eq!(&par, &dense, "par {} {}", strategy.name(), policy.name());
            let dynamic = QueryEngine::dynamic(DynamicGraph::new(g.clone()))
                .with_reordering(strategy)
                .with_frontier(policy)
                .query(seed);
            prop_assert_eq!(&dynamic, &dense, "dyn {} {}", strategy.name(), policy.name());
        }
    }
}
