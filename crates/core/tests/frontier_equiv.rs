//! Property tests for the sparse-frontier layer's core invariant:
//! **every [`FrontierPolicy`] is bitwise identical to the dense flat
//! kernel, on every backend, for arbitrary graphs and seeds** — the
//! direction decision may only ever change latency, never a bit of
//! output. Covered surfaces:
//!
//! 1. `cpi_trace_policy` across sequential / parallel / patched backends ×
//!    {Dense, Sparse, Auto} × single- and multi-seed sets × full and
//!    windowed (family-style) runs.
//! 2. Patched views published *after* update batches (dirty overlays),
//!    where the sparse path walks the merged out-rows and materialized
//!    in-rows.
//! 3. Reordered services (`reordering` × `frontier`): the permuted
//!    gather must stay bitwise stable under every policy.
//! 4. OSP offset propagation runs the CPI sweep loop: the offset seed
//!    `b = c·e_s` propagated into a zero vector *is* CPI from `s`.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tpa_core::{
    cpi_trace_policy, CpiConfig, DynamicTransition, FrontierPolicy, MaintenanceMode,
    ParallelTransition, Propagator, SeedSet, ServiceBuilder, TpaIndex, TpaParams, Transition,
};
use tpa_graph::gen::erdos_renyi_gnm;
use tpa_graph::{
    CsrGraph, DanglingPolicy, DynamicGraph, EdgeUpdate, GraphBuilder, NodeId, ReorderStrategy,
};

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
        let reference = cpi_trace_policy(&seq, &seeds, &cfg, 0, end, FrontierPolicy::Dense, |_, _| {});
        let par = ParallelTransition::new(&g, threads);
        let dyn_t = DynamicTransition::new(DynamicGraph::new(g.clone())).publish_patched();
        for policy in POLICIES {
            for (name, run) in [
                ("seq", cpi_trace_policy(&seq, &seeds, &cfg, 0, end, policy, |_, _| {})),
                ("par", cpi_trace_policy(&par, &seeds, &cfg, 0, end, policy, |_, _| {})),
                ("dyn", cpi_trace_policy(&dyn_t, &seeds, &cfg, 0, end, policy, |_, _| {})),
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
        let dense = cpi_trace_policy(&t, &seeds, &cfg, 0, None, FrontierPolicy::Dense, |_, _| {});
        for policy in [FrontierPolicy::Sparse, FrontierPolicy::Auto] {
            let run = cpi_trace_policy(&t, &seeds, &cfg, 0, None, policy, |_, _| {});
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
        let mut seq =
            DynamicTransition::new(DynamicGraph::new(g.clone()).with_compact_threshold(None));
        seq.apply(&ups);
        let seq = seq.publish_patched();
        let mut par =
            DynamicTransition::new(DynamicGraph::new(g.clone()).with_compact_threshold(None))
                .with_threads(threads);
        par.apply(&ups);
        let par = par.publish_patched();
        let cfg = CpiConfig::default();
        let seeds = SeedSet::single((u % m).min(n as u32 - 1));
        let dense = cpi_trace_policy(&seq, &seeds, &cfg, 0, None, FrontierPolicy::Dense, |_, _| {});
        for policy in POLICIES {
            prop_assert_eq!(
                &cpi_trace_policy(&seq, &seeds, &cfg, 0, None, policy, |_, _| {}).scores,
                &dense.scores,
                "seq overlay, policy {}", policy.name()
            );
            prop_assert_eq!(
                &cpi_trace_policy(&par, &seeds, &cfg, 0, None, policy, |_, _| {}).scores,
                &dense.scores,
                "par overlay, policy {}", policy.name()
            );
        }
    }

    /// Invariant 3: reordering and frontier scheduling compose — on the
    /// permuted graph every policy still matches that service's dense
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
        let query = |builder: ServiceBuilder, policy: FrontierPolicy| {
            builder.reordering(strategy).frontier(policy).build().unwrap().query(seed).unwrap()
        };
        let dense = query(ServiceBuilder::in_memory(g.clone()), FrontierPolicy::Dense);
        for policy in [FrontierPolicy::Sparse, FrontierPolicy::Auto] {
            let seq = query(ServiceBuilder::in_memory(g.clone()), policy);
            prop_assert_eq!(&seq, &dense, "seq {} {}", strategy.name(), policy.name());
            let par = query(ServiceBuilder::in_memory(g.clone()).threads(3), policy);
            prop_assert_eq!(&par, &dense, "par {} {}", strategy.name(), policy.name());
            let dynamic = query(ServiceBuilder::dynamic(DynamicGraph::new(g.clone())), policy);
            prop_assert_eq!(&dynamic, &dense, "dyn {} {}", strategy.name(), policy.name());
        }
    }

    /// Invariant 4: offset propagation *is* CPI. Patching an all-zero
    /// stranger vector with the offset seed `b = c·e_s` must reproduce
    /// CPI from `s` bit for bit, with the same iteration count, on every
    /// backend under every policy.
    #[test]
    fn offset_propagation_is_cpi(
        n in 8usize..60,
        gseed in 0u64..500,
        seed_frac in 0.0f64..1.0,
        threads in 2usize..6,
    ) {
        let g = random_graph(n, gseed);
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        // An edgeless graph without dangling self-loops has x(1) = 0, so
        // its stranger tail is exactly zero.
        let edgeless = GraphBuilder::new(n).dangling_policy(DanglingPolicy::Keep).build();
        let zero = TpaIndex::preprocess(&edgeless, TpaParams::new(2, 4));
        prop_assert!(zero.stranger().iter().all(|v| v.to_bits() == 0));
        let cfg = zero.params().cpi_config();
        let mut b = vec![0.0f64; n];
        b[seed as usize] = cfg.c;
        let seq = Transition::new(&g);
        let par = ParallelTransition::new(&g, threads);
        let dyn_t = DynamicTransition::new(DynamicGraph::new(g.clone())).publish_patched();
        let backends: [(&str, &dyn Propagator); 3] = [("seq", &seq), ("par", &par), ("dyn", &dyn_t)];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for policy in POLICIES {
            for (name, backend) in backends {
                let seeds = SeedSet::single(seed);
                let run = cpi_trace_policy(backend, &seeds, &cfg, 0, None, policy, |_, _| {});
                let (patched, stats) =
                    zero.patch_stranger_on(backend, b.clone(), MaintenanceMode::Exact, policy);
                prop_assert_eq!(bits(patched.stranger()), bits(&run.scores),
                    "{} offset diverged from CPI under {}", name, policy.name());
                prop_assert_eq!(stats.iterations, run.last_iteration,
                    "{} iteration count under {}", name, policy.name());
            }
        }
    }
}
