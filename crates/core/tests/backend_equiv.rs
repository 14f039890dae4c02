//! Property tests: every propagation backend must produce **bit-identical**
//! scores for the same seeds — the invariant `RwrService` relies on to
//! swap backends freely under a serving workload.
//!
//! Covered backends: sequential [`Transition`], [`ParallelTransition`]
//! (several worker counts), batched [`ScoreBlock`] lanes via `cpi_batch`,
//! and the out-of-core [`DiskGraph`].

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tpa_core::batch::cpi_batch;
use tpa_core::offcore::DiskGraph;
use tpa_core::{
    cpi, CpiConfig, ParallelTransition, QueryRequest, SeedSet, ServiceBuilder, TpaIndex, TpaParams,
    Transition,
};
use tpa_graph::gen::erdos_renyi_gnm;
use tpa_graph::{CsrGraph, NodeId};

fn random_graph(n: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (4 * n).min(n * (n - 1) / 2);
    erdos_renyi_gnm(n, m, &mut rng)
}

/// Distinct in-range seed nodes derived from a fraction vector.
fn seeds_from_fracs(n: usize, fracs: &[f64]) -> Vec<NodeId> {
    let mut seeds: Vec<NodeId> =
        fracs.iter().map(|f| ((n as f64 * f) as usize).min(n - 1) as NodeId).collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

fn unique_tmp(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tpa-backend-equiv-{}-{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full-convergence CPI is bit-identical across sequential, parallel
    /// (1/2/3/8 workers), and batched-lane execution.
    #[test]
    fn cpi_bitwise_identical_across_in_memory_backends(
        n in 5usize..80,
        gseed in 0u64..500,
        seed_frac in 0.0f64..1.0,
    ) {
        let g = random_graph(n, gseed);
        let cfg = CpiConfig::default();
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let reference = cpi(&Transition::new(&g), &SeedSet::single(seed), &cfg, 0, None).scores;
        for threads in [1usize, 2, 3, 8] {
            let par = ParallelTransition::new(&g, threads);
            let scores = cpi(&par, &SeedSet::single(seed), &cfg, 0, None).scores;
            prop_assert_eq!(&scores, &reference, "threads = {}", threads);
        }
    }

    /// Batched lanes equal the corresponding single-seed runs, on both the
    /// sequential and the parallel fused block kernels.
    #[test]
    fn batched_lanes_bitwise_equal_singles(
        n in 8usize..80,
        gseed in 0u64..500,
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
        f3 in 0.0f64..1.0,
        window in 3usize..12,
        threads in 2usize..6,
    ) {
        let g = random_graph(n, gseed);
        let cfg = CpiConfig::default();
        let seeds = seeds_from_fracs(n, &[f1, f2, f3]);
        let singles: Vec<Vec<f64>> = seeds
            .iter()
            .map(|&s| cpi(&Transition::new(&g), &SeedSet::single(s), &cfg, 0, Some(window)).scores)
            .collect();
        let seq_block = cpi_batch(&Transition::new(&g), &seeds, &cfg, 0, Some(window));
        let par_block =
            cpi_batch(&ParallelTransition::new(&g, threads), &seeds, &cfg, 0, Some(window));
        for (j, single) in singles.iter().enumerate() {
            prop_assert_eq!(&seq_block.lane(j), single, "sequential lane {}", j);
            prop_assert_eq!(&par_block.lane(j), single, "parallel lane {}", j);
        }
    }

    /// The out-of-core backend streams edges in the same gather order as
    /// the in-memory kernels, so even disk execution is bit-identical.
    #[test]
    fn disk_backend_bitwise_identical(
        n in 5usize..60,
        gseed in 0u64..300,
        seed_frac in 0.0f64..1.0,
    ) {
        let g = random_graph(n, gseed);
        let cfg = CpiConfig::default();
        let seed = ((n as f64 * seed_frac) as usize).min(n - 1) as NodeId;
        let path = unique_tmp(gseed ^ (n as u64) << 32);
        let disk = DiskGraph::create(&g, &path).unwrap();
        let mem = cpi(&Transition::new(&g), &SeedSet::single(seed), &cfg, 0, None).scores;
        let offcore = cpi(&disk, &SeedSet::single(seed), &cfg, 0, None).scores;
        let block = cpi_batch(&disk, &[seed, seed], &cfg, 0, None);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&offcore, &mem);
        prop_assert_eq!(&block.lane(0), &mem);
        prop_assert_eq!(&block.lane(1), &mem);
    }

    /// End to end: indexed service requests are bit-identical across all
    /// three backends, batched or not.
    #[test]
    fn engine_serves_identical_answers_on_every_backend(
        n in 10usize..60,
        gseed in 0u64..300,
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
    ) {
        let g = std::sync::Arc::new(random_graph(n, gseed));
        let index = std::sync::Arc::new(TpaIndex::preprocess(&g, TpaParams::new(4, 9)));
        let seeds = seeds_from_fracs(n, &[f1, f2]);
        let path = unique_tmp(0x0ff0 ^ gseed ^ (n as u64) << 24);
        let disk = DiskGraph::create(&g, &path).unwrap();

        let reference = ServiceBuilder::in_memory(g.clone()).index(index.clone()).build().unwrap();
        let singles: Vec<Vec<f64>> = seeds.iter().map(|&s| reference.query(s).unwrap()).collect();
        for builder in [
            ServiceBuilder::in_memory(g.clone()).threads(3),
            ServiceBuilder::out_of_core(disk),
        ] {
            let service = builder.index(index.clone()).build().unwrap();
            let batch = service
                .submit(&QueryRequest::batch(seeds.clone()))
                .unwrap()
                .result
                .into_scores();
            prop_assert_eq!(
                &batch, &singles, "backend {}", service.snapshot().backend().name()
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
