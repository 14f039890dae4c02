//! Integration tests for the propagation backends: sequential, parallel,
//! batched, weighted and out-of-core must all agree at dataset scale.

use tpa::offcore::DiskGraph;
use tpa::{cpi, CpiConfig, ParallelTransition, SeedSet, TpaIndex, TpaParams, Transition};
use tpa_eval::metrics;
use tpa_graph::unit_weights;

fn dataset() -> tpa_datasets::Dataset {
    let spec = tpa_datasets::spec("pokec-s").unwrap().scaled_down(10);
    tpa_datasets::generate(&spec)
}

#[test]
fn all_backends_agree_on_dataset() {
    let d = dataset();
    let g = &d.graph;
    let cfg = CpiConfig::default();
    let seeds = SeedSet::single(42);

    let sequential = cpi(&Transition::new(g), &seeds, &cfg, 0, None).scores;

    // Parallel: bitwise identical.
    let parallel = cpi(&ParallelTransition::new(g, 4), &seeds, &cfg, 0, None).scores;
    assert_eq!(sequential, parallel);

    // Weighted with unit weights: numerically identical.
    let wg = unit_weights(g);
    let weighted = cpi(&tpa::WeightedTransition::new(&wg), &seeds, &cfg, 0, None).scores;
    assert!(metrics::l1_error(&sequential, &weighted) < 1e-12);

    // Out-of-core: bitwise identical propagation order.
    let path = std::env::temp_dir().join(format!("tpa-backends-{}", std::process::id()));
    let disk = DiskGraph::create(g, &path).unwrap();
    let offcore = cpi(&disk, &seeds, &cfg, 0, None).scores;
    assert!(metrics::l1_error(&sequential, &offcore) < 1e-12);
    let _ = std::fs::remove_file(path);
}

#[test]
fn batched_tpa_serves_dataset_queries() {
    let d = dataset();
    let g = &d.graph;
    let t = Transition::new(g);
    let index = TpaIndex::preprocess(g, TpaParams::new(d.spec.s, d.spec.t));
    let seeds: Vec<u32> = (0..8).map(|i| (i * 131) % g.n() as u32).collect();
    let batch = index.query_batch_on(&t, &seeds);
    for (j, &s) in seeds.iter().enumerate() {
        assert_eq!(batch[j], index.query(&t, s), "seed {s}");
    }
}

#[test]
fn parallel_tpa_query_is_identical() {
    let d = dataset();
    let g = &d.graph;
    let index = TpaIndex::preprocess(g, TpaParams::new(d.spec.s, d.spec.t));
    let seq = index.query_on(&Transition::new(g), &SeedSet::single(7));
    let par = index.query_on(&ParallelTransition::new(g, 8), &SeedSet::single(7));
    assert_eq!(seq, par);
}
