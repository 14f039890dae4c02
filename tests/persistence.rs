//! Integration tests for the persistence layers: graph snapshots, TPA
//! index save/load, and the out-of-core pipeline — the "preprocess once,
//! query anywhere" deployment story.

use tpa::offcore::DiskGraph;
use tpa::{CpiConfig, SeedSet, TpaIndex, TpaParams, Transition};
use tpa_eval::metrics;
use tpa_graph::io;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tpa-persist-{name}-{}", std::process::id()))
}

#[test]
fn full_persistence_pipeline() {
    // generate → snapshot to disk → reload → preprocess → save index →
    // reload index → query; every step must preserve the exact result.
    let spec = tpa_datasets::spec("slashdot-s").unwrap().scaled_down(10);
    let d = tpa_datasets::generate(&spec);

    let graph_path = tmp("graph");
    io::write_snapshot_file(&d.graph, &graph_path).unwrap();
    let reloaded = io::read_snapshot_file(&graph_path).unwrap();
    assert_eq!(*d.graph, reloaded);

    let params = TpaParams::new(spec.s, spec.t);
    let index = TpaIndex::preprocess(&reloaded, params);
    let index_path = tmp("index");
    index.save(std::fs::File::create(&index_path).unwrap()).unwrap();
    let loaded = TpaIndex::load(std::fs::File::open(&index_path).unwrap()).unwrap();

    let t = Transition::new(&reloaded);
    for seed in [0u32, 7, 100] {
        assert_eq!(index.query(&t, seed), loaded.query(&t, seed), "seed {seed}");
    }

    let _ = std::fs::remove_file(graph_path);
    let _ = std::fs::remove_file(index_path);
}

#[test]
fn offcore_pipeline_equals_in_memory() {
    let spec = tpa_datasets::spec("slashdot-s").unwrap().scaled_down(10);
    let d = tpa_datasets::generate(&spec);
    let disk_path = tmp("offcore");
    let disk = DiskGraph::create(&d.graph, &disk_path).unwrap();

    let params = TpaParams::new(spec.s, spec.t);
    let mem_index = TpaIndex::preprocess(&d.graph, params);
    let disk_index = TpaIndex::preprocess_on(&disk, params);
    assert_eq!(mem_index.stranger(), disk_index.stranger());

    let t = Transition::new(&d.graph);
    let seeds = SeedSet::single(13);
    let a = mem_index.query_on(&t, &seeds);
    let b = disk_index.query_on(&disk, &seeds);
    assert!(metrics::l1_error(&a, &b) < 1e-14);

    let _ = std::fs::remove_file(disk_path);
}

#[test]
fn index_survives_exactness_contract_after_roundtrip() {
    // The loaded index must still satisfy Theorem 2 against fresh ground
    // truth (guards against lossy serialization).
    let spec = tpa_datasets::spec("slashdot-s").unwrap().scaled_down(10);
    let d = tpa_datasets::generate(&spec);
    let params = TpaParams::new(4, 9);
    let index = TpaIndex::preprocess(&d.graph, params);
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    let loaded = TpaIndex::load(std::io::Cursor::new(buf)).unwrap();

    let t = Transition::new(&d.graph);
    let exact = tpa::exact_rwr(&d.graph, 21, &CpiConfig::default());
    let err = metrics::l1_error(&loaded.query(&t, 21), &exact);
    assert!(err <= tpa::bounds::total_bound(params.c, params.s) + 1e-9);
}

#[test]
fn edge_list_and_snapshot_agree() {
    let spec = tpa_datasets::spec("slashdot-s").unwrap().scaled_down(20);
    let d = tpa_datasets::generate(&spec);
    let mut text = Vec::new();
    io::write_edge_list(&d.graph, &mut text).unwrap();
    let mut bin = Vec::new();
    io::write_snapshot(&d.graph, &mut bin).unwrap();
    let from_text = io::read_edge_list(std::io::Cursor::new(text), Some(d.graph.n())).unwrap();
    let from_bin = io::read_snapshot(std::io::Cursor::new(bin)).unwrap();
    assert_eq!(from_text, from_bin);
}
