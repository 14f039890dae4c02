//! Concurrent serving: N reader threads against one `Arc<RwrService>`
//! while a writer applies edge-update batches.
//!
//! This is the scenario the epoch-swapped snapshot design exists for:
//!
//! * **Readers** loop on [`tpa::RwrService::submit`], each response
//!   stamped with the epoch it was served at. They are never blocked by
//!   the writer (their only synchronized step is an `Arc` clone).
//! * **The writer** applies deterministic follow/unfollow batches via
//!   [`tpa::RwrService::apply_updates`]; each batch atomically
//!   publishes the next epoch.
//! * **Verification**: afterwards, every `(epoch, seed, scores)`
//!   observation collected by the readers is replayed against the TPA
//!   online phase ([`tpa::TpaIndex::query_on`]) over the CSR frozen at
//!   that epoch. Every observation must be **bit-identical** to the
//!   frozen answer — a reader can never see a blend of two epochs.
//!
//! Run with: `cargo run --release --example concurrent_serving`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tpa::{
    IndexStalenessPolicy, QueryRequest, SeedSet, ServiceBuilder, TpaIndex, TpaParams, Transition,
};
use tpa_graph::{DynamicGraph, EdgeUpdate, NodeId};

const READERS: usize = 4;
const BATCHES: usize = 12;

/// Deterministic update batch for a given round: a few inserts between
/// arithmetic neighbors plus one delete, all in range.
fn batch(round: usize, n: usize) -> Vec<EdgeUpdate> {
    let pick = |k: usize| ((round * 613 + k * 211 + 17) % n) as NodeId;
    vec![
        EdgeUpdate::Insert(pick(1), pick(2)),
        EdgeUpdate::Insert(pick(3), pick(4)),
        EdgeUpdate::Insert(pick(5), pick(1)),
        EdgeUpdate::Delete(pick(1), pick(2)),
    ]
}

fn main() {
    let spec = tpa_datasets::spec("slashdot-s").unwrap().scaled_down(8);
    let data = tpa_datasets::generate(&spec);
    let graph = (*data.graph).clone();
    let n = graph.n();
    let params = TpaParams::new(spec.s, spec.t);
    println!("graph: {} nodes, {} edges", n, graph.m());

    let service = Arc::new(
        ServiceBuilder::dynamic(DynamicGraph::new(graph.clone()))
            .preprocess(params)
            // Keep the same index across all epochs (no auto refresh) so
            // the per-epoch references are easy to reconstruct.
            .staleness(IndexStalenessPolicy { threshold: f64::INFINITY, auto_refresh: false })
            .build()
            .expect("valid serving configuration"),
    );
    let index: TpaIndex = service.snapshot().index().unwrap().clone();

    // Readers record (epoch, seed, scores) observations while the writer
    // publishes; `done` drains them once the update stream ends.
    let done = Arc::new(AtomicBool::new(false));
    let mut observations: Vec<(u64, NodeId, Vec<f64>)> = Vec::new();
    let mut served = [0usize; READERS];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for r in 0..READERS {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            handles.push(scope.spawn(move || {
                let mut local: Vec<(u64, NodeId, Vec<f64>)> = Vec::new();
                let mut count = 0usize;
                while !done.load(Ordering::Acquire) {
                    let seed = ((r * 997 + count * 31) % n) as NodeId;
                    let resp = service.submit(&QueryRequest::single(seed)).unwrap();
                    let scores = resp.result.into_scores().pop().unwrap();
                    // Keep a sample (every 8th) for post-hoc verification.
                    if count.is_multiple_of(8) {
                        local.push((resp.epoch, seed, scores));
                    }
                    count += 1;
                }
                (local, count)
            }));
        }

        // The single writer: publish BATCHES epochs, pacing slightly so
        // readers observe several distinct epochs.
        for round in 0..BATCHES {
            let outcome = service.apply_updates(&batch(round, n)).unwrap();
            assert_eq!(outcome.epoch, round as u64 + 1);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        done.store(true, Ordering::Release);
        for (r, h) in handles.into_iter().enumerate() {
            let (local, count) = h.join().expect("reader thread");
            served[r] = count;
            observations.extend(local);
        }
    });
    println!(
        "served {} requests across {READERS} reader threads while publishing {BATCHES} epochs \
         ({} sampled for verification)",
        served.iter().sum::<usize>(),
        observations.len()
    );

    // Rebuild every epoch's frozen graph by replaying the same batches,
    // and check each observation bitwise against the online phase over
    // that frozen state.
    let mut replay = DynamicGraph::new(graph);
    let mut frozen: Vec<tpa_graph::CsrGraph> = vec![replay.snapshot()];
    for round in 0..BATCHES {
        replay.apply(&batch(round, n));
        frozen.push(replay.snapshot());
    }
    let mut checked_epochs: Vec<u64> = observations.iter().map(|(e, _, _)| *e).collect();
    checked_epochs.sort_unstable();
    checked_epochs.dedup();
    let mut verified = 0usize;
    for &epoch in &checked_epochs {
        let transition = Transition::new(&frozen[epoch as usize]);
        for (e, seed, scores) in observations.iter().filter(|(e, _, _)| *e == epoch) {
            let reference = index.query_on(&transition, &SeedSet::single(*seed));
            assert_eq!(
                scores, &reference,
                "epoch {e} seed {seed}: concurrent response diverged from the frozen graph"
            );
            verified += 1;
        }
    }
    println!(
        "verified {verified} observations across {} distinct epochs: every response bit-identical \
         to the online phase on the frozen graph",
        checked_epochs.len()
    );
    assert!(
        checked_epochs.len() > 1,
        "readers should observe multiple epochs (writer published {BATCHES})"
    );
}
