//! Streaming recommendations: "Who to Follow" on a graph that never
//! stops changing.
//!
//! The social graph mutates continuously — new follows arrive, old ones
//! are retracted. This example serves recommendations through the
//! concurrent [`tpa::RwrService`] while the graph evolves:
//!
//! 1. The same service answers indexed top-k requests before and after
//!    every update batch — each [`tpa::RwrService::apply_updates`] call
//!    atomically publishes a new snapshot **epoch**, so readers are
//!    never blocked and never see a half-applied batch.
//! 2. The service's score cache ([`tpa::ServiceBuilder::score_cache`])
//!    pins one power user's *exact* scores and keeps them current at
//!    every publish by OSP offset propagation; exact requests for that
//!    user are answered straight from the cache
//!    ([`tpa::QueryResponse::cached`]). We compare the cost and accuracy
//!    against rebuilding the graph and recomputing from scratch.
//! 3. The service tracks accumulated operator drift and re-preprocesses
//!    the TPA index only when it goes stale.
//!
//! Run with: `cargo run --release --example streaming_recommendations`

use tpa::{
    CpiConfig, IndexStalenessPolicy, MaintenanceMode, QueryRequest, ServiceBuilder, TpaParams,
};
use tpa_graph::{DynamicGraph, EdgeUpdate, NodeId};

fn main() {
    // A scaled-down Twitter-like graph (heavy-tailed follows).
    let spec = tpa_datasets::spec("twitter-s").unwrap().scaled_down(8);
    let data = tpa_datasets::generate(&spec);
    let graph = (*data.graph).clone();
    let n = graph.n();
    println!("social graph: {} users, {} follow edges", n, graph.m());

    // The user we keep serving while the graph churns.
    let user: NodeId = 42 % n as NodeId;

    // Dynamic service: overlay writer + TPA index + staleness tracking +
    // the user's maintained exact scores, all configured in one builder.
    let service = ServiceBuilder::dynamic(DynamicGraph::new(graph.clone()))
        .preprocess(TpaParams::new(spec.s, spec.t))
        .staleness(IndexStalenessPolicy { threshold: 0.02, auto_refresh: true })
        .score_cache([user], MaintenanceMode::Exact)
        .build()
        .expect("valid serving configuration");

    let before = service.top_k(user, 5).unwrap();
    println!("\ninitial recommendations for user {user} (epoch {}):", service.epoch());
    for &(v, s) in &before {
        println!("  @node{v:<8} score {s:.6}");
    }

    // The naive alternative keeps its own copy of the graph, rebuilds a
    // CSR after every batch and recomputes the user's scores from
    // scratch. Its graph also drives the synthetic follow stream: each
    // round users follow "friends of friends" and drop a stale follow —
    // deterministic, no RNG needed.
    let cfg = CpiConfig::default();
    let mut naive = DynamicGraph::new(graph);
    let mut publish_total = 0.0f64;
    let mut rebuild_total = 0.0f64;
    let mut index_refreshes = 0usize;
    for round in 0u32..5 {
        let batch = follow_batch(&naive, round, n);
        // One publish applies the batch and refreshes the cached lane.
        let (outcome, dt_publish) = tpa_eval::time(|| service.apply_updates(&batch).unwrap());
        publish_total += dt_publish.as_secs_f64();
        index_refreshes += outcome.report.index_refreshed as usize;
        let hot = service.submit(&QueryRequest::single(user).exact()).unwrap();
        assert!(hot.cached, "the pinned user must be answered from the cache");
        let maintained = hot.result.into_scores().pop().unwrap();

        let (fresh, dt_rebuild) = tpa_eval::time(|| {
            naive.apply(&batch);
            tpa::exact_rwr(&naive.snapshot(), user, &cfg)
        });
        rebuild_total += dt_rebuild.as_secs_f64();

        let drift: f64 = maintained.iter().zip(&fresh).map(|(a, b)| (a - b).abs()).sum();
        println!(
            "\nepoch {}: {}+{} edges changed, publish with lane refresh {} vs rebuild+requery {} \
             (exact-mode L1 drift {drift:.2e}, served from cache){}",
            outcome.epoch,
            outcome.report.delta.stats.inserted,
            outcome.report.delta.stats.deleted,
            tpa_eval::format_secs(dt_publish.as_secs_f64()),
            tpa_eval::format_secs(dt_rebuild.as_secs_f64()),
            if outcome.report.index_refreshed { " — index auto-refreshed" } else { "" }
        );
    }

    // Recommendations after the churn, served by the same service (now
    // several epochs ahead of where it started).
    let after = service.top_k(user, 5).unwrap();
    println!("\nrecommendations for user {user} after the stream (epoch {}):", service.epoch());
    for &(v, s) in &after {
        println!("  @node{v:<8} score {s:.6}");
    }
    // The maintained lane agrees with a cold exact run on the served
    // graph (a per-request epsilon bypasses the cache).
    let cached = service.submit(&QueryRequest::single(user).exact()).unwrap();
    let cold = service.submit(&QueryRequest::single(user).exact().with_epsilon(cfg.eps)).unwrap();
    assert!(cached.cached && !cold.cached);
    let cached = cached.result.into_scores().pop().unwrap();
    let cold = cold.result.into_scores().pop().unwrap();
    let cache_drift: f64 = cached.iter().zip(&cold).map(|(a, b)| (a - b).abs()).sum();
    println!(
        "\ntotals: service publishes {} ({index_refreshes} with an index re-preprocess) vs \
         rebuild-and-requery {} ({:.1}x)",
        tpa_eval::format_secs(publish_total),
        tpa_eval::format_secs(rebuild_total),
        rebuild_total / publish_total.max(1e-12),
    );
    println!(
        "maintained cache vs cold exact scores: L1 {cache_drift:.2e} · accumulated index drift \
         {:.4} (stale: {})",
        service.accumulated_drift(),
        service.index_stale()
    );
    assert!(cache_drift < 1e-6, "maintained cache must track the served graph");
}

/// Deterministic per-round batch: a handful of new follows between
/// second-hop neighbors of a rotating pivot, plus one unfollow.
fn follow_batch(g: &DynamicGraph, round: u32, n: usize) -> Vec<EdgeUpdate> {
    let mut batch = Vec::new();
    let pivot = ((round as usize * 7919 + 13) % n) as NodeId;
    let hops: Vec<NodeId> = g.out_neighbors(pivot).take(4).collect();
    for (i, &mid) in hops.iter().enumerate() {
        if let Some(far) = g.out_neighbors(mid).nth(i) {
            if !g.has_edge(pivot, far) && pivot != far {
                batch.push(EdgeUpdate::Insert(pivot, far));
            }
        }
    }
    // Retract the pivot's lexicographically first follow if it has >1.
    if g.out_degree(pivot) > 1 {
        if let Some(first) = g.out_neighbors(pivot).next() {
            batch.push(EdgeUpdate::Delete(pivot, first));
        }
    }
    batch
}
