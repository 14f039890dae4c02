//! The one adapter through which the benchmark calls the layers of an
//! indexed top-k read one by one: family sweep, TPA finish, unpermute,
//! selection. It mirrors the path `Snapshot::run` serves, so its answer
//! must be bit-identical to `RwrService::submit`'s on the same snapshot.
//! When the serving entry points change, this is the place to follow.

use crate::trace::{SpanId, Tracer};
use std::time::Instant;
use tpa_core::{cpi_trace_policy, top_k_scored, SeedSet, Snapshot};
use tpa_graph::NodeId;

/// Counts the replay takes from inside the family sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepCounts {
    /// Propagations run (iterations after the seed vector).
    pub iterations: usize,
    /// Nonzero entries of the sweep's last interim vector.
    pub support_nodes: usize,
}

/// Replays an indexed top-`k` read of `seed` (caller id space) on `snap`,
/// recording `tpa.family` (with `cpi.setup`, `cpi.iter` and the
/// tracer's own `trace.scan` inside), `tpa.finish`, `reorder.unpermute`
/// (only when the snapshot is relabeled) and `engine.select` under
/// `parent`. `None` when the snapshot has no index.
pub fn indexed_top_k(
    snap: &Snapshot<'_>,
    seed: NodeId,
    k: usize,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    req: u64,
) -> Option<(Vec<(NodeId, f64)>, SweepCounts)> {
    let index = snap.index()?;
    let params = index.params();
    let last = params.s - 1;
    let mapped = snap.permutation().map_or(seed, |p| p.new_of(seed));
    let mut counts = SweepCounts::default();

    let family = tracer.open("tpa.family", parent, req);
    let mut mark = Instant::now();
    let run = cpi_trace_policy(
        snap.backend(),
        &SeedSet::single(mapped),
        &params.cpi_config(),
        0,
        Some(last),
        snap.frontier(),
        |i, x| {
            let now = Instant::now();
            tracer.record(if i == 0 { "cpi.setup" } else { "cpi.iter" }, family, req, mark, now);
            counts.iterations = i;
            mark = now;
            if i == last {
                counts.support_nodes = x.iter().filter(|v| **v != 0.0).count();
                mark = Instant::now();
                tracer.record("trace.scan", family, req, now, mark);
            }
        },
    );
    tracer.close(family);

    let scores = tracer.time("tpa.finish", parent, req, || index.finish_family(run.scores));
    let scores = match snap.permutation() {
        Some(p) => tracer.time("reorder.unpermute", parent, req, || p.unpermute_values(&scores)),
        None => scores,
    };
    let top = tracer.time("engine.select", parent, req, || top_k_scored(&scores, k));
    Some((top, counts))
}
