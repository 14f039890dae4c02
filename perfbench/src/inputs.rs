//! Deterministic workload inputs: the graph, the read stream and the
//! update stream, all derived from the workload seed. The service under
//! test only ever sees what this module generates.

use rand::{rngs::StdRng, Rng, SeedableRng};
use tpa_graph::gen::{rmat, RmatConfig};
use tpa_graph::{CsrGraph, EdgeUpdate, NodeId, Permutation};

/// Nodes of the generated graph.
pub const N: usize = 100_000;
/// Distinct R-MAT edges before the builder adds self-loops to dangling
/// nodes (m ≈ 1.04M after).
pub const M_TARGET: usize = 1_000_000;
/// Reads generated per run; a run that gets through all of them starts
/// the stream again from the top.
pub const READ_STREAM: usize = 200_000;
/// Pinned hot seeds on `churn`.
pub const HOT_SEEDS: usize = 4;
/// Updates per `churn` batch, and how many of them are inserts.
pub const BATCH: usize = 64;
pub const BATCH_INSERTS: usize = 48;
/// Share of `churn` reads that go to a hot seed (exact, cache hit).
pub const HOT_READ_SHARE: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TopkGlobal,
    TopkCold,
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "topk_global" => Some(Self::TopkGlobal),
            "topk_cold" => Some(Self::TopkCold),
            "churn" => Some(Self::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::TopkGlobal => "topk_global",
            Self::TopkCold => "topk_cold",
            Self::Churn => "churn",
        }
    }

    /// Salt that keeps each workload's streams independent of the others'.
    fn salt(self) -> u64 {
        match self {
            Self::TopkGlobal => 0x9e37_79b9_7f4a_7c15,
            Self::TopkCold => 0xc2b2_ae3d_27d4_eb4f,
            Self::Churn => 0x1656_67b1_9e37_79f9,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// Indexed (TPA online phase) top-k read.
    Indexed,
    /// Exact top-k read on a pinned hot seed: a score-cache hit.
    HotExact,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Read {
    pub seed: NodeId,
    pub kind: ReadKind,
}

pub struct Inputs {
    pub graph: CsrGraph,
    /// Nodes with no out-edge to another node (dangling nodes carry only
    /// the builder's self-loop).
    pub cold: Vec<NodeId>,
    /// Nodes with at least one out-edge to another node.
    pub global: Vec<NodeId>,
    /// Seeds pinned in the score cache (`churn` only).
    pub hot: Vec<NodeId>,
    pub reads: Vec<Read>,
    /// Update batches in send order (`churn` only).
    pub batches: Vec<Vec<EdgeUpdate>>,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`: a label-shuffled
    /// R-MAT graph of `n` nodes and `m_target` edges (shared by every
    /// workload for the same seed), the read stream and, on `churn`,
    /// `batches` update batches.
    pub fn generate(
        workload: Workload,
        seed: u64,
        n: usize,
        m_target: usize,
        batches: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let generated = rmat(n, m_target, RmatConfig::default(), &mut rng);
        let graph = generated.permuted(&random_permutation(n, &mut rng));
        let (cold, global): (Vec<NodeId>, Vec<NodeId>) =
            (0..n as NodeId).partition(|&u| graph.out_neighbors(u).iter().all(|&v| v == u));
        assert!(!global.is_empty() && !cold.is_empty(), "degenerate graph: one seed pool is empty");

        let mut rng = StdRng::seed_from_u64(seed ^ workload.salt());
        let hot: Vec<NodeId> = match workload {
            Workload::Churn => pick_distinct(&global, HOT_SEEDS, &mut rng),
            _ => Vec::new(),
        };
        let reads = (0..READ_STREAM)
            .map(|_| match workload {
                Workload::TopkGlobal => indexed(&global, &mut rng),
                Workload::TopkCold => indexed(&cold, &mut rng),
                Workload::Churn if rng.gen_bool(HOT_READ_SHARE) => {
                    Read { seed: hot[rng.gen_range(0..hot.len())], kind: ReadKind::HotExact }
                }
                Workload::Churn => indexed(&global, &mut rng),
            })
            .collect();
        let batches = match workload {
            Workload::Churn => update_stream(&graph, batches, &mut rng),
            _ => Vec::new(),
        };
        Self { graph, cold, global, hot, reads, batches }
    }

    /// Byte encoding of every generated input, in generation order: the
    /// graph's CSR arrays, the hot seeds, the read stream and the update
    /// stream. Equal bytes mean the service saw identical inputs.
    pub fn encode(&self) -> Vec<u8> {
        let g = &self.graph;
        let mut out = Vec::new();
        for &o in g.out_offsets() {
            out.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &t in g.out_targets().iter().chain(&self.hot) {
            out.extend_from_slice(&t.to_le_bytes());
        }
        for r in &self.reads {
            out.push(r.kind as u8);
            out.extend_from_slice(&r.seed.to_le_bytes());
        }
        for up in self.batches.iter().flatten() {
            let (tag, u, v) = match *up {
                EdgeUpdate::Insert(u, v) => (b'+', u, v),
                EdgeUpdate::Delete(u, v) => (b'-', u, v),
            };
            out.push(tag);
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// FNV-1a of [`Inputs::encode`], printed with the results so two runs
    /// can be seen to have used the same inputs.
    pub fn fingerprint(&self) -> u64 {
        self.encode()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }
}

fn indexed(pool: &[NodeId], rng: &mut StdRng) -> Read {
    Read { seed: pool[rng.gen_range(0..pool.len())], kind: ReadKind::Indexed }
}

fn random_permutation(n: usize, rng: &mut StdRng) -> Permutation {
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    Permutation::from_new_to_old(ids)
}

fn pick_distinct(pool: &[NodeId], k: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let s = pool[rng.gen_range(0..pool.len())];
        if !picked.contains(&s) {
            picked.push(s);
        }
    }
    picked
}

/// Batches of [`BATCH_INSERTS`] inserts of edges absent from the graph,
/// then `BATCH − BATCH_INSERTS` deletes of edges inserted earlier in the
/// stream. Only inserted edges are ever deleted, so no base edge goes
/// away and every `global` seed keeps an out-edge to another node.
fn update_stream(graph: &CsrGraph, batches: usize, rng: &mut StdRng) -> Vec<Vec<EdgeUpdate>> {
    let n = graph.n() as NodeId;
    let mut live: Vec<(NodeId, NodeId)> = Vec::new();
    let mut live_set = std::collections::HashSet::new();
    (0..batches)
        .map(|_| {
            let mut batch = Vec::with_capacity(BATCH);
            while batch.len() < BATCH_INSERTS {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && !graph.has_edge(u, v) && live_set.insert((u, v)) {
                    live.push((u, v));
                    batch.push(EdgeUpdate::Insert(u, v));
                }
            }
            while batch.len() < BATCH {
                let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                live_set.remove(&(u, v));
                batch.push(EdgeUpdate::Delete(u, v));
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_N: usize = 4_000;
    const SMALL_M: usize = 40_000;

    #[test]
    fn same_seed_gives_identical_bytes() {
        for w in [Workload::TopkGlobal, Workload::TopkCold, Workload::Churn] {
            let a = Inputs::generate(w, 7, SMALL_N, SMALL_M, 30);
            let b = Inputs::generate(w, 7, SMALL_N, SMALL_M, 30);
            assert_eq!(a.encode(), b.encode(), "{} inputs differ for one seed", w.name());
        }
    }

    #[test]
    fn other_seed_gives_other_bytes() {
        let a = Inputs::generate(Workload::Churn, 7, SMALL_N, SMALL_M, 30);
        let b = Inputs::generate(Workload::Churn, 8, SMALL_N, SMALL_M, 30);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn streams_respect_their_pools() {
        let cold = Inputs::generate(Workload::TopkCold, 3, SMALL_N, SMALL_M, 0);
        assert!(cold.reads.iter().all(|r| cold.cold.contains(&r.seed)));
        let churn = Inputs::generate(Workload::Churn, 3, SMALL_N, SMALL_M, 40);
        for r in &churn.reads {
            match r.kind {
                ReadKind::HotExact => assert!(churn.hot.contains(&r.seed)),
                ReadKind::Indexed => assert!(churn.global.binary_search(&r.seed).is_ok()),
            }
        }
        let mut inserted = std::collections::HashSet::new();
        for up in churn.batches.iter().flatten() {
            match *up {
                EdgeUpdate::Insert(u, v) => assert!(inserted.insert((u, v))),
                EdgeUpdate::Delete(u, v) => assert!(inserted.remove(&(u, v))),
            }
        }
        assert!(churn.batches.iter().all(|b| b.len() == BATCH));
    }
}
