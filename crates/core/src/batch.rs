//! Batched multi-seed queries.
//!
//! Serving scenarios ("Who to Follow" for every active user) issue many
//! RWR queries against one graph. Propagating a *block* of B score vectors
//! in one sweep turns B random-access passes over the in-edges into one:
//! each edge is read once per iteration and updates B lanes contiguously.
//! Results are bitwise identical to B independent queries.
//!
//! The block step is a [`Propagator`] method
//! ([`Propagator::propagate_block_into`]), so [`cpi_batch`] and
//! [`TpaIndex::query_batch_on`] run unchanged over the sequential
//! [`crate::Transition`], the multi-threaded [`crate::ParallelTransition`], and
//! the out-of-core [`crate::offcore::DiskGraph`] — each with its own
//! fused kernel.

use crate::{Propagator, TpaIndex};
use tpa_graph::NodeId;

/// A block of `B` interleaved score vectors (`lane j` of node `v` lives at
/// `v·B + j`).
pub struct ScoreBlock {
    n: usize,
    lanes: usize,
    data: Vec<f64>,
}

impl std::fmt::Debug for ScoreBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoreBlock")
            .field("n", &self.n)
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl ScoreBlock {
    /// Zeroed block for `n` nodes × `lanes` vectors.
    pub fn zeros(n: usize, lanes: usize) -> Self {
        Self { n, lanes, data: vec![0.0; n * lanes] }
    }

    /// Number of nodes (rows).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Extracts lane `j` as an ordinary vector.
    pub fn lane(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.copy_lane_into(j, &mut out);
        out
    }

    /// Copies lane `j` into `out` (length `n`).
    pub fn copy_lane_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.lanes);
        assert_eq!(out.len(), self.n);
        for (v, o) in out.iter_mut().enumerate() {
            *o = self.data[v * self.lanes + j];
        }
    }

    /// Overwrites lane `j` from `src` (length `n`).
    pub fn set_lane(&mut self, j: usize, src: &[f64]) {
        assert!(j < self.lanes);
        assert_eq!(src.len(), self.n);
        for (v, &s) in src.iter().enumerate() {
            self.data[v * self.lanes + j] = s;
        }
    }

    /// Unpacks every lane in **one** row-major pass over the block.
    /// Equivalent to `(0..lanes).map(|j| self.lane(j))`, but that form
    /// re-streams the whole interleaved block once per lane (`O(n·B²)`
    /// memory traffic — it dominates wide batches); this is `O(n·B)`.
    pub fn into_lanes(self) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = (0..self.lanes).map(|_| vec![0.0; self.n]).collect();
        for (v, row) in self.data.chunks_exact(self.lanes.max(1)).enumerate() {
            for (o, &r) in out.iter_mut().zip(row) {
                o[v] = r;
            }
        }
        out
    }

    /// The interleaved backing storage (`node v`'s row at `v·lanes..`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable interleaved backing storage (for fused backend kernels).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row of node `v` (all lanes), used by the fused gather kernels.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> &[f64] {
        &self.data[v * self.lanes..(v + 1) * self.lanes]
    }
}

/// Batched CPI over a window (one lane per seed); mirrors [`crate::cpi`]
/// but shares every edge traversal across the batch. Runs on any
/// [`Propagator`] backend.
pub fn cpi_batch<P: Propagator + ?Sized>(
    t: &P,
    seeds: &[NodeId],
    cfg: &crate::CpiConfig,
    start: usize,
    end: Option<usize>,
) -> ScoreBlock {
    cpi_batch_guarded(t, seeds, cfg, start, end, || false)
}

/// [`cpi_batch`] with an early-stop probe consulted before every fused
/// propagation step — the batched twin of the sweep-guard hook on the
/// scalar path, so a cancelled or deadline-expired batch request stops
/// at an iteration boundary instead of streaming the whole window. A
/// stopped run returns the partial window sum; the caller that
/// requested the stop discards it.
pub(crate) fn cpi_batch_guarded<P: Propagator + ?Sized>(
    t: &P,
    seeds: &[NodeId],
    cfg: &crate::CpiConfig,
    start: usize,
    end: Option<usize>,
    mut stop: impl FnMut() -> bool,
) -> ScoreBlock {
    cfg.validate();
    let n = t.n();
    let lanes = seeds.len();
    assert!(lanes > 0, "need at least one seed");
    let mut x = ScoreBlock::zeros(n, lanes);
    for (j, &s) in seeds.iter().enumerate() {
        assert!((s as usize) < n, "seed {s} out of range");
        x.data[s as usize * lanes + j] = cfg.c;
    }
    let mut next = ScoreBlock::zeros(n, lanes);
    let mut acc = ScoreBlock::zeros(n, lanes);

    // Lanes stop one by one: lane `j` adds `x(i)` while its single run
    // would, i.e. until its own `‖x(i)‖₁` drops below ε. Mass leaking
    // at dangling nodes gives every lane its own decay, so no shared
    // residual can stand in for them.
    let mut live = vec![true; lanes];
    let mut i = 0usize;
    accumulate_live(&mut acc, &x, &mut live, start == 0, cfg.eps);
    let hard_end = end.unwrap_or(usize::MAX);
    while live.contains(&true) && i < hard_end && i < cfg.max_iters && !stop() {
        i += 1;
        t.propagate_block_into(1.0 - cfg.c, &x, &mut next);
        std::mem::swap(&mut x.data, &mut next.data);
        accumulate_live(&mut acc, &x, &mut live, i >= start, cfg.eps);
    }
    acc
}

/// One fused pass over an iterate block: adds each live lane into the
/// window sum (when `add`) and folds every lane's `‖x(i)‖₁` in the
/// blocked-canonical association ([`crate::gather::blocked_norm`] per
/// lane), then retires the lanes whose residual fell below `eps` — the
/// same comparison, on the same bits, that stops the lane's single run.
fn accumulate_live(acc: &mut ScoreBlock, x: &ScoreBlock, live: &mut [bool], add: bool, eps: f64) {
    let lanes = x.lanes;
    let span = crate::gather::NORM_BLOCK * lanes;
    let mut norm = vec![0.0f64; lanes];
    let mut part = vec![0.0f64; lanes];
    for (acc_block, x_block) in acc.data.chunks_mut(span).zip(x.data.chunks(span)) {
        part.fill(0.0);
        for (acc_row, x_row) in acc_block.chunks_exact_mut(lanes).zip(x_block.chunks_exact(lanes)) {
            for (((a, &v), p), &l) in acc_row.iter_mut().zip(x_row).zip(&mut part).zip(&*live) {
                if add && l {
                    *a += v;
                }
                *p += v.abs();
            }
        }
        for (r, &p) in norm.iter_mut().zip(&part) {
            *r += p;
        }
    }
    for (l, &r) in live.iter_mut().zip(&norm) {
        *l &= r >= eps;
    }
}

impl TpaIndex {
    /// **Algorithm 3, batched**: answers every seed in one family sweep
    /// over any propagation backend (parallel, out-of-core, …) via its
    /// fused block kernel. Bitwise identical to calling
    /// [`TpaIndex::query_on`] per seed, with one edge pass per CPI
    /// iteration instead of `seeds.len()`.
    pub fn query_batch_on<P: Propagator + ?Sized>(&self, t: &P, seeds: &[NodeId]) -> Vec<Vec<f64>> {
        // Same admission guard as the scalar paths, rendered through
        // [`crate::TpaError`] so the message is uniform everywhere.
        // lint:allow(panic-freedom, "documented panicking convenience mirroring TpaIndex::query; the serving path goes through RwrService::submit, which admits seeds and index dimensions before any kernel runs")
        self.check_backend(t).unwrap_or_else(|e| panic!("{e}"));
        let params = *self.params();
        let family = cpi_batch(t, seeds, &params.cpi_config(), 0, Some(params.s - 1));
        let scale = params.neighbor_scale();
        // Single row-major pass: unpack each family row and fold in the
        // neighbor rescale + stranger term lane by lane, in the scalar
        // finish's association.
        let lanes = seeds.len();
        let n = family.n();
        let mut out: Vec<Vec<f64>> = (0..lanes).map(|_| vec![0.0; n]).collect();
        for (v, (row, &st)) in family.data.chunks_exact(lanes).zip(self.stranger()).enumerate() {
            for (o, &f) in out.iter_mut().zip(row) {
                o[v] = crate::tpa::finish_one(scale, f, st);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cpi, CpiConfig, ParallelTransition, SeedSet, TpaParams, Transition};
    use tpa_graph::gen::{lfr_lite, LfrConfig};
    use tpa_graph::{CsrGraph, DanglingPolicy, GraphBuilder};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(97);
        lfr_lite(LfrConfig { n: 300, m: 2400, ..Default::default() }, &mut rng).graph
    }

    /// A 10-cycle beside a chain `10→…→30` whose every node also points
    /// to the dangling sink 39: mass leaks at the sink, so a chain seed's
    /// residual decays far faster than a cycle seed's.
    fn leaky_graph() -> CsrGraph {
        let mut edges: Vec<(NodeId, NodeId)> = (0..10).map(|v| (v, (v + 1) % 10)).collect();
        edges.extend((10..30).map(|v| (v, v + 1)));
        edges.extend((10..=30).map(|v| (v, 39)));
        GraphBuilder::new(40).dangling_policy(DanglingPolicy::Keep).extend_edges(edges).build()
    }

    #[test]
    fn leaky_lanes_stop_at_their_own_convergence() {
        let g = leaky_graph();
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let seeds = [0u32, 10];
        let block = cpi_batch(&t, &seeds, &cfg, 0, None);
        for (j, &s) in seeds.iter().enumerate() {
            let single = cpi(&t, &SeedSet::single(s), &cfg, 0, None).scores;
            let lane = block.lane(j);
            assert!(lane.iter().zip(&single).all(|(a, b)| a.to_bits() == b.to_bits()), "seed {s}");
        }
    }

    #[test]
    fn batch_cpi_matches_individual_runs() {
        let g = test_graph();
        let t = Transition::new(&g);
        let cfg = CpiConfig::default();
        let seeds = [3u32, 100, 250];
        let block = cpi_batch(&t, &seeds, &cfg, 0, Some(6));
        for (j, &s) in seeds.iter().enumerate() {
            let single = cpi(&t, &SeedSet::single(s), &cfg, 0, Some(6)).scores;
            assert_eq!(block.lane(j), single, "lane {j}");
        }
    }

    #[test]
    fn batch_cpi_identical_across_backends() {
        let g = test_graph();
        let cfg = CpiConfig::default();
        let seeds = [1u32, 42, 160, 299];
        let seq = cpi_batch(&Transition::new(&g), &seeds, &cfg, 0, Some(8));
        for threads in [2usize, 5] {
            let par = cpi_batch(&ParallelTransition::new(&g, threads), &seeds, &cfg, 0, Some(8));
            assert_eq!(seq.data(), par.data(), "threads = {threads}");
        }
    }

    #[test]
    fn default_block_kernel_matches_fused() {
        // The lane-at-a-time default (used by backends without a fused
        // kernel) must be bit-identical to the fused in-memory kernel.
        struct Plain<'g>(Transition<'g>);
        impl Propagator for Plain<'_> {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn propagate_into(&self, coeff: f64, x: &[f64], y: &mut [f64]) {
                self.0.propagate_into(coeff, x, y);
            }
            // No propagate_block_into override: exercises the default.
        }
        let g = test_graph();
        let cfg = CpiConfig::default();
        let seeds = [7u32, 99, 288];
        let fused = cpi_batch(&Transition::new(&g), &seeds, &cfg, 0, Some(5));
        let plain = cpi_batch(&Plain(Transition::new(&g)), &seeds, &cfg, 0, Some(5));
        assert_eq!(fused.data(), plain.data());
    }

    #[test]
    fn batch_query_matches_single_queries() {
        let g = test_graph();
        let t = Transition::new(&g);
        let index = TpaIndex::preprocess(&g, TpaParams::new(5, 10));
        let seeds = [0u32, 7, 42, 299];
        let batch = index.query_batch_on(&t, &seeds);
        for (j, &s) in seeds.iter().enumerate() {
            assert_eq!(batch[j], index.query(&t, s), "seed {s}");
        }
    }

    #[test]
    fn single_lane_batch_equals_plain_query() {
        let g = test_graph();
        let t = Transition::new(&g);
        let index = TpaIndex::preprocess(&g, TpaParams::new(4, 9));
        assert_eq!(index.query_batch_on(&t, &[11])[0], index.query(&t, 11));
    }

    #[test]
    fn lane_extraction_roundtrip() {
        let mut b = ScoreBlock::zeros(4, 3);
        b.data[3 + 2] = 5.0;
        b.data[3 * 3] = 7.0;
        assert_eq!(b.lane(2), vec![0.0, 5.0, 0.0, 0.0]);
        assert_eq!(b.lane(0), vec![0.0, 0.0, 0.0, 7.0]);
        assert_eq!(b.lanes(), 3);
        let mut out = vec![0.0; 4];
        b.copy_lane_into(2, &mut out);
        assert_eq!(out, vec![0.0, 5.0, 0.0, 0.0]);
        b.set_lane(1, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.lane(1), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_batch() {
        let g = test_graph();
        let t = Transition::new(&g);
        cpi_batch(&t, &[], &CpiConfig::default(), 0, None);
    }
}
