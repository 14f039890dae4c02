//! TPA wrapped in the common [`RwrMethod`] interface so the experiment
//! harness can run it side by side with the competitors. Queries route
//! through an [`RwrService`] built once at preprocess, so this wrapper
//! serves the same requests (single, batched, top-k) as the production
//! path.

use crate::{MemoryBudget, PreprocessError, RwrMethod};
use std::sync::Arc;
use tpa_core::{QueryRequest, RwrService, ServiceBuilder, TpaError, TpaIndex, TpaParams};
use tpa_graph::{CsrGraph, NodeId};

/// The proposed method (paper Algorithms 2 & 3) as an [`RwrMethod`].
pub struct Tpa {
    service: RwrService,
    index: Arc<TpaIndex>,
}

impl Tpa {
    /// Runs the preprocessing phase (stranger approximation) and builds
    /// the service that answers every query (sharing the graph and the
    /// index, no copies).
    pub fn preprocess(
        graph: Arc<CsrGraph>,
        params: TpaParams,
        budget: MemoryBudget,
    ) -> Result<Self, PreprocessError> {
        // TPA's index is one f64 per node.
        budget.check("TPA", graph.n() * 8)?;
        let index = Arc::new(TpaIndex::preprocess(&graph, params));
        let service = ServiceBuilder::in_memory(graph)
            .index(Arc::clone(&index))
            .build()
            .map_err(|e| PreprocessError::Numerical("TPA", e.to_string()))?;
        Ok(Self { service, index })
    }

    /// Access to the inner index (for part-wise experiments).
    pub fn index(&self) -> &TpaIndex {
        &self.index
    }

    /// Runs one request; panics with the rendered [`TpaError`], like
    /// every other [`RwrMethod`] on a bad seed.
    fn scores(&self, req: &QueryRequest) -> Vec<Vec<f64>> {
        self.service
            .submit(req)
            .map(|resp| resp.result.into_scores())
            .unwrap_or_else(|e: TpaError| panic!("{e}"))
    }
}

impl RwrMethod for Tpa {
    fn name(&self) -> &'static str {
        "TPA"
    }

    fn query(&self, seed: NodeId) -> Vec<f64> {
        self.scores(&QueryRequest::single(seed)).pop().unwrap_or_default()
    }

    fn index_bytes(&self) -> usize {
        self.index.index_bytes()
    }

    /// Batched override: lane tiles of seeds share edge passes through
    /// the service's fused block kernel (bit-identical to per-seed
    /// queries).
    fn query_batch(&self, seeds: &[NodeId]) -> Vec<Vec<f64>> {
        self.scores(&QueryRequest::batch(seeds.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_core::{bounds, Transition};
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn l1_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    #[test]
    fn wrapper_matches_direct_index() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(43);
        let g =
            Arc::new(lfr_lite(LfrConfig { n: 250, m: 2000, ..Default::default() }, &mut rng).graph);
        let params = TpaParams::new(5, 10);
        let tpa = Tpa::preprocess(Arc::clone(&g), params, MemoryBudget::unlimited()).unwrap();
        let direct = TpaIndex::preprocess(&g, params);
        let t = Transition::new(&g);
        assert_eq!(tpa.query(9), direct.query(&t, 9));
        assert_eq!(tpa.index_bytes(), g.n() * 8);
    }

    #[test]
    fn respects_error_bound_via_wrapper() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let g =
            Arc::new(lfr_lite(LfrConfig { n: 250, m: 2000, ..Default::default() }, &mut rng).graph);
        let params = TpaParams::new(4, 9);
        let tpa = Tpa::preprocess(Arc::clone(&g), params, MemoryBudget::unlimited()).unwrap();
        let exact = tpa_core::exact_rwr(&g, 77, &params.cpi_config());
        let err = l1_dist(&tpa.query(77), &exact);
        assert!(err <= bounds::total_bound(params.c, params.s) + 1e-9);
    }

    #[test]
    fn batched_entry_point_is_bitwise_identical() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(45);
        let g =
            Arc::new(lfr_lite(LfrConfig { n: 250, m: 2000, ..Default::default() }, &mut rng).graph);
        let tpa = Tpa::preprocess(Arc::clone(&g), TpaParams::new(5, 10), MemoryBudget::unlimited())
            .unwrap();
        let seeds = [0u32, 17, 99, 200];
        let batch = tpa.query_batch(&seeds);
        for (j, &s) in seeds.iter().enumerate() {
            assert_eq!(batch[j], tpa.query(s), "seed {s}");
        }
    }

    #[test]
    fn empty_batch_matches_trait_contract() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        let g =
            Arc::new(lfr_lite(LfrConfig { n: 100, m: 800, ..Default::default() }, &mut rng).graph);
        let tpa = Tpa::preprocess(Arc::clone(&g), TpaParams::new(4, 9), MemoryBudget::unlimited())
            .unwrap();
        // Same behavior as the blanket default: empty in, empty out.
        assert!(tpa.query_batch(&[]).is_empty());
        assert!(tpa.query_batch_top_k(&[], 3).is_empty());
    }

    #[test]
    fn top_k_entry_points_agree_with_scores() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(46);
        let g =
            Arc::new(lfr_lite(LfrConfig { n: 200, m: 1600, ..Default::default() }, &mut rng).graph);
        let tpa = Tpa::preprocess(Arc::clone(&g), TpaParams::new(5, 10), MemoryBudget::unlimited())
            .unwrap();
        let scores = tpa.query(11);
        let ranked = tpa.query_top_k(11, 5);
        assert_eq!(ranked.len(), 5);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "ranking not descending");
        }
        assert_eq!(ranked[0].1, scores.iter().cloned().fold(f64::MIN, f64::max));
        let batch_ranked = tpa.query_batch_top_k(&[11, 42], 5);
        assert_eq!(batch_ranked[0], ranked);
    }
}
