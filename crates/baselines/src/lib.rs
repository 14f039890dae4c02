//! # tpa-baselines — every competitor method from the paper's evaluation
//!
//! From-scratch implementations of the methods TPA is compared against
//! (paper §IV/§V), all behind one [`RwrMethod`] interface:
//!
//! | Type | Paper method | Kind |
//! |---|---|---|
//! | [`PowerIteration`] | exact CPI baseline | online-only, exact |
//! | [`ForwardPush`] | Andersen et al. \[1\] | online-only, approximate |
//! | [`MonteCarlo`] | classic MC RWR | online-only, approximate |
//! | [`Fora`] / [`ForaIndex`] | FORA / FORA+ \[27\] | push + MC (+ walk index) |
//! | [`Brppr`] | BRPPR \[6\] | online-only, local |
//! | [`NbLin`] | NB-LIN \[25\] | low-rank preprocessing |
//! | [`BearApprox`] | BEAR-APPROX \[22\] | block elimination, drop tol |
//! | [`HubPpr`] | HubPPR \[26\] | bidirectional + hub index |
//! | [`BePi`] | BePI \[12\] | exact block elim. + iterative |
//! | [`Tpa`] | **TPA (this paper)** | stranger + neighbor approx |
//!
//! Preprocessing methods accept a [`MemoryBudget`] reproducing the paper's
//! 200 GB machine cap: a method whose estimated index exceeds the budget
//! fails with [`PreprocessError::OutOfMemory`] instead of building it
//! (the "bars omitted" cases of Fig. 1).

#![warn(missing_docs)]

mod bear;
mod bepi;
mod bippr;
mod blockelim;
mod brppr;
mod fora;
mod forward_push;
mod hubppr;
mod monte_carlo;
mod nblin;
mod power_iteration;
mod rppr;
mod slashburn;
mod tpa_method;

pub use bear::{BearApprox, BearConfig};
pub use bepi::{BePi, BePiConfig};
pub use bippr::{Bippr, BipprConfig};
pub use brppr::{Brppr, BrpprConfig};
pub use fora::{Fora, ForaConfig, ForaIndex};
pub use forward_push::{forward_push, ForwardPush, PushResult};
pub use hubppr::{HubPpr, HubPprConfig};
pub use monte_carlo::{MonteCarlo, MonteCarloConfig};
pub use nblin::{NbLin, NbLinConfig};
pub use power_iteration::PowerIteration;
pub use rppr::{Rppr, RpprConfig};
pub use slashburn::{hub_spoke_order, HubSpokeOrdering, SlashburnConfig};
pub use tpa_method::Tpa;

use tpa_graph::NodeId;

/// A queryable RWR method: given a seed node, produce the full approximate
/// (or exact) RWR score vector. Preprocessing, if any, happened at
/// construction time.
///
/// Every implementor also serves the [`tpa_core::QueryRequest`] shapes
/// — multi-seed batches and top-k rankings — through the provided
/// methods below, so the serving layer can drive any method
/// interchangeably. Methods with a faster batched path (e.g. [`Tpa`],
/// whose fused block kernel shares edge passes across each lane tile of the batch) override
/// [`RwrMethod::query_batch`].
pub trait RwrMethod {
    /// Human-readable method name as used in the paper's figures.
    fn name(&self) -> &'static str;
    /// Full RWR score vector for `seed`.
    fn query(&self, seed: NodeId) -> Vec<f64>;
    /// Bytes of preprocessed data this method must keep for the online
    /// phase (0 for online-only methods) — the y-axis of Fig. 1(a).
    fn index_bytes(&self) -> usize;

    /// Full score vectors for a batch of seeds, in order. The default
    /// answers seeds one by one; override when a shared-pass kernel
    /// exists. Must return exactly what per-seed [`RwrMethod::query`]
    /// calls would.
    fn query_batch(&self, seeds: &[NodeId]) -> Vec<Vec<f64>> {
        seeds.iter().map(|&s| self.query(s)).collect()
    }

    /// The `k` best `(node, score)` pairs for `seed`, best first, ties
    /// toward lower ids — partial selection, no full sort.
    fn query_top_k(&self, seed: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        tpa_core::top_k_scored(&self.query(seed), k)
    }

    /// Top-k rankings for a whole batch (batched scoring + partial
    /// selection per lane).
    fn query_batch_top_k(&self, seeds: &[NodeId], k: usize) -> Vec<Vec<(NodeId, f64)>> {
        self.query_batch(seeds).iter().map(|scores| tpa_core::top_k_scored(scores, k)).collect()
    }
}

/// Memory cap for preprocessing, reproducing the paper's 200 GB workstation
/// limit at our scaled-down sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryBudget(pub Option<usize>);

impl MemoryBudget {
    /// No cap.
    pub fn unlimited() -> Self {
        MemoryBudget(None)
    }

    /// Cap at `bytes`.
    pub fn bytes(bytes: usize) -> Self {
        MemoryBudget(Some(bytes))
    }

    /// Errors if `estimated` exceeds the budget.
    pub fn check(&self, method: &'static str, estimated: usize) -> Result<(), PreprocessError> {
        match self.0 {
            Some(limit) if estimated > limit => Err(PreprocessError::OutOfMemory {
                method,
                estimated_bytes: estimated,
                budget_bytes: limit,
            }),
            _ => Ok(()),
        }
    }
}

/// Preprocessing failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PreprocessError {
    /// Estimated index size exceeds the memory budget (the paper's ">200GB"
    /// omitted bars).
    OutOfMemory {
        /// Method that failed.
        method: &'static str,
        /// Estimated index size in bytes.
        estimated_bytes: usize,
        /// Budget that was exceeded.
        budget_bytes: usize,
    },
    /// Numerical failure (singular block, non-convergence).
    Numerical(&'static str, String),
}

impl std::fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreprocessError::OutOfMemory { method, estimated_bytes, budget_bytes } => write!(
                f,
                "{method}: estimated index {estimated_bytes}B exceeds budget {budget_bytes}B (OOM)"
            ),
            PreprocessError::Numerical(method, msg) => write!(f, "{method}: {msg}"),
        }
    }
}

impl std::error::Error for PreprocessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_unlimited_never_fails() {
        assert!(MemoryBudget::unlimited().check("x", usize::MAX).is_ok());
    }

    #[test]
    fn budget_enforced() {
        let b = MemoryBudget::bytes(100);
        assert!(b.check("x", 100).is_ok());
        let err = b.check("x", 101).unwrap_err();
        match err {
            PreprocessError::OutOfMemory { estimated_bytes, budget_bytes, .. } => {
                assert_eq!(estimated_bytes, 101);
                assert_eq!(budget_bytes, 100);
            }
            other => panic!("unexpected {other}"),
        }
    }
}
