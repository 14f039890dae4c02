//! # tpa-graph — graph substrate for the TPA reproduction
//!
//! Storage, construction, random generation and serialization of the
//! directed graphs on which Random Walk with Restart runs.
//!
//! * [`CsrGraph`] — immutable CSR + CSC adjacency (the `O(n + m)` structure
//!   of the paper's Theorem 4).
//! * [`GraphBuilder`] — edge-list staging with dedup / self-loop /
//!   dangling-node policies.
//! * [`DynamicGraph`] — delta-overlay mutability: insert/delete patches
//!   over a CSR snapshot with a merged neighbor view and threshold-
//!   triggered compaction (the substrate of the dynamic-RWR subsystem).
//! * [`gen`] — deterministic generators: Erdős–Rényi, Chung–Lu, R-MAT,
//!   SBM, LFR-lite (power-law degrees + planted communities), plus
//!   null-model rewiring controls for Fig. 6.
//! * [`io`] — SNAP/KONECT edge-list parsing and a binary snapshot codec.
//! * [`mod@reorder`] — cache-locality relabeling: [`Permutation`] plus
//!   degree-descending / RCM / hub-cluster orderings consumed by the
//!   propagation engine ([`CsrGraph::permuted`] applies one).
//!
//! ```
//! use tpa_graph::{CsrGraph, GraphBuilder};
//!
//! let g = GraphBuilder::new(3).extend_edges([(0, 1), (1, 2), (2, 0)]).build();
//! assert_eq!(g.n(), 3);
//! assert_eq!(g.out_neighbors(0), &[1]);
//! assert_eq!(g.in_neighbors(0), &[2]);
//! ```

#![warn(missing_docs)]

/// Dense node identifier (`0..n`). `u32` halves the memory of the edge
/// arrays relative to `usize` on 64-bit platforms — the dominant storage
/// term for billion-edge graphs.
pub type NodeId = u32;

pub mod algo;
mod builder;
mod csr;
pub mod dynamic;
pub mod gen;
pub mod io;
pub mod reorder;
pub mod weighted;

pub use builder::{DanglingPolicy, GraphBuilder};
pub use csr::CsrGraph;
pub use dynamic::{ApplyStats, DynamicGraph, EdgeUpdate, MergedNeighbors};
pub use reorder::{reorder, Permutation, ReorderStrategy};
pub use weighted::{unit_weights, WeightedCsrGraph, WeightedGraphBuilder};
