//! The CPI step's gather kernels and the dense dispatch every in-memory
//! backend shares.
//!
//! The step `y ← coeff·Ãᵀ·x` is a *gather* over in-edges: destination
//! `v` folds `x[u]·(1/outdeg u)` over its in-neighbors `u` in ascending
//! order, left to right, and applies `coeff` once at the end. Writes are
//! sequential; the reads of `x` are the random part, so locality comes
//! from the node ordering (`tpa_graph::reorder`), not from the kernel.
//!
//! [`crate::Transition`], [`crate::ParallelTransition`], the dynamic
//! overlay and its published [`crate::PatchedTransition`] all run this
//! one chain through [`propagate`], [`propagate_norm`] and
//! [`propagate_block`]. They differ only in the row view they pass
//! ([`InAdjacency`]) and their destination ranges, which is what keeps
//! every backend bitwise equal to every other.

use crate::batch::ScoreBlock;
use std::ops::Range;
use tpa_graph::{CsrGraph, NodeId};

/// Block size of the canonical residual fold. Every `‖y‖₁` the engine
/// computes — fused into a dense kernel, scanned after a parallel
/// propagation, or folded over a sparse frontier's reachable set — uses
/// the same two-level association: the absolute values of each aligned
/// `NORM_BLOCK`-sized block are folded left in index order into a
/// per-block partial, and the partials are folded left in ascending
/// block order. Worker ranges that end on block boundaries can therefore
/// fold their partials locally and let the caller combine them — the
/// `O(n)` residual scan parallelizes — while staying **bitwise
/// identical** to the sequential backends (and, for `n ≤ NORM_BLOCK`,
/// to a plain index-order scan: `0.0 + partial` is exact).
pub(crate) const NORM_BLOCK: usize = 4096;

/// The canonical residual: two-level blocked fold of `Σ|y|` (see
/// [`NORM_BLOCK`]). Every backend's `propagate_into_norm` and every
/// sparse-path residual must match this chain bit for bit.
pub(crate) fn blocked_norm(y: &[f64]) -> f64 {
    y.chunks(NORM_BLOCK)
        .fold(0.0f64, |acc, chunk| acc + chunk.iter().fold(0.0f64, |a, v| a + v.abs()))
}

/// Fills `parts` with the per-block partials of a block-aligned local
/// slice (`parts[k]` = the `k`-th `NORM_BLOCK` chunk's index-order
/// `Σ|·|` fold). The inner level of the canonical association.
fn norm_parts(slice: &[f64], parts: &mut [f64]) {
    debug_assert_eq!(parts.len(), slice.len().div_ceil(NORM_BLOCK));
    for (part, chunk) in parts.iter_mut().zip(slice.chunks(NORM_BLOCK)) {
        *part = chunk.iter().fold(0.0f64, |a, v| a + v.abs());
    }
}

/// Ascending fold of per-block partials — the outer level of the
/// canonical association.
fn fold_norm_parts(parts: &[f64]) -> f64 {
    parts.iter().fold(0.0f64, |a, &p| a + p)
}

/// True when every interior range boundary is a [`NORM_BLOCK`] multiple
/// — the precondition for composing per-worker residual partials into
/// the canonical fold. [`balance_ranges`] guarantees this whenever the
/// graph has at least one block per worker.
fn ranges_block_aligned(ranges: &[(u32, u32)]) -> bool {
    let interior = ranges.len().saturating_sub(1);
    ranges.iter().take(interior).all(|&(_, end)| (end as usize).is_multiple_of(NORM_BLOCK))
}

/// A destination-row source for the gather kernels: node `v`'s
/// in-neighbors as one ascending slice. Implemented by [`CsrGraph`]
/// (plain CSC rows) and by the dynamic backend's merged-row view, so all
/// backends share the same monomorphized kernels.
pub(crate) trait InAdjacency {
    /// In-neighbor row of destination `v`, ascending.
    fn in_row(&self, v: NodeId) -> &[NodeId];
}

impl InAdjacency for CsrGraph {
    #[inline]
    fn in_row(&self, v: NodeId) -> &[NodeId] {
        self.in_neighbors(v)
    }
}

/// Flat scalar gather for destinations `range`, writing into `y_local`
/// (`y_local[0]` is node `range.start`). Returns the range's `Σ|y|` in
/// the blocked-canonical association (per-[`NORM_BLOCK`] partials folded
/// ascending, blocks aligned to *global* node ids) — the convergence
/// residual, for free (see
/// [`crate::Propagator::propagate_into_norm`]).
pub(crate) fn gather_flat<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &[f64],
    y_local: &mut [f64],
    range: Range<NodeId>,
) -> f64 {
    debug_assert_eq!(y_local.len(), range.len());
    let mut norm = 0.0f64;
    let mut part = 0.0f64;
    let mut until = NORM_BLOCK - (range.start as usize % NORM_BLOCK);
    for (y, v) in y_local.iter_mut().zip(range) {
        let row = adj.in_row(v);
        // Degree-zero rows skip the fold (and the coeff multiply:
        // `coeff · 0.0 = 0.0` for the positive coefficients CPI uses).
        *y = if row.is_empty() {
            0.0
        } else {
            coeff * row.iter().fold(0.0, |a, &u| a + x[u as usize] * inv[u as usize])
        };
        part += y.abs();
        until -= 1;
        if until == 0 {
            norm += part;
            part = 0.0;
            until = NORM_BLOCK;
        }
    }
    if until != NORM_BLOCK {
        norm += part;
    }
    norm
}

/// One source's contribution to a block row: `yrow += w · xrow`.
#[inline]
fn block_row_add(yrow: &mut [f64], xrow: &[f64], w: f64) {
    for (yj, xj) in yrow.iter_mut().zip(xrow) {
        *yj += xj * w;
    }
}

/// Flat fused block gather for destinations `range` into the row-aligned
/// slice `y_local` (lane width from `x`; `y_local`'s first row is node
/// `range.start`).
fn block_gather_flat<A: InAdjacency + ?Sized>(
    adj: &A,
    inv: &[f64],
    coeff: f64,
    x: &ScoreBlock,
    y_local: &mut [f64],
    range: Range<NodeId>,
) {
    let lanes = x.lanes();
    debug_assert_eq!(y_local.len(), range.len() * lanes);
    for (yrow, v) in y_local.chunks_exact_mut(lanes).zip(range) {
        yrow.fill(0.0);
        for &u in adj.in_row(v) {
            let w = inv[u as usize];
            if w == 0.0 {
                continue;
            }
            block_row_add(yrow, x.row(u as usize), w);
        }
        for e in yrow.iter_mut() {
            *e *= coeff;
        }
    }
}

/// Dense step `y ← coeff·Ãᵀ·x` over `adj`, split over the destination
/// `ranges` (one range runs inline on the calling thread; more fan out
/// through [`par_ranges`]). `inv` is the per-source `1/outdeg` and
/// fixes `n`.
pub(crate) fn propagate<A: InAdjacency + Sync + ?Sized>(
    adj: &A,
    inv: &[f64],
    ranges: &[(u32, u32)],
    coeff: f64,
    x: &[f64],
    y: &mut [f64],
) {
    assert_eq!(x.len(), inv.len(), "input vector length mismatch");
    assert_eq!(y.len(), inv.len(), "output vector length mismatch");
    if let [(start, end)] = *ranges {
        gather_flat(adj, inv, coeff, x, y, start..end);
        return;
    }
    par_ranges(ranges, 1, y, |slice, start, end| {
        gather_flat(adj, inv, coeff, x, slice, start..end);
    });
}

/// [`propagate`] that also returns `‖y‖₁` in the blocked-canonical
/// association. One range fuses the fold into the kernel; block-aligned
/// ranges fold per-worker partials ([`par_ranges_norm`]); any other
/// split propagates and pays one sequential [`blocked_norm`] scan.
/// All three produce the same bits.
pub(crate) fn propagate_norm<A: InAdjacency + Sync + ?Sized>(
    adj: &A,
    inv: &[f64],
    ranges: &[(u32, u32)],
    coeff: f64,
    x: &[f64],
    y: &mut [f64],
) -> f64 {
    assert_eq!(x.len(), inv.len(), "input vector length mismatch");
    assert_eq!(y.len(), inv.len(), "output vector length mismatch");
    if let [(start, end)] = *ranges {
        return gather_flat(adj, inv, coeff, x, y, start..end);
    }
    if ranges_block_aligned(ranges) {
        return par_ranges_norm(ranges, y, |slice, start, end| {
            gather_flat(adj, inv, coeff, x, slice, start..end);
        });
    }
    propagate(adj, inv, ranges, coeff, x, y);
    blocked_norm(y)
}

/// Fused block step `Y ← coeff·Ãᵀ·X` over every lane, split over
/// `ranges` like [`propagate`]: each worker owns a band of destination
/// rows (`lanes` floats per node), so writes stay disjoint.
pub(crate) fn propagate_block<A: InAdjacency + Sync + ?Sized>(
    adj: &A,
    inv: &[f64],
    ranges: &[(u32, u32)],
    coeff: f64,
    x: &ScoreBlock,
    y: &mut ScoreBlock,
) {
    assert_eq!(x.n(), inv.len(), "input block height mismatch");
    assert_eq!(y.n(), inv.len(), "output block height mismatch");
    assert_eq!(x.lanes(), y.lanes(), "lane count mismatch");
    if let [(start, end)] = *ranges {
        block_gather_flat(adj, inv, coeff, x, y.data_mut(), start..end);
        return;
    }
    par_ranges(ranges, x.lanes(), y.data_mut(), |slice, start, end| {
        block_gather_flat(adj, inv, coeff, x, slice, start..end)
    });
}

/// Fan-out shared by the dense helpers and the sparse frontier step:
/// splits `y` into per-range row-aligned slices (`row_width` = 1 for
/// scalar, `lanes` for blocks) and runs `work(slice, start, end)` on
/// each range in its own scoped worker. Disjoint writes, shared reads —
/// bit-identical to running the ranges sequentially.
pub(crate) fn par_ranges<F>(ranges: &[(u32, u32)], row_width: usize, y: &mut [f64], work: F)
where
    F: Fn(&mut [f64], u32, u32) + Sync,
{
    let mut slices: Vec<&mut [f64]> = Vec::with_capacity(ranges.len());
    let mut rest = y;
    for &(start, end) in ranges {
        let (head, tail) = rest.split_at_mut((end - start) as usize * row_width);
        slices.push(head);
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (slice, &(start, end)) in slices.into_iter().zip(ranges) {
            let work = &work;
            scope.spawn(move || work(slice, start, end));
        }
    });
}

/// [`par_ranges`] with the residual fold parallelized: each worker
/// propagates its band via `work`, then folds its own per-[`NORM_BLOCK`]
/// partials over the just-written (cache-warm) slice; the calling thread
/// folds all partials in ascending block order. The two-level chain is
/// exactly [`blocked_norm`] of the full output, so the returned residual
/// is bitwise identical to the sequential backends'. Requires
/// block-aligned ranges (see [`ranges_block_aligned`]).
fn par_ranges_norm<F>(ranges: &[(u32, u32)], y: &mut [f64], work: F) -> f64
where
    F: Fn(&mut [f64], u32, u32) + Sync,
{
    debug_assert!(ranges_block_aligned(ranges));
    let blocks_of = |(start, end): (u32, u32)| {
        (end as usize).div_ceil(NORM_BLOCK) - start as usize / NORM_BLOCK
    };
    let total_blocks: usize = ranges.iter().map(|&r| blocks_of(r)).sum();
    let mut parts = vec![0.0f64; total_blocks];
    let mut y_slices: Vec<&mut [f64]> = Vec::with_capacity(ranges.len());
    let mut part_slices: Vec<&mut [f64]> = Vec::with_capacity(ranges.len());
    let (mut y_rest, mut p_rest) = (y, parts.as_mut_slice());
    for &(start, end) in ranges {
        let (head, tail) = y_rest.split_at_mut((end - start) as usize);
        y_slices.push(head);
        y_rest = tail;
        let (head, tail) = p_rest.split_at_mut(blocks_of((start, end)));
        part_slices.push(head);
        p_rest = tail;
    }
    std::thread::scope(|scope| {
        for ((slice, parts), &(start, end)) in
            y_slices.into_iter().zip(part_slices).zip(ranges.iter())
        {
            let work = &work;
            scope.spawn(move || {
                work(slice, start, end);
                norm_parts(slice, parts);
            });
        }
    });
    fold_norm_parts(&parts)
}

/// Destination ranges for `threads` workers over `n` nodes, balanced by
/// in-edge count via the CSC offset array (power-law graphs concentrate
/// edges on few destinations, so node-count splits starve most workers).
/// Every range is non-empty; an edgeless graph falls back to node-count
/// balancing. Shared by the parallel and dynamic backends.
///
/// Whenever the graph has at least one [`NORM_BLOCK`] per worker, range
/// boundaries are snapped to block multiples so the fused residual fold
/// can compose per-worker partials (see [`par_ranges_norm`]); smaller
/// graphs keep the node-granular split — their sequential residual scan
/// is cheap anyway.
pub(crate) fn balance_ranges(in_offsets: &[usize], threads: usize) -> Vec<(u32, u32)> {
    let n = in_offsets.len() - 1;
    let m = in_offsets[n];
    let threads = threads.clamp(1, n.max(1));
    let blocks = n.div_ceil(NORM_BLOCK).max(1);
    if blocks >= threads {
        let block_end = |b: usize| (b * NORM_BLOCK).min(n);
        let mut ranges = Vec::with_capacity(threads);
        let mut start_b = 0usize;
        for w in 0..threads {
            let end_b = if w + 1 == threads {
                blocks
            } else if m == 0 {
                blocks * (w + 1) / threads
            } else {
                // First block boundary at or past this worker's edge
                // share, clamped so this range and every later one keep
                // at least one block.
                let target = (m * (w + 1)).div_ceil(threads);
                let mut e = start_b;
                while e < blocks && in_offsets[block_end(e + 1)] <= target {
                    e += 1;
                }
                e.max(start_b + 1).min(blocks - (threads - w - 1))
            };
            ranges.push((block_end(start_b) as u32, block_end(end_b) as u32));
            start_b = end_b;
        }
        return ranges;
    }
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for w in 0..threads {
        let end = if w + 1 == threads {
            n
        } else if m == 0 {
            // No edges to balance: split nodes evenly.
            n * (w + 1) / threads
        } else {
            // First node boundary at or past this worker's edge share,
            // clamped so this range and every later one stay non-empty.
            let target = (m * (w + 1)).div_ceil(threads);
            let mut end = start;
            while end < n && in_offsets[end + 1] <= target {
                end += 1;
            }
            end.max(start + 1).min(n - (threads - w - 1))
        };
        ranges.push((start as u32, end as u32));
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_graph::gen::{lfr_lite, LfrConfig};

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        lfr_lite(LfrConfig { n: 300, m: 3600, ..Default::default() }, &mut rng).graph
    }

    #[test]
    fn kernels_return_the_index_order_residual() {
        let g = test_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 29) as f64 / 29.0 - 0.4).collect();
        let mut y = vec![0.0; n];
        let flat_norm = gather_flat(&g, &inv, 0.85, &x, &mut y, 0..n as NodeId);
        let scan: f64 = y.iter().map(|v| v.abs()).sum();
        assert_eq!(flat_norm.to_bits(), scan.to_bits());
    }

    #[test]
    fn ranges_balance_and_cover() {
        let g = test_graph();
        for threads in [1usize, 2, 5, 16, 1000] {
            let ranges = balance_ranges(g.in_offsets(), threads);
            let mut covered = 0u32;
            for &(start, end) in &ranges {
                assert_eq!(start, covered);
                assert!(end > start);
                covered = end;
            }
            assert_eq!(covered as usize, g.n());
        }
    }

    /// A graph spanning several norm blocks (n > 2·NORM_BLOCK).
    fn multi_block_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        lfr_lite(LfrConfig { n: 3 * NORM_BLOCK + 777, m: 80_000, ..Default::default() }, &mut rng)
            .graph
    }

    #[test]
    fn large_ranges_snap_to_norm_blocks() {
        let g = multi_block_graph();
        for threads in [2usize, 3] {
            let ranges = balance_ranges(g.in_offsets(), threads);
            assert_eq!(ranges.len(), threads);
            assert!(ranges_block_aligned(&ranges), "{ranges:?}");
            let mut covered = 0u32;
            for &(start, end) in &ranges {
                assert_eq!(start, covered);
                assert!(end > start);
                covered = end;
            }
            assert_eq!(covered as usize, g.n());
        }
        // More workers than blocks: node-granular fallback, unaligned.
        let ranges = balance_ranges(g.in_offsets(), 64);
        assert_eq!(ranges.len(), 64);
    }

    #[test]
    fn fused_residual_is_the_blocked_canonical_fold() {
        let g = multi_block_graph();
        let inv = g.inv_out_degrees();
        let n = g.n();
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 83) as f64 / 83.0 - 0.2).collect();
        let mut y = vec![0.0; n];
        let flat_norm = gather_flat(&g, &inv, 0.85, &x, &mut y, 0..n as NodeId);
        assert_eq!(flat_norm.to_bits(), blocked_norm(&y).to_bits());
        // Per-worker partials over block-aligned ranges compose into the
        // same canonical fold.
        let ranges = balance_ranges(g.in_offsets(), 3);
        assert!(ranges_block_aligned(&ranges));
        let mut y3 = vec![0.0; n];
        let par_norm = par_ranges_norm(&ranges, &mut y3, |slice, start, end| {
            gather_flat(&g, &inv, 0.85, &x, slice, start..end);
        });
        assert_eq!(y3, y);
        assert_eq!(par_norm.to_bits(), flat_norm.to_bits());
    }
}
