//! Host-speed reference: a fixed pull-gather pass, owned by the benchmark
//! and sharing no code with the program, timed between reads.
//!
//! The benchmark's host shares its memory system with other tenants, and
//! a memory-bound pass there runs up to ~1.6× slower for seconds at a
//! time, whatever this process does. A read is memory-bound in the same
//! way, so the end-to-end read and set-up figures are reported at a
//! reference host speed: each read's latency, and each build's time, is
//! scaled by `REF_MS / (median of the probe passes nearest to it in time)`. The probe's inputs are fixed, so a
//! change to the program cannot change its cost; only the host can.

use crate::stats::median;
use std::time::Instant;

/// Nodes and edges of the probe's graph: the served graph's size class,
/// so the probe lives in the same cache level as a read's sweep.
const PROBE_N: usize = 100_000;
const PROBE_M: usize = 1_000_000;
/// One probe pass on a quiet host (2-vCPU Intel Xeon VM, 2.0 GHz,
/// L2 2 MiB, L3 105 MiB), in ms. Scaled figures are read as "ms on that
/// host when nothing else loads its memory".
pub const REF_MS: f64 = 1.3;
/// Passes each read's scale is taken from: the ones nearest in time.
const NEAREST: usize = 16;

/// A CSR graph with skewed sources and the two vectors of a gather.
pub struct Probe {
    offsets: Vec<u32>,
    sources: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        // splitmix64 with a fixed seed: the same graph on every run.
        let mut state = 0x5eed_0f9a_0be5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let per_row = PROBE_M / PROBE_N;
        let offsets = (0..=PROBE_N).map(|v| (v * per_row) as u32).collect();
        // Squaring a uniform draw skews sources towards low ids, the way
        // a power-law graph's gathers favour its hubs.
        let sources = (0..PROBE_M)
            .map(|_| {
                let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                ((u * u * PROBE_N as f64) as usize).min(PROBE_N - 1) as u32
            })
            .collect();
        Self { offsets, sources, x: vec![1.0 / PROBE_N as f64; PROBE_N], y: vec![0.0; PROBE_N] }
    }

    /// Runs one pass `y[v] = 0.85 · Σ x[u]` over `v`'s sources; its time in ms.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let x = std::hint::black_box(&self.x);
        for (v, y) in self.y.iter_mut().enumerate() {
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            *y = 0.85 * self.sources[lo..hi].iter().map(|&u| x[u as usize]).sum::<f64>();
        }
        std::hint::black_box(&self.y);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// `REF_MS` over the median of `passes`: the factor that takes a time
/// measured while they ran to the reference host speed.
pub fn scale(passes: &[f64]) -> f64 {
    REF_MS / median(passes)
}

/// Probe passes of one run, in time order.
#[derive(Default)]
pub struct ProbeLog {
    pub at: Vec<Instant>,
    pub ms: Vec<f64>,
}

impl ProbeLog {
    pub fn push(&mut self, at: Instant, ms: f64) {
        self.at.push(at);
        self.ms.push(ms);
    }

    /// [`scale`] of the `NEAREST` passes closest to `t`; 1 when no pass
    /// was made.
    pub fn scale_at(&self, t: Instant) -> f64 {
        if self.ms.is_empty() {
            return 1.0;
        }
        let i = self.at.partition_point(|&a| a < t);
        let lo = i.saturating_sub(NEAREST / 2).min(self.ms.len().saturating_sub(NEAREST));
        let hi = (lo + NEAREST).min(self.ms.len());
        scale(&self.ms[lo..hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scale_uses_the_nearest_passes() {
        let t0 = Instant::now();
        let mut log = ProbeLog::default();
        for i in 0..64u32 {
            let slow = if i < 32 { 1.0 } else { 2.0 };
            log.push(t0 + Duration::from_millis(10 * i as u64), REF_MS * slow);
        }
        assert_eq!(log.scale_at(t0), 1.0);
        assert_eq!(log.scale_at(t0 + Duration::from_secs(10)), 0.5);
        assert_eq!(ProbeLog::default().scale_at(t0), 1.0);
    }
}
