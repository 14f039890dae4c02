//! TPA: the two-phase approximation itself (paper §III, Algorithms 2 & 3).

use crate::cpi::{cpi_probed, SweepProbe};
use crate::dynamic::{propagate_offset_policy, MaintenanceMode, RefreshStats};
use crate::{cpi, CpiConfig, CpiResult, FrontierPolicy, SeedSet, TpaError, Transition};
use tpa_graph::{CsrGraph, NodeId, Permutation};

/// One node's [`TpaIndex::finish_family`] fold:
/// `family + (scale·family + stranger_v)`, in exactly that association.
/// Every path that turns a family score into a final TPA score — the
/// dense finish loop and the bounded top-k checker — must go through
/// this helper so their floating-point results stay bitwise identical.
/// The chain is monotone nondecreasing in `family` (each rounded op is),
/// which is what makes it usable on score lower/upper bounds.
#[inline]
pub(crate) fn finish_one(scale: f64, family: f64, stranger_v: f64) -> f64 {
    family + (scale * family + stranger_v)
}

/// TPA parameters: restart probability, tolerance, and the two split
/// points of the CPI iteration series.
#[derive(Clone, Copy, Debug)]
pub struct TpaParams {
    /// Restart probability `c`.
    pub c: f64,
    /// Convergence tolerance ε for the preprocessing CPI run.
    pub eps: f64,
    /// `S`: first iteration of the *neighbor* part. The family part
    /// `x(0)…x(S−1)` is the only exactly computed piece at query time, so
    /// `S` is the accuracy/online-speed knob (Theorem 2: error ≤ 2(1−c)^S).
    pub s: usize,
    /// `T`: first iteration of the *stranger* part, approximated by
    /// PageRank. Must satisfy `S < T` (paper §III-C discusses tuning).
    pub t: usize,
}

impl TpaParams {
    /// Parameters with the paper's defaults (`c = 0.15`, `ε = 1e-9`).
    pub fn new(s: usize, t: usize) -> Self {
        Self { c: 0.15, eps: 1e-9, s, t }
    }

    /// Panics if the parameters are out of range.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Fallible version of [`TpaParams::validate`], for admission paths
    /// ([`crate::ServiceBuilder`]) that must report rather than panic.
    pub fn check(&self) -> Result<(), TpaError> {
        let bad = |msg: String| Err(TpaError::InvalidConfig(msg));
        if !(self.c > 0.0 && self.c < 1.0) {
            return bad(format!("c must be in (0,1), got {}", self.c));
        }
        // NaN must fail too, so test "positive" directly.
        if self.eps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return bad(format!("eps must be positive, got {}", self.eps));
        }
        if self.s < 1 {
            return bad("S must be at least 1".into());
        }
        if self.t <= self.s {
            return bad(format!("T ({}) must exceed S ({})", self.t, self.s));
        }
        Ok(())
    }

    /// The neighbor rescaling factor
    /// `‖r_neighbor‖₁ / ‖r_family‖₁ = ((1−c)^S − (1−c)^T) / (1 − (1−c)^S)`
    /// (from Lemma 2).
    pub fn neighbor_scale(&self) -> f64 {
        let d = 1.0 - self.c;
        (d.powi(self.s as i32) - d.powi(self.t as i32)) / (1.0 - d.powi(self.s as i32))
    }

    /// CPI config used by both phases.
    pub fn cpi_config(&self) -> CpiConfig {
        CpiConfig { c: self.c, eps: self.eps, max_iters: 1000 }
    }
}

/// Statistics from the preprocessing phase.
#[derive(Clone, Copy, Debug)]
pub struct PreprocessStats {
    /// Iterations the PageRank CPI ran (from `T` to convergence).
    pub iterations: usize,
    /// Final `‖x(i)‖₁` when the run stopped.
    pub final_residual: f64,
}

/// The preprocessed TPA index: just the stranger vector (`O(n)` doubles —
/// the paper's headline memory advantage in Fig. 1(a)) plus parameters.
#[derive(Clone, Debug)]
pub struct TpaIndex {
    params: TpaParams,
    stranger: Vec<f64>,
    stats: PreprocessStats,
    /// Set when the index was preprocessed on a reordered (relabeled)
    /// graph: the stranger vector is in *new*-id order and queries must
    /// run on the equally-permuted graph. [`crate::RwrService`] applies
    /// the permutation transparently; [`TpaIndex::save`] persists it so
    /// saved indexes round-trip.
    perm: Option<Permutation>,
}

impl TpaIndex {
    /// **Algorithm 2** (preprocessing phase): computes
    /// `r̃_stranger = p_stranger = Σ_{i≥T} x'(i)` with the uniform PageRank
    /// seed. Runs once per graph; independent of any future seed node.
    pub fn preprocess(graph: &CsrGraph, params: TpaParams) -> Self {
        Self::preprocess_on(&Transition::new(graph), params)
    }

    /// [`TpaIndex::preprocess`] over any propagation backend — e.g. the
    /// out-of-core [`crate::offcore::DiskGraph`].
    pub fn preprocess_on<P: crate::Propagator + ?Sized>(backend: &P, params: TpaParams) -> Self {
        params.validate();
        let run = cpi(backend, &SeedSet::Uniform, &params.cpi_config(), params.t, None);
        Self {
            params,
            stranger: run.scores,
            stats: PreprocessStats {
                iterations: run.last_iteration,
                final_residual: run.final_residual,
            },
            perm: None,
        }
    }

    /// Records the node relabeling the index was preprocessed under (see
    /// the `perm` field docs). Panics on a size mismatch.
    pub fn with_permutation(mut self, perm: Permutation) -> Self {
        assert_eq!(
            perm.len(),
            self.stranger.len(),
            "permutation relabels {} nodes but the index covers {}",
            perm.len(),
            self.stranger.len()
        );
        self.perm = Some(perm);
        self
    }

    /// The relabeling the index was preprocessed under, if any.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.perm.as_ref()
    }

    /// **Algorithm 3** (online phase): computes the family part exactly
    /// (`S` CPI iterations, `O(mS)`), rescales it into the neighbor
    /// estimate, and adds the precomputed stranger vector.
    pub fn query(&self, transition: &Transition<'_>, seed: NodeId) -> Vec<f64> {
        self.query_on(transition, &SeedSet::single(seed))
    }

    /// Online phase for any seed set over any propagation backend (e.g.
    /// the out-of-core [`crate::offcore::DiskGraph`]). The family sweep
    /// runs under [`FrontierPolicy::Auto`] — sparse while the seed's
    /// neighborhood is small, bitwise identical to dense.
    pub fn query_on<P: crate::Propagator + ?Sized>(
        &self,
        backend: &P,
        seeds: &SeedSet,
    ) -> Vec<f64> {
        self.finish_family(
            self.family_sweep(backend, seeds, FrontierPolicy::Auto, |_| false).scores,
        )
    }

    /// The family sweep `x(0)…x(S−1)` with an early-stop probe — the
    /// admission guard rides it on the service's indexed path, so a
    /// tripped request stops at the next iteration boundary and skips
    /// the `O(n)` [`TpaIndex::finish_family`]. An idle probe is bitwise
    /// invisible.
    pub(crate) fn family_sweep<P: crate::Propagator + ?Sized>(
        &self,
        backend: &P,
        seeds: &SeedSet,
        policy: FrontierPolicy,
        stop: impl FnMut(SweepProbe<'_>) -> bool,
    ) -> CpiResult {
        // Guard before any kernel touches the vectors: a mismatched index
        // would otherwise fail as an opaque out-of-bounds access (or,
        // worse, silently truncate) deep inside a propagation kernel.
        self.check_backend(backend).unwrap_or_else(|e| panic!("{e}"));
        let cfg = self.params.cpi_config();
        cpi_probed(backend, seeds, &cfg, 0, Some(self.params.s - 1), policy, stop)
    }

    /// Folds the neighbor rescale and the precomputed stranger part into
    /// an exactly-computed family vector:
    /// `r = family + scale·family + stranger` per node, in that
    /// association (every query path shares this loop so results stay
    /// bitwise identical across entry points).
    pub fn finish_family(&self, mut family: Vec<f64>) -> Vec<f64> {
        let scale = self.params.neighbor_scale();
        for (ri, &si) in family.iter_mut().zip(&self.stranger) {
            *ri = finish_one(scale, *ri, si);
        }
        family
    }

    /// Verifies this index was preprocessed for a graph of `backend`'s
    /// size. The query paths call this at admission and panic with its
    /// message (legacy contract); fallible callers
    /// ([`crate::ServiceBuilder`]) surface the [`TpaError`] instead.
    pub fn check_backend<P: crate::Propagator + ?Sized>(
        &self,
        backend: &P,
    ) -> Result<(), TpaError> {
        self.check_backend_n(backend.n())
    }

    /// [`TpaIndex::check_backend`] against a raw node count.
    pub fn check_backend_n(&self, n: usize) -> Result<(), TpaError> {
        crate::error::check_dimension(n, self.stranger.len())
    }

    /// The precomputed stranger vector `r̃_stranger`.
    pub fn stranger(&self) -> &[f64] {
        &self.stranger
    }

    /// Patches the stranger tail for a batch of edge updates by offset
    /// propagation instead of full re-preprocessing.
    ///
    /// The stranger vector is a CPI tail from the uniform seed, so it
    /// satisfies the fixed point `p_T = x(T) + (1−c)Ãᵀp_T`. When the
    /// operator drifts to `Ã'`, the correction solves the same
    /// recurrence from the offset seed `b = (1−c)(Ã' − Ã)ᵀp_T` — built
    /// by [`crate::DynamicTransition::offset_seed_for`] from the
    /// accumulated first-occurrence old columns — and is propagated here
    /// through the *updated* operator by the CPI sweep loop started from
    /// `b`, frontier-routed
    /// ([`FrontierPolicy::Auto`] keeps the sweep on the sparse kernel
    /// while the correction's support is small). Cost scales with the
    /// drift's reach, not `O(n + m)` CPI from scratch.
    ///
    /// Approximation: the shift of the window term `x'(T) − x(T)` is
    /// dropped (it is the same `O((1−c)^T)`-mass tail the stranger
    /// approximation already truncates), so the patched vector tracks a
    /// re-preprocessed one within the mode's tolerance plus that tail —
    /// bounded, but not bitwise. Run a full
    /// [`TpaIndex::preprocess_on`] to re-anchor when exactness matters.
    ///
    /// Returns the patched index (parameters and permutation carried
    /// over) and the propagation accounting.
    pub fn patch_stranger_on<P: crate::Propagator + ?Sized>(
        &self,
        backend: &P,
        offset: Vec<f64>,
        mode: MaintenanceMode,
        policy: FrontierPolicy,
    ) -> (TpaIndex, RefreshStats) {
        self.check_backend(backend).unwrap_or_else(|e| panic!("{e}"));
        let mut stranger = self.stranger.clone();
        let stats = propagate_offset_policy(
            backend,
            offset,
            &self.params.cpi_config(),
            mode,
            policy,
            &mut stranger,
        );
        let patched =
            TpaIndex { params: self.params, stranger, stats: self.stats, perm: self.perm.clone() };
        (patched, stats)
    }

    /// Parameters the index was built with.
    pub fn params(&self) -> &TpaParams {
        &self.params
    }

    /// Preprocessing statistics.
    pub fn stats(&self) -> &PreprocessStats {
        &self.stats
    }

    /// Size of the preprocessed data in bytes — one `f64` per node
    /// (Theorem 4's `O(n)` term; the graph itself is accounted separately).
    pub fn index_bytes(&self) -> usize {
        self.stranger.len() * std::mem::size_of::<f64>()
    }

    /// Values (`f64`s) per I/O chunk when (de)serializing the stranger
    /// vector: 8192 × 8 B = 64 KiB buffers, so a billion-node index is a
    /// few hundred thousand syscalls instead of one per value.
    const IO_CHUNK: usize = 8192;

    /// Serializes the index (magic, params, stats, stranger vector, and
    /// — since format 2 — the optional reordering permutation; all
    /// little-endian). Preprocess once, ship the index, query anywhere.
    pub fn save(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        w.write_all(b"TPAINDX2")?;
        w.write_all(&self.params.c.to_le_bytes())?;
        w.write_all(&self.params.eps.to_le_bytes())?;
        w.write_all(&(self.params.s as u64).to_le_bytes())?;
        w.write_all(&(self.params.t as u64).to_le_bytes())?;
        w.write_all(&(self.stats.iterations as u64).to_le_bytes())?;
        w.write_all(&self.stats.final_residual.to_le_bytes())?;
        w.write_all(&(self.stranger.len() as u64).to_le_bytes())?;
        // Chunked conversion so each write hands the sink a large slice
        // instead of 8 bytes at a time.
        let mut buf = Vec::with_capacity(Self::IO_CHUNK * 8);
        for chunk in self.stranger.chunks(Self::IO_CHUNK) {
            buf.clear();
            for &v in chunk {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            w.write_all(&buf)?;
        }
        // Permutation trailer: length 0 = no reordering.
        let table = self.perm.as_ref().map(|p| p.new_to_old()).unwrap_or(&[]);
        w.write_all(&(table.len() as u64).to_le_bytes())?;
        for chunk in table.chunks(Self::IO_CHUNK) {
            buf.clear();
            for &v in chunk {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            w.write_all(&buf)?;
        }
        w.flush()
    }

    /// Deserializes an index produced by [`TpaIndex::save`]. Format 1
    /// files (pre-reordering) load with no permutation.
    ///
    /// Total on untrusted bytes: bad magic, out-of-range parameters,
    /// corrupt entries and truncation all return
    /// [`std::io::ErrorKind::InvalidData`] or `UnexpectedEof` errors,
    /// never a panic. Vectors grow as their bytes arrive, so a forged
    /// length field cannot force a huge up-front allocation.
    pub fn load(mut r: impl std::io::Read) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let version = match &magic {
            b"TPAINDX1" => 1,
            b"TPAINDX2" => 2,
            _ => return Err(Error::new(ErrorKind::InvalidData, "bad TPA index magic")),
        };
        let mut f = [0u8; 8];
        let mut read_f64 = |r: &mut dyn std::io::Read| -> std::io::Result<f64> {
            r.read_exact(&mut f)?;
            Ok(f64::from_le_bytes(f))
        };
        let c = read_f64(&mut r)?;
        let eps = read_f64(&mut r)?;
        let mut u = [0u8; 8];
        let mut read_u64 = |r: &mut dyn std::io::Read| -> std::io::Result<u64> {
            r.read_exact(&mut u)?;
            Ok(u64::from_le_bytes(u))
        };
        let s = read_u64(&mut r)? as usize;
        let t = read_u64(&mut r)? as usize;
        let params = TpaParams { c, eps, s, t };
        params.check().map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        let iterations = read_u64(&mut r)? as usize;
        let mut f2 = [0u8; 8];
        r.read_exact(&mut f2)?;
        let final_residual = f64::from_le_bytes(f2);
        let mut u2 = [0u8; 8];
        r.read_exact(&mut u2)?;
        let n = u64::from_le_bytes(u2) as usize;
        if n > (1usize << 40) {
            return Err(Error::new(ErrorKind::InvalidData, "implausible index length"));
        }
        let mut stranger = Vec::with_capacity(n.min(Self::IO_CHUNK));
        let mut buf = vec![0u8; Self::IO_CHUNK * 8];
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(Self::IO_CHUNK);
            r.read_exact(&mut buf[..take * 8])?;
            for rec in buf[..take * 8].chunks_exact(8) {
                let v = f64::from_le_bytes(rec.try_into().unwrap());
                if !v.is_finite() || v < 0.0 {
                    return Err(Error::new(ErrorKind::InvalidData, "corrupt stranger entry"));
                }
                stranger.push(v);
            }
            remaining -= take;
        }
        let perm = if version >= 2 {
            r.read_exact(&mut u2)?;
            let plen = u64::from_le_bytes(u2) as usize;
            if plen != 0 && plen != n {
                return Err(Error::new(ErrorKind::InvalidData, "permutation length mismatch"));
            }
            if plen == 0 {
                None
            } else {
                let mut table = Vec::with_capacity(plen.min(Self::IO_CHUNK));
                let mut remaining = plen;
                while remaining > 0 {
                    let take = remaining.min(Self::IO_CHUNK * 2);
                    r.read_exact(&mut buf[..take * 4])?;
                    for rec in buf[..take * 4].chunks_exact(4) {
                        table.push(u32::from_le_bytes(rec.try_into().unwrap()));
                    }
                    remaining -= take;
                }
                let p = tpa_graph::Permutation::try_from_new_to_old(table)
                    .map_err(|e| Error::new(ErrorKind::InvalidData, e))?;
                Some(p)
            }
        } else {
            None
        };
        Ok(Self { params, stranger, stats: PreprocessStats { iterations, final_residual }, perm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_rwr;
    use tpa_graph::gen::{lfr_lite, LfrConfig};
    use tpa_graph::CsrGraph;

    fn l1_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    fn test_graph() -> CsrGraph {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        lfr_lite(LfrConfig { n: 400, m: 3200, mu: 0.15, ..Default::default() }, &mut rng).graph
    }

    #[test]
    fn neighbor_scale_closed_form() {
        let p = TpaParams::new(5, 10);
        let d: f64 = 0.85;
        let want = (d.powi(5) - d.powi(10)) / (1.0 - d.powi(5));
        assert!((p.neighbor_scale() - want).abs() < 1e-15);
    }

    #[test]
    fn error_within_theorem2_bound() {
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let index = TpaIndex::preprocess(&g, params);
        let t = Transition::new(&g);
        let bound = crate::bounds::total_bound(params.c, params.s);
        for seed in [0u32, 13, 200, 399] {
            let approx = index.query(&t, seed);
            let exact = exact_rwr(&g, seed, &params.cpi_config());
            let err = l1_dist(&approx, &exact);
            assert!(err <= bound + 1e-9, "seed {seed}: error {err} > bound {bound}");
        }
    }

    #[test]
    fn real_graph_error_well_below_bound() {
        // The paper's Table III: block-wise structure pushes the practical
        // error far below 2(1−c)^S.
        let g = test_graph();
        let params = TpaParams::new(5, 10);
        let index = TpaIndex::preprocess(&g, params);
        let t = Transition::new(&g);
        let bound = crate::bounds::total_bound(params.c, params.s);
        let approx = index.query(&t, 42);
        let exact = exact_rwr(&g, 42, &params.cpi_config());
        let err = l1_dist(&approx, &exact);
        assert!(err < 0.6 * bound, "error {err} not well below bound {bound}");
    }

    #[test]
    fn query_mass_approximately_one() {
        let g = test_graph();
        let index = TpaIndex::preprocess(&g, TpaParams::new(5, 10));
        let t = Transition::new(&g);
        let r = index.query(&t, 7);
        let total: f64 = r.iter().sum();
        // family + scaled neighbor give exactly 1 − (1−c)^T of the mass;
        // stranger adds the tail, so the total is ≈ 1.
        assert!((total - 1.0).abs() < 0.05, "total {total}");
    }

    #[test]
    fn index_bytes_is_n_doubles() {
        let g = test_graph();
        let index = TpaIndex::preprocess(&g, TpaParams::new(4, 8));
        assert_eq!(index.index_bytes(), g.n() * 8);
    }

    #[test]
    fn stranger_vector_independent_of_seed() {
        // Querying different seeds must reuse the identical stranger part.
        let g = test_graph();
        let index = TpaIndex::preprocess(&g, TpaParams::new(5, 10));
        let before = index.stranger().to_vec();
        let t = Transition::new(&g);
        let _ = index.query(&t, 3);
        let _ = index.query(&t, 300);
        assert_eq!(index.stranger(), &before[..]);
    }

    #[test]
    fn larger_s_reduces_error() {
        let g = test_graph();
        let t = Transition::new(&g);
        let exact = exact_rwr(&g, 11, &CpiConfig::default());
        let mut prev_err = f64::INFINITY;
        for s in [2usize, 4, 6] {
            let index = TpaIndex::preprocess(&g, TpaParams::new(s, 12));
            let err = l1_dist(&index.query(&t, 11), &exact);
            assert!(err < prev_err, "error did not shrink at S={s}: {err} vs {prev_err}");
            prev_err = err;
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let g = test_graph();
        let index = TpaIndex::preprocess(&g, TpaParams::new(5, 10));
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = TpaIndex::load(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.stranger(), index.stranger());
        assert_eq!(loaded.params().s, 5);
        assert_eq!(loaded.params().t, 10);
        // Queries from the loaded index are identical.
        let t = Transition::new(&g);
        assert_eq!(index.query(&t, 3), loaded.query(&t, 3));
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = TpaIndex::load(std::io::Cursor::new(b"NOTANIDX........")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_truncation() {
        let g = test_graph();
        let index = TpaIndex::preprocess(&g, TpaParams::new(5, 10));
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(TpaIndex::load(std::io::Cursor::new(&buf)).is_err());
    }

    /// A saved index with its header patched at `offset` (the field
    /// layout of [`TpaIndex::save`]: c @ 8, eps @ 16, S @ 24, T @ 32,
    /// stranger length @ 56).
    fn patched_header(offset: usize, bytes: [u8; 8]) -> Vec<u8> {
        let g = tpa_graph::gen::cycle_graph(6);
        let mut buf = Vec::new();
        TpaIndex::preprocess(&g, TpaParams::new(3, 6)).save(&mut buf).unwrap();
        buf[offset..offset + 8].copy_from_slice(&bytes);
        buf
    }

    fn load_err(buf: &[u8]) -> std::io::Error {
        match TpaIndex::load(std::io::Cursor::new(buf)) {
            Ok(_) => panic!("a corrupt header must not load"),
            Err(e) => e,
        }
    }

    #[test]
    fn load_survives_a_huge_stranger_length() {
        // 2^40 − 1 passes the plausibility check; the vector must grow
        // with the bytes that actually arrive instead of aborting in an
        // up-front allocation.
        let buf = patched_header(56, ((1u64 << 40) - 1).to_le_bytes());
        assert_eq!(load_err(&buf).kind(), std::io::ErrorKind::UnexpectedEof);
        // A forged permutation length (the trailer's last 8 bytes) is
        // refused without allocating for it either.
        let mut buf = patched_header(8, 0.15f64.to_le_bytes());
        let trailer = buf.len() - 8;
        buf[trailer..].copy_from_slice(&((1u64 << 40) - 1).to_le_bytes());
        assert_eq!(load_err(&buf).kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_out_of_range_c() {
        let err = load_err(&patched_header(8, 7.0f64.to_le_bytes()));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("c must be in (0,1)"), "{err}");
    }

    #[test]
    fn load_rejects_nan_eps() {
        let err = load_err(&patched_header(16, f64::NAN.to_le_bytes()));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("eps must be positive"), "{err}");
    }

    #[test]
    fn load_rejects_zero_s() {
        let err = load_err(&patched_header(24, 0u64.to_le_bytes()));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("S must be at least 1"), "{err}");
    }

    #[test]
    fn load_rejects_t_not_above_s() {
        let err = load_err(&patched_header(32, 3u64.to_le_bytes()));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("must exceed S"), "{err}");
    }

    #[test]
    #[should_panic(expected = "must exceed S")]
    fn rejects_t_not_greater_than_s() {
        TpaParams::new(5, 5).validate();
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn rejects_mismatched_graph() {
        let g1 = test_graph();
        let index = TpaIndex::preprocess(&g1, TpaParams::new(5, 10));
        let g2 = tpa_graph::gen::cycle_graph(10);
        let t2 = Transition::new(&g2);
        index.query(&t2, 0);
    }
}
