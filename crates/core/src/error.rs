//! The crate-wide error type for the serving surface.
//!
//! Before the `RwrService` redesign, failures on the public paths were a
//! mix of `Result<_, String>` (updates on immutable backends), panics
//! deep inside kernels (out-of-range seeds indexing a score vector), and
//! `assert!`s with ad-hoc messages (index/graph dimension mismatches).
//! None of that composes for a caller holding a serving queue: a typed
//! error can be matched on, logged, and mapped to a transport status.
//!
//! [`TpaError`] is that type. Request admission ([`crate::Snapshot::run`],
//! [`crate::RwrService::submit`]) and the mutation paths
//! ([`crate::RwrService::apply_updates`], [`crate::RwrService::patch_index`],
//! …) return it; the infallible index conveniences
//! ([`crate::TpaIndex::query_batch_on`], …) panic with its
//! [`std::fmt::Display`] rendering, so every failure reads the same no
//! matter which entry point raised it.

use std::time::Duration;
use tpa_graph::NodeId;

/// Everything that can go wrong on the public serving paths.
///
/// Marked `#[non_exhaustive]`: new failure classes (e.g. admission
/// control, timeouts) can be added without breaking downstream matches.
#[derive(Debug)]
#[non_exhaustive]
pub enum TpaError {
    /// A request named a seed node that does not exist in the served
    /// graph. Caught at admission — before any kernel touches a score
    /// vector — instead of panicking on an out-of-bounds index inside
    /// the propagation loops.
    SeedOutOfRange {
        /// The offending seed id.
        seed: NodeId,
        /// Number of nodes in the served graph.
        n: usize,
    },
    /// A [`crate::TpaIndex`] was paired with a graph of a different
    /// size: its stranger vector has one entry per node of the graph it
    /// was preprocessed on.
    DimensionMismatch {
        /// Nodes in the graph/backend being served.
        backend: usize,
        /// Entries in the index's stranger vector.
        index: usize,
    },
    /// An operation was requested that the active backend cannot
    /// perform (e.g. edge updates against an immutable in-memory or
    /// out-of-core backend, or reordering an out-of-core graph in
    /// place).
    BackendMismatch {
        /// The operation that was refused.
        operation: &'static str,
        /// Name of the backend that refused it (see
        /// [`crate::EngineBackend::name`]).
        backend: &'static str,
    },
    /// A parameter failed validation (non-positive tolerance, restart
    /// probability outside `(0,1)`, `T ≤ S`, zero lane tile, …).
    InvalidConfig(String),
    /// An I/O failure while loading or persisting a graph or index.
    Io(std::io::Error),
    /// The admission gate refused the request: every in-flight slot
    /// was busy and the bounded wait queue was full (or the shed
    /// ladder reached [`crate::DegradationLevel::Rejected`]). Rejection
    /// is immediate — under sustained oversubscription callers fail in
    /// microseconds instead of queueing without bound.
    Overloaded {
        /// Requests running when this one was refused.
        inflight: usize,
        /// Requests already waiting in the bounded queue.
        queued: usize,
    },
    /// The request's deadline ([`crate::QueryRequest::with_deadline`])
    /// expired — in the admission queue or at a CPI iteration boundary
    /// mid-sweep. The sweep stops cooperatively; no request consumes a
    /// full sweep after its deadline passes.
    DeadlineExceeded {
        /// The deadline the request carried.
        budget: Duration,
        /// Wall time actually spent (queueing + kernel) before abort.
        elapsed: Duration,
    },
    /// The request's [`crate::CancelToken`] fired; the sweep stopped
    /// at the next iteration boundary.
    Cancelled,
    /// An internal invariant broke (e.g. a validated request reached a
    /// kernel without the field admission guaranteed). Serving paths
    /// return this instead of panicking so one bad request can never
    /// take the process down; seeing it is a bug worth reporting.
    Internal(&'static str),
}

impl TpaError {
    /// Stable snake_case variant name — the label value the metrics
    /// layer counts errors under (`tpa_request_errors_total{variant=…}`).
    pub fn variant_name(&self) -> &'static str {
        match self {
            TpaError::SeedOutOfRange { .. } => "seed_out_of_range",
            TpaError::DimensionMismatch { .. } => "dimension_mismatch",
            TpaError::BackendMismatch { .. } => "backend_mismatch",
            TpaError::InvalidConfig(_) => "invalid_config",
            TpaError::Io(_) => "io",
            TpaError::Overloaded { .. } => "overloaded",
            TpaError::DeadlineExceeded { .. } => "deadline_exceeded",
            TpaError::Cancelled => "cancelled",
            TpaError::Internal(_) => "internal",
        }
    }
}

impl std::fmt::Display for TpaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TpaError::SeedOutOfRange { seed, n } => {
                write!(f, "seed {seed} out of range (n = {n})")
            }
            TpaError::DimensionMismatch { backend, index } => write!(
                f,
                "dimension mismatch: backend has {backend} nodes but the index stranger vector \
                 has {index} entries — the index was preprocessed for a different graph"
            ),
            TpaError::BackendMismatch { operation, backend } => {
                write!(f, "backend {backend} does not support {operation}")
            }
            TpaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TpaError::Io(e) => write!(f, "I/O error: {e}"),
            TpaError::Overloaded { inflight, queued } => write!(
                f,
                "service overloaded: {inflight} requests in flight, {queued} queued — retry with \
                 backoff or raise --max-inflight"
            ),
            TpaError::DeadlineExceeded { budget, elapsed } => {
                write!(f, "deadline of {budget:?} exceeded after {elapsed:?}")
            }
            TpaError::Cancelled => write!(f, "request cancelled by its caller"),
            TpaError::Internal(what) => {
                write!(f, "internal invariant violated: {what} (this is a bug — please report it)")
            }
        }
    }
}

impl std::error::Error for TpaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TpaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TpaError {
    fn from(e: std::io::Error) -> Self {
        TpaError::Io(e)
    }
}

/// Admission check shared by every query path: each seed must name a
/// node of the served graph.
pub(crate) fn check_seeds(seeds: &[NodeId], n: usize) -> Result<(), TpaError> {
    match seeds.iter().find(|&&s| s as usize >= n) {
        Some(&seed) => Err(TpaError::SeedOutOfRange { seed, n }),
        None => Ok(()),
    }
}

/// Dimension check shared by the index guards in `tpa.rs` / `batch.rs`
/// and the service/builder admission paths.
pub(crate) fn check_dimension(backend_n: usize, index_n: usize) -> Result<(), TpaError> {
    if backend_n == index_n {
        Ok(())
    } else {
        Err(TpaError::DimensionMismatch { backend: backend_n, index: index_n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = TpaError::SeedOutOfRange { seed: 9, n: 4 };
        assert_eq!(e.to_string(), "seed 9 out of range (n = 4)");
        let e = TpaError::DimensionMismatch { backend: 10, index: 7 };
        assert!(e.to_string().contains("10 nodes"), "{e}");
        assert!(e.to_string().contains("different graph"), "{e}");
        let e = TpaError::BackendMismatch { operation: "edge updates", backend: "sequential" };
        assert_eq!(e.to_string(), "backend sequential does not support edge updates");
        let e = TpaError::InvalidConfig("lane tile must be at least 1".into());
        assert!(e.to_string().starts_with("invalid configuration"));
        let e = TpaError::Overloaded { inflight: 8, queued: 4 };
        assert!(e.to_string().contains("8 requests in flight"), "{e}");
        assert!(e.to_string().contains("4 queued"), "{e}");
        let e = TpaError::DeadlineExceeded {
            budget: Duration::from_millis(5),
            elapsed: Duration::from_millis(7),
        };
        assert!(e.to_string().contains("5ms"), "{e}");
        assert_eq!(TpaError::Cancelled.to_string(), "request cancelled by its caller");
    }

    #[test]
    fn admission_variants_have_stable_metric_labels() {
        assert_eq!(TpaError::Overloaded { inflight: 1, queued: 0 }.variant_name(), "overloaded");
        let e = TpaError::DeadlineExceeded { budget: Duration::ZERO, elapsed: Duration::ZERO };
        assert_eq!(e.variant_name(), "deadline_exceeded");
        assert_eq!(TpaError::Cancelled.variant_name(), "cancelled");
    }

    #[test]
    fn io_errors_chain_as_source() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = TpaError::from(io);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn check_helpers() {
        assert!(check_seeds(&[0, 3], 4).is_ok());
        assert!(matches!(check_seeds(&[0, 4], 4), Err(TpaError::SeedOutOfRange { seed: 4, n: 4 })));
        assert!(check_dimension(5, 5).is_ok());
        assert!(matches!(
            check_dimension(5, 6),
            Err(TpaError::DimensionMismatch { backend: 5, index: 6 })
        ));
    }
}
