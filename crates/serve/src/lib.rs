//! Compaction-as-a-service: a persistent content-addressed store plus a
//! job queue over a worker pool.
//!
//! The pipeline below this crate ([`rsg_compact`]) already makes a
//! single process incremental: a [`rsg_compact::incremental::CompactSession`]
//! re-pays only for edited cells. This crate extends that contract
//! *across* processes and machines-worth of batch work:
//!
//! - [`Store`] maps `(design content, rules content, solver name,
//!   option content)` to the finished artifacts — RSGL + CIF text,
//!   pitch values, tight-constraint bindings, and a solve report. Keys
//!   are pure content hashes ([`library_key`] / [`chip_key`]), so a hit
//!   is byte-identical to a cold recompute by construction. Entries are
//!   checksummed and self-identifying; anything that fails validation
//!   is silently **evicted and recomputed**, never trusted and never an
//!   error.
//! - [`JobQueue`] accepts batch library jobs and whole-chip jobs
//!   ([`JobSpec`]), runs them on a pool of workers each owning a
//!   private session, and serves store hits with **zero** solver
//!   invocations. Panics are contained per job, errors are the same
//!   deterministic classes the synchronous flows produce.
//! - [`ServeMetrics`] exposes hit/miss/eviction/solve counters and
//!   per-phase latency histograms on every fetch.
//!
//! ```
//! use rsg_serve::{JobQueue, JobSpec, ServeConfig};
//! use rsg_layout::Technology;
//! # let dir = std::env::temp_dir().join(format!("rsg-serve-doc-{}", std::process::id()));
//! let queue = JobQueue::new(&dir, ServeConfig::new(Technology::mead_conway(2).rules))?;
//! # let mut table = rsg_layout::CellTable::new();
//! # let mut cell = rsg_layout::CellDefinition::new("leaf");
//! # cell.add_box(rsg_layout::Layer::Poly, rsg_geom::Rect::from_coords(0, 0, 4, 8));
//! # let top = table.insert(cell)?;
//! let id = queue.submit(JobSpec::Chip { table, top, library: Vec::new() })?;
//! let out = queue.fetch(id)?;
//! assert!(!out.result.artifacts.is_empty());
//! // Resubmitting the same content is served from disk: zero solves.
//! # drop(queue);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

mod error;
mod metrics;
mod payload;
mod queue;
mod store;

pub use error::ServeError;
pub use metrics::{LatencyHistogram, ServeMetrics};
pub use payload::{
    Artifact, JobKind, ServeReport, ServedBinding, ServedConstraint, ServedPitch, ServedResult,
};
pub use queue::{JobId, JobOutput, JobQueue, JobSpec, JobStatus, ServeConfig};
pub use store::{chip_key, library_key, Store, StoreCounters, StoreKey, SweepOutcome};
