//! Persistence for the batch job service: the disk-backed compiled-oracle
//! cache and the checkpoint journal.
//!
//! Compilation is the expensive step of the flow, and the paper's workloads
//! are compile-once-run-many — so compilations should survive the process
//! that produced them. This module gives the engine two durable artifacts:
//!
//! * [`DiskCache`] — one file per canonical
//!   [`SpecKey`](qdaflow_pipeline::spec::SpecKey), written atomically
//!   (temp + rename), versioned, checksummed, and **fail-open**: a corrupt
//!   or truncated entry is a miss, never a panic. Layered under the
//!   in-memory [`OracleCache`](crate::OracleCache) via
//!   [`OracleCache::with_disk`](crate::OracleCache::with_disk), so a
//!   restarted process warms itself from disk instead of recompiling. It
//!   keeps no counters: the cache over it counts disk hits, rejected
//!   entries, writes and write errors.
//! * [`Journal`] — an append-only, line-oriented checkpoint log of
//!   completed jobs (digest + full result). A
//!   [`JobService`](crate::JobService) opened over an existing journal
//!   replays completed jobs instantly on resubmission, so a killed batch
//!   resumes from its last completed job.

pub mod codec;
pub mod disk;
pub mod journal;

pub use disk::DiskCache;
pub use journal::{Journal, JournalEntry};
