//! A ProjectQ-style compiler engine for the `qdaflow` flow.
//!
//! The paper's Section VII programs the hidden shift algorithm against the
//! ProjectQ Python API: a `MainEngine` with exchangeable backends, qubit
//! registers, meta-sections (`Compute`/`Uncompute`/`Dagger`) and the
//! RevKit-powered `PhaseOracle` and `PermutationOracle` primitives. This
//! crate reproduces that programming model in Rust:
//!
//! ```
//! use qdaflow_engine::{MainEngine, SynthesisChoice};
//! use qdaflow_boolfn::Expr;
//!
//! # fn main() -> Result<(), qdaflow_engine::EngineError> {
//! // The program of Fig. 4: hidden shift for f = x0x1 ^ x2x3 with s = 1.
//! // The shifted oracle U_g = X_0 · U_f · X_0 is produced by the
//! // compute / action / uncompute pattern around the phase oracle.
//! let mut engine = MainEngine::with_simulator();
//! let qubits = engine.allocate_qureg(4);
//! let f = Expr::parse("(x0 & x1) ^ (x2 & x3)")?;
//!
//! let section = engine.begin_compute();
//! engine.all_h(&qubits)?;
//! engine.x(qubits[0])?;
//! let section = engine.end_compute(section);
//! engine.phase_oracle_expr(&f, &qubits)?;
//! engine.uncompute(&section)?;
//!
//! engine.phase_oracle_expr(&f, &qubits)?; // f is self-dual
//! engine.all_h(&qubits)?;
//! let result = engine.flush(256)?;
//! assert_eq!(result.most_likely().map(|(outcome, _)| outcome), Some(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod engine;
pub mod error;
pub mod oracle;
pub mod service;
pub mod store;

pub use batch::{BatchEngine, BatchJob};
pub use cache::{CacheStats, CompiledProgram, OracleCache, OracleSpec};
pub use engine::{resolve_backend, BackendChoice, ComputeSection, MainEngine, Qubit};
pub use error::EngineError;
pub use oracle::SynthesisChoice;
pub use service::{JobId, JobService, JobServiceConfig, JobStatus};
pub use store::{DiskCache, Journal, JournalEntry};
