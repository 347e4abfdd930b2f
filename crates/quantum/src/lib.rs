//! Quantum circuit intermediate representation, simulators and backends for
//! the `qdaflow` quantum design automation flow.
//!
//! This crate plays the role of the "target platform" layer of the paper's
//! flow (Fig. 2): quantum circuits over the Clifford+T gate set, an exact
//! statevector simulator, a Monte-Carlo noisy simulator standing in for the
//! IBM Quantum Experience chip used in the paper's Fig. 6, a resource
//! counter, an ASCII circuit drawer and an OpenQASM 2.0 exporter.
//!
//! # Example
//!
//! ```
//! use qdaflow_quantum::{ExecConfig, PreparedState, QuantumCircuit, QuantumGate, SoaStatevector};
//!
//! # fn main() -> Result<(), qdaflow_quantum::QuantumError> {
//! // Build the entangling circuit from Fig. 1(a) of the paper.
//! let mut circuit = QuantumCircuit::new(2);
//! circuit.push(QuantumGate::H(0))?;
//! circuit.push(QuantumGate::Cx { control: 0, target: 1 })?;
//! let state = SoaStatevector::simulate(&circuit, &ExecConfig::default())?;
//! assert!((state.amplitude(0b00).norm_sqr() - 0.5).abs() < 1e-12);
//! assert!((state.amplitude(0b11).norm_sqr() - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod census;
pub mod circuit;
pub mod complex;
pub mod drawer;
pub mod error;
pub mod fusion;
pub mod gate;
pub mod noise;
pub mod plan;
pub mod qasm;
pub mod reference;
pub mod resource;
pub mod sampling;

pub use backend::{Backend, ExactBackend, ExecutionResult, PreparedState};
pub use census::GateCensus;
pub use circuit::QuantumCircuit;
pub use complex::Complex;
pub use error::QuantumError;
pub use fusion::ExecConfig;
pub use gate::{QuantumGate, Qubits};
pub use plan::{DispatchRecord, ExecPlan, OpKind, ProductLayer, SoaStatevector};
pub use reference::{DenseReference, DenseReferenceBackend};
pub use sampling::CumulativeDistribution;

/// Maximum number of qubits supported by the statevector simulator.
///
/// The bound matches the observation in the paper (Section VIII) that a
/// state-of-the-art simulator handles about 30 qubits on a standard computer.
pub const MAX_SIMULATOR_QUBITS: usize = 26;
