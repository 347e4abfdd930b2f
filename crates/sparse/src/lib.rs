//! Sparse statevector simulation for the `qdaflow` quantum design automation
//! flow.
//!
//! The circuits the paper's flow produces are dominated by *permutational*
//! structure: reversible networks synthesized from Boolean specifications,
//! mapped to Clifford+T. On a computational basis state (or a superposition
//! over a few basis states) such circuits keep almost every one of the `2^n`
//! dense amplitudes provably zero — exactly the regime where the dense
//! [`SoaStatevector`](qdaflow_quantum::SoaStatevector)'s `2^n` complex
//! amplitudes (capped at
//! [`MAX_SIMULATOR_QUBITS`](qdaflow_quantum::MAX_SIMULATOR_QUBITS) qubits)
//! wastes all of its memory. This crate stores only the nonzero amplitudes in
//! a hash map keyed by basis state, with three specialized application paths:
//!
//! * **classical bit flips** (X, CX, CCX, MCX, SWAP — and whole permutation
//!   oracles via
//!   [`SparseStatevector::apply_permutation_map`]) are pure key remapping
//!   with zero amplitude arithmetic;
//! * **diagonal gates** (Z, S, S†, T, T†, Rz, CZ, MCZ) multiply phases onto
//!   the existing keys in place, never changing the support;
//! * **dense single-qubit gates** (H, Y) split each occupied amplitude pair,
//!   merge the contributions, and prune results whose squared magnitude falls
//!   below [`PRUNE_NORM_EPS`].
//!
//! The cost of a circuit therefore scales with the *support size* of the
//! state, not with `2^n`: a 28-qubit permutation oracle on a basis state is a
//! few hundred `u64` key updates, physically impossible for the dense engine
//! (see the `sparse_vs_dense` bench). [`SparseStatevector`] is this crate's
//! [`PreparedState`](qdaflow_quantum::PreparedState), so the engine plugs
//! into the workspace-wide [`Backend`](qdaflow_quantum::Backend) trait as
//! [`SparseBackend`], an alias of the one exact backend
//! [`ExactBackend`](qdaflow_quantum::ExactBackend), and samples with the
//! shot-sharded [`CumulativeDistribution`](qdaflow_quantum::sampling) over
//! the nonzero entries only.
//!
//! Correctness is established differentially: `tests/differential.rs`
//! compares the sparse engine amplitude-for-amplitude (1e-10) and
//! histogram-for-histogram against the dense simulator on random circuits
//! covering every gate kind of the IR.
//!
//! # Example
//!
//! ```
//! use qdaflow_sparse::SparseStatevector;
//! use qdaflow_quantum::{QuantumCircuit, QuantumGate};
//!
//! # fn main() -> Result<(), qdaflow_quantum::QuantumError> {
//! // A 30-qubit permutation step: far beyond the dense simulator's ceiling,
//! // but a single key remap for the sparse engine.
//! let mut circuit = QuantumCircuit::new(30);
//! circuit.push(QuantumGate::X(29))?;
//! circuit.push(QuantumGate::Cx { control: 29, target: 0 })?;
//! let state = SparseStatevector::from_circuit(&circuit)?;
//! assert_eq!(state.num_nonzero(), 1);
//! assert!((state.probability_of((1 << 29) | 1) - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod state;

pub use backend::{widen_counts, SparseBackend};
pub use state::SparseStatevector;

/// Maximum number of qubits supported by the sparse simulator.
///
/// Basis states are `u64` keys, so the representation works up to 64 qubits;
/// the bound is kept lower so that every outcome also fits a `usize` histogram
/// index on 64-bit hosts with room to spare, and so that a fully dense
/// adversarial state cannot be requested by accident.
pub const MAX_SPARSE_QUBITS: usize = 48;

/// Squared-magnitude threshold below which an amplitude produced by a
/// split-merge (dense single-qubit) application is pruned from the state.
///
/// The value `1e-24` corresponds to amplitudes of magnitude `1e-12` —
/// two orders below the `1e-10` tolerance of the differential test contract,
/// so pruning is never observable at the contract's precision, while exact
/// destructive interference (the common case in uncompute patterns) reliably
/// shrinks the support.
pub const PRUNE_NORM_EPS: f64 = 1e-24;
