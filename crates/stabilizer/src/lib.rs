//! Stabilizer (CHP tableau) simulation for the `qdaflow` quantum design
//! automation flow.
//!
//! The paper's hidden-shift workloads are Clifford-dominated: H/CZ/Z layers
//! with the non-Clifford content concentrated in the oracle's T gates. Both
//! amplitude-based engines — the dense
//! [`SoaStatevector`](qdaflow_quantum::SoaStatevector) (capped at
//! [`MAX_SIMULATOR_QUBITS`](qdaflow_quantum::MAX_SIMULATOR_QUBITS) qubits)
//! and the sparse `SparseStatevector` of `qdaflow_sparse` (capped at
//! `MAX_SPARSE_QUBITS`, and exponential in the intermediate support of an
//! `H` layer) — pay for amplitudes a pure-Clifford circuit never needs. This
//! crate simulates the Clifford group in the Heisenberg picture instead
//! (Aaronson–Gottesman, "Improved simulation of stabilizer circuits"): a
//! [`StabilizerTableau`] tracks `n` stabilizer and `n` destabilizer Pauli
//! generators in packed 64-bit columns, so every supported gate
//! (H, S, S†, X, Y, Z, Rz at multiples of π/2, CX, CZ, SWAP, MCZ up to two
//! qubits) is `O(n/64)` word operations and measurement is `O(n²)` — a
//! 100-qubit hidden-shift circuit runs end-to-end in well under a
//! millisecond (see the `stabilizer_vs_dense` bench).
//!
//! Non-Clifford gates (T, T†, generic Rz, CCX, MCX, MCZ beyond two qubits)
//! are rejected with the typed [`StabilizerError::NonClifford`] — the
//! automatic dispatcher in `qdaflow_engine` uses the matching
//! `GateCensus::is_all_clifford` predicate so circuits are only routed here
//! when every gate is accepted. Sampling caps ([`MAX_SAMPLING_RANK`] and the
//! `usize` outcome width) are not part of that routing: an all-Clifford
//! circuit whose final support exceeds them fails with a typed error instead
//! of moving to another engine. Only registers of at least 54 qubits can
//! exceed them, beyond both amplitude engines' ceilings.
//!
//! Sampling reuses the workspace-wide seeded-RNG discipline: the final
//! state's support is an affine subspace of basis states (offset plus the
//! GF(2) span of the stabilizers' X-parts), which
//! [`StabilizerTableau::sampler`] reduces once to a closed form of `rank + 1`
//! words — the smallest element and `rank` generators — without listing it.
//! The state is uniform over its `2^rank` outcomes, so a draw `u` lands on
//! the outcome of ascending index `⌊u·2^rank⌋`, exactly where the shared
//! [`CumulativeDistribution`](qdaflow_quantum::sampling::CumulativeDistribution)
//! over the ascending support would put it: one `f64` draw per shot
//! sequentially, and the same `(seed, shard)` draw stream as the dense and
//! sparse engines on the shot-sharded batch path. The
//! [`StabilizerSampler`] is this crate's
//! [`PreparedState`](qdaflow_quantum::PreparedState), and
//! [`StabilizerBackend`] is the workspace's one exact backend,
//! [`ExactBackend`](qdaflow_quantum::ExactBackend), over it.
//!
//! Correctness is established differentially: `tests/differential.rs`
//! compares sampled histograms shot-for-shot against the dense simulator on
//! random Clifford circuits over the shared (≤ 10 qubit) domain, and the
//! closed form against the dense support and a `CumulativeDistribution`
//! over it, draw for draw, at ranks up to 16.
//!
//! # Example
//!
//! ```
//! use qdaflow_quantum::backend::PreparedState;
//! use qdaflow_quantum::{QuantumCircuit, QuantumGate};
//! use qdaflow_stabilizer::StabilizerBackend;
//!
//! # fn main() -> Result<(), qdaflow_quantum::QuantumError> {
//! // A 300-qubit GHZ-style cascade over the low qubits: far beyond both
//! // amplitude engines, a few microseconds for the tableau.
//! let mut circuit = QuantumCircuit::new(300);
//! circuit.push(QuantumGate::H(0))?;
//! for target in 1..8 {
//!     circuit.push(QuantumGate::Cx { control: 0, target })?;
//! }
//! let backend = StabilizerBackend::default();
//! let sampler = backend.prepare(&circuit)?;
//! let counts = sampler.sample_sharded(7, 128, &backend.exec_config());
//! // All shots land on |0…0⟩ or |0…011111111⟩.
//! assert_eq!(counts.keys().sum::<usize>() % 255, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod tableau;

pub use backend::StabilizerBackend;
pub use tableau::{StabilizerError, StabilizerSampler, StabilizerTableau};

/// Maximum number of qubits supported by the stabilizer tableau.
///
/// The tableau stores `(2n+1)` rows of two bits per qubit plus a phase
/// column — `O(n²)` bits overall, about 4 MiB at this bound — so the cap is
/// a memory guard rather than a representational limit. Sampling has its
/// own limits ([`MAX_SAMPLING_RANK`] and the `usize` outcome width); they
/// apply to the *final* support only, so deep circuits over hundreds of
/// qubits simulate and sample freely as long as their final support fits.
pub const MAX_STABILIZER_QUBITS: usize = 4096;

/// Maximum support rank (log₂ of the number of distinct outcomes) the
/// sampler accepts: the 53 bits of an `f64` mantissa.
///
/// A stabilizer state is uniform over an affine subspace of `2^rank` basis
/// states, held in closed form, so the rank costs no memory. The cap comes
/// from the draws: a shot's uniform draw is `m·2^-53` with `m < 2^53`, and
/// lands on the outcome of ascending index `⌊m·2^(rank-53)⌋`. Up to rank
/// 53 every outcome is reached by exactly `2^(53 - rank)` draw values; at
/// rank 54 half of them could never be drawn. States with larger final
/// support (which needs a register of at least 54 qubits) return the typed
/// [`StabilizerError::SupportTooLarge`].
pub const MAX_SAMPLING_RANK: usize = f64::MANTISSA_DIGITS as usize;
