//! The sparse simulator as an exact execution backend.

use crate::SparseStatevector;
use qdaflow_quantum::backend::{ExactBackend, PreparedState};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::{QuantumCircuit, QuantumError};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Sparse statevector simulation backend: exact measurement statistics
/// sampled from the nonzero entries of a [`SparseStatevector`].
///
/// An alias of the one exact backend, [`ExactBackend`], so seeding, RNG
/// consumption and the shot-sharded batch path are those of the dense
/// [`StatevectorBackend`](qdaflow_quantum::backend::StatevectorBackend), and
/// equal seeds give equal histograms on the shared domain. Its qubit ceiling
/// is [`MAX_SPARSE_QUBITS`](crate::MAX_SPARSE_QUBITS) instead of the dense
/// [`MAX_SIMULATOR_QUBITS`](qdaflow_quantum::MAX_SIMULATOR_QUBITS), but cost
/// scales with the state's support size, so circuits that spread mass over
/// the full basis (e.g. `H` on every qubit of a large register) should stay
/// on the dense engine. Sparse evolution itself is sequential and unfused
/// (it walks the support, not the index space); the execution configuration
/// governs the sampling layer (`threads`, `shot_shard_size`).
pub type SparseBackend = ExactBackend<SparseStatevector>;

impl PreparedState for SparseStatevector {
    fn backend_name() -> &'static str {
        "sparse-statevector-simulator"
    }

    /// Simulates through [`SparseStatevector::from_circuit`]; `config` only
    /// matters to sampling.
    fn simulate(circuit: &QuantumCircuit, _config: &ExecConfig) -> Result<Self, QuantumError> {
        Self::from_circuit(circuit)
    }

    fn sample_with(&self, rng: &mut StdRng, shots: usize) -> BTreeMap<usize, usize> {
        widen_counts(self.sample_counts(rng, shots))
    }

    fn sample_sharded(
        &self,
        seed: u64,
        shots: usize,
        config: &ExecConfig,
    ) -> BTreeMap<usize, usize> {
        widen_counts(self.sample_counts_sharded(seed, shots, config))
    }
}

/// Converts sparse `u64` basis keys into the `usize` outcomes of
/// [`ExecutionResult`](qdaflow_quantum::ExecutionResult) (lossless: [`MAX_SPARSE_QUBITS`](crate::MAX_SPARSE_QUBITS)
/// keeps every key well inside `usize` range on 64-bit hosts). The sparse
/// [`PreparedState`] samplers return their counts through it.
pub fn widen_counts(counts: BTreeMap<u64, usize>) -> BTreeMap<usize, usize> {
    counts
        .into_iter()
        .map(|(key, count)| (key as usize, count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_quantum::backend::{Backend, ExecutionResult, StatevectorBackend};
    use qdaflow_quantum::QuantumGate;

    fn bell() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(2);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        circuit
    }

    /// The seed-keyed batch path: `prepare`, then 4096 shots of
    /// `sample_sharded` under seed 77 and the backend's configuration.
    fn sharded<S: PreparedState>(
        backend: ExactBackend<S>,
        circuit: &QuantumCircuit,
    ) -> ExecutionResult {
        let state = backend.prepare(circuit).unwrap();
        let counts = state.sample_sharded(77, 4096, &backend.exec_config());
        ExecutionResult::from_counts(circuit, 4096, counts)
    }

    #[test]
    fn sparse_backend_matches_the_dense_backend_with_equal_seeds() {
        let mut sparse = SparseBackend::seeded(11);
        let mut dense = StatevectorBackend::seeded(11);
        let a = sparse.run(&bell(), 2048).unwrap();
        let b = dense.run(&bell(), 2048).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.resources, b.resources);
        assert_eq!(sparse.name(), "sparse-statevector-simulator");
    }

    #[test]
    fn sharded_run_is_thread_count_invariant_and_matches_dense() {
        let circuit = bell();
        let config = ExecConfig::sequential().with_shot_shard_size(256);
        let sparse = sharded(SparseBackend::with_config(0, config), &circuit);
        let threaded = sharded(
            SparseBackend::with_config(1, config.with_threads(8)),
            &circuit,
        );
        assert_eq!(sparse, threaded);
        let dense = sharded(StatevectorBackend::with_config(0, config), &circuit);
        assert_eq!(sparse.counts, dense.counts);
    }

    #[test]
    fn runs_circuits_beyond_the_dense_ceiling() {
        // 32 qubits: the dense backend cannot even allocate this register.
        let mut circuit = QuantumCircuit::new(32);
        circuit.push(QuantumGate::X(31)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 31,
                target: 0,
            })
            .unwrap();
        assert!(matches!(
            StatevectorBackend::seeded(1).run(&circuit, 16),
            Err(QuantumError::TooManyQubits { .. })
        ));
        let result = SparseBackend::seeded(1).run(&circuit, 16).unwrap();
        assert_eq!(result.most_likely(), Some(((1usize << 31) | 1, 1.0)));
        assert_eq!(result.shots, 16);
    }

    #[test]
    fn reproducibility_with_fixed_seed() {
        let mut a = SparseBackend::seeded(99);
        let mut b = SparseBackend::seeded(99);
        assert_eq!(a.run(&bell(), 100).unwrap(), b.run(&bell(), 100).unwrap());
    }
}
