//! The stabilizer tableau as an exact execution backend.

use crate::{StabilizerSampler, StabilizerTableau};
use qdaflow_quantum::backend::{ExactBackend, PreparedState};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::{QuantumCircuit, QuantumError};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Stabilizer tableau simulation backend: exact measurement statistics for
/// Clifford circuits sampled from the affine support of a
/// [`StabilizerTableau`], held in closed form.
///
/// An alias of the one exact backend, [`ExactBackend`], over the
/// [`StabilizerSampler`], so seeding, RNG consumption and the shot-sharded
/// batch path are those of the dense
/// [`StatevectorBackend`](qdaflow_quantum::backend::StatevectorBackend) and
/// the sparse `SparseBackend`, and equal seeds give equal histograms on the
/// shared domain. Its qubit ceiling is
/// [`MAX_STABILIZER_QUBITS`](crate::MAX_STABILIZER_QUBITS), but it only
/// accepts Clifford gates: non-Clifford content surfaces as the typed
/// [`QuantumError::UnsupportedGate`], and final states with support rank
/// beyond [`MAX_SAMPLING_RANK`](crate::MAX_SAMPLING_RANK) as
/// [`QuantumError::SupportTooLarge`], which names the rank and the cap —
/// never a panic. Nothing falls back to another engine on these errors: a
/// job the automatic dispatcher routes here fails with them. Either needs a
/// register of at least 54 qubits, past both amplitude engines' ceilings,
/// so no other engine could run such a job either.
pub type StabilizerBackend = ExactBackend<StabilizerSampler>;

impl PreparedState for StabilizerSampler {
    fn backend_name() -> &'static str {
        "stabilizer-tableau-simulator"
    }

    /// Evolves a [`StabilizerTableau`] and extracts its support sampler, so
    /// support-extraction errors surface here and sampling stays
    /// infallible. Tableau evolution and sampling are sequential; only
    /// `config.shot_shard_size` matters, to sharded sampling.
    fn simulate(circuit: &QuantumCircuit, _config: &ExecConfig) -> Result<Self, QuantumError> {
        Ok(StabilizerTableau::from_circuit(circuit)?.sampler()?)
    }

    fn sample_with(&self, rng: &mut StdRng, shots: usize) -> BTreeMap<usize, usize> {
        self.sample_counts(rng, shots)
    }

    fn sample_sharded(
        &self,
        seed: u64,
        shots: usize,
        config: &ExecConfig,
    ) -> BTreeMap<usize, usize> {
        self.sample_counts_sharded(seed, shots, config)
    }
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
    fn stabilizer_backend_matches_the_dense_backend_with_equal_seeds() {
        let mut stabilizer = StabilizerBackend::seeded(11);
        let mut dense = StatevectorBackend::seeded(11);
        let a = stabilizer.run(&bell(), 2048).unwrap();
        let b = dense.run(&bell(), 2048).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.resources, b.resources);
        assert_eq!(stabilizer.name(), "stabilizer-tableau-simulator");
    }

    #[test]
    fn sharded_run_is_thread_count_invariant_and_matches_dense() {
        let circuit = bell();
        let config = ExecConfig::sequential().with_shot_shard_size(256);
        let sequential = sharded(StabilizerBackend::with_config(0, config), &circuit);
        let threaded = sharded(
            StabilizerBackend::with_config(1, config.with_threads(8)),
            &circuit,
        );
        assert_eq!(sequential, threaded);
        let dense = sharded(StatevectorBackend::with_config(0, config), &circuit);
        assert_eq!(sequential.counts, dense.counts);
    }

    #[test]
    fn runs_clifford_circuits_far_beyond_the_amplitude_ceilings() {
        // 256 qubits: no amplitude engine can represent this register.
        let mut circuit = QuantumCircuit::new(256);
        circuit.push(QuantumGate::X(9)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 9,
                target: 0,
            })
            .unwrap();
        let result = StabilizerBackend::seeded(1).run(&circuit, 16).unwrap();
        assert_eq!(result.most_likely(), Some(((1usize << 9) | 1, 1.0)));
        assert_eq!(result.shots, 16);
    }

    #[test]
    fn non_clifford_gates_are_a_typed_error_not_a_panic() {
        let mut circuit = QuantumCircuit::new(3);
        circuit
            .push(QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            })
            .unwrap();
        assert!(matches!(
            StabilizerBackend::seeded(1).run(&circuit, 16),
            Err(QuantumError::UnsupportedGate { gate: "ccx", .. })
        ));
    }

    #[test]
    fn reproducibility_with_fixed_seed() {
        let mut a = StabilizerBackend::seeded(99);
        let mut b = StabilizerBackend::seeded(99);
        assert_eq!(a.run(&bell(), 100).unwrap(), b.run(&bell(), 100).unwrap());
    }
}
