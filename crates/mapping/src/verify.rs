//! Verification of mapped quantum circuits against reversible
//! specifications.
//!
//! This is the one implementation behind the shell's `simulate` command and
//! the pipeline test-suites: it checks, by exhaustive basis-state
//! simulation, that a Clifford+T circuit produced by the mapping realizes
//! the same permutation as the reversible circuit it was mapped from.

use crate::MappingError;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::plan::ExecPlan;
use qdaflow_quantum::statevector::Statevector;
use qdaflow_quantum::QuantumCircuit;
use qdaflow_reversible::ReversibleCircuit;

/// Verifies (by exhaustive basis-state simulation) that `quantum` realizes
/// the same permutation as `reversible` on the original lines, with
/// ancillas returned to zero. Uses the default execution configuration.
///
/// # Errors
///
/// Returns [`MappingError::Quantum`] if the quantum circuit is too large to
/// simulate.
pub fn quantum_matches_reversible(
    quantum: &QuantumCircuit,
    reversible: &ReversibleCircuit,
) -> Result<bool, MappingError> {
    quantum_matches_reversible_with(quantum, reversible, &ExecConfig::default())
}

/// [`quantum_matches_reversible`] with an explicit execution configuration.
/// The quantum circuit is compiled once to an [`ExecPlan`] and replayed on
/// every basis state.
///
/// # Errors
///
/// Returns [`MappingError::Quantum`] if the quantum circuit is too large to
/// simulate.
pub fn quantum_matches_reversible_with(
    quantum: &QuantumCircuit,
    reversible: &ReversibleCircuit,
    config: &ExecConfig,
) -> Result<bool, MappingError> {
    let plan = ExecPlan::compile(quantum, config);
    let lines = reversible.num_lines();
    for basis in 0..(1usize << lines) {
        let mut state = Statevector::basis_state(quantum.num_qubits(), basis)?;
        plan.apply(state.amplitudes_mut(), config);
        let expected = reversible.apply(basis);
        if state.probability_of(expected) < 1.0 - 1e-9 {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map;
    use qdaflow_boolfn::Permutation;
    use qdaflow_reversible::synthesis;

    #[test]
    fn mapped_circuits_verify_against_their_source() {
        let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
        let reversible = synthesis::transformation_based(&pi).unwrap();
        let quantum = map::to_clifford_t(&reversible, &map::MappingOptions::default()).unwrap();
        assert!(quantum_matches_reversible(&quantum, &reversible).unwrap());
    }

    #[test]
    fn a_wrong_circuit_is_rejected() {
        let pi = Permutation::new(vec![0, 2, 1, 3]).unwrap();
        let reversible = synthesis::transformation_based(&pi).unwrap();
        // Map the *inverse* circuit: realizes pi^-1 == pi here (swap), so
        // instead compare against a different permutation's circuit.
        let other = Permutation::new(vec![1, 0, 2, 3]).unwrap();
        let wrong = synthesis::transformation_based(&other).unwrap();
        let quantum = map::to_clifford_t(&wrong, &map::MappingOptions::default()).unwrap();
        assert!(!quantum_matches_reversible(&quantum, &reversible).unwrap());
    }
}
