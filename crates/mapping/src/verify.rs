//! Verification of mapped quantum circuits against reversible
//! specifications.
//!
//! This is the one implementation behind the shell's `simulate` command and
//! the pipeline test-suites: it checks, by exhaustive basis-state
//! simulation, that a Clifford+T circuit produced by the mapping realizes
//! the same permutation as the reversible circuit it was mapped from, up to
//! one global phase.

use crate::MappingError;
use qdaflow_quantum::{
    Complex, ExecConfig, ExecPlan, QuantumCircuit, QuantumError, SoaStatevector,
    MAX_SIMULATOR_QUBITS,
};
use qdaflow_reversible::ReversibleCircuit;

/// Verifies (by exhaustive basis-state simulation) that `quantum` maps every
/// basis state `|x⟩` of the original lines, ancillas at zero, to
/// `c·|π(x)⟩`, where `π` is the permutation `reversible` computes and `c` is
/// one global phase shared by all inputs: each amplitude `a_x` at `π(x)`
/// has `|a_x|² > 1 − 1e-9` and `|a_x − a_0| < 1e-9`. Uses the default
/// execution configuration.
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
/// The quantum circuit is compiled once to an [`ExecPlan`], and each input
/// runs it on its basis state, written as a [`SoaStatevector::product_state`].
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
    let num_qubits = quantum.num_qubits();
    if num_qubits > MAX_SIMULATOR_QUBITS {
        return Err(QuantumError::TooManyQubits {
            requested: num_qubits,
            maximum: MAX_SIMULATOR_QUBITS,
        }
        .into());
    }
    let lines = reversible.num_lines();
    if lines > num_qubits {
        return Ok(false);
    }
    let plan = ExecPlan::compile(quantum, config);
    let mut global_phase = None;
    for input in 0..(1usize << lines) {
        let factors: Vec<[Complex; 2]> = (0..num_qubits)
            .map(|qubit| match (input >> qubit) & 1 {
                0 => [Complex::ONE, Complex::ZERO],
                _ => [Complex::ZERO, Complex::ONE],
            })
            .collect();
        let mut state = SoaStatevector::product_state(&factors, plan.block_bits());
        plan.apply_soa(&mut state, config);
        let amplitude = state.amplitude(reversible.apply(input));
        let phase = *global_phase.get_or_insert(amplitude);
        if amplitude.norm_sqr() <= 1.0 - 1e-9 || (amplitude - phase).norm() >= 1e-9 {
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
        // A circuit on fewer qubits than the specification has lines.
        let narrow = QuantumCircuit::new(1);
        assert!(!quantum_matches_reversible(&narrow, &reversible).unwrap());
    }

    #[test]
    fn an_oversized_circuit_is_a_typed_error() {
        let wide = QuantumCircuit::new(MAX_SIMULATOR_QUBITS + 1);
        assert!(matches!(
            quantum_matches_reversible(&wide, &ReversibleCircuit::new(1)),
            Err(MappingError::Quantum(QuantumError::TooManyQubits { .. }))
        ));
    }
}
