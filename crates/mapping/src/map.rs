//! Reversible-to-quantum mapping (`rptm`).
//!
//! Translates a multiple-controlled Toffoli network into a quantum circuit
//! over the Clifford+T library:
//!
//! * negative controls are conjugated with X gates,
//! * 0/1/2-control gates become X, CNOT and the 7-T Toffoli decomposition,
//! * gates with three or more controls are first decomposed into a Toffoli
//!   ladder over clean ancilla qubits (Barenco-style), which are appended
//!   after the original lines.

use crate::toffoli;
use crate::MappingError;
use qdaflow_quantum::{QuantumCircuit, QuantumGate};
use qdaflow_reversible::{MctGate, ReversibleCircuit};

/// Options controlling the reversible-to-quantum mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingOptions {
    /// Decompose Toffoli gates into Clifford+T (when `false`, `ccx` gates are
    /// kept in the output, which is useful for resource estimation at the
    /// Toffoli level).
    pub decompose_toffoli: bool,
    /// Keep multiple-controlled gates symbolic (as `mcx`) instead of
    /// expanding them over ancillas. Only useful for inspection; the result
    /// is not Clifford+T.
    pub keep_mcx_symbolic: bool,
}

impl Default for MappingOptions {
    fn default() -> Self {
        Self {
            decompose_toffoli: true,
            keep_mcx_symbolic: false,
        }
    }
}

/// Computes the number of ancilla qubits the mapping will append for a given
/// reversible circuit (the maximum over its gates).
pub fn ancillas_required(circuit: &ReversibleCircuit) -> usize {
    circuit
        .gates()
        .iter()
        .map(|gate| toffoli::required_ancillas(gate.num_controls()))
        .max()
        .unwrap_or(0)
}

/// Maps a reversible circuit to a quantum circuit over the Clifford+T
/// library. The output circuit has `circuit.num_lines() + ancillas_required`
/// qubits; ancillas are clean (`|0⟩`) and are returned clean.
///
/// # Errors
///
/// Returns [`MappingError::Quantum`] if a generated gate cannot be added to
/// the output circuit; this indicates an internal inconsistency and should
/// not happen for well-formed inputs.
///
/// # Example
///
/// ```
/// use qdaflow_reversible::{MctGate, ReversibleCircuit};
/// use qdaflow_mapping::map::{to_clifford_t, MappingOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reversible = ReversibleCircuit::new(3);
/// reversible.add_toffoli(0, 1, 2)?;
/// let quantum = to_clifford_t(&reversible, &MappingOptions::default())?;
/// assert_eq!(quantum.t_count(), 7);
/// # Ok(())
/// # }
/// ```
pub fn to_clifford_t(
    circuit: &ReversibleCircuit,
    options: &MappingOptions,
) -> Result<QuantumCircuit, MappingError> {
    let ancillas = if options.keep_mcx_symbolic {
        0
    } else {
        ancillas_required(circuit)
    };
    let total_qubits = circuit.num_lines() + ancillas;
    let mut quantum = QuantumCircuit::new(total_qubits);
    for gate in circuit {
        append_mct(&mut quantum, gate, circuit.num_lines(), options)?;
    }
    Ok(quantum)
}

/// Appends the Clifford+T realization of a single MCT gate.
fn append_mct(
    quantum: &mut QuantumCircuit,
    gate: &MctGate,
    ancilla_base: usize,
    options: &MappingOptions,
) -> Result<(), MappingError> {
    // Conjugate negative controls with X gates.
    let negative_controls: Vec<usize> = gate
        .controls()
        .iter()
        .filter(|c| !c.is_positive())
        .map(|c| c.line())
        .collect();
    for &line in &negative_controls {
        quantum.push(QuantumGate::X(line))?;
    }
    let positive_controls: Vec<usize> = gate.controls().iter().map(|c| c.line()).collect();
    append_positive_mcx(
        quantum,
        &positive_controls,
        gate.target(),
        ancilla_base,
        options,
    )?;
    for &line in &negative_controls {
        quantum.push(QuantumGate::X(line))?;
    }
    Ok(())
}

fn append_positive_mcx(
    quantum: &mut QuantumCircuit,
    controls: &[usize],
    target: usize,
    ancilla_base: usize,
    options: &MappingOptions,
) -> Result<(), MappingError> {
    match controls.len() {
        0 => quantum.push(QuantumGate::X(target))?,
        1 => quantum.push(QuantumGate::Cx {
            control: controls[0],
            target,
        })?,
        2 => {
            if options.decompose_toffoli {
                for gate in toffoli::ccx_clifford_t(controls[0], controls[1], target) {
                    quantum.push(gate)?;
                }
            } else {
                quantum.push(QuantumGate::Ccx {
                    control_a: controls[0],
                    control_b: controls[1],
                    target,
                })?;
            }
        }
        _ => {
            if options.keep_mcx_symbolic {
                quantum.push(QuantumGate::Mcx {
                    controls: controls.to_vec(),
                    target,
                })?;
            } else {
                for ladder_gate in toffoli::mcx_with_ancillas(controls, target, ancilla_base) {
                    match ladder_gate {
                        QuantumGate::Ccx {
                            control_a,
                            control_b,
                            target,
                        } if options.decompose_toffoli => {
                            for gate in toffoli::ccx_clifford_t(control_a, control_b, target) {
                                quantum.push(gate)?;
                            }
                        }
                        other => quantum.push(other)?,
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_boolfn::Permutation;
    use qdaflow_reversible::{synthesis, Control};
    use qdaflow_sparse::SparseStatevector;

    /// Checks that the mapped quantum circuit acts on computational basis
    /// states exactly like the reversible circuit (ancillas in and out |0⟩).
    fn assert_matches_reversible(reversible: &ReversibleCircuit, options: &MappingOptions) {
        let quantum = to_clifford_t(reversible, options).unwrap();
        let lines = reversible.num_lines();
        for basis in 0..(1usize << lines) {
            let mut state =
                SparseStatevector::basis_state(quantum.num_qubits(), basis as u64).unwrap();
            state.apply_circuit(&quantum);
            let expected = reversible.apply(basis);
            assert!(
                state.probability_of(expected as u64) > 1.0 - 1e-9,
                "basis {basis:b}: expected {expected:b}"
            );
        }
    }

    #[test]
    fn not_and_cnot_map_directly() {
        let mut reversible = ReversibleCircuit::new(2);
        reversible.add_not(0).unwrap();
        reversible.add_cnot(0, 1).unwrap();
        let quantum = to_clifford_t(&reversible, &MappingOptions::default()).unwrap();
        assert_eq!(quantum.num_gates(), 2);
        assert_eq!(quantum.num_qubits(), 2);
        assert_matches_reversible(&reversible, &MappingOptions::default());
    }

    #[test]
    fn toffoli_maps_to_seven_t_gates() {
        let mut reversible = ReversibleCircuit::new(3);
        reversible.add_toffoli(0, 1, 2).unwrap();
        let quantum = to_clifford_t(&reversible, &MappingOptions::default()).unwrap();
        assert_eq!(quantum.t_count(), 7);
        assert!(quantum.is_clifford_t());
        assert_matches_reversible(&reversible, &MappingOptions::default());
    }

    #[test]
    fn negative_controls_are_conjugated_with_x() {
        let mut reversible = ReversibleCircuit::new(3);
        reversible
            .add_gate(MctGate::new(
                vec![Control::negative(0), Control::positive(1)],
                2,
            ))
            .unwrap();
        let quantum = to_clifford_t(&reversible, &MappingOptions::default()).unwrap();
        let x_count = quantum.gate_counts().get("x").copied().unwrap_or(0);
        assert_eq!(x_count, 2);
        assert_matches_reversible(&reversible, &MappingOptions::default());
    }

    #[test]
    fn large_mct_uses_ancillas_and_stays_correct() {
        let mut reversible = ReversibleCircuit::new(5);
        reversible
            .add_gate(MctGate::new(
                vec![
                    Control::positive(0),
                    Control::positive(1),
                    Control::positive(2),
                    Control::negative(3),
                ],
                4,
            ))
            .unwrap();
        assert_eq!(ancillas_required(&reversible), 2);
        let quantum = to_clifford_t(&reversible, &MappingOptions::default()).unwrap();
        assert_eq!(quantum.num_qubits(), 7);
        assert!(quantum.is_clifford_t());
        assert_matches_reversible(&reversible, &MappingOptions::default());
    }

    #[test]
    fn synthesized_permutations_survive_the_mapping() {
        for seed in [3u64, 17, 99] {
            let permutation = Permutation::random_seeded(3, seed);
            let reversible = synthesis::transformation_based(&permutation).unwrap();
            assert_matches_reversible(&reversible, &MappingOptions::default());
        }
    }

    #[test]
    fn paper_permutation_maps_correctly_with_both_synthesis_methods() {
        let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
        for circuit in [
            synthesis::transformation_based(&pi).unwrap(),
            synthesis::decomposition_based(&pi).unwrap(),
        ] {
            assert_matches_reversible(&circuit, &MappingOptions::default());
        }
    }

    #[test]
    fn toffoli_level_output_keeps_ccx_gates() {
        let mut reversible = ReversibleCircuit::new(3);
        reversible.add_toffoli(0, 1, 2).unwrap();
        let options = MappingOptions {
            decompose_toffoli: false,
            keep_mcx_symbolic: false,
        };
        let quantum = to_clifford_t(&reversible, &options).unwrap();
        assert_eq!(quantum.num_gates(), 1);
        assert_eq!(quantum.gate_counts()["ccx"], 1);
        assert_matches_reversible(&reversible, &options);
    }

    #[test]
    fn symbolic_mcx_output() {
        let mut reversible = ReversibleCircuit::new(5);
        reversible
            .add_gate(MctGate::new(
                vec![
                    Control::positive(0),
                    Control::positive(1),
                    Control::positive(2),
                    Control::positive(3),
                ],
                4,
            ))
            .unwrap();
        let options = MappingOptions {
            decompose_toffoli: false,
            keep_mcx_symbolic: true,
        };
        let quantum = to_clifford_t(&reversible, &options).unwrap();
        assert_eq!(quantum.num_qubits(), 5);
        assert_eq!(quantum.gate_counts()["mcx"], 1);
    }

    #[test]
    fn empty_circuit_maps_to_empty_circuit() {
        let reversible = ReversibleCircuit::new(4);
        let quantum = to_clifford_t(&reversible, &MappingOptions::default()).unwrap();
        assert!(quantum.is_empty());
        assert_eq!(quantum.num_qubits(), 4);
    }
}
