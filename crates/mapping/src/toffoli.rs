//! Clifford+T decompositions of Toffoli-like gates.
//!
//! The reversible-to-quantum mapping of the paper relies on the standard
//! 7-T decomposition of the Toffoli gate [Nielsen–Chuang] and on Maslov's
//! relative-phase Toffoli \[42\], which only needs 4 T gates but introduces a
//! relative phase that must be undone by the matching uncompute gate.
//! Larger multiple-controlled gates are decomposed into a ladder of Toffoli
//! gates over clean ancilla qubits (Barenco et al. \[40\]).

use qdaflow_quantum::QuantumGate;

/// The standard Clifford+T decomposition of the Toffoli gate
/// `CCX(a, b; t)` with 7 T gates and 6 CNOTs (plus 2 Hadamards).
pub fn ccx_clifford_t(control_a: usize, control_b: usize, target: usize) -> Vec<QuantumGate> {
    let (a, b, t) = (control_a, control_b, target);
    vec![
        QuantumGate::H(t),
        QuantumGate::Cx {
            control: b,
            target: t,
        },
        QuantumGate::Tdg(t),
        QuantumGate::Cx {
            control: a,
            target: t,
        },
        QuantumGate::T(t),
        QuantumGate::Cx {
            control: b,
            target: t,
        },
        QuantumGate::Tdg(t),
        QuantumGate::Cx {
            control: a,
            target: t,
        },
        QuantumGate::T(b),
        QuantumGate::T(t),
        QuantumGate::H(t),
        QuantumGate::Cx {
            control: a,
            target: b,
        },
        QuantumGate::T(a),
        QuantumGate::Tdg(b),
        QuantumGate::Cx {
            control: a,
            target: b,
        },
    ]
}

/// The Clifford+T decomposition of the doubly-controlled Z gate
/// `CCZ(a, b, c)`, obtained from the Toffoli decomposition by dropping the
/// Hadamard conjugation of the target.
pub fn ccz_clifford_t(a: usize, b: usize, c: usize) -> Vec<QuantumGate> {
    // CCX = (I ⊗ I ⊗ H) · CCZ · (I ⊗ I ⊗ H), so dropping the two Hadamard
    // gates on the target from the Toffoli decomposition yields CCZ.
    ccx_clifford_t(a, b, c)
        .into_iter()
        .filter(|gate| !matches!(gate, QuantumGate::H(q) if *q == c))
        .collect()
}

/// Maslov's relative-phase Toffoli (RTOF): realizes `CCX` up to a relative
/// phase on the `|11x⟩` subspace using only 4 T gates. It is safe to use when
/// the gate is later undone by the adjoint of the same construction, which is
/// exactly the compute/uncompute pattern produced by the oracles of the
/// hidden shift circuits.
pub fn relative_phase_ccx(control_a: usize, control_b: usize, target: usize) -> Vec<QuantumGate> {
    let (a, b, t) = (control_a, control_b, target);
    vec![
        QuantumGate::H(t),
        QuantumGate::T(t),
        QuantumGate::Cx {
            control: a,
            target: t,
        },
        QuantumGate::Tdg(t),
        QuantumGate::Cx {
            control: b,
            target: t,
        },
        QuantumGate::T(t),
        QuantumGate::Cx {
            control: a,
            target: t,
        },
        QuantumGate::Tdg(t),
        QuantumGate::H(t),
    ]
}

/// The adjoint of [`relative_phase_ccx`].
pub fn relative_phase_ccx_dagger(
    control_a: usize,
    control_b: usize,
    target: usize,
) -> Vec<QuantumGate> {
    relative_phase_ccx(control_a, control_b, target)
        .into_iter()
        .rev()
        .map(|gate| gate.dagger())
        .collect()
}

/// Decomposes a multiple-controlled X gate with `controls.len() >= 3` into a
/// ladder of Toffoli gates using `controls.len() - 2` clean ancilla qubits
/// starting at `ancilla_base`. The ancillas are returned to `|0⟩`.
///
/// The returned gates still contain [`QuantumGate::Ccx`] operations; pass
/// them through [`ccx_clifford_t`] (as [`crate::map::to_clifford_t`] does) to
/// reach the Clifford+T level.
///
/// # Panics
///
/// Panics if fewer than three controls are given (use CNOT/CCX directly) or
/// if the ancilla range overlaps the controls or the target.
pub fn mcx_with_ancillas(
    controls: &[usize],
    target: usize,
    ancilla_base: usize,
) -> Vec<QuantumGate> {
    assert!(
        controls.len() >= 3,
        "use X, CNOT or CCX for gates with fewer than three controls"
    );
    let num_ancillas = controls.len() - 2;
    let ancillas: Vec<usize> = (ancilla_base..ancilla_base + num_ancillas).collect();
    for &ancilla in &ancillas {
        assert!(
            !controls.contains(&ancilla) && ancilla != target,
            "ancilla {ancilla} overlaps the gate qubits"
        );
    }
    let mut compute = Vec::new();
    // a0 = c0 AND c1
    compute.push(QuantumGate::Ccx {
        control_a: controls[0],
        control_b: controls[1],
        target: ancillas[0],
    });
    // a_i = a_{i-1} AND c_{i+1}
    for i in 1..num_ancillas {
        compute.push(QuantumGate::Ccx {
            control_a: ancillas[i - 1],
            control_b: controls[i + 1],
            target: ancillas[i],
        });
    }
    let mut gates = compute.clone();
    // Final conditional flip of the target controlled by the last ancilla and
    // the last control.
    gates.push(QuantumGate::Ccx {
        control_a: ancillas[num_ancillas - 1],
        control_b: *controls.last().expect("at least three controls"),
        target,
    });
    // Uncompute the ancilla ladder.
    gates.extend(compute.into_iter().rev());
    gates
}

/// Number of clean ancillas required by [`mcx_with_ancillas`] for a gate with
/// `num_controls` controls (zero for up to two controls).
pub fn required_ancillas(num_controls: usize) -> usize {
    num_controls.saturating_sub(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::quantum_matches_reversible;
    use qdaflow_quantum::{
        ExecConfig, PreparedState, QuantumCircuit, QuantumError, SoaStatevector,
    };
    use qdaflow_reversible::ReversibleCircuit;
    use qdaflow_sparse::SparseStatevector;

    /// Builds a circuit from raw gates over `n` qubits.
    fn circuit_of(n: usize, gates: &[QuantumGate]) -> Result<QuantumCircuit, QuantumError> {
        let mut circuit = QuantumCircuit::new(n);
        for gate in gates {
            circuit.push(gate.clone())?;
        }
        Ok(circuit)
    }

    /// Checks that `gates` act on computational basis states exactly like the
    /// classical function `f` over `n` qubits.
    fn assert_classical_action(n: usize, gates: &[QuantumGate], f: impl Fn(usize) -> usize) {
        let circuit = circuit_of(n, gates).unwrap();
        for basis in 0..(1usize << n) {
            let mut state = SparseStatevector::basis_state(n, basis as u64).unwrap();
            state.apply_circuit(&circuit);
            let expected = f(basis);
            assert!(
                state.probability_of(expected as u64) > 1.0 - 1e-9,
                "basis {basis:0width$b} mapped incorrectly",
                width = n
            );
        }
    }

    fn toffoli_function(basis: usize) -> usize {
        if basis & 0b011 == 0b011 {
            basis ^ 0b100
        } else {
            basis
        }
    }

    #[test]
    fn ccx_decomposition_matches_toffoli_exactly() {
        // Compare the full unitary against the native Toffoli gate by
        // checking amplitudes on a complete basis of input states prepared in
        // superposition (H layer) to be sensitive to phases.
        let decomposed = {
            let mut gates = vec![QuantumGate::H(0), QuantumGate::H(1), QuantumGate::H(2)];
            gates.extend(ccx_clifford_t(0, 1, 2));
            circuit_of(3, &gates).unwrap()
        };
        let native = {
            let gates = vec![
                QuantumGate::H(0),
                QuantumGate::H(1),
                QuantumGate::H(2),
                QuantumGate::Ccx {
                    control_a: 0,
                    control_b: 1,
                    target: 2,
                },
            ];
            circuit_of(3, &gates).unwrap()
        };
        let a = SoaStatevector::simulate(&decomposed, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&native, &ExecConfig::default()).unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-9, "fidelity {}", a.fidelity(&b));
    }

    #[test]
    fn ccx_decomposition_has_seven_t_gates() {
        let circuit = circuit_of(3, &ccx_clifford_t(0, 1, 2)).unwrap();
        assert_eq!(circuit.t_count(), 7);
        assert!(circuit.is_clifford_t());
        assert_classical_action(3, &ccx_clifford_t(0, 1, 2), toffoli_function);
    }

    #[test]
    fn ccz_is_diagonal_and_flips_the_all_ones_phase() {
        let gates = ccz_clifford_t(0, 1, 2);
        let circuit = circuit_of(3, &gates).unwrap();
        // Compare against the native MCZ.
        let mut native = QuantumCircuit::new(3);
        native
            .push(QuantumGate::Mcz {
                qubits: vec![0, 1, 2],
            })
            .unwrap();
        for basis in 0..8u64 {
            let mut lhs = SparseStatevector::basis_state(3, basis).unwrap();
            lhs.apply_circuit(&circuit);
            let mut rhs = SparseStatevector::basis_state(3, basis).unwrap();
            rhs.apply_circuit(&native);
            let overlap = lhs.amplitude(basis).conj() * rhs.amplitude(basis);
            assert!(overlap.norm_sqr() > 1.0 - 1e-9, "basis {basis}");
        }
        // Phase check on a superposed input.
        let mut superposed = QuantumCircuit::new(3);
        for q in 0..3 {
            superposed.push(QuantumGate::H(q)).unwrap();
        }
        let mut with_ccz = superposed.clone();
        for gate in &gates {
            with_ccz.push(gate.clone()).unwrap();
        }
        let mut with_native = superposed;
        with_native
            .push(QuantumGate::Mcz {
                qubits: vec![0, 1, 2],
            })
            .unwrap();
        let a = SoaStatevector::simulate(&with_ccz, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&with_native, &ExecConfig::default()).unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-9);
    }

    #[test]
    fn relative_phase_toffoli_acts_correctly_on_basis_states() {
        // RTOF realizes the Toffoli permutation on the computational basis
        // (up to phases), and RTOF followed by its adjoint is the identity.
        assert_classical_action(3, &relative_phase_ccx(0, 1, 2), toffoli_function);
        let mut gates = relative_phase_ccx(0, 1, 2);
        gates.extend(relative_phase_ccx_dagger(0, 1, 2));
        let mut with_h: Vec<QuantumGate> =
            vec![QuantumGate::H(0), QuantumGate::H(1), QuantumGate::H(2)];
        with_h.extend(gates);
        let circuit = circuit_of(3, &with_h).unwrap();
        let reference = circuit_of(
            3,
            &[QuantumGate::H(0), QuantumGate::H(1), QuantumGate::H(2)],
        )
        .unwrap();
        let a = SoaStatevector::simulate(&circuit, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&reference, &ExecConfig::default()).unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-9);
    }

    #[test]
    fn relative_phase_toffoli_is_not_verified_as_a_toffoli() {
        // Its basis action is the Toffoli's, but inputs 011, 110 and 111
        // carry the phases i, −1 and −i: no single global phase.
        let mut toffoli = ReversibleCircuit::new(3);
        toffoli.add_toffoli(0, 1, 2).unwrap();
        let rtof = circuit_of(3, &relative_phase_ccx(0, 1, 2)).unwrap();
        assert!(!quantum_matches_reversible(&rtof, &toffoli).unwrap());
        let exact = circuit_of(3, &ccx_clifford_t(0, 1, 2)).unwrap();
        assert!(quantum_matches_reversible(&exact, &toffoli).unwrap());
    }

    #[test]
    fn relative_phase_toffoli_uses_four_t_gates() {
        let circuit = circuit_of(3, &relative_phase_ccx(0, 1, 2)).unwrap();
        assert_eq!(circuit.t_count(), 4);
    }

    #[test]
    fn mcx_with_ancillas_computes_the_and_of_all_controls() {
        for num_controls in 3..=5usize {
            let controls: Vec<usize> = (0..num_controls).collect();
            let target = num_controls;
            let ancilla_base = num_controls + 1;
            let gates = mcx_with_ancillas(&controls, target, ancilla_base);
            let total_qubits = ancilla_base + required_ancillas(num_controls);
            // Check action on every basis state of the control+target block
            // with ancillas initialised to zero.
            for basis in 0..(1usize << (num_controls + 1)) {
                let mut state = SparseStatevector::basis_state(total_qubits, basis as u64).unwrap();
                state.apply_circuit(&circuit_of(total_qubits, &gates).unwrap());
                let all_controls = (0..num_controls).all(|c| (basis >> c) & 1 == 1);
                let expected = if all_controls {
                    basis ^ (1 << target)
                } else {
                    basis
                };
                assert!(
                    state.probability_of(expected as u64) > 1.0 - 1e-9,
                    "controls={num_controls}, basis={basis:b}"
                );
            }
        }
    }

    #[test]
    fn required_ancillas_formula() {
        assert_eq!(required_ancillas(0), 0);
        assert_eq!(required_ancillas(2), 0);
        assert_eq!(required_ancillas(3), 1);
        assert_eq!(required_ancillas(6), 4);
    }

    #[test]
    #[should_panic(expected = "fewer than three controls")]
    fn mcx_with_too_few_controls_panics() {
        mcx_with_ancillas(&[0, 1], 2, 3);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_ancillas_panic() {
        mcx_with_ancillas(&[0, 1, 2], 3, 2);
    }
}
