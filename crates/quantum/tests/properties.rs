//! Property-based tests for the quantum circuit layer.

use proptest::prelude::*;
use qdaflow_quantum::{
    qasm, ExecConfig, PreparedState, QuantumCircuit, QuantumGate, SoaStatevector,
};

/// Strategy producing a random Clifford+T gate over `n` qubits (n >= 2).
fn gate(n: usize) -> impl Strategy<Value = QuantumGate> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct qubits", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(QuantumGate::H),
        q.clone().prop_map(QuantumGate::X),
        q.clone().prop_map(QuantumGate::Z),
        q.clone().prop_map(QuantumGate::S),
        q.clone().prop_map(QuantumGate::Sdg),
        q.clone().prop_map(QuantumGate::T),
        q.clone().prop_map(QuantumGate::Tdg),
        q2.clone()
            .prop_map(|(control, target)| QuantumGate::Cx { control, target }),
        q2.prop_map(|(a, b)| QuantumGate::Cz { a, b }),
        (q, any::<i8>()).prop_map(|(qubit, steps)| QuantumGate::Rz {
            qubit,
            angle: f64::from(steps) * std::f64::consts::FRAC_PI_4,
        }),
    ]
}

fn circuit(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    prop::collection::vec(gate(n), 0..max_gates).prop_map(move |gates| {
        let mut circuit = QuantumCircuit::new(n);
        for gate in gates {
            circuit.push(gate).expect("gates are generated in range");
        }
        circuit
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn circuits_preserve_norm(c in circuit(4, 30)) {
        let state = SoaStatevector::simulate(&c, &ExecConfig::default()).unwrap();
        prop_assert!((state.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dagger_restores_the_initial_state(c in circuit(4, 25)) {
        let mut round_trip = c.clone();
        round_trip.append(&c.dagger()).unwrap();
        let state = SoaStatevector::simulate(&round_trip, &ExecConfig::default()).unwrap();
        prop_assert!((state.amplitude(0).norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dagger_is_an_involution(c in circuit(3, 20)) {
        prop_assert_eq!(c.dagger().dagger(), c);
    }

    #[test]
    fn qasm_round_trip_preserves_semantics(c in circuit(3, 20)) {
        let parsed = qasm::from_qasm(&qasm::to_qasm(&c)).unwrap();
        let a = SoaStatevector::simulate(&c, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&parsed, &ExecConfig::default()).unwrap();
        prop_assert!(a.fidelity(&b) > 1.0 - 1e-9);
    }

    #[test]
    fn depth_is_bounded_by_gate_count(c in circuit(4, 30)) {
        prop_assert!(c.depth() <= c.num_gates());
        prop_assert!(c.t_depth() <= c.t_count());
    }

    #[test]
    fn probabilities_sum_to_one(c in circuit(4, 30)) {
        let state = SoaStatevector::simulate(&c, &ExecConfig::default()).unwrap();
        let total: f64 = state.to_amplitudes().iter().map(|a| a.norm_sqr()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
