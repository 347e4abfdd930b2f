//! Property-based round-trip tests for the OpenQASM exporter/importer pair.
//!
//! The checked exporter refuses circuits it cannot render faithfully, so
//! everything it emits must re-import *gate for gate* — not just up to
//! fidelity. The fidelity check is kept as well: it would catch a matched
//! pair of bugs where exporter and importer disagree with the simulator.

use proptest::prelude::*;
use qdaflow_quantum::{
    qasm, ExecConfig, PreparedState, QuantumCircuit, QuantumGate, SoaStatevector,
};

/// Strategy producing a random exporter-supported gate over `n` qubits
/// (n >= 2). Encoded as (kind, qubit, qubit pair, Rz step) and decoded in
/// one map so the arm count stays small for the vendored proptest.
fn gate(n: usize) -> impl Strategy<Value = QuantumGate> {
    let pair = (0..n, 0..n).prop_filter("distinct qubits", |(a, b)| a != b);
    let triple =
        (0..n, 0..n, 0..n).prop_filter("distinct qubits", |(a, b, c)| a != b && a != c && b != c);
    (0..13usize, 0..n, pair, triple, any::<i8>()).prop_map(
        |(kind, q, (a, b), (ca, cb, t), steps)| match kind {
            0 => QuantumGate::H(q),
            1 => QuantumGate::X(q),
            2 => QuantumGate::Y(q),
            3 => QuantumGate::Z(q),
            4 => QuantumGate::S(q),
            5 => QuantumGate::Sdg(q),
            6 => QuantumGate::T(q),
            7 => QuantumGate::Tdg(q),
            8 => QuantumGate::Rz {
                qubit: q,
                angle: f64::from(steps) * std::f64::consts::FRAC_PI_4 / 2.0,
            },
            9 => QuantumGate::Cx {
                control: a,
                target: b,
            },
            10 => QuantumGate::Cz { a, b },
            11 => QuantumGate::Swap { a, b },
            _ => QuantumGate::Ccx {
                control_a: ca,
                control_b: cb,
                target: t,
            },
        },
    )
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checked_export_reimports_gate_for_gate(c in circuit(5, 40)) {
        let text = qasm::to_qasm_checked(&c).unwrap();
        let parsed = qasm::from_qasm(&text).unwrap();
        prop_assert_eq!(parsed.num_qubits(), c.num_qubits());
        prop_assert_eq!(parsed.gates(), c.gates());
        let a = SoaStatevector::simulate(&c, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&parsed, &ExecConfig::default()).unwrap();
        prop_assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }
}
