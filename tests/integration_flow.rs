//! Cross-crate integration tests of the full compilation flow:
//! specification → reversible synthesis → Clifford+T mapping → optimization →
//! simulation.

use qdaflow::flow::{compile_permutation, compile_phase_function, equation5_pipeline};
use qdaflow::mapping::phase_oracle::oracle_matches_function;
use qdaflow::mapping::verify::quantum_matches_reversible;
use qdaflow::prelude::*;
use qdaflow::reversible::synthesis::SynthesisMethod;

#[test]
fn hwb4_pipeline_matches_the_specification_for_both_methods() {
    let hwb = qdaflow::boolfn::hwb::hwb_permutation(4);
    for method in [
        SynthesisMethod::TransformationBased,
        SynthesisMethod::DecompositionBased,
    ] {
        let report = compile_permutation(&hwb, method).unwrap();
        assert!(report.circuit.is_clifford_t(), "{method:?}");
        assert!(report.optimized.t_count <= report.mapped.t_count);
        assert_eq!(first_wrong_input(&report.circuit, &hwb), None, "{method:?}");
    }
}

/// The first input the circuit does not map to `π(x)` with every ancilla
/// back at zero, simulated on the sparse backend, or `None`.
fn first_wrong_input(circuit: &QuantumCircuit, permutation: &Permutation) -> Option<usize> {
    (0..permutation.len()).find(|&x| {
        let mut state = SparseStatevector::basis_state(circuit.num_qubits(), x as u64).unwrap();
        state.apply_circuit(circuit);
        state.probability_of(permutation.apply(x) as u64) < 1.0 - 1e-9
    })
}

#[test]
fn equation5_outputs_realize_permutations_of_five_and_six_variables() {
    // These compiles run `tpar` over more than 128 path variables.
    let specs = [
        ("hwb5", qdaflow::boolfn::hwb::hwb_permutation(5)),
        ("hwb6", qdaflow::boolfn::hwb::hwb_permutation(6)),
        ("random5", Permutation::random_seeded(5, 0xBEEF + 5)),
        ("random6", Permutation::random_seeded(6, 0xBEEF + 6)),
    ];
    let mut wrong = Vec::new();
    for (name, permutation) in &specs {
        for method in [
            SynthesisMethod::TransformationBased,
            SynthesisMethod::DecompositionBased,
        ] {
            let report = equation5_pipeline(method)
                .run(permutation.clone().into())
                .unwrap();
            if let Some(x) = first_wrong_input(report.final_quantum().unwrap(), permutation) {
                wrong.push(format!("{name}/{}: input {x}", method.command_name()));
            }
        }
    }
    assert!(wrong.is_empty(), "wrong eq. (5) outputs: {wrong:?}");
}

#[test]
fn equation5_output_with_a_phase_tail_is_rejected() {
    // `Z(0); T(1)` keeps every input's basis image but gives the inputs
    // four different phases: no single global phase.
    let hwb = qdaflow::boolfn::hwb::hwb_permutation(4);
    for method in [
        SynthesisMethod::TransformationBased,
        SynthesisMethod::DecompositionBased,
    ] {
        let report = equation5_pipeline(method).run(hwb.clone().into()).unwrap();
        let reversible = report.artifacts.reversible.as_ref().unwrap();
        let mut circuit = report.final_quantum().unwrap().clone();
        assert!(quantum_matches_reversible(&circuit, reversible).unwrap());
        circuit.push(QuantumGate::Z(0)).unwrap();
        circuit.push(QuantumGate::T(1)).unwrap();
        assert_eq!(first_wrong_input(&circuit, &hwb), None, "{method:?}");
        assert!(
            !quantum_matches_reversible(&circuit, reversible).unwrap(),
            "{method:?}"
        );
    }
}

#[test]
fn random_permutations_compile_correctly_end_to_end() {
    for seed in 0..5u64 {
        let permutation = Permutation::random_seeded(3, seed * 7 + 1);
        let report =
            compile_permutation(&permutation, SynthesisMethod::TransformationBased).unwrap();
        assert_eq!(first_wrong_input(&report.circuit, &permutation), None);
    }
}

#[test]
fn compiled_phase_oracles_match_their_functions() {
    let functions = [
        "(a & b) ^ (c & d)",
        "a ^ (b & c & d)",
        "!a & b | c & d",
        "(a ^ b) & (c ^ d)",
    ];
    for text in functions {
        let f = Expr::parse(text).unwrap().truth_table(4).unwrap();
        let report = compile_phase_function(&f).unwrap();
        assert!(
            oracle_matches_function(&report.circuit, &f),
            "oracle for {text} is wrong"
        );
    }
}

#[test]
fn optimization_reduces_t_count_for_compute_uncompute_structures() {
    // A permutation followed by its inverse compiles to a circuit whose
    // optimized T-count collapses dramatically.
    let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
    let forward = compile_permutation(&pi, SynthesisMethod::TransformationBased).unwrap();
    let mut round_trip = forward.circuit.clone();
    round_trip.append(&forward.circuit.dagger()).unwrap();
    let optimized = qdaflow::mapping::optimize::optimize_clifford_t(&round_trip);
    assert_eq!(optimized.t_count(), 0);
}

#[test]
fn qasm_export_of_a_compiled_circuit_round_trips() {
    let pi = Permutation::random_seeded(3, 99);
    let report = compile_permutation(&pi, SynthesisMethod::DecompositionBased).unwrap();
    let qasm = qdaflow::quantum::qasm::to_qasm(&report.circuit);
    let parsed = qdaflow::quantum::qasm::from_qasm(&qasm).unwrap();
    assert_eq!(parsed.gates(), report.circuit.gates());
}

#[test]
fn resource_counts_are_consistent_with_the_circuit() {
    let pi = qdaflow::boolfn::hwb::hwb_permutation(4);
    let report = compile_permutation(&pi, SynthesisMethod::TransformationBased).unwrap();
    let counts = ResourceCounts::of(&report.circuit);
    assert_eq!(counts.total_gates, report.circuit.num_gates());
    assert_eq!(counts.t_count, report.circuit.t_count());
    assert_eq!(counts, report.optimized);
}
