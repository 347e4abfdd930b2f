//! Integration tests of the engine's oracle primitives against the
//! mathematical definitions from the Boolean-function layer.

use qdaflow::prelude::*;
use qdaflow::quantum::{PreparedState, SoaStatevector};

/// Applies the compiled phase oracle to a uniform superposition and checks
/// the signs against the function.
fn phase_oracle_signs_match(function: &TruthTable) {
    let mut engine = MainEngine::with_simulator();
    let qubits = engine.allocate_qureg(function.num_vars());
    engine.all_h(&qubits).unwrap();
    engine.phase_oracle(function, &qubits).unwrap();
    let circuit = engine.circuit();
    let state = SoaStatevector::simulate(&circuit, &ExecConfig::default()).unwrap();
    let reference = state.amplitude(0).re.signum();
    let magnitude = (1.0 / function.len() as f64).sqrt();
    let base_sign = if function.get(0) {
        -reference
    } else {
        reference
    };
    for x in 0..function.len() {
        let expected = base_sign
            * if function.get(x) {
                -magnitude
            } else {
                magnitude
            };
        let actual = state.amplitude(x);
        assert!(
            (actual.re - expected).abs() < 1e-9 && actual.im.abs() < 1e-9,
            "sign mismatch at {x}"
        );
    }
}

#[test]
fn phase_oracles_for_bent_and_non_bent_functions() {
    for text in [
        "(a & b) ^ (c & d)",
        "a & b & c",
        "!a ^ (b & !c)",
        "(a | b) & (c | d)",
    ] {
        let f = Expr::parse(text).unwrap();
        let table = f.truth_table(f.num_vars().max(2)).unwrap();
        phase_oracle_signs_match(&table);
    }
}

#[test]
fn permutation_oracles_agree_with_both_synthesis_methods() {
    let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
    for basis in 0..8usize {
        let mut outcomes = Vec::new();
        for synthesis in [
            SynthesisChoice::TransformationBased,
            SynthesisChoice::DecompositionBased,
        ] {
            let mut engine = MainEngine::with_simulator();
            let qubits = engine.allocate_qureg(3);
            for (bit, &qubit) in qubits.iter().enumerate() {
                if (basis >> bit) & 1 == 1 {
                    engine.x(qubit).unwrap();
                }
            }
            engine.permutation_oracle(&pi, &qubits, synthesis).unwrap();
            let result = engine.flush(32).unwrap();
            outcomes.push(result.most_likely().unwrap().0 & 0b111);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], pi.apply(basis));
    }
}

#[test]
fn permutation_oracle_followed_by_its_dagger_is_identity() {
    let pi = Permutation::random_seeded(3, 1234);
    let mut engine = MainEngine::with_simulator();
    let qubits = engine.allocate_qureg(3);
    engine.all_h(&qubits).unwrap();
    engine
        .permutation_oracle(&pi, &qubits, SynthesisChoice::TransformationBased)
        .unwrap();
    engine
        .permutation_oracle_dagger(&pi, &qubits, SynthesisChoice::TransformationBased)
        .unwrap();
    engine.all_h(&qubits).unwrap();
    let result = engine.flush(64).unwrap();
    assert_eq!(result.most_likely(), Some((0, 1.0)));
}

#[test]
fn engine_circuit_runs_identically_on_the_raw_backend() {
    // Build a circuit through the engine, then run the same circuit directly
    // on a StatevectorBackend and compare distributions.
    let f = Expr::parse("(a & b) ^ c").unwrap().truth_table(3).unwrap();
    let mut engine = MainEngine::with_simulator();
    let qubits = engine.allocate_qureg(3);
    engine.all_h(&qubits).unwrap();
    engine.phase_oracle(&f, &qubits).unwrap();
    engine.all_h(&qubits).unwrap();
    let circuit = engine.circuit();
    let engine_result = engine.flush(2048).unwrap();

    let mut backend = StatevectorBackend::seeded(5);
    let direct_result = backend.run(&circuit, 2048).unwrap();
    for outcome in 0..8usize {
        let a = engine_result.probability_of(outcome);
        let b = direct_result.probability_of(outcome);
        assert!((a - b).abs() < 0.1, "outcome {outcome}: {a} vs {b}");
    }
}

#[test]
fn maiorana_mcfarland_dual_identity_holds_on_the_oracle_level() {
    // Check that the structured dual construction used by the hidden shift
    // circuits matches the spectral dual for random instances.
    for seed in 0..4u64 {
        let pi = Permutation::random_seeded(2, seed);
        let h = TruthTable::from_fn(2, |y| (y + seed as usize).is_multiple_of(2)).unwrap();
        let mm = MaioranaMcFarland::new(pi, h).unwrap();
        let spectral = qdaflow::boolfn::spectrum::dual_bent(&mm.truth_table().unwrap()).unwrap();
        assert_eq!(mm.dual_truth_table().unwrap(), spectral);
    }
}
