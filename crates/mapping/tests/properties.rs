//! Property-based tests: the Clifford+T mapping and the optimization passes
//! must preserve circuit semantics for arbitrary reversible inputs.

use proptest::prelude::*;
use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_mapping::{map, optimize, phase_oracle};
use qdaflow_quantum::{ExecConfig, PreparedState, QuantumCircuit, QuantumGate, SoaStatevector};
use qdaflow_reversible::synthesis;
use qdaflow_sparse::SparseStatevector;

fn permutation(n: usize) -> impl Strategy<Value = Permutation> {
    any::<u64>().prop_map(move |seed| Permutation::random_seeded(n, seed))
}

fn truth_table(n: usize) -> impl Strategy<Value = TruthTable> {
    prop::collection::vec(any::<bool>(), 1 << n)
        .prop_map(move |bits| TruthTable::from_bits(n, bits).expect("n is small"))
}

/// A random Clifford+T gate over `n` qubits.
fn clifford_t_gate(n: usize) -> impl Strategy<Value = QuantumGate> {
    prop_oneof![
        (0..n).prop_map(QuantumGate::H),
        (0..n).prop_map(QuantumGate::X),
        (0..n).prop_map(QuantumGate::T),
        (0..n).prop_map(QuantumGate::Tdg),
        (0..n).prop_map(QuantumGate::S),
        ((0..n), (0..n))
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(control, target)| QuantumGate::Cx { control, target }),
    ]
}

/// A random Clifford+T circuit over `n` qubits.
fn clifford_t_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    prop::collection::vec(clifford_t_gate(n), 0..max_gates).prop_map(move |gates| {
        QuantumCircuit::from_gates(n, gates).expect("generated gates are in range")
    })
}

/// A random Clifford+T circuit over `n` qubits that opens with `hadamards`
/// `H` gates on random qubits, so phase folding tracks its body on path
/// variables past the first 128.
fn deep_clifford_t_circuit(
    n: usize,
    hadamards: usize,
    max_gates: usize,
) -> impl Strategy<Value = QuantumCircuit> {
    (
        prop::collection::vec((0..n).prop_map(QuantumGate::H), hadamards),
        clifford_t_circuit(n, max_gates),
    )
        .prop_map(move |(opening, body)| {
            let mut circuit = QuantumCircuit::from_gates(n, opening).expect("in range");
            circuit.append(&body).expect("same width");
            circuit
        })
}

/// A circuit full of inverse pairs: a random circuit followed by its
/// dagger, with a few random gates spliced in at random positions.
fn mirrored_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = QuantumCircuit> {
    (
        clifford_t_circuit(n, max_gates),
        prop::collection::vec((any::<u64>(), clifford_t_gate(n)), 0..6),
    )
        .prop_map(move |(body, splices)| {
            let mut gates = body.gates().to_vec();
            gates.extend_from_slice(body.dagger().gates());
            for (position, gate) in splices {
                let at = (position % (gates.len() as u64 + 1)) as usize;
                gates.insert(at, gate);
            }
            QuantumCircuit::from_gates(n, gates).expect("generated gates are in range")
        })
}

/// The drain-and-step-back loop `cancel_adjacent` ran before it became a
/// single stack pass, kept as the reference it must match gate for gate.
fn reference_cancel_adjacent(circuit: &QuantumCircuit) -> QuantumCircuit {
    let mut gates: Vec<QuantumGate> = circuit.gates().to_vec();
    loop {
        let mut changed = false;
        let mut index = 0;
        while index + 1 < gates.len() {
            if gates[index].dagger() == gates[index + 1] {
                gates.drain(index..index + 2);
                changed = true;
                index = index.saturating_sub(1);
            } else {
                index += 1;
            }
        }
        if !changed {
            break;
        }
    }
    QuantumCircuit::from_gates(circuit.num_qubits(), gates).expect("gates came from a circuit")
}

fn states_match(a: &QuantumCircuit, b: &QuantumCircuit) -> bool {
    // Compare on a phase-sensitive input state.
    let n = a.num_qubits().max(b.num_qubits());
    let mut preparation = QuantumCircuit::new(n);
    for qubit in 0..n {
        preparation.push(QuantumGate::H(qubit)).unwrap();
        preparation
            .push(QuantumGate::Rz {
                qubit,
                angle: 0.37 * (qubit as f64 + 1.0),
            })
            .unwrap();
    }
    let mut lhs = preparation.clone();
    lhs.append(&a.extended_to(n)).unwrap();
    let mut rhs = preparation;
    rhs.append(&b.extended_to(n)).unwrap();
    let x = SoaStatevector::simulate(&lhs, &ExecConfig::default()).unwrap();
    let y = SoaStatevector::simulate(&rhs, &ExecConfig::default()).unwrap();
    x.fidelity(&y) > 1.0 - 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mapping_preserves_the_permutation(p in permutation(3)) {
        let reversible = synthesis::transformation_based(&p).unwrap();
        let quantum = map::to_clifford_t(&reversible, &map::MappingOptions::default()).unwrap();
        for basis in 0..8usize {
            let mut state =
                SparseStatevector::basis_state(quantum.num_qubits(), basis as u64).unwrap();
            state.apply_circuit(&quantum);
            prop_assert!(state.probability_of(p.apply(basis) as u64) > 1.0 - 1e-9);
        }
    }

    #[test]
    fn phase_folding_preserves_semantics(c in clifford_t_circuit(3, 25)) {
        let optimized = optimize::phase_folding(&c);
        prop_assert!(states_match(&c, &optimized));
        prop_assert!(optimized.t_count() <= c.t_count());
    }

    #[test]
    fn cancellation_preserves_semantics(c in clifford_t_circuit(3, 25)) {
        let optimized = optimize::cancel_adjacent(&c);
        prop_assert!(states_match(&c, &optimized));
        prop_assert!(optimized.num_gates() <= c.num_gates());
    }

    #[test]
    fn combined_optimization_preserves_semantics(c in clifford_t_circuit(3, 25)) {
        let optimized = optimize::optimize_clifford_t(&c);
        prop_assert!(states_match(&c, &optimized));
        prop_assert!(optimized.t_count() <= c.t_count());
    }

    #[test]
    fn phase_oracles_match_their_functions(f in truth_table(4)) {
        let oracle = phase_oracle::phase_oracle(&f, &Default::default()).unwrap();
        prop_assert!(phase_oracle::oracle_matches_function(&oracle, &f));
    }

    #[test]
    fn circuit_followed_by_dagger_optimizes_to_zero_t(c in clifford_t_circuit(3, 15)) {
        let mut round_trip = c.clone();
        round_trip.append(&c.dagger()).unwrap();
        let optimized = optimize::optimize_clifford_t(&round_trip);
        prop_assert_eq!(optimized.t_count(), 0);
    }

    #[test]
    fn phase_folding_stays_exact_past_128_path_variables(
        c in deep_clifford_t_circuit(3, 130, 40)
    ) {
        let folded = optimize::phase_folding(&c);
        prop_assert!(states_match(&c, &folded));
        prop_assert!(folded.t_count() <= c.t_count());
        let optimized = optimize::optimize_clifford_t(&c);
        prop_assert!(states_match(&c, &optimized));
        prop_assert!(optimized.t_count() <= c.t_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cancellation_matches_the_reference_loop(c in mirrored_circuit(3, 30)) {
        let cancelled = optimize::cancel_adjacent(&c);
        prop_assert_eq!(cancelled.gates(), reference_cancel_adjacent(&c).gates());
        prop_assert!(cancelled
            .gates()
            .windows(2)
            .all(|pair| pair[0].dagger() != pair[1]));
    }
}
