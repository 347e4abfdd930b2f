// End-to-end drive of the new subsystem through the public shell + engine APIs.
use qdaflow::prelude::*;

fn main() {
    // 1. Shell: backend command + sparse batch.
    let mut shell = Shell::new();
    let log = shell
        .run_script("backend sparse\nbatch --shots 512 --seed 9 --spec \"hwb 4\" --spec \"perm 0 2 3 5 7 1 4 6\"")
        .unwrap();
    for line in &log {
        println!("{line}");
    }
    // 2. Engine: a 30-qubit permutation workload impossible for the dense engine.
    let mut circuit = QuantumCircuit::new(30);
    circuit.push(QuantumGate::X(0)).unwrap();
    for q in 0..29 {
        circuit
            .push(QuantumGate::Cx {
                control: q,
                target: q + 1,
            })
            .unwrap();
    }
    assert!(StatevectorBackend::seeded(1).prepare(&circuit).is_err());
    let mut engine = MainEngine::with_sparse_simulator();
    let qubits = engine.allocate_qureg(30);
    engine.x(qubits[0]).unwrap();
    for q in 0..29 {
        engine.cnot(qubits[q], qubits[q + 1]).unwrap();
    }
    let result = engine.flush(128).unwrap();
    println!(
        "30-qubit sparse flush: backend={}, most likely={:?}",
        engine.backend_name(),
        result.most_likely()
    );
    assert_eq!(result.most_likely(), Some(((1usize << 30) - 1, 1.0)));
    println!("sparse 30q end-to-end OK");
}
