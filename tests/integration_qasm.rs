//! End-to-end tests of the OpenQASM front door: a hand-written `.qasm` file
//! that our exporter could not have produced (named registers, user gate
//! definitions, whole-register broadcast, pi-expression angles) flows
//! through `qasm load`, `batch --spec qasm:<file>` on both simulation
//! backends, and a `qasmin` pipeline — with cache keys agreeing across
//! layers.

use qdaflow::pipeline::spec::spec_key;
use qdaflow::prelude::*;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/hidden_shift_f4.qasm"
);

fn golden_source() -> String {
    std::fs::read_to_string(GOLDEN).unwrap()
}

#[test]
fn golden_file_runs_through_shell_and_both_backends() {
    // The hidden-shift instance in the golden lands on |5> with certainty,
    // so every shot of every backend reports outcome 5.
    let mut shell = Shell::new();
    let output = shell
        .run_script(&format!(
            "qasm load {GOLDEN}\n\
             batch --shots 128 --spec \"qasm:{GOLDEN}\"\n\
             backend sparse\n\
             batch --shots 128 --spec \"qasm:{GOLDEN}\""
        ))
        .unwrap();
    assert!(output.iter().any(|l| l.contains("[qasm] loaded")));
    assert_eq!(
        output
            .iter()
            .filter(|l| l.contains("most likely 5 (p=1.00)"))
            .count(),
        2,
        "{output:?}"
    );
    assert!(output.iter().any(|l| l.contains("on the dense backend")));
    assert!(output.iter().any(|l| l.contains("on the sparse backend")));
    // The loaded circuit is in the store and seeds `flow "qasmin; …"`.
    assert_eq!(shell.store().quantum().unwrap().num_qubits(), 4);
    let output = shell.run_script("flow \"qasmin; ps\"").unwrap();
    assert!(output.iter().any(|l| l.contains("[flow] qasmin")));
}

#[test]
fn golden_file_runs_as_direct_batch_jobs() {
    let spec = OracleSpec::qasm(golden_source());
    let engine = BatchEngine::new();
    let results = engine
        .run_batch(&[
            BatchJob::new(spec.clone(), 256, 3),
            BatchJob::new(spec.clone(), 256, 4).with_backend(BackendChoice::Sparse),
        ])
        .unwrap();
    for result in &results {
        assert_eq!(result.num_qubits, 4);
        assert_eq!(result.most_likely(), Some((5, 1.0)));
    }
    // Dense and sparse jobs share the one program of their spec: one parse.
    assert_eq!(engine.cache().stats().misses, 1);
}

#[test]
fn qasm_source_pipelines_and_batch_jobs_share_cache_keys() {
    let source = golden_source();
    let spec = OracleSpec::qasm(source.clone());
    let pipeline = Pipeline::parse("qasmin").unwrap();
    assert_eq!(
        spec.cache_key(),
        spec_key(
            Some(&Ir::QasmSource(source.clone())),
            &pipeline.pass_names()
        )
    );
    // And the pipeline really accepts that IR.
    let report = pipeline.run(Ir::QasmSource(source)).unwrap();
    let circuit = report.final_quantum().unwrap();
    assert_eq!(circuit.num_qubits(), 4);
    assert!(circuit.is_clifford_t());
}

#[test]
fn imported_circuit_agrees_between_dense_and_sparse_statevectors() {
    use qdaflow::quantum::qasm::from_qasm;
    use qdaflow::quantum::{PreparedState, SoaStatevector};

    let circuit = from_qasm(&golden_source()).unwrap();
    let dense = SoaStatevector::simulate(&circuit, &ExecConfig::default()).unwrap();
    assert!((dense.amplitude(5).norm_sqr() - 1.0).abs() < 1e-9);
    let mut sparse = SparseStatevector::new(circuit.num_qubits()).unwrap();
    sparse.apply_circuit(&circuit);
    assert!((sparse.probability_of(5) - 1.0).abs() < 1e-9);
}
