//! End-to-end tests of the stabilizer tableau backend and the automatic
//! backend dispatcher through the `qdaflow` facade: a 100-qubit Clifford
//! hidden-shift circuit must run through the shell and the batch engine in
//! under a second, and `backend auto` must route dense-only, permutation
//! and Clifford workloads to the dense, sparse and stabilizer engines.

use std::time::{Duration, Instant};

use qdaflow::engine::resolve_backend;
use qdaflow::prelude::*;
use qdaflow::quantum::GateCensus;

/// The 100-qubit Clifford hidden-shift golden: pairing bent function
/// (CZ on adjacent pairs, self-dual), hidden shift `s = 0b1001011`.
const GOLDEN_QASM: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/clifford_hidden_shift_100q.qasm"
);
const HIDDEN_SHIFT: usize = 0b1001011;

fn golden_source() -> String {
    std::fs::read_to_string(GOLDEN_QASM).unwrap()
}

#[test]
fn hundred_qubit_clifford_circuit_runs_in_under_a_second_end_to_end() {
    // Shell path: `backend stabilizer` + a batch over the golden QASM. The
    // register is 100 qubits — far beyond every amplitude engine — and the
    // hidden-shift output is the single basis state |s⟩.
    let start = Instant::now();
    let mut shell = Shell::new();
    let output = shell
        .run_script(&format!(
            "backend stabilizer; batch --shots 256 --spec \"qasm:{GOLDEN_QASM}\""
        ))
        .unwrap();
    let shell_elapsed = start.elapsed();
    let log = output.join("\n");
    assert!(
        log.contains(&format!("most likely {HIDDEN_SHIFT} (p=1.00)")),
        "{log}"
    );
    assert!(log.contains("100 qubits"), "{log}");
    assert!(log.contains("on the stabilizer backend"), "{log}");

    // Batch-engine path with the same spec, pinned to the same outcome.
    let start = Instant::now();
    let engine = BatchEngine::new();
    let job = BatchJob::new(OracleSpec::qasm(golden_source()), 512, 3)
        .with_backend(BackendChoice::Stabilizer);
    let results = engine.run_batch(&[job]).unwrap();
    let batch_elapsed = start.elapsed();
    assert_eq!(results[0].most_likely(), Some((HIDDEN_SHIFT, 1.0)));
    assert_eq!(results[0].num_qubits, 100);

    // The acceptance bound of the subsystem: end-to-end in under a second
    // on each path (in practice both are milliseconds).
    assert!(
        shell_elapsed < Duration::from_secs(1),
        "shell path took {shell_elapsed:?}"
    );
    assert!(
        batch_elapsed < Duration::from_secs(1),
        "batch path took {batch_elapsed:?}"
    );
}

#[test]
fn auto_dispatch_routes_the_acceptance_triple() {
    // Three jobs of distinct character, all submitted as `Auto`:
    //   * a Hadamard+T circuit — amplitude-sized, non-Clifford → dense,
    //   * a compiled hwb permutation oracle — T gates, almost no H → sparse,
    //   * the 100-qubit Clifford hidden shift → stabilizer.
    let dense_spec = OracleSpec::qasm(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\nt q[0];\n"
            .to_owned(),
    );
    let sparse_spec = OracleSpec::permutation(
        qdaflow::boolfn::hwb::hwb_permutation(3),
        SynthesisChoice::default(),
    );
    let stab_spec = OracleSpec::qasm(golden_source());

    let engine = BatchEngine::new();
    let jobs = vec![
        BatchJob::new(dense_spec, 64, 1).with_backend(BackendChoice::Auto),
        BatchJob::new(sparse_spec, 64, 2).with_backend(BackendChoice::Auto),
        BatchJob::new(stab_spec, 64, 3).with_backend(BackendChoice::Auto),
    ];
    let resolved = engine.resolve_backends(&jobs).unwrap();
    assert_eq!(
        resolved,
        vec![
            BackendChoice::Dense,
            BackendChoice::Sparse,
            BackendChoice::Stabilizer
        ]
    );
    // The resolution is exactly what the pure routing function says about
    // each compiled circuit's census.
    for (job, &backend) in jobs.iter().zip(&resolved) {
        let program = engine.cache().get_or_compile(&job.spec).unwrap();
        assert_eq!(resolve_backend(&GateCensus::of(program.circuit())), backend);
    }

    let results = engine.run_batch(&jobs).unwrap();
    assert_eq!(results[2].most_likely(), Some((HIDDEN_SHIFT, 1.0)));

    // One cache entry per spec, whatever the backend, and the census it
    // carries routes to the resolved backend.
    assert_eq!(engine.cache().stats().entries, jobs.len());
    for (job, &backend) in jobs.iter().zip(&resolved) {
        let program = engine.cache().peek(job.spec.cache_key()).unwrap();
        assert_eq!(resolve_backend(program.census()), backend);
    }
}

#[test]
fn shell_auto_backend_logs_the_stabilizer_route_for_clifford_qasm() {
    let mut shell = Shell::new();
    let output = shell
        .run_script(&format!(
            "backend auto; batch --shots 64 --spec \"qasm:{GOLDEN_QASM}\""
        ))
        .unwrap();
    let log = output.join("\n");
    assert!(log.contains("auto -> stabilizer"), "{log}");
    assert!(
        log.contains(&format!("most likely {HIDDEN_SHIFT}")),
        "{log}"
    );
}
