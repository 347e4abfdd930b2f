//! End-to-end tests of the batch execution subsystem through the `qdaflow`
//! facade: the `BatchEngine` must agree with the one-job engine path, its
//! cache must deduplicate across batches, and its results must be
//! reproducible at any thread count.

use qdaflow::pipeline::spec::spec_key;
use qdaflow::prelude::*;
use qdaflow::quantum::PreparedState;

fn paper_permutation() -> Permutation {
    Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap()
}

#[test]
fn batch_results_match_the_single_job_backend_path() {
    // The sharded sampling path of the batch engine and each backend's own
    // single-job path (`prepare`, then `sample_sharded`) must agree job for
    // job: same compiled program, same seed scheme, same histogram — on
    // every exact backend.
    let spec = OracleSpec::permutation(paper_permutation(), SynthesisChoice::default());
    let spread = OracleSpec::qasm(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nt q[0];\ncx q[0],q[2];\n",
    );
    let clifford = OracleSpec::qasm(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\nh q[2];\ncz q[1],q[2];\n",
    );
    let config = ExecConfig::sequential().with_shot_shard_size(512);
    let engine = BatchEngine::with_config(config);
    let jobs = vec![
        BatchJob::new(spec.clone(), 2048, 5),
        BatchJob::new(spec.clone(), 2048, 6),
        BatchJob::new(spread, 2048, 7).with_backend(BackendChoice::Sparse),
        BatchJob::new(clifford, 2048, 8).with_backend(BackendChoice::Stabilizer),
    ];
    let results = engine.run_batch(&jobs).unwrap();

    for (job, result) in jobs.iter().zip(&results) {
        let program = engine.cache().peek(job.spec.cache_key()).unwrap();
        let circuit = program.circuit();
        let counts = match job.backend {
            BackendChoice::Dense => StatevectorBackend::with_config(0, config)
                .prepare(circuit)
                .unwrap()
                .sample_sharded(job.seed, job.shots, &config),
            BackendChoice::Sparse => SparseBackend::with_config(0, config)
                .prepare(circuit)
                .unwrap()
                .sample_sharded(job.seed, job.shots, &config),
            BackendChoice::Stabilizer => StabilizerBackend::with_config(0, config)
                .prepare(circuit)
                .unwrap()
                .sample_sharded(job.seed, job.shots, &config),
            BackendChoice::Auto => unreachable!("every job names a concrete backend"),
        };
        let direct = ExecutionResult::from_counts(circuit, job.shots, counts);
        assert_eq!(result, &direct, "{} job, seed {}", job.backend, job.seed);
    }
    // The extra jobs really sample spread distributions.
    assert!(results[2].counts.len() > 1 && results[3].counts.len() > 1);
}

#[test]
fn cache_keys_are_canonical_across_construction_paths() {
    // The engine-level key and the raw pipeline-level digest agree, so any
    // layer can pre-compute keys without compiling.
    let spec = OracleSpec::permutation(paper_permutation(), SynthesisChoice::TransformationBased);
    let manual = spec_key(
        Some(&Ir::Permutation(paper_permutation())),
        &spec.pass_list(),
    );
    assert_eq!(spec.cache_key(), manual);
    assert_eq!(spec.cache_key().to_string().len(), 32);
}

#[test]
fn warm_cache_survives_across_batches_and_thread_counts() {
    let engine = BatchEngine::with_config(
        ExecConfig::sequential()
            .with_threads(4)
            .with_shot_shard_size(256),
    );
    let hwb = OracleSpec::permutation(qdaflow::boolfn::hwb::hwb_permutation(4), Default::default());
    let phase = OracleSpec::phase_function(
        Expr::parse("(a & b) ^ (c & d)")
            .unwrap()
            .truth_table(4)
            .unwrap(),
    );
    let first = engine
        .run_batch(&[
            BatchJob::new(hwb.clone(), 1000, 1),
            BatchJob::new(phase.clone(), 1000, 2),
            BatchJob::new(hwb.clone(), 1000, 3),
        ])
        .unwrap();
    assert_eq!(engine.cache().stats().misses, 2);
    // Re-running the same jobs compiles nothing and reproduces the results
    // exactly (sampling is keyed by the job seeds, not by engine state).
    let second = engine
        .run_batch(&[
            BatchJob::new(hwb.clone(), 1000, 1),
            BatchJob::new(phase.clone(), 1000, 2),
            BatchJob::new(hwb.clone(), 1000, 3),
        ])
        .unwrap();
    assert_eq!(first, second);
    assert_eq!(engine.cache().stats().misses, 2);
    // A single-threaded engine with the same shard size agrees shot for
    // shot.
    let sequential = BatchEngine::with_config(ExecConfig::sequential().with_shot_shard_size(256));
    let third = sequential
        .run_batch(&[BatchJob::new(hwb, 1000, 1), BatchJob::new(phase, 1000, 2)])
        .unwrap();
    assert_eq!(&first[..2], &third[..]);
}

#[test]
fn batch_histograms_are_statistically_sound() {
    // A phase oracle applied to |0…0⟩ leaves the state in |0…0⟩ (diagonal
    // unitary), so every shot lands there; a permutation oracle lands on
    // π(0). This pins the batch path's physics end to end.
    let pi = paper_permutation();
    let engine = BatchEngine::new();
    let results = engine
        .run_batch(&[
            BatchJob::new(
                OracleSpec::permutation(pi.clone(), SynthesisChoice::default()),
                500,
                7,
            ),
            BatchJob::new(
                OracleSpec::phase_function(Expr::parse("a & b").unwrap().truth_table(2).unwrap()),
                500,
                8,
            ),
        ])
        .unwrap();
    assert_eq!(results[0].most_likely(), Some((pi.apply(0), 1.0)));
    assert_eq!(results[1].most_likely(), Some((0, 1.0)));
    assert!(results[0].resources.total_gates > 0);
}
