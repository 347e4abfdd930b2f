//! Cross-backend equivalence: every execution backend in the workspace must
//! agree on the paper's hidden shift benchmark.
//!
//! The statevector backend, the noisy-hardware backend with a noiseless
//! model, and the dense reference oracle all sample with the same seeded RNG
//! from the same exact output distribution, so their histograms must be
//! *identical* — not merely statistically close. The resource counter is
//! checked to report the same circuit resources without sampling.

use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::prelude::*;

const SEED: u64 = 0x5EED_CAFE;
const SHOTS: usize = 512;

/// The fixed hidden-shift instance of the paper's Fig. 4 benchmark:
/// `f = x0 x1 ⊕ x2 x3` with the planted shift `s = 9`.
fn fig4_instance() -> (HiddenShiftInstance, QuantumCircuit) {
    let f = Expr::parse("(x0 & x1) ^ (x2 & x3)")
        .unwrap()
        .truth_table(4)
        .unwrap();
    let instance = HiddenShiftInstance::from_bent_function(&f, 9).unwrap();
    let circuit = instance.build_circuit(OracleStyle::TruthTable).unwrap();
    (instance, circuit)
}

fn sampling_backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(StatevectorBackend::seeded(SEED)),
        Box::new(NoisyHardwareBackend::new(NoiseModel::noiseless(), SEED)),
        Box::new(DenseReferenceBackend::seeded(SEED)),
        Box::new(SparseBackend::seeded(SEED)),
    ]
}

#[test]
fn all_sampling_backends_produce_identical_histograms() {
    let (instance, circuit) = fig4_instance();
    let mut results = Vec::new();
    for mut backend in sampling_backends() {
        let result = backend.run(&circuit, SHOTS).unwrap();
        assert_eq!(result.shots, SHOTS, "{}", backend.name());
        results.push((backend.name().to_owned(), result));
    }
    let (reference_name, reference) = &results[0];
    for (name, result) in &results[1..] {
        assert_eq!(
            &result.counts, &reference.counts,
            "{name} histogram diverges from {reference_name}"
        );
        assert_eq!(&result.resources, &reference.resources, "{name} resources");
    }
    // The ideal hidden shift run is deterministic: every shot measures the
    // planted shift (ancillas, if any, return to zero).
    let mask = (1usize << instance.num_vars()) - 1;
    let on_shift: usize = reference
        .counts
        .iter()
        .filter(|(&outcome, _)| outcome & mask == instance.shift())
        .map(|(_, &count)| count)
        .sum();
    assert_eq!(on_shift, SHOTS);
}

#[test]
fn exec_config_variants_agree_on_the_benchmark() {
    // Fusion on/off and threading on/off must not change the sampled
    // distribution: same seed, same histogram.
    let (_, circuit) = fig4_instance();
    let configs = [
        ExecConfig::baseline(),
        ExecConfig::sequential(),
        // Two-amplitude cache blocks put the register on the worker pool.
        ExecConfig::default().with_threads(4).with_block_bits(1),
    ];
    let mut histograms = Vec::new();
    for config in configs {
        let mut backend = StatevectorBackend::with_config(SEED, config);
        histograms.push(backend.run(&circuit, SHOTS).unwrap().counts);
    }
    assert_eq!(histograms[0], histograms[1]);
    assert_eq!(histograms[1], histograms[2]);
}

#[test]
fn hidden_shift_runner_recovers_the_shift_on_every_backend() {
    let (instance, circuit) = fig4_instance();
    for mut backend in sampling_backends() {
        let outcome = instance.run_on(backend.as_mut(), &circuit, SHOTS).unwrap();
        assert_eq!(
            outcome.recovered_shift,
            Some(instance.shift()),
            "{}",
            backend.name()
        );
        assert!(
            (outcome.success_probability - 1.0).abs() < 1e-12,
            "{}",
            backend.name()
        );
    }
}

#[test]
fn batch_engine_sparse_jobs_match_dense_for_oracle_workloads() {
    // The BatchEngine path with the sparse backend: same compiled oracles,
    // same seeds, same histograms as the dense path. Unfused sequential
    // execution keeps the two engines' sampling prefix sums bit-identical,
    // so the counts must be *equal*, not merely close.
    let config = ExecConfig::baseline().with_shot_shard_size(256);
    let engine = BatchEngine::with_config(config);
    let specs = [
        OracleSpec::permutation(
            qdaflow::boolfn::hwb::hwb_permutation(4),
            SynthesisChoice::default(),
        ),
        OracleSpec::phase_function(
            Expr::parse("(x0 & x1) ^ (x2 & x3)")
                .unwrap()
                .truth_table(4)
                .unwrap(),
        ),
    ];
    let dense_jobs: Vec<BatchJob> = specs
        .iter()
        .enumerate()
        .map(|(index, spec)| BatchJob::new(spec.clone(), 2048, 40 + index as u64))
        .collect();
    let sparse_jobs: Vec<BatchJob> = dense_jobs
        .iter()
        .map(|job| job.clone().with_backend(BackendChoice::Sparse))
        .collect();
    let dense_results = engine.run_batch(&dense_jobs).unwrap();
    let sparse_results = engine.run_batch(&sparse_jobs).unwrap();
    assert_eq!(dense_results, sparse_results);
    // The compiled oracle does not depend on the backend: each spec
    // compiled once, and the sparse jobs reuse the dense jobs' programs.
    assert_eq!(engine.cache().stats().entries, 2);
    assert_eq!(engine.cache().stats().misses, 2);
}

#[test]
fn shell_backend_command_routes_batches_through_the_sparse_engine() {
    // The shell path: `backend sparse` switches batch jobs to the sparse
    // engine; the (deterministic) oracle outcome and cache bookkeeping are
    // identical to a dense shell session.
    let script = "batch --shots 256 --seed 3 --spec \"hwb 4\" --spec \"expr (a & b) ^ (c & d)\"";
    let mut dense_shell = Shell::new();
    let dense_log = dense_shell.run_script(script).unwrap();
    let mut sparse_shell = Shell::new();
    sparse_shell.run_script("backend sparse").unwrap();
    let sparse_log = sparse_shell.run_script(script).unwrap();
    // Per-job report lines (qubits, T-count, most-likely outcome) agree.
    let job_lines = |log: &[String]| -> Vec<String> {
        log.iter()
            .filter(|l| l.contains("] job "))
            .cloned()
            .collect()
    };
    assert_eq!(job_lines(&dense_log), job_lines(&sparse_log));
    assert_eq!(job_lines(&dense_log).len(), 2);
    assert!(sparse_log.iter().any(
        |l| l.contains("2 jobs (2 distinct), 2 compiled, 0 cache hits")
            && l.contains("on the sparse backend")
    ));
    // Switching back reuses the programs the sparse run compiled: one
    // program per spec, whatever the backend.
    sparse_shell.run_script("backend dense").unwrap();
    let again = sparse_shell.run_script(script).unwrap();
    assert!(again
        .iter()
        .any(|l| l.contains("0 compiled, 2 cache hits (2 programs cached) on the dense backend")));
}

#[test]
fn resource_counter_matches_the_sampling_backends() {
    let (_, circuit) = fig4_instance();
    let mut counter = qdaflow::quantum::backend::ResourceCounterBackend;
    let counted = counter.run(&circuit, SHOTS).unwrap();
    assert_eq!(counted.shots, 0);
    assert!(counted.counts.is_empty());
    let mut sampler = StatevectorBackend::seeded(SEED);
    let sampled = sampler.run(&circuit, SHOTS).unwrap();
    assert_eq!(counted.resources, sampled.resources);
}
