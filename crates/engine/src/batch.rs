//! The batch execution subsystem: one straight-line job executor plus
//! reproducible, shot-sharded sampling.
//!
//! A [`BatchJob`] is one workload — an [`OracleSpec`] plus a shot count, a
//! sampling seed and a simulation [`BackendChoice`] (dense, sparse,
//! stabilizer, or automatic). [`BatchEngine::run_job`] executes one job:
//!
//! 1. **one cache lookup** in the engine's [`OracleCache`], under the spec's
//!    [`OracleSpec::cache_key`], so `N` jobs over `k` distinct oracles cost
//!    `k` compilations (or fewer, when the cache is warm from earlier
//!    jobs) whatever backends they name. The job's choice is then resolved
//!    against the program's stored census ([`BackendChoice::resolve`]): a
//!    [`BackendChoice::Auto`] job is routed by [`resolve_backend`], a
//!    concrete choice passes through;
//! 2. the program is **simulated** on its backend through
//!    [`BackendChoice::prepare`], the one place a choice becomes a
//!    simulated state: a dense statevector, a sparse statevector, or a
//!    stabilizer support sampler, each a [`PreparedState`];
//! 3. the job samples its shots with the **shot-sharded** sampler
//!    ([`PreparedState::sample_sharded`]) under its own seed, and reports
//!    the resource counts its program stored when it was built.
//!
//! The [`JobService`](crate::JobService) workers call `run_job` directly,
//! and [`BatchEngine::run_batch`] and [`BatchEngine::try_run_batch`] are
//! loops over it. Results come back in job order and are fully
//! reproducible: a job's histogram depends only on `(spec, backend, shots,
//! seed, shot_shard_size)` — never on the thread count, the batch
//! composition, or the cache state. Auto resolution is reproducible too: it
//! is a pure function of the compiled circuit, and `run_job` counts the
//! dispatch of each job whose lookup succeeded (`qdaflow_dispatch_total`,
//! plus the `auto -> <backend>` trace event for `Auto` jobs) exactly once.

use crate::cache::{CompiledProgram, OracleCache, OracleSpec};
use crate::engine::{note_dispatch, resolve_backend, BackendChoice};
use crate::EngineError;
use qdaflow_pipeline::spec::{CanonicalHasher, SpecKey};
use qdaflow_quantum::backend::{ExecutionResult, PreparedState};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_telemetry as telemetry;
use std::panic::{self, AssertUnwindSafe};

/// Renders a caught panic payload into the text carried by
/// [`EngineError::JobPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Runs `body` with panics converted into [`EngineError::JobPanicked`] —
/// the per-job fault boundary of [`BatchEngine::run_job`].
fn catch_job_panic<T>(body: impl FnOnce() -> Result<T, EngineError>) -> Result<T, EngineError> {
    panic::catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(EngineError::JobPanicked {
            message: panic_message(payload),
        })
    })
}

/// One batch workload: compile `spec`, execute it on the chosen simulation
/// backend, and sample `shots` measurements under `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// The oracle to compile and execute.
    pub spec: OracleSpec,
    /// Number of measurement shots.
    pub shots: usize,
    /// Seed of the job's sharded sampling streams.
    pub seed: u64,
    /// Which exact simulation engine executes the compiled oracle.
    pub backend: BackendChoice,
}

impl BatchJob {
    /// Creates a job on the default (dense) simulation backend.
    pub fn new(spec: OracleSpec, shots: usize, seed: u64) -> Self {
        Self {
            spec,
            shots,
            seed,
            backend: BackendChoice::default(),
        }
    }

    /// Replaces the simulation backend of the job.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// The canonical identity digest of the whole job: the spec's cache key
    /// extended with the shot count, the sampling seed and the backend
    /// name. Two jobs with equal digests produce identical results under
    /// the same `shot_shard_size`, which is what makes the digest safe as
    /// the checkpoint key of the [`Journal`](crate::store::Journal): a
    /// resumed service replays a journaled result only onto an identical
    /// job.
    pub fn digest(&self) -> SpecKey {
        let key = self.spec.cache_key();
        let mut hasher = CanonicalHasher::new();
        hasher.write_str("job");
        hasher.write_u64((key.0 >> 64) as u64);
        hasher.write_u64(key.0 as u64);
        hasher.write_u64(self.shots as u64);
        hasher.write_u64(self.seed);
        hasher.write_str(self.backend.as_str());
        hasher.finish()
    }
}

/// Samples a job's shots from its prepared state with the shot-sharded
/// sampler and builds its [`ExecutionResult`] around the program's stored
/// resource counts. Every engine uses the same `(seed, shard)` RNG scheme,
/// so equal-seed jobs agree across backends. Under tracing, a `sample …
/// shots` span covers the sampling and a `result assemble …` span the
/// result built after it.
fn sample_job(
    state: &dyn PreparedState,
    program: &CompiledProgram,
    shots: usize,
    seed: u64,
    config: &ExecConfig,
) -> ExecutionResult {
    let shards = shots.div_ceil(config.shot_shard_size.max(1)) as u64;
    let registry = telemetry::global_metrics();
    registry
        .counter(
            "qdaflow_sampling_shards_total",
            "Shot-sharded sampling shards executed.",
            &[],
        )
        .add(shards);
    registry
        .counter(
            "qdaflow_sampling_shots_total",
            "Shots drawn by the shot-sharded sampler.",
            &[],
        )
        .add(shots as u64);
    let counts = {
        let _span = telemetry::span!("sampling", "sample {shots} shots ({shards} shards)");
        state.sample_sharded(seed, shots, config)
    };
    let _span = telemetry::span!("batch", "result assemble {shots} shots");
    ExecutionResult::sampled(program.resources().clone(), shots, counts)
}

/// The batch execution engine: an [`OracleCache`] plus an execution
/// configuration. The cache persists across [`BatchEngine::run_batch`]
/// calls, so a long-running service keeps amortizing compilations over its
/// whole lifetime.
#[derive(Debug, Default)]
pub struct BatchEngine {
    cache: OracleCache,
    config: ExecConfig,
}

impl BatchEngine {
    /// Creates an engine with an empty cache and the default execution
    /// configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with an explicit execution configuration
    /// (`config.threads` bounds the dense kernel's worker pool and the
    /// sparse engine's sampling workers; dense and stabilizer jobs sample
    /// sequentially; `config.shot_shard_size` is part of the sampling
    /// reproducibility contract).
    pub fn with_config(config: ExecConfig) -> Self {
        Self {
            cache: OracleCache::new(),
            config,
        }
    }

    /// Creates an engine over an existing cache (e.g. a disk-backed one
    /// built with [`OracleCache::with_disk`]).
    pub fn with_cache(cache: OracleCache, config: ExecConfig) -> Self {
        Self { cache, config }
    }

    /// The execution configuration in use.
    pub fn exec_config(&self) -> ExecConfig {
        self.config
    }

    /// Replaces the execution configuration. Does not invalidate the cache —
    /// compiled circuits are configuration-independent.
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        self.config = config;
    }

    /// The engine's compiled-oracle cache (for statistics or pre-warming).
    pub fn cache(&self) -> &OracleCache {
        &self.cache
    }

    /// Executes a batch of jobs with the engine's own configuration, one
    /// after another through [`BatchEngine::run_job`]. Results are returned
    /// in job order.
    ///
    /// # Errors
    ///
    /// [`EngineError::ZeroShots`] (checked for every job before anything
    /// runs), else the first failing job's error; on error no partial
    /// results are returned.
    pub fn run_batch(&self, jobs: &[BatchJob]) -> Result<Vec<ExecutionResult>, EngineError> {
        if let Some(index) = jobs.iter().position(|job| job.shots == 0) {
            return Err(EngineError::ZeroShots { index });
        }
        jobs.iter()
            .map(|job| self.run_job(job, &self.config))
            .collect()
    }

    /// Executes a batch with **per-job fault isolation**: every job gets
    /// its own `Result` from [`BatchEngine::run_job`], in job order. A job
    /// whose compilation or simulation fails — including one that
    /// *panics* — fails alone; its siblings complete normally.
    pub fn try_run_batch(&self, jobs: &[BatchJob]) -> Vec<Result<ExecutionResult, EngineError>> {
        jobs.iter()
            .enumerate()
            .map(|(index, job)| match job.shots {
                0 => Err(EngineError::ZeroShots { index }),
                _ => self.run_job(job, &self.config),
            })
            .collect()
    }

    /// Resolves every job's backend to a concrete choice without running
    /// anything: jobs already on a concrete backend pass through unchanged,
    /// [`BackendChoice::Auto`] jobs are compiled through the cache (a
    /// counted lookup, like any other) and routed by the program's stored
    /// census — the resolution [`BatchEngine::run_job`] makes. The returned
    /// vector is in job order and never contains `Auto`. No dispatch is
    /// recorded: only running a job does that.
    ///
    /// # Errors
    ///
    /// Returns the first compilation error among the `Auto` jobs.
    pub fn resolve_backends(&self, jobs: &[BatchJob]) -> Result<Vec<BackendChoice>, EngineError> {
        jobs.iter()
            .map(|job| match job.backend {
                BackendChoice::Auto => Ok(resolve_backend(
                    self.cache.get_or_compile(&job.spec)?.census(),
                )),
                concrete => Ok(concrete),
            })
            .collect()
    }

    /// Executes one job — the executor behind [`BatchEngine::run_batch`],
    /// [`BatchEngine::try_run_batch`] and the
    /// [`JobService`](crate::JobService) workers: one cache lookup under the
    /// spec's key, resolution of the job's choice against the program's
    /// census, one recorded dispatch, simulation through
    /// [`BackendChoice::prepare`], and shot-sharded sampling under the
    /// job's seed. A job whose lookup fails records no dispatch. Panics
    /// anywhere inside become [`EngineError::JobPanicked`].
    ///
    /// # Errors
    ///
    /// Any compilation, simulation or validation failure of the job,
    /// including [`EngineError::ZeroShots`] (with index 0) and panics.
    pub fn run_job(
        &self,
        job: &BatchJob,
        config: &ExecConfig,
    ) -> Result<ExecutionResult, EngineError> {
        if job.shots == 0 {
            return Err(EngineError::ZeroShots { index: 0 });
        }
        catch_job_panic(|| {
            let _span =
                telemetry::span!("batch", "run_job: {} shots on {}", job.shots, job.backend);
            let program = self.cache.get_or_compile(&job.spec)?;
            let backend = job.backend.resolve(program.census());
            let auto = job.backend == BackendChoice::Auto;
            note_dispatch(backend, auto.then_some(program.census()));
            let state = {
                let _span = telemetry::span!("dispatch", "simulate on {backend}");
                backend.prepare(program.circuit(), config)?
            };
            Ok(sample_job(&*state, &program, job.shots, job.seed, config))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SynthesisChoice;
    use crate::DiskCache;
    use qdaflow_boolfn::{Permutation, TruthTable};
    use qdaflow_quantum::resource::ResourceCounts;
    use qdaflow_quantum::QuantumCircuit;

    /// The Fig. 4 hidden-shift program at `n` qubits as pure-Clifford QASM:
    /// the bent function f(x) = Σ x_{2i}·x_{2i+1} is a layer of CZ pairs
    /// (and is self-dual, so the same layer serves as U_f and U_f̃), the
    /// shifted oracle is X_s·U_f·X_s, and the ideal output is exactly |s⟩.
    fn clifford_hidden_shift_qasm(n: usize, shift: usize) -> String {
        use std::fmt::Write as _;
        let mut source = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        writeln!(source, "qreg q[{n}];").unwrap();
        let h_layer = |source: &mut String| {
            for q in 0..n {
                writeln!(source, "h q[{q}];").unwrap();
            }
        };
        let shift_layer = |source: &mut String| {
            for q in 0..n.min(usize::BITS as usize) {
                if (shift >> q) & 1 == 1 {
                    writeln!(source, "x q[{q}];").unwrap();
                }
            }
        };
        let oracle = |source: &mut String| {
            for i in 0..n / 2 {
                writeln!(source, "cz q[{}],q[{}];", 2 * i, 2 * i + 1).unwrap();
            }
        };
        h_layer(&mut source);
        shift_layer(&mut source);
        oracle(&mut source);
        shift_layer(&mut source);
        h_layer(&mut source);
        oracle(&mut source);
        h_layer(&mut source);
        source
    }

    fn perm_job(images: Vec<usize>, shots: usize, seed: u64) -> BatchJob {
        BatchJob::new(
            OracleSpec::permutation(
                Permutation::new(images).unwrap(),
                SynthesisChoice::default(),
            ),
            shots,
            seed,
        )
    }

    #[test]
    fn duplicate_jobs_compile_once() {
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 64, 1),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 64, 2),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 128, 3),
            perm_job(vec![1, 0, 3, 2], 64, 4),
        ];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results.len(), 4);
        let stats = engine.cache().stats();
        assert_eq!(stats.misses, 2, "two distinct oracles in the batch");
        assert_eq!(stats.entries, 2);
        // A second batch over the same oracles is all cache hits.
        engine.run_batch(&jobs).unwrap();
        assert_eq!(engine.cache().stats().misses, 2);
        assert!(engine.cache().stats().hits >= 2);
    }

    #[test]
    fn results_arrive_in_job_order_and_with_the_right_shots() {
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![1, 0, 3, 2], 10, 1),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 20, 1),
            perm_job(vec![1, 0, 3, 2], 30, 1),
        ];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(
            results.iter().map(|r| r.shots).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(results[0].num_qubits, results[2].num_qubits);
        // All probability mass of a permutation oracle on |0…0⟩ sits on π(0).
        assert_eq!(results[0].most_likely(), Some((1, 1.0)));
    }

    #[test]
    fn batch_results_are_thread_count_invariant() {
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 2000, 11),
            BatchJob::new(
                OracleSpec::phase_function(
                    TruthTable::from_bits(3, (0..8).map(|x| x % 3 == 0)).unwrap(),
                ),
                1500,
                13,
            ),
        ];
        let config = ExecConfig::sequential().with_shot_shard_size(128);
        let sequential = BatchEngine::with_config(config).run_batch(&jobs).unwrap();
        for threads in [2usize, 4, 8] {
            let threaded = BatchEngine::with_config(config.with_threads(threads))
                .run_batch(&jobs)
                .unwrap();
            assert_eq!(sequential, threaded, "threads={threads}");
        }
    }

    #[test]
    fn seeds_isolate_jobs_over_the_same_oracle() {
        let engine = BatchEngine::new();
        // A phase oracle preceded by nothing is deterministic, so use a
        // function with spread mass: sample the uniform state by compiling a
        // phase oracle and sampling — histograms over a deterministic state
        // are equal regardless of seed; instead check that equal seeds give
        // equal results and that the job seed (not position) keys sampling.
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 500, 42),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 500, 42),
        ];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = BatchEngine::new();
        assert!(engine.run_batch(&[]).unwrap().is_empty());
        assert_eq!(engine.cache().stats().entries, 0);
    }

    #[test]
    fn jobs_report_their_programs_stored_resource_counts() {
        // The first engine compiles the program, the second loads it from
        // the first one's disk cache; both jobs report the counts the
        // program took when it was built, which equal a fresh count.
        let dir = std::env::temp_dir().join(format!(
            "qdaflow-batch-resources-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let job = perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 64, 1);
        for (misses, disk_hits) in [(1, 0), (0, 1)] {
            let cache = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
            let engine = BatchEngine::with_cache(cache, ExecConfig::sequential());
            let result = engine.run_job(&job, &engine.exec_config()).unwrap();
            let stats = engine.cache().stats();
            assert_eq!((stats.misses, stats.disk_hits), (misses, disk_hits));
            let program = engine.cache().peek(job.spec.cache_key()).unwrap();
            assert_eq!(&result.resources, program.resources());
            assert_eq!(result.resources, ResourceCounts::of(program.circuit()));
            assert_eq!(result.num_qubits, program.circuit().num_qubits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_program_per_spec_across_backends() {
        // The compiled circuit does not depend on the backend that runs it:
        // dense, sparse and Auto jobs over one permutation share one
        // compilation and one cache entry.
        let dense = perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 64, 1);
        let jobs = [
            dense.clone(),
            dense.clone().with_backend(BackendChoice::Sparse),
            dense.with_backend(BackendChoice::Auto),
        ];
        let engine = BatchEngine::new();
        engine.run_batch(&jobs).unwrap();
        let stats = engine.cache().stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 2, 1));
    }

    #[test]
    fn sparse_jobs_match_dense_jobs_shot_for_shot() {
        // Unfused sequential execution makes the two engines' amplitudes
        // (and therefore their sampling prefix sums) bit-identical, so
        // equal-seed jobs must produce the *same* histogram.
        let config = ExecConfig::baseline().with_shot_shard_size(128);
        let engine = BatchEngine::with_config(config);
        let jobs: Vec<BatchJob> = [
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 2000, 11),
            BatchJob::new(
                OracleSpec::phase_function(
                    TruthTable::from_bits(3, (0..8).map(|x| x % 3 == 0)).unwrap(),
                ),
                1500,
                13,
            ),
        ]
        .into_iter()
        .flat_map(|job| [job.clone(), job.with_backend(BackendChoice::Sparse)])
        .collect();
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results[0], results[1], "permutation oracle");
        assert_eq!(results[2], results[3], "phase oracle");
    }

    #[test]
    fn stabilizer_jobs_match_dense_jobs_shot_for_shot() {
        // A permutation oracle synthesized into Clifford+T is not Clifford,
        // but a pure phase-function oracle over Mcz(≤2)/Z gates can be; use
        // a parity-ish function whose compiled circuit is all-Clifford. The
        // linear function x0^x1 compiles to Z gates only.
        let config = ExecConfig::baseline().with_shot_shard_size(128);
        let engine = BatchEngine::with_config(config);
        let job = BatchJob::new(
            OracleSpec::phase_function(
                TruthTable::from_bits(2, [false, true, true, false]).unwrap(),
            ),
            2000,
            11,
        );
        let jobs = vec![job.clone(), job.with_backend(BackendChoice::Stabilizer)];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn stabilizer_jobs_run_clifford_circuits_beyond_every_amplitude_ceiling() {
        // A 100-qubit Clifford program through the batch engine: both
        // amplitude engines are representationally incapable of this.
        let source = clifford_hidden_shift_qasm(100, 0b1001011);
        let job =
            BatchJob::new(OracleSpec::qasm(source), 512, 5).with_backend(BackendChoice::Stabilizer);
        let engine = BatchEngine::new();
        let started = std::time::Instant::now();
        let results = engine.run_batch(&[job]).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "100q Clifford batch took {:?}",
            started.elapsed()
        );
        assert_eq!(results[0].most_likely(), Some((0b1001011, 1.0)));
    }

    #[test]
    fn auto_jobs_resolve_to_the_backend_the_census_predicts() {
        // The acceptance triple: an H-heavy+T circuit (dense), a
        // permutation oracle whose Toffolis map to T gates (sparse), and a
        // pure-Clifford circuit (stabilizer).
        let dense_spec = OracleSpec::qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\nt q[0];\n",
        );
        let sparse_spec = OracleSpec::permutation(
            Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
            SynthesisChoice::default(),
        );
        let clifford_spec = OracleSpec::qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncz q[1],q[2];\n",
        );
        let jobs = vec![
            BatchJob::new(dense_spec, 100, 1).with_backend(BackendChoice::Auto),
            BatchJob::new(sparse_spec, 100, 2).with_backend(BackendChoice::Auto),
            BatchJob::new(clifford_spec, 100, 3).with_backend(BackendChoice::Auto),
        ];
        let engine = BatchEngine::new();
        let resolved = engine.resolve_backends(&jobs).unwrap();
        assert_eq!(
            resolved,
            vec![
                BackendChoice::Dense,
                BackendChoice::Sparse,
                BackendChoice::Stabilizer,
            ]
        );
        // The run goes through the same resolution. The cache holds one
        // entry per spec, and its stored census routes to the resolved
        // backend.
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results.len(), 3);
        for (job, backend) in jobs.iter().zip(&resolved) {
            let program = engine.cache().peek(job.spec.cache_key()).unwrap();
            assert_eq!(job.backend.resolve(program.census()), *backend);
        }
        // Resolution compiled each spec once; execution reuses those
        // programs instead of compiling again.
        let stats = engine.cache().stats();
        assert_eq!((stats.misses, stats.entries), (3, 3));
    }

    #[test]
    fn backend_choice_prepare_routes_auto_through_the_census() {
        use qdaflow_quantum::{QuantumError, QuantumGate};
        // The acceptance triple of the test above: `Auto.prepare` samples
        // exactly what the resolved choice's `prepare` samples.
        let specs = [
            (
                OracleSpec::qasm(
                    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\nt q[0];\n",
                ),
                BackendChoice::Dense,
            ),
            (
                OracleSpec::permutation(
                    Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
                    SynthesisChoice::default(),
                ),
                BackendChoice::Sparse,
            ),
            (
                OracleSpec::qasm(
                    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncz q[1],q[2];\n",
                ),
                BackendChoice::Stabilizer,
            ),
        ];
        let cache = OracleCache::new();
        let config = ExecConfig::sequential().with_shot_shard_size(64);
        for (spec, backend) in specs {
            let program = cache.get_or_compile(&spec).unwrap();
            let circuit = program.circuit();
            assert_eq!(resolve_backend(program.census()), backend);
            let auto = BackendChoice::Auto.prepare(circuit, &config).unwrap();
            let resolved = backend.prepare(circuit, &config).unwrap();
            assert_eq!(
                auto.sample_sharded(9, 500, &config),
                resolved.sample_sharded(9, 500, &config),
                "{backend}"
            );
        }
        // Only the stabilizer can prepare a 100-qubit circuit, so `Auto`
        // really takes the census route rather than a fixed engine.
        let wide = cache
            .get_or_compile(&OracleSpec::qasm(clifford_hidden_shift_qasm(100, 0b101)))
            .unwrap();
        let state = BackendChoice::Auto
            .prepare(wide.circuit(), &config)
            .unwrap();
        assert_eq!(
            state.sample_sharded(1, 16, &config),
            std::collections::BTreeMap::from([(0b101, 16)])
        );
        // Concrete choices keep their engine's limits as typed errors.
        let mut t_circuit = QuantumCircuit::new(2);
        t_circuit.push(QuantumGate::H(0)).unwrap();
        t_circuit.push(QuantumGate::T(1)).unwrap();
        assert!(matches!(
            BackendChoice::Stabilizer.prepare(&t_circuit, &config),
            Err(QuantumError::UnsupportedGate { gate: "t", .. })
        ));
    }

    #[test]
    fn auto_jobs_take_one_cache_lookup() {
        // Resolution and execution share one lookup, whether the job
        // resolves to dense or to sparse: a fresh job is one miss, a repeat
        // one hit.
        let dense = OracleSpec::qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\nt q[0];\n",
        );
        let sparse = OracleSpec::permutation(
            Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
            SynthesisChoice::default(),
        );
        let engine = BatchEngine::new();
        let counts = || {
            let stats = engine.cache().stats();
            (stats.hits, stats.misses)
        };
        for spec in [dense, sparse] {
            let job = BatchJob::new(spec, 64, 1).with_backend(BackendChoice::Auto);
            let before = counts();
            engine.run_job(&job, &engine.exec_config()).unwrap();
            let fresh = counts();
            assert_eq!((fresh.0 - before.0, fresh.1 - before.1), (0, 1));
            engine.run_job(&job, &engine.exec_config()).unwrap();
            let repeat = counts();
            assert_eq!((repeat.0 - fresh.0, repeat.1 - fresh.1), (1, 0));
        }
    }

    #[test]
    fn auto_batches_match_their_resolved_concrete_batches() {
        let job = BatchJob::new(
            OracleSpec::qasm(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
            ),
            1500,
            21,
        );
        let engine = BatchEngine::new();
        let auto = engine
            .run_batch(&[job.clone().with_backend(BackendChoice::Auto)])
            .unwrap();
        let concrete = engine
            .run_batch(&[job.with_backend(BackendChoice::Stabilizer)])
            .unwrap();
        assert_eq!(auto, concrete);
    }

    #[test]
    fn sparse_batches_are_thread_count_invariant() {
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 2000, 11).with_backend(BackendChoice::Sparse),
            perm_job(vec![1, 0, 3, 2], 1000, 3).with_backend(BackendChoice::Sparse),
        ];
        let config = ExecConfig::sequential().with_shot_shard_size(128);
        let sequential = BatchEngine::with_config(config).run_batch(&jobs).unwrap();
        for threads in [2usize, 4, 8] {
            let threaded = BatchEngine::with_config(config.with_threads(threads))
                .run_batch(&jobs)
                .unwrap();
            assert_eq!(sequential, threaded, "threads={threads}");
        }
    }

    #[test]
    fn panicking_job_fails_alone_while_siblings_complete() {
        // Regression for the old worker join: a panic inside one job's
        // compilation used to abort the whole batch (and, through the
        // worker `.join().expect(...)`, the calling thread). Now the panic
        // is caught at the job boundary: the poisoned job carries a typed
        // `JobPanicked` and every sibling still returns its real result.
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 200, 1),
            BatchJob::new(OracleSpec::fault_injection(true, 3), 100, 2),
            perm_job(vec![1, 0, 3, 2], 300, 3),
        ];
        let outcomes = engine.try_run_batch(&jobs);
        assert_eq!(outcomes.len(), 3);
        assert!(
            matches!(&outcomes[1], Err(EngineError::JobPanicked { message })
            if message.contains("injected compilation panic (tag 3)"))
        );
        let expected = engine
            .run_batch(&[jobs[0].clone(), jobs[2].clone()])
            .unwrap();
        assert_eq!(outcomes[0].as_ref().unwrap(), &expected[0]);
        assert_eq!(outcomes[2].as_ref().unwrap(), &expected[1]);
        // The all-or-nothing API reports the same typed error — never a
        // propagated panic.
        assert!(matches!(
            engine.run_batch(&jobs),
            Err(EngineError::JobPanicked { .. })
        ));
    }

    #[test]
    fn deterministic_job_failures_are_typed_and_isolated() {
        let engine = BatchEngine::new();
        let jobs = vec![
            BatchJob::new(OracleSpec::fault_injection(false, 9), 50, 1),
            perm_job(vec![1, 0, 3, 2], 50, 2),
        ];
        let outcomes = engine.try_run_batch(&jobs);
        assert!(matches!(&outcomes[0], Err(EngineError::Flow { message })
            if message.contains("tag 9")));
        assert!(outcomes[1].is_ok());
    }

    #[test]
    fn resolve_backends_never_yields_auto() {
        // Pins the invariant the old `unreachable!` assumed: automatic
        // resolution always lands on a concrete backend, for every census
        // shape we can produce (H-heavy, T-heavy, pure Clifford, empty).
        let specs = vec![
            OracleSpec::qasm(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nt q[0];\n",
            ),
            OracleSpec::permutation(
                Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
                SynthesisChoice::default(),
            ),
            OracleSpec::qasm(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
            ),
            OracleSpec::qasm("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"),
        ];
        let jobs: Vec<BatchJob> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| BatchJob::new(spec, 10, i as u64).with_backend(BackendChoice::Auto))
            .collect();
        let engine = BatchEngine::new();
        let resolved = engine.resolve_backends(&jobs).unwrap();
        assert_eq!(resolved.len(), jobs.len());
        for backend in resolved {
            assert_ne!(backend, BackendChoice::Auto);
        }
    }

    #[test]
    fn zero_shot_jobs_are_rejected_with_their_index() {
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![1, 0, 3, 2], 10, 1),
            perm_job(vec![1, 0, 3, 2], 0, 2),
        ];
        assert!(matches!(
            engine.run_batch(&jobs),
            Err(EngineError::ZeroShots { index: 1 })
        ));
        // Validation happens before any compilation.
        assert_eq!(engine.cache().stats().entries, 0);
        // The isolating API rejects per job, leaving valid siblings alone.
        let outcomes = engine.try_run_batch(&jobs);
        assert!(outcomes[0].is_ok());
        assert!(matches!(
            outcomes[1],
            Err(EngineError::ZeroShots { index: 1 })
        ));
    }

    #[test]
    fn job_digests_separate_execution_parameters_from_cache_keys() {
        let base = perm_job(vec![1, 0, 3, 2], 100, 1);
        let other_seed = perm_job(vec![1, 0, 3, 2], 100, 2);
        let other_shots = perm_job(vec![1, 0, 3, 2], 200, 1);
        // Same compilation, so one cache key…
        assert_eq!(base.spec.cache_key(), other_seed.spec.cache_key());
        // …but distinct checkpoints: a journal must not answer a 200-shot
        // job with a 100-shot result.
        assert_ne!(base.digest(), other_seed.digest());
        assert_ne!(base.digest(), other_shots.digest());
        assert_eq!(base.digest(), base.clone().digest());
        // A job on another backend compiles the same program but is a
        // distinct checkpoint.
        let sparse = base.clone().with_backend(BackendChoice::Sparse);
        assert_eq!(sparse.spec.cache_key(), base.spec.cache_key());
        assert_ne!(sparse.digest(), base.digest());
        // Dense digests are a stored format: journals already on disk
        // replay their dense jobs.
        assert_eq!(
            base.digest().to_string(),
            "a4307d3d1be857e125f3ca4e576e3e5d"
        );
    }

    /// QASM source of `h` on each of the first `width` of `num_qubits`
    /// qubits: an all-Clifford circuit whose support has rank `width`.
    fn hadamard_qasm(num_qubits: usize, width: usize) -> String {
        use std::fmt::Write as _;
        let mut source = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{num_qubits}];\n");
        for q in 0..width {
            writeln!(source, "h q[{q}];").unwrap();
        }
        source
    }

    #[test]
    fn auto_jobs_report_a_too_large_stabilizer_support_as_a_rank() {
        use qdaflow_quantum::QuantumError;
        // All-Clifford, so `Auto` routes to the stabilizer; `h` on 54 of 60
        // qubits gives a support of rank 54, one past the sampling cap.
        let job = BatchJob::new(OracleSpec::qasm(hadamard_qasm(60, 54)), 64, 1)
            .with_backend(BackendChoice::Auto);
        let engine = BatchEngine::new();
        assert_eq!(
            engine.resolve_backends(std::slice::from_ref(&job)).unwrap(),
            vec![BackendChoice::Stabilizer]
        );
        assert_eq!(
            engine.run_job(&job, &engine.exec_config()),
            Err(EngineError::Quantum(QuantumError::SupportTooLarge {
                rank: 54,
                maximum: 53
            }))
        );
        // No engine runs it: the register is past both amplitude ceilings.
        for backend in [BackendChoice::Dense, BackendChoice::Sparse] {
            let job = job.clone().with_backend(backend);
            assert!(
                matches!(
                    engine.run_job(&job, &engine.exec_config()),
                    Err(EngineError::Quantum(QuantumError::TooManyQubits {
                        requested: 60,
                        ..
                    }))
                ),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn auto_jobs_sample_wide_stabilizer_supports() {
        let engine = BatchEngine::new();
        for width in [21, 40] {
            let job = BatchJob::new(OracleSpec::qasm(hadamard_qasm(40, width)), 1024, 9)
                .with_backend(BackendChoice::Auto);
            let result = engine.run_job(&job, &engine.exec_config()).unwrap();
            assert_eq!(result.counts.values().sum::<usize>(), 1024);
            assert!(
                result.counts.keys().all(|&outcome| outcome < 1 << width),
                "width {width}: an outcome outside the support"
            );
            if width == 21 {
                let stabilizer = job.with_backend(BackendChoice::Stabilizer);
                let explicit = engine.run_job(&stabilizer, &engine.exec_config()).unwrap();
                assert_eq!(result.counts, explicit.counts);
            }
        }
    }
}
