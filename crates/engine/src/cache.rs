//! The compiled-oracle cache: compilation results keyed by the canonical
//! hash of their specification.
//!
//! Oracle compilation (reversible synthesis, simplification, Clifford+T
//! mapping) is by far the most expensive step of the engine's flow, and a
//! production deployment sees the *same* oracles over and over — the same
//! permutation compiled for every incoming job, the same phase function
//! re-submitted by many users. [`OracleCache`] memoizes
//! [`CompiledProgram`]s under the [`SpecKey`] of their [`OracleSpec`] (the
//! canonical digest of the specification plus the pass list, see
//! [`qdaflow_pipeline::spec`]), so a repeated compilation is a hash lookup
//! instead of a synthesis run. A compiled program does not depend on the
//! backend that runs it, so jobs on every backend share the one entry of
//! their spec; the program carries its gate census for automatic routing.
//! The cache is `Sync`: concurrent `get_or_compile` calls for distinct
//! specs compile in parallel outside the lock, and a race on the same key
//! keeps the first inserted program.
//!
//! Each cache counts its own activity, once per event, in its own
//! [`telemetry::MetricsRegistry`] ([`OracleCache::metrics`]): memory hits,
//! compilations, and the disk layer's hits, rejected entries, writes and
//! write errors. [`OracleCache::stats`] reads the same handles, and
//! [`JobService::metrics_text`](crate::JobService::metrics_text) renders the
//! registry after the service's own families. Only the compile-time
//! histogram, `qdaflow_compile_duration_seconds`, is process-wide.

use crate::oracle::{compile_permutation_oracle, compile_phase_oracle, SynthesisChoice};
use crate::store::disk::DiskCache;
use crate::EngineError;
use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_pipeline::spec::{self, CanonicalHasher, SpecKey};
use qdaflow_quantum::resource::ResourceCounts;
use qdaflow_quantum::{GateCensus, QuantumCircuit};
use qdaflow_telemetry as telemetry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cacheable oracle specification: what to compile and through which
/// passes.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleSpec {
    /// A permutation oracle `|x⟩ → |π(x)⟩`, compiled through the paper's
    /// synthesis → `revsimp` → `rptm` prefix of equation (5).
    Permutation {
        /// The permutation to realize.
        permutation: Permutation,
        /// Which reversible synthesis algorithm to use.
        synthesis: SynthesisChoice,
    },
    /// A diagonal phase oracle `U_f`, compiled through the `po` pass.
    PhaseFunction {
        /// The Boolean function whose phase oracle is compiled.
        function: TruthTable,
    },
    /// A circuit imported from OpenQASM 2.0 source through the `qasmin`
    /// pass — the front door for workloads not born from our spec types.
    Qasm {
        /// The OpenQASM source text.
        source: String,
    },
    /// A fault-injection oracle whose compilation deliberately fails: it
    /// panics (`panic: true`) or returns a typed error (`panic: false`).
    /// This is the crash-safety smoke test of the job service — submit one
    /// to a deployment to verify that retry, dead-lettering and per-job
    /// panic isolation are wired correctly without crafting a genuinely
    /// broken workload. Keyed like any other spec (`tag` distinguishes
    /// independent injections), and never cached: compilation never
    /// succeeds.
    FaultInjection {
        /// Panic during compilation when `true`; fail with a typed,
        /// deterministic [`EngineError`] when `false`.
        panic: bool,
        /// Distinguishes independent injections in cache keys and journals.
        tag: u64,
    },
}

impl OracleSpec {
    /// A permutation-oracle spec.
    pub fn permutation(permutation: Permutation, synthesis: SynthesisChoice) -> Self {
        Self::Permutation {
            permutation,
            synthesis,
        }
    }

    /// A phase-oracle spec.
    pub fn phase_function(function: TruthTable) -> Self {
        Self::PhaseFunction { function }
    }

    /// An OpenQASM-import spec.
    pub fn qasm(source: impl Into<String>) -> Self {
        Self::Qasm {
            source: source.into(),
        }
    }

    /// A fault-injection spec (see [`OracleSpec::FaultInjection`]).
    pub fn fault_injection(panic: bool, tag: u64) -> Self {
        Self::FaultInjection { panic, tag }
    }

    /// Number of specification variables (the oracle's data qubits; the
    /// compiled circuit may add ancillas). For a QASM spec this is unknown
    /// before parsing and reported as 0.
    pub fn num_vars(&self) -> usize {
        match self {
            Self::Permutation { permutation, .. } => permutation.num_vars(),
            Self::PhaseFunction { function } => function.num_vars(),
            Self::Qasm { .. } | Self::FaultInjection { .. } => 0,
        }
    }

    /// The ordered pass descriptions this spec compiles through — the pass
    /// list half of the cache key.
    pub fn pass_list(&self) -> Vec<String> {
        match self {
            Self::Permutation { synthesis, .. } => {
                let synthesis = match synthesis {
                    SynthesisChoice::TransformationBased => "tbs",
                    SynthesisChoice::DecompositionBased => "dbs",
                };
                vec![
                    synthesis.to_owned(),
                    "revsimp".to_owned(),
                    "rptm".to_owned(),
                ]
            }
            Self::PhaseFunction { .. } => vec!["po".to_owned()],
            Self::Qasm { .. } => vec!["qasmin".to_owned()],
            Self::FaultInjection { .. } => vec!["fault".to_owned()],
        }
    }

    /// The canonical cache key: the digest of the specification contents and
    /// the pass list. Equal for any two specs describing the same oracle
    /// through the same passes, regardless of how they were constructed.
    /// Hashes by reference, and produces the same key as
    /// [`spec::spec_key`]`(Some(&ir), &self.pass_list())` over the
    /// corresponding `Ir` value (enforced by `tests/integration_batch.rs`).
    pub fn cache_key(&self) -> SpecKey {
        let mut hasher = CanonicalHasher::new();
        match self {
            Self::Permutation { permutation, .. } => {
                spec::write_permutation(&mut hasher, permutation)
            }
            Self::PhaseFunction { function } => spec::write_function(&mut hasher, function),
            Self::Qasm { source } => spec::write_qasm_source(&mut hasher, source),
            Self::FaultInjection { panic, tag } => {
                hasher.write_str("fault-injection");
                hasher.write_u64(u64::from(*panic));
                hasher.write_u64(*tag);
            }
        }
        spec::write_passes(&mut hasher, &self.pass_list());
        hasher.finish()
    }

    /// Compiles the spec to a Clifford+T circuit (uncached; see
    /// [`OracleCache::get_or_compile`] for the cached path).
    ///
    /// # Errors
    ///
    /// Propagates synthesis and mapping failures.
    pub fn compile(&self) -> Result<QuantumCircuit, EngineError> {
        match self {
            Self::Permutation {
                permutation,
                synthesis,
            } => compile_permutation_oracle(permutation, *synthesis),
            Self::PhaseFunction { function } => compile_phase_oracle(function),
            Self::Qasm { source } => Ok(qdaflow_quantum::qasm::from_qasm(source)?),
            Self::FaultInjection { panic, tag } => {
                if *panic {
                    panic!("injected compilation panic (tag {tag})");
                }
                Err(EngineError::Flow {
                    message: format!("injected deterministic compilation failure (tag {tag})"),
                })
            }
        }
    }
}

/// A compiled, immutable oracle: the circuit plus the metadata the batch
/// layer reports and routes by. Shared via `Arc` between the cache and all
/// jobs using it, whatever backend they run on.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    circuit: QuantumCircuit,
    resources: ResourceCounts,
    census: GateCensus,
    compile_time: Duration,
}

impl CompiledProgram {
    /// Builds a program from a compiled (or disk-loaded) circuit and the
    /// time its cold compilation took; resource counts and the gate census
    /// are recomputed — they are cheap and derived.
    pub(crate) fn from_parts(circuit: QuantumCircuit, compile_time: Duration) -> Self {
        Self {
            resources: ResourceCounts::of(&circuit),
            census: GateCensus::of(&circuit),
            circuit,
            compile_time,
        }
    }

    /// The compiled Clifford+T circuit.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// Resource counts of the compiled circuit.
    pub fn resources(&self) -> &ResourceCounts {
        &self.resources
    }

    /// Gate census of the compiled circuit — what
    /// [`BackendChoice::resolve`](crate::BackendChoice::resolve) routes an
    /// automatic job by.
    pub fn census(&self) -> &GateCensus {
        &self.census
    }

    /// Wall-clock time the (cold) compilation took.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }
}

/// Counters and occupancy of an [`OracleCache`], read from the handles of
/// its metrics registry ([`OracleCache::metrics`]). Every counter is
/// monotonic over the cache's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of `get_or_compile` calls answered from the in-memory table.
    pub hits: u64,
    /// Number of `get_or_compile` calls that compiled.
    pub misses: u64,
    /// Number of `get_or_compile` calls answered from the disk layer
    /// (always `0` for a cache without one).
    pub disk_hits: u64,
    /// Disk entries found but rejected (truncated, corrupt, wrong version or
    /// key); each such lookup then compiles and counts as a miss.
    pub disk_corrupt: u64,
    /// Compilations written to the disk layer.
    pub disk_writes: u64,
    /// Compilations the disk layer failed to write (I/O errors; the program
    /// is still served from memory).
    pub disk_write_errors: u64,
    /// Number of programs currently cached in memory.
    pub entries: usize,
}

/// An [`OracleCache`]'s own registry and its handles, one per
/// `qdaflow_oracle_cache_*` family, in exposition order.
struct CacheMetrics {
    registry: telemetry::MetricsRegistry,
    hits: telemetry::Counter,
    misses: telemetry::Counter,
    disk_hits: telemetry::Counter,
    disk_corrupt: telemetry::Counter,
    disk_writes: telemetry::Counter,
    disk_write_errors: telemetry::Counter,
    entries: telemetry::Gauge,
}

impl Default for CacheMetrics {
    fn default() -> Self {
        let registry = telemetry::MetricsRegistry::new();
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        Self {
            hits: counter(
                "qdaflow_oracle_cache_hits_total",
                "Compilations answered from the in-memory oracle cache.",
            ),
            misses: counter(
                "qdaflow_oracle_cache_misses_total",
                "Compilations actually performed (in-memory and disk layers both missed).",
            ),
            disk_hits: counter(
                "qdaflow_oracle_cache_disk_hits_total",
                "Compilations answered from the disk-backed oracle cache.",
            ),
            disk_corrupt: counter(
                "qdaflow_oracle_cache_disk_corrupt_total",
                "Disk cache entries rejected as truncated or corrupt (degraded to misses).",
            ),
            disk_writes: counter(
                "qdaflow_oracle_cache_disk_writes_total",
                "Disk cache entries written (atomic temp-file + rename).",
            ),
            disk_write_errors: counter(
                "qdaflow_oracle_cache_disk_write_errors_total",
                "Disk cache entry writes that failed (best-effort, swallowed).",
            ),
            entries: registry.gauge(
                "qdaflow_oracle_cache_entries",
                "Programs currently held by the in-memory oracle cache.",
                &[],
            ),
            registry,
        }
    }
}

/// A thread-safe memo table of [`CompiledProgram`]s keyed by [`SpecKey`],
/// optionally layered over a persistent [`DiskCache`]
/// ([`OracleCache::with_disk`]): memory miss → disk load → compile, with
/// every fresh compilation written back to disk so it survives restarts
/// and is shared across processes. The cache counts the activity of both
/// layers, each event once, in its own registry ([`OracleCache::metrics`]).
#[derive(Default)]
pub struct OracleCache {
    programs: Mutex<HashMap<SpecKey, Arc<CompiledProgram>>>,
    disk: Option<DiskCache>,
    metrics: CacheMetrics,
}

impl fmt::Debug for OracleCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OracleCache")
            .field("disk", &self.disk)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl OracleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty in-memory cache layered over `disk`: lookups fall
    /// through to the disk entry before compiling, and compilations are
    /// persisted (atomically, best-effort) as they happen.
    pub fn with_disk(disk: DiskCache) -> Self {
        Self {
            disk: Some(disk),
            ..Self::default()
        }
    }

    /// The disk layer, if the cache has one.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Returns the compiled program for `spec`, compiling (and caching) it
    /// on a miss. Compilation happens outside the cache lock, so concurrent
    /// misses on *distinct* specs compile in parallel; concurrent misses on
    /// the *same* spec may compile redundantly, and the first insertion
    /// wins.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures; nothing is cached on error.
    pub fn get_or_compile(&self, spec: &OracleSpec) -> Result<Arc<CompiledProgram>, EngineError> {
        let key = spec.cache_key();
        let m = &self.metrics;
        if let Some(program) = self.lock().get(&key).cloned() {
            m.hits.inc();
            return Ok(program);
        }
        if let Some(disk) = &self.disk {
            match disk.load(key) {
                Ok(Some((circuit, compile_time))) => {
                    m.disk_hits.inc();
                    telemetry::event("cache", "disk hit", vec![("key", format!("{key:?}"))]);
                    let program = CompiledProgram::from_parts(circuit, compile_time);
                    return Ok(self.insert(key, Arc::new(program)));
                }
                Ok(None) => {}
                Err(_) => m.disk_corrupt.inc(),
            }
        }
        m.misses.inc();
        let start = Instant::now();
        let circuit = {
            let _span = telemetry::span!("cache", "compile {key:?}");
            spec.compile()?
        };
        let program = Arc::new(CompiledProgram::from_parts(circuit, start.elapsed()));
        telemetry::global_metrics()
            .histogram(
                "qdaflow_compile_duration_seconds",
                "Wall-clock oracle compilation time (cache misses only).",
                &telemetry::SHORT_DURATION_BUCKETS,
                &[],
            )
            .observe_duration(program.compile_time);
        if let Some(disk) = &self.disk {
            match disk.store(key, &program.circuit, program.compile_time) {
                Ok(()) => m.disk_writes.inc(),
                Err(_) => m.disk_write_errors.inc(),
            }
        }
        Ok(self.insert(key, program))
    }

    /// Looks a program up without compiling (does not touch the hit/miss
    /// counters).
    pub fn peek(&self, key: SpecKey) -> Option<Arc<CompiledProgram>> {
        self.lock().get(&key).cloned()
    }

    /// Current counters and occupancy, read from the cache's registry.
    pub fn stats(&self) -> CacheStats {
        let m = &self.metrics;
        CacheStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            disk_hits: m.disk_hits.get(),
            disk_corrupt: m.disk_corrupt.get(),
            disk_writes: m.disk_writes.get(),
            disk_write_errors: m.disk_write_errors.get(),
            entries: m.entries.get() as usize,
        }
    }

    /// The cache's own metrics registry, the only place its activity is
    /// counted: the `qdaflow_oracle_cache_*` families of memory hits,
    /// compilations, disk hits, rejected disk entries, disk writes and
    /// write errors, and the in-memory entry gauge. Each cache has its own,
    /// so two caches in one process never mix their numbers.
    pub fn metrics(&self) -> &telemetry::MetricsRegistry {
        &self.metrics.registry
    }

    /// Stores `program` under `key` unless the slot is taken, returning the
    /// program stored there, and keeps the entry gauge in step.
    fn insert(&self, key: SpecKey, program: Arc<CompiledProgram>) -> Arc<CompiledProgram> {
        let mut programs = self.lock();
        let stored = Arc::clone(programs.entry(key).or_insert(program));
        self.metrics.entries.set(programs.len() as i64);
        stored
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<SpecKey, Arc<CompiledProgram>>> {
        self.programs.lock().expect("oracle cache lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_sparse::SparseStatevector;

    fn example_permutation() -> Permutation {
        Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap()
    }

    #[test]
    fn repeated_compilations_hit_the_cache() {
        let cache = OracleCache::new();
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let first = cache.get_or_compile(&spec).unwrap();
        let second = cache.get_or_compile(&spec).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // An equal spec constructed independently also hits.
        let rebuilt = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        assert!(Arc::ptr_eq(
            &cache.get_or_compile(&rebuilt).unwrap(),
            &first
        ));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn synthesis_choice_and_spec_kind_separate_keys() {
        let pi = example_permutation();
        let tbs = OracleSpec::permutation(pi.clone(), SynthesisChoice::TransformationBased);
        let dbs = OracleSpec::permutation(pi, SynthesisChoice::DecompositionBased);
        assert_ne!(tbs.cache_key(), dbs.cache_key());
        let f = TruthTable::from_bits(3, (0..8).map(|x| x == 7)).unwrap();
        let po = OracleSpec::phase_function(f);
        assert_ne!(po.cache_key(), tbs.cache_key());
        let cache = OracleCache::new();
        cache.get_or_compile(&tbs).unwrap();
        cache.get_or_compile(&dbs).unwrap();
        cache.get_or_compile(&po).unwrap();
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn cached_programs_realize_their_specification() {
        let cache = OracleCache::new();
        let pi = example_permutation();
        let spec = OracleSpec::permutation(pi.clone(), SynthesisChoice::default());
        let program = cache.get_or_compile(&spec).unwrap();
        assert!(program.resources().total_gates > 0);
        for basis in 0..8usize {
            let mut state =
                SparseStatevector::basis_state(program.circuit().num_qubits(), basis as u64)
                    .unwrap();
            state.apply_circuit(program.circuit());
            assert!(
                state.probability_of(pi.apply(basis) as u64) > 1.0 - 1e-9,
                "{basis}"
            );
        }
    }

    #[test]
    fn qasm_specs_compile_and_key_like_qasmin_pipelines() {
        let source = "qreg d[1];\nqreg e[1];\nh d;\nrz(3.141592653589793/4) d[0];\ncx d[0],e[0];";
        let spec = OracleSpec::qasm(source);
        assert_eq!(spec.pass_list(), vec!["qasmin".to_owned()]);
        assert_eq!(spec.num_vars(), 0);
        // The key agrees with the pipeline-layer digest over Ir::QasmSource.
        let ir = qdaflow_pipeline::Ir::QasmSource(source.to_owned());
        assert_eq!(
            spec.cache_key(),
            qdaflow_pipeline::spec::spec_key(Some(&ir), &spec.pass_list())
        );
        let cache = OracleCache::new();
        let program = cache.get_or_compile(&spec).unwrap();
        assert_eq!(program.circuit().num_qubits(), 2);
        assert_eq!(program.circuit().num_gates(), 3);
        assert!(Arc::ptr_eq(
            &cache.get_or_compile(&OracleSpec::qasm(source)).unwrap(),
            &program
        ));
        // Parse failures are typed errors, nothing is cached.
        let entries = cache.stats().entries;
        assert!(cache
            .get_or_compile(&OracleSpec::qasm("qreg q[1];\nbad"))
            .is_err());
        assert_eq!(cache.stats().entries, entries);
    }

    #[test]
    fn peek_does_not_compile_or_count() {
        let cache = OracleCache::new();
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        assert!(cache.peek(spec.cache_key()).is_none());
        cache.get_or_compile(&spec).unwrap();
        assert!(cache.peek(spec.cache_key()).is_some());
        assert_eq!(cache.stats().hits, 0);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qdaflow-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_backed_caches_warm_restarted_processes() {
        let dir = scratch_dir("warm");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let first = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        let program = first.get_or_compile(&spec).unwrap();
        assert_eq!(first.stats().misses, 1);
        assert_eq!(first.stats().disk_writes, 1);
        // A brand-new cache over the same directory — a restarted process —
        // loads from disk instead of compiling.
        let second = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        let warmed = second.get_or_compile(&spec).unwrap();
        let stats = second.stats();
        assert_eq!(
            (stats.misses, stats.disk_hits),
            (0, 1),
            "restart must not recompile"
        );
        assert_eq!(warmed.circuit(), program.circuit());
        // The census is derived on load, not stored on disk, so the loaded
        // program routes like the compiled one.
        assert_eq!(warmed.census(), program.census());
        // And the loaded entry now also sits in memory.
        second.get_or_compile(&spec).unwrap();
        assert_eq!(second.stats().hits, 1);
    }

    #[test]
    fn truncated_disk_entries_degrade_to_counted_misses() {
        let dir = scratch_dir("truncated");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let writer = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        writer.get_or_compile(&spec).unwrap();
        let path = dir.join(format!("{:032x}.qdc", spec.cache_key().0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let reader = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        reader.get_or_compile(&spec).unwrap();
        let stats = reader.stats();
        assert_eq!((stats.misses, stats.disk_hits), (1, 0));
        assert_eq!(reader.stats().disk_corrupt, 1);
        // The recompile rewrote a valid entry.
        let healed = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        healed.get_or_compile(&spec).unwrap();
        assert_eq!(healed.stats().disk_hits, 1);
    }

    #[test]
    fn wrong_version_disk_entries_degrade_to_counted_misses() {
        let dir = scratch_dir("version");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let writer = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        writer.get_or_compile(&spec).unwrap();
        let path = dir.join(format!("{:032x}.qdc", spec.cache_key().0));
        let mut bytes = std::fs::read(&path).unwrap();
        // Bump the little-endian version word just past the 4-byte magic.
        bytes[4] = bytes[4].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let reader = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        reader.get_or_compile(&spec).unwrap();
        assert_eq!(reader.stats().misses, 1);
        assert_eq!(reader.stats().disk_corrupt, 1);
    }

    #[test]
    fn failed_disk_writes_are_counted_and_still_serve_the_program() {
        let dir = scratch_dir("write-error");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let cache = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        // Without its directory the disk layer cannot create the entry's
        // temp file, so the write fails after the compile.
        std::fs::remove_dir_all(&dir).unwrap();
        let program = cache.get_or_compile(&spec).unwrap();
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.disk_writes, stats.disk_write_errors),
            (1, 0, 1)
        );
        assert!(cache
            .metrics()
            .render()
            .contains("qdaflow_oracle_cache_disk_write_errors_total 1\n"));
        // The program stayed in memory: the next lookup is a memory hit.
        assert!(Arc::ptr_eq(&cache.get_or_compile(&spec).unwrap(), &program));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_instances_race_to_one_valid_entry() {
        // Two cache instances over the same directory — two processes —
        // compile the same spec concurrently. Both miss (no coordination is
        // promised across processes), but the atomic write-rename leaves
        // exactly one valid entry behind.
        let dir = scratch_dir("race");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let a = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        let b = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        std::thread::scope(|scope| {
            let ta = scope.spawn(|| a.get_or_compile(&spec).unwrap());
            let tb = scope.spawn(|| b.get_or_compile(&spec).unwrap());
            let pa = ta.join().unwrap();
            let pb = tb.join().unwrap();
            assert_eq!(pa.circuit(), pb.circuit());
        });
        let compiles = a.stats().misses + b.stats().misses;
        let loads = a.stats().disk_hits + b.stats().disk_hits;
        assert_eq!(compiles + loads, 2);
        assert!(compiles >= 1);
        // Exactly one durable file, no leftover temp files, and it decodes.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec![format!("{:032x}.qdc", spec.cache_key().0)]);
        let fresh = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        fresh.get_or_compile(&spec).unwrap();
        assert_eq!(fresh.stats().disk_hits, 1);
    }
}
