//! `dense_hs20` and `service_mix`: closed loops of one client thread over
//! `JobService::submit_batch` / `wait`, and the traced replay of the same
//! jobs through each layer's public functions.

use crate::inputs::{DenseTraffic, MixTraffic, Request};
use crate::report::Report;
use crate::stats;
use crate::trace::{RequestSpans, Tracer};
use crate::{Options, Workload};
use qdaflow::engine::{resolve_backend, CacheStats};
use qdaflow::pipeline::SpecKey;
use qdaflow::prelude::*;
use qdaflow::quantum::{qasm, CumulativeDistribution, ExecPlan, GateCensus, SoaStatevector};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `service_mix` batches per second of `--seconds`. The service keeps every
/// job record and every compiled program, so its memory grows with the
/// number of jobs: a fixed amount of work per run keeps `peak_rss_mb`
/// comparable between versions of different speed. At this rate the run
/// takes about the given seconds on the 2-vCPU host it was sized on.
const MIX_BATCHES_PER_SECOND: f64 = 33.0;
/// Span whose time the service measures outside a job's execution.
const JOURNAL: &str = "journal.append_us";

enum Traffic {
    Dense(DenseTraffic),
    /// `service_mix` with its fixed number of batches.
    Mix(MixTraffic, usize),
}

impl Traffic {
    fn new(options: &Options) -> Result<Self, String> {
        Ok(match options.workload {
            Workload::DenseHs20 => Self::Dense(DenseTraffic::new(options.seed, options.smoke)?),
            Workload::ServiceMix => {
                let batches = options.window().as_secs_f64() * MIX_BATCHES_PER_SECOND;
                let batches = batches.ceil() as usize;
                Self::Mix(
                    MixTraffic::new(options.seed, options.smoke, batches)?,
                    batches,
                )
            }
            Workload::CompileEq5 => return Err("compile_eq5 sends no service traffic".to_owned()),
        })
    }

    /// Whether the measured loop has done its work: `dense_hs20` runs for
    /// the window, `service_mix` for its batches (or at most three windows).
    fn finished(&self, units: usize, elapsed: Duration, window: Duration) -> bool {
        match self {
            Self::Dense(_) => elapsed >= window,
            Self::Mix(_, batches) => units >= *batches || elapsed >= 3 * window,
        }
    }

    /// The next closed-loop unit: one job for `dense_hs20`, one batch for
    /// `service_mix`.
    fn next(&mut self) -> Result<Vec<Request>, String> {
        match self {
            Self::Dense(traffic) => Ok(traffic.next()),
            Self::Mix(traffic, _) => traffic.next(),
        }
    }

    fn warm_up(&self) -> Vec<Request> {
        match self {
            Self::Dense(traffic) => traffic.warm_up(),
            Self::Mix(traffic, _) => traffic.warm_up(),
        }
    }

    fn disk_specs(&self) -> Vec<&OracleSpec> {
        match self {
            Self::Dense(_) => Vec::new(),
            Self::Mix(traffic, _) => traffic.disk_specs().collect(),
        }
    }

    /// The service at its defaults; `service_mix` turns on the disk cache
    /// and the journal, both fresh under `dir`.
    fn config(&self, dir: &Path) -> JobServiceConfig {
        match self {
            Self::Dense(_) => JobServiceConfig::default(),
            Self::Mix(..) => JobServiceConfig {
                disk_cache_dir: Some(dir.join("cache")),
                journal_path: Some(dir.join("journal.log")),
                ..JobServiceConfig::default()
            },
        }
    }
}

/// Run-private directory for disk caches and journals, next to the
/// benchmark executable (inside the checkout's build directory). Every
/// set-up and the replay get their own subdirectory: a reused journal would
/// answer resubmitted jobs from its checkpoints, and a reused cache
/// directory would turn every compile into a disk hit.
struct StateDir {
    path: PathBuf,
}

impl StateDir {
    fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
        let base = exe
            .parent()
            .ok_or("the executable has no parent directory")?;
        let path = base
            .join("e2e_bench_state")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.path.join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn engine_error(context: &str) -> impl Fn(qdaflow::engine::EngineError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// The program's set-up: an earlier instance writes the disk share (for
/// `service_mix`), then the measured service starts and runs the warm-up
/// jobs.
fn set_up(traffic: &Traffic, dir: &Path) -> Result<JobService, String> {
    let config = traffic.config(dir);
    if config.disk_cache_dir.is_some() {
        let earlier = JobService::new(JobServiceConfig {
            journal_path: None,
            ..config.clone()
        })
        .map_err(engine_error("start the disk-writing service"))?;
        for spec in traffic.disk_specs() {
            earlier
                .engine()
                .cache()
                .get_or_compile(spec)
                .map_err(engine_error("prepare a disk entry"))?;
        }
    }
    let service = JobService::new(config).map_err(engine_error("start the service"))?;
    // One batch, so both workers run warm-up jobs.
    let jobs: Vec<BatchJob> = traffic.warm_up().into_iter().map(|r| r.job).collect();
    let ids = service
        .submit_batch(&jobs)
        .map_err(engine_error("submit the warm-up"))?;
    for id in ids {
        match service.wait(id) {
            Some(JobStatus::Done(_)) => {}
            other => return Err(format!("warm-up job ended as {other:?}")),
        }
    }
    Ok(service)
}

/// Counts and sizes of one distinct compiled program.
#[derive(Debug, Clone, Copy)]
struct Program {
    gates: usize,
    qubits: usize,
    t: usize,
    cnot: usize,
}

/// What the measured loop saw.
#[derive(Default)]
struct Measured {
    /// Requests in order, with their result fingerprints (`None` when the
    /// job failed); kept only for the traced replay.
    requests: Vec<(Request, Option<u64>)>,
    latencies_ms: Vec<f64>,
    units: Vec<(u64, f64)>,
    submit_s: f64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    programs: HashMap<SpecKey, Program>,
    fresh: HashSet<SpecKey>,
}

/// Fingerprint of a result: counts, shape and resource counts.
fn fingerprint(result: &ExecutionResult) -> u64 {
    let mut hasher = DefaultHasher::new();
    (result.num_qubits, result.shots).hash(&mut hasher);
    result.counts.hash(&mut hasher);
    let r = &result.resources;
    (r.num_qubits, r.total_gates, r.t_count, r.t_depth, r.h_count).hash(&mut hasher);
    (r.cnot_count, r.multi_qubit_gates, r.depth).hash(&mut hasher);
    r.by_gate.hash(&mut hasher);
    hasher.finish()
}

/// Waits for every job of a batch and stamps each with the first instant
/// the client saw it terminal: wait for the oldest pending job, then poll
/// the later ones.
fn collect(service: &JobService, ids: &[JobId]) -> Result<Vec<(Instant, JobStatus)>, String> {
    let mut done: Vec<Option<(Instant, JobStatus)>> = vec![None; ids.len()];
    let mut next = 0;
    while next < ids.len() {
        let status = service.wait(ids[next]).ok_or("the service lost a job id")?;
        let now = Instant::now();
        done[next] = Some((now, status));
        for (slot, &id) in done.iter_mut().zip(ids).skip(next + 1) {
            if slot.is_none() {
                if let Some(status) = service.poll(id).filter(JobStatus::is_terminal) {
                    *slot = Some((now, status));
                }
            }
        }
        while next < ids.len() && done[next].is_some() {
            next += 1;
        }
    }
    Ok(done
        .into_iter()
        .map(|slot| slot.expect("every job was seen terminal"))
        .collect())
}

/// The measured closed loop: one unit in flight, the next sent when it
/// completes. Busy time runs from submission to the last terminal status;
/// generating and checking between units is the client's own time.
fn drive(
    service: &JobService,
    traffic: &mut Traffic,
    window: Duration,
    keep: bool,
) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let started = Instant::now();
    while measured.units.is_empty()
        || !traffic.finished(measured.units.len(), started.elapsed(), window)
    {
        let batch = traffic.next()?;
        let jobs: Vec<BatchJob> = batch.iter().map(|r| r.job.clone()).collect();
        let sent = Instant::now();
        let ids = service
            .submit_batch(&jobs)
            .map_err(engine_error("submit a batch"))?;
        measured.submit_s += sent.elapsed().as_secs_f64();
        let statuses = collect(service, &ids)?;
        measured
            .units
            .push((batch.len() as u64, sent.elapsed().as_secs_f64()));
        for (request, (at, status)) in batch.into_iter().zip(statuses) {
            measured.attempted += 1;
            measured
                .latencies_ms
                .push(at.duration_since(sent).as_secs_f64() * 1e3);
            let fingerprint = match status {
                JobStatus::Done(result) => {
                    if !request.check(&result) {
                        measured.wrong += 1;
                    }
                    let key = request.job.spec.cache_key();
                    let r = &result.resources;
                    measured.programs.entry(key).or_insert(Program {
                        gates: r.total_gates,
                        qubits: r.num_qubits,
                        t: r.t_count,
                        cnot: r.cnot_count,
                    });
                    if request.fresh {
                        measured.fresh.insert(key);
                    }
                    Some(fingerprint(&result))
                }
                _ => {
                    measured.failed += 1;
                    None
                }
            };
            if keep {
                measured.requests.push((request, fingerprint));
            }
        }
    }
    Ok(measured)
}

/// The `JobService::metrics_text` values and cache statistics the
/// per-layer metrics read.
#[derive(Debug, Clone, Copy)]
struct Counters {
    exec_s: f64,
    executions: f64,
    retried: f64,
    dead: f64,
    cache: CacheStats,
}

fn counters(service: &JobService) -> Counters {
    let text = service.metrics_text();
    let read = |name: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0.0)
    };
    Counters {
        exec_s: read("qdaflow_job_duration_seconds_sum"),
        executions: read("qdaflow_job_duration_seconds_count"),
        retried: read("qdaflow_jobs_retried_total"),
        dead: read("qdaflow_jobs_dead_total"),
        cache: service.engine().cache().stats(),
    }
}

pub fn run(options: &Options) -> Result<Report, String> {
    let mut traffic = Traffic::new(options)?;
    let state = StateDir::new()?;
    let timed_set_up = |traffic: &Traffic, round: usize| -> Result<(JobService, f64), String> {
        let dir = state.subdir(&format!("setup-{round}"))?;
        let started = Instant::now();
        let service = set_up(traffic, &dir)?;
        Ok((service, started.elapsed().as_secs_f64()))
    };
    // The measured service is the process's first: later set-ups would
    // inherit allocator arenas from the dropped ones, and which state they
    // land in moves the dense path's timing and memory from run to run.
    let (service, first) = timed_set_up(&traffic, 0)?;
    let before = counters(&service);
    let measured = drive(&service, &mut traffic, options.window(), options.trace)?;
    let after = counters(&service);
    let peak_rss_mb = stats::peak_rss_mb()?;
    let config = traffic.config(&state.path);

    let mut report = Report {
        correct: measured.wrong == 0,
        attempted: measured.attempted,
        failed: measured.failed,
        ..Report::default()
    };
    report.notes.push(format!(
        "workload={} seed={} nproc={} job_workers={} exec_threads={} shot_shard_size={} requests={} traced={}",
        options.workload.name(),
        options.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        config.workers,
        config.exec.threads,
        config.exec.shot_shard_size,
        measured.attempted,
        options.trace,
    ));
    let programs = measured.programs.len() as f64;
    let program_mean = |field: fn(&Program) -> usize| {
        stats::mean(
            measured.programs.values().map(|p| field(p) as f64).sum(),
            programs,
        )
    };
    if !options.trace {
        drop(service);
        let mut setups = vec![first];
        for round in 1..options.setup_rounds() {
            setups.push(timed_set_up(&traffic, round)?.1);
        }
        let ok = measured.attempted - measured.failed - measured.wrong;
        report.set("setup_s", stats::median(&setups));
        report.set("throughput_per_s", stats::chunked_rate(&measured.units));
        report.set(
            "latency_p50_ms",
            stats::chunked_percentile(&measured.latencies_ms, 0.5),
        );
        report.set(
            "latency_p90_ms",
            stats::chunked_percentile(&measured.latencies_ms, 0.9),
        );
        report.set("correct_ratio", ok as f64 / measured.attempted as f64);
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("gate_count", program_mean(|p| p.gates));
        report.set("qubits", program_mean(|p| p.qubits));
        return Ok(report);
    }

    // Traced run: service-side figures from the measured loop, then the
    // replay of the same jobs through each layer's public calls.
    drop(service);
    let executions = after.executions - before.executions;
    let exec_ms = stats::mean(after.exec_s - before.exec_s, executions) * 1e3;
    let mean_latency = stats::mean(
        measured.latencies_ms.iter().sum(),
        measured.latencies_ms.len() as f64,
    );
    report.set("service.exec_ms", exec_ms);
    report.set("service.queue_wait_ms", mean_latency - exec_ms);
    report.set(
        "service.submit_us",
        stats::mean(measured.submit_s, measured.attempted as f64) * 1e6,
    );
    report.set("service.retried", after.retried - before.retried);
    report.set("service.dead", after.dead - before.dead);
    let (b, a) = (before.cache, after.cache);
    let (hits, disk, misses) = (
        a.hits - b.hits,
        a.disk_hits - b.disk_hits,
        a.misses - b.misses,
    );
    let lookups = (hits + disk + misses) as f64;
    report.set("cache.mem_hit_ratio", stats::mean(hits as f64, lookups));
    report.set("cache.disk_hit_ratio", stats::mean(disk as f64, lookups));
    report.set(
        "cache.compiles_per_distinct_spec",
        stats::mean(misses as f64, measured.fresh.len() as f64),
    );
    report.set("quality.t_count", program_mean(|p| p.t));
    report.set("quality.cnot_count", program_mean(|p| p.cnot));

    let mut replay = Replay::new(&traffic, &state.subdir("replay")?)?;
    let mut replayed = 0.0;
    let mut layers_us = 0.0;
    let mut exec_us = 0.0;
    let mut latency_ms = 0.0;
    let mut mismatches = 0;
    for ((request, expected), latency) in measured.requests.iter().zip(&measured.latencies_ms) {
        // A job the service failed has no histogram to reproduce.
        let Some(expected) = expected else { continue };
        let (result, spans) = replay.job(request)?;
        if fingerprint(&result) != *expected {
            mismatches += 1;
        }
        replayed += 1.0;
        layers_us += spans.layers_us;
        exec_us += spans.total_us - spans.excluded_us;
        latency_ms += latency;
    }
    if mismatches > 0 {
        report.correct = false;
        report.notes.push(format!(
            "{mismatches} replayed jobs did not reproduce the service's histogram"
        ));
    }
    let layer_ms = stats::mean(layers_us, replayed) / 1e3;
    report.set("service.unattributed_ms", exec_ms - layer_ms);
    report.set(
        "unattributed_frac",
        stats::mean((exec_ms - layer_ms) * replayed, latency_ms),
    );
    report.set(
        "trace.overhead_frac",
        stats::mean(exec_us / 1e3, exec_ms * replayed) - 1.0,
    );
    replay.fill(&mut report);
    Ok(report)
}

/// The worker's order of public calls, one job at a time, over a cache and
/// a journal set up exactly like the measured service's.
struct Replay {
    cache: OracleCache,
    journal: Option<Journal>,
    config: ExecConfig,
    tracer: Tracer,
    dispatch: [f64; 3],
    records: f64,
    amp_updates: f64,
    support: f64,
}

impl Replay {
    fn new(traffic: &Traffic, dir: &Path) -> Result<Self, String> {
        let config = traffic.config(dir);
        let cache = match &config.disk_cache_dir {
            Some(cache_dir) => {
                let open =
                    || DiskCache::open(cache_dir).map_err(engine_error("open the disk cache"));
                let earlier = OracleCache::with_disk(open()?);
                for spec in traffic.disk_specs() {
                    earlier
                        .get_or_compile(spec)
                        .map_err(engine_error("prepare a disk entry"))?;
                }
                OracleCache::with_disk(open()?)
            }
            None => OracleCache::new(),
        };
        let journal = match &config.journal_path {
            Some(path) => Some(
                Journal::open(path)
                    .map_err(engine_error("open the journal"))?
                    .0,
            ),
            None => None,
        };
        let mut replay = Self {
            cache,
            journal,
            config: config.exec,
            tracer: Tracer::new(),
            dispatch: [0.0; 3],
            records: 0.0,
            amp_updates: 0.0,
            support: 0.0,
        };
        for request in traffic.warm_up() {
            replay.job(&request)?;
        }
        replay.tracer.reset();
        replay.dispatch = [0.0; 3];
        replay.records = 0.0;
        replay.amp_updates = 0.0;
        replay.support = 0.0;
        Ok(replay)
    }

    /// Replays one job: cache → census and dispatch → backend → sampling →
    /// result assembly → journal, dropping each intermediate where the
    /// worker drops it so the allocator sees the same pattern.
    fn job(&mut self, request: &Request) -> Result<(ExecutionResult, RequestSpans), String> {
        let job = &request.job;
        let config = self.config;
        let tracer = &self.tracer;
        let key = job.spec.cache_key();
        let on_disk = self
            .cache
            .disk()
            .is_some_and(|disk| disk.entry_path(key).exists());
        // The span is named by the outcome the cache's state predicts; the
        // `CacheStats` delta (memory hits, disk hits, misses) must confirm it.
        let (outcome, delta) = if self.cache.peek(key).is_some() {
            ("cache.mem_hit_us", (1, 0, 0))
        } else if on_disk {
            ("cache.disk_hit_us", (0, 1, 0))
        } else {
            // A miss compiles inside the lookup; time its compile and parse
            // on their own, outside the request.
            tracer
                .time(0, "engine::cache", "cache.compile_ms", || {
                    job.spec.compile()
                })
                .map_err(engine_error("compile"))?;
            if let OracleSpec::Qasm { source } = &job.spec {
                tracer
                    .time(0, "quantum::qasm", "qasm.parse_us", || {
                        qasm::from_qasm(source)
                    })
                    .map_err(|e| format!("parse: {e}"))?;
            }
            ("cache.miss_ms", (0, 0, 1))
        };

        let before = self.cache.stats();
        let started = Instant::now();
        let root = tracer.begin();
        let program = tracer
            .time(root, "engine::cache", outcome, || {
                self.cache.get_or_compile(&job.spec)
            })
            .map_err(engine_error("replayed lookup"))?;
        let after = self.cache.stats();
        let seen = (
            after.hits - before.hits,
            after.disk_hits - before.disk_hits,
            after.misses - before.misses,
        );
        if seen != delta {
            return Err(format!("replayed lookup was not a {outcome}: {seen:?}"));
        }
        let circuit = program.circuit();
        // Explicit backends skip the census, as the worker does.
        let backend = match job.backend {
            BackendChoice::Auto => {
                tracer.time(root, "engine::engine", "dispatch.census_us", || {
                    resolve_backend(&GateCensus::of(circuit))
                })
            }
            concrete => concrete,
        };
        let shots = job.shots;
        let result = match backend {
            BackendChoice::Dense => {
                self.dispatch[0] += 1.0;
                let plan = tracer.time(root, "quantum::plan", "plan.compile_us", || {
                    ExecPlan::compile(circuit, &config)
                });
                let mut state = tracer.time(root, "quantum::plan", "state.alloc_ms", || {
                    SoaStatevector::zero_state(circuit.num_qubits(), plan.block_bits())
                });
                tracer.time(root, "quantum::plan", "kernel.sweep_ms", || {
                    plan.apply_soa(&mut state, &config)
                });
                let amplitudes = tracer.time(root, "quantum::plan", "state.materialize_ms", || {
                    state.to_amplitudes()
                });
                self.records += plan.num_records() as f64;
                self.amp_updates += plan.num_records() as f64 * amplitudes.len() as f64;
                // `Statevector::run` frees the plan and the SoA state before
                // sampling starts.
                drop(state);
                drop(plan);
                let cdf = tracer.time(root, "quantum::sampling", "sampling.cdf_ms", || {
                    CumulativeDistribution::from_amplitudes(&amplitudes)
                });
                let histogram = tracer.time(root, "quantum::sampling", "sampling.draw_ms", || {
                    cdf.sample_sharded(job.seed, shots, config.threads, config.shot_shard_size)
                });
                drop(cdf);
                let result = tracer.time(root, "quantum::backend", "result.assemble_ms", || {
                    ExecutionResult::from_histogram(circuit, shots, &histogram)
                });
                drop(histogram);
                drop(amplitudes);
                result
            }
            BackendChoice::Sparse => {
                self.dispatch[1] += 1.0;
                let state = tracer
                    .time(root, "sparse", "sparse.simulate_ms", || {
                        SparseStatevector::from_circuit(circuit)
                    })
                    .map_err(|e| format!("sparse simulation: {e}"))?;
                self.support += state.num_nonzero() as f64;
                let counts = tracer.time(root, "sparse", "sparse.sample_us", || {
                    qdaflow::sparse::widen_counts(
                        state.sample_counts_sharded(job.seed, shots, &config),
                    )
                });
                let result = tracer.time(root, "quantum::backend", "result.assemble_ms", || {
                    ExecutionResult::from_counts(circuit, shots, counts)
                });
                drop(state);
                result
            }
            BackendChoice::Stabilizer => {
                self.dispatch[2] += 1.0;
                let tableau = tracer
                    .time(root, "stabilizer", "stabilizer.tableau_us", || {
                        StabilizerTableau::from_circuit(circuit)
                    })
                    .map_err(|e| format!("stabilizer simulation: {e}"))?;
                let sampler = tracer
                    .time(root, "stabilizer", "stabilizer.sampler_us", || {
                        tableau.sampler()
                    })
                    .map_err(|e| format!("stabilizer support: {e}"))?;
                drop(tableau);
                let counts = tracer.time(root, "stabilizer", "stabilizer.sample_us", || {
                    sampler.sample_counts_sharded(job.seed, shots, &config)
                });
                tracer.time(root, "quantum::backend", "result.assemble_ms", || {
                    ExecutionResult::from_counts(circuit, shots, counts)
                })
            }
            BackendChoice::Auto => return Err("dispatch resolved to auto".to_owned()),
        };
        if let Some(journal) = self.journal.as_mut() {
            // The worker journals the submitted (unresolved) job's digest
            // with the execution's wall time.
            let wall = started.elapsed();
            tracer
                .time(root, "engine::store::journal", JOURNAL, || {
                    journal.append(job.digest(), &result, wall)
                })
                .map_err(engine_error("journal append"))?;
        }
        let spans = self.tracer.finish(root, JOURNAL)?;
        Ok((result, spans))
    }

    /// Writes the replay's per-layer metrics.
    fn fill(&self, report: &mut Report) {
        for name in [
            "journal.append_us",
            "cache.mem_hit_us",
            "cache.disk_hit_us",
            "cache.miss_ms",
            "cache.compile_ms",
            "dispatch.census_us",
            "qasm.parse_us",
            "plan.compile_us",
            "state.alloc_ms",
            "kernel.sweep_ms",
            "state.materialize_ms",
            "sampling.cdf_ms",
            "sampling.draw_ms",
            "result.assemble_ms",
            "sparse.simulate_ms",
            "sparse.sample_us",
            "stabilizer.tableau_us",
            "stabilizer.sampler_us",
            "stabilizer.sample_us",
        ] {
            report.set(name, per_call(&self.tracer, name));
        }
        let [dense, sparse, stabilizer] = self.dispatch;
        report.set("dispatch.dense", dense);
        report.set("dispatch.sparse", sparse);
        report.set("dispatch.stabilizer", stabilizer);
        report.set("plan.records", stats::mean(self.records, dense));
        report.set("sparse.support", stats::mean(self.support, sparse));
        report.set(
            "kernel.ns_per_amp_update",
            stats::mean(
                self.tracer.layer("kernel.sweep_ms").self_us * 1e3,
                self.amp_updates,
            ),
        );
    }
}

/// Mean self time per call of span `name`, in the unit its suffix names.
pub fn per_call(tracer: &Tracer, name: &str) -> f64 {
    let mean_us = tracer.layer(name).mean_us();
    if name.ends_with("_ms") {
        mean_us / 1e3
    } else {
        mean_us
    }
}
