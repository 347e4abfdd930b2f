//! The shell commands.
//!
//! Each command mirrors one RevKit command used (or implied) by the paper's
//! pipeline `revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c`. The first
//! seven are [`PassCommand`]s: each runs the pipeline pass of its name as a
//! one-pass [`Pipeline`] over the store and logs `[<name>] ` followed by the
//! [`passes::statistics`] of the pass output.
//!
//! | command   | effect                                                        |
//! |-----------|---------------------------------------------------------------|
//! | `revgen`  | generate a specification (`--hwb`, `--random`, `--perm`, `--expr`) |
//! | `tbs`     | transformation-based synthesis of the current permutation     |
//! | `dbs`     | decomposition-based synthesis of the current permutation      |
//! | `esopbs`  | ESOP-based synthesis of the current single-output function    |
//! | `revsimp` | simplify the current reversible circuit                        |
//! | `rptm`    | map the reversible circuit to Clifford+T                       |
//! | `tpar`    | T-count optimization of the quantum circuit                    |
//! | `ps`      | print statistics of every store entry (`-c` is accepted)      |
//! | `simulate`| check the quantum circuit against the reversible circuit       |
//! | `exec`    | configure the execution layer (threads, fusion, block size)    |
//! | `qasm`    | print the quantum circuit as OpenQASM, or `qasm load <file>`   |
//! | `draw`    | print an ASCII rendering of the quantum circuit                |
//! | `flow`    | run a whole pass pipeline (`flow "revgen --hwb 4; tbs; …"`)    |
//! | `batch`   | run oracle jobs through the fault-tolerant batch job service (`--resume`, `--stats`, `--trace`) |
//! | `backend` | select the simulation backend for batch jobs (`dense`/`sparse`/`stabilizer`/`auto`) |
//! | `trace`   | control the telemetry recorder (`trace on|off|dump <file>|stats`) |
//!
//! The pipeline passes `po` and `qasmin` have no command of their own; they
//! run through `flow`.

use crate::{RevkitError, Store};
use qdaflow_engine::{
    resolve_backend, BackendChoice, BatchJob, JobStatus, OracleSpec, SynthesisChoice,
};
use qdaflow_mapping::verify;
use qdaflow_pipeline::script::tokenize;
use qdaflow_pipeline::{passes, FlowError, Ir, Pass, Pipeline, PipelineReport, StageSet};
use qdaflow_quantum::{drawer, qasm};
use qdaflow_telemetry as telemetry;

/// A shell command.
pub trait Command {
    /// The command name as typed in a script.
    fn name(&self) -> &'static str;

    /// One-line description shown by `help`.
    fn description(&self) -> &'static str;

    /// Executes the command with the given (already tokenized) arguments.
    ///
    /// # Errors
    ///
    /// Returns a [`RevkitError`] describing invalid arguments, missing store
    /// entries, or failures of the underlying algorithms.
    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError>;
}

/// The built-in pass commands, in `help` order.
const PASS_COMMANDS: [PassCommand; 7] = [
    PassCommand {
        name: "revgen",
        description: "generate a reversible or Boolean specification (--hwb N | --random N --seed S | --perm \"0 2 1 3\" | --expr \"(a & b) ^ c\")",
    },
    PassCommand {
        name: "tbs",
        description: "transformation-based reversible synthesis of the current permutation",
    },
    PassCommand {
        name: "dbs",
        description:
            "decomposition-based (Young subgroup) reversible synthesis of the current permutation",
    },
    PassCommand {
        name: "esopbs",
        description: "ESOP-based synthesis (Bennett embedding) of the current Boolean function",
    },
    PassCommand {
        name: "revsimp",
        description: "simplify the current reversible circuit (cancellation and control merging)",
    },
    PassCommand {
        name: "rptm",
        description: "map the current reversible circuit to a Clifford+T quantum circuit",
    },
    PassCommand {
        name: "tpar",
        description: "optimize the T-count of the current quantum circuit by phase folding",
    },
];

/// Returns the full set of built-in commands.
pub fn builtin_commands() -> Vec<Box<dyn Command>> {
    let others: [Box<dyn Command>; 9] = [
        Box::new(Ps),
        Box::new(Simulate),
        Box::new(Exec),
        Box::new(Qasm),
        Box::new(Draw),
        Box::new(Flow),
        Box::new(Batch),
        Box::new(BackendCmd),
        Box::new(Trace),
    ];
    PASS_COMMANDS
        .map(|command| Box::new(command) as Box<dyn Command>)
        .into_iter()
        .chain(others)
        .collect()
}

fn parse_usize(command: &'static str, text: &str) -> Result<usize, RevkitError> {
    text.parse().map_err(|_| RevkitError::InvalidArguments {
        command,
        message: format!("expected a number, found '{text}'"),
    })
}

fn find_flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|index| args.get(index + 1))
        .map(String::as_str)
}

/// Blames a pass's argument error on the shell command of the same name.
fn pass_error(command: &'static str, error: FlowError) -> RevkitError {
    match error {
        FlowError::InvalidPassArguments { message, .. } => {
            RevkitError::InvalidArguments { command, message }
        }
        other => other.into(),
    }
}

/// Runs `pipeline` over the store; `flow` and every [`PassCommand`] run
/// their passes through it. A generated pipeline runs on its own; any other
/// runs on a copy of the store entry its first pass accepts. Every artifact
/// of the run is then moved into the store, so the returned report's
/// artifacts are empty.
///
/// # Errors
///
/// Returns [`RevkitError::MissingStoreEntry`], blamed on `command`, when the
/// store holds nothing the pipeline accepts, and propagates pass failures.
fn run_on_store(
    command: &'static str,
    pipeline: &Pipeline,
    store: &mut Store,
) -> Result<PipelineReport, RevkitError> {
    let mut report = if pipeline.is_generated() {
        pipeline.run_generated()?
    } else {
        let expected = pipeline.input_stages();
        let input = store
            .input(expected)
            .ok_or(RevkitError::MissingStoreEntry { command, expected })?;
        pipeline.run(input)?
    };
    for artifact in std::mem::take(&mut report.artifacts) {
        store.put(artifact);
    }
    Ok(report)
}

/// A shell command that runs the pipeline pass of the same name: `revgen`,
/// `tbs`, `dbs`, `esopbs`, `revsimp`, `rptm` and `tpar`.
///
/// The pass is built with [`passes::pass_from_tokens`], so the command takes
/// exactly the arguments `flow` takes for that pass, and runs as a one-pass
/// [`Pipeline`] through the same store helper as `flow`: a generator runs on
/// its own, any other pass on the store entry it accepts, and every artifact
/// is written back. It records the pipeline's `pass` span and
/// `qdaflow_pass_duration_seconds` sample, and logs one line, `[<name>] `
/// followed by the [`passes::statistics`] of the pass output, e.g.
/// `[tpar] quantum circuit: 5 qubits, 183 gates, depth 126, T-count 69,
/// T-depth 46, CNOTs 81`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassCommand {
    /// The command name, which is also the name of the pass it runs.
    name: &'static str,
    /// One-line description shown by `help`.
    description: &'static str,
}

impl Command for PassCommand {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        let pass =
            passes::pass_from_tokens(self.name, args).map_err(|e| pass_error(self.name, e))?;
        // Without arguments `revgen` passes a pipeline's input through; the
        // shell has no input to pass, so it must generate a specification.
        if self.name == "revgen" && !pass.is_generator() {
            return Err(RevkitError::InvalidArguments {
                command: self.name,
                message: "expected one of --hwb, --random, --perm, --expr".to_owned(),
            });
        }
        let pipeline = Pipeline::builder().then_boxed(pass).build()?;
        let report = run_on_store(self.name, &pipeline, store)?;
        store.log(format!(
            "[{}] {}",
            self.name,
            passes::statistics(&report.output)
        ));
        Ok(())
    }
}

/// `ps` — print the statistics of every store entry.
///
/// Each line is `[ps] ` followed by the [`passes::statistics`] of one entry:
/// the reversible circuit, the quantum circuit, the permutation and the
/// Boolean function, in that order. The command takes the arguments of the
/// `ps` pass (none, or `-c` as in the paper's scripts).
pub struct Ps;

impl Command for Ps {
    fn name(&self) -> &'static str {
        "ps"
    }

    fn description(&self) -> &'static str {
        "print statistics of the current circuits (-c selects circuit stores)"
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        passes::pass_from_tokens(self.name(), args).map_err(|e| pass_error(self.name(), e))?;
        let lines: Vec<String> = [
            StageSet::REVERSIBLE,
            StageSet::QUANTUM,
            StageSet::PERMUTATION,
            StageSet::FUNCTION,
        ]
        .into_iter()
        .filter_map(|stage| store.input(stage))
        .map(|entry| format!("[ps] {}", passes::statistics(&entry)))
        .collect();
        if lines.is_empty() {
            store.log("[ps] store is empty");
        }
        for line in lines {
            store.log(line);
        }
        Ok(())
    }
}

/// `simulate` — check the quantum circuit against the reversible circuit.
pub struct Simulate;

impl Command for Simulate {
    fn name(&self) -> &'static str {
        "simulate"
    }

    fn description(&self) -> &'static str {
        "verify that the quantum circuit implements the reversible circuit on the computational basis"
    }

    fn execute(&self, _args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        let reversible = store.reversible().ok_or(RevkitError::MissingStoreEntry {
            command: self.name(),
            expected: StageSet::REVERSIBLE,
        })?;
        let quantum = store.quantum().ok_or(RevkitError::MissingStoreEntry {
            command: self.name(),
            expected: StageSet::QUANTUM,
        })?;
        let matches =
            verify::quantum_matches_reversible_with(quantum, reversible, &store.exec_config())?;
        store.log(format!(
            "[simulate] quantum circuit {} the reversible specification",
            if matches { "matches" } else { "DOES NOT match" }
        ));
        Ok(())
    }
}

/// `flow` — run a whole pass pipeline through the typed pass manager.
///
/// The argument is a pipeline script in the paper's notation, typically
/// quoted so that the shell does not split it at its semicolons:
/// `flow "revgen --hwb 4; tbs; revsimp; rptm; tpar; ps"` — equation (5) as
/// literal user input. The pipeline is validated *before* it runs (an
/// invalid pass order like `tpar` before `rptm` is rejected up front), and
/// runs over the store like a [`PassCommand`]: a pipeline that does not
/// start with a generator runs on the store entry its first pass accepts,
/// and every produced artifact is written back into the store.
pub struct Flow;

impl Command for Flow {
    fn name(&self) -> &'static str {
        "flow"
    }

    fn description(&self) -> &'static str {
        "run a pass pipeline, e.g. flow \"revgen --hwb 4; tbs; revsimp; rptm; tpar; ps\"; flow --json also logs one machine-readable per-pass timing line"
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        let json = args.iter().any(|a| a == "--json");
        let script_args: Vec<&str> = args
            .iter()
            .map(String::as_str)
            .filter(|a| *a != "--json")
            .collect();
        if script_args.is_empty() {
            return Err(RevkitError::InvalidArguments {
                command: self.name(),
                message: "expected a pipeline script, e.g. flow \"revgen --hwb 4; tbs; rptm\""
                    .to_owned(),
            });
        }
        let script = script_args.join(" ");
        let pipeline = Pipeline::parse(&script)?;
        let report = run_on_store(self.name(), &pipeline, store)?;
        for record in &report.passes {
            store.log(format!("[flow] {}", record.summary()));
            if let Some(census) = &record.census {
                store.log(format!("[flow]   census: {census}"));
            }
            if let Some(note) = &record.note {
                store.log(format!("[flow]   {note}"));
            }
        }
        store.log(format!(
            "[flow] {} passes in {:.1?}",
            report.passes.len(),
            report.total_duration()
        ));
        if json {
            // One machine-readable line with a pinned schema (see the
            // `flow_json_line_schema_is_stable` integration test): top-level
            // keys `passes` (array of {pass, stage, duration_us}) and
            // `total_us`.
            let passes: Vec<String> = report
                .passes
                .iter()
                .map(|record| {
                    format!(
                        "{{\"pass\":\"{}\",\"stage\":\"{}\",\"duration_us\":{}}}",
                        telemetry::export::json_escape(&record.pass),
                        telemetry::export::json_escape(&record.stage.to_string()),
                        record.duration.as_micros()
                    )
                })
                .collect();
            store.log(format!(
                "[flow-json] {{\"passes\":[{}],\"total_us\":{}}}",
                passes.join(","),
                report.total_duration().as_micros()
            ));
        }
        Ok(())
    }
}

/// `batch` — run many oracle jobs through the fault-tolerant batch job
/// service (a thin client over [`qdaflow_engine::JobService`]).
///
/// Each `--spec "<spec>"` names one job; the spec grammar is
/// `hwb N` | `random N [SEED]` | `perm 0 2 3 5 7 1 4 6` | `expr (a & b) ^ c`
/// | `qasm:<file>` (an OpenQASM 2.0 file imported through `qasmin`). All but
/// `qasm:` are built by the `revgen` pass, so they take its size bounds.
/// All jobs share `--shots` (default 1024), `--synth tbs|dbs` (permutation
/// synthesis, default tbs) and a base `--seed` (default 1; job `i` samples
/// under `seed + i`). Jobs with identical specs are single-flighted through
/// the shell's persistent compiled-oracle cache, distinct oracles compile
/// and simulate in parallel, and sampling is shot-sharded — reproducible at
/// any thread count (see the `exec` command for the thread knob).
///
/// A job that fails — even by panicking inside compilation — fails *alone*:
/// its typed error is logged and every sibling still reports its result.
///
/// `batch --resume <journal>` attaches the service to a checkpoint journal
/// (for this and all later `batch` commands of the session): completed jobs
/// are recorded as they finish, and resubmitting a recorded job answers
/// instantly from the checkpoint — a killed batch rerun this way recompiles
/// and resimulates nothing it already finished. `batch --stats` logs the
/// service metrics (including the cache's, each family once) followed by
/// the unified process-wide registry (pass durations, dispatch decisions,
/// kernel sweeps, compile times), all in Prometheus text exposition
/// format.
///
/// `batch --trace <file>` records telemetry spans for the duration of the
/// batch and writes them to `<file>` as Chrome trace-event JSON when the
/// batch finishes. If the recorder was off, it is cleared first (so the file
/// holds exactly this batch) and switched off again afterwards; if it was
/// already on (`trace on`), the recording simply continues.
pub struct Batch;

impl Batch {
    fn invalid(message: String) -> RevkitError {
        RevkitError::InvalidArguments {
            command: "batch",
            message,
        }
    }

    /// Writes the recorder contents as a Chrome trace to `path`, restoring
    /// the recorder to off when this batch turned it on.
    fn dump_trace(
        path: &std::path::Path,
        restore_off: bool,
        store: &mut Store,
    ) -> Result<(), RevkitError> {
        if restore_off {
            telemetry::disable();
        }
        let (records, dropped) = telemetry::snapshot();
        let json = telemetry::export::chrome_trace(&records, dropped);
        std::fs::write(path, json)
            .map_err(|e| Self::invalid(format!("cannot write '{}': {e}", path.display())))?;
        store.log(format!(
            "[batch] trace: {} records ({} dropped) -> {}",
            records.len(),
            dropped,
            path.display()
        ));
        Ok(())
    }

    /// Parses one `--spec` value into an [`OracleSpec`].
    ///
    /// Every kind but `qasm:` is a `revgen` specification, built by the
    /// `revgen` pass: `hwb N` is `--hwb N`, `random N [S]` is
    /// `--random N [--seed S]`, and `perm …` and `expr …` pass the rest of
    /// the value as one `--perm` or `--expr` argument.
    fn parse_spec(text: &str, synthesis: SynthesisChoice) -> Result<OracleSpec, RevkitError> {
        // `qasm:<file>` takes the rest of the value verbatim as a path, so
        // it is peeled off before tokenization.
        if let Some(path) = text.strip_prefix("qasm:") {
            let path = path.trim();
            if path.is_empty() {
                return Err(Self::invalid(
                    "'qasm:' expects a file path, e.g. --spec \"qasm:oracle.qasm\"".to_owned(),
                ));
            }
            let source = std::fs::read_to_string(path)
                .map_err(|e| Self::invalid(format!("cannot read '{path}': {e}")))?;
            return Ok(OracleSpec::qasm(source));
        }
        let tokens = tokenize(text)?;
        let Some((kind, rest)) = tokens.split_first() else {
            return Err(Self::invalid("empty --spec value".to_owned()));
        };
        const GRAMMAR: &str = "hwb N | random N [SEED] | perm … | expr … | qasm:<file>";
        let flags: Vec<String> = match (kind.as_str(), rest) {
            ("hwb", [n]) => vec!["--hwb".to_owned(), n.clone()],
            ("random", [n]) => vec!["--random".to_owned(), n.clone()],
            ("random", [n, seed]) => {
                vec![
                    "--random".to_owned(),
                    n.clone(),
                    "--seed".to_owned(),
                    seed.clone(),
                ]
            }
            ("perm" | "expr", _) => vec![format!("--{kind}"), rest.join(" ")],
            _ => return Err(Self::invalid(format!("expected {GRAMMAR}, found '{text}'"))),
        };
        let invalid = |error: FlowError| match error {
            FlowError::InvalidPassArguments { message, .. } => Self::invalid(message),
            other => Self::invalid(other.to_string()),
        };
        let revgen = passes::Revgen::from_args(&flags).map_err(invalid)?;
        match revgen.generate().transpose().map_err(invalid)? {
            Some(Ir::Permutation(permutation)) => {
                Ok(OracleSpec::permutation(permutation, synthesis))
            }
            Some(Ir::Function(function)) => Ok(OracleSpec::phase_function(function)),
            _ => Err(Self::invalid(format!(
                "'{text}' does not describe a specification"
            ))),
        }
    }
}

impl Command for Batch {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn description(&self) -> &'static str {
        "run oracle jobs through the batch job service: batch [--shots N] [--seed S] [--synth tbs|dbs] [--resume JOURNAL] [--stats] [--trace FILE] --spec \"hwb 4\" [--spec \"qasm:oracle.qasm\" ...]"
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        let show_stats = args.iter().any(|a| a == "--stats");
        let trace_path = find_flag_value(args, "--trace").map(std::path::PathBuf::from);
        let trace_was_on = telemetry::enabled();
        if trace_path.is_some() && !trace_was_on {
            telemetry::clear();
            telemetry::enable();
        }
        let resume = find_flag_value(args, "--resume").map(std::path::PathBuf::from);
        if let Some(path) = &resume {
            store.set_journal_path(Some(path.clone()));
            store.log(format!("[batch] journal attached: {}", path.display()));
        }
        let shots = find_flag_value(args, "--shots")
            .map(|s| parse_usize(self.name(), s))
            .transpose()?
            .unwrap_or(1024);
        let base_seed = find_flag_value(args, "--seed")
            .map(|s| parse_usize(self.name(), s))
            .transpose()?
            .unwrap_or(1) as u64;
        let synthesis = match find_flag_value(args, "--synth") {
            None | Some("tbs") => SynthesisChoice::TransformationBased,
            Some("dbs") => SynthesisChoice::DecompositionBased,
            Some(other) => {
                return Err(Self::invalid(format!(
                    "expected '--synth tbs' or '--synth dbs', found '{other}'"
                )))
            }
        };
        let specs: Vec<&str> = args
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == "--spec")
            .map(|(index, _)| {
                args.get(index + 1)
                    .map(String::as_str)
                    .ok_or_else(|| Self::invalid("'--spec' expects a value".to_owned()))
            })
            .collect::<Result<_, _>>()?;
        if specs.is_empty() {
            // `--stats` / `--resume` / `--trace` are valid on their own:
            // report/attach/dump without running anything.
            if show_stats || resume.is_some() || trace_path.is_some() {
                if show_stats {
                    let service = store.job_service()?;
                    for line in service.metrics_text().lines() {
                        store.log(line);
                    }
                    for line in telemetry::global_metrics().render().lines() {
                        store.log(line);
                    }
                }
                if let Some(path) = &trace_path {
                    Self::dump_trace(path, !trace_was_on, store)?;
                }
                return Ok(());
            }
            return Err(Self::invalid(
                "expected at least one --spec \"<spec>\"".to_owned(),
            ));
        }
        let jobs: Vec<BatchJob> = specs
            .iter()
            .enumerate()
            .map(|(index, text)| {
                Ok(BatchJob::new(
                    Self::parse_spec(text, synthesis)?,
                    shots,
                    base_seed.wrapping_add(index as u64),
                )
                .with_backend(store.backend_choice()))
            })
            .collect::<Result<_, RevkitError>>()?;
        let service = store.job_service()?;
        let before = service.engine().cache().stats();
        let ids = service.submit_batch(&jobs)?;
        let statuses: Vec<Option<JobStatus>> = ids.iter().map(|id| service.wait(*id)).collect();
        // Once the batch is done, name the engine each `backend auto` job
        // ran on: the route of the census its cached program carries. A job
        // without a cached program (dead before compiling, or replayed from
        // the journal) stays unnamed.
        let cache = service.engine().cache();
        let resolved: Vec<Option<BackendChoice>> = jobs
            .iter()
            .map(|job| match job.backend {
                BackendChoice::Auto => cache
                    .peek(job.spec.cache_key())
                    .map(|program| resolve_backend(program.census())),
                _ => None,
            })
            .collect();
        let mut dead = 0usize;
        for (index, ((status, text), backend)) in
            statuses.into_iter().zip(&specs).zip(&resolved).enumerate()
        {
            let backend = backend.map_or(String::new(), |b| format!(", auto -> {b}"));
            match status {
                Some(JobStatus::Done(result)) => {
                    let outcome = result
                        .most_likely()
                        .map_or("no shots".to_owned(), |(outcome, p)| {
                            format!("most likely {outcome} (p={p:.2})")
                        });
                    store.log(format!(
                        "[batch] job {index}: {text} -> {} qubits, T-count {}, {} shots, {outcome}{backend}",
                        result.num_qubits, result.resources.t_count, result.shots
                    ));
                }
                Some(JobStatus::Dead { attempts, error }) => {
                    dead += 1;
                    store.log(format!(
                        "[batch] job {index}: {text} -> dead-lettered after {attempts} attempt(s): {error}"
                    ));
                }
                other => {
                    // `wait` only returns terminal states for known ids; this
                    // arm is unreachable in practice but must not panic.
                    dead += 1;
                    store.log(format!("[batch] job {index}: {text} -> lost ({other:?})"));
                }
            }
        }
        let after = cache.stats();
        let compiled = after.misses - before.misses;
        let hits = after.hits - before.hits;
        // Distinct work items are counted by spec key: jobs over one spec
        // share one compiled program, whatever backend runs it.
        let distinct = jobs
            .iter()
            .map(|job| job.spec.cache_key())
            .collect::<std::collections::HashSet<_>>()
            .len();
        let dead_note = if dead > 0 {
            format!(", {dead} dead-lettered")
        } else {
            String::new()
        };
        store.log(format!(
            "[batch] {} jobs ({distinct} distinct), {compiled} compiled, {hits} cache hits ({} programs cached) on the {} backend{dead_note}",
            jobs.len(),
            after.entries,
            store.backend_choice()
        ));
        if show_stats {
            for line in service.metrics_text().lines() {
                store.log(line);
            }
            for line in telemetry::global_metrics().render().lines() {
                store.log(line);
            }
        }
        if let Some(path) = &trace_path {
            Self::dump_trace(path, !trace_was_on, store)?;
        }
        Ok(())
    }
}

/// `backend` — select the simulation backend used by the `batch` command's
/// jobs.
///
/// `backend sparse` routes subsequent batch jobs through the sparse
/// statevector engine (nonzero amplitudes only — the right choice for the
/// flow's permutation-dominated oracles and for registers beyond the dense
/// ceiling); `backend stabilizer` through the stabilizer tableau (Clifford
/// circuits only, at hundreds of qubits); `backend auto` censuses each
/// compiled job and routes it automatically (the recommended default for
/// mixed workloads — the batch log shows each job's resolved backend);
/// `backend dense` restores the default dense engine. Without an argument
/// the command reports the current choice. The choice does not change what
/// is compiled: runs of the same oracle on different engines share one
/// cached program. Unknown names are rejected with the engine's typed
/// [`EngineError::UnknownBackend`](qdaflow_engine::EngineError), whose
/// message lists the valid choices.
pub struct BackendCmd;

impl Command for BackendCmd {
    fn name(&self) -> &'static str {
        "backend"
    }

    fn description(&self) -> &'static str {
        "select the simulation backend for batch jobs (backend dense|sparse|stabilizer|auto); no argument prints the current choice"
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        match args {
            [] => {}
            [name] => {
                let choice = BackendChoice::parse(name)?;
                store.set_backend_choice(choice);
            }
            _ => {
                return Err(RevkitError::InvalidArguments {
                    command: self.name(),
                    message: "expected at most one argument (dense|sparse|stabilizer|auto)"
                        .to_owned(),
                })
            }
        }
        store.log(format!("[backend] {}", store.backend_choice()));
        Ok(())
    }
}

/// `trace` — control the workspace telemetry recorder.
///
/// `trace on` starts recording spans and events across every layer (pipeline
/// passes, backend dispatch, the compiled-oracle cache, kernel sweeps, job
/// lifecycle); `trace off` stops it. `trace dump <file>` writes everything
/// recorded so far as a Chrome trace-event JSON array — loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev). `trace stats`
/// logs the unified process-wide metrics registry (pass durations, dispatch
/// decisions, kernel sweep statistics, compile times) followed by the
/// shell cache's `qdaflow_oracle_cache_*` families (hits, misses, disk
/// activity, entries), in Prometheus text exposition format. Without an
/// argument the command reports the recorder status.
pub struct Trace;

impl Command for Trace {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn description(&self) -> &'static str {
        "control the telemetry recorder: trace on|off|dump <file>|stats; no argument prints the status"
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        match args {
            [] => {
                let recorder = telemetry::recorder();
                store.log(format!(
                    "[trace] {}, {} records buffered, {} dropped (capacity {})",
                    if telemetry::enabled() { "on" } else { "off" },
                    recorder.len(),
                    recorder.dropped(),
                    recorder.capacity()
                ));
            }
            [arg] if arg == "on" => {
                telemetry::enable();
                store.log("[trace] recording on");
            }
            [arg] if arg == "off" => {
                telemetry::disable();
                store.log("[trace] recording off");
            }
            [arg] if arg == "stats" => {
                let mut text = telemetry::global_metrics().render();
                store
                    .batch_engine()
                    .cache()
                    .metrics()
                    .render_into(&mut text);
                for line in text.lines() {
                    store.log(line);
                }
            }
            [arg, path] if arg == "dump" => {
                let (records, dropped) = telemetry::snapshot();
                let json = telemetry::export::chrome_trace(&records, dropped);
                std::fs::write(path, json).map_err(|e| RevkitError::InvalidArguments {
                    command: self.name(),
                    message: format!("cannot write '{path}': {e}"),
                })?;
                store.log(format!(
                    "[trace] dumped {} records ({} dropped) to {path}",
                    records.len(),
                    dropped
                ));
            }
            _ => {
                return Err(RevkitError::InvalidArguments {
                    command: self.name(),
                    message: "expected 'trace on|off|dump <file>|stats'".to_owned(),
                })
            }
        }
        Ok(())
    }
}

/// `exec` — configure the execution layer used by simulating commands.
pub struct Exec;

impl Command for Exec {
    fn name(&self) -> &'static str {
        "exec"
    }

    fn description(&self) -> &'static str {
        "configure circuit execution (--threads N | --fusion on|off | --block-bits N); no arguments prints the current settings"
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        let invalid = |message: String| RevkitError::InvalidArguments {
            command: self.name(),
            message,
        };
        let mut config = store.exec_config();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = rest
                .next()
                .ok_or_else(|| invalid(format!("{flag} expects a value")))?;
            match flag.as_str() {
                "--threads" => {
                    let threads = parse_usize(self.name(), value)?;
                    if threads == 0 {
                        return Err(invalid("--threads must be at least 1".to_owned()));
                    }
                    config = config.with_threads(threads);
                }
                "--fusion" => {
                    config = config.with_fusion(parse_on_off(self.name(), "--fusion", value)?);
                }
                "--block-bits" => {
                    config = config.with_block_bits(parse_usize(self.name(), value)?);
                }
                other => {
                    return Err(invalid(format!(
                    "unknown flag '{other}'; valid flags are --threads, --fusion and --block-bits"
                )))
                }
            }
        }
        store.set_exec_config(config);
        store.log(format!(
            "[exec] threads={} fusion={} block-bits={}",
            config.threads,
            if config.fusion { "on" } else { "off" },
            if config.block_bits == 0 {
                "auto".to_owned()
            } else {
                config.block_bits.to_string()
            }
        ));
        Ok(())
    }
}

/// Parses an `on`/`off` flag value into a bool, with a command-scoped error.
fn parse_on_off(command: &'static str, flag: &str, value: &str) -> Result<bool, RevkitError> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(RevkitError::InvalidArguments {
            command,
            message: format!("expected '{flag} on' or '{flag} off', found '{other}'"),
        }),
    }
}

/// `qasm` — print the quantum circuit as OpenQASM 2.0, or import one.
///
/// Without arguments the command prints the current quantum circuit through
/// the checked exporter. `qasm load <file>` reads an OpenQASM 2.0 file,
/// imports it through [`qasm::from_qasm`] and stores both the resulting
/// circuit and the raw source (so `flow "qasmin; …"` pipelines can seed
/// from it).
pub struct Qasm;

impl Command for Qasm {
    fn name(&self) -> &'static str {
        "qasm"
    }

    fn description(&self) -> &'static str {
        "print the current quantum circuit as OpenQASM 2.0, or import one with 'qasm load <file>'"
    }

    fn execute(&self, args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        match args {
            [] => {
                let quantum = store.quantum().ok_or(RevkitError::MissingStoreEntry {
                    command: self.name(),
                    expected: StageSet::QUANTUM,
                })?;
                // The checked exporter turns silent semantic loss (mcx/mcz
                // degraded to comments that a re-import drops) into a typed
                // error; circuits that reach this command through `rptm` are
                // already Clifford+T.
                for line in qasm::to_qasm_checked(quantum)?.lines() {
                    store.log(line.to_owned());
                }
                Ok(())
            }
            [load, path] if load == "load" => {
                let source =
                    std::fs::read_to_string(path).map_err(|e| RevkitError::InvalidArguments {
                        command: self.name(),
                        message: format!("cannot read '{path}': {e}"),
                    })?;
                let circuit = qasm::from_qasm(&source)?;
                store.log(format!(
                    "[qasm] loaded '{path}': {} qubits, {} gates",
                    circuit.num_qubits(),
                    circuit.num_gates()
                ));
                store.put(circuit.into());
                store.put(Ir::QasmSource(source));
                Ok(())
            }
            _ => Err(RevkitError::InvalidArguments {
                command: self.name(),
                message: "expected no arguments (print) or 'load <file>' (import)".to_owned(),
            }),
        }
    }
}

/// `draw` — print an ASCII rendering of the quantum circuit.
pub struct Draw;

impl Command for Draw {
    fn name(&self) -> &'static str {
        "draw"
    }

    fn description(&self) -> &'static str {
        "print an ASCII drawing of the current quantum circuit"
    }

    fn execute(&self, _args: &[String], store: &mut Store) -> Result<(), RevkitError> {
        let quantum = store.quantum().ok_or(RevkitError::MissingStoreEntry {
            command: self.name(),
            expected: StageSet::QUANTUM,
        })?;
        for line in drawer::draw(quantum).lines() {
            store.log(line.to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(command: &dyn Command, args: &[&str], store: &mut Store) -> Result<(), RevkitError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        command.execute(&args, store)
    }

    /// The built-in pass command named `name`.
    fn pass(name: &str) -> PassCommand {
        *PASS_COMMANDS
            .iter()
            .find(|command| command.name == name)
            .expect("a built-in pass command")
    }

    #[test]
    fn revgen_hwb_sets_a_permutation() {
        let mut store = Store::new();
        run(&pass("revgen"), &["--hwb", "3"], &mut store).unwrap();
        assert_eq!(store.permutation().unwrap().num_vars(), 3);
    }

    #[test]
    fn revgen_requires_a_mode() {
        let mut store = Store::new();
        assert!(matches!(
            run(&pass("revgen"), &[], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
        assert!(matches!(
            run(&pass("revgen"), &["--hwb", "abc"], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
        assert!(matches!(
            run(&pass("revgen"), &["--hwb", "0"], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
    }

    #[test]
    fn revgen_parses_explicit_permutations_and_expressions() {
        let mut store = Store::new();
        run(&pass("revgen"), &["--perm", "0 2 3 5 7 1 4 6"], &mut store).unwrap();
        assert_eq!(store.permutation().unwrap().num_vars(), 3);
        run(
            &pass("revgen"),
            &["--expr", "(a & b) ^ (c & d)"],
            &mut store,
        )
        .unwrap();
        assert_eq!(store.function().unwrap().num_vars(), 4);
        run(
            &pass("revgen"),
            &["--expr", "a ^ b", "--vars", "5"],
            &mut store,
        )
        .unwrap();
        assert_eq!(store.function().unwrap().num_vars(), 5);
    }

    #[test]
    fn synthesis_commands_require_a_specification() {
        let mut store = Store::new();
        assert!(matches!(
            run(&pass("tbs"), &[], &mut store),
            Err(RevkitError::MissingStoreEntry { .. })
        ));
        assert!(matches!(
            run(&pass("esopbs"), &[], &mut store),
            Err(RevkitError::MissingStoreEntry { .. })
        ));
    }

    #[test]
    fn tbs_and_dbs_fill_the_reversible_store() {
        for synthesizer in [pass("tbs"), pass("dbs")] {
            let mut store = Store::new();
            run(&pass("revgen"), &["--hwb", "4"], &mut store).unwrap();
            run(&synthesizer, &[], &mut store).unwrap();
            let circuit = store.reversible().unwrap();
            assert!(qdaflow_reversible::simulation::realizes_permutation(
                circuit,
                store.permutation().unwrap()
            ));
        }
    }

    #[test]
    fn esopbs_synthesizes_functions() {
        let mut store = Store::new();
        run(
            &pass("revgen"),
            &["--expr", "(a & b) ^ (c & d)"],
            &mut store,
        )
        .unwrap();
        run(&pass("esopbs"), &[], &mut store).unwrap();
        assert_eq!(store.reversible().unwrap().num_lines(), 5);
    }

    #[test]
    fn full_pipeline_commands_compose() {
        let mut store = Store::new();
        run(&pass("revgen"), &["--hwb", "4"], &mut store).unwrap();
        run(&pass("tbs"), &[], &mut store).unwrap();
        run(&pass("revsimp"), &[], &mut store).unwrap();
        run(&pass("rptm"), &[], &mut store).unwrap();
        run(&pass("tpar"), &[], &mut store).unwrap();
        run(&Ps, &["-c"], &mut store).unwrap();
        run(&Simulate, &[], &mut store).unwrap();
        run(&Qasm, &[], &mut store).unwrap();
        run(&Draw, &[], &mut store).unwrap();
        let log = store.log_lines().join("\n");
        assert!(log.contains("[tbs]"));
        assert!(log.contains("[tpar]"));
        assert!(log.contains("T-count"));
        assert!(log.contains("matches"));
        assert!(log.contains("OPENQASM"));
        assert!(!log.contains("DOES NOT"));
    }

    #[test]
    fn backend_command_switches_the_batch_engine() {
        let mut store = Store::new();
        run(&BackendCmd, &[], &mut store).unwrap();
        assert!(store.log_lines()[0].contains("[backend] dense"));
        run(&BackendCmd, &["sparse"], &mut store).unwrap();
        assert_eq!(store.backend_choice(), BackendChoice::Sparse);
        assert!(store.log_lines()[1].contains("[backend] sparse"));
        run(&BackendCmd, &["stabilizer"], &mut store).unwrap();
        assert_eq!(store.backend_choice(), BackendChoice::Stabilizer);
        run(&BackendCmd, &["auto"], &mut store).unwrap();
        assert_eq!(store.backend_choice(), BackendChoice::Auto);
        run(&BackendCmd, &["sparse"], &mut store).unwrap();
        // Unknown names surface the engine's typed error (not a silent
        // fall-through), listing the valid choices.
        let error = run(&BackendCmd, &["maybe"], &mut store).unwrap_err();
        assert!(matches!(error, RevkitError::Engine { .. }));
        let message = error.to_string();
        assert!(message.contains("unknown backend 'maybe'"), "{message}");
        for name in ["dense", "sparse", "stabilizer", "auto"] {
            assert!(message.contains(name), "{message}");
        }
        assert_eq!(store.backend_choice(), BackendChoice::Sparse);
        assert!(matches!(
            run(&BackendCmd, &["dense", "sparse"], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
        // Batch jobs pick up the choice and report it.
        run(&Batch, &["--shots", "32", "--spec", "hwb 3"], &mut store).unwrap();
        assert!(store
            .log_lines()
            .last()
            .unwrap()
            .contains("on the sparse backend"));
    }

    #[test]
    fn batch_under_auto_logs_each_jobs_resolved_backend() {
        let mut store = Store::new();
        run(&BackendCmd, &["auto"], &mut store).unwrap();
        // A permutation oracle (Clifford+T, permutation-dominated) resolves
        // to sparse; a linear-phase expression compiles to Clifford gates
        // only and resolves to stabilizer.
        run(
            &Batch,
            &["--shots", "64", "--spec", "hwb 3", "--spec", "expr x0 ^ x1"],
            &mut store,
        )
        .unwrap();
        let log = store.log_lines().join("\n");
        assert!(log.contains("job 0: hwb 3"), "{log}");
        assert!(log.contains("auto -> sparse"), "{log}");
        assert!(log.contains("auto -> stabilizer"), "{log}");
        // The distinct count follows the spec keys, and each job is
        // resolved once: two fresh specs are two compiles, no hits.
        assert!(log.contains("2 jobs (2 distinct)"), "{log}");
        assert!(log.contains("2 compiled, 0 cache hits"), "{log}");
        assert!(log.contains("on the auto backend"), "{log}");
    }

    #[test]
    fn batch_dead_letters_a_failing_spec_and_runs_its_sibling() {
        let path =
            std::env::temp_dir().join(format!("qdaflow-bad-spec-{}.qasm", std::process::id()));
        std::fs::write(&path, "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n").unwrap();
        let bad = format!("qasm:{}", path.display());
        for backend in ["dense", "auto"] {
            let mut store = Store::new();
            run(&BackendCmd, &[backend], &mut store).unwrap();
            run(
                &Batch,
                &["--shots", "64", "--spec", &bad, "--spec", "hwb 3"],
                &mut store,
            )
            .unwrap();
            let log = store.log_lines().join("\n");
            assert!(
                log.contains("job 0: qasm:") && log.contains("dead-lettered after 1 attempt(s)"),
                "{backend}: {log}"
            );
            assert!(log.contains("job 1: hwb 3 -> 3 qubits"), "{backend}: {log}");
            assert!(log.contains("1 dead-lettered"), "{backend}: {log}");
            assert_eq!(log.contains("auto -> sparse"), backend == "auto", "{log}");
        }
        let _ = std::fs::remove_file(&path);
    }

    const GOLDEN_QASM: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/goldens/hidden_shift_f4.qasm"
    );

    #[test]
    fn qasm_load_imports_a_file_into_the_store() {
        let mut store = Store::new();
        run(&Qasm, &["load", GOLDEN_QASM], &mut store).unwrap();
        let circuit = store.quantum().unwrap();
        assert_eq!(circuit.num_qubits(), 4);
        assert!(store.qasm_source().unwrap().contains("OPENQASM 2.0;"));
        assert!(store.log_lines().last().unwrap().contains("4 qubits"));
        // The loaded source seeds `flow` pipelines that start with qasmin.
        run(&Flow, &["qasmin; ps"], &mut store).unwrap();
        assert!(store
            .log_lines()
            .iter()
            .any(|l| l.contains("[flow] qasmin")));
        // Bad paths and malformed argument lists are typed errors.
        assert!(matches!(
            run(&Qasm, &["load", "/no/such/file.qasm"], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
        assert!(matches!(
            run(&Qasm, &["frobnicate"], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
    }

    #[test]
    fn batch_accepts_qasm_file_specs() {
        let mut store = Store::new();
        let spec = format!("qasm:{GOLDEN_QASM}");
        run(
            &Batch,
            &["--shots", "64", "--spec", &spec, "--spec", &spec],
            &mut store,
        )
        .unwrap();
        let log = store.log_lines().join("\n");
        // The hidden-shift instance is deterministic: every shot lands on 5.
        assert!(log.contains("most likely 5 (p=1.00)"), "{log}");
        assert!(
            log.contains("2 jobs (1 distinct), 1 compiled, 1 cache hits"),
            "{log}"
        );
        // A later batch over the same file is a pure cache hit.
        run(&Batch, &["--shots", "16", "--spec", &spec], &mut store).unwrap();
        assert!(store
            .log_lines()
            .last()
            .unwrap()
            .contains("1 jobs (1 distinct), 0 compiled, 1 cache hits"));
        assert!(matches!(
            run(&Batch, &["--spec", "qasm:"], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
        assert!(matches!(
            run(&Batch, &["--spec", "qasm: /no/such/file.qasm"], &mut store),
            Err(RevkitError::InvalidArguments { .. })
        ));
    }

    #[test]
    fn qasm_command_reports_unexportable_gates_as_typed_errors() {
        use qdaflow_quantum::{QuantumCircuit, QuantumGate};
        let mut store = Store::new();
        let mut circuit = QuantumCircuit::new(4);
        circuit
            .push(QuantumGate::Mcx {
                controls: vec![0, 1, 2],
                target: 3,
            })
            .unwrap();
        store.put(circuit.into());
        assert!(matches!(
            run(&Qasm, &[], &mut store),
            Err(RevkitError::Quantum(
                qdaflow_quantum::QuantumError::UnsupportedGate { gate: "mcx", .. }
            ))
        ));
    }

    #[test]
    fn batch_runs_deduplicated_jobs_through_the_cache() {
        let mut store = Store::new();
        run(
            &Batch,
            &[
                "--shots",
                "64",
                "--seed",
                "9",
                "--spec",
                "perm 0 2 3 5 7 1 4 6",
                "--spec",
                "perm 0 2 3 5 7 1 4 6",
                "--spec",
                "hwb 3",
                "--spec",
                "expr (a & b) ^ c",
            ],
            &mut store,
        )
        .unwrap();
        let log = store.log_lines().join("\n");
        assert!(log.contains("[batch] job 0"));
        assert!(log.contains("[batch] job 3"));
        assert!(log.contains("4 jobs (3 distinct), 3 compiled, 1 cache hits"));
        // A second invocation over a known oracle is all cache hits.
        run(&Batch, &["--shots", "32", "--spec", "hwb 3"], &mut store).unwrap();
        assert!(store
            .log_lines()
            .last()
            .unwrap()
            .contains("1 jobs (1 distinct), 0 compiled, 1 cache hits"));
    }

    #[test]
    fn batch_validates_its_arguments() {
        let mut store = Store::new();
        for args in [
            &[][..],
            &["--spec"],
            &["--spec", "frobnicate 3"],
            &["--spec", "hwb"],
            &["--spec", "hwb 3", "--synth", "maybe"],
            &["--spec", "perm 0 0 1 1"],
            &["--spec", "expr )("],
            // Sizes are bounded where the spec is parsed, by `revgen`.
            &["--spec", "hwb 0"],
            &["--spec", "random 25"],
        ] {
            assert!(
                matches!(
                    run(&Batch, args, &mut store),
                    Err(RevkitError::InvalidArguments { .. })
                ),
                "{args:?}"
            );
        }
        // Random permutation specs and dbs synthesis work.
        run(
            &Batch,
            &["--synth", "dbs", "--spec", "random 3 7"],
            &mut store,
        )
        .unwrap();
    }

    #[test]
    fn pass_commands_reject_arguments_their_pass_rejects() {
        // A pass command takes exactly the arguments of its pipeline pass:
        // each of these is an error naming the command, before anything
        // runs, even though the store holds an input for every command.
        let mut store = Store::new();
        run(&pass("revgen"), &["--expr", "(a & b) ^ c"], &mut store).unwrap();
        run(&pass("revgen"), &["--hwb", "3"], &mut store).unwrap();
        run(&pass("tbs"), &[], &mut store).unwrap();
        run(&pass("rptm"), &[], &mut store).unwrap();
        let snapshot = |store: &Store| {
            (
                store.permutation().cloned(),
                store.function().cloned(),
                store.reversible().cloned(),
                store.quantum().cloned(),
                store.log_lines().len(),
            )
        };
        let before = snapshot(&store);
        let commands = builtin_commands();
        for (name, arg) in [
            ("tbs", "--fast"),
            ("dbs", "x"),
            ("esopbs", "x"),
            ("revsimp", "--frobnicate"),
            ("rptm", "x"),
            ("tpar", "-v"),
            ("ps", "--all"),
        ] {
            let command = commands.iter().find(|c| c.name() == name).unwrap();
            match run(command.as_ref(), &[arg], &mut store) {
                Err(RevkitError::InvalidArguments { command, .. }) => assert_eq!(command, name),
                other => panic!("{name} {arg}: expected invalid arguments, got {other:?}"),
            }
            assert!(snapshot(&store) == before, "{name} {arg} changed the store");
        }
        run(&Ps, &["-c"], &mut store).unwrap();
    }

    #[test]
    fn pass_commands_log_the_statistics_of_their_output() {
        let mut store = Store::new();
        for (name, args, stage) in [
            ("revgen", &["--hwb", "4"][..], StageSet::PERMUTATION),
            ("tbs", &[], StageSet::REVERSIBLE),
            ("revsimp", &[], StageSet::REVERSIBLE),
            ("rptm", &[], StageSet::QUANTUM),
            ("tpar", &[], StageSet::QUANTUM),
        ] {
            let logged = store.log_lines().len();
            run(&pass(name), args, &mut store).unwrap();
            let output = store.input(stage).unwrap();
            assert_eq!(
                &store.log_lines()[logged..],
                [format!("[{name}] {}", passes::statistics(&output))]
            );
        }
    }

    #[test]
    fn missing_store_entries_name_the_stage_a_command_needs() {
        for (name, expected) in [
            ("tbs", "permutation"),
            ("dbs", "permutation"),
            ("esopbs", "boolean function"),
            ("revsimp", "reversible circuit"),
            ("rptm", "reversible circuit"),
            ("tpar", "quantum circuit"),
            ("simulate", "reversible circuit"),
            ("qasm", "quantum circuit"),
            ("draw", "quantum circuit"),
        ] {
            let command = builtin_commands()
                .into_iter()
                .find(|c| c.name() == name)
                .unwrap();
            let error = run(command.as_ref(), &[], &mut Store::new()).unwrap_err();
            assert_eq!(
                error.to_string(),
                format!("command '{name}' requires a {expected} in the store")
            );
        }
        // A pipeline that takes its input from the store names the stage
        // its first pass accepts.
        let error = run(&Flow, &["revgen; tbs"], &mut Store::new()).unwrap_err();
        assert_eq!(
            error.to_string(),
            "command 'flow' requires a permutation in the store"
        );
    }

    #[test]
    fn ps_reports_empty_store() {
        let mut store = Store::new();
        run(&Ps, &[], &mut store).unwrap();
        assert!(store.log_lines()[0].contains("empty"));
    }

    #[test]
    fn builtin_commands_have_unique_names() {
        let commands = builtin_commands();
        let mut names: Vec<&str> = commands.iter().map(|c| c.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(commands.iter().all(|c| !c.description().is_empty()));
    }
}
