//! The [`Pipeline`]: an ordered, build-time-validated sequence of passes.

use crate::ir::{Ir, Stage, StageSet};
use crate::pass::Pass;
use crate::passes::pass_from_tokens;
use crate::script::{split_statements, tokenize};
use crate::FlowError;
use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_quantum::resource::ResourceCounts;
use qdaflow_quantum::{GateCensus, QuantumCircuit};
use qdaflow_reversible::ReversibleCircuit;
use qdaflow_telemetry as telemetry;
use std::fmt;
use std::time::{Duration, Instant};

/// A compiled, validated pass sequence — the paper's equation (5) as data.
///
/// A pipeline is built either programmatically through [`Pipeline::builder`]
/// or by parsing the paper's semicolon-separated shell syntax with
/// [`Pipeline::parse`]. Building validates every stage transition, so a
/// sequence like `tpar` before `rptm` is rejected with a typed
/// [`FlowError::InvalidStageOrder`] before anything runs. Running produces a
/// [`PipelineReport`] with per-pass metrics and the final circuit.
///
/// # Example
///
/// The pipeline of equation (5), run on the paper's example permutation:
///
/// ```
/// use qdaflow_boolfn::Permutation;
/// use qdaflow_pipeline::Pipeline;
///
/// # fn main() -> Result<(), qdaflow_pipeline::FlowError> {
/// let pipeline = Pipeline::parse("revgen; tbs; revsimp; rptm; tpar; ps")?;
/// let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
/// let report = pipeline.run(pi.into())?;
/// let circuit = report.final_quantum().expect("pipeline ends at a quantum circuit");
/// assert!(circuit.is_clifford_t());
/// // Invalid pass orders fail at *build* time:
/// assert!(Pipeline::parse("revgen --hwb 4; tpar").is_err());
/// # Ok(())
/// # }
/// ```
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
    input_stages: StageSet,
}

impl Pipeline {
    /// Starts building a pipeline programmatically.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder { passes: Vec::new() }
    }

    /// Parses the paper's shell syntax (`revgen --hwb 4; tbs; revsimp;
    /// rptm; tpar; ps -c`) into a validated pipeline.
    ///
    /// Statements are separated by `;` or newlines; `#` starts a comment
    /// line; double quotes group arguments containing spaces.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Script`] for lexing failures (an unterminated
    /// double quote), [`FlowError::UnknownPass`] for unregistered pass
    /// names, [`FlowError::InvalidPassArguments`] for malformed arguments,
    /// and the build-time validation errors of [`PipelineBuilder::build`].
    pub fn parse(script: &str) -> Result<Self, FlowError> {
        let mut builder = Self::builder();
        for statement in split_statements(script)? {
            let tokens = tokenize(&statement)?;
            let Some((name, args)) = tokens.split_first() else {
                continue;
            };
            builder = builder.then_boxed(pass_from_tokens(name, args)?);
        }
        builder.build()
    }

    /// The stages the pipeline accepts as external input (what its first
    /// pass accepts).
    pub fn input_stages(&self) -> StageSet {
        self.input_stages
    }

    /// Whether the pipeline can run without an external input (its first
    /// pass is a generator such as `revgen --hwb 4`).
    pub fn is_generated(&self) -> bool {
        self.passes.first().is_some_and(|p| p.is_generator())
    }

    /// The descriptions of the passes, in order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.describe()).collect()
    }

    /// The canonical cache key of running this pipeline on `input` (`None`
    /// for generated pipelines); see [`crate::spec`].
    pub fn spec_key(&self, input: Option<&Ir>) -> crate::spec::SpecKey {
        crate::spec::spec_key(input, &self.pass_names())
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline has no passes (never true for a built pipeline).
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs the pipeline on an external input value.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StageMismatch`] if `input` has a stage the first
    /// pass does not accept, and propagates pass failures.
    pub fn run(&self, input: Ir) -> Result<PipelineReport, FlowError> {
        self.execute(Some(input))
    }

    /// Runs a generated pipeline (one whose first pass is a generator, such
    /// as `revgen --hwb 4; …`) without an external input.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::MissingPipelineInput`] if the first pass is not
    /// a generator, and propagates pass failures.
    pub fn run_generated(&self) -> Result<PipelineReport, FlowError> {
        self.execute(None)
    }

    fn execute(&self, input: Option<Ir>) -> Result<PipelineReport, FlowError> {
        let mut records = Vec::with_capacity(self.passes.len());
        let mut artifacts = Artifacts::default();
        let mut remaining = self.passes.as_slice();
        let _flow_span = telemetry::span!("pipeline", "flow: {} passes", self.passes.len());

        let mut current = match input {
            Some(ir) => ir,
            None => {
                let (first, rest) = remaining
                    .split_first()
                    .expect("built pipelines are never empty");
                let start = Instant::now();
                let generated = {
                    let _span = telemetry::span!("pipeline", "pass {}", first.describe());
                    first
                        .generate()
                        .ok_or_else(|| FlowError::MissingPipelineInput {
                            pass: first.describe(),
                            expected: first.accepts(),
                        })??
                };
                records.push(PassRecord::of(first.as_ref(), &generated, start.elapsed()));
                note_pass(records.last().expect("just pushed"));
                remaining = rest;
                generated
            }
        };
        if remaining.len() == self.passes.len() && !self.input_stages.contains(current.stage()) {
            // External input: reject stages that cannot flow through the
            // whole chain (input_stages is narrowed at build time).
            return Err(FlowError::StageMismatch {
                pass: self.passes[0].describe(),
                expected: self.input_stages,
                found: current.stage(),
            });
        }
        artifacts.absorb(&current);

        for pass in remaining {
            if !pass.accepts().contains(current.stage()) {
                return Err(FlowError::StageMismatch {
                    pass: pass.describe(),
                    expected: pass.accepts(),
                    found: current.stage(),
                });
            }
            let start = Instant::now();
            let output = {
                let _span = telemetry::span!("pipeline", "pass {}", pass.describe());
                pass.apply(current)?
            };
            records.push(PassRecord::of(pass.as_ref(), &output, start.elapsed()));
            note_pass(records.last().expect("just pushed"));
            artifacts.absorb(&output);
            current = output;
        }

        Ok(PipelineReport {
            passes: records,
            output: current,
            artifacts,
        })
    }
}

/// Publishes one executed pass into telemetry: a sample in the global
/// `qdaflow_pass_duration_seconds{pass=...}` histogram (always on) and,
/// when tracing is enabled, a key/value event mirroring the record.
fn note_pass(record: &PassRecord) {
    let name = record.pass.split_whitespace().next().unwrap_or("?");
    telemetry::global_metrics()
        .histogram(
            "qdaflow_pass_duration_seconds",
            "Wall-clock pipeline pass duration, labelled by pass name.",
            &telemetry::SHORT_DURATION_BUCKETS,
            &[("pass", name)],
        )
        .observe_duration(record.duration);
    if telemetry::enabled() {
        telemetry::event(
            "pipeline",
            format!("pass {name}"),
            vec![
                ("pass", record.pass.clone()),
                ("stage", record.stage.to_string()),
                ("duration_us", record.duration.as_micros().to_string()),
            ],
        );
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pipeline({})", self.pass_names().join("; "))
    }
}

impl fmt::Display for Pipeline {
    /// Renders the pipeline in the canonical shell syntax: the pass
    /// descriptions joined by `"; "`. For every pipeline obtained from
    /// [`Pipeline::parse`] the rendering parses back to an equivalent
    /// pipeline with the identical rendering (parse/Display are mutually
    /// normalizing; enforced by the `parse_display_roundtrip` property
    /// suite).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pass_names().join("; "))
    }
}

/// Accumulates passes and validates the sequence on
/// [`build`](PipelineBuilder::build).
#[must_use = "call .build() to obtain a validated pipeline"]
pub struct PipelineBuilder {
    passes: Vec<Box<dyn Pass>>,
}

impl PipelineBuilder {
    /// Appends a pass.
    pub fn then(self, pass: impl Pass + 'static) -> Self {
        self.then_boxed(Box::new(pass))
    }

    /// Appends an already boxed pass.
    pub fn then_boxed(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Validates every stage transition and produces the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyPipeline`] for an empty sequence and
    /// [`FlowError::InvalidStageOrder`] for the first pass that cannot
    /// consume what its predecessors produce.
    pub fn build(self) -> Result<Pipeline, FlowError> {
        let Some(first) = self.passes.first() else {
            return Err(FlowError::EmptyPipeline);
        };
        // Validate once over the full accepted-input set — this produces
        // the typed error (with the offending position) when no input kind
        // can make the sequence work.
        Self::validate(&self.passes, first.accepts())?;
        // Then narrow the externally accepted inputs to the stages that
        // actually flow through the *whole* chain, so `input_stages` never
        // advertises an input the pipeline would reject at run time (e.g.
        // `revgen; esopbs` accepts only a boolean function even though the
        // passthrough `revgen` alone would accept a permutation too).
        let mut input_stages = StageSet::EMPTY;
        for stage in first.accepts().stages() {
            if Self::validate(&self.passes, stage.into()).is_ok() {
                input_stages = input_stages.union(stage.into());
            }
        }
        Ok(Pipeline {
            passes: self.passes,
            input_stages,
        })
    }

    fn validate(passes: &[Box<dyn Pass>], input: StageSet) -> Result<(), FlowError> {
        let mut possible = passes[0].output(input);
        for (position, pass) in passes.iter().enumerate().skip(1) {
            let feasible = possible.intersect(pass.accepts());
            if feasible.is_empty() {
                return Err(FlowError::InvalidStageOrder {
                    pass: pass.describe(),
                    position,
                    expected: pass.accepts(),
                    found: possible,
                });
            }
            possible = pass.output(feasible);
        }
        Ok(())
    }
}

/// The latest value the pipeline produced at each stage, in flow order —
/// what a shell would have left in its stores after running the script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Artifacts {
    /// Latest OpenQASM source text (a `qasmin` input).
    pub qasm_source: Option<String>,
    /// Latest permutation specification.
    pub permutation: Option<Permutation>,
    /// Latest single-output Boolean function specification.
    pub function: Option<TruthTable>,
    /// Latest reversible circuit.
    pub reversible: Option<ReversibleCircuit>,
    /// Latest quantum circuit.
    pub quantum: Option<QuantumCircuit>,
}

impl Artifacts {
    fn absorb(&mut self, ir: &Ir) {
        match ir {
            Ir::QasmSource(s) => self.qasm_source = Some(s.clone()),
            Ir::Permutation(p) => self.permutation = Some(p.clone()),
            Ir::Function(f) => self.function = Some(f.clone()),
            Ir::Reversible(c) => self.reversible = Some(c.clone()),
            Ir::Quantum(c) => self.quantum = Some(c.clone()),
        }
    }
}

/// The artifacts as [`Ir`] values, in flow order (the shell writes each one
/// back into its store).
impl IntoIterator for Artifacts {
    type Item = Ir;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Ir>, 5>>;

    fn into_iter(self) -> Self::IntoIter {
        [
            self.qasm_source.map(Ir::QasmSource),
            self.permutation.map(Ir::Permutation),
            self.function.map(Ir::Function),
            self.reversible.map(Ir::Reversible),
            self.quantum.map(Ir::Quantum),
        ]
        .into_iter()
        .flatten()
    }
}

/// Metrics recorded for one executed pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRecord {
    /// The pass description (name plus arguments).
    pub pass: String,
    /// Stage of the pass output.
    pub stage: Stage,
    /// Gate count of the output reversible circuit, if the output is one.
    pub reversible_gates: Option<usize>,
    /// Resource counts of the output quantum circuit, if the output is one.
    pub resources: Option<ResourceCounts>,
    /// Gate census of the output quantum circuit, if the output is one —
    /// the Clifford/permutation/T/Hadamard populations the automatic
    /// backend dispatcher routes by, surfaced here so its decisions are
    /// inspectable per pass (the shell's `flow` report prints this line).
    pub census: Option<GateCensus>,
    /// A pass-provided summary line (`ps` uses this).
    pub note: Option<String>,
    /// Wall-clock time the pass took.
    pub duration: Duration,
}

impl PassRecord {
    fn of(pass: &dyn Pass, output: &Ir, duration: Duration) -> Self {
        let (reversible_gates, resources, census) = match output {
            Ir::Reversible(circuit) => (Some(circuit.num_gates()), None, None),
            Ir::Quantum(circuit) => (
                None,
                Some(ResourceCounts::of(circuit)),
                Some(GateCensus::of(circuit)),
            ),
            _ => (None, None, None),
        };
        let note = pass.summarize(output, resources.as_ref());
        Self {
            pass: pass.describe(),
            stage: output.stage(),
            reversible_gates,
            resources,
            census,
            note,
            duration,
        }
    }

    /// A one-line rendering of the record (pass, stage metrics, timing).
    pub fn summary(&self) -> String {
        let metrics = if let Some(gates) = self.reversible_gates {
            format!("{gates} gates")
        } else if let Some(resources) = &self.resources {
            resources.summary()
        } else {
            self.stage.to_string()
        };
        format!("{}: {} ({:.1?})", self.pass, metrics, self.duration)
    }
}

/// The result of running a [`Pipeline`]: per-pass metrics, stage artifacts
/// and the final IR value.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// One record per executed pass, in order.
    pub passes: Vec<PassRecord>,
    /// The value the last pass produced.
    pub output: Ir,
    /// The latest value produced at each stage.
    pub artifacts: Artifacts,
}

impl PipelineReport {
    /// The final quantum circuit, if the pipeline ended at one.
    pub fn final_quantum(&self) -> Option<&QuantumCircuit> {
        match &self.output {
            Ir::Quantum(circuit) => Some(circuit),
            _ => None,
        }
    }

    /// The final reversible circuit, if the pipeline ended at one.
    pub fn final_reversible(&self) -> Option<&ReversibleCircuit> {
        match &self.output {
            Ir::Reversible(circuit) => Some(circuit),
            _ => None,
        }
    }

    /// Resource counts of the final quantum circuit, if any.
    pub fn final_resources(&self) -> Option<ResourceCounts> {
        self.final_quantum().map(ResourceCounts::of)
    }

    /// The record of the last executed pass with the given name (matching
    /// on the name, ignoring arguments).
    pub fn record_of(&self, name: &str) -> Option<&PassRecord> {
        self.passes
            .iter()
            .rev()
            .find(|r| r.pass == name || r.pass.starts_with(&format!("{name} ")))
    }

    /// Reversible gate count recorded after the last pass with `name`.
    pub fn gates_after(&self, name: &str) -> Option<usize> {
        self.record_of(name).and_then(|r| r.reversible_gates)
    }

    /// Quantum resource counts recorded after the last pass with `name`.
    pub fn resources_after(&self, name: &str) -> Option<&ResourceCounts> {
        self.record_of(name).and_then(|r| r.resources.as_ref())
    }

    /// Total wall-clock time across all passes.
    pub fn total_duration(&self) -> Duration {
        self.passes.iter().map(|r| r.duration).sum()
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for record in &self.passes {
            writeln!(f, "{}", record.summary())?;
            if let Some(census) = &record.census {
                writeln!(f, "  census: {census}")?;
            }
            if let Some(note) = &record.note {
                writeln!(f, "  {note}")?;
            }
        }
        write!(f, "total: {:.1?}", self.total_duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{Ps, Revgen, Revsimp, Rptm, Tbs, Tpar};

    #[test]
    fn pass_duration_buckets_resolve_microsecond_passes() {
        let registry = telemetry::MetricsRegistry::new();
        let histogram = registry.histogram(
            "pass_seconds",
            "Pass.",
            &telemetry::SHORT_DURATION_BUCKETS,
            &[],
        );
        histogram.observe_duration(std::time::Duration::from_micros(7));
        let text = registry.render();
        // A 7 µs pass lands in the (5 µs, 10 µs] bucket, far below 0.5 ms.
        assert!(
            text.contains("pass_seconds_bucket{le=\"0.000005\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("pass_seconds_bucket{le=\"0.00001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("pass_seconds_bucket{le=\"0.0005\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn equation_5_parses_builds_and_runs() {
        let pipeline = Pipeline::parse("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c").unwrap();
        assert!(pipeline.is_generated());
        assert_eq!(pipeline.len(), 6);
        let report = pipeline.run_generated().unwrap();
        let circuit = report.final_quantum().unwrap();
        assert!(circuit.is_clifford_t());
        assert!(report.artifacts.reversible.is_some());
        assert!(report.artifacts.permutation.is_some());
        // tpar never increases the T-count.
        let mapped = report.resources_after("rptm").unwrap();
        let optimized = report.resources_after("tpar").unwrap();
        assert!(optimized.t_count <= mapped.t_count);
        // The ps pass recorded the statistics line of its output.
        assert_eq!(
            report.record_of("ps").unwrap().note,
            Some(crate::passes::statistics(&report.output))
        );
        // Quantum-stage passes record a gate census; reversible ones don't.
        let mapped = report.record_of("rptm").unwrap().census.unwrap();
        assert_eq!(mapped.total, mapped.clifford + mapped.t);
        assert!(report.record_of("tbs").unwrap().census.is_none());
        let rendered = report.to_string();
        assert!(rendered.contains("tbs"));
        assert!(rendered.contains("census:"));
        assert!(rendered.contains("total:"));
    }

    #[test]
    fn passthrough_pipelines_take_external_input() {
        let pipeline = Pipeline::parse("revgen; tbs; revsimp; rptm; tpar; ps").unwrap();
        assert!(!pipeline.is_generated());
        assert!(matches!(
            pipeline.run_generated(),
            Err(FlowError::MissingPipelineInput { .. })
        ));
        let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
        let report = pipeline.run(pi.clone().into()).unwrap();
        for basis in 0..8 {
            let reversible = report.artifacts.reversible.as_ref().unwrap();
            assert_eq!(reversible.apply(basis), pi.apply(basis));
        }
    }

    #[test]
    fn invalid_orders_fail_at_build_time() {
        // tpar before rptm: reversible circuit cannot flow into tpar.
        let err = Pipeline::parse("revgen --hwb 4; tbs; tpar").unwrap_err();
        assert!(matches!(
            err,
            FlowError::InvalidStageOrder { position: 2, .. }
        ));
        // rptm directly on a specification.
        assert!(Pipeline::parse("revgen --hwb 4; rptm").is_err());
        // tbs on a boolean function specification.
        assert!(Pipeline::parse("revgen --expr \"a & b\"; tbs").is_err());
        // esopbs on a permutation specification.
        assert!(Pipeline::parse("revgen --hwb 3; esopbs").is_err());
        // Unknown pass names are typed errors.
        assert!(matches!(
            Pipeline::parse("revgen --hwb 4; frobnicate"),
            Err(FlowError::UnknownPass { .. })
        ));
        // The empty pipeline is rejected.
        assert!(matches!(
            Pipeline::parse("  # only a comment"),
            Err(FlowError::EmptyPipeline)
        ));
        // An unterminated quote is a typed lexing error, not a silent
        // mis-split.
        assert!(matches!(
            Pipeline::parse("revgen --expr \"(a & b; tbs"),
            Err(FlowError::Script(_))
        ));
    }

    #[test]
    fn qasm_source_flows_through_qasmin() {
        let pipeline = Pipeline::parse("qasmin; tpar; ps").unwrap();
        assert_eq!(pipeline.input_stages(), StageSet::QASM_SOURCE);
        let report = pipeline
            .run(Ir::QasmSource(
                "qreg q[2];\nh q;\ncz q[0],q[1];\nt q[0];".to_owned(),
            ))
            .unwrap();
        assert!(report.final_quantum().unwrap().is_clifford_t());
        assert!(report
            .artifacts
            .qasm_source
            .as_deref()
            .unwrap()
            .starts_with("qreg q[2];"));
        // Parse errors surface as typed quantum errors from the pass.
        let err = pipeline
            .run(Ir::QasmSource("qreg q[1];\nnope q[0];".to_owned()))
            .unwrap_err();
        assert!(matches!(err, FlowError::Quantum(_)));
    }

    #[test]
    fn builder_matches_parse() {
        let built = Pipeline::builder()
            .then(Revgen::hwb(4))
            .then(Tbs)
            .then(Revsimp)
            .then(Rptm::default())
            .then(Tpar)
            .then(Ps)
            .build()
            .unwrap();
        let parsed = Pipeline::parse("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c").unwrap();
        let a = built.run_generated().unwrap();
        let b = parsed.run_generated().unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.final_resources(), b.final_resources());
    }

    #[test]
    fn input_stages_are_narrowed_through_the_whole_chain() {
        // A passthrough revgen alone accepts either specification kind, but
        // followed by esopbs only a boolean function can flow through.
        let pipeline = Pipeline::parse("revgen; esopbs; rptm").unwrap();
        assert_eq!(pipeline.input_stages(), StageSet::FUNCTION);
        let err = pipeline
            .run(Ir::Permutation(Permutation::identity(2)))
            .unwrap_err();
        assert!(matches!(
            err,
            FlowError::StageMismatch {
                expected: StageSet::FUNCTION,
                ..
            }
        ));
        // Same narrowing towards tbs.
        let pipeline = Pipeline::parse("revgen; tbs; rptm").unwrap();
        assert_eq!(pipeline.input_stages(), StageSet::PERMUTATION);
        // A generator first pass keeps accepting (and ignoring) anything.
        let pipeline = Pipeline::parse("revgen --hwb 3; tbs").unwrap();
        assert_eq!(pipeline.input_stages(), StageSet::ANY);
    }

    #[test]
    fn run_rejects_mismatched_external_input() {
        let pipeline = Pipeline::parse("tbs; rptm").unwrap();
        assert_eq!(pipeline.input_stages(), StageSet::PERMUTATION);
        let err = pipeline
            .run(Ir::Quantum(QuantumCircuit::new(1)))
            .unwrap_err();
        assert!(matches!(err, FlowError::StageMismatch { .. }));
    }

    #[test]
    fn programmatic_function_pipelines_have_distinct_spec_keys() {
        // Regression: `Revgen::function` carries no source text, so its
        // description must still distinguish different truth tables (the
        // table hex is embedded) — otherwise two generated pipelines over
        // different functions would share a cache key.
        use qdaflow_boolfn::TruthTable;
        let build = |bit: usize| {
            Pipeline::builder()
                .then(Revgen::function(
                    TruthTable::from_bits(3, (0..8).map(|x| x == bit)).unwrap(),
                ))
                .then(crate::passes::Esopbs::default())
                .then(Rptm::default())
                .build()
                .unwrap()
        };
        let a = build(1);
        let b = build(2);
        assert_ne!(a.pass_names(), b.pass_names());
        assert_ne!(a.spec_key(None), b.spec_key(None));
        // Identical construction produces identical keys.
        assert_eq!(a.spec_key(None), build(1).spec_key(None));
    }

    #[test]
    fn esop_pipeline_compiles_functions() {
        let pipeline =
            Pipeline::parse("revgen --expr \"(a & b) ^ (c & d)\"; esopbs; revsimp; rptm; tpar")
                .unwrap();
        let report = pipeline.run_generated().unwrap();
        assert!(report.final_quantum().unwrap().is_clifford_t());
        assert!(report.gates_after("esopbs").is_some());
    }
}
