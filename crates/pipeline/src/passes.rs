//! Named [`Pass`] implementations wrapping every stage of the flow.
//!
//! Each pass carries the name of the RevKit command it reproduces:
//!
//! | pass      | stage transition                         | wraps                                      |
//! |-----------|------------------------------------------|--------------------------------------------|
//! | `revgen`  | ∅ → specification                        | specification generators                   |
//! | `tbs`     | permutation → reversible                 | [`synthesis::transformation_based`]        |
//! | `dbs`     | permutation → reversible                 | [`synthesis::decomposition_based`]         |
//! | `esopbs`  | function → reversible                    | [`synthesis::esop_based_single`]           |
//! | `revsimp` | reversible → reversible                  | [`revopt::simplify`]                       |
//! | `rptm`    | reversible → quantum                     | [`map::to_clifford_t`]                     |
//! | `tpar`    | quantum → quantum                        | [`optimize::optimize_clifford_t`]          |
//! | `ps`      | any → same (records statistics)          | [`ResourceCounts::of`]                     |
//! | `po`      | function → quantum                       | [`phase_oracle::phase_oracle`]             |
//! | `qasmin`  | openqasm source → quantum                | [`qasm::from_qasm`]                        |
//!
//! `po` (direct phase-oracle compilation, the `PhaseOracle` primitive of the
//! paper's ProjectQ flow) has no shell counterpart in equation (5) but lets
//! the phase-function flow route through pipelines as well.
//!
//! The shell's pass commands (`revgen` through `tpar`) are these passes: each
//! builds its pass with [`pass_from_tokens`] and runs it as a one-pass
//! [`Pipeline`](crate::Pipeline) over the shell's store, so a change here
//! shows up in the shell and in `flow` at once. `po` and `qasmin` still have
//! no shell command of their own; they run through `flow`.

use crate::ir::{Ir, StageSet};
use crate::pass::Pass;
use crate::FlowError;
use qdaflow_boolfn::{hwb, Expr, Permutation, TruthTable, MAX_TRUTH_TABLE_VARS};
use qdaflow_mapping::phase_oracle::{self, PhaseOracleOptions};
use qdaflow_mapping::{map, optimize};
use qdaflow_quantum::qasm;
use qdaflow_quantum::resource::ResourceCounts;
use qdaflow_reversible::optimize as revopt;
use qdaflow_reversible::synthesis::{self, EsopSynthesisOptions, SynthesisMethod};

fn no_arguments(pass: &'static str, args: &[String]) -> Result<(), FlowError> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(FlowError::InvalidPassArguments {
            pass: pass.to_owned(),
            message: format!("unexpected arguments: {}", args.join(" ")),
        })
    }
}

fn parse_usize(pass: &'static str, text: &str) -> Result<usize, FlowError> {
    text.parse().map_err(|_| FlowError::InvalidPassArguments {
        pass: pass.to_owned(),
        message: format!("expected a number, found '{text}'"),
    })
}

/// Parses the value of a size flag (`--hwb N`, `--random N`) and checks it
/// lies in `min..=MAX_TRUTH_TABLE_VARS`, so an out-of-range size is a typed
/// error here instead of a panic or an allocation failure when the
/// specification is generated.
fn parse_num_vars(flag: &str, text: &str, min: usize) -> Result<usize, FlowError> {
    let n = parse_usize("revgen", text)?;
    if (min..=MAX_TRUTH_TABLE_VARS).contains(&n) {
        Ok(n)
    } else {
        Err(FlowError::InvalidPassArguments {
            pass: "revgen".to_owned(),
            message: format!("{flag} takes {min} to {MAX_TRUTH_TABLE_VARS} variables, found {n}"),
        })
    }
}

/// How a [`Revgen`] pass obtains its specification.
#[derive(Debug, Clone, PartialEq)]
enum RevgenSpec {
    /// Pass the pipeline's external input specification through unchanged.
    Passthrough,
    /// The hidden-weighted-bit permutation on `n` variables.
    Hwb(usize),
    /// A seeded random permutation.
    Random {
        /// Number of variables.
        num_vars: usize,
        /// RNG seed.
        seed: u64,
    },
    /// An explicit permutation.
    Permutation(Permutation),
    /// An explicit single-output Boolean function. The optional `source`
    /// keeps the argument text the pass was parsed from (`--expr "…"
    /// [--vars N]`), so parsed pipelines describe themselves in a form
    /// [`Pipeline::parse`](crate::Pipeline::parse) accepts again.
    Function {
        /// The materialized truth table.
        table: TruthTable,
        /// The canonical argument suffix captured at parse time, if any.
        source: Option<String>,
    },
}

/// `revgen` — produce the specification a pipeline starts from.
///
/// With arguments (`--hwb`, `--random`, `--perm`, `--expr`) the pass is a
/// *generator*: it ignores and replaces whatever flows into it, and a
/// pipeline starting with it can be run without an external input via
/// [`Pipeline::run_generated`](crate::Pipeline::run_generated). Without
/// arguments it passes the pipeline's external input specification through,
/// which is how `Pipeline::parse("revgen; tbs; …")` accepts the
/// specification at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct Revgen {
    spec: RevgenSpec,
}

impl Revgen {
    /// A passthrough `revgen`: the specification is the pipeline input.
    pub fn passthrough() -> Self {
        Self {
            spec: RevgenSpec::Passthrough,
        }
    }

    /// The hidden-weighted-bit permutation on `n` variables (`--hwb n`).
    pub fn hwb(n: usize) -> Self {
        Self {
            spec: RevgenSpec::Hwb(n),
        }
    }

    /// A seeded random permutation (`--random n --seed s`).
    pub fn random(num_vars: usize, seed: u64) -> Self {
        Self {
            spec: RevgenSpec::Random { num_vars, seed },
        }
    }

    /// An explicit permutation (`--perm "0 2 1 3"`).
    pub fn permutation(permutation: Permutation) -> Self {
        Self {
            spec: RevgenSpec::Permutation(permutation),
        }
    }

    /// An explicit Boolean function (`--expr "(a & b) ^ c"`).
    pub fn function(function: TruthTable) -> Self {
        Self {
            spec: RevgenSpec::Function {
                table: function,
                source: None,
            },
        }
    }

    /// Builds a `revgen` pass from shell-style arguments.
    ///
    /// The grammar is strict — every argument must be consumed: exactly one
    /// of `--hwb N`, `--random N [--seed S]`, `--perm "0 2 1 3"`,
    /// `--expr "(a & b) ^ c" [--vars N]`, or no arguments at all for a
    /// passthrough pass. A stray or misspelled flag is an error, not
    /// silently ignored. `--hwb` takes 1 to
    /// [`MAX_TRUTH_TABLE_VARS`] variables and `--random` 0 to
    /// [`MAX_TRUTH_TABLE_VARS`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidPassArguments`] for malformed flags and
    /// out-of-range sizes, and propagates specification construction
    /// errors.
    pub fn from_args(args: &[String]) -> Result<Self, FlowError> {
        if args.is_empty() {
            return Ok(Self::passthrough());
        }
        let invalid = |message: String| FlowError::InvalidPassArguments {
            pass: "revgen".to_owned(),
            message,
        };
        let mut flags: Vec<(&str, &str)> = Vec::new();
        let mut index = 0;
        while index < args.len() {
            let flag = args[index].as_str();
            if !matches!(
                flag,
                "--hwb" | "--random" | "--seed" | "--perm" | "--expr" | "--vars"
            ) {
                return Err(invalid(format!(
                    "unexpected argument '{flag}' (expected --hwb N | --random N [--seed S] | --perm \"0 2 1 3\" | --expr \"(a & b) ^ c\" [--vars N])"
                )));
            }
            if flags.iter().any(|(known, _)| *known == flag) {
                return Err(invalid(format!("flag '{flag}' given more than once")));
            }
            let Some(value) = args.get(index + 1) else {
                return Err(invalid(format!("flag '{flag}' expects a value")));
            };
            flags.push((flag, value));
            index += 2;
        }
        let value_of = |name: &str| flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v);
        let modes = ["--hwb", "--random", "--perm", "--expr"]
            .iter()
            .filter(|mode| value_of(mode).is_some())
            .count();
        if modes != 1 {
            return Err(invalid(
                "expected exactly one of --hwb, --random, --perm, --expr".to_owned(),
            ));
        }
        if value_of("--seed").is_some() && value_of("--random").is_none() {
            return Err(invalid("--seed is only valid with --random".to_owned()));
        }
        if value_of("--vars").is_some() && value_of("--expr").is_none() {
            return Err(invalid("--vars is only valid with --expr".to_owned()));
        }
        if let Some(n) = value_of("--hwb") {
            return Ok(Self::hwb(parse_num_vars("--hwb", n, 1)?));
        }
        if let Some(n) = value_of("--random") {
            let n = parse_num_vars("--random", n, 0)?;
            let seed = value_of("--seed")
                .map(|s| parse_usize("revgen", s))
                .transpose()?
                .unwrap_or(1) as u64;
            return Ok(Self::random(n, seed));
        }
        if let Some(list) = value_of("--perm") {
            let values: Result<Vec<usize>, _> = list
                .split([',', ' '])
                .filter(|t| !t.is_empty())
                .map(|t| parse_usize("revgen", t))
                .collect();
            return Ok(Self::permutation(Permutation::new(values?)?));
        }
        let expression = value_of("--expr").expect("exactly one mode flag is present");
        let expr = Expr::parse(expression)?;
        let explicit_vars = value_of("--vars")
            .map(|s| parse_usize("revgen", s))
            .transpose()?;
        let num_vars = explicit_vars.unwrap_or_else(|| expr.num_vars());
        let source = match explicit_vars {
            Some(vars) => format!("--expr \"{expression}\" --vars {vars}"),
            None => format!("--expr \"{expression}\""),
        };
        Ok(Self {
            spec: RevgenSpec::Function {
                table: expr.truth_table(num_vars)?,
                source: Some(source),
            },
        })
    }
}

impl Pass for Revgen {
    fn name(&self) -> &'static str {
        "revgen"
    }

    fn describe(&self) -> String {
        match &self.spec {
            RevgenSpec::Passthrough => "revgen".to_owned(),
            RevgenSpec::Hwb(n) => format!("revgen --hwb {n}"),
            RevgenSpec::Random { num_vars, seed } => {
                format!("revgen --random {num_vars} --seed {seed}")
            }
            RevgenSpec::Permutation(p) => {
                let images: Vec<String> = p.as_slice().iter().map(usize::to_string).collect();
                format!("revgen --perm \"{}\"", images.join(" "))
            }
            RevgenSpec::Function {
                source: Some(source),
                ..
            } => format!("revgen {source}"),
            // No source text (programmatic construction): not re-parseable,
            // but the truth-table hex keeps the description — and therefore
            // any spec key derived from it — unique per function.
            RevgenSpec::Function {
                table,
                source: None,
            } => format!(
                "revgen --expr ({} vars, 0x{})",
                table.num_vars(),
                table.to_hex()
            ),
        }
    }

    fn accepts(&self) -> StageSet {
        match self.spec {
            RevgenSpec::Passthrough => StageSet::SPEC,
            _ => StageSet::ANY,
        }
    }

    fn output(&self, input: StageSet) -> StageSet {
        match self.spec {
            RevgenSpec::Passthrough => input.intersect(StageSet::SPEC),
            RevgenSpec::Hwb(_) | RevgenSpec::Random { .. } | RevgenSpec::Permutation(_) => {
                StageSet::PERMUTATION
            }
            RevgenSpec::Function { .. } => StageSet::FUNCTION,
        }
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        match &self.spec {
            RevgenSpec::Passthrough => match input {
                spec @ (Ir::Permutation(_) | Ir::Function(_)) => Ok(spec),
                other => Err(FlowError::StageMismatch {
                    pass: self.describe(),
                    expected: StageSet::SPEC,
                    found: other.stage(),
                }),
            },
            _ => self.generate().expect("non-passthrough revgen generates"),
        }
    }

    fn generate(&self) -> Option<Result<Ir, FlowError>> {
        match &self.spec {
            RevgenSpec::Passthrough => None,
            RevgenSpec::Hwb(n) => Some(Ok(Ir::Permutation(hwb::hwb_permutation(*n)))),
            RevgenSpec::Random { num_vars, seed } => Some(Ok(Ir::Permutation(
                Permutation::random_seeded(*num_vars, *seed),
            ))),
            RevgenSpec::Permutation(p) => Some(Ok(Ir::Permutation(p.clone()))),
            RevgenSpec::Function { table, .. } => Some(Ok(Ir::Function(table.clone()))),
        }
    }

    fn is_generator(&self) -> bool {
        !matches!(self.spec, RevgenSpec::Passthrough)
    }
}

/// `tbs` — transformation-based synthesis (permutation → reversible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tbs;

impl Pass for Tbs {
    fn name(&self) -> &'static str {
        "tbs"
    }

    fn accepts(&self) -> StageSet {
        StageSet::PERMUTATION
    }

    fn output(&self, _input: StageSet) -> StageSet {
        StageSet::REVERSIBLE
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let permutation = input.into_permutation(self.name())?;
        Ok(Ir::Reversible(synthesis::transformation_based(
            &permutation,
        )?))
    }
}

/// `dbs` — decomposition-based synthesis (permutation → reversible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dbs;

impl Pass for Dbs {
    fn name(&self) -> &'static str {
        "dbs"
    }

    fn accepts(&self) -> StageSet {
        StageSet::PERMUTATION
    }

    fn output(&self, _input: StageSet) -> StageSet {
        StageSet::REVERSIBLE
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let permutation = input.into_permutation(self.name())?;
        Ok(Ir::Reversible(synthesis::decomposition_based(
            &permutation,
        )?))
    }
}

/// A synthesis pass for either [`SynthesisMethod`] (used by canned flows
/// that select the method at run time).
pub fn synthesis_pass(method: SynthesisMethod) -> Box<dyn Pass> {
    match method {
        SynthesisMethod::TransformationBased => Box::new(Tbs),
        SynthesisMethod::DecompositionBased => Box::new(Dbs),
    }
}

/// `esopbs` — ESOP-based synthesis / Bennett embedding (function →
/// reversible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Esopbs {
    /// Options of the underlying ESOP extraction.
    pub options: EsopSynthesisOptions,
}

impl Pass for Esopbs {
    fn name(&self) -> &'static str {
        "esopbs"
    }

    fn accepts(&self) -> StageSet {
        StageSet::FUNCTION
    }

    fn output(&self, _input: StageSet) -> StageSet {
        StageSet::REVERSIBLE
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let function = input.into_function(self.name())?;
        Ok(Ir::Reversible(synthesis::esop_based_single(
            &function,
            self.options,
        )?))
    }
}

/// `revsimp` — reversible circuit simplification (reversible → reversible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Revsimp;

impl Pass for Revsimp {
    fn name(&self) -> &'static str {
        "revsimp"
    }

    fn accepts(&self) -> StageSet {
        StageSet::REVERSIBLE
    }

    fn output(&self, input: StageSet) -> StageSet {
        input
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let circuit = input.into_reversible(self.name())?;
        let (simplified, _) = revopt::simplify(&circuit);
        Ok(Ir::Reversible(simplified))
    }
}

/// `rptm` — reversible-to-quantum mapping (reversible → quantum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rptm {
    /// Options of the Clifford+T mapping.
    pub options: map::MappingOptions,
}

impl Pass for Rptm {
    fn name(&self) -> &'static str {
        "rptm"
    }

    fn accepts(&self) -> StageSet {
        StageSet::REVERSIBLE
    }

    fn output(&self, _input: StageSet) -> StageSet {
        StageSet::QUANTUM
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let circuit = input.into_reversible(self.name())?;
        Ok(Ir::Quantum(map::to_clifford_t(&circuit, &self.options)?))
    }
}

/// `tpar` — T-count optimization by phase folding (quantum → quantum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tpar;

impl Pass for Tpar {
    fn name(&self) -> &'static str {
        "tpar"
    }

    fn accepts(&self) -> StageSet {
        StageSet::QUANTUM
    }

    fn output(&self, input: StageSet) -> StageSet {
        input
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let circuit = input.into_quantum(self.name())?;
        Ok(Ir::Quantum(optimize::optimize_clifford_t(&circuit)))
    }
}

/// `ps` — print statistics: passes the IR through unchanged and records a
/// statistics line into the [`PassRecord`](crate::PassRecord).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ps;

impl Pass for Ps {
    fn name(&self) -> &'static str {
        "ps"
    }

    fn accepts(&self) -> StageSet {
        StageSet::ANY
    }

    fn output(&self, input: StageSet) -> StageSet {
        input
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        Ok(input)
    }

    fn summarize(&self, output: &Ir, resources: Option<&ResourceCounts>) -> Option<String> {
        Some(resources.map_or_else(|| statistics(output), quantum_statistics))
    }
}

/// The `ps` statistics of one IR value, e.g. `quantum circuit: 5 qubits,
/// 183 gates, depth 126, T-count 69, T-depth 46, CNOTs 81`.
///
/// This is the one rendering of a stage's statistics: [`Ps::summarize`]
/// returns it, and the shell logs it after each pass command and on each
/// line of its `ps` command.
pub fn statistics(ir: &Ir) -> String {
    match ir {
        Ir::Permutation(p) => format!(
            "permutation on {} variables ({} fixed points)",
            p.num_vars(),
            p.fixed_points()
        ),
        Ir::Function(f) => format!(
            "boolean function on {} variables ({} ones)",
            f.num_vars(),
            f.count_ones()
        ),
        Ir::Reversible(c) => format!(
            "reversible circuit: {} lines, {} gates ({}), quantum cost {}",
            c.num_lines(),
            c.num_gates(),
            c.gate_profile(),
            c.quantum_cost()
        ),
        Ir::Quantum(c) => quantum_statistics(&ResourceCounts::of(c)),
        Ir::QasmSource(source) => format!(
            "openqasm source: {} bytes, {} lines",
            source.len(),
            source.lines().count()
        ),
    }
}

/// The `ps` statistics of a quantum circuit with these resource counts.
fn quantum_statistics(counts: &ResourceCounts) -> String {
    format!("quantum circuit: {}", counts.summary())
}

/// `qasmin` — OpenQASM 2.0 import (openqasm source → quantum), the front
/// door for circuits not generated by our own spec types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Qasmin;

impl Pass for Qasmin {
    fn name(&self) -> &'static str {
        "qasmin"
    }

    fn accepts(&self) -> StageSet {
        StageSet::QASM_SOURCE
    }

    fn output(&self, _input: StageSet) -> StageSet {
        StageSet::QUANTUM
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let source = input.into_qasm_source(self.name())?;
        Ok(Ir::Quantum(qasm::from_qasm(&source)?))
    }
}

/// `po` — direct phase-oracle compilation (function → quantum), the
/// `PhaseOracle` primitive of the paper's engine flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseOracle {
    /// Options of the phase-oracle compiler.
    pub options: PhaseOracleOptions,
}

impl PhaseOracle {
    /// A phase-oracle pass that decomposes multi-controlled phases into
    /// Clifford+T (the configuration of the one-call phase-function flow).
    pub fn decomposed() -> Self {
        Self {
            options: PhaseOracleOptions {
                minimize_esop: true,
                decompose: true,
            },
        }
    }
}

impl Pass for PhaseOracle {
    fn name(&self) -> &'static str {
        "po"
    }

    fn accepts(&self) -> StageSet {
        StageSet::FUNCTION
    }

    fn output(&self, _input: StageSet) -> StageSet {
        StageSet::QUANTUM
    }

    fn apply(&self, input: Ir) -> Result<Ir, FlowError> {
        let function = input.into_function(self.name())?;
        Ok(Ir::Quantum(phase_oracle::phase_oracle(
            &function,
            &self.options,
        )?))
    }
}

/// Resolves a tokenized statement (`name` plus `args`) into a pass — the
/// registry behind [`Pipeline::parse`](crate::Pipeline::parse).
///
/// # Errors
///
/// Returns [`FlowError::UnknownPass`] for unregistered names and
/// [`FlowError::InvalidPassArguments`] for malformed arguments.
pub fn pass_from_tokens(name: &str, args: &[String]) -> Result<Box<dyn Pass>, FlowError> {
    match name {
        "revgen" => Ok(Box::new(Revgen::from_args(args)?)),
        "tbs" => {
            no_arguments("tbs", args)?;
            Ok(Box::new(Tbs))
        }
        "dbs" => {
            no_arguments("dbs", args)?;
            Ok(Box::new(Dbs))
        }
        "esopbs" => {
            no_arguments("esopbs", args)?;
            Ok(Box::new(Esopbs::default()))
        }
        "revsimp" => {
            no_arguments("revsimp", args)?;
            Ok(Box::new(Revsimp))
        }
        "rptm" => {
            no_arguments("rptm", args)?;
            Ok(Box::new(Rptm::default()))
        }
        "tpar" => {
            no_arguments("tpar", args)?;
            Ok(Box::new(Tpar))
        }
        "ps" => {
            // `ps -c` (select the circuit stores) is accepted for
            // compatibility with the paper's shell syntax; the pipeline `ps`
            // always reports the current IR.
            if args.iter().any(|a| a != "-c") {
                return Err(FlowError::InvalidPassArguments {
                    pass: "ps".to_owned(),
                    message: format!("unexpected arguments: {}", args.join(" ")),
                });
            }
            Ok(Box::new(Ps))
        }
        "po" => {
            no_arguments("po", args)?;
            Ok(Box::new(PhaseOracle::decomposed()))
        }
        "qasmin" => {
            no_arguments("qasmin", args)?;
            Ok(Box::new(Qasmin))
        }
        other => Err(FlowError::UnknownPass {
            name: other.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revgen_argument_parsing_mirrors_the_shell() {
        let pass = Revgen::from_args(&[]).unwrap();
        assert!(!pass.is_generator());
        let args: Vec<String> = ["--hwb", "4"].iter().map(|s| (*s).to_owned()).collect();
        let pass = Revgen::from_args(&args).unwrap();
        assert!(pass.is_generator());
        assert_eq!(pass.describe(), "revgen --hwb 4");
        let args: Vec<String> = ["--expr", "(a & b) ^ c"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let pass = Revgen::from_args(&args).unwrap();
        assert_eq!(pass.output(StageSet::ANY), StageSet::FUNCTION);
        let args: Vec<String> = ["--frobnicate"].iter().map(|s| (*s).to_owned()).collect();
        assert!(matches!(
            Revgen::from_args(&args),
            Err(FlowError::InvalidPassArguments { .. })
        ));
    }

    #[test]
    fn revgen_rejects_stray_and_inconsistent_arguments() {
        let to_args =
            |tokens: &[&str]| -> Vec<String> { tokens.iter().map(|s| (*s).to_owned()).collect() };
        // A typo next to a valid mode is an error, not silently dropped.
        for tokens in [
            &["--hwb", "4", "--frobnicate", "1"][..],
            &["--random", "4", "--sed", "7"],
            &["--hwb", "4", "--hwb", "5"],
            &["--hwb"],
            &["--hwb", "4", "--perm", "0 1"],
            &["--seed", "7"],
            &["--vars", "3"],
            &["--hwb", "4", "--vars", "3"],
            // Sizes outside what a truth table can hold are typed errors,
            // not a panic (`--hwb 0`, `--hwb 25`) or an allocation abort
            // (`--random 40`) when the specification is generated.
            &["--hwb", "0"],
            &["--hwb", "25"],
            &["--random", "40"],
        ] {
            assert!(
                matches!(
                    Revgen::from_args(&to_args(tokens)),
                    Err(FlowError::InvalidPassArguments { .. })
                ),
                "{tokens:?}"
            );
        }
        // The documented combinations still parse, up to the size bounds.
        Revgen::from_args(&to_args(&["--random", "4", "--seed", "7"])).unwrap();
        Revgen::from_args(&to_args(&["--random", "0"])).unwrap();
        Revgen::from_args(&to_args(&["--hwb", "1"])).unwrap();
        Revgen::from_args(&to_args(&["--hwb", "24"])).unwrap();
        Revgen::from_args(&to_args(&["--expr", "a ^ b", "--vars", "5"])).unwrap();
    }

    #[test]
    fn registry_resolves_all_named_passes() {
        for name in [
            "revgen", "tbs", "dbs", "esopbs", "revsimp", "rptm", "tpar", "ps", "po", "qasmin",
        ] {
            let pass = pass_from_tokens(name, &[]).unwrap();
            assert_eq!(pass.name(), name);
        }
        assert!(matches!(
            pass_from_tokens("frobnicate", &[]),
            Err(FlowError::UnknownPass { .. })
        ));
        assert!(matches!(
            pass_from_tokens("tbs", &["--fast".to_owned()]),
            Err(FlowError::InvalidPassArguments { .. })
        ));
        // `ps -c` is accepted.
        pass_from_tokens("ps", &["-c".to_owned()]).unwrap();
    }

    #[test]
    fn passes_reject_wrong_stages_at_run_time() {
        let err = Tbs.apply(Ir::Quantum(qdaflow_quantum::QuantumCircuit::new(1)));
        assert!(matches!(err, Err(FlowError::StageMismatch { .. })));
        let err = Tpar.apply(Ir::Permutation(Permutation::identity(2)));
        assert!(matches!(err, Err(FlowError::StageMismatch { .. })));
    }

    #[test]
    fn ps_summarizes_every_stage() {
        for ir in [
            Ir::Permutation(Permutation::identity(2)),
            Ir::Function(TruthTable::zero(2).unwrap()),
            Ir::Reversible(qdaflow_reversible::ReversibleCircuit::new(2)),
            Ir::Quantum(qdaflow_quantum::QuantumCircuit::new(2)),
            Ir::QasmSource("qreg q[1];\nh q[0];".to_owned()),
        ] {
            assert!(Ps.summarize(&ir, None).is_some());
        }
    }

    #[test]
    fn qasmin_imports_source_and_rejects_other_stages() {
        let out = Qasmin
            .apply(Ir::QasmSource("qreg q[2];\nh q;\ncx q[0],q[1];".to_owned()))
            .unwrap();
        match out {
            Ir::Quantum(circuit) => assert_eq!(circuit.num_gates(), 3),
            other => panic!("expected a quantum circuit, got {other:?}"),
        }
        assert!(matches!(
            Qasmin.apply(Ir::Permutation(Permutation::identity(2))),
            Err(FlowError::StageMismatch { .. })
        ));
        assert!(matches!(
            Qasmin.apply(Ir::QasmSource("qreg q[1];\nbad".to_owned())),
            Err(FlowError::Quantum(_))
        ));
    }
}
