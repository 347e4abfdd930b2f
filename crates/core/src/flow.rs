//! One-call compilation flow: from a Boolean specification to an optimized
//! Clifford+T circuit with a compilation report.
//!
//! This is the programmatic equivalent of the shell pipeline of equation (5)
//! of the paper (`revgen; tbs; revsimp; rptm; tpar; ps`), exposed as a single
//! function per specification kind. Since the pass-manager redesign these
//! functions are thin wrappers over canned [`Pipeline`]s — the same objects
//! [`Pipeline::parse`] produces from the paper's shell syntax — with their
//! historical signatures and outputs preserved.

use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_engine::EngineError;
use qdaflow_pipeline::passes::{synthesis_pass, Esopbs, PhaseOracle, Ps, Revsimp, Rptm, Tpar};
use qdaflow_pipeline::{Pipeline, PipelineReport};
use qdaflow_quantum::{resource::ResourceCounts, QuantumCircuit};
use qdaflow_reversible::synthesis::SynthesisMethod;

/// A report describing every stage of a compilation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilationReport {
    /// Gates of the reversible circuit right after synthesis.
    pub reversible_gates: usize,
    /// Gates of the reversible circuit after `revsimp`.
    pub simplified_gates: usize,
    /// Resource counts of the mapped Clifford+T circuit before `tpar`.
    pub mapped: ResourceCounts,
    /// Resource counts after T-count optimization.
    pub optimized: ResourceCounts,
    /// The final circuit.
    pub circuit: QuantumCircuit,
}

impl CompilationReport {
    /// T-count reduction achieved by the optimization stage.
    pub fn t_count_saving(&self) -> usize {
        self.mapped.t_count.saturating_sub(self.optimized.t_count)
    }
}

/// The canned pipeline of equation (5) for a permutation specification:
/// `tbs`/`dbs`; `revsimp`; `rptm`; `tpar`; `ps` — what
/// [`compile_permutation`] runs, exposed so callers can inspect, extend or
/// rehearse it (for example via
/// [`Pipeline::pass_names`]).
pub fn equation5_pipeline(method: SynthesisMethod) -> Pipeline {
    Pipeline::builder()
        .then_boxed(synthesis_pass(method))
        .then(Revsimp)
        .then(Rptm::default())
        .then(Tpar)
        .then(Ps)
        .build()
        .expect("the canned equation (5) pipeline is statically valid")
}

fn missing_record(pass: &str) -> EngineError {
    EngineError::Flow {
        message: format!("canned pipeline did not record the '{pass}' pass"),
    }
}

fn require_gates(report: &PipelineReport, pass: &str) -> Result<usize, EngineError> {
    report.gates_after(pass).ok_or_else(|| missing_record(pass))
}

fn require_resources(report: &PipelineReport, pass: &str) -> Result<ResourceCounts, EngineError> {
    report
        .resources_after(pass)
        .cloned()
        .ok_or_else(|| missing_record(pass))
}

fn require_circuit(report: &PipelineReport) -> Result<QuantumCircuit, EngineError> {
    report
        .final_quantum()
        .cloned()
        .ok_or_else(|| missing_record("final quantum"))
}

/// Compiles a permutation (reversible specification) down to an optimized
/// Clifford+T circuit: synthesis → simplification → mapping → T optimization.
///
/// Thin wrapper over the canned [`equation5_pipeline`]; output is identical
/// to running that pipeline (or `Pipeline::parse` of the paper's script) on
/// the permutation.
///
/// # Errors
///
/// Propagates synthesis and mapping errors (for example, a specification that
/// is too large for explicit synthesis).
pub fn compile_permutation(
    permutation: &Permutation,
    method: SynthesisMethod,
) -> Result<CompilationReport, EngineError> {
    let pipeline = equation5_pipeline(method);
    let report = pipeline
        .run(permutation.clone().into())
        .map_err(EngineError::from)?;
    Ok(CompilationReport {
        reversible_gates: require_gates(&report, method.command_name())?,
        simplified_gates: require_gates(&report, "revsimp")?,
        mapped: require_resources(&report, "rptm")?,
        optimized: require_resources(&report, "tpar")?,
        circuit: require_circuit(&report)?,
    })
}

/// Compiles a single-output Boolean function into an optimized diagonal phase
/// oracle (the `PhaseOracle` path), with multi-controlled phases decomposed
/// into Clifford+T.
///
/// Runs two canned pipelines: `esopbs; revsimp` for the Bennett-embedding
/// statistics of the report (the "reversible" stage, one Toffoli per ESOP
/// cube), and `po; tpar` for the final decomposed phase oracle.
///
/// # Errors
///
/// Propagates ESOP extraction and mapping errors.
pub fn compile_phase_function(function: &TruthTable) -> Result<CompilationReport, EngineError> {
    let embedding = Pipeline::builder()
        .then(Esopbs::default())
        .then(Revsimp)
        .build()
        .expect("the embedding pipeline is statically valid")
        .run(function.clone().into())
        .map_err(EngineError::from)?;
    let oracle = Pipeline::builder()
        .then(PhaseOracle::decomposed())
        .then(Tpar)
        .build()
        .expect("the oracle pipeline is statically valid")
        .run(function.clone().into())
        .map_err(EngineError::from)?;
    Ok(CompilationReport {
        reversible_gates: require_gates(&embedding, "esopbs")?,
        simplified_gates: require_gates(&embedding, "revsimp")?,
        mapped: require_resources(&oracle, "po")?,
        optimized: require_resources(&oracle, "tpar")?,
        circuit: require_circuit(&oracle)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_boolfn::Expr;
    use qdaflow_mapping::phase_oracle;
    use qdaflow_sparse::SparseStatevector;

    #[test]
    fn compile_permutation_produces_a_correct_clifford_t_circuit() {
        let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
        for method in [
            SynthesisMethod::TransformationBased,
            SynthesisMethod::DecompositionBased,
        ] {
            let report = compile_permutation(&pi, method).unwrap();
            assert!(report.circuit.is_clifford_t());
            assert!(report.optimized.t_count <= report.mapped.t_count);
            assert!(report.simplified_gates <= report.reversible_gates);
            for basis in 0..8usize {
                let mut state =
                    SparseStatevector::basis_state(report.circuit.num_qubits(), basis as u64)
                        .unwrap();
                state.apply_circuit(&report.circuit);
                assert!(
                    state.probability_of(pi.apply(basis) as u64) > 1.0 - 1e-9,
                    "{method:?} basis {basis}"
                );
            }
        }
    }

    #[test]
    fn compile_phase_function_matches_the_function() {
        let f = Expr::parse("(a & b) ^ (c & d) ^ (a & c & d)")
            .unwrap()
            .truth_table(4)
            .unwrap();
        let report = compile_phase_function(&f).unwrap();
        assert!(report.circuit.is_clifford_t());
        assert!(phase_oracle::oracle_matches_function(&report.circuit, &f));
        assert!(report.t_count_saving() <= report.mapped.t_count);
    }

    #[test]
    fn identity_permutation_compiles_to_an_empty_circuit() {
        let report = compile_permutation(
            &Permutation::identity(3),
            SynthesisMethod::TransformationBased,
        )
        .unwrap();
        assert_eq!(report.optimized.total_gates, 0);
        assert_eq!(report.t_count_saving(), 0);
    }
}
