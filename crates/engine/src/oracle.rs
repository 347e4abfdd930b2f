//! Oracle compilation for the engine: `PhaseOracle` and `PermutationOracle`.
//!
//! These are the two RevKit-backed primitives the paper's ProjectQ programs
//! use (`projectq.libs.revkit.PhaseOracle` / `PermutationOracle`). They
//! compile a Boolean specification into a quantum sub-circuit over a local
//! register `0..k` (plus ancillas at the end), which the engine then relabels
//! onto the caller's qubits.

use crate::EngineError;
use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_mapping::phase_oracle::PhaseOracleOptions;
use qdaflow_pipeline::passes::{synthesis_pass, PhaseOracle, Revsimp, Rptm};
use qdaflow_pipeline::Pipeline;
use qdaflow_quantum::QuantumCircuit;
use qdaflow_reversible::synthesis::SynthesisMethod;

/// Which reversible synthesis algorithm a `PermutationOracle` should use,
/// mirroring the `synth=revkit.dbs` keyword of the paper's Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SynthesisChoice {
    /// Transformation-based synthesis (RevKit's `tbs`, the default).
    #[default]
    TransformationBased,
    /// Decomposition-based synthesis (RevKit's `dbs`).
    DecompositionBased,
}

impl SynthesisChoice {
    fn method(self) -> SynthesisMethod {
        match self {
            Self::TransformationBased => SynthesisMethod::TransformationBased,
            Self::DecompositionBased => SynthesisMethod::DecompositionBased,
        }
    }
}

/// Compiles the diagonal phase oracle `U_f` of a Boolean function over a
/// local register of `function.num_vars()` qubits.
///
/// Routed through the pass-manager pipeline (`po`) so the engine and the
/// one-call flows share a single compilation path.
///
/// # Errors
///
/// Propagates failures of the underlying phase-oracle compiler.
pub fn compile_phase_oracle(function: &TruthTable) -> Result<QuantumCircuit, EngineError> {
    let pipeline = Pipeline::builder()
        .then(PhaseOracle {
            options: PhaseOracleOptions::default(),
        })
        .build()?;
    let report = pipeline.run(function.clone().into())?;
    Ok(report
        .output
        .into_quantum("po")
        .expect("the po pipeline ends at a quantum circuit"))
}

/// Compiles a permutation oracle (the unitary `|x⟩ → |π(x)⟩`) over a local
/// register of `permutation.num_vars()` qubits (plus ancillas appended at the
/// end when large multiple-controlled gates require them).
///
/// Routed through the pass-manager pipeline (`tbs`/`dbs`; `revsimp`;
/// `rptm`), the oracle-compilation prefix of the paper's equation (5).
///
/// # Errors
///
/// Propagates synthesis and mapping failures.
pub fn compile_permutation_oracle(
    permutation: &Permutation,
    synthesis: SynthesisChoice,
) -> Result<QuantumCircuit, EngineError> {
    let pipeline = Pipeline::builder()
        .then_boxed(synthesis_pass(synthesis.method()))
        .then(Revsimp)
        .then(Rptm::default())
        .build()?;
    let report = pipeline.run(permutation.clone().into())?;
    Ok(report
        .output
        .into_quantum("rptm")
        .expect("the oracle pipeline ends at a quantum circuit"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_boolfn::Expr;
    use qdaflow_mapping::phase_oracle;
    use qdaflow_sparse::SparseStatevector;

    #[test]
    fn phase_oracle_for_paper_function() {
        let f = Expr::parse("(a & b) ^ (c & d)")
            .unwrap()
            .truth_table(4)
            .unwrap();
        let oracle = compile_phase_oracle(&f).unwrap();
        assert!(phase_oracle::oracle_matches_function(&oracle, &f));
    }

    #[test]
    fn permutation_oracle_realizes_the_permutation() {
        let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
        for choice in [
            SynthesisChoice::TransformationBased,
            SynthesisChoice::DecompositionBased,
        ] {
            let oracle = compile_permutation_oracle(&pi, choice).unwrap();
            for basis in 0..8usize {
                let mut state =
                    SparseStatevector::basis_state(oracle.num_qubits(), basis as u64).unwrap();
                state.apply_circuit(&oracle);
                assert!(
                    state.probability_of(pi.apply(basis) as u64) > 1.0 - 1e-9,
                    "{choice:?} basis {basis}"
                );
            }
        }
    }

    #[test]
    fn default_choice_is_transformation_based() {
        assert_eq!(
            SynthesisChoice::default(),
            SynthesisChoice::TransformationBased
        );
    }
}
