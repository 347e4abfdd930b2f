//! Convenience re-exports of the most commonly used types of the flow.

pub use qdaflow_boolfn::{
    bent::{InnerProduct, MaioranaMcFarland},
    Expr, Permutation, TruthTable,
};
pub use qdaflow_engine::{
    BackendChoice, BatchEngine, BatchJob, DiskCache, JobId, JobService, JobServiceConfig,
    JobStatus, Journal, MainEngine, OracleCache, OracleSpec, Qubit, SynthesisChoice,
};
pub use qdaflow_mapping::map::MappingOptions;
pub use qdaflow_pipeline::{FlowError, Ir, Pass, Pipeline, PipelineReport, Stage, StageSet};
pub use qdaflow_quantum::{
    backend::{Backend, ExecutionResult, NoisyHardwareBackend, StatevectorBackend},
    fusion::ExecConfig,
    noise::NoiseModel,
    reference::{DenseReference, DenseReferenceBackend},
    resource::ResourceCounts,
    QuantumCircuit, QuantumGate,
};
pub use qdaflow_reversible::{MctGate, ReversibleCircuit};
pub use qdaflow_revkit::Shell;
pub use qdaflow_sparse::{SparseBackend, SparseStatevector};
pub use qdaflow_stabilizer::{StabilizerBackend, StabilizerTableau};

pub use crate::classical::ClassicalSolver;
pub use crate::flow::{
    compile_permutation, compile_phase_function, equation5_pipeline, CompilationReport,
};
pub use crate::hidden_shift::{HiddenShiftInstance, HiddenShiftOutcome, OracleStyle};

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_are_usable() {
        use super::*;
        let _ = Permutation::identity(2);
        let _ = QuantumCircuit::new(1);
        let _ = NoiseModel::noiseless();
        let _ = MappingOptions::default();
        let _ = SynthesisChoice::default();
        let _ = ExecConfig::default();
        let _ = DenseReference::new(1);
        let _ = SparseStatevector::new(32);
        let _ = SparseBackend::seeded(1);
        let _ = StabilizerTableau::new(4).unwrap();
        let _ = StabilizerBackend::seeded(1);
        let _ = BackendChoice::Sparse;
        let _ = BackendChoice::Auto;
        let _ = BatchEngine::new();
        let _ = OracleSpec::permutation(Permutation::identity(2), SynthesisChoice::default());
        let _ = JobServiceConfig::default();
        let _ = JobStatus::Queued;
        let _ = Pipeline::parse("revgen --hwb 3; tbs; ps").unwrap();
        let _ = equation5_pipeline(Default::default());
    }
}
