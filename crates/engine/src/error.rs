//! Error types for the engine crate.

use qdaflow_boolfn::BoolfnError;
use qdaflow_mapping::MappingError;
use qdaflow_pipeline::FlowError;
use qdaflow_quantum::QuantumError;
use qdaflow_reversible::ReversibleError;
use std::error::Error;
use std::fmt;

/// Errors produced by the ProjectQ-style engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A qubit handle does not belong to this engine.
    ForeignQubit {
        /// The offending qubit index.
        index: usize,
        /// Number of qubits currently allocated.
        allocated: usize,
    },
    /// The oracle specification does not match the provided register size.
    RegisterSizeMismatch {
        /// Number of qubits the oracle needs.
        expected: usize,
        /// Number of qubits that were provided.
        provided: usize,
    },
    /// A compute section was closed twice or belongs to a different engine
    /// state.
    InvalidComputeSection,
    /// An error from the Boolean function substrate.
    Boolfn(BoolfnError),
    /// An error from the reversible layer.
    Reversible(ReversibleError),
    /// An error from the quantum layer.
    Quantum(QuantumError),
    /// An error from the mapping layer.
    Mapping(MappingError),
    /// A pipeline-structural error (an invalid pass order or a stage
    /// mismatch) surfaced while an engine primitive ran a compilation
    /// pipeline.
    Flow {
        /// Rendered pipeline error message.
        message: String,
    },
    /// An unrecognized backend name was passed to
    /// [`BackendChoice::parse`](crate::BackendChoice::parse) (e.g. through
    /// the shell's `backend` command).
    UnknownBackend {
        /// The rejected name.
        name: String,
    },
    /// A job's compilation or execution panicked. The panic is caught at the
    /// job boundary ([`BatchEngine`](crate::BatchEngine) workers and
    /// [`JobService`](crate::JobService) executors run every job under
    /// `catch_unwind`), so one crashing job can never take down its batch
    /// siblings or the service's worker threads.
    JobPanicked {
        /// The panic payload, rendered to text when it was a string.
        message: String,
    },
    /// A batch job requested zero measurement shots — a validation error at
    /// both [`BatchEngine::run_batch`](crate::BatchEngine::run_batch) and
    /// [`JobService::submit`](crate::JobService::submit), rather than an
    /// untested edge through the CDF sampler.
    ZeroShots {
        /// Index of the offending job within its batch (`0` for single-job
        /// submissions).
        index: usize,
    },
    /// A queued job was cancelled via
    /// [`JobService::cancel`](crate::JobService::cancel) before it ran (or
    /// between retry attempts).
    JobCancelled,
    /// An I/O failure in the persistence layer (journal open/append, disk
    /// cache directory creation). Best-effort paths (disk-cache entry reads
    /// and writes) degrade to misses instead of surfacing this.
    Io {
        /// What was being done (e.g. `"open journal '/tmp/j'"`).
        context: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ForeignQubit { index, allocated } => write!(
                f,
                "qubit {index} does not belong to this engine ({allocated} qubits allocated)"
            ),
            Self::RegisterSizeMismatch { expected, provided } => write!(
                f,
                "oracle expects a register of {expected} qubits but {provided} were provided"
            ),
            Self::InvalidComputeSection => write!(f, "compute section is not valid for uncompute"),
            Self::Boolfn(inner) => write!(f, "{inner}"),
            Self::Reversible(inner) => write!(f, "{inner}"),
            Self::Quantum(inner) => write!(f, "{inner}"),
            Self::Mapping(inner) => write!(f, "{inner}"),
            Self::Flow { message } => f.write_str(message),
            Self::UnknownBackend { name } => write!(
                f,
                "unknown backend '{name}': expected one of dense, sparse, stabilizer, auto"
            ),
            Self::JobPanicked { message } => write!(f, "job panicked: {message}"),
            Self::ZeroShots { index } => {
                write!(f, "job {index} requests zero measurement shots")
            }
            Self::JobCancelled => write!(f, "job was cancelled before it ran"),
            Self::Io { context, message } => write!(f, "i/o error: {context}: {message}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Boolfn(inner) => Some(inner),
            Self::Reversible(inner) => Some(inner),
            Self::Quantum(inner) => Some(inner),
            Self::Mapping(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<BoolfnError> for EngineError {
    fn from(inner: BoolfnError) -> Self {
        Self::Boolfn(inner)
    }
}

impl From<ReversibleError> for EngineError {
    fn from(inner: ReversibleError) -> Self {
        Self::Reversible(inner)
    }
}

impl From<QuantumError> for EngineError {
    fn from(inner: QuantumError) -> Self {
        Self::Quantum(inner)
    }
}

impl From<MappingError> for EngineError {
    fn from(inner: MappingError) -> Self {
        Self::Mapping(inner)
    }
}

impl From<FlowError> for EngineError {
    fn from(inner: FlowError) -> Self {
        match inner {
            FlowError::Boolfn(e) => Self::Boolfn(e),
            FlowError::Reversible(e) => Self::Reversible(e),
            FlowError::Quantum(e) => Self::Quantum(e),
            FlowError::Mapping(e) => Self::Mapping(e),
            other => Self::Flow {
                message: other.to_string(),
            },
        }
    }
}

impl From<EngineError> for FlowError {
    fn from(inner: EngineError) -> Self {
        match inner {
            EngineError::Boolfn(e) => Self::Boolfn(e),
            EngineError::Reversible(e) => Self::Reversible(e),
            EngineError::Quantum(e) => Self::Quantum(e),
            EngineError::Mapping(e) => Self::Mapping(e),
            other => Self::Engine {
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let err: EngineError = QuantumError::DuplicateQubit { qubit: 1 }.into();
        assert!(matches!(err, EngineError::Quantum(_)));
        assert!(EngineError::InvalidComputeSection
            .to_string()
            .contains("compute"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }

    #[test]
    fn flow_errors_round_trip_through_engine_errors() {
        // Typed lower-layer errors survive both directions.
        let flow: FlowError =
            EngineError::Quantum(QuantumError::DuplicateQubit { qubit: 7 }).into();
        assert!(matches!(flow, FlowError::Quantum(_)));
        let engine: EngineError =
            FlowError::Quantum(QuantumError::DuplicateQubit { qubit: 7 }).into();
        assert!(matches!(engine, EngineError::Quantum(_)));
        // Structural errors degrade to rendered messages.
        let flow: FlowError = EngineError::InvalidComputeSection.into();
        assert!(matches!(flow, FlowError::Engine { .. }));
        let engine: EngineError = FlowError::EmptyPipeline.into();
        assert!(matches!(engine, EngineError::Flow { .. }));
        assert!(engine.to_string().contains("pipeline"));
    }
}
