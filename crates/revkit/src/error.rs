//! Error types for the RevKit-style shell.

use qdaflow_boolfn::BoolfnError;
use qdaflow_engine::EngineError;
use qdaflow_mapping::MappingError;
use qdaflow_pipeline::{FlowError, ScriptError, StageSet};
use qdaflow_quantum::QuantumError;
use qdaflow_reversible::ReversibleError;
use std::error::Error;
use std::fmt;

/// Errors produced while parsing or executing shell commands.
#[derive(Debug, Clone, PartialEq)]
pub enum RevkitError {
    /// The command name is not registered.
    UnknownCommand {
        /// The offending command name.
        name: String,
    },
    /// A command was called with malformed arguments.
    InvalidArguments {
        /// The command name.
        command: &'static str,
        /// Description of the problem.
        message: String,
    },
    /// A command needs data that is not yet in the store (for example `tbs`
    /// before `revgen`). The message names the stages it would accept, e.g.
    /// "command 'tbs' requires a permutation in the store".
    MissingStoreEntry {
        /// The command that failed.
        command: &'static str,
        /// The stages of the store entries the command could have used.
        expected: StageSet,
    },
    /// An error from the Boolean function substrate.
    Boolfn(BoolfnError),
    /// An error from the reversible circuit layer.
    Reversible(ReversibleError),
    /// An error from the quantum circuit layer.
    Quantum(QuantumError),
    /// An error from the mapping layer.
    Mapping(MappingError),
    /// A lexing error in the shell script itself (e.g. an unterminated
    /// double quote).
    Script(ScriptError),
    /// A structural engine error (e.g. from the batch execution subsystem)
    /// degraded to its rendered message.
    Engine {
        /// Rendered engine error message.
        message: String,
    },
}

impl fmt::Display for RevkitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownCommand { name } => write!(f, "unknown command '{name}'"),
            Self::InvalidArguments { command, message } => {
                write!(f, "invalid arguments for '{command}': {message}")
            }
            Self::MissingStoreEntry { command, expected } => {
                write!(f, "command '{command}' requires a {expected} in the store")
            }
            Self::Boolfn(inner) => write!(f, "{inner}"),
            Self::Reversible(inner) => write!(f, "{inner}"),
            Self::Quantum(inner) => write!(f, "{inner}"),
            Self::Mapping(inner) => write!(f, "{inner}"),
            Self::Script(inner) => write!(f, "{inner}"),
            Self::Engine { message } => f.write_str(message),
        }
    }
}

impl Error for RevkitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Boolfn(inner) => Some(inner),
            Self::Reversible(inner) => Some(inner),
            Self::Quantum(inner) => Some(inner),
            Self::Mapping(inner) => Some(inner),
            Self::Script(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<BoolfnError> for RevkitError {
    fn from(inner: BoolfnError) -> Self {
        Self::Boolfn(inner)
    }
}

impl From<ReversibleError> for RevkitError {
    fn from(inner: ReversibleError) -> Self {
        Self::Reversible(inner)
    }
}

impl From<QuantumError> for RevkitError {
    fn from(inner: QuantumError) -> Self {
        Self::Quantum(inner)
    }
}

impl From<MappingError> for RevkitError {
    fn from(inner: MappingError) -> Self {
        Self::Mapping(inner)
    }
}

impl From<ScriptError> for RevkitError {
    fn from(inner: ScriptError) -> Self {
        Self::Script(inner)
    }
}

impl From<EngineError> for RevkitError {
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

impl From<FlowError> for RevkitError {
    fn from(inner: FlowError) -> Self {
        match inner {
            FlowError::Boolfn(e) => Self::Boolfn(e),
            FlowError::Reversible(e) => Self::Reversible(e),
            FlowError::Quantum(e) => Self::Quantum(e),
            FlowError::Mapping(e) => Self::Mapping(e),
            FlowError::Script(e) => Self::Script(e),
            other => Self::InvalidArguments {
                command: "flow",
                message: other.to_string(),
            },
        }
    }
}

impl From<RevkitError> for FlowError {
    fn from(inner: RevkitError) -> Self {
        match inner {
            RevkitError::Boolfn(e) => Self::Boolfn(e),
            RevkitError::Reversible(e) => Self::Reversible(e),
            RevkitError::Quantum(e) => Self::Quantum(e),
            RevkitError::Mapping(e) => Self::Mapping(e),
            RevkitError::Script(e) => Self::Script(e),
            other => Self::Shell {
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(RevkitError::UnknownCommand {
            name: "foo".to_owned()
        }
        .to_string()
        .contains("foo"));
        let err: RevkitError = BoolfnError::NotBent.into();
        assert!(matches!(err, RevkitError::Boolfn(_)));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RevkitError>();
    }

    #[test]
    fn flow_errors_bridge_both_ways() {
        let err: RevkitError = FlowError::UnknownPass {
            name: "frobnicate".to_owned(),
        }
        .into();
        assert!(matches!(
            err,
            RevkitError::InvalidArguments {
                command: "flow",
                ..
            }
        ));
        let err: RevkitError = FlowError::Boolfn(BoolfnError::NotBent).into();
        assert!(matches!(err, RevkitError::Boolfn(_)));
        let err: FlowError = RevkitError::UnknownCommand {
            name: "nope".to_owned(),
        }
        .into();
        assert!(matches!(err, FlowError::Shell { .. }));
        let err: FlowError = RevkitError::Boolfn(BoolfnError::NotBent).into();
        assert!(matches!(err, FlowError::Boolfn(_)));
        // Script lexing errors survive both bridges structurally.
        let script = ScriptError::UnterminatedQuote { position: 7 };
        let err: RevkitError = FlowError::Script(script.clone()).into();
        assert!(matches!(err, RevkitError::Script(_)));
        let err: FlowError = RevkitError::Script(script).into();
        assert!(matches!(
            err,
            FlowError::Script(ScriptError::UnterminatedQuote { position: 7 })
        ));
    }

    #[test]
    fn engine_errors_bridge_into_shell_errors() {
        let err: RevkitError =
            EngineError::Quantum(QuantumError::DuplicateQubit { qubit: 3 }).into();
        assert!(matches!(err, RevkitError::Quantum(_)));
        let err: RevkitError = EngineError::InvalidComputeSection.into();
        assert!(matches!(err, RevkitError::Engine { .. }));
        assert!(err.to_string().contains("compute"));
    }
}
