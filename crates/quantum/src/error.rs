//! Error types for the quantum circuit layer.

use std::error::Error;
use std::fmt;

/// Errors produced while building or executing quantum circuits.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantumError {
    /// A gate references a qubit outside of the circuit.
    QubitOutOfRange {
        /// The referenced qubit.
        qubit: usize,
        /// Number of qubits in the circuit.
        num_qubits: usize,
    },
    /// A gate references the same qubit more than once.
    DuplicateQubit {
        /// The duplicated qubit.
        qubit: usize,
    },
    /// Circuits with different qubit counts were combined.
    QubitCountMismatch {
        /// Qubit count of the left circuit.
        left: usize,
        /// Qubit count of the right circuit.
        right: usize,
    },
    /// The circuit is too large for the requested simulation.
    TooManyQubits {
        /// Requested number of qubits.
        requested: usize,
        /// Maximum supported by the simulator.
        maximum: usize,
    },
    /// A simulated state's support is too large to sample: its GF(2) rank
    /// (log₂ of the outcome count) is beyond the sampler's cap, past which
    /// one `f64` draw per shot cannot reach every outcome. Reported by the
    /// stabilizer backend, whose register may be far wider than the rank.
    SupportTooLarge {
        /// The support's rank.
        rank: usize,
        /// The largest rank the sampler accepts.
        maximum: usize,
    },
    /// A noise or execution parameter is outside of its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Failure while parsing an OpenQASM program.
    ParseQasmError {
        /// Line number (1-based) at which parsing failed (0 when the failure
        /// has no location, e.g. an empty program).
        line: usize,
        /// Column number (1-based) at which parsing failed (0 when the
        /// failure has no location).
        column: usize,
        /// Human readable description of the failure.
        message: String,
    },
    /// A gate was handed to an operation that does not support its shape
    /// (for example, requesting the 2×2 matrix of a multi-qubit gate).
    UnsupportedGate {
        /// The gate's mnemonic (see [`QuantumGate::name`](crate::QuantumGate::name)).
        gate: &'static str,
        /// The operation that rejected it.
        operation: &'static str,
    },
}

impl fmt::Display for QuantumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} is out of range for a circuit on {num_qubits} qubits"
                )
            }
            Self::DuplicateQubit { qubit } => {
                write!(f, "qubit {qubit} is used more than once by the same gate")
            }
            Self::QubitCountMismatch { left, right } => {
                write!(
                    f,
                    "circuits have mismatched qubit counts ({left} vs {right})"
                )
            }
            Self::TooManyQubits { requested, maximum } => write!(
                f,
                "simulation of {requested} qubits exceeds the supported maximum of {maximum}"
            ),
            Self::SupportTooLarge { rank, maximum } => write!(
                f,
                "the state's support has rank {rank} (2^{rank} outcomes), beyond the sampling cap of rank {maximum}"
            ),
            Self::InvalidParameter { name, value } => {
                write!(f, "parameter {name} has invalid value {value}")
            }
            Self::ParseQasmError {
                line,
                column,
                message,
            } => {
                write!(
                    f,
                    "qasm parse error at line {line}, column {column}: {message}"
                )
            }
            Self::UnsupportedGate { gate, operation } => {
                write!(f, "gate '{gate}' is not supported by {operation}")
            }
        }
    }
}

impl Error for QuantumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = QuantumError::QubitOutOfRange {
            qubit: 5,
            num_qubits: 3,
        };
        assert!(err.to_string().contains('5'));
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantumError>();
    }
}
