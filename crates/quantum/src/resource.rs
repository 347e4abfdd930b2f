//! Resource estimation for quantum circuits.
//!
//! The ProjectQ flow of the paper supports a "resource counter" backend that
//! reports gate counts without simulating the circuit; this module provides
//! the same functionality for the Rust flow, including the Clifford+T
//! figures of merit (T-count, T-depth, CNOT count) used throughout the
//! reversible-synthesis literature the paper builds on.

use crate::circuit::Layers;
use crate::gate::GATE_NAMES;
use crate::{QuantumCircuit, QuantumGate};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate resource counts of a circuit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceCounts {
    /// Number of qubits of the circuit.
    pub num_qubits: usize,
    /// Total number of gates.
    pub total_gates: usize,
    /// Number of T and T† gates.
    pub t_count: usize,
    /// T-depth (layers of parallel T gates).
    pub t_depth: usize,
    /// Number of Hadamard gates.
    pub h_count: usize,
    /// Number of CNOT gates.
    pub cnot_count: usize,
    /// Number of gates acting on two or more qubits.
    pub multi_qubit_gates: usize,
    /// Overall circuit depth.
    pub depth: usize,
    /// Histogram of gate mnemonics.
    pub by_gate: BTreeMap<&'static str, usize>,
}

impl ResourceCounts {
    /// Computes resource counts for a circuit.
    ///
    /// One pass over the gates schedules depth and T-depth side by side
    /// (the same layering as [`QuantumCircuit::depth`] and
    /// [`QuantumCircuit::t_depth`]) and counts gates per variant; the
    /// `by_gate` map is built once from those counts. Nothing is allocated
    /// per gate, except the qubit list of a multiple-controlled gate.
    pub fn of(circuit: &QuantumCircuit) -> Self {
        let mut depth = Layers::new(circuit.num_qubits());
        let mut t_depth = Layers::new(circuit.num_qubits());
        let mut per_kind = [0usize; GATE_NAMES.len()];
        let mut counts = Self {
            num_qubits: circuit.num_qubits(),
            total_gates: circuit.num_gates(),
            ..Self::default()
        };
        for gate in circuit {
            let qubits = gate.qubits();
            let t_count = gate.t_count();
            depth.place(&qubits, 1);
            t_depth.place(&qubits, usize::from(t_count > 0));
            counts.t_count += t_count;
            counts.multi_qubit_gates += usize::from(qubits.len() >= 2);
            per_kind[gate.kind()] += 1;
            match gate {
                QuantumGate::H(_) => counts.h_count += 1,
                QuantumGate::Cx { .. } => counts.cnot_count += 1,
                _ => {}
            }
        }
        counts.depth = depth.depth();
        counts.t_depth = t_depth.depth();
        counts.by_gate = GATE_NAMES
            .into_iter()
            .zip(per_kind)
            .filter(|&(_, count)| count > 0)
            .collect();
        counts
    }

    /// A compact one-line rendering of the headline figures of merit, used
    /// by pipeline reports and benchmark printouts.
    pub fn summary(&self) -> String {
        format!(
            "{} qubits, {} gates, depth {}, T-count {}, T-depth {}, CNOTs {}",
            self.num_qubits,
            self.total_gates,
            self.depth,
            self.t_count,
            self.t_depth,
            self.cnot_count
        )
    }

    /// Number of Clifford gates (total minus T gates, counting undecomposed
    /// multi-controlled gates as non-Clifford).
    pub fn clifford_count(&self) -> usize {
        let non_clifford_multi = self
            .by_gate
            .iter()
            .filter(|(name, _)| matches!(**name, "ccx" | "mcx"))
            .map(|(_, count)| count)
            .sum::<usize>();
        self.total_gates - self.t_count - non_clifford_multi
    }
}

impl fmt::Display for ResourceCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "qubits:        {}", self.num_qubits)?;
        writeln!(f, "gates:         {}", self.total_gates)?;
        writeln!(f, "depth:         {}", self.depth)?;
        writeln!(f, "T-count:       {}", self.t_count)?;
        writeln!(f, "T-depth:       {}", self.t_depth)?;
        writeln!(f, "H-count:       {}", self.h_count)?;
        writeln!(f, "CNOT-count:    {}", self.cnot_count)?;
        writeln!(f, "2+ qubit gates: {}", self.multi_qubit_gates)?;
        let breakdown: Vec<String> = self
            .by_gate
            .iter()
            .map(|(name, count)| format!("{name}: {count}"))
            .collect();
        writeln!(f, "by gate:       {}", breakdown.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_circuit() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(3);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::T(0)).unwrap();
        circuit.push(QuantumGate::Tdg(1)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 1,
                target: 2,
            })
            .unwrap();
        circuit.push(QuantumGate::S(2)).unwrap();
        circuit
    }

    #[test]
    fn counts_match_circuit_contents() {
        let counts = ResourceCounts::of(&sample_circuit());
        assert_eq!(counts.num_qubits, 3);
        assert_eq!(counts.total_gates, 6);
        assert_eq!(counts.t_count, 2);
        assert_eq!(counts.h_count, 1);
        assert_eq!(counts.cnot_count, 2);
        assert_eq!(counts.multi_qubit_gates, 2);
        assert_eq!(counts.by_gate["cx"], 2);
        assert_eq!(counts.by_gate["t"], 1);
        assert_eq!(counts.by_gate["tdg"], 1);
        assert_eq!(counts.clifford_count(), 4);
    }

    #[test]
    fn one_pass_counts_match_the_circuit_methods() {
        let mut circuit = sample_circuit().extended_to(5);
        circuit.push(QuantumGate::Y(4)).unwrap();
        circuit
            .push(QuantumGate::Mcx {
                controls: vec![0, 1, 3],
                target: 4,
            })
            .unwrap();
        circuit
            .push(QuantumGate::Rz {
                qubit: 3,
                angle: 3.0 * std::f64::consts::FRAC_PI_4,
            })
            .unwrap();
        circuit.push(QuantumGate::T(4)).unwrap();
        circuit.push(QuantumGate::Swap { a: 2, b: 3 }).unwrap();
        let counts = ResourceCounts::of(&circuit);
        assert_eq!(counts.depth, circuit.depth());
        assert_eq!(counts.t_depth, circuit.t_depth());
        assert_eq!(counts.t_count, circuit.t_count());
        assert_eq!(counts.multi_qubit_gates, circuit.multi_qubit_count());
        assert_eq!(counts.by_gate, circuit.gate_counts());
        assert_eq!(counts.t_count, 4);
    }

    #[test]
    fn empty_circuit_has_zero_counts() {
        let counts = ResourceCounts::of(&QuantumCircuit::new(2));
        assert_eq!(counts.total_gates, 0);
        assert_eq!(counts.depth, 0);
        assert_eq!(counts.t_depth, 0);
        assert!(counts.by_gate.is_empty());
    }

    #[test]
    fn toffoli_is_not_counted_as_clifford() {
        let mut circuit = QuantumCircuit::new(3);
        circuit
            .push(QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            })
            .unwrap();
        circuit.push(QuantumGate::H(0)).unwrap();
        let counts = ResourceCounts::of(&circuit);
        assert_eq!(counts.clifford_count(), 1);
    }

    #[test]
    fn display_mentions_t_count() {
        let text = ResourceCounts::of(&sample_circuit()).to_string();
        assert!(text.contains("T-count:       2"));
        assert!(text.contains("cx: 2"));
    }
}
