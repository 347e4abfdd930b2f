//! Quantum circuits as ordered gate lists.

use crate::{QuantumError, QuantumGate};
use std::collections::BTreeMap;
use std::fmt;

/// A quantum circuit: an ordered list of [`QuantumGate`]s over a fixed number
/// of qubits. Gates are applied left to right.
///
/// # Example
///
/// ```
/// use qdaflow_quantum::{circuit::QuantumCircuit, gate::QuantumGate};
///
/// # fn main() -> Result<(), qdaflow_quantum::QuantumError> {
/// let mut circuit = QuantumCircuit::new(2);
/// circuit.push(QuantumGate::H(0))?;
/// circuit.push(QuantumGate::Cx { control: 0, target: 1 })?;
/// assert_eq!(circuit.num_gates(), 2);
/// assert_eq!(circuit.depth(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantumCircuit {
    num_qubits: usize,
    gates: Vec<QuantumGate>,
}

impl QuantumCircuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate list, first gate first.
    pub fn gates(&self) -> &[QuantumGate] {
        &self.gates
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Builds a circuit from a gate list, keeping the vector as it is.
    ///
    /// Every gate is checked as [`QuantumCircuit::push`] checks it, so the
    /// result is the circuit that pushing the gates one by one would build,
    /// without growing a second vector.
    ///
    /// # Errors
    ///
    /// Returns the error [`QuantumCircuit::push`] returns for the first
    /// gate it would reject.
    pub fn from_gates(num_qubits: usize, gates: Vec<QuantumGate>) -> Result<Self, QuantumError> {
        for gate in &gates {
            check_gate(num_qubits, gate)?;
        }
        Ok(Self { num_qubits, gates })
    }

    /// Appends a gate to the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if the gate references a
    /// qubit `>= num_qubits` and [`QuantumError::DuplicateQubit`] if it
    /// references the same qubit twice.
    pub fn push(&mut self, gate: QuantumGate) -> Result<(), QuantumError> {
        check_gate(self.num_qubits, &gate)?;
        self.gates.push(gate);
        Ok(())
    }

    /// Appends every gate of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitCountMismatch`] if the circuits differ in
    /// qubit count.
    pub fn append(&mut self, other: &Self) -> Result<(), QuantumError> {
        if self.num_qubits != other.num_qubits {
            return Err(QuantumError::QubitCountMismatch {
                left: self.num_qubits,
                right: other.num_qubits,
            });
        }
        self.gates.extend(other.gates.iter().cloned());
        Ok(())
    }

    /// Returns the adjoint circuit (each gate inverted, order reversed).
    pub fn dagger(&self) -> Self {
        Self {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(QuantumGate::dagger).collect(),
        }
    }

    /// Returns a copy of the circuit extended to `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is smaller than the current count.
    pub fn extended_to(&self, num_qubits: usize) -> Self {
        assert!(
            num_qubits >= self.num_qubits,
            "cannot shrink a circuit from {} to {num_qubits} qubits",
            self.num_qubits
        );
        Self {
            num_qubits,
            gates: self.gates.clone(),
        }
    }

    /// Circuit depth: the length of the longest chain of gates sharing
    /// qubits, computed with the usual as-soon-as-possible scheduling.
    pub fn depth(&self) -> usize {
        let mut layers = Layers::new(self.num_qubits);
        for gate in &self.gates {
            layers.place(&gate.qubits(), 1);
        }
        layers.depth()
    }

    /// T-depth: depth counting only T/T† gates (layers of parallel T gates),
    /// the figure of merit optimized by the T-par algorithm referenced in the
    /// paper.
    pub fn t_depth(&self) -> usize {
        let mut layers = Layers::new(self.num_qubits);
        for gate in &self.gates {
            layers.place(&gate.qubits(), usize::from(gate.t_count() > 0));
        }
        layers.depth()
    }

    /// Number of T and T† gates in the circuit (not counting undecomposed
    /// Toffoli gates).
    pub fn t_count(&self) -> usize {
        self.gates.iter().map(QuantumGate::t_count).sum()
    }

    /// Number of gates acting on two or more qubits.
    pub fn multi_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.arity() >= 2).count()
    }

    /// Histogram of gate mnemonics.
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for gate in &self.gates {
            *counts.entry(gate.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Returns `true` if every gate belongs to the Clifford+T library (i.e.
    /// no undecomposed Toffoli/MCX/MCZ with more than two qubits and no
    /// non-π/4 rotations).
    pub fn is_clifford_t(&self) -> bool {
        self.gates.iter().all(|gate| match gate {
            QuantumGate::Ccx { .. } | QuantumGate::Mcx { .. } | QuantumGate::Swap { .. } => false,
            QuantumGate::Mcz { qubits } => qubits.len() <= 2,
            QuantumGate::Rz { angle, .. } => {
                let eighth_turns = angle / std::f64::consts::FRAC_PI_4;
                (eighth_turns - eighth_turns.round()).abs() < 1e-9
            }
            _ => true,
        })
    }

    /// Iterates over the gates.
    pub fn iter(&self) -> std::slice::Iter<'_, QuantumGate> {
        self.gates.iter()
    }
}

impl<'a> IntoIterator for &'a QuantumCircuit {
    type Item = &'a QuantumGate;
    type IntoIter = std::slice::Iter<'a, QuantumGate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

/// The check [`QuantumCircuit::push`] and [`QuantumCircuit::from_gates`]
/// run on each gate: every qubit in range, and none repeated (the smallest
/// repeated qubit is reported).
fn check_gate(num_qubits: usize, gate: &QuantumGate) -> Result<(), QuantumError> {
    let qubits = gate.qubits();
    if let Some(&qubit) = qubits.iter().find(|&&qubit| qubit >= num_qubits) {
        return Err(QuantumError::QubitOutOfRange { qubit, num_qubits });
    }
    let repeated = qubits
        .iter()
        .enumerate()
        .filter(|&(index, qubit)| qubits[index + 1..].contains(qubit))
        .map(|(_, &qubit)| qubit)
        .min();
    match repeated {
        Some(qubit) => Err(QuantumError::DuplicateQubit { qubit }),
        None => Ok(()),
    }
}

/// As-soon-as-possible layering of a gate sequence: the layer each qubit's
/// last gate landed in, and the deepest layer so far.
pub(crate) struct Layers {
    of_qubit: Vec<usize>,
    depth: usize,
}

impl Layers {
    pub(crate) fn new(num_qubits: usize) -> Self {
        Self {
            of_qubit: vec![0; num_qubits],
            depth: 0,
        }
    }

    /// Places a gate on `qubits` `weight` layers past the latest layer of
    /// any of them (weight 0 aligns the qubits without adding a layer).
    pub(crate) fn place(&mut self, qubits: &[usize], weight: usize) {
        let layer = qubits.iter().map(|&q| self.of_qubit[q]).max().unwrap_or(0) + weight;
        for &q in qubits {
            self.of_qubit[q] = layer;
        }
        self.depth = self.depth.max(layer);
    }

    pub(crate) fn depth(&self) -> usize {
        self.depth
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "// {} qubits, {} gates",
            self.num_qubits,
            self.num_gates()
        )?;
        for gate in &self.gates {
            writeln!(f, "{gate};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(2);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        circuit
    }

    #[test]
    fn push_validates_qubits() {
        let mut circuit = QuantumCircuit::new(2);
        assert!(matches!(
            circuit.push(QuantumGate::H(2)),
            Err(QuantumError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            circuit.push(QuantumGate::Cx {
                control: 1,
                target: 1
            }),
            Err(QuantumError::DuplicateQubit { .. })
        ));
        assert!(circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1
            })
            .is_ok());
    }

    #[test]
    fn from_gates_checks_like_push() {
        let gates = vec![
            QuantumGate::H(0),
            QuantumGate::Cx {
                control: 0,
                target: 1,
            },
        ];
        assert_eq!(QuantumCircuit::from_gates(2, gates).unwrap(), bell());
        let rejected = [
            QuantumGate::H(2),
            QuantumGate::Cz { a: 1, b: 1 },
            QuantumGate::Mcx {
                controls: vec![1, 0, 1, 0],
                target: 1,
            },
            QuantumGate::Mcz {
                qubits: vec![0, 5, 0],
            },
        ];
        for gate in rejected {
            let pushed = QuantumCircuit::new(2).push(gate.clone()).unwrap_err();
            let built = QuantumCircuit::from_gates(2, vec![QuantumGate::X(1), gate]).unwrap_err();
            assert_eq!(built, pushed);
        }
        assert_eq!(
            QuantumCircuit::new(3)
                .push(QuantumGate::Mcx {
                    controls: vec![2, 1, 2],
                    target: 1,
                })
                .unwrap_err(),
            QuantumError::DuplicateQubit { qubit: 1 }
        );
    }

    #[test]
    fn dagger_reverses_and_inverts() {
        let mut circuit = QuantumCircuit::new(1);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::T(0)).unwrap();
        let dagger = circuit.dagger();
        assert_eq!(dagger.gates()[0], QuantumGate::Tdg(0));
        assert_eq!(dagger.gates()[1], QuantumGate::H(0));
    }

    #[test]
    fn depth_of_parallel_and_serial_gates() {
        let mut circuit = QuantumCircuit::new(3);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::H(1)).unwrap();
        circuit.push(QuantumGate::H(2)).unwrap();
        assert_eq!(circuit.depth(), 1);
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        assert_eq!(circuit.depth(), 2);
        circuit
            .push(QuantumGate::Cx {
                control: 1,
                target: 2,
            })
            .unwrap();
        assert_eq!(circuit.depth(), 3);
        assert_eq!(QuantumCircuit::new(4).depth(), 0);
    }

    #[test]
    fn t_count_and_t_depth() {
        let mut circuit = QuantumCircuit::new(2);
        circuit.push(QuantumGate::T(0)).unwrap();
        circuit.push(QuantumGate::T(1)).unwrap();
        circuit.push(QuantumGate::Tdg(0)).unwrap();
        assert_eq!(circuit.t_count(), 3);
        // The two parallel T gates form one layer, the T† a second one.
        assert_eq!(circuit.t_depth(), 2);
        assert_eq!(bell().t_count(), 0);
        assert_eq!(bell().t_depth(), 0);
    }

    #[test]
    fn gate_counts_histogram() {
        let mut circuit = bell();
        circuit.push(QuantumGate::H(1)).unwrap();
        let counts = circuit.gate_counts();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["cx"], 1);
        assert_eq!(circuit.multi_qubit_count(), 1);
    }

    #[test]
    fn clifford_t_detection() {
        let mut circuit = bell();
        circuit.push(QuantumGate::T(0)).unwrap();
        assert!(circuit.is_clifford_t());
        circuit
            .push(QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 1,
            })
            .unwrap_err();
        let mut with_toffoli = QuantumCircuit::new(3);
        with_toffoli
            .push(QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            })
            .unwrap();
        assert!(!with_toffoli.is_clifford_t());
    }

    #[test]
    fn append_checks_widths() {
        let mut circuit = bell();
        let other = bell();
        assert!(circuit.append(&other).is_ok());
        assert_eq!(circuit.num_gates(), 4);
        let wrong = QuantumCircuit::new(3);
        assert!(matches!(
            circuit.append(&wrong),
            Err(QuantumError::QubitCountMismatch { .. })
        ));
    }

    #[test]
    fn extended_keeps_gates() {
        let circuit = bell().extended_to(5);
        assert_eq!(circuit.num_qubits(), 5);
        assert_eq!(circuit.num_gates(), 2);
    }

    #[test]
    fn display_lists_gates() {
        let text = bell().to_string();
        assert!(text.contains("h q[0];"));
        assert!(text.contains("cx q[0], q[1];"));
    }

    #[test]
    fn iteration() {
        let circuit = bell();
        assert_eq!(circuit.iter().count(), 2);
        assert_eq!((&circuit).into_iter().count(), 2);
    }
}
