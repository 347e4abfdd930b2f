//! The slow, obviously-correct reference simulator used as a test oracle.
//!
//! [`DenseReference`] applies every gate by naive out-of-place matrix
//! application: for each basis state it accumulates the gate's column action
//! into a freshly allocated output vector, with **no** diagonal fast path,
//! no in-place pair tricks, no fusion and no threading. Its implementation
//! shares nothing with the [`ExecPlan`](crate::plan::ExecPlan) interpreter,
//! which is exactly what makes it a useful differential-testing oracle —
//! the only independent one of the dense path: the property suites in
//! `tests/differential.rs` and `tests/plan_differential.rs`, and the plan's
//! unit tests, compare fused, unfused and pooled plans against it
//! amplitude-for-amplitude.
//!
//! The same pattern — an optimized production simulator paired with a
//! trivially-auditable reference implementation — is used by the large
//! industrial simulators (e.g. Microsoft's QDK sparse/full-state pair).

use crate::backend::{Backend, ExecutionResult};
use crate::complex::Complex;
use crate::{QuantumCircuit, QuantumError, QuantumGate, MAX_SIMULATOR_QUBITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A naive full-statevector simulator: gate-by-gate out-of-place 2×2 /
/// permutation matrix application with no fast paths.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseReference {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl DenseReference {
    /// Creates the all-zeros state `|0...0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] if `num_qubits` exceeds
    /// [`MAX_SIMULATOR_QUBITS`].
    pub fn new(num_qubits: usize) -> Result<Self, QuantumError> {
        if num_qubits > MAX_SIMULATOR_QUBITS {
            return Err(QuantumError::TooManyQubits {
                requested: num_qubits,
                maximum: MAX_SIMULATOR_QUBITS,
            });
        }
        let mut amplitudes = vec![Complex::ZERO; 1 << num_qubits];
        amplitudes[0] = Complex::ONE;
        Ok(Self {
            num_qubits,
            amplitudes,
        })
    }

    /// Runs a full circuit on the all-zeros state.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized circuits.
    pub fn from_circuit(circuit: &QuantumCircuit) -> Result<Self, QuantumError> {
        let mut state = Self::new(circuit.num_qubits())?;
        state.apply_circuit(circuit);
        Ok(state)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// All amplitudes in basis order.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// The amplitude of basis state `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is out of range.
    pub fn amplitude(&self, basis: usize) -> Complex {
        self.amplitudes[basis]
    }

    /// Sum of all probabilities.
    pub fn norm(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// The probability of measuring each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &QuantumCircuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit on {} qubits cannot run on a {}-qubit state",
            circuit.num_qubits(),
            self.num_qubits
        );
        for gate in circuit {
            self.apply_gate(gate);
        }
    }

    /// Applies one gate by naive column accumulation: every input basis
    /// state scatters its amplitude into the output vector according to the
    /// gate's unitary, exactly as written in a textbook.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &QuantumGate) {
        for qubit in gate.qubits() {
            assert!(
                qubit < self.num_qubits,
                "qubit {qubit} out of range for a {}-qubit register",
                self.num_qubits
            );
        }
        let mut next = vec![Complex::ZERO; self.amplitudes.len()];
        for (index, &amplitude) in self.amplitudes.iter().enumerate() {
            match gate {
                QuantumGate::Cx { control, target } => {
                    let out = if index >> control & 1 == 1 {
                        index ^ (1 << target)
                    } else {
                        index
                    };
                    next[out] += amplitude;
                }
                QuantumGate::Ccx {
                    control_a,
                    control_b,
                    target,
                } => {
                    let both = index >> control_a & 1 == 1 && index >> control_b & 1 == 1;
                    let out = if both { index ^ (1 << target) } else { index };
                    next[out] += amplitude;
                }
                QuantumGate::Mcx { controls, target } => {
                    let all = controls.iter().all(|&c| index >> c & 1 == 1);
                    let out = if all { index ^ (1 << target) } else { index };
                    next[out] += amplitude;
                }
                QuantumGate::Swap { a, b } => {
                    let bit_a = index >> a & 1;
                    let bit_b = index >> b & 1;
                    let out = (index & !(1 << a) & !(1 << b)) | (bit_a << b) | (bit_b << a);
                    next[out] += amplitude;
                }
                QuantumGate::Cz { a, b } => {
                    let sign = if index >> a & 1 == 1 && index >> b & 1 == 1 {
                        Complex::real(-1.0)
                    } else {
                        Complex::ONE
                    };
                    next[index] += sign * amplitude;
                }
                QuantumGate::Mcz { qubits } => {
                    let sign = if qubits.iter().all(|&q| index >> q & 1 == 1) {
                        Complex::real(-1.0)
                    } else {
                        Complex::ONE
                    };
                    next[index] += sign * amplitude;
                }
                single => {
                    let qubit = single.qubits()[0];
                    let matrix = single
                        .single_qubit_matrix()
                        .expect("all remaining gates are single-qubit");
                    let bit = 1usize << qubit;
                    let value = index >> qubit & 1;
                    next[index & !bit] += matrix[0][value] * amplitude;
                    next[index | bit] += matrix[1][value] * amplitude;
                }
            }
        }
        self.amplitudes = next;
    }

    /// Samples a measurement of all qubits by the same one-draw linear scan
    /// as
    /// [`SoaStatevector::sample_linear`](crate::plan::SoaStatevector::sample_linear),
    /// so seeded backends draw identical outcomes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let draw: f64 = rng.gen();
        let mut cumulative = 0.0f64;
        for (basis, amplitude) in self.amplitudes.iter().enumerate() {
            cumulative += amplitude.norm_sqr();
            if draw < cumulative {
                return basis;
            }
        }
        self.amplitudes.len() - 1
    }

    /// Samples `shots` measurements into a dense histogram.
    pub fn sample_counts<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<usize> {
        let mut histogram = vec![0usize; self.amplitudes.len()];
        for _ in 0..shots {
            histogram[self.sample(rng)] += 1;
        }
        histogram
    }
}

/// The reference simulator exposed as an execution [`Backend`], so it can be
/// swapped into any flow (engine, hidden-shift runner, shell) for
/// differential testing against the optimized backends.
#[derive(Debug, Clone)]
pub struct DenseReferenceBackend {
    rng: StdRng,
}

impl DenseReferenceBackend {
    /// Creates a backend with a fixed random seed (sampling is the only
    /// source of randomness).
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Default for DenseReferenceBackend {
    fn default() -> Self {
        Self::seeded(0xC0FFEE)
    }
}

impl Backend for DenseReferenceBackend {
    fn name(&self) -> &str {
        "dense-reference"
    }

    fn run(
        &mut self,
        circuit: &QuantumCircuit,
        shots: usize,
    ) -> Result<ExecutionResult, QuantumError> {
        let state = DenseReference::from_circuit(circuit)?;
        let histogram = state.sample_counts(&mut self.rng, shots);
        Ok(ExecutionResult::from_histogram(circuit, shots, &histogram))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PreparedState;
    use crate::fusion::ExecConfig;
    use crate::plan::SoaStatevector;
    use std::f64::consts::FRAC_PI_4;

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
    fn bell_state_matches_the_paper() {
        let state = DenseReference::from_circuit(&bell()).unwrap();
        assert!((state.probabilities()[0b00] - 0.5).abs() < 1e-12);
        assert!((state.probabilities()[0b11] - 0.5).abs() < 1e-12);
        assert!((state.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_gate_class_matches_the_kernel() {
        let mut circuit = QuantumCircuit::new(4);
        for gate in [
            QuantumGate::H(0),
            QuantumGate::X(1),
            QuantumGate::Y(2),
            QuantumGate::Z(3),
            QuantumGate::S(0),
            QuantumGate::Sdg(1),
            QuantumGate::T(2),
            QuantumGate::Tdg(3),
            QuantumGate::Rz {
                qubit: 0,
                angle: FRAC_PI_4 * 3.0,
            },
            QuantumGate::Cx {
                control: 0,
                target: 1,
            },
            QuantumGate::Cz { a: 1, b: 2 },
            QuantumGate::Swap { a: 0, b: 3 },
            QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            },
            QuantumGate::Mcx {
                controls: vec![0, 1, 2],
                target: 3,
            },
            QuantumGate::Mcz {
                qubits: vec![1, 2, 3],
            },
        ] {
            circuit.push(gate).unwrap();
        }
        let reference = DenseReference::from_circuit(&circuit).unwrap();
        let plan = SoaStatevector::simulate(&circuit, &ExecConfig::baseline()).unwrap();
        for (index, (a, b)) in reference
            .amplitudes()
            .iter()
            .zip(plan.to_amplitudes())
            .enumerate()
        {
            assert!(a.approx_eq(b, 1e-12), "amplitude {index}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn too_many_qubits_is_rejected() {
        assert!(matches!(
            DenseReference::new(MAX_SIMULATOR_QUBITS + 1),
            Err(QuantumError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn backend_samples_match_the_statevector_backend() {
        use crate::backend::StatevectorBackend;
        let mut reference = DenseReferenceBackend::seeded(42);
        let mut optimized = StatevectorBackend::seeded(42);
        let a = reference.run(&bell(), 256).unwrap();
        let b = optimized.run(&bell(), 256).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(reference.name(), "dense-reference");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gate_panics() {
        let mut state = DenseReference::new(1).unwrap();
        state.apply_gate(&QuantumGate::H(3));
    }
}
