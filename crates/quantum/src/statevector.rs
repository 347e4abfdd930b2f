//! Exact statevector simulation.
//!
//! The statevector simulator is the "local simulator" backend of the paper's
//! ProjectQ flow and the reference against which the noisy backend and the
//! compiled circuits are validated. It stores all `2^n` complex amplitudes,
//! and every circuit it runs executes through the [`ExecPlan`] interpreter.

use crate::backend::PreparedState;
use crate::complex::Complex;
use crate::fusion::ExecConfig;
use crate::plan::{ExecPlan, SoaStatevector};
use crate::sampling::CumulativeDistribution;
use crate::{QuantumCircuit, QuantumError, MAX_SIMULATOR_QUBITS};
use rand::Rng;

/// The state of an `n`-qubit register as a dense vector of `2^n` amplitudes.
///
/// Basis states are indexed with qubit 0 as the least significant bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl Statevector {
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

    /// Creates the computational basis state `|basis⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized registers.
    ///
    /// # Panics
    ///
    /// Panics if `basis >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, basis: usize) -> Result<Self, QuantumError> {
        let mut state = Self::new(num_qubits)?;
        assert!(basis < state.amplitudes.len(), "basis state out of range");
        state.amplitudes[0] = Complex::ZERO;
        state.amplitudes[basis] = Complex::ONE;
        Ok(state)
    }

    /// Runs a full circuit on the all-zeros state and returns the resulting
    /// state, executing through the default execution configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized circuits.
    pub fn from_circuit(circuit: &QuantumCircuit) -> Result<Self, QuantumError> {
        Self::run(circuit, &ExecConfig::default())
    }

    /// Runs a full circuit on the all-zeros state with an explicit execution
    /// configuration, for callers that want interleaved amplitudes: the
    /// dense engine's simulation ([`SoaStatevector`]'s
    /// [`PreparedState::simulate`]: with fusion on, the circuit's leading
    /// single-qubit layer written as a blocked product state and an
    /// [`ExecPlan`] of the ops after it applied to that; with fusion off,
    /// the per-gate plan applied to a blocked zero state), copied once into
    /// this layout with [`SoaStatevector::to_amplitudes`]. Jobs and the
    /// [`StatevectorBackend`](crate::backend::StatevectorBackend) sample the
    /// blocked state itself and never make this copy.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized circuits.
    pub fn run(circuit: &QuantumCircuit, config: &ExecConfig) -> Result<Self, QuantumError> {
        let state = SoaStatevector::simulate(circuit, config)?;
        Ok(Self {
            num_qubits: state.num_qubits(),
            amplitudes: state.to_amplitudes(),
        })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude of basis state `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is out of range.
    pub fn amplitude(&self, basis: usize) -> Complex {
        self.amplitudes[basis]
    }

    /// All amplitudes in basis order.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Mutable access to the raw amplitudes, for callers that drive an
    /// [`ExecPlan`] directly (e.g. the mapping verifier's per-basis-state
    /// replay). Callers must preserve normalization.
    pub fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amplitudes
    }

    /// The probability of measuring each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The probability of measuring the specific basis state `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is out of range.
    pub fn probability_of(&self, basis: usize) -> f64 {
        self.amplitudes[basis].norm_sqr()
    }

    /// Sum of all probabilities; 1 up to floating point error for any state
    /// produced by unitary evolution.
    pub fn norm(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the states have different sizes.
    pub fn inner_product(&self, other: &Self) -> Complex {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "states must have the same number of qubits"
        );
        self.amplitudes
            .iter()
            .zip(&other.amplitudes)
            .fold(Complex::ZERO, |acc, (a, b)| acc + a.conj() * *b)
    }

    /// Fidelity `|⟨self|other⟩|^2` between two pure states.
    ///
    /// # Panics
    ///
    /// Panics if the states have different sizes.
    pub fn fidelity(&self, other: &Self) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Applies every gate of a circuit in order through the default
    /// execution configuration.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &QuantumCircuit) {
        self.apply_circuit_with(circuit, &ExecConfig::default());
    }

    /// Applies every gate of a circuit with an explicit execution
    /// configuration, through the [`ExecPlan`] SoA interpreter.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit_with(&mut self, circuit: &QuantumCircuit, config: &ExecConfig) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit on {} qubits cannot run on a {}-qubit state",
            circuit.num_qubits(),
            self.num_qubits
        );
        ExecPlan::compile(circuit, config).apply(&mut self.amplitudes, config);
    }

    /// The precomputed cumulative measurement distribution of this state,
    /// for callers that sample the same state many times (each draw is then
    /// a binary search instead of a linear scan).
    pub fn cumulative_distribution(&self) -> CumulativeDistribution {
        CumulativeDistribution::from_amplitudes(&self.amplitudes)
    }

    /// Samples one measurement of all qubits by an early-exiting linear scan,
    /// returning the observed basis state; the state is not collapsed. It is
    /// the reference the `sampling_differential.rs` property suite compares
    /// the binary-search sampler against: it consumes one `f64` draw and
    /// returns the same outcome the cumulative distribution assigns to that
    /// draw. Callers taking many shots from the same state use
    /// [`Statevector::sample_counts`] /
    /// [`Statevector::sample_counts_sharded`], which build the
    /// [`CumulativeDistribution`] once and binary-search every draw.
    pub fn sample_linear<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
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

    /// Samples `shots` measurements and returns a histogram of observed
    /// basis states. The cumulative distribution is built once and every
    /// shot is a binary search; the RNG stream and the resulting histogram
    /// are identical to the historical per-shot linear scan.
    pub fn sample_counts<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<usize> {
        self.cumulative_distribution().sample_counts(rng, shots)
    }

    /// Shot-sharded parallel sampling: `shots` are split into fixed-size
    /// shards, each drawing from an independent deterministic RNG stream
    /// derived from `(seed, shard index)`, executed on up to
    /// `config.threads` scoped workers. The histogram is identical at every
    /// thread count and fully determined by `(seed, shots,
    /// config.shot_shard_size)`; see [`crate::sampling`].
    pub fn sample_counts_sharded(
        &self,
        seed: u64,
        shots: usize,
        config: &ExecConfig,
    ) -> Vec<usize> {
        self.cumulative_distribution().sample_sharded(
            seed,
            shots,
            config.threads,
            config.shot_shard_size,
        )
    }

    /// Returns the basis state with the highest probability (ties broken by
    /// the lowest index), together with that probability.
    pub fn most_likely(&self) -> (usize, f64) {
        let mut best = (0usize, 0.0f64);
        for (basis, amplitude) in self.amplitudes.iter().enumerate() {
            let probability = amplitude.norm_sqr();
            if probability > best.1 {
                best = (basis, probability);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantumGate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    /// Applies one gate to the state through a one-gate circuit.
    fn apply(state: &mut Statevector, gate: QuantumGate) {
        let mut circuit = QuantumCircuit::new(state.num_qubits());
        circuit.push(gate).unwrap();
        state.apply_circuit(&circuit);
    }

    fn bell_circuit() -> QuantumCircuit {
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
    fn initial_state_is_all_zeros() {
        let state = Statevector::new(3).unwrap();
        assert_eq!(state.probability_of(0), 1.0);
        assert!((state.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_many_qubits_is_rejected() {
        assert!(matches!(
            Statevector::new(MAX_SIMULATOR_QUBITS + 1),
            Err(QuantumError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut state = Statevector::new(1).unwrap();
        apply(&mut state, QuantumGate::H(0));
        assert!((state.amplitude(0).re - FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((state.amplitude(1).re - FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn bell_state_from_paper_fig1a() {
        // Fig. 1(a): |Ψ⟩ = (|00⟩ + |11⟩)/sqrt(2).
        let state = Statevector::from_circuit(&bell_circuit()).unwrap();
        assert!((state.probability_of(0b00) - 0.5).abs() < 1e-12);
        assert!((state.probability_of(0b11) - 0.5).abs() < 1e-12);
        assert!(state.probability_of(0b01) < 1e-12);
        assert!(state.probability_of(0b10) < 1e-12);
    }

    #[test]
    fn x_and_cnot_act_classically() {
        let mut state = Statevector::new(2).unwrap();
        apply(&mut state, QuantumGate::X(0));
        apply(
            &mut state,
            QuantumGate::Cx {
                control: 0,
                target: 1,
            },
        );
        assert_eq!(state.most_likely().0, 0b11);
    }

    #[test]
    fn toffoli_and_mcx_act_classically() {
        let mut state = Statevector::basis_state(4, 0b0111).unwrap();
        apply(
            &mut state,
            QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 3,
            },
        );
        assert_eq!(state.most_likely().0, 0b1111);
        let mut state = Statevector::basis_state(4, 0b0111).unwrap();
        apply(
            &mut state,
            QuantumGate::Mcx {
                controls: vec![0, 1, 2],
                target: 3,
            },
        );
        assert_eq!(state.most_likely().0, 0b1111);
        // A blocked control leaves the state unchanged.
        let mut blocked = Statevector::basis_state(4, 0b0101).unwrap();
        apply(
            &mut blocked,
            QuantumGate::Mcx {
                controls: vec![0, 1, 2],
                target: 3,
            },
        );
        assert_eq!(blocked.most_likely().0, 0b0101);
    }

    #[test]
    fn z_s_t_phases_compose() {
        // T^2 = S, S^2 = Z on the |1⟩ state.
        let mut with_t = Statevector::basis_state(1, 1).unwrap();
        apply(&mut with_t, QuantumGate::T(0));
        apply(&mut with_t, QuantumGate::T(0));
        let mut with_s = Statevector::basis_state(1, 1).unwrap();
        apply(&mut with_s, QuantumGate::S(0));
        assert!(with_t.fidelity(&with_s) > 1.0 - 1e-12);
        assert!(with_t.amplitude(1).approx_eq(Complex::I, 1e-12));

        let mut with_z = Statevector::basis_state(1, 1).unwrap();
        apply(&mut with_z, QuantumGate::Z(0));
        assert!(with_z.amplitude(1).approx_eq(Complex::real(-1.0), 1e-12));
    }

    #[test]
    fn cz_and_mcz_flip_phase_of_all_ones() {
        let mut state = Statevector::new(2).unwrap();
        apply(&mut state, QuantumGate::H(0));
        apply(&mut state, QuantumGate::H(1));
        apply(&mut state, QuantumGate::Cz { a: 0, b: 1 });
        assert!(state.amplitude(0b11).re < 0.0);
        assert!(state.amplitude(0b00).re > 0.0);

        let mut three = Statevector::basis_state(3, 0b111).unwrap();
        apply(
            &mut three,
            QuantumGate::Mcz {
                qubits: vec![0, 1, 2],
            },
        );
        assert!(three.amplitude(0b111).approx_eq(Complex::real(-1.0), 1e-12));
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut state = Statevector::basis_state(2, 0b01).unwrap();
        apply(&mut state, QuantumGate::Swap { a: 0, b: 1 });
        assert_eq!(state.most_likely().0, 0b10);
        apply(&mut state, QuantumGate::Swap { a: 0, b: 1 });
        assert_eq!(state.most_likely().0, 0b01);
    }

    #[test]
    fn dagger_circuit_restores_initial_state() {
        let mut circuit = QuantumCircuit::new(3);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::T(1)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 2,
            })
            .unwrap();
        circuit.push(QuantumGate::S(2)).unwrap();
        let mut state = Statevector::new(3).unwrap();
        state.apply_circuit(&circuit);
        state.apply_circuit(&circuit.dagger());
        assert!((state.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_is_preserved_by_random_circuits() {
        let mut circuit = QuantumCircuit::new(4);
        let gates = [
            QuantumGate::H(0),
            QuantumGate::T(1),
            QuantumGate::Cx {
                control: 1,
                target: 2,
            },
            QuantumGate::S(3),
            QuantumGate::Cz { a: 0, b: 3 },
            QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 3,
            },
            QuantumGate::Y(2),
            QuantumGate::Rz {
                qubit: 0,
                angle: 0.3,
            },
        ];
        for gate in gates {
            circuit.push(gate).unwrap();
        }
        let state = Statevector::from_circuit(&circuit).unwrap();
        assert!((state.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let state = Statevector::from_circuit(&bell_circuit()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let histogram = state.sample_counts(&mut rng, 4000);
        assert_eq!(histogram[0b01], 0);
        assert_eq!(histogram[0b10], 0);
        let zero_fraction = histogram[0b00] as f64 / 4000.0;
        assert!((zero_fraction - 0.5).abs() < 0.05);
    }

    #[test]
    fn binary_search_sampler_matches_the_linear_reference() {
        let state = Statevector::from_circuit(&bell_circuit()).unwrap();
        let distribution = state.cumulative_distribution();
        let mut fast_rng = StdRng::seed_from_u64(99);
        let mut slow_rng = StdRng::seed_from_u64(99);
        for _ in 0..256 {
            assert_eq!(
                distribution.sample_one(&mut fast_rng),
                state.sample_linear(&mut slow_rng)
            );
        }
    }

    #[test]
    fn sharded_sampling_is_reproducible_across_thread_counts() {
        let state = Statevector::from_circuit(&bell_circuit()).unwrap();
        let sequential = state.sample_counts_sharded(
            7,
            5000,
            &ExecConfig::sequential().with_shot_shard_size(256),
        );
        let threaded = state.sample_counts_sharded(
            7,
            5000,
            &ExecConfig::sequential()
                .with_threads(4)
                .with_shot_shard_size(256),
        );
        assert_eq!(sequential, threaded);
        assert_eq!(sequential.iter().sum::<usize>(), 5000);
        assert_eq!(sequential[0b01], 0);
        assert_eq!(sequential[0b10], 0);
    }

    #[test]
    fn inner_product_of_orthogonal_states_is_zero() {
        let zero = Statevector::basis_state(2, 0).unwrap();
        let three = Statevector::basis_state(2, 3).unwrap();
        assert_eq!(zero.inner_product(&three), Complex::ZERO);
        assert!((zero.fidelity(&zero) - 1.0).abs() < 1e-12);
    }
}
