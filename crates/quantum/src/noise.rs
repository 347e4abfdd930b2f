//! Gate-level noise model and Monte-Carlo noisy simulation.
//!
//! The paper's Fig. 6 reports outcome histograms of the hidden shift circuit
//! executed on the IBM Quantum Experience chip (3 runs × 1024 shots, correct
//! shift observed with average probability ≈ 0.63). Since this repository
//! has no access to the physical device, the experiment is reproduced with a
//! stochastic gate-level noise model:
//!
//! * every single-qubit gate is followed by a depolarizing channel with
//!   probability `p1`,
//! * every two-qubit (or larger) gate is followed by independent depolarizing
//!   channels with probability `p2` on each participating qubit,
//! * every measured bit is flipped with probability `readout`.
//!
//! The default parameters are chosen to match 2017-era IBM QX devices
//! (`p1 = 0.002`, `p2 = 0.025`, `readout = 0.04`), which lands the 4-qubit
//! hidden shift benchmark in the same success-probability regime as the
//! paper's histogram.

use crate::fusion::ExecConfig;
use crate::plan::{ExecPlan, SoaStatevector};
use crate::{QuantumCircuit, QuantumError, QuantumGate, MAX_SIMULATOR_QUBITS};
use rand::Rng;

/// Parameters of the stochastic gate-level noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after every single-qubit gate.
    pub single_qubit_depolarizing: f64,
    /// Depolarizing probability per qubit after every multi-qubit gate.
    pub two_qubit_depolarizing: f64,
    /// Probability of flipping each measured bit.
    pub readout_error: f64,
}

impl NoiseModel {
    /// A noiseless model (all probabilities zero).
    pub fn noiseless() -> Self {
        Self {
            single_qubit_depolarizing: 0.0,
            two_qubit_depolarizing: 0.0,
            readout_error: 0.0,
        }
    }

    /// Noise parameters approximating the 5-qubit IBM Quantum Experience
    /// devices of 2017, the hardware used for Fig. 6 of the paper.
    pub fn ibm_qx_2017() -> Self {
        Self {
            single_qubit_depolarizing: 0.002,
            two_qubit_depolarizing: 0.025,
            readout_error: 0.04,
        }
    }

    /// Creates a model from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::InvalidParameter`] if any probability is
    /// outside `[0, 1]`.
    pub fn new(
        single_qubit_depolarizing: f64,
        two_qubit_depolarizing: f64,
        readout_error: f64,
    ) -> Result<Self, QuantumError> {
        for (name, value) in [
            ("single_qubit_depolarizing", single_qubit_depolarizing),
            ("two_qubit_depolarizing", two_qubit_depolarizing),
            ("readout_error", readout_error),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(QuantumError::InvalidParameter { name, value });
            }
        }
        Ok(Self {
            single_qubit_depolarizing,
            two_qubit_depolarizing,
            readout_error,
        })
    }

    /// Returns `true` if every error probability is zero.
    pub fn is_noiseless(&self) -> bool {
        self.single_qubit_depolarizing == 0.0
            && self.two_qubit_depolarizing == 0.0
            && self.readout_error == 0.0
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::ibm_qx_2017()
    }
}

/// Monte-Carlo noisy simulator: each shot runs the circuit on the
/// statevector simulator with randomly inserted Pauli errors, then samples a
/// measurement and applies readout errors.
///
/// The circuit is compiled once per [`NoisySimulator::run`] into an unfused
/// [`ExecPlan`] — one dispatch record per gate, since the stochastic noise
/// channel between gates forbids cross-gate fusion — and every shot replays
/// the records on one reused SoA state, drawing the noise channels between
/// them. The plan, its matrix pool and the amplitude buffers are built a
/// single time for the whole run, and the histograms do not depend on the
/// configured block size.
#[derive(Debug, Clone)]
pub struct NoisySimulator {
    model: NoiseModel,
    config: ExecConfig,
}

/// A circuit compiled for per-shot replay: the unfused plan, and per gate
/// (= per record) its qubits and whether it is a single-qubit gate, for the
/// depolarizing channel that follows it.
type Replay = (ExecPlan, Vec<(Vec<usize>, bool)>);

impl NoisySimulator {
    /// Creates a simulator with the given noise model and the default
    /// execution configuration.
    pub fn new(model: NoiseModel) -> Self {
        Self::with_config(model, ExecConfig::default())
    }

    /// Creates a simulator with an explicit execution configuration.
    pub fn with_config(model: NoiseModel, config: ExecConfig) -> Self {
        Self { model, config }
    }

    /// The noise model in use.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// Replaces the execution configuration.
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        self.config = config;
    }

    /// Runs `shots` noisy executions of `circuit` and returns a histogram of
    /// measured basis states (all qubits measured in the computational
    /// basis).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] if the circuit is too large
    /// for the statevector simulator.
    pub fn run<R: Rng + ?Sized>(
        &self,
        circuit: &QuantumCircuit,
        shots: usize,
        rng: &mut R,
    ) -> Result<Vec<usize>, QuantumError> {
        let (plan, gates) = self.compile(circuit)?;
        let num_qubits = circuit.num_qubits();
        let mut histogram = vec![0usize; 1 << num_qubits];
        let mut state = SoaStatevector::zero_state(num_qubits, plan.block_bits());
        for _ in 0..shots {
            histogram[self.run_plan_shot(&plan, &gates, &mut state, rng)] += 1;
        }
        Ok(histogram)
    }

    /// Runs one noisy shot and returns the measured basis state. Draws the
    /// same RNG stream as one shot of [`NoisySimulator::run`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] if the circuit is too large
    /// for the statevector simulator.
    pub fn run_single_shot<R: Rng + ?Sized>(
        &self,
        circuit: &QuantumCircuit,
        rng: &mut R,
    ) -> Result<usize, QuantumError> {
        let (plan, gates) = self.compile(circuit)?;
        let mut state = SoaStatevector::zero_state(circuit.num_qubits(), plan.block_bits());
        Ok(self.run_plan_shot(&plan, &gates, &mut state, rng))
    }

    /// Compiles a circuit for per-shot replay (see [`Replay`]).
    fn compile(&self, circuit: &QuantumCircuit) -> Result<Replay, QuantumError> {
        if circuit.num_qubits() > MAX_SIMULATOR_QUBITS {
            return Err(QuantumError::TooManyQubits {
                requested: circuit.num_qubits(),
                maximum: MAX_SIMULATOR_QUBITS,
            });
        }
        let plan = ExecPlan::compile(circuit, &self.config.with_fusion(false));
        let gates: Vec<(Vec<usize>, bool)> = circuit
            .iter()
            .map(|gate| (gate.qubits().to_vec(), gate.arity() == 1))
            .collect();
        debug_assert_eq!(plan.num_records(), gates.len());
        Ok((plan, gates))
    }

    /// Runs one shot by replaying a compiled plan record by record on a
    /// reused SoA state, with a depolarizing channel after every record.
    fn run_plan_shot<R: Rng + ?Sized>(
        &self,
        plan: &ExecPlan,
        gates: &[(Vec<usize>, bool)],
        state: &mut SoaStatevector,
        rng: &mut R,
    ) -> usize {
        state.reset();
        for (index, (qubits, is_single_qubit)) in gates.iter().enumerate() {
            plan.apply_record(state, index);
            self.apply_depolarizing(state, qubits, *is_single_qubit, rng);
        }
        let mut outcome = state.sample_linear(rng);
        // Readout errors: flip each measured bit independently.
        if self.model.readout_error > 0.0 {
            for qubit in 0..state.num_qubits() {
                if rng.gen::<f64>() < self.model.readout_error {
                    outcome ^= 1usize << qubit;
                }
            }
        }
        outcome
    }

    /// Applies the depolarizing channel after one gate: each of its qubits
    /// independently suffers an X, Y or Z error with the model's
    /// probability. Each Pauli is applied as the one record an unfused plan
    /// holds for it ([`SoaStatevector::apply_gate`]: X and Y a 2×2, Z a
    /// phase).
    fn apply_depolarizing<R: Rng + ?Sized>(
        &self,
        state: &mut SoaStatevector,
        qubits: &[usize],
        is_single_qubit: bool,
        rng: &mut R,
    ) {
        let probability = if is_single_qubit {
            self.model.single_qubit_depolarizing
        } else {
            self.model.two_qubit_depolarizing
        };
        if probability == 0.0 {
            return;
        }
        for &qubit in qubits {
            if rng.gen::<f64>() < probability {
                // Depolarizing channel: apply X, Y or Z with equal probability.
                let pauli = match rng.gen_range(0..3) {
                    0 => QuantumGate::X(qubit),
                    1 => QuantumGate::Y(qubit),
                    _ => QuantumGate::Z(qubit),
                };
                state.apply_gate(&pauli);
            }
        }
    }
}

/// Convenience statistics over a histogram of measurement outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeStatistics {
    /// Total number of shots.
    pub shots: usize,
    /// Empirical probability of each basis state.
    pub probabilities: Vec<f64>,
}

impl OutcomeStatistics {
    /// Computes statistics from a raw histogram.
    pub fn from_histogram(histogram: &[usize]) -> Self {
        let shots: usize = histogram.iter().sum();
        let divisor = shots.max(1) as f64;
        Self {
            shots,
            probabilities: histogram.iter().map(|&c| c as f64 / divisor).collect(),
        }
    }

    /// Probability of the given outcome.
    ///
    /// # Panics
    ///
    /// Panics if `outcome` is out of range.
    pub fn probability_of(&self, outcome: usize) -> f64 {
        self.probabilities[outcome]
    }

    /// The most frequently observed outcome and its empirical probability.
    pub fn most_likely(&self) -> (usize, f64) {
        let mut best = (0usize, 0.0f64);
        for (outcome, &probability) in self.probabilities.iter().enumerate() {
            if probability > best.1 {
                best = (outcome, probability);
            }
        }
        best
    }
}

/// Averages several histograms (e.g. the three 1024-shot runs of Fig. 6) and
/// reports the per-outcome mean and standard deviation of the empirical
/// probabilities.
pub fn average_runs(histograms: &[Vec<usize>]) -> Vec<(f64, f64)> {
    if histograms.is_empty() {
        return Vec::new();
    }
    let outcomes = histograms[0].len();
    let runs = histograms.len() as f64;
    let mut result = Vec::with_capacity(outcomes);
    for outcome in 0..outcomes {
        let probabilities: Vec<f64> = histograms
            .iter()
            .map(|h| {
                let shots: usize = h.iter().sum();
                h[outcome] as f64 / shots.max(1) as f64
            })
            .collect();
        let mean = probabilities.iter().sum::<f64>() / runs;
        let variance = probabilities
            .iter()
            .map(|p| (p - mean) * (p - mean))
            .sum::<f64>()
            / runs;
        result.push((mean, variance.sqrt()));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz(num_qubits: usize) -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(num_qubits);
        circuit.push(QuantumGate::H(0)).unwrap();
        for target in 1..num_qubits {
            circuit
                .push(QuantumGate::Cx { control: 0, target })
                .unwrap();
        }
        circuit
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        assert!(NoiseModel::new(-0.1, 0.0, 0.0).is_err());
        assert!(NoiseModel::new(0.0, 1.5, 0.0).is_err());
        assert!(NoiseModel::new(0.0, 0.0, f64::NAN).is_err());
        assert!(NoiseModel::new(0.01, 0.02, 0.03).is_ok());
    }

    #[test]
    fn noiseless_model_reproduces_exact_distribution() {
        let simulator = NoisySimulator::new(NoiseModel::noiseless());
        let mut rng = StdRng::seed_from_u64(1);
        let histogram = simulator.run(&ghz(3), 2000, &mut rng).unwrap();
        assert_eq!(histogram[0b010], 0);
        assert_eq!(histogram[0b101], 0);
        let all_zeros = histogram[0b000] as f64 / 2000.0;
        assert!((all_zeros - 0.5).abs() < 0.05);
        assert!(NoiseModel::noiseless().is_noiseless());
        assert!(!NoiseModel::ibm_qx_2017().is_noiseless());
    }

    #[test]
    fn noisy_model_degrades_but_preserves_dominant_outcomes() {
        let simulator = NoisySimulator::new(NoiseModel::ibm_qx_2017());
        let mut rng = StdRng::seed_from_u64(2);
        let histogram = simulator.run(&ghz(3), 3000, &mut rng).unwrap();
        let stats = OutcomeStatistics::from_histogram(&histogram);
        // The two GHZ outcomes together still dominate, but no longer reach 1.
        let ghz_mass = stats.probability_of(0b000) + stats.probability_of(0b111);
        assert!(ghz_mass > 0.7, "ghz mass {ghz_mass}");
        assert!(ghz_mass < 0.999, "noise must be visible, got {ghz_mass}");
    }

    #[test]
    fn readout_error_alone_flips_bits() {
        let model = NoiseModel::new(0.0, 0.0, 0.5).unwrap();
        let simulator = NoisySimulator::new(model);
        let circuit = QuantumCircuit::new(1); // always measures |0⟩ ideally
        let mut rng = StdRng::seed_from_u64(3);
        let histogram = simulator.run(&circuit, 2000, &mut rng).unwrap();
        let ones = histogram[1] as f64 / 2000.0;
        assert!((ones - 0.5).abs() < 0.05);
    }

    #[test]
    fn single_shot_matches_a_one_shot_run() {
        let simulator = NoisySimulator::new(NoiseModel::ibm_qx_2017());
        for seed in 0..32 {
            let outcome = simulator
                .run_single_shot(&ghz(3), &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let histogram = simulator
                .run(&ghz(3), 1, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(histogram[outcome], 1, "seed {seed}");
        }
    }

    #[test]
    fn statistics_helpers() {
        let stats = OutcomeStatistics::from_histogram(&[10, 30, 40, 20]);
        assert_eq!(stats.shots, 100);
        assert_eq!(stats.most_likely(), (2, 0.4));
        assert!((stats.probability_of(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn average_runs_computes_mean_and_deviation() {
        let runs = vec![vec![50usize, 50], vec![60, 40], vec![40, 60]];
        let averaged = average_runs(&runs);
        assert_eq!(averaged.len(), 2);
        assert!((averaged[0].0 - 0.5).abs() < 1e-12);
        assert!(averaged[0].1 > 0.0);
        assert!(average_runs(&[]).is_empty());
    }

    #[test]
    fn default_model_is_the_ibm_preset() {
        assert_eq!(NoiseModel::default(), NoiseModel::ibm_qx_2017());
    }
}
