//! Execution backends.
//!
//! The ProjectQ flow of the paper can target "various types of backends, be
//! it software (simulator, emulator, resource counter, etc.) or hardware".
//! This module defines the [`Backend`] trait used by the engine crate and the
//! three software backends of this reproduction: the exact
//! [`StatevectorBackend`], the [`NoisyHardwareBackend`] standing in for the
//! IBM Quantum Experience chip, and the [`ResourceCounterBackend`].
//!
//! Dense state evolution inside these backends compiles circuits into the
//! [`ExecPlan`](crate::plan::ExecPlan) kernel (structure-of-arrays
//! amplitudes, cache-blocked sweeps, a worker pool for large states),
//! governed by the [`ExecConfig`] the backend is built with: thread count,
//! fusion, sampler shard size and cache-block size.

use crate::fusion::ExecConfig;
use crate::noise::{NoiseModel, NoisySimulator};
use crate::resource::ResourceCounts;
use crate::statevector::Statevector;
use crate::{QuantumCircuit, QuantumError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The result of executing a circuit on a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Number of qubits that were measured.
    pub num_qubits: usize,
    /// Number of shots executed.
    pub shots: usize,
    /// Histogram of measured basis states (missing entries mean zero counts).
    pub counts: BTreeMap<usize, usize>,
    /// Resource counts of the executed circuit.
    pub resources: ResourceCounts,
}

impl ExecutionResult {
    /// Builds the uniform result of a sampling backend from a dense
    /// histogram of measured basis states.
    ///
    /// Every backend that takes shots ([`StatevectorBackend`],
    /// [`NoisyHardwareBackend`]) produces its result through this one
    /// constructor, so the shape of [`ExecutionResult`] stays identical
    /// across execution paths.
    pub fn from_histogram(circuit: &QuantumCircuit, shots: usize, histogram: &[usize]) -> Self {
        Self {
            num_qubits: circuit.num_qubits(),
            shots,
            counts: histogram
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(outcome, &count)| (outcome, count))
                .collect(),
            resources: ResourceCounts::of(circuit),
        }
    }

    /// Builds the result of a sampling backend from a *sparse* histogram of
    /// measured basis states (outcome → count).
    ///
    /// Backends whose state representation never materializes all `2^n`
    /// outcomes (the sparse statevector simulator) cannot afford the dense
    /// histogram slice of [`ExecutionResult::from_histogram`]; this
    /// constructor accepts the counts map directly while producing the exact
    /// same result shape (zero counts are dropped either way).
    pub fn from_counts(
        circuit: &QuantumCircuit,
        shots: usize,
        counts: BTreeMap<usize, usize>,
    ) -> Self {
        Self {
            num_qubits: circuit.num_qubits(),
            shots,
            counts: counts.into_iter().filter(|&(_, count)| count > 0).collect(),
            resources: ResourceCounts::of(circuit),
        }
    }

    /// Builds the result of a backend that analyzes a circuit without
    /// sampling it (the [`ResourceCounterBackend`]).
    pub fn resources_only(circuit: &QuantumCircuit) -> Self {
        Self::from_histogram(circuit, 0, &[])
    }

    /// Empirical probability of an outcome.
    pub fn probability_of(&self, outcome: usize) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        *self.counts.get(&outcome).unwrap_or(&0) as f64 / self.shots as f64
    }

    /// The most frequent outcome and its empirical probability; `None` when
    /// no shots were taken.
    pub fn most_likely(&self) -> Option<(usize, f64)> {
        self.counts
            .iter()
            .max_by_key(|(_, &count)| count)
            .map(|(&outcome, &count)| (outcome, count as f64 / self.shots.max(1) as f64))
    }
}

/// A target that can execute quantum circuits, mirroring the backend concept
/// of ProjectQ and the machine concept of Q#.
pub trait Backend {
    /// Human-readable backend name.
    fn name(&self) -> &str;

    /// Executes `circuit` for `shots` measurement shots.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit cannot be executed on this backend
    /// (for example, too many qubits for a simulator).
    fn run(
        &mut self,
        circuit: &QuantumCircuit,
        shots: usize,
    ) -> Result<ExecutionResult, QuantumError>;

    /// Reconfigures how the backend executes circuits (thread count, gate
    /// fusion). Backends that do not simulate — or that deliberately avoid
    /// the optimized execution layer, like the dense reference oracle —
    /// ignore the setting.
    fn set_exec_config(&mut self, _config: ExecConfig) {}
}

/// Exact statevector simulation backend: the measurement statistics are
/// sampled from the exact output distribution.
#[derive(Debug, Clone)]
pub struct StatevectorBackend {
    rng: StdRng,
    config: ExecConfig,
}

impl StatevectorBackend {
    /// Creates a backend with a fixed random seed (sampling is the only
    /// source of randomness) and the default execution configuration.
    pub fn seeded(seed: u64) -> Self {
        Self::with_config(seed, ExecConfig::default())
    }

    /// Creates a backend with an explicit execution configuration.
    pub fn with_config(seed: u64, config: ExecConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            config,
        }
    }

    /// The execution configuration in use.
    pub fn exec_config(&self) -> ExecConfig {
        self.config
    }

    /// Runs the circuit and returns the exact final state instead of sampled
    /// counts.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized circuits.
    pub fn statevector(&self, circuit: &QuantumCircuit) -> Result<Statevector, QuantumError> {
        Statevector::run(circuit, &self.config)
    }

    /// Runs the circuit and samples `shots` measurements with the
    /// shot-sharded parallel sampler under an explicit `seed`, independent of
    /// the backend's own RNG stream. The histogram is reproducible at any
    /// thread count — it depends only on `(circuit, shots, seed,
    /// shot_shard_size)`; see [`crate::sampling`]. This is the execution path
    /// the batch engine uses.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized circuits.
    pub fn run_sharded(
        &self,
        circuit: &QuantumCircuit,
        shots: usize,
        seed: u64,
    ) -> Result<ExecutionResult, QuantumError> {
        let state = Statevector::run(circuit, &self.config)?;
        let histogram = state.sample_counts_sharded(seed, shots, &self.config);
        Ok(ExecutionResult::from_histogram(circuit, shots, &histogram))
    }
}

impl Default for StatevectorBackend {
    fn default() -> Self {
        Self::seeded(0xC0FFEE)
    }
}

impl Backend for StatevectorBackend {
    fn name(&self) -> &str {
        "statevector-simulator"
    }

    fn run(
        &mut self,
        circuit: &QuantumCircuit,
        shots: usize,
    ) -> Result<ExecutionResult, QuantumError> {
        let state = Statevector::run(circuit, &self.config)?;
        let histogram = state.sample_counts(&mut self.rng, shots);
        Ok(ExecutionResult::from_histogram(circuit, shots, &histogram))
    }

    fn set_exec_config(&mut self, config: ExecConfig) {
        self.config = config;
    }
}

/// Noisy-hardware backend: Monte-Carlo simulation with a gate-level noise
/// model, standing in for the IBM Quantum Experience chip of the paper.
#[derive(Debug, Clone)]
pub struct NoisyHardwareBackend {
    simulator: NoisySimulator,
    rng: StdRng,
    name: String,
}

impl NoisyHardwareBackend {
    /// Creates a backend with the given noise model and random seed.
    pub fn new(model: NoiseModel, seed: u64) -> Self {
        Self {
            simulator: NoisySimulator::new(model),
            rng: StdRng::seed_from_u64(seed),
            name: "noisy-hardware-model(ibmqx)".to_owned(),
        }
    }

    /// The noise model in use.
    pub fn model(&self) -> &NoiseModel {
        self.simulator.model()
    }
}

impl Default for NoisyHardwareBackend {
    fn default() -> Self {
        Self::new(NoiseModel::ibm_qx_2017(), 0x1B3)
    }
}

impl Backend for NoisyHardwareBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(
        &mut self,
        circuit: &QuantumCircuit,
        shots: usize,
    ) -> Result<ExecutionResult, QuantumError> {
        let histogram = self.simulator.run(circuit, shots, &mut self.rng)?;
        Ok(ExecutionResult::from_histogram(circuit, shots, &histogram))
    }

    fn set_exec_config(&mut self, config: ExecConfig) {
        self.simulator.set_exec_config(config);
    }
}

/// Resource-counting backend: never simulates, only reports gate counts.
#[derive(Debug, Clone, Default)]
pub struct ResourceCounterBackend;

impl Backend for ResourceCounterBackend {
    fn name(&self) -> &str {
        "resource-counter"
    }

    fn run(
        &mut self,
        circuit: &QuantumCircuit,
        _shots: usize,
    ) -> Result<ExecutionResult, QuantumError> {
        Ok(ExecutionResult::resources_only(circuit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantumGate;

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
    fn statevector_backend_samples_bell_distribution() {
        let mut backend = StatevectorBackend::seeded(11);
        let result = backend.run(&bell(), 2048).unwrap();
        assert_eq!(result.shots, 2048);
        assert!(result.probability_of(0b01) < 1e-9);
        assert!((result.probability_of(0b00) - 0.5).abs() < 0.05);
        assert_eq!(result.resources.cnot_count, 1);
        let (outcome, probability) = result.most_likely().unwrap();
        assert!(outcome == 0b00 || outcome == 0b11);
        assert!(probability > 0.4);
        assert_eq!(backend.name(), "statevector-simulator");
    }

    #[test]
    fn noisy_backend_spreads_probability_mass() {
        let mut ideal = StatevectorBackend::seeded(1);
        let mut noisy = NoisyHardwareBackend::default();
        let ideal_result = ideal.run(&bell(), 1024).unwrap();
        let noisy_result = noisy.run(&bell(), 1024).unwrap();
        let ideal_mass = ideal_result.probability_of(0b00) + ideal_result.probability_of(0b11);
        let noisy_mass = noisy_result.probability_of(0b00) + noisy_result.probability_of(0b11);
        assert!((ideal_mass - 1.0).abs() < 1e-9);
        assert!(noisy_mass < 0.999);
        assert!(noisy_mass > 0.75);
        assert!(noisy.name().contains("noisy"));
    }

    #[test]
    fn resource_counter_backend_reports_without_sampling() {
        let mut backend = ResourceCounterBackend;
        let result = backend.run(&bell(), 1000).unwrap();
        assert_eq!(result.shots, 0);
        assert!(result.counts.is_empty());
        assert_eq!(result.resources.total_gates, 2);
        assert_eq!(result.probability_of(0), 0.0);
        assert!(result.most_likely().is_none());
        assert_eq!(backend.name(), "resource-counter");
    }

    #[test]
    fn reproducibility_with_fixed_seed() {
        let mut a = StatevectorBackend::seeded(99);
        let mut b = StatevectorBackend::seeded(99);
        assert_eq!(a.run(&bell(), 100).unwrap(), b.run(&bell(), 100).unwrap());
    }

    #[test]
    fn sharded_run_is_thread_count_invariant_and_seed_keyed() {
        let circuit = bell();
        let sequential = StatevectorBackend::with_config(0, ExecConfig::sequential())
            .run_sharded(&circuit, 4096, 77)
            .unwrap();
        let threaded = StatevectorBackend::with_config(0, ExecConfig::sequential().with_threads(8))
            .run_sharded(&circuit, 4096, 77)
            .unwrap();
        assert_eq!(sequential, threaded);
        // The seed, not the backend's internal RNG, keys the histogram.
        let reseeded = StatevectorBackend::with_config(1, ExecConfig::sequential())
            .run_sharded(&circuit, 4096, 77)
            .unwrap();
        assert_eq!(sequential, reseeded);
        assert_eq!(sequential.shots, 4096);
        assert!(sequential.probability_of(0b01) < 1e-12);
    }

    #[test]
    fn sparse_and_dense_histogram_constructors_agree() {
        let circuit = bell();
        let histogram = [100usize, 0, 0, 156];
        let dense = ExecutionResult::from_histogram(&circuit, 256, &histogram);
        let sparse = ExecutionResult::from_counts(
            &circuit,
            256,
            BTreeMap::from([(0usize, 100usize), (1, 0), (3, 156)]),
        );
        assert_eq!(dense, sparse);
        assert!(!sparse.counts.contains_key(&1), "zero counts are dropped");
    }

    #[test]
    fn statevector_accessor_returns_exact_state() {
        let backend = StatevectorBackend::default();
        let state = backend.statevector(&bell()).unwrap();
        assert!((state.probability_of(0b11) - 0.5).abs() < 1e-12);
    }
}
