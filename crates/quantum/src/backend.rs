//! Execution backends.
//!
//! The ProjectQ flow of the paper can target "various types of backends, be
//! it software (simulator, emulator, resource counter, etc.) or hardware".
//! This module defines the [`Backend`] trait used by the engine crate and the
//! software backends of this reproduction:
//!
//! * [`ExactBackend`], the one exact simulator: generic over a
//!   [`PreparedState`] engine, it simulates a circuit into that engine's
//!   exact output state and samples it. The dense [`StatevectorBackend`]
//!   is its alias over [`SoaStatevector`]; the sparse and stabilizer crates
//!   add `SparseBackend` and `StabilizerBackend` the same way, so adding an
//!   exact engine means implementing [`PreparedState`] once;
//! * the [`NoisyHardwareBackend`], standing in for the IBM Quantum
//!   Experience chip;
//! * the [`ResourceCounterBackend`], which never simulates.
//!
//! Dense state evolution compiles circuits into the
//! [`ExecPlan`] kernel (structure-of-arrays amplitudes, cache-blocked
//! sweeps, a worker pool for large states), governed by the [`ExecConfig`]
//! the backend is built with: thread count, fusion, sampler shard size and
//! cache-block size. The dense state is sampled in the blocked layout the
//! kernel leaves (see [`crate::sampling`]); nothing on the dense path
//! copies it into interleaved amplitudes or builds a `2^n` distribution.

use crate::fusion::ExecConfig;
use crate::noise::{NoiseModel, NoisySimulator};
use crate::plan::{ExecPlan, SoaStatevector};
use crate::resource::ResourceCounts;
use crate::sampling;
use crate::{QuantumCircuit, QuantumError, MAX_SIMULATOR_QUBITS};
use qdaflow_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::time::Instant;

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
    /// histogram of measured basis states (index = outcome).
    ///
    /// Backends that fill a dense histogram produce their result here: the
    /// [`NoisyHardwareBackend`]'s Monte-Carlo replay and the
    /// [`DenseReferenceBackend`](crate::reference::DenseReferenceBackend)
    /// test oracle. [`ExactBackend`] goes through
    /// [`ExecutionResult::from_counts`], batch jobs through
    /// [`ExecutionResult::sampled`]. All drop zero counts, so the shape of
    /// [`ExecutionResult`] is the same on every path.
    pub fn from_histogram(circuit: &QuantumCircuit, shots: usize, histogram: &[usize]) -> Self {
        Self::sampled(
            ResourceCounts::of(circuit),
            shots,
            nonzero_counts(histogram),
        )
    }

    /// Builds the result of a sampling backend from a *sparse* histogram of
    /// measured basis states (outcome → count), counting the circuit's
    /// resources.
    ///
    /// Every [`ExactBackend`] produces its result here: [`PreparedState`]
    /// samplers return counts maps, because no exact engine materializes
    /// all `2^n` outcomes to sample them. Zero counts are dropped, exactly
    /// as in [`ExecutionResult::from_histogram`].
    pub fn from_counts(
        circuit: &QuantumCircuit,
        shots: usize,
        counts: BTreeMap<usize, usize>,
    ) -> Self {
        Self::sampled(ResourceCounts::of(circuit), shots, counts)
    }

    /// Builds a sampled result from resource counts the caller already
    /// holds: a batch job reports its compiled program's stored counts
    /// instead of counting the circuit again. The register width is
    /// `resources.num_qubits`; zero counts are dropped, as in
    /// [`ExecutionResult::from_counts`].
    pub fn sampled(
        resources: ResourceCounts,
        shots: usize,
        mut counts: BTreeMap<usize, usize>,
    ) -> Self {
        // In place: the exact samplers' maps are already zero-free, so this
        // walks the tree without rebuilding it.
        counts.retain(|_, count| *count > 0);
        Self {
            num_qubits: resources.num_qubits,
            shots,
            counts,
            resources,
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

/// The nonzero entries of a dense histogram as an outcome → count map.
fn nonzero_counts(histogram: &[usize]) -> BTreeMap<usize, usize> {
    histogram
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(outcome, &count)| (outcome, count))
        .collect()
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

/// The exact output state of a circuit on one simulation engine, ready to
/// be sampled — what an [`ExactBackend`] prepares before it draws shots.
///
/// Implemented by the dense [`SoaStatevector`] here, by `SparseStatevector`
/// in `qdaflow_sparse` and by `StabilizerSampler` in `qdaflow_stabilizer`.
/// Every implementation maps every draw to the outcome
/// [`CumulativeDistribution::outcome_of`](crate::sampling::CumulativeDistribution::outcome_of)
/// gives it on the distribution of its outcomes in ascending basis order,
/// so equal seeds give equal histograms across engines on their shared
/// domain. The two associated
/// functions are `where Self: Sized`, which keeps the trait object-safe:
/// callers that pick the engine at run time (the engine crate's
/// `BackendChoice::prepare`) hold a `Box<dyn PreparedState>`.
pub trait PreparedState {
    /// The name of the backend that simulates through this state (what
    /// [`Backend::name`] reports for `ExactBackend<Self>`).
    fn backend_name() -> &'static str
    where
        Self: Sized;

    /// Simulates `circuit` from `|0…0⟩` under `config`. Engines whose
    /// evolution is sequential ignore the configuration here; it still
    /// governs their sampling.
    ///
    /// # Errors
    ///
    /// Whatever the engine cannot represent: [`QuantumError::TooManyQubits`]
    /// beyond its ceiling, [`QuantumError::UnsupportedGate`] for gates
    /// outside its gate set.
    fn simulate(circuit: &QuantumCircuit, config: &ExecConfig) -> Result<Self, QuantumError>
    where
        Self: Sized;

    /// Samples `shots` measurements sequentially from `rng` — one `f64`
    /// draw per shot — into a histogram of observed basis states (zero
    /// counts omitted).
    fn sample_with(&self, rng: &mut StdRng, shots: usize) -> BTreeMap<usize, usize>;

    /// Shot-sharded sampling under an explicit `seed`, independent of any
    /// backend RNG stream: the histogram depends only on `(state, seed,
    /// shots, config.shot_shard_size)`, never on `config.threads` (see
    /// [`crate::sampling`]). This is the path batch jobs take.
    fn sample_sharded(
        &self,
        seed: u64,
        shots: usize,
        config: &ExecConfig,
    ) -> BTreeMap<usize, usize>;
}

/// The dense engine: the circuit runs through an [`ExecPlan`] on a blocked
/// initial state, and the state is sampled in that layout, by one walk over
/// sorted draws (see [`crate::sampling`]). Sampling is sequential:
/// `config.threads` drives only the kernel.
///
/// [`ExecPlan::compile_from_zero`] gives the initial state and the plan.
/// With [`ExecConfig::fusion`] on, the circuit's leading single-qubit layer
/// is written as the initial product state
/// ([`SoaStatevector::product_state`]), and the plan holds only the ops
/// after it, fused by the same walk as [`ExecPlan::compile`]; on the
/// 20-qubit hidden shift both plans are the same 10 records. With fusion
/// off the per-gate plan runs on the all-`|0⟩` product state (what
/// [`SoaStatevector::zero_state`] makes), so the amplitudes are the
/// bit-identical per-gate arithmetic the sparse and stabilizer engines
/// reproduce.
///
/// Under tracing, `simulate` records a `plan compile` section (record and
/// segment counts) and a `state prepare` span (qubits absorbed) beside the
/// kernel's `apply_soa` span, and `sample_sharded` a `sample walk` span
/// around the walk over the sorted draws (after the draws themselves).
impl PreparedState for SoaStatevector {
    fn backend_name() -> &'static str {
        "statevector-simulator"
    }

    fn simulate(circuit: &QuantumCircuit, config: &ExecConfig) -> Result<Self, QuantumError> {
        let num_qubits = circuit.num_qubits();
        if num_qubits > MAX_SIMULATOR_QUBITS {
            return Err(QuantumError::TooManyQubits {
                requested: num_qubits,
                maximum: MAX_SIMULATOR_QUBITS,
            });
        }
        let compile_started = telemetry::enabled().then(Instant::now);
        let (layer, plan) = ExecPlan::compile_from_zero(circuit, config);
        if let Some(started) = compile_started {
            telemetry::complete(
                "kernel",
                format!(
                    "plan compile {num_qubits}q: {} records, {} segments",
                    plan.num_records(),
                    plan.num_segments()
                ),
                started.elapsed(),
            );
        }
        let mut state = {
            let _span = telemetry::span!(
                "kernel",
                "state prepare {num_qubits}q: {} qubits absorbed",
                layer.num_absorbed()
            );
            Self::product_state(layer.factors(), plan.block_bits())
        };
        plan.apply_soa(&mut state, config);
        Ok(state)
    }

    fn sample_with(&self, rng: &mut StdRng, shots: usize) -> BTreeMap<usize, usize> {
        let draws = (0..shots).map(|_| rng.gen::<f64>()).collect();
        sampling::count_draws(self.block_slices(), draws)
    }

    fn sample_sharded(
        &self,
        seed: u64,
        shots: usize,
        config: &ExecConfig,
    ) -> BTreeMap<usize, usize> {
        let draws = sampling::sharded_draws(seed, shots, config.shot_shard_size);
        let _span = telemetry::span!(
            "sampling",
            "sample walk {shots} draws over {}q",
            self.num_qubits()
        );
        sampling::count_draws(self.block_slices(), draws)
    }
}

/// Exact simulation backend over one [`PreparedState`] engine: every
/// [`Backend::run`] simulates the circuit with `S::simulate` and samples
/// the exact output distribution with the backend's own seeded RNG.
///
/// The three exact engines are aliases of this one type —
/// [`StatevectorBackend`] here, `SparseBackend` in `qdaflow_sparse` and
/// `StabilizerBackend` in `qdaflow_stabilizer` — so they share seeding
/// ([`ExactBackend::seeded`], default seed `0xC0FFEE`), RNG consumption
/// (one draw per shot) and configuration handling.
#[derive(Debug, Clone)]
pub struct ExactBackend<S> {
    rng: StdRng,
    config: ExecConfig,
    engine: PhantomData<fn() -> S>,
}

/// Exact dense statevector backend: all `2^n` amplitudes in the blocked
/// [`SoaStatevector`] layout, simulated through the [`ExecPlan`] interpreter
/// under the backend's [`ExecConfig`] and sampled where the kernel leaves
/// them.
pub type StatevectorBackend = ExactBackend<SoaStatevector>;

impl<S: PreparedState> ExactBackend<S> {
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
            engine: PhantomData,
        }
    }

    /// The execution configuration in use.
    pub fn exec_config(&self) -> ExecConfig {
        self.config
    }

    /// Simulates `circuit` under the backend's configuration and returns
    /// the prepared state instead of sampled counts — the exact state for
    /// inspection, or the input of [`PreparedState::sample_sharded`].
    ///
    /// # Errors
    ///
    /// Everything `S::simulate` returns.
    pub fn prepare(&self, circuit: &QuantumCircuit) -> Result<S, QuantumError> {
        S::simulate(circuit, &self.config)
    }
}

impl<S: PreparedState> Default for ExactBackend<S> {
    fn default() -> Self {
        Self::seeded(0xC0FFEE)
    }
}

impl<S: PreparedState> Backend for ExactBackend<S> {
    fn name(&self) -> &str {
        S::backend_name()
    }

    fn run(
        &mut self,
        circuit: &QuantumCircuit,
        shots: usize,
    ) -> Result<ExecutionResult, QuantumError> {
        let counts = self.prepare(circuit)?.sample_with(&mut self.rng, shots);
        Ok(ExecutionResult::from_counts(circuit, shots, counts))
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
    use crate::sampling::CumulativeDistribution;
    use crate::{Complex, QuantumGate};

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
        let sharded = |backend: StatevectorBackend| {
            let state = backend.prepare(&circuit).unwrap();
            let counts = state.sample_sharded(77, 4096, &backend.exec_config());
            ExecutionResult::from_counts(&circuit, 4096, counts)
        };
        let sequential = sharded(StatevectorBackend::with_config(0, ExecConfig::sequential()));
        let threaded = sharded(StatevectorBackend::with_config(
            0,
            ExecConfig::sequential().with_threads(8),
        ));
        assert_eq!(sequential, threaded);
        // The seed, not the backend's internal RNG, keys the histogram.
        let reseeded = sharded(StatevectorBackend::with_config(1, ExecConfig::sequential()));
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
    fn dense_draws_past_the_total_mass_land_on_the_last_outcome() {
        // Norm 0.5: a quarter of the mass on |00⟩ and on |11⟩, so every draw
        // at or above 0.5 falls past the mass and, as with `outcome_of`,
        // lands on |11⟩ next to the draws in [0.25, 0.5).
        let half = Complex::real(0.5);
        let amplitudes = [half, Complex::ZERO, Complex::ZERO, half];
        let state = SoaStatevector::from_amplitudes(&amplitudes, 1);
        let dist = CumulativeDistribution::from_amplitudes(&amplitudes);
        let config = ExecConfig::sequential().with_shot_shard_size(64);
        let counts = state.sample_sharded(3, 1000, &config);
        assert_eq!(counts, nonzero_counts(&dist.sample_sharded(3, 1000, 1, 64)));
        assert_eq!(counts.keys().copied().collect::<Vec<_>>(), [0, 3]);
        assert!(counts[&3] > counts[&0] * 2, "{counts:?}");
        assert_eq!(dist.outcome_of(0.75), 3);
    }

    #[test]
    fn dense_sampling_of_zero_shots_is_empty() {
        let state = SoaStatevector::simulate(&bell(), &ExecConfig::sequential()).unwrap();
        assert!(state
            .sample_sharded(5, 0, &ExecConfig::sequential())
            .is_empty());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(state.sample_with(&mut rng, 0).is_empty());
        // No draw was taken.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(5).gen::<u64>());
    }

    #[test]
    fn dense_sampling_of_a_basis_state_is_one_outcome() {
        let mut amplitudes = [Complex::ZERO; 8];
        amplitudes[0b101] = Complex::ONE;
        let state = SoaStatevector::from_amplitudes(&amplitudes, 1);
        let expected = BTreeMap::from([(0b101usize, 777usize)]);
        let config = ExecConfig::sequential().with_shot_shard_size(100);
        assert_eq!(state.sample_sharded(9, 777, &config), expected);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(state.sample_with(&mut rng, 777), expected);
    }

    #[test]
    fn statevector_accessor_returns_exact_state() {
        let backend = StatevectorBackend::default();
        let state = backend.prepare(&bell()).unwrap();
        assert!((state.amplitude(0b11).norm_sqr() - 0.5).abs() < 1e-12);
    }
}
