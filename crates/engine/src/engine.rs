//! The `MainEngine`: qubit allocation, gate application, meta-sections and
//! backend dispatch.

use crate::oracle::{compile_permutation_oracle, compile_phase_oracle, SynthesisChoice};
use crate::EngineError;
use qdaflow_boolfn::{Expr, Permutation, TruthTable};
use qdaflow_quantum::backend::{
    Backend, ExecutionResult, NoisyHardwareBackend, PreparedState, ResourceCounterBackend,
    StatevectorBackend,
};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::noise::NoiseModel;
use qdaflow_quantum::{
    GateCensus, QuantumCircuit, QuantumError, QuantumGate, SoaStatevector, MAX_SIMULATOR_QUBITS,
};
use qdaflow_sparse::{SparseBackend, SparseStatevector};
use qdaflow_stabilizer::{StabilizerBackend, StabilizerSampler, MAX_STABILIZER_QUBITS};
use std::fmt;

/// Which exact-simulation engine executes circuits: the dense statevector
/// (all `2^n` amplitudes, in cache blocks), the sparse statevector (a hash
/// map of the nonzero amplitudes only), the stabilizer tableau (Pauli
/// generators, Clifford circuits only), or automatic per-circuit dispatch
/// between them.
///
/// Each concrete choice names one [`PreparedState`] engine
/// ([`SoaStatevector`], [`SparseStatevector`], [`StabilizerSampler`]), and
/// [`BackendChoice::prepare`] is the one place that turns a choice into a
/// simulated state. The choice threads through the whole stack:
/// [`MainEngine`] construction ([`MainEngine::with_simulator_choice`], which
/// runs the same engines as [`ExactBackend`](qdaflow_quantum::ExactBackend)s),
/// per-job batch execution
/// ([`BatchJob::with_backend`](crate::BatchJob::with_backend): every job is
/// prepared through [`BackendChoice::prepare`], while its compiled program
/// is cached under the spec's key alone, shared by every backend), and the
/// shell's `backend` command.
/// Dense is the default and the right choice for states with dense support
/// (e.g. Hadamard layers over the full register); sparse lifts the qubit
/// ceiling for the paper's permutation-dominated oracle workloads;
/// stabilizer lifts it much further for pure-Clifford circuits;
/// [`BackendChoice::Auto`] censuses each circuit ([`GateCensus`]) and routes
/// it through [`resolve_backend`] so none of this needs picking by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// The dense [`StatevectorBackend`]: all `2^n` amplitudes, capped at
    /// [`MAX_SIMULATOR_QUBITS`].
    #[default]
    Dense,
    /// The [`SparseBackend`]: nonzero amplitudes only, capped at
    /// [`MAX_SPARSE_QUBITS`](qdaflow_sparse::MAX_SPARSE_QUBITS).
    Sparse,
    /// The [`StabilizerBackend`]: Aaronson–Gottesman tableau, Clifford
    /// gates only, capped at [`MAX_STABILIZER_QUBITS`].
    Stabilizer,
    /// Automatic per-circuit dispatch: each compiled circuit is censused
    /// and routed to the cheapest backend that can run it (the heuristics
    /// of [`resolve_backend`]). Nothing simulates on `Auto` itself: it
    /// always resolves to one of the concrete choices first. There is no
    /// fallback: a job routed to a backend that then rejects it fails.
    Auto,
}

impl BackendChoice {
    /// The lower-case name used by the shell's `backend` command and the
    /// job digest ([`BatchJob::digest`](crate::BatchJob::digest)).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
            Self::Stabilizer => "stabilizer",
            Self::Auto => "auto",
        }
    }

    /// Parses a backend name (`"dense"`, `"sparse"`, `"stabilizer"` or
    /// `"auto"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            "stabilizer" => Some(Self::Stabilizer),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// Parses a backend name into a typed result: unknown names return
    /// [`EngineError::UnknownBackend`], whose message lists the valid
    /// choices — the shell's `backend` command surfaces this directly.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownBackend`] for anything
    /// [`BackendChoice::from_name`] rejects.
    pub fn parse(name: &str) -> Result<Self, EngineError> {
        Self::from_name(name).ok_or_else(|| EngineError::UnknownBackend {
            name: name.to_string(),
        })
    }

    /// Resolves this choice against a circuit census: [`BackendChoice::Auto`]
    /// becomes the [`resolve_backend`] recommendation, concrete choices pass
    /// through unchanged. The result is never `Auto`.
    /// [`BatchEngine::run_job`](crate::BatchEngine::run_job) resolves every
    /// job this way, against its program's stored
    /// [`census`](crate::CompiledProgram::census).
    pub fn resolve(self, census: &GateCensus) -> Self {
        match self {
            Self::Auto => resolve_backend(census),
            concrete => concrete,
        }
    }

    /// Simulates `circuit` on this choice's engine and returns the prepared
    /// state, ready for [`PreparedState::sample_sharded`]. This is the one
    /// place that maps a choice to a simulated state;
    /// [`BatchEngine::run_job`](crate::BatchEngine::run_job) calls it for
    /// every job. [`BackendChoice::Auto`] takes the census route: the
    /// circuit is censused and prepared on the [`resolve_backend`] choice.
    ///
    /// # Errors
    ///
    /// The engine's simulation errors: [`QuantumError::TooManyQubits`]
    /// beyond its ceiling, and on the stabilizer
    /// [`QuantumError::SupportTooLarge`] beyond its sampling rank of 53,
    /// [`QuantumError::TooManyQubits`] for outcomes past the `usize` width,
    /// and [`QuantumError::UnsupportedGate`] for non-Clifford gates.
    pub fn prepare(
        self,
        circuit: &QuantumCircuit,
        config: &ExecConfig,
    ) -> Result<Box<dyn PreparedState>, QuantumError> {
        Ok(match self {
            Self::Dense => Box::new(SoaStatevector::simulate(circuit, config)?),
            Self::Sparse => Box::new(SparseStatevector::simulate(circuit, config)?),
            Self::Stabilizer => Box::new(StabilizerSampler::simulate(circuit, config)?),
            Self::Auto => {
                return resolve_backend(&GateCensus::of(circuit)).prepare(circuit, config)
            }
        })
    }
}

/// Routes a censused circuit to the cheapest backend that can run it —
/// the heuristic behind [`BackendChoice::Auto`]:
///
/// 1. **All-Clifford circuits go to the stabilizer tableau** (when they fit
///    [`MAX_STABILIZER_QUBITS`]): polynomial cost at any width. Its sampling
///    caps reject a final state of support rank above 53 or with outcomes
///    past bit 63, as a typed error; both need a register of at least 54
///    qubits, which neither amplitude engine can hold, so every
///    all-Clifford circuit that some engine runs samples here.
/// 2. **Hadamard-heavy circuits go dense** (when they fit
///    [`MAX_SIMULATOR_QUBITS`]): at ≥ 25% `H` gates the sparse support is
///    presumed to spread across the basis, which is exactly the regime where
///    walking a hash-map support loses to the flat amplitude array.
/// 3. **Everything else goes sparse**: permutation-dominated oracle
///    workloads keep single-basis-state support, and circuits beyond the
///    dense qubit ceiling have nowhere else to go.
///
/// The census's [`support_bound_log2`](GateCensus::support_bound_log2) is
/// deliberately *not* a routing input: the bound saturates as soon as a
/// circuit has as many `H` gates as qubits, even when the layers cancel
/// (hidden-shift circuits do exactly this), so it would misroute the
/// paper's core workloads. The fractions below are structural, not
/// simulated: the census is one linear sweep per circuit, and a cached
/// program takes it once, when it is built.
///
/// The function is pure: it records nothing. The executors that act on
/// its answer — [`BatchEngine::run_job`](crate::BatchEngine::run_job) and
/// [`MainEngine::flush`] — count the dispatch in `qdaflow_dispatch_total`.
pub fn resolve_backend(census: &GateCensus) -> BackendChoice {
    if census.is_all_clifford() && census.num_qubits <= MAX_STABILIZER_QUBITS {
        BackendChoice::Stabilizer
    } else if census.num_qubits <= MAX_SIMULATOR_QUBITS && census.hadamard_fraction() >= 0.25 {
        BackendChoice::Dense
    } else {
        BackendChoice::Sparse
    }
}

/// Records one dispatch decision of an executor: counts `backend` in the
/// global `qdaflow_dispatch_total{backend=...}` family and, when the
/// decision was an automatic resolution (`census` is the census that made
/// it), emits the `auto -> <backend>` trace event.
/// [`BatchEngine::run_job`](crate::BatchEngine::run_job) calls it once per
/// job, after the job's program lookup succeeded, and [`MainEngine::flush`]
/// once per automatic resolution, so the family reflects what actually ran.
pub(crate) fn note_dispatch(backend: BackendChoice, census: Option<&GateCensus>) {
    qdaflow_telemetry::global_metrics()
        .counter(
            "qdaflow_dispatch_total",
            "Backend dispatch decisions, labelled by the chosen backend.",
            &[("backend", backend.as_str())],
        )
        .inc();
    if let Some(census) = census.filter(|_| qdaflow_telemetry::enabled()) {
        qdaflow_telemetry::event(
            "dispatch",
            format!("auto -> {backend}"),
            vec![
                ("qubits", census.num_qubits.to_string()),
                ("clifford", census.clifford.to_string()),
                ("t", census.t.to_string()),
            ],
        );
    }
}

/// The exact backend of `choice` with the default seed and configuration —
/// the one place [`MainEngine`] maps a choice to a backend.
/// [`BackendChoice::Auto`] starts on the dense simulator until the first
/// [`MainEngine::flush`] resolves it.
fn exact_backend(choice: BackendChoice) -> Box<dyn Backend> {
    match choice {
        BackendChoice::Dense | BackendChoice::Auto => Box::new(StatevectorBackend::default()),
        BackendChoice::Sparse => Box::new(SparseBackend::default()),
        BackendChoice::Stabilizer => Box::new(StabilizerBackend::default()),
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A handle to a qubit allocated by a [`MainEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Qubit(usize);

impl Qubit {
    /// The engine-global index of the qubit.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A recorded compute section, used for automatic uncomputation
/// (the `Compute`/`Uncompute` meta-statements of ProjectQ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeSection {
    start: usize,
    end: Option<usize>,
}

/// State of an engine running under [`BackendChoice::Auto`]: the last
/// resolution (so the backend is only rebuilt when the recommendation
/// changes) and the execution configuration to reapply on rebuild.
#[derive(Debug, Clone, Copy)]
struct AutoDispatch {
    resolved: Option<BackendChoice>,
    config: ExecConfig,
}

/// The ProjectQ-style main engine: it records the gates emitted by the
/// program (including compiled oracles) and finally hands the circuit to a
/// [`Backend`] on [`MainEngine::flush`].
pub struct MainEngine {
    backend: Box<dyn Backend>,
    gates: Vec<QuantumGate>,
    num_qubits: usize,
    auto: Option<AutoDispatch>,
}

impl MainEngine {
    /// Creates an engine with an explicit backend.
    pub fn new(backend: Box<dyn Backend>) -> Self {
        Self {
            backend,
            gates: Vec::new(),
            num_qubits: 0,
            auto: None,
        }
    }

    /// Creates an engine targeting the exact statevector simulator. The
    /// backend executes circuits through the
    /// [`ExecPlan`](qdaflow_quantum::plan::ExecPlan) SoA kernel (split
    /// re/im amplitude arrays, cache-blocked multi-op sweeps) under the
    /// default [`ExecConfig`]; [`MainEngine::with_simulator_config`] picks
    /// the thread count, fusion and cache-block size.
    pub fn with_simulator() -> Self {
        Self::with_simulator_choice(BackendChoice::Dense)
    }

    /// Creates an engine targeting the sparse statevector simulator —
    /// the same exact semantics as [`MainEngine::with_simulator`] on the
    /// shared domain, with cost scaling in the state's support size instead
    /// of `2^n` (see [`qdaflow_sparse`]).
    pub fn with_sparse_simulator() -> Self {
        Self::with_simulator_choice(BackendChoice::Sparse)
    }

    /// Creates an engine targeting the stabilizer tableau simulator —
    /// Clifford circuits only, at up to [`MAX_STABILIZER_QUBITS`] qubits
    /// (see [`qdaflow_stabilizer`]). Non-Clifford gates surface as a typed
    /// [`EngineError::Quantum`] on [`MainEngine::flush`].
    pub fn with_stabilizer_simulator() -> Self {
        Self::with_simulator_choice(BackendChoice::Stabilizer)
    }

    /// Creates an engine targeting the exact simulator selected by
    /// `choice`: the [`ExactBackend`](qdaflow_quantum::ExactBackend) over
    /// that choice's [`PreparedState`] engine, with the default seed and
    /// configuration. [`BackendChoice::Auto`] starts on the dense simulator
    /// and re-censuses the recorded circuit on every [`MainEngine::flush`],
    /// swapping the backend whenever [`resolve_backend`] changes its
    /// recommendation (see [`MainEngine::resolved_backend`]); each flush
    /// counts its resolution in `qdaflow_dispatch_total`. There is no
    /// fallback: a flush the resolved backend rejects returns its error.
    pub fn with_simulator_choice(choice: BackendChoice) -> Self {
        let mut engine = Self::new(exact_backend(choice));
        if choice == BackendChoice::Auto {
            engine.auto = Some(AutoDispatch {
                resolved: None,
                config: ExecConfig::default(),
            });
        }
        engine
    }

    /// Creates an engine targeting the statevector simulator with an
    /// explicit execution configuration (thread count, gate fusion, sampler
    /// shard size and the plan's cache-block size).
    pub fn with_simulator_config(config: ExecConfig) -> Self {
        let mut engine = Self::with_simulator();
        engine.set_exec_config(config);
        engine
    }

    /// Reconfigures how the backend executes circuits. Backends that do not
    /// simulate ignore the setting; the backend owns the configuration.
    /// Under [`BackendChoice::Auto`] the configuration is remembered and
    /// reapplied whenever dispatch swaps the backend.
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        if let Some(auto) = &mut self.auto {
            auto.config = config;
        }
        self.backend.set_exec_config(config);
    }

    /// The concrete backend the last [`MainEngine::flush`] under
    /// [`BackendChoice::Auto`] resolved to — `None` before the first flush
    /// or when the engine was not constructed with `Auto`.
    pub fn resolved_backend(&self) -> Option<BackendChoice> {
        self.auto.and_then(|auto| auto.resolved)
    }

    /// Re-censuses the recorded circuit, records the resolution, and swaps
    /// the backend if the [`resolve_backend`] recommendation changed. No-op
    /// outside `Auto`.
    fn dispatch_auto(&mut self, circuit: &QuantumCircuit) {
        let Some(auto) = &mut self.auto else {
            return;
        };
        let census = GateCensus::of(circuit);
        let resolved = resolve_backend(&census);
        note_dispatch(resolved, Some(&census));
        if auto.resolved != Some(resolved) {
            self.backend = exact_backend(resolved);
            self.backend.set_exec_config(auto.config);
            auto.resolved = Some(resolved);
        }
    }

    /// Creates an engine targeting the noisy hardware model (the stand-in for
    /// the IBM Quantum Experience backend of the paper).
    pub fn with_noisy_hardware(model: NoiseModel, seed: u64) -> Self {
        Self::new(Box::new(NoisyHardwareBackend::new(model, seed)))
    }

    /// Creates an engine targeting the resource counter backend.
    pub fn with_resource_counter() -> Self {
        Self::new(Box::new(ResourceCounterBackend))
    }

    /// Name of the configured backend.
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// Allocates a register of `size` fresh qubits (initialised to `|0⟩`).
    pub fn allocate_qureg(&mut self, size: usize) -> Vec<Qubit> {
        let start = self.num_qubits;
        self.num_qubits += size;
        (start..start + size).map(Qubit).collect()
    }

    /// Allocates a single fresh qubit.
    pub fn allocate_qubit(&mut self) -> Qubit {
        self.allocate_qureg(1)[0]
    }

    /// Number of qubits allocated so far.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The circuit recorded so far.
    pub fn circuit(&self) -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(self.num_qubits);
        for gate in &self.gates {
            circuit
                .push(gate.clone())
                .expect("recorded gates always fit the allocated register");
        }
        circuit
    }

    fn check_qubit(&self, qubit: Qubit) -> Result<usize, EngineError> {
        if qubit.index() >= self.num_qubits {
            return Err(EngineError::ForeignQubit {
                index: qubit.index(),
                allocated: self.num_qubits,
            });
        }
        Ok(qubit.index())
    }

    /// Applies a raw gate expressed over engine-global qubit indices.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Quantum`] if the gate is malformed (for
    /// example, it repeats a qubit) and [`EngineError::ForeignQubit`] if it
    /// references unallocated qubits.
    pub fn apply_gate(&mut self, gate: QuantumGate) -> Result<(), EngineError> {
        for qubit in gate.qubits() {
            self.check_qubit(Qubit(qubit))?;
        }
        // Validate through a throwaway circuit so duplicate-qubit errors are
        // reported eagerly.
        let mut probe = QuantumCircuit::new(self.num_qubits);
        probe.push(gate.clone())?;
        self.gates.push(gate);
        Ok(())
    }

    /// Applies a Hadamard gate.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ForeignQubit`] for unallocated qubits.
    pub fn h(&mut self, qubit: Qubit) -> Result<(), EngineError> {
        let index = self.check_qubit(qubit)?;
        self.apply_gate(QuantumGate::H(index))
    }

    /// Applies a Pauli-X gate.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ForeignQubit`] for unallocated qubits.
    pub fn x(&mut self, qubit: Qubit) -> Result<(), EngineError> {
        let index = self.check_qubit(qubit)?;
        self.apply_gate(QuantumGate::X(index))
    }

    /// Applies a Pauli-Z gate.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ForeignQubit`] for unallocated qubits.
    pub fn z(&mut self, qubit: Qubit) -> Result<(), EngineError> {
        let index = self.check_qubit(qubit)?;
        self.apply_gate(QuantumGate::Z(index))
    }

    /// Applies a CNOT gate.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ForeignQubit`] for unallocated qubits and
    /// [`EngineError::Quantum`] if control and target coincide.
    pub fn cnot(&mut self, control: Qubit, target: Qubit) -> Result<(), EngineError> {
        let control = self.check_qubit(control)?;
        let target = self.check_qubit(target)?;
        self.apply_gate(QuantumGate::Cx { control, target })
    }

    /// Applies a controlled-Z gate.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ForeignQubit`] for unallocated qubits and
    /// [`EngineError::Quantum`] if the two qubits coincide.
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> Result<(), EngineError> {
        let a = self.check_qubit(a)?;
        let b = self.check_qubit(b)?;
        self.apply_gate(QuantumGate::Cz { a, b })
    }

    /// Applies a Hadamard to every qubit of a register (the `All(H) | qubits`
    /// construct of the paper's programs).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ForeignQubit`] for unallocated qubits.
    pub fn all_h(&mut self, qubits: &[Qubit]) -> Result<(), EngineError> {
        for &qubit in qubits {
            self.h(qubit)?;
        }
        Ok(())
    }

    /// Applies an X to every qubit of a register.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ForeignQubit`] for unallocated qubits.
    pub fn all_x(&mut self, qubits: &[Qubit]) -> Result<(), EngineError> {
        for &qubit in qubits {
            self.x(qubit)?;
        }
        Ok(())
    }

    /// Starts a compute section (the `with Compute(eng):` statement).
    pub fn begin_compute(&mut self) -> ComputeSection {
        ComputeSection {
            start: self.gates.len(),
            end: None,
        }
    }

    /// Ends a compute section, capturing the recorded gate range.
    pub fn end_compute(&mut self, mut section: ComputeSection) -> ComputeSection {
        section.end = Some(self.gates.len());
        section
    }

    /// Appends the adjoint of the gates recorded in `section`
    /// (the `Uncompute(eng)` statement).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidComputeSection`] if the section was not
    /// closed with [`MainEngine::end_compute`] or does not describe a valid
    /// gate range.
    pub fn uncompute(&mut self, section: &ComputeSection) -> Result<(), EngineError> {
        let end = section.end.ok_or(EngineError::InvalidComputeSection)?;
        if section.start > end || end > self.gates.len() {
            return Err(EngineError::InvalidComputeSection);
        }
        let inverse: Vec<QuantumGate> = self.gates[section.start..end]
            .iter()
            .rev()
            .map(QuantumGate::dagger)
            .collect();
        self.gates.extend(inverse);
        Ok(())
    }

    /// Records the gates emitted by `body` and appends their adjoint instead
    /// (the `with Dagger(eng):` statement of the paper's Fig. 7).
    ///
    /// # Errors
    ///
    /// Propagates errors from `body`; on error the partially recorded gates
    /// are discarded.
    pub fn dagger<F>(&mut self, body: F) -> Result<(), EngineError>
    where
        F: FnOnce(&mut Self) -> Result<(), EngineError>,
    {
        let start = self.gates.len();
        match body(self) {
            Ok(()) => {
                let recorded: Vec<QuantumGate> = self.gates.drain(start..).collect();
                self.gates
                    .extend(recorded.iter().rev().map(QuantumGate::dagger));
                Ok(())
            }
            Err(error) => {
                self.gates.truncate(start);
                Err(error)
            }
        }
    }

    /// Applies the diagonal phase oracle `U_f` of the Boolean function `f`
    /// (given as an expression over the register's qubits, variable `x_i`
    /// referring to `qubits[i]`) — the `PhaseOracle(f) | qubits` primitive.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RegisterSizeMismatch`] if the expression uses
    /// more variables than qubits were provided, plus any compilation error.
    pub fn phase_oracle_expr(&mut self, f: &Expr, qubits: &[Qubit]) -> Result<(), EngineError> {
        if f.num_vars() > qubits.len() {
            return Err(EngineError::RegisterSizeMismatch {
                expected: f.num_vars(),
                provided: qubits.len(),
            });
        }
        let table = f.truth_table(qubits.len())?;
        self.phase_oracle(&table, qubits)
    }

    /// Applies the diagonal phase oracle of a Boolean function given as a
    /// truth table over `qubits.len()` variables.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RegisterSizeMismatch`] if the table width does
    /// not match the register, plus any compilation error.
    pub fn phase_oracle(
        &mut self,
        function: &TruthTable,
        qubits: &[Qubit],
    ) -> Result<(), EngineError> {
        if function.num_vars() != qubits.len() {
            return Err(EngineError::RegisterSizeMismatch {
                expected: function.num_vars(),
                provided: qubits.len(),
            });
        }
        let oracle = compile_phase_oracle(function)?;
        self.append_local_circuit(&oracle, qubits)
    }

    /// Applies the permutation oracle `|x⟩ → |π(x)⟩` to the register, with
    /// qubit `qubits[i]` carrying bit `i` of `x` — the
    /// `PermutationOracle(pi) | qubits` primitive. Ancilla qubits required by
    /// the Clifford+T mapping are allocated automatically.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RegisterSizeMismatch`] if the permutation width
    /// does not match the register, plus any synthesis or mapping error.
    pub fn permutation_oracle(
        &mut self,
        permutation: &Permutation,
        qubits: &[Qubit],
        synthesis: SynthesisChoice,
    ) -> Result<(), EngineError> {
        if permutation.num_vars() != qubits.len() {
            return Err(EngineError::RegisterSizeMismatch {
                expected: permutation.num_vars(),
                provided: qubits.len(),
            });
        }
        let oracle = compile_permutation_oracle(permutation, synthesis)?;
        self.append_local_circuit(&oracle, qubits)
    }

    /// Appends the adjoint of a permutation oracle (used for `π⁻¹` via the
    /// `Dagger` construction of the paper's Fig. 7).
    ///
    /// # Errors
    ///
    /// Same as [`MainEngine::permutation_oracle`].
    pub fn permutation_oracle_dagger(
        &mut self,
        permutation: &Permutation,
        qubits: &[Qubit],
        synthesis: SynthesisChoice,
    ) -> Result<(), EngineError> {
        self.dagger(|engine| engine.permutation_oracle(permutation, qubits, synthesis))
    }

    /// Relabels a circuit expressed over a local register `0..k` (plus
    /// optional ancillas `k..`) onto the engine's qubits, allocating fresh
    /// engine qubits for the ancillas.
    fn append_local_circuit(
        &mut self,
        local: &QuantumCircuit,
        qubits: &[Qubit],
    ) -> Result<(), EngineError> {
        for &qubit in qubits {
            self.check_qubit(qubit)?;
        }
        let num_ancillas = local.num_qubits().saturating_sub(qubits.len());
        let ancillas = self.allocate_qureg(num_ancillas);
        let mut mapping: Vec<usize> = qubits.iter().map(Qubit::index).collect();
        mapping.extend(ancillas.iter().map(Qubit::index));
        for gate in local {
            let relabeled = relabel_gate(gate, &mapping);
            self.apply_gate(relabeled)?;
        }
        Ok(())
    }

    /// Sends the recorded circuit to the backend, measuring all qubits for
    /// `shots` shots (the `eng.flush()` plus measurement of the paper's
    /// programs). The recorded circuit is kept, so `flush` can be called
    /// again (e.g. with another shot count).
    ///
    /// # Errors
    ///
    /// Propagates backend execution errors.
    pub fn flush(&mut self, shots: usize) -> Result<ExecutionResult, EngineError> {
        let circuit = self.circuit();
        self.dispatch_auto(&circuit);
        Ok(self.backend.run(&circuit, shots)?)
    }

    /// Resets the engine: forgets all gates and qubits, keeping the backend.
    pub fn reset(&mut self) {
        self.gates.clear();
        self.num_qubits = 0;
    }
}

/// Relabels the qubits of a gate through `mapping[local] = global`.
fn relabel_gate(gate: &QuantumGate, mapping: &[usize]) -> QuantumGate {
    let map = |q: usize| mapping[q];
    match gate {
        QuantumGate::H(q) => QuantumGate::H(map(*q)),
        QuantumGate::X(q) => QuantumGate::X(map(*q)),
        QuantumGate::Y(q) => QuantumGate::Y(map(*q)),
        QuantumGate::Z(q) => QuantumGate::Z(map(*q)),
        QuantumGate::S(q) => QuantumGate::S(map(*q)),
        QuantumGate::Sdg(q) => QuantumGate::Sdg(map(*q)),
        QuantumGate::T(q) => QuantumGate::T(map(*q)),
        QuantumGate::Tdg(q) => QuantumGate::Tdg(map(*q)),
        QuantumGate::Rz { qubit, angle } => QuantumGate::Rz {
            qubit: map(*qubit),
            angle: *angle,
        },
        QuantumGate::Cx { control, target } => QuantumGate::Cx {
            control: map(*control),
            target: map(*target),
        },
        QuantumGate::Cz { a, b } => QuantumGate::Cz {
            a: map(*a),
            b: map(*b),
        },
        QuantumGate::Swap { a, b } => QuantumGate::Swap {
            a: map(*a),
            b: map(*b),
        },
        QuantumGate::Ccx {
            control_a,
            control_b,
            target,
        } => QuantumGate::Ccx {
            control_a: map(*control_a),
            control_b: map(*control_b),
            target: map(*target),
        },
        QuantumGate::Mcx { controls, target } => QuantumGate::Mcx {
            controls: controls.iter().map(|&q| map(q)).collect(),
            target: map(*target),
        },
        QuantumGate::Mcz { qubits } => QuantumGate::Mcz {
            qubits: qubits.iter().map(|&q| map(q)).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_and_gate_recording() {
        let mut engine = MainEngine::with_simulator();
        let qubits = engine.allocate_qureg(3);
        assert_eq!(engine.num_qubits(), 3);
        engine.h(qubits[0]).unwrap();
        engine.cnot(qubits[0], qubits[2]).unwrap();
        let circuit = engine.circuit();
        assert_eq!(circuit.num_gates(), 2);
        assert_eq!(engine.backend_name(), "statevector-simulator");
    }

    #[test]
    fn backend_choice_selects_the_simulation_engine() {
        assert_eq!(
            BackendChoice::from_name("dense"),
            Some(BackendChoice::Dense)
        );
        assert_eq!(
            BackendChoice::from_name("sparse"),
            Some(BackendChoice::Sparse)
        );
        assert_eq!(
            BackendChoice::from_name("stabilizer"),
            Some(BackendChoice::Stabilizer)
        );
        assert_eq!(BackendChoice::from_name("auto"), Some(BackendChoice::Auto));
        assert_eq!(BackendChoice::from_name("frobnicate"), None);
        assert_eq!(BackendChoice::Sparse.to_string(), "sparse");
        assert_eq!(BackendChoice::Stabilizer.to_string(), "stabilizer");
        let dense = MainEngine::with_simulator_choice(BackendChoice::Dense);
        assert_eq!(dense.backend_name(), "statevector-simulator");
        let sparse = MainEngine::with_simulator_choice(BackendChoice::Sparse);
        assert_eq!(sparse.backend_name(), "sparse-statevector-simulator");
        let stabilizer = MainEngine::with_simulator_choice(BackendChoice::Stabilizer);
        assert_eq!(stabilizer.backend_name(), "stabilizer-tableau-simulator");
    }

    #[test]
    fn parse_returns_a_typed_error_listing_the_valid_choices() {
        assert_eq!(BackendChoice::parse("auto"), Ok(BackendChoice::Auto));
        let error = BackendChoice::parse("frobnicate").unwrap_err();
        assert_eq!(
            error,
            EngineError::UnknownBackend {
                name: "frobnicate".to_string()
            }
        );
        let message = error.to_string();
        for name in ["dense", "sparse", "stabilizer", "auto"] {
            assert!(message.contains(name), "{message}");
        }
    }

    #[test]
    fn resolver_routes_by_census_shape() {
        // All-Clifford → stabilizer, regardless of width.
        let mut clifford = QuantumCircuit::new(100);
        for q in 0..100 {
            clifford.push(QuantumGate::H(q)).unwrap();
        }
        assert_eq!(
            resolve_backend(&GateCensus::of(&clifford)),
            BackendChoice::Stabilizer
        );
        // Hadamard-heavy with non-Clifford content, small register → dense.
        let mut dense = QuantumCircuit::new(4);
        for q in 0..4 {
            dense.push(QuantumGate::H(q)).unwrap();
        }
        dense.push(QuantumGate::T(0)).unwrap();
        assert_eq!(
            resolve_backend(&GateCensus::of(&dense)),
            BackendChoice::Dense
        );
        // Permutation-dominated (Toffoli) → sparse; same for anything past
        // the dense ceiling.
        let mut perm = QuantumCircuit::new(3);
        perm.push(QuantumGate::X(0)).unwrap();
        perm.push(QuantumGate::Ccx {
            control_a: 0,
            control_b: 1,
            target: 2,
        })
        .unwrap();
        assert_eq!(
            resolve_backend(&GateCensus::of(&perm)),
            BackendChoice::Sparse
        );
        let mut wide = QuantumCircuit::new(40);
        for q in 0..40 {
            wide.push(QuantumGate::H(q)).unwrap();
        }
        wide.push(QuantumGate::T(0)).unwrap();
        assert_eq!(
            resolve_backend(&GateCensus::of(&wide)),
            BackendChoice::Sparse
        );
        // Concrete choices pass through resolve unchanged.
        let census = GateCensus::of(&perm);
        assert_eq!(BackendChoice::Dense.resolve(&census), BackendChoice::Dense);
        assert_eq!(BackendChoice::Auto.resolve(&census), BackendChoice::Sparse);
    }

    #[test]
    fn auto_engine_redispatches_per_flush() {
        let mut engine = MainEngine::with_simulator_choice(BackendChoice::Auto);
        assert_eq!(engine.resolved_backend(), None);
        let qubits = engine.allocate_qureg(2);
        engine.h(qubits[0]).unwrap();
        engine.cnot(qubits[0], qubits[1]).unwrap();
        let clifford = engine.flush(256).unwrap();
        assert_eq!(engine.resolved_backend(), Some(BackendChoice::Stabilizer));
        assert_eq!(engine.backend_name(), "stabilizer-tableau-simulator");
        assert_eq!(clifford.counts.values().sum::<usize>(), 256);
        // A T gate makes the same program non-Clifford and H-heavy → dense.
        engine
            .apply_gate(QuantumGate::T(qubits[0].index()))
            .unwrap();
        engine.flush(64).unwrap();
        assert_eq!(engine.resolved_backend(), Some(BackendChoice::Dense));
        assert_eq!(engine.backend_name(), "statevector-simulator");
    }

    #[test]
    fn stabilizer_engine_runs_clifford_programs_at_scale() {
        let mut engine = MainEngine::with_stabilizer_simulator();
        let qubits = engine.allocate_qureg(128);
        engine.x(qubits[60]).unwrap();
        engine.cnot(qubits[60], qubits[3]).unwrap();
        let result = engine.flush(64).unwrap();
        assert_eq!(result.most_likely(), Some(((1usize << 60) | 8, 1.0)));
        // Non-Clifford content is a typed error, not a panic.
        engine
            .apply_gate(QuantumGate::T(qubits[0].index()))
            .unwrap();
        assert!(matches!(
            engine.flush(16),
            Err(EngineError::Quantum(
                qdaflow_quantum::QuantumError::UnsupportedGate { gate: "t", .. }
            ))
        ));
    }

    #[test]
    fn sparse_engine_runs_the_fig4_program_identically() {
        // The complete Fig. 4 program on both exact engines: same seeds are
        // not required for this check because the ideal outcome is
        // deterministic — every shot recovers the planted shift.
        for choice in [BackendChoice::Dense, BackendChoice::Sparse] {
            let mut engine = MainEngine::with_simulator_choice(choice);
            let qubits = engine.allocate_qureg(4);
            let f = Expr::parse("(x0 & x1) ^ (x2 & x3)").unwrap();
            let section = engine.begin_compute();
            engine.all_h(&qubits).unwrap();
            engine.x(qubits[0]).unwrap();
            let section = engine.end_compute(section);
            engine.phase_oracle_expr(&f, &qubits).unwrap();
            engine.uncompute(&section).unwrap();
            engine.phase_oracle_expr(&f, &qubits).unwrap();
            engine.all_h(&qubits).unwrap();
            let result = engine.flush(256).unwrap();
            assert_eq!(result.most_likely(), Some((1, 1.0)), "{choice}");
        }
    }

    #[test]
    fn exec_config_is_threaded_through_to_the_backend() {
        let config = ExecConfig::sequential().with_fusion(false).with_threads(1);
        let mut engine = MainEngine::with_simulator_config(config);
        let qubits = engine.allocate_qureg(2);
        engine.h(qubits[0]).unwrap();
        engine.cnot(qubits[0], qubits[1]).unwrap();
        let unfused = engine.flush(256).unwrap();
        // The same program under the default (fused) configuration samples
        // the same distribution.
        let mut fused = MainEngine::with_simulator();
        let qubits = fused.allocate_qureg(2);
        fused.h(qubits[0]).unwrap();
        fused.cnot(qubits[0], qubits[1]).unwrap();
        assert_eq!(unfused.counts, fused.flush(256).unwrap().counts);
    }

    #[test]
    fn block_sizes_sample_identically_through_the_engine() {
        // The same non-trivial program (superposition, phase oracle,
        // multi-controlled mixing) through the unfused plan on one cache
        // block and on eight 2-amplitude blocks over the worker pool. The
        // unfused plan is bit-identical at every block size and thread
        // count, so equal seeds must produce equal histograms.
        let run = |config: ExecConfig| {
            let mut engine = MainEngine::with_simulator_config(config);
            let qubits = engine.allocate_qureg(4);
            let f = Expr::parse("(x0 & x1) ^ (x2 & x3)").unwrap();
            engine.all_h(&qubits).unwrap();
            engine.phase_oracle_expr(&f, &qubits).unwrap();
            engine
                .apply_gate(QuantumGate::T(qubits[2].index()))
                .unwrap();
            engine
                .apply_gate(QuantumGate::Ccx {
                    control_a: qubits[0].index(),
                    control_b: qubits[1].index(),
                    target: qubits[3].index(),
                })
                .unwrap();
            engine.all_h(&qubits).unwrap();
            engine.flush(512).unwrap().counts
        };
        assert_eq!(
            run(ExecConfig::baseline()),
            run(ExecConfig::baseline().with_block_bits(1).with_threads(2))
        );
    }

    #[test]
    fn foreign_qubits_are_rejected() {
        let mut engine = MainEngine::with_simulator();
        let _ = engine.allocate_qureg(1);
        assert!(matches!(
            engine.h(Qubit(5)),
            Err(EngineError::ForeignQubit { .. })
        ));
        assert!(matches!(
            engine.cnot(Qubit(0), Qubit(0)),
            Err(EngineError::Quantum(_))
        ));
    }

    #[test]
    fn compute_uncompute_restores_the_state() {
        let mut engine = MainEngine::with_simulator();
        let qubits = engine.allocate_qureg(2);
        let section = engine.begin_compute();
        engine.all_h(&qubits).unwrap();
        engine.x(qubits[0]).unwrap();
        let section = engine.end_compute(section);
        engine.uncompute(&section).unwrap();
        let result = engine.flush(128).unwrap();
        assert_eq!(result.most_likely(), Some((0, 1.0)));
    }

    #[test]
    fn uncompute_requires_a_closed_section() {
        let mut engine = MainEngine::with_simulator();
        let _ = engine.allocate_qureg(1);
        let open = engine.begin_compute();
        assert!(matches!(
            engine.uncompute(&open),
            Err(EngineError::InvalidComputeSection)
        ));
    }

    #[test]
    fn dagger_appends_the_adjoint() {
        let mut engine = MainEngine::with_simulator();
        let qubits = engine.allocate_qureg(1);
        engine.h(qubits[0]).unwrap();
        engine
            .dagger(|e| {
                e.apply_gate(QuantumGate::T(0))?;
                e.h(qubits[0])
            })
            .unwrap();
        let gates = engine.circuit();
        assert_eq!(gates.gates()[1], QuantumGate::H(0));
        assert_eq!(gates.gates()[2], QuantumGate::Tdg(0));
    }

    #[test]
    fn dagger_rolls_back_on_error() {
        let mut engine = MainEngine::with_simulator();
        let qubits = engine.allocate_qureg(1);
        let result = engine.dagger(|e| {
            e.h(qubits[0])?;
            e.h(Qubit(99))
        });
        assert!(result.is_err());
        assert_eq!(engine.circuit().num_gates(), 0);
    }

    #[test]
    fn phase_oracle_validates_register_size() {
        let mut engine = MainEngine::with_simulator();
        let qubits = engine.allocate_qureg(2);
        let f = Expr::parse("(x0 & x1) ^ (x2 & x3)").unwrap();
        assert!(matches!(
            engine.phase_oracle_expr(&f, &qubits),
            Err(EngineError::RegisterSizeMismatch { .. })
        ));
    }

    #[test]
    fn permutation_oracle_applies_the_permutation_classically() {
        let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
        for basis in 0..8usize {
            let mut engine = MainEngine::with_simulator();
            let qubits = engine.allocate_qureg(3);
            // Prepare |basis⟩.
            for (bit, &qubit) in qubits.iter().enumerate() {
                if (basis >> bit) & 1 == 1 {
                    engine.x(qubit).unwrap();
                }
            }
            engine
                .permutation_oracle(&pi, &qubits, SynthesisChoice::TransformationBased)
                .unwrap();
            let result = engine.flush(64).unwrap();
            let expected = pi.apply(basis);
            assert_eq!(result.most_likely(), Some((expected, 1.0)), "basis {basis}");
        }
    }

    #[test]
    fn resource_counter_backend_reports_gate_counts() {
        let mut engine = MainEngine::with_resource_counter();
        let qubits = engine.allocate_qureg(3);
        let pi = Permutation::random_seeded(3, 5);
        engine
            .permutation_oracle(&pi, &qubits, SynthesisChoice::DecompositionBased)
            .unwrap();
        let result = engine.flush(0).unwrap();
        assert!(result.resources.total_gates > 0);
        assert!(result.counts.is_empty());
    }

    #[test]
    fn reset_clears_the_engine() {
        let mut engine = MainEngine::with_simulator();
        let qubits = engine.allocate_qureg(2);
        engine.h(qubits[0]).unwrap();
        engine.reset();
        assert_eq!(engine.num_qubits(), 0);
        assert_eq!(engine.circuit().num_gates(), 0);
    }

    #[test]
    fn fig4_program_recovers_the_shift_deterministically() {
        // The complete program of Fig. 4 (hidden shift, f = x0x1 ^ x2x3, s = 1):
        // the compute section prepares H^n and the shift X_0, the phase oracle
        // is the action, and Uncompute restores the basis so that
        // U_g = X_0 U_f X_0 is applied between Hadamard layers.
        let mut engine = MainEngine::with_simulator();
        let qubits = engine.allocate_qureg(4);
        let f = Expr::parse("(x0 & x1) ^ (x2 & x3)").unwrap();
        let section = engine.begin_compute();
        engine.all_h(&qubits).unwrap();
        engine.x(qubits[0]).unwrap();
        let section = engine.end_compute(section);
        engine.phase_oracle_expr(&f, &qubits).unwrap();
        engine.uncompute(&section).unwrap();
        engine.phase_oracle_expr(&f, &qubits).unwrap();
        engine.all_h(&qubits).unwrap();
        let result = engine.flush(512).unwrap();
        assert_eq!(result.most_likely(), Some((1, 1.0)));
    }
}
