//! The shell's data store.
//!
//! RevKit commands communicate through shared stores (one per object kind).
//! This reproduction keeps one current entry per pipeline
//! [`Stage`] — a Boolean specification (permutation and/or single-output
//! function), a reversible circuit, a quantum circuit and a loaded OpenQASM
//! source — which is exactly what the pipelines used in the paper need.
//! [`Store::put`] and [`Store::input`] are the only code that maps stages to
//! slots: pass commands and `flow` read their input through `input` and
//! write every artifact back through `put`.

use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_engine::{BackendChoice, BatchEngine, EngineError, JobService, JobServiceConfig};
use qdaflow_pipeline::{Ir, Stage, StageSet};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::QuantumCircuit;
use qdaflow_reversible::ReversibleCircuit;
use std::path::PathBuf;
use std::sync::Arc;

/// The mutable state shared by all shell commands.
#[derive(Debug, Clone, Default)]
pub struct Store {
    permutation: Option<Permutation>,
    function: Option<TruthTable>,
    reversible: Option<ReversibleCircuit>,
    quantum: Option<QuantumCircuit>,
    qasm_source: Option<String>,
    exec_config: ExecConfig,
    backend_choice: BackendChoice,
    batch: Arc<BatchEngine>,
    service: Option<Arc<JobService>>,
    service_exec: ExecConfig,
    service_journal: Option<PathBuf>,
    journal_path: Option<PathBuf>,
    log: Vec<String>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current permutation specification, if any.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.permutation.as_ref()
    }

    /// The current single-output Boolean function, if any.
    pub fn function(&self) -> Option<&TruthTable> {
        self.function.as_ref()
    }

    /// The current reversible circuit, if any.
    pub fn reversible(&self) -> Option<&ReversibleCircuit> {
        self.reversible.as_ref()
    }

    /// The current quantum circuit, if any.
    pub fn quantum(&self) -> Option<&QuantumCircuit> {
        self.quantum.as_ref()
    }

    /// The most recently loaded OpenQASM source (`qasm load <file>`), if any.
    /// Pipelines starting with `qasmin` seed from it.
    pub fn qasm_source(&self) -> Option<&str> {
        self.qasm_source.as_deref()
    }

    /// Replaces the entry of `value`'s stage with `value`.
    pub fn put(&mut self, value: Ir) {
        match value {
            Ir::QasmSource(source) => self.qasm_source = Some(source),
            Ir::Permutation(permutation) => self.permutation = Some(permutation),
            Ir::Function(function) => self.function = Some(function),
            Ir::Reversible(circuit) => self.reversible = Some(circuit),
            Ir::Quantum(circuit) => self.quantum = Some(circuit),
        }
    }

    /// A copy of the entry of the first stage in `stages` (in flow order)
    /// that the store holds, or `None` if it holds none of them — the input
    /// of a pipeline whose first pass accepts `stages`.
    pub fn input(&self, stages: StageSet) -> Option<Ir> {
        stages.stages().find_map(|stage| match stage {
            Stage::QasmSource => self.qasm_source.clone().map(Ir::QasmSource),
            Stage::Permutation => self.permutation.clone().map(Ir::Permutation),
            Stage::Function => self.function.clone().map(Ir::Function),
            Stage::Reversible => self.reversible.clone().map(Ir::Reversible),
            Stage::Quantum => self.quantum.clone().map(Ir::Quantum),
        })
    }

    /// The execution configuration used by simulating commands.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_config
    }

    /// Replaces the execution configuration (the `exec` command).
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        self.exec_config = config;
    }

    /// The simulation backend used by the `batch` command's jobs (the
    /// `backend` command).
    pub fn backend_choice(&self) -> BackendChoice {
        self.backend_choice
    }

    /// Replaces the simulation backend choice.
    pub fn set_backend_choice(&mut self, choice: BackendChoice) {
        self.backend_choice = choice;
    }

    /// The shared batch execution engine (the `batch` command). Its
    /// compiled-oracle cache persists across commands of the same shell, so
    /// repeated batches over the same oracles skip recompilation; clones of
    /// the store share the same cache.
    pub fn batch_engine(&self) -> &BatchEngine {
        &self.batch
    }

    /// The checkpoint journal the `batch` command's jobs record into
    /// (`batch --resume <path>` sets it for the rest of the shell session).
    pub fn journal_path(&self) -> Option<&PathBuf> {
        self.journal_path.as_ref()
    }

    /// Points the job service at a checkpoint journal (or detaches it with
    /// `None`). Takes effect at the next [`Store::job_service`] call.
    pub fn set_journal_path(&mut self, path: Option<PathBuf>) {
        self.journal_path = path;
    }

    /// The shell's batch job service — the `batch` command's thin-client
    /// backend. Built lazily over the shared [`BatchEngine`] (so the
    /// service's workers and the synchronous commands amortize one
    /// compiled-oracle cache) and rebuilt when the execution configuration
    /// or journal path changed since the last call; clones of the store
    /// share the same running service.
    ///
    /// # Errors
    ///
    /// Propagates journal open failures ([`EngineError::Io`]).
    pub fn job_service(&mut self) -> Result<Arc<JobService>, EngineError> {
        let stale = self.service.is_none()
            || self.service_exec != self.exec_config
            || self.service_journal != self.journal_path;
        if stale {
            let config = JobServiceConfig {
                exec: self.exec_config,
                journal_path: self.journal_path.clone(),
                ..JobServiceConfig::default()
            };
            self.service = Some(Arc::new(JobService::with_engine(
                Arc::clone(&self.batch),
                config,
            )?));
            self.service_exec = self.exec_config;
            self.service_journal = self.journal_path.clone();
        }
        Ok(Arc::clone(self.service.as_ref().expect("service built")))
    }

    /// Appends a line to the command log (what the shell prints).
    pub fn log(&mut self, line: impl Into<String>) {
        self.log.push(line.into());
    }

    /// All logged output lines in order.
    pub fn log_lines(&self) -> &[String] {
        &self.log
    }

    /// Clears everything, including the log.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_holds_entries_by_kind() {
        let mut store = Store::new();
        assert!(store.permutation().is_none());
        store.put(Permutation::identity(2).into());
        store.put(TruthTable::zero(2).unwrap().into());
        store.put(ReversibleCircuit::new(2).into());
        store.put(QuantumCircuit::new(2).into());
        store.put(Ir::QasmSource("qreg q[1];".to_owned()));
        assert_eq!(store.qasm_source(), Some("qreg q[1];"));
        assert!(store.permutation().is_some());
        assert!(store.function().is_some());
        assert!(store.reversible().is_some());
        assert!(store.quantum().is_some());
        store.log("hello");
        assert_eq!(store.log_lines(), ["hello"]);
        store.set_backend_choice(BackendChoice::Sparse);
        assert_eq!(store.backend_choice(), BackendChoice::Sparse);
        store.clear();
        assert!(store.permutation().is_none());
        assert!(store.log_lines().is_empty());
        assert_eq!(store.backend_choice(), BackendChoice::Dense);
    }

    #[test]
    fn input_takes_the_first_held_stage_in_flow_order() {
        let mut store = Store::new();
        assert_eq!(store.input(StageSet::ANY), None);
        store.put(ReversibleCircuit::new(2).into());
        store.put(Permutation::identity(2).into());
        // The permutation precedes the reversible circuit in flow order.
        assert_eq!(
            store.input(StageSet::ANY),
            Some(Ir::Permutation(Permutation::identity(2)))
        );
        assert_eq!(
            store.input(StageSet::REVERSIBLE.union(StageSet::QUANTUM)),
            Some(Ir::Reversible(ReversibleCircuit::new(2)))
        );
        assert_eq!(store.input(StageSet::FUNCTION), None);
        // `put` replaces only the entry of its own stage.
        store.put(Permutation::identity(3).into());
        assert_eq!(store.permutation().unwrap().num_vars(), 3);
        assert_eq!(store.reversible().unwrap().num_lines(), 2);
    }
}
