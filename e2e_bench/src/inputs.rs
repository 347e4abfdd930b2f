//! Seeded inputs of the service workloads, and the specification each
//! output is checked against.
//!
//! Every expectation is derived from the job's specification (the planted
//! shift, the permutation, a uniform distribution), never from the
//! program's own output.

use crate::rng::Rng;
use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::pipeline::SpecKey;
use qdaflow::prelude::*;
use qdaflow::quantum::qasm;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Shots per job, the paper's IBM QE count.
pub const SHOTS: usize = 1024;
/// Jobs per `service_mix` batch.
pub const BATCH: usize = 16;
/// Shifts in the `dense_hs20` set.
const DENSE_SHIFTS: usize = 4;
/// Disk-cache specs each `service_mix` batch touches first.
pub const DISK_PER_BATCH: usize = 2;
/// Width of the uniformity test's acceptance band, in standard deviations.
const UNIFORMITY_SIGMAS: f64 = 8.0;

/// What a correct output looks like.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Every shot lands on `value` once masked to the data register
    /// (hidden shifts; ancillas are clean and measure 0).
    Masked { mask: usize, value: usize },
    /// Every shot lands on exactly this outcome (a permutation oracle on
    /// `|0…0⟩`, ancillas included).
    Outcome(usize),
    /// Shots spread uniformly over all `2^num_qubits` outcomes.
    Uniform { num_qubits: usize },
}

/// One job of a service workload.
#[derive(Debug, Clone)]
pub struct Request {
    pub job: BatchJob,
    pub expect: Expect,
    /// Whether the spec appears for the first time in the run (it must
    /// compile and write back).
    pub fresh: bool,
}

impl Request {
    fn new(
        spec: OracleSpec,
        shots: usize,
        seed: u64,
        backend: BackendChoice,
        expect: Expect,
    ) -> Self {
        Self {
            job: BatchJob::new(spec, shots, seed).with_backend(backend),
            expect,
            fresh: true,
        }
    }

    fn reseeded(&self, seed: u64) -> Self {
        let mut request = self.clone();
        request.job.seed = seed;
        request.fresh = false;
        request
    }

    /// Whether `result` satisfies the specification.
    pub fn check(&self, result: &ExecutionResult) -> bool {
        let shots = self.job.shots;
        if result.shots != shots || result.counts.values().sum::<usize>() != shots {
            return false;
        }
        match self.expect {
            Expect::Masked { mask, value } => result.counts.keys().all(|&k| k & mask == value),
            Expect::Outcome(value) => result.counts.get(&value) == Some(&shots),
            Expect::Uniform { num_qubits } => {
                result.num_qubits == num_qubits && is_uniform(&result.counts, num_qubits, shots)
            }
        }
    }
}

/// Fixed-threshold uniformity test: Pearson's statistic over all `2^n`
/// bins (empty ones included) must lie within `UNIFORMITY_SIGMAS` standard
/// deviations of its mean `k - 1`; for equal bin probabilities its variance
/// is `2(k - 1)(1 - 1/shots)`.
fn is_uniform(counts: &BTreeMap<usize, usize>, num_qubits: usize, shots: usize) -> bool {
    let bins = 1usize << num_qubits;
    if counts.keys().any(|&outcome| outcome >= bins) {
        return false;
    }
    let expected = shots as f64 / bins as f64;
    let occupied: f64 = counts
        .values()
        .map(|&count| (count as f64 - expected).powi(2) / expected)
        .sum();
    let statistic = occupied + (bins - counts.len()) as f64 * expected;
    let dof = (bins - 1) as f64;
    let sigma = (2.0 * dof * (1.0 - 1.0 / shots as f64)).sqrt();
    (statistic - dof).abs() <= UNIFORMITY_SIGMAS * sigma
}

/// The Maiorana–McFarland hidden-shift circuit of `mm` with `shift`, its
/// permutation oracles compiled by the engine (the flow of the paper's
/// Fig. 7), as OpenQASM. `to_qasm_checked` refuses the `mcx`/`mcz` gates
/// that the plain exporter writes as comments.
fn hidden_shift(
    mm: &MaioranaMcFarland,
    shift: usize,
    synthesis: SynthesisChoice,
    drop_final_h: bool,
) -> Result<OracleSpec, String> {
    let instance = HiddenShiftInstance::from_maiorana_mcfarland(mm, shift)
        .map_err(|e| format!("hidden-shift instance: {e}"))?;
    let mut circuit = instance
        .build_circuit(OracleStyle::MaioranaMcFarland { synthesis })
        .map_err(|e| format!("hidden-shift circuit: {e}"))?;
    if drop_final_h {
        // Without its final Hadamard layer the circuit leaves every outcome
        // equally likely (bent functions have flat Walsh spectra).
        let n = mm.num_vars();
        let gates = circuit.gates();
        let (body, last) = gates.split_at(gates.len() - n);
        if !last.iter().all(|gate| matches!(gate, QuantumGate::H(_))) {
            return Err("hidden-shift circuit does not end in a Hadamard layer".to_owned());
        }
        let mut trimmed = QuantumCircuit::new(circuit.num_qubits());
        for gate in body {
            trimmed.push(gate.clone()).map_err(|e| e.to_string())?;
        }
        circuit = trimmed;
    }
    let source = qasm::to_qasm_checked(&circuit).map_err(|e| format!("qasm export: {e}"))?;
    Ok(OracleSpec::qasm(source))
}

/// A pure-Clifford hidden shift on `n` qubits: the bent function
/// `Σ x_{2i}·x_{2i+1}` is a layer of CZ pairs and self-dual, so its ideal
/// output is exactly `|shift⟩`.
fn clifford_shift(n: usize, shift: usize) -> OracleSpec {
    let mut source = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
    let h_layer = |source: &mut String| {
        for q in 0..n {
            writeln!(source, "h q[{q}];").expect("writing to a String");
        }
    };
    let shift_layer = |source: &mut String| {
        for q in (0..n).filter(|&q| shift >> q & 1 == 1) {
            writeln!(source, "x q[{q}];").expect("writing to a String");
        }
    };
    let oracle = |source: &mut String| {
        for i in 0..n / 2 {
            writeln!(source, "cz q[{}],q[{}];", 2 * i, 2 * i + 1).expect("writing to a String");
        }
    };
    h_layer(&mut source);
    shift_layer(&mut source);
    oracle(&mut source);
    shift_layer(&mut source);
    h_layer(&mut source);
    oracle(&mut source);
    h_layer(&mut source);
    OracleSpec::qasm(source)
}

fn synthesis(rng: &mut Rng) -> SynthesisChoice {
    if rng.range(0, 1) == 0 {
        SynthesisChoice::TransformationBased
    } else {
        SynthesisChoice::DecompositionBased
    }
}

fn mask(num_vars: usize) -> usize {
    (1usize << num_vars) - 1
}

/// `dense_hs20`: one job at a time of the 20-qubit inner-product hidden
/// shift (the instance `examples/telemetry_trace.rs` and the
/// `fusion_vs_baseline` bench use) on the dense backend, its shift drawn
/// from a small seeded set so that every measured lookup is a memory hit.
pub struct DenseTraffic {
    rng: Rng,
    shifts: Vec<(OracleSpec, Expect)>,
}

impl DenseTraffic {
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let n_half = if smoke { 6 } else { 10 };
        let mm = MaioranaMcFarland::inner_product(n_half);
        let mut rng = Rng::new(seed);
        let mut values: Vec<usize> = Vec::new();
        while values.len() < DENSE_SHIFTS {
            // Half weight, so every instance has the same gate count.
            let shift = rng.with_weight(2 * n_half, n_half);
            if !values.contains(&shift) {
                values.push(shift);
            }
        }
        let shifts = values
            .into_iter()
            .map(|shift| {
                let spec = hidden_shift(&mm, shift, SynthesisChoice::TransformationBased, false)?;
                let expect = Expect::Masked {
                    mask: mask(2 * n_half),
                    value: shift,
                };
                Ok((spec, expect))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { rng, shifts })
    }

    fn request(&self, index: usize, seed: u64) -> Request {
        let (spec, expect) = &self.shifts[index];
        Request::new(spec.clone(), SHOTS, seed, BackendChoice::Dense, *expect)
    }

    /// Two jobs per shift, so the measured run sees only memory hits and
    /// both service workers have run the dense path.
    pub fn warm_up(&self) -> Vec<Request> {
        (0..2 * self.shifts.len())
            .map(|i| self.request(i % self.shifts.len(), i as u64))
            .collect()
    }

    pub fn next(&mut self) -> Vec<Request> {
        let index = self.rng.range(0, self.shifts.len() - 1);
        let seed = self.rng.next_u64();
        let mut request = self.request(index, seed);
        request.fresh = false;
        vec![request]
    }
}

/// `service_mix`: fixed-size batches of a seeded mix of the service's job
/// kinds, with a fixed share of repeated specs (memory hits, including
/// duplicates within a batch for single-flight), a fixed share of specs an
/// earlier service instance wrote to the disk cache during set-up (disk
/// hits), and the rest fresh (compile and write back).
pub struct MixTraffic {
    rng: Rng,
    batches: u64,
    dense_halves: (usize, usize),
    /// Compiled into memory by the warm-up.
    warm: Vec<Request>,
    /// Written to disk during set-up; each is touched once, first from disk.
    disk: Vec<Request>,
    next_disk: usize,
    /// Cache keys of every spec generated so far, so fresh specs are fresh.
    seen: HashSet<SpecKey>,
}

impl MixTraffic {
    /// Traffic for `batches` batches (the disk share is prepared for
    /// exactly that many).
    pub fn new(seed: u64, smoke: bool, batches: usize) -> Result<Self, String> {
        let mut traffic = Self {
            rng: Rng::new(seed),
            batches: 0,
            dense_halves: if smoke { (4, 4) } else { (6, 7) },
            warm: Vec::new(),
            disk: Vec::new(),
            next_disk: 0,
            seen: HashSet::new(),
        };
        // The repeated specs: every job kind, weighted so that the seed moves
        // the per-batch cost little.
        let hwb = qdaflow::boolfn::hwb::hwb_permutation;
        let mut warm = Vec::new();
        for n in 4..=6 {
            warm.push(traffic.permutation_oracle(hwb(n), SynthesisChoice::TransformationBased));
            let pi = traffic.random_permutation(n);
            warm.push(traffic.permutation_oracle(pi, SynthesisChoice::DecompositionBased));
        }
        for n in [32, 40, 48, 56, 64, 64] {
            warm.push(traffic.clifford(n));
        }
        for n_half in [2, 2, 3, 3] {
            warm.push(traffic.maiorana_mcfarland(n_half)?);
        }
        for request in &warm {
            traffic.seen.insert(request.job.spec.cache_key());
        }
        traffic.warm = warm;
        traffic.disk = (0..batches * DISK_PER_BATCH)
            .map(|i| {
                if i % 2 == 0 {
                    traffic.fresh(Self::random_clifford)
                } else {
                    traffic.fresh(|t| Ok(t.random_permutation_oracle(4, 5)))
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(traffic)
    }

    /// Draws from `make` until the spec has not been seen in this run.
    fn fresh(
        &mut self,
        mut make: impl FnMut(&mut Self) -> Result<Request, String>,
    ) -> Result<Request, String> {
        loop {
            let request = make(self)?;
            if self.seen.insert(request.job.spec.cache_key()) {
                return Ok(request);
            }
        }
    }

    fn random_permutation(&mut self, num_vars: usize) -> Permutation {
        Permutation::random_seeded(num_vars, self.rng.next_u64())
    }

    fn permutation_oracle(&mut self, pi: Permutation, synthesis: SynthesisChoice) -> Request {
        let expect = Expect::Outcome(pi.apply(0));
        let spec = OracleSpec::permutation(pi, synthesis);
        Request::new(
            spec,
            SHOTS,
            self.rng.next_u64(),
            BackendChoice::Auto,
            expect,
        )
    }

    fn random_permutation_oracle(&mut self, min_vars: usize, max_vars: usize) -> Request {
        let num_vars = self.rng.range(min_vars, max_vars);
        let pi = self.random_permutation(num_vars);
        let synthesis = synthesis(&mut self.rng);
        self.permutation_oracle(pi, synthesis)
    }

    fn clifford(&mut self, n: usize) -> Request {
        // Outcomes are `usize`: keep shifts within the low 64 bits.
        let shift = self.rng.bits(n.min(64));
        let spec = clifford_shift(n, shift);
        Request::new(
            spec,
            SHOTS,
            self.rng.next_u64(),
            BackendChoice::Auto,
            Expect::Outcome(shift),
        )
    }

    fn random_clifford(&mut self) -> Result<Request, String> {
        let n = 2 * self.rng.range(16, 32);
        Ok(self.clifford(n))
    }

    fn maiorana_mcfarland(&mut self, n_half: usize) -> Result<Request, String> {
        let pi = self.random_permutation(n_half);
        let mm = MaioranaMcFarland::with_zero_h(pi).map_err(|e| e.to_string())?;
        let shift = self.rng.bits(2 * n_half);
        let synthesis = synthesis(&mut self.rng);
        let spec = hidden_shift(&mm, shift, synthesis, false)?;
        let expect = Expect::Masked {
            mask: mask(2 * n_half),
            value: shift,
        };
        Ok(Request::new(
            spec,
            SHOTS,
            self.rng.next_u64(),
            BackendChoice::Auto,
            expect,
        ))
    }

    /// A broad-distribution dense job: the inner-product hidden shift
    /// without its final Hadamard layer, sampled at `2^n` shots.
    fn dense(&mut self) -> Result<Request, String> {
        let (lo, hi) = self.dense_halves;
        let n_half = self.rng.range(lo, hi);
        let shift = self.rng.bits(2 * n_half);
        let mm = MaioranaMcFarland::inner_product(n_half);
        let spec = hidden_shift(&mm, shift, SynthesisChoice::TransformationBased, true)?;
        let num_qubits = 2 * n_half;
        let expect = Expect::Uniform { num_qubits };
        Ok(Request::new(
            spec,
            1 << num_qubits,
            self.rng.next_u64(),
            BackendChoice::Dense,
            expect,
        ))
    }

    /// The specs an earlier service instance writes to the disk cache.
    pub fn disk_specs(&self) -> impl Iterator<Item = &OracleSpec> {
        self.disk.iter().map(|request| &request.job.spec)
    }

    /// One job per warm spec, so repeats are memory hits.
    pub fn warm_up(&self) -> Vec<Request> {
        self.warm
            .iter()
            .enumerate()
            .map(|(i, r)| r.reseeded(i as u64))
            .collect()
    }

    /// The next batch of `BATCH` jobs. Fresh specs: a Clifford shift on
    /// 32–64 qubits, and one that rotates over a Maiorana–McFarland shift
    /// with a random π on 3–4-bit halves, a permutation oracle of 4–6
    /// variables, a dense job and another permutation oracle. Then 2 first
    /// touches of disk specs, and 12 repeats of 8 warm specs, 4 of them
    /// twice (single-flight).
    pub fn next(&mut self) -> Result<Vec<Request>, String> {
        let mut batch = Vec::with_capacity(BATCH);
        batch.push(self.fresh(Self::random_clifford)?);
        batch.push(match self.batches % 4 {
            0 => self.fresh(|t| {
                let n_half = t.rng.range(3, 4);
                t.maiorana_mcfarland(n_half)
            })?,
            2 => self.fresh(Self::dense)?,
            _ => self.fresh(|t| Ok(t.random_permutation_oracle(4, 6)))?,
        });
        for _ in 0..DISK_PER_BATCH {
            let request = self
                .disk
                .get(self.next_disk)
                .ok_or("ran past the prepared disk-cache share")?;
            self.next_disk += 1;
            batch.push(request.reseeded(self.rng.next_u64()));
        }
        let mut picks: Vec<usize> = (0..self.warm.len()).collect();
        self.rng.shuffle(&mut picks);
        for &index in picks[..8].iter().chain(&picks[..4]) {
            let seed = self.rng.next_u64();
            batch.push(self.warm[index].reseeded(seed));
        }
        self.rng.shuffle(&mut batch);
        self.batches += 1;
        Ok(batch)
    }
}
