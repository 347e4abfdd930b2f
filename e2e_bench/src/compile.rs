//! `compile_eq5`: one compile at a time through the paper's equation (5)
//! flow, and the traced chain of one-pass pipelines.

use crate::report::Report;
use crate::rng::Rng;
use crate::service::per_call;
use crate::stats;
use crate::trace::Tracer;
use crate::Options;
use qdaflow::boolfn::hwb::hwb_permutation;
use qdaflow::flow::equation5_pipeline;
use qdaflow::mapping::phase_oracle::oracle_matches_function;
use qdaflow::prelude::*;
use qdaflow::quantum::resource::ResourceCounts;
use qdaflow::reversible::synthesis::SynthesisMethod;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Random permutations per variable count and synthesis method.
const RANDOM_PER_SIZE: usize = 3;
/// Bent functions per variable count.
const BENT_PER_SIZE: usize = 3;
/// Every pass the flows use, each run as its own one-pass pipeline in the
/// traced chain.
const PASSES: [&str; 7] = ["tbs", "dbs", "revsimp", "rptm", "tpar", "ps", "po"];

/// One specification of the seeded pool.
#[derive(Debug, Clone)]
enum Spec {
    Permutation(Permutation, SynthesisMethod),
    /// A bent function, compiled into its phase oracle.
    Phase(TruthTable),
}

impl Spec {
    fn input(&self) -> Ir {
        match self {
            Self::Permutation(pi, _) => pi.clone().into(),
            Self::Phase(f) => f.clone().into(),
        }
    }

    /// The flow's passes in order.
    fn passes(&self) -> &'static [&'static str] {
        match self {
            Self::Permutation(_, SynthesisMethod::TransformationBased) => {
                &["tbs", "revsimp", "rptm", "tpar", "ps"]
            }
            Self::Permutation(_, SynthesisMethod::DecompositionBased) => {
                &["dbs", "revsimp", "rptm", "tpar", "ps"]
            }
            Self::Phase(_) => &["po", "tpar"],
        }
    }

    /// The last pass before optimization.
    fn unoptimized(&self) -> &'static str {
        match self {
            Self::Permutation(..) => "rptm",
            Self::Phase(_) => "po",
        }
    }

    /// Whether `circuit` meets the specification: `x → π(x)` on every basis
    /// state with clean ancillas (simulated on the sparse backend), or the
    /// phase-oracle contract `|x⟩ → (−1)^{f(x)}|x⟩`.
    fn realized_by(&self, circuit: &QuantumCircuit) -> bool {
        match self {
            Self::Permutation(pi, _) => (0..pi.len()).all(|x| {
                SparseStatevector::basis_state(circuit.num_qubits(), x as u64).is_ok_and(
                    |mut state| {
                        state.apply_circuit(circuit);
                        state.probability_of(pi.apply(x) as u64) > 1.0 - 1e-9
                    },
                )
            }),
            Self::Phase(f) => oracle_matches_function(circuit, f),
        }
    }
}

fn bent(rng: &mut Rng, num_vars: usize) -> Result<TruthTable, String> {
    let n_half = num_vars / 2;
    let pi = Permutation::random_seeded(n_half, rng.next_u64());
    let h = TruthTable::from_fn(n_half, |_| rng.range(0, 1) == 1).map_err(|e| e.to_string())?;
    MaioranaMcFarland::new(pi, h)
        .and_then(|mm| mm.truth_table())
        .map_err(|e| e.to_string())
}

/// The seeded pool: hwb and random permutations of 4–7 variables under
/// `tbs` and `dbs`, and bent functions of 4, 6 and 8 variables, in a
/// shuffled order the loop cycles through.
fn pool(seed: u64, smoke: bool) -> Result<Vec<Spec>, String> {
    let mut rng = Rng::new(seed);
    let (sizes, bent_sizes): (&[usize], &[usize]) = if smoke {
        (&[3, 4], &[4])
    } else {
        (&[4, 5, 6, 7], &[4, 6, 8])
    };
    let mut pool = Vec::new();
    for &n in sizes {
        for method in [
            SynthesisMethod::TransformationBased,
            SynthesisMethod::DecompositionBased,
        ] {
            pool.push(Spec::Permutation(hwb_permutation(n), method));
            for _ in 0..RANDOM_PER_SIZE {
                let pi = Permutation::random_seeded(n, rng.next_u64());
                pool.push(Spec::Permutation(pi, method));
            }
        }
    }
    for &n in bent_sizes {
        for _ in 0..BENT_PER_SIZE {
            pool.push(Spec::Phase(bent(&mut rng, n)?));
        }
    }
    rng.shuffle(&mut pool);
    Ok(pool)
}

/// The equation (5) pipelines, built once per set-up.
struct Flows {
    tbs: Pipeline,
    dbs: Pipeline,
    phase: Pipeline,
}

impl Flows {
    fn new() -> Result<Self, String> {
        Ok(Self {
            tbs: equation5_pipeline(SynthesisMethod::TransformationBased),
            dbs: equation5_pipeline(SynthesisMethod::DecompositionBased),
            phase: Pipeline::parse("po; tpar").map_err(|e| e.to_string())?,
        })
    }

    fn of(&self, spec: &Spec) -> &Pipeline {
        match spec {
            Spec::Permutation(_, SynthesisMethod::TransformationBased) => &self.tbs,
            Spec::Permutation(_, SynthesisMethod::DecompositionBased) => &self.dbs,
            Spec::Phase(_) => &self.phase,
        }
    }

    /// Set-up: the pipelines plus one warm-up compile of fixed inputs per
    /// flow.
    fn set_up() -> Result<Self, String> {
        let flows = Self::new()?;
        let inner_product = MaioranaMcFarland::inner_product(2)
            .truth_table()
            .map_err(|e| e.to_string())?;
        let mut warm = vec![Spec::Phase(inner_product)];
        for n in 4..=6 {
            for method in [
                SynthesisMethod::TransformationBased,
                SynthesisMethod::DecompositionBased,
            ] {
                warm.push(Spec::Permutation(hwb_permutation(n), method));
            }
        }
        for spec in &warm {
            flows
                .of(spec)
                .run(spec.input())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(flows)
    }
}

/// The first output of one pool entry.
struct Compiled {
    circuit: QuantumCircuit,
    /// Counts after the last unoptimized pass (`rptm` or `po`).
    unoptimized: ResourceCounts,
}

fn compiled(spec: &Spec, report: PipelineReport) -> Option<Compiled> {
    let unoptimized = report.resources_after(spec.unoptimized()).cloned()?;
    match report.output {
        Ir::Quantum(circuit) => Some(Compiled {
            circuit,
            unoptimized,
        }),
        _ => None,
    }
}

fn compile(flows: &Flows, spec: &Spec) -> Result<Compiled, String> {
    let report = flows
        .of(spec)
        .run(spec.input())
        .map_err(|e| e.to_string())?;
    compiled(spec, report).ok_or_else(|| "the flow did not end at a quantum circuit".to_owned())
}

#[derive(Default)]
struct Measured {
    /// Pool index of every request, in order.
    sequence: Vec<usize>,
    latencies_ms: Vec<f64>,
    outputs: Vec<Option<Compiled>>,
    failed: u64,
    /// Repeated compiles whose circuit differed from the first one.
    nondeterministic: u64,
}

/// The measured closed loop: one compile at a time, cycling through the
/// pool. Each output is compared with the first output of its entry; the
/// first ones are checked against the specification afterwards.
fn drive(flows: &Flows, pool: &[Spec], window: Duration) -> Measured {
    let mut measured = Measured {
        outputs: pool.iter().map(|_| None).collect(),
        ..Measured::default()
    };
    let started = Instant::now();
    while measured.sequence.is_empty() || started.elapsed() < window {
        let index = measured.sequence.len() % pool.len();
        let spec = &pool[index];
        let input = spec.input();
        let sent = Instant::now();
        let outcome = flows.of(spec).run(input);
        measured
            .latencies_ms
            .push(sent.elapsed().as_secs_f64() * 1e3);
        measured.sequence.push(index);
        let Some(compiled) = outcome.ok().and_then(|report| compiled(spec, report)) else {
            measured.failed += 1;
            continue;
        };
        match &measured.outputs[index] {
            Some(first) if first.circuit != compiled.circuit => measured.nondeterministic += 1,
            Some(_) => {}
            None => measured.outputs[index] = Some(compiled),
        }
    }
    measured
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Correct,
    /// The optimized output is wrong while the unoptimized one is right:
    /// counted in `correct_ratio`, charged its unoptimized counts.
    OptimizerWrong,
    /// Wrong before optimization already.
    Wrong,
}

fn verdict(spec: &Spec, compiled: &Compiled) -> Result<Verdict, String> {
    if spec.realized_by(&compiled.circuit) {
        return Ok(Verdict::Correct);
    }
    let prefix: Vec<&str> = spec
        .passes()
        .iter()
        .copied()
        .take_while(|&pass| pass != "tpar")
        .collect();
    let report = Pipeline::parse(&prefix.join("; "))
        .and_then(|pipeline| pipeline.run(spec.input()))
        .map_err(|e| e.to_string())?;
    Ok(match report.final_quantum() {
        Some(circuit) if spec.realized_by(circuit) => Verdict::OptimizerWrong,
        _ => Verdict::Wrong,
    })
}

pub fn run(options: &Options) -> Result<Report, String> {
    let pool = pool(options.seed, options.smoke)?;
    let timed_set_up = || -> Result<(Flows, f64), String> {
        let started = Instant::now();
        let flows = Flows::set_up()?;
        Ok((flows, started.elapsed().as_secs_f64()))
    };
    // As for the service workloads, the measured set-up is the process's
    // first and the other rounds follow the measured loop.
    let (flows, first) = timed_set_up()?;
    let mut measured = drive(&flows, &pool, options.window());
    let peak_rss_mb = stats::peak_rss_mb()?;
    let mut setups = vec![first];
    if !options.trace {
        for _ in 1..options.setup_rounds() {
            setups.push(timed_set_up()?.1);
        }
    }

    // Entries the window did not reach are compiled now, untimed, so the
    // quality figures always cover the whole pool.
    let mut verdicts = Vec::with_capacity(pool.len());
    let mut counts = Vec::with_capacity(pool.len());
    for (spec, output) in pool.iter().zip(&mut measured.outputs) {
        if output.is_none() {
            *output = Some(compile(&flows, spec)?);
        }
        let compiled = output.as_ref().expect("filled above");
        let verdict = verdict(spec, compiled)?;
        counts.push(match verdict {
            Verdict::Correct => ResourceCounts::of(&compiled.circuit),
            Verdict::OptimizerWrong | Verdict::Wrong => compiled.unoptimized.clone(),
        });
        verdicts.push(verdict);
    }
    let attempted = measured.sequence.len() as u64;
    let correct_requests = measured
        .sequence
        .iter()
        .filter(|&&index| verdicts[index] == Verdict::Correct)
        .count() as u64;
    let hard_wrong = verdicts.iter().filter(|&&v| v == Verdict::Wrong).count();
    let optimizer_wrong = verdicts
        .iter()
        .filter(|&&v| v == Verdict::OptimizerWrong)
        .count();
    let mut report = Report {
        correct: hard_wrong == 0 && measured.nondeterministic == 0,
        attempted,
        failed: measured.failed,
        ..Report::default()
    };
    report.notes.push(format!(
        "workload={} seed={} nproc={} pool={} requests={} optimizer_wrong_programs={} wrong_programs={} nondeterministic={} traced={}",
        options.workload.name(),
        options.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool.len(),
        attempted,
        optimizer_wrong,
        hard_wrong,
        measured.nondeterministic,
        options.trace,
    ));
    let mean_count = |field: fn(&ResourceCounts) -> usize| {
        stats::mean(
            counts.iter().map(|c| field(c) as f64).sum(),
            counts.len() as f64,
        )
    };
    if !options.trace {
        let units: Vec<(u64, f64)> = measured
            .latencies_ms
            .iter()
            .map(|&ms| (1, ms / 1e3))
            .collect();
        let ok = correct_requests.saturating_sub(measured.failed);
        report.set("setup_s", stats::median(&setups));
        report.set("throughput_per_s", stats::chunked_rate(&units));
        report.set(
            "latency_p50_ms",
            stats::chunked_percentile(&measured.latencies_ms, 0.5),
        );
        report.set(
            "latency_p90_ms",
            stats::chunked_percentile(&measured.latencies_ms, 0.9),
        );
        report.set("correct_ratio", ok as f64 / attempted as f64);
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("gate_count", mean_count(|c| c.total_gates));
        report.set("qubits", mean_count(|c| c.num_qubits));
        return Ok(report);
    }
    report.set("quality.t_count", mean_count(|c| c.t_count));
    report.set("quality.cnot_count", mean_count(|c| c.cnot_count));

    // Traced chain: every measured request again, each pass as its own
    // one-pass pipeline on the previous output.
    let passes: HashMap<&str, Pipeline> = PASSES
        .iter()
        .map(|&name| Pipeline::parse(name).map(|p| (name, p)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut gates: HashMap<&str, (f64, f64)> = HashMap::new();
    let mut t_removed = 0.0;
    let mut chained_us = 0.0;
    let mut layers_us = 0.0;
    let mut mismatches = 0;
    for &index in &measured.sequence {
        let spec = &pool[index];
        let mut ir = spec.input();
        let root = tracer.begin();
        for &pass in spec.passes() {
            let t_before = quantum_t_count(&ir);
            let pipeline = &passes[pass];
            ir = tracer
                .time(root, layer_of(pass), time_metric(pass), || pipeline.run(ir))
                .map_err(|e| format!("pass {pass}: {e}"))?
                .output;
            let entry = gates.entry(pass).or_default();
            entry.0 += gate_count(&ir) as f64;
            entry.1 += 1.0;
            if pass == "tpar" {
                t_removed += t_before as f64 - quantum_t_count(&ir) as f64;
            }
        }
        let spans = tracer.finish(root, "")?;
        chained_us += spans.total_us;
        layers_us += spans.layers_us;
        let reproduced = matches!(
            (&ir, &measured.outputs[index]),
            (Ir::Quantum(circuit), Some(first)) if *circuit == first.circuit
        );
        if !reproduced {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        report.correct = false;
        report.notes.push(format!(
            "{mismatches} chained compiles did not reproduce the equation (5) output"
        ));
    }
    for pass in PASSES {
        report.set(time_metric(pass), per_call(&tracer, time_metric(pass)));
        let (sum, calls) = gates.get(pass).copied().unwrap_or_default();
        report.set(gates_metric(pass), stats::mean(sum, calls));
    }
    let tpar_calls = gates.get("tpar").map_or(0.0, |&(_, calls)| calls);
    report.set("pass.tpar_t_removed", stats::mean(t_removed, tpar_calls));
    let latency_us: f64 = measured.latencies_ms.iter().sum::<f64>() * 1e3;
    report.set(
        "unattributed_frac",
        stats::mean(latency_us - layers_us, latency_us),
    );
    report.set(
        "trace.overhead_frac",
        stats::mean(chained_us, latency_us) - 1.0,
    );
    Ok(report)
}

fn gate_count(ir: &Ir) -> usize {
    match ir {
        Ir::Reversible(circuit) => circuit.num_gates(),
        Ir::Quantum(circuit) => circuit.num_gates(),
        _ => 0,
    }
}

fn quantum_t_count(ir: &Ir) -> usize {
    match ir {
        Ir::Quantum(circuit) => circuit.t_count(),
        _ => 0,
    }
}

fn layer_of(pass: &str) -> &'static str {
    match pass {
        "tbs" | "dbs" | "revsimp" => "reversible",
        "rptm" | "tpar" | "po" => "mapping",
        _ => "pipeline",
    }
}

fn time_metric(pass: &str) -> &'static str {
    match pass {
        "tbs" => "pass.tbs_ms",
        "dbs" => "pass.dbs_ms",
        "revsimp" => "pass.revsimp_ms",
        "rptm" => "pass.rptm_ms",
        "tpar" => "pass.tpar_ms",
        "ps" => "pass.ps_ms",
        _ => "pass.po_ms",
    }
}

fn gates_metric(pass: &str) -> &'static str {
    match pass {
        "tbs" => "pass.tbs_gates",
        "dbs" => "pass.dbs_gates",
        "revsimp" => "pass.revsimp_gates",
        "rptm" => "pass.rptm_gates",
        "tpar" => "pass.tpar_gates",
        "ps" => "pass.ps_gates",
        _ => "pass.po_gates",
    }
}
