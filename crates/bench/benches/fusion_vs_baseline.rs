//! Criterion benchmark: the fused (and optionally multi-threaded) execution
//! plan against the unfused, single-threaded plan on a 20-qubit hidden
//! shift circuit.
//!
//! Every case compiles the circuit to an `ExecPlan` (split re/im amplitude
//! storage, cache-blocked sweeps) and runs it from `|0…0⟩`. The baseline,
//! `plan_unfused_sequential`, keeps one record per gate on one thread: the
//! per-gate dispatch the other cases improve on. `plan_sequential` adds
//! fusion — the fusion walk makes each inner-product pair's gates, its `H`
//! and shift `X` gates included, one 4×4 record, and block-local records
//! share one sweep per run; `plan_parallel_auto` adds the worker pool where
//! the host has more than one CPU.
use criterion::{criterion_group, criterion_main, Criterion};
use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::prelude::*;
use qdaflow::quantum::{ExecPlan, PreparedState, SoaStatevector};
use std::time::Duration;

const NUM_QUBITS: usize = 20;

/// A 20-qubit hidden shift instance over the inner-product bent function
/// (Maiorana–McFarland with the identity permutation), the largest single
/// register the paper's benchmark family reaches on a workstation-class
/// simulator.
fn twenty_qubit_hidden_shift() -> QuantumCircuit {
    let mm = MaioranaMcFarland::inner_product(NUM_QUBITS / 2);
    let instance = HiddenShiftInstance::from_maiorana_mcfarland(&mm, 0b10_1101_1001).unwrap();
    let circuit = instance
        .build_circuit(OracleStyle::MaioranaMcFarland {
            synthesis: SynthesisChoice::TransformationBased,
        })
        .unwrap();
    assert_eq!(circuit.num_qubits(), NUM_QUBITS);
    circuit
}

fn bench_fusion_vs_baseline(c: &mut Criterion) {
    let circuit = twenty_qubit_hidden_shift();
    let fused_records = ExecPlan::compile(&circuit, &ExecConfig::sequential()).num_records();
    println!(
        "hidden-shift-20q: {} gates -> {} fused plan records",
        circuit.num_gates(),
        fused_records
    );

    let mut group = c.benchmark_group("fusion_vs_baseline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    // The baseline: ExecPlan without fusion, single-threaded, one record per
    // gate.
    group.bench_function("plan_unfused_sequential", |b| {
        b.iter(|| {
            let state = SoaStatevector::simulate(&circuit, &ExecConfig::baseline()).unwrap();
            state.amplitude(0)
        })
    });

    // ExecPlan SoA interpreter, single-threaded: split re/im sweeps, 4x4
    // batching and cache-blocked local runs, no worker pool.
    group.bench_function("plan_sequential", |b| {
        b.iter(|| {
            let state = SoaStatevector::simulate(&circuit, &ExecConfig::sequential()).unwrap();
            state.amplitude(0)
        })
    });

    // ExecPlan with the full auto configuration: the worker pool picks up
    // block batches where the host has more than one CPU.
    group.bench_function("plan_parallel_auto", |b| {
        b.iter(|| {
            let state = SoaStatevector::simulate(&circuit, &ExecConfig::auto()).unwrap();
            state.amplitude(0)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fusion_vs_baseline);
criterion_main!(benches);
