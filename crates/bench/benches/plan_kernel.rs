//! Criterion benchmark: the `ExecPlan` SoA kernel in isolation on the
//! 20-qubit hidden shift circuit.
//!
//! Where `fusion_vs_baseline` compares whole execution paths end to end,
//! this bench separates the plan pipeline into its stages: compiling the
//! circuit down to flat dispatch records, and interpreting a precompiled
//! plan against a resident split re/im register. The block-size variants
//! show the cache-blocking trade-off directly, and the unfused variant
//! prices the one-record-per-gate mode the differential suites and the
//! noisy replay run in. `simulate_20q` times what a dense job runs: the
//! circuit's leading single-qubit layer written as the initial product
//! state, then the plan of the ops after it. `apply_20q_dense2_0_10` prices
//! one 4×4 record at the lowest stride, the small-stride kernel alone.
//! `apply_20q_dense2_5_15` prices one real 4×4 at a wide stride, which takes
//! the kernels' real-coefficient path, and `apply_20q_dense2_5_15_complex`
//! the same block with a `T` on qubit 5, a complex 4×4 on the same sweep:
//! the pair shows what the real path saves.

use criterion::{criterion_group, criterion_main, Criterion};
use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::prelude::*;
use qdaflow::quantum::plan::{ExecPlan, SoaStatevector};
use qdaflow::quantum::PreparedState;
use std::time::Duration;

const NUM_QUBITS: usize = 20;

/// Same 20-qubit hidden shift instance as `fusion_vs_baseline`: the
/// inner-product bent function with shift `0b10_1101_1001`, synthesised
/// with the transformation-based method.
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

/// The plan of `H(lo); H(hi); CZ(lo, hi)` and then `extra`: one 4×4 record,
/// real when `extra` is empty.
fn one_4x4_plan(lo: usize, hi: usize, extra: &[QuantumGate], config: &ExecConfig) -> ExecPlan {
    let mut pair = QuantumCircuit::new(NUM_QUBITS);
    let block = [
        QuantumGate::H(lo),
        QuantumGate::H(hi),
        QuantumGate::Cz { a: lo, b: hi },
    ];
    for gate in block.into_iter().chain(extra.iter().cloned()) {
        pair.push(gate).expect("the pair's qubits are in range");
    }
    let plan = ExecPlan::compile(&pair, config);
    assert_eq!(plan.num_records(), 1, "the pair fuses into one 4×4");
    let slot = plan.records()[0].slot as usize;
    let real = (0..16).all(|k| plan.matrix_pool()[slot + 2 * k + 1] == 0.0);
    assert_eq!(
        real,
        extra.is_empty(),
        "the 4×4 is real exactly without `extra`"
    );
    plan
}

fn bench_plan_kernel(c: &mut Criterion) {
    let circuit = twenty_qubit_hidden_shift();
    let config = ExecConfig::sequential();
    let plan = ExecPlan::compile(&circuit, &config);
    let (_, job_plan) = ExecPlan::compile_from_zero(&circuit, &config);
    println!(
        "hidden-shift-20q: {} gates -> {} dispatch records in {} sweeps ({} pool f64s, \
         block_bits {}); a job's plan (`compile_from_zero`, after its product layer): \
         {} records in {} sweeps",
        circuit.num_gates(),
        plan.num_records(),
        plan.num_segments(),
        plan.matrix_pool().len(),
        plan.block_bits(),
        job_plan.num_records(),
        job_plan.num_segments(),
    );

    let mut group = c.benchmark_group("plan_kernel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    // Lowering + batching + scheduling only — no state touched. This is the
    // per-circuit cost the noisy simulator amortises across shots.
    group.bench_function("compile_20q", |b| {
        b.iter(|| ExecPlan::compile(&circuit, &config).num_records())
    });

    // Interpreting a precompiled plan against a resident SoA register —
    // the steady-state cost a shot replay pays.
    group.bench_function("apply_20q_soa", |b| {
        let mut state = SoaStatevector::zero_state(NUM_QUBITS, plan.block_bits());
        b.iter(|| {
            state.reset();
            plan.apply_soa(&mut state, &config);
            state.amplitude(0)
        })
    });

    // A dense job's simulation (`PreparedState::simulate`): compile, write
    // the product state of the leading layer, apply the remaining plan.
    group.bench_function("simulate_20q", |b| {
        b.iter(|| {
            SoaStatevector::simulate(&circuit, &config)
                .expect("20 qubits fit the dense simulator")
                .amplitude(0)
        })
    });

    // Smaller cache blocks (2^10 amplitudes = 16 KiB per re/im pair): more
    // cross-block dispatch, but each local run stays in L1.
    group.bench_function("apply_20q_block_10", |b| {
        let small = config.with_block_bits(10);
        let plan = ExecPlan::compile(&circuit, &small);
        let mut state = SoaStatevector::zero_state(NUM_QUBITS, plan.block_bits());
        b.iter(|| {
            state.reset();
            plan.apply_soa(&mut state, &small);
            state.amplitude(0)
        })
    });

    // Fusion off: one record per gate, bit-identical at every block size
    // and thread count.
    group.bench_function("apply_20q_unfused", |b| {
        let exact = config.with_fusion(false);
        let plan = ExecPlan::compile(&circuit, &exact);
        let mut state = SoaStatevector::zero_state(NUM_QUBITS, plan.block_bits());
        b.iter(|| {
            state.reset();
            plan.apply_soa(&mut state, &exact);
            state.amplitude(0)
        })
    });

    // One 4×4 record on qubits (0, 10): a block-local pair at the lowest
    // stride, which the kernel applies in 8-element lane groups. The
    // hidden shift's pairs (0, 10), (1, 11) and (2, 12) are of this kind.
    // The `CZ` joins the block of `H(10)` and pulls in that of `H(0)`; the
    // 4×4 is real, so the lane groups take the real-coefficient path.
    group.bench_function("apply_20q_dense2_0_10", |b| {
        let plan = one_4x4_plan(0, 10, &[], &config);
        let mut state = SoaStatevector::zero_state(NUM_QUBITS, plan.block_bits());
        b.iter(|| {
            plan.apply_soa(&mut state, &config);
            state.amplitude(0)
        })
    });

    // One real 4×4 on qubits (5, 15): the low qubit inside a block, the
    // high one across a block pair, at a stride wide enough for the generic
    // rows. The hidden shift's pairs (3, 13) to (9, 19) are of this kind.
    group.bench_function("apply_20q_dense2_5_15", |b| {
        let plan = one_4x4_plan(5, 15, &[], &config);
        let mut state = SoaStatevector::zero_state(NUM_QUBITS, plan.block_bits());
        b.iter(|| {
            plan.apply_soa(&mut state, &config);
            state.amplitude(0)
        })
    });

    // Its complex twin: a `T(5)` joins the block, so the 4×4 has imaginary
    // entries and runs the complex kernel over the same sweep.
    group.bench_function("apply_20q_dense2_5_15_complex", |b| {
        let plan = one_4x4_plan(5, 15, &[QuantumGate::T(5)], &config);
        let mut state = SoaStatevector::zero_state(NUM_QUBITS, plan.block_bits());
        b.iter(|| {
            plan.apply_soa(&mut state, &config);
            state.amplitude(0)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_plan_kernel);
criterion_main!(benches);
