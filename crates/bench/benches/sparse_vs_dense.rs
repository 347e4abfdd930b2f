//! Criterion benchmark of the sparse statevector engine against the dense
//! simulator on permutation-oracle workloads.
//!
//! Three claims back the sparse subsystem:
//!
//! 1. **The qubit ceiling is lifted** — a 28-qubit permutation oracle (in
//!    the spirit of the paper's `hwb` benchmarks: a reversible increment
//!    network of MCX cascades, plus a Hadamard preparation layer) runs end
//!    to end through [`SparseBackend`], while the dense engine *cannot even
//!    allocate* the `2^28`-amplitude register (`MAX_SIMULATOR_QUBITS` is
//!    26); the bench asserts the typed `TooManyQubits` rejection.
//! 2. **Permutation oracles are key remaps** — on a 20-qubit register both
//!    engines can run, and the sparse engine applies the same oracle in
//!    time proportional to the support size (a handful of keys) instead of
//!    the `2^20` amplitude sweep of the dense engine.
//! 3. **Sampling scales with the support** — sparse sampling builds its
//!    cumulative distribution over the nonzero entries only.

use criterion::{criterion_group, criterion_main, Criterion};
use qdaflow::prelude::*;
use qdaflow::quantum::{PreparedState, QuantumError, MAX_SIMULATOR_QUBITS};
use std::time::Duration;

/// Number of qubits for the beyond-dense-ceiling demonstration.
const LARGE_QUBITS: usize = 28;
/// Number of high qubits put into superposition by the preparation layer.
const SUPERPOSED: usize = 4;
/// Increment repetitions of the oracle.
const REPETITIONS: usize = 8;
/// Basis value prepared on the low qubits before the oracle.
const PREPARED: usize = 0b1010;

/// An `n`-qubit permutation oracle: `repetitions` applications of the
/// reversible increment `|x⟩ → |x + 1 mod 2^n⟩`, each an MCX cascade from
/// the top qubit down — every gate a pure permutation, like the compiled
/// `hwb` networks of the paper's flow.
fn increment_oracle(num_qubits: usize, repetitions: usize) -> QuantumCircuit {
    let mut circuit = QuantumCircuit::new(num_qubits);
    for _ in 0..repetitions {
        for target in (1..num_qubits).rev() {
            let controls: Vec<usize> = (0..target).collect();
            let gate = match controls.len() {
                1 => QuantumGate::Cx {
                    control: controls[0],
                    target,
                },
                2 => QuantumGate::Ccx {
                    control_a: controls[0],
                    control_b: controls[1],
                    target,
                },
                _ => QuantumGate::Mcx { controls, target },
            };
            circuit.push(gate).expect("generated gates are in range");
        }
        circuit.push(QuantumGate::X(0)).expect("in range");
    }
    circuit
}

/// The full workload: prepare `PREPARED` on the low qubits, spread the top
/// `SUPERPOSED` qubits with Hadamards (a 2^SUPERPOSED-entry support), then
/// apply the increment oracle.
fn oracle_workload(num_qubits: usize) -> QuantumCircuit {
    let mut circuit = QuantumCircuit::new(num_qubits);
    for bit in 0..num_qubits {
        if (PREPARED >> bit) & 1 == 1 {
            circuit.push(QuantumGate::X(bit)).expect("in range");
        }
    }
    for qubit in num_qubits - SUPERPOSED..num_qubits {
        circuit.push(QuantumGate::H(qubit)).expect("in range");
    }
    circuit
        .append(&increment_oracle(num_qubits, REPETITIONS))
        .expect("same register");
    circuit
}

fn bench_beyond_dense_ceiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let circuit = oracle_workload(LARGE_QUBITS);

    // The dense engine cannot even allocate the 2^28-amplitude register —
    // the typed rejection is the baseline this subsystem removes.
    group.bench_function("dense_cannot_allocate/28q", |b| {
        const _: () = assert!(LARGE_QUBITS > MAX_SIMULATOR_QUBITS);
        b.iter(|| {
            let denied = StatevectorBackend::seeded(7).prepare(&circuit);
            assert!(matches!(
                denied,
                Err(QuantumError::TooManyQubits { requested: 28, .. })
            ));
        })
    });

    // End-to-end through the sparse Backend impl: simulate + 1024 shots.
    // Every outcome carries `PREPARED + REPETITIONS` on the low qubits (the
    // increments never carry into the superposed top qubits).
    group.bench_function("sparse_oracle_end_to_end/28q_1024_shots", |b| {
        b.iter(|| {
            let mut backend = SparseBackend::seeded(7);
            let result = qdaflow::quantum::Backend::run(&mut backend, &circuit, 1024).unwrap();
            assert_eq!(result.shots, 1024);
            let low_mask = (1usize << (LARGE_QUBITS - SUPERPOSED)) - 1;
            assert!(result
                .counts
                .keys()
                .all(|outcome| outcome & low_mask == PREPARED + REPETITIONS));
            result
        })
    });
    group.finish();
}

fn bench_shared_domain(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let num_qubits = 20;
    let circuit = oracle_workload(num_qubits);

    group.bench_function("dense_oracle/20q", |b| {
        let backend = StatevectorBackend::seeded(7);
        b.iter(|| backend.prepare(&circuit).unwrap())
    });

    group.bench_function("sparse_oracle/20q", |b| {
        let backend = SparseBackend::seeded(7);
        b.iter(|| {
            let state = backend.prepare(&circuit).unwrap();
            assert_eq!(state.num_nonzero(), 1 << SUPERPOSED);
            state
        })
    });

    let sparse_state = SparseBackend::seeded(7).prepare(&circuit).unwrap();
    let dense_state = StatevectorBackend::seeded(7).prepare(&circuit).unwrap();
    let config = ExecConfig::auto();
    group.bench_function("dense_sampling/20q_100000_shots", |b| {
        b.iter(|| dense_state.sample_sharded(7, 100_000, &config))
    });
    group.bench_function("sparse_sampling/20q_100000_shots", |b| {
        b.iter(|| sparse_state.sample_counts_sharded(7, 100_000, &config))
    });
    group.finish();
}

criterion_group!(benches, bench_beyond_dense_ceiling, bench_shared_domain);
criterion_main!(benches);
