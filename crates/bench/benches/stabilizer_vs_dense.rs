//! Criterion benchmark of the stabilizer tableau engine against the dense
//! simulator on Clifford hidden-shift workloads.
//!
//! Two claims back the stabilizer subsystem:
//!
//! 1. **The qubit ceiling is lifted for Clifford circuits** — a 100-qubit
//!    Clifford hidden-shift circuit (H layers, the shift's X gates, CZ
//!    layers of the self-dual pairing bent function) runs end to end
//!    through [`StabilizerBackend`] in milliseconds and recovers the
//!    hidden shift with certainty, while the dense engine *cannot even
//!    allocate* the `2^100`-amplitude register (`MAX_SIMULATOR_QUBITS`
//!    is 26); the bench asserts the typed `TooManyQubits` rejection.
//! 2. **Tableau evolution replaces amplitude sweeps** — on a 20-qubit
//!    register both engines can run the same circuit; the tableau updates
//!    cost `O(n/64)` words per gate instead of the `2^20`-amplitude sweep,
//!    and sampling maps each draw into the affine support's closed form
//!    instead of prefix-summing a million amplitudes.
//!
//! A third group, `stabilizer_sampling`, times sampling from a support no
//! list could hold: `h` on 40 qubits, `2^40` outcomes.

use criterion::{criterion_group, criterion_main, Criterion};
use qdaflow::prelude::*;
use qdaflow::quantum::{PreparedState, QuantumError, SoaStatevector, MAX_SIMULATOR_QUBITS};
use std::time::Duration;

/// Register width of the beyond-dense-ceiling demonstration.
const LARGE_QUBITS: usize = 100;
/// Register width of the shared-domain comparison.
const SHARED_QUBITS: usize = 20;
/// The hidden shift recovered by the circuit.
const HIDDEN_SHIFT: usize = 0b1001011;

/// The Clifford hidden-shift circuit for the self-dual pairing bent
/// function `f(x) = ⊕ x_{2i} x_{2i+1}` (CZ on adjacent pairs): H layer,
/// shifted oracle (X-conjugated CZ layer), H layer, dual oracle, H layer.
/// Its output is exactly the basis state `|s⟩`.
fn clifford_hidden_shift(num_qubits: usize, shift: usize) -> QuantumCircuit {
    let mut circuit = QuantumCircuit::new(num_qubits);
    let h_layer = |circuit: &mut QuantumCircuit| {
        for qubit in 0..num_qubits {
            circuit.push(QuantumGate::H(qubit)).expect("in range");
        }
    };
    let shift_layer = |circuit: &mut QuantumCircuit| {
        for qubit in 0..num_qubits.min(usize::BITS as usize) {
            if (shift >> qubit) & 1 == 1 {
                circuit.push(QuantumGate::X(qubit)).expect("in range");
            }
        }
    };
    let oracle = |circuit: &mut QuantumCircuit| {
        for pair in 0..num_qubits / 2 {
            circuit
                .push(QuantumGate::Cz {
                    a: 2 * pair,
                    b: 2 * pair + 1,
                })
                .expect("in range");
        }
    };
    h_layer(&mut circuit);
    shift_layer(&mut circuit);
    oracle(&mut circuit);
    shift_layer(&mut circuit);
    h_layer(&mut circuit);
    oracle(&mut circuit);
    h_layer(&mut circuit);
    circuit
}

fn bench_beyond_dense_ceiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer_vs_dense");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let circuit = clifford_hidden_shift(LARGE_QUBITS, HIDDEN_SHIFT);

    // The dense engine cannot even allocate the 2^100-amplitude register —
    // the typed rejection is the baseline this subsystem removes.
    group.bench_function("dense_cannot_allocate/100q", |b| {
        const _: () = assert!(LARGE_QUBITS > MAX_SIMULATOR_QUBITS);
        b.iter(|| {
            let denied = SoaStatevector::simulate(&circuit, &ExecConfig::default());
            assert!(matches!(
                denied,
                Err(QuantumError::TooManyQubits { requested: 100, .. })
            ));
            denied
        })
    });

    // End-to-end through the stabilizer Backend impl: tableau evolution,
    // affine-support extraction and 1024 sampled shots. Every shot is the
    // hidden shift.
    group.bench_function("stabilizer_hidden_shift_end_to_end/100q_1024_shots", |b| {
        b.iter(|| {
            let mut backend = StabilizerBackend::seeded(7);
            let result = qdaflow::quantum::Backend::run(&mut backend, &circuit, 1024).unwrap();
            assert_eq!(result.most_likely(), Some((HIDDEN_SHIFT, 1.0)));
            result
        })
    });
    group.finish();
}

fn bench_shared_domain(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer_vs_dense");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let circuit = clifford_hidden_shift(SHARED_QUBITS, HIDDEN_SHIFT);

    group.bench_function("dense_hidden_shift/20q", |b| {
        let backend = StatevectorBackend::seeded(7);
        b.iter(|| backend.prepare(&circuit).unwrap())
    });

    group.bench_function("stabilizer_hidden_shift/20q", |b| {
        b.iter(|| {
            let tableau = StabilizerTableau::from_circuit(&circuit).unwrap();
            assert_eq!(tableau.num_qubits(), SHARED_QUBITS);
            tableau
        })
    });

    let dense_state = StatevectorBackend::seeded(7).prepare(&circuit).unwrap();
    let sampler = StabilizerBackend::seeded(7).prepare(&circuit).unwrap();
    let config = ExecConfig::auto();
    group.bench_function("dense_sampling/20q_100000_shots", |b| {
        b.iter(|| dense_state.sample_sharded(7, 100_000, &config))
    });
    group.bench_function("stabilizer_sampling/20q_100000_shots", |b| {
        b.iter(|| {
            let counts = sampler.sample_counts_sharded(7, 100_000, &config);
            assert_eq!(counts.values().sum::<usize>(), 100_000);
            counts
        })
    });
    group.finish();
}

fn bench_wide_support(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilizer_sampling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let mut circuit = QuantumCircuit::new(40);
    for qubit in 0..40 {
        circuit.push(QuantumGate::H(qubit)).expect("in range");
    }
    let backend = StabilizerBackend::seeded(7);
    let sampler = backend.prepare(&circuit).unwrap();
    let config = backend.exec_config();
    group.bench_function("rank40_1024_shots", |b| {
        b.iter(|| {
            let counts = sampler.sample_sharded(7, 1024, &config);
            assert_eq!(counts.values().sum::<usize>(), 1024);
            counts
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_beyond_dense_ceiling,
    bench_shared_domain,
    bench_wide_support
);
criterion_main!(benches);
