//! Criterion benchmarks of the statevector and noisy simulators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdaflow::prelude::*;
use qdaflow::quantum::noise::NoisySimulator;
use qdaflow::quantum::{PreparedState, SoaStatevector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn ghz(num_qubits: usize) -> QuantumCircuit {
    let mut circuit = QuantumCircuit::new(num_qubits);
    circuit.push(QuantumGate::H(0)).unwrap();
    for target in 1..num_qubits {
        circuit
            .push(QuantumGate::Cx { control: 0, target })
            .unwrap();
    }
    for qubit in 0..num_qubits {
        circuit.push(QuantumGate::T(qubit)).unwrap();
        circuit.push(QuantumGate::H(qubit)).unwrap();
    }
    circuit
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(2));
    for n in [4usize, 8, 12, 16] {
        let circuit = ghz(n);
        group.bench_with_input(
            BenchmarkId::new("ghz_plus_layer", n),
            &circuit,
            |b, circ| b.iter(|| SoaStatevector::simulate(circ, &ExecConfig::default()).unwrap()),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("noisy_shots");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let circuit = ghz(4);
    let simulator = NoisySimulator::new(NoiseModel::ibm_qx_2017());
    for shots in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("ghz4", shots), &shots, |b, &shots| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                simulator.run(&circuit, shots, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
