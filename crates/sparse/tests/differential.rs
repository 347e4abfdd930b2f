//! Differential property tests for the sparse statevector engine against the
//! dense simulator on their shared (≤ 10 qubit) domain.
//!
//! Random circuits covering **every gate kind of the IR** (H, X, Y, Z, S,
//! S†, T, T†, Rz, CX, CZ, SWAP, CCX, MCX, MCZ) are run on both engines; each
//! case checks
//!
//! * final-state amplitudes within `1e-10` of the dense fused execution
//!   layer (the acceptance contract of the sparse subsystem),
//! * sampled histograms *identical* to the dense engine's at 1, 2, 4 and 8
//!   sampling threads — under unfused sequential execution the two engines'
//!   amplitudes (and therefore the sampling prefix sums) are bit-identical,
//!   so equal seeds must map every draw to the same outcome,
//! * the sequential `Backend::run` paths agree shot for shot under equal
//!   seeds,
//! * norm preservation and the pruning invariant (no stored amplitude below
//!   the pruning threshold).

use proptest::prelude::*;
use qdaflow_quantum::backend::{Backend, StatevectorBackend};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::sampling::CumulativeDistribution;
use qdaflow_quantum::{PreparedState, QuantumCircuit, QuantumGate, SoaStatevector};
use qdaflow_sparse::{SparseBackend, SparseStatevector, PRUNE_NORM_EPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random circuit over 2..=10 qubits from a seed, drawing every
/// gate kind of the IR.
fn random_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(2..11usize);
    let num_gates = rng.gen_range(1..41usize);
    let mut circuit = QuantumCircuit::new(num_qubits);
    // A distinct-qubit sequence starting from a random offset.
    let pick_distinct = |rng: &mut StdRng, count: usize| -> Vec<usize> {
        let start = rng.gen_range(0..num_qubits);
        (0..count).map(|i| (start + i) % num_qubits).collect()
    };
    for _ in 0..num_gates {
        let gate = match rng.gen_range(0..15u32) {
            0 => QuantumGate::H(rng.gen_range(0..num_qubits)),
            1 => QuantumGate::X(rng.gen_range(0..num_qubits)),
            2 => QuantumGate::Y(rng.gen_range(0..num_qubits)),
            3 => QuantumGate::Z(rng.gen_range(0..num_qubits)),
            4 => QuantumGate::S(rng.gen_range(0..num_qubits)),
            5 => QuantumGate::Sdg(rng.gen_range(0..num_qubits)),
            6 => QuantumGate::T(rng.gen_range(0..num_qubits)),
            7 => QuantumGate::Tdg(rng.gen_range(0..num_qubits)),
            8 => QuantumGate::Rz {
                qubit: rng.gen_range(0..num_qubits),
                angle: f64::from(rng.gen_range(0..64u32)) * 0.1,
            },
            9 => {
                let q = pick_distinct(&mut rng, 2);
                QuantumGate::Cx {
                    control: q[0],
                    target: q[1],
                }
            }
            10 => {
                let q = pick_distinct(&mut rng, 2);
                QuantumGate::Cz { a: q[0], b: q[1] }
            }
            11 => {
                let q = pick_distinct(&mut rng, 2);
                QuantumGate::Swap { a: q[0], b: q[1] }
            }
            12 => {
                let q = pick_distinct(&mut rng, 2.min(num_qubits - 1) + 1);
                QuantumGate::Ccx {
                    control_a: q[0],
                    control_b: q[1 % q.len().max(1)],
                    target: q[q.len() - 1],
                }
            }
            13 => {
                let arity = rng.gen_range(2..num_qubits.min(4) + 1);
                let q = pick_distinct(&mut rng, arity);
                QuantumGate::Mcx {
                    controls: q[..arity - 1].to_vec(),
                    target: q[arity - 1],
                }
            }
            _ => {
                let arity = rng.gen_range(1..num_qubits.min(4) + 1);
                QuantumGate::Mcz {
                    qubits: pick_distinct(&mut rng, arity),
                }
            }
        };
        // Degenerate multi-qubit draws (repeated qubits from the modular
        // walk) are simply skipped; enough valid gates remain per circuit.
        let _ = circuit.push(gate);
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Suite 1: final-state amplitudes agree with the dense fused execution
    /// layer within 1e-10 over the whole basis.
    #[test]
    fn sparse_amplitudes_match_the_dense_fused_engine(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let sparse = SparseStatevector::from_circuit(&circuit).unwrap();
        let dense = SoaStatevector::simulate(&circuit, &ExecConfig::default()).unwrap();
        prop_assert!((sparse.norm() - 1.0).abs() < 1e-9);
        for (index, expected) in dense.to_amplitudes().iter().enumerate() {
            let actual = sparse.amplitude(index as u64);
            prop_assert!(
                actual.approx_eq(*expected, 1e-10),
                "amplitude {}: sparse {:?} vs dense {:?}",
                index, actual, expected
            );
        }
    }

    /// Suite 2: sharded histograms are identical to the dense engine's at
    /// 1, 2, 4 and 8 sampling threads (unfused sequential evolution makes
    /// the sampling prefix sums bit-identical, so equal seeds must agree).
    #[test]
    fn sparse_histograms_match_dense_at_every_thread_count(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let shots = 500 + (seed % 1500) as usize;
        let sample_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let base = ExecConfig::baseline().with_shot_shard_size(128);
        let sparse = SparseStatevector::from_circuit(&circuit).unwrap();
        let dense = SoaStatevector::simulate(&circuit, &base).unwrap();
        let dense = CumulativeDistribution::from_amplitudes(&dense.to_amplitudes());
        for threads in [1usize, 2, 4, 8] {
            let config = base.with_threads(threads);
            let sparse_counts = sparse.sample_counts_sharded(sample_seed, shots, &config);
            let dense_histogram = dense.sample_sharded(sample_seed, shots, threads, 128);
            prop_assert_eq!(
                sparse_counts.values().sum::<usize>(), shots, "threads={}", threads
            );
            for (outcome, &count) in dense_histogram.iter().enumerate() {
                prop_assert_eq!(
                    sparse_counts.get(&(outcome as u64)).copied().unwrap_or(0),
                    count,
                    "threads={} outcome={}",
                    threads, outcome
                );
            }
        }
    }

    /// Suite 3: the sequential `Backend::run` paths (one RNG draw per shot)
    /// agree shot for shot under equal seeds and unfused execution.
    #[test]
    fn sparse_backend_matches_dense_backend_shot_for_shot(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let shots = 100 + (seed % 400) as usize;
        let config = ExecConfig::baseline();
        let sparse = SparseBackend::with_config(seed, config).run(&circuit, shots).unwrap();
        let dense = StatevectorBackend::with_config(seed, config).run(&circuit, shots).unwrap();
        prop_assert_eq!(&sparse.counts, &dense.counts);
        prop_assert_eq!(&sparse.resources, &dense.resources);
        prop_assert_eq!(sparse.num_qubits, dense.num_qubits);
    }

    /// Suite 4: structural invariants — support bounded by the basis size,
    /// no stored amplitude below the pruning threshold, and the inverse
    /// circuit shrinks the support back to one entry.
    #[test]
    fn pruning_and_unitarity_invariants(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let mut sparse = SparseStatevector::from_circuit(&circuit).unwrap();
        prop_assert!(sparse.num_nonzero() <= 1 << circuit.num_qubits());
        for (key, amplitude) in sparse.sorted_amplitudes() {
            prop_assert!(
                amplitude.norm_sqr() > PRUNE_NORM_EPS,
                "stored amplitude below pruning threshold at key {}",
                key
            );
        }
        sparse.apply_circuit(&circuit.dagger());
        prop_assert!((sparse.probability_of(0) - 1.0).abs() < 1e-9);
    }
}
