//! Differential property tests for the stabilizer tableau engine against the
//! dense simulator on their shared (≤ 16 qubit, Clifford-only) domain.
//!
//! Random Clifford circuits covering **every Clifford gate of the IR** (H, X,
//! Y, Z, S, S†, quarter-turn Rz, CX, CZ, SWAP, one- and two-qubit MCZ) are
//! run on both engines; each case checks
//!
//! * sampled histograms *identical* to the dense engine's at 1, 2, 4 and 8
//!   `ExecConfig::threads` values — a stabilizer state is uniform over an
//!   affine support, so the tableau sampler's `⌊u·2^rank⌋` index of a draw
//!   `u` is where the dense prefix sums put it, and equal seeds must map
//!   every draw to the same outcome,
//! * the sequential `Backend::run` paths agree shot for shot under equal
//!   seeds,
//! * non-Clifford content surfaces as typed errors (`NonClifford` at the
//!   tableau layer, `UnsupportedGate` at the backend layer) — never a panic,
//! * on 11–16 qubits, with an `h` prefix that spreads the support rank over
//!   0–16, the closed-form support is the dense state's support, and the
//!   closed form places every draw, sharded and sequential, where a
//!   `CumulativeDistribution` over that enumerated support does.

use proptest::prelude::*;
use qdaflow_quantum::backend::{Backend, StatevectorBackend};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::sampling::CumulativeDistribution;
use qdaflow_quantum::{PreparedState, QuantumCircuit, QuantumGate, SoaStatevector};
use qdaflow_stabilizer::{StabilizerBackend, StabilizerError, StabilizerTableau};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Builds a random Clifford circuit over 2..=10 qubits from a seed, drawing
/// every Clifford gate kind of the IR.
fn random_clifford_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = QuantumCircuit::new(rng.gen_range(2..11usize));
    push_random_clifford_gates(&mut circuit, rng);
    circuit
}

/// Builds a random Clifford circuit over 11..=16 qubits from a seed whose
/// support rank spreads over 0..=16: `h` on a random run of the qubits
/// (of random length, from a random start), then the random gates of
/// [`random_clifford_circuit`].
fn wide_support_clifford_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(11..17usize);
    let mut circuit = QuantumCircuit::new(num_qubits);
    let start = rng.gen_range(0..num_qubits);
    for offset in 0..rng.gen_range(0..num_qubits + 1) {
        circuit
            .push(QuantumGate::H((start + offset) % num_qubits))
            .unwrap();
    }
    push_random_clifford_gates(&mut circuit, rng);
    circuit
}

/// Appends 1..=40 random gates covering every Clifford gate kind of the IR.
fn push_random_clifford_gates(circuit: &mut QuantumCircuit, mut rng: StdRng) {
    let num_qubits = circuit.num_qubits();
    let num_gates = rng.gen_range(1..41usize);
    // A distinct-qubit pair starting from a random offset.
    let pick_pair = |rng: &mut StdRng| -> (usize, usize) {
        let start = rng.gen_range(0..num_qubits);
        (start, (start + 1) % num_qubits)
    };
    for _ in 0..num_gates {
        let gate = match rng.gen_range(0..11u32) {
            0 => QuantumGate::H(rng.gen_range(0..num_qubits)),
            1 => QuantumGate::X(rng.gen_range(0..num_qubits)),
            2 => QuantumGate::Y(rng.gen_range(0..num_qubits)),
            3 => QuantumGate::Z(rng.gen_range(0..num_qubits)),
            4 => QuantumGate::S(rng.gen_range(0..num_qubits)),
            5 => QuantumGate::Sdg(rng.gen_range(0..num_qubits)),
            6 => QuantumGate::Rz {
                qubit: rng.gen_range(0..num_qubits),
                angle: f64::from(rng.gen_range(0..8u32)) * std::f64::consts::FRAC_PI_2,
            },
            7 => {
                let (control, target) = pick_pair(&mut rng);
                QuantumGate::Cx { control, target }
            }
            8 => {
                let (a, b) = pick_pair(&mut rng);
                QuantumGate::Cz { a, b }
            }
            9 => {
                let (a, b) = pick_pair(&mut rng);
                QuantumGate::Swap { a, b }
            }
            _ => {
                let qubits = if rng.gen_range(0..2u32) == 0 {
                    vec![rng.gen_range(0..num_qubits)]
                } else {
                    let (a, b) = pick_pair(&mut rng);
                    vec![a, b]
                };
                QuantumGate::Mcz { qubits }
            }
        };
        circuit.push(gate).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Suite 1: sharded histograms are identical to the dense engine's at
    /// 1, 2, 4 and 8 sampling threads. Stabilizer states are uniform over
    /// their support, so the tableau sampler's exact step heights agree
    /// with the dense prefix sums and equal seeds must agree.
    #[test]
    fn stabilizer_histograms_match_dense_at_every_thread_count(seed in any::<u64>()) {
        let circuit = random_clifford_circuit(seed);
        let shots = 500 + (seed % 1500) as usize;
        let sample_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let base = ExecConfig::baseline().with_shot_shard_size(128);
        let sampler = StabilizerTableau::from_circuit(&circuit).unwrap().sampler().unwrap();
        let dense = SoaStatevector::simulate(&circuit, &base).unwrap();
        let dense = CumulativeDistribution::from_amplitudes(&dense.to_amplitudes());
        for threads in [1usize, 2, 4, 8] {
            let config = base.with_threads(threads);
            let stab_counts = sampler.sample_counts_sharded(sample_seed, shots, &config);
            let dense_histogram = dense.sample_sharded(sample_seed, shots, threads, 128);
            prop_assert_eq!(
                stab_counts.values().sum::<usize>(), shots, "threads={}", threads
            );
            for (outcome, &count) in dense_histogram.iter().enumerate() {
                prop_assert_eq!(
                    stab_counts.get(&outcome).copied().unwrap_or(0),
                    count,
                    "threads={} outcome={}",
                    threads, outcome
                );
            }
        }
    }

    /// Suite 2: the sequential `Backend::run` paths (one RNG draw per shot)
    /// agree shot for shot under equal seeds.
    #[test]
    fn stabilizer_backend_matches_dense_backend_shot_for_shot(seed in any::<u64>()) {
        let circuit = random_clifford_circuit(seed);
        let shots = 100 + (seed % 400) as usize;
        let config = ExecConfig::baseline();
        let stab = StabilizerBackend::with_config(seed, config).run(&circuit, shots).unwrap();
        let dense = StatevectorBackend::with_config(seed, config).run(&circuit, shots).unwrap();
        prop_assert_eq!(&stab.counts, &dense.counts);
        prop_assert_eq!(&stab.resources, &dense.resources);
        prop_assert_eq!(stab.num_qubits, dense.num_qubits);
    }

    /// Suite 3: a non-Clifford gate injected anywhere into an otherwise
    /// Clifford circuit is a typed error — with the offending mnemonic —
    /// at both the tableau and the backend layer, never a panic.
    #[test]
    fn non_clifford_content_is_a_typed_error(seed in any::<u64>()) {
        let clifford = random_clifford_circuit(seed);
        let num_qubits = clifford.num_qubits();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        let (gate, mnemonic) = match rng.gen_range(0..3u32) {
            0 => (QuantumGate::T(rng.gen_range(0..num_qubits)), "t"),
            1 => (QuantumGate::Tdg(rng.gen_range(0..num_qubits)), "tdg"),
            _ => (
                QuantumGate::Rz {
                    qubit: rng.gen_range(0..num_qubits),
                    angle: 0.7,
                },
                "rz",
            ),
        };
        let mut circuit = QuantumCircuit::new(num_qubits);
        let cut = rng.gen_range(0..clifford.gates().len() + 1);
        for (i, existing) in clifford.gates().iter().enumerate() {
            if i == cut {
                circuit.push(gate.clone()).unwrap();
            }
            circuit.push(existing.clone()).unwrap();
        }
        if cut == clifford.gates().len() {
            circuit.push(gate).unwrap();
        }
        prop_assert!(matches!(
            StabilizerTableau::from_circuit(&circuit),
            Err(StabilizerError::NonClifford { gate }) if gate == mnemonic
        ));
        prop_assert!(matches!(
            StabilizerBackend::seeded(seed).run(&circuit, 8),
            Err(qdaflow_quantum::QuantumError::UnsupportedGate { gate, .. }) if gate == mnemonic
        ));
    }

    /// Suite 4: the closed form against an independent enumeration, draw
    /// for draw, on 11..=16 qubits at ranks 0..=16. `support()` is the
    /// ascending list of the dense state's nonzero outcomes, and every draw
    /// lands where a `CumulativeDistribution` with uniform `2^-rank`
    /// probabilities over that list puts it: sharded at 1 and 4 threads,
    /// and sequentially, one draw per shot.
    #[test]
    fn closed_form_matches_the_enumerated_support_draw_for_draw(seed in any::<u64>()) {
        let circuit = wide_support_clifford_circuit(seed);
        let sampler = StabilizerTableau::from_circuit(&circuit).unwrap().sampler().unwrap();
        let dense = SoaStatevector::simulate(&circuit, &ExecConfig::baseline()).unwrap();
        let support: Vec<usize> = dense
            .to_amplitudes()
            .iter()
            .enumerate()
            .filter(|&(_, amplitude)| amplitude.norm_sqr() > 1e-9)
            .map(|(outcome, _)| outcome)
            .collect();
        prop_assert_eq!(sampler.support().collect::<Vec<_>>(), support.clone());
        let distribution = CumulativeDistribution::from_probabilities(
            &vec![1.0 / support.len() as f64; support.len()],
        );
        let on_support = |histogram: Vec<usize>| -> BTreeMap<usize, usize> {
            support
                .iter()
                .zip(histogram)
                .filter(|&(_, count)| count > 0)
                .map(|(&outcome, count)| (outcome, count))
                .collect()
        };
        let shots = 200 + (seed % 1000) as usize;
        let sample_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let base = ExecConfig::baseline().with_shot_shard_size(128);
        for threads in [1usize, 4] {
            prop_assert_eq!(
                sampler.sample_counts_sharded(sample_seed, shots, &base.with_threads(threads)),
                on_support(distribution.sample_sharded(sample_seed, shots, threads, 128)),
                "threads={}",
                threads
            );
        }
        let mut closed_form_rng = StdRng::seed_from_u64(sample_seed);
        let mut reference_rng = StdRng::seed_from_u64(sample_seed);
        prop_assert_eq!(
            sampler.sample_counts(&mut closed_form_rng, shots),
            on_support(distribution.sample_counts(&mut reference_rng, shots))
        );
        prop_assert_eq!(closed_form_rng.gen::<u64>(), reference_rng.gen::<u64>());
    }
}
