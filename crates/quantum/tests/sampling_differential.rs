//! Differential property tests for the measurement sampler: the
//! binary-search (CDF) fast path against the retained linear-scan reference,
//! the shot-sharded parallel sampler against itself at different thread
//! counts, and the dense engine's sorted-draw sampler against the CDF.
//!
//! Random states of up to 10 qubits are produced by random circuits; each
//! case then checks, for the *same* seeded RNG stream, that the
//! [`CumulativeDistribution`] of the state's amplitudes (CDF + binary
//! search) reproduces the histogram of `SoaStatevector::sample_linear`'s
//! per-shot linear scan bit for bit — not merely statistically — and that
//! the distribution's sharded sampler merges to a histogram invariant under
//! the worker count (1/2/4/8 threads), which is the reproducibility
//! contract of the batch execution subsystem. Suite 5
//! holds the sampler every dense job and `StatevectorBackend::run` use —
//! `SoaStatevector`'s `PreparedState` impl, which walks the blocked state
//! once over sorted draws — to the CDF samplers, draw for draw.

use proptest::prelude::*;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::sampling::CumulativeDistribution;
use qdaflow_quantum::{PreparedState, QuantumCircuit, QuantumGate, SoaStatevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Builds a random state over 1..=10 qubits from a seed, via a random
/// circuit mixing superposition, phases and entanglement.
fn random_state(seed: u64) -> SoaStatevector {
    SoaStatevector::simulate(&random_circuit(seed), &ExecConfig::default()).expect("small register")
}

/// The random circuit behind [`random_state`].
fn random_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(1..11usize);
    let num_gates = rng.gen_range(1..31usize);
    let mut circuit = QuantumCircuit::new(num_qubits);
    for _ in 0..num_gates {
        let qubit = rng.gen_range(0..num_qubits);
        let gate = match rng.gen_range(0..6u32) {
            0 => QuantumGate::H(qubit),
            1 => QuantumGate::X(qubit),
            2 => QuantumGate::T(qubit),
            3 => QuantumGate::Rz {
                qubit,
                angle: f64::from(rng.gen_range(0..16u32)) * std::f64::consts::FRAC_PI_4,
            },
            4 if num_qubits >= 2 => {
                let target = (qubit + 1 + rng.gen_range(0..num_qubits - 1)) % num_qubits;
                QuantumGate::Cx {
                    control: qubit,
                    target,
                }
            }
            _ => QuantumGate::H(qubit),
        };
        circuit.push(gate).expect("generated gates are in range");
    }
    circuit
}

/// The nonzero entries of a dense histogram as an outcome → count map.
fn nonzero(histogram: &[usize]) -> BTreeMap<usize, usize> {
    histogram
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(outcome, &count)| (outcome, count))
        .collect()
}

/// Histogram drawn with the retired per-shot linear scan — the reference
/// implementation the fast path must match exactly.
fn linear_scan_counts(state: &SoaStatevector, rng_seed: u64, shots: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut histogram = vec![0usize; 1 << state.num_qubits()];
    for _ in 0..shots {
        histogram[state.sample_linear(&mut rng)] += 1;
    }
    histogram
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Suite 1: for the same RNG stream, the CDF/binary-search sampler and
    /// the linear-scan sampler produce bit-identical histograms.
    #[test]
    fn cdf_sampler_matches_linear_scan(seed in any::<u64>()) {
        let state = random_state(seed);
        let rng_seed = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let shots = 200 + (seed % 300) as usize;
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let fast = CumulativeDistribution::from_amplitudes(&state.to_amplitudes())
            .sample_counts(&mut rng, shots);
        let slow = linear_scan_counts(&state, rng_seed, shots);
        prop_assert_eq!(fast, slow);
    }

    /// Suite 2: per-shot agreement — every single draw of the same stream
    /// lands on the same outcome under both samplers.
    #[test]
    fn cdf_sampler_matches_linear_scan_shot_for_shot(seed in any::<u64>()) {
        let state = random_state(seed);
        let dist = CumulativeDistribution::from_amplitudes(&state.to_amplitudes());
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut slow_rng = StdRng::seed_from_u64(seed);
        for shot in 0..64 {
            let fast = dist.sample_one(&mut fast_rng);
            let slow = state.sample_linear(&mut slow_rng);
            prop_assert_eq!(fast, slow, "shot {} diverged", shot);
        }
    }

    /// Suite 3: sharded sampling under the same (seed, shard) scheme merges
    /// to an identical histogram at 1, 2, 4 and 8 worker threads.
    #[test]
    fn sharded_sampling_is_thread_count_invariant(seed in any::<u64>()) {
        let dist = CumulativeDistribution::from_amplitudes(&random_state(seed).to_amplitudes());
        let shots = 1000 + (seed % 2000) as usize;
        let reference = dist.sample_sharded(seed, shots, 1, 128);
        prop_assert_eq!(reference.iter().sum::<usize>(), shots);
        for threads in [2usize, 4, 8] {
            let threaded = dist.sample_sharded(seed, shots, threads, 128);
            prop_assert_eq!(&threaded, &reference, "threads={} diverged", threads);
        }
    }

    /// Suite 4: the sharded histogram is determined by (seed, shots, shard
    /// size) and the outcome probabilities alone — the distribution built
    /// from the state's amplitudes and the one built from its raw
    /// probability vector give the same counts.
    #[test]
    fn sharded_sampling_matches_raw_distribution_path(seed in any::<u64>()) {
        let amplitudes = random_state(seed).to_amplitudes();
        let shots = 500 + (seed % 500) as usize;
        let probabilities: Vec<f64> = amplitudes.iter().map(|a| a.norm_sqr()).collect();
        let via_amplitudes =
            CumulativeDistribution::from_amplitudes(&amplitudes).sample_sharded(seed, shots, 4, 64);
        let via_probabilities = CumulativeDistribution::from_probabilities(&probabilities)
            .sample_sharded(seed, shots, 4, 64);
        prop_assert_eq!(via_amplitudes, via_probabilities);
    }

    /// Suite 5: the dense engine's sampler places every draw where the CDF
    /// does. States are simulated straight to `SoaStatevector` at the
    /// default cache-block size and at 2-8 amplitudes per block, so one
    /// walk crosses many blocks; shot counts sit at and around the basis
    /// size, and shard sizes of 1, 7 and 4096 split them differently.
    /// Sharded sampling must equal the CDF's sharded histogram at 1 and 4
    /// threads; sequential sampling must equal `sample_counts` from an
    /// equally seeded RNG and leave that RNG where `sample_counts` leaves
    /// it (one draw per shot).
    #[test]
    fn dense_sampler_matches_the_cdf_draw_for_draw(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let basis = 1usize << circuit.num_qubits();
        for block_bits in [0usize, 1, 2, 3] {
            let config = ExecConfig::sequential().with_block_bits(block_bits);
            let state = SoaStatevector::simulate(&circuit, &config).unwrap();
            let dist = CumulativeDistribution::from_amplitudes(&state.to_amplitudes());
            for shots in [1, basis - 1, basis, 3 * basis + 1] {
                for shard in [1usize, 7, 4096] {
                    for threads in [1usize, 4] {
                        let sharded = config.with_threads(threads).with_shot_shard_size(shard);
                        let expected = nonzero(&dist.sample_sharded(seed, shots, threads, shard));
                        prop_assert_eq!(
                            state.sample_sharded(seed, shots, &sharded),
                            expected,
                            "block_bits={} shots={} shard={} threads={}",
                            block_bits, shots, shard, threads
                        );
                    }
                }
                let mut walked = StdRng::seed_from_u64(seed);
                let mut reference = StdRng::seed_from_u64(seed);
                prop_assert_eq!(
                    state.sample_with(&mut walked, shots),
                    nonzero(&dist.sample_counts(&mut reference, shots)),
                    "block_bits={} shots={}", block_bits, shots
                );
                prop_assert_eq!(walked.gen::<u64>(), reference.gen::<u64>());
            }
        }
    }
}
