//! Differential property tests: each execution configuration a caller can
//! pick — fused, unfused, multi-threaded — against the naive
//! [`DenseReference`] oracle.
//!
//! Random 2–8 qubit Clifford+T circuits (with Toffoli, MCX, MCZ, SWAP and
//! π/4-step rotations mixed in) are executed through
//! [`SoaStatevector::simulate`](PreparedState::simulate) and through the
//! oracle and compared amplitude-for-amplitude. The two implementations
//! share no code — the simulation goes through the
//! `ExecPlan` lowering and block sweeps, the reference through
//! out-of-place column accumulation — so agreement on every random circuit
//! is strong evidence that neither is wrong.
//!
//! `tests/plan_differential.rs` holds the interpreter's own suites: wider
//! registers, tiny cache blocks, and bit-identity across block sizes,
//! thread counts and the noisy replay.

use proptest::prelude::*;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::reference::DenseReference;
use qdaflow_quantum::{PreparedState, QuantumCircuit, QuantumGate, SoaStatevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Amplitude agreement tolerance: far above f64 round-off even for long
/// fused chains, far below any real defect.
const TOLERANCE: f64 = 1e-10;

/// Builds a random circuit over 2..=8 qubits from a seed. Seed-based
/// construction (instead of a structured strategy) lets one generator drive
/// both the qubit count and the gate mix.
fn random_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(2..9usize);
    let num_gates = rng.gen_range(1..41usize);
    let mut circuit = QuantumCircuit::new(num_qubits);
    for _ in 0..num_gates {
        let qubit = rng.gen_range(0..num_qubits);
        let gate = match rng.gen_range(0..15u32) {
            0 => QuantumGate::H(qubit),
            1 => QuantumGate::X(qubit),
            2 => QuantumGate::Y(qubit),
            3 => QuantumGate::Z(qubit),
            4 => QuantumGate::S(qubit),
            5 => QuantumGate::Sdg(qubit),
            6 => QuantumGate::T(qubit),
            7 => QuantumGate::Tdg(qubit),
            8 => QuantumGate::Rz {
                qubit,
                angle: f64::from(rng.gen_range(0..16u32)) * std::f64::consts::FRAC_PI_4,
            },
            9 => {
                let target = distinct(&mut rng, num_qubits, &[qubit]);
                QuantumGate::Cx {
                    control: qubit,
                    target,
                }
            }
            10 => {
                let b = distinct(&mut rng, num_qubits, &[qubit]);
                QuantumGate::Cz { a: qubit, b }
            }
            11 => {
                let b = distinct(&mut rng, num_qubits, &[qubit]);
                QuantumGate::Swap { a: qubit, b }
            }
            12 if num_qubits >= 3 => {
                let control_b = distinct(&mut rng, num_qubits, &[qubit]);
                let target = distinct(&mut rng, num_qubits, &[qubit, control_b]);
                QuantumGate::Ccx {
                    control_a: qubit,
                    control_b,
                    target,
                }
            }
            13 if num_qubits >= 4 => {
                let c2 = distinct(&mut rng, num_qubits, &[qubit]);
                let c3 = distinct(&mut rng, num_qubits, &[qubit, c2]);
                let target = distinct(&mut rng, num_qubits, &[qubit, c2, c3]);
                QuantumGate::Mcx {
                    controls: vec![qubit, c2, c3],
                    target,
                }
            }
            14 if num_qubits >= 3 => {
                let b = distinct(&mut rng, num_qubits, &[qubit]);
                let c = distinct(&mut rng, num_qubits, &[qubit, b]);
                QuantumGate::Mcz {
                    qubits: vec![qubit, b, c],
                }
            }
            _ => QuantumGate::H(qubit),
        };
        circuit.push(gate).expect("generated gates are in range");
    }
    circuit
}

/// Draws a qubit distinct from the ones already used.
fn distinct(rng: &mut StdRng, num_qubits: usize, used: &[usize]) -> usize {
    loop {
        let candidate = rng.gen_range(0..num_qubits);
        if !used.contains(&candidate) {
            return candidate;
        }
    }
}

fn assert_matches_reference(circuit: &QuantumCircuit, config: &ExecConfig) {
    let reference = DenseReference::from_circuit(circuit).expect("small register");
    let optimized = SoaStatevector::simulate(circuit, config).expect("small register");
    for (index, (a, b)) in optimized
        .to_amplitudes()
        .iter()
        .zip(reference.amplitudes())
        .enumerate()
    {
        assert!(
            a.approx_eq(*b, TOLERANCE),
            "amplitude {index} diverges: optimized {a:?} vs reference {b:?}\ncircuit:\n{circuit}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Suite 1: the fused sequential path is amplitude-exact against the
    /// dense reference oracle.
    #[test]
    fn fused_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        assert_matches_reference(&circuit, &ExecConfig::sequential());
    }

    /// Suite 2: the multi-threaded path is amplitude-exact against the
    /// oracle. Two-amplitude cache blocks put every register of four or
    /// more qubits on the worker pool (it starts at eight blocks).
    #[test]
    fn parallel_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let config = ExecConfig::sequential()
            .with_threads(4)
            .with_block_bits(1);
        assert_matches_reference(&circuit, &config);
    }

    /// Suite 3: the unfused lowering (one plan record per gate) agrees with
    /// the oracle too, isolating fusion-pass bugs from kernel bugs.
    #[test]
    fn lowered_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        assert_matches_reference(&circuit, &ExecConfig::baseline());
    }

    /// Suite 4: unitarity — the fused parallel execution preserves the norm
    /// on every random circuit, and so does the reference.
    #[test]
    fn fused_execution_preserves_norm(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let config = ExecConfig::default()
            .with_threads(4)
            .with_block_bits(1);
        let state = SoaStatevector::simulate(&circuit, &config).expect("small register");
        prop_assert!((state.norm() - 1.0).abs() < TOLERANCE);
        let reference = DenseReference::from_circuit(&circuit).expect("small register");
        prop_assert!((reference.norm() - 1.0).abs() < TOLERANCE);
    }
}
