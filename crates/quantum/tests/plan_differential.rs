//! Differential property tests for the `ExecPlan` SoA interpreter, the
//! workspace's one dense execution path.
//!
//! Random 2–10 qubit circuits over every gate kind of the IR are executed
//! through the plan interpreter and checked:
//!
//! * against the naive [`DenseReference`] oracle, amplitude-for-amplitude at
//!   1e-10, in the production configuration (suite 1) and with tiny cache
//!   blocks on the worker pool, which exercises the cross-block pair/quad
//!   dispatch paths on small registers (suite 2);
//! * against itself, **bit for bit**, with fusion off: the amplitudes are
//!   identical at every cache-block size (suite 3) and at 1, 2, 4 and 8
//!   threads, and so are the sampled histograms (suite 4) — the
//!   reproducibility contract the batch subsystem and the sparse and
//!   stabilizer histogram-identity suites rely on;
//! * the noisy simulator's plan replay: identical RNG streams and
//!   bit-identical histograms at every cache-block size (suite 5);
//! * circuits that open with a random single-qubit layer, which a fused
//!   simulation writes as its initial product state: within 1e-10 of the
//!   oracle at several block sizes and thread counts, and with fusion off
//!   bit for bit the per-gate plan applied to the zero state (suite 6);
//! * circuits built from two-qubit blocks, the shape the plan's two-qubit
//!   fusion turns into 4×4 records, half of them real (the kernels'
//!   real-coefficient path): within 1e-10 of the oracle at several block
//!   sizes and thread counts, with fewer records than the unfused plan
//!   (suite 7);
//! * random circuits of one- and two-qubit gates, dense ones mostly, which
//!   drive every rule of the plan's fusion walk (the commute rule, the
//!   block merge and each qubit's one-qubit runs): the fused plan from the
//!   zero state and a job's simulation within 1e-10 of the oracle at
//!   several block sizes and thread counts (suite 8).
//!
//! `tests/differential.rs` checks the fused, unfused and multi-threaded
//! configurations against the oracle on 2–8 qubits, with the norm.

use proptest::prelude::*;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::noise::{NoiseModel, NoisySimulator};
use qdaflow_quantum::reference::DenseReference;
use qdaflow_quantum::sampling::CumulativeDistribution;
use qdaflow_quantum::{ExecPlan, PreparedState, QuantumCircuit, QuantumGate, SoaStatevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Amplitude agreement tolerance against the dense reference.
const TOLERANCE: f64 = 1e-10;

/// Builds a random circuit over 2..=10 qubits from a seed, covering every
/// gate kind of the Clifford+T IR (same generator shape as
/// `tests/differential.rs`, two qubits wider).
fn random_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(2..11usize);
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

/// `random_circuit(seed)` behind a random single-qubit layer: each qubit
/// gets nothing, `H`, `X`, `Y`, `S`, `T` or `Rz(kπ/4)`, so some qubits stay
/// `|0⟩` and some high-qubit factors zero whole blocks.
fn layered_circuit(seed: u64) -> QuantumCircuit {
    let body = random_circuit(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E);
    let mut circuit = QuantumCircuit::new(body.num_qubits());
    for qubit in 0..body.num_qubits() {
        let gate = match rng.gen_range(0..7u32) {
            0 => continue,
            1 => QuantumGate::H(qubit),
            2 => QuantumGate::X(qubit),
            3 => QuantumGate::Y(qubit),
            4 => QuantumGate::S(qubit),
            5 => QuantumGate::T(qubit),
            _ => QuantumGate::Rz {
                qubit,
                angle: f64::from(rng.gen_range(0..8u32)) * std::f64::consts::FRAC_PI_4,
            },
        };
        circuit.push(gate).expect("layer gates are in range");
    }
    for gate in &body {
        circuit.push(gate.clone()).expect("body gates are in range");
    }
    circuit
}

/// Random circuits of two-qubit blocks over 4..=12 qubits: each block is
/// 3–8 gates on one random pair (a, b), and a `CX` or `CCX` stands between
/// consecutive blocks. A block opens with `CZ(a, b)` and one dense gate on
/// each of its qubits, the hidden shift's pair shape, and the first block's
/// higher qubit is 3 or above, where the plan builds 4×4s. Half of the
/// blocks are real: `H` or `X` opens them and `H`, `X`, `Z` and `CZ` follow,
/// so their 4×4s take the kernels' real-coefficient path. The others open
/// with `H`, `X` or `Y` and draw from `H`, `X`, `Y`, `S`, `T`, `Rz` and
/// `CZ`. Nothing outside the first block can come between its opening
/// three gates without commuting past them, so the plan either merges some
/// gates or fuses that block into a 4×4: it always has fewer records than
/// gates.
fn two_qubit_block_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(4..13usize);
    let mut circuit = QuantumCircuit::new(num_qubits);
    for block in 0..rng.gen_range(1..7usize) {
        if block > 0 {
            let control = rng.gen_range(0..num_qubits);
            let target = distinct(&mut rng, num_qubits, &[control]);
            let gate = if rng.gen::<bool>() {
                QuantumGate::Cx { control, target }
            } else {
                let control_b = distinct(&mut rng, num_qubits, &[control, target]);
                QuantumGate::Ccx {
                    control_a: control,
                    control_b,
                    target,
                }
            };
            circuit.push(gate).expect("generated gates are in range");
        }
        let a = if block == 0 {
            rng.gen_range(3..num_qubits)
        } else {
            rng.gen_range(0..num_qubits)
        };
        let b = distinct(&mut rng, num_qubits, &[a]);
        let real = rng.gen::<bool>();
        // A real block opens with `H` or `X`, any other with `H`, `X` or `Y`.
        let opening_kinds = if real { 2 } else { 3u32 };
        let dense = |rng: &mut StdRng, qubit| match rng.gen_range(0..opening_kinds) {
            0 => QuantumGate::H(qubit),
            1 => QuantumGate::X(qubit),
            _ => QuantumGate::Y(qubit),
        };
        let opening = [
            QuantumGate::Cz { a, b },
            dense(&mut rng, a),
            dense(&mut rng, b),
        ];
        for gate in opening {
            circuit.push(gate).expect("generated gates are in range");
        }
        for _ in 0..rng.gen_range(0..6usize) {
            let qubit = if rng.gen::<bool>() { a } else { b };
            let gate = if real {
                match rng.gen_range(0..4u32) {
                    0 => QuantumGate::H(qubit),
                    1 => QuantumGate::X(qubit),
                    2 => QuantumGate::Z(qubit),
                    _ => QuantumGate::Cz { a, b },
                }
            } else {
                match rng.gen_range(0..7u32) {
                    0 => QuantumGate::H(qubit),
                    1 => QuantumGate::X(qubit),
                    2 => QuantumGate::Y(qubit),
                    3 => QuantumGate::S(qubit),
                    4 => QuantumGate::T(qubit),
                    5 => QuantumGate::Rz {
                        qubit,
                        angle: rng.gen::<f64>() * std::f64::consts::TAU,
                    },
                    _ => QuantumGate::Cz { a, b },
                }
            };
            circuit.push(gate).expect("generated gates are in range");
        }
    }
    circuit
}

/// Random circuits over 3..=8 qubits of 10–60 gates, drawn by weight out of
/// 12: `H` 2; `T`, `S`, `X`, `Y` and `Rz` 1 each; `CZ` 2, `CX` 2 and `Swap`
/// 1, on random qubits. Dense one-qubit gates next to two-qubit ones make
/// one-qubit blocks that a later `CZ` merges, phases that pass a `CX` on
/// their control but not on its target, and runs that compose to the
/// identity.
fn fusion_walk_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(3..9usize);
    let mut circuit = QuantumCircuit::new(num_qubits);
    for _ in 0..rng.gen_range(10..61usize) {
        let qubit = rng.gen_range(0..num_qubits);
        let other = distinct(&mut rng, num_qubits, &[qubit]);
        let gate = match rng.gen_range(0..12u32) {
            0 | 1 => QuantumGate::H(qubit),
            2 => QuantumGate::T(qubit),
            3 => QuantumGate::S(qubit),
            4 => QuantumGate::X(qubit),
            5 => QuantumGate::Y(qubit),
            6 => QuantumGate::Rz {
                qubit,
                angle: rng.gen::<f64>() * std::f64::consts::TAU,
            },
            7 | 8 => QuantumGate::Cz { a: qubit, b: other },
            9 | 10 => QuantumGate::Cx {
                control: qubit,
                target: other,
            },
            _ => QuantumGate::Swap { a: qubit, b: other },
        };
        circuit.push(gate).expect("generated gates are in range");
    }
    circuit
}

/// The bit patterns of a state's amplitudes, for bit-identity checks that
/// `==` on `f64` would blur (it equates `0.0` and `-0.0`).
fn amplitude_bits(state: &SoaStatevector) -> Vec<(u64, u64)> {
    state
        .to_amplitudes()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
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
            "amplitude {index} diverges: plan {a:?} vs reference {b:?}\ncircuit:\n{circuit}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Suite 1: the plan interpreter in its production configuration
    /// (fusion, clustering and 4×4 batching on, auto block size — one block
    /// for these registers) is amplitude-exact against the dense reference
    /// oracle.
    #[test]
    fn plan_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        assert_matches_reference(&circuit, &ExecConfig::sequential());
    }

    /// Suite 2: tiny cache blocks (2 and 4 amplitudes) force the
    /// cross-block pair/quad/permute dispatch for most gates, and four
    /// threads route the blocks over the worker pool's channels whenever
    /// the state has at least eight blocks — amplitude-exact against the
    /// oracle.
    #[test]
    fn blocked_pooled_plan_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        for block_bits in [1usize, 2] {
            let config = ExecConfig::sequential()
                .with_block_bits(block_bits)
                .with_threads(4);
            assert_matches_reference(&circuit, &config);
        }
    }

    /// Suite 3: with fusion off the plan performs the same per-element
    /// arithmetic whatever the block partition — the amplitudes at 2-, 4-
    /// and 8-amplitude blocks agree bit for bit with the single-block run.
    #[test]
    fn unfused_plan_is_block_size_invariant(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let single_block = SoaStatevector::simulate(&circuit, &ExecConfig::baseline())
            .expect("small register");
        for block_bits in [1usize, 2, 3] {
            let blocked = SoaStatevector::simulate(
                &circuit,
                &ExecConfig::baseline().with_block_bits(block_bits),
            ).expect("small register");
            prop_assert_eq!(
                blocked.to_amplitudes(),
                single_block.to_amplitudes(),
                "block_bits {} diverges from the single-block run", block_bits
            );
        }
    }

    /// Suite 4: thread-count invariance. With fusion off the plan produces
    /// bit-identical amplitudes at 2, 4 and 8 threads as on one thread (on
    /// the worker pool whenever the state has at least eight blocks), and
    /// the sampled histograms match exactly for the same seed.
    #[test]
    fn plan_histograms_are_bit_identical_across_threads(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        for block_bits in [1usize, 3] {
            let config = ExecConfig::baseline().with_block_bits(block_bits);
            let sequential = SoaStatevector::simulate(&circuit, &config)
                .expect("small register")
                .to_amplitudes();
            let mut sequential_rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
            let expected = CumulativeDistribution::from_amplitudes(&sequential)
                .sample_counts(&mut sequential_rng, 512);
            for threads in [2usize, 4, 8] {
                let threaded = SoaStatevector::simulate(&circuit, &config.with_threads(threads))
                    .expect("small register")
                    .to_amplitudes();
                prop_assert_eq!(
                    &threaded,
                    &sequential,
                    "{} threads (block_bits {}) diverge from one thread", threads, block_bits
                );
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
                let histogram = CumulativeDistribution::from_amplitudes(&threaded)
                    .sample_counts(&mut rng, 512);
                prop_assert_eq!(
                    &histogram,
                    &expected,
                    "{} threads produce a different histogram", threads
                );
            }
        }
    }

    /// Suite 6: a circuit behind a random single-qubit layer. With fusion
    /// on, the simulation writes that layer as its initial product state
    /// and stays within 1e-10 of the oracle at the auto block size and at
    /// 2- and 4-amplitude blocks, on one thread and on four. With fusion
    /// off, `SoaStatevector::simulate` is bit for bit `ExecPlan::compile`
    /// applied to `zero_state`: it takes no shortcut.
    #[test]
    fn product_layer_simulation_matches_dense_reference(seed in any::<u64>()) {
        let circuit = layered_circuit(seed);
        for block_bits in [0usize, 1, 2] {
            for threads in [1usize, 4] {
                let config = ExecConfig::sequential()
                    .with_block_bits(block_bits)
                    .with_threads(threads);
                assert_matches_reference(&circuit, &config);
            }
            let baseline = ExecConfig::baseline().with_block_bits(block_bits);
            let simulated = SoaStatevector::simulate(&circuit, &baseline)
                .expect("small register");
            let plan = ExecPlan::compile(&circuit, &baseline);
            let mut expected = SoaStatevector::zero_state(circuit.num_qubits(), plan.block_bits());
            plan.apply_soa(&mut expected, &baseline);
            prop_assert_eq!(
                amplitude_bits(&simulated),
                amplitude_bits(&expected),
                "fusion off (block_bits {}) is not the per-gate plan on the zero state",
                block_bits
            );
        }
    }

    /// Suite 7: circuits of two-qubit blocks, which the plan's two-qubit
    /// fusion lowers to 4×4 records (in-block at every low stride, across
    /// block pairs and across block quads at 8- and 16-amplitude blocks),
    /// half of the blocks real, so both the complex and the
    /// real-coefficient kernels run.
    /// The fused plan, applied to the zero state and as a job simulates it
    /// (product-state start), stays within 1e-10 of the oracle at the auto
    /// block size and at 8- and 16-amplitude blocks, on one thread and on
    /// four, and has fewer records than the unfused plan.
    #[test]
    fn two_qubit_fusion_matches_dense_reference(seed in any::<u64>()) {
        let circuit = two_qubit_block_circuit(seed);
        let reference = DenseReference::from_circuit(&circuit).expect("small register");
        let unfused = ExecPlan::compile(&circuit, &ExecConfig::baseline()).num_records();
        for block_bits in [0usize, 3, 4] {
            for threads in [1usize, 4] {
                let config = ExecConfig::sequential()
                    .with_block_bits(block_bits)
                    .with_threads(threads);
                let plan = ExecPlan::compile(&circuit, &config);
                prop_assert!(
                    plan.num_records() < unfused,
                    "fused plan has {} records, unfused {}\ncircuit:\n{}",
                    plan.num_records(), unfused, circuit
                );
                let mut state = SoaStatevector::zero_state(circuit.num_qubits(), plan.block_bits());
                plan.apply_soa(&mut state, &config);
                for (index, b) in reference.amplitudes().iter().enumerate() {
                    let a = state.amplitude(index);
                    prop_assert!(
                        a.approx_eq(*b, TOLERANCE),
                        "block_bits {} threads {}: amplitude {} diverges: plan {:?} vs reference {:?}\ncircuit:\n{}",
                        block_bits, threads, index, a, b, circuit
                    );
                }
                assert_matches_reference(&circuit, &config);
            }
        }
    }

    /// Suite 8: the fusion walk on random one- and two-qubit circuits. The
    /// fused plan applied to the zero state, and the job path
    /// (`SoaStatevector::simulate`, product-state start), stay within 1e-10
    /// of the oracle at the auto block size and at 4-amplitude blocks, on
    /// one thread and on four.
    #[test]
    fn fusion_walk_matches_dense_reference(seed in any::<u64>()) {
        let circuit = fusion_walk_circuit(seed);
        let reference = DenseReference::from_circuit(&circuit).expect("small register");
        for block_bits in [0usize, 2] {
            for threads in [1usize, 4] {
                let config = ExecConfig::sequential()
                    .with_block_bits(block_bits)
                    .with_threads(threads);
                let plan = ExecPlan::compile(&circuit, &config);
                let mut state = SoaStatevector::zero_state(circuit.num_qubits(), plan.block_bits());
                plan.apply_soa(&mut state, &config);
                let simulated = SoaStatevector::simulate(&circuit, &config).expect("small register");
                for (index, b) in reference.amplitudes().iter().enumerate() {
                    for (path, a) in [("plan", state.amplitude(index)), ("job", simulated.amplitude(index))] {
                        prop_assert!(
                            a.approx_eq(*b, TOLERANCE),
                            "block_bits {} threads {}: {} amplitude {} diverges: {:?} vs reference {:?}\ncircuit:\n{}",
                            block_bits, threads, path, index, a, b, circuit
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    // Noisy shots are expensive; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Suite 5: the noisy simulator's plan replay draws the identical RNG
    /// stream at every cache-block size — histograms are bit-identical to
    /// the single-block replay's.
    #[test]
    fn noisy_replay_is_block_size_invariant(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let model = NoiseModel::ibm_qx_2017();
        let single_block = NoisySimulator::with_config(model, ExecConfig::sequential())
            .run(&circuit, 64, &mut StdRng::seed_from_u64(seed))
            .expect("small register");
        for block_bits in [1usize, 2, 3] {
            let blocked = NoisySimulator::with_config(
                model,
                ExecConfig::sequential().with_block_bits(block_bits),
            )
            .run(&circuit, 64, &mut StdRng::seed_from_u64(seed))
            .expect("small register");
            prop_assert_eq!(
                &blocked,
                &single_block,
                "noisy replay (block_bits {}) diverges", block_bits
            );
        }
    }
}
