//! The input IR of the dense execution plan, and its configuration.
//!
//! [`FusedProgram::lower`] turns a circuit into a [`FusedProgram`], one
//! [`FusedOp`] kernel operation per gate. The
//! [`ExecPlan`](crate::plan::ExecPlan) then lowers the program into flat
//! dispatch records and executes it; with [`ExecConfig::fusion`] on, its
//! one fusion walk composes ops into 2×2, 4×4 and phase records (see the
//! [`plan`](crate::plan) module docs). This module runs nothing itself.
//!
//! The [`ExecConfig`] knob selects the thread count, the fusion toggle, the
//! sampler shard size and the plan's cache-block size. It is threaded
//! through every execution path of the workspace: the
//! [`Statevector`](crate::statevector::Statevector) simulator, the
//! Monte-Carlo noisy simulator, the sampling backends, the engine crate's
//! `MainEngine` and the RevKit-style shell's `exec` command.
//!
//! Correctness of the fused plan is established differentially: the
//! `tests/differential.rs` and `tests/plan_differential.rs` property suites
//! compare fused and unfused plans amplitude-for-amplitude against the
//! deliberately naive
//! [`DenseReference`](crate::reference::DenseReference) oracle.

use crate::circuit::QuantumCircuit;
use crate::complex::Complex;
use crate::gate::QuantumGate;
use std::thread;

/// Hard cap on the configured thread count; beyond this the memory-bound
/// amplitude sweeps stop scaling.
pub(crate) const MAX_THREADS: usize = 16;

/// How the execution layer runs a circuit: thread count, fusion toggle,
/// sampler shard size and cache-block size.
///
/// The default configuration enables fusion and uses one thread per
/// available CPU (capped at 16). The plan interpreter starts its worker
/// pool only for states of at least eight cache blocks (2^16 amplitudes at
/// the default block size); below that, thread startup would dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads; `1` (or `0`) executes sequentially. It
    /// sizes the plan kernel's worker pool and the sparse engine's sampling
    /// workers; dense and stabilizer sampling are sequential and do not use
    /// it.
    pub threads: usize,
    /// Whether circuits are optimized before execution: the plan
    /// lowering's fusion walk (dense ops and phases grouped into blocks of
    /// at most two qubits; each qubit's run of one-qubit ops becomes one
    /// 2×2 or phase record, and a block one 4×4 record where that saves
    /// kernel time), commuting-op clustering and 4×4 batching of global
    /// ops. A simulation from `|0…0⟩`
    /// ([`PreparedState::simulate`](crate::backend::PreparedState::simulate))
    /// also writes the program's leading single-qubit layer as its initial
    /// product state ([`FusedProgram::split_product_layer`]) instead of
    /// applying it as records. Exact up to floating-point rounding
    /// (reordering only ever swaps commuting ops, merging adds one rounding
    /// per composed matrix). Off, the plan holds one dispatch record per
    /// gate and runs on the zero state, and its amplitudes are bit-identical
    /// at every block size and thread count.
    pub fusion: bool,
    /// Shots per shard of the sharded measurement sampler (see
    /// [`crate::sampling`]). Part of the reproducibility contract: together
    /// with the seed and the shot count it fully determines the sharded
    /// histogram, independent of the thread count.
    pub shot_shard_size: usize,
    /// log2 of the amplitudes per cache block of the plan interpreter;
    /// `0` selects [`DEFAULT_BLOCK_BITS`](crate::plan::DEFAULT_BLOCK_BITS).
    /// Clamped to the register size.
    pub block_bits: usize,
}

impl ExecConfig {
    /// Fusion on, one worker per available CPU (capped at 16).
    pub fn auto() -> Self {
        Self {
            threads: thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(MAX_THREADS),
            fusion: true,
            shot_shard_size: crate::sampling::DEFAULT_SHOT_SHARD_SIZE,
            block_bits: 0,
        }
    }

    /// Fusion on, strictly single-threaded.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            ..Self::auto()
        }
    }

    /// The unoptimized behaviour: one plan record per gate, single-threaded
    /// — the setting under which the dense, sparse and stabilizer engines
    /// produce bit-identical amplitudes.
    pub fn baseline() -> Self {
        Self {
            threads: 1,
            fusion: false,
            ..Self::auto()
        }
    }

    /// Replaces the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables fusion (see [`ExecConfig::fusion`]).
    #[must_use]
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Replaces the shard size of the sharded measurement sampler. Values
    /// below 1 are clamped to 1 at sampling time.
    #[must_use]
    pub fn with_shot_shard_size(mut self, shot_shard_size: usize) -> Self {
        self.shot_shard_size = shot_shard_size;
        self
    }

    /// Replaces the plan interpreter's cache-block size (log2 amplitudes;
    /// `0` = auto).
    #[must_use]
    pub fn with_block_bits(mut self, block_bits: usize) -> Self {
        self.block_bits = block_bits;
        self
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// One operation of a [`FusedProgram`], the input instruction set of the
/// execution plan. Gates that act identically on the amplitudes lower to the
/// same op (e.g. Z, CZ and MCZ are all a [`FusedOp::Phase`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// An arbitrary 2×2 unitary on one qubit: a dense single-qubit gate.
    Dense {
        /// Target qubit.
        qubit: usize,
        /// The 2×2 matrix.
        matrix: [[Complex; 2]; 2],
    },
    /// Multiplies `phase` onto every amplitude whose index has all bits of
    /// `mask` set: a diagonal gate.
    Phase {
        /// Basis-state mask selecting the affected subspace.
        mask: usize,
        /// The phase factor.
        phase: Complex,
    },
    /// Multiple-controlled X: swaps amplitudes across `target` where all
    /// bits of `control_mask` are set.
    Mcx {
        /// Mask of control-qubit bits (empty mask = plain X).
        control_mask: usize,
        /// Target qubit.
        target: usize,
    },
    /// Exchange of two qubits.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
}

impl FusedOp {
    /// Lowers one gate to its kernel operation.
    pub fn from_gate(gate: &QuantumGate) -> Self {
        match gate {
            QuantumGate::Cx { control, target } => Self::Mcx {
                control_mask: 1 << control,
                target: *target,
            },
            QuantumGate::Ccx {
                control_a,
                control_b,
                target,
            } => Self::Mcx {
                control_mask: (1 << control_a) | (1 << control_b),
                target: *target,
            },
            QuantumGate::Mcx { controls, target } => Self::Mcx {
                control_mask: controls.iter().map(|&q| 1usize << q).sum(),
                target: *target,
            },
            QuantumGate::Cz { a, b } => Self::Phase {
                mask: (1 << a) | (1 << b),
                phase: Complex::real(-1.0),
            },
            QuantumGate::Mcz { qubits } => Self::Phase {
                mask: qubits.iter().map(|&q| 1usize << q).sum(),
                phase: Complex::real(-1.0),
            },
            QuantumGate::Swap { a, b } => Self::Swap { a: *a, b: *b },
            single => {
                let qubit = single.qubits()[0];
                let matrix = single
                    .single_qubit_matrix()
                    .expect("all remaining gates are single-qubit");
                if single.is_diagonal() {
                    Self::Phase {
                        mask: 1 << qubit,
                        phase: matrix[1][1],
                    }
                } else {
                    Self::Dense { qubit, matrix }
                }
            }
        }
    }

    /// Mask of the qubits this op reads or writes.
    fn support(&self) -> usize {
        match self {
            Self::Dense { qubit, .. } => 1 << qubit,
            Self::Phase { mask, .. } => *mask,
            Self::Mcx {
                control_mask,
                target,
            } => control_mask | (1 << target),
            Self::Swap { a, b } => (1 << a) | (1 << b),
        }
    }

    /// The qubit of an op that keeps a product state a product state by
    /// acting on one factor: a dense gate, a one-qubit phase or a
    /// control-free X.
    fn single_qubit(&self) -> Option<usize> {
        match self {
            Self::Dense { qubit, .. } => Some(*qubit),
            Self::Phase { mask, .. } if mask.count_ones() == 1 => {
                Some(mask.trailing_zeros() as usize)
            }
            Self::Mcx {
                control_mask: 0,
                target,
            } => Some(*target),
            _ => None,
        }
    }

    /// Applies a [`FusedOp::single_qubit`] op to its qubit's factor, the
    /// qubit's amplitudes of `|0⟩` and `|1⟩`.
    fn apply_to_factor(&self, factor: &mut [Complex; 2]) {
        let [zero, one] = factor;
        match self {
            Self::Dense { matrix, .. } => {
                let (a, b) = (*zero, *one);
                *zero = matrix[0][0] * a + matrix[0][1] * b;
                *one = matrix[1][0] * a + matrix[1][1] * b;
            }
            Self::Phase { phase, .. } => *one *= *phase,
            Self::Mcx { .. } => std::mem::swap(zero, one),
            Self::Swap { .. } => unreachable!("a swap acts on two qubits"),
        }
    }
}

/// A circuit lowered to kernel operations: an ordered list of [`FusedOp`]s,
/// one per gate of the source circuit.
/// [`ExecPlan::from_program`](crate::plan::ExecPlan::from_program) compiles
/// it into dispatch records, fusing them under [`ExecConfig::fusion`].
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    num_qubits: usize,
    ops: Vec<FusedOp>,
}

impl FusedProgram {
    /// Lowers a circuit one gate per op. Fusion is the plan's work: with
    /// fusion off, its records reproduce the per-gate kernel dispatch
    /// exactly.
    pub fn lower(circuit: &QuantumCircuit) -> Self {
        Self {
            num_qubits: circuit.num_qubits(),
            ops: circuit.iter().map(FusedOp::from_gate).collect(),
        }
    }

    /// Number of qubits of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Splits the program's leading single-qubit layer off as the product
    /// state it makes of `|0…0⟩`, and returns it with the ops that remain.
    ///
    /// One walk over the ops tracks the qubits the kept ops touch. An op on
    /// one qubit that no kept op has touched yet — a [`FusedOp::Dense`], a
    /// one-qubit [`FusedOp::Phase`] or a control-free [`FusedOp::Mcx`] — is
    /// applied to that qubit's factor, which starts at `|0⟩`. Every other op
    /// is kept in order and marks its qubits touched. No kept op touches an
    /// absorbed qubit before the ops absorbed on it, so those ops commute
    /// with every kept op ahead of them, and running the kept ops on the
    /// product state is exact.
    pub fn split_product_layer(self) -> (ProductLayer, Self) {
        let mut factors = vec![[Complex::ONE, Complex::ZERO]; self.num_qubits];
        let mut absorbed = 0usize;
        let mut touched = 0usize;
        let mut kept = Vec::with_capacity(self.ops.len());
        for op in self.ops {
            match op.single_qubit() {
                Some(qubit) if touched & (1 << qubit) == 0 => {
                    op.apply_to_factor(&mut factors[qubit]);
                    absorbed |= 1 << qubit;
                }
                _ => {
                    touched |= op.support();
                    kept.push(op);
                }
            }
        }
        let layer = ProductLayer { factors, absorbed };
        let rest = Self {
            num_qubits: self.num_qubits,
            ops: kept,
        };
        (layer, rest)
    }
}

/// The leading single-qubit layer of a [`FusedProgram`] as the product state
/// it makes of `|0…0⟩` (see [`FusedProgram::split_product_layer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductLayer {
    factors: Vec<[Complex; 2]>,
    absorbed: usize,
}

impl ProductLayer {
    /// Per qubit, its factor of the product state: the amplitudes of `|0⟩`
    /// and `|1⟩` the absorbed ops make of `|0⟩`; `[1, 0]` on qubits nothing
    /// was absorbed on.
    pub fn factors(&self) -> &[[Complex; 2]] {
        &self.factors
    }

    /// Number of qubits at least one op was absorbed on.
    pub fn num_absorbed(&self) -> usize {
        self.absorbed.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{self, apply_gate};
    use crate::plan::{ExecPlan, SoaStatevector};
    use crate::statevector::Statevector;

    fn uniform_state(num_qubits: usize) -> Vec<Complex> {
        let mut amplitudes = vec![Complex::ZERO; 1 << num_qubits];
        amplitudes[0] = Complex::ONE;
        for qubit in 0..num_qubits {
            apply_gate(&mut amplitudes, &QuantumGate::H(qubit));
        }
        amplitudes
    }

    fn sample_circuit() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(4);
        for gate in [
            QuantumGate::H(0),
            QuantumGate::T(1),
            QuantumGate::T(1),
            QuantumGate::X(2),
            QuantumGate::Cz { a: 0, b: 3 },
            QuantumGate::H(0),
            QuantumGate::H(0),
            QuantumGate::Cx {
                control: 1,
                target: 2,
            },
            QuantumGate::S(3),
            QuantumGate::Sdg(3),
        ] {
            circuit.push(gate).unwrap();
        }
        circuit
    }

    fn assert_matches_kernel(circuit: &QuantumCircuit, config: &ExecConfig) {
        let mut expected = vec![Complex::ZERO; 1 << circuit.num_qubits()];
        expected[0] = Complex::ONE;
        kernel::apply_circuit(&mut expected, circuit);
        let fused = Statevector::run(circuit, config).unwrap();
        for (index, (a, b)) in fused.amplitudes().iter().zip(&expected).enumerate() {
            assert!(
                a.approx_eq(*b, 1e-12),
                "amplitude {index}: fused {a:?} vs kernel {b:?}"
            );
        }
    }

    /// The record count of the fused plan of `gates`, after checking the
    /// plan's amplitudes against the kernel.
    fn fused_records(num_qubits: usize, gates: impl IntoIterator<Item = QuantumGate>) -> usize {
        let mut circuit = QuantumCircuit::new(num_qubits);
        for gate in gates {
            circuit.push(gate).unwrap();
        }
        let config = ExecConfig::sequential();
        assert_matches_kernel(&circuit, &config);
        ExecPlan::compile(&circuit, &config).num_records()
    }

    #[test]
    fn adjacent_diagonal_gates_coalesce() {
        let gates = [
            QuantumGate::T(0),
            QuantumGate::T(0),
            QuantumGate::Z(1),
            QuantumGate::S(1),
        ];
        assert_eq!(fused_records(2, gates), 2);
    }

    #[test]
    fn commuting_diagonals_merge_across_each_other() {
        // T(0) · CZ(0,1) · T(0): the two T gates merge across the CZ, and
        // across a CX on their control qubit, but not across a CX on their
        // target.
        let cz = QuantumGate::Cz { a: 0, b: 1 };
        assert_eq!(
            fused_records(2, [QuantumGate::T(0), cz, QuantumGate::T(0)]),
            2
        );
        let cx = QuantumGate::Cx {
            control: 0,
            target: 1,
        };
        let on_control = [QuantumGate::T(0), cx.clone(), QuantumGate::T(0)];
        assert_eq!(fused_records(2, on_control), 2);
        let on_target = [QuantumGate::T(1), cx, QuantumGate::T(1)];
        assert_eq!(fused_records(2, on_target), 3);
    }

    #[test]
    fn inverse_pairs_cancel_entirely() {
        let gates = [
            QuantumGate::H(0),
            QuantumGate::H(0),
            QuantumGate::S(1),
            QuantumGate::Sdg(1),
        ];
        assert_eq!(fused_records(2, gates), 0);
    }

    #[test]
    fn dense_merges_absorb_single_qubit_diagonals() {
        // H · S · H on one qubit fuses to a single dense op.
        let gates = [QuantumGate::H(0), QuantumGate::S(0), QuantumGate::H(0)];
        assert_eq!(fused_records(1, gates), 1);
    }

    #[test]
    fn leading_single_qubit_layer_splits_off_as_factors() {
        // H(0) and T(1) come before the CX that first touches their qubits,
        // S(2) acts on a qubit nothing else touches, and the second H(0)
        // follows the CX: it stays, with the CX, in the program.
        let mut circuit = QuantumCircuit::new(4);
        let cx = QuantumGate::Cx {
            control: 0,
            target: 1,
        };
        for gate in [
            QuantumGate::H(0),
            QuantumGate::T(1),
            cx.clone(),
            QuantumGate::H(0),
            QuantumGate::S(2),
        ] {
            circuit.push(gate).unwrap();
        }
        let (layer, rest) = FusedProgram::lower(&circuit).split_product_layer();
        assert_eq!(
            rest.ops(),
            [
                FusedOp::from_gate(&cx),
                FusedOp::from_gate(&QuantumGate::H(0))
            ]
        );
        assert_eq!(rest.num_qubits(), 4);
        let on_zero = |gate: QuantumGate| {
            let matrix = gate.single_qubit_matrix().unwrap();
            [matrix[0][0], matrix[1][0]]
        };
        assert_eq!(
            layer.factors(),
            [
                on_zero(QuantumGate::H(0)),
                on_zero(QuantumGate::T(1)),
                on_zero(QuantumGate::S(2)),
                [Complex::ONE, Complex::ZERO],
            ]
        );
        assert_eq!(layer.num_absorbed(), 3);
    }

    #[test]
    fn fused_execution_matches_the_kernel() {
        assert_matches_kernel(&sample_circuit(), &ExecConfig::sequential());
    }

    #[test]
    fn lowered_execution_matches_the_kernel() {
        assert_matches_kernel(&sample_circuit(), &ExecConfig::baseline());
    }

    #[test]
    fn threaded_execution_matches_the_kernel() {
        // One-amplitude-pair cache blocks give the 4-qubit register eight
        // blocks, enough to start the worker pool.
        let config = ExecConfig::auto().with_threads(3).with_block_bits(1);
        assert_matches_kernel(&sample_circuit(), &config);
    }

    /// Applies a single op to a 5-qubit uniform state through a one-record
    /// plan on 2-amplitude blocks (sixteen of them, so `threads > 1` runs
    /// on the worker pool).
    fn apply_single_op(op: &FusedOp, threads: usize) -> Vec<Complex> {
        let program = FusedProgram {
            num_qubits: 5,
            ops: vec![op.clone()],
        };
        let config = ExecConfig::baseline()
            .with_block_bits(1)
            .with_threads(threads);
        let plan = ExecPlan::from_program(&program, &config);
        let mut state = SoaStatevector::from_amplitudes(&uniform_state(5), plan.block_bits());
        plan.apply_soa(&mut state, &config);
        state.to_amplitudes()
    }

    #[test]
    fn threaded_ops_match_sequential_ops() {
        for op in [
            FusedOp::Dense {
                qubit: 0,
                matrix: QuantumGate::H(0).single_qubit_matrix().unwrap(),
            },
            FusedOp::Dense {
                qubit: 4,
                matrix: QuantumGate::Y(4).single_qubit_matrix().unwrap(),
            },
            FusedOp::Phase {
                mask: 0b10010,
                phase: Complex::I,
            },
            FusedOp::Phase {
                mask: 0,
                phase: Complex::from_angle(0.4),
            },
        ] {
            let sequential = apply_single_op(&op, 1);
            let threaded = apply_single_op(&op, 4);
            for (a, b) in threaded.iter().zip(&sequential) {
                assert!(a.approx_eq(*b, 1e-12), "{op:?}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn global_phase_op_touches_every_amplitude() {
        let mut state = SoaStatevector::from_amplitudes(&uniform_state(2), 1);
        state.apply_fused_op(&FusedOp::Phase {
            mask: 0,
            phase: Complex::real(-1.0),
        });
        for amplitude in state.to_amplitudes() {
            assert!(amplitude.re < 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_op_panics() {
        let mut state = SoaStatevector::from_amplitudes(&uniform_state(2), 1);
        state.apply_fused_op(&FusedOp::Dense {
            qubit: 5,
            matrix: QuantumGate::H(5).single_qubit_matrix().unwrap(),
        });
    }

    #[test]
    fn config_constructors() {
        assert!(ExecConfig::default().fusion);
        assert_eq!(ExecConfig::sequential().threads, 1);
        assert!(ExecConfig::sequential().fusion);
        assert!(!ExecConfig::baseline().fusion);
        assert_eq!(ExecConfig::baseline().threads, 1);
        let custom = ExecConfig::auto()
            .with_threads(2)
            .with_fusion(false)
            .with_shot_shard_size(64)
            .with_block_bits(8);
        assert_eq!(
            custom,
            ExecConfig {
                threads: 2,
                fusion: false,
                shot_shard_size: 64,
                block_bits: 8,
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_phase_mask_panics() {
        // The mask names a qubit outside the 2-qubit register; the guard
        // must reject it rather than silently touching nothing.
        let mut state = SoaStatevector::from_amplitudes(&uniform_state(2), 1);
        state.apply_fused_op(&FusedOp::Phase {
            mask: 0b100,
            phase: Complex::I,
        });
    }
}
