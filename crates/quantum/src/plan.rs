//! The execution-plan kernel: a GPU-shaped dispatch-record program over a
//! struct-of-arrays amplitude state.
//!
//! This module is the one dense execution layer of the workspace: every
//! ideal, noisy and batch simulation runs through it. It lowers a circuit,
//! one op per gate (the only place the dense path encodes a gate), into an
//! [`ExecPlan`]:
//!
//! * a **flat array of uniform [`DispatchRecord`]s** (op kind, bit-mask
//!   operands, matrix-pool slot) plus one flat `f64` matrix pool. Every
//!   record has the same fixed shape, so a future GPU backend (wgpu compute
//!   shaders walking the same records) can interpret the plan unchanged;
//! * a **struct-of-arrays state** ([`SoaStatevector`]): amplitudes live in
//!   split `re`/`im` `Vec<f64>` arrays so the dense 2×2/4×4 and phase sweeps
//!   are branch-free loops over contiguous `f64` data that the compiler
//!   autovectorizes;
//! * **one fusion walk**: under [`ExecConfig::fusion`], one walk over the
//!   program's per-gate ops groups the dense ops and the one- and two-qubit
//!   phases into blocks of at most two qubits. An op moves back past an
//!   item only when neither changes a bit the other reads, so a phase also
//!   passes an `Mcx` on its control. When an op on two qubits joins a
//!   one-qubit block, the nearest earlier one-qubit block on its other
//!   qubit joins too if nothing between them touches that qubit, so
//!   `H(a); H(b); CZ(a, b)` is one block. A two-qubit block becomes one
//!   [`OpKind::Dense2`] record when that replaces at least three records,
//!   at least two of them dense, and its high qubit is 3 or above: a 4×4
//!   sweep costs about two 2×2 sweeps, so it pays only past that, and only
//!   where its rows hold whole lane groups of the small-stride kernel
//!   below. In any other block each qubit's run of one-qubit ops becomes
//!   one record (a 2×2 if it holds a dense op, one phase otherwise, none
//!   if it composes to the identity). The 20-qubit hidden shift's plan is
//!   one 4×4 per inner-product pair, 10 records;
//! * **4×4 batching**: adjacent global dense single-qubit records on two
//!   distinct qubits merge into one 4×4 (and a global dense on a qubit of an
//!   adjacent global 4×4 composes into it), one cross-block pass instead of
//!   two;
//! * **cache blocking**: the state is tiled into cache-block-sized
//!   [`SoaStatevector::block_bits`] chunks, and maximal *runs* of block-local
//!   records (dense ops on low qubits, every diagonal phase, MCX with a low
//!   target) are applied per block while the block is hot in cache — one
//!   memory sweep per run instead of one per op;
//! * **a small-stride 4×4 kernel**: a 4×4 vectorizes along runs as long as
//!   its low stride, which at strides 1, 2 and 4 is nearly scalar. There
//!   the kernel reads whole 8-element groups of the two halves of the high
//!   qubit, and each lane takes its low-qubit partner from the same group,
//!   with the per-lane matrix rows built once per record. Its sums run in
//!   the generic kernel's order, so the amplitudes are the same bits. Rows
//!   shorter than 8 (both qubits among the three lowest, which the fusion
//!   leaves as separate records) keep the generic kernel;
//! * **real 4×4 sweeps**: a 4×4 whose 16 imaginary parts are all `== 0.0`
//!   (a block of `H`, `X`, `Z` and `CZ`, like each of the hidden shift's
//!   10 records) maps `re` rows to `re` rows and `im` rows to `im` rows, so
//!   every 4×4 kernel (lane groups, generic rows, block quads) runs it with
//!   4 multiplies and 4 adds per output component instead of 8 and 8. The
//!   check is made once per block, block pair or quad, never per row. With
//!   finite amplitudes the amplitudes are the complex kernels' bits: each
//!   dropped product `mi·v` is a signed zero, each sum starts at `+0.0` and
//!   keeps its column order, and a sum from `+0.0` never holds `−0.0`, so
//!   adding a zero of either sign changes nothing (see `Matrix4`). The
//!   plan is unchanged: no record kind or field tells the two apart;
//! * a **worker pool per application**: on states of at least
//!   eight blocks, [`ExecPlan::apply_soa`] opens one `thread::scope` for the
//!   whole program. For every segment the calling thread moves the owned
//!   blocks into balanced tasks, sends them to the workers over a channel
//!   and collects them back from a second channel; workers apply whole runs
//!   or cross-block pair/quad records (including the Mcx/Swap permutation
//!   sweeps). No per-op spawning, and no `unsafe`;
//! * a **product-state start**: a fused simulation from `|0…0⟩`
//!   ([`PreparedState::simulate`](crate::backend::PreparedState::simulate))
//!   does not apply the circuit's leading single-qubit layer as records.
//!   [`ExecPlan::compile_from_zero`] splits that layer off as a
//!   [`ProductLayer`], [`SoaStatevector::product_state`] writes the state it
//!   makes in the pass that allocates it, and the plan holds only the ops
//!   after it. [`ExecPlan::compile`] makes no such split, since its plans
//!   also run on other states (the noisy replay, the mapping verifier's
//!   basis states). Both lower the same per-gate ops through the same
//!   walk, so on the 20-qubit hidden shift they give the same 10 records,
//!   and the job differs only in starting from the product state.
//!
//! Correctness is established differentially (`tests/differential.rs`,
//! `tests/plan_differential.rs`): fused and unfused plans match the
//! [`DenseReference`](crate::reference::DenseReference) oracle at 1e-10 on
//! random circuits over every gate kind, and with fusion off the
//! interpreter's amplitudes are bit-identical at every block size and
//! thread count (the per-element arithmetic does not depend on the block and
//! thread partition).

use crate::circuit::QuantumCircuit;
use crate::complex::Complex;
use crate::fusion::{ExecConfig, MAX_THREADS};
use crate::gate::QuantumGate;
use qdaflow_telemetry as telemetry;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

/// Default log2 of the amplitudes per cache block when
/// [`ExecConfig::block_bits`] is `0` (auto): `2^13` amplitudes are two
/// 64 KiB `f64` arrays per block, sized to stay resident in a typical L2
/// cache while a run of records sweeps over them. A block-size sweep on
/// the 20-qubit hidden-shift workload is flat from `2^11` through `2^16`
/// and degrades past `2^17`; `13` sits at the low end of the plateau so
/// smaller hosts keep the same behaviour.
pub const DEFAULT_BLOCK_BITS: usize = 13;

/// Fewest cache blocks on which [`ExecPlan::apply_soa`] starts its worker
/// pool: 2^16 amplitudes at [`DEFAULT_BLOCK_BITS`]. Smaller states finish a
/// sweep faster than the pool's threads start; tests force the pool on
/// tiny registers with a small [`ExecConfig::block_bits`].
const POOL_MIN_BLOCKS: usize = 8;

/// Sweep statistics of the plan interpreter, registered once in the
/// process-wide [`telemetry::global_metrics`] registry.
struct KernelMetrics {
    amps_touched: telemetry::Counter,
    blocks_swept: telemetry::Counter,
    ns_per_amp: telemetry::Histogram,
    workers: telemetry::Gauge,
    records: [telemetry::Counter; 5],
}

fn kernel_metrics() -> &'static KernelMetrics {
    static METRICS: OnceLock<KernelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = telemetry::global_metrics();
        let record_counter = |kind: &str| {
            registry.counter(
                "qdaflow_kernel_records_total",
                "Dispatch records interpreted, by record kind.",
                &[("kind", kind)],
            )
        };
        KernelMetrics {
            amps_touched: registry.counter(
                "qdaflow_kernel_amps_touched_total",
                "Amplitudes visited by interpreter sweeps (register size times segment sweeps).",
                &[],
            ),
            blocks_swept: registry.counter(
                "qdaflow_kernel_blocks_swept_total",
                "Cache blocks visited by interpreter sweeps.",
                &[],
            ),
            ns_per_amp: registry.histogram(
                "qdaflow_kernel_ns_per_amp",
                "Nanoseconds of interpreter wall time per amplitude visited, per apply.",
                &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
                &[],
            ),
            workers: registry.gauge(
                "qdaflow_kernel_workers",
                "Threads used by the most recent plan application.",
                &[],
            ),
            records: [
                record_counter("dense1"),
                record_counter("dense2"),
                record_counter("phase"),
                record_counter("mcx"),
                record_counter("swap"),
            ],
        }
    })
}

/// The kind discriminant of a [`DispatchRecord`].
///
/// Gates that act identically on the amplitude arrays lower to the same
/// kind (Z, CZ and MCZ are all a `Phase`; CX, CCX and MCX all an `Mcx`);
/// `Dense2` is produced only by the lowering pass (a fused two-qubit block,
/// or two adjacent global dense records batched into one 4×4
/// application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// 2×2 unitary on one qubit. `arg0` = target bit value; `slot` points at
    /// 8 pool values (row-major `[re, im]` pairs).
    Dense1,
    /// 4×4 unitary on two qubits. `arg0` = lower bit value, `arg1` = higher
    /// bit value; `slot` points at 32 pool values (row-major over the basis
    /// `2·hi + lo`).
    Dense2,
    /// Phase multiply on the all-ones subspace of a mask. `arg0` = mask
    /// (`0` = global phase); `slot` points at 2 pool values (`re`, `im`).
    Phase,
    /// Multiple-controlled X. `arg0` = control mask, `arg1` = target bit
    /// value; no pool data.
    Mcx,
    /// Qubit exchange. `arg0` = lower bit value, `arg1` = higher bit value;
    /// no pool data.
    Swap,
}

/// One uniform instruction of an [`ExecPlan`].
///
/// Every record is the same fixed-size POD shape — a kind tag, two bit-mask
/// operands and a matrix-pool slot — regardless of the gate it encodes. The
/// per-kind operand meaning is documented on [`OpKind`]. This uniformity is
/// deliberate: the record array and the flat `f64` matrix pool are exactly
/// the two buffers a GPU interpreter would bind, with no pointer chasing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchRecord {
    /// Operation kind (selects the interpreter loop).
    pub kind: OpKind,
    /// First operand: a qubit bit value or subspace mask (see [`OpKind`]).
    pub arg0: u64,
    /// Second operand: a qubit bit value, or `0` when unused.
    pub arg1: u64,
    /// Offset of this record's matrix data in the flat pool returned by
    /// [`ExecPlan::matrix_pool`]; `0` for kinds without matrix data.
    pub slot: u32,
}

/// One cache block of split-component amplitudes. Blocks are owned `Vec`s so
/// the worker pool can move them to a thread and back without `unsafe`
/// aliasing.
#[derive(Debug, Clone, Default, PartialEq)]
struct AmpBlock {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// A statevector in struct-of-arrays layout, tiled into cache blocks.
///
/// The `2^n` amplitudes are split into `2^{n-b}` blocks of `2^b` (`b` =
/// [`SoaStatevector::block_bits`]); within a block the real and imaginary
/// components live in two separate contiguous `f64` arrays. Basis state `k`
/// lives in block `k >> b` at local index `k & (2^b - 1)`, with qubit 0 as
/// the least significant bit.
///
/// It is also the dense engine's
/// [`PreparedState`](crate::backend::PreparedState): the
/// [`StatevectorBackend`](crate::backend::StatevectorBackend) and dense
/// batch jobs simulate into it and sample it in this layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaStatevector {
    num_qubits: usize,
    block_bits: usize,
    blocks: Vec<AmpBlock>,
}

impl SoaStatevector {
    /// Creates the all-zeros state `|0...0⟩` with the given block size
    /// (clamped to the register size): the [`SoaStatevector::product_state`]
    /// of `|0⟩` factors.
    pub fn zero_state(num_qubits: usize, block_bits: usize) -> Self {
        Self::product_state(&vec![[Complex::ONE, Complex::ZERO]; num_qubits], block_bits)
    }

    /// Creates the product state whose qubit `q` is `factors[q]` (its
    /// amplitudes of `|0⟩` and `|1⟩`), with the given block size (clamped to
    /// the register size), in one write pass.
    ///
    /// Every block is one `2^b` vector, the tensor product of the low
    /// `block_bits` factors, times the block's scale, the product of the
    /// high factors' entries its index selects. Blocks whose scale is 0 are
    /// allocated zeroed and never written.
    pub fn product_state(factors: &[[Complex; 2]], block_bits: usize) -> Self {
        let num_qubits = factors.len();
        let block_bits = block_bits.min(num_qubits);
        let block_len = 1usize << block_bits;
        let (low, high) = factors.split_at(block_bits);
        let pattern = tensor_product(low);
        let pattern_re: Vec<f64> = pattern.iter().map(|a| a.re).collect();
        let pattern_im: Vec<f64> = pattern.iter().map(|a| a.im).collect();
        let blocks = tensor_product(high)
            .into_iter()
            .map(|scale| {
                if scale == Complex::ZERO {
                    return AmpBlock {
                        re: vec![0.0; block_len],
                        im: vec![0.0; block_len],
                    };
                }
                // The arithmetic of `Complex`'s product, one component array
                // at a time.
                let pairs = || pattern_re.iter().zip(&pattern_im);
                AmpBlock {
                    re: pairs()
                        .map(|(&r, &i)| r * scale.re - i * scale.im)
                        .collect(),
                    im: pairs()
                        .map(|(&r, &i)| r * scale.im + i * scale.re)
                        .collect(),
                }
            })
            .collect();
        Self {
            num_qubits,
            block_bits,
            blocks,
        }
    }

    /// Converts an interleaved amplitude slice into blocked SoA layout.
    ///
    /// # Panics
    ///
    /// Panics if the slice length is not a power of two.
    pub fn from_amplitudes(amplitudes: &[Complex], block_bits: usize) -> Self {
        let num_qubits = num_qubits_of(amplitudes);
        let block_bits = block_bits.min(num_qubits);
        let block_len = 1usize << block_bits;
        let blocks = amplitudes
            .chunks_exact(block_len)
            .map(|chunk| AmpBlock {
                re: chunk.iter().map(|a| a.re).collect(),
                im: chunk.iter().map(|a| a.im).collect(),
            })
            .collect();
        Self {
            num_qubits,
            block_bits,
            blocks,
        }
    }

    /// The state as a freshly allocated interleaved amplitude vector, in
    /// basis order.
    pub fn to_amplitudes(&self) -> Vec<Complex> {
        let mut amplitudes = Vec::with_capacity(1usize << self.num_qubits);
        for block in &self.blocks {
            amplitudes.extend(
                block
                    .re
                    .iter()
                    .zip(&block.im)
                    .map(|(&re, &im)| Complex::new(re, im)),
            );
        }
        amplitudes
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// log2 of the amplitudes per cache block.
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// The cache blocks in basis order, as (`re`, `im`) component slices.
    pub(crate) fn block_slices(&self) -> impl Iterator<Item = (&[f64], &[f64])> {
        self.blocks
            .iter()
            .map(|block| (block.re.as_slice(), block.im.as_slice()))
    }

    /// The amplitude of basis state `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is out of range.
    pub fn amplitude(&self, basis: usize) -> Complex {
        let block = &self.blocks[basis >> self.block_bits];
        let local = basis & ((1usize << self.block_bits) - 1);
        Complex::new(block.re[local], block.im[local])
    }

    /// Sum of all probabilities; 1 up to floating-point error for any state
    /// produced by unitary evolution.
    pub fn norm(&self) -> f64 {
        self.blocks
            .iter()
            .flat_map(|b| b.re.iter().zip(&b.im))
            .map(|(&re, &im)| re * re + im * im)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²` between two pure states, whatever their
    /// block sizes.
    ///
    /// # Panics
    ///
    /// Panics if the states have different numbers of qubits.
    pub fn fidelity(&self, other: &Self) -> f64 {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "states must have the same number of qubits"
        );
        (0..1usize << self.num_qubits)
            .fold(Complex::ZERO, |sum, basis| {
                sum + self.amplitude(basis).conj() * other.amplitude(basis)
            })
            .norm_sqr()
    }

    /// Resets the state to `|0...0⟩` in place, reusing the allocations.
    pub fn reset(&mut self) {
        for block in &mut self.blocks {
            block.re.fill(0.0);
            block.im.fill(0.0);
        }
        self.blocks[0].re[0] = 1.0;
    }

    /// Samples a measurement of all qubits by an early-exiting linear scan
    /// over one `f64` draw, returning the observed basis state; the state is
    /// not collapsed. Its running sum is the one
    /// [`CumulativeDistribution`](crate::sampling::CumulativeDistribution)
    /// stores, so it is the reference the `sampling_differential.rs` suite
    /// holds the binary-search sampler to, draw for draw.
    pub fn sample_linear<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let draw: f64 = rng.gen();
        let mut cumulative = 0.0f64;
        let block_len = 1usize << self.block_bits;
        for (block_index, block) in self.blocks.iter().enumerate() {
            for (local, (&re, &im)) in block.re.iter().zip(&block.im).enumerate() {
                cumulative += re * re + im * im;
                if draw < cumulative {
                    return (block_index << self.block_bits) | local;
                }
            }
        }
        (self.blocks.len() - 1) * block_len + block_len - 1
    }

    /// Applies one gate in place, sequentially: the one record an unfused
    /// plan holds for it (used by the noisy simulator's stochastic Pauli
    /// insertions).
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &QuantumGate) {
        for qubit in gate.qubits() {
            assert!(
                qubit < self.num_qubits,
                "qubit {qubit} of {gate:?} out of range for a {}-qubit register",
                self.num_qubits
            );
        }
        let mut pool = Vec::new();
        let record = emit(&Lowered::from_gate(gate), &mut pool);
        apply_global_sequential(&record, &pool, self);
    }
}

/// The leading single-qubit layer of a circuit as the product state it
/// makes of `|0…0⟩`, split off by [`ExecPlan::compile_from_zero`].
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

/// Splits the leading single-qubit layer off per-gate ops, in place, and
/// returns the product state it makes of `|0…0⟩`.
///
/// One walk over the ops tracks the qubits the kept ops touch. An op on one
/// qubit that no kept op has touched yet ([`Lowered::single_qubit`]) is
/// applied to that qubit's factor, which starts at `|0⟩`, and removed.
/// Every other op is kept in order and marks its qubits touched. No kept op
/// touches an absorbed qubit before the ops absorbed on it, so those ops
/// commute with every kept op ahead of them, and running the kept ops on
/// the product state is exact.
fn split_product_layer(num_qubits: usize, ops: &mut Vec<Lowered>) -> ProductLayer {
    let mut factors = vec![[Complex::ONE, Complex::ZERO]; num_qubits];
    let mut absorbed = 0usize;
    let mut touched = 0usize;
    ops.retain(|op| match op.single_qubit() {
        Some(bit) if touched & bit == 0 => {
            op.apply_to_factor(&mut factors[bit.trailing_zeros() as usize]);
            absorbed |= bit;
            false
        }
        _ => {
            touched |= support_of(op) as usize;
            true
        }
    });
    ProductLayer { factors, absorbed }
}

/// Number of qubits represented by an amplitude slice.
///
/// # Panics
///
/// Panics if the length is not a power of two.
fn num_qubits_of(amplitudes: &[Complex]) -> usize {
    assert!(
        amplitudes.len().is_power_of_two(),
        "amplitude slice length {} is not a power of two",
        amplitudes.len()
    );
    amplitudes.len().trailing_zeros() as usize
}

/// Widens `index` by one bit at position `bit` (a power of two): every bit at
/// or above the position shifts up, and the freed position is set to `value`.
///
/// Iterating a compact counter through `insert_bit` enumerates exactly the
/// subspace of basis states with a fixed value at `bit`, which is how the
/// `Mcx` and `Swap` sweeps skip the half (or smaller) of the index space
/// they never touch.
fn insert_bit(index: usize, bit: usize, value: bool) -> usize {
    let below = bit - 1;
    ((index & !below) << 1) | (index & below) | if value { bit } else { 0 }
}

/// The bit values (powers of two) present in `mask`, in ascending order —
/// the order in which [`insert_bit`] expansions must be applied.
fn mask_bit_values(mask: usize) -> Vec<usize> {
    let mut positions = Vec::with_capacity(mask.count_ones() as usize);
    let mut rest = mask;
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        positions.push(bit);
        rest ^= bit;
    }
    positions
}

/// The `2^k` amplitudes of the tensor product of `k` one-qubit factors, in
/// basis order with `factors[0]` as the least significant qubit.
fn tensor_product(factors: &[[Complex; 2]]) -> Vec<Complex> {
    let mut product = Vec::with_capacity(1 << factors.len());
    product.push(Complex::ONE);
    for &[zero, one] in factors {
        let half = product.len();
        product.extend_from_within(..);
        for (index, amplitude) in product.iter_mut().enumerate() {
            *amplitude *= if index < half { zero } else { one };
        }
    }
    product
}

/// The plan's op IR, from gate to dispatch record: each gate lowers to one
/// op ([`Lowered::from_gate`]), the fusion walk composes ops, and
/// [`emit`] writes each op as one record. Ops own their matrices, so the
/// walk and the batching peephole can compose them before the flat pool is
/// emitted. Qubits are bit values (`1 << q`), as in the records.
#[derive(Debug, Clone, PartialEq)]
enum Lowered {
    /// An arbitrary 2×2 unitary on one qubit.
    D1 {
        bit: usize,
        matrix: [[Complex; 2]; 2],
    },
    /// A 4×4 unitary on two qubits, made only by fusion.
    D2 {
        /// Lower of the two bit values.
        lo: usize,
        /// Higher of the two bit values.
        hi: usize,
        /// Row-major 4×4 over the basis index `2·(hi bit) + (lo bit)`.
        matrix: [Complex; 16],
    },
    /// Multiplies `phase` onto every amplitude whose index has all bits of
    /// `mask` set: a diagonal gate (`mask` 0 is a global phase).
    Ph { mask: usize, phase: Complex },
    /// Multiple-controlled X: swaps amplitudes across `target_bit` where
    /// all bits of `control_mask` are set (an empty mask is a plain X).
    Mcx {
        control_mask: usize,
        target_bit: usize,
    },
    /// Exchange of two qubits; `bit_a` is the lower bit value.
    Swap { bit_a: usize, bit_b: usize },
}

impl Lowered {
    /// Lowers one gate to its op: controlled X gates to an `Mcx`, diagonal
    /// gates (Z, S, T, Rz, CZ, MCZ and their kin) to a phase, and the other
    /// one-qubit gates to a 2×2.
    fn from_gate(gate: &QuantumGate) -> Self {
        let mask = |qubits: &[usize]| -> usize { qubits.iter().map(|&q| 1usize << q).sum() };
        match gate {
            QuantumGate::Cx { control, target } => Self::Mcx {
                control_mask: 1 << control,
                target_bit: 1 << target,
            },
            QuantumGate::Ccx {
                control_a,
                control_b,
                target,
            } => Self::Mcx {
                control_mask: (1 << control_a) | (1 << control_b),
                target_bit: 1 << target,
            },
            QuantumGate::Mcx { controls, target } => Self::Mcx {
                control_mask: mask(controls),
                target_bit: 1 << target,
            },
            QuantumGate::Cz { a, b } => Self::Ph {
                mask: (1 << a) | (1 << b),
                phase: Complex::real(-1.0),
            },
            QuantumGate::Mcz { qubits } => Self::Ph {
                mask: mask(qubits),
                phase: Complex::real(-1.0),
            },
            QuantumGate::Swap { a, b } => Self::Swap {
                bit_a: 1 << a.min(b),
                bit_b: 1 << a.max(b),
            },
            single => {
                let bit = 1 << single.qubits()[0];
                let matrix = single
                    .single_qubit_matrix()
                    .expect("all remaining gates are single-qubit");
                if single.is_diagonal() {
                    Self::Ph {
                        mask: bit,
                        phase: matrix[1][1],
                    }
                } else {
                    Self::D1 { bit, matrix }
                }
            }
        }
    }

    /// The bit of an op that keeps a product state a product state by
    /// acting on one factor: a 2×2, a one-qubit phase or a control-free X.
    fn single_qubit(&self) -> Option<usize> {
        match self {
            Self::D1 { bit, .. } => Some(*bit),
            Self::Ph { mask, .. } if mask.count_ones() == 1 => Some(*mask),
            Self::Mcx {
                control_mask: 0,
                target_bit,
            } => Some(*target_bit),
            _ => None,
        }
    }

    /// Applies a [`Lowered::single_qubit`] op to its qubit's factor, the
    /// qubit's amplitudes of `|0⟩` and `|1⟩`.
    fn apply_to_factor(&self, factor: &mut [Complex; 2]) {
        let [zero, one] = factor;
        match self {
            Self::D1 { matrix, .. } => {
                let (a, b) = (*zero, *one);
                *zero = matrix[0][0] * a + matrix[0][1] * b;
                *one = matrix[1][0] * a + matrix[1][1] * b;
            }
            Self::Ph { phase, .. } => *one *= *phase,
            Self::Mcx { .. } => std::mem::swap(zero, one),
            Self::D2 { .. } | Self::Swap { .. } => unreachable!("a factor takes one-qubit ops"),
        }
    }
}

/// Expands a 2×2 matrix to the 4×4 acting on the `lo` (when `on_lo`) or `hi`
/// position of the two-qubit basis `2·hi + lo`.
fn expand_2x2(matrix: &[[Complex; 2]; 2], on_lo: bool) -> [Complex; 16] {
    let mut out = [Complex::ZERO; 16];
    for row in 0..4usize {
        for col in 0..4usize {
            let (acted_row, acted_col, spect_row, spect_col) = if on_lo {
                (row & 1, col & 1, row >> 1, col >> 1)
            } else {
                (row >> 1, col >> 1, row & 1, col & 1)
            };
            if spect_row == spect_col {
                out[row * 4 + col] = matrix[acted_row][acted_col];
            }
        }
    }
    out
}

/// 4×4 matrix product `left · right` (`right` applied first).
fn matmul_4x4(left: &[Complex; 16], right: &[Complex; 16]) -> [Complex; 16] {
    let mut out = [Complex::ZERO; 16];
    for row in 0..4usize {
        for col in 0..4usize {
            let mut acc = Complex::ZERO;
            for k in 0..4usize {
                acc += left[row * 4 + k] * right[k * 4 + col];
            }
            out[row * 4 + col] = acc;
        }
    }
    out
}

/// 2×2 matrix product `left · right` (`right` applied first).
fn matmul_2x2(left: &[[Complex; 2]; 2], right: &[[Complex; 2]; 2]) -> [[Complex; 2]; 2] {
    let mut out = [[Complex::ZERO; 2]; 2];
    for (row, out_row) in out.iter_mut().enumerate() {
        for (col, entry) in out_row.iter_mut().enumerate() {
            *entry = left[row][0] * right[0][col] + left[row][1] * right[1][col];
        }
    }
    out
}

/// Attempts to batch `later` into `earlier` (both dense): two adjacent
/// single-qubit denses on distinct qubits become one 4×4, and a dense
/// landing on a qubit of an adjacent 4×4 composes into it. Adjacent dense
/// ops on disjoint qubits commute, so the composition is exact (up to one
/// extra rounding in the product).
fn batch_dense(earlier: &Lowered, later: &Lowered) -> Option<Lowered> {
    match (earlier, later) {
        (
            Lowered::D1 {
                bit: bit_a,
                matrix: m_a,
            },
            Lowered::D1 {
                bit: bit_b,
                matrix: m_b,
            },
        ) if bit_a != bit_b => {
            let (lo, hi) = (*bit_a.min(bit_b), *bit_a.max(bit_b));
            let first = expand_2x2(m_a, *bit_a == lo);
            let second = expand_2x2(m_b, *bit_b == lo);
            Some(Lowered::D2 {
                lo,
                hi,
                matrix: matmul_4x4(&second, &first),
            })
        }
        (Lowered::D2 { lo, hi, matrix }, Lowered::D1 { bit, matrix: m })
            if bit == lo || bit == hi =>
        {
            let expanded = expand_2x2(m, bit == lo);
            Some(Lowered::D2 {
                lo: *lo,
                hi: *hi,
                matrix: matmul_4x4(&expanded, matrix),
            })
        }
        _ => None,
    }
}

/// One group of ops built by [`cluster_by_locality`]: a maximal set of
/// same-locality ops that can legally execute back to back.
struct Cluster {
    ops: Vec<Lowered>,
    /// Union of the members' qubit-support masks.
    support: u64,
    /// Whether every member is diagonal (a phase).
    diagonal: bool,
    /// Whether the members are block-local at the clustering block size.
    local: bool,
}

/// The qubit-support mask of a lowered op (bits the op reads or writes).
fn support_of(op: &Lowered) -> u64 {
    match op {
        Lowered::D1 { bit, .. } => *bit as u64,
        Lowered::D2 { lo, hi, .. } => (*lo | *hi) as u64,
        Lowered::Ph { mask, .. } => *mask as u64,
        Lowered::Mcx {
            control_mask,
            target_bit,
        } => (*control_mask | *target_bit) as u64,
        Lowered::Swap { bit_a, bit_b } => (*bit_a | *bit_b) as u64,
    }
}

/// Whether a lowered op is diagonal in the computational basis.
fn is_diagonal(op: &Lowered) -> bool {
    matches!(op, Lowered::Ph { .. })
}

/// Whether a lowered op is block-local for `block_len`-amplitude blocks
/// (same classification as [`locality_of`], one level earlier).
fn is_local(op: &Lowered, block_len: usize) -> bool {
    match op {
        Lowered::Ph { .. } => true,
        Lowered::D1 { bit, .. } => *bit < block_len,
        Lowered::D2 { hi, .. } => *hi < block_len,
        Lowered::Mcx { target_bit, .. } => *target_bit < block_len,
        Lowered::Swap { bit_b, .. } => *bit_b < block_len,
    }
}

/// Regroups the lowered sequence so block-local ops cluster together,
/// hopping each op backwards only past ops it provably commutes with
/// (disjoint qubit support, or both diagonal).
///
/// Circuits interleave low- and high-qubit gates freely, which chops the
/// scheduler's cache-block runs into fragments — every fragment then costs
/// a full memory sweep and the register is re-streamed from DRAM once per
/// op. Clustering restores long local runs (one sweep applies the whole run
/// per block) and packs the global ops side by side where the 4×4 batcher
/// can merge high-qubit pairs into single cross-block passes. Reordering
/// commuting ops is exact in exact arithmetic but changes floating-point
/// rounding, so it runs only under [`ExecConfig::fusion`] — the knob that
/// already licenses non-bit-identical (but tolerance-exact) optimization.
fn cluster_by_locality(ops: Vec<Lowered>, block_bits: usize) -> Vec<Lowered> {
    let block_len = 1usize << block_bits;
    let mut clusters: Vec<Cluster> = Vec::new();
    for op in ops {
        let support = support_of(&op);
        let diagonal = is_diagonal(&op);
        let local = is_local(&op, block_len);
        // Walk back over the clusters the op commutes with; it may join any
        // same-locality cluster in that commuting suffix (appending keeps it
        // after every op it does not commute with).
        let mut joined = None;
        for index in (0..clusters.len()).rev() {
            let cluster = &clusters[index];
            if cluster.local == local {
                joined = Some(index);
            }
            let commutes = (support & cluster.support) == 0 || (diagonal && cluster.diagonal);
            if !commutes {
                break;
            }
        }
        match joined {
            Some(index) => {
                let cluster = &mut clusters[index];
                cluster.ops.push(op);
                cluster.support |= support;
                cluster.diagonal &= diagonal;
            }
            None => clusters.push(Cluster {
                ops: vec![op],
                support,
                diagonal,
                local,
            }),
        }
    }
    clusters
        .into_iter()
        .flat_map(|cluster| cluster.ops)
        .collect()
}

/// Tolerance under which a composed one-qubit record is recognized as the
/// identity and dropped from the plan.
const IDENTITY_EPS: f64 = 1e-12;

/// The bits a lowered op changes or mixes: a dense op's qubits, an `Mcx`
/// target and both qubits of a `Swap`. A phase changes none.
fn flips_of(op: &Lowered) -> u64 {
    match op {
        Lowered::D1 { bit, .. } => *bit as u64,
        Lowered::D2 { lo, hi, .. } => (*lo | *hi) as u64,
        Lowered::Ph { .. } => 0,
        Lowered::Mcx { target_bit, .. } => *target_bit as u64,
        Lowered::Swap { bit_a, bit_b } => (*bit_a | *bit_b) as u64,
    }
}

/// A one-qubit dense op or phase as its 2×2 matrix.
fn matrix_2x2(op: &Lowered) -> [[Complex; 2]; 2] {
    match op {
        Lowered::D1 { matrix, .. } => *matrix,
        Lowered::Ph { phase, .. } => [[Complex::ONE, Complex::ZERO], [Complex::ZERO, *phase]],
        _ => unreachable!("a one-qubit run holds 2×2 denses and phases"),
    }
}

/// Composes `later` after `earlier`, two ops on the same one qubit: one
/// phase when both are phases, their 2×2 product otherwise.
fn compose_one_qubit(earlier: &Lowered, later: &Lowered) -> Lowered {
    match (earlier, later) {
        (Lowered::Ph { mask, phase: p }, Lowered::Ph { phase: q, .. }) => Lowered::Ph {
            mask: *mask,
            phase: *p * *q,
        },
        _ => Lowered::D1 {
            bit: support_of(earlier) as usize,
            matrix: matmul_2x2(&matrix_2x2(later), &matrix_2x2(earlier)),
        },
    }
}

/// Whether a composed one-qubit op is the identity within [`IDENTITY_EPS`].
fn is_identity(op: &Lowered) -> bool {
    let near = |z: Complex, w: Complex| z.approx_eq(w, IDENTITY_EPS);
    let [[a, b], [c, d]] = matrix_2x2(op);
    near(a, Complex::ONE)
        && near(b, Complex::ZERO)
        && near(c, Complex::ZERO)
        && near(d, Complex::ONE)
}

/// One qubit's run of one-qubit ops inside a [`FusionBlock`], composed into
/// one op as it grows, with the number of ops it holds.
type Run = Option<(Lowered, usize)>;

/// Appends a run's record: its one op as it is, or the composition of two
/// or more unless that is the identity.
fn flush_run(run: Run, out: &mut Vec<Lowered>) {
    match run {
        Some((op, 1)) => out.push(op),
        Some((op, _)) if !is_identity(&op) => out.push(op),
        _ => {}
    }
}

/// One item of [`fuse_blocks`]: a block of dense ops and phases on at most
/// two qubits, a single op that no other op joins, or (emptied by a block
/// merge) nothing.
#[derive(Default)]
struct FusionBlock {
    ops: Vec<Lowered>,
    /// Union of the members' qubit-support masks.
    support: u64,
    /// Union of the bits the members change or mix ([`flips_of`]).
    flips: u64,
    /// Whether later ops may join: the block holds only dense ops and
    /// phases on one or two qubits.
    open: bool,
}

impl FusionBlock {
    /// Whether an op moves back past the whole block: neither changes a bit
    /// the other reads. Disjoint ops and two diagonal ones pass, and so does
    /// a phase on an `Mcx` control.
    fn commutes_with(&self, support: u64, flips: u64) -> bool {
        flips & self.support == 0 && self.flips & support == 0
    }

    /// Appends the records the block lowers to. A two-qubit block becomes
    /// one 4×4 when that replaces at least three records, at least two of
    /// them dense, and its high qubit is 3 or above: a wide 4×4 sweep costs
    /// about two wide 2×2 sweeps, and a phase much less than either, so a
    /// 4×4 pays only once it replaces more than two 2×2s. Below qubit 3 the
    /// 4×4's rows are shorter than a lane group and run on the generic
    /// kernel, which never pays: on 2^20 amplitudes a block on qubits
    /// (0, 1) costs about 11 ms as one 4×4 against 3 ms as its 2×2s and
    /// phase.
    ///
    /// Any other open block composes each qubit's run of one-qubit ops into
    /// one record: a 2×2 if the run holds a dense op, one phase otherwise,
    /// and none if two or more ops compose to the identity. A run moves
    /// past a two-qubit phase of the block only while it holds only phases.
    fn lower_into(self, out: &mut Vec<Lowered>) {
        if !self.open {
            out.extend(self.ops);
            return;
        }
        let dense = self
            .ops
            .iter()
            .filter(|op| matches!(op, Lowered::D1 { .. } | Lowered::D2 { .. }))
            .count();
        let lo = (self.support & self.support.wrapping_neg()) as usize;
        let hi = self.support as usize ^ lo;
        if hi < LANES || dense < 2 || self.ops.len() < 3 {
            // Runs on `lo` and `hi`; before the walk, a block's only
            // two-qubit members are phases.
            let mut runs: [Run; 2] = [None, None];
            for op in self.ops {
                let support = support_of(&op) as usize;
                if support.count_ones() == 2 {
                    for run in &mut runs {
                        if run.as_ref().is_some_and(|(op, _)| !is_diagonal(op)) {
                            flush_run(run.take(), out);
                        }
                    }
                    out.push(op);
                } else {
                    let run = &mut runs[usize::from(support == hi)];
                    *run = Some(match run.take() {
                        None => (op, 1),
                        Some((earlier, count)) => (compose_one_qubit(&earlier, &op), count + 1),
                    });
                }
            }
            for run in runs {
                flush_run(run, out);
            }
        } else {
            let matrix = self
                .ops
                .iter()
                .map(|op| match op {
                    Lowered::D1 { bit, matrix } => expand_2x2(matrix, *bit == lo),
                    Lowered::D2 { matrix, .. } => *matrix,
                    Lowered::Ph { mask, phase } => {
                        // Basis state `2·h + l` is in the phase's subspace
                        // when every qubit of the mask is set in it.
                        let mut diagonal = [Complex::ZERO; 16];
                        for (index, bits) in [0, lo, hi, lo | hi].into_iter().enumerate() {
                            diagonal[index * 5] = if mask & bits == *mask {
                                *phase
                            } else {
                                Complex::ONE
                            };
                        }
                        diagonal
                    }
                    _ => unreachable!("a two-qubit block holds denses and phases"),
                })
                .reduce(|earlier, later| matmul_4x4(&later, &earlier))
                .expect("a fused block is not empty");
            out.push(Lowered::D2 { lo, hi, matrix });
        }
    }
}

/// Groups the lowered sequence into blocks of dense ops and phases on at
/// most two qubits, and lowers each block by [`FusionBlock::lower_into`]:
/// the plan's one fusion pass.
///
/// One walk places each op: a dense op or a phase on one or two qubits
/// moves back past earlier items only while it commutes with them
/// ([`FusionBlock::commutes_with`]), and joins the first open block it
/// shares a qubit with if the union stays within two qubits. When an op on
/// two qubits joins a one-qubit block, the nearest earlier one-qubit block
/// on its other qubit joins too, if that block is open and no item between
/// the two touches that qubit, so `H(a); H(b); CZ(a, b)` is one block.
/// Every other op (`Mcx`, `Swap`, wider phases) stays where it is and
/// starts an item no op joins. Like the clustering, this changes
/// floating-point rounding, so it runs only under [`ExecConfig::fusion`].
fn fuse_blocks(ops: Vec<Lowered>) -> Vec<Lowered> {
    let mut blocks: Vec<FusionBlock> = Vec::new();
    for op in ops {
        let support = support_of(&op);
        let flips = flips_of(&op);
        let open = match &op {
            Lowered::D1 { .. } | Lowered::D2 { .. } => true,
            Lowered::Ph { mask, .. } => matches!(mask.count_ones(), 1 | 2),
            Lowered::Mcx { .. } | Lowered::Swap { .. } => false,
        };
        let mut joined = None;
        if open {
            for (index, block) in blocks.iter().enumerate().rev() {
                let shared = support & block.support != 0;
                if shared && block.open && (support | block.support).count_ones() <= 2 {
                    joined = Some(index);
                    break;
                }
                if !block.commutes_with(support, flips) {
                    break;
                }
            }
        }
        match joined {
            Some(index) => {
                let other = support & !blocks[index].support;
                if other != 0 && blocks[index].support.count_ones() == 1 {
                    // The merged block stands where the joined one does:
                    // the pulled block moves forward only past items that
                    // do not touch its qubit.
                    let nearest = blocks[..index]
                        .iter()
                        .rposition(|block| block.support & other != 0);
                    if let Some(earlier) =
                        nearest.filter(|&at| blocks[at].open && blocks[at].support == other)
                    {
                        let pulled = std::mem::take(&mut blocks[earlier]);
                        let block = &mut blocks[index];
                        block.ops.splice(0..0, pulled.ops);
                        block.support |= pulled.support;
                        block.flips |= pulled.flips;
                    }
                }
                let block = &mut blocks[index];
                block.ops.push(op);
                block.support |= support;
                block.flips |= flips;
            }
            None => blocks.push(FusionBlock {
                ops: vec![op],
                support,
                flips,
                open,
            }),
        }
    }
    let mut fused = Vec::with_capacity(blocks.len());
    for block in blocks {
        block.lower_into(&mut fused);
    }
    fused
}

/// How one record interacts with the block partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Locality {
    /// Applies independently per block (given the block index): dense ops on
    /// low qubits, every phase, MCX with a low target.
    Local,
    /// Couples amplitudes across blocks; executed as a dedicated pair/quad
    /// dispatch over the pool.
    Global,
}

/// A scheduled span of the record array: either a maximal run of block-local
/// records (applied per block, one cache sweep for the whole run) or a
/// single global record.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    range: Range<usize>,
    locality: Locality,
}

/// A circuit lowered to flat dispatch records plus a flat matrix pool,
/// pre-scheduled into cache-block segments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    num_qubits: usize,
    block_bits: usize,
    records: Vec<DispatchRecord>,
    pool: Vec<f64>,
    segments: Vec<Segment>,
}

impl ExecPlan {
    /// Compiles a circuit to a plan that runs on any state of its register.
    ///
    /// Each gate lowers to one op. With `config.fusion` on, the lowering
    /// runs the fusion walk (blocks of at most two qubits, each qubit's
    /// one-qubit runs composed), clusters block-local ops and batches
    /// adjacent global denses (see the [module docs](self)), so one record
    /// can stand for many gates; on the 20-qubit hidden shift that is the
    /// same 10 records in 8 sweeps as a job's plan. With `config.fusion`
    /// off the records correspond 1:1 to the gates (degenerate MCX records
    /// whose control set contains the target are kept as explicit no-ops),
    /// which the noisy simulator relies on to interleave stochastic noise
    /// between gates.
    pub fn compile(circuit: &QuantumCircuit, config: &ExecConfig) -> Self {
        Self::from_ops(circuit.num_qubits(), lower(circuit), config)
    }

    /// Compiles a circuit for a run from `|0…0⟩`: the state to start from,
    /// and the plan to apply to it.
    ///
    /// With `config.fusion` on, the circuit's leading single-qubit layer is
    /// split off as the [`ProductLayer`] it makes of `|0…0⟩` (each op on one
    /// qubit that no kept op has touched yet folds into that qubit's
    /// factor), and the plan, compiled as by [`ExecPlan::compile`], holds
    /// only the ops after it. With `config.fusion` off the layer is all
    /// `|0⟩`, with no qubit absorbed, and the plan is
    /// [`ExecPlan::compile`]'s per-gate plan. Either way
    /// [`SoaStatevector::product_state`] of the layer's factors is the
    /// state to apply the plan to.
    pub fn compile_from_zero(
        circuit: &QuantumCircuit,
        config: &ExecConfig,
    ) -> (ProductLayer, Self) {
        let num_qubits = circuit.num_qubits();
        let mut ops = lower(circuit);
        let layer = if config.fusion {
            split_product_layer(num_qubits, &mut ops)
        } else {
            ProductLayer {
                factors: vec![[Complex::ONE, Complex::ZERO]; num_qubits],
                absorbed: 0,
            }
        };
        (layer, Self::from_ops(num_qubits, ops, config))
    }

    /// Lowers per-gate ops into a plan (see [`ExecPlan::compile`]).
    fn from_ops(num_qubits: usize, mut lowered: Vec<Lowered>, config: &ExecConfig) -> Self {
        let block_bits = effective_block_bits(config, num_qubits);
        if config.fusion {
            lowered = fuse_blocks(lowered);
            lowered = cluster_by_locality(lowered, block_bits);
            // Batch what the fusion walk left apart only where a 4×4
            // saves a full memory sweep: two adjacent *global* ops fold into
            // one cross-block pass. Block-local ops already share one sweep
            // per run, so a local 4×4 of two lone 2×2s saves no pass and
            // costs about as much as the two 2×2s it replaces.
            let block_len = 1usize << block_bits;
            let mut batched: Vec<Lowered> = Vec::with_capacity(lowered.len());
            for next in lowered {
                let profitable = batched.last().is_some_and(|earlier| {
                    !is_local(earlier, block_len) && !is_local(&next, block_len)
                });
                if profitable {
                    if let Some(merged) = batched
                        .last()
                        .and_then(|earlier| batch_dense(earlier, &next))
                    {
                        *batched.last_mut().expect("checked non-empty") = merged;
                        continue;
                    }
                }
                batched.push(next);
            }
            lowered = batched;
        }
        let mut records = Vec::with_capacity(lowered.len());
        let mut pool = Vec::new();
        for op in &lowered {
            records.push(emit(op, &mut pool));
        }
        let segments = schedule(&records, block_bits);
        Self {
            num_qubits,
            block_bits,
            records,
            pool,
            segments,
        }
    }

    /// Number of qubits of the source program.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// log2 of the amplitudes per cache block this plan was scheduled for.
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// The flat dispatch records in execution order.
    pub fn records(&self) -> &[DispatchRecord] {
        &self.records
    }

    /// The flat matrix pool indexed by [`DispatchRecord::slot`].
    pub fn matrix_pool(&self) -> &[f64] {
        &self.pool
    }

    /// Number of dispatch records (≤ the program's op count).
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Number of segments, the passes over the state one application makes:
    /// one per run of block-local records and one per global record.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Applies the plan in place to a blocked SoA state, on the worker pool
    /// (`config.threads` workers) when the state has at least eight cache
    /// blocks and sequentially otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the state is smaller than the plan's register or was built
    /// with a different block size than the plan was scheduled for.
    pub fn apply_soa(&self, state: &mut SoaStatevector, config: &ExecConfig) {
        assert!(
            state.num_qubits >= self.num_qubits,
            "a {}-qubit plan cannot run on a {}-qubit state",
            self.num_qubits,
            state.num_qubits
        );
        assert_eq!(
            state.block_bits,
            self.block_bits.min(state.num_qubits),
            "state block size does not match the plan schedule"
        );
        let threads = if state.blocks.len() >= POOL_MIN_BLOCKS {
            config.threads.clamp(1, MAX_THREADS)
        } else {
            1
        };
        let started = Instant::now();
        let _span = telemetry::span!(
            "kernel",
            "apply_soa {}q: {} records, {} segments, {threads} threads",
            state.num_qubits,
            self.records.len(),
            self.segments.len()
        );
        if threads > 1 {
            self.apply_pooled(state, threads);
        } else {
            for segment in &self.segments {
                let _sweep = telemetry::span!(
                    "kernel",
                    "sweep {:?} records {}..{}",
                    segment.locality,
                    segment.range.start,
                    segment.range.end
                );
                match segment.locality {
                    Locality::Local => {
                        for (block_index, block) in state.blocks.iter_mut().enumerate() {
                            apply_local_run(
                                &self.records[segment.range.clone()],
                                &self.pool,
                                block_index,
                                block,
                            );
                        }
                    }
                    Locality::Global => {
                        let record = &self.records[segment.range.start];
                        apply_global_sequential(record, &self.pool, state);
                    }
                }
            }
        }
        self.note_sweep_metrics(state, threads, started);
    }

    /// Publishes per-apply sweep statistics into the global metrics
    /// registry: amplitudes and blocks visited, nanoseconds per amplitude,
    /// worker count, and per-kind record tallies. A handful of relaxed
    /// atomic updates plus one pass over the (short) record array —
    /// negligible next to the amplitude sweeps themselves.
    fn note_sweep_metrics(&self, state: &SoaStatevector, threads: usize, started: Instant) {
        let metrics = kernel_metrics();
        let sweeps = self.segments.len() as u64;
        let amps = (1u64 << state.num_qubits).saturating_mul(sweeps);
        metrics.amps_touched.add(amps);
        metrics
            .blocks_swept
            .add((state.blocks.len() as u64).saturating_mul(sweeps));
        if amps > 0 {
            metrics
                .ns_per_amp
                .observe(started.elapsed().as_nanos() as f64 / amps as f64);
        }
        metrics.workers.set(threads as i64);
        for record in &self.records {
            metrics.records[record.kind as usize].inc();
        }
    }

    /// Applies a single record to the state, sequentially. The noisy
    /// simulator replays plans through this entry point so it can interleave
    /// stochastic noise channels between records.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn apply_record(&self, state: &mut SoaStatevector, index: usize) {
        apply_global_sequential(&self.records[index], &self.pool, state);
    }

    /// The pooled interpreter: one `thread::scope` for the entire program.
    /// Workers pull tasks of owned blocks from a shared channel, apply a
    /// whole segment's worth of work and send them back; the calling thread
    /// only routes blocks and performs the free block-permutation fast
    /// paths.
    fn apply_pooled(&self, state: &mut SoaStatevector, threads: usize) {
        let block_bits = state.block_bits;
        // Workers run on their own threads: capture the apply span here and
        // open each worker's span under it explicitly so the exported trace
        // keeps the causal link across the pool boundary.
        let parent = telemetry::current_span();
        thread::scope(|scope| {
            let (task_tx, task_rx) = mpsc::channel::<Task>();
            let task_rx = Arc::new(Mutex::new(task_rx));
            let (done_tx, done_rx) = mpsc::channel::<Task>();
            for worker in 0..threads {
                let task_rx = Arc::clone(&task_rx);
                let done_tx = done_tx.clone();
                let plan = &*self;
                scope.spawn(move || {
                    let _span = if telemetry::enabled() {
                        telemetry::span_with_parent(
                            "kernel",
                            format!("pool-worker-{worker}"),
                            parent,
                        )
                    } else {
                        telemetry::SpanGuard::disabled()
                    };
                    loop {
                        let next = { task_rx.lock().expect("pool lock poisoned").recv() };
                        match next {
                            Ok(mut task) => {
                                for item in &mut task.items {
                                    plan.process_item(item, block_bits);
                                }
                                if done_tx.send(task).is_err() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                });
            }
            drop(done_tx);
            for segment in &self.segments {
                match segment.locality {
                    Locality::Local => {
                        let items: Vec<WorkItem> = state
                            .blocks
                            .iter_mut()
                            .enumerate()
                            .map(|(index, block)| WorkItem::Run {
                                index,
                                block: std::mem::take(block),
                                ops: segment.range.clone(),
                            })
                            .collect();
                        dispatch(&task_tx, &done_rx, items, threads, &mut state.blocks);
                    }
                    Locality::Global => {
                        let record_index = segment.range.start;
                        let record = self.records[record_index];
                        if let Some(items) =
                            global_work_items(&record, record_index, state, block_bits)
                        {
                            dispatch(&task_tx, &done_rx, items, threads, &mut state.blocks);
                        }
                    }
                }
            }
            drop(task_tx);
        });
    }

    /// Applies one pool work item (worker-side).
    fn process_item(&self, item: &mut WorkItem, block_bits: usize) {
        match item {
            WorkItem::Run { index, block, ops } => {
                apply_local_run(&self.records[ops.clone()], &self.pool, *index, block);
            }
            WorkItem::Pair { record, a, b, .. } => {
                apply_pair(&self.records[*record], &self.pool, a, b, block_bits);
            }
            WorkItem::Quad { record, blocks, .. } => {
                let [v0, v1, v2, v3] = blocks;
                dense2_across_quad(
                    matrix4(&self.pool, self.records[*record].slot),
                    v0,
                    v1,
                    v2,
                    v3,
                );
            }
        }
    }
}

/// Lowers a circuit one op per gate.
fn lower(circuit: &QuantumCircuit) -> Vec<Lowered> {
    circuit.iter().map(Lowered::from_gate).collect()
}

/// Resolves [`ExecConfig::block_bits`] (`0` = [`DEFAULT_BLOCK_BITS`]),
/// clamped to the register size.
fn effective_block_bits(config: &ExecConfig, num_qubits: usize) -> usize {
    let requested = if config.block_bits == 0 {
        DEFAULT_BLOCK_BITS
    } else {
        config.block_bits
    };
    requested.min(num_qubits)
}

/// Emits the flat record for one lowered op, appending its matrix data to
/// the pool.
fn emit(op: &Lowered, pool: &mut Vec<f64>) -> DispatchRecord {
    match op {
        Lowered::D1 { bit, matrix } => {
            let slot = pool.len() as u32;
            pool.extend(
                matrix
                    .iter()
                    .flatten()
                    .flat_map(|entry| [entry.re, entry.im]),
            );
            DispatchRecord {
                kind: OpKind::Dense1,
                arg0: *bit as u64,
                arg1: 0,
                slot,
            }
        }
        Lowered::D2 { lo, hi, matrix } => {
            let slot = pool.len() as u32;
            pool.extend(matrix.iter().flat_map(|entry| [entry.re, entry.im]));
            DispatchRecord {
                kind: OpKind::Dense2,
                arg0: *lo as u64,
                arg1: *hi as u64,
                slot,
            }
        }
        Lowered::Ph { mask, phase } => {
            let slot = pool.len() as u32;
            pool.extend([phase.re, phase.im]);
            DispatchRecord {
                kind: OpKind::Phase,
                arg0: *mask as u64,
                arg1: 0,
                slot,
            }
        }
        Lowered::Mcx {
            control_mask,
            target_bit,
        } => DispatchRecord {
            kind: OpKind::Mcx,
            arg0: *control_mask as u64,
            arg1: *target_bit as u64,
            slot: 0,
        },
        Lowered::Swap { bit_a, bit_b } => DispatchRecord {
            kind: OpKind::Swap,
            arg0: *bit_a as u64,
            arg1: *bit_b as u64,
            slot: 0,
        },
    }
}

/// Classifies a record against the block partition.
fn locality_of(record: &DispatchRecord, block_bits: usize) -> Locality {
    let block_len = 1u64 << block_bits;
    let local = match record.kind {
        // Diagonal: the block index fixes the high mask bits, the low bits
        // select within the block — always blockwise independent.
        OpKind::Phase => true,
        OpKind::Dense1 => record.arg0 < block_len,
        OpKind::Dense2 => record.arg1 < block_len,
        // Controls are diagonal; only a high target couples blocks.
        OpKind::Mcx => record.arg1 < block_len,
        OpKind::Swap => record.arg1 < block_len,
    };
    if local {
        Locality::Local
    } else {
        Locality::Global
    }
}

/// Groups the record array into maximal block-local runs separated by
/// singleton global records.
fn schedule(records: &[DispatchRecord], block_bits: usize) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut run_start = 0usize;
    for (index, record) in records.iter().enumerate() {
        if locality_of(record, block_bits) == Locality::Global {
            if run_start < index {
                segments.push(Segment {
                    range: run_start..index,
                    locality: Locality::Local,
                });
            }
            segments.push(Segment {
                range: index..index + 1,
                locality: Locality::Global,
            });
            run_start = index + 1;
        }
    }
    if run_start < records.len() {
        segments.push(Segment {
            range: run_start..records.len(),
            locality: Locality::Local,
        });
    }
    segments
}

/// One unit of pool work: a whole run applied to one block, or one global
/// record applied to a pair/quad of coupled blocks.
enum WorkItem {
    Run {
        index: usize,
        block: AmpBlock,
        ops: Range<usize>,
    },
    Pair {
        low: usize,
        high: usize,
        a: AmpBlock,
        b: AmpBlock,
        record: usize,
    },
    Quad {
        indices: [usize; 4],
        blocks: [AmpBlock; 4],
        record: usize,
    },
}

/// A batch of work items routed to one worker.
struct Task {
    items: Vec<WorkItem>,
}

/// Sends `items` to the pool as ~`threads` balanced tasks, waits for all of
/// them, and moves the processed blocks back into `blocks`.
fn dispatch(
    task_tx: &mpsc::Sender<Task>,
    done_rx: &mpsc::Receiver<Task>,
    items: Vec<WorkItem>,
    threads: usize,
    blocks: &mut [AmpBlock],
) {
    if items.is_empty() {
        return;
    }
    let per_task = items.len().div_ceil(threads);
    let mut sent = 0usize;
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(per_task));
        task_tx
            .send(Task { items })
            .expect("worker pool hung up early");
        items = rest;
        sent += 1;
    }
    for _ in 0..sent {
        let task = done_rx.recv().expect("worker pool died");
        for item in task.items {
            match item {
                WorkItem::Run { index, block, .. } => blocks[index] = block,
                WorkItem::Pair {
                    low, high, a, b, ..
                } => {
                    blocks[low] = a;
                    blocks[high] = b;
                }
                WorkItem::Quad {
                    indices,
                    blocks: quad,
                    ..
                } => {
                    for (index, block) in indices.into_iter().zip(quad) {
                        blocks[index] = block;
                    }
                }
            }
        }
    }
}

/// Builds the pool work items for one global record, taking the involved
/// blocks out of the state. Returns `None` when the record reduces to a
/// block permutation, which is performed directly (swapping `Vec` handles
/// moves no amplitude data).
fn global_work_items(
    record: &DispatchRecord,
    record_index: usize,
    state: &mut SoaStatevector,
    block_bits: usize,
) -> Option<Vec<WorkItem>> {
    match global_dispatch(record, state.blocks.len(), block_bits) {
        GlobalDispatch::Pairs(pairs) => Some(
            pairs
                .into_iter()
                .map(|(low, high)| {
                    let a = std::mem::take(&mut state.blocks[low]);
                    let b = std::mem::take(&mut state.blocks[high]);
                    WorkItem::Pair {
                        low,
                        high,
                        a,
                        b,
                        record: record_index,
                    }
                })
                .collect(),
        ),
        GlobalDispatch::Quads(quads) => Some(
            quads
                .into_iter()
                .map(|indices| {
                    let blocks = indices.map(|index| std::mem::take(&mut state.blocks[index]));
                    WorkItem::Quad {
                        indices,
                        blocks,
                        record: record_index,
                    }
                })
                .collect(),
        ),
        GlobalDispatch::Permute(swaps) => {
            for (a, b) in swaps {
                state.blocks.swap(a, b);
            }
            None
        }
        GlobalDispatch::Noop => None,
    }
}

/// How a global record decomposes over the block array.
enum GlobalDispatch {
    /// Elementwise work on pairs of blocks.
    Pairs(Vec<(usize, usize)>),
    /// Elementwise work on quads of blocks (both Dense2 qubits high).
    Quads(Vec<[usize; 4]>),
    /// A pure permutation of whole blocks.
    Permute(Vec<(usize, usize)>),
    /// Nothing to do (degenerate MCX).
    Noop,
}

/// Decomposes one global record into block-pair/quad/permutation work.
fn global_dispatch(
    record: &DispatchRecord,
    num_blocks: usize,
    block_bits: usize,
) -> GlobalDispatch {
    let block_len = 1u64 << block_bits;
    match record.kind {
        OpKind::Dense1 => {
            let offset = (record.arg0 >> block_bits) as usize;
            GlobalDispatch::Pairs(pair_indices(num_blocks, offset, 0, 0))
        }
        OpKind::Dense2 => {
            let lo = record.arg0;
            let hi = record.arg1;
            if lo < block_len {
                // Mixed: low qubit inside the block, high qubit across.
                let offset = (hi >> block_bits) as usize;
                GlobalDispatch::Pairs(pair_indices(num_blocks, offset, 0, 0))
            } else {
                let off_lo = (lo >> block_bits) as usize;
                let off_hi = (hi >> block_bits) as usize;
                let quads = (0..num_blocks)
                    .filter(|k| k & (off_lo | off_hi) == 0)
                    .map(|k| [k, k | off_lo, k | off_hi, k | off_lo | off_hi])
                    .collect();
                GlobalDispatch::Quads(quads)
            }
        }
        OpKind::Mcx => {
            if record.arg0 & record.arg1 != 0 {
                return GlobalDispatch::Noop;
            }
            let target_offset = (record.arg1 >> block_bits) as usize;
            let controls_high = (record.arg0 >> block_bits) as usize;
            let controls_low = record.arg0 & (block_len - 1);
            let pairs = pair_indices(num_blocks, target_offset, controls_high, controls_high);
            if controls_low == 0 {
                // Every local amplitude swaps: permuting the blocks is free.
                GlobalDispatch::Permute(pairs)
            } else {
                GlobalDispatch::Pairs(pairs)
            }
        }
        OpKind::Swap => {
            let lo = record.arg0;
            let hi = record.arg1;
            let off_hi = (hi >> block_bits) as usize;
            if lo >= block_len {
                // Both qubits high: exchange whole blocks.
                let off_lo = (lo >> block_bits) as usize;
                let swaps = (0..num_blocks)
                    .filter(|k| k & off_lo != 0 && k & off_hi == 0)
                    .map(|k| (k, k ^ (off_lo | off_hi)))
                    .collect();
                GlobalDispatch::Permute(swaps)
            } else {
                GlobalDispatch::Pairs(pair_indices(num_blocks, off_hi, 0, 0))
            }
        }
        OpKind::Phase => unreachable!("phase records are always block-local"),
    }
}

/// Block-index pairs `(k, k | offset)` over blocks with the pair bit clear
/// and the required high control bits set.
fn pair_indices(
    num_blocks: usize,
    offset: usize,
    required_mask: usize,
    required_value: usize,
) -> Vec<(usize, usize)> {
    (0..num_blocks)
        .filter(|k| k & offset == 0 && k & required_mask == required_value)
        .map(|k| (k, k | offset))
        .collect()
}

/// Applies one global record sequentially over the whole blocked state.
fn apply_global_sequential(record: &DispatchRecord, pool: &[f64], state: &mut SoaStatevector) {
    let block_bits = state.block_bits;
    if locality_of(record, block_bits) == Locality::Local {
        for (block_index, block) in state.blocks.iter_mut().enumerate() {
            apply_local_record(record, pool, block_index, block, block_bits);
        }
        return;
    }
    match global_dispatch(record, state.blocks.len(), block_bits) {
        GlobalDispatch::Pairs(pairs) => {
            for (low, high) in pairs {
                let (a, b) = pair_mut(&mut state.blocks, low, high);
                apply_pair(record, pool, a, b, block_bits);
            }
        }
        GlobalDispatch::Quads(quads) => {
            for indices in quads {
                let mut taken = indices.map(|index| std::mem::take(&mut state.blocks[index]));
                let [v0, v1, v2, v3] = &mut taken;
                dense2_across_quad(matrix4(pool, record.slot), v0, v1, v2, v3);
                for (index, block) in indices.into_iter().zip(taken) {
                    state.blocks[index] = block;
                }
            }
        }
        GlobalDispatch::Permute(swaps) => {
            for (a, b) in swaps {
                state.blocks.swap(a, b);
            }
        }
        GlobalDispatch::Noop => {}
    }
}

/// Two disjoint `&mut` blocks out of the block array.
fn pair_mut(blocks: &mut [AmpBlock], low: usize, high: usize) -> (&mut AmpBlock, &mut AmpBlock) {
    debug_assert!(low < high);
    let (head, tail) = blocks.split_at_mut(high);
    (&mut head[low], &mut tail[0])
}

/// Applies one global record to a coupled block pair (worker-side and
/// sequential fallback).
fn apply_pair(
    record: &DispatchRecord,
    pool: &[f64],
    a: &mut AmpBlock,
    b: &mut AmpBlock,
    block_bits: usize,
) {
    let block_len = 1u64 << block_bits;
    match record.kind {
        // High dense qubit: the pair's blocks are exactly the low/high
        // halves — one fully contiguous, branch-free sweep.
        OpKind::Dense1 => dense1_rows(
            &mut a.re,
            &mut a.im,
            &mut b.re,
            &mut b.im,
            matrix2(pool, record.slot),
        ),
        OpKind::Dense2 => {
            // Mixed 4×4: the low qubit pairs within each block, the high
            // qubit pairs across the two blocks.
            dense2_across_pair(matrix4(pool, record.slot), record.arg0 as usize, a, b);
        }
        OpKind::Mcx => {
            let controls_low = (record.arg0 & (block_len - 1)) as usize;
            let positions = mask_bit_values(controls_low);
            let count = a.re.len() >> positions.len();
            for compact in 0..count {
                let mut index = compact;
                for &bit in &positions {
                    index = insert_bit(index, bit, true);
                }
                std::mem::swap(&mut a.re[index], &mut b.re[index]);
                std::mem::swap(&mut a.im[index], &mut b.im[index]);
            }
        }
        OpKind::Swap => {
            // Low qubit inside the block, high qubit across: global
            // (a=1, b_high=0) ↔ (a=0, b_high=1).
            let bit_a = record.arg0 as usize;
            for compact in 0..a.re.len() / 2 {
                let index = insert_bit(compact, bit_a, true);
                let partner = index ^ bit_a;
                std::mem::swap(&mut a.re[index], &mut b.re[partner]);
                std::mem::swap(&mut a.im[index], &mut b.im[partner]);
            }
        }
        OpKind::Phase => unreachable!("phase records are always block-local"),
    }
}

/// Applies a run of block-local records to one block.
fn apply_local_run(
    records: &[DispatchRecord],
    pool: &[f64],
    block_index: usize,
    block: &mut AmpBlock,
) {
    let block_bits = block.re.len().trailing_zeros() as usize;
    for record in records {
        apply_local_record(record, pool, block_index, block, block_bits);
    }
}

/// Applies one block-local record to one block.
fn apply_local_record(
    record: &DispatchRecord,
    pool: &[f64],
    block_index: usize,
    block: &mut AmpBlock,
    block_bits: usize,
) {
    let block_len = 1usize << block_bits;
    match record.kind {
        OpKind::Dense1 => {
            dense1_block(
                &mut block.re,
                &mut block.im,
                record.arg0 as usize,
                matrix2(pool, record.slot),
            );
        }
        OpKind::Dense2 => dense2_block(
            &mut block.re,
            &mut block.im,
            record.arg0 as usize,
            record.arg1 as usize,
            matrix4(pool, record.slot),
        ),
        OpKind::Phase => {
            let mask = record.arg0 as usize;
            let high = mask >> block_bits;
            if block_index & high != high {
                return;
            }
            let local = mask & (block_len - 1);
            let phase = matrix2(pool, record.slot);
            let (phase_re, phase_im) = (phase[0], phase[1]);
            if local == 0 {
                phase_all(&mut block.re, &mut block.im, phase_re, phase_im);
            } else {
                phase_masked(&mut block.re, &mut block.im, local, phase_re, phase_im);
            }
        }
        OpKind::Mcx => {
            let control_mask = record.arg0 as usize;
            let target_bit = record.arg1 as usize;
            if control_mask & target_bit != 0 {
                // Degenerate: a control on the target can never fire.
                return;
            }
            let high = control_mask >> block_bits;
            if block_index & high != high {
                return;
            }
            mcx_block(
                &mut block.re,
                &mut block.im,
                control_mask & (block_len - 1),
                target_bit,
            );
        }
        OpKind::Swap => swap_block(
            &mut block.re,
            &mut block.im,
            record.arg0 as usize,
            record.arg1 as usize,
        ),
    }
}

/// The 8-value (or 2-value, for phases) matrix slice of a record.
fn matrix2(pool: &[f64], slot: u32) -> &[f64] {
    &pool[slot as usize..]
}

/// The 32-value 4×4 matrix slice of a record.
fn matrix4(pool: &[f64], slot: u32) -> &[f64; 32] {
    (&pool[slot as usize..slot as usize + 32])
        .try_into()
        .expect("dense2 slots are 32 values wide")
}

/// The vectorizable core of every dense 2×2 application: paired low/high
/// component rows of equal length. The multiply-add association is exactly
/// [`Complex`]'s `matrix[0][0] * a + matrix[0][1] * b`, the arithmetic of
/// the sparse engine's split-merge, so both produce the same bits per
/// element.
fn dense1_rows(
    low_re: &mut [f64],
    low_im: &mut [f64],
    high_re: &mut [f64],
    high_im: &mut [f64],
    m: &[f64],
) {
    let (m00r, m00i, m01r, m01i) = (m[0], m[1], m[2], m[3]);
    let (m10r, m10i, m11r, m11i) = (m[4], m[5], m[6], m[7]);
    for (((lr, li), hr), hi) in low_re
        .iter_mut()
        .zip(low_im.iter_mut())
        .zip(high_re.iter_mut())
        .zip(high_im.iter_mut())
    {
        let (ar, ai) = (*lr, *li);
        let (br, bi) = (*hr, *hi);
        *lr = (m00r * ar - m00i * ai) + (m01r * br - m01i * bi);
        *li = (m00r * ai + m00i * ar) + (m01r * bi + m01i * br);
        *hr = (m10r * ar - m10i * ai) + (m11r * br - m11i * bi);
        *hi = (m10r * ai + m10i * ar) + (m11r * bi + m11i * br);
    }
}

/// In-block dense 2×2: splits every `2·bit` chunk into its low/high halves.
fn dense1_block(re: &mut [f64], im: &mut [f64], bit: usize, m: &[f64]) {
    // Small strides pay heavily for a runtime-length inner loop (the
    // vectorizer emits a scalar tail that dominates when runs are 1-8
    // elements long), so dispatch them to const-stride clones where LLVM
    // sees the run length at compile time. Same chunking, same arithmetic,
    // same rounding — only the generated code differs.
    // Copying the matrix to the stack first severs any aliasing question
    // between the coefficient pool and the amplitude slices, so the eight
    // loads hoist out of the sweep.
    let m_local: [f64; 8] = [m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]];
    let m = &m_local[..];
    // Strides 1 and 2 are the pathological run lengths; wider runs already
    // vectorize well from the generic loop (and measured slower through the
    // const clones, which trade the loop for heavier straight-line code).
    match bit {
        1 => return dense1_block_fixed::<1>(re, im, m),
        2 => return dense1_block_fixed::<2>(re, im, m),
        _ => {}
    }
    for (re_chunk, im_chunk) in re
        .chunks_exact_mut(bit << 1)
        .zip(im.chunks_exact_mut(bit << 1))
    {
        let (low_re, high_re) = re_chunk.split_at_mut(bit);
        let (low_im, high_im) = im_chunk.split_at_mut(bit);
        dense1_rows(low_re, low_im, high_re, high_im, m);
    }
}

/// `dense1_block` with the stride as a compile-time constant: identical
/// structure and arithmetic, but the fixed run length lets the compiler
/// unroll the inner rows instead of falling into its scalar
/// variable-length tail.
fn dense1_block_fixed<const BIT: usize>(re: &mut [f64], im: &mut [f64], m: &[f64]) {
    for (re_chunk, im_chunk) in re
        .chunks_exact_mut(BIT << 1)
        .zip(im.chunks_exact_mut(BIT << 1))
    {
        let (low_re, high_re) = re_chunk.split_at_mut(BIT);
        let (low_im, high_im) = im_chunk.split_at_mut(BIT);
        dense1_rows(low_re, low_im, high_re, high_im, m);
    }
}

/// A 4×4 record's coefficients in the form its kernels run, decided once
/// per kernel call (block, block pair or block quad), never per row.
///
/// A matrix whose 16 imaginary parts are all `== 0.0` (of either sign) is
/// [`Matrix4::Real`]: it maps the `re` rows to `re` rows and the `im` rows
/// to `im` rows, so each output component costs 4 multiplies and 4 adds
/// instead of 8 and 8. The real kernels give the complex kernels' bits
/// whenever the amplitudes are finite. The complex sum is `acc = +0.0; acc
/// += mr·vr − mi·vi` over the columns in order (and its `im` twin). With
/// `mi = ±0.0` and `vi` finite, `mi·vi` is a signed zero, so each term
/// equals `mr·vr` except possibly in the sign of a zero. A round-to-nearest
/// sum is `−0.0` only when both operands are, so an `acc` that starts at
/// `+0.0` never holds `−0.0`, and adding a zero of either sign leaves it
/// unchanged. The real kernels keep the column order and the `+0.0` start.
enum Matrix4<'a> {
    /// The real parts, row-major.
    Real([f64; 16]),
    /// The pool's interleaved `re`/`im` pairs, row-major.
    Complex(&'a [f64; 32]),
}

impl<'a> Matrix4<'a> {
    fn of(m: &'a [f64; 32]) -> Self {
        if m.chunks_exact(2).all(|entry| entry[1] == 0.0) {
            Self::Real(std::array::from_fn(|k| m[2 * k]))
        } else {
            Self::Complex(m)
        }
    }

    /// Entry `(row, col)` as `(re, im)`.
    fn entry(&self, row: usize, col: usize) -> (f64, f64) {
        match self {
            Self::Real(m) => (m[row * 4 + col], 0.0),
            Self::Complex(m) => (m[(row * 4 + col) * 2], m[(row * 4 + col) * 2 + 1]),
        }
    }
}

/// The real-coefficient twin of [`dense2_rows`] on one component: four
/// equal-length rows (all `re` or all `im`) of the quad's basis states,
/// each output the column-ordered sum of `m[row][col]·x_col` from `+0.0`.
fn dense2_rows_real(x0: &mut [f64], x1: &mut [f64], x2: &mut [f64], x3: &mut [f64], m: &[f64; 16]) {
    let n = x0.len();
    assert!(
        x1.len() == n && x2.len() == n && x3.len() == n,
        "dense2 rows must have equal lengths"
    );
    for k in 0..n {
        let v = [x0[k], x1[k], x2[k], x3[k]];
        let out: [f64; 4] = std::array::from_fn(|row| {
            let mut acc = 0.0f64;
            for (col, &x) in v.iter().enumerate() {
                acc += m[row * 4 + col] * x;
            }
            acc
        });
        x0[k] = out[0];
        x1[k] = out[1];
        x2[k] = out[2];
        x3[k] = out[3];
    }
}

/// The vectorizable core of every dense 4×4 application: four equal-length
/// component-row pairs holding the quad's basis states in `2·hi + lo` order.
/// Strided callers carve the rows out of their blocks with `split_at_mut`,
/// so the sweep is branch-free streaming with no index arithmetic — the
/// accumulation order matches the old per-quad mat-vec exactly.
#[allow(clippy::too_many_arguments)]
fn dense2_rows(
    r0: &mut [f64],
    i0: &mut [f64],
    r1: &mut [f64],
    i1: &mut [f64],
    r2: &mut [f64],
    i2: &mut [f64],
    r3: &mut [f64],
    i3: &mut [f64],
    m: &[f64; 32],
) {
    let n = r0.len();
    assert!(
        i0.len() == n
            && r1.len() == n
            && i1.len() == n
            && r2.len() == n
            && i2.len() == n
            && r3.len() == n
            && i3.len() == n,
        "dense2 rows must have equal lengths"
    );
    for k in 0..n {
        let v = [
            (r0[k], i0[k]),
            (r1[k], i1[k]),
            (r2[k], i2[k]),
            (r3[k], i3[k]),
        ];
        let mut out = [(0.0f64, 0.0f64); 4];
        for (row, entry) in out.iter_mut().enumerate() {
            let mut acc_re = 0.0f64;
            let mut acc_im = 0.0f64;
            for (col, &(vr, vi)) in v.iter().enumerate() {
                let mr = m[(row * 4 + col) * 2];
                let mi = m[(row * 4 + col) * 2 + 1];
                acc_re += mr * vr - mi * vi;
                acc_im += mr * vi + mi * vr;
            }
            *entry = (acc_re, acc_im);
        }
        r0[k] = out[0].0;
        i0[k] = out[0].1;
        r1[k] = out[1].0;
        i1[k] = out[1].1;
        r2[k] = out[2].0;
        i2[k] = out[2].1;
        r3[k] = out[3].0;
        i3[k] = out[3].1;
    }
}

/// Elements per lane group of the small-stride 4×4 kernel ([`LaneRows`]).
const LANES: usize = 8;

/// The 4×4 of one record laid out per lane for [`LaneRows::apply`]: lane
/// `j` of an 8-element group in half `h` (the `hi` bit) is basis state
/// `2·h + (j & lo != 0)` of its quad, so it computes that row of the matrix.
struct LaneRows {
    lo: usize,
    /// The matrix is [`Matrix4::Real`]: `im` is all zero and unused.
    real: bool,
    /// `re[h][col][j]`, `im[h][col][j]`: column `col` of lane `j`'s row.
    re: [[[f64; LANES]; 4]; 2],
    im: [[[f64; LANES]; 4]; 2],
}

impl LaneRows {
    /// Builds the per-lane rows of a 4×4 whose low qubit has bit value `lo`
    /// (1, 2 or 4).
    fn new(matrix: &Matrix4, lo: usize) -> Self {
        debug_assert!(lo < LANES && lo.is_power_of_two());
        let mut rows = Self {
            lo,
            real: matches!(matrix, Matrix4::Real(_)),
            re: [[[0.0; LANES]; 4]; 2],
            im: [[[0.0; LANES]; 4]; 2],
        };
        for half in 0..2 {
            for col in 0..4 {
                for lane in 0..LANES {
                    let row = 2 * half + usize::from(lane & lo != 0);
                    (rows.re[half][col][lane], rows.im[half][col][lane]) = matrix.entry(row, col);
                }
            }
        }
        rows
    }

    /// Applies the 4×4 to the quads of two paired `hi` halves whose length
    /// is a multiple of [`LANES`].
    fn apply(
        &self,
        low_re: &mut [f64],
        low_im: &mut [f64],
        high_re: &mut [f64],
        high_im: &mut [f64],
    ) {
        match (self.lo, self.real) {
            (1, false) => self.apply_groups::<1>(low_re, low_im, high_re, high_im),
            (2, false) => self.apply_groups::<2>(low_re, low_im, high_re, high_im),
            (4, false) => self.apply_groups::<4>(low_re, low_im, high_re, high_im),
            (1, true) => self.apply_groups_real::<1>(low_re, low_im, high_re, high_im),
            (2, true) => self.apply_groups_real::<2>(low_re, low_im, high_re, high_im),
            (4, true) => self.apply_groups_real::<4>(low_re, low_im, high_re, high_im),
            (lo, _) => unreachable!("lane groups take a low stride of 1, 2 or 4, not {lo}"),
        }
    }

    /// [`dense2_rows`] with the runs of length `LO` packed into whole
    /// 8-element groups: each group of the two halves is read at once, and
    /// each lane takes its `lo` partner from the same group (`x[j & !LO]`,
    /// `x[j | LO]`), so the lanes vectorize however short the runs are. Every
    /// lane sums its row over columns 0–3 from 0.0 in [`dense2_rows`]'s
    /// order, so the results are the same bits.
    fn apply_groups<const LO: usize>(
        &self,
        low_re: &mut [f64],
        low_im: &mut [f64],
        high_re: &mut [f64],
        high_im: &mut [f64],
    ) {
        for (((lr, li), hr), hi) in low_re
            .chunks_exact_mut(LANES)
            .zip(low_im.chunks_exact_mut(LANES))
            .zip(high_re.chunks_exact_mut(LANES))
            .zip(high_im.chunks_exact_mut(LANES))
        {
            let (v_re, v_im) = (lane_columns::<LO>(lr, hr), lane_columns::<LO>(li, hi));
            for (half, (out_re, out_im)) in [(lr, li), (hr, hi)].into_iter().enumerate() {
                let (c_re, c_im) = (&self.re[half], &self.im[half]);
                for j in 0..LANES {
                    let mut acc_re = 0.0f64;
                    let mut acc_im = 0.0f64;
                    for col in 0..4 {
                        let (mr, mi) = (c_re[col][j], c_im[col][j]);
                        let (vr, vi) = (v_re[col][j], v_im[col][j]);
                        acc_re += mr * vr - mi * vi;
                        acc_im += mr * vi + mi * vr;
                    }
                    out_re[j] = acc_re;
                    out_im[j] = acc_im;
                }
            }
        }
    }

    /// The real-coefficient twin of [`LaneRows::apply_groups`]: every lane
    /// sums `m[row][col]·x_col` over columns 0–3 from 0.0, the `re` rows
    /// from the `re` columns and the `im` rows from the `im` columns, the
    /// bits of the complex groups (see [`Matrix4`]).
    fn apply_groups_real<const LO: usize>(
        &self,
        low_re: &mut [f64],
        low_im: &mut [f64],
        high_re: &mut [f64],
        high_im: &mut [f64],
    ) {
        for (((lr, li), hr), hi) in low_re
            .chunks_exact_mut(LANES)
            .zip(low_im.chunks_exact_mut(LANES))
            .zip(high_re.chunks_exact_mut(LANES))
            .zip(high_im.chunks_exact_mut(LANES))
        {
            let (v_re, v_im) = (lane_columns::<LO>(lr, hr), lane_columns::<LO>(li, hi));
            for (half, (out_re, out_im)) in [(lr, li), (hr, hi)].into_iter().enumerate() {
                // Whole-group sums copied out: with stores lane by lane into
                // the `out` slices these groups did not vectorize by lane.
                let c = &self.re[half];
                let sum = |v: &[[f64; LANES]; 4]| -> [f64; LANES] {
                    std::array::from_fn(|j| {
                        let mut acc = 0.0f64;
                        for col in 0..4 {
                            acc += c[col][j] * v[col][j];
                        }
                        acc
                    })
                };
                out_re.copy_from_slice(&sum(&v_re));
                out_im.copy_from_slice(&sum(&v_im));
            }
        }
    }
}

/// Column `col` of every lane's quad in one 8-element group of the two
/// halves of one component: `2·h + l` over the halves, where lane `j` takes
/// `x[j & !LO]` for `l` = 0 and `x[j | LO]` for `l` = 1.
fn lane_columns<const LO: usize>(low: &[f64], high: &[f64]) -> [[f64; LANES]; 4] {
    let group = |x: &[f64]| -> [f64; LANES] { x.try_into().expect("whole lane group") };
    let (low, high) = (group(low), group(high));
    let column = |x: &[f64; LANES], l: usize| std::array::from_fn(|j| x[(j & !LO) | l]);
    [
        column(&low, 0),
        column(&low, LO),
        column(&high, 0),
        column(&high, LO),
    ]
}

/// The lane-group rows of a 4×4 when its low stride is below [`LANES`] and
/// its paired halves hold whole groups; `None` keeps [`dense2_halves`].
fn lane_rows(matrix: &Matrix4, lo: usize, half_len: usize) -> Option<LaneRows> {
    (lo < LANES && half_len >= LANES).then(|| LaneRows::new(matrix, lo))
}

/// Generic 4×4 over two paired `hi` halves: every `2·lo` chunk splits into
/// its `lo` halves, leaving four contiguous rows per quad group. The rows
/// vectorize along runs of length `lo`. A real matrix runs over the `re`
/// halves, then over the `im` halves (at `lo` = 8 that measured faster than
/// one pass over both).
fn dense2_halves(
    low_re: &mut [f64],
    low_im: &mut [f64],
    high_re: &mut [f64],
    high_im: &mut [f64],
    lo: usize,
    matrix: &Matrix4,
) {
    match matrix {
        Matrix4::Complex(m) => {
            for (((rl, il), rh), ih) in low_re
                .chunks_exact_mut(lo << 1)
                .zip(low_im.chunks_exact_mut(lo << 1))
                .zip(high_re.chunks_exact_mut(lo << 1))
                .zip(high_im.chunks_exact_mut(lo << 1))
            {
                let (r0, r1) = rl.split_at_mut(lo);
                let (i0, i1) = il.split_at_mut(lo);
                let (r2, r3) = rh.split_at_mut(lo);
                let (i2, i3) = ih.split_at_mut(lo);
                dense2_rows(r0, i0, r1, i1, r2, i2, r3, i3, m);
            }
        }
        Matrix4::Real(m) => {
            for (low, high) in [(low_re, high_re), (low_im, high_im)] {
                for (l, h) in low
                    .chunks_exact_mut(lo << 1)
                    .zip(high.chunks_exact_mut(lo << 1))
                {
                    let (x0, x1) = l.split_at_mut(lo);
                    let (x2, x3) = h.split_at_mut(lo);
                    dense2_rows_real(x0, x1, x2, x3, m);
                }
            }
        }
    }
}

/// In-block dense 4×4 over the quads `(i, i|lo, i|hi, i|lo|hi)`: every
/// `2·hi` chunk splits into its `hi` halves, whose quads the lane-group
/// kernel applies at a low stride below 8 and [`dense2_halves`] otherwise.
fn dense2_block(re: &mut [f64], im: &mut [f64], lo: usize, hi: usize, m: &[f64; 32]) {
    let matrix = Matrix4::of(m);
    let lanes = lane_rows(&matrix, lo, hi);
    for (re_outer, im_outer) in re
        .chunks_exact_mut(hi << 1)
        .zip(im.chunks_exact_mut(hi << 1))
    {
        let (re_low, re_high) = re_outer.split_at_mut(hi);
        let (im_low, im_high) = im_outer.split_at_mut(hi);
        match &lanes {
            Some(lanes) => lanes.apply(re_low, im_low, re_high, im_high),
            None => dense2_halves(re_low, im_low, re_high, im_high, lo, &matrix),
        }
    }
}

/// Mixed 4×4 (low qubit in-block, high qubit across a block pair): quads are
/// `(a[i], a[i|lo], b[i], b[i|lo])`, so the two blocks are the `hi` halves.
fn dense2_across_pair(m: &[f64; 32], lo: usize, a: &mut AmpBlock, b: &mut AmpBlock) {
    let matrix = Matrix4::of(m);
    match lane_rows(&matrix, lo, a.re.len()) {
        Some(lanes) => lanes.apply(&mut a.re, &mut a.im, &mut b.re, &mut b.im),
        None => dense2_halves(&mut a.re, &mut a.im, &mut b.re, &mut b.im, lo, &matrix),
    }
}

/// Both-high 4×4: the four blocks are the four basis combinations of the two
/// qubits, so the matrix applies elementwise across them — a fully
/// contiguous four-row sweep (per component, for a real matrix).
fn dense2_across_quad(
    m: &[f64; 32],
    v0: &mut AmpBlock,
    v1: &mut AmpBlock,
    v2: &mut AmpBlock,
    v3: &mut AmpBlock,
) {
    match Matrix4::of(m) {
        Matrix4::Complex(m) => dense2_rows(
            &mut v0.re, &mut v0.im, &mut v1.re, &mut v1.im, &mut v2.re, &mut v2.im, &mut v3.re,
            &mut v3.im, m,
        ),
        Matrix4::Real(m) => {
            dense2_rows_real(&mut v0.re, &mut v1.re, &mut v2.re, &mut v3.re, &m);
            dense2_rows_real(&mut v0.im, &mut v1.im, &mut v2.im, &mut v3.im, &m);
        }
    }
}

/// Whole-block phase multiply (all mask bits are high, or the mask is 0).
fn phase_all(re: &mut [f64], im: &mut [f64], phase_re: f64, phase_im: f64) {
    for (r, i) in re.iter_mut().zip(im.iter_mut()) {
        let (ar, ai) = (*r, *i);
        *r = phase_re * ar - phase_im * ai;
        *i = phase_re * ai + phase_im * ar;
    }
}

/// Masked phase multiply over the block-local subspace: peels the mask one
/// bit at a time from the top, restricting to the high half of every
/// `2·bit` chunk, so the innermost sweeps are contiguous [`phase_all`] runs
/// of the mask's lowest bit value — strided streaming instead of per-index
/// bit insertion. Each matching amplitude is multiplied exactly once with
/// the same arithmetic, so results do not depend on the enumeration
/// order.
fn phase_masked(re: &mut [f64], im: &mut [f64], mask: usize, phase_re: f64, phase_im: f64) {
    if mask == 0 {
        phase_all(re, im, phase_re, phase_im);
        return;
    }
    if mask < 4 {
        // A mask of only the two lowest bits leaves contiguous runs of 1-2
        // elements, where the peel degrades to scalar code. A predicated
        // full sweep vectorizes instead: matching lanes get exactly the
        // `phase_all` arithmetic, non-matching lanes are stored back
        // untouched, so results stay bit-identical either way.
        for (index, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let hit = index & mask == mask;
            let (ar, ai) = (*r, *i);
            let rotated_re = phase_re * ar - phase_im * ai;
            let rotated_im = phase_re * ai + phase_im * ar;
            *r = if hit { rotated_re } else { ar };
            *i = if hit { rotated_im } else { ai };
        }
        return;
    }
    let top = 1usize << (usize::BITS as usize - 1 - mask.leading_zeros() as usize);
    let rest = mask ^ top;
    for (rc, ic) in re
        .chunks_exact_mut(top << 1)
        .zip(im.chunks_exact_mut(top << 1))
    {
        let (_, high_re) = rc.split_at_mut(top);
        let (_, high_im) = ic.split_at_mut(top);
        phase_masked(high_re, high_im, rest, phase_re, phase_im);
    }
}

/// In-block MCX: swaps each amplitude pair across `target_bit` where the
/// (block-local) controls are satisfied.
///
/// Instead of scanning the block and testing the control and target bits of
/// every index, it enumerates exactly the swap sources, the indices with
/// every control bit set and the target bit clear, by expanding a compact
/// counter through the fixed bit positions ([`insert_bit`]). The caller
/// skips a control mask that contains the target, which never fires.
fn mcx_block(re: &mut [f64], im: &mut [f64], control_mask: usize, target_bit: usize) {
    let fixed = control_mask | target_bit;
    let free_bits = re.len().trailing_zeros() as usize - fixed.count_ones() as usize;
    let positions = mask_bit_values(fixed);
    for compact in 0..1usize << free_bits {
        let mut index = compact;
        for &bit in &positions {
            index = insert_bit(index, bit, bit != target_bit);
        }
        re.swap(index, index | target_bit);
        im.swap(index, index | target_bit);
    }
}

/// In-block SWAP of two low qubits: exchanges the `a = 1, b = 0` and
/// `a = 0, b = 1` amplitudes by enumerating only the quarter of the block
/// they hold (indices with `bit_a` set and `bit_b` clear).
fn swap_block(re: &mut [f64], im: &mut [f64], bit_a: usize, bit_b: usize) {
    if bit_a == bit_b {
        return;
    }
    let low = bit_a.min(bit_b);
    let high = bit_a.max(bit_b);
    for compact in 0..re.len() / 4 {
        let index = insert_bit(insert_bit(compact, low, false), high, false) | bit_a;
        re.swap(index, index ^ (bit_a | bit_b));
        im.swap(index, index ^ (bit_a | bit_b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PreparedState;
    use crate::reference::DenseReference;

    fn push_all(circuit: &mut QuantumCircuit, gates: impl IntoIterator<Item = QuantumGate>) {
        for gate in gates {
            circuit.push(gate).unwrap();
        }
    }

    /// A state whose amplitude `k` encodes `k`, with no zero component (so
    /// a permutation matrix applied as a 2×2 moves it bit for bit).
    fn indexed_state(num_qubits: usize) -> Vec<Complex> {
        (0..1usize << num_qubits)
            .map(|k| Complex::new(k as f64 + 1.0, -(k as f64) - 0.5))
            .collect()
    }

    /// Asserts that `amplitudes` are within 1e-12 of the reference oracle's
    /// simulation of `circuit` from `|0…0⟩`.
    fn assert_matches_reference(circuit: &QuantumCircuit, amplitudes: &[Complex]) {
        let reference = DenseReference::from_circuit(circuit).unwrap();
        assert_eq!(amplitudes.len(), reference.amplitudes().len());
        for (index, (a, b)) in amplitudes.iter().zip(reference.amplitudes()).enumerate() {
            assert!(
                a.approx_eq(*b, 1e-12),
                "amplitude {index}: plan {a:?} vs reference {b:?}"
            );
        }
    }

    fn assert_execution_matches_reference(circuit: &QuantumCircuit, config: &ExecConfig) {
        let state = SoaStatevector::simulate(circuit, config).unwrap();
        assert_matches_reference(circuit, &state.to_amplitudes());
    }

    fn sample_circuit() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(4);
        push_all(
            &mut circuit,
            [
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
            ],
        );
        circuit
    }

    /// The record count of the fused plan of `gates`, after checking the
    /// plan's amplitudes against the reference oracle.
    fn fused_records(num_qubits: usize, gates: impl IntoIterator<Item = QuantumGate>) -> usize {
        let mut circuit = QuantumCircuit::new(num_qubits);
        push_all(&mut circuit, gates);
        let config = ExecConfig::sequential();
        assert_execution_matches_reference(&circuit, &config);
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
    fn fused_execution_matches_the_reference() {
        assert_execution_matches_reference(&sample_circuit(), &ExecConfig::sequential());
    }

    #[test]
    fn unfused_execution_matches_the_reference() {
        assert_execution_matches_reference(&sample_circuit(), &ExecConfig::baseline());
    }

    #[test]
    fn threaded_execution_matches_the_reference() {
        // One-amplitude-pair cache blocks give the 4-qubit register eight
        // blocks, enough to start the worker pool.
        let config = ExecConfig::auto().with_threads(3).with_block_bits(1);
        assert_execution_matches_reference(&sample_circuit(), &config);
    }

    #[test]
    fn leading_single_qubit_layer_splits_off_as_factors() {
        // H(0) and T(1) come before the CX that first touches their qubits,
        // S(2) acts on a qubit nothing else touches, and the second H(0)
        // follows the CX: it stays, with the CX, in the ops.
        let mut circuit = QuantumCircuit::new(4);
        let cx = QuantumGate::Cx {
            control: 0,
            target: 1,
        };
        push_all(
            &mut circuit,
            [
                QuantumGate::H(0),
                QuantumGate::T(1),
                cx.clone(),
                QuantumGate::H(0),
                QuantumGate::S(2),
            ],
        );
        let mut rest = lower(&circuit);
        let layer = split_product_layer(4, &mut rest);
        assert_eq!(
            rest,
            [
                Lowered::from_gate(&cx),
                Lowered::from_gate(&QuantumGate::H(0))
            ]
        );
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
    fn unfused_compile_from_zero_is_compile_on_the_zero_state() {
        let circuit = sample_circuit();
        let config = ExecConfig::baseline();
        let (layer, plan) = ExecPlan::compile_from_zero(&circuit, &config);
        assert_eq!(layer.num_absorbed(), 0);
        assert_eq!(layer.factors(), [[Complex::ONE, Complex::ZERO]; 4]);
        assert_eq!(plan, ExecPlan::compile(&circuit, &config));
        assert_eq!(plan.num_records(), circuit.num_gates());
    }

    /// Applies one op to a 5-qubit state through a one-record plan on
    /// 2-amplitude blocks (sixteen of them, so `threads > 1` runs on the
    /// worker pool).
    fn apply_single_op(op: &Lowered, threads: usize) -> Vec<Complex> {
        let config = ExecConfig::baseline()
            .with_block_bits(1)
            .with_threads(threads);
        let plan = ExecPlan::from_ops(5, vec![op.clone()], &config);
        let mut state = SoaStatevector::from_amplitudes(&indexed_state(5), plan.block_bits());
        plan.apply_soa(&mut state, &config);
        state.to_amplitudes()
    }

    #[test]
    fn threaded_ops_match_sequential_ops() {
        // A controlled S and a global phase: no gate lowers to either.
        for op in [
            Lowered::D1 {
                bit: 1,
                matrix: QuantumGate::H(0).single_qubit_matrix().unwrap(),
            },
            Lowered::D1 {
                bit: 1 << 4,
                matrix: QuantumGate::Y(4).single_qubit_matrix().unwrap(),
            },
            Lowered::Ph {
                mask: 0b10010,
                phase: Complex::I,
            },
            Lowered::Ph {
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
        let config = ExecConfig::baseline().with_block_bits(1);
        let minus_one = Lowered::Ph {
            mask: 0,
            phase: Complex::real(-1.0),
        };
        let plan = ExecPlan::from_ops(2, vec![minus_one], &config);
        let mut state = SoaStatevector::from_amplitudes(&indexed_state(2), plan.block_bits());
        plan.apply_soa(&mut state, &config);
        for amplitude in state.to_amplitudes() {
            assert!(amplitude.re < 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        // Qubit 2 is one past the 2-qubit register.
        let mut state = SoaStatevector::zero_state(2, 1);
        state.apply_gate(&QuantumGate::H(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_op_panics() {
        let mut state = SoaStatevector::zero_state(2, 1);
        state.apply_gate(&QuantumGate::H(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_phase_mask_panics() {
        // The phase mask names a qubit outside the 2-qubit register; the
        // guard must reject it rather than silently touching nothing.
        let mut state = SoaStatevector::zero_state(2, 1);
        state.apply_gate(&QuantumGate::Cz { a: 0, b: 2 });
    }

    /// The bits of every real and imaginary part, for exact comparison.
    fn amplitude_bits(amplitudes: &[Complex]) -> Vec<(u64, u64)> {
        amplitudes
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// Applies each permutation gate to a 5-qubit state whose amplitude k
    /// encodes k through `SoaStatevector::apply_gate` and checks it bit for
    /// bit against the full scan, which tests every index for the gate's
    /// condition and swaps it with its partner. At 8-amplitude blocks
    /// qubits 0–2 are in-block and 3–4 cross blocks; 2 and 32 amplitudes
    /// move the border.
    fn assert_permutations_match_the_full_scan(gates: &[QuantumGate]) {
        let input = indexed_state(5);
        for block_bits in [3, 1, 5] {
            for gate in gates {
                // Swap each index whose bits under `fixed` read `set` with
                // the index that differs from it in `flip`.
                let (set, fixed, flip) = match gate {
                    QuantumGate::Swap { a, b } => {
                        let both = (1usize << a) | (1usize << b);
                        (1usize << a, both, both)
                    }
                    _ => {
                        // The X family lists its target last.
                        let qubits = gate.qubits();
                        let (target, controls) = qubits.split_last().unwrap();
                        let controls: usize = controls.iter().map(|&q| 1usize << q).sum();
                        let target = 1usize << target;
                        (controls, controls | target, target)
                    }
                };
                let mut full_scan = input.clone();
                for index in 0..full_scan.len() {
                    if index & fixed == set {
                        full_scan.swap(index, index ^ flip);
                    }
                }
                let mut state = SoaStatevector::from_amplitudes(&input, block_bits);
                state.apply_gate(gate);
                assert_eq!(
                    amplitude_bits(&state.to_amplitudes()),
                    amplitude_bits(&full_scan),
                    "{gate:?} at block_bits {block_bits}"
                );
            }
        }
    }

    fn mcx(controls: &[usize], target: usize) -> QuantumGate {
        QuantumGate::Mcx {
            controls: controls.to_vec(),
            target,
        }
    }

    #[test]
    fn half_space_mcx_matches_full_scan() {
        let cx = |control: usize, target: usize| QuantumGate::Cx { control, target };
        let ccx = |control_a: usize, control_b: usize, target: usize| QuantumGate::Ccx {
            control_a,
            control_b,
            target,
        };
        assert_permutations_match_the_full_scan(&[
            QuantumGate::X(1),
            QuantumGate::X(4),
            mcx(&[], 0),
            mcx(&[], 3),
            cx(2, 0),
            cx(4, 1),
            cx(0, 3),
            cx(4, 3),
            ccx(0, 3, 2),
            ccx(1, 2, 4),
            ccx(3, 4, 0),
            mcx(&[0, 1, 3], 4),
            mcx(&[2, 3, 4], 0),
        ]);
    }

    #[test]
    fn half_space_swap_matches_full_scan() {
        assert_permutations_match_the_full_scan(&[
            QuantumGate::Swap { a: 0, b: 2 },
            QuantumGate::Swap { a: 4, b: 1 },
            QuantumGate::Swap { a: 3, b: 4 },
        ]);
    }

    #[test]
    fn control_overlapping_target_is_a_no_op() {
        // "Control set, target clear" can never hold on one qubit, so an
        // Mcx whose control is its target never fires.
        let input = indexed_state(5);
        for block_bits in [3, 1, 5] {
            for gate in [mcx(&[1], 1), mcx(&[0, 3], 3)] {
                let mut state = SoaStatevector::from_amplitudes(&input, block_bits);
                state.apply_gate(&gate);
                assert_eq!(
                    amplitude_bits(&state.to_amplitudes()),
                    amplitude_bits(&input),
                    "{gate:?} at block_bits {block_bits}"
                );
            }
        }
    }

    #[test]
    fn insert_bit_enumerates_fixed_subspaces() {
        // Expanding 0..4 over bit 1 (set) lists indices with bit 1 set.
        let expanded: Vec<usize> = (0..4).map(|k| insert_bit(k, 0b10, true)).collect();
        assert_eq!(expanded, vec![0b010, 0b011, 0b110, 0b111]);
        assert_eq!(mask_bit_values(0b10110), vec![0b10, 0b100, 0b10000]);
    }

    #[test]
    fn num_qubits_is_log2_of_length() {
        assert_eq!(num_qubits_of(&indexed_state(0)), 0);
        assert_eq!(num_qubits_of(&indexed_state(4)), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_slice_panics() {
        let _ = SoaStatevector::from_amplitudes(&[Complex::ONE; 3], 0);
    }

    #[test]
    fn records_have_the_documented_shape() {
        // The dispatch-record encoding is a contract (a future GPU backend
        // interprets it unchanged): pin the lowering of one gate per kind.
        let mut circuit = QuantumCircuit::new(4);
        push_all(
            &mut circuit,
            [
                QuantumGate::H(1),
                QuantumGate::Cz { a: 0, b: 2 },
                QuantumGate::Ccx {
                    control_a: 0,
                    control_b: 1,
                    target: 3,
                },
                QuantumGate::Swap { a: 3, b: 1 },
            ],
        );
        let plan = ExecPlan::compile(&circuit, &ExecConfig::baseline());
        let records = plan.records();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].kind, OpKind::Dense1);
        assert_eq!(records[0].arg0, 0b10);
        assert_eq!(records[1].kind, OpKind::Phase);
        assert_eq!(records[1].arg0, 0b101);
        assert_eq!(records[2].kind, OpKind::Mcx);
        assert_eq!((records[2].arg0, records[2].arg1), (0b11, 0b1000));
        assert_eq!(records[3].kind, OpKind::Swap);
        // Swap operands are normalized to (lower bit, higher bit).
        assert_eq!((records[3].arg0, records[3].arg1), (0b10, 0b1000));
        // Dense matrices occupy 8 pool values, phases 2.
        assert_eq!(plan.matrix_pool().len(), 10);
    }

    #[test]
    fn fusion_batches_adjacent_dense_ops() {
        // A layer of H on 4 qubits with 4-amplitude blocks: qubits 0 and 1
        // are block-local (they already share one sweep per run, so they
        // stay as 2×2 records), while the global H's on qubits 2 and 3
        // batch into one cross-block 4×4.
        let mut circuit = QuantumCircuit::new(4);
        push_all(&mut circuit, (0..4).map(QuantumGate::H));
        let config = ExecConfig::sequential().with_block_bits(2);
        let plan = ExecPlan::compile(&circuit, &config);
        assert_eq!(plan.num_records(), 3);
        // The fusion/clustering passes may reorder commuting ops; check the
        // record shapes as a set.
        let mut shapes: Vec<(OpKind, u64, u64)> = plan
            .records()
            .iter()
            .map(|r| (r.kind, r.arg0, r.arg1))
            .collect();
        shapes.sort_unstable();
        assert_eq!(
            shapes,
            vec![
                (OpKind::Dense1, 1, 0),
                (OpKind::Dense1, 2, 0),
                (OpKind::Dense2, 4, 8),
            ]
        );
        // Under fusion same-qubit denses always merge: X·H collapses to one
        // 2×2 record.
        let mut same = QuantumCircuit::new(2);
        push_all(&mut same, [QuantumGate::H(0), QuantumGate::X(0)]);
        let merged = ExecPlan::compile(&same, &ExecConfig::sequential());
        assert_eq!(merged.num_records(), 1);
        // Without fusion every gate stays one record.
        assert_eq!(
            ExecPlan::compile(&same, &ExecConfig::baseline()).num_records(),
            2
        );
        let unbatched = ExecPlan::compile(&circuit, &ExecConfig::baseline());
        assert_eq!(unbatched.num_records(), 4);
    }

    #[test]
    fn two_qubit_blocks_fuse_into_one_4x4_when_it_replaces_three_records() {
        // The inner-product pair block of the hidden shift, on qubits 3 and
        // 0 of a 4-qubit register (so the block's low qubit is `b`).
        let pair_block = |a: usize, b: usize| {
            let mut pair = QuantumCircuit::new(4);
            push_all(
                &mut pair,
                [
                    QuantumGate::Cz { a, b },
                    QuantumGate::H(b),
                    QuantumGate::H(a),
                    QuantumGate::X(a),
                    QuantumGate::Cz { a, b },
                    QuantumGate::H(b),
                    QuantumGate::H(a),
                ],
            );
            pair
        };
        let (a, b) = (3, 0);
        let pair = pair_block(a, b);
        let config = ExecConfig::sequential();
        let plan = ExecPlan::compile(&pair, &config);
        assert_eq!(plan.num_records(), 1);
        let record = plan.records()[0];
        assert_eq!(
            (record.kind, record.arg0, record.arg1),
            (OpKind::Dense2, 0b1, 0b1000)
        );
        let input: Vec<Complex> = (0..16)
            .map(|k| Complex::new(0.1 * k as f64 - 0.3, 0.05 * (k * k) as f64))
            .collect();
        let mut fused = SoaStatevector::from_amplitudes(&input, plan.block_bits());
        plan.apply_soa(&mut fused, &config);
        let unfused = ExecPlan::compile(&pair, &ExecConfig::baseline());
        let mut expected = SoaStatevector::from_amplitudes(&input, unfused.block_bits());
        unfused.apply_soa(&mut expected, &ExecConfig::baseline());
        let (fused, expected) = (fused.to_amplitudes(), expected.to_amplitudes());
        for (index, (x, y)) in fused.iter().zip(&expected).enumerate() {
            assert!(x.approx_eq(*y, 1e-12), "amplitude {index}: {x:?} vs {y:?}");
        }
        // A lone `H(a); CZ(a, b)` replaces only two records: it stays two.
        let mut lone = QuantumCircuit::new(4);
        push_all(&mut lone, [QuantumGate::H(a), QuantumGate::Cz { a, b }]);
        let plan = ExecPlan::compile(&lone, &config);
        let kinds: Vec<OpKind> = plan.records().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![OpKind::Dense1, OpKind::Phase]);
        // On qubits (2, 0) the 4×4's rows would be shorter than a lane
        // group: the block keeps its records.
        let plan = ExecPlan::compile(&pair_block(2, 0), &config);
        assert!(plan.records().iter().all(|r| r.kind != OpKind::Dense2));
        assert!(plan.num_records() > 1);
    }

    #[test]
    fn an_op_across_two_one_qubit_blocks_merges_them() {
        // `CZ(0, 10)` joins the block of `H(10)` and pulls in the block of
        // `H(0)`: one 4×4 on bits (1, 1024).
        let mut circuit = QuantumCircuit::new(11);
        push_all(
            &mut circuit,
            [
                QuantumGate::H(0),
                QuantumGate::H(10),
                QuantumGate::Cz { a: 0, b: 10 },
            ],
        );
        let plan = ExecPlan::compile(&circuit, &ExecConfig::sequential());
        let shapes: Vec<(OpKind, u64, u64)> = plan
            .records()
            .iter()
            .map(|r| (r.kind, r.arg0, r.arg1))
            .collect();
        assert_eq!(shapes, vec![(OpKind::Dense2, 1, 1024)]);
        let mut state = SoaStatevector::zero_state(11, plan.block_bits());
        plan.apply_soa(&mut state, &ExecConfig::sequential());
        assert_matches_reference(&circuit, &state.to_amplitudes());
    }

    /// Applies a 4×4 to every quad `(i, i|lo, i|hi, i|lo|hi)` of the arrays
    /// one at a time, through `dense2_rows` on one-element rows.
    fn dense2_per_quad(re: &mut [f64], im: &mut [f64], lo: usize, hi: usize, m: &[f64; 32]) {
        for base in (0..re.len()).filter(|index| index & (lo | hi) == 0) {
            let quad = [base, base | lo, base | hi, base | lo | hi];
            let mut r = quad.map(|index| [re[index]]);
            let mut i = quad.map(|index| [im[index]]);
            let [r0, r1, r2, r3] = &mut r;
            let [i0, i1, i2, i3] = &mut i;
            dense2_rows(r0, i0, r1, i1, r2, i2, r3, i3, m);
            for (slot, index) in quad.into_iter().enumerate() {
                re[index] = r[slot][0];
                im[index] = i[slot][0];
            }
        }
    }

    /// Every 4×4 kernel (the lane groups at `lo` 1, 2 and 4, the generic
    /// rows in-block and across a block pair, the quad sweep) on a complex
    /// matrix, a real one and a real one with one `1e-300` imaginary entry,
    /// against the complex per-quad formula, bit for bit. The real matrix's
    /// imaginary parts mix `+0.0` and `−0.0`, and the amplitudes hold both
    /// zeros and exact quarters, whose sums cancel to zero.
    #[test]
    fn lane_group_4x4_matches_dense2_rows_bit_for_bit() {
        let complex: [f64; 32] = std::array::from_fn(|k| ((k * 7 + 3) % 11) as f64 / 5.0 - 1.05);
        let real: [f64; 32] = std::array::from_fn(|k| match (k % 2, k / 2 % 6) {
            (1, _) if k % 3 == 0 => -0.0,
            (1, _) => 0.0,
            (_, 0) => 0.5,
            (_, 1) => -0.5,
            (_, 2) => 0.0,
            (_, 3) => -0.0,
            (_, 4) => 1.0 / 3.0,
            _ => -0.7,
        });
        let mut tiny = real;
        tiny[13] = 1e-300;
        assert!(matches!(Matrix4::of(&complex), Matrix4::Complex(_)));
        assert!(matches!(Matrix4::of(&real), Matrix4::Real(_)));
        assert!(matches!(Matrix4::of(&tiny), Matrix4::Complex(_)));
        let values = |len: usize, salt: usize| -> Vec<f64> {
            (0..len)
                .map(|k| match (k * 7 + salt) % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    2..=4 => ((k * 31 + salt * 17) % 9) as f64 / 4.0 - 1.0,
                    _ => ((k * 31 + salt * 17) % 29) as f64 / 13.0 - 1.1,
                })
                .collect()
        };
        let bits = |x: &[f64]| -> Vec<u64> { x.iter().map(|v| v.to_bits()).collect() };
        for (name, m) in [("complex", &complex), ("real", &real), ("tiny", &tiny)] {
            for lo in [1usize, 2, 4, 8, 16] {
                // Rows of 8 or more take the lane groups at `lo` below 8;
                // rows of 2 and 4, and every row at `lo` 8 and 16, keep the
                // generic rows.
                for row in [2usize, 4, 8, 16, 64].into_iter().filter(|&row| row > lo) {
                    // In-block: two `2·hi` chunks, with rows of `hi`.
                    let (mut re, mut im) = (values(4 * row, lo), values(4 * row, lo + 1));
                    let (mut want_re, mut want_im) = (re.clone(), im.clone());
                    dense2_block(&mut re, &mut im, lo, row, m);
                    dense2_per_quad(&mut want_re, &mut want_im, lo, row, m);
                    let at = format!("{name}: in-block lo {lo}, rows {row}");
                    assert_eq!(bits(&re), bits(&want_re), "{at}");
                    assert_eq!(bits(&im), bits(&want_im), "{at}");
                    // Across a block pair: the blocks are the `hi` halves.
                    let (flat_re, flat_im) = (values(2 * row, lo + 2), values(2 * row, lo + 3));
                    let mut a = AmpBlock {
                        re: flat_re[..row].to_vec(),
                        im: flat_im[..row].to_vec(),
                    };
                    let mut b = AmpBlock {
                        re: flat_re[row..].to_vec(),
                        im: flat_im[row..].to_vec(),
                    };
                    let (mut want_re, mut want_im) = (flat_re, flat_im);
                    dense2_across_pair(m, lo, &mut a, &mut b);
                    dense2_per_quad(&mut want_re, &mut want_im, lo, row, m);
                    let at = format!("{name}: pair lo {lo}, rows {row}");
                    assert_eq!(bits(&[a.re, b.re].concat()), bits(&want_re), "{at}");
                    assert_eq!(bits(&[a.im, b.im].concat()), bits(&want_im), "{at}");
                }
            }
            // Across a block quad: block `k` holds the quads' element `k`.
            for len in [1usize, 8, 64] {
                let (flat_re, flat_im) = (values(4 * len, len), values(4 * len, len + 1));
                let mut blocks: Vec<AmpBlock> = (0..4)
                    .map(|k| AmpBlock {
                        re: flat_re[k * len..(k + 1) * len].to_vec(),
                        im: flat_im[k * len..(k + 1) * len].to_vec(),
                    })
                    .collect();
                let [v0, v1, v2, v3] = &mut blocks[..] else {
                    unreachable!("four blocks")
                };
                dense2_across_quad(m, v0, v1, v2, v3);
                let (mut want_re, mut want_im) = (flat_re, flat_im);
                dense2_per_quad(&mut want_re, &mut want_im, len, 2 * len, m);
                let (got_re, got_im): (Vec<f64>, Vec<f64>) = blocks
                    .iter()
                    .flat_map(|block| block.re.iter().copied().zip(block.im.iter().copied()))
                    .unzip();
                let at = format!("{name}: quad, blocks of {len}");
                assert_eq!(bits(&got_re), bits(&want_re), "{at}");
                assert_eq!(bits(&got_im), bits(&want_im), "{at}");
            }
        }
    }

    #[test]
    fn soa_roundtrip_preserves_amplitudes() {
        let amplitudes: Vec<Complex> = (0..16)
            .map(|k| Complex::new(k as f64, -(k as f64) / 2.0))
            .collect();
        let state = SoaStatevector::from_amplitudes(&amplitudes, 2);
        assert_eq!(state.num_qubits(), 4);
        assert_eq!(state.block_bits(), 2);
        assert_eq!(state.amplitude(13), amplitudes[13]);
        assert_eq!(state.to_amplitudes(), amplitudes);
    }

    #[test]
    fn zero_state_resets_in_place() {
        let mut state = SoaStatevector::zero_state(3, 1);
        state.apply_gate(&QuantumGate::X(2));
        assert_eq!(state.amplitude(0b100), Complex::ONE);
        state.reset();
        assert_eq!(state.amplitude(0), Complex::ONE);
        assert!((state.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_s_t_phases_compose() {
        // T² = S and S² = Z on |1⟩: phases i and −1.
        let one = || SoaStatevector::product_state(&[[Complex::ZERO, Complex::ONE]], 0);
        let mut with_t = one();
        with_t.apply_gate(&QuantumGate::T(0));
        with_t.apply_gate(&QuantumGate::T(0));
        let mut with_s = one();
        with_s.apply_gate(&QuantumGate::S(0));
        assert!(with_t.fidelity(&with_s) > 1.0 - 1e-12);
        assert!(with_t.amplitude(1).approx_eq(Complex::I, 1e-12));
        let mut with_z = one();
        with_z.apply_gate(&QuantumGate::Z(0));
        assert!(with_z.amplitude(1).approx_eq(Complex::real(-1.0), 1e-12));
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let zero = SoaStatevector::zero_state(2, 1);
        let three = SoaStatevector::product_state(&[[Complex::ZERO, Complex::ONE]; 2], 0);
        assert_eq!(zero.fidelity(&three), 0.0);
        assert!((zero.fidelity(&zero) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_state_matches_its_gates_applied_to_zero() {
        // Qubit 3 stays |0⟩ and qubit 4 is |1⟩, so at every block size
        // some factor zeroes half the amplitudes.
        let mut circuit = QuantumCircuit::new(5);
        push_all(
            &mut circuit,
            [
                QuantumGate::H(0),
                QuantumGate::T(0),
                QuantumGate::Y(1),
                QuantumGate::H(2),
                QuantumGate::Rz {
                    qubit: 2,
                    angle: 0.3,
                },
                QuantumGate::X(4),
                QuantumGate::S(4),
            ],
        );
        let mut rest = lower(&circuit);
        let layer = split_product_layer(5, &mut rest);
        assert!(rest.is_empty());
        assert_eq!(layer.num_absorbed(), 4);
        for block_bits in 0..=5 {
            let mut expected = SoaStatevector::zero_state(5, block_bits);
            for gate in &circuit {
                expected.apply_gate(gate);
            }
            let state = SoaStatevector::product_state(layer.factors(), block_bits);
            assert_eq!(state.block_bits(), block_bits);
            for (index, (a, b)) in state
                .to_amplitudes()
                .iter()
                .zip(expected.to_amplitudes())
                .enumerate()
            {
                assert!(
                    a.approx_eq(b, 1e-15),
                    "block_bits {block_bits}, amplitude {index}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn zero_state_is_the_basis_vector_bit_for_bit() {
        for num_qubits in 0..=4 {
            let mut basis = vec![Complex::ZERO; 1 << num_qubits];
            basis[0] = Complex::ONE;
            let bits = |amplitudes: &[Complex]| -> Vec<(u64, u64)> {
                amplitudes
                    .iter()
                    .map(|a| (a.re.to_bits(), a.im.to_bits()))
                    .collect()
            };
            for block_bits in 0..=num_qubits + 1 {
                let state = SoaStatevector::zero_state(num_qubits, block_bits);
                assert_eq!(state.block_bits(), block_bits.min(num_qubits));
                assert_eq!(bits(&state.to_amplitudes()), bits(&basis));
            }
        }
    }

    #[test]
    fn single_gates_match_the_reference() {
        // `apply_gate` (the noise path's entry point) against the oracle,
        // gate by gate over every gate class, on 2-amplitude blocks so that
        // qubits 1–3 take the cross-block branches.
        let gates = [
            QuantumGate::H(0),
            QuantumGate::H(1),
            QuantumGate::H(2),
            QuantumGate::H(3),
            QuantumGate::T(0),
            QuantumGate::Rz {
                qubit: 3,
                angle: 0.7,
            },
            QuantumGate::X(2),
            QuantumGate::Y(0),
            QuantumGate::Z(1),
            QuantumGate::H(2),
            QuantumGate::S(0),
            QuantumGate::Cx {
                control: 0,
                target: 3,
            },
            QuantumGate::Cx {
                control: 3,
                target: 0,
            },
            QuantumGate::Cz { a: 1, b: 3 },
            QuantumGate::Swap { a: 0, b: 2 },
            QuantumGate::Swap { a: 1, b: 3 },
            QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            },
            QuantumGate::Mcx {
                controls: vec![0, 2, 3],
                target: 1,
            },
            QuantumGate::Mcz {
                qubits: vec![0, 1, 3],
            },
        ];
        let mut reference = DenseReference::new(4).unwrap();
        let mut state = SoaStatevector::zero_state(4, 1);
        for gate in gates {
            reference.apply_gate(&gate);
            state.apply_gate(&gate);
            for (index, want) in reference.amplitudes().iter().enumerate() {
                let got = state.amplitude(index);
                assert!(
                    got.approx_eq(*want, 1e-12),
                    "after {gate:?}, amplitude {index}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn pooled_interpreter_matches_sequential() {
        // A circuit with high/low/mixed dense pairs, a high-target MCX and a
        // high-high swap, on 4-amplitude blocks: every dispatch shape runs
        // through the worker pool and must agree with the sequential
        // interpreter bit for bit.
        let mut circuit = QuantumCircuit::new(5);
        push_all(
            &mut circuit,
            [
                QuantumGate::H(0),
                QuantumGate::H(4),
                QuantumGate::H(3),
                QuantumGate::T(2),
                QuantumGate::Ccx {
                    control_a: 0,
                    control_b: 2,
                    target: 4,
                },
                QuantumGate::Swap { a: 3, b: 4 },
                QuantumGate::Cz { a: 1, b: 4 },
                QuantumGate::H(2),
            ],
        );
        let sequential_config = ExecConfig::sequential().with_block_bits(2);
        // 5 qubits on 4-amplitude blocks: eight blocks, enough for the pool.
        let pooled_config = sequential_config.with_threads(4);
        let plan = ExecPlan::compile(&circuit, &sequential_config);
        let mut sequential = SoaStatevector::zero_state(5, plan.block_bits());
        plan.apply_soa(&mut sequential, &sequential_config);
        let mut pooled = SoaStatevector::zero_state(5, plan.block_bits());
        plan.apply_soa(&mut pooled, &pooled_config);
        assert_eq!(pooled, sequential);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn mismatched_block_size_is_rejected() {
        let circuit = QuantumCircuit::new(3);
        let config = ExecConfig::sequential().with_block_bits(1);
        let plan = ExecPlan::compile(&circuit, &config);
        let mut state = SoaStatevector::zero_state(3, 2);
        plan.apply_soa(&mut state, &config);
    }
}
