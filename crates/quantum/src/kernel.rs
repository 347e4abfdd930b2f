//! The single statevector gate-application kernel.
//!
//! Single-gate state updates ([`Statevector::apply_gate`]) go through
//! [`apply_gate`] in this module. This gate-at-a-time kernel is the
//! reference semantics the unit tests check the plan against: whole
//! circuits execute through an [`ExecPlan`](crate::plan::ExecPlan) — a flat
//! dispatch-record program over a structure-of-arrays amplitude layout —
//! whose sweeps use the same per-element arithmetic as the loops here.
//!
//! The kernel operates on a raw amplitude slice of length `2^n`, with qubit 0
//! as the least significant bit of the basis-state index. Three specialized
//! loops cover the gate classes of the Clifford+T IR:
//!
//! * **diagonal gates** (Z, S, S†, T, T†, Rz, CZ, MCZ) multiply a phase onto
//!   the amplitudes of the matching subspace and never move data,
//! * **classical bit flips** (X via MCX with no controls, CX, CCX, MCX, SWAP)
//!   permute amplitudes without arithmetic,
//! * the remaining **dense single-qubit gates** (H, Y, X when convenient)
//!   apply a full 2×2 unitary to each amplitude pair.
//!
//! [`Statevector::apply_gate`]: crate::statevector::Statevector::apply_gate

use crate::complex::Complex;
use crate::gate::QuantumGate;

/// Number of qubits represented by an amplitude slice.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn num_qubits_of(amplitudes: &[Complex]) -> usize {
    assert!(
        amplitudes.len().is_power_of_two(),
        "amplitude slice length {} is not a power of two",
        amplitudes.len()
    );
    amplitudes.len().trailing_zeros() as usize
}

/// Applies one gate in place to a `2^n` amplitude slice.
///
/// This is the only per-gate dispatch over [`QuantumGate`] that mutates
/// amplitudes anywhere in the workspace.
///
/// # Panics
///
/// Panics if the gate references a qubit outside the register.
pub fn apply_gate(amplitudes: &mut [Complex], gate: &QuantumGate) {
    match gate {
        QuantumGate::Cx { control, target } => apply_mcx(amplitudes, &[*control], *target),
        QuantumGate::Cz { a, b } => apply_mcz(amplitudes, &[*a, *b]),
        QuantumGate::Swap { a, b } => apply_swap(amplitudes, *a, *b),
        QuantumGate::Ccx {
            control_a,
            control_b,
            target,
        } => apply_mcx(amplitudes, &[*control_a, *control_b], *target),
        QuantumGate::Mcx { controls, target } => apply_mcx(amplitudes, controls, *target),
        QuantumGate::Mcz { qubits } => apply_mcz(amplitudes, qubits),
        single => {
            let qubit = single.qubits()[0];
            let matrix = single
                .single_qubit_matrix()
                .expect("all remaining gates are single-qubit");
            if single.is_diagonal() {
                // Diagonal gates have u00 = 1 in this gate set; only the
                // phase on the |1⟩ subspace matters.
                debug_assert!(
                    matrix[0][0].approx_eq(Complex::ONE, 1e-12),
                    "diagonal fast path requires u00 = 1, got {:?} for {gate:?}",
                    matrix[0][0]
                );
                apply_phase(amplitudes, qubit, matrix[1][1]);
            } else {
                apply_single_qubit(amplitudes, qubit, &matrix);
            }
        }
    }
}

/// Applies every gate of `circuit` in order.
///
/// # Panics
///
/// Panics if the circuit references a qubit outside the register.
pub fn apply_circuit(amplitudes: &mut [Complex], circuit: &crate::circuit::QuantumCircuit) {
    for gate in circuit {
        apply_gate(amplitudes, gate);
    }
}

/// Applies an arbitrary 2×2 unitary to one qubit.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn apply_single_qubit(amplitudes: &mut [Complex], qubit: usize, matrix: &[[Complex; 2]; 2]) {
    let bit = checked_bit(amplitudes, qubit);
    for index in 0..amplitudes.len() {
        if index & bit == 0 {
            let low = amplitudes[index];
            let high = amplitudes[index | bit];
            amplitudes[index] = matrix[0][0] * low + matrix[0][1] * high;
            amplitudes[index | bit] = matrix[1][0] * low + matrix[1][1] * high;
        }
    }
}

/// Multiplies `phase` onto every amplitude whose `qubit` bit is set — the
/// fast path for the diagonal gates Z, S, S†, T, T† and Rz.
///
/// # Panics
///
/// Panics if `qubit` is out of range.
pub fn apply_phase(amplitudes: &mut [Complex], qubit: usize, phase: Complex) {
    let bit = checked_bit(amplitudes, qubit);
    for (index, amplitude) in amplitudes.iter_mut().enumerate() {
        if index & bit != 0 {
            *amplitude = phase * *amplitude;
        }
    }
}

/// Applies a multiple-controlled X (X, CX, CCX and MCX for 0, 1, 2 and more
/// controls respectively).
///
/// # Panics
///
/// Panics if any qubit is out of range.
pub fn apply_mcx(amplitudes: &mut [Complex], controls: &[usize], target: usize) {
    let target_bit = checked_bit(amplitudes, target);
    let control_mask = checked_mask(amplitudes, controls);
    mcx_masked(amplitudes, control_mask, target_bit);
}

/// Mask-based MCX core: swaps each amplitude pair selected by `control_mask`
/// across `target_bit`.
///
/// Instead of scanning all `2^n` indices and re-testing the control and
/// target bits, this enumerates exactly the `2^{n-k-1}` swap sources — the
/// indices with every control bit set and the target bit clear — by expanding
/// a compact counter through the fixed bit positions.
pub(crate) fn mcx_masked(amplitudes: &mut [Complex], control_mask: usize, target_bit: usize) {
    if control_mask & target_bit != 0 {
        // A control on the target qubit can never be satisfied alongside a
        // cleared target bit: the gate is a no-op (matching the historical
        // full-scan behaviour for such degenerate inputs).
        return;
    }
    let fixed = control_mask | target_bit;
    let free_bits = num_qubits_of(amplitudes) - fixed.count_ones() as usize;
    let positions = mask_bit_values(fixed);
    for compact in 0..1usize << free_bits {
        // Expand `compact` over the free positions, setting the control bits
        // and leaving the target bit clear.
        let mut index = compact;
        for &bit in &positions {
            index = insert_bit(index, bit, bit != target_bit);
        }
        amplitudes.swap(index, index | target_bit);
    }
}

/// Applies a multiple-controlled Z: flips the sign of the all-ones subspace
/// of `qubits` (Z, CZ and MCZ for 1, 2 and more qubits respectively).
///
/// # Panics
///
/// Panics if any qubit is out of range.
pub fn apply_mcz(amplitudes: &mut [Complex], qubits: &[usize]) {
    let mask = checked_mask(amplitudes, qubits);
    for (index, amplitude) in amplitudes.iter_mut().enumerate() {
        if index & mask == mask {
            *amplitude = -*amplitude;
        }
    }
}

/// Exchanges two qubits.
///
/// # Panics
///
/// Panics if either qubit is out of range.
pub fn apply_swap(amplitudes: &mut [Complex], a: usize, b: usize) {
    let bit_a = checked_bit(amplitudes, a);
    let bit_b = checked_bit(amplitudes, b);
    swap_masked(amplitudes, bit_a, bit_b);
}

/// Bit-value-based SWAP core: exchanges the `a=1,b=0` and `a=0,b=1`
/// amplitudes by enumerating only the `2^{n-2}` affected pairs (indices with
/// `bit_a` set and `bit_b` clear) instead of scanning and re-testing all
/// `2^n` indices.
pub(crate) fn swap_masked(amplitudes: &mut [Complex], bit_a: usize, bit_b: usize) {
    if bit_a == bit_b {
        return;
    }
    let low = bit_a.min(bit_b);
    let high = bit_a.max(bit_b);
    for compact in 0..amplitudes.len() / 4 {
        let index = insert_bit(insert_bit(compact, low, false), high, false) | bit_a;
        amplitudes.swap(index, index ^ (bit_a | bit_b));
    }
}

/// Widens `index` by one bit at position `bit` (a power of two): every bit at
/// or above the position shifts up, and the freed position is set to `value`.
///
/// Iterating a compact counter through `insert_bit` enumerates exactly the
/// subspace of basis states with a fixed value at `bit`, which is how the
/// kernel and the fused executor skip the half (or smaller) of the index
/// space a gate never touches.
pub(crate) fn insert_bit(index: usize, bit: usize, value: bool) -> usize {
    let below = bit - 1;
    ((index & !below) << 1) | (index & below) | if value { bit } else { 0 }
}

/// The bit values (powers of two) present in `mask`, in ascending order —
/// the order in which [`insert_bit`] expansions must be applied.
pub(crate) fn mask_bit_values(mask: usize) -> Vec<usize> {
    let mut positions = Vec::with_capacity(mask.count_ones() as usize);
    let mut rest = mask;
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        positions.push(bit);
        rest ^= bit;
    }
    positions
}

fn checked_bit(amplitudes: &[Complex], qubit: usize) -> usize {
    assert!(
        qubit < num_qubits_of(amplitudes),
        "qubit {qubit} out of range for a {}-qubit register",
        num_qubits_of(amplitudes)
    );
    1usize << qubit
}

fn checked_mask(amplitudes: &[Complex], qubits: &[usize]) -> usize {
    qubits
        .iter()
        .map(|&qubit| checked_bit(amplitudes, qubit))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::QuantumCircuit;

    fn zero_state(num_qubits: usize) -> Vec<Complex> {
        let mut amplitudes = vec![Complex::ZERO; 1 << num_qubits];
        amplitudes[0] = Complex::ONE;
        amplitudes
    }

    #[test]
    fn diagonal_fast_path_matches_dense_application() {
        let gates = [
            QuantumGate::Z(1),
            QuantumGate::S(0),
            QuantumGate::Sdg(2),
            QuantumGate::T(1),
            QuantumGate::Tdg(0),
            QuantumGate::Rz {
                qubit: 2,
                angle: 0.83,
            },
        ];
        for gate in gates {
            // Prepare an arbitrary superposition.
            let mut fast = zero_state(3);
            for qubit in 0..3 {
                apply_gate(&mut fast, &QuantumGate::H(qubit));
            }
            let mut dense = fast.clone();
            apply_gate(&mut fast, &gate);
            let matrix = gate.single_qubit_matrix().unwrap();
            apply_single_qubit(&mut dense, gate.qubits()[0], &matrix);
            for (a, b) in fast.iter().zip(&dense) {
                assert!(a.approx_eq(*b, 1e-12), "{gate:?}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn kernel_applies_whole_circuits() {
        let mut circuit = QuantumCircuit::new(2);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        let mut amplitudes = zero_state(2);
        apply_circuit(&mut amplitudes, &circuit);
        assert!((amplitudes[0b00].norm_sqr() - 0.5).abs() < 1e-12);
        assert!((amplitudes[0b11].norm_sqr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn half_space_mcx_matches_full_scan() {
        // Prepare a distinguishable state: amplitude k encodes its index.
        let make_state = |n: usize| -> Vec<Complex> {
            (0..1usize << n)
                .map(|k| Complex::new(k as f64 + 1.0, -(k as f64)))
                .collect()
        };
        for (controls, target) in [
            (vec![], 0usize),
            (vec![2], 0),
            (vec![0, 3], 2),
            (vec![0, 1, 3], 4),
        ] {
            let mut fast = make_state(5);
            let mut slow = fast.clone();
            apply_mcx(&mut fast, &controls, target);
            // Reference: the pre-fix full scan with per-index re-testing.
            let target_bit = 1usize << target;
            let control_mask: usize = controls.iter().map(|&q| 1usize << q).sum();
            for index in 0..slow.len() {
                if index & control_mask == control_mask && index & target_bit == 0 {
                    slow.swap(index, index | target_bit);
                }
            }
            assert_eq!(fast, slow, "controls {controls:?} target {target}");
        }
    }

    #[test]
    fn control_overlapping_target_is_a_no_op() {
        // The historical full scan could never satisfy "control set, target
        // clear" on the same qubit; the subspace enumeration must agree.
        let mut amplitudes: Vec<Complex> = (0..8).map(|k| Complex::new(k as f64, 0.0)).collect();
        let before = amplitudes.clone();
        mcx_masked(&mut amplitudes, 0b001, 0b001);
        assert_eq!(amplitudes, before);
    }

    #[test]
    fn half_space_swap_matches_full_scan() {
        let mut fast: Vec<Complex> = (0..32)
            .map(|k| Complex::new(k as f64, 2.0 * k as f64))
            .collect();
        let mut slow = fast.clone();
        apply_swap(&mut fast, 1, 4);
        let (bit_a, bit_b) = (1usize << 1, 1usize << 4);
        for index in 0..slow.len() {
            if index & bit_a != 0 && index & bit_b == 0 {
                slow.swap(index, (index & !bit_a) | bit_b);
            }
        }
        assert_eq!(fast, slow);
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
        assert_eq!(num_qubits_of(&zero_state(0)), 0);
        assert_eq!(num_qubits_of(&zero_state(4)), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut amplitudes = zero_state(2);
        apply_gate(&mut amplitudes, &QuantumGate::H(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_slice_panics() {
        let _ = num_qubits_of(&[Complex::ONE; 3]);
    }
}
