//! Clifford+T circuit optimization.
//!
//! Two passes are provided:
//!
//! * [`cancel_adjacent`] — removes adjacent gate/inverse pairs
//!   (`H H`, `T T†`, `CNOT CNOT`, ...),
//! * [`phase_folding`] — a simplified version of the T-par optimization \[69\]
//!   used as the `tpar` step of the RevKit pipeline: within the phase
//!   polynomial picture, π/4-phase gates applied to the same parity of path
//!   variables are merged, and the merged exponent is re-emitted with the
//!   cheapest equivalent gate sequence.
//!
//! Parities are exact for any number of path variables: each wire carries
//! its affine parity as a sorted list of variable ids, and each distinct
//! parity a phase gate acts on is stored once, in one arena. Both passes
//! take time linear in the gate count (for `phase_folding`, times the
//! length of the parities a `CX` combines), and no gate gets a heap
//! allocation of its own.
//!
//! Both passes preserve the circuit's unitary (up to the global phase), which
//! the tests check by statevector comparison.

use qdaflow_quantum::{QuantumCircuit, QuantumGate};
use std::cmp::Ordering;

/// Removes adjacent inverse pairs until none is left, in one stack pass: a
/// gate that inverts the last gate kept so far removes it, so cancellations
/// cascade (`T H H T†` vanishes) and the output has no adjacent inverse
/// pair.
pub fn cancel_adjacent(circuit: &QuantumCircuit) -> QuantumCircuit {
    let mut kept: Vec<QuantumGate> = Vec::with_capacity(circuit.num_gates());
    for gate in circuit {
        if kept.last().is_some_and(|last| is_inverse_pair(last, gate)) {
            kept.pop();
        } else {
            kept.push(gate.clone());
        }
    }
    rebuild(circuit.num_qubits(), kept)
}

fn is_inverse_pair(left: &QuantumGate, right: &QuantumGate) -> bool {
    left.dagger() == *right
}

fn rebuild(num_qubits: usize, gates: Vec<QuantumGate>) -> QuantumCircuit {
    QuantumCircuit::from_gates(num_qubits, gates)
        .expect("optimization passes never introduce new qubits")
}

/// Simplified T-par: merges π/4-phase gates applied to equal parities of path
/// variables. Non-phase gates are left untouched; the merged phase is emitted
/// at the position of its first contributing gate.
pub fn phase_folding(circuit: &QuantumCircuit) -> QuantumCircuit {
    // First pass: track every wire's parity, and add each phase gate's
    // exponent to the term of the parity it acts on. Terms are created in
    // gate order, so they are sorted by their first gate.
    let mut wires = Wires::new(circuit.num_qubits());
    let mut terms = Terms::with_capacity(circuit.num_gates());
    for (index, gate) in circuit.iter().enumerate() {
        match phase_exponent(gate) {
            Some((qubit, exponent)) => {
                terms.add(wires.hashes[qubit], &wires.parities[qubit], index, exponent);
            }
            None => wires.apply(gate),
        }
    }

    // Second pass: emit each merged phase at its first contributing gate
    // and drop the other contributors.
    let mut output: Vec<QuantumGate> = Vec::with_capacity(circuit.num_gates());
    let mut terms = terms.terms.iter().peekable();
    for (index, gate) in circuit.iter().enumerate() {
        match phase_exponent(gate) {
            Some((qubit, _)) => {
                if let Some(term) = terms.next_if(|term| term.first_gate == index) {
                    output.extend(phase_gates_for_exponent(term.exponent, qubit));
                }
            }
            None => output.push(gate.clone()),
        }
    }
    rebuild(circuit.num_qubits(), output)
}

/// Runs adjacent-gate cancellation, phase folding, and a final cancellation
/// pass — the combination used as the `tpar` command of the shell.
pub fn optimize_clifford_t(circuit: &QuantumCircuit) -> QuantumCircuit {
    let cancelled = cancel_adjacent(circuit);
    let folded = phase_folding(&cancelled);
    cancel_adjacent(&folded)
}

/// Path-variable id 0 stands for the constant 1 of an affine parity.
const CONSTANT: u32 = 0;

/// The affine parity every wire carries, over path variables: the wire's
/// value at the start and every value a non-linear gate (`H`, `Y`, a
/// Toffoli target, ...) leaves on it get fresh variables.
struct Wires {
    /// Per wire, the ids of the variables in its parity, sorted ascending.
    parities: Vec<Vec<u32>>,
    /// Per wire, the XOR of [`variable_hash`] over its parity's ids.
    hashes: Vec<u64>,
    next_variable: u32,
    /// The buffer a `CX` builds its target's parity in.
    buffer: Vec<u32>,
}

impl Wires {
    fn new(num_qubits: usize) -> Self {
        let mut wires = Self {
            parities: vec![Vec::new(); num_qubits],
            hashes: vec![0; num_qubits],
            next_variable: CONSTANT + 1,
            buffer: Vec::new(),
        };
        for qubit in 0..num_qubits {
            wires.fresh(qubit);
        }
        wires
    }

    /// Applies a gate that is not a π/4-multiple phase.
    fn apply(&mut self, gate: &QuantumGate) {
        match gate {
            QuantumGate::Cx { control, target } => {
                symmetric_difference(
                    &self.parities[*control],
                    &self.parities[*target],
                    &mut self.buffer,
                );
                std::mem::swap(&mut self.parities[*target], &mut self.buffer);
                self.hashes[*target] ^= self.hashes[*control];
            }
            QuantumGate::X(q) => {
                let parity = &mut self.parities[*q];
                if parity.first() == Some(&CONSTANT) {
                    parity.remove(0);
                } else {
                    parity.insert(0, CONSTANT);
                }
                self.hashes[*q] ^= variable_hash(CONSTANT);
            }
            QuantumGate::Swap { a, b } => {
                self.parities.swap(*a, *b);
                self.hashes.swap(*a, *b);
            }
            QuantumGate::Cz { .. } | QuantumGate::Mcz { .. } => {
                // Diagonal gates do not change the carried values.
            }
            QuantumGate::Ccx { target, .. } | QuantumGate::Mcx { target, .. } => {
                self.fresh(*target);
            }
            other => {
                // H, Y, and phases that are not multiples of π/4: every
                // qubit of the gate starts a fresh parity.
                for qubit in other.qubits() {
                    self.fresh(qubit);
                }
            }
        }
    }

    fn fresh(&mut self, qubit: usize) {
        let variable = self.next_variable;
        self.next_variable = variable
            .checked_add(1)
            .expect("a circuit held in memory has fewer than 2^32 path variables");
        self.parities[qubit].clear();
        self.parities[qubit].push(variable);
        self.hashes[qubit] = variable_hash(variable);
    }
}

/// Writes the sorted symmetric difference of two sorted id lists to `out`.
fn symmetric_difference(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// A 64-bit hash of one path variable (the splitmix64 finalizer). A
/// parity's hash is the XOR over its variables, so a `CX` updates it by
/// XOR and an `X` toggles the constant's hash.
fn variable_hash(variable: u32) -> u64 {
    let mut z = u64::from(variable).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One distinct parity that phase gates act on.
struct Term {
    hash: u64,
    /// Where the parity's ids sit in [`Terms::arena`].
    start: usize,
    len: usize,
    /// Index of the first phase gate on this parity.
    first_gate: usize,
    /// Merged exponent, in units of π/4 modulo 8.
    exponent: u8,
}

/// The distinct parities of a circuit's phase gates, each stored once.
struct Terms {
    terms: Vec<Term>,
    /// Every term's parity ids, back to back.
    arena: Vec<u32>,
    /// Open-addressing table of term ids, probed linearly from the
    /// parity's hash; a hash hit is confirmed by comparing the ids.
    slots: Vec<u32>,
}

impl Terms {
    const EMPTY: u32 = u32::MAX;

    /// Room for up to `max_terms` terms at a load factor of at most 1/2.
    fn with_capacity(max_terms: usize) -> Self {
        Self {
            terms: Vec::new(),
            arena: Vec::new(),
            slots: vec![Self::EMPTY; (2 * max_terms).next_power_of_two()],
        }
    }

    /// Adds `exponent` to the term of `parity`, creating the term at
    /// `gate` if the parity is new.
    fn add(&mut self, hash: u64, parity: &[u32], gate: usize, exponent: u8) {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == Self::EMPTY {
                break;
            }
            let term = &mut self.terms[id as usize];
            if term.hash == hash && self.arena[term.start..term.start + term.len] == *parity {
                term.exponent = (term.exponent + exponent) % 8;
                return;
            }
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = u32::try_from(self.terms.len())
            .expect("a circuit held in memory has fewer than 2^32 phase gates");
        self.terms.push(Term {
            hash,
            start: self.arena.len(),
            len: parity.len(),
            first_gate: gate,
            exponent,
        });
        self.arena.extend_from_slice(parity);
    }
}

/// Returns `Some((qubit, exponent))` when the gate is a pure π/4-multiple
/// phase on a single qubit, with the exponent in `0..8`.
fn phase_exponent(gate: &QuantumGate) -> Option<(usize, u8)> {
    match gate {
        QuantumGate::Z(q) => Some((*q, 4)),
        QuantumGate::S(q) => Some((*q, 2)),
        QuantumGate::Sdg(q) => Some((*q, 6)),
        QuantumGate::T(q) => Some((*q, 1)),
        QuantumGate::Tdg(q) => Some((*q, 7)),
        QuantumGate::Rz { qubit, angle } => {
            let eighth_turns = angle / std::f64::consts::FRAC_PI_4;
            if (eighth_turns - eighth_turns.round()).abs() < 1e-9 {
                Some((*qubit, (eighth_turns.round() as i64).rem_euclid(8) as u8))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The cheapest gate sequence, at most two gates, for a phase of
/// `exponent · π/4` on `qubit` (exponent in `0..8`).
fn phase_gates_for_exponent(exponent: u8, qubit: usize) -> impl Iterator<Item = QuantumGate> {
    use QuantumGate::{Sdg, Tdg, S, T, Z};
    let gates = match exponent {
        0 => [None, None],
        1 => [Some(T(qubit)), None],
        2 => [Some(S(qubit)), None],
        3 => [Some(S(qubit)), Some(T(qubit))],
        4 => [Some(Z(qubit)), None],
        5 => [Some(Z(qubit)), Some(T(qubit))],
        6 => [Some(Sdg(qubit)), None],
        7 => [Some(Tdg(qubit)), None],
        _ => unreachable!("exponents are reduced modulo 8"),
    };
    gates.into_iter().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_quantum::{ExecConfig, PreparedState, SoaStatevector};

    /// Checks unitary equivalence up to global phase by comparing the states
    /// produced from a register prepared in a superposition that is sensitive
    /// to all relative phases.
    fn assert_equivalent(original: &QuantumCircuit, optimized: &QuantumCircuit) {
        assert_eq!(original.num_qubits(), optimized.num_qubits());
        let n = original.num_qubits();
        let mut preparation = QuantumCircuit::new(n);
        for qubit in 0..n {
            preparation.push(QuantumGate::H(qubit)).unwrap();
            preparation
                .push(QuantumGate::Rz {
                    qubit,
                    angle: 0.1 + 0.2 * qubit as f64,
                })
                .unwrap();
        }
        let mut lhs = preparation.clone();
        lhs.append(original).unwrap();
        let mut rhs = preparation;
        rhs.append(optimized).unwrap();
        let a = SoaStatevector::simulate(&lhs, &ExecConfig::default()).unwrap();
        let b = SoaStatevector::simulate(&rhs, &ExecConfig::default()).unwrap();
        assert!(
            a.fidelity(&b) > 1.0 - 1e-9,
            "optimization changed the circuit semantics (fidelity {})",
            a.fidelity(&b)
        );
    }

    fn circuit_of(n: usize, gates: &[QuantumGate]) -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(n);
        for gate in gates {
            circuit.push(gate.clone()).unwrap();
        }
        circuit
    }

    #[test]
    fn adjacent_inverse_pairs_cancel() {
        let circuit = circuit_of(
            2,
            &[
                QuantumGate::H(0),
                QuantumGate::H(0),
                QuantumGate::T(1),
                QuantumGate::Tdg(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
            ],
        );
        let optimized = cancel_adjacent(&circuit);
        assert!(optimized.is_empty());
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn cancellation_cascades() {
        // T H H Tdg collapses completely once the inner pair is removed.
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::T(0),
                QuantumGate::H(0),
                QuantumGate::H(0),
                QuantumGate::Tdg(0),
            ],
        );
        let optimized = cancel_adjacent(&circuit);
        assert!(optimized.is_empty());
    }

    #[test]
    fn phase_folding_merges_t_pairs_on_the_same_wire() {
        let circuit = circuit_of(1, &[QuantumGate::T(0), QuantumGate::T(0)]);
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.num_gates(), 1);
        assert_eq!(optimized.gates()[0], QuantumGate::S(0));
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn phase_folding_merges_across_cnot_conjugation() {
        // T(1); CX(0,1); CX(0,1); T(1) — the parities match, so the two T
        // gates merge into an S even though CNOTs sit between them.
        let circuit = circuit_of(
            2,
            &[
                QuantumGate::T(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::T(1),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 0);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn phase_folding_cancels_t_tdg_on_equal_parity() {
        // Compute/uncompute pattern: T on x0⊕x1 followed later by Tdg on the
        // same parity cancels to nothing.
        let circuit = circuit_of(
            2,
            &[
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::T(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Tdg(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
            ],
        );
        let optimized = optimize_clifford_t(&circuit);
        assert_eq!(optimized.t_count(), 0);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn hadamard_blocks_incorrect_merging() {
        // T; H; T on the same wire must NOT merge (the H changes the basis).
        let circuit = circuit_of(
            1,
            &[QuantumGate::T(0), QuantumGate::H(0), QuantumGate::T(0)],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 2);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn parities_stay_exact_past_128_path_variables() {
        // 130 Hadamards put wire 1 on its 132nd path variable. The T gates
        // around the last H act on different variables and must not merge.
        let mut gates = vec![QuantumGate::H(1); 130];
        gates.extend([QuantumGate::T(1), QuantumGate::H(1), QuantumGate::T(1)]);
        let circuit = circuit_of(2, &gates);
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 2);
        assert_equivalent(&circuit, &optimized);

        // Equal parities still merge that deep: the two T(0) around CX CX
        // become one S.
        let cx = QuantumGate::Cx {
            control: 0,
            target: 1,
        };
        gates.extend([QuantumGate::T(0), cx.clone(), cx, QuantumGate::T(0)]);
        let circuit = circuit_of(2, &gates);
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 2);
        assert_eq!(optimized.num_gates(), circuit.num_gates() - 1);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn x_conjugation_is_tracked_in_the_constant() {
        // X; T; X and a bare T act on different affine functions and must not
        // merge into S.
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::X(0),
                QuantumGate::T(0),
                QuantumGate::X(0),
                QuantumGate::T(0),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 2);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn toffoli_decomposition_t_count_is_preserved_without_merges() {
        let gates = crate::toffoli::ccx_clifford_t(0, 1, 2);
        let circuit = circuit_of(3, &gates);
        let optimized = optimize_clifford_t(&circuit);
        // The 7 T gates of a single Toffoli act on 7 distinct parities; no
        // reduction is possible.
        assert_eq!(optimized.t_count(), 7);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn compute_uncompute_toffoli_pair_loses_all_t_gates() {
        // CCX followed by its own decomposition reversed (i.e. CCX†=CCX)
        // gives the identity; phase folding plus cancellation should remove
        // every T gate.
        let mut gates = crate::toffoli::ccx_clifford_t(0, 1, 2);
        let reversed: Vec<QuantumGate> = crate::toffoli::ccx_clifford_t(0, 1, 2)
            .into_iter()
            .rev()
            .map(|g| g.dagger())
            .collect();
        gates.extend(reversed);
        let circuit = circuit_of(3, &gates);
        let optimized = optimize_clifford_t(&circuit);
        assert_eq!(optimized.t_count(), 0, "optimized:\n{optimized}");
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn rz_multiples_of_pi_over_four_participate_in_folding() {
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::Rz {
                    qubit: 0,
                    angle: std::f64::consts::FRAC_PI_4,
                },
                QuantumGate::T(0),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.num_gates(), 1);
        assert_eq!(optimized.gates()[0], QuantumGate::S(0));
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn non_clifford_rz_is_left_alone() {
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::Rz {
                    qubit: 0,
                    angle: 0.3,
                },
                QuantumGate::T(0),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.num_gates(), 2);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn full_phase_exponent_table() {
        for exponent in 0..8u8 {
            let gates: Vec<QuantumGate> = phase_gates_for_exponent(exponent, 0).collect();
            assert!(gates.len() <= 2);
            let circuit = circuit_of(1, &gates);
            // Compare against a bare sequence of `exponent` T gates.
            let reference = circuit_of(1, &vec![QuantumGate::T(0); exponent as usize]);
            assert_equivalent(&reference, &circuit);
        }
    }
}
