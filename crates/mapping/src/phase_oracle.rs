//! Compilation of Boolean functions into diagonal phase oracles.
//!
//! The hidden shift algorithm (Fig. 3 of the paper) queries the bent function
//! through the diagonal unitary `U_f = Σ_x (-1)^{f(x)} |x⟩⟨x|`. RevKit
//! compiles such oracles directly from an ESOP representation of `f`: every
//! cube becomes one multiple-controlled Z gate over the cube's literals
//! (negative literals are conjugated with X gates). Since all gates are
//! diagonal the cube order is irrelevant.

use crate::{toffoli, MappingError};
use qdaflow_boolfn::{Cube, Esop, TruthTable};
use qdaflow_quantum::{QuantumCircuit, QuantumGate};

/// Options controlling phase-oracle compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseOracleOptions {
    /// Use the greedy polarity-optimized ESOP rather than the PPRM.
    pub minimize_esop: bool,
    /// Decompose multi-controlled Z gates into Clifford+T (via an
    /// H-conjugated Toffoli ladder). When `false`, symbolic `mcz` gates are
    /// emitted, which the statevector simulator can still execute directly.
    pub decompose: bool,
}

impl Default for PhaseOracleOptions {
    fn default() -> Self {
        Self {
            minimize_esop: true,
            decompose: false,
        }
    }
}

/// Compiles the diagonal oracle `U_f = Σ_x (-1)^{f(x)} |x⟩⟨x|` for a Boolean
/// function given as a truth table, acting on qubits `0..f.num_vars()`.
///
/// # Errors
///
/// Returns [`MappingError::Quantum`] if an internal gate cannot be appended
/// (which indicates a bug rather than a user error).
///
/// # Example
///
/// ```
/// use qdaflow_boolfn::Expr;
/// use qdaflow_mapping::phase_oracle::{phase_oracle, PhaseOracleOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = Expr::parse("(a & b) ^ (c & d)")?.truth_table(4)?;
/// let oracle = phase_oracle(&f, &PhaseOracleOptions::default())?;
/// // One CZ per cube of the ESOP x0x1 ^ x2x3.
/// assert_eq!(oracle.num_gates(), 2);
/// # Ok(())
/// # }
/// ```
pub fn phase_oracle(
    function: &TruthTable,
    options: &PhaseOracleOptions,
) -> Result<QuantumCircuit, MappingError> {
    let esop = if options.minimize_esop {
        Esop::minimized(function)
    } else {
        Esop::pprm(function)
    };
    phase_oracle_from_esop(&esop, function.num_vars(), options)
}

/// Compiles a phase oracle from an explicit ESOP expression over
/// `num_qubits` qubits.
///
/// # Errors
///
/// Returns [`MappingError::Quantum`] if a cube references a qubit outside of
/// the register.
pub fn phase_oracle_from_esop(
    esop: &Esop,
    num_qubits: usize,
    options: &PhaseOracleOptions,
) -> Result<QuantumCircuit, MappingError> {
    // A constant-1 cube (no literals) contributes a global phase of -1,
    // which is unobservable; it is dropped with a note in the gate stream.
    let needs_ancilla_free_width = num_qubits;
    let mut circuit = QuantumCircuit::new(needs_ancilla_free_width);
    for cube in esop.cubes() {
        append_cube_phase(&mut circuit, cube, options)?;
    }
    Ok(circuit)
}

fn append_cube_phase(
    circuit: &mut QuantumCircuit,
    cube: &Cube,
    options: &PhaseOracleOptions,
) -> Result<(), MappingError> {
    let literals: Vec<(usize, bool)> = cube.literals().collect();
    if literals.is_empty() {
        // Global phase: nothing to apply.
        return Ok(());
    }
    // Conjugate negative literals with X so that the phase fires on the
    // correct minterm pattern.
    let negatives: Vec<usize> = literals
        .iter()
        .filter(|(_, positive)| !positive)
        .map(|(qubit, _)| *qubit)
        .collect();
    for &qubit in &negatives {
        circuit.push(QuantumGate::X(qubit))?;
    }
    let qubits: Vec<usize> = literals.iter().map(|(qubit, _)| *qubit).collect();
    match qubits.len() {
        1 => circuit.push(QuantumGate::Z(qubits[0]))?,
        2 => circuit.push(QuantumGate::Cz {
            a: qubits[0],
            b: qubits[1],
        })?,
        3 if options.decompose => {
            for gate in toffoli::ccz_clifford_t(qubits[0], qubits[1], qubits[2]) {
                circuit.push(gate)?;
            }
        }
        _ => circuit.push(QuantumGate::Mcz { qubits })?,
    }
    for &qubit in &negatives {
        circuit.push(QuantumGate::X(qubit))?;
    }
    Ok(())
}

/// Checks (by exhaustive simulation) that `oracle` realizes the diagonal
/// unitary of `function`: applying the oracle to `H^{⊗n}|0⟩` must produce the
/// state `2^{-n/2} Σ_x (-1)^{f(x)} |x⟩`.
pub fn oracle_matches_function(oracle: &QuantumCircuit, function: &TruthTable) -> bool {
    use qdaflow_quantum::{ExecConfig, PreparedState, SoaStatevector};
    let n = function.num_vars();
    if oracle.num_qubits() < n {
        return false;
    }
    let mut circuit = QuantumCircuit::new(oracle.num_qubits());
    for qubit in 0..n {
        circuit
            .push(QuantumGate::H(qubit))
            .expect("qubit index is in range");
    }
    if circuit.append(oracle).is_err() {
        return false;
    }
    let state = SoaStatevector::simulate(&circuit, &ExecConfig::default())
        .expect("oracle widths are small");
    let magnitude = (1.0 / (1usize << n) as f64).sqrt();
    // A diagonal oracle is only defined up to a global phase (for example,
    // the constant-one ESOP cube contributes an unobservable overall -1), so
    // fix the global sign from the first basis state and require consistency.
    let global_sign = {
        let reference = state.amplitude(0);
        if reference.im.abs() > 1e-9 {
            return false;
        }
        let expected = if function.get(0) { -1.0 } else { 1.0 };
        if (reference.re - expected * magnitude).abs() < 1e-9 {
            1.0
        } else if (reference.re + expected * magnitude).abs() < 1e-9 {
            -1.0
        } else {
            return false;
        }
    };
    (0..(1usize << n)).all(|x| {
        let expected_sign = global_sign * if function.get(x) { -1.0 } else { 1.0 };
        let actual = state.amplitude(x);
        (actual.re - expected_sign * magnitude).abs() < 1e-9 && actual.im.abs() < 1e-9
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_boolfn::{bent::MaioranaMcFarland, Expr, Permutation};

    fn paper_function() -> TruthTable {
        Expr::parse("(a & b) ^ (c & d)")
            .unwrap()
            .truth_table(4)
            .unwrap()
    }

    #[test]
    fn paper_oracle_is_two_cz_gates() {
        let oracle = phase_oracle(&paper_function(), &PhaseOracleOptions::default()).unwrap();
        assert_eq!(oracle.num_gates(), 2);
        assert_eq!(oracle.gate_counts()["cz"], 2);
        assert!(oracle_matches_function(&oracle, &paper_function()));
    }

    #[test]
    fn single_variable_and_constant_functions() {
        let x1 = TruthTable::variable(3, 1).unwrap();
        let oracle = phase_oracle(&x1, &PhaseOracleOptions::default()).unwrap();
        assert_eq!(oracle.gate_counts()["z"], 1);
        assert!(oracle_matches_function(&oracle, &x1));

        let zero = TruthTable::zero(2).unwrap();
        let oracle = phase_oracle(&zero, &PhaseOracleOptions::default()).unwrap();
        assert!(oracle.is_empty());
        assert!(oracle_matches_function(&oracle, &zero));

        // The constant-one function is a global phase: empty oracle matches
        // it up to that global phase, which oracle_matches_function detects
        // as a sign mismatch; the compiled oracle is empty by design.
        let one = TruthTable::one(2).unwrap();
        let oracle = phase_oracle(&one, &PhaseOracleOptions::default()).unwrap();
        assert!(oracle.is_empty());
    }

    #[test]
    fn negative_literals_are_conjugated() {
        // f = !x0 & x1 has a single cube with a negative literal.
        let f = Expr::parse("!a & b").unwrap().truth_table(2).unwrap();
        let oracle = phase_oracle(&f, &PhaseOracleOptions::default()).unwrap();
        assert!(oracle.gate_counts().get("x").copied().unwrap_or(0) >= 2);
        assert!(oracle_matches_function(&oracle, &f));
    }

    #[test]
    fn three_literal_cubes_use_mcz_or_ccz() {
        let f = Expr::parse("a & b & c").unwrap().truth_table(3).unwrap();
        let symbolic = phase_oracle(&f, &PhaseOracleOptions::default()).unwrap();
        assert_eq!(symbolic.gate_counts()["mcz"], 1);
        assert!(oracle_matches_function(&symbolic, &f));
        let decomposed = phase_oracle(
            &f,
            &PhaseOracleOptions {
                minimize_esop: true,
                decompose: true,
            },
        )
        .unwrap();
        assert!(decomposed.is_clifford_t());
        assert_eq!(decomposed.t_count(), 7);
        assert!(oracle_matches_function(&decomposed, &f));
    }

    #[test]
    fn random_functions_produce_correct_oracles() {
        for seed in 0..10usize {
            let f = TruthTable::from_fn(4, |x| ((x * 29 + seed * 13) % 17) < 7).unwrap();
            for minimize in [false, true] {
                let oracle = phase_oracle(
                    &f,
                    &PhaseOracleOptions {
                        minimize_esop: minimize,
                        decompose: false,
                    },
                )
                .unwrap();
                assert!(oracle_matches_function(&oracle, &f), "seed {seed}");
            }
        }
    }

    #[test]
    fn maiorana_mcfarland_oracle_matches_closed_form() {
        let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
        let f = MaioranaMcFarland::with_zero_h(pi).unwrap();
        let tt = f.truth_table().unwrap();
        let oracle = phase_oracle(&tt, &PhaseOracleOptions::default()).unwrap();
        assert!(oracle_matches_function(&oracle, &tt));
    }

    #[test]
    fn oracle_from_explicit_esop() {
        let esop = Esop::new(3, vec![Cube::positive(0b011), Cube::positive(0b100)]).unwrap();
        let oracle = phase_oracle_from_esop(&esop, 3, &PhaseOracleOptions::default()).unwrap();
        let tt = esop.truth_table().unwrap();
        assert!(oracle_matches_function(&oracle, &tt));
    }

    #[test]
    fn oracle_on_too_few_qubits_is_detected() {
        let f = paper_function();
        let oracle = phase_oracle(&f, &PhaseOracleOptions::default()).unwrap();
        let narrow = TruthTable::variable(5, 4).unwrap();
        assert!(!oracle_matches_function(&oracle, &narrow));
    }
}
