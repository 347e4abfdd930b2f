//! Golden-file tests for the OpenQASM exporter and the ASCII circuit drawer
//! on the paper's compiled hidden-shift circuits.
//!
//! * **Fig. 5**: the truth-table-oracle compilation of the Fig. 4 program
//!   (`f = x0 x1 ⊕ x2 x3`, shift `s = 1`).
//! * **Fig. 8**: the structured Maiorana–McFarland compilation with a
//!   RevKit-synthesized permutation oracle (transformation-based synthesis).
//!
//! The expected outputs are committed under `tests/goldens/`. Any change to
//! gate lowering, oracle compilation, QASM formatting or the drawer shows up
//! as a golden diff. To regenerate after an intentional change, run
//! `UPDATE_GOLDENS=1 cargo test --test golden_files` and review the diff.
//!
//! The Section V synthesis table (`table_synthesis`) is pinned here too, as
//! quality figures that may only improve: each row's T-count and CNOT count
//! are ceilings and its qubit count is exact.

use qdaflow::codegen::{hidden_shift_driver, permutation_oracle_namespace, QsharpOptions};
use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::prelude::*;
use qdaflow::quantum::{drawer, qasm};
use qdaflow::reversible::synthesis::SynthesisMethod;
use std::path::Path;

const TBS: SynthesisMethod = SynthesisMethod::TransformationBased;
const DBS: SynthesisMethod = SynthesisMethod::DecompositionBased;

/// The rows `table_synthesis` prints: benchmark, synthesis method, and the
/// T-count, CNOT count and qubit count of its equation (5) output.
const SYNTHESIS_TABLE: [(&str, SynthesisMethod, usize, usize, usize); 18] = [
    ("hwb3", TBS, 24, 28, 3),
    ("hwb3", DBS, 24, 25, 3),
    ("hwb4", TBS, 69, 81, 5),
    ("hwb4", DBS, 87, 99, 5),
    ("hwb5", TBS, 513, 584, 7),
    ("hwb5", DBS, 386, 422, 7),
    ("hwb6", TBS, 1749, 1981, 9),
    ("hwb6", DBS, 1215, 1340, 9),
    ("random3", TBS, 0, 2, 3),
    ("random3", DBS, 0, 2, 3),
    ("random4", TBS, 97, 107, 5),
    ("random4", DBS, 75, 87, 5),
    ("random5", TBS, 488, 555, 7),
    ("random5", DBS, 404, 448, 7),
    ("random6", TBS, 1854, 2090, 9),
    ("random6", DBS, 1402, 1540, 9),
    ("fig7-pi", TBS, 7, 9, 3),
    ("fig7-pi", DBS, 19, 19, 3),
];

/// The specification of a `table_synthesis` benchmark, with the binary's
/// seeds for the random permutations.
fn synthesis_table_input(benchmark: &str) -> Permutation {
    if let Some(n) = benchmark.strip_prefix("hwb") {
        qdaflow::boolfn::hwb::hwb_permutation(n.parse().unwrap())
    } else if let Some(n) = benchmark.strip_prefix("random") {
        let n: usize = n.parse().unwrap();
        Permutation::random_seeded(n, 0xBEEF + n as u64)
    } else {
        assert_eq!(benchmark, "fig7-pi");
        Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap()
    }
}

/// The Fig. 4/5 circuit: truth-table phase oracles.
fn fig5_circuit() -> QuantumCircuit {
    let f = Expr::parse("(x0 & x1) ^ (x2 & x3)")
        .unwrap()
        .truth_table(4)
        .unwrap();
    let instance = HiddenShiftInstance::from_bent_function(&f, 1).unwrap();
    instance.build_circuit(OracleStyle::TruthTable).unwrap()
}

/// The Fig. 7/8 circuit: Maiorana–McFarland with a synthesized permutation
/// oracle (`π = [2, 0, 3, 1]`, `h = 0`, shift `s = 5`).
fn fig8_circuit() -> QuantumCircuit {
    let pi = Permutation::new(vec![2, 0, 3, 1]).unwrap();
    let mm = MaioranaMcFarland::with_zero_h(pi).unwrap();
    let instance = HiddenShiftInstance::from_maiorana_mcfarland(&mm, 5).unwrap();
    instance
        .build_circuit(OracleStyle::MaioranaMcFarland {
            synthesis: SynthesisChoice::TransformationBased,
        })
        .unwrap()
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with UPDATE_GOLDENS=1", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn fig5_qasm_export_matches_golden() {
    check_golden("fig5_truth_table.qasm", &qasm::to_qasm(&fig5_circuit()));
}

#[test]
fn fig5_drawing_matches_golden() {
    check_golden("fig5_truth_table.txt", &drawer::draw(&fig5_circuit()));
}

#[test]
fn fig8_qasm_export_matches_golden() {
    check_golden(
        "fig8_maiorana_mcfarland.qasm",
        &qasm::to_qasm(&fig8_circuit()),
    );
}

#[test]
fn fig8_drawing_matches_golden() {
    check_golden(
        "fig8_maiorana_mcfarland.txt",
        &drawer::draw(&fig8_circuit()),
    );
}

/// The Fig. 10 Q# source: the RevKit-preprocessed permutation-oracle
/// namespace for `π = [0, 2, 3, 5, 7, 1, 4, 6]` plus the hand-written
/// hidden-shift driver of Fig. 9 — exactly what the `qsharp_codegen`
/// example prints.
fn fig10_qsharp_source() -> String {
    let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
    let namespace = permutation_oracle_namespace(&pi, &QsharpOptions::default()).unwrap();
    let driver = hidden_shift_driver("Microsoft.Quantum.HiddenShift");
    format!("{namespace}\n{driver}")
}

#[test]
fn fig10_qsharp_codegen_matches_golden() {
    check_golden("fig10_qsharp.qs", &fig10_qsharp_source());
}

#[test]
fn fig5_golden_qasm_round_trips_through_the_importer() {
    // The exported QASM (identical to the committed golden per the test
    // above) is itself valid input for our importer, and re-exporting the
    // imported circuit is a fixed point. Built from the circuit rather than
    // read from disk so regeneration runs don't race the writer tests.
    let exported = qasm::to_qasm(&fig5_circuit());
    let circuit = qasm::from_qasm(&exported).unwrap();
    assert_eq!(qasm::to_qasm(&circuit), exported);
}

#[test]
fn synthesis_table_costs_never_rise() {
    let mut regressions = Vec::new();
    for (benchmark, method, t_count, cnots, qubits) in SYNTHESIS_TABLE {
        let input = synthesis_table_input(benchmark);
        let counts = qdaflow::flow::compile_permutation(&input, method)
            .unwrap()
            .optimized;
        if counts.t_count > t_count || counts.cnot_count > cnots || counts.num_qubits != qubits {
            regressions.push(format!(
                "{benchmark}/{}: T-count {} (ceiling {t_count}), CNOTs {} (ceiling {cnots}), \
                 qubits {} (pinned {qubits})",
                method.command_name(),
                counts.t_count,
                counts.cnot_count,
                counts.num_qubits
            ));
        }
    }
    assert!(
        regressions.is_empty(),
        "synthesis table rows rose:\n{}",
        regressions.join("\n")
    );
}
