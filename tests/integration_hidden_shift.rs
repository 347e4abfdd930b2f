//! End-to-end tests of the hidden shift application — the paper's complete
//! flow from algorithm description to measured shift.

use qdaflow::classical::{ClassicalSolver, QUANTUM_QUERIES};
use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::prelude::*;

#[test]
fn fig4_instance_is_deterministic_on_the_ideal_simulator() {
    let f = Expr::parse("(x0 & x1) ^ (x2 & x3)")
        .unwrap()
        .truth_table(4)
        .unwrap();
    let instance = HiddenShiftInstance::from_bent_function(&f, 1).unwrap();
    let circuit = instance.build_circuit(OracleStyle::TruthTable).unwrap();
    let outcome = instance.run_ideal(&circuit, 1024).unwrap();
    assert_eq!(outcome.recovered_shift, Some(1));
    assert!((outcome.success_probability - 1.0).abs() < 1e-12);
}

#[test]
fn random_maiorana_mcfarland_instances_recover_their_shift() {
    for seed in 0..4u64 {
        let pi = Permutation::random_seeded(2, seed + 1);
        let h = TruthTable::from_fn(2, |y| (y * 3 + seed as usize) % 4 == 1).unwrap();
        let mm = MaioranaMcFarland::new(pi, h).unwrap();
        let shift = (seed as usize * 5 + 3) % 16;
        let instance = HiddenShiftInstance::from_maiorana_mcfarland(&mm, shift).unwrap();
        for style in [
            OracleStyle::TruthTable,
            OracleStyle::MaioranaMcFarland {
                synthesis: SynthesisChoice::TransformationBased,
            },
            OracleStyle::MaioranaMcFarland {
                synthesis: SynthesisChoice::DecompositionBased,
            },
        ] {
            let circuit = instance.build_circuit(style).unwrap();
            let outcome = instance.run_ideal(&circuit, 128).unwrap();
            assert_eq!(
                outcome.recovered_shift,
                Some(shift),
                "seed {seed}, style {style:?}"
            );
        }
    }
}

#[test]
fn fig7_instance_recovers_shift_five_with_clifford_t_oracles() {
    let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
    let mm = MaioranaMcFarland::with_zero_h(pi).unwrap();
    let instance = HiddenShiftInstance::from_maiorana_mcfarland(&mm, 5).unwrap();
    let circuit = instance
        .build_circuit(OracleStyle::MaioranaMcFarland {
            synthesis: SynthesisChoice::TransformationBased,
        })
        .unwrap();
    assert!(circuit.is_clifford_t());
    assert!(circuit.t_count() > 0);
    let outcome = instance.run_ideal(&circuit, 1024).unwrap();
    assert_eq!(outcome.recovered_shift, Some(5));
    assert!((outcome.success_probability - 1.0).abs() < 1e-12);
}

#[test]
fn noisy_backend_reproduces_the_fig6_regime() {
    // Three runs of 1024 shots on the noisy model: the correct shift must
    // dominate with probability well below 1 but far above the uniform
    // 1/16 = 0.0625 floor (the paper reports ≈ 0.63 on the IBM QE chip).
    let f = Expr::parse("(x0 & x1) ^ (x2 & x3)")
        .unwrap()
        .truth_table(4)
        .unwrap();
    let instance = HiddenShiftInstance::from_bent_function(&f, 1).unwrap();
    let circuit = instance.build_circuit(OracleStyle::TruthTable).unwrap();
    let mut total = 0.0;
    for run in 0..3u64 {
        let outcome = instance
            .run_noisy(&circuit, NoiseModel::ibm_qx_2017(), 1024, 42 + run)
            .unwrap();
        assert_eq!(outcome.recovered_shift, Some(1), "run {run}");
        total += outcome.success_probability;
    }
    let average = total / 3.0;
    assert!(average > 0.45, "average success probability {average}");
    assert!(average < 0.95, "noise should be visible, got {average}");
}

#[test]
fn quantum_query_advantage_over_classical_solvers() {
    let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
    let mm = MaioranaMcFarland::with_zero_h(pi).unwrap();
    let f = mm.truth_table().unwrap();
    let g = f.xor_shift(5);
    let classical = ClassicalSolver::new().solve_by_elimination(&f, &g);
    assert_eq!(classical.shift, Some(5));
    assert!(classical.queries > 10 * QUANTUM_QUERIES);
}

#[test]
fn resource_counter_backend_reports_oracle_costs() {
    let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
    let mm = MaioranaMcFarland::with_zero_h(pi).unwrap();
    let instance = HiddenShiftInstance::from_maiorana_mcfarland(&mm, 5).unwrap();
    let circuit = instance
        .build_circuit(OracleStyle::MaioranaMcFarland {
            synthesis: SynthesisChoice::TransformationBased,
        })
        .unwrap();
    let mut counter = qdaflow::quantum::backend::ResourceCounterBackend;
    let outcome = instance.run_on(&mut counter, &circuit, 0).unwrap();
    assert_eq!(outcome.recovered_shift, None);
    assert!(outcome.execution.resources.t_count > 0);
    assert!(outcome.execution.resources.h_count >= 3 * 6);
}

/// A dense job (`ExecPlan::compile_from_zero`) starts from the product
/// state the 20-qubit hidden shift's leading Hadamard layer (with the
/// shift's `X` gates) makes of `|0…0⟩`.
/// What is left is one independent block per inner-product pair
/// (i, i + 10), `CZ; H; H·X; CZ; H; H`, and the fusion walk makes each
/// block one 4×4 record: 10 records, against 54 without it — on the
/// instance of the `plan_kernel` bench and two more shifts. `ExecPlan::compile`
/// makes no product split, yet the walk merges each leading `H` pair into
/// its pair's block, so it gives the same 10 records. Every block is `H`,
/// `X` and `CZ`, so every 4×4 is real (its 16 imaginary pool entries are
/// zero) and takes the kernels' real-coefficient path, half the arithmetic
/// of a complex one.
#[test]
fn twenty_qubit_job_plan_starts_after_the_leading_layer() {
    use qdaflow::quantum::{ExecPlan, OpKind};
    let mm = MaioranaMcFarland::inner_product(10);
    let pairs: Vec<(u64, u64)> = (0..10).map(|i| (1 << i, 1 << (i + 10))).collect();
    for shift in [0b10_1101_1001, 0xb_6526, 0xf_83e0] {
        let instance = HiddenShiftInstance::from_maiorana_mcfarland(&mm, shift).unwrap();
        let circuit = instance
            .build_circuit(OracleStyle::MaioranaMcFarland {
                synthesis: SynthesisChoice::TransformationBased,
            })
            .unwrap();
        let config = ExecConfig::sequential();
        let compiled = ExecPlan::compile(&circuit, &config);
        let (layer, job) = ExecPlan::compile_from_zero(&circuit, &config);
        assert_eq!(layer.num_absorbed(), 20);
        for (plan, name) in [(&job, "job"), (&compiled, "compile")] {
            assert_eq!(plan.num_records(), 10, "shift {shift:#x}: {name}");
            let mut records: Vec<(u64, u64)> = plan
                .records()
                .iter()
                .map(|record| {
                    assert_eq!(record.kind, OpKind::Dense2, "shift {shift:#x}: {name}");
                    let slot = record.slot as usize;
                    assert!(
                        (0..16).all(|k| plan.matrix_pool()[slot + 2 * k + 1] == 0.0),
                        "shift {shift:#x}: {name}, the 4×4 on ({}, {}) is not real",
                        record.arg0,
                        record.arg1
                    );
                    (record.arg0, record.arg1)
                })
                .collect();
            records.sort_unstable();
            assert_eq!(records, pairs, "shift {shift:#x}: {name}, one 4×4 per pair");
        }
    }
}
