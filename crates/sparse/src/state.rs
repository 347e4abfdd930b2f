//! The sparse statevector: nonzero amplitudes keyed by basis state.

use crate::{MAX_SPARSE_QUBITS, PRUNE_NORM_EPS};
use qdaflow_quantum::complex::Complex;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::sampling::CumulativeDistribution;
use qdaflow_quantum::{QuantumCircuit, QuantumError, QuantumGate, MAX_SIMULATOR_QUBITS};
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// The state of an `n`-qubit register as a map from basis-state keys to
/// nonzero amplitudes.
///
/// Basis states are indexed with qubit 0 as the least significant bit of the
/// `u64` key, exactly like the dense
/// [`SoaStatevector`](qdaflow_quantum::SoaStatevector). Only amplitudes whose
/// squared magnitude exceeds [`PRUNE_NORM_EPS`] are stored; everything else
/// is implicitly zero. Memory and per-gate cost scale with the number of
/// nonzero entries ([`SparseStatevector::num_nonzero`]), not with `2^n`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseStatevector {
    num_qubits: usize,
    amplitudes: HashMap<u64, Complex>,
}

impl SparseStatevector {
    /// Creates the all-zeros state `|0...0⟩` (one stored amplitude).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] if `num_qubits` exceeds
    /// [`MAX_SPARSE_QUBITS`].
    pub fn new(num_qubits: usize) -> Result<Self, QuantumError> {
        if num_qubits > MAX_SPARSE_QUBITS {
            return Err(QuantumError::TooManyQubits {
                requested: num_qubits,
                maximum: MAX_SPARSE_QUBITS,
            });
        }
        let mut amplitudes = HashMap::with_capacity(1);
        amplitudes.insert(0, Complex::ONE);
        Ok(Self {
            num_qubits,
            amplitudes,
        })
    }

    /// Creates the computational basis state `|basis⟩` (one stored
    /// amplitude).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized registers.
    ///
    /// # Panics
    ///
    /// Panics if `basis >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, basis: u64) -> Result<Self, QuantumError> {
        let mut state = Self::new(num_qubits)?;
        assert!(
            num_qubits >= 64 || basis < 1u64 << num_qubits,
            "basis state out of range"
        );
        state.amplitudes.clear();
        state.amplitudes.insert(basis, Complex::ONE);
        Ok(state)
    }

    /// Runs a full circuit on the all-zeros state and returns the resulting
    /// sparse state.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] for oversized circuits.
    pub fn from_circuit(circuit: &QuantumCircuit) -> Result<Self, QuantumError> {
        let mut state = Self::new(circuit.num_qubits())?;
        state.apply_circuit(circuit);
        Ok(state)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of stored (nonzero) amplitudes — the support size of the
    /// state, and the quantity per-gate cost scales with.
    pub fn num_nonzero(&self) -> usize {
        self.amplitudes.len()
    }

    /// The amplitude of basis state `basis`; zero for states outside the
    /// stored support.
    pub fn amplitude(&self, basis: u64) -> Complex {
        self.amplitudes
            .get(&basis)
            .copied()
            .unwrap_or(Complex::ZERO)
    }

    /// The probability of measuring the basis state `basis`.
    pub fn probability_of(&self, basis: u64) -> f64 {
        self.amplitude(basis).norm_sqr()
    }

    /// Sum of all stored probabilities; 1 up to floating point error (and
    /// pruning below [`PRUNE_NORM_EPS`]) for any state produced by unitary
    /// evolution.
    pub fn norm(&self) -> f64 {
        self.amplitudes.values().map(|a| a.norm_sqr()).sum()
    }

    /// The stored amplitudes in ascending basis-state order — the canonical
    /// enumeration the sampling distribution is built over.
    pub fn sorted_amplitudes(&self) -> Vec<(u64, Complex)> {
        let mut entries: Vec<(u64, Complex)> =
            self.amplitudes.iter().map(|(&k, &a)| (k, a)).collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        entries
    }

    /// Expands the state to a dense amplitude vector in basis order, for
    /// interoperation with the dense simulator's APIs.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::TooManyQubits`] when the register exceeds the
    /// dense simulator's [`MAX_SIMULATOR_QUBITS`] ceiling — the whole reason
    /// this crate exists.
    pub fn dense_amplitudes(&self) -> Result<Vec<Complex>, QuantumError> {
        if self.num_qubits > MAX_SIMULATOR_QUBITS {
            return Err(QuantumError::TooManyQubits {
                requested: self.num_qubits,
                maximum: MAX_SIMULATOR_QUBITS,
            });
        }
        let mut dense = vec![Complex::ZERO; 1usize << self.num_qubits];
        for (&key, &amplitude) in &self.amplitudes {
            dense[key as usize] = amplitude;
        }
        Ok(dense)
    }

    /// Returns the basis state with the highest probability (ties broken by
    /// the lowest key), together with that probability.
    pub fn most_likely(&self) -> (u64, f64) {
        let mut best = (0u64, 0.0f64);
        for (&key, amplitude) in &self.amplitudes {
            let probability = amplitude.norm_sqr();
            if probability > best.1 || (probability == best.1 && best.1 > 0.0 && key < best.0) {
                best = (key, probability);
            }
        }
        best
    }

    /// Applies a single gate in place through the specialized sparse paths:
    /// key remapping for bit flips, in-place phase multiplication for
    /// diagonal gates, and split-merge with pruning for dense single-qubit
    /// gates.
    ///
    /// # Panics
    ///
    /// Panics if the gate references qubits outside of the register; circuits
    /// built through [`QuantumCircuit::push`] can never trigger this.
    pub fn apply_gate(&mut self, gate: &QuantumGate) {
        for qubit in gate.qubits() {
            assert!(
                qubit < self.num_qubits,
                "qubit {qubit} out of range for a {}-qubit register",
                self.num_qubits
            );
        }
        match gate {
            QuantumGate::X(qubit) => {
                let bit = 1u64 << qubit;
                self.remap_keys(|key| key ^ bit);
            }
            QuantumGate::Cx { control, target } => {
                self.apply_mcx(1u64 << control, 1u64 << target);
            }
            QuantumGate::Ccx {
                control_a,
                control_b,
                target,
            } => {
                self.apply_mcx((1u64 << control_a) | (1u64 << control_b), 1u64 << target);
            }
            QuantumGate::Mcx { controls, target } => {
                let mask = controls.iter().map(|&q| 1u64 << q).sum();
                self.apply_mcx(mask, 1u64 << target);
            }
            QuantumGate::Swap { a, b } => {
                self.apply_swap(1u64 << a, 1u64 << b);
            }
            QuantumGate::Cz { a, b } => {
                self.negate_mask((1u64 << a) | (1u64 << b));
            }
            QuantumGate::Mcz { qubits } => {
                let mask = qubits.iter().map(|&q| 1u64 << q).sum();
                self.negate_mask(mask);
            }
            single => {
                let qubit = single.qubits()[0];
                let matrix = single
                    .single_qubit_matrix()
                    .expect("all remaining gates are single-qubit");
                if single.is_diagonal() {
                    // As in the dense plan, a diagonal gate is a phase on
                    // its |1⟩ subspace: only `matrix[1][1]` matters.
                    self.phase_mask(1u64 << qubit, matrix[1][1]);
                } else {
                    self.apply_dense(qubit, &matrix);
                }
            }
        }
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &QuantumCircuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit on {} qubits cannot run on a {}-qubit state",
            circuit.num_qubits(),
            self.num_qubits
        );
        for gate in circuit {
            self.apply_gate(gate);
        }
    }

    /// Applies a whole permutation oracle `|x⟩ → |π(x)⟩` as a single pure
    /// key remapping with zero amplitude arithmetic — the sparse engine's
    /// fast path for the compiled reversible networks of the paper's flow.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not injective on the state's support (a
    /// non-bijective map would silently merge amplitudes).
    pub fn apply_permutation_map<F: Fn(u64) -> u64>(&mut self, map: F) {
        let before = self.amplitudes.len();
        self.remap_keys(map);
        assert_eq!(
            self.amplitudes.len(),
            before,
            "permutation map must be injective on the state's support"
        );
    }

    fn remap_keys<F: Fn(u64) -> u64>(&mut self, map: F) {
        let mut next = HashMap::with_capacity(self.amplitudes.len());
        for (key, amplitude) in self.amplitudes.drain() {
            next.insert(map(key), amplitude);
        }
        self.amplitudes = next;
    }

    /// Multiple-controlled X as key remapping: flip the target bit of every
    /// key with all control bits set.
    fn apply_mcx(&mut self, control_mask: u64, target_bit: u64) {
        if control_mask & target_bit != 0 {
            // A control on the target qubit can never be satisfied alongside
            // a flip of that same bit (the dense plan's `Mcx` record is a
            // no-op for such degenerate inputs too).
            return;
        }
        self.remap_keys(|key| {
            if key & control_mask == control_mask {
                key ^ target_bit
            } else {
                key
            }
        });
    }

    /// SWAP as key remapping: exchange the two bit values of every key where
    /// they differ.
    fn apply_swap(&mut self, bit_a: u64, bit_b: u64) {
        if bit_a == bit_b {
            return;
        }
        self.remap_keys(|key| {
            if (key & bit_a != 0) != (key & bit_b != 0) {
                key ^ (bit_a | bit_b)
            } else {
                key
            }
        });
    }

    /// In-place phase multiplication on the keys with all `mask` bits set
    /// (single-qubit diagonal gates). The support never changes.
    fn phase_mask(&mut self, mask: u64, phase: Complex) {
        for (key, amplitude) in self.amplitudes.iter_mut() {
            if key & mask == mask {
                *amplitude = phase * *amplitude;
            }
        }
    }

    /// Sign flip on the all-ones subspace of `mask` (CZ/MCZ), the dense
    /// plan's phase record of −1.
    fn negate_mask(&mut self, mask: u64) {
        for (key, amplitude) in self.amplitudes.iter_mut() {
            if key & mask == mask {
                *amplitude = -*amplitude;
            }
        }
    }

    /// Dense single-qubit application by split-merge: every occupied
    /// amplitude pair `(key, key ^ bit)` is visited once, the 2×2 matrix is
    /// applied with the missing partner treated as zero, and results below
    /// [`PRUNE_NORM_EPS`] are pruned. The support can at most double.
    fn apply_dense(&mut self, qubit: usize, matrix: &[[Complex; 2]; 2]) {
        let bit = 1u64 << qubit;
        let mut next = HashMap::with_capacity(self.amplitudes.len() * 2);
        for (&key, &amplitude) in &self.amplitudes {
            let is_low = key & bit == 0;
            let partner = key ^ bit;
            if !is_low && self.amplitudes.contains_key(&partner) {
                // The pair is handled when its low element is visited.
                continue;
            }
            let other = self
                .amplitudes
                .get(&partner)
                .copied()
                .unwrap_or(Complex::ZERO);
            let (low, high) = if is_low {
                (amplitude, other)
            } else {
                (other, amplitude)
            };
            let new_low = matrix[0][0] * low + matrix[0][1] * high;
            let new_high = matrix[1][0] * low + matrix[1][1] * high;
            let low_key = key & !bit;
            if new_low.norm_sqr() > PRUNE_NORM_EPS {
                next.insert(low_key, new_low);
            }
            if new_high.norm_sqr() > PRUNE_NORM_EPS {
                next.insert(low_key | bit, new_high);
            }
        }
        self.amplitudes = next;
    }

    /// The precomputed cumulative measurement distribution over the *sorted
    /// nonzero* entries, together with the basis keys each distribution
    /// outcome index maps back to. Because prefix sums over the nonzero
    /// probabilities equal the dense prefix sums at the same positions
    /// (zeros contribute nothing), a uniform draw lands on the same basis
    /// state as the dense sampler's.
    pub fn sampling_distribution(&self) -> (Vec<u64>, CumulativeDistribution) {
        let entries = self.sorted_amplitudes();
        let probabilities: Vec<f64> = entries.iter().map(|(_, a)| a.norm_sqr()).collect();
        let keys = entries.into_iter().map(|(key, _)| key).collect();
        (
            keys,
            CumulativeDistribution::from_probabilities(&probabilities),
        )
    }

    /// Samples `shots` measurements sequentially from `rng` (one `f64` draw
    /// per shot, the same RNG consumption as the dense samplers) into a
    /// sparse histogram of observed basis states.
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        shots: usize,
    ) -> BTreeMap<u64, usize> {
        let (keys, distribution) = self.sampling_distribution();
        if keys.is_empty() {
            return BTreeMap::new();
        }
        collect_counts(&keys, &distribution.sample_counts(rng, shots))
    }

    /// Shot-sharded parallel sampling over the nonzero entries, by
    /// [`CumulativeDistribution::sample_sharded`]'s deterministic
    /// `(seed, shard)` scheme, reproducible at any `config.threads` value and fully determined by
    /// `(seed, shots, config.shot_shard_size)`.
    pub fn sample_counts_sharded(
        &self,
        seed: u64,
        shots: usize,
        config: &ExecConfig,
    ) -> BTreeMap<u64, usize> {
        let (keys, distribution) = self.sampling_distribution();
        if keys.is_empty() {
            return BTreeMap::new();
        }
        let histogram =
            distribution.sample_sharded(seed, shots, config.threads, config.shot_shard_size);
        collect_counts(&keys, &histogram)
    }
}

/// Zips distribution outcome indices back onto basis keys, dropping zero
/// counts.
fn collect_counts(keys: &[u64], histogram: &[usize]) -> BTreeMap<u64, usize> {
    keys.iter()
        .zip(histogram)
        .filter(|(_, &count)| count > 0)
        .map(|(&key, &count)| (key, count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_quantum::{PreparedState, SoaStatevector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn bell_circuit() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(2);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        circuit
    }

    #[test]
    fn initial_state_is_a_single_entry() {
        let state = SparseStatevector::new(40).unwrap();
        assert_eq!(state.num_nonzero(), 1);
        assert_eq!(state.probability_of(0), 1.0);
        assert!((state.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_many_qubits_is_rejected() {
        assert!(matches!(
            SparseStatevector::new(MAX_SPARSE_QUBITS + 1),
            Err(QuantumError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn bell_state_matches_the_dense_simulator() {
        let sparse = SparseStatevector::from_circuit(&bell_circuit()).unwrap();
        assert_eq!(sparse.num_nonzero(), 2);
        assert!((sparse.probability_of(0b00) - 0.5).abs() < 1e-12);
        assert!((sparse.probability_of(0b11) - 0.5).abs() < 1e-12);
        assert!((sparse.amplitude(0b00).re - FRAC_1_SQRT_2).abs() < 1e-12);
        let dense = SoaStatevector::simulate(&bell_circuit(), &ExecConfig::default()).unwrap();
        for (index, expected) in dense.to_amplitudes().iter().enumerate() {
            assert!(sparse.amplitude(index as u64).approx_eq(*expected, 1e-12));
        }
    }

    #[test]
    fn permutation_gates_remap_keys_without_arithmetic() {
        // A 36-qubit register: far beyond the dense ceiling, trivial here.
        let mut state = SparseStatevector::basis_state(36, 0b0111).unwrap();
        state.apply_gate(&QuantumGate::Mcx {
            controls: vec![0, 1, 2],
            target: 35,
        });
        assert_eq!(state.most_likely().0, (1 << 35) | 0b0111);
        state.apply_gate(&QuantumGate::Swap { a: 35, b: 3 });
        assert_eq!(state.most_likely().0, 0b1111);
        state.apply_gate(&QuantumGate::X(0));
        assert_eq!(state.most_likely().0, 0b1110);
        assert_eq!(state.num_nonzero(), 1);
    }

    #[test]
    fn blocked_controls_leave_the_state_unchanged() {
        let mut state = SparseStatevector::basis_state(4, 0b0101).unwrap();
        state.apply_gate(&QuantumGate::Mcx {
            controls: vec![0, 1, 2],
            target: 3,
        });
        assert_eq!(state.most_likely().0, 0b0101);
    }

    #[test]
    fn diagonal_gates_change_phases_in_place() {
        let mut state = SparseStatevector::basis_state(1, 1).unwrap();
        state.apply_gate(&QuantumGate::T(0));
        state.apply_gate(&QuantumGate::T(0));
        assert!(state.amplitude(1).approx_eq(Complex::I, 1e-12));
        assert_eq!(state.num_nonzero(), 1);
        let mut three = SparseStatevector::basis_state(3, 0b111).unwrap();
        three.apply_gate(&QuantumGate::Mcz {
            qubits: vec![0, 1, 2],
        });
        assert!(three.amplitude(0b111).approx_eq(Complex::real(-1.0), 1e-12));
    }

    #[test]
    fn split_merge_prunes_destructive_interference() {
        // H then H returns to a single entry: the split doubles the support,
        // the merge cancels the |1⟩ amplitude exactly and pruning removes it.
        let mut state = SparseStatevector::new(1).unwrap();
        state.apply_gate(&QuantumGate::H(0));
        assert_eq!(state.num_nonzero(), 2);
        state.apply_gate(&QuantumGate::H(0));
        assert_eq!(state.num_nonzero(), 1);
        assert!((state.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_map_applies_whole_oracles() {
        let mut state = SparseStatevector::new(30).unwrap();
        state.apply_gate(&QuantumGate::H(0));
        // |x⟩ → |x + 5 mod 2^30⟩ on the whole register in one remap.
        state.apply_permutation_map(|x| (x + 5) & ((1 << 30) - 1));
        assert!((state.probability_of(5) - 0.5).abs() < 1e-12);
        assert!((state.probability_of(6) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "injective")]
    fn non_injective_permutation_maps_are_rejected() {
        let mut state = SparseStatevector::new(2).unwrap();
        state.apply_gate(&QuantumGate::H(0));
        state.apply_permutation_map(|_| 0);
    }

    #[test]
    fn dagger_circuit_restores_initial_support() {
        let mut circuit = QuantumCircuit::new(3);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::T(1)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 2,
            })
            .unwrap();
        circuit.push(QuantumGate::S(2)).unwrap();
        let mut state = SparseStatevector::new(3).unwrap();
        state.apply_circuit(&circuit);
        state.apply_circuit(&circuit.dagger());
        assert_eq!(state.num_nonzero(), 1);
        assert!((state.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_the_dense_cdf_sampler_draw_for_draw() {
        let circuit = bell_circuit();
        let sparse = SparseStatevector::from_circuit(&circuit).unwrap();
        let dense = SoaStatevector::simulate(&circuit, &ExecConfig::default()).unwrap();
        let mut sparse_rng = StdRng::seed_from_u64(99);
        let mut dense_rng = StdRng::seed_from_u64(99);
        let sparse_counts = sparse.sample_counts(&mut sparse_rng, 512);
        let dense_histogram = CumulativeDistribution::from_amplitudes(&dense.to_amplitudes())
            .sample_counts(&mut dense_rng, 512);
        for (outcome, &count) in dense_histogram.iter().enumerate() {
            assert_eq!(
                sparse_counts.get(&(outcome as u64)).copied().unwrap_or(0),
                count,
                "outcome {outcome}"
            );
        }
    }

    #[test]
    fn sharded_sampling_is_thread_count_invariant() {
        let state = SparseStatevector::from_circuit(&bell_circuit()).unwrap();
        let config = ExecConfig::sequential().with_shot_shard_size(256);
        let reference = state.sample_counts_sharded(7, 5000, &config);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                state.sample_counts_sharded(7, 5000, &config.with_threads(threads)),
                reference,
                "threads={threads}"
            );
        }
        assert_eq!(reference.values().sum::<usize>(), 5000);
        assert!(!reference.contains_key(&0b01));
        assert!(!reference.contains_key(&0b10));
    }

    #[test]
    fn dense_expansion_round_trips_and_respects_the_ceiling() {
        let sparse = SparseStatevector::from_circuit(&bell_circuit()).unwrap();
        let dense = sparse.dense_amplitudes().unwrap();
        assert_eq!(dense.len(), 4);
        assert!((dense[0b11].re - FRAC_1_SQRT_2).abs() < 1e-12);
        let big = SparseStatevector::new(MAX_SIMULATOR_QUBITS + 2).unwrap();
        assert!(matches!(
            big.dense_amplitudes(),
            Err(QuantumError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn most_likely_breaks_ties_by_lowest_key() {
        let state = SparseStatevector::from_circuit(&bell_circuit()).unwrap();
        assert_eq!(state.most_likely().0, 0b00);
    }
}
