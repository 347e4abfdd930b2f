//! The Aaronson–Gottesman stabilizer tableau: packed bit-columns, CHP
//! conjugation updates, deterministic/random measurement, and the affine
//! support in closed form for shot sampling.
//!
//! # Representation
//!
//! The tableau tracks `2n + 1` Pauli rows — destabilizers `0..n`,
//! stabilizers `n..2n`, and one scratch row used by deterministic
//! measurement — in **column-major** packed form: for each qubit `q` there
//! is one `Vec<u64>` bitvector over rows for the X-part and one for the
//! Z-part, plus a shared phase bitvector `r` (bit set ⇔ the row's sign is
//! `-1`). Single- and two-qubit Clifford conjugations then touch only the
//! affected qubit columns and run as whole-word boolean operations over all
//! rows at once — `O(n/64)` words per gate instead of `O(n)` bit updates.
//!
//! # Update rules
//!
//! Writing `x`, `z`, `r` for a row's bits on the gate's qubit, the
//! conjugation rules (standard CHP, with S† and the Pauli gates derived by
//! composition) are:
//!
//! | gate     | update                                                     |
//! |----------|------------------------------------------------------------|
//! | H(q)     | `r ^= x·z`; swap `x` and `z`                                |
//! | S(q)     | `r ^= x·z`; `z ^= x`                                        |
//! | S†(q)    | `r ^= x·¬z`; `z ^= x`                                       |
//! | X(q)     | `r ^= z`                                                    |
//! | Y(q)     | `r ^= x ^ z`                                                |
//! | Z(q)     | `r ^= x`                                                    |
//! | CX(c,t)  | `r ^= x_c·z_t·¬(x_t ^ z_c)`; `x_t ^= x_c`; `z_c ^= z_t`     |
//! | CZ(a,b)  | composed as `H(b)·CX(a,b)·H(b)`                             |
//! | SWAP(a,b)| swap the two qubit columns                                  |
//!
//! `Rz` at an exact multiple of π/2 (the same `1e-9` quarter-turn tolerance
//! as [`QuantumGate::is_clifford`]) snaps to identity/S/Z/S†, and `MCZ`
//! over one or two qubits lowers to Z/CZ; everything else is rejected with
//! the typed [`StabilizerError::NonClifford`].

use crate::{MAX_SAMPLING_RANK, MAX_STABILIZER_QUBITS};
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::sampling;
use qdaflow_quantum::{QuantumCircuit, QuantumError, QuantumGate};
use rand::Rng;
use std::collections::BTreeMap;
use std::error::Error;
use std::f64::consts::FRAC_PI_2;
use std::fmt;

/// Errors produced by the stabilizer tableau layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StabilizerError {
    /// A gate outside the tableau-supported Clifford group was applied.
    NonClifford {
        /// The gate's mnemonic (see [`QuantumGate::name`]).
        gate: &'static str,
    },
    /// A gate references a qubit outside the tableau's register.
    QubitOutOfRange {
        /// The referenced qubit.
        qubit: usize,
        /// Number of qubits in the tableau.
        num_qubits: usize,
    },
    /// The register exceeds [`MAX_STABILIZER_QUBITS`].
    TooManyQubits {
        /// Requested number of qubits.
        requested: usize,
        /// Maximum supported by the tableau.
        maximum: usize,
    },
    /// The final state's support is too large to sample: more than
    /// `2^`[`MAX_SAMPLING_RANK`] outcomes, more than one `f64` draw can
    /// reach.
    SupportTooLarge {
        /// The support's GF(2) rank (log₂ of the outcome count).
        rank: usize,
        /// The sampling cap, [`MAX_SAMPLING_RANK`].
        maximum: usize,
    },
    /// A support element sets a basis bit beyond what a `usize` outcome can
    /// carry, so the histogram representation of
    /// [`ExecutionResult`](qdaflow_quantum::backend::ExecutionResult) cannot
    /// hold it.
    OutcomeOverflow {
        /// The offending (0-based) qubit index.
        qubit: usize,
    },
}

impl fmt::Display for StabilizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonClifford { gate } => {
                write!(f, "gate '{gate}' is not Clifford; the stabilizer tableau only simulates the Clifford group")
            }
            Self::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} is out of range for a tableau on {num_qubits} qubits"
                )
            }
            Self::TooManyQubits { requested, maximum } => write!(
                f,
                "a tableau on {requested} qubits exceeds the supported maximum of {maximum}"
            ),
            Self::SupportTooLarge { rank, maximum } => write!(
                f,
                "the state's support has rank {rank} (2^{rank} outcomes), beyond the sampling cap of rank {maximum}"
            ),
            Self::OutcomeOverflow { qubit } => write!(
                f,
                "a support element sets qubit {qubit}, beyond the usize outcome width"
            ),
        }
    }
}

impl Error for StabilizerError {}

impl From<StabilizerError> for QuantumError {
    /// Degrades stabilizer errors onto the shared quantum error vocabulary
    /// (what [`Backend`](qdaflow_quantum::backend::Backend) implementations
    /// must speak): `NonClifford` becomes [`QuantumError::UnsupportedGate`],
    /// `SupportTooLarge` becomes [`QuantumError::SupportTooLarge`] with the
    /// same rank and cap, and the other capacity errors become
    /// [`QuantumError::TooManyQubits`] over the relevant bound (register
    /// size or outcome bit width).
    fn from(inner: StabilizerError) -> Self {
        match inner {
            StabilizerError::NonClifford { gate } => QuantumError::UnsupportedGate {
                gate,
                operation: "the stabilizer tableau",
            },
            StabilizerError::QubitOutOfRange { qubit, num_qubits } => {
                QuantumError::QubitOutOfRange { qubit, num_qubits }
            }
            StabilizerError::TooManyQubits { requested, maximum } => {
                QuantumError::TooManyQubits { requested, maximum }
            }
            StabilizerError::SupportTooLarge { rank, maximum } => {
                QuantumError::SupportTooLarge { rank, maximum }
            }
            StabilizerError::OutcomeOverflow { qubit } => QuantumError::TooManyQubits {
                requested: qubit + 1,
                maximum: usize::BITS as usize,
            },
        }
    }
}

/// Reads bit `row` of a packed column.
fn bit(column: &[u64], row: usize) -> bool {
    (column[row >> 6] >> (row & 63)) & 1 == 1
}

/// Writes bit `row` of a packed column.
fn set_bit(column: &mut [u64], row: usize, value: bool) {
    let mask = 1u64 << (row & 63);
    if value {
        column[row >> 6] |= mask;
    } else {
        column[row >> 6] &= !mask;
    }
}

/// The Aaronson–Gottesman tableau of a stabilizer state on `n` qubits.
///
/// Created in the `|0…0⟩` state by [`StabilizerTableau::new`] (destabilizer
/// `i` = `X_i`, stabilizer `i` = `Z_i`), evolved by Clifford conjugation
/// through [`StabilizerTableau::apply`], measured qubit-by-qubit through
/// [`StabilizerTableau::measure`], and sampled wholesale through
/// [`StabilizerTableau::sampler`]. See the [module docs](self) for the
/// packed representation and the exact update rules.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilizerTableau {
    num_qubits: usize,
    /// Words per row-indexed column: `ceil((2n + 1) / 64)`.
    words: usize,
    /// X-part column of each qubit, bit `j` = row `j`'s X bit on the qubit.
    x: Vec<Vec<u64>>,
    /// Z-part column of each qubit.
    z: Vec<Vec<u64>>,
    /// Phase column: bit `j` set ⇔ row `j` carries sign `-1`.
    r: Vec<u64>,
}

impl StabilizerTableau {
    /// Creates the tableau of `|0…0⟩` on `num_qubits` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerError::TooManyQubits`] beyond
    /// [`MAX_STABILIZER_QUBITS`].
    pub fn new(num_qubits: usize) -> Result<Self, StabilizerError> {
        if num_qubits > MAX_STABILIZER_QUBITS {
            return Err(StabilizerError::TooManyQubits {
                requested: num_qubits,
                maximum: MAX_STABILIZER_QUBITS,
            });
        }
        let rows = 2 * num_qubits + 1;
        let words = rows.div_ceil(64);
        let mut tableau = Self {
            num_qubits,
            words,
            x: vec![vec![0; words]; num_qubits],
            z: vec![vec![0; words]; num_qubits],
            r: vec![0; words],
        };
        for q in 0..num_qubits {
            set_bit(&mut tableau.x[q], q, true);
            set_bit(&mut tableau.z[q], num_qubits + q, true);
        }
        Ok(tableau)
    }

    /// Runs a whole circuit from `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerError::TooManyQubits`] for oversized registers
    /// and [`StabilizerError::NonClifford`] at the first unsupported gate.
    pub fn from_circuit(circuit: &QuantumCircuit) -> Result<Self, StabilizerError> {
        let mut tableau = Self::new(circuit.num_qubits())?;
        for gate in circuit.gates() {
            tableau.apply(gate)?;
        }
        Ok(tableau)
    }

    /// Number of qubits tracked by the tableau.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn check(&self, qubit: usize) -> Result<usize, StabilizerError> {
        if qubit >= self.num_qubits {
            return Err(StabilizerError::QubitOutOfRange {
                qubit,
                num_qubits: self.num_qubits,
            });
        }
        Ok(qubit)
    }

    /// Conjugates the tableau by one gate.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerError::NonClifford`] for T, T†, CCX, MCX, MCZ
    /// beyond two qubits and Rz angles that are not multiples of π/2 (the
    /// same `1e-9` tolerance as [`QuantumGate::is_clifford`]), and
    /// [`StabilizerError::QubitOutOfRange`] for out-of-register qubits.
    pub fn apply(&mut self, gate: &QuantumGate) -> Result<(), StabilizerError> {
        match gate {
            QuantumGate::H(q) => self.apply_h(self.check(*q)?),
            QuantumGate::S(q) => self.apply_s(self.check(*q)?),
            QuantumGate::Sdg(q) => self.apply_sdg(self.check(*q)?),
            QuantumGate::X(q) => self.apply_x(self.check(*q)?),
            QuantumGate::Y(q) => self.apply_y(self.check(*q)?),
            QuantumGate::Z(q) => self.apply_z(self.check(*q)?),
            QuantumGate::Rz { qubit, angle } => {
                let q = self.check(*qubit)?;
                self.apply_clifford_rz(q, *angle)?;
            }
            QuantumGate::Cx { control, target } => {
                let (c, t) = (self.check(*control)?, self.check(*target)?);
                self.apply_cx(c, t);
            }
            QuantumGate::Cz { a, b } => {
                let (a, b) = (self.check(*a)?, self.check(*b)?);
                self.apply_cz(a, b);
            }
            QuantumGate::Swap { a, b } => {
                let (a, b) = (self.check(*a)?, self.check(*b)?);
                self.x.swap(a, b);
                self.z.swap(a, b);
            }
            QuantumGate::Mcz { qubits } => match qubits.as_slice() {
                // Degenerate multi-controlled Z gates are still Clifford.
                [] => {}
                [q] => self.apply_z(self.check(*q)?),
                [a, b] => {
                    let (a, b) = (self.check(*a)?, self.check(*b)?);
                    self.apply_cz(a, b);
                }
                _ => return Err(StabilizerError::NonClifford { gate: gate.name() }),
            },
            QuantumGate::T(_)
            | QuantumGate::Tdg(_)
            | QuantumGate::Ccx { .. }
            | QuantumGate::Mcx { .. } => {
                return Err(StabilizerError::NonClifford { gate: gate.name() })
            }
        }
        Ok(())
    }

    fn apply_h(&mut self, q: usize) {
        for w in 0..self.words {
            self.r[w] ^= self.x[q][w] & self.z[q][w];
        }
        let (x, z) = (&mut self.x[q], &mut self.z[q]);
        std::mem::swap(x, z);
    }

    fn apply_s(&mut self, q: usize) {
        for w in 0..self.words {
            self.r[w] ^= self.x[q][w] & self.z[q][w];
            self.z[q][w] ^= self.x[q][w];
        }
    }

    fn apply_sdg(&mut self, q: usize) {
        // S† = Z · S: the phase picks up `x & ¬z` instead of `x & z`.
        for w in 0..self.words {
            self.r[w] ^= self.x[q][w] & !self.z[q][w];
            self.z[q][w] ^= self.x[q][w];
        }
    }

    fn apply_x(&mut self, q: usize) {
        for w in 0..self.words {
            self.r[w] ^= self.z[q][w];
        }
    }

    fn apply_y(&mut self, q: usize) {
        // Y anticommutes with both X and Z, so rows carrying exactly one of
        // the two flip sign.
        for w in 0..self.words {
            self.r[w] ^= self.x[q][w] ^ self.z[q][w];
        }
    }

    fn apply_z(&mut self, q: usize) {
        for w in 0..self.words {
            self.r[w] ^= self.x[q][w];
        }
    }

    fn apply_cx(&mut self, c: usize, t: usize) {
        for w in 0..self.words {
            let (xc, zc) = (self.x[c][w], self.z[c][w]);
            let (xt, zt) = (self.x[t][w], self.z[t][w]);
            self.r[w] ^= xc & zt & !(xt ^ zc);
            self.x[t][w] = xt ^ xc;
            self.z[c][w] = zc ^ zt;
        }
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        // CZ = H(b) · CX(a, b) · H(b); composing the verified primitives is
        // three word sweeps, which keeps one set of sign rules to maintain.
        self.apply_h(b);
        self.apply_cx(a, b);
        self.apply_h(b);
    }

    fn apply_clifford_rz(&mut self, q: usize, angle: f64) -> Result<(), StabilizerError> {
        let quarter_turns = angle / FRAC_PI_2;
        if (quarter_turns - quarter_turns.round()).abs() >= 1e-9 {
            return Err(StabilizerError::NonClifford { gate: "rz" });
        }
        match (quarter_turns.round() as i64).rem_euclid(4) {
            1 => self.apply_s(q),
            2 => self.apply_z(q),
            3 => self.apply_sdg(q),
            _ => {}
        }
        Ok(())
    }

    fn r_bit(&self, row: usize) -> bool {
        bit(&self.r, row)
    }

    /// Left-multiplies row `h` by row `i` (`row_h ← row_i · row_h`), the
    /// `rowsum` of the CHP paper: XOR of the Pauli parts plus the mod-4
    /// phase bookkeeping (the exponent of `i` accumulated per qubit is
    /// always `0` or `2` for commuting stabilizer products).
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut exponent: i64 = 2 * (i64::from(self.r_bit(h)) + i64::from(self.r_bit(i)));
        for q in 0..self.num_qubits {
            let (x1, z1) = (bit(&self.x[q], i), bit(&self.z[q], i));
            let (x2, z2) = (bit(&self.x[q], h), bit(&self.z[q], h));
            exponent += phase_exponent(x1, z1, x2, z2);
            set_bit(&mut self.x[q], h, x1 ^ x2);
            set_bit(&mut self.z[q], h, z1 ^ z2);
        }
        let exponent = exponent.rem_euclid(4);
        debug_assert!(exponent == 0 || exponent == 2, "non-real stabilizer phase");
        set_bit(&mut self.r, h, exponent == 2);
    }

    fn copy_row(&mut self, dst: usize, src: usize) {
        for q in 0..self.num_qubits {
            let x = bit(&self.x[q], src);
            set_bit(&mut self.x[q], dst, x);
            let z = bit(&self.z[q], src);
            set_bit(&mut self.z[q], dst, z);
        }
        let r = self.r_bit(src);
        set_bit(&mut self.r, dst, r);
    }

    fn clear_row(&mut self, row: usize) {
        for q in 0..self.num_qubits {
            set_bit(&mut self.x[q], row, false);
            set_bit(&mut self.z[q], row, false);
        }
        set_bit(&mut self.r, row, false);
    }

    /// The first stabilizer row anticommuting with `Z_q`, if any — its
    /// existence means a `Z_q` measurement is random.
    fn anticommuting_stabilizer(&self, q: usize) -> Option<usize> {
        (self.num_qubits..2 * self.num_qubits).find(|&row| bit(&self.x[q], row))
    }

    /// Whether measuring `qubit` in the computational basis has a
    /// predetermined outcome (no stabilizer anticommutes with `Z_qubit`).
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerError::QubitOutOfRange`] for out-of-register
    /// qubits.
    pub fn is_deterministic(&self, qubit: usize) -> Result<bool, StabilizerError> {
        let q = self.check(qubit)?;
        Ok(self.anticommuting_stabilizer(q).is_none())
    }

    /// Measures `qubit` in the computational basis, collapsing the state.
    ///
    /// Deterministic outcomes are read off the tableau without consuming
    /// randomness; random outcomes consume exactly one `f64` draw from
    /// `rng` (the workspace-wide one-draw-per-outcome RNG discipline) and
    /// update the stabilizers per the CHP measurement rule.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerError::QubitOutOfRange`] for out-of-register
    /// qubits.
    pub fn measure<R: Rng + ?Sized>(
        &mut self,
        qubit: usize,
        rng: &mut R,
    ) -> Result<bool, StabilizerError> {
        let q = self.check(qubit)?;
        let n = self.num_qubits;
        if let Some(p) = self.anticommuting_stabilizer(q) {
            // Random outcome: make row p the unique anticommuting generator,
            // demote it to the destabilizer side and replace it by ±Z_q.
            for row in 0..2 * n {
                if row != p && bit(&self.x[q], row) {
                    self.rowsum(row, p);
                }
            }
            self.copy_row(p - n, p);
            self.clear_row(p);
            set_bit(&mut self.z[q], p, true);
            let outcome = rng.gen::<f64>() < 0.5;
            set_bit(&mut self.r, p, outcome);
            Ok(outcome)
        } else {
            // Deterministic outcome: accumulate, into the scratch row, the
            // product of the stabilizers matching the destabilizers that
            // anticommute with Z_q; its sign is the outcome.
            let scratch = 2 * n;
            self.clear_row(scratch);
            for i in 0..n {
                if bit(&self.x[q], i) {
                    self.rowsum(scratch, i + n);
                }
            }
            Ok(self.r_bit(scratch))
        }
    }

    /// Extracts the stabilizer generators as row-major Pauli rows
    /// (qubit-indexed bitvecs), the layout Gaussian elimination wants.
    fn stabilizer_rows(&self) -> Vec<PauliRow> {
        let n = self.num_qubits;
        let qwords = qubit_words(n);
        (0..n)
            .map(|g| {
                let row = n + g;
                let mut xs = vec![0u64; qwords];
                let mut zs = vec![0u64; qwords];
                for q in 0..n {
                    if bit(&self.x[q], row) {
                        xs[q >> 6] |= 1 << (q & 63);
                    }
                    if bit(&self.z[q], row) {
                        zs[q >> 6] |= 1 << (q & 63);
                    }
                }
                PauliRow {
                    xs,
                    zs,
                    neg: self.r_bit(row),
                }
            })
            .collect()
    }

    /// Extracts the state's support in closed form, ready for sampling.
    ///
    /// A stabilizer state is uniform (in magnitude) over an affine subspace
    /// of basis states: Gaussian elimination over the generators' X-parts,
    /// pivoting on each column from the highest down, yields `rank`
    /// independent X-carrying generators whose X-parts span the subspace's
    /// direction, and the remaining `n - rank` Z-only generators pin the
    /// offset through their sign constraints (`(-1)^r Z^v` stabilizes
    /// `|x⟩` iff `v·x ≡ r (mod 2)`). Each reduced generator's highest bit
    /// is its pivot, which no other generator sets, and the offset sets no
    /// pivot bit; so the offset is the smallest support element, and the
    /// `k`-th smallest (counting from 0) is the offset XOR the generators
    /// picked by the bits of `k` in ascending pivot order. Nothing is
    /// enumerated.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerError::SupportTooLarge`] when the rank exceeds
    /// [`MAX_SAMPLING_RANK`] and [`StabilizerError::OutcomeOverflow`] when a
    /// support element needs basis bits beyond the `usize` outcome width.
    pub fn sampler(&self) -> Result<StabilizerSampler, StabilizerError> {
        let n = self.num_qubits;
        let qwords = qubit_words(n);
        let mut gens = self.stabilizer_rows();
        // Full reduction over the X-block, highest column first: after the
        // sweep every non-pivot generator is Z-only, and each pivot
        // generator has no X bit above its pivot column nor on any other
        // pivot column. `pivots` holds (column, generator) pairs, highest
        // column first.
        let mut pivots: Vec<(usize, usize)> = Vec::new();
        let mut is_pivot = vec![false; n];
        for q in (0..n).rev() {
            let Some(p) = (0..n).find(|&i| !is_pivot[i] && gens[i].x_bit(q)) else {
                continue;
            };
            is_pivot[p] = true;
            let pivot = gens[p].clone();
            for (i, gen) in gens.iter_mut().enumerate() {
                if i != p && gen.x_bit(q) {
                    gen.mul(&pivot, n);
                }
            }
            pivots.push((q, p));
        }
        let rank = pivots.len();
        if rank > MAX_SAMPLING_RANK {
            return Err(StabilizerError::SupportTooLarge {
                rank,
                maximum: MAX_SAMPLING_RANK,
            });
        }
        // Solve the Z-only sign constraints for the affine offset: RREF over
        // the Z-parts, free variables pinned to zero.
        let mut zrows: Vec<(Vec<u64>, bool)> = (0..n)
            .filter(|&i| !is_pivot[i])
            .map(|i| (gens[i].zs.clone(), gens[i].neg))
            .collect();
        let mut offset = vec![0u64; qwords];
        let mut zpivots: Vec<(usize, usize)> = Vec::new();
        let mut next = 0usize;
        for q in 0..n {
            let Some(i) = (next..zrows.len()).find(|&i| bit_at(&zrows[i].0, q)) else {
                continue;
            };
            zrows.swap(next, i);
            let (pivot_bits, pivot_neg) = zrows[next].clone();
            for (j, (bits, neg)) in zrows.iter_mut().enumerate() {
                if j != next && bit_at(bits, q) {
                    for (word, pivot_word) in bits.iter_mut().zip(&pivot_bits) {
                        *word ^= pivot_word;
                    }
                    *neg ^= pivot_neg;
                }
            }
            zpivots.push((next, q));
            next += 1;
        }
        debug_assert_eq!(next, zrows.len(), "dependent Z-only stabilizers");
        // Signs are read off only after the RREF completes: a pivot row's
        // sign keeps changing while later pivot columns are eliminated from
        // it, and only the fully reduced single-bit row states `x_q = neg`.
        for &(row, q) in &zpivots {
            if zrows[row].1 {
                offset[q >> 6] |= 1 << (q & 63);
            }
        }
        // Outcomes must fit the usize histogram domain: every support
        // element does iff the offset and the generators do, and the first
        // pivot is the highest bit a generator sets.
        let highest = highest_bit(&offset).max(pivots.first().map(|&(q, _)| q));
        if let Some(qubit) = highest.filter(|&q| q >= usize::BITS as usize) {
            return Err(StabilizerError::OutcomeOverflow { qubit });
        }
        // The offset sets only Z pivots, which are the lowest bits of the
        // Z-parts' span. That span is orthogonal to the X-parts' span, and a
        // vector with highest bit `q` has inner product 1 with any vector
        // whose lowest bit is `q`, so no Z pivot is an X pivot: the offset
        // has every X pivot bit clear and is the smallest support element.
        debug_assert!(pivots.iter().all(|&(q, _)| !bit_at(&offset, q)));
        Ok(StabilizerSampler {
            offset: offset[0] as usize,
            generators: pivots
                .iter()
                .rev()
                .map(|&(_, p)| gens[p].xs[0] as usize)
                .collect(),
        })
    }
}

/// Words per qubit-indexed bitvec (at least one, so the zero-qubit tableau
/// still has an offset word).
fn qubit_words(num_qubits: usize) -> usize {
    num_qubits.div_ceil(64).max(1)
}

fn bit_at(bits: &[u64], index: usize) -> bool {
    (bits[index >> 6] >> (index & 63)) & 1 == 1
}

fn highest_bit(bits: &[u64]) -> Option<usize> {
    bits.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(w, word)| (w << 6) + 63 - word.leading_zeros() as usize)
}

/// The per-qubit contribution to the exponent of `i` when multiplying Pauli
/// row 2 by Pauli row 1 (the `g` function of the CHP paper).
fn phase_exponent(x1: bool, z1: bool, x2: bool, z2: bool) -> i64 {
    match (x1, z1) {
        (false, false) => 0,
        (true, true) => i64::from(z2) - i64::from(x2),
        (true, false) => i64::from(z2) * (2 * i64::from(x2) - 1),
        (false, true) => i64::from(x2) * (1 - 2 * i64::from(z2)),
    }
}

/// One Pauli generator in row-major (qubit-indexed) packed form, used by
/// the support-extraction elimination.
#[derive(Debug, Clone)]
struct PauliRow {
    xs: Vec<u64>,
    zs: Vec<u64>,
    neg: bool,
}

impl PauliRow {
    fn x_bit(&self, q: usize) -> bool {
        bit_at(&self.xs, q)
    }

    /// `self ← other · self`, with the same mod-4 phase bookkeeping as
    /// [`StabilizerTableau::rowsum`].
    fn mul(&mut self, other: &PauliRow, num_qubits: usize) {
        let mut exponent: i64 = 2 * (i64::from(self.neg) + i64::from(other.neg));
        for q in 0..num_qubits {
            exponent += phase_exponent(
                bit_at(&other.xs, q),
                bit_at(&other.zs, q),
                bit_at(&self.xs, q),
                bit_at(&self.zs, q),
            );
        }
        for (word, other_word) in self.xs.iter_mut().zip(&other.xs) {
            *word ^= other_word;
        }
        for (word, other_word) in self.zs.iter_mut().zip(&other.zs) {
            *word ^= other_word;
        }
        let exponent = exponent.rem_euclid(4);
        debug_assert!(exponent == 0 || exponent == 2, "non-real stabilizer phase");
        self.neg = exponent == 2;
    }
}

/// The support of a stabilizer state in closed form, ready for measurement
/// sampling: the smallest support element and the `rank` reduced
/// generators, `rank + 1` words in all.
///
/// Support element `k` (from 0, ascending) is the offset XOR the generators
/// picked by the bits of `k`, and a shot's uniform draw `u` lands on
/// element `⌊u·2^rank⌋`: where
/// [`CumulativeDistribution::outcome_of`](qdaflow_quantum::sampling::CumulativeDistribution::outcome_of)
/// puts it on the ascending support, so equal seeds agree with the dense
/// engine shot for shot (the differential test contract of this crate).
#[derive(Debug, Clone, PartialEq)]
pub struct StabilizerSampler {
    /// The smallest support element.
    offset: usize,
    /// The reduced generators in ascending pivot order.
    generators: Vec<usize>,
}

impl StabilizerSampler {
    /// The basis states carrying probability mass, in ascending order (each
    /// with probability `1 / support().len()`). They are computed as the
    /// iterator reaches them; no list of them is ever held.
    pub fn support(&self) -> impl DoubleEndedIterator<Item = usize> + ExactSizeIterator + '_ {
        (0..1usize << self.generators.len()).map(|index| self.outcome(index))
    }

    /// The support element of ascending index `index`.
    fn outcome(&self, index: usize) -> usize {
        self.generators
            .iter()
            .enumerate()
            .filter(|&(bit, _)| (index >> bit) & 1 == 1)
            .fold(self.offset, |outcome, (_, generator)| outcome ^ generator)
    }

    /// Samples `shots` outcomes sequentially from `rng` (one `f64` draw per
    /// shot) into a sparse histogram (zero-count outcomes omitted).
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        shots: usize,
    ) -> BTreeMap<usize, usize> {
        self.count_draws((0..shots).map(|_| rng.gen::<f64>()))
    }

    /// Shot-sharded sampling under an explicit seed, from the draws of
    /// [`sampling::sharded_draws`]: the histogram is fully determined by
    /// `(seed, shots, config.shot_shard_size)` — the execution path the
    /// batch engine uses. Sampling is sequential and ignores
    /// `config.threads`.
    pub fn sample_counts_sharded(
        &self,
        seed: u64,
        shots: usize,
        config: &ExecConfig,
    ) -> BTreeMap<usize, usize> {
        self.count_draws(sampling::sharded_draws(seed, shots, config.shot_shard_size))
    }

    /// Places each draw `u` on support element `⌊u·2^rank⌋` and counts them.
    /// A draw is `m·2^-53` with `m < 2^53` and the scale is a power of two,
    /// so the product is exact and truncation is its floor. Sorted, each
    /// distinct index is mapped to its outcome once, in ascending order.
    fn count_draws(&self, draws: impl IntoIterator<Item = f64>) -> BTreeMap<usize, usize> {
        let scale = (1u64 << self.generators.len()) as f64;
        let mut indices: Vec<usize> = draws
            .into_iter()
            .map(|draw| (draw * scale) as usize)
            .collect();
        indices.sort_unstable();
        indices
            .chunk_by(|a, b| a == b)
            .map(|run| (self.outcome(run[0]), run.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn circuit(num_qubits: usize, gates: &[QuantumGate]) -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(num_qubits);
        for gate in gates {
            circuit.push(gate.clone()).unwrap();
        }
        circuit
    }

    #[test]
    fn fresh_tableau_is_all_zeros() {
        let tableau = StabilizerTableau::new(3).unwrap();
        let sampler = tableau.sampler().unwrap();
        assert_eq!(sampler.support().collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn x_layer_flips_the_deterministic_outcome() {
        let mut tableau = StabilizerTableau::new(4).unwrap();
        tableau.apply(&QuantumGate::X(1)).unwrap();
        tableau.apply(&QuantumGate::X(3)).unwrap();
        assert_eq!(
            tableau.sampler().unwrap().support().collect::<Vec<_>>(),
            [0b1010]
        );
        let mut rng = StdRng::seed_from_u64(1);
        assert!(tableau.is_deterministic(1).unwrap());
        assert!(tableau.measure(1, &mut rng).unwrap());
        assert!(!tableau.measure(0, &mut rng).unwrap());
    }

    #[test]
    fn bell_pair_measurements_are_correlated() {
        for seed in 0..32u64 {
            let mut tableau = StabilizerTableau::from_circuit(&circuit(
                2,
                &[
                    QuantumGate::H(0),
                    QuantumGate::Cx {
                        control: 0,
                        target: 1,
                    },
                ],
            ))
            .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            assert!(!tableau.is_deterministic(0).unwrap());
            let first = tableau.measure(0, &mut rng).unwrap();
            assert!(tableau.is_deterministic(1).unwrap());
            assert_eq!(tableau.measure(1, &mut rng).unwrap(), first);
        }
    }

    #[test]
    fn ghz_support_is_the_two_extremes() {
        let tableau = StabilizerTableau::from_circuit(&circuit(
            5,
            &[
                QuantumGate::H(0),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Cx {
                    control: 1,
                    target: 2,
                },
                QuantumGate::Cx {
                    control: 2,
                    target: 3,
                },
                QuantumGate::Cx {
                    control: 3,
                    target: 4,
                },
            ],
        ))
        .unwrap();
        assert_eq!(
            tableau.sampler().unwrap().support().collect::<Vec<_>>(),
            [0, 0b11111]
        );
    }

    #[test]
    fn minus_state_keeps_uniform_support_with_phase() {
        // HZH = X: |0⟩ → |1⟩ via phase bookkeeping through the H/Z rules.
        let tableau = StabilizerTableau::from_circuit(&circuit(
            1,
            &[QuantumGate::H(0), QuantumGate::Z(0), QuantumGate::H(0)],
        ))
        .unwrap();
        assert_eq!(
            tableau.sampler().unwrap().support().collect::<Vec<_>>(),
            [1]
        );
    }

    #[test]
    fn s_gate_composition_matches_pauli_identities() {
        // S·S = Z and S·S† = I, checked through HSSH = HZH = X.
        let x_via_s = StabilizerTableau::from_circuit(&circuit(
            1,
            &[
                QuantumGate::H(0),
                QuantumGate::S(0),
                QuantumGate::S(0),
                QuantumGate::H(0),
            ],
        ))
        .unwrap();
        assert_eq!(
            x_via_s.sampler().unwrap().support().collect::<Vec<_>>(),
            [1]
        );
        let identity = StabilizerTableau::from_circuit(&circuit(
            1,
            &[
                QuantumGate::H(0),
                QuantumGate::S(0),
                QuantumGate::Sdg(0),
                QuantumGate::H(0),
            ],
        ))
        .unwrap();
        assert_eq!(
            identity.sampler().unwrap().support().collect::<Vec<_>>(),
            [0]
        );
    }

    #[test]
    fn clifford_rz_snaps_to_quarter_turns() {
        // Rz(π) between Hadamards is X; Rz(π/4) is non-Clifford.
        let tableau = StabilizerTableau::from_circuit(&circuit(
            1,
            &[
                QuantumGate::H(0),
                QuantumGate::Rz {
                    qubit: 0,
                    angle: std::f64::consts::PI,
                },
                QuantumGate::H(0),
            ],
        ))
        .unwrap();
        assert_eq!(
            tableau.sampler().unwrap().support().collect::<Vec<_>>(),
            [1]
        );
        let mut rejected = StabilizerTableau::new(1).unwrap();
        assert_eq!(
            rejected.apply(&QuantumGate::Rz {
                qubit: 0,
                angle: std::f64::consts::FRAC_PI_4,
            }),
            Err(StabilizerError::NonClifford { gate: "rz" })
        );
    }

    #[test]
    fn non_clifford_gates_are_rejected_with_their_mnemonic() {
        let mut tableau = StabilizerTableau::new(3).unwrap();
        assert_eq!(
            tableau.apply(&QuantumGate::T(0)),
            Err(StabilizerError::NonClifford { gate: "t" })
        );
        assert_eq!(
            tableau.apply(&QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            }),
            Err(StabilizerError::NonClifford { gate: "ccx" })
        );
        assert_eq!(
            tableau.apply(&QuantumGate::Mcz {
                qubits: vec![0, 1, 2],
            }),
            Err(StabilizerError::NonClifford { gate: "mcz" })
        );
        let quantum: QuantumError = StabilizerError::NonClifford { gate: "t" }.into();
        assert!(matches!(
            quantum,
            QuantumError::UnsupportedGate { gate: "t", .. }
        ));
    }

    #[test]
    fn two_qubit_mcz_lowers_to_cz() {
        let via_mcz = StabilizerTableau::from_circuit(&circuit(
            2,
            &[
                QuantumGate::H(0),
                QuantumGate::H(1),
                QuantumGate::Mcz { qubits: vec![0, 1] },
                QuantumGate::H(1),
            ],
        ))
        .unwrap();
        let via_cz = StabilizerTableau::from_circuit(&circuit(
            2,
            &[
                QuantumGate::H(0),
                QuantumGate::H(1),
                QuantumGate::Cz { a: 0, b: 1 },
                QuantumGate::H(1),
            ],
        ))
        .unwrap();
        assert_eq!(via_mcz, via_cz);
    }

    #[test]
    fn swap_exchanges_columns() {
        let tableau = StabilizerTableau::from_circuit(&circuit(
            3,
            &[QuantumGate::X(0), QuantumGate::Swap { a: 0, b: 2 }],
        ))
        .unwrap();
        assert_eq!(
            tableau.sampler().unwrap().support().collect::<Vec<_>>(),
            [0b100]
        );
    }

    #[test]
    fn support_rank_is_capped() {
        let mut gates = Vec::new();
        for q in 0..(MAX_SAMPLING_RANK + 1) {
            gates.push(QuantumGate::H(q));
        }
        let tableau =
            StabilizerTableau::from_circuit(&circuit(MAX_SAMPLING_RANK + 1, &gates)).unwrap();
        let error = tableau.sampler().unwrap_err();
        assert_eq!(
            error,
            StabilizerError::SupportTooLarge {
                rank: MAX_SAMPLING_RANK + 1,
                maximum: MAX_SAMPLING_RANK,
            }
        );
        // The shared vocabulary keeps it a rank, not a qubit count.
        let quantum = QuantumError::from(error.clone());
        assert_eq!(
            quantum,
            QuantumError::SupportTooLarge {
                rank: MAX_SAMPLING_RANK + 1,
                maximum: MAX_SAMPLING_RANK,
            }
        );
        assert_eq!(quantum.to_string(), error.to_string());
    }

    #[test]
    fn outcomes_beyond_usize_are_a_typed_error() {
        let tableau = StabilizerTableau::from_circuit(&circuit(70, &[QuantumGate::X(69)])).unwrap();
        assert_eq!(
            tableau.sampler(),
            Err(StabilizerError::OutcomeOverflow { qubit: 69 })
        );
    }

    #[test]
    fn register_cap_is_enforced() {
        assert!(StabilizerTableau::new(MAX_STABILIZER_QUBITS).is_ok());
        assert_eq!(
            StabilizerTableau::new(MAX_STABILIZER_QUBITS + 1),
            Err(StabilizerError::TooManyQubits {
                requested: MAX_STABILIZER_QUBITS + 1,
                maximum: MAX_STABILIZER_QUBITS,
            })
        );
    }

    #[test]
    fn out_of_range_qubits_are_a_typed_error() {
        let mut tableau = StabilizerTableau::new(2).unwrap();
        assert_eq!(
            tableau.apply(&QuantumGate::H(5)),
            Err(StabilizerError::QubitOutOfRange {
                qubit: 5,
                num_qubits: 2,
            })
        );
    }

    #[test]
    fn sharded_sampling_is_thread_count_invariant() {
        let tableau = StabilizerTableau::from_circuit(&circuit(
            3,
            &[
                QuantumGate::H(0),
                QuantumGate::H(2),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
            ],
        ))
        .unwrap();
        let sampler = tableau.sampler().unwrap();
        assert_eq!(
            sampler.support().collect::<Vec<_>>(),
            [0b000, 0b011, 0b100, 0b111]
        );
        let config = ExecConfig::sequential().with_shot_shard_size(64);
        let reference = sampler.sample_counts_sharded(9, 4000, &config);
        assert_eq!(reference.values().sum::<usize>(), 4000);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                sampler.sample_counts_sharded(9, 4000, &config.with_threads(threads)),
                reference,
                "threads={threads}"
            );
        }
    }

    /// An RNG whose every `next_u64` returns the same value.
    struct ConstantRng(u64);

    impl Rng for ConstantRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn rank_53_supports_sample_their_first_and_last_elements() {
        // `h` on 53 of 60 qubits plus `x` on qubit 59: the support is
        // 2^59 + [0, 2^53), at the sampling cap.
        let mut gates: Vec<QuantumGate> = (0..53).map(QuantumGate::H).collect();
        gates.push(QuantumGate::X(59));
        let sampler = StabilizerTableau::from_circuit(&circuit(60, &gates))
            .unwrap()
            .sampler()
            .unwrap();
        assert_eq!(MAX_SAMPLING_RANK, 53);
        assert_eq!(sampler.support().len(), 1 << 53);
        let first = sampler.support().next().unwrap();
        let last = sampler.support().next_back().unwrap();
        assert_eq!((first, last), (1 << 59, (1 << 59) | ((1 << 53) - 1)));
        // The smallest draw, 0, lands on the first element and the largest,
        // 1 - 2^-53, on the last.
        assert_eq!(
            sampler.sample_counts(&mut ConstantRng(0), 16),
            BTreeMap::from([(first, 16)])
        );
        assert_eq!(
            sampler.sample_counts(&mut ConstantRng(u64::MAX), 16),
            BTreeMap::from([(last, 16)])
        );
    }

    #[test]
    fn zero_shots_give_an_empty_histogram() {
        let tableau = StabilizerTableau::from_circuit(&circuit(2, &[QuantumGate::H(0)])).unwrap();
        let sampler = tableau.sampler().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sampler.sample_counts(&mut rng, 0).is_empty());
        assert!(sampler
            .sample_counts_sharded(3, 0, &ExecConfig::sequential())
            .is_empty());
    }

    #[test]
    fn measurement_collapse_matches_the_sampled_support() {
        // Measuring every qubit of a random-ish Clifford state always lands
        // inside the support the sampler enumerates.
        let gates = [
            QuantumGate::H(0),
            QuantumGate::S(0),
            QuantumGate::Cx {
                control: 0,
                target: 2,
            },
            QuantumGate::H(3),
            QuantumGate::Cz { a: 3, b: 1 },
            QuantumGate::Y(1),
            QuantumGate::Swap { a: 2, b: 3 },
        ];
        let base = StabilizerTableau::from_circuit(&circuit(4, &gates)).unwrap();
        let support = base.sampler().unwrap().support().collect::<Vec<_>>();
        for seed in 0..64u64 {
            let mut tableau = base.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut outcome = 0usize;
            for q in 0..4 {
                if tableau.measure(q, &mut rng).unwrap() {
                    outcome |= 1 << q;
                }
            }
            assert!(support.contains(&outcome), "outcome {outcome} off-support");
        }
    }
}
