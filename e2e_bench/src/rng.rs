//! The benchmark's input generator: SplitMix64, so one `--seed` fixes every
//! input of a run.

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (the modulo bias is irrelevant at these ranges).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A value below `2^width` (`width` ≤ 64) with uniformly random bits.
    pub fn bits(&mut self, width: usize) -> usize {
        let value = self.next_u64() as usize;
        if width >= usize::BITS as usize {
            value
        } else {
            value & ((1usize << width) - 1)
        }
    }

    /// A value below `2^width` with exactly `weight` bits set.
    pub fn with_weight(&mut self, width: usize, weight: usize) -> usize {
        let mut positions: Vec<usize> = (0..width).collect();
        self.shuffle(&mut positions);
        positions[..weight]
            .iter()
            .fold(0, |value, bit| value | 1 << bit)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}
