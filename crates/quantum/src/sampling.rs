//! Measurement sampling: cumulative distributions, binary search and
//! shot-sharded parallel sampling.
//!
//! The original measurement hot path drew each shot by a linear scan over all
//! `2^n` probabilities — `O(shots · 2^n)` work that dominates any run with a
//! realistic shot count. This module replaces it with a precomputed
//! [`CumulativeDistribution`]: the prefix sums are accumulated **once** in the
//! exact same left-to-right order as the historical scan, and each shot then
//! costs one `O(log 2^n)` binary search. Because the prefix values are the
//! very same floating-point partial sums the linear scan produced, a draw
//! lands on the *bit-identical* outcome — the `sampling_differential.rs`
//! property suite enforces this against the retained
//! [`SoaStatevector::sample_linear`](crate::plan::SoaStatevector::sample_linear)
//! reference.
//!
//! On top of the distribution sits the **shot-sharded** sampler
//! ([`CumulativeDistribution::sample_sharded`]): `shots` are cut into
//! fixed-size shards, shard `i` samples from its own deterministic RNG stream
//! derived from `(seed, i)` ([`shard_rng`]), and shards are distributed over
//! `std::thread::scope` workers. The shard layout depends only on the shot
//! count and the configured shard size — never on the worker count — so the
//! merged histogram is reproducible at any thread count (also enforced by the
//! differential suite).
//!
//! The dense engine does not build either of these. Its state, a blocked
//! [`SoaStatevector`](crate::plan::SoaStatevector), is sampled where the
//! kernel leaves it: the job's draws — the same `f64` values, from the same
//! streams, as above — are sorted, and one walk over the blocks in basis
//! order keeps the running sum that [`CumulativeDistribution`] stores,
//! placing each draw on the outcome
//! [`CumulativeDistribution::outcome_of`] gives it. The walk holds one
//! block of prefix sums, never all `2^n`, and stops after the last draw.
//! The stabilizer engine's support is uniform over `2^rank` outcomes, so it
//! needs no prefix sums at all: it places each of the same draws `u` on
//! its outcome of ascending index `⌊u·2^rank⌋`, which is where
//! `outcome_of` would put it. The `CumulativeDistribution` samplers stay the reference
//! both are checked against, draw for draw, and the sampler of the sparse
//! engine.

use crate::complex::Complex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::thread;

/// Default number of shots per shard of the sharded sampler; see
/// [`ExecConfig::shot_shard_size`](crate::fusion::ExecConfig::shot_shard_size).
pub const DEFAULT_SHOT_SHARD_SIZE: usize = 4096;

/// The precomputed cumulative distribution of a measurement in the
/// computational basis.
///
/// `prefix[k]` holds the probability of measuring an outcome `<= k`,
/// accumulated left to right exactly like the historical linear-scan sampler,
/// so binary-searching a uniform draw reproduces the scan's outcome bit for
/// bit. The sparse engine samples through it; the dense and stabilizer
/// engines do not build it, and are checked against it draw for draw.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeDistribution {
    prefix: Vec<f64>,
}

impl CumulativeDistribution {
    /// Builds the distribution from the squared magnitudes of an amplitude
    /// slice (the statevector hot path).
    pub fn from_amplitudes(amplitudes: &[Complex]) -> Self {
        Self::accumulate(amplitudes.iter().map(|a| a.norm_sqr()))
    }

    /// Builds the distribution from raw outcome probabilities.
    pub fn from_probabilities(probabilities: &[f64]) -> Self {
        Self::accumulate(probabilities.iter().copied())
    }

    fn accumulate(probabilities: impl Iterator<Item = f64>) -> Self {
        let mut cumulative = 0.0f64;
        let prefix = probabilities
            .map(|p| {
                cumulative += p;
                cumulative
            })
            .collect();
        Self { prefix }
    }

    /// Number of outcomes.
    pub fn num_outcomes(&self) -> usize {
        self.prefix.len()
    }

    /// Maps one uniform draw in `[0, 1)` onto an outcome: the first index
    /// whose cumulative probability exceeds the draw, i.e. exactly the index
    /// at which the linear scan `draw < cumulative` would have stopped.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    pub fn outcome_of(&self, draw: f64) -> usize {
        let index = self
            .prefix
            .partition_point(|&cumulative| cumulative <= draw);
        // A draw at (or beyond, through rounding in the tail) the total mass
        // falls back to the last outcome, as the scan did.
        index.min(self.prefix.len() - 1)
    }

    /// Samples one outcome using one `f64` draw from `rng` (the same RNG
    /// consumption as the linear-scan sampler).
    pub fn sample_one<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.outcome_of(rng.gen())
    }

    /// Samples `shots` outcomes sequentially into a dense histogram.
    pub fn sample_counts<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<usize> {
        let mut histogram = vec![0usize; self.num_outcomes()];
        for _ in 0..shots {
            histogram[self.sample_one(rng)] += 1;
        }
        histogram
    }

    /// Shot-sharded parallel sampling: `shots` are split into shards of
    /// `shard_size` (the last shard takes the remainder), shard `i` draws
    /// from the independent deterministic stream [`shard_rng`]`(seed, i)`,
    /// and the shards are executed on up to `threads` scoped workers.
    ///
    /// The shard layout is a function of `(shots, shard_size)` alone and
    /// histogram merging is an order-independent sum, so the result is
    /// identical for every `threads` value — including `1` — and fully
    /// determined by `(seed, shots, shard_size)`.
    pub fn sample_sharded(
        &self,
        seed: u64,
        shots: usize,
        threads: usize,
        shard_size: usize,
    ) -> Vec<usize> {
        let shard_size = shard_size.max(1);
        let num_shards = shots.div_ceil(shard_size);
        let shard_shots = |shard: usize| (shots - shard * shard_size).min(shard_size);
        let workers = threads.max(1).min(num_shards.max(1));
        if workers <= 1 {
            let mut histogram = vec![0usize; self.num_outcomes()];
            for shard in 0..num_shards {
                self.sample_shard_into(&mut histogram, seed, shard, shard_shots(shard));
            }
            return histogram;
        }
        // Deal shards round-robin onto workers; each worker fills a private
        // histogram, merged by index-wise summation afterwards.
        let partials = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let dist = &self;
                    scope.spawn(move || {
                        let mut histogram = vec![0usize; dist.num_outcomes()];
                        let mut shard = worker;
                        while shard < num_shards {
                            dist.sample_shard_into(&mut histogram, seed, shard, shard_shots(shard));
                            shard += workers;
                        }
                        histogram
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("sampling worker panicked"))
                .collect::<Vec<_>>()
        });
        let mut histogram = vec![0usize; self.num_outcomes()];
        for partial in partials {
            for (total, count) in histogram.iter_mut().zip(partial) {
                *total += count;
            }
        }
        histogram
    }

    fn sample_shard_into(&self, histogram: &mut [usize], seed: u64, shard: usize, shots: usize) {
        let mut rng = shard_rng(seed, shard);
        for _ in 0..shots {
            histogram[self.sample_one(&mut rng)] += 1;
        }
    }
}

/// The uniform draws of [`CumulativeDistribution::sample_sharded`] under
/// `(seed, shots, shard_size)`, in shard order: shard `i` takes its shots
/// from [`shard_rng`]`(seed, i)`, one `f64` per shot.
///
/// The dense engine and the stabilizer sampler (`qdaflow_stabilizer`) draw
/// this stream on the shot-sharded path and place each draw where
/// [`CumulativeDistribution::outcome_of`] would, so their histograms are
/// those of `sample_sharded` at every thread count.
pub fn sharded_draws(seed: u64, shots: usize, shard_size: usize) -> Vec<f64> {
    let shard_size = shard_size.max(1);
    let mut draws = Vec::with_capacity(shots);
    for (shard, start) in (0..shots).step_by(shard_size).enumerate() {
        let mut rng = shard_rng(seed, shard);
        draws.extend((start..shots.min(start + shard_size)).map(|_| rng.gen::<f64>()));
    }
    draws
}

/// Places uniform draws on the outcomes of a distribution given as blocks
/// of amplitudes (`re`, `im` component slices) in basis order, and returns
/// the nonzero counts.
///
/// Each draw lands on the outcome [`CumulativeDistribution::outcome_of`]
/// gives it on `CumulativeDistribution::from_amplitudes` of the same
/// amplitudes: the walk adds the same `re² + im²` terms in the same order,
/// so its running sums are the stored prefix sums bit for bit. The draws
/// are sorted, so one pass places them all; it keeps one block of prefix
/// sums and stops after the last draw. Draws at or past the total mass land
/// on the last outcome.
pub(crate) fn count_draws<'a>(
    blocks: impl IntoIterator<Item = (&'a [f64], &'a [f64])>,
    mut draws: Vec<f64>,
) -> BTreeMap<usize, usize> {
    // Draws are non-negative (uniform draws lie in [0, 1)), where the order
    // of the bit patterns is the order of the values; integer keys sort
    // faster than `f64::total_cmp`.
    draws.sort_unstable_by_key(|draw| draw.to_bits());
    let mut counts: Vec<(usize, usize)> = Vec::new();
    let mut tally = |outcome: usize, shots: usize| match counts.last_mut() {
        Some((last, count)) if *last == outcome => *count += shots,
        _ => counts.push((outcome, shots)),
    };
    let mut placed = 0;
    let mut cumulative = 0.0f64;
    let mut prefix = Vec::new();
    let mut offset = 0;
    for (re, im) in blocks {
        if placed == draws.len() {
            break;
        }
        prefix.clear();
        prefix.extend(re.iter().zip(im).map(|(&re, &im)| {
            cumulative += re * re + im * im;
            cumulative
        }));
        let mut local = 0;
        for &draw in &draws[placed..] {
            local += gallop(&prefix[local..], draw);
            if local == prefix.len() {
                break;
            }
            tally(offset + local, 1);
            placed += 1;
        }
        offset += prefix.len();
    }
    if placed < draws.len() {
        tally(offset - 1, draws.len() - placed);
    }
    counts.into_iter().collect()
}

/// The first index of the non-decreasing `prefix` whose value exceeds
/// `draw` (`prefix.len()` when none does), found by galloping from the
/// front: sorted draws mostly land at or just past the previous one.
fn gallop(prefix: &[f64], draw: f64) -> usize {
    // Every value before `low` is at most `draw`.
    let mut low = 0;
    let mut step = 1;
    while low + step <= prefix.len() && prefix[low + step - 1] <= draw {
        low += step;
        step *= 2;
    }
    let high = prefix.len().min(low + step);
    low + prefix[low..high].partition_point(|&cumulative| cumulative <= draw)
}

/// The deterministic RNG stream of shard `shard` under batch seed `seed`.
///
/// The two values are mixed through a splitmix64-style finalizer so that
/// neighbouring shards (and neighbouring seeds) start from well-separated
/// states; the scheme is part of the reproducibility contract — changing it
/// changes every sharded histogram.
pub fn shard_rng(seed: u64, shard: usize) -> StdRng {
    let mut mixed = seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    mixed = (mixed ^ (mixed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mixed = (mixed ^ (mixed >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(mixed ^ (mixed >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell_distribution() -> CumulativeDistribution {
        CumulativeDistribution::from_probabilities(&[0.5, 0.0, 0.0, 0.5])
    }

    #[test]
    fn outcomes_follow_the_prefix_sums() {
        let dist = bell_distribution();
        assert_eq!(dist.num_outcomes(), 4);
        assert_eq!(dist.outcome_of(0.0), 0);
        assert_eq!(dist.outcome_of(0.25), 0);
        assert_eq!(dist.outcome_of(0.5), 3);
        assert_eq!(dist.outcome_of(0.999), 3);
        // Draws at or past the total mass collapse to the last outcome.
        assert_eq!(dist.outcome_of(1.0), 3);
        assert_eq!(dist.outcome_of(2.0), 3);
    }

    #[test]
    fn sequential_sampling_is_seed_deterministic() {
        let dist = bell_distribution();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        assert_eq!(
            dist.sample_counts(&mut a, 500),
            dist.sample_counts(&mut b, 500)
        );
    }

    #[test]
    fn sharded_sampling_is_thread_count_invariant() {
        let dist = CumulativeDistribution::from_probabilities(&[0.1, 0.2, 0.3, 0.4]);
        let reference = dist.sample_sharded(42, 10_000, 1, 128);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                dist.sample_sharded(42, 10_000, threads, 128),
                reference,
                "threads={threads}"
            );
        }
        assert_eq!(reference.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn sharded_sampling_depends_on_seed_and_shard_size() {
        let dist = bell_distribution();
        let base = dist.sample_sharded(1, 4096, 4, 64);
        assert_ne!(dist.sample_sharded(2, 4096, 4, 64), base);
        // A different shard layout is a different (valid) histogram.
        let relayout = dist.sample_sharded(1, 4096, 4, 80);
        assert_eq!(relayout.iter().sum::<usize>(), 4096);
    }

    #[test]
    fn zero_shots_yield_an_empty_histogram() {
        let dist = bell_distribution();
        assert_eq!(dist.sample_sharded(7, 0, 4, 64), vec![0; 4]);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(dist.sample_counts(&mut rng, 0), vec![0; 4]);
    }

    #[test]
    fn draws_on_the_prefix_sums_land_where_outcome_of_puts_them() {
        // Draws on and one ulp either side of every prefix sum sit where a
        // running sum one ulp off, or `<` in place of `<=`, would move them.
        // The zero amplitude makes two equal prefix sums; blocks of two
        // amplitudes make the walk carry its sum across seven boundaries.
        let mut amplitudes: Vec<Complex> = (0..16u32)
            .map(|k| Complex::new(f64::from(k % 5 + 1) * 0.1, f64::from(k % 3) * 0.07))
            .collect();
        amplitudes[9] = Complex::ZERO;
        let dist = CumulativeDistribution::from_amplitudes(&amplitudes);
        let draws: Vec<f64> = dist
            .prefix
            .iter()
            .flat_map(|p| [p.to_bits() - 1, p.to_bits(), p.to_bits() + 1])
            .map(f64::from_bits)
            .collect();
        let mut expected = BTreeMap::new();
        for &draw in &draws {
            *expected.entry(dist.outcome_of(draw)).or_insert(0) += 1;
        }
        let re: Vec<f64> = amplitudes.iter().map(|a| a.re).collect();
        let im: Vec<f64> = amplitudes.iter().map(|a| a.im).collect();
        let blocks = re.chunks(2).zip(im.chunks(2));
        assert_eq!(count_draws(blocks, draws), expected);
    }

    #[test]
    fn shard_streams_are_distinct() {
        let mut a = shard_rng(9, 0);
        let mut b = shard_rng(9, 1);
        let draws_a: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let draws_b: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(draws_a, draws_b);
    }
}
