//! The configuration of the dense execution layer.
//!
//! The [`ExecConfig`] knob selects the thread count, the fusion toggle, the
//! sampler shard size and the plan's cache-block size. It is threaded
//! through every execution path of the workspace: the
//! [`ExecPlan`](crate::plan::ExecPlan) interpreter behind the
//! [`SoaStatevector`](crate::plan::SoaStatevector) simulator and the dense
//! backend, the Monte-Carlo noisy simulator, the sampling backends, the
//! engine crate's `MainEngine` and the RevKit-style shell's `exec` command.
//! What fusion does is the [`plan`](crate::plan) module's business (see its
//! docs); this module runs nothing itself.

use std::thread;

/// Hard cap on the configured thread count. The amplitude sweeps are
/// compute-bound where measured (a 2-vCPU AVX-512 host, the 16 MiB state of
/// 20 qubits held in L3), so workers beyond the cores add nothing.
pub(crate) const MAX_THREADS: usize = 16;

/// How the execution layer runs a circuit: thread count, fusion toggle,
/// sampler shard size and cache-block size.
///
/// The default configuration enables fusion and uses one thread per
/// available CPU (capped at 16). The plan interpreter starts its worker
/// pool only for states of at least eight cache blocks (2^16 amplitudes at
/// the default block size); below that, thread startup would dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads; `1` (or `0`) executes sequentially. It
    /// sizes the plan kernel's worker pool and the sparse engine's sampling
    /// workers; dense and stabilizer sampling are sequential and do not use
    /// it.
    pub threads: usize,
    /// Whether circuits are optimized before execution: the plan
    /// lowering's fusion walk (dense ops and phases grouped into blocks of
    /// at most two qubits; each qubit's run of one-qubit ops becomes one
    /// 2×2 or phase record, and a block one 4×4 record where that saves
    /// kernel time), commuting-op clustering and 4×4 batching of global
    /// ops. A simulation from `|0…0⟩`
    /// ([`PreparedState::simulate`](crate::backend::PreparedState::simulate))
    /// also writes the circuit's leading single-qubit layer as its initial
    /// product state
    /// ([`ExecPlan::compile_from_zero`](crate::plan::ExecPlan::compile_from_zero))
    /// instead of applying it as records. Exact up to floating-point rounding
    /// (reordering only ever swaps commuting ops, merging adds one rounding
    /// per composed matrix). Off, the plan holds one dispatch record per
    /// gate and runs on the zero state, and its amplitudes are bit-identical
    /// at every block size and thread count.
    pub fusion: bool,
    /// Shots per shard of the sharded measurement sampler (see
    /// [`crate::sampling`]). Part of the reproducibility contract: together
    /// with the seed and the shot count it fully determines the sharded
    /// histogram, independent of the thread count.
    pub shot_shard_size: usize,
    /// log2 of the amplitudes per cache block of the plan interpreter;
    /// `0` selects [`DEFAULT_BLOCK_BITS`](crate::plan::DEFAULT_BLOCK_BITS).
    /// Clamped to the register size.
    pub block_bits: usize,
}

impl ExecConfig {
    /// Fusion on, one worker per available CPU (capped at 16).
    pub fn auto() -> Self {
        Self {
            threads: thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(MAX_THREADS),
            fusion: true,
            shot_shard_size: crate::sampling::DEFAULT_SHOT_SHARD_SIZE,
            block_bits: 0,
        }
    }

    /// Fusion on, strictly single-threaded.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            ..Self::auto()
        }
    }

    /// The unoptimized behaviour: one plan record per gate, single-threaded
    /// — the setting under which the dense, sparse and stabilizer engines
    /// produce bit-identical amplitudes.
    pub fn baseline() -> Self {
        Self {
            threads: 1,
            fusion: false,
            ..Self::auto()
        }
    }

    /// Replaces the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables fusion (see [`ExecConfig::fusion`]).
    #[must_use]
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Replaces the shard size of the sharded measurement sampler. Values
    /// below 1 are clamped to 1 at sampling time.
    #[must_use]
    pub fn with_shot_shard_size(mut self, shot_shard_size: usize) -> Self {
        self.shot_shard_size = shot_shard_size;
        self
    }

    /// Replaces the plan interpreter's cache-block size (log2 amplitudes;
    /// `0` = auto).
    #[must_use]
    pub fn with_block_bits(mut self, block_bits: usize) -> Self {
        self.block_bits = block_bits;
        self
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert!(ExecConfig::default().fusion);
        assert_eq!(ExecConfig::sequential().threads, 1);
        assert!(ExecConfig::sequential().fusion);
        assert!(!ExecConfig::baseline().fusion);
        assert_eq!(ExecConfig::baseline().threads, 1);
        let custom = ExecConfig::auto()
            .with_threads(2)
            .with_fusion(false)
            .with_shot_shard_size(64)
            .with_block_bits(8);
        assert_eq!(
            custom,
            ExecConfig {
                threads: 2,
                fusion: false,
                shot_shard_size: 64,
                block_bits: 8,
            }
        );
    }
}
