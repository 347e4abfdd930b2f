//! Criterion benchmark of the batch execution subsystem.
//!
//! Three comparisons back the batch design:
//!
//! 1. **Compilation caching** — compiling the hwb(6) permutation oracle
//!    cold (fresh cache, full synthesis + mapping) against a warm
//!    [`OracleCache`] hit (one hash lookup). The cache hit must be orders of
//!    magnitude faster.
//! 2. **Sampling** — the retired per-shot linear scan against the
//!    CDF/binary-search sampler and the shot-sharded parallel sampler on a
//!    16-qubit uniform state. The linear scan is measured at 1/50 of the
//!    shot count (it is too slow to run at 10^5 shots in a benchmark loop);
//!    if the sharded sampler's 100 000-shot time beats the linear scan's
//!    2 000-shot time, it beats the like-for-like baseline by at least 50×
//!    that ratio.
//! 3. **Batch dedup** — a warm 8-job batch over 2 distinct oracles, i.e.
//!    the steady-state cost of serving repeated workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use qdaflow::prelude::*;
use qdaflow::quantum::{CumulativeDistribution, PreparedState, SoaStatevector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn hwb6_spec() -> OracleSpec {
    OracleSpec::permutation(
        qdaflow::boolfn::hwb::hwb_permutation(6),
        SynthesisChoice::default(),
    )
}

fn bench_compile_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let spec = hwb6_spec();

    group.bench_function("compile_cold/hwb6", |b| {
        b.iter(|| OracleCache::new().get_or_compile(&spec).unwrap())
    });

    let warm = OracleCache::new();
    warm.get_or_compile(&spec).unwrap();
    group.bench_function("compile_cached/hwb6", |b| {
        b.iter(|| warm.get_or_compile(&spec).unwrap())
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let mut circuit = QuantumCircuit::new(16);
    for qubit in 0..16 {
        circuit.push(QuantumGate::H(qubit)).unwrap();
    }
    let state = SoaStatevector::simulate(&circuit, &ExecConfig::default()).unwrap();
    let amplitudes = state.to_amplitudes();

    // The retired baseline, at 1/50 of the shot count (see module docs).
    group.bench_function("sample_linear_scan/16q/2000_shots", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut histogram = vec![0usize; 1 << 16];
            for _ in 0..2000 {
                histogram[state.sample_linear(&mut rng)] += 1;
            }
            histogram
        })
    });

    group.bench_function("sample_cdf/16q/100000_shots", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            CumulativeDistribution::from_amplitudes(&amplitudes).sample_counts(&mut rng, 100_000)
        })
    });

    let auto = ExecConfig::auto();
    group.bench_function("sample_sharded/16q/100000_shots", |b| {
        b.iter(|| {
            CumulativeDistribution::from_amplitudes(&amplitudes).sample_sharded(
                7,
                100_000,
                auto.threads,
                auto.shot_shard_size,
            )
        })
    });
    group.finish();
}

fn bench_batch_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let specs = [
        hwb6_spec(),
        OracleSpec::phase_function(
            Expr::parse("(x0 & x1) ^ (x2 & x3)")
                .unwrap()
                .truth_table(4)
                .unwrap(),
        ),
    ];
    let jobs: Vec<BatchJob> = (0..8)
        .map(|i| BatchJob::new(specs[i % 2].clone(), 4096, i as u64))
        .collect();

    let engine = BatchEngine::new();
    engine.run_batch(&jobs).unwrap();
    group.bench_function("run_batch_warm/8_jobs_2_distinct", |b| {
        b.iter(|| engine.run_batch(&jobs).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compile_cache,
    bench_sampling,
    bench_batch_dedup
);
criterion_main!(benches);
