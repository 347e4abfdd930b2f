//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! benchmark's smoke test checks that every declared metric prints with its
//! unit.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("correct_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("gate_count", "gates"),
    ("qubits", "qubits"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.exec_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.unattributed_ms", "ms"),
    ("service.retried", "count"),
    ("service.dead", "count"),
    ("journal.append_us", "us"),
    ("cache.mem_hit_us", "us"),
    ("cache.disk_hit_us", "us"),
    ("cache.miss_ms", "ms"),
    ("cache.compile_ms", "ms"),
    ("cache.mem_hit_ratio", "ratio"),
    ("cache.disk_hit_ratio", "ratio"),
    ("cache.compiles_per_distinct_spec", "ratio"),
    ("dispatch.census_us", "us"),
    ("dispatch.dense", "count"),
    ("dispatch.sparse", "count"),
    ("dispatch.stabilizer", "count"),
    ("qasm.parse_us", "us"),
    ("pass.tbs_ms", "ms"),
    ("pass.dbs_ms", "ms"),
    ("pass.revsimp_ms", "ms"),
    ("pass.rptm_ms", "ms"),
    ("pass.tpar_ms", "ms"),
    ("pass.ps_ms", "ms"),
    ("pass.po_ms", "ms"),
    ("pass.tbs_gates", "gates"),
    ("pass.dbs_gates", "gates"),
    ("pass.revsimp_gates", "gates"),
    ("pass.rptm_gates", "gates"),
    ("pass.tpar_gates", "gates"),
    ("pass.ps_gates", "gates"),
    ("pass.po_gates", "gates"),
    ("pass.tpar_t_removed", "gates"),
    ("plan.compile_us", "us"),
    ("plan.records", "count"),
    ("state.alloc_ms", "ms"),
    ("kernel.sweep_ms", "ms"),
    ("kernel.ns_per_amp_update", "ns"),
    ("state.materialize_ms", "ms"),
    ("sampling.cdf_ms", "ms"),
    ("sampling.draw_ms", "ms"),
    ("result.assemble_ms", "ms"),
    ("sparse.simulate_ms", "ms"),
    ("sparse.support", "count"),
    ("sparse.sample_us", "us"),
    ("stabilizer.tableau_us", "us"),
    ("stabilizer.sampler_us", "us"),
    ("stabilizer.sample_us", "us"),
    ("quality.t_count", "gates"),
    ("quality.cnot_count", "gates"),
    ("unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// False when an output the program is expected to get right failed its
    /// check, or a replay disagreed with the measured run.
    pub correct: bool,
    pub attempted: u64,
    /// Requests that returned an error or were dead-lettered.
    pub failed: u64,
    /// Measured values by metric name; catalogue entries missing here print
    /// as 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed above the result line (host, resolved configuration,
    /// sample counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.insert(name, value);
    }

    /// Prints the notes, then the result line with the catalogue selected
    /// by `traced`.
    pub fn print(&self, traced: bool) {
        for note in &self.notes {
            println!("# {note}");
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                // JSON has no NaN or infinity; an undefined ratio reads 0.
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
