//! Unified metrics registry: counters, gauges and histograms with label
//! sets, rendered in Prometheus text exposition format.
//!
//! Handles returned by the registry ([`Counter`], [`Gauge`], [`Histogram`])
//! are cheap `Arc`-shared atomics: registration takes the registry lock
//! once, after which updates are lock-free. Register a handle once (e.g. in
//! a `OnceLock`) and update it from hot paths freely.
//!
//! A process-wide instance is available via [`global_metrics`]; subsystems
//! that want isolated numbers create their own [`MetricsRegistry`]: each
//! `JobService` owns one for its lifecycle counters, and each `OracleCache`
//! owns one for its cache counters, so every number is counted once, by the
//! component it describes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Seconds-scale latency bucket upper bounds shared by the workspace's
/// job-scale duration histograms.
pub const DURATION_BUCKETS: [f64; 10] =
    [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0];

/// Bucket upper bounds (seconds) from 1 µs to 1 s, for steps far shorter
/// than a job: pipeline passes (a `tbs` or `revsimp` call takes about
/// 7 µs) and oracle compiles (a few hundred µs), which the first
/// [`DURATION_BUCKETS`] bound of 0.5 ms cannot resolve.
pub const SHORT_DURATION_BUCKETS: [f64; 13] = [
    0.000001, 0.000005, 0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
];

/// Monotonic counter handle. Cloning shares the underlying value.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge handle holding a signed integer value. Cloning shares the value.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge to an absolute value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; rendered cumulatively.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// Histogram handle with fixed bucket bounds. Cloning shares the series.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let core = &*self.0;
        for (bucket, bound) in core.buckets.iter().zip(core.bounds.iter()) {
            if value <= *bound {
                bucket.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut current = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match core.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Record a wall-clock duration in seconds.
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(duration.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

impl FamilyKind {
    fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    /// Rendered label pairs without braces, e.g. `backend="dense"`.
    labels: String,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: FamilyKind,
    series: Vec<Series>,
}

#[derive(Default)]
struct State {
    families: Vec<Family>,
    index: HashMap<String, usize>,
}

/// A named collection of metric families rendered as Prometheus text
/// exposition. Families appear in registration order; series within a
/// family in first-use order.
#[derive(Default)]
pub struct MetricsRegistry {
    state: Mutex<State>,
}

/// Escape a label value per the Prometheus exposition rules.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label_value(value));
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn series_handle(
        &self,
        name: &str,
        help: &str,
        kind: FamilyKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let idx = match state.index.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = state.families.len();
                state.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                state.index.insert(name.to_string(), idx);
                idx
            }
        };
        let family = &mut state.families[idx];
        assert!(
            family.kind == kind,
            "metric family {name} already registered as a {}",
            family.kind.as_str()
        );
        let labels = render_labels(labels);
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return series.handle.clone();
        }
        let handle = make();
        family.series.push(Series {
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// Fetch (or create) a counter series. Repeated calls with the same
    /// name and labels return handles sharing one value.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series_handle(name, help, FamilyKind::Counter, labels, || {
            Handle::Counter(Counter::default())
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Fetch (or create) a gauge series.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series_handle(name, help, FamilyKind::Gauge, labels, || {
            Handle::Gauge(Gauge::default())
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Fetch (or create) a histogram series with the given bucket bounds.
    /// The bounds of the first registration win for the whole family.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.series_handle(name, help, FamilyKind::Histogram, labels, || {
            Handle::Histogram(Histogram::with_bounds(bounds))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Render every family in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the exposition text to an existing buffer.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        for family in &state.families {
            let name = &family.name;
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for series in &family.series {
                let labels = &series.labels;
                match &series.handle {
                    Handle::Counter(c) => {
                        if labels.is_empty() {
                            let _ = writeln!(out, "{name} {}", c.get());
                        } else {
                            let _ = writeln!(out, "{name}{{{labels}}} {}", c.get());
                        }
                    }
                    Handle::Gauge(g) => {
                        if labels.is_empty() {
                            let _ = writeln!(out, "{name} {}", g.get());
                        } else {
                            let _ = writeln!(out, "{name}{{{labels}}} {}", g.get());
                        }
                    }
                    Handle::Histogram(h) => {
                        let core = &*h.0;
                        let mut cumulative = 0u64;
                        for (bound, bucket) in core.bounds.iter().zip(core.buckets.iter()) {
                            cumulative += bucket.load(Ordering::Relaxed);
                            let le = format!("le=\"{bound}\"");
                            let joined = if labels.is_empty() {
                                le
                            } else {
                                format!("{labels},{le}")
                            };
                            let _ = writeln!(out, "{name}_bucket{{{joined}}} {cumulative}");
                        }
                        let inf = if labels.is_empty() {
                            "le=\"+Inf\"".to_string()
                        } else {
                            format!("{labels},le=\"+Inf\"")
                        };
                        let _ = writeln!(out, "{name}_bucket{{{inf}}} {}", h.count());
                        if labels.is_empty() {
                            let _ = writeln!(out, "{name}_sum {}", h.sum());
                            let _ = writeln!(out, "{name}_count {}", h.count());
                        } else {
                            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum());
                            let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
                        }
                    }
                }
            }
        }
    }
}

/// The process-wide registry shared by the pipeline, kernel, cache,
/// dispatcher and sampling layers.
pub fn global_metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_series_share_values_by_labels() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("demo_total", "Demo.", &[("backend", "dense")]);
        let b = registry.counter("demo_total", "Demo.", &[("backend", "dense")]);
        let c = registry.counter("demo_total", "Demo.", &[("backend", "sparse")]);
        a.inc();
        b.add(2);
        c.inc();
        let text = registry.render();
        assert!(text.contains("# HELP demo_total Demo.\n"));
        assert!(text.contains("# TYPE demo_total counter\n"));
        assert!(text.contains("demo_total{backend=\"dense\"} 3\n"));
        assert!(text.contains("demo_total{backend=\"sparse\"} 1\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat_seconds", "Latency.", &[0.001, 0.01, 0.1], &[]);
        h.observe(0.0005);
        h.observe(0.002);
        h.observe(5.0);
        let text = registry.render();
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.01\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_count 3\n"));
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5.0025).abs() < 1e-9);
    }

    #[test]
    fn gauge_set_and_add() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("workers", "Active workers.", &[]);
        g.set(4);
        g.add(-1);
        assert_eq!(g.get(), 3);
        assert!(registry.render().contains("workers 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("esc_total", "Escapes.", &[("pass", "a\"b\\c")]);
        c.inc();
        assert!(registry
            .render()
            .contains("esc_total{pass=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("kindful", "A counter.", &[]);
        let _ = registry.gauge("kindful", "Not a gauge.", &[]);
    }
}
