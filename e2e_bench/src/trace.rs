//! Spans recorded by the benchmark's own code around calls into each layer.
//!
//! The program's global tracing stays off: spans go to a private
//! `telemetry::Recorder`, one replayed request at a time, and are reduced to
//! self time per span name (a span's duration minus the part its children
//! cover).

use qdaflow::telemetry::{Recorder, TracePhase};
use std::collections::{BTreeMap, HashMap};

/// Name of the root span of one replayed request.
const REQUEST: &str = "request";

/// Accumulated self time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub self_us: f64,
    pub calls: u64,
}

impl Layer {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        crate::stats::mean(self.self_us, self.calls as f64)
    }
}

/// Span totals of one replayed request.
#[derive(Debug, Default, Clone, Copy)]
pub struct RequestSpans {
    /// Duration of the request's root span.
    pub total_us: f64,
    /// Self time of the layer spans under the root, excluding `excluded`.
    pub layers_us: f64,
    /// Self time of the span name passed as `excluded` to [`Tracer::finish`].
    pub excluded_us: f64,
}

pub struct Tracer {
    recorder: Recorder,
    layers: BTreeMap<String, Layer>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            recorder: Recorder::with_capacity(1 << 12),
            layers: BTreeMap::new(),
        }
    }

    /// Opens the root span of one request.
    pub fn begin(&self) -> u64 {
        self.recorder.begin_span("bench", REQUEST.to_owned(), 0)
    }

    /// Runs `call` inside a span named `name` (the metric it feeds) under
    /// `parent`; parent 0 records a measurement outside any request.
    pub fn time<T>(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.recorder.begin_span(layer, name.to_owned(), parent);
        let output = call();
        self.recorder.end_span(id);
        output
    }

    /// Closes `root`, folds every span recorded since the previous call into
    /// the per-name totals, and returns the request's totals.
    pub fn finish(&mut self, root: u64, excluded: &str) -> Result<RequestSpans, String> {
        self.recorder.end_span(root);
        let (records, dropped) = self.recorder.snapshot();
        self.recorder.clear();
        if dropped > 0 {
            return Err(format!("span recorder dropped {dropped} records"));
        }
        struct Open {
            name: String,
            parent: u64,
            begin_us: u64,
            children_us: u64,
        }
        let mut open: HashMap<u64, Open> = HashMap::new();
        let mut spans = RequestSpans::default();
        for record in records {
            match record.phase {
                TracePhase::Begin => {
                    open.insert(
                        record.id,
                        Open {
                            name: record.name,
                            parent: record.parent,
                            begin_us: record.ts_micros,
                            children_us: 0,
                        },
                    );
                }
                TracePhase::End => {
                    let span = open
                        .remove(&record.id)
                        .ok_or_else(|| format!("span {} ended without a begin", record.id))?;
                    let duration = record.ts_micros.saturating_sub(span.begin_us);
                    if let Some(parent) = open.get_mut(&span.parent) {
                        parent.children_us += duration;
                    }
                    let self_us = duration.saturating_sub(span.children_us) as f64;
                    if record.id == root {
                        spans.total_us = duration as f64;
                        continue;
                    }
                    if span.parent == root {
                        if span.name == excluded {
                            spans.excluded_us += self_us;
                        } else {
                            spans.layers_us += self_us;
                        }
                    }
                    let layer = self.layers.entry(span.name).or_default();
                    layer.self_us += self_us;
                    layer.calls += 1;
                }
                TracePhase::Complete | TracePhase::Instant => {}
            }
        }
        Ok(spans)
    }

    /// Totals of one span name.
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Forgets every total (after warm-up replays).
    pub fn reset(&mut self) {
        self.layers.clear();
    }
}
