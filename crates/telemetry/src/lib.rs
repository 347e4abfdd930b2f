//! Workspace-wide telemetry for qdaflow: tracing spans, events, and a
//! unified metrics registry — with zero external dependencies.
//!
//! The crate has two independent halves:
//!
//! * **Tracing** — a global, thread-safe [`Recorder`] holding a bounded
//!   drop-oldest ring buffer of [`TraceRecord`]s. Spans are opened with the
//!   [`span!`] macro (or the [`span()`] / [`span_with_parent`] functions) and
//!   closed by the returned RAII [`SpanGuard`]. Point-in-time [`event`]s and
//!   after-the-fact [`complete`] sections fill in the rest. Snapshots export
//!   to Chrome trace-event JSON ([`export::chrome_trace`], loadable in
//!   Perfetto / `chrome://tracing`) or a human text tree
//!   ([`export::text_tree`]).
//! * **Metrics** — [`MetricsRegistry`]: counters, gauges and histograms with
//!   label sets, rendered in Prometheus text exposition format. A process
//!   global instance is available via [`global_metrics`].
//!
//! Tracing is **off by default**: every entry point first checks
//! [`enabled`], a single relaxed atomic load, so instrumented hot paths pay
//! essentially nothing until a user runs `trace on` (or `batch --trace`) in
//! the shell. Metrics handles are plain atomics and stay live at all times.
//!
//! Parent ids cross thread boundaries explicitly: capture
//! [`current_span`] before handing work to a pool, then open worker spans
//! with [`span_with_parent`]. The exported trace keeps the causal link in
//! the record's `parent` field even though the worker runs on another `tid`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;

pub use metrics::{
    global_metrics, Counter, Gauge, Histogram, MetricsRegistry, DURATION_BUCKETS,
    SHORT_DURATION_BUCKETS,
};

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Ring-buffer capacity of the global recorder (records, not bytes).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Phase of a trace record, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span was opened (`ph: "B"`).
    Begin,
    /// A span was closed (`ph: "E"`).
    End,
    /// A self-contained timed section recorded after the fact (`ph: "X"`).
    Complete,
    /// A point-in-time event (`ph: "i"`).
    Instant,
}

/// One entry in the recorder's ring buffer.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Which phase this record represents.
    pub phase: TracePhase,
    /// Span id (unique per recorder; 0 for records without an identity).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Subsystem the record came from (`"pipeline"`, `"kernel"`, ...).
    pub target: &'static str,
    /// Human-readable name; empty on [`TracePhase::End`] records.
    pub name: String,
    /// Small, stable logical id of the recording OS thread.
    pub tid: u64,
    /// Microseconds since the recorder was created.
    pub ts_micros: u64,
    /// Duration in microseconds; only meaningful for [`TracePhase::Complete`].
    pub dur_micros: u64,
    /// Key/value payload attached to events and spans.
    pub fields: Vec<(&'static str, String)>,
}

struct Ring {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

struct RecorderInner {
    epoch: Instant,
    next_id: AtomicU64,
    ring: Mutex<Ring>,
}

/// Thread-safe span/event recorder over a bounded drop-oldest ring buffer.
///
/// Cloning is cheap and shares the underlying buffer. When the ring is
/// full the **oldest** record is discarded and the dropped-count (reported
/// by [`Recorder::snapshot`] and [`Recorder::dropped`]) is incremented, so
/// a wrapped trace still ends with the most recent activity and says
/// exactly how much history it lost.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Recorder {
    /// Create a recorder whose ring holds at most `capacity` records.
    ///
    /// A capacity of 0 is bumped to 1 so the buffer can always hold the
    /// most recent record.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    buf: VecDeque::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            }),
        }
    }

    fn push(&self, mut record: TraceRecord) {
        let mut ring = self.inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        // Timestamp under the lock: records enter the buffer in strictly
        // non-decreasing `ts_micros` order, which keeps per-tid B/E pairs
        // properly nested in the exported trace.
        let now = self.inner.epoch.elapsed().as_micros() as u64;
        record.ts_micros = if record.phase == TracePhase::Complete {
            // Chrome "X" events carry their *start* time.
            now.saturating_sub(record.dur_micros)
        } else {
            now
        };
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(record);
    }

    /// Open a span and return its id. Prefer the [`span!`] macro, which
    /// also maintains the thread-local parent and produces the matching
    /// end record via [`SpanGuard`].
    pub fn begin_span(&self, target: &'static str, name: String, parent: u64) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(TraceRecord {
            phase: TracePhase::Begin,
            id,
            parent,
            target,
            name,
            tid: thread_tid(),
            ts_micros: 0,
            dur_micros: 0,
            fields: Vec::new(),
        });
        id
    }

    /// Close a span previously opened with [`Recorder::begin_span`].
    pub fn end_span(&self, id: u64) {
        self.push(TraceRecord {
            phase: TracePhase::End,
            id,
            parent: 0,
            target: "",
            name: String::new(),
            tid: thread_tid(),
            ts_micros: 0,
            dur_micros: 0,
            fields: Vec::new(),
        });
    }

    /// Record a point-in-time event with key/value fields.
    pub fn instant(
        &self,
        target: &'static str,
        name: String,
        parent: u64,
        fields: Vec<(&'static str, String)>,
    ) {
        self.push(TraceRecord {
            phase: TracePhase::Instant,
            id: 0,
            parent,
            target,
            name,
            tid: thread_tid(),
            ts_micros: 0,
            dur_micros: 0,
            fields,
        });
    }

    /// Record an already-measured section of wall time as a complete
    /// (`ph: "X"`) record ending now.
    pub fn complete_section(
        &self,
        target: &'static str,
        name: String,
        parent: u64,
        duration: Duration,
    ) {
        self.push(TraceRecord {
            phase: TracePhase::Complete,
            id: 0,
            parent,
            target,
            name,
            tid: thread_tid(),
            ts_micros: 0,
            dur_micros: duration.as_micros() as u64,
            fields: Vec::new(),
        });
    }

    /// Copy out the buffered records plus the number of records dropped
    /// since the last [`Recorder::clear`].
    pub fn snapshot(&self) -> (Vec<TraceRecord>, u64) {
        let ring = self.inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        (ring.buf.iter().cloned().collect(), ring.dropped)
    }

    /// Discard all buffered records and reset the dropped-count.
    pub fn clear(&self) {
        let mut ring = self.inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.buf.clear();
        ring.dropped = 0;
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records dropped (ring wrapped) since the last clear.
    pub fn dropped(&self) -> u64 {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .dropped
    }

    /// Maximum number of records the ring can hold.
    pub fn capacity(&self) -> usize {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .capacity
    }
}

// ---------------------------------------------------------------------------
// Global recorder + thread-local span context
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    static THREAD_TID: Cell<u64> = const { Cell::new(0) };
}

/// Small, stable logical id for the calling OS thread (assigned on first
/// use; used as the Chrome trace `tid`).
pub fn thread_tid() -> u64 {
    THREAD_TID.with(|cell| {
        let tid = cell.get();
        if tid != 0 {
            tid
        } else {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(tid);
            tid
        }
    })
}

/// The process-global recorder backing [`span!`], [`event`] and friends.
pub fn recorder() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(|| Recorder::with_capacity(DEFAULT_CAPACITY))
}

/// Whether global tracing is on. One relaxed atomic load — this is the
/// entire cost instrumented hot paths pay while tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn global tracing on. Buffered records are kept; call [`clear`] first
/// for a fresh trace.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn global tracing off. Spans already open still record their end so
/// the buffer stays well-formed.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Discard all buffered records in the global recorder.
pub fn clear() {
    recorder().clear();
}

/// Snapshot the global recorder: buffered records plus dropped-count.
pub fn snapshot() -> (Vec<TraceRecord>, u64) {
    recorder().snapshot()
}

/// Id of the innermost span open on this thread (0 when none, or when
/// tracing is disabled). Capture this before handing work to a thread
/// pool and pass it to [`span_with_parent`] inside the worker to keep the
/// causal chain across threads.
pub fn current_span() -> u64 {
    if !enabled() {
        return 0;
    }
    CURRENT_SPAN.with(Cell::get)
}

struct ActiveSpan {
    id: u64,
    prev: u64,
}

/// RAII guard for an open span; records the span end when dropped and
/// restores the previous thread-local parent.
#[must_use = "a span ends when its guard is dropped — bind it to a variable"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// A guard that records nothing (what [`span!`] returns while tracing
    /// is disabled).
    pub fn disabled() -> Self {
        SpanGuard { active: None }
    }

    /// The id of the span this guard closes (0 when disabled).
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            CURRENT_SPAN.with(|cell| cell.set(active.prev));
            recorder().end_span(active.id);
        }
    }
}

/// Open a span under the innermost span of the current thread.
///
/// Returns a no-op guard when tracing is disabled. Prefer the [`span!`]
/// macro, which skips formatting the name entirely in that case.
pub fn span(target: &'static str, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let parent = CURRENT_SPAN.with(Cell::get);
    span_with_parent(target, name, parent)
}

/// Open a span under an explicit parent id (use 0 for a root span).
///
/// This is the cross-thread variant: the parent may have been opened on a
/// different thread (see [`current_span`]).
pub fn span_with_parent(target: &'static str, name: impl Into<String>, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let id = recorder().begin_span(target, name.into(), parent);
    let prev = CURRENT_SPAN.with(|cell| cell.replace(id));
    SpanGuard {
        active: Some(ActiveSpan { id, prev }),
    }
}

/// Record a point-in-time event with key/value fields under the current
/// span. No-op while tracing is disabled.
pub fn event(target: &'static str, name: impl Into<String>, fields: Vec<(&'static str, String)>) {
    if !enabled() {
        return;
    }
    let parent = CURRENT_SPAN.with(Cell::get);
    recorder().instant(target, name.into(), parent, fields);
}

/// Record an already-measured duration as a complete (`ph: "X"`) section
/// ending now, under the current span. No-op while tracing is disabled.
pub fn complete(target: &'static str, name: impl Into<String>, duration: Duration) {
    if !enabled() {
        return;
    }
    let parent = CURRENT_SPAN.with(Cell::get);
    recorder().complete_section(target, name.into(), parent, duration);
}

/// Open a span on the global recorder with a formatted name.
///
/// `span!("kernel", "sweep {}q", n)` expands to a single [`enabled`] check
/// (one relaxed atomic load) and — only when tracing is on — formats the
/// name and opens the span. Bind the result: the span ends when the guard
/// drops.
#[macro_export]
macro_rules! span {
    ($target:expr, $($name:tt)+) => {
        if $crate::enabled() {
            $crate::span($target, format!($($name)+))
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts_exactly() {
        let rec = Recorder::with_capacity(4);
        for i in 0..10 {
            rec.instant("test", format!("e{i}"), 0, Vec::new());
        }
        let (records, dropped) = rec.snapshot();
        assert_eq!(records.len(), 4);
        assert_eq!(dropped, 6);
        assert_eq!(records[0].name, "e6");
        assert_eq!(records[3].name, "e9");
        rec.clear();
        assert_eq!(rec.dropped(), 0);
        assert!(rec.is_empty());
    }

    #[test]
    fn timestamps_are_monotonic_in_buffer_order() {
        let rec = Recorder::with_capacity(64);
        for i in 0..20 {
            let id = rec.begin_span("test", format!("s{i}"), 0);
            rec.end_span(id);
        }
        let (records, _) = rec.snapshot();
        for pair in records.windows(2) {
            assert!(pair[0].ts_micros <= pair[1].ts_micros);
        }
    }

    #[test]
    fn complete_section_backdates_start() {
        let rec = Recorder::with_capacity(8);
        rec.complete_section("test", "work".into(), 0, Duration::from_micros(500));
        let (records, _) = rec.snapshot();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].phase, TracePhase::Complete);
        assert_eq!(records[0].dur_micros, 500);
    }

    #[test]
    fn span_ids_are_unique_across_threads() {
        let rec = Recorder::with_capacity(1024);
        let mut handles = Vec::new();
        for t in 0..4 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let id = rec.begin_span("test", format!("t{t}-{i}"), 0);
                    rec.end_span(id);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let (records, dropped) = rec.snapshot();
        assert_eq!(dropped, 0);
        let mut ids: Vec<u64> = records
            .iter()
            .filter(|r| r.phase == TracePhase::Begin)
            .map(|r| r.id)
            .collect();
        assert_eq!(ids.len(), 200);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "span ids must be unique");
    }

    #[test]
    fn disabled_global_span_is_noop() {
        assert!(!enabled());
        let guard = span!("test", "nothing {}", 1);
        assert_eq!(guard.id(), 0);
        assert_eq!(current_span(), 0);
        event("test", "nothing", Vec::new());
        drop(guard);
    }
}
