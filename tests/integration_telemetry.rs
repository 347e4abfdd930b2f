//! Integration tests of the workspace telemetry layer: a traced `batch`
//! session must produce a Chrome trace-event file that passes a hand-rolled
//! lint (valid JSON array, strictly matched B/E pairs per thread, monotonic
//! timestamps) with spans from several layers of the flow, the unified
//! metrics dump must be valid Prometheus exposition, `flow --json` must keep
//! its pinned schema, and the recorder must stay correct under concurrency
//! (exact dropped-count when the ring wraps).

use qdaflow::prelude::*;
use qdaflow::telemetry;
use std::sync::Mutex;

/// Tests that toggle the process-global recorder serialize on this lock so
/// they cannot observe each other's enable/disable flips.
static GLOBAL_TELEMETRY: Mutex<()> = Mutex::new(());

fn global_guard() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_TELEMETRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validator — enough to assert the Chrome
// trace is well-formed without an external parser.
// ---------------------------------------------------------------------------

struct JsonLint<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonLint<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        assert_eq!(
            self.peek(),
            Some(byte),
            "expected {:?} at byte {}",
            byte as char,
            self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => panic!("unexpected byte {other:?} at {}", self.pos),
        }
    }

    fn object(&mut self) {
        self.expect(b'{');
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return;
        }
        loop {
            self.skip_ws();
            self.string();
            self.skip_ws();
            self.expect(b':');
            self.value();
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return;
                }
                other => panic!("unexpected byte {other:?} in object at {}", self.pos),
            }
        }
    }

    fn array(&mut self) {
        self.expect(b'[');
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return;
        }
        loop {
            self.value();
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return;
                }
                other => panic!("unexpected byte {other:?} in array at {}", self.pos),
            }
        }
    }

    fn string(&mut self) {
        self.expect(b'"');
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                assert!(
                                    self.peek().is_some_and(|c| c.is_ascii_hexdigit()),
                                    "bad \\u escape at {}",
                                    self.pos
                                );
                                self.pos += 1;
                            }
                        }
                        other => panic!("bad escape {other:?} at {}", self.pos),
                    }
                }
                Some(c) => {
                    assert!(c >= 0x20, "unescaped control byte {c:#x} at {}", self.pos);
                    self.pos += 1;
                }
                None => panic!("unterminated string"),
            }
        }
    }

    fn literal(&mut self, word: &str) {
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "expected {word:?} at byte {}",
            self.pos
        );
        self.pos += word.len();
    }

    fn number(&mut self) {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        assert!(self.pos > digits, "number without digits at {}", self.pos);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
    }

    fn finish(mut self) {
        self.skip_ws();
        assert_eq!(
            self.pos,
            self.bytes.len(),
            "trailing bytes after JSON value"
        );
    }
}

/// Asserts `text` is exactly one well-formed JSON value.
fn assert_valid_json(text: &str) {
    let mut lint = JsonLint::new(text);
    lint.value();
    lint.finish();
}

/// Extracts the string value of `key` from one flat JSON event object, if
/// present (event fields in the Chrome trace never contain escaped quotes
/// in their *keys*, and the extracted values here — `ph`, `cat` — are plain
/// identifiers).
fn string_field(event: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = event.find(&needle)? + needle.len();
    let rest = &event[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_owned())
}

/// Extracts the integer value of `key` from one flat JSON event object.
fn int_field(event: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = event.find(&needle)? + needle.len();
    let digits: String = event[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A hand-rolled lint of the Chrome trace-event JSON-array format (the
/// telemetry sibling of `lint_prometheus_exposition` in
/// `integration_service.rs`): the file must be a valid JSON array whose
/// events carry microsecond `ts` (and `dur` for `"X"`), appear in
/// non-decreasing `ts` order, and whose `"B"`/`"E"` events form strictly
/// matched, properly nested pairs on every `tid`.
fn lint_chrome_trace(text: &str) {
    use std::collections::HashMap;
    assert_valid_json(text);
    let body = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .expect("trace is not a JSON array");
    let mut last_ts = 0u64;
    let mut open: HashMap<u64, u64> = HashMap::new(); // tid -> open B count
    let mut events = 0usize;
    for line in body.lines().map(str::trim) {
        if line.is_empty() {
            continue;
        }
        let event = line.strip_suffix(',').unwrap_or(line);
        events += 1;
        let ph = string_field(event, "ph").expect("event without ph");
        let ts = int_field(event, "ts").expect("event without integer ts");
        let tid = int_field(event, "tid").expect("event without tid");
        assert!(ts >= last_ts, "timestamps regress at ts={ts}");
        last_ts = ts;
        assert!(int_field(event, "pid").is_some(), "event without pid");
        match ph.as_str() {
            "B" => {
                assert!(string_field(event, "cat").is_some(), "B without cat");
                assert!(string_field(event, "name").is_some(), "B without name");
                *open.entry(tid).or_default() += 1;
            }
            "E" => {
                let depth = open.entry(tid).or_default();
                assert!(*depth > 0, "E without matching B on tid {tid}");
                *depth -= 1;
            }
            "X" => {
                assert!(int_field(event, "dur").is_some(), "X without dur");
            }
            "i" => {
                assert!(string_field(event, "s").is_some(), "i without scope");
            }
            other => panic!("unknown phase {other:?}"),
        }
    }
    assert!(events > 0, "trace has no events");
    for (tid, depth) in open {
        assert_eq!(depth, 0, "tid {tid} ends with {depth} unclosed B events");
    }
}

/// Distinct `cat` (telemetry target) values appearing in a Chrome trace.
fn trace_layers(text: &str) -> std::collections::BTreeSet<String> {
    text.lines()
        .filter_map(|line| string_field(line, "cat"))
        .collect()
}

// ---------------------------------------------------------------------------
// The traced batch session.
// ---------------------------------------------------------------------------

#[test]
fn traced_batch_produces_a_linted_chrome_trace_and_unified_stats() {
    let _guard = global_guard();
    let dir = std::env::temp_dir().join(format!("qdaflow_telemetry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");

    let mut shell = Shell::new();
    let output = shell
        .run_script(&format!(
            "batch --shots 64 --trace {} --stats \
             --spec \"hwb 4\" --spec \"random 4 7\" --spec \"expr (a & b) ^ c\"",
            path.display()
        ))
        .unwrap();

    // (a) The trace file passes the Chrome trace-event lint and contains
    // spans from at least four layers of the flow.
    let trace = std::fs::read_to_string(&path).unwrap();
    lint_chrome_trace(&trace);
    let layers = trace_layers(&trace);
    assert!(
        layers.len() >= 4,
        "expected spans from >= 4 layers, found {layers:?}"
    );
    for expected in ["batch", "cache", "dispatch", "job"] {
        assert!(
            layers.contains(expected),
            "missing layer {expected:?} in {layers:?}"
        );
    }
    // A dense job says where its time went: the plan compile and the
    // initial state beside the kernel's `apply_soa`, then the sampling walk
    // over the state and the result assembled from its counts.
    for span in [
        "plan compile",
        "state prepare",
        "apply_soa",
        "sample walk",
        "result assemble",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{span} ")),
            "missing span {span:?}"
        );
    }

    // (b) `--stats` logged the per-service metrics followed by the unified
    // process-wide registry; together they must contain the new families.
    let stats = output
        .iter()
        .filter(|l| !l.starts_with('['))
        .cloned()
        .collect::<Vec<_>>()
        .join("\n");
    for family in [
        "qdaflow_jobs_submitted_total",
        "qdaflow_pass_duration_seconds",
        "qdaflow_dispatch_total",
        "qdaflow_compile_duration_seconds",
        "qdaflow_kernel_amps_touched_total",
        "qdaflow_kernel_ns_per_amp",
        "qdaflow_sampling_shards_total",
        "qdaflow_oracle_cache_misses_total",
    ] {
        assert!(stats.contains(family), "stats dump is missing {family}");
    }
    // Cache activity is counted once, by the cache: no second family under
    // another name, and each cache family declared exactly once.
    for deleted in ["qdaflow_cache_hits_total", "qdaflow_cache_misses_total"] {
        assert!(
            !stats.lines().any(|l| l.contains(deleted)),
            "stats dump still carries {deleted}"
        );
    }
    for family in [
        "qdaflow_oracle_cache_hits_total",
        "qdaflow_oracle_cache_misses_total",
        "qdaflow_oracle_cache_disk_hits_total",
        "qdaflow_oracle_cache_disk_corrupt_total",
        "qdaflow_oracle_cache_disk_writes_total",
        "qdaflow_oracle_cache_disk_write_errors_total",
        "qdaflow_oracle_cache_entries",
    ] {
        let declared = format!("# TYPE {family} ");
        let count = stats.lines().filter(|l| l.starts_with(&declared)).count();
        assert_eq!(count, 1, "{family} declared {count} times");
    }

    // The batch itself still reports normally.
    assert!(output.iter().any(|l| l.contains("[batch] 3 jobs")));
    assert!(output.iter().any(|l| l.contains("trace:")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_batch_records_nothing() {
    let _guard = global_guard();
    telemetry::clear();
    let mut shell = Shell::new();
    shell
        .run_script("batch --shots 16 --spec \"hwb 4\"")
        .unwrap();
    let (records, dropped) = telemetry::snapshot();
    assert!(
        records.is_empty(),
        "disabled recorder captured {} records",
        records.len()
    );
    assert_eq!(dropped, 0);
}

#[test]
fn trace_command_controls_the_recorder() {
    let _guard = global_guard();
    let dir = std::env::temp_dir().join(format!("qdaflow_trace_cmd_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.json");

    let mut shell = Shell::new();
    let output = shell
        .run_script(&format!(
            "trace on; flow \"revgen --hwb 4; tbs; revsimp; rptm; tpar\"; trace off; trace dump {}; trace; trace stats",
            path.display()
        ))
        .unwrap();
    assert!(output.iter().any(|l| l.contains("[trace] recording on")));
    assert!(output.iter().any(|l| l.contains("[trace] recording off")));
    assert!(output.iter().any(|l| l.contains("[trace] dumped")));
    assert!(output.iter().any(|l| l.contains("[trace] off,")));
    assert!(output
        .iter()
        .any(|l| l.starts_with("# TYPE qdaflow_pass_duration_seconds")));
    assert!(output
        .iter()
        .any(|l| l == "# TYPE qdaflow_oracle_cache_misses_total counter"));

    let trace = std::fs::read_to_string(&path).unwrap();
    lint_chrome_trace(&trace);
    assert!(trace_layers(&trace).contains("pipeline"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shell_pass_commands_record_pass_spans_and_durations() {
    let _guard = global_guard();
    let dir = std::env::temp_dir().join(format!("qdaflow_pass_spans_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("passes.json");

    // A shell pass command runs its pass as a one-pass pipeline, so it
    // records the same span and duration sample as the pass inside `flow`.
    let mut shell = Shell::new();
    let output = shell
        .run_script(&format!(
            "trace on; revgen --expr \"(a & b) ^ (c & d)\"; esopbs; revsimp; trace off; trace dump {}; trace stats",
            path.display()
        ))
        .unwrap();

    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(
        trace.lines().any(|event| {
            string_field(event, "cat").as_deref() == Some("pipeline")
                && string_field(event, "name").as_deref() == Some("pass esopbs")
                && string_field(event, "ph").as_deref() != Some("i")
        }),
        "no pipeline span named 'pass esopbs' in {trace}"
    );
    lint_chrome_trace(&trace);
    assert!(
        output
            .iter()
            .any(|l| l.starts_with("qdaflow_pass_duration_seconds_count{pass=\"esopbs\"} ")),
        "trace stats has no esopbs pass duration: {output:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dispatches_count_only_jobs_whose_lookup_succeeded() {
    let _guard = global_guard();
    let sparse_dispatches = || -> u64 {
        telemetry::global_metrics()
            .render()
            .lines()
            .find_map(|line| {
                line.strip_prefix("qdaflow_dispatch_total{backend=\"sparse\"} ")?
                    .parse()
                    .ok()
            })
            .unwrap_or(0)
    };
    let engine = BatchEngine::new();
    let before = sparse_dispatches();
    // A job whose compile fails never reaches a backend, so it records no
    // dispatch, on an explicit backend as on `Auto`.
    let failing = BatchJob::new(OracleSpec::fault_injection(false, 1), 64, 1)
        .with_backend(BackendChoice::Sparse);
    assert!(engine.try_run_batch(&[failing])[0].is_err());
    assert_eq!(sparse_dispatches(), before);
    let valid = BatchJob::new(
        OracleSpec::permutation(
            qdaflow::boolfn::hwb::hwb_permutation(3),
            SynthesisChoice::default(),
        ),
        64,
        1,
    )
    .with_backend(BackendChoice::Sparse);
    assert!(engine.try_run_batch(&[valid])[0].is_ok());
    assert_eq!(sparse_dispatches(), before + 1);
}

// ---------------------------------------------------------------------------
// `flow --json` schema pinning.
// ---------------------------------------------------------------------------

#[test]
fn flow_json_line_schema_is_stable() {
    let mut shell = Shell::new();
    let output = shell
        .run_script("flow --json \"revgen --hwb 4; tbs; revsimp; rptm; tpar\"")
        .unwrap();
    let line = output
        .iter()
        .find_map(|l| l.strip_prefix("[flow-json] "))
        .expect("flow --json did not log a [flow-json] line");
    assert_valid_json(line);
    // Pinned schema: {"passes":[{"pass":...,"stage":...,"duration_us":N},...],"total_us":N}
    assert!(
        line.starts_with("{\"passes\":[{\"pass\":\""),
        "schema drift: {line}"
    );
    let passes = line.matches("{\"pass\":\"").count();
    assert_eq!(passes, 5, "expected 5 pass objects in {line}");
    assert_eq!(line.matches("\"stage\":\"").count(), 5);
    assert_eq!(line.matches("\"duration_us\":").count(), 5);
    assert!(line.contains("],\"total_us\":"), "schema drift: {line}");
    assert!(line.ends_with('}'), "schema drift: {line}");
}

/// The disabled-recorder overhead bound behind the `fusion_vs_baseline`
/// acceptance criterion (regression < 5% with tracing off). A disabled
/// `span!` site is one relaxed atomic load — no formatting, no allocation,
/// no lock. The plan interpreter emits on the order of one span check per
/// sweep segment (dozens per 20-qubit apply), so even at this test's very
/// generous 200 ns/site ceiling the added cost on a >= 40 ms
/// `fusion_vs_baseline` iteration is tens of microseconds — under 0.1%,
/// far inside the 5% budget. Run by the CI telemetry job in release mode
/// (`--include-ignored`); ignored by default because it is timing-based.
#[test]
#[ignore = "timing-based; run in release by the CI telemetry job"]
fn disabled_span_site_costs_nanoseconds() {
    let _guard = global_guard();
    telemetry::disable();
    telemetry::clear();
    const CALLS: u32 = 100_000;
    // Warm the pipeline once, then time the disabled sites.
    for _ in 0..1_000 {
        let _span = telemetry::span!("bench", "warmup {}", 0);
    }
    let started = std::time::Instant::now();
    for i in 0..CALLS {
        let _span = telemetry::span!("bench", "disabled site {}", i);
    }
    let per_call = started.elapsed() / CALLS;
    assert!(
        per_call < std::time::Duration::from_nanos(200),
        "disabled span! site costs {per_call:?} per call (>= 200ns)"
    );
    let (records, _) = telemetry::snapshot();
    assert!(records.is_empty(), "disabled span! recorded something");
}

// ---------------------------------------------------------------------------
// Concurrency: a dedicated recorder hammered from several threads.
// ---------------------------------------------------------------------------

mod concurrency {
    use super::telemetry;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// N threads recording spans concurrently: no panic, no deadlock,
        /// and when the ring wraps the dropped-count is exact — every push
        /// beyond capacity evicts exactly one record.
        #[test]
        fn concurrent_spans_count_drops_exactly(
            threads in 1usize..5,
            spans in 0usize..40,
            capacity in 1usize..96,
        ) {
            let recorder = telemetry::Recorder::with_capacity(capacity);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let recorder = &recorder;
                    scope.spawn(move || {
                        for i in 0..spans {
                            let id = recorder.begin_span("test", format!("span {t}.{i}"), 0);
                            recorder.end_span(id);
                        }
                    });
                }
            });
            let total = (threads * spans * 2) as u64;
            let kept = recorder.len() as u64;
            prop_assert_eq!(kept, total.min(capacity as u64));
            prop_assert_eq!(recorder.dropped(), total - kept);
            // The survivors are still timestamp-ordered in buffer order.
            let (records, _) = recorder.snapshot();
            for pair in records.windows(2) {
                prop_assert!(pair[0].ts_micros <= pair[1].ts_micros);
            }
        }
    }
}
