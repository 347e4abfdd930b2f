//! Summary statistics and process measurements.
//!
//! Timings come from a shared host whose other tenants slow this process
//! down for seconds at a time. Such interference only ever makes a stretch
//! of the run slower, so run-level timings are taken per contiguous chunk of
//! the run and the least disturbed chunk is reported: a stall that covers
//! some of the chunks does not move the result, while a slowdown of the
//! program itself moves every chunk.

/// Chunks a run's timings are cut into.
pub const CHUNKS: usize = 20;

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; 0 without
/// samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (the mean of the middle two for an even count); 0 without
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `sum / count`, or 0 when nothing was counted.
pub fn mean(sum: f64, count: f64) -> f64 {
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// `items` cut into `CHUNKS` contiguous chunks of (nearly) equal length.
fn chunks<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    let count = CHUNKS.clamp(1, items.len().max(1));
    (0..count).map(move |c| &items[c * items.len() / count..(c + 1) * items.len() / count])
}

/// Completion rate of a closed loop from its `(requests, busy seconds)`
/// units: the rate of each chunk, the highest over the chunks.
pub fn chunked_rate(units: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = chunks(units)
        .filter_map(|part| {
            let requests: u64 = part.iter().map(|&(n, _)| n).sum();
            let seconds: f64 = part.iter().map(|&(_, s)| s).sum();
            (seconds > 0.0).then(|| requests as f64 / seconds)
        })
        .collect();
    rates.into_iter().fold(0.0, f64::max)
}

/// The `q` percentile of each chunk of the latencies (in arrival order),
/// the lowest over the chunks.
pub fn chunked_percentile(latencies: &[f64], q: f64) -> f64 {
    chunks(latencies)
        .map(|part| percentile(part, q))
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
