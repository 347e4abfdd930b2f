//! End-to-end benchmark of the qdaflow flow.
//!
//! ```text
//! e2e_bench --workload <dense_hs20|service_mix|compile_eq5> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The seed generates the workload's inputs; the program only receives
//! them. `--trace 0` drives the inputs through the entry points users call
//! (`JobService::submit_batch`/`wait`, the equation (5) `Pipeline`) with the
//! program's tracing off, checks every output against its specification and
//! prints the end-to-end metrics. `--trace 1` runs the same inputs for half
//! the time, then replays them through each layer's public functions with
//! spans recorded by the benchmark's own code, and prints the per-layer
//! metrics. `--smoke` shrinks the inputs and does one set-up, for the
//! benchmark's own tests. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. `NOTES.md` says
//! why each workload exists and which metric each layer should move.

mod compile;
mod inputs;
mod report;
mod rng;
mod service;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: e2e_bench --workload <dense_hs20|service_mix|compile_eq5> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DenseHs20,
    ServiceMix,
    CompileEq5,
}

impl Workload {
    pub const ALL: [Self; 3] = [Self::DenseHs20, Self::ServiceMix, Self::CompileEq5];

    pub fn name(self) -> &'static str {
        match self {
            Self::DenseHs20 => "dense_hs20",
            Self::ServiceMix => "service_mix",
            Self::CompileEq5 => "compile_eq5",
        }
    }
}

/// Checked command-line options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    );
                }
                "--seed" => {
                    let text = value()?;
                    seed = Some(text.parse().map_err(|_| format!("bad seed '{text}'"))?);
                }
                "--seconds" => {
                    let text = value()?;
                    let secs: f64 = text.parse().map_err(|_| format!("bad seconds '{text}'"))?;
                    if !(secs > 0.0 && secs <= 3600.0) {
                        return Err(format!("seconds must be in (0, 3600], got {text}"));
                    }
                    seconds = Some(Duration::from_secs_f64(secs));
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("trace must be 0 or 1, got '{other}'")),
                    });
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            smoke,
        })
    }

    /// Set-ups per run; the reported set-up time is their median.
    pub fn setup_rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Length of the measured loop: the traced run spends the other half
    /// replaying.
    pub fn window(&self) -> Duration {
        let window = if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        };
        if self.smoke {
            window.min(Duration::from_millis(300))
        } else {
            window
        }
    }
}

/// Frees one large buffer before anything else allocates. glibc raises its
/// mmap and trim thresholds the first time a process frees a mapped buffer
/// larger than the current threshold. Without this, the first buffer the
/// dense path frees (16 MiB) sets a trim threshold of 32 MiB, just under the
/// ~33 MiB a 20-qubit job frees, and each job worker's arena lands by chance
/// in a state that hands its memory back after every job and faults it in
/// again on the next one (p50 near 60 ms instead of 38 ms, and a lower
/// `peak_rss_mb`). A long-running process that has once freed a buffer this
/// large is in the settled state measured here.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 30 << 20]));
}

fn main() -> ExitCode {
    settle_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("e2e_bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.workload {
        Workload::DenseHs20 | Workload::ServiceMix => service::run(&options),
        Workload::CompileEq5 => compile::run(&options),
    };
    match outcome {
        Ok(report) => {
            report.print(options.trace);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("e2e_bench: {message}");
            ExitCode::FAILURE
        }
    }
}
