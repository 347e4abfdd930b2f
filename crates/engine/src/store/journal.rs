//! The completion journal: an append-only checkpoint log that lets a killed
//! batch resume from its last completed job.
//!
//! Format (line-oriented text, one record per line so a `SIGKILL` mid-write
//! can corrupt at most the final line):
//!
//! ```text
//! qdaflow-journal v1
//! done <job-digest> <wall-micros> q=<qubits> s=<shots> c=<k:v,...|-> r=<nq>,<gates>,<t>,<td>,<h>,<cx>,<mq>,<d> g=<name:n,...|->
//! ```
//!
//! `job-digest` is [`BatchJob::digest`](crate::BatchJob::digest) — the
//! canonical 128-bit digest over the job's spec key, shot count, seed and
//! backend — so a journal replays only onto *identical* jobs. The
//! rest of the record is the full [`ExecutionResult`], so a resumed job is
//! answered without recompiling or resimulating anything. On load,
//! unparsable lines (typically one torn final line) are skipped, never
//! fatal; an unrecognized header is a typed error so a foreign file is not
//! silently appended to.

use super::codec::intern_gate_name;
use crate::EngineError;
use qdaflow_pipeline::spec::SpecKey;
use qdaflow_quantum::backend::ExecutionResult;
use qdaflow_quantum::resource::ResourceCounts;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

const HEADER: &str = "qdaflow-journal v1";

/// One replayed journal record: the result plus the recorded wall time of
/// the original execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The completed job's result, exactly as first computed.
    pub result: ExecutionResult,
    /// Wall-clock execution time of the original run.
    pub wall: Duration,
}

/// An open, append-mode completion journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` and replays its
    /// existing records: the returned map holds every completed job by
    /// digest. Torn or corrupt lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] when the file cannot be opened or
    /// created, or when an existing non-empty file does not carry the
    /// `qdaflow-journal v1` header (it is not ours to append to).
    pub fn open(
        path: impl Into<PathBuf>,
    ) -> Result<(Self, HashMap<SpecKey, JournalEntry>), EngineError> {
        let path = path.into();
        let io_err = |context: &str, e: std::io::Error| EngineError::Io {
            context: format!("{context} journal '{}'", path.display()),
            message: e.to_string(),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| io_err("read", e))?;
        let mut completed = HashMap::new();
        if text.is_empty() {
            file.write_all(format!("{HEADER}\n").as_bytes())
                .map_err(|e| io_err("initialize", e))?;
            file.flush().map_err(|e| io_err("initialize", e))?;
        } else {
            let mut lines = text.lines();
            if lines.next().map(str::trim) != Some(HEADER) {
                return Err(EngineError::Io {
                    context: format!("open journal '{}'", path.display()),
                    message: "missing 'qdaflow-journal v1' header".to_owned(),
                });
            }
            for line in lines {
                if let Some((digest, entry)) = parse_record(line) {
                    completed.insert(digest, entry);
                }
            }
        }
        Ok((Self { path, file }, completed))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completion record and flushes it, so the checkpoint
    /// survives the process being killed immediately afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] on append failure.
    pub fn append(
        &mut self,
        digest: SpecKey,
        result: &ExecutionResult,
        wall: Duration,
    ) -> Result<(), EngineError> {
        let line = render_record(digest, result, wall);
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| EngineError::Io {
                context: format!("append to journal '{}'", self.path.display()),
                message: e.to_string(),
            })
    }
}

fn render_record(digest: SpecKey, result: &ExecutionResult, wall: Duration) -> String {
    let mut line = format!(
        "done {:032x} {} q={} s={}",
        digest.0,
        wall.as_micros(),
        result.num_qubits,
        result.shots
    );
    line.push_str(" c=");
    push_map(
        &mut line,
        result.counts.iter().map(|(&k, &v)| (k.to_string(), v)),
    );
    let r = &result.resources;
    write!(
        line,
        " r={},{},{},{},{},{},{},{}",
        r.num_qubits,
        r.total_gates,
        r.t_count,
        r.t_depth,
        r.h_count,
        r.cnot_count,
        r.multi_qubit_gates,
        r.depth
    )
    .expect("writing to a String cannot fail");
    line.push_str(" g=");
    push_map(
        &mut line,
        r.by_gate
            .iter()
            .map(|(&name, &count)| (name.to_owned(), count)),
    );
    line.push('\n');
    line
}

fn push_map(line: &mut String, entries: impl Iterator<Item = (String, usize)>) {
    let mut any = false;
    for (key, value) in entries {
        if any {
            line.push(',');
        }
        write!(line, "{key}:{value}").expect("writing to a String cannot fail");
        any = true;
    }
    if !any {
        line.push('-');
    }
}

fn parse_map(text: &str) -> Option<Vec<(String, usize)>> {
    if text == "-" {
        return Some(Vec::new());
    }
    text.split(',')
        .map(|pair| {
            let (key, value) = pair.split_once(':')?;
            Some((key.to_owned(), value.parse().ok()?))
        })
        .collect()
}

fn parse_record(line: &str) -> Option<(SpecKey, JournalEntry)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "done" {
        return None;
    }
    let digest = SpecKey(u128::from_str_radix(fields.next()?, 16).ok()?);
    let wall = Duration::from_micros(fields.next()?.parse().ok()?);
    let num_qubits: usize = fields.next()?.strip_prefix("q=")?.parse().ok()?;
    let shots: usize = fields.next()?.strip_prefix("s=")?.parse().ok()?;
    let counts: BTreeMap<usize, usize> = parse_map(fields.next()?.strip_prefix("c=")?)?
        .into_iter()
        .map(|(k, v)| Some((k.parse().ok()?, v)))
        .collect::<Option<_>>()?;
    let resource_fields: Vec<usize> = fields
        .next()?
        .strip_prefix("r=")?
        .split(',')
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let [r_nq, total_gates, t_count, t_depth, h_count, cnot_count, multi_qubit_gates, depth] =
        resource_fields[..]
    else {
        return None;
    };
    let by_gate: BTreeMap<&'static str, usize> = parse_map(fields.next()?.strip_prefix("g=")?)?
        .into_iter()
        .map(|(name, count)| Some((intern_gate_name(&name)?, count)))
        .collect::<Option<_>>()?;
    if fields.next().is_some() {
        return None;
    }
    let result = ExecutionResult {
        num_qubits,
        shots,
        counts,
        resources: ResourceCounts {
            num_qubits: r_nq,
            total_gates,
            t_count,
            t_depth,
            h_count,
            cnot_count,
            multi_qubit_gates,
            depth,
            by_gate,
        },
    };
    Some((digest, JournalEntry { result, wall }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_result() -> ExecutionResult {
        let mut circuit = qdaflow_quantum::QuantumCircuit::new(3);
        circuit.push(qdaflow_quantum::QuantumGate::H(0)).unwrap();
        circuit.push(qdaflow_quantum::QuantumGate::T(1)).unwrap();
        ExecutionResult::from_histogram(&circuit, 10, &[0, 3, 0, 7])
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qdaflow-journal-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let result = example_result();
        {
            let (mut journal, completed) = Journal::open(&path).unwrap();
            assert!(completed.is_empty());
            journal
                .append(SpecKey(0xabcd), &result, Duration::from_micros(55))
                .unwrap();
            journal
                .append(SpecKey(7), &result, Duration::from_micros(1))
                .unwrap();
        }
        let (_journal, completed) = Journal::open(&path).unwrap();
        assert_eq!(completed.len(), 2);
        let entry = &completed[&SpecKey(0xabcd)];
        assert_eq!(entry.result, result);
        assert_eq!(entry.wall, Duration::from_micros(55));
    }

    #[test]
    fn torn_final_lines_are_skipped_not_fatal() {
        let path = temp_path("torn");
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal
                .append(SpecKey(1), &example_result(), Duration::ZERO)
                .unwrap();
        }
        // Simulate a SIGKILL mid-append: a truncated trailing record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("done 0000000000000000000000000000000b 12 q=3 s=10 c=1:");
        std::fs::write(&path, &text).unwrap();
        let (_journal, completed) = Journal::open(&path).unwrap();
        assert_eq!(completed.len(), 1, "only the intact record survives");
        assert!(completed.contains_key(&SpecKey(1)));
        // And a foreign header is a typed refusal.
        std::fs::write(&path, "some other file\n").unwrap();
        assert!(matches!(Journal::open(&path), Err(EngineError::Io { .. })));
    }
}
