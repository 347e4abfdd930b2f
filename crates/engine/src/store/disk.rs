//! The disk-backed compiled-oracle cache: one file per [`SpecKey`], shared
//! across processes, layered under the in-memory
//! [`OracleCache`](crate::OracleCache).
//!
//! Every entry is written **atomically**: the record goes to a private
//! temporary file in the cache directory and is `rename`d into place, so a
//! reader never observes a half-written entry and two processes racing on
//! the same key both leave one valid file behind (the later rename wins —
//! both encode the same compilation, so either winner is correct). Reads
//! are fail-open: a missing, truncated, wrong-version or corrupt entry is a
//! *miss* (never a panic), and the compiler simply runs again. The store
//! reports what each load and write found; the
//! [`OracleCache`](crate::OracleCache) layered over it does the counting.

use super::codec::{self, DecodeError};
use crate::EngineError;
use qdaflow_pipeline::spec::SpecKey;
use qdaflow_quantum::QuantumCircuit;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A directory of compiled-oracle entries keyed by the canonical 128-bit
/// [`SpecKey`] digest.
///
/// The cache is plain files — `<dir>/<032x-key>.qdc` — so it needs no
/// daemon, survives restarts, and is shared by every process pointing at
/// the same directory. See the module docs for the atomicity and
/// corruption-tolerance contract. It counts nothing: each call reports its
/// outcome, and the [`OracleCache`](crate::OracleCache) over it counts
/// them.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, EngineError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| EngineError::Io {
            context: format!("create disk cache directory '{}'", dir.display()),
            message: e.to_string(),
        })?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path of a key.
    pub fn entry_path(&self, key: SpecKey) -> PathBuf {
        self.dir.join(format!("{:032x}.qdc", key.0))
    }

    /// Loads the entry for `key`: `Ok(Some(..))` when a valid entry was
    /// read, `Ok(None)` when there is no readable file, and the decode
    /// error when a file was found but rejected (truncated, corrupt,
    /// wrong version or key). Every outcome other than `Ok(Some(..))` is a
    /// miss to the caller — never a panic.
    ///
    /// # Errors
    ///
    /// The [`DecodeError`] of a rejected entry.
    pub fn load(&self, key: SpecKey) -> Result<Option<(QuantumCircuit, Duration)>, DecodeError> {
        match fs::read(self.entry_path(key)) {
            Ok(bytes) => codec::decode_entry(&bytes, key.0).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// Writes an entry atomically (temp file + rename). Best-effort for the
    /// caller: on an I/O error the in-memory layer still serves the
    /// program.
    ///
    /// # Errors
    ///
    /// The I/O error of creating, writing or renaming the temp file.
    pub fn store(
        &self,
        key: SpecKey,
        circuit: &QuantumCircuit,
        compile_time: Duration,
    ) -> std::io::Result<()> {
        let bytes = codec::encode_entry(key.0, circuit, compile_time);
        self.write_atomic(key, &bytes)
    }

    fn write_atomic(&self, key: SpecKey, bytes: &[u8]) -> std::io::Result<()> {
        // The temp name embeds the pid and a per-process counter, so
        // concurrent writers (threads or whole processes) never collide on
        // the temp file; the final rename is atomic within the directory.
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let temp = self.dir.join(format!(
            ".{:032x}.{}.{}.tmp",
            key.0,
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = fs::File::create(&temp)?;
        file.write_all(bytes)?;
        file.flush()?;
        let renamed = fs::rename(&temp, self.entry_path(key));
        if renamed.is_err() {
            let _ = fs::remove_file(&temp);
        }
        renamed
    }
}
