//! Tailing a live readings log into micro-batches (incremental
//! ingestion, DESIGN.md §12).
//!
//! A deployment appends to a line-oriented *readings log*; a
//! [`Follower`] tails it — resuming from a byte offset, tolerating a
//! partially written last line — and turns each committed micro-batch
//! into a small [`PathDatabase`] ready for
//! `CubeDelta::compute` + `FlowCube::apply_delta`.
//!
//! ## Log format
//!
//! ```text
//! item <epc> <dim1> ... <dimM>   # register an item's dimension values
//! read <epc> <location> <time>   # one raw (EPC, location, time) reading
//! commit                         # close the current micro-batch
//! end                            # no more data will ever arrive
//! # comment — ignored, as are blank lines
//! ```
//!
//! Dimension values and locations are *names*, resolved against the
//! schema (locations must be leaves of the location hierarchy).
//! Registrations (`item`) persist across commits; readings buffer until
//! the next `commit`, which cleans them ([`clean_readings`]) and emits
//! one batch. **An item's readings must not span commits** — each
//! commit closes the paths of the EPCs it read, so a tag read both
//! before and after a commit becomes two path records rather than one
//! longer path, and an incrementally maintained cube diverges from a
//! batch rebuild over the concatenated log. `end` performs a final
//! implicit commit of any buffered readings.

use crate::path::{PathDatabase, PathRecord};
use crate::reading::{clean_readings, stays_to_record, CleanerConfig, RawReading};
use flowcube_hier::{ConceptId, Schema};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Why the follower could not make progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FollowError {
    /// The log file could not be opened or read.
    Io { path: String, detail: String },
    /// A complete line that is not valid log syntax. The follower does
    /// not advance past it — a bad line is a deployment bug, not noise
    /// to skip silently.
    Parse { line: u64, detail: String },
}

impl fmt::Display for FollowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FollowError::Io { path, detail } => write!(f, "{path}: {detail}"),
            FollowError::Parse { line, detail } => write!(f, "readings log line {line}: {detail}"),
        }
    }
}

impl std::error::Error for FollowError {}

/// Incremental reader of a readings log.
///
/// The follower is pure tailing state — byte offset, the trailing
/// partial line, item registrations, and readings buffered since the
/// last `commit` — so a caller can poll on any schedule:
///
/// ```
/// use flowcube_pathdb::{samples, CleanerConfig, Follower};
/// let schema = samples::paper_table1().schema().clone();
/// let mut f = Follower::new(schema, CleanerConfig::default());
/// let batches = f
///     .feed(b"item 1 tennis nike\nread 1 factory 0\nread 1 truck 20\ncommit\n")
///     .unwrap();
/// assert_eq!(batches.len(), 1);
/// assert_eq!(batches[0].len(), 1);
/// assert_eq!(batches[0].records()[0].stages.len(), 2);
/// ```
pub struct Follower {
    schema: Schema,
    config: CleanerConfig,
    /// Bytes of the log fully applied — the resume point. Advances only
    /// past successfully parsed lines, so an error is retryable.
    offset: u64,
    /// Unapplied tail: a line still being written, or a line that
    /// failed to parse and was left in place.
    partial: Vec<u8>,
    /// 1-based number of the next complete line (for errors).
    line: u64,
    /// EPC → dimension values; survives commits.
    dims_by_epc: BTreeMap<u64, Vec<ConceptId>>,
    /// Readings since the last commit.
    pending: Vec<RawReading>,
    /// Batches completed but not yet handed to the caller (survive an
    /// error later in the same chunk).
    ready: Vec<PathDatabase>,
    finished: bool,
}

impl Follower {
    pub fn new(schema: Schema, config: CleanerConfig) -> Self {
        Follower {
            schema,
            config,
            offset: 0,
            partial: Vec::new(),
            line: 1,
            dims_by_epc: BTreeMap::new(),
            pending: Vec::new(),
            ready: Vec::new(),
            finished: false,
        }
    }

    /// Whether the log declared `end` — no further polls will produce
    /// batches.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Bytes of the log applied so far (resume point).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Items registered so far.
    pub fn registered_items(&self) -> usize {
        self.dims_by_epc.len()
    }

    /// Readings buffered toward the next commit.
    pub fn pending_readings(&self) -> usize {
        self.pending.len()
    }

    /// Read everything the log gained past the resume offset and return
    /// the micro-batches completed by it (empty when no `commit`
    /// landed). After a parse error the offset still points at the bad
    /// line; the next poll re-reads (and retries) it. Do not mix with
    /// [`Follower::feed`] on the same follower — the poll re-reads the
    /// unapplied tail from the file.
    pub fn poll_file(&mut self, path: impl AsRef<Path>) -> Result<Vec<PathDatabase>, FollowError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| FollowError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let mut file = std::fs::File::open(path).map_err(io)?;
        file.seek(SeekFrom::Start(self.offset)).map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        // Everything past `offset` is re-read each poll, so the buffered
        // tail would otherwise be seen twice.
        self.partial.clear();
        self.feed(&bytes)
    }

    /// Consume a chunk of log bytes (the tail since the last call). The
    /// chunk may end mid-line; the fragment is buffered until its
    /// newline arrives. On a parse error the offset stays *before* the
    /// bad line and batches committed earlier in the chunk are retained
    /// — they are returned by the next successful call.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<PathDatabase>, FollowError> {
        let _span = flowcube_obs::span!("pathdb.follow.feed");
        self.partial.extend_from_slice(bytes);
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let text = String::from_utf8_lossy(&self.partial[..nl]).into_owned();
            self.apply_line(text.trim_end_matches('\r'))?;
            self.partial.drain(..=nl);
            self.line += 1;
            self.offset += nl as u64 + 1;
        }
        let out = std::mem::take(&mut self.ready);
        flowcube_obs::counter_add("pathdb.follow.batches", out.len() as u64);
        Ok(out)
    }

    fn parse_err(&self, detail: impl Into<String>) -> FollowError {
        FollowError::Parse {
            line: self.line,
            detail: detail.into(),
        }
    }

    fn apply_line(&mut self, line: &str) -> Result<(), FollowError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        if self.finished {
            return Err(self.parse_err(format!("data after `end`: {line:?}")));
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or_default();
        match verb {
            "item" => {
                let epc = self.parse_epc(parts.next())?;
                let names: Vec<&str> = parts.collect();
                if names.len() != self.schema.num_dims() {
                    return Err(self.parse_err(format!(
                        "item {epc} has {} dimension values, schema has {}",
                        names.len(),
                        self.schema.num_dims()
                    )));
                }
                let mut dims = Vec::with_capacity(names.len());
                for (i, name) in names.iter().enumerate() {
                    let id = self.schema.dim(i as u8).id_of(name).map_err(|_| {
                        self.parse_err(format!("unknown value {name:?} in dimension {i}"))
                    })?;
                    dims.push(id);
                }
                self.dims_by_epc.insert(epc, dims);
            }
            "read" => {
                let epc = self.parse_epc(parts.next())?;
                let loc_name = parts
                    .next()
                    .ok_or_else(|| self.parse_err("read without a location"))?;
                let loc = self
                    .schema
                    .locations()
                    .id_of(loc_name)
                    .map_err(|_| self.parse_err(format!("unknown location {loc_name:?}")))?;
                let time: u64 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| self.parse_err("read without a numeric time"))?;
                if let Some(extra) = parts.next() {
                    return Err(self.parse_err(format!("trailing token {extra:?} on read")));
                }
                self.pending.push(RawReading::new(epc, loc, time));
            }
            "commit" => {
                if let Some(batch) = self.commit()? {
                    self.ready.push(batch);
                }
            }
            "end" => {
                if let Some(batch) = self.commit()? {
                    self.ready.push(batch);
                }
                self.finished = true;
            }
            other => return Err(self.parse_err(format!("unknown verb {other:?}"))),
        }
        Ok(())
    }

    fn parse_epc(&self, token: Option<&str>) -> Result<u64, FollowError> {
        token
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.parse_err("missing or non-numeric EPC"))
    }

    /// Clean the buffered readings into one micro-batch database.
    fn commit(&mut self) -> Result<Option<PathDatabase>, FollowError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        // Build before draining: a failed commit (unregistered EPC) keeps
        // the readings, so retrying the line after fixing the log works.
        let cleaned = clean_readings(self.pending.iter().copied(), &self.config);
        let mut records: Vec<PathRecord> = Vec::with_capacity(cleaned.len());
        for (epc, stays) in &cleaned {
            let dims = self.dims_by_epc.get(epc).ok_or_else(|| {
                self.parse_err(format!(
                    "EPC {epc} was read but never registered with `item`"
                ))
            })?;
            records.push(stays_to_record(*epc, dims.clone(), stays, &self.config));
        }
        let db = PathDatabase::from_records(self.schema.clone(), records)
            .map_err(|e| self.parse_err(e.to_string()))?;
        flowcube_obs::counter_add("pathdb.follow.readings", self.pending.len() as u64);
        flowcube_obs::counter_add("pathdb.follow.records", db.len() as u64);
        self.pending.clear();
        Ok(Some(db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    fn follower() -> Follower {
        Follower::new(
            samples::paper_table1().schema().clone(),
            CleanerConfig::default(),
        )
    }

    #[test]
    fn commits_split_batches_and_registrations_persist() {
        let mut f = follower();
        let batches = f
            .feed(
                b"# two items\n\
                  item 1 tennis nike\n\
                  item 2 shirt adidas\n\
                  read 1 factory 0\n\
                  read 1 factory 10\n\
                  read 2 factory 3\n\
                  commit\n\
                  read 1 truck 20\n\
                  commit\n",
            )
            .unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 2);
        // EPC order is deterministic (sorted).
        assert_eq!(batches[0].records()[0].id, 1);
        assert_eq!(batches[0].records()[0].stages[0].dur, 10);
        assert_eq!(batches[0].records()[1].id, 2);
        // Second batch reuses EPC 1's registration without a new `item`.
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[1].records()[0].id, 1);
        assert!(!f.finished());
    }

    #[test]
    fn partial_lines_wait_for_their_newline() {
        let mut f = follower();
        assert!(f
            .feed(b"item 1 tennis nike\nread 1 fac")
            .unwrap()
            .is_empty());
        assert_eq!(f.pending_readings(), 0);
        assert!(f.feed(b"tory 5\ncom").unwrap().is_empty());
        assert_eq!(f.pending_readings(), 1);
        let batches = f.feed(b"mit\n").unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].records()[0].stages.len(), 1);
    }

    #[test]
    fn end_implies_final_commit_and_rejects_trailing_data() {
        let mut f = follower();
        let batches = f
            .feed(b"item 1 tennis nike\nread 1 factory 0\nend\n")
            .unwrap();
        assert_eq!(batches.len(), 1);
        assert!(f.finished());
        let err = f.feed(b"read 1 factory 9\n").unwrap_err();
        assert!(matches!(err, FollowError::Parse { .. }));
    }

    #[test]
    fn errors_name_the_line_and_do_not_advance_past_it() {
        let mut f = follower();
        let err = f.feed(b"item 1 tennis nike\nread 1 mars 5\n").unwrap_err();
        match &err {
            FollowError::Parse { line, detail } => {
                assert_eq!(*line, 2);
                assert!(detail.contains("mars"), "{detail}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unregistered EPC surfaces at commit time.
        let mut f = follower();
        let err = f.feed(b"read 77 factory 5\ncommit\n").unwrap_err();
        assert!(err.to_string().contains("77"), "{err}");
    }

    #[test]
    fn poll_file_resumes_from_offset() {
        let path = flowcube_testkit::temp_path("follow.log");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "item 1 tennis nike\nread 1 factory 0\n").unwrap();
        let mut f = follower();
        assert!(f.poll_file(&path).unwrap().is_empty());
        let after_first = f.offset();
        assert!(after_first > 0);

        // Append more and poll again: only the new bytes are read.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        use std::io::Write;
        file.write_all(b"read 1 truck 7\ncommit\n").unwrap();
        drop(file);
        let batches = f.poll_file(&path).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].records()[0].stages.len(), 2);
        assert_eq!(
            f.offset() as usize,
            std::fs::metadata(&path).unwrap().len() as usize
        );
        let _ = std::fs::remove_file(&path);
    }
}
