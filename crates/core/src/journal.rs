//! The crash-safe, append-only JSONL journal behind the sweep runner's
//! `--resume` and the `gramer-serve` daemon's `--journal`: one JSON
//! object per line, keyed by a caller-supplied [`KeyFn`]. Replay skips
//! and counts lines that do not parse or have no key (a torn tail, a
//! hand edit) and keeps the last valid line per id.
//!
//! An append writes one line and `sync_data`s it, whatever the history;
//! after a failed append the next line starts with a newline, so a
//! partial line never glues onto a record. Compaction rewrites the file
//! as the latest line per id through [`gramer_graph::io::write_atomic`].
//! It runs on open (dropping any torn tail) and whenever superseded
//! lines outnumber live ones, so an append costs amortized O(1).

use crate::json::JsonValue;
use gramer_graph::io::write_atomic;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Extracts an entry's id, or `None` when the entry is not valid.
pub type KeyFn = fn(&JsonValue) -> Option<String>;

/// What replaying a journal found.
#[derive(Debug, Default)]
pub struct Replayed {
    /// The last valid entry per id, in order of first appearance.
    pub entries: Vec<JsonValue>,
    /// Lines skipped as torn or invalid.
    pub skipped_lines: usize,
}

/// An open journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    key: KeyFn,
    /// Opened on the first append, dropped by compaction.
    file: Option<File>,
    /// A failed append may have left a partial line at the end.
    torn: bool,
    /// Valid lines in the file, and the ids they carry.
    lines: usize,
    ids: HashSet<String>,
}

/// The latest valid line per id: `(id, raw line, parsed)`, in order of
/// first appearance, plus the count of skipped lines.
struct Scan(Vec<(String, String, JsonValue)>, usize);

impl Scan {
    fn read(path: &Path, key: KeyFn) -> io::Result<Scan> {
        let bytes = match fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            other => other?,
        };
        let (mut latest, mut skipped) = (Vec::new(), 0);
        let mut index: HashMap<String, usize> = HashMap::new();
        for raw in bytes.split(|&b| b == b'\n') {
            // A line that is not UTF-8 fails to parse and is counted.
            let line = std::str::from_utf8(raw).unwrap_or("\u{fffd}");
            if line.trim().is_empty() {
                continue;
            }
            let parsed = JsonValue::parse(line).ok();
            let Some((id, entry)) = parsed.and_then(|v| Some((key(&v)?, v))) else {
                skipped += 1;
                continue;
            };
            let slot = (id.clone(), line.to_string(), entry);
            match index.get(&id) {
                Some(&i) => latest[i] = slot,
                None => {
                    index.insert(id, latest.len());
                    latest.push(slot);
                }
            }
        }
        Ok(Scan(latest, skipped))
    }

    fn replayed(self) -> Replayed {
        Replayed {
            entries: self.0.into_iter().map(|(_, _, v)| v).collect(),
            skipped_lines: self.1,
        }
    }
}

/// Reads the journal at `path` without modifying it (missing = empty).
///
/// # Errors
///
/// Only real I/O errors; corrupt lines are counted instead.
pub fn read(path: &Path, key: KeyFn) -> io::Result<Replayed> {
    Ok(Scan::read(path, key)?.replayed())
}

impl Journal {
    /// Opens the journal at `path` (creating it and its parent
    /// directories if needed), replays it and compacts it.
    ///
    /// # Errors
    ///
    /// Any I/O error reading the file or writing the compacted one.
    pub fn open(path: impl Into<PathBuf>, key: KeyFn) -> io::Result<(Journal, Replayed)> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let scan = Scan::read(&path, key)?;
        let mut journal = Journal {
            path,
            key,
            file: None,
            torn: false,
            lines: 0,
            ids: HashSet::new(),
        };
        journal.compact(&scan)?;
        Ok((journal, scan.replayed()))
    }

    /// Appends `entry` as one synced line, then compacts if superseded
    /// lines now outnumber live ones.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the key function rejects
    /// `entry`, else any I/O error of the write, sync or compaction.
    /// Every line appended before an error still replays.
    pub fn append(&mut self, entry: &JsonValue) -> io::Result<()> {
        let id = (self.key)(entry).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "journal entry has no valid id")
        })?;
        let line = format!("{}{entry}\n", if self.torn { "\n" } else { "" });
        let written = self.write_line(line.as_bytes());
        self.torn = written.is_err();
        written?;
        self.lines += 1;
        self.ids.insert(id);
        if self.lines - self.ids.len() > self.ids.len() {
            self.compact(&Scan::read(&self.path, self.key)?)?;
        }
        Ok(())
    }

    fn write_line(&mut self, line: &[u8]) -> io::Result<()> {
        let file = match &mut self.file {
            Some(file) => file,
            slot => slot.insert(OpenOptions::new().append(true).open(&self.path)?),
        };
        file.write_all(line)?;
        file.sync_data()
    }

    /// Replaces the file with the latest line per id from `scan`.
    fn compact(&mut self, scan: &Scan) -> io::Result<()> {
        let text: String = scan
            .0
            .iter()
            .map(|(_, line, _)| line.clone() + "\n")
            .collect();
        // Even a failed replacement may have renamed the new file in.
        self.file = None;
        write_atomic(&self.path, text.as_bytes())?;
        (self.lines, self.torn) = (scan.0.len(), false);
        self.ids = scan.0.iter().map(|(id, _, _)| id.clone()).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test entries' key: a numeric `id` field.
    fn key(v: &JsonValue) -> Option<String> {
        v.get("id")
            .and_then(JsonValue::as_u64)
            .map(|id| id.to_string())
    }

    fn entry(id: u64, status: &str) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::from(id)),
            ("status", JsonValue::from(status)),
        ])
    }

    fn status(v: &JsonValue) -> &str {
        v.get("status").and_then(JsonValue::as_str).unwrap_or("")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gramer-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn line_count(path: &Path) -> usize {
        fs::read_to_string(path).expect("read").lines().count()
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let dir = temp_dir("torn");
        let path = dir.join("jobs.jsonl");
        let (mut journal, _) = Journal::open(&path, key).expect("open");
        journal.append(&entry(1, "completed")).expect("append");
        drop(journal);
        // Simulate an append crash: half a JSON object at the end.
        let mut text = fs::read_to_string(&path).expect("read");
        text.push_str("{\"id\": 2, \"status\": \"que");
        fs::write(&path, text).expect("write");

        let replay = read(&path, key).expect("replay");
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.skipped_lines, 1);
        assert_eq!(key(&replay.entries[0]).as_deref(), Some("1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_then_reopen_append_replay_keeps_the_new_record() {
        let dir = temp_dir("reopen");
        let path = dir.join("jobs.jsonl");
        let first = entry(1, "completed");
        fs::write(&path, format!("{first}\n{{\"id\": 2, \"sta")).expect("write");

        let (mut journal, replay) = Journal::open(&path, key).expect("open");
        assert_eq!(replay.skipped_lines, 1, "the torn tail is counted once");
        assert_eq!(replay.entries, std::slice::from_ref(&first));
        journal.append(&entry(2, "queued")).expect("append");
        drop(journal);

        // Compaction on open removed the tail, so the new record did not
        // glue onto it.
        let replay = read(&path, key).expect("replay");
        assert_eq!(replay.skipped_lines, 0);
        assert_eq!(replay.entries, [first, entry(2, "queued")]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_partial_line_left_by_a_failed_append_never_glues_onto_the_next() {
        let dir = temp_dir("partial");
        let path = dir.join("jobs.jsonl");
        let (mut journal, _) = Journal::open(&path, key).expect("open");
        // The journal path turns into a directory: the append fails.
        fs::remove_file(&path).expect("remove");
        fs::create_dir(&path).expect("directory in its place");
        assert!(journal.append(&entry(1, "queued")).is_err());
        // Back to a file that ends in the partial line such a failure
        // can leave behind.
        fs::remove_dir(&path).expect("remove directory");
        fs::write(&path, "{\"id\": 9, \"sta").expect("write");
        journal.append(&entry(1, "queued")).expect("append");
        drop(journal);

        let replay = read(&path, key).expect("replay");
        assert_eq!(replay.skipped_lines, 1);
        assert_eq!(replay.entries, [entry(1, "queued")]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_grows_the_file_by_exactly_one_line() {
        let dir = temp_dir("one-line");
        let path = dir.join("jobs.jsonl");
        let (mut journal, _) = Journal::open(&path, key).expect("open");
        // Distinct ids never trigger a compaction: every append costs
        // exactly its own line, however long the history, and writes
        // into the same file rather than replacing it.
        journal.append(&entry(0, "queued")).expect("append");
        let inode = |p: &Path| std::os::unix::fs::MetadataExt::ino(&fs::metadata(p).expect("stat"));
        let first_inode = inode(&path);
        for id in 1..200u64 {
            let before = fs::read(&path).expect("read");
            let e = entry(id, "queued");
            journal.append(&e).expect("append");
            let after = fs::read(&path).expect("read");
            assert_eq!(after.len(), before.len() + e.to_string().len() + 1);
            assert_eq!(after[..before.len()], before[..], "earlier lines untouched");
            assert_eq!(line_count(&path), id as usize + 1);
            assert_eq!(inode(&path), first_inode, "appended, not rewritten");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_the_last_valid_line_per_id_and_leaves_no_temp_files() {
        let dir = temp_dir("compact");
        let path = dir.join("jobs.jsonl");
        let (mut journal, _) = Journal::open(&path, key).expect("open");
        for id in 0..4u64 {
            journal.append(&entry(id, "queued")).expect("append");
        }
        // Superseding lines: the file compacts as soon as they outnumber
        // the four live ids, so it never holds more than twice that.
        for round in 0..20 {
            for id in 0..4u64 {
                journal
                    .append(&entry(id, &format!("round-{round}")))
                    .expect("append");
                assert!(line_count(&path) <= 8, "compaction bounds the file");
            }
        }
        drop(journal);
        let replay = read(&path, key).expect("replay");
        assert_eq!(replay.skipped_lines, 0);
        let ids: Vec<String> = replay.entries.iter().filter_map(key).collect();
        assert_eq!(ids, ["0", "1", "2", "3"]);
        assert!(replay.entries.iter().all(|e| status(e) == "round-19"));

        // Reopening compacts to exactly one line per id.
        let (_journal, replay) = Journal::open(&path, key).expect("reopen");
        assert_eq!(replay.entries.len(), 4);
        assert_eq!(line_count(&path), 4);
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["jobs.jsonl"], "no .tmp. files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let dir = temp_dir("missing");
        let replay = read(&dir.join("nope.jsonl"), key).expect("replay");
        assert!(replay.entries.is_empty());
        // Opening creates the file (and its parent directories).
        let path = dir.join("sub").join("new.jsonl");
        let (_journal, replay) = Journal::open(&path, key).expect("open");
        assert!(replay.entries.is_empty());
        assert!(path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_ids_resolve_to_the_last_valid_line() {
        let dir = temp_dir("dup");
        let path = dir.join("jobs.jsonl");
        // Both generations of id 1, then a later line for id 1 that
        // parses but fails the key function: it is skipped, so the
        // earlier valid line still wins.
        let text = format!(
            "{}\n{}\n{{\"id\": \"one\", \"status\": \"queued\"}}\n",
            entry(1, "queued"),
            entry(1, "completed"),
        );
        fs::write(&path, text).expect("write");
        let replay = read(&path, key).expect("replay");
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(status(&replay.entries[0]), "completed");
        assert_eq!(replay.skipped_lines, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_refuses_an_entry_without_an_id() {
        let dir = temp_dir("no-id");
        let path = dir.join("jobs.jsonl");
        let (mut journal, _) = Journal::open(&path, key).expect("open");
        let err = journal
            .append(&JsonValue::object([("status", JsonValue::from("queued"))]))
            .expect_err("no id");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(line_count(&path), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
