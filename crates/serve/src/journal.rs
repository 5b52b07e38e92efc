//! The job journal's record adapter: [`JobRecord`] ↔ the lines of the
//! daemon's [`gramer::journal`], which owns the file (append,
//! compaction, crash safety). A line is valid when it parses back into
//! a [`JobRecord`]; the last valid line per job wins. Terminal records
//! are restored as-is — completed results survive a restart
//! byte-for-byte — while `queued`/`running` ones are returned for
//! re-enqueueing, so a job that was mid-flight when the daemon died
//! runs again rather than being silently lost.

use crate::job::{JobRecord, JobStatus};
use gramer::journal::{self, Replayed};
use gramer::json::JsonValue;
use std::io;
use std::path::Path;

/// The outcome of replaying a journal at startup.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every restored record, sorted by job id (terminal ones verbatim;
    /// `queued`/`running` ones reset to `queued` for re-execution).
    pub records: Vec<JobRecord>,
    /// Ids of the records that must be re-enqueued.
    pub requeued: Vec<u64>,
    /// Number of journal lines skipped as torn or corrupt.
    pub skipped_lines: usize,
}

impl Replay {
    /// Reads the job journal at `path` without modifying it (a missing
    /// file is an empty journal).
    ///
    /// # Errors
    ///
    /// Only real I/O errors; corruption is reported via
    /// [`Replay::skipped_lines`] instead.
    pub fn read(path: &Path) -> io::Result<Replay> {
        Ok(Replay::from(journal::read(path, record_key)?))
    }
}

impl From<Replayed> for Replay {
    fn from(replayed: Replayed) -> Replay {
        let mut records: Vec<JobRecord> = replayed
            .entries
            .iter()
            .filter_map(JobRecord::from_json)
            .collect();
        records.sort_by_key(|rec| rec.id);
        let mut replay = Replay {
            skipped_lines: replayed.skipped_lines,
            ..Replay::default()
        };
        for mut rec in records {
            if !rec.status.is_terminal() {
                rec.status = JobStatus::Queued;
                replay.requeued.push(rec.id);
            }
            replay.records.push(rec);
        }
        replay
    }
}

/// A journal line's key: the job id, when the line is a structurally
/// valid [`JobRecord`].
pub fn record_key(line: &JsonValue) -> Option<String> {
    JobRecord::from_json(line).map(|rec| rec.id.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobError;

    fn spec() -> JsonValue {
        JsonValue::parse("{\"graph\": {\"gen\": \"demo\"}, \"app\": \"3-cf\"}").expect("json")
    }

    #[test]
    fn roundtrip_restores_terminal_records_verbatim() {
        let dir = std::env::temp_dir().join(format!(
            "gramer-serve-journal-roundtrip-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("jobs.jsonl");
        let mut done = JobRecord::new(1, spec(), JobStatus::Queued);
        done.status = JobStatus::Completed;
        done.attempts = 1;
        done.report_json = Some(JsonValue::parse("{\"cycles\": 123}").expect("json"));
        let mut dead = JobRecord::new(2, spec(), JobStatus::Queued);
        dead.status = JobStatus::Panicked;
        dead.error = Some(JobError::new("panic", "kaboom"));
        let inflight = JobRecord::new(3, spec(), JobStatus::Running);
        let (mut journal, _) = journal::Journal::open(&path, record_key).expect("open");
        for rec in [&inflight, &done, &dead] {
            journal.append(&rec.to_json_value()).expect("append");
        }
        drop(journal);

        let replay = Replay::read(&path).expect("replay");
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.skipped_lines, 0);
        assert_eq!(replay.requeued, vec![3]);
        assert_eq!(replay.records[0].status, JobStatus::Completed);
        assert_eq!(
            replay.records[0]
                .report_json
                .as_ref()
                .map(JsonValue::to_string),
            Some("{\"cycles\":123}".to_string())
        );
        assert_eq!(replay.records[1].status, JobStatus::Panicked);
        assert_eq!(replay.records[2].status, JobStatus::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_key_accepts_only_structurally_valid_records() {
        let done = JobRecord::new(7, spec(), JobStatus::Completed);
        assert_eq!(record_key(&done.to_json_value()).as_deref(), Some("7"));
        // Parses as JSON but carries no spec: replay skips such a line,
        // so an earlier valid line for the same id keeps winning.
        let specless = JsonValue::parse("{\"id\": 7, \"status\": \"queued\"}").expect("json");
        assert_eq!(record_key(&specless), None);
    }
}
