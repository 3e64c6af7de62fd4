//! The crash-recoverable serve journal: an append-only write-ahead log
//! of completed job outcomes.
//!
//! `slo serve --journal <path>` records one outcome per finished job,
//! keyed by a stable digest of the wire line that requested it, the job
//! id and the program source it resolved to ([`job_key`]). On restart
//! the journal is replayed: a job whose key is already present is
//! served from the journal summary instead of being recomputed, so a
//! serve process killed mid-batch resumes where it left off — completed
//! work is never redone, in-flight work (started but not journaled)
//! simply reruns.
//!
//! Each outcome is one [`crate::frame`] with the magic `SLOJ`, the job
//! key as its key, and the id, status kind and reply summary as its
//! payload, each a `u32` LE length followed by UTF-8. Replay follows the
//! frame rule: an intact frame whose checksum fails or whose payload
//! does not decode is skipped and counted ([`Journal::corrupt_skipped`]);
//! frame damage ends the scan, and the file is cut back to the end of
//! its last intact frame before the next append, so a record written
//! after a crash replays. A non-empty file that does not start with the
//! journal magic (a store segment, a text file) is refused and left
//! untouched. There is no compaction — journals are per-serve-session
//! artifacts, not databases.
//!
//! A record is one `write` of one frame, so it survives a process kill
//! as soon as [`Journal::record`] returns. It does not survive a power
//! cut: `File::flush` does nothing, and the journal never fsyncs.

use crate::frame;
use crate::job::{Job, JobStatus};
use crate::proto;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Error, ErrorKind, Write};
use std::path::Path;

/// Magic of a journal record frame.
const JOURNAL_MAGIC: [u8; 4] = *b"SLOJ";

/// A replayable journal entry: what a prior serve session recorded for
/// a completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The job's caller-visible id.
    pub id: String,
    /// `optimized` / `advisory` / `failed` (see [`JobStatus::kind`]).
    pub status: String,
    /// The one-line reply summary the session printed for the job.
    pub summary: String,
}

/// The append-only outcome journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    completed: HashMap<u64, JournalEntry>,
    recovered: usize,
    corrupt_skipped: usize,
}

/// Stable identity of "this request line produced this job over this
/// source". The derivation lives in [`proto::Request::fingerprint`] —
/// the wire protocol and the WAL key are the same bits by
/// construction, so they can never drift; this is a convenience alias
/// for journal-facing callers.
pub fn job_key(line: &str, job: &Job) -> u64 {
    proto::Request::fingerprint(line, job)
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying any complete
    /// records already present and cutting off a torn tail. The number
    /// of recovered outcomes is available via [`Journal::recovered`].
    ///
    /// # Errors
    ///
    /// `InvalidData` for a non-empty file that does not start with the
    /// journal magic (the file is left untouched); otherwise propagates
    /// I/O errors from reading, opening or truncating the file. Damaged
    /// records are skipped, never fatal.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let head = bytes.len().min(JOURNAL_MAGIC.len());
        if bytes[..head] != JOURNAL_MAGIC[..head] {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "not a journal: the file does not start with the journal magic",
            ));
        }
        let mut completed = HashMap::new();
        let scan = frame::scan(JOURNAL_MAGIC, &bytes, |_, key, payload| {
            decode_entry(payload)
                .map(|e| completed.insert(key, e))
                .is_some()
        });
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if scan.torn {
            file.set_len(scan.end as u64)?;
        }
        Ok(Journal {
            file,
            recovered: completed.len(),
            completed,
            corrupt_skipped: scan.corrupt as usize,
        })
    }

    /// How many completed outcomes the journal replayed at open time.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// How many intact records were skipped at open time because their
    /// checksum did not match their content or their payload did not
    /// decode. A torn tail (an interrupted append) is expected crash
    /// damage and is *not* counted here — this counts records that were
    /// fully written and then changed.
    pub fn corrupt_skipped(&self) -> usize {
        self.corrupt_skipped
    }

    /// The replayed (or since-recorded) entry for `key`, if any.
    pub fn lookup(&self, key: u64) -> Option<&JournalEntry> {
        self.completed.get(&key)
    }

    /// Append one completed outcome as one write of one frame — a
    /// process killed after `record` returns never loses the entry.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append.
    pub fn record(
        &mut self,
        key: u64,
        id: &str,
        status: &JobStatus,
        summary: &str,
    ) -> std::io::Result<()> {
        let entry = JournalEntry {
            id: id.to_string(),
            status: status.kind().to_string(),
            summary: summary.to_string(),
        };
        let mut payload = Vec::with_capacity(12 + id.len() + entry.status.len() + summary.len());
        for field in [&entry.id, &entry.status, &entry.summary] {
            payload.extend_from_slice(&(field.len() as u32).to_le_bytes());
            payload.extend_from_slice(field.as_bytes());
        }
        self.file
            .write_all(&frame::encode(JOURNAL_MAGIC, key, &payload))?;
        self.completed.insert(key, entry);
        Ok(())
    }
}

/// Decode a record payload: exactly three length-prefixed UTF-8
/// strings (id, status, summary).
fn decode_entry(mut payload: &[u8]) -> Option<JournalEntry> {
    let mut field = || {
        let len = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
        let text = std::str::from_utf8(payload.get(4..4 + len)?).ok()?;
        payload = &payload[4 + len..];
        Some(text.to_string())
    };
    let entry = JournalEntry {
        id: field()?,
        status: field()?,
        summary: field()?,
    };
    payload.is_empty().then_some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "slo-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).expect("mkdir");
        let p = d.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn failed(msg: &str) -> JobStatus {
        JobStatus::Failed(msg.to_string())
    }

    /// A journal holding records 1 and 2, with the last `cut` bytes of
    /// the file chopped off as a kill mid-append would.
    fn torn_journal(name: &str, cut: usize) -> PathBuf {
        let p = tmp(name);
        {
            let mut j = Journal::open(&p).expect("open");
            j.record(1, "a", &failed("x"), "s1").expect("record");
            j.record(2, "b", &failed("x"), "s2").expect("record");
        }
        let bytes = std::fs::read(&p).expect("read");
        std::fs::write(&p, &bytes[..bytes.len() - cut]).expect("truncate");
        p
    }

    #[test]
    fn record_then_reopen_recovers() {
        let p = tmp("roundtrip.journal");
        let summary = "a\tfailed \"quoted\"\nsecond line";
        {
            let mut j = Journal::open(&p).expect("open");
            assert_eq!(j.recovered(), 0);
            j.record(0xabc, "a", &failed("x"), summary).expect("record");
            j.record(0xdef, "b", &failed("y"), "b optimized")
                .expect("record");
        }
        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 2);
        let e = j.lookup(0xabc).expect("entry");
        assert_eq!(e.id, "a");
        assert_eq!(e.status, "failed");
        assert_eq!(e.summary, summary, "quotes, tabs and newlines round-trip");
        assert!(j.lookup(0x123).is_none());
    }

    #[test]
    fn torn_last_record_is_skipped() {
        let p = torn_journal("torn.journal", 5);
        let j = Journal::open(&p).expect("reopen");
        assert_eq!(
            j.recovered(),
            1,
            "complete record survives, torn one dropped"
        );
        assert!(j.lookup(1).is_some());
        assert!(j.lookup(2).is_none());
        assert_eq!(
            j.corrupt_skipped(),
            0,
            "a torn tail is crash damage, not corruption"
        );
    }

    #[test]
    fn record_after_a_torn_tail_survives_the_next_reopen() {
        let p = torn_journal("torn-then-record.journal", 5);
        {
            let mut j = Journal::open(&p).expect("reopen after crash");
            assert_eq!(j.recovered(), 1);
            j.record(3, "c", &failed("x"), "s3").expect("record");
        }
        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 2, "the post-crash record replays");
        assert!(j.lookup(3).is_some());
        assert_eq!(j.corrupt_skipped(), 0, "the torn tail was cut off");
    }

    #[test]
    fn corrupted_interior_record_is_skipped_and_counted() {
        let p = tmp("corrupt.journal");
        {
            let mut j = Journal::open(&p).expect("open");
            j.record(1, "a", &failed("x"), "s1").expect("record");
            j.record(2, "b", &failed("x"), "summary-two")
                .expect("record");
            j.record(3, "c", &failed("x"), "s3").expect("record");
        }
        // Change a byte inside the middle record's summary; the frame
        // stays intact, but its checksum no longer matches.
        let mut bytes = std::fs::read(&p).expect("read");
        let at = bytes
            .windows(11)
            .position(|w| w == b"summary-two")
            .expect("the tamper target must exist");
        bytes[at + 8] = b'2';
        std::fs::write(&p, bytes).expect("write");

        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 2, "the tampered record is not trusted");
        assert!(j.lookup(1).is_some());
        assert!(j.lookup(2).is_none(), "corrupt entry never replays");
        assert!(j.lookup(3).is_some(), "records after the damage replay");
        assert_eq!(j.corrupt_skipped(), 1);
    }

    #[test]
    fn foreign_files_are_refused_and_left_untouched() {
        let store_dir = tmp("store-dir");
        let _ = std::fs::remove_dir_all(&store_dir);
        let mut store = crate::AnalysisStore::open(
            &store_dir,
            slo_obs::Recorder::disabled(),
            slo_chaos::FaultPlan::disabled(),
        )
        .expect("open store");
        let src = "func main() -> i64 {\nbb0:\n  ret 1\n}\n";
        let prog = slo_ir::parser::parse(src).expect("parse");
        let scheme = slo::analysis::WeightScheme::Ispbo;
        store
            .put(
                1,
                &slo::analyze(&prog, &scheme, &slo::PipelineConfig::default()),
            )
            .expect("put");
        drop(store);
        let segment = store_dir.join("seg-000000.open");
        let text = tmp("old.txt");
        std::fs::write(&text, "{\"key\":\"000000000000002a\",\"id\":\"old\"}\n").expect("write");
        for path in [segment, text] {
            let before = std::fs::read(&path).expect("read");
            let err = Journal::open(&path).expect_err("a foreign file is refused");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{}", path.display());
            assert_eq!(
                std::fs::read(&path).expect("reread"),
                before,
                "left untouched"
            );
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    #[test]
    fn job_key_tracks_line_id_and_source() {
        let job = |src: &str, id: &str| Job {
            id: id.to_string(),
            ..Job::from_source(id, src)
        };
        let k = job_key("a.sir steps=10", &job("ret 0", "a"));
        assert_eq!(k, job_key("a.sir steps=10", &job("ret 0", "a")));
        assert_ne!(k, job_key("a.sir steps=20", &job("ret 0", "a")));
        assert_ne!(k, job_key("a.sir steps=10", &job("ret 1", "a")));
        assert_ne!(k, job_key("a.sir steps=10", &job("ret 0", "a#1")));
    }
}
