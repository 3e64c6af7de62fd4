//! The crash-recoverable serve journal: an append-only JSONL
//! write-ahead log of completed job outcomes.
//!
//! `slo serve --journal <path>` records one line per finished job, keyed
//! by a stable digest of the wire line that requested it, the job id
//! and the program source it resolved to ([`job_key`]). On restart the
//! journal is replayed: a job whose key is already present is served
//! from the journal summary instead of being recomputed, so a serve
//! process killed mid-batch resumes where it left off — completed work
//! is never redone, in-flight work (started but not journaled) simply
//! reruns.
//!
//! The format is deliberately dumb: one self-contained JSON object per
//! line, written by one `write_all` and flushed after every append.
//! Replay tolerates a torn final line (the crash may have landed
//! mid-write); anything that does not parse as a complete record is
//! ignored. Opening a journal whose last line lacks its newline ends
//! that line first, so the next record starts a line of its own and a
//! complete-but-unterminated record still replays. There is no
//! compaction — journals are per-serve-session artifacts, not
//! databases.
//!
//! Every record carries a trailing `"c"` field: an FNV-1a checksum of
//! the record body, verified on replay. An interior line whose frame is
//! intact but whose checksum does not match (bit rot, a concurrent
//! writer, hand edits) is skipped and counted
//! ([`Journal::corrupt_skipped`]) instead of being trusted. Records
//! written before the checksum existed have no `"c"` field and still
//! replay — the field is versioning by presence.

use crate::job::{Job, JobStatus};
use crate::proto;
use slo_ir::fnv1a;
use slo_obs::json::{write_str, Json};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

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
    path: PathBuf,
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
    /// records already present. The number of recovered outcomes is
    /// available via [`Journal::recovered`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening or reading the file; torn or
    /// malformed records are skipped, never fatal.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let mut completed = HashMap::new();
        let mut corrupt_skipped = 0;
        let mut unterminated = false;
        if let Ok(f) = File::open(path) {
            let mut reader = BufReader::new(f);
            let mut line = String::new();
            while reader.read_line(&mut line)? > 0 {
                unterminated = !line.ends_with('\n');
                match parse_record(&line) {
                    Parsed::Entry(key, entry) => {
                        completed.insert(key, entry);
                    }
                    Parsed::Corrupt => corrupt_skipped += 1,
                    Parsed::Torn => {}
                }
                line.clear();
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if unterminated {
            // A crash cut the last append short of its newline. End the
            // line here rather than truncate it: the bytes may be a
            // complete record, and appending onto them would fuse the
            // next record into one unparseable line.
            file.write_all(b"\n")?;
        }
        let recovered = completed.len();
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            completed,
            recovered,
            corrupt_skipped,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many completed outcomes the journal replayed at open time.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// How many interior records were skipped at open time because
    /// their checksum did not match their content. A torn final line
    /// (an interrupted append) is expected crash damage and is *not*
    /// counted here — this counts records that were fully written and
    /// then changed.
    pub fn corrupt_skipped(&self) -> usize {
        self.corrupt_skipped
    }

    /// The replayed (or since-recorded) entry for `key`, if any.
    pub fn lookup(&self, key: u64) -> Option<&JournalEntry> {
        self.completed.get(&key)
    }

    /// Append one completed outcome and flush it to disk before
    /// returning — a crash after `record` never loses the entry.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append or flush.
    pub fn record(
        &mut self,
        key: u64,
        id: &str,
        status: &JobStatus,
        summary: &str,
    ) -> std::io::Result<()> {
        let mut body = format!("{{\"key\":\"{key:016x}\",\"id\":");
        write_str(&mut body, id);
        body.push_str(",\"status\":");
        write_str(&mut body, status.kind());
        body.push_str(",\"summary\":");
        write_str(&mut body, summary);
        // The checksum covers everything before its own field, so a
        // replayer can verify without re-canonicalizing.
        // One write per record: a kill can tear the line, but never
        // land between a complete record and its newline.
        let line = format!("{body},\"c\":\"{:016x}\"}}\n", fnv1a(body.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.completed.insert(
            key,
            JournalEntry {
                id: id.to_string(),
                status: status.kind().to_string(),
                summary: summary.to_string(),
            },
        );
        Ok(())
    }
}

enum Parsed {
    /// A complete, (when checksummed) verified record.
    Entry(u64, JournalEntry),
    /// An intact frame whose checksum disagrees with its content.
    Corrupt,
    /// Not a complete record at all: a torn tail or a foreign line.
    Torn,
}

fn parse_record(line: &str) -> Parsed {
    let line = line.trim();
    if !line.starts_with('{') || !line.ends_with('}') {
        return Parsed::Torn;
    }
    // A `"c"` field makes the record self-verifying; its absence marks
    // a pre-checksum record, which replays untested (versioning by
    // presence). The writer escapes every interior quote as `\"`, so an
    // unescaped `,"c":"` can only be the real, final field, and the
    // checksum is read and verified over the raw bytes before parsing.
    if let Some(at) = line.rfind(",\"c\":\"") {
        let sum = line[at + 6..]
            .strip_suffix("\"}")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        if sum != Some(fnv1a(&line.as_bytes()[..at])) {
            return Parsed::Corrupt;
        }
    }
    let Ok(doc) = Json::parse(line) else {
        return Parsed::Torn;
    };
    let text = |key| doc.get(key).and_then(Json::as_str).map(str::to_string);
    let fields = (|| {
        let key = u64::from_str_radix(&text("key")?, 16).ok()?;
        Some((
            key,
            JournalEntry {
                id: text("id")?,
                status: text("status")?,
                summary: text("summary")?,
            },
        ))
    })();
    match fields {
        Some((key, entry)) => Parsed::Entry(key, entry),
        None => Parsed::Torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "slo-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).expect("mkdir");
        d.join(name)
    }

    fn failed(msg: &str) -> JobStatus {
        JobStatus::Failed(msg.to_string())
    }

    #[test]
    fn record_then_reopen_recovers() {
        let p = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&p);
        {
            let mut j = Journal::open(&p).expect("open");
            assert_eq!(j.recovered(), 0);
            j.record(0xabc, "a", &failed("x"), "a\tfailed \"quoted\"")
                .expect("record");
            j.record(0xdef, "b", &failed("y"), "b optimized")
                .expect("record");
        }
        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 2);
        let e = j.lookup(0xabc).expect("entry");
        assert_eq!(e.id, "a");
        assert_eq!(e.status, "failed");
        assert_eq!(e.summary, "a\tfailed \"quoted\"", "escapes round-trip");
        assert!(j.lookup(0x123).is_none());
    }

    #[test]
    fn torn_last_line_is_skipped() {
        let p = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&p);
        {
            let mut j = Journal::open(&p).expect("open");
            j.record(1, "a", &failed("x"), "s1").expect("record");
            j.record(2, "b", &failed("x"), "s2").expect("record");
        }
        // Simulate a crash mid-append: chop the file mid-record.
        let text = std::fs::read_to_string(&p).expect("read");
        let torn = &text[..text.len() - 25];
        let mut f = File::create(&p).expect("truncate");
        f.write_all(torn.as_bytes()).expect("write");
        drop(f);

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
        let p = tmp("torn-then-record.jsonl");
        let _ = std::fs::remove_file(&p);
        {
            let mut j = Journal::open(&p).expect("open");
            j.record(1, "a", &failed("x"), "s1").expect("record");
            j.record(2, "b", &failed("x"), "s2").expect("record");
        }
        let text = std::fs::read_to_string(&p).expect("read");
        std::fs::write(&p, &text[..text.len() - 25]).expect("truncate");
        {
            let mut j = Journal::open(&p).expect("reopen after crash");
            assert_eq!(j.recovered(), 1);
            j.record(3, "c", &failed("x"), "s3").expect("record");
        }
        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 2, "the post-crash record replays");
        assert!(j.lookup(3).is_some());
        assert_eq!(j.corrupt_skipped(), 0, "the torn tail fused with nothing");
    }

    #[test]
    fn complete_record_without_newline_replays_and_so_does_the_next() {
        let p = tmp("unterminated.jsonl");
        let _ = std::fs::remove_file(&p);
        {
            let mut j = Journal::open(&p).expect("open");
            j.record(1, "a", &failed("x"), "s1").expect("record");
        }
        // A kill between a record and its newline.
        let text = std::fs::read_to_string(&p).expect("read");
        std::fs::write(&p, text.trim_end_matches('\n')).expect("strip newline");
        {
            let mut j = Journal::open(&p).expect("reopen");
            assert_eq!(j.recovered(), 1, "the unterminated record replays");
            j.record(2, "b", &failed("x"), "s2").expect("record");
        }
        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 2);
        assert!(j.lookup(1).is_some() && j.lookup(2).is_some());
        assert_eq!(j.corrupt_skipped(), 0);
    }

    #[test]
    fn corrupted_interior_line_is_skipped_and_counted() {
        let p = tmp("corrupt.jsonl");
        let _ = std::fs::remove_file(&p);
        {
            let mut j = Journal::open(&p).expect("open");
            j.record(1, "a", &failed("x"), "s1").expect("record");
            j.record(2, "b", &failed("x"), "summary-two")
                .expect("record");
            j.record(3, "c", &failed("x"), "s3").expect("record");
        }
        // Flip a byte inside the middle record's summary; the line
        // still parses, but the checksum no longer matches.
        let text = std::fs::read_to_string(&p).expect("read");
        let tampered = text.replace("summary-two", "summary-2wo");
        assert_ne!(text, tampered, "the tamper target must exist");
        std::fs::write(&p, tampered).expect("write");

        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 2, "the tampered record is not trusted");
        assert!(j.lookup(1).is_some());
        assert!(j.lookup(2).is_none(), "corrupt entry never replays");
        assert!(j.lookup(3).is_some(), "records after the damage replay");
        assert_eq!(j.corrupt_skipped(), 1);
    }

    #[test]
    fn pre_checksum_records_still_replay() {
        let p = tmp("legacy.jsonl");
        let _ = std::fs::remove_file(&p);
        // A record exactly as the pre-checksum writer emitted it.
        std::fs::write(
            &p,
            "{\"key\":\"000000000000002a\",\"id\":\"old\",\"status\":\"failed\",\"summary\":\"s\"}\n",
        )
        .expect("write");
        let j = Journal::open(&p).expect("open");
        assert_eq!(j.recovered(), 1, "the checksum field is optional");
        assert_eq!(j.corrupt_skipped(), 0);
        assert_eq!(j.lookup(0x2a).expect("entry").id, "old");
    }

    #[test]
    fn summary_containing_a_fake_checksum_field_is_not_misparsed() {
        let p = tmp("fakefield.jsonl");
        let _ = std::fs::remove_file(&p);
        {
            let mut j = Journal::open(&p).expect("open");
            // The escaped quotes keep this from looking like a real
            // `"c"` field to the verifier.
            j.record(7, "a", &failed("x"), "tricky,\"c\":\"0000\" tail")
                .expect("record");
        }
        let j = Journal::open(&p).expect("reopen");
        assert_eq!(j.recovered(), 1);
        assert_eq!(j.corrupt_skipped(), 0);
        assert_eq!(
            j.lookup(7).expect("entry").summary,
            "tricky,\"c\":\"0000\" tail"
        );
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
