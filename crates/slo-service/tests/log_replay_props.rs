//! Replay properties of the two durable logs, the serve journal and the
//! analysis store, which share one record frame ([`slo_service::frame`]).
//!
//! Damage is a random truncation point, one flipped bit, or arbitrary
//! payload bytes behind a valid frame and checksum. Under every kind,
//! `Journal::open` and `AnalysisStore::open` end in `Ok` (or
//! `InvalidData` for a journal whose magic is damaged), every entry
//! that replays equals one that was recorded, every record wholly
//! before the damage replays, and a damaged store key reads as a miss.

use proptest::prelude::*;
use slo::analysis::WeightScheme;
use slo::{Analysis, PipelineConfig};
use slo_service::{frame, AnalysisStore, FaultPlan, JobStatus, Journal, JournalEntry};
use std::io::ErrorKind;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty scratch directory per test case.
fn scratch(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slo-log-props-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn flip(path: &Path, at: usize, bit: u32) {
    let mut bytes = std::fs::read(path).expect("read");
    bytes[at] ^= 1 << bit;
    std::fs::write(path, bytes).expect("write");
}

fn truncate(path: &Path, len: usize) {
    let bytes = std::fs::read(path).expect("read");
    std::fs::write(path, &bytes[..len]).expect("write");
}

/// Where damage landed in a log, and so which records it must and may
/// cost.
struct Damage {
    at: usize,
    /// The damage breaks the walk (a cut, or a flip in a frame's magic
    /// or length field): records after it may be lost too.
    ends_walk: bool,
    /// Records after the damage are certainly lost (a cut).
    cut: bool,
}

impl Damage {
    fn cut(at: usize) -> Damage {
        Damage {
            at,
            ends_walk: true,
            cut: true,
        }
    }

    /// No damage to the records of `frames`.
    fn none() -> Damage {
        Damage::cut(usize::MAX)
    }

    /// A flipped bit at `at`, inside one of `frames`.
    fn flip(at: usize, frames: &[Range<usize>]) -> Damage {
        let offset = at
            - frames
                .iter()
                .find(|r| r.contains(&at))
                .expect("frame")
                .start;
        Damage {
            at,
            ends_walk: offset < 4 || (12..16).contains(&offset),
            cut: false,
        }
    }

    fn must_lose(&self, r: &Range<usize>) -> bool {
        r.contains(&self.at) || (self.cut && r.start > self.at)
    }

    fn may_lose(&self, r: &Range<usize>) -> bool {
        r.contains(&self.at) || (self.ends_walk && r.start > self.at)
    }
}

// ---------------------------------------------------------------------------
// journal
// ---------------------------------------------------------------------------

/// Record three outcomes (one summary full of quotes, tabs and
/// newlines) and return them with the byte range of each frame.
fn write_journal(path: &Path) -> Vec<(u64, JournalEntry, Range<usize>)> {
    let mut j = Journal::open(path).expect("open");
    let mut written = Vec::new();
    for (key, id, summary) in [
        (0x11, "a", "a optimized"),
        (
            0x22,
            "b",
            "{\"id\":\"b\",\"summary\":\"tab\there\nnewline\"}",
        ),
        (0x33, "c", ""),
    ] {
        let start = std::fs::metadata(path).expect("stat").len() as usize;
        let status = JobStatus::Failed("x".into());
        j.record(key, id, &status, summary).expect("record");
        let end = std::fs::metadata(path).expect("stat").len() as usize;
        let entry = JournalEntry {
            id: id.into(),
            status: status.kind().into(),
            summary: summary.into(),
        };
        written.push((key, entry, start..end));
    }
    written
}

/// Every replayed entry is one that was recorded, nothing else
/// replays, and only records the damage may cost are missing.
fn check_journal(
    j: &Journal,
    written: &[(u64, JournalEntry, Range<usize>)],
    damage: &Damage,
) -> Result<(), TestCaseError> {
    let mut found = 0;
    for (key, entry, range) in written {
        match j.lookup(*key) {
            Some(e) => {
                prop_assert!(!damage.must_lose(range), "damaged record {key:#x} replays");
                prop_assert_eq!(e, entry);
                found += 1;
            }
            None => prop_assert!(damage.may_lose(range), "record {key:#x} lost"),
        }
    }
    prop_assert_eq!(j.recovered(), found, "only recorded entries replay");
    Ok(())
}

proptest! {
    #[test]
    fn journal_truncated_anywhere_replays_its_intact_prefix(at in any::<u64>()) {
        let dir = scratch("journal-cut");
        let path = dir.join("serve.journal");
        let written = write_journal(&path);
        let cut = (at % (written[2].2.end as u64 + 1)) as usize;
        truncate(&path, cut);

        let mut j = Journal::open(&path).expect("a torn journal opens");
        check_journal(&j, &written, &Damage::cut(cut))?;
        prop_assert_eq!(j.corrupt_skipped(), 0, "a torn tail is not corruption");
        // The torn tail is cut off: a record written now replays.
        j.record(0x44, "d", &JobStatus::Failed("y".into()), "d").expect("record");
        let recovered = j.recovered();
        drop(j);
        let j = Journal::open(&path).expect("reopen");
        prop_assert_eq!(j.recovered(), recovered + 1);
        prop_assert_eq!(j.lookup(0x44).map(|e| e.id.as_str()), Some("d"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_with_one_flipped_bit_replays_only_recorded_entries(
        at in any::<u64>(),
        bit in 0u32..8,
    ) {
        let dir = scratch("journal-flip");
        let path = dir.join("serve.journal");
        let written = write_journal(&path);
        let at = (at % written[2].2.end as u64) as usize;
        flip(&path, at, bit);
        let damaged = std::fs::read(&path).expect("read");

        match Journal::open(&path) {
            Err(e) => {
                prop_assert!(at < 4, "only a damaged magic is refused, not {at}");
                prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
                prop_assert_eq!(std::fs::read(&path).expect("reread"), damaged);
            }
            Ok(j) => {
                let frames: Vec<_> = written.iter().map(|w| w.2.clone()).collect();
                check_journal(&j, &written, &Damage::flip(at, &frames))?;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_survives_arbitrary_payloads_behind_a_valid_frame(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        lens in prop::collection::vec(0u32..12, 3),
        structured in any::<bool>(),
    ) {
        let dir = scratch("journal-payload");
        let path = dir.join("serve.journal");
        let written = write_journal(&path);
        let mut log = std::fs::read(&path).expect("read");
        let magic: [u8; 4] = log[..4].try_into().expect("magic");
        // Either raw bytes, or three length-prefixed fields whose
        // lengths need not match the bytes that follow.
        let payload = if structured {
            let mut p = Vec::new();
            for (i, len) in lens.iter().enumerate() {
                p.extend_from_slice(&len.to_le_bytes());
                p.extend(bytes.iter().skip(i * 16).take(*len as usize));
            }
            p
        } else {
            bytes
        };
        log.extend(frame::encode(magic, 0x55, &payload));
        std::fs::write(&path, &log).expect("write");

        let j = Journal::open(&path).expect("a valid frame always opens");
        for (key, entry, _) in &written {
            prop_assert_eq!(j.lookup(*key), Some(entry));
        }
        prop_assert_eq!(
            j.recovered() + j.corrupt_skipped(),
            4,
            "the odd frame either decodes or is counted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// store
// ---------------------------------------------------------------------------

fn analyses() -> Vec<(u64, Analysis)> {
    [
        include_str!("../../../examples/ir/hotcold.sir"),
        include_str!("../../../examples/ir/interleaved.sir"),
        "func main() -> i64 {\nbb0:\n  ret 3\n}\n",
    ]
    .iter()
    .enumerate()
    .map(|(i, src)| {
        let prog = slo_ir::parser::parse(src).expect("parse");
        let a = slo::analyze(&prog, &WeightScheme::Ispbo, &PipelineConfig::default());
        (i as u64 + 1, a)
    })
    .collect()
}

fn open_store(dir: &Path) -> AnalysisStore {
    AnalysisStore::open(dir, slo_obs::Recorder::disabled(), FaultPlan::disabled())
        .expect("a damaged store still opens")
}

/// Put every analysis into a fresh store and return the one segment's
/// path with each record's frame range.
fn write_store(dir: &Path, records: &[(u64, Analysis)]) -> (PathBuf, Vec<Range<usize>>) {
    let mut s = open_store(dir);
    let seg = dir.join("seg-000000.open");
    let mut ranges = Vec::new();
    for (key, a) in records {
        let start = std::fs::metadata(&seg).expect("stat").len() as usize;
        s.put(*key, a).expect("put");
        ranges.push(start..std::fs::metadata(&seg).expect("stat").len() as usize);
    }
    (seg, ranges)
}

/// Every hit equals what was put, a damaged key is a miss, and only
/// records the damage may cost are missing.
fn check_store(
    s: &mut AnalysisStore,
    records: &[(u64, Analysis)],
    ranges: &[Range<usize>],
    damage: &Damage,
) -> Result<(), TestCaseError> {
    for ((key, a), range) in records.iter().zip(ranges) {
        match s.get(*key) {
            Some(got) => {
                prop_assert!(!damage.must_lose(range), "damaged record {key} served");
                prop_assert_eq!(slo::encode_analysis(&got), slo::encode_analysis(a));
            }
            None => prop_assert!(damage.may_lose(range), "record {key} lost"),
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn store_truncated_anywhere_replays_its_intact_prefix(at in any::<u64>()) {
        let records = analyses();
        let dir = scratch("store-cut");
        let (seg, ranges) = write_store(&dir, &records);
        let cut = (at % (ranges[2].end as u64 + 1)) as usize;
        truncate(&seg, cut);

        let mut s = open_store(&dir);
        let torn = !ranges.iter().any(|r| r.end == cut) && cut != 0;
        prop_assert_eq!(s.counters().corrupt_drops, u64::from(torn));
        check_store(&mut s, &records, &ranges, &Damage::cut(cut))?;
        // The torn tail is cut off: the next open finds none, and a
        // record put now replays.
        let (key, a) = &records[2];
        s.put(*key + 10, a).expect("put");
        drop(s);
        let mut s = open_store(&dir);
        prop_assert_eq!(s.counters().corrupt_drops, 0);
        prop_assert!(s.get(*key + 10).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_with_one_flipped_bit_never_serves_the_damaged_record(
        at in any::<u64>(),
        bit in 0u32..8,
        sealed in any::<bool>(),
    ) {
        let records = analyses();
        let dir = scratch("store-flip");
        let (mut seg, ranges) = write_store(&dir, &records);
        if sealed {
            let to = dir.join("seg-000000.seg");
            std::fs::rename(&seg, &to).expect("seal");
            seg = to;
        }
        let at = (at % ranges[2].end as u64) as usize;
        flip(&seg, at, bit);
        let damaged = std::fs::read(&seg).expect("read");

        let mut s = open_store(&dir);
        check_store(&mut s, &records, &ranges, &Damage::flip(at, &ranges))?;
        prop_assert!(s.counters().corrupt_drops >= 1, "the damage is counted");
        if sealed {
            prop_assert_eq!(std::fs::read(&seg).expect("reread"), damaged, "sealed segments are never rewritten");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_survives_arbitrary_payloads_behind_a_valid_frame(
        pick in 0usize..3,
        edits in prop::collection::vec((any::<u64>(), any::<u8>()), 0..4),
        keep in any::<u64>(),
        raw in prop::collection::vec(any::<u8>(), 0..64),
        use_raw in any::<bool>(),
    ) {
        let records = analyses();
        let dir = scratch("store-payload");
        let (seg, ranges) = write_store(&dir, &records);
        let mut log = std::fs::read(&seg).expect("read");
        let magic: [u8; 4] = log[..4].try_into().expect("magic");
        // Either raw bytes, or a real encoded analysis with a few bytes
        // overwritten and its tail cut at a random point.
        let payload = if use_raw {
            raw
        } else {
            let mut p = slo::encode_analysis(&records[pick].1);
            for (at, byte) in edits {
                let at = (at % p.len() as u64) as usize;
                p[at] = byte;
            }
            let keep = (keep % (p.len() as u64 + 1)) as usize;
            p.truncate(keep.max(p.len() / 2));
            p
        };
        log.extend(frame::encode(magic, 99, &payload));
        std::fs::write(&seg, &log).expect("write");

        let mut s = open_store(&dir);
        check_store(&mut s, &records, &ranges, &Damage::none())?;
        let decodes = slo::decode_analysis(&payload).is_ok();
        prop_assert_eq!(s.get(99).is_some(), decodes, "served iff the payload decodes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
