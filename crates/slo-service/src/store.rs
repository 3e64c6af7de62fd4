//! The persistent analysis store: an append-only, crash-safe segment
//! store for serialized [`Analysis`] records, keyed by the same FNV
//! content fingerprints as the in-memory cache
//! ([`slo::analysis_cache_key`]).
//!
//! The store is the durable layer of [`crate::cache::AnalysisTier`]:
//! an LRU miss falls through to disk before recomputing, and a fresh
//! computation is written back, so analysis results survive process
//! restarts and SIGKILL.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files. The active segment
//! (`seg-NNNNNN.open`) receives appends; once it reaches the seal
//! threshold it is fsync'd and atomically renamed to `seg-NNNNNN.seg`.
//! Each record is one [`crate::frame`] with the magic `SLOR`, the
//! analysis cache key as its key and [`slo::encode_analysis`] bytes as
//! its payload.
//!
//! The checksum is verified on every read, including re-reads of
//! records that scanned clean at open time, because bit rot does not
//! schedule itself around `open`. A record that fails the checksum (or
//! fails [`slo::decode_analysis`]'s structural validation) is dropped
//! from the index, counted in [`StoreCounters::corrupt_drops`], and the
//! caller recomputes: a corrupt record is never served. This extends
//! the LRU's fingerprint re-verification discipline to disk, where
//! the fingerprint alone would not suffice ([`ipa_fingerprint`] digests
//! only the planner-relevant subset of an analysis).
//!
//! # Replay
//!
//! Opening scans every segment in order under the frame rule: an intact
//! frame with a bad checksum is skipped and counted, and frame damage
//! ends the scan of that segment and counts once. Later segments still
//! replay, so damage is contained to the segment it happened in. The
//! `.open` segment a dead process left behind stays the active one: its
//! torn tail is cut off and appends continue after its last intact
//! frame, so a restart adds no segment file and the tail is counted by
//! the one open that finds it. A store directory belongs to one process
//! at a time; nothing locks it.
//!
//! Sealed segments are never rewritten. A put of a key the store
//! already holds is a no-op, so no record is ever superseded: only torn
//! writes and rot leave dead bytes behind.
//!
//! # Durability
//!
//! A put is one `write` to the active segment, so it survives a process
//! kill as soon as `put` returns. It survives a power cut only once its
//! segment is sealed: `File::flush` does nothing, and the store fsyncs
//! only when it seals.
//!
//! # Fault injection
//!
//! Two [`Site`]s prove the robustness claims deterministically:
//! [`Site::StoreTornWrite`] truncates a put mid-body (and rolls the
//! segment, so the torn bytes stay behind at a sealed segment's tail),
//! and [`Site::StoreBitRot`] flips one byte of a just-written record on
//! disk.
//!
//! [`ipa_fingerprint`]: slo::analysis::ipa_fingerprint

use crate::frame::{self, Scan};
use slo::Analysis;
use slo_chaos::{FaultPlan, Site};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic of a store record frame.
const RECORD_MAGIC: [u8; 4] = *b"SLOR";
/// Seal threshold for the active segment.
const SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Point-in-time store counters, mirrored into the service metrics as
/// the `slo_store_*` Prometheus families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Reads that verified and decoded.
    pub hits: u64,
    /// Reads of keys the store does not hold.
    pub misses: u64,
    /// Records dropped by checksum or structural verification — at
    /// open-time scan or on read.
    pub corrupt_drops: u64,
    /// Bytes appended to segments since open (live + since-dead).
    pub bytes_written: u64,
}

#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u64,
    offset: u64,
    /// Whole frame length (header + payload + trailer).
    frame: u32,
}

/// The append-only segment store. See the module docs for the format
/// and the crash-safety story.
#[derive(Debug)]
pub struct AnalysisStore {
    dir: PathBuf,
    index: HashMap<u64, Loc>,
    active: File,
    active_id: u64,
    active_len: u64,
    seal_bytes: u64,
    counters: StoreCounters,
    trace: slo_obs::Recorder,
    faults: FaultPlan,
}

impl AnalysisStore {
    /// Open (creating if needed) the store at `dir`, replaying every
    /// segment into the in-memory index. An active segment left by a
    /// dead process stays active: its valid prefix replays and its torn
    /// tail (if any) is cut off before the next append.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or segment reads;
    /// damaged *records* are never fatal, only counted.
    pub fn open(dir: &Path, trace: slo_obs::Recorder, faults: FaultPlan) -> std::io::Result<Self> {
        let rec = trace.clone();
        let mut span = rec.span("store", "open");
        fs::create_dir_all(dir)?;
        let mut segments = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = segment_id(&name, ".seg") {
                segments.push((id, ".seg"));
            } else if let Some(id) = segment_id(&name, ".open") {
                segments.push((id, ".open"));
            }
        }
        segments.sort_unstable();

        let mut index = HashMap::new();
        let mut counters = StoreCounters::default();
        let mut active_id = segments.last().map_or(0, |&(id, _)| id + 1);
        let mut active_len = 0;
        for (i, &(id, ext)) in segments.iter().enumerate() {
            let path = dir.join(segment_name(id, ext));
            let scan = scan_segment(&path, id, &mut index, &mut counters)?;
            // Only the newest segment can still be the active one.
            if ext == ".open" && i + 1 == segments.len() {
                active_id = id;
                active_len = scan.end as u64;
            }
        }

        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(segment_name(active_id, ".open")))?;
        active.set_len(active_len)?;
        span.arg("records", index.len() as i64);
        span.arg("segments", segments.len() as i64);
        Ok(AnalysisStore {
            dir: dir.to_path_buf(),
            index,
            active,
            active_id,
            active_len,
            seal_bytes: SEGMENT_BYTES,
            counters,
            trace,
            faults,
        })
    }

    /// Number of live (indexed) records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// A copy of the counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read the record for `key`, re-verifying its checksum against the
    /// bytes on disk and structurally decoding it. A record that fails
    /// either check is dropped from the index and counted — the caller
    /// sees a miss and recomputes; corrupt data is never returned.
    pub fn get(&mut self, key: u64) -> Option<Arc<Analysis>> {
        let mut span = self.trace.span("store", "get");
        let Some(loc) = self.index.get(&key).copied() else {
            self.counters.misses += 1;
            span.arg("outcome", "miss");
            return None;
        };
        match self.read_frame(key, loc) {
            Some(analysis) => {
                self.counters.hits += 1;
                span.arg("outcome", "hit");
                Some(Arc::new(analysis))
            }
            None => {
                // Checksum or decode failure: drop, count, let the
                // caller recompute (and re-put a healthy copy).
                self.index.remove(&key);
                self.counters.corrupt_drops += 1;
                self.counters.misses += 1;
                span.arg("outcome", "corrupt-drop");
                None
            }
        }
    }

    /// Append the record for `key`. A key already present is left alone
    /// (the stored copy is content-addressed — equal by construction).
    /// Seals and rolls the active segment past the size threshold.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append, flush, or seal.
    pub fn put(&mut self, key: u64, analysis: &Analysis) -> std::io::Result<()> {
        if self.index.contains_key(&key) {
            return Ok(());
        }
        let rec = self.trace.clone();
        let mut span = rec.span("store", "put");
        let frame = frame::encode(RECORD_MAGIC, key, &slo::encode_analysis(analysis));
        span.arg("bytes", frame.len() as i64);

        if self.faults.should_fire(Site::StoreTornWrite) {
            // A torn write: only a prefix of the frame reaches disk, as
            // if the process died mid-append. The record is not
            // indexed, and the segment rolls so the torn bytes stay on
            // disk, at a sealed segment's tail, for replay to meet.
            let cut = 1 + self
                .faults
                .magnitude(Site::StoreTornWrite, frame.len() as u64 - 2)
                as usize;
            self.active.write_all(&frame[..cut])?;
            self.active.flush()?;
            self.active_len += cut as u64;
            self.counters.bytes_written += cut as u64;
            span.arg("fault", "torn-write");
            return self.roll_segment();
        }

        let offset = self.active_len;
        self.active.write_all(&frame)?;
        self.active.flush()?;
        self.active_len += frame.len() as u64;
        self.counters.bytes_written += frame.len() as u64;
        self.index.insert(
            key,
            Loc {
                seg: self.active_id,
                offset,
                frame: frame.len() as u32,
            },
        );

        if self.faults.should_fire(Site::StoreBitRot) {
            // Flip one bit of the just-written frame on disk. The index
            // keeps pointing at it: the *read* path must catch this.
            let at = offset
                + self
                    .faults
                    .magnitude(Site::StoreBitRot, frame.len() as u64 - 1);
            let path = self.dir.join(segment_name(self.active_id, ".open"));
            let mut f = OpenOptions::new().read(true).write(true).open(path)?;
            let mut byte = [0u8; 1];
            f.seek(SeekFrom::Start(at))?;
            f.read_exact(&mut byte)?;
            byte[0] ^= 1 << (at % 8);
            f.seek(SeekFrom::Start(at))?;
            f.write_all(&byte)?;
            span.arg("fault", "bit-rot");
        }

        if self.active_len >= self.seal_bytes {
            self.roll_segment()?;
        }
        Ok(())
    }

    /// Seal the active segment (flush, fsync, atomic rename to `.seg`)
    /// and open a fresh one. A kill between any two steps leaves either
    /// a replayable `.open` or a complete `.seg` — never a half-name.
    fn roll_segment(&mut self) -> std::io::Result<()> {
        self.active.flush()?;
        self.active.sync_all()?;
        let open = self.dir.join(segment_name(self.active_id, ".open"));
        let sealed = self.dir.join(segment_name(self.active_id, ".seg"));
        fs::rename(open, sealed)?;
        self.active_id += 1;
        self.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(segment_name(self.active_id, ".open")))?;
        self.active_len = 0;
        Ok(())
    }

    /// Read one indexed frame, verify its magic, key and checksum, and
    /// decode it; `None` on any damage (including the file having
    /// vanished).
    fn read_frame(&self, key: u64, loc: Loc) -> Option<Analysis> {
        let mut f = File::open(self.segment_path(loc.seg)?).ok()?;
        f.seek(SeekFrom::Start(loc.offset)).ok()?;
        let mut bytes = vec![0u8; loc.frame as usize];
        f.read_exact(&mut bytes).ok()?;
        let (found, payload) = frame::verify(RECORD_MAGIC, &bytes)?;
        if found != key {
            return None;
        }
        slo::decode_analysis(payload).ok()
    }

    fn segment_path(&self, seg: u64) -> Option<PathBuf> {
        let sealed = self.dir.join(segment_name(seg, ".seg"));
        if sealed.exists() {
            return Some(sealed);
        }
        let open = self.dir.join(segment_name(seg, ".open"));
        open.exists().then_some(open)
    }
}

fn segment_name(id: u64, ext: &str) -> String {
    format!("seg-{id:06}{ext}")
}

fn segment_id(name: &str, ext: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(ext)?.parse().ok()
}

/// Replay one segment into the index under the frame rule (see
/// [`crate::frame`]). A torn tail counts once, however short.
fn scan_segment(
    path: &Path,
    seg: u64,
    index: &mut HashMap<u64, Loc>,
    counters: &mut StoreCounters,
) -> std::io::Result<Scan> {
    let bytes = fs::read(path)?;
    let scan = frame::scan(RECORD_MAGIC, &bytes, |range, key, _| {
        let loc = Loc {
            seg,
            offset: range.start as u64,
            frame: range.len() as u32,
        };
        index.insert(key, loc);
        true
    });
    counters.corrupt_drops += scan.corrupt + u64::from(scan.torn);
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_BYTES;
    use slo::analysis::WeightScheme;
    use slo::PipelineConfig;
    use slo_chaos::ChaosConfig;
    use slo_ir::parser::parse;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "slo-store-test-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn analysis_for(ret: i64) -> Analysis {
        let src = format!("func main() -> i64 {{\nbb0:\n  ret {ret}\n}}\n");
        let p = parse(&src).expect("parse");
        slo::analyze(&p, &WeightScheme::Ispbo, &PipelineConfig::default())
    }

    fn open(dir: &Path) -> AnalysisStore {
        AnalysisStore::open(dir, slo_obs::Recorder::disabled(), FaultPlan::disabled())
            .expect("open store")
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmp("roundtrip");
        let mut s = open(&dir);
        assert!(s.is_empty());
        s.put(1, &analysis_for(1)).expect("put");
        s.put(2, &analysis_for(2)).expect("put");
        assert_eq!(s.len(), 2);
        assert!(s.get(1).is_some());
        assert!(s.get(3).is_none());
        assert_eq!(s.counters().hits, 1);
        assert_eq!(s.counters().misses, 1);
        drop(s);

        // A second process sees both records (the active segment's
        // flushed prefix replays).
        let mut s = open(&dir);
        assert_eq!(s.len(), 2);
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_some());
        assert_eq!(s.counters().corrupt_drops, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_skipped_on_replay() {
        let dir = tmp("torn");
        let mut s = open(&dir);
        s.put(1, &analysis_for(1)).expect("put");
        s.put(2, &analysis_for(2)).expect("put");
        drop(s);
        // Chop the (single) segment mid-record, as a kill would.
        let seg = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
            .expect("segment")
            .path();
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..bytes.len() - 20]).expect("truncate");

        let mut s = open(&dir);
        assert_eq!(s.len(), 1, "complete record survives, torn one dropped");
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert_eq!(s.counters().corrupt_drops, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_is_dropped_on_read_and_healed_by_reput() {
        let dir = tmp("bitrot");
        let mut s = open(&dir);
        s.put(1, &analysis_for(1)).expect("put");
        // Rot one payload byte on disk behind the index's back.
        let seg = s.segment_path(s.index[&1].seg).expect("segment path");
        let mut bytes = fs::read(&seg).expect("read");
        let at = HEADER_BYTES + 3;
        bytes[at] ^= 0x40;
        fs::write(&seg, &bytes).expect("write");

        assert!(s.get(1).is_none(), "rotted record must not be served");
        assert_eq!(s.counters().corrupt_drops, 1);
        // The recompute path re-puts; the key is live again.
        s.put(1, &analysis_for(1)).expect("re-put");
        assert!(s.get(1).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_bit_rot_spares_later_records_on_replay() {
        let dir = tmp("interior");
        let mut s = open(&dir);
        for k in 1..=3u64 {
            s.put(k, &analysis_for(k as i64)).expect("put");
        }
        let seg = s.segment_path(s.index[&1].seg).expect("segment path");
        let second = s.index[&2];
        drop(s);
        let mut bytes = fs::read(&seg).expect("read");
        let at = second.offset as usize + HEADER_BYTES + 1;
        bytes[at] ^= 0x01;
        fs::write(&seg, &bytes).expect("write");

        let mut s = open(&dir);
        assert_eq!(s.len(), 2, "only the rotted interior record is lost");
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert!(s.get(3).is_some(), "records after the damage still replay");
        assert_eq!(s.counters().corrupt_drops, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_torn_tail_after_an_intact_record_is_counted() {
        let dir = tmp("short-tail");
        let mut s = open(&dir);
        s.put(1, &analysis_for(1)).expect("put");
        s.put(2, &analysis_for(2)).expect("put");
        let seg = s.segment_path(s.index[&1].seg).expect("segment path");
        let second = s.index[&2];
        drop(s);
        // Leave only 10 bytes of the second record: shorter than a
        // frame's header and trailer together.
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..second.offset as usize + 10]).expect("truncate");

        let mut s = open(&dir);
        assert_eq!(s.len(), 1);
        assert!(s.get(1).is_some());
        assert_eq!(s.counters().corrupt_drops, 1, "the short tail is counted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_keeps_appending_to_the_active_segment() {
        let dir = tmp("reopen-active");
        for k in 1..=2u64 {
            open(&dir).put(k, &analysis_for(k as i64)).expect("put");
        }
        let segments = || {
            let mut names: Vec<String> = fs::read_dir(&dir)
                .expect("dir")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        assert_eq!(segments(), ["seg-000000.open"], "a restart adds no segment");
        let s = open(&dir);
        assert_eq!(s.len(), 2, "both records replay");
        drop(s);

        // A torn append in the active segment is counted by the open
        // that finds it, and cut off so the next open finds none.
        let seg = dir.join("seg-000000.open");
        let mut bytes = fs::read(&seg).expect("read");
        let intact = bytes.len();
        bytes.extend_from_slice(&RECORD_MAGIC);
        fs::write(&seg, &bytes).expect("tear");
        let mut s = open(&dir);
        assert_eq!(s.counters().corrupt_drops, 1);
        s.put(3, &analysis_for(3)).expect("put after the torn tail");
        drop(s);
        let mut s = open(&dir);
        assert_eq!(s.counters().corrupt_drops, 0, "the torn tail is gone");
        for k in 1..=3u64 {
            assert!(s.get(k).is_some(), "record {k} replays");
        }
        assert!(fs::metadata(&seg).expect("stat").len() > intact as u64);
        assert_eq!(segments(), ["seg-000000.open"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_segments_seal_and_replay() {
        let dir = tmp("seal");
        let mut s = open(&dir);
        s.seal_bytes = 1; // every put fills the active segment
        for k in 1..=3u64 {
            s.put(k, &analysis_for(k as i64)).expect("put");
        }
        let sealed = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| segment_id(&e.file_name().to_string_lossy(), ".seg").is_some())
            .count();
        assert_eq!(sealed, 3, "one sealed segment per put");
        drop(s);

        let mut s = open(&dir);
        assert_eq!(s.len(), 3);
        for k in 1..=3u64 {
            assert!(s.get(k).is_some(), "sealed record {k} replays");
        }
        assert_eq!(s.counters().corrupt_drops, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_write_never_indexes_and_replays_clean() {
        let dir = tmp("chaos-torn");
        let plan = FaultPlan::with_config(7, ChaosConfig::never().rate(Site::StoreTornWrite, 1024));
        let mut s =
            AnalysisStore::open(&dir, slo_obs::Recorder::disabled(), plan.clone()).expect("open");
        s.put(1, &analysis_for(1)).expect("torn put");
        assert_eq!(plan.injected(Site::StoreTornWrite), 1);
        assert!(s.get(1).is_none(), "a torn record is never indexed");
        drop(s);
        let mut s = open(&dir);
        assert!(s.is_empty());
        assert_eq!(
            s.counters().corrupt_drops,
            1,
            "the torn tail is observed and counted on replay"
        );
        assert!(s.get(1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_bit_rot_is_caught_by_the_read_path() {
        let dir = tmp("chaos-rot");
        let plan = FaultPlan::with_config(9, ChaosConfig::never().rate(Site::StoreBitRot, 1024));
        let mut s =
            AnalysisStore::open(&dir, slo_obs::Recorder::disabled(), plan.clone()).expect("open");
        s.put(1, &analysis_for(1)).expect("put");
        assert_eq!(plan.injected(Site::StoreBitRot), 1);
        assert!(s.get(1).is_none(), "rotted record dropped, not served");
        assert_eq!(s.counters().corrupt_drops, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
