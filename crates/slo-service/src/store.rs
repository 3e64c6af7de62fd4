//! The persistent analysis store: an append-only, crash-safe segment
//! store for serialized [`Analysis`] records, keyed by the same FNV
//! content fingerprints as the in-memory cache
//! ([`slo::analysis_cache_key`]).
//!
//! The store is the durable tier beneath [`crate::cache::AnalysisCache`]:
//! an LRU miss falls through to disk before recomputing, and a fresh
//! computation is written back, so analysis results survive process
//! restarts and SIGKILL — the warm-start half of ROADMAP item 2.
//!
//! # On-disk format
//!
//! A store directory holds numbered segment files. The active segment
//! (`seg-NNNNNN.open`) receives appends; once it reaches the seal
//! threshold it is fsync'd and atomically renamed to `seg-NNNNNN.seg`,
//! so a sealed segment is always a complete, durable prefix and a kill
//! at any point leaves at worst a torn tail on the active segment.
//! Each record is self-describing:
//!
//! ```text
//! [4B magic "SLOR"] [8B key LE] [4B payload len LE] [payload] [8B FNV-1a LE]
//! ```
//!
//! The trailing checksum covers the header *and* the payload, and is
//! verified on every read — including re-reads of records that scanned
//! clean at open time, because bit rot does not schedule itself around
//! `open`. A record that fails the checksum (or fails
//! [`slo::decode_analysis`]'s structural validation) is dropped from
//! the index, counted in [`StoreCounters::corrupt_drops`], and the
//! caller recomputes: a corrupt record is never served. This extends
//! the cache's `get_checked` re-verification discipline to disk, where
//! the fingerprint alone would not suffice ([`ipa_fingerprint`] digests
//! only the planner-relevant subset of an analysis).
//!
//! # Replay
//!
//! Opening scans every segment in order. A record whose checksum fails
//! but whose frame is intact is skipped and counted (interior bit rot);
//! a frame that no longer parses — bad magic, impossible length,
//! missing bytes — ends the scan of that segment (torn tail). Later
//! segments still replay: damage is contained to the segment it
//! happened in.
//!
//! Nothing rewrites segments. A put of a key the store already holds
//! is a no-op, so no record is ever superseded: only torn writes and
//! rot leave dead bytes behind.
//!
//! # Fault injection
//!
//! Two [`Site`]s prove the robustness claims deterministically:
//! [`Site::StoreTornWrite`] truncates a put mid-body (and rolls the
//! segment, as a crash would), and [`Site::StoreBitRot`] flips one byte
//! of a just-written record on disk.
//!
//! [`ipa_fingerprint`]: slo::analysis::ipa_fingerprint

use slo::Analysis;
use slo_chaos::{FaultPlan, Site};
use slo_ir::fnv1a;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of one store record frame.
const RECORD_MAGIC: [u8; 4] = *b"SLOR";
/// Frame header bytes before the payload (magic + key + len).
const HEADER_BYTES: usize = 4 + 8 + 4;
/// Frame trailer bytes after the payload (checksum).
const TRAILER_BYTES: usize = 8;
/// Upper bound on one record's payload — a length field beyond this is
/// frame damage, not data.
const MAX_PAYLOAD_BYTES: u32 = 256 * 1024 * 1024;
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
    /// segment into the in-memory index. Any active segment left by a
    /// dead process is sealed as-is — its valid prefix replays, its
    /// torn tail (if any) is skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or segment reads;
    /// damaged *records* are never fatal, only counted.
    pub fn open(dir: &Path, trace: slo_obs::Recorder, faults: FaultPlan) -> std::io::Result<Self> {
        let rec = trace.clone();
        let mut span = rec.span("store", "open");
        fs::create_dir_all(dir)?;
        // Orphaned active segments (a previous process died holding
        // one) become sealed segments: rename first so the scan below
        // only ever sees one namespace.
        let mut ids = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(id) = segment_id(&name, ".open") {
                let sealed = dir.join(segment_name(id, ".seg"));
                fs::rename(entry.path(), sealed)?;
                ids.push(id);
            } else if let Some(id) = segment_id(&name, ".seg") {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        let mut index = HashMap::new();
        let mut counters = StoreCounters::default();
        for &id in &ids {
            scan_segment(
                &dir.join(segment_name(id, ".seg")),
                id,
                &mut index,
                &mut counters,
            )?;
        }

        let active_id = ids.last().map_or(0, |m| m + 1);
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(segment_name(active_id, ".open")))?;
        span.arg("records", index.len() as i64);
        span.arg("segments", ids.len() as i64);
        Ok(AnalysisStore {
            dir: dir.to_path_buf(),
            index,
            active,
            active_id,
            active_len: 0,
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
        let frame = encode_frame(key, &slo::encode_analysis(analysis));
        span.arg("bytes", frame.len() as i64);

        if self.faults.should_fire(Site::StoreTornWrite) {
            // A torn write: only a prefix of the frame reaches disk, as
            // if the process died mid-append. The record is not
            // indexed, and the segment rolls so the damage sits where
            // real crash damage sits — at a sealed segment's tail.
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
        let mut frame = vec![0u8; loc.frame as usize];
        f.read_exact(&mut frame).ok()?;
        verify_frame(&frame, Some(key))?;
        slo::decode_analysis(&frame[HEADER_BYTES..frame.len() - TRAILER_BYTES]).ok()
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

/// Build one record frame: header, payload, trailing checksum over
/// everything before it.
fn encode_frame(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    frame.extend_from_slice(&RECORD_MAGIC);
    frame.extend_from_slice(&key.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let sum = fnv1a(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// Verify one complete frame's magic, length, checksum and (when the
/// caller knows it) key. Returns the record key on success.
fn verify_frame(frame: &[u8], expect_key: Option<u64>) -> Option<u64> {
    if frame.len() < HEADER_BYTES + TRAILER_BYTES || frame[..4] != RECORD_MAGIC {
        return None;
    }
    let key = u64::from_le_bytes(frame[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(frame[12..16].try_into().unwrap()) as usize;
    if frame.len() != HEADER_BYTES + len + TRAILER_BYTES {
        return None;
    }
    let body = &frame[..HEADER_BYTES + len];
    let sum = u64::from_le_bytes(frame[HEADER_BYTES + len..].try_into().unwrap());
    if fnv1a(body) != sum || expect_key.is_some_and(|k| k != key) {
        return None;
    }
    Some(key)
}

/// Replay one sealed segment into the index. Interior records with an
/// intact frame but a bad checksum are skipped and counted; frame
/// damage (bad magic, impossible length, missing bytes) ends the scan
/// — the torn-tail case — and the leftover bytes count once, however
/// short.
fn scan_segment(
    path: &Path,
    seg: u64,
    index: &mut HashMap<u64, Loc>,
    counters: &mut StoreCounters,
) -> std::io::Result<()> {
    let bytes = fs::read(path)?;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let frame_len = (rest.len() >= HEADER_BYTES && rest[..4] == RECORD_MAGIC)
            .then(|| u32::from_le_bytes(rest[12..16].try_into().unwrap()))
            .filter(|&len| len <= MAX_PAYLOAD_BYTES)
            .map(|len| HEADER_BYTES + len as usize + TRAILER_BYTES)
            .filter(|&n| n <= rest.len());
        let Some(frame_len) = frame_len else {
            counters.corrupt_drops += 1;
            break;
        };
        match verify_frame(&rest[..frame_len], None) {
            Some(key) => {
                index.insert(
                    key,
                    Loc {
                        seg,
                        offset: pos as u64,
                        frame: frame_len as u32,
                    },
                );
            }
            None => {
                // Checksum mismatch with an intact frame: interior bit
                // rot. Skip just this record; later ones still replay.
                counters.corrupt_drops += 1;
            }
        }
        pos += frame_len;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
