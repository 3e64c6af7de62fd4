//! The one checksummed record frame of the service's two durable logs,
//! the analysis store ([`crate::store`]) and the serve journal
//! ([`crate::journal`]).
//!
//! ```text
//! [4B magic] [8B key LE] [4B payload len LE] [payload] [8B FNV-1a LE]
//! ```
//!
//! The checksum covers the header *and* the payload. Each log passes its
//! own magic, so a file of one log is never read as the other.
//!
//! Both logs replay through one walk under one rule. A frame that is
//! intact but whose checksum fails (or whose payload the log rejects) is
//! skipped and counted: interior bit rot spares the records after it. A
//! frame that no longer parses (bad magic, impossible length, missing
//! bytes) ends the walk: it is the torn tail an interrupted append
//! leaves, and the next append belongs where the intact prefix stops.

use slo_ir::fnv1a;
use std::ops::Range;

/// Frame header bytes before the payload (magic + key + len).
pub(crate) const HEADER_BYTES: usize = 4 + 8 + 4;
/// Frame trailer bytes after the payload (checksum).
const TRAILER_BYTES: usize = 8;
/// Upper bound on one record's payload: a length field beyond this is
/// frame damage, not data.
const MAX_PAYLOAD_BYTES: u32 = 256 * 1024 * 1024;

/// Build one frame: header, payload, trailing checksum over everything
/// before it.
pub fn encode(magic: [u8; 4], key: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    frame.extend_from_slice(&magic);
    frame.extend_from_slice(&key.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let sum = fnv1a(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// Verify one complete frame's magic, length and checksum. Returns its
/// key and payload.
pub(crate) fn verify(magic: [u8; 4], frame: &[u8]) -> Option<(u64, &[u8])> {
    if frame_len(magic, frame) != Some(frame.len()) {
        return None;
    }
    let body = &frame[..frame.len() - TRAILER_BYTES];
    let sum = u64::from_le_bytes(frame[body.len()..].try_into().unwrap());
    (fnv1a(body) == sum).then(|| {
        let key = u64::from_le_bytes(frame[4..12].try_into().unwrap());
        (key, &body[HEADER_BYTES..])
    })
}

/// The length of the frame `bytes` starts with, if its header is intact
/// and the whole frame is present.
fn frame_len(magic: [u8; 4], bytes: &[u8]) -> Option<usize> {
    (bytes.len() >= HEADER_BYTES && bytes[..4] == magic)
        .then(|| u32::from_le_bytes(bytes[12..16].try_into().unwrap()))
        .filter(|&len| len <= MAX_PAYLOAD_BYTES)
        .map(|len| HEADER_BYTES + len as usize + TRAILER_BYTES)
        .filter(|&n| n <= bytes.len())
}

/// What one walk over a log found.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scan {
    /// Intact frames skipped for a bad checksum or a rejected payload.
    pub(crate) corrupt: u64,
    /// The end of the last intact frame: where the next append belongs.
    pub(crate) end: usize,
    /// Whether bytes past `end` were left unread (a torn tail).
    pub(crate) torn: bool,
}

/// Walk the frames of `bytes` in order, calling `each(range, key,
/// payload)` for every frame whose checksum verifies; a `false` return
/// rejects the payload and counts the frame as corrupt.
pub(crate) fn scan(
    magic: [u8; 4],
    bytes: &[u8],
    mut each: impl FnMut(Range<usize>, u64, &[u8]) -> bool,
) -> Scan {
    let mut corrupt = 0;
    let mut pos = 0;
    while let Some(len) = frame_len(magic, &bytes[pos..]) {
        let range = pos..pos + len;
        let accepted = verify(magic, &bytes[range.clone()])
            .is_some_and(|(key, payload)| each(range, key, payload));
        if !accepted {
            corrupt += 1;
        }
        pos += len;
    }
    Scan {
        corrupt,
        end: pos,
        torn: pos < bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    /// The keys a walk accepts, and what it found.
    fn walk(bytes: &[u8]) -> (Vec<u64>, (u64, usize, bool)) {
        let mut seen = Vec::new();
        let scan = scan(MAGIC, bytes, |_, key, _| {
            seen.push(key);
            true
        });
        (seen, (scan.corrupt, scan.end, scan.torn))
    }

    #[test]
    fn frames_roundtrip_and_walk_in_order() {
        let mut log = encode(MAGIC, 1, b"one");
        log.extend(encode(MAGIC, 2, b""));
        let first = &log[..HEADER_BYTES + 3 + TRAILER_BYTES];
        assert_eq!(verify(MAGIC, first), Some((1, &b"one"[..])));
        assert_eq!(walk(&log), (vec![1, 2], (0, log.len(), false)));
    }

    #[test]
    fn another_magic_is_frame_damage() {
        let log = encode(*b"ELSE", 1, b"x");
        assert_eq!(verify(MAGIC, &log), None);
        assert_eq!(walk(&log), (vec![], (0, 0, true)));
    }

    #[test]
    fn bad_checksum_is_skipped_and_torn_tail_ends_the_walk() {
        let mut log = encode(MAGIC, 1, b"rot");
        log[HEADER_BYTES] ^= 1;
        log.extend(encode(MAGIC, 2, b"ok"));
        let intact = log.len();
        log.extend(&encode(MAGIC, 3, b"torn")[..10]);
        assert_eq!(walk(&log), (vec![2], (1, intact, true)));
    }

    #[test]
    fn a_rejected_payload_counts_as_corrupt() {
        let log = encode(MAGIC, 1, b"x");
        let scan = scan(MAGIC, &log, |_, _, _| false);
        assert_eq!((scan.corrupt, scan.end, scan.torn), (1, log.len(), false));
    }
}
