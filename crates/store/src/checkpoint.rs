//! Sealed checkpoint segments: the settled-history half of a snapshot.
//!
//! A v1 snapshot rewrote the *entire* replica state on every install, so
//! cumulative snapshot IO grew O(n²) in total settled payments. The v2
//! engine splits the state: long-settled history is sealed once into
//! numbered, immutable **checkpoint segments** under `ckpt/`, and the
//! installed snapshot shrinks to the residual working set (protocol
//! state) plus a count of the segments it builds on. History bytes are
//! written exactly once — total snapshot IO becomes O(n).
//!
//! # Segment format
//!
//! ```text
//! ┌──────────────┬─────────────┬────────────┬──────────────────────┐
//! │ magic (8 B)  │ version (4) │ index (4)  │ records …            │
//! │ "ASTROCKP"   │ 1 (LE)      │ u32 (LE)   │                      │
//! └──────────────┴─────────────┴────────────┴──────────────────────┘
//! record := len (u32 LE) ‖ crc32(payload) (u32 LE) ‖ payload
//! ```
//!
//! Segments are sealed crash-atomically (write to `seg.tmp`, fsync,
//! rename to `seg-NNNNNNNN.bin`, fsync the directory) and never modified
//! afterwards. Recovery reads segments `0, 1, 2, …` in order and stops at
//! the first gap, torn, or corrupt segment — the **longest valid segment
//! prefix**. Which prefix is actually *referenced* is decided one layer
//! up: the residual snapshot records how many segments it builds on, so
//! an orphan segment sealed just before a crash (its snapshot never
//! installed) is ignored rather than double-applied.

// Recovery reads these files back: no byte on disk may reach a panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::wal::{le_u32, put_frame, read_frames};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Leading magic of every checkpoint segment file.
pub const CKPT_MAGIC: [u8; 8] = *b"ASTROCKP";

/// Current segment format version.
pub const CKPT_VERSION: u32 = 1;

/// Subdirectory of a replica's storage directory holding the segments.
pub const CKPT_DIR: &str = "ckpt";

/// Staging file name; never read as a segment.
pub const CKPT_TMP_FILE: &str = "seg.tmp";

/// Segment header length: magic, version, index.
pub const CKPT_HEADER_LEN: usize = 16;

/// Path of segment `index` under `dir` (the replica storage directory).
pub fn segment_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(CKPT_DIR).join(format!("seg-{index:08}.bin"))
}

fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join(CKPT_DIR)
}

/// Seals `records` as segment `index`, crash-atomically: staging write +
/// fsync, rename into place, directory fsync. Overwrites an existing
/// segment at the same index (re-sealing after a failed install restarts
/// the sequence; the residual snapshot's segment count is what makes a
/// segment live).
///
/// # Errors
///
/// Propagates IO errors, and refuses with `InvalidInput` a record over
/// [`MAX_RECORD_LEN`](crate::wal::MAX_RECORD_LEN) (recovery would drop
/// the whole segment); on error no new segment is visible.
pub fn seal_segment(dir: &Path, index: u32, records: &[Vec<u8>]) -> std::io::Result<()> {
    let mut buf =
        Vec::with_capacity(CKPT_HEADER_LEN + records.iter().map(|r| 8 + r.len()).sum::<usize>());
    buf.extend_from_slice(&CKPT_MAGIC);
    buf.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    buf.extend_from_slice(&index.to_le_bytes());
    for record in records {
        if !put_frame(&mut buf, |b| b.extend_from_slice(record)) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "oversized checkpoint record",
            ));
        }
    }
    let ckpt = ckpt_dir(dir);
    std::fs::create_dir_all(&ckpt)?;
    let tmp = ckpt.join(CKPT_TMP_FILE);
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    f.write_all(&buf)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, segment_path(dir, index))?;
    File::open(&ckpt)?.sync_all()
}

/// Validates one segment file's bytes in full. Unlike the WAL, a sealed
/// segment admits no torn tail: any trailing garbage, truncated frame, or
/// CRC mismatch invalidates the whole segment (it was written atomically,
/// so damage means external corruption, not a crash).
fn parse_segment(bytes: &[u8], index: u32) -> Option<Vec<Vec<u8>>> {
    let header = bytes.starts_with(&CKPT_MAGIC)
        && le_u32(bytes, 8) == Some(CKPT_VERSION)
        && le_u32(bytes, 12) == Some(index);
    let body = bytes.get(CKPT_HEADER_LEN..).filter(|_| header)?;
    let (records, len) = read_frames(body);
    (len == body.len()).then_some(records)
}

/// Reads the longest valid segment prefix under `dir`: segments
/// `0, 1, 2, …` in order, stopping at the first missing or invalid one.
/// A stray staging file from an interrupted seal is removed.
///
/// # Errors
///
/// Only genuine IO errors surface; damaged segments cut the prefix.
pub fn read_segments(dir: &Path) -> std::io::Result<Vec<Vec<Vec<u8>>>> {
    let ckpt = ckpt_dir(dir);
    let _ = std::fs::remove_file(ckpt.join(CKPT_TMP_FILE));
    let mut segments = Vec::new();
    for index in 0u32.. {
        let bytes = match std::fs::read(segment_path(dir, index)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
            Err(e) => return Err(e),
        };
        match parse_segment(&bytes, index) {
            Some(records) => segments.push(records),
            None => break,
        }
    }
    Ok(segments)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::wal::MAX_RECORD_LEN;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("astro-ckpt-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seal_read_round_trips() {
        let dir = tmp_dir("round-trip");
        assert!(read_segments(&dir).unwrap().is_empty());
        seal_segment(&dir, 0, &[b"alpha".to_vec(), b"beta".to_vec()]).unwrap();
        seal_segment(&dir, 1, &[b"gamma".to_vec()]).unwrap();
        let segments = read_segments(&dir).unwrap();
        assert_eq!(
            segments,
            vec![vec![b"alpha".to_vec(), b"beta".to_vec()], vec![b"gamma".to_vec()]]
        );
    }

    #[test]
    fn gap_cuts_the_prefix() {
        let dir = tmp_dir("gap");
        seal_segment(&dir, 0, &[b"zero".to_vec()]).unwrap();
        seal_segment(&dir, 2, &[b"two".to_vec()]).unwrap();
        let segments = read_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "segment 1 missing: the prefix stops before 2");
    }

    #[test]
    fn corrupt_segment_cuts_the_prefix() {
        let dir = tmp_dir("corrupt");
        seal_segment(&dir, 0, &[b"safe".to_vec()]).unwrap();
        seal_segment(&dir, 1, &[b"damaged".to_vec()]).unwrap();
        seal_segment(&dir, 2, &[b"after".to_vec()]).unwrap();
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let segments = read_segments(&dir).unwrap();
        assert_eq!(segments, vec![vec![b"safe".to_vec()]]);
    }

    #[test]
    fn torn_segment_is_wholly_invalid() {
        let dir = tmp_dir("torn");
        seal_segment(&dir, 0, &[b"first".to_vec(), b"second".to_vec()]).unwrap();
        let path = segment_path(&dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        // Chop anywhere: a sealed segment has no valid shorter form.
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(read_segments(&dir).unwrap().is_empty());
    }

    #[test]
    fn wrong_index_is_rejected() {
        let dir = tmp_dir("wrong-index");
        seal_segment(&dir, 0, &[b"zero".to_vec()]).unwrap();
        // A segment whose embedded index disagrees with its file name
        // (e.g. a misplaced copy) must not be accepted.
        std::fs::copy(segment_path(&dir, 0), segment_path(&dir, 1)).unwrap();
        assert_eq!(read_segments(&dir).unwrap().len(), 1);
    }

    #[test]
    fn resealing_overwrites() {
        let dir = tmp_dir("reseal");
        seal_segment(&dir, 0, &[b"old".to_vec()]).unwrap();
        seal_segment(&dir, 0, &[b"new".to_vec()]).unwrap();
        assert_eq!(read_segments(&dir).unwrap(), vec![vec![b"new".to_vec()]]);
    }

    #[test]
    fn oversized_record_is_refused() {
        let dir = tmp_dir("oversized");
        let records = [b"fits".to_vec(), vec![0; MAX_RECORD_LEN + 1]];
        let err = seal_segment(&dir, 0, &records).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!segment_path(&dir, 0).exists(), "no segment recovery would drop");
    }

    #[test]
    fn stray_staging_file_is_cleaned_up() {
        let dir = tmp_dir("stray");
        std::fs::create_dir_all(dir.join(CKPT_DIR)).unwrap();
        std::fs::write(dir.join(CKPT_DIR).join(CKPT_TMP_FILE), b"half a segment").unwrap();
        assert!(read_segments(&dir).unwrap().is_empty());
        assert!(!dir.join(CKPT_DIR).join(CKPT_TMP_FILE).exists());
    }
}
