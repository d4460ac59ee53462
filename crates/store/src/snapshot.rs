//! Snapshot files with atomic rename-install.
//!
//! A snapshot is one integrity-checked blob (the wire-encoded replica
//! state from `astro_core::journal`):
//!
//! ```text
//! magic "ASTROSNP" (8 B) ‖ version (u32 LE) ‖ len (u32 LE) ‖ state ‖ crc32(state)
//! ```
//!
//! Installation is crash-atomic: the new snapshot is written to
//! `snapshot.tmp`, fsynced, then `rename(2)`d over `snapshot.bin` (POSIX
//! renames within a directory are atomic), and the directory is fsynced.
//! A crash at any point leaves either the old or the new snapshot intact
//! — never a mix; a stray `snapshot.tmp` is deleted on recovery.

// Recovery reads these files back: no byte on disk may reach a panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::wal::{crc32, le_u32};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Leading magic of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"ASTROSNP";

/// Current format version.
pub const SNAP_VERSION: u32 = 1;

/// Installed snapshot file name within a replica's storage directory.
pub const SNAP_FILE: &str = "snapshot.bin";

/// Staging file name; never read as a snapshot.
pub const SNAP_TMP_FILE: &str = "snapshot.tmp";

fn snap_path(dir: &Path) -> PathBuf {
    dir.join(SNAP_FILE)
}

fn tmp_path(dir: &Path) -> PathBuf {
    dir.join(SNAP_TMP_FILE)
}

/// Stage 1 of an install: write and fsync the staging file. Exposed
/// separately so crash-atomicity tests can stop between the stages.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_snapshot_tmp(dir: &Path, state: &[u8]) -> std::io::Result<()> {
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(tmp_path(dir))?;
    f.write_all(&SNAP_MAGIC)?;
    f.write_all(&SNAP_VERSION.to_le_bytes())?;
    f.write_all(&(state.len() as u32).to_le_bytes())?;
    f.write_all(state)?;
    f.write_all(&crc32(state).to_le_bytes())?;
    f.sync_all()
}

/// Stage 2 of an install: atomically rename the staging file over the
/// installed snapshot and fsync the directory.
///
/// # Errors
///
/// Propagates IO errors.
pub fn install_snapshot_tmp(dir: &Path) -> std::io::Result<()> {
    std::fs::rename(tmp_path(dir), snap_path(dir))?;
    // Make the rename itself durable (directory entry update).
    File::open(dir)?.sync_all()
}

/// Writes and installs a snapshot atomically.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_snapshot(dir: &Path, state: &[u8]) -> std::io::Result<()> {
    write_snapshot_tmp(dir, state)?;
    install_snapshot_tmp(dir)
}

/// Reads the installed snapshot, if any, verifying its integrity. A stray
/// staging file from an interrupted install is removed.
///
/// # Errors
///
/// IO errors, or `InvalidData` if a snapshot is present but fails its
/// magic/length/CRC checks (external damage: the WAL was truncated under
/// this snapshot, so silently ignoring it would lose state).
pub fn read_snapshot(dir: &Path) -> std::io::Result<Option<Vec<u8>>> {
    let _ = std::fs::remove_file(tmp_path(dir));
    let mut f = match File::open(snap_path(dir)) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    let invalid =
        || std::io::Error::new(std::io::ErrorKind::InvalidData, "snapshot failed integrity check");
    if !bytes.starts_with(&SNAP_MAGIC) || le_u32(&bytes, 8) != Some(SNAP_VERSION) {
        return Err(invalid());
    }
    let len = le_u32(&bytes, 12).ok_or_else(invalid)? as usize;
    let state = bytes.get(16..).and_then(|rest| rest.get(..len)).ok_or_else(invalid)?;
    if bytes.len() != 16 + len + 4 || le_u32(&bytes, 16 + len) != Some(crc32(state)) {
        return Err(invalid());
    }
    Ok(Some(state.to_vec()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("astro-snap-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trips() {
        let dir = tmp_dir("round-trip");
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        write_snapshot(&dir, b"state v1").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), b"state v1");
        write_snapshot(&dir, b"state v2 longer").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), b"state v2 longer");
    }

    #[test]
    fn crash_between_write_and_rename_keeps_the_old_snapshot() {
        let dir = tmp_dir("crash-window");
        write_snapshot(&dir, b"old").unwrap();
        // The crash: stage the new snapshot but never install it.
        write_snapshot_tmp(&dir, b"new").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), b"old");
        assert!(!dir.join(SNAP_TMP_FILE).exists(), "stray staging file is cleaned up");
    }

    #[test]
    fn damaged_snapshot_is_reported_not_ignored() {
        let dir = tmp_dir("damage");
        write_snapshot(&dir, b"precious").unwrap();
        let path = dir.join(SNAP_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 5;
        bytes[last] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let err = read_snapshot(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_snapshot_is_reported() {
        let dir = tmp_dir("truncated");
        write_snapshot(&dir, b"precious state bytes").unwrap();
        let path = dir.join(SNAP_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_snapshot(&dir).is_err());
    }
}
