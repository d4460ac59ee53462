//! Property tests for the durability engine: an arbitrary WAL prefix
//! followed by arbitrary trailing corruption (truncation, bit flips,
//! garbage appends) always recovers to exactly the longest valid record
//! prefix, and snapshot installation is crash-atomic.

use astro_core::journal::WalRecord;
use astro_store::snapshot::{read_snapshot, write_snapshot, write_snapshot_tmp};
use astro_store::wal::{read_wal, GroupCommit, WalWriter, WAL_HEADER_LEN};
use astro_store::{Storage, StoreConfig};
use astro_types::Payment;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per proptest case (cases run in sequence,
/// but each must see a fresh file).
fn case_dir(name: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("astro-store-prop-{}-{name}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

/// Frame offsets of each record's end, given the payload lengths.
fn frame_ends(payloads: &[Vec<u8>]) -> Vec<u64> {
    let mut offset = WAL_HEADER_LEN;
    payloads
        .iter()
        .map(|p| {
            offset += 8 + p.len() as u64;
            offset
        })
        .collect()
}

fn write_payloads(path: &std::path::Path, payloads: &[Vec<u8>]) {
    let mut w = WalWriter::open_at(path, 0, GroupCommit::default()).unwrap();
    for p in payloads {
        w.append(p);
    }
    w.sync();
}

proptest! {
    /// Truncating the file anywhere recovers exactly the records whose
    /// frames lie wholly before the cut.
    #[test]
    fn truncation_recovers_the_exact_prefix(
        payloads in proptest::collection::vec(arb_payload(), 1..12),
        cut_fraction in 0u32..1000,
    ) {
        let dir = case_dir("truncate");
        let path = dir.join("wal.bin");
        write_payloads(&path, &payloads);
        let full = std::fs::read(&path).unwrap();
        let cut = (WAL_HEADER_LEN as usize)
            + ((full.len() - WAL_HEADER_LEN as usize) * cut_fraction as usize) / 1000;
        std::fs::write(&path, &full[..cut]).unwrap();

        let recovered = read_wal(&path).unwrap();
        let ends = frame_ends(&payloads);
        let expected = ends.iter().filter(|e| **e <= cut as u64).count();
        prop_assert_eq!(recovered.payloads.len(), expected);
        for (got, want) in recovered.payloads.iter().zip(&payloads) {
            prop_assert_eq!(got, want);
        }
    }

    /// Flipping any bit cuts the log at (or before) the damaged record —
    /// and every record before it survives intact.
    #[test]
    fn bit_flip_recovers_the_records_before_the_flip(
        payloads in proptest::collection::vec(arb_payload(), 1..10),
        flip_fraction in 0u32..1000,
        bit in 0u8..8,
    ) {
        let dir = case_dir("flip");
        let path = dir.join("wal.bin");
        write_payloads(&path, &payloads);
        let mut bytes = std::fs::read(&path).unwrap();
        let body = bytes.len() - WAL_HEADER_LEN as usize;
        let pos = WAL_HEADER_LEN as usize + (body - 1) * flip_fraction as usize / 1000;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = read_wal(&path).unwrap();
        let ends = frame_ends(&payloads);
        // The record containing the flipped byte is the first casualty.
        let damaged = ends.iter().position(|e| (pos as u64) < *e).unwrap();
        prop_assert_eq!(recovered.payloads.len(), damaged);
        for (got, want) in recovered.payloads.iter().zip(&payloads) {
            prop_assert_eq!(got, want);
        }
        // Reopening truncates to the valid prefix and appending resumes.
        let mut w = WalWriter::open_at(&path, recovered.valid_len, GroupCommit::default()).unwrap();
        w.append(b"resumed");
        w.sync();
        drop(w);
        let after = read_wal(&path).unwrap();
        prop_assert_eq!(after.payloads.len(), damaged + 1);
        prop_assert_eq!(after.payloads.last().unwrap().as_slice(), b"resumed");
    }

    /// Appending arbitrary garbage after the valid log never destroys or
    /// extends the valid record set (a 2⁻³² accidental-CRC-match is the
    /// only theoretical exception; 8 garbage bytes cannot produce one of
    /// these lengths).
    #[test]
    fn garbage_append_leaves_the_log_intact(
        payloads in proptest::collection::vec(arb_payload(), 0..8),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let dir = case_dir("garbage");
        let path = dir.join("wal.bin");
        write_payloads(&path, &payloads);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).unwrap();

        let recovered = read_wal(&path).unwrap();
        // All original records survive; garbage may only be cut off. (A
        // garbage run that happens to be a valid frame would *extend* the
        // set — with a matching CRC32, i.e. effectively never.)
        prop_assert!(recovered.payloads.len() >= payloads.len());
        for (got, want) in recovered.payloads.iter().zip(&payloads) {
            prop_assert_eq!(got, want);
        }
    }

    /// Crash between snapshot write and rename: the old snapshot stays
    /// readable, whatever the staged bytes were.
    #[test]
    fn snapshot_install_is_atomic(
        old in proptest::collection::vec(any::<u8>(), 0..64),
        new in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = case_dir("snapshot");
        write_snapshot(&dir, &old).unwrap();
        // The crash window: stage but never rename.
        write_snapshot_tmp(&dir, &new).unwrap();
        prop_assert_eq!(read_snapshot(&dir).unwrap().unwrap(), old.clone());
        // Completing the install later lands the new state.
        write_snapshot(&dir, &new).unwrap();
        prop_assert_eq!(read_snapshot(&dir).unwrap().unwrap(), new);
    }

    /// Storage round-trips typed records through corruption: whatever a
    /// torn tail leaves behind, recovery yields a record *prefix*.
    #[test]
    fn storage_recovers_a_record_prefix_after_truncation(
        seqs in 1usize..20,
        cut_fraction in 0u32..1000,
    ) {
        let dir = case_dir("storage");
        let records: Vec<WalRecord> = (0..seqs as u64)
            .map(|s| WalRecord::Settle {
                payment: Payment::new(1u64, s, 2u64, 1u64),
                credit_beneficiary: true,
            })
            .collect();
        {
            let (mut storage, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
            for r in &records {
                storage.append(r);
            }
            storage.sync();
        }
        let wal_path = astro_store::wal_path(&dir, 0);
        let full = std::fs::read(&wal_path).unwrap();
        let cut = (WAL_HEADER_LEN as usize)
            + ((full.len() - WAL_HEADER_LEN as usize) * cut_fraction as usize) / 1000;
        std::fs::write(&wal_path, &full[..cut]).unwrap();

        let (_storage, recovered) = Storage::open(&dir, StoreConfig::default()).unwrap();
        prop_assert!(recovered.records.len() <= records.len());
        prop_assert_eq!(
            recovered.records.as_slice(),
            &records[..recovered.records.len()],
            "recovery must yield an exact record prefix"
        );
    }
}
