//! Property tests for the checkpoint-segment half of the v2 durability
//! engine: arbitrary torn tails and bit flips over a sealed segment
//! chain always recover to a valid segment prefix, and the crash window
//! after an install (truncate the live WAL generation anywhere) replays
//! to exactly the residual snapshot, the sealed chain, and a record
//! prefix.

use astro_core::journal::WalRecord;
use astro_store::checkpoint::{read_segments, seal_segment, segment_path, CKPT_HEADER_LEN};
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
        std::env::temp_dir().join(format!("astro-ckpt-prop-{}-{name}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn arb_record() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

fn arb_segment() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arb_record(), 1..6)
}

/// Byte offset where each record's frame ends inside a segment file.
fn frame_ends(records: &[Vec<u8>]) -> Vec<usize> {
    let mut offset = CKPT_HEADER_LEN;
    records
        .iter()
        .map(|r| {
            offset += 8 + r.len();
            offset
        })
        .collect()
}

proptest! {
    /// Truncating the *last* segment anywhere: every earlier segment
    /// survives intact, and the torn one is accepted only when the cut
    /// lands exactly on a frame boundary (then it holds exactly the
    /// records wholly before the cut — the segment-internal longest
    /// valid prefix). A mid-frame cut invalidates the whole segment;
    /// whether a boundary-cut shorter segment is *referenced* is the
    /// residual snapshot's call one layer up.
    #[test]
    fn torn_tail_at_segment_boundary_recovers_the_sealed_prefix(
        segments in proptest::collection::vec(arb_segment(), 1..5),
        cut_fraction in 0u32..1000,
    ) {
        let dir = case_dir("torn-tail");
        for (index, records) in segments.iter().enumerate() {
            seal_segment(&dir, index as u32, records).unwrap();
        }
        let last = segments.len() - 1;
        let path = segment_path(&dir, last as u32);
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() * cut_fraction as usize / 1000;
        std::fs::write(&path, &full[..cut]).unwrap();

        let recovered = read_segments(&dir).unwrap();
        let ends = frame_ends(&segments[last]);
        let boundary = cut >= CKPT_HEADER_LEN
            && (cut == CKPT_HEADER_LEN || ends.contains(&cut));
        if boundary {
            prop_assert_eq!(recovered.len(), segments.len());
            let kept = ends.iter().filter(|e| **e <= cut).count();
            prop_assert_eq!(recovered[last].as_slice(), &segments[last][..kept]);
        } else {
            prop_assert_eq!(recovered.len(), segments.len() - 1);
        }
        for (got, want) in recovered.iter().zip(&segments) {
            prop_assert_eq!(&got[..got.len().min(want.len())], &want[..got.len().min(want.len())]);
        }
    }

    /// Flipping any single bit anywhere in the chain cuts the prefix at
    /// the damaged segment — every segment before it survives bit-exact,
    /// nothing after it is served.
    #[test]
    fn bit_flip_in_any_segment_cuts_the_prefix_there(
        segments in proptest::collection::vec(arb_segment(), 1..5),
        victim_fraction in 0u32..1000,
        flip_fraction in 0u32..1000,
        bit in 0u8..8,
    ) {
        let dir = case_dir("flip");
        for (index, records) in segments.iter().enumerate() {
            seal_segment(&dir, index as u32, records).unwrap();
        }
        let victim = segments.len() * victim_fraction as usize / 1000;
        let path = segment_path(&dir, victim as u32);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (bytes.len() - 1) * flip_fraction as usize / 1000;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = read_segments(&dir).unwrap();
        prop_assert_eq!(recovered.len(), victim, "prefix stops at the damaged segment");
        for (got, want) in recovered.iter().zip(&segments) {
            prop_assert_eq!(got, want);
        }
    }

    /// The full crash window of an incremental snapshot: seal a segment +
    /// residual through the async install path, append more WAL records,
    /// then crash with the log torn anywhere. Recovery must yield the
    /// residual snapshot byte-exact, the sealed chain intact, and an
    /// exact prefix of the post-install records — never a pre-install
    /// record (the install deleted the superseded WAL generation) and
    /// never a phantom.
    #[test]
    fn crash_window_replay_across_checkpoint_and_wal_truncation(
        pre in 1usize..8,
        post in 1usize..8,
        cut_fraction in 0u32..1000,
    ) {
        let dir = case_dir("crash-window");
        let segment: Vec<Vec<u8>> =
            (0..pre as u64).map(|s| vec![s as u8; 12]).collect();
        let residual = vec![0xAB; 24];
        let post_records: Vec<WalRecord> = (pre as u64..(pre + post) as u64)
            .map(|s| WalRecord::Settle {
                payment: Payment::new(1u64, s, 2u64, 1u64),
                credit_beneficiary: true,
            })
            .collect();
        {
            let (mut storage, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
            for s in 0..pre as u64 {
                storage.append(&WalRecord::Settle {
                    payment: Payment::new(1u64, s, 2u64, 1u64),
                    credit_beneficiary: true,
                });
            }
            storage.sync();
            prop_assert!(storage.begin_install(Some((0, segment.clone())), residual.clone()));
            storage.drain_install().expect("install in flight").unwrap();
            for r in &post_records {
                storage.append(r);
            }
            storage.sync();
        }
        let wal_path = astro_store::wal_path(&dir, 1);
        let full = std::fs::read(&wal_path).unwrap();
        let header = astro_store::wal::WAL_HEADER_LEN as usize;
        let cut = header + (full.len() - header) * cut_fraction as usize / 1000;
        std::fs::write(&wal_path, &full[..cut]).unwrap();

        let (_storage, recovered) = Storage::open(&dir, StoreConfig::default()).unwrap();
        prop_assert_eq!(recovered.snapshot.as_deref(), Some(residual.as_slice()));
        prop_assert_eq!(recovered.checkpoints.len(), 1);
        prop_assert_eq!(recovered.checkpoints[0].as_slice(), segment.as_slice());
        prop_assert!(recovered.records.len() <= post_records.len());
        prop_assert_eq!(
            recovered.records.as_slice(),
            &post_records[..recovered.records.len()],
            "replay must be an exact post-install record prefix"
        );
    }
}
