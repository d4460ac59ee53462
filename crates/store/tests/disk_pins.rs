//! Pinned digests of the bytes the store writes to disk: a WAL holding
//! every `WalRecord` variant, one sealed checkpoint segment and one
//! installed residual snapshot. The digests were computed before the CRC
//! and the WAL framing were rewritten for speed; a change that moves a
//! byte on disk fails here by name.
//!
//! Also checks `crc32` against a bitwise shift-and-xor reference.

use astro_core::journal::{Astro1Local, Residual, WalRecord};
use astro_core::ledger::Ledger;
use astro_store::checkpoint::segment_path;
use astro_store::snapshot::SNAP_FILE;
use astro_store::wal::crc32;
use astro_store::{wal_path, Storage, StoreConfig};
use astro_types::wire::Wire;
use astro_types::{Amount, ClientId, Payment, ReplicaId};
use proptest::prelude::*;
use std::path::PathBuf;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astro-store-pins-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn file_digest(path: &std::path::Path) -> String {
    hex(astro_crypto::sha256::sha256(&std::fs::read(path).unwrap()))
}

/// A xorshift64 stream: the pinned inputs depend on nothing else.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A count in `lo..lo + span`.
    fn count(&mut self, lo: u64, span: u64) -> usize {
        (lo + self.next() % span) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn digest(&mut self) -> [u8; 32] {
        std::array::from_fn(|_| self.next() as u8)
    }

    fn payment(&mut self) -> Payment {
        let x = self.next();
        Payment::new(x % 97, (x >> 8) % 1000, (x >> 16) % 97, (x >> 24) % 5000)
    }
}

/// 60 records, six of each variant, with payload lengths that vary from
/// 9 bytes to a few hundred.
fn seeded_records() -> Vec<WalRecord> {
    let mut x = Seeded(0x2545_f491_4f6c_dd1d);
    let mut records = Vec::new();
    for i in 0..60u64 {
        let record = match i % 10 {
            0 => WalRecord::Delivered { source: x.next() % 4, tag: x.next() % 100_000 },
            1 => WalRecord::Settle { payment: x.payment(), credit_beneficiary: x.next() & 1 == 0 },
            2 => WalRecord::DepUsed { dep: x.payment() },
            3 => {
                let mut deps = Vec::new();
                for _ in 0..x.count(0, 3) {
                    let len = x.count(40, 90);
                    deps.push(x.bytes(len));
                }
                WalRecord::Queued { payment: x.payment(), deps }
            }
            4 => WalRecord::Stuck { client: ClientId(x.next() % 1024) },
            5 => WalRecord::OwnTag { tag: x.next() % 100_000 },
            6 => {
                let len = x.count(100, 300);
                WalRecord::Cert { bytes: x.bytes(len) }
            }
            7 => {
                let digests = (0..x.count(1, 4)).map(|_| x.digest()).collect();
                WalRecord::CertsTaken { client: ClientId(x.next() % 1024), digests }
            }
            8 => {
                let bundle = (0..x.count(1, 6)).map(|_| x.payment()).collect();
                WalRecord::CreditOut { dest: ReplicaId((x.next() % 4) as u32), bundle }
            }
            _ => WalRecord::CreditAcked { digest: x.digest() },
        };
        records.push(record);
    }
    records
}

#[test]
fn wal_bytes_of_every_record_variant_are_pinned() {
    let dir = fresh_dir("wal");
    let records = seeded_records();
    {
        let (mut storage, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        for record in &records {
            storage.append(record);
        }
        storage.sync();
        assert!(storage.healthy());
    }
    let (storage, recovered) = Storage::open(&dir, StoreConfig::default()).unwrap();
    drop(storage);
    assert_eq!(recovered.records, records);
    assert_eq!(
        file_digest(&wal_path(&dir, 0)),
        "384ed3e1d1d4196b22d5b15000324408117f461b835ed7fb696b11961e9252c7",
        "WAL file bytes moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sealed_segment_and_residual_snapshot_bytes_are_pinned() {
    let dir = fresh_dir("install");
    let mut x = Seeded(0x9e37_79b9_7f4a_7c15);
    let mut ledger = Ledger::new(Amount(10_000));
    let mut seqs = [0u64; 12];
    for _ in 0..400 {
        let r = x.next();
        let s = (r % 12) as usize;
        let b = (r >> 8) % 12;
        ledger.settle(&Payment::new(s as u64, seqs[s], b, (r >> 16) % 50), true);
        seqs[s] += 1;
    }
    let segment: Vec<Vec<u8>> = ledger.seal_delta().iter().map(Wire::to_wire_bytes).collect();
    let pending = (0..5).map(|i| Payment::new(i as u64, seqs[i] + 1, 3u64, 7u64)).collect();
    let residual = Residual {
        sealed_segments: 1,
        local: Astro1Local { pending },
        next_tag: 4242,
        cursors: vec![(0, 1066), (1, 1065), (2, 1070), (3, 1059)],
    }
    .to_wire_bytes();
    {
        let (mut storage, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert!(storage.begin_install(Some((0, segment.clone())), residual.clone()));
        storage.drain_install().expect("install in flight").unwrap();
    }
    let (storage, recovered) = Storage::open(&dir, StoreConfig::default()).unwrap();
    drop(storage);
    assert_eq!(recovered.checkpoints, vec![segment]);
    assert_eq!(recovered.snapshot, Some(residual));
    assert_eq!(
        file_digest(&segment_path(&dir, 0)),
        "10cbb23f8d6d04c5317cb200ae0a13f7c01c157aed0456f189158d6717827af1",
        "sealed segment bytes moved"
    );
    assert_eq!(
        file_digest(&dir.join(SNAP_FILE)),
        "d03b339e91c75c3ffc3f44d783c8b4371df9938569709615e081bc52ddeaccbe",
        "residual snapshot file bytes moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// CRC-32 (IEEE 802.3, reflected) one bit at a time.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any length up to 4 KiB, starting at any alignment.
    #[test]
    fn crc32_matches_the_bitwise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..4097 + 7),
        start in 0usize..8,
        len in 0usize..4097,
    ) {
        let from = start.min(bytes.len());
        let slice = &bytes[from..from + len.min(bytes.len() - from)];
        prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
    }
}
