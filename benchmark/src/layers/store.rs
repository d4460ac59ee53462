//! `store`: WAL append, fsync and replay on the disk the benchmark runs
//! on. The filesystem type is printed in the environment block — an
//! fsync on tmpfs and one on ext4 are different numbers.

use super::Metrics;
use crate::stats::median;
use crate::stream::Stream;
use crate::trace::Spans;
use astro_core::journal::WalRecord;
use astro_store::wal::{read_wal, GroupCommit, WalWriter};
use astro_types::wire::Wire;
use astro_types::Payment;
use std::path::Path;
use std::time::Duration;

const APPENDS: u64 = 400_000;
const FSYNCS: usize = 24;
/// Records appended before each timed fsync: a quarter of the default
/// group commit.
const RECORDS_PER_FSYNC: usize = 256;

pub fn run(scratch: &Path, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let dir = scratch.join(format!("wal-layers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let out = measure(&dir.join("wal.bin"), spans, m);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn measure(path: &Path, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let mut stream = Stream::new(1);
    let p = stream.next(None);
    let record = WalRecord::Settle {
        payment: Payment::new(p.spender, p.seq, p.beneficiary, 1u64),
        credit_beneficiary: true,
    }
    .to_wire_bytes();
    // A policy that never syncs on its own: appends and fsyncs are timed
    // apart.
    let never = GroupCommit { sync_every_records: usize::MAX, sync_interval: Duration::MAX };
    let mut wal = WalWriter::open_at(path, 0, never).map_err(|e| e.to_string())?;

    let (_, ns) = spans.time("wal.append", |_| {
        for _ in 0..APPENDS {
            wal.append(&record);
        }
        wal.flush_writes();
    });
    m.insert("wal.append_ns_per_record", ns as f64 / APPENDS as f64);

    let mut fsync_ms = Vec::with_capacity(FSYNCS);
    for _ in 0..FSYNCS {
        for _ in 0..RECORDS_PER_FSYNC {
            wal.append(&record);
        }
        wal.flush_writes();
        let (_, ns) = spans.time("wal.fsync", |_| wal.sync());
        fsync_ms.push(ns as f64 / 1e6);
    }
    wal.health().map_err(|e| format!("WAL degraded: {e}"))?;
    m.insert("wal.fsync_ms", median(&fsync_ms));
    drop(wal);

    let (recovered, ns) = spans.time("wal.replay", |_| read_wal(path));
    let recovered = recovered.map_err(|e| e.to_string())?;
    let expected = APPENDS as usize + FSYNCS * RECORDS_PER_FSYNC;
    if recovered.payloads.len() != expected {
        return Err(format!("replayed {} of {expected} records", recovered.payloads.len()));
    }
    m.insert("wal.replay_records_per_s", expected as f64 / (ns as f64 / 1e9));
    Ok(())
}
