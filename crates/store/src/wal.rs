//! The append-only write-ahead log: CRC-framed, length-prefixed records
//! with group commit.
//!
//! # File format
//!
//! ```text
//! ┌──────────────┬─────────────┬──────────────────────────────────┐
//! │ magic (8 B)  │ version (4) │ records …                        │
//! │ "ASTROWAL"   │ 1 (LE)      │                                  │
//! └──────────────┴─────────────┴──────────────────────────────────┘
//! record := len (u32 LE) ‖ crc32(payload) (u32 LE) ‖ payload
//! ```
//!
//! Recovery reads the **longest valid prefix**: the scan stops at the
//! first incomplete header, oversized length, truncated payload, or CRC
//! mismatch — a torn tail from a crash mid-write, or a bit flip anywhere
//! in a frame, cuts the log there and never panics. (A flipped *length*
//! makes the scanner read the wrong byte span, whose CRC then fails with
//! probability `1 − 2⁻³²` — the same cut.) The writer truncates the file
//! to the valid prefix before appending.
//!
//! # Group commit
//!
//! Appends frame records into a user-space buffer, and
//! [`WalWriter::flush_writes`] hands the buffered run to the OS in one
//! `write(2)`. Callers flush at their step boundary, so an in-process
//! crash loses nothing a completed step appended; the buffer is also
//! flushed inline once it passes 256 KiB. An append only frames: it
//! reads no clock and never fsyncs.
//!
//! The expensive `fsync(2)` is amortized by the [`GroupCommit`] policy
//! (once per [`GroupCommit::sync_every_records`] records or once per
//! [`GroupCommit::sync_interval`], whichever comes first) and runs off
//! the appending thread: at each step boundary the [`crate::Storage`]
//! asks whether a commit is due and, if so, hands the store's worker
//! thread a duplicate of the log's fd to `fdatasync` through. At most
//! one such commit is in flight, and its failure degrades the writer at
//! the next step boundary. The power-loss window is therefore the policy
//! plus one fsync; [`WalWriter::sync`] alone fsyncs inline, and always
//! covers everything written before it. The recovery scan handles
//! whatever a lost tail leaves behind.

// Recovery reads these files back: no byte on disk may reach a panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::StoreObs;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Leading magic of every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"ASTROWAL";

/// Current format version.
pub const WAL_VERSION: u32 = 1;

/// Header length: magic plus version.
pub const WAL_HEADER_LEN: u64 = 12;

/// Upper bound on one record's payload; a larger advertised length is
/// treated as corruption (the scan cuts there).
pub const MAX_RECORD_LEN: usize = 16 << 20;

/// Slice-by-8 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic byte table, and `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`: every frame of the WAL,
/// of a checkpoint segment and of a snapshot is checked with it, on
/// append and on recovery.
///
/// Slice-by-8: eight bytes per step through eight 256-entry tables (8 KiB,
/// built at compile time), then the tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc: u32 = !0;
    for word in words {
        let x = u64::from_le_bytes(*word) ^ u64::from(crc);
        crc = t[7][x as u8 as usize]
            ^ t[6][(x >> 8) as u8 as usize]
            ^ t[5][(x >> 16) as u8 as usize]
            ^ t[4][(x >> 24) as u8 as usize]
            ^ t[3][(x >> 32) as u8 as usize]
            ^ t[2][(x >> 40) as u8 as usize]
            ^ t[1][(x >> 48) as u8 as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// The amortized-fsync policy. [`crate::Storage`] applies it at each
/// step boundary; a bare [`WalWriter`] fsyncs only when told to
/// ([`WalWriter::sync`]).
#[derive(Debug, Clone)]
pub struct GroupCommit {
    /// Commit once this many records were appended since the last
    /// commit started.
    pub sync_every_records: usize,
    /// Commit once this much time has passed since the last commit
    /// started and a record arrived.
    pub sync_interval: Duration,
}

impl Default for GroupCommit {
    fn default() -> Self {
        GroupCommit { sync_every_records: 1024, sync_interval: Duration::from_millis(25) }
    }
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct RecoveredWal {
    /// Record payloads of the longest valid prefix, in log order.
    pub payloads: Vec<Vec<u8>>,
    /// Byte length of the valid prefix: the header plus every valid
    /// frame, or 0 for a missing, empty or headerless file (a writer
    /// opened there writes a fresh header).
    pub valid_len: u64,
}

/// Scans `path` and returns the longest valid record prefix.
///
/// A missing file, a truncated or alien header, and any torn/corrupt tail
/// all degrade gracefully to a shorter (possibly empty) prefix.
///
/// # Errors
///
/// Only genuine IO errors (permissions, device failure) surface; corrupt
/// content never does.
pub fn read_wal(path: &Path) -> std::io::Result<RecoveredWal> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    // No (or a foreign) header: the whole file is invalid prefix.
    let Some(body) = bytes.get(WAL_HEADER_LEN as usize..).filter(|_| has_header(&bytes)) else {
        return Ok(RecoveredWal { payloads: Vec::new(), valid_len: 0 });
    };
    let (payloads, len) = read_frames(body);
    Ok(RecoveredWal { payloads, valid_len: WAL_HEADER_LEN + len as u64 })
}

fn has_header(bytes: &[u8]) -> bool {
    bytes.starts_with(&WAL_MAGIC) && le_u32(bytes, 8) == Some(WAL_VERSION)
}

/// The little-endian `u32` at `bytes[at..at + 4]`, if the bytes are there.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(*bytes.get(at..)?.first_chunk()?))
}

/// Length of a frame header: `len (u32 LE) ‖ crc32(payload) (u32 LE)`.
pub(crate) const FRAME_HEADER_LEN: usize = 8;

/// Appends one `len ‖ crc32(payload) ‖ payload` frame to `buf`, the
/// payload written in place by `encode`: the header is reserved first
/// and filled in afterwards, so the payload is never staged in a buffer
/// of its own. Returns `false`, with `buf` as it was, for a payload over
/// [`MAX_RECORD_LEN`] (recovery would cut there).
pub(crate) fn put_frame(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> bool {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode(buf);
    let (header, payload) = buf[start..].split_at_mut(FRAME_HEADER_LEN);
    if payload.len() > MAX_RECORD_LEN {
        buf.truncate(start);
        return false;
    }
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    true
}

/// Reads frames from the start of `bytes` up to the first incomplete,
/// oversized or CRC-failing one: the payloads, and the byte length of
/// the valid run. The WAL and the checkpoint segments are read through
/// here.
pub(crate) fn read_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut payloads = Vec::new();
    let mut at = 0;
    while let Some(payload) = frame_at(bytes, at) {
        at += FRAME_HEADER_LEN + payload.len();
        payloads.push(payload.to_vec());
    }
    (payloads, at)
}

/// The payload of the valid frame at `bytes[at..]`, if there is one.
fn frame_at(bytes: &[u8], at: usize) -> Option<&[u8]> {
    let len = le_u32(bytes, at)? as usize;
    let crc = le_u32(bytes, at + 4)?;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload = bytes.get(at + FRAME_HEADER_LEN..)?.get(..len)?;
    (crc32(payload) == crc).then_some(payload)
}

/// When the user-space frame buffer grows past this, it is flushed to
/// the OS inline — bounds the step-local buffering window.
const FLUSH_THRESHOLD: usize = 256 << 10;

/// The append half of a WAL.
///
/// Appends frame into a user-space buffer; [`WalWriter::flush_writes`]
/// hands the buffered run to the OS with one `write(2)` — callers flush
/// at their step boundary, so a burst of records costs one syscall, not
/// one per record, and an in-process crash (which can only interleave
/// *between* steps) still finds every completed step's records in the
/// OS. `fsync(2)` happens only in [`WalWriter::sync`], or off this
/// thread in a group commit that the [`GroupCommit`] policy calls for.
///
/// IO failures after open do not propagate into the append path (a
/// replica must not crash because its disk hiccuped); instead the writer
/// goes *degraded* — the error is retained, later appends are dropped,
/// and [`WalWriter::health`] reports it for the operator.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    len: u64,
    buffer: Vec<u8>,
    /// Records appended since the last commit (inline or handed off)
    /// started: the policy's count and the commit's batch size.
    records_since_commit: usize,
    last_commit: Instant,
    /// True once bytes reached the OS that no [`WalWriter::sync`] has
    /// fsynced since. A handed-off commit leaves it set: `sync` cannot
    /// know whether that commit has finished.
    unsynced: bool,
    policy: GroupCommit,
    degraded: Option<std::io::Error>,
    obs: Option<StoreObs>,
    /// Runs in [`Commit::run`] before its fsync: holds it, or fails it.
    #[cfg(test)]
    pub(crate) commit_hook: Option<CommitHook>,
}

/// A test's stand-in for the first half of a handed-off fsync.
#[cfg(test)]
#[derive(Clone)]
pub(crate) struct CommitHook(
    pub(crate) std::sync::Arc<dyn Fn() -> std::io::Result<()> + Send + Sync>,
);

#[cfg(test)]
impl std::fmt::Debug for CommitHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CommitHook")
    }
}

/// A group commit handed off the appending thread
/// ([`WalWriter::start_commit`]): a duplicate of the log's fd and the
/// batch it covers. Its outcome goes back through
/// [`WalWriter::finish_commit`].
pub(crate) struct Commit {
    file: File,
    records: usize,
    obs: Option<StoreObs>,
    #[cfg(test)]
    hook: Option<CommitHook>,
}

impl Commit {
    /// Runs the `fdatasync(2)`, recording its latency and batch size.
    pub(crate) fn run(self) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(hook) = &self.hook {
            (hook.0)()?;
        }
        fdatasync(&self.file, self.records, self.obs.as_ref())
    }
}

fn fdatasync(file: &File, records: usize, obs: Option<&StoreObs>) -> std::io::Result<()> {
    let started = obs.map(|_| Instant::now());
    file.sync_data()?;
    if let (Some(obs), Some(started)) = (obs, started) {
        obs.fsync_nanos.record(started.elapsed().as_nanos() as u64);
        obs.commit_batch_records.record(records as u64);
    }
    Ok(())
}

impl WalWriter {
    /// Opens `path` for appending after `valid_len` bytes (from
    /// [`read_wal`]): the invalid tail is truncated off, a fresh header
    /// is written if the file was empty or headerless, and the result is
    /// synced before the writer accepts records.
    ///
    /// # Errors
    ///
    /// Propagates IO errors; this is the one moment durability problems
    /// should abort startup rather than degrade.
    pub fn open_at(path: &Path, valid_len: u64, policy: GroupCommit) -> std::io::Result<WalWriter> {
        Self::open_inner(path, valid_len, policy, true)
    }

    /// [`open_at`](Self::open_at) for a fresh WAL generation that a
    /// snapshot install will swap to: the header is written but **not**
    /// fsynced, keeping the creation cheap. The first fsync of its records
    /// makes the header durable with them; a generation whose header a
    /// power loss dropped held no durable record, and recovery cuts it.
    pub fn open_rotated(path: &Path, policy: GroupCommit) -> std::io::Result<WalWriter> {
        Self::open_inner(path, 0, policy, false)
    }

    fn open_inner(
        path: &Path,
        valid_len: u64,
        policy: GroupCommit,
        sync_header: bool,
    ) -> std::io::Result<WalWriter> {
        // truncate(false): the valid prefix must survive; set_len below
        // trims exactly the invalid tail.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let valid_len = valid_len.max(WAL_HEADER_LEN);
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        let have_header = file.read_exact(&mut header).is_ok() && has_header(&header);
        if !have_header {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
        } else {
            file.seek(SeekFrom::Start(valid_len))?;
        }
        if sync_header {
            file.sync_all()?;
        }
        let len = if have_header { valid_len } else { WAL_HEADER_LEN };
        Ok(WalWriter {
            file,
            len,
            buffer: Vec::new(),
            records_since_commit: 0,
            last_commit: Instant::now(),
            unsynced: false,
            policy,
            degraded: None,
            obs: None,
            #[cfg(test)]
            commit_hook: None,
        })
    }

    /// Attaches metric handles; every subsequent flush and fsync reports
    /// its latency and batch size through them.
    pub fn attach_obs(&mut self, obs: StoreObs) {
        self.obs = Some(obs);
    }

    /// Appends one record to the frame buffer. See
    /// [`WalWriter::append_with`].
    pub fn append(&mut self, payload: &[u8]) {
        self.append_with(|buf| buf.extend_from_slice(payload));
    }

    /// Appends one record whose payload `encode` writes straight into the
    /// frame buffer, behind a header filled in afterwards: the record is
    /// never staged in a buffer of its own. The buffer is flushed inline
    /// once it passes 256 KiB; nothing here fsyncs.
    ///
    /// A payload over [`MAX_RECORD_LEN`] is not written (recovery would
    /// cut the log there and lose every later record): the frames before
    /// it are flushed and the writer goes degraded.
    pub fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.degraded.is_some() {
            return;
        }
        if !put_frame(&mut self.buffer, encode) {
            self.flush_writes();
            self.degraded.get_or_insert_with(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "oversized WAL record")
            });
            return;
        }
        self.records_since_commit += 1;
        if self.buffer.len() >= FLUSH_THRESHOLD {
            self.flush_writes();
        }
    }

    /// Hands the buffered frames to the OS (one `write(2)`). Call at the
    /// step boundary; after this an in-process crash loses nothing.
    pub fn flush_writes(&mut self) {
        if self.degraded.is_some() || self.buffer.is_empty() {
            return;
        }
        if let Some(obs) = &self.obs {
            obs.flush_batch_bytes.record(self.buffer.len() as u64);
        }
        match self.file.write_all(&self.buffer) {
            Ok(()) => {
                self.len += self.buffer.len() as u64;
                self.unsynced = true;
                self.buffer.clear();
                self.buffer.shrink_to(FLUSH_THRESHOLD);
                if let Some(obs) = &self.obs {
                    obs.wal_bytes.set(self.len);
                }
            }
            Err(e) => self.degraded = Some(e),
        }
    }

    /// Commits inline: everything appended so far is written out and
    /// fsynced before this returns — even while a handed-off commit is
    /// still in flight.
    pub fn sync(&mut self) {
        self.flush_writes();
        if self.degraded.is_some() || !self.unsynced {
            return;
        }
        let records = std::mem::take(&mut self.records_since_commit);
        match fdatasync(&self.file, records, self.obs.as_ref()) {
            Ok(()) => {
                self.unsynced = false;
                self.last_commit = Instant::now();
            }
            Err(e) => self.degraded = Some(e),
        }
    }

    /// True when the [`GroupCommit`] policy calls for a commit of the
    /// records flushed so far. Asked once per step boundary, after
    /// [`WalWriter::flush_writes`].
    pub(crate) fn commit_due(&self) -> bool {
        self.degraded.is_none()
            && self.records_since_commit > 0
            && (self.records_since_commit >= self.policy.sync_every_records
                || self.last_commit.elapsed() >= self.policy.sync_interval)
    }

    /// Starts a group commit of everything flushed so far, to be run off
    /// this thread; the policy counts afresh from here.
    ///
    /// # Errors
    ///
    /// The fd could not be duplicated; nothing was started.
    pub(crate) fn start_commit(&mut self) -> std::io::Result<Commit> {
        let file = self.file.try_clone()?;
        self.last_commit = Instant::now();
        Ok(Commit {
            file,
            records: std::mem::take(&mut self.records_since_commit),
            obs: self.obs.clone(),
            #[cfg(test)]
            hook: self.commit_hook.clone(),
        })
    }

    /// Folds in a handed-off commit's outcome: a failed fsync degrades
    /// the writer exactly as an inline one does.
    pub(crate) fn finish_commit(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.degraded.get_or_insert(e);
        }
    }

    /// Current log length in bytes (header included, buffered frames
    /// counted).
    pub fn len(&self) -> u64 {
        self.len + self.buffer.len() as u64
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() <= WAL_HEADER_LEN
    }

    /// Consumes the writer, returning its file handle. Used by the
    /// install: the superseded generation's fsync and `close(2)` both
    /// happen on the worker thread, through this fd.
    pub fn into_file(self) -> File {
        self.file
    }

    /// `Err` with the first IO error if the writer went degraded.
    pub fn health(&self) -> Result<(), &std::io::Error> {
        match &self.degraded {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("astro-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.bin")
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_recover_round_trips() {
        let path = tmp("round-trip");
        let mut w = WalWriter::open_at(&path, 0, GroupCommit::default()).unwrap();
        for i in 0..10u8 {
            w.append(&[i; 5]);
        }
        w.sync();
        drop(w);
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.payloads.len(), 10);
        assert_eq!(rec.payloads[3], vec![3u8; 5]);
        // Reopen at the recovered length and keep appending.
        let mut w = WalWriter::open_at(&path, rec.valid_len, GroupCommit::default()).unwrap();
        w.append(b"more");
        w.sync();
        drop(w);
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.payloads.len(), 11);
        assert_eq!(rec.payloads[10], b"more");
    }

    #[test]
    fn torn_tail_is_cut() {
        let path = tmp("torn");
        let mut w = WalWriter::open_at(&path, 0, GroupCommit::default()).unwrap();
        w.append(b"alpha");
        w.append(b"beta");
        w.sync();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Chop mid-record: every truncation point recovers a prefix.
        for cut in (WAL_HEADER_LEN as usize)..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let rec = read_wal(&path).unwrap();
            assert!(rec.payloads.len() <= 2);
            assert!(rec.valid_len <= cut as u64);
            for (i, p) in rec.payloads.iter().enumerate() {
                assert_eq!(p, [b"alpha".as_slice(), b"beta"][i]);
            }
        }
    }

    #[test]
    fn bit_flip_cuts_at_the_flip() {
        let path = tmp("flip");
        let mut w = WalWriter::open_at(&path, 0, GroupCommit::default()).unwrap();
        for i in 0..4u8 {
            w.append(&[i; 8]);
        }
        w.sync();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Flip one bit in the third record's payload.
        let third_payload_start = WAL_HEADER_LEN as usize + 2 * (8 + 8) + 8;
        let mut damaged = full.clone();
        damaged[third_payload_start] ^= 0x40;
        std::fs::write(&path, &damaged).unwrap();
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.payloads.len(), 2, "records before the flip survive");
        // The writer truncates the invalid tail on reopen.
        let w = WalWriter::open_at(&path, rec.valid_len, GroupCommit::default()).unwrap();
        assert_eq!(w.len(), rec.valid_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), rec.valid_len);
    }

    #[test]
    fn alien_or_missing_header_recovers_empty() {
        let path = tmp("alien");
        assert_eq!(read_wal(&path).unwrap().payloads.len(), 0, "missing file");
        std::fs::write(&path, b"not a wal at all").unwrap();
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.payloads.len(), 0);
        // Reopen rewrites a fresh header.
        let mut w = WalWriter::open_at(&path, rec.valid_len, GroupCommit::default()).unwrap();
        w.append(b"fresh");
        w.sync();
        drop(w);
        assert_eq!(read_wal(&path).unwrap().payloads, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn oversized_record_degrades_instead_of_cutting_the_log() {
        let path = tmp("oversized");
        let mut w = WalWriter::open_at(&path, 0, GroupCommit::default()).unwrap();
        w.append(b"before");
        w.append_with(|buf| buf.resize(buf.len() + MAX_RECORD_LEN + 1, 0));
        assert_eq!(w.health().unwrap_err().kind(), std::io::ErrorKind::InvalidInput);
        w.append(b"after");
        w.sync();
        drop(w);
        // The frames before the refused record reached the file; nothing
        // recovery would reject did.
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.payloads, vec![b"before".to_vec()]);
        assert_eq!(rec.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn group_commit_counts_records() {
        let path = tmp("group");
        let policy = GroupCommit { sync_every_records: 4, sync_interval: Duration::from_secs(60) };
        let mut w = WalWriter::open_at(&path, 0, policy).unwrap();
        for _ in 0..3 {
            w.append(b"x");
        }
        w.flush_writes();
        assert!(!w.commit_due(), "below threshold: no commit due yet");
        w.append(b"x");
        assert_eq!(w.records_since_commit, 4, "appending never commits by itself");
        w.flush_writes();
        assert!(w.commit_due(), "threshold crossed: a commit is due");
        let commit = w.start_commit().unwrap();
        assert_eq!((commit.records, w.records_since_commit), (4, 0), "the commit takes the batch");
        assert!(!w.commit_due());
        w.finish_commit(commit.run());
        assert!(w.health().is_ok());
    }
}
