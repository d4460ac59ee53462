//! Durable replica state for Astro — WAL, snapshots, crash recovery.
//!
//! The paper's replicas are in-memory state machines; this crate is what
//! lets one die and come back. Astro's design makes that unusually clean:
//! replica state is *exclusive logs plus derived balances* (paper §II),
//! every state transition is driven by a short list of effects
//! ([`astro_core::journal::WalRecord`]), and replicas never need to
//! coordinate to recover — payments are not consensus ("Payment Does Not
//! Imply Consensus", arXiv:2105.11821), so a replica restores from its
//! own disk and simply rejoins the broadcast flow.
//!
//! Three layers:
//!
//! - [`wal`]: a CRC-framed, length-prefixed append-only log with **group
//!   commit** (one `write(2)` per replica step, fsync per
//!   interval/record-count).
//!   Recovery takes the longest valid prefix; torn tails and bit flips
//!   cut the log, never panic.
//! - [`snapshot`]: integrity-checked state blobs installed by atomic
//!   rename; the WAL is truncated after an install.
//! - [`Storage`]: the replica-facing facade — [`Storage::open`] recovers
//!   `snapshot + WAL`, [`Storage::append`] journals one record,
//!   [`Storage::install_snapshot`] compacts. A [`Storage::memory`]
//!   backend with the same interface keeps non-durable deployments and
//!   tests free of disk IO.
//!
//! [`SharedStorage`] is the [`astro_core::journal::Journal`]
//! implementation the runtime plugs into a replica.
//!
//! # Example
//!
//! ```
//! use astro_core::journal::WalRecord;
//! use astro_store::{Storage, StoreConfig};
//! use astro_types::Payment;
//!
//! # fn main() -> std::io::Result<()> {
//! let dir = std::env::temp_dir().join(format!("astro-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let (mut storage, recovered) = Storage::open(&dir, StoreConfig::default())?;
//! assert!(recovered.records.is_empty());
//! storage.append(&WalRecord::Settle {
//!     payment: Payment::new(1u64, 0u64, 2u64, 30u64),
//!     credit_beneficiary: true,
//! });
//! storage.sync();
//!
//! // A second open (the "restart") recovers the record.
//! drop(storage);
//! let (_storage, recovered) = Storage::open(&dir, StoreConfig::default())?;
//! assert_eq!(recovered.records.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod snapshot;
pub mod wal;

use astro_core::journal::{Journal, WalRecord};
use astro_obs::{Counter, FlightRecorder, Gauge, Histogram, Registry};
use astro_types::wire::{decode_exact, Wire};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use wal::{GroupCommit, RecoveredWal, WalWriter, WAL_HEADER_LEN};

/// Metric handles the store records into when a cluster runs with an
/// [`astro_obs::Registry`] attached; resolved once per replica and pushed
/// down into the WAL writer. Without a registry nothing is constructed
/// and the store pays nothing.
#[derive(Debug, Clone)]
pub struct StoreObs {
    /// Latency of one [`Storage::append`] as the replica thread paid it
    /// (includes any group-commit fsync the policy forced inline).
    pub append_nanos: Histogram,
    /// Latency of the `fsync(2)` itself.
    pub fsync_nanos: Histogram,
    /// Bytes handed to the OS per `write(2)` (the step-boundary batch).
    pub flush_batch_bytes: Histogram,
    /// Records amortized into one group commit.
    pub commit_batch_records: Histogram,
    /// Wall time of one snapshot install (serialize excluded; write +
    /// fsync + rename + WAL truncate included).
    pub snapshot_nanos: Histogram,
    /// State bytes per installed snapshot (v2: checkpoint-segment bytes
    /// plus the residual — the incremental cost, not the full state).
    pub snapshot_bytes: Histogram,
    /// Current WAL file length.
    pub wal_bytes: Gauge,
    /// Snapshot installs that failed (compaction skipped, WAL retained).
    pub install_failures: Counter,
    /// `health.r{replica}.store`: 1 while [`Storage::healthy`], 0 once an
    /// install failure or gray device failure degraded the store —
    /// cleared again when a later install succeeds (the re-heal path).
    pub store_healthy: Gauge,
    /// Flight recorder: `store.snapshot.fail` / `store.snapshot.heal`
    /// events mark the health transitions.
    pub flight: FlightRecorder,
}

impl StoreObs {
    /// Resolves the `store.r{replica}.*` handles from `registry`.
    pub fn for_replica(registry: &Registry, replica: u32) -> StoreObs {
        let name = |suffix: &str| format!("store.r{replica}.{suffix}");
        let obs = StoreObs {
            append_nanos: registry.histogram(&name("append_nanos")),
            fsync_nanos: registry.histogram(&name("fsync_nanos")),
            flush_batch_bytes: registry.histogram(&name("flush_batch_bytes")),
            commit_batch_records: registry.histogram(&name("commit_batch_records")),
            snapshot_nanos: registry.histogram(&name("snapshot_nanos")),
            snapshot_bytes: registry.histogram(&name("snapshot_bytes")),
            wal_bytes: registry.gauge(&name("wal_bytes")),
            install_failures: registry.counter(&name("install_failures")),
            store_healthy: registry.gauge(&format!("health.r{replica}.store")),
            flight: registry.flight(replica),
        };
        obs.store_healthy.set(1);
        obs
    }
}

/// WAL file name within a replica's storage directory.
pub const WAL_FILE: &str = "wal.bin";

/// Rotated-out WAL awaiting deletion by an in-flight snapshot install.
/// Present on disk only inside the install window (or after an install
/// failure); recovery merges it back in front of [`WAL_FILE`].
pub const WAL_PREV_FILE: &str = "wal.prev.bin";

/// Pre-created fresh WAL the next rotation swaps to. The install worker
/// creates it ahead of time (header written, directory entry fsynced) so
/// [`Storage::begin_install`] pays no filesystem metadata operation on
/// the settle path — under a concurrent install's fsyncs, a `rename(2)`
/// or `creat(2)` can stall behind the filesystem journal for
/// milliseconds. The worker renames it over [`WAL_FILE`] during the
/// install; if a crash lands before that, recovery merges its records in
/// *behind* [`WAL_FILE`] (they are the newest generation).
pub const WAL_NEXT_FILE: &str = "wal.next.bin";

/// Durability tuning.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Group commit: force an fsync after this many records.
    pub sync_every_records: usize,
    /// Group commit: force an fsync when this much time has passed since
    /// the last one and a record arrives.
    pub sync_interval: Duration,
    /// Take a snapshot (and truncate the WAL) after this many settled
    /// payments. Consumed by the runtime's durable node driver.
    pub snapshot_every_settled: usize,
    /// Fsync the WAL on every own-broadcast tag reservation (`OwnTag`),
    /// *before* the PREPARE leaves. Off by default: it puts one fsync on
    /// every batch flush. With it off, a **power loss** (not a process
    /// crash) can lose the tail tag reservation and the restarted
    /// replica may reuse a stream tag — peers then ignore the reused
    /// instance and that replica's own stream wedges until state
    /// transfer; quorum intersection keeps settled payments safe either
    /// way.
    pub sync_on_broadcast: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // The fsync interval bounds the power-loss durability window; an
        // in-process crash never loses acknowledged work regardless (see
        // `wal`). 25 ms keeps the fsync stalls (~80 µs each) off the
        // settle critical path — at 5 ms they land mid-BRB-round often
        // enough to cost double-digit throughput percentages.
        StoreConfig {
            sync_every_records: 1024,
            sync_interval: Duration::from_millis(25),
            snapshot_every_settled: 8192,
            sync_on_broadcast: false,
        }
    }
}

/// What [`Storage::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The installed snapshot's state bytes, if a snapshot exists. Under
    /// the v2 engine this is the *residual* state; the settled history it
    /// builds on is in `checkpoints`.
    pub snapshot: Option<Vec<u8>>,
    /// The longest valid checkpoint-segment prefix: record payloads per
    /// sealed segment, in seal order. How many segments are actually
    /// *live* is recorded inside the snapshot by the layer that wrote it
    /// (an orphan segment sealed just before a crash is ignored there).
    pub checkpoints: Vec<Vec<Vec<u8>>>,
    /// The WAL's longest valid record prefix, decoded, in log order.
    pub records: Vec<WalRecord>,
}

/// What one asynchronous install reports back.
#[derive(Debug, Clone, Copy)]
struct InstallStats {
    bytes: u64,
    nanos: u64,
}

/// One queued install for the persistent worker thread.
struct InstallJob {
    dir: PathBuf,
    segment: Option<(u32, Vec<Vec<u8>>)>,
    residual: Vec<u8>,
    /// True on the fast path: the settle thread only swapped writers, so
    /// the worker owns the rotation renames. False on the slow path,
    /// where the caller already rotated inline.
    rotate: bool,
    /// The superseded writer on the fast path: the worker fsyncs through
    /// its fd and drops it — even the `close(2)` stays off the settle
    /// path.
    old_log: Option<WalWriter>,
    /// True when the caller consumed (or never had) the pre-created
    /// spare: the worker creates a fresh one and hands it back.
    need_spare: bool,
    policy: GroupCommit,
}

/// What one install job reports back.
struct InstallDone {
    result: std::io::Result<InstallStats>,
    /// False if a fast-path job failed *before* its renames completed:
    /// the live log now sits at [`WAL_NEXT_FILE`] with the superseded
    /// one still at [`WAL_FILE`], and any further rotation on top would
    /// scramble replay order — the store wedges rotation instead.
    rotated: bool,
    /// A fresh pre-created spare WAL, when the job asked for one.
    spare: Option<WalWriter>,
}

/// A long-lived install worker: spawning a thread per install costs
/// ~100 µs on the settle path, so the first install spawns one worker
/// that serves every subsequent snapshot cycle. Dropping it (with
/// [`Storage`]) closes the job channel and joins the thread.
struct InstallWorker {
    jobs: std::sync::mpsc::Sender<InstallJob>,
    results: std::sync::mpsc::Receiver<InstallDone>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for InstallWorker {
    /// Waits out the install in flight, if any. A dropped `Storage` is
    /// how a crash is simulated, and the next thing that happens to the
    /// directory is a reopen: its recovery merges and reads the very files
    /// a still-running worker would be renaming under it.
    fn drop(&mut self) {
        let (closed, _) = std::sync::mpsc::channel();
        drop(std::mem::replace(&mut self.jobs, closed));
        if let Some(thread) = self.thread.take() {
            // A panicked worker already surfaced as a failed install.
            let _ = thread.join();
        }
    }
}

impl InstallWorker {
    fn spawn() -> InstallWorker {
        let (jobs, job_rx) = std::sync::mpsc::channel::<InstallJob>();
        let (result_tx, results) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("astro-store-install".into())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let InstallJob { dir, segment, residual, rotate, need_spare, policy, old_log } =
                        job;
                    let started = Instant::now();
                    let mut rotated = !rotate;
                    let result = run_install(
                        &dir,
                        segment.as_ref(),
                        &residual,
                        rotate,
                        old_log,
                        &mut rotated,
                    )
                    .map(|bytes| InstallStats {
                        bytes,
                        nanos: started.elapsed().as_nanos() as u64,
                    });
                    let spare =
                        if need_spare && rotated { make_spare(&dir, policy).ok() } else { None };
                    if result_tx.send(InstallDone { result, rotated, spare }).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn install worker");
        InstallWorker { jobs, results, thread: Some(thread) }
    }
}

// One Backend lives per Storage (never in a collection), so the size
// spread between the disk and in-memory variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Disk {
        dir: PathBuf,
        wal: WalWriter,
        /// Spawned eagerly at open (thread spawn is too slow to pay on
        /// the settle path); `None` only after a worker channel death.
        worker: Option<InstallWorker>,
        /// True while a job is queued or running on the worker.
        pending: bool,
        /// Pre-created fresh WAL at [`WAL_NEXT_FILE`]; the fast-path
        /// rotation swaps to it without touching the filesystem.
        spare: Option<WalWriter>,
        /// Set when a fast-path install failed before its renames: the
        /// on-disk generations are out of their canonical places, so no
        /// further rotation may run (appends continue, recovery is
        /// order-correct via the next-WAL merge, compaction has stopped).
        rotation_wedged: bool,
    },
    Memory {
        records: Vec<WalRecord>,
        snapshot: Option<Vec<u8>>,
        checkpoints: Vec<Vec<Vec<u8>>>,
    },
}

/// One replica's durable (or in-memory) state store.
pub struct Storage {
    backend: Backend,
    cfg: StoreConfig,
    /// Set when a snapshot install failed; compaction has stopped (the
    /// WAL keeps growing) even though the WAL writer itself is fine.
    install_failed: bool,
    /// Externally injected gray failure: the device is sick (stalling,
    /// remapping sectors) without any append having errored yet. Set by
    /// fault injection and operator tooling; [`Storage::healthy`] reports
    /// it so drivers stop trusting the store before it starts eating
    /// records.
    degraded: bool,
    obs: Option<StoreObs>,
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backend {
            Backend::Disk { dir, wal, .. } => {
                f.debug_struct("Storage").field("dir", dir).field("wal_len", &wal.len()).finish()
            }
            Backend::Memory { records, .. } => {
                f.debug_struct("Storage").field("memory_records", &records.len()).finish()
            }
        }
    }
}

impl Storage {
    /// Opens (creating if necessary) the store under `dir` and recovers
    /// its contents: the installed snapshot plus the longest valid WAL
    /// prefix. The WAL's invalid tail, if any, is truncated; a record
    /// that fails to *decode* (CRC-valid but semantically foreign —
    /// version skew or software fault) cuts the log at that point too.
    ///
    /// # Errors
    ///
    /// Genuine IO errors, and `InvalidData` for a present-but-damaged
    /// snapshot (recovering *past* it would silently lose state).
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: StoreConfig,
    ) -> std::io::Result<(Storage, Recovered)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // A crash inside the install window (or an install failure) left
        // the rotated-out WAL behind: merge it back in front of the
        // current one so replay order is preserved.
        merge_prev_wal(&dir)?;
        // A crash after a fast-path rotation swapped writers but before
        // the worker's renames left the newest records in the pre-created
        // spare: merge them in behind the current log.
        merge_next_wal(&dir)?;
        let snapshot = snapshot::read_snapshot(&dir)?;
        let checkpoints = checkpoint::read_segments(&dir)?;
        let wal_path = dir.join(WAL_FILE);
        let RecoveredWal { payloads, offsets, valid_len } = wal::read_wal(&wal_path)?;
        let mut records = Vec::with_capacity(payloads.len());
        let mut decoded_len = wal::WAL_HEADER_LEN;
        for (payload, offset) in payloads.iter().zip(&offsets) {
            match decode_exact::<WalRecord>(payload) {
                Ok(rec) => {
                    records.push(rec);
                    decoded_len = *offset;
                }
                Err(_) => break,
            }
        }
        let wal = WalWriter::open_at(&wal_path, decoded_len.min(valid_len), group_commit_of(&cfg))?;
        // Pre-create the first rotation's spare WAL and spawn the install
        // worker now, off the settle path (thread spawn costs ~100 µs —
        // paid here, at recovery, instead of at the first install).
        let spare = make_spare(&dir, group_commit_of(&cfg)).ok();
        Ok((
            Storage {
                backend: Backend::Disk {
                    dir,
                    wal,
                    worker: Some(InstallWorker::spawn()),
                    pending: false,
                    spare,
                    rotation_wedged: false,
                },
                cfg,
                install_failed: false,
                degraded: false,
                obs: None,
            },
            Recovered { snapshot, checkpoints, records },
        ))
    }

    /// An in-memory store with the same interface: nothing survives the
    /// process, which is exactly what non-durable deployments and unit
    /// tests want.
    pub fn memory(cfg: StoreConfig) -> Storage {
        Storage {
            backend: Backend::Memory {
                records: Vec::new(),
                snapshot: None,
                checkpoints: Vec::new(),
            },
            cfg,
            install_failed: false,
            degraded: false,
            obs: None,
        }
    }

    /// The configured durability policy.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Attaches metric handles; WAL append/fsync latencies, group-commit
    /// batch sizes, and snapshot duration/bytes are recorded from here on.
    pub fn attach_obs(&mut self, obs: StoreObs) {
        if let Backend::Disk { wal, .. } = &mut self.backend {
            wal.attach_obs(obs.clone());
            obs.wal_bytes.set(wal.len());
        }
        self.obs = Some(obs);
    }

    /// Appends one record (group commit decides when it is fsynced; an
    /// `OwnTag` record forces one immediately under
    /// [`StoreConfig::sync_on_broadcast`]).
    pub fn append(&mut self, record: &WalRecord) {
        match &mut self.backend {
            Backend::Disk { wal, .. } => {
                wal.append_with(|buf| record.encode(buf));
                if self.cfg.sync_on_broadcast && matches!(record, WalRecord::OwnTag { .. }) {
                    wal.sync();
                }
            }
            Backend::Memory { records, .. } => records.push(record.clone()),
        }
    }

    /// Hands buffered frames to the OS (one `write(2)`); no fsync. Call
    /// at the replica's step boundary — after this, an in-process crash
    /// loses nothing.
    pub fn flush_writes(&mut self) {
        if let Backend::Disk { wal, .. } = &mut self.backend {
            wal.flush_writes();
        }
    }

    /// Forces the group commit.
    pub fn sync(&mut self) {
        if let Backend::Disk { wal, .. } = &mut self.backend {
            wal.sync();
        }
    }

    /// Atomically installs `state` as the snapshot and truncates the WAL.
    ///
    /// # Errors
    ///
    /// Propagates IO errors; on error the old snapshot and full WAL are
    /// still in place (install is crash-atomic, and the WAL is only
    /// truncated after a successful install).
    pub fn install_snapshot(&mut self, state: &[u8]) -> std::io::Result<()> {
        let started = self.obs.as_ref().map(|_| Instant::now());
        let result = match &mut self.backend {
            Backend::Disk { dir, wal, .. } => {
                snapshot::write_snapshot(dir, state).and_then(|()| wal.reset())
            }
            Backend::Memory { records, snapshot, .. } => {
                *snapshot = Some(state.to_vec());
                records.clear();
                Ok(())
            }
        };
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            if result.is_ok() {
                obs.snapshot_nanos.record(started.elapsed().as_nanos() as u64);
                obs.snapshot_bytes.record(state.len() as u64);
                obs.wal_bytes.set(self.wal_bytes());
            }
        }
        self.note_install_result(result.is_err());
        result
    }

    /// Starts an asynchronous v2 snapshot install: optionally seals
    /// `segment` (index, checkpoint-record payloads) and installs
    /// `residual` as the snapshot, off the calling thread.
    ///
    /// On the fast path the settle thread pays one buffered `write(2)`
    /// and a writer swap to the pre-created spare WAL — **no filesystem
    /// metadata operation** (a `rename(2)` would stall behind the
    /// filesystem journal while the worker's fsyncs are committing it).
    /// The worker then makes the superseded log durable, performs the
    /// rotation renames, seals, installs, and pre-creates the next
    /// spare. Only recovery from an earlier *failed* install (a leftover
    /// previous WAL) falls back to rotating inline.
    ///
    /// Returns `false` (and does nothing) while a previous install is
    /// still in flight — the caller retries at its next snapshot
    /// threshold. The memory backend installs synchronously and always
    /// returns `true`.
    ///
    /// Completion is reported through [`Storage::poll_install`].
    pub fn begin_install(
        &mut self,
        segment: Option<(u32, Vec<Vec<u8>>)>,
        residual: Vec<u8>,
    ) -> bool {
        match &mut self.backend {
            Backend::Memory { records, snapshot, checkpoints } => {
                if let Some((index, seg_records)) = segment {
                    checkpoints.truncate(index as usize);
                    checkpoints.push(seg_records);
                }
                *snapshot = Some(residual);
                records.clear();
                // Memory installs complete inline.
                self.note_install_result(false);
                true
            }
            Backend::Disk { dir, wal, worker, pending, spare, rotation_wedged } => {
                if *pending {
                    return false;
                }
                if *rotation_wedged {
                    // A fast-path install failed mid-rotation: the log
                    // generations are off their canonical paths and any
                    // further rotation would scramble replay order.
                    // Appends continue (records are safe; recovery
                    // reorders via the next-WAL merge), compaction stays
                    // stopped, health keeps reporting it.
                    self.note_install_result(true);
                    return true;
                }
                // Every journaled frame must reach the OS before the
                // rotation: the rotated log is never written again. The
                // *fsync* making it power-loss durable — and every
                // rename — is the worker's job (see `run_install`).
                wal.flush_writes();
                if wal.health().is_err() {
                    self.note_install_result(true);
                    return true;
                }
                let policy = group_commit_of(&self.cfg);
                let mut old_log = None;
                let rotate = if !dir.join(WAL_PREV_FILE).exists() && spare.is_some() {
                    // Fast path: swap to the pre-created spare; the old
                    // writer's file stays at `WAL_FILE` until the worker
                    // renames it out, and the writer itself ships to the
                    // worker (fsync and close both happen off-thread).
                    let mut fresh = spare.take().expect("just checked");
                    if let Some(obs) = &self.obs {
                        fresh.attach_obs(obs.clone());
                        obs.wal_bytes.set(fresh.len());
                    }
                    old_log = Some(std::mem::replace(wal, fresh));
                    true
                } else {
                    // Slow path: a leftover prev WAL from a *failed*
                    // install still holds live records — fold it back
                    // before rotating again so its records cannot be
                    // orphaned by a second rotation — then rotate inline
                    // as the caller of record.
                    if merge_prev_wal(dir).is_err() {
                        self.note_install_result(true);
                        return true;
                    }
                    let rotated = std::fs::rename(dir.join(WAL_FILE), dir.join(WAL_PREV_FILE))
                        .and_then(|()| {
                            WalWriter::open_rotated(&dir.join(WAL_FILE), policy.clone())
                        });
                    let mut fresh = match rotated {
                        Ok(w) => w,
                        Err(_) => {
                            self.note_install_result(true);
                            return true;
                        }
                    };
                    if let Some(obs) = &self.obs {
                        fresh.attach_obs(obs.clone());
                        obs.wal_bytes.set(fresh.len());
                    }
                    *wal = fresh;
                    false
                };
                let job = InstallJob {
                    dir: dir.clone(),
                    segment,
                    residual,
                    rotate,
                    need_spare: spare.is_none(),
                    policy,
                    old_log,
                };
                let worker = worker.get_or_insert_with(InstallWorker::spawn);
                if worker.jobs.send(job).is_err() {
                    // The worker thread died (it never does barring a
                    // panic); its rotation state is unknown, so wedge.
                    *rotation_wedged = rotate;
                    self.note_install_result(true);
                    return true;
                }
                *pending = true;
                true
            }
        }
    }

    /// Reports a completed asynchronous install, if one finished since
    /// the last poll: `Some(Ok(()))` on success (the caller may prune
    /// snapshot-covered state), `Some(Err(_))` on failure (the caller
    /// must re-baseline: the segment it exported was never sealed),
    /// `None` while idle or still in flight.
    pub fn poll_install(&mut self) -> Option<std::io::Result<()>> {
        let Backend::Disk { worker, pending, spare, rotation_wedged, .. } = &mut self.backend
        else {
            return None;
        };
        if !*pending {
            return None;
        }
        let done = match worker.as_ref().expect("pending implies worker").results.try_recv() {
            Ok(done) => done,
            Err(std::sync::mpsc::TryRecvError::Empty) => return None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => InstallDone {
                result: Err(std::io::Error::other("install worker died")),
                // The worker's rotation state is unknown: wedge.
                rotated: false,
                spare: None,
            },
        };
        *pending = false;
        if let Some(fresh) = done.spare {
            *spare = Some(fresh);
        }
        *rotation_wedged |= !done.rotated;
        self.finish_install(done.result)
    }

    /// True while an asynchronous install is in flight. Callers must not
    /// seal a new checkpoint segment while one is: the sealed delta would
    /// reference a segment index the in-flight install may still fail to
    /// produce.
    pub fn installing(&self) -> bool {
        matches!(&self.backend, Backend::Disk { pending: true, .. })
    }

    /// Blocks until any in-flight install completes and folds its result
    /// in; used on clean shutdown so a threshold snapshot is never lost
    /// to process exit.
    pub fn drain_install(&mut self) -> Option<std::io::Result<()>> {
        let Backend::Disk { worker, pending, spare, rotation_wedged, .. } = &mut self.backend
        else {
            return None;
        };
        if !*pending {
            return None;
        }
        let done =
            worker.as_ref().expect("pending implies worker").results.recv().unwrap_or_else(|_| {
                InstallDone {
                    result: Err(std::io::Error::other("install worker died")),
                    rotated: false,
                    spare: None,
                }
            });
        *pending = false;
        if let Some(fresh) = done.spare {
            *spare = Some(fresh);
        }
        *rotation_wedged |= !done.rotated;
        self.finish_install(done.result)
    }

    fn finish_install(
        &mut self,
        result: std::io::Result<InstallStats>,
    ) -> Option<std::io::Result<()>> {
        if let (Some(obs), Ok(stats)) = (&self.obs, &result) {
            obs.snapshot_nanos.record(stats.nanos);
            obs.snapshot_bytes.record(stats.bytes);
            obs.wal_bytes.set(self.wal_bytes());
        }
        self.note_install_result(result.is_err());
        Some(result.map(|_| ()))
    }

    /// Folds one install outcome into the health state, emitting the
    /// flight-recorder / `health.*` transition events: a failure degrades
    /// ([`Storage::healthy`] turns false, compaction has stopped), a
    /// later success re-heals and says so.
    fn note_install_result(&mut self, failed: bool) {
        let was_failed = self.install_failed;
        self.install_failed = failed;
        let Some(obs) = &self.obs else { return };
        if failed {
            obs.install_failures.inc();
            obs.store_healthy.set(0);
            if !was_failed {
                obs.flight.event("store.snapshot.fail", 0, 0);
            }
        } else if was_failed {
            // The re-heal path: compaction resumed, the store is healthy
            // again (unless independently degraded).
            if !self.degraded {
                obs.store_healthy.set(1);
            }
            obs.flight.event("store.snapshot.heal", 0, 0);
        }
    }

    /// Current WAL length in bytes (0 for the memory backend).
    pub fn wal_bytes(&self) -> u64 {
        match &self.backend {
            Backend::Disk { wal, .. } => wal.len(),
            Backend::Memory { .. } => 0,
        }
    }

    /// Marks the store's device as degraded (or recovered): a gray
    /// failure — stalling fsyncs, a remapping disk — that no append has
    /// surfaced as an error yet. While set, [`Storage::healthy`] reports
    /// `false` so drivers treat the replica as sick before data is lost.
    /// The chaos simulator's `DiskDegraded` fault is the deterministic
    /// analogue of this state.
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
        if let Some(obs) = &self.obs {
            obs.store_healthy.set(u64::from(self.healthy()));
        }
    }

    /// `false` once an IO error (or an injected gray failure, see
    /// [`Storage::set_degraded`]) degraded the store: the WAL writer
    /// dropped records (see [`wal::WalWriter::health`]), the last
    /// snapshot install failed (compaction stopped, WAL unbounded), or
    /// the device was flagged sick.
    pub fn healthy(&self) -> bool {
        if self.install_failed || self.degraded {
            return false;
        }
        match &self.backend {
            Backend::Disk { wal, .. } => wal.health().is_ok(),
            Backend::Memory { .. } => true,
        }
    }
}

fn group_commit_of(cfg: &StoreConfig) -> GroupCommit {
    GroupCommit { sync_every_records: cfg.sync_every_records, sync_interval: cfg.sync_interval }
}

/// The worker half of an asynchronous install. Runs entirely without the
/// storage lock: it touches only files the appending thread never writes
/// (the checkpoint directory, the snapshot staging path, and the
/// rotated-out previous WAL).
///
/// Ordering is what makes the crash windows safe: the segment seals
/// first (an orphan segment is ignored until a snapshot references it),
/// the residual snapshot installs second (atomic rename), and only then
/// is the superseded WAL deleted (until that point its records replay
/// idempotently over the new snapshot).
///
/// An error therefore guarantees the previous snapshot chain is intact:
/// a failed prev-WAL deletion — the one step *after* the chain advanced —
/// is deliberately tolerated (the stale records merge back in and replay
/// idempotently), so callers may treat `Err` as "nothing was installed".
///
/// On the fast path (`rotate`) the worker also owns the rotation itself:
/// it fsyncs the superseded log (still at [`WAL_FILE`] — the settle
/// thread only swapped its in-memory writer), renames it to
/// [`WAL_PREV_FILE`], renames the pre-created [`WAL_NEXT_FILE`] (which
/// the settle thread is already appending to through its open fd) over
/// [`WAL_FILE`], and fsyncs the directory. `rotated` reports whether the
/// renames completed — if not, the caller must wedge further rotations.
fn run_install(
    dir: &Path,
    segment: Option<&(u32, Vec<Vec<u8>>)>,
    residual: &[u8],
    rotate: bool,
    old_log: Option<WalWriter>,
    rotated: &mut bool,
) -> std::io::Result<u64> {
    if rotate {
        // Make the superseded log power-loss durable first (acknowledged
        // records whose group commit had not fired yet), then perform
        // the renames the settle thread deferred. The renames are
        // attempted even when the fsync fails so the on-disk layout
        // still converges to the standard failed-install state
        // (prev + current) that the slow path knows how to repair.
        let synced = match old_log {
            // The shipped writer's fd closes here too — off-thread.
            Some(w) => w.into_file().sync_all(),
            None => File::open(dir.join(WAL_FILE)).and_then(|f| f.sync_all()),
        };
        let renamed = std::fs::rename(dir.join(WAL_FILE), dir.join(WAL_PREV_FILE))
            .and_then(|()| std::fs::rename(dir.join(WAL_NEXT_FILE), dir.join(WAL_FILE)))
            .and_then(|()| File::open(dir)?.sync_all());
        *rotated = renamed.is_ok();
        synced?;
        renamed?;
    } else {
        // Slow path: the caller rotated inline; make both generations
        // (and the fresh log's header) power-loss durable before the
        // snapshot that supersedes the former starts forming.
        for name in [WAL_PREV_FILE, WAL_FILE] {
            match File::open(dir.join(name)) {
                Ok(f) => f.sync_all()?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    let mut bytes = residual.len() as u64;
    if let Some((index, records)) = segment {
        bytes += records.iter().map(|r| 8 + r.len() as u64).sum::<u64>();
        checkpoint::seal_segment(dir, *index, records)?;
    }
    snapshot::write_snapshot(dir, residual)?;
    let _ = std::fs::remove_file(dir.join(WAL_PREV_FILE));
    Ok(bytes)
}

/// Pre-creates the next rotation's spare WAL at [`WAL_NEXT_FILE`]:
/// header written, directory entry fsynced. The dirent fsync matters —
/// group commit fsyncs file *data*, so without it a power loss could
/// drop the whole file after records were acknowledged into it.
fn make_spare(dir: &Path, policy: GroupCommit) -> std::io::Result<WalWriter> {
    let spare = WalWriter::open_rotated(&dir.join(WAL_NEXT_FILE), policy)?;
    File::open(dir)?.sync_all()?;
    Ok(spare)
}

/// Folds a leftover [`WAL_PREV_FILE`] back in front of [`WAL_FILE`] (a
/// crash landed inside an install window, or an install failed). Replay
/// order is preserved: the previous log's records come first. If the
/// previous log has an invalid tail the current log is dropped with it —
/// keeping records *after* a hole would replay a gapped history.
fn merge_prev_wal(dir: &Path) -> std::io::Result<()> {
    let prev_path = dir.join(WAL_PREV_FILE);
    let prev_bytes = match std::fs::read(&prev_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let wal_path = dir.join(WAL_FILE);
    let prev = wal::read_wal(&prev_path)?;
    let prev_torn = prev.valid_len < prev_bytes.len() as u64;
    let mut merged = prev_bytes[..prev.valid_len as usize].to_vec();
    if merged.len() < WAL_HEADER_LEN as usize {
        // Headerless/empty previous log: start from a clean header so the
        // current log's frames land behind a valid one.
        merged.clear();
        merged.extend_from_slice(&wal::WAL_MAGIC);
        merged.extend_from_slice(&wal::WAL_VERSION.to_le_bytes());
    }
    if !prev_torn {
        let current = wal::read_wal(&wal_path)?;
        let current_bytes = match std::fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if current.valid_len > WAL_HEADER_LEN && current_bytes.len() >= current.valid_len as usize {
            merged.extend_from_slice(
                &current_bytes[WAL_HEADER_LEN as usize..current.valid_len as usize],
            );
        }
    }
    let tmp = dir.join("wal.merge.tmp");
    std::fs::write(&tmp, &merged)?;
    std::fs::File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, &wal_path)?;
    std::fs::remove_file(&prev_path)?;
    std::fs::File::open(dir)?.sync_all()
}

/// Folds a leftover [`WAL_NEXT_FILE`] in *behind* [`WAL_FILE`]. In steady
/// state the next-WAL is the empty pre-created spare and this only
/// deletes it; after a crash between a fast-path writer swap and the
/// install worker's renames it holds the newest record generation, which
/// must replay *after* the current log. As with the previous-log merge,
/// records behind a torn current log are dropped — keeping records after
/// a hole would replay a gapped history.
fn merge_next_wal(dir: &Path) -> std::io::Result<()> {
    let next_path = dir.join(WAL_NEXT_FILE);
    let next = match std::fs::read(&next_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let next_valid = wal::read_wal(&next_path)?.valid_len;
    if next_valid > WAL_HEADER_LEN {
        let wal_path = dir.join(WAL_FILE);
        let current = wal::read_wal(&wal_path)?;
        let current_bytes = match std::fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let current_torn = current.valid_len < current_bytes.len() as u64;
        if !current_torn {
            let mut merged = current_bytes
                [..current.valid_len.min(current_bytes.len() as u64) as usize]
                .to_vec();
            if merged.len() < WAL_HEADER_LEN as usize {
                merged.clear();
                merged.extend_from_slice(&wal::WAL_MAGIC);
                merged.extend_from_slice(&wal::WAL_VERSION.to_le_bytes());
            }
            merged.extend_from_slice(&next[WAL_HEADER_LEN as usize..next_valid as usize]);
            let tmp = dir.join("wal.merge.tmp");
            std::fs::write(&tmp, &merged)?;
            std::fs::File::open(&tmp)?.sync_all()?;
            std::fs::rename(&tmp, &wal_path)?;
        }
    }
    std::fs::remove_file(&next_path)?;
    std::fs::File::open(dir)?.sync_all()
}

/// A cloneable handle to a [`Storage`] shared between a replica's journal
/// hook and the runtime driver that takes snapshots. Both live on the
/// same replica thread; the mutex is uncontended by construction.
#[derive(Clone)]
pub struct SharedStorage(Arc<Mutex<Storage>>);

impl SharedStorage {
    /// Wraps a storage.
    pub fn new(storage: Storage) -> Self {
        SharedStorage(Arc::new(Mutex::new(storage)))
    }

    /// Locks the storage, ignoring poison: a holder that panicked must not
    /// turn every later call into a second panic.
    fn lock(&self) -> MutexGuard<'_, Storage> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with the storage locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut Storage) -> R) -> R {
        f(&mut self.lock())
    }

    /// Hands buffered frames to the OS; see [`Storage::flush_writes`].
    pub fn flush_writes(&self) {
        self.lock().flush_writes();
    }

    /// Forces the group commit.
    pub fn sync(&self) {
        self.lock().sync();
    }

    /// Atomically installs a snapshot and truncates the WAL.
    ///
    /// # Errors
    ///
    /// See [`Storage::install_snapshot`].
    pub fn install_snapshot(&self, state: &[u8]) -> std::io::Result<()> {
        self.lock().install_snapshot(state)
    }

    /// Starts an asynchronous checkpointed install; see
    /// [`Storage::begin_install`].
    pub fn begin_install(&self, segment: Option<(u32, Vec<Vec<u8>>)>, residual: Vec<u8>) -> bool {
        self.lock().begin_install(segment, residual)
    }

    /// Reports a completed asynchronous install; see
    /// [`Storage::poll_install`].
    pub fn poll_install(&self) -> Option<std::io::Result<()>> {
        self.lock().poll_install()
    }

    /// True while an asynchronous install is in flight; see
    /// [`Storage::installing`].
    pub fn installing(&self) -> bool {
        self.lock().installing()
    }

    /// Blocks until any in-flight install completes; see
    /// [`Storage::drain_install`].
    pub fn drain_install(&self) -> Option<std::io::Result<()>> {
        self.lock().drain_install()
    }

    /// True while no IO error has degraded the store.
    pub fn healthy(&self) -> bool {
        self.lock().healthy()
    }

    /// Flags (or clears) a gray device failure; see
    /// [`Storage::set_degraded`].
    pub fn set_degraded(&self, degraded: bool) {
        self.lock().set_degraded(degraded);
    }
}

impl std::fmt::Debug for SharedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.lock().fmt(f)
    }
}

impl Journal for SharedStorage {
    fn record(&mut self, record: &WalRecord) {
        self.lock().append(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_types::Payment;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("astro-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn settle(seq: u64) -> WalRecord {
        WalRecord::Settle { payment: Payment::new(1u64, seq, 2u64, 5u64), credit_beneficiary: true }
    }

    #[test]
    fn disk_round_trip_without_snapshot() {
        let dir = tmp_dir("no-snap");
        let (mut s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert!(rec.snapshot.is_none() && rec.records.is_empty());
        for seq in 0..5 {
            s.append(&settle(seq));
        }
        s.sync();
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.records, (0..5).map(settle).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_install_truncates_the_wal() {
        let dir = tmp_dir("snap");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        for seq in 0..5 {
            s.append(&settle(seq));
        }
        s.install_snapshot(b"the state").unwrap();
        s.append(&settle(5));
        s.sync();
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.snapshot.unwrap(), b"the state");
        assert_eq!(rec.records, vec![settle(5)], "pre-snapshot records are compacted away");
    }

    #[test]
    fn undecodable_record_cuts_the_log() {
        let dir = tmp_dir("undecodable");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        s.append(&settle(0));
        s.sync();
        drop(s);
        // Append a CRC-valid frame whose payload is not a WalRecord.
        {
            let recovered = wal::read_wal(&dir.join(WAL_FILE)).unwrap();
            let mut w = wal::WalWriter::open_at(
                &dir.join(WAL_FILE),
                recovered.valid_len,
                wal::GroupCommit::default(),
            )
            .unwrap();
            w.append(&[0xee; 7]);
            w.sync();
        }
        let (mut s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records, vec![settle(0)], "foreign record cut off");
        // And the cut is durable: appending continues from the cut point.
        s.append(&settle(1));
        s.sync();
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records, vec![settle(0), settle(1)]);
    }

    fn wait_install(s: &mut Storage) -> std::io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(result) = s.poll_install() {
                return result;
            }
            assert!(Instant::now() < deadline, "install never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn async_install_seals_segment_and_rotates_the_wal() {
        let dir = tmp_dir("async-install");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        for seq in 0..4 {
            s.append(&settle(seq));
        }
        assert!(s.begin_install(Some((0, vec![b"ckpt-record".to_vec()])), b"residual".to_vec()));
        // Records appended *during* the install land in the fresh WAL and
        // survive it.
        s.append(&settle(4));
        s.sync();
        wait_install(&mut s).unwrap();
        assert!(s.healthy());
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.snapshot.unwrap(), b"residual");
        assert_eq!(rec.checkpoints, vec![vec![b"ckpt-record".to_vec()]]);
        assert_eq!(rec.records, vec![settle(4)], "pre-install records compacted away");
    }

    #[test]
    fn crash_before_install_completes_replays_both_wal_generations() {
        let dir = tmp_dir("install-crash-window");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        s.append(&settle(0));
        s.sync();
        // Simulate the crash window by hand: rotate exactly as
        // begin_install does, but never run the worker.
        drop(s);
        std::fs::rename(dir.join(WAL_FILE), dir.join(WAL_PREV_FILE)).unwrap();
        {
            let mut w = WalWriter::open_at(&dir.join(WAL_FILE), 0, GroupCommit::default()).unwrap();
            w.append(&settle(1).to_wire_bytes());
            w.sync();
        }
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            rec.records,
            vec![settle(0), settle(1)],
            "both generations replay, previous first"
        );
        assert!(!dir.join(WAL_PREV_FILE).exists(), "merge folds the previous WAL away");
    }

    #[test]
    fn crash_between_writer_swap_and_worker_renames_replays_in_order() {
        let dir = tmp_dir("swap-crash-window");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        s.append(&settle(0));
        s.sync();
        drop(s);
        // Simulate the fast-path crash window by hand: the settle thread
        // swapped to the pre-created spare (so the newest records sit in
        // WAL_NEXT_FILE) but the worker's renames never ran.
        {
            let next = wal::read_wal(&dir.join(WAL_NEXT_FILE)).unwrap();
            assert_eq!(next.payloads.len(), 0, "open pre-creates an empty spare");
            let mut w = WalWriter::open_at(
                &dir.join(WAL_NEXT_FILE),
                next.valid_len,
                GroupCommit::default(),
            )
            .unwrap();
            w.append(&settle(1).to_wire_bytes());
            w.sync();
        }
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            rec.records,
            vec![settle(0), settle(1)],
            "the spare's records are the newest generation: they replay last"
        );
        let next = wal::read_wal(&dir.join(WAL_NEXT_FILE)).unwrap();
        assert_eq!(next.payloads.len(), 0, "the merge leaves a fresh empty spare");
    }

    #[test]
    fn second_install_defers_while_one_is_in_flight() {
        let dir = tmp_dir("install-backpressure");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert!(s.begin_install(None, b"first".to_vec()));
        // Whether or not the worker already finished, a drain settles it.
        let drained = s.drain_install();
        assert!(matches!(drained, Some(Ok(()))));
        assert!(s.begin_install(None, b"second".to_vec()));
        wait_install(&mut s).unwrap();
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.snapshot.unwrap(), b"second");
    }

    #[test]
    fn dropping_mid_install_leaves_the_directory_quiet_for_the_reopen() {
        // The simulated crash: drop the store with an install queued or
        // running, reopen at once. The drop joins the worker, so recovery
        // never races its renames (it used to fail with NotFound) and
        // always finds the install complete.
        let dir = tmp_dir("drop-mid-install");
        for i in 0..200u64 {
            let (mut s, rec) = Storage::open(&dir, StoreConfig::default())
                .unwrap_or_else(|e| panic!("reopen {i}: {e}"));
            if i > 0 {
                assert_eq!(rec.snapshot.as_deref(), Some(&(i - 1).to_be_bytes()[..]), "reopen {i}");
                assert_eq!(rec.records, vec![settle(2 * i - 1)], "reopen {i}");
            }
            s.append(&settle(2 * i));
            s.sync();
            assert!(s.begin_install(None, i.to_be_bytes().to_vec()));
            s.append(&settle(2 * i + 1));
            s.sync();
        }
    }

    #[test]
    fn memory_backend_mirrors_the_interface() {
        let mut s = Storage::memory(StoreConfig::default());
        s.append(&settle(0));
        s.install_snapshot(b"snap").unwrap();
        s.append(&settle(1));
        s.sync();
        assert!(s.healthy());
        assert_eq!(s.wal_bytes(), 0);
    }

    #[test]
    fn degraded_flag_drives_health_and_clears() {
        let mut s = Storage::memory(StoreConfig::default());
        assert!(s.healthy());
        s.set_degraded(true);
        assert!(!s.healthy(), "a sick device must report unhealthy before any IO error");
        // The store keeps accepting appends while degraded — the flag is
        // advisory, not a write barrier.
        s.append(&settle(0));
        s.set_degraded(false);
        assert!(s.healthy());
    }

    #[test]
    fn shared_storage_journals_records() {
        let dir = tmp_dir("shared");
        let (s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        let shared = SharedStorage::new(s);
        let mut journal: Box<dyn Journal> = Box::new(shared.clone());
        journal.record(&settle(0));
        shared.sync();
        assert!(shared.healthy());
        drop(journal);
        drop(shared);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records, vec![settle(0)]);
    }
}
