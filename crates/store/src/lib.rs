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
//!   commit** (one `write(2)` per replica step; an fsync per
//!   interval/record-count, run on the store's worker thread).
//!   Recovery takes the longest valid prefix; torn tails and bit flips
//!   cut the log, never panic.
//! - [`checkpoint`] and [`snapshot`]: immutable segments of settled
//!   history, and the integrity-checked residual state installed over
//!   them by atomic rename.
//! - [`Storage`]: the replica-facing facade — [`Storage::open`] recovers
//!   `segments + snapshot + WAL`, [`Storage::append`] journals one record,
//!   and [`Storage::begin_install`] compacts: it rotates the WAL and
//!   seals a segment plus a snapshot off the calling thread.
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
use astro_obs::{FlightRecorder, Gauge, Histogram, Registry};
use astro_types::wire::{decode_exact, Wire};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use wal::{Commit, GroupCommit, RecoveredWal, WalWriter, WAL_HEADER_LEN};

/// Metric handles the store records into when a cluster runs with an
/// [`astro_obs::Registry`] attached; resolved once per replica and pushed
/// down into the WAL writer. Without a registry nothing is constructed
/// and the store pays nothing.
#[derive(Debug, Clone)]
pub struct StoreObs {
    /// Latency of one [`Storage::append`] as the replica thread paid it:
    /// framing, plus a `write(2)` when the buffer passed its bound (no
    /// fsync, except [`StoreConfig::sync_on_broadcast`]'s).
    pub append_nanos: Histogram,
    /// Latency of one `fdatasync(2)`: a group commit, recorded by the
    /// worker thread that ran it, or an inline [`Storage::sync`].
    pub fsync_nanos: Histogram,
    /// Bytes handed to the OS per `write(2)` (the step-boundary batch).
    pub flush_batch_bytes: Histogram,
    /// Records amortized into one group commit.
    pub commit_batch_records: Histogram,
    /// Wall time of one snapshot install on the install worker: the WAL
    /// rotation's fsync and renames, the segment seal and the snapshot
    /// write, fsync and rename (serialization excluded).
    pub snapshot_nanos: Histogram,
    /// Current WAL file length.
    pub wal_bytes: Gauge,
    /// `health.r{replica}.store`: 1 while snapshot installs succeed, 0
    /// once one failed — cleared again when a later install succeeds
    /// (the re-heal path).
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
            wal_bytes: registry.gauge(&name("wal_bytes")),
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
    /// Group commit: fsync once this many records were appended since
    /// the last commit started (checked at each step boundary).
    pub sync_every_records: usize,
    /// Group commit: fsync once this much time has passed since the last
    /// commit started and a record arrived (checked at each step
    /// boundary).
    pub sync_interval: Duration,
    /// Seal a checkpoint segment and install a snapshot (rotating the
    /// WAL) after this many settled payments. Consumed by the runtime's
    /// durable node driver.
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
        // The group commit runs on the store's worker thread, so its
        // fsync never stalls the replica thread: traced `a1_durable` runs
        // on a 2-core VM's ext4 disk read p50 0.3–0.5 ms and p99 5–8 ms
        // there, against p50 1.0–1.4 ms when the replica thread runs
        // them inline. The power-loss window is the interval plus one fsync;
        // an in-process crash never loses acknowledged work regardless
        // (see `wal`).
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
    /// The installed snapshot's state bytes, if a snapshot exists: the
    /// *residual* state; the settled history it builds on is in
    /// `checkpoints`.
    pub snapshot: Option<Vec<u8>>,
    /// The longest valid checkpoint-segment prefix: record payloads per
    /// sealed segment, in seal order. How many segments are actually
    /// *live* is recorded inside the snapshot by the layer that wrote it
    /// (an orphan segment sealed just before a crash is ignored there).
    pub checkpoints: Vec<Vec<Vec<u8>>>,
    /// The WAL's longest valid record prefix, decoded, in log order.
    pub records: Vec<WalRecord>,
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

impl InstallJob {
    fn run(self) -> InstallDone {
        let InstallJob { dir, segment, residual, rotate, need_spare, policy, old_log } = self;
        let started = Instant::now();
        let mut rotated = !rotate;
        let result = run_install(&dir, segment.as_ref(), &residual, rotate, old_log, &mut rotated)
            .map(|()| started.elapsed().as_nanos() as u64);
        let spare = if need_spare && rotated { make_spare(&dir, policy).ok() } else { None };
        InstallDone { result, rotated, spare }
    }
}

/// What one install job reports back.
struct InstallDone {
    /// The install's wall time in nanoseconds, or why it failed.
    result: std::io::Result<u64>,
    /// False if a fast-path job failed *before* its renames completed:
    /// the live log now sits at [`WAL_NEXT_FILE`] with the superseded
    /// one still at [`WAL_FILE`], and any further rotation on top would
    /// scramble replay order — the store wedges rotation instead.
    rotated: bool,
    /// A fresh pre-created spare WAL, when the job asked for one.
    spare: Option<WalWriter>,
}

/// What the worker thread runs, in queue order.
enum Job {
    Install(InstallJob),
    /// A group commit's fsync.
    Commit(Commit),
}

/// A long-lived worker for the store's slow disk work — snapshot
/// installs and group-commit fsyncs: spawning a thread per install costs
/// ~100 µs on the settle path, so [`Storage::open`] spawns one worker
/// that serves every snapshot cycle and every commit. Dropping it (with
/// [`Storage`]) closes the job channel and joins the thread.
struct InstallWorker {
    jobs: Sender<Job>,
    results: Receiver<InstallDone>,
    /// One outcome per commit job.
    commits: Receiver<std::io::Result<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for InstallWorker {
    /// Waits out the queued jobs, if any. A dropped `Storage` is how a
    /// crash is simulated, and the next thing that happens to the
    /// directory is a reopen: its recovery merges and reads the very files
    /// a still-running worker would be renaming or fsyncing under it.
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
    fn spawn() -> std::io::Result<InstallWorker> {
        let (jobs, job_rx) = std::sync::mpsc::channel::<Job>();
        let (result_tx, results) = std::sync::mpsc::channel();
        let (commit_tx, commits) = std::sync::mpsc::channel();
        let thread =
            std::thread::Builder::new().name("astro-store-install".into()).spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let sent = match job {
                        Job::Install(job) => result_tx.send(job.run()).is_ok(),
                        Job::Commit(commit) => commit_tx.send(commit.run()).is_ok(),
                    };
                    if !sent {
                        break;
                    }
                }
            })?;
        Ok(InstallWorker { jobs, results, commits, thread: Some(thread) })
    }
}

/// One replica's durable state store: its directory, the live WAL
/// writer and the worker thread that commits and compacts behind it.
pub struct Storage {
    dir: PathBuf,
    wal: WalWriter,
    cfg: StoreConfig,
    /// Spawned at open (thread spawn is too slow to pay on the settle
    /// path); `None` only after the worker died, until the next install
    /// re-spawns it.
    worker: Option<InstallWorker>,
    /// True while an install job is queued or running on the worker.
    pending: bool,
    /// True while a group-commit job is queued or running on the worker.
    committing: bool,
    /// Pre-created fresh WAL at [`WAL_NEXT_FILE`]; the fast-path
    /// rotation swaps to it without touching the filesystem.
    spare: Option<WalWriter>,
    /// Set when a fast-path install failed before its renames: the
    /// on-disk generations are out of their canonical places, so no
    /// further rotation may run (appends continue, recovery is
    /// order-correct via the next-WAL merge, compaction has stopped).
    rotation_wedged: bool,
    /// Set when a snapshot install failed; compaction has stopped (the
    /// WAL keeps growing) even though the WAL writer itself is fine.
    install_failed: bool,
    obs: Option<StoreObs>,
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage").field("dir", &self.dir).field("wal_len", &self.wal.len()).finish()
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
    /// Genuine IO errors (a failed install-worker spawn included), and
    /// `InvalidData` for a present-but-damaged snapshot (recovering
    /// *past* it would silently lose state).
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
        let storage = Storage {
            dir,
            wal,
            cfg,
            worker: Some(InstallWorker::spawn()?),
            pending: false,
            committing: false,
            spare,
            rotation_wedged: false,
            install_failed: false,
            obs: None,
        };
        Ok((storage, Recovered { snapshot, checkpoints, records }))
    }

    /// The configured durability policy.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Attaches metric handles; WAL append/fsync latencies, group-commit
    /// batch sizes, and snapshot duration are recorded from here on.
    pub fn attach_obs(&mut self, obs: StoreObs) {
        self.wal.attach_obs(obs.clone());
        obs.wal_bytes.set(self.wal.len());
        self.obs = Some(obs);
    }

    /// Appends one record (group commit decides when it is fsynced; an
    /// `OwnTag` record is fsynced inline under
    /// [`StoreConfig::sync_on_broadcast`]).
    pub fn append(&mut self, record: &WalRecord) {
        let started = self.obs.as_ref().map(|_| Instant::now());
        self.wal.append_with(|buf| record.encode(buf));
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            obs.append_nanos.record(started.elapsed().as_nanos() as u64);
        }
        if self.cfg.sync_on_broadcast && matches!(record, WalRecord::OwnTag { .. }) {
            self.wal.sync();
        }
    }

    /// The replica's step boundary: hands buffered frames to the OS (one
    /// `write(2)`) — after this, an in-process crash loses nothing. Then
    /// folds in the outcome of a finished group commit (a failed fsync
    /// degrades the WAL writer) and, when the [`GroupCommit`] policy is
    /// due and no commit is in flight, queues the next one on the
    /// worker. This thread never waits for an fsync here.
    pub fn flush_writes(&mut self) {
        self.wal.flush_writes();
        self.poll_commit();
        if self.committing || !self.wal.commit_due() {
            return;
        }
        let queued = self.worker.as_ref().is_some_and(|worker| {
            self.wal
                .start_commit()
                .is_ok_and(|commit| worker.jobs.send(Job::Commit(commit)).is_ok())
        });
        if queued {
            self.committing = true;
        } else {
            // No fd to hand off, or the worker died (the next install
            // re-spawns it): commit inline.
            self.wal.sync();
        }
    }

    /// Folds in the in-flight group commit's outcome, if it finished.
    fn poll_commit(&mut self) {
        if !self.committing {
            return;
        }
        let result = match self.worker.as_ref().map(|w| w.commits.try_recv()) {
            Some(Ok(result)) => result,
            Some(Err(TryRecvError::Empty)) => return,
            Some(Err(TryRecvError::Disconnected)) | None => {
                Err(std::io::Error::other("store worker died before its group commit"))
            }
        };
        self.committing = false;
        self.wal.finish_commit(result);
    }

    /// Commits inline: everything journaled before the call is written
    /// and fsynced before it returns, whether or not a group commit is
    /// in flight on the worker. Clean stop relies on it.
    pub fn sync(&mut self) {
        // The worker's fd shares this one's open file description, so the
        // kernel reports a writeback error to whichever fsync runs first:
        // fold in a finished commit's error before fsyncing again.
        self.poll_commit();
        self.wal.sync();
    }

    /// Starts an asynchronous snapshot install: optionally seals
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
    /// threshold. Otherwise returns `true`: either the install is in
    /// flight ([`Storage::installing`]) or it failed before it started
    /// (the WAL is degraded, rotation is wedged, or the rotation or a
    /// worker re-spawn failed) and nothing was sealed —
    /// [`Storage::healthy`] then reports `false`.
    ///
    /// Completion is reported through [`Storage::poll_install`].
    pub fn begin_install(
        &mut self,
        segment: Option<(u32, Vec<Vec<u8>>)>,
        residual: Vec<u8>,
    ) -> bool {
        if self.pending {
            return false;
        }
        match self.queue_install(segment, residual) {
            Some(()) => self.pending = true,
            None => self.note_install_result(true),
        }
        true
    }

    /// Rotates the WAL and hands the install to the worker; `None` if the
    /// install failed before it started.
    fn queue_install(
        &mut self,
        segment: Option<(u32, Vec<Vec<u8>>)>,
        residual: Vec<u8>,
    ) -> Option<()> {
        if self.rotation_wedged {
            // A fast-path install failed mid-rotation: the log
            // generations are off their canonical paths and any further
            // rotation would scramble replay order. Appends continue
            // (records are safe; recovery reorders via the next-WAL
            // merge), compaction stays stopped, health keeps reporting it.
            return None;
        }
        if self.worker.is_none() {
            // A group commit the dead worker took with it fails here.
            self.poll_commit();
            self.worker = Some(InstallWorker::spawn().ok()?);
        }
        // Every journaled frame must reach the OS before the rotation:
        // the rotated log is never written again. The *fsync* making it
        // power-loss durable — and every rename — is the worker's job
        // (see `run_install`).
        self.wal.flush_writes();
        self.wal.health().ok()?;
        let policy = group_commit_of(&self.cfg);
        let rotate = !self.dir.join(WAL_PREV_FILE).exists() && self.spare.is_some();
        let mut fresh = if rotate {
            // Fast path: swap to the pre-created spare; the old writer's
            // file stays at `WAL_FILE` until the worker renames it out.
            self.spare.take().expect("just checked")
        } else {
            // Slow path: a leftover prev WAL from a *failed* install
            // still holds live records — fold it back before rotating
            // again so its records cannot be orphaned by a second
            // rotation — then rotate inline as the caller of record.
            merge_prev_wal(&self.dir).ok()?;
            std::fs::rename(self.dir.join(WAL_FILE), self.dir.join(WAL_PREV_FILE)).ok()?;
            WalWriter::open_rotated(&self.dir.join(WAL_FILE), policy.clone()).ok()?
        };
        if let Some(obs) = &self.obs {
            fresh.attach_obs(obs.clone());
            obs.wal_bytes.set(fresh.len());
        }
        let old_log = std::mem::replace(&mut self.wal, fresh);
        let job = Job::Install(InstallJob {
            dir: self.dir.clone(),
            segment,
            residual,
            rotate,
            // On the fast path the superseded writer ships to the worker
            // (fsync and close both happen off-thread); on the slow path
            // its file was renamed away and it closes here.
            old_log: rotate.then_some(old_log),
            need_spare: self.spare.is_none(),
            policy,
        });
        let worker = self.worker.as_ref().expect("spawned above");
        if worker.jobs.send(job).is_err() {
            // The worker thread died (it never does barring a panic);
            // the job's renames never ran, so wedge a fast-path rotation.
            self.worker = None;
            self.rotation_wedged = rotate;
            return None;
        }
        Some(())
    }

    /// Reports a completed asynchronous install, if one finished since
    /// the last poll: `Some(Ok(()))` on success (the caller may prune
    /// snapshot-covered state), `Some(Err(_))` on failure (the caller
    /// must re-baseline: the segment it exported was never sealed),
    /// `None` while idle or still in flight.
    pub fn poll_install(&mut self) -> Option<std::io::Result<()>> {
        if !self.pending {
            return None;
        }
        let done = match self.worker.as_ref().expect("pending implies worker").results.try_recv() {
            Ok(done) => Some(done),
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => None,
        };
        Some(self.complete_install(done))
    }

    /// True while an asynchronous install is in flight. Callers must not
    /// seal a new checkpoint segment while one is: the sealed delta would
    /// reference a segment index the in-flight install may still fail to
    /// produce.
    pub fn installing(&self) -> bool {
        self.pending
    }

    /// Blocks until any in-flight install completes and folds its result
    /// in; used on clean shutdown so a threshold snapshot is never lost
    /// to process exit.
    pub fn drain_install(&mut self) -> Option<std::io::Result<()>> {
        if !self.pending {
            return None;
        }
        let done = self.worker.as_ref().expect("pending implies worker").results.recv().ok();
        Some(self.complete_install(done))
    }

    /// Folds in the in-flight install's report; `None` means the worker
    /// died with the job, leaving its rotation state unknown: wedge.
    fn complete_install(&mut self, done: Option<InstallDone>) -> std::io::Result<()> {
        self.pending = false;
        let InstallDone { result, rotated, spare } = done.unwrap_or_else(|| {
            self.worker = None;
            InstallDone {
                result: Err(std::io::Error::other("install worker died")),
                rotated: false,
                spare: None,
            }
        });
        if spare.is_some() {
            self.spare = spare;
        }
        self.rotation_wedged |= !rotated;
        if let (Some(obs), Ok(nanos)) = (&self.obs, &result) {
            obs.snapshot_nanos.record(*nanos);
            obs.wal_bytes.set(self.wal.len());
        }
        self.note_install_result(result.is_err());
        result.map(|_| ())
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
            obs.store_healthy.set(0);
            if !was_failed {
                obs.flight.event("store.snapshot.fail", 0, 0);
            }
        } else if was_failed {
            // The re-heal path: compaction resumed, the store is healthy
            // again.
            obs.store_healthy.set(1);
            obs.flight.event("store.snapshot.heal", 0, 0);
        }
    }

    /// `false` once an IO error degraded the store: the WAL writer
    /// dropped records (see [`wal::WalWriter::health`]), or the last
    /// snapshot install failed (compaction stopped, WAL unbounded).
    pub fn healthy(&self) -> bool {
        !self.install_failed && self.wal.health().is_ok()
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
) -> std::io::Result<()> {
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
    if let Some((index, records)) = segment {
        checkpoint::seal_segment(dir, *index, records)?;
    }
    snapshot::write_snapshot(dir, residual)?;
    let _ = std::fs::remove_file(dir.join(WAL_PREV_FILE));
    Ok(())
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

    /// Runs `f` with the storage locked, ignoring poison: a holder that
    /// panicked must not turn every later call into a second panic.
    pub fn with<R>(&self, f: impl FnOnce(&mut Storage) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl std::fmt::Debug for SharedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with(|s| s.fmt(f))
    }
}

impl Journal for SharedStorage {
    fn record(&mut self, record: &WalRecord) {
        self.with(|s| s.append(record));
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

    fn fsyncs(registry: &Registry) -> u64 {
        registry.snapshot().histogram("store.r0.fsync_nanos").map_or(0, |h| h.count)
    }

    #[test]
    fn group_commit_runs_on_the_worker_and_sync_still_fsyncs() {
        let dir = tmp_dir("commit-off-thread");
        let cfg = StoreConfig {
            sync_every_records: 4,
            sync_interval: Duration::from_secs(60),
            ..StoreConfig::default()
        };
        let (mut s, _) = Storage::open(&dir, cfg).unwrap();
        let registry = Registry::new();
        s.attach_obs(StoreObs::for_replica(&registry, 0));
        // The gate: the worker's group commit says which thread runs it,
        // then holds its fsync until the test releases it.
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        s.wal.commit_hook = Some(wal::CommitHook(Arc::new(move || {
            entered_tx.send(std::thread::current().name().map(str::to_owned)).unwrap();
            let _ = gate.lock().unwrap().recv_timeout(Duration::from_secs(10));
            Ok(())
        })));
        for seq in 0..4 {
            s.append(&settle(seq));
        }
        s.flush_writes();
        let runner = entered.recv_timeout(Duration::from_secs(10)).expect("a commit was queued");
        assert_eq!(runner.as_deref(), Some("astro-store-install"));
        // The commit took the record count; sync() must not trust it.
        s.sync();
        assert_eq!(fsyncs(&registry), 1, "sync() fsyncs while the group commit is held");
        // The replica side never waits: appends and step boundaries past
        // the threshold return, and queue nothing while one is in flight.
        for seq in 4..12 {
            s.append(&settle(seq));
            s.flush_writes();
        }
        assert!(entered.try_recv().is_err(), "at most one commit in flight");
        s.sync();
        assert_eq!(fsyncs(&registry), 2);
        release.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.committing {
            assert!(Instant::now() < deadline, "the group commit never reported");
            std::thread::sleep(Duration::from_millis(1));
            s.flush_writes();
        }
        assert_eq!(fsyncs(&registry), 3, "the worker recorded its own fsync");
        assert!(s.healthy());
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records, (0..12).map(settle).collect::<Vec<_>>());
    }

    #[test]
    fn failed_group_commit_degrades_the_store_at_the_next_step() {
        let dir = tmp_dir("commit-fails");
        let cfg = StoreConfig { sync_every_records: 1, ..StoreConfig::default() };
        let (mut s, _) = Storage::open(&dir, cfg).unwrap();
        s.wal.commit_hook =
            Some(wal::CommitHook(Arc::new(|| Err(std::io::Error::other("injected fsync error")))));
        s.append(&settle(0));
        s.flush_writes();
        assert!(s.committing, "the step boundary queued a commit");
        assert!(s.healthy(), "its outcome folds in at a later step boundary");
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.committing {
            assert!(Instant::now() < deadline, "the group commit never reported");
            std::thread::sleep(Duration::from_millis(1));
            s.flush_writes();
        }
        assert_eq!(s.wal.health().unwrap_err().to_string(), "injected fsync error");
        assert!(!s.healthy());
        // Degraded exactly as by an inline failure: later appends are
        // dropped, and an install fails before it starts.
        let len = s.wal.len();
        s.append(&settle(1));
        s.flush_writes();
        assert_eq!(s.wal.len(), len, "the append was dropped");
        assert!(s.begin_install(Some((0, vec![b"lost".to_vec()])), b"never".to_vec()));
        assert!(!s.installing(), "nothing was handed to the worker");
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert!(rec.snapshot.is_none() && rec.checkpoints.is_empty());
        assert_eq!(rec.records, vec![settle(0)]);
    }

    #[test]
    fn dropping_with_a_group_commit_queued_leaves_the_directory_quiet_for_the_reopen() {
        // The simulated crash: drop the store right after a step boundary
        // queued a group commit, reopen at once. The drop joins the
        // worker, so the fsync never runs under the reopen.
        let dir = tmp_dir("drop-mid-commit");
        let cfg = || StoreConfig { sync_every_records: 1, ..StoreConfig::default() };
        for i in 0..200u64 {
            let (mut s, rec) =
                Storage::open(&dir, cfg()).unwrap_or_else(|e| panic!("reopen {i}: {e}"));
            assert_eq!(rec.records, (0..i).map(settle).collect::<Vec<_>>(), "reopen {i}");
            s.append(&settle(i));
            s.flush_writes();
            assert!(s.committing, "reopen {i}: the step boundary queued a commit");
        }
    }

    #[test]
    fn install_on_a_degraded_wal_fails_before_it_starts() {
        let dir = tmp_dir("degraded-install");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        s.append(&settle(0));
        assert!(s.begin_install(Some((0, vec![b"ckpt-record".to_vec()])), b"first".to_vec()));
        wait_install(&mut s).unwrap();
        s.append(&settle(1));
        s.append(&settle(2));
        // A record recovery would refuse is never written: the WAL
        // writer goes degraded instead.
        s.append(&WalRecord::Cert { bytes: vec![0; wal::MAX_RECORD_LEN] });
        assert!(s.begin_install(Some((1, vec![b"lost".to_vec()])), b"second".to_vec()));
        assert!(!s.installing(), "nothing was handed to the worker");
        assert!(!s.healthy());
        drop(s);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.snapshot.unwrap(), b"first");
        assert_eq!(rec.checkpoints, vec![vec![b"ckpt-record".to_vec()]]);
        assert_eq!(rec.records, vec![settle(1), settle(2)]);
    }

    #[test]
    fn shared_storage_journals_records() {
        let dir = tmp_dir("shared");
        let (s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        let shared = SharedStorage::new(s);
        let mut journal: Box<dyn Journal> = Box::new(shared.clone());
        journal.record(&settle(0));
        shared.with(Storage::sync);
        assert!(shared.with(|s| s.healthy()));
        drop(journal);
        drop(shared);
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.records, vec![settle(0)]);
    }
}
