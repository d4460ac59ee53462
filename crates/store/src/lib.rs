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
//!   and [`Storage::begin_install`] compacts: it switches the WAL to its
//!   next generation and seals a segment plus a snapshot off the calling
//!   thread.
//!
//! # Directory layout
//!
//! ```text
//! wal-00000006.bin       a superseded generation, until its install deletes it
//! wal-00000007.bin       the live WAL: appends go here
//! wal-00000008.bin       the pre-created spare the next install swaps to
//! ckpt/seg-00000000.bin  sealed checkpoint segments …
//! snapshot.bin           the residual snapshot
//! ```
//!
//! The WAL is a run of numbered generations, and no WAL file is ever
//! renamed. An install swaps the writer from generation g to the spare
//! g+1; its worker then fsyncs every superseded generation, seals the
//! segment, installs the snapshot, deletes every generation ≤ g and
//! pre-creates g+2. Recovery replays the generations in ascending order
//! and opens the writer on the last one. One rule covers every crash
//! window: the first generation with a torn tail or an undecodable record
//! is cut there, and every later one is deleted, so replay never skips a
//! hole.
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
use wal::{Commit, GroupCommit, RecoveredWal, WalWriter, FRAME_HEADER_LEN, WAL_HEADER_LEN};

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
    /// Wall time of one snapshot install on the install worker: the
    /// superseded WAL generations' fsync, the segment seal, the snapshot
    /// write, fsync and rename, and the generations' deletion
    /// (serialization excluded).
    pub snapshot_nanos: Histogram,
    /// Current WAL file length.
    pub wal_bytes: Gauge,
    /// `health.r{replica}.store`: [`Storage::healthy`] as 1 or 0. It
    /// turns 0 when a snapshot install fails — and 1 again when a later
    /// one succeeds (the re-heal path) — or, from the next step boundary
    /// on, for good, once the WAL writer went degraded.
    pub store_healthy: Gauge,
    /// Flight recorder: `store.snapshot.fail` / `store.snapshot.heal`
    /// and `store.wal.fail` events mark the health transitions.
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

/// Path of WAL generation `generation` under `dir` (the replica storage
/// directory). A fresh directory's first generation is 0, and each
/// install moves the live log up by one.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:08}.bin"))
}

/// Generation numbers above this are not the store's (2⁶³ installs are out
/// of reach); the headroom keeps the next spare's number from overflowing.
const MAX_GENERATION: u64 = u64::MAX >> 1;

/// The WAL generations under `dir`, ascending. Only a canonical
/// [`wal_path`] name counts: anything else (`wal-7.bin`, `wal-xyz.bin`) is
/// not the store's, and is left alone.
fn wal_generations(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut generations = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let number = name.to_str().and_then(|n| n.strip_prefix("wal-")?.strip_suffix(".bin"));
        let generation = number.and_then(|n| n.parse().ok());
        generations.extend(
            generation.filter(|&g| g <= MAX_GENERATION && wal_path(dir, g).ends_with(&name)),
        );
    }
    generations.sort_unstable();
    Ok(generations)
}

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
    /// Seal a checkpoint segment and install a snapshot (moving the WAL
    /// to its next generation) after this many settled payments. Consumed
    /// by the runtime's durable node driver.
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
    /// The longest valid record prefix of the WAL generations, decoded, in
    /// log order.
    pub records: Vec<WalRecord>,
}

/// One queued install for the persistent worker thread.
struct InstallJob {
    dir: PathBuf,
    segment: Option<(u32, Vec<Vec<u8>>)>,
    residual: Vec<u8>,
    /// The superseded writer: the worker fsyncs through its fd and drops
    /// it — even the `close(2)` stays off the settle path.
    old_log: WalWriter,
    /// The generation the settle thread now appends to; `old_log` was on
    /// `live - 1`.
    live: u64,
    policy: GroupCommit,
    hook: StepHook,
}

impl InstallJob {
    fn run(self) -> InstallDone {
        let InstallJob { dir, segment, residual, old_log, live, policy, hook } = self;
        let started = Instant::now();
        match run_install(&dir, live, old_log, segment.as_ref(), &residual, &hook) {
            Ok(()) => InstallDone {
                result: Ok(started.elapsed().as_nanos() as u64),
                spare: make_spare(&dir, live + 1, policy).ok(),
            },
            Err(e) => InstallDone { result: Err(e), spare: None },
        }
    }
}

/// What one install job reports back.
struct InstallDone {
    /// The install's wall time in nanoseconds, or why it failed.
    result: std::io::Result<u64>,
    /// The next spare, pre-created after a successful install.
    spare: Option<WalWriter>,
}

/// A step of an install, in the order the worker completes them: the
/// writer swap, each superseded generation's fsync, the seal, the
/// snapshot's staging write and its rename, each generation's deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum Step {
    Swapped,
    Synced(u64),
    Sealed,
    Staged,
    Installed,
    Deleted(u64),
}

/// Runs after each install [`Step`]. In tests a hook may fail one, which
/// stops the job right there, as a crash would; otherwise it is empty.
#[derive(Clone, Default)]
struct StepHook(#[cfg(test)] Option<Arc<dyn Fn(Step) -> std::io::Result<()> + Send + Sync>>);

impl StepHook {
    fn reached(&self, step: Step) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(hook) = &self.0 {
            return hook(step);
        }
        let _ = step;
        Ok(())
    }
}

/// What the worker thread runs, in queue order.
enum Job {
    Install(Box<InstallJob>),
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
    /// directory is a reopen: its recovery reads, cuts and deletes the
    /// very files a still-running worker would be fsyncing or deleting
    /// under it.
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
    /// The live WAL's generation (see [`wal_path`]).
    generation: u64,
    cfg: StoreConfig,
    /// Spawned at open (thread spawn is too slow to pay on the settle
    /// path); `None` only after the worker died, until the next install
    /// re-spawns it.
    worker: Option<InstallWorker>,
    /// True while an install job is queued or running on the worker.
    pending: bool,
    /// True while a group-commit job is queued or running on the worker.
    committing: bool,
    /// Pre-created generation `generation + 1`; the next install swaps
    /// to it without touching the filesystem.
    spare: Option<WalWriter>,
    /// Dups of the superseded generations' fds, from the swap until an
    /// install reports them fsynced: an inline fsync of the live
    /// generation fsyncs these first, or a power loss could tear an older
    /// generation and recovery would cut the live one's records away.
    superseded: Vec<File>,
    /// Set when a snapshot install failed; compaction has stopped (the
    /// WAL keeps growing) even though the WAL writer itself is fine.
    install_failed: bool,
    /// Set once a step boundary reported the WAL writer degraded.
    wal_failed: bool,
    obs: Option<StoreObs>,
    hook: StepHook,
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage").field("dir", &self.dir).field("wal_len", &self.wal.len()).finish()
    }
}

impl Storage {
    /// Opens (creating if necessary) the store under `dir` and recovers
    /// its contents: the installed snapshot, the sealed segment chain and
    /// the longest valid record prefix of the WAL generations, replayed in
    /// ascending order. The first generation with an invalid tail, or
    /// with a record that fails to *decode* (CRC-valid but semantically
    /// foreign — version skew or software fault), is cut there, and every
    /// later generation is deleted.
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
        let snapshot = snapshot::read_snapshot(&dir)?;
        let checkpoints = checkpoint::read_segments(&dir)?;
        let (wal, generation, records) = recover_wal(&dir, group_commit_of(&cfg))?;
        // Pre-create the first install's spare and spawn the install
        // worker now, off the settle path (thread spawn costs ~100 µs —
        // paid here, at recovery, instead of at the first install).
        let spare = make_spare(&dir, generation + 1, group_commit_of(&cfg)).ok();
        let storage = Storage {
            dir,
            wal,
            generation,
            cfg,
            worker: Some(InstallWorker::spawn()?),
            pending: false,
            committing: false,
            spare,
            superseded: Vec::new(),
            install_failed: false,
            wal_failed: false,
            obs: None,
            hook: StepHook::default(),
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
            self.sync();
        }
    }

    /// The replica's step boundary: hands buffered frames to the OS (one
    /// `write(2)`) — after this, an in-process crash loses nothing. Then
    /// folds in the outcome of a finished group commit (a failed fsync
    /// degrades the WAL writer), reports a degraded writer to the health
    /// gauge and, when the [`GroupCommit`] policy is due and no commit is
    /// in flight, queues the next one on the worker. This thread never
    /// waits for an fsync here.
    pub fn flush_writes(&mut self) {
        self.wal.flush_writes();
        self.poll_commit();
        self.note_wal_health();
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
            self.sync_inline();
        }
    }

    /// Reports a WAL writer that went degraded — a failed `write(2)` or
    /// group-commit fsync, or an oversized record — once: the gauge turns
    /// 0 and `store.wal.fail` is recorded. The writer drops every later
    /// record and never recovers, so neither does the gauge.
    fn note_wal_health(&mut self) {
        if self.wal_failed || self.wal.health().is_ok() {
            return;
        }
        self.wal_failed = true;
        if let Some(obs) = &self.obs {
            obs.store_healthy.set(0);
            obs.flight.event("store.wal.fail", 0, 0);
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
        self.sync_inline();
    }

    /// Fsyncs every superseded generation not yet known to be durable,
    /// then the live one. A failed fsync degrades the WAL writer, as a
    /// failed group commit does.
    fn sync_inline(&mut self) {
        for file in std::mem::take(&mut self.superseded) {
            let started = Instant::now();
            if let Err(e) = file.sync_data() {
                self.wal.finish_commit(Err(e));
                return;
            }
            if let Some(obs) = &self.obs {
                obs.fsync_nanos.record(started.elapsed().as_nanos() as u64);
            }
        }
        self.wal.sync();
    }

    /// Starts an asynchronous snapshot install: optionally seals
    /// `segment` (index, checkpoint-record payloads) and installs
    /// `residual` as the snapshot, off the calling thread.
    ///
    /// The settle thread pays one buffered `write(2)` and a writer swap
    /// to the pre-created spare, the next WAL generation — **no
    /// filesystem metadata operation** (a `creat(2)` would stall behind
    /// the filesystem journal while the worker's fsyncs are committing
    /// it). The worker then fsyncs the superseded generations, seals,
    /// installs, deletes them and pre-creates the next spare. Only after
    /// a failed install, which leaves no spare, is the next generation
    /// created here.
    ///
    /// Returns `false` (and does nothing) while a previous install is
    /// still in flight — the caller retries at its next snapshot
    /// threshold. Otherwise returns `true`: either the install is in
    /// flight ([`Storage::installing`]) or it failed before it started
    /// (the WAL is degraded, or creating the next generation or a worker
    /// re-spawn failed) and nothing was sealed — [`Storage::healthy`]
    /// then reports `false`.
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

    /// Swaps the WAL to its next generation and hands the install to the
    /// worker; `None` if the install failed before it started.
    fn queue_install(
        &mut self,
        segment: Option<(u32, Vec<Vec<u8>>)>,
        residual: Vec<u8>,
    ) -> Option<()> {
        if self.worker.is_none() {
            // A group commit the dead worker took with it fails here.
            self.poll_commit();
            self.worker = Some(InstallWorker::spawn().ok()?);
        }
        // Every journaled frame must reach the OS before the swap: the
        // superseded generation is never written again. The *fsync*
        // making it power-loss durable is the worker's job (see
        // `run_install`).
        self.wal.flush_writes();
        self.wal.health().ok()?;
        let superseded = self.wal.try_clone_file().ok()?;
        let policy = group_commit_of(&self.cfg);
        let mut fresh = match self.spare.take() {
            Some(spare) => spare,
            None => make_spare(&self.dir, self.generation + 1, policy.clone()).ok()?,
        };
        if let Some(obs) = &self.obs {
            fresh.attach_obs(obs.clone());
            obs.wal_bytes.set(fresh.len());
        }
        let old_log = std::mem::replace(&mut self.wal, fresh);
        self.superseded.push(superseded);
        self.generation += 1;
        let job = Job::Install(Box::new(InstallJob {
            dir: self.dir.clone(),
            segment,
            residual,
            old_log,
            live: self.generation,
            policy,
            hook: self.hook.clone(),
        }));
        if self.worker.as_ref()?.jobs.send(job).is_err() {
            // The worker thread died (it never does barring a panic). The
            // superseded generation stays on disk until the next install
            // fsyncs and deletes it.
            self.worker = None;
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
        let done = match self.worker.as_ref().map(|w| w.results.try_recv()) {
            Some(Ok(done)) => Some(done),
            Some(Err(TryRecvError::Empty)) => return None,
            Some(Err(TryRecvError::Disconnected)) | None => None,
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
        let done = self.worker.as_ref().and_then(|w| w.results.recv().ok());
        Some(self.complete_install(done))
    }

    /// Folds in the in-flight install's report; `None` means the worker
    /// died with the job.
    fn complete_install(&mut self, done: Option<InstallDone>) -> std::io::Result<()> {
        self.pending = false;
        let InstallDone { result, spare } = done.unwrap_or_else(|| {
            self.worker = None;
            InstallDone { result: Err(std::io::Error::other("install worker died")), spare: None }
        });
        self.spare = spare;
        if result.is_ok() {
            // The worker fsynced every generation below the live one.
            self.superseded.clear();
        }
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
    /// later success re-heals and says so — the gauge only if the WAL
    /// writer is healthy too.
    fn note_install_result(&mut self, failed: bool) {
        let was_failed = self.install_failed;
        self.install_failed = failed;
        let healthy = self.healthy();
        let Some(obs) = &self.obs else { return };
        if failed {
            obs.store_healthy.set(0);
            if !was_failed {
                obs.flight.event("store.snapshot.fail", 0, 0);
            }
        } else if was_failed {
            // The re-heal path: compaction resumed.
            obs.store_healthy.set(u64::from(healthy));
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

/// [`Storage::open`]'s WAL half: replays the generations under `dir` in
/// ascending order and opens the writer on the last one that survives (a
/// fresh directory's generation 0). The first generation that is torn,
/// headerless or holds an undecodable record is cut there, and every
/// later one is deleted: records after a hole would replay a gapped
/// history.
fn recover_wal(
    dir: &Path,
    policy: GroupCommit,
) -> std::io::Result<(WalWriter, u64, Vec<WalRecord>)> {
    let mut records = Vec::new();
    let mut generations = wal_generations(dir)?.into_iter();
    let (mut live, mut cut) = (0, 0);
    for generation in generations.by_ref() {
        let path = wal_path(dir, generation);
        let RecoveredWal { payloads, valid_len } = wal::read_wal(&path)?;
        // A crash can leave a generation's tail (or a spare's header) in
        // the page cache only. It must be durable before a later
        // generation takes new records: a power loss that tore it would
        // cut those records away with it.
        let file = File::open(&path)?;
        file.sync_all()?;
        (live, cut) = (generation, valid_len.min(WAL_HEADER_LEN));
        for payload in &payloads {
            let Ok(record) = decode_exact::<WalRecord>(payload) else { break };
            records.push(record);
            cut += (FRAME_HEADER_LEN + payload.len()) as u64;
        }
        // A header is written before any record, so a generation without
        // one lost its records to a crash as surely as a torn one did.
        if valid_len == 0 || cut != file.metadata()?.len() {
            break;
        }
    }
    let later: Vec<u64> = generations.collect();
    for &generation in &later {
        std::fs::remove_file(wal_path(dir, generation))?;
    }
    if !later.is_empty() {
        // Durable before the cut generation takes new records.
        File::open(dir)?.sync_all()?;
    }
    Ok((WalWriter::open_at(&wal_path(dir, live), cut, policy)?, live, records))
}

/// The worker half of an asynchronous install, after the settle thread
/// swapped its writer to generation `live`. Runs entirely without the
/// storage lock: it touches only files the appending thread never writes
/// (the superseded generations, the checkpoint directory and the snapshot
/// staging path).
///
/// Ordering is what makes the crash windows safe: every superseded
/// generation is made durable first (the records whose group commit had
/// not fired yet), the segment seals second (an orphan segment is ignored
/// until a snapshot references it), the residual snapshot installs third
/// (atomic rename), and only then are the superseded generations deleted
/// (until that point their records replay idempotently over the new
/// snapshot). Whatever a crash leaves, recovery replays in order.
///
/// An error therefore guarantees the previous snapshot chain is intact:
/// a failed deletion — the one step *after* the chain advanced — is
/// deliberately tolerated, so callers may treat `Err` as "nothing was
/// installed".
fn run_install(
    dir: &Path,
    live: u64,
    old_log: WalWriter,
    segment: Option<&(u32, Vec<Vec<u8>>)>,
    residual: &[u8],
    hook: &StepHook,
) -> std::io::Result<()> {
    hook.reached(Step::Swapped)?;
    // The shipped writer's fd closes here too — off-thread.
    old_log.into_file().sync_all()?;
    hook.reached(Step::Synced(live - 1))?;
    // More than one generation is superseded only after a failed install.
    let superseded: Vec<u64> = wal_generations(dir)?.into_iter().filter(|&g| g < live).collect();
    for &generation in superseded.iter().filter(|&&g| g < live - 1) {
        File::open(wal_path(dir, generation))?.sync_all()?;
        hook.reached(Step::Synced(generation))?;
    }
    if let Some((index, records)) = segment {
        checkpoint::seal_segment(dir, *index, records)?;
    }
    hook.reached(Step::Sealed)?;
    snapshot::write_snapshot_tmp(dir, residual)?;
    hook.reached(Step::Staged)?;
    snapshot::install_snapshot_tmp(dir)?;
    hook.reached(Step::Installed)?;
    for generation in superseded {
        let _ = std::fs::remove_file(wal_path(dir, generation));
        hook.reached(Step::Deleted(generation))?;
    }
    Ok(())
}

/// Pre-creates WAL generation `generation` as the next install's spare:
/// header written, directory entry fsynced. The dirent fsync matters —
/// group commit fsyncs file *data*, so without it a power loss could
/// drop the whole file after records were acknowledged into it. (It also
/// makes an install's deletions durable.)
fn make_spare(dir: &Path, generation: u64, policy: GroupCommit) -> std::io::Result<WalWriter> {
    let spare = WalWriter::open_rotated(&wal_path(dir, generation), policy)?;
    File::open(dir)?.sync_all()?;
    Ok(spare)
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
            let recovered = wal::read_wal(&wal_path(&dir, 0)).unwrap();
            let mut w = wal::WalWriter::open_at(
                &wal_path(&dir, 0),
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
        // The install swaps the writer to generation 1, then stops before
        // its worker makes any step past the swap.
        s.hook = stop_at(Step::Swapped);
        assert!(s.begin_install(None, b"never installed".to_vec()));
        assert!(s.drain_install().expect("in flight").is_err());
        s.append(&settle(1));
        s.sync();
        drop(s);
        assert_eq!(wal_generations(&dir).unwrap(), vec![0, 1]);
        let (mut s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert!(rec.snapshot.is_none(), "the stopped install left no snapshot");
        assert_eq!(
            rec.records,
            vec![settle(0), settle(1)],
            "both generations replay, the older first"
        );
        // The next install folds the superseded generations away.
        assert!(s.begin_install(None, b"installed".to_vec()));
        s.drain_install().expect("in flight").unwrap();
        drop(s);
        assert_eq!(wal_generations(&dir).unwrap(), vec![2, 3], "the live one and its spare");
        let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"installed"[..]));
        assert!(rec.records.is_empty());
    }

    #[test]
    fn crash_between_writer_swap_and_worker_renames_replays_in_order() {
        let dir = tmp_dir("swap-crash-window");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        s.append(&settle(0));
        s.sync();
        drop(s);
        // Stage the crash window by hand: the settle thread swapped to the
        // pre-created spare (so the newest records sit in generation 1),
        // but the worker never ran.
        {
            let spare = wal::read_wal(&wal_path(&dir, 1)).unwrap();
            assert_eq!(spare.payloads.len(), 0, "open pre-creates an empty spare");
            let mut w =
                WalWriter::open_at(&wal_path(&dir, 1), spare.valid_len, GroupCommit::default())
                    .unwrap();
            w.append(&settle(1).to_wire_bytes());
            w.sync();
        }
        let (s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            rec.records,
            vec![settle(0), settle(1)],
            "the spare's records are the newest generation: they replay last"
        );
        assert!(
            s.spare.as_ref().is_some_and(WalWriter::is_empty),
            "the reopen makes a fresh spare"
        );
        drop(s);
        assert_eq!(wal_generations(&dir).unwrap(), vec![0, 1, 2]);
        let spare = wal::read_wal(&wal_path(&dir, 2)).unwrap();
        assert_eq!(spare.payloads.len(), 0, "the new spare is empty");
    }

    /// A hook that fails the install at `stop`, as a crash there would
    /// end it.
    fn stop_at(stop: Step) -> StepHook {
        StepHook(Some(Arc::new(move |step| {
            if step == stop {
                Err(std::io::Error::other(format!("crash after {step:?}")))
            } else {
                Ok(())
            }
        })))
    }

    /// The install crash matrix. Every row runs the same history: records
    /// 0–1 in generation 0; install A swaps to generation 1 and fails at
    /// `a_stops`, leaving no spare; records 2–3; install B creates
    /// generation 2 inline, swaps to it and crashes at `b_crashes` (`None`:
    /// after its spare is created, i.e. complete); records 4–5; the store
    /// is dropped. B's steps run: fsync 1 (the shipped writer), fsync 0,
    /// seal, stage, rename, delete 0, delete 1. Recovery must find the
    /// row's snapshot, segment chain and exact record suffix `first..6`,
    /// an empty spare, and a layout the next install compacts to the live
    /// generation and its spare.
    #[test]
    fn install_crash_matrix_recovers_snapshot_chain_and_records() {
        type Row = (Step, Option<Step>, Option<&'static [u8]>, &'static [u8], u64);
        let rows: [Row; 11] = [
            (Step::Swapped, Some(Step::Swapped), None, b"", 0),
            (Step::Swapped, Some(Step::Synced(1)), None, b"", 0),
            (Step::Swapped, Some(Step::Synced(0)), None, b"", 0),
            // An orphan segment is in the chain; the snapshot that would
            // reference it is not.
            (Step::Swapped, Some(Step::Sealed), None, b"b", 0),
            (Step::Swapped, Some(Step::Staged), None, b"b", 0),
            // Superseded records replay over the snapshot that covers them.
            (Step::Swapped, Some(Step::Installed), Some(b"B"), b"b", 0),
            (Step::Swapped, Some(Step::Deleted(0)), Some(b"B"), b"b", 2),
            (Step::Swapped, Some(Step::Deleted(1)), Some(b"B"), b"b", 4),
            (Step::Swapped, None, Some(b"B"), b"b", 4),
            // A sealed its segment before failing: B reseals it.
            (Step::Sealed, Some(Step::Swapped), None, b"a", 0),
            (Step::Sealed, None, Some(b"B"), b"b", 4),
        ];
        for (i, (a_stops, b_crashes, snapshot, chain, first)) in rows.into_iter().enumerate() {
            let row = format!("row {i}: A stops after {a_stops:?}, B crashes after {b_crashes:?}");
            let dir = tmp_dir(&format!("crash-matrix-{i}"));
            let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
            let install =
                |s: &mut Storage, stop: Option<Step>, seq, segment: &[u8], residual: &[u8]| {
                    s.append(&settle(seq));
                    s.append(&settle(seq + 1));
                    s.sync();
                    s.hook = stop.map_or_else(StepHook::default, stop_at);
                    assert!(s.begin_install(Some((0, vec![segment.to_vec()])), residual.to_vec()));
                    assert!(s.installing(), "{row}");
                    s.drain_install().expect("in flight")
                };
            assert!(install(&mut s, Some(a_stops), 0, b"a", b"A").is_err(), "{row}");
            let b = install(&mut s, b_crashes, 2, b"b", b"B");
            assert_eq!(b.is_ok(), b_crashes.is_none(), "{row}");
            s.append(&settle(4));
            s.append(&settle(5));
            s.sync();
            drop(s);
            let chain: Vec<Vec<Vec<u8>>> =
                if chain.is_empty() { vec![] } else { vec![vec![chain.to_vec()]] };
            let (mut s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
            assert_eq!(rec.snapshot.as_deref(), snapshot, "{row}");
            assert_eq!(rec.checkpoints, chain, "{row}");
            assert_eq!(rec.records, (first..6).map(settle).collect::<Vec<_>>(), "{row}");
            assert!(s.spare.as_ref().is_some_and(WalWriter::is_empty), "{row}: a fresh spare");
            // The recovered layout takes the next install like any other.
            s.append(&settle(6));
            assert!(s.begin_install(None, b"C".to_vec()));
            s.append(&settle(7));
            s.sync();
            s.drain_install().expect("in flight").unwrap();
            drop(s);
            assert_eq!(
                wal_generations(&dir).unwrap().len(),
                2,
                "{row}: the live one and its spare"
            );
            let (_s, rec) = Storage::open(&dir, StoreConfig::default()).unwrap();
            assert_eq!(rec.snapshot.as_deref(), Some(&b"C"[..]), "{row}");
            assert_eq!(rec.checkpoints, chain, "{row}");
            assert_eq!(rec.records, vec![settle(7)], "{row}");
        }
    }

    #[test]
    fn hostile_directory_entries_are_ignored_or_cut() {
        // A valid WAL holding a record the store under test never wrote:
        // replayed from anywhere, it would show.
        let stray = {
            let dir = tmp_dir("hostile-stray");
            let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
            s.append(&settle(9));
            s.sync();
            drop(s);
            std::fs::read(wal_path(&dir, 0)).unwrap()
        };
        let generation = |g: u64| wal_path(Path::new(""), g).display().to_string();
        let check = |case: usize, files: &[(String, &[u8])], kept: u64| {
            let dir = tmp_dir(&format!("hostile-{case}"));
            let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
            for seq in 0..3 {
                s.append(&settle(seq));
            }
            s.sync();
            drop(s);
            for (name, bytes) in files {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
            for open in 0..2 {
                let (_s, rec) = Storage::open(&dir, StoreConfig::default())
                    .unwrap_or_else(|e| panic!("{files:?}, open {open}: {e}"));
                let prefix: Vec<_> = (0..kept).map(settle).collect();
                assert_eq!(rec.records, prefix, "{files:?}, open {open}");
            }
        };
        let ignored = [
            "wal-xyz.bin".to_owned(),
            "wal-99999999999999999999.bin".to_owned(),
            generation(u64::MAX),
            "wal-7.bin".to_owned(),
            "wal.merge.tmp".to_owned(),
            "wal.bin".to_owned(),
        ];
        for (case, name) in ignored.into_iter().enumerate() {
            check(case, &[(name, &stray)], 3);
        }
        // An empty or headerless generation lost its records: replay stops
        // there, and the later generation is deleted.
        let cut: [(u64, &[u8], u64); 3] = [(1, b"", 3), (1, b"not a wal", 3), (0, b"ASTRO", 0)];
        for (case, (g, bytes, kept)) in cut.into_iter().enumerate() {
            check(10 + case, &[(generation(g), bytes), (generation(2), &stray)], kept);
        }
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
    fn an_inline_fsync_mid_install_covers_the_superseded_generation_first() {
        // Both inline fsyncs run while the worker holds the install right
        // after the swap, before its own fsync of generation 0: `sync()`,
        // and the own-tag fsync under `sync_on_broadcast`.
        for own_tag in [false, true] {
            let dir = tmp_dir(&format!("superseded-sync-{own_tag}"));
            let cfg = StoreConfig { sync_on_broadcast: true, ..StoreConfig::default() };
            let (mut s, _) = Storage::open(&dir, cfg).unwrap();
            let registry = Registry::new();
            s.attach_obs(StoreObs::for_replica(&registry, 0));
            let (release, gate) = std::sync::mpsc::channel::<()>();
            let gate = Mutex::new(gate);
            s.hook = StepHook(Some(Arc::new(move |step| {
                if step == Step::Swapped {
                    let _ = gate.lock().unwrap().recv_timeout(Duration::from_secs(10));
                }
                Ok(())
            })));
            s.append(&settle(0));
            assert!(s.begin_install(None, b"snapshot".to_vec()));
            if own_tag {
                s.append(&WalRecord::OwnTag { tag: 7 });
            } else {
                s.append(&settle(1));
                s.sync();
            }
            assert_eq!(fsyncs(&registry), 2, "own tag {own_tag}: generation 0, then 1");
            // Generation 0 is durable now: a second inline fsync skips it.
            s.append(&settle(2));
            s.sync();
            assert_eq!(fsyncs(&registry), 3, "own tag {own_tag}");
            release.send(()).unwrap();
            s.drain_install().expect("in flight").unwrap();
            assert!(s.healthy());
        }
    }

    #[test]
    fn failed_group_commit_degrades_the_store_at_the_next_step() {
        let dir = tmp_dir("commit-fails");
        let cfg = StoreConfig { sync_every_records: 1, ..StoreConfig::default() };
        let (mut s, _) = Storage::open(&dir, cfg).unwrap();
        let registry = Registry::new();
        s.attach_obs(StoreObs::for_replica(&registry, 0));
        s.wal.commit_hook =
            Some(wal::CommitHook(Arc::new(|| Err(std::io::Error::other("injected fsync error")))));
        s.append(&settle(0));
        s.flush_writes();
        assert!(s.committing, "the step boundary queued a commit");
        assert!(s.healthy(), "its outcome folds in at a later step boundary");
        assert_eq!(health_gauge(&registry), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.committing {
            assert!(Instant::now() < deadline, "the group commit never reported");
            std::thread::sleep(Duration::from_millis(1));
            s.flush_writes();
        }
        assert_eq!(s.wal.health().unwrap_err().to_string(), "injected fsync error");
        assert!(!s.healthy());
        assert_eq!(health_gauge(&registry), 0, "/metrics shows what healthy() says");
        // Degraded exactly as by an inline failure: later appends are
        // dropped, and an install fails before it starts.
        let len = s.wal.len();
        s.append(&settle(1));
        s.flush_writes();
        assert_eq!(s.wal.len(), len, "the append was dropped");
        assert!(s.begin_install(Some((0, vec![b"lost".to_vec()])), b"never".to_vec()));
        assert!(!s.installing(), "nothing was handed to the worker");
        assert_eq!(health_gauge(&registry), 0);
        assert_eq!(
            flight_events(&registry),
            ["store.wal.fail", "store.snapshot.fail"],
            "the writer's failure is recorded once, at the step boundary that saw it"
        );
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
    fn a_later_install_success_does_not_reheal_a_degraded_wal() {
        let dir = tmp_dir("no-reheal");
        let (mut s, _) = Storage::open(&dir, StoreConfig::default()).unwrap();
        let registry = Registry::new();
        s.attach_obs(StoreObs::for_replica(&registry, 0));
        // An earlier install failed; the next one is queued while the
        // writer is healthy, and the writer degrades before it finishes.
        s.note_install_result(true);
        s.append(&settle(0));
        assert!(s.begin_install(None, b"snapshot".to_vec()));
        s.append(&WalRecord::Cert { bytes: vec![0; wal::MAX_RECORD_LEN] });
        s.flush_writes();
        wait_install(&mut s).unwrap();
        assert!(!s.healthy());
        assert_eq!(health_gauge(&registry), 0, "compaction resumed, the WAL did not");
        assert_eq!(
            flight_events(&registry),
            ["store.snapshot.fail", "store.wal.fail", "store.snapshot.heal"]
        );
    }

    fn health_gauge(registry: &Registry) -> u64 {
        registry.snapshot().gauge("health.r0.store").expect("the store exports its health")
    }

    fn flight_events(registry: &Registry) -> Vec<&'static str> {
        registry.flight(0).events().iter().map(|e| e.what).collect()
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
