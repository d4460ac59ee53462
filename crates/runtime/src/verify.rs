//! The runtime's parallel signature-verification pipeline.
//!
//! A [`VerifyPool`] owns a fixed set of verifier threads shared by every
//! replica thread of a [`crate::Cluster`]. The replica's event loop
//! ([`astro_core::Replica::preverify`]) enumerates the signature checks an
//! inbound burst of messages still needs and submits them as **one
//! super-batch job** — ACK signatures, commit quorum proofs, CREDITs and
//! dependency-certificate proofs across *all* pending BRB instances of the
//! burst amortize into a single Schnorr batch verification (one
//! multi-scalar multiplication) on a worker thread, with
//! [`astro_crypto::schnorr::find_invalid`] bisection locating forgeries on
//! failure. Only what a quorum still lacks is enumerated: a broadcaster's
//! first `quorum − 1` peer ACKs per instance, a representative's first
//! `f` peer CREDITs per sub-batch. A certificate reaches the pool once
//! per replica: with the PREPARE that carries it. A COMMIT of a payload
//! the replica already ACKed enumerates only its quorum proof. A
//! signature the state machine uses without having been enumerated is
//! verified on the replica thread, as in serial mode.
//!
//! Verdicts land in a shared [`VerdictCache`] keyed by the digest of
//! `(signer, context, signature)`; the replica's
//! [`astro_types::SchnorrAuthenticator`] consults the cache before any
//! curve work, so by the time a message is handled its signatures cost a
//! hash lookup. The event loop keeps draining transport while workers
//! verify — curve arithmetic overlaps I/O and scales with cores — and
//! messages re-enter the replica step strictly in arrival order
//! ([`Ticket`] completion gates the pending queue), so settlement is
//! byte-identical to the serial path: verification is a pure function of
//! the checked bytes, only *where* it runs changes.

use astro_crypto::schnorr::{batch_verify, find_invalid};
use astro_obs::{Gauge, Histogram, Registry};
use astro_types::{KeyBook, SigCheck, VerdictCache};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Verdicts the cache retains; far above a burst's working set, bounded
/// so a long-running replica cannot grow without limit. An evicted
/// verdict is recomputed on demand.
const VERDICT_CACHE_CAP: usize = 1 << 16;

/// How a cluster verifies the Schnorr signatures its replicas receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Verify on the replica's event-loop thread, exactly where the state
    /// machine asks (the baseline the determinism tests compare against).
    Serial,
    /// Pre-verify inbound bursts on a shared pool of worker threads.
    Pooled {
        /// Number of verifier threads.
        threads: usize,
    },
}

impl VerifyMode {
    /// Pooled with a thread count fitted to the machine: the available
    /// parallelism, at least 2 (so verification overlaps I/O even on
    /// small machines), at most 8 (quorum-sized batches stop scaling).
    pub fn auto() -> Self {
        let threads =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 8);
        VerifyMode::Pooled { threads }
    }

    /// Builds the pool for this mode against `book` (the *protocol
    /// signing* key book — the keys ACKs, commit proofs, and certificates
    /// verify against).
    pub(crate) fn build(&self, book: KeyBook) -> Option<Arc<VerifyPool>> {
        match self {
            VerifyMode::Serial => None,
            VerifyMode::Pooled { threads } => Some(VerifyPool::start(*threads, book)),
        }
    }
}

impl Default for VerifyMode {
    fn default() -> Self {
        VerifyMode::auto()
    }
}

/// Completion handle of one submitted job. Cloned across every message of
/// the burst the job covers; the driver handles a message only once its
/// ticket is done, preserving arrival order.
#[derive(Clone)]
pub struct Ticket(Arc<TicketInner>);

struct TicketInner {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Self {
        Ticket(Arc::new(TicketInner { done: Mutex::new(false), cv: Condvar::new() }))
    }

    /// True once the job's verdicts are in the cache.
    pub fn is_done(&self) -> bool {
        *lock(&self.0.done)
    }

    /// Blocks until the job completes.
    pub fn wait(&self) {
        let done = lock(&self.0.done);
        drop(self.0.cv.wait_while(done, |done| !*done));
    }

    fn complete(&self) {
        *lock(&self.0.done) = true;
        self.0.cv.notify_all();
    }
}

struct Job {
    items: Vec<SigCheck>,
    ticket: Ticket,
}

/// Metric handles of the verification pipeline, resolved once when a
/// registry is attached. Without one, nothing is constructed and the pool
/// pays a single pointer load per job.
struct PoolObs {
    /// Super-batch jobs submitted but not yet picked up by a worker.
    queue_depth: Gauge,
    /// Signature checks per submitted super-batch.
    batch_checks: Histogram,
    /// Wall time of one super-batch verification (the multi-scalar
    /// multiplication plus any bisection on failure).
    batch_nanos: Histogram,
    /// Verdict-cache hits observed so far (sampled after each job).
    verdict_hits: Gauge,
    /// Verdict-cache misses observed so far (sampled after each job).
    verdict_misses: Gauge,
}

/// A fixed pool of verifier threads plus the verdict cache they fill.
pub struct VerifyPool {
    jobs: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<VerdictCache>,
    obs: Arc<OnceLock<PoolObs>>,
}

impl VerifyPool {
    /// Starts `threads` workers verifying against `book`.
    pub fn start(threads: usize, book: KeyBook) -> Arc<VerifyPool> {
        let cache = Arc::new(VerdictCache::new(VERDICT_CACHE_CAP));
        let obs: Arc<OnceLock<PoolObs>> = Arc::new(OnceLock::new());
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let book = book.clone();
                let cache = Arc::clone(&cache);
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("astro-verify-{i}"))
                    .spawn(move || worker_main(&rx, &book, &cache, &obs))
                    .expect("spawn verifier thread")
            })
            .collect();
        Arc::new(VerifyPool { jobs: tx, workers, cache, obs })
    }

    /// Resolves the pool's `verify.*` metric handles from `registry`;
    /// queue depth, super-batch sizes and latencies, and verdict-cache
    /// hit rates are recorded from here on. First attach wins.
    pub fn attach_registry(&self, registry: &Registry) {
        let _ = self.obs.set(PoolObs {
            queue_depth: registry.gauge("verify.queue_depth"),
            batch_checks: registry.histogram("verify.batch_checks"),
            batch_nanos: registry.histogram("verify.batch_nanos"),
            verdict_hits: registry.gauge("verify.verdict_cache_hits"),
            verdict_misses: registry.gauge("verify.verdict_cache_misses"),
        });
    }

    /// The verdict cache to attach to the replicas' authenticators
    /// ([`astro_types::SchnorrAuthenticator::with_cache`]).
    pub fn cache(&self) -> Arc<VerdictCache> {
        Arc::clone(&self.cache)
    }

    /// Submits one super-batch of checks; the returned ticket completes
    /// when every verdict is cached. Workers steal whole jobs, so
    /// distinct replicas' bursts verify concurrently.
    pub fn submit(&self, items: Vec<SigCheck>) -> Ticket {
        let ticket = Ticket::new();
        if items.is_empty() {
            ticket.complete();
            return ticket;
        }
        if let Some(obs) = self.obs.get() {
            obs.batch_checks.record(items.len() as u64);
            obs.queue_depth.add(1);
        }
        if self.jobs.send(Job { items, ticket: ticket.clone() }).is_err() {
            // The pool is shutting down: the driver falls back to the
            // authenticator's own (cache-missing, still-batched)
            // verification path.
            if let Some(obs) = self.obs.get() {
                obs.queue_depth.sub(1);
            }
            ticket.complete();
        }
        ticket
    }
}

impl Drop for VerifyPool {
    fn drop(&mut self) {
        // Disconnect the job channel; workers drain what is queued
        // (completing outstanding tickets) and exit.
        let (tx, _) = channel();
        drop(std::mem::replace(&mut self.jobs, tx));
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(
    rx: &Arc<Mutex<Receiver<Job>>>,
    book: &KeyBook,
    cache: &VerdictCache,
    obs: &OnceLock<PoolObs>,
) {
    loop {
        // `std::sync::mpsc::Receiver` is single-consumer, so workers
        // share it behind a mutex.
        // One idle worker at a time blocks in `recv` holding the lock
        // (only one could dequeue anyway); the lock is released before
        // the curve work, so job *processing* runs fully in parallel.
        let job = lock(rx).recv();
        let Ok(Job { items, ticket }) = job else { return };
        match obs.get() {
            Some(o) => {
                o.queue_depth.sub(1);
                let started = Instant::now();
                verify_job(book, cache, &items);
                o.batch_nanos.record(started.elapsed().as_nanos() as u64);
                o.verdict_hits.set(cache.hits());
                o.verdict_misses.set(cache.misses());
            }
            None => verify_job(book, cache, &items),
        }
        ticket.complete();
    }
}

/// Locks `mutex`, ignoring poison: every critical section here is a load,
/// a store or a `recv`, so a panicked holder leaves nothing half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Verifies one super-batch into the cache: resolve keys, skip verdicts
/// already cached (a signature the replica made for itself, one checked
/// for another replica of the process, or one re-sent by a peer, verifies
/// once per process), batch-verify the rest as one multi-scalar
/// multiplication, bisect on failure.
fn verify_job(book: &KeyBook, cache: &VerdictCache, items: &[SigCheck]) {
    let mut keys = Vec::with_capacity(items.len());
    let mut batch = Vec::with_capacity(items.len());
    for item in items {
        let key = item.cache_key();
        if cache.get(&key).is_some() {
            continue;
        }
        match book.key_of(item.signer) {
            Some(pk) => {
                keys.push(key);
                batch.push((&item.context[..], *pk, item.sig));
            }
            // An unknown signer can never verify.
            None => cache.insert(key, false),
        }
    }
    if batch.is_empty() {
        return;
    }
    if batch_verify(&batch) {
        for key in keys {
            cache.insert(key, true);
        }
    } else {
        let invalid = find_invalid(&batch);
        for (i, key) in keys.into_iter().enumerate() {
            cache.insert(key, !invalid.contains(&i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_types::{Authenticator, Keychain, ReplicaId, SchnorrAuthenticator};

    fn checks_from(chains: &[Keychain], context: &[u8]) -> Vec<SigCheck> {
        chains
            .iter()
            .map(|kc| SigCheck { signer: kc.id(), context: context.into(), sig: kc.sign(context) })
            .collect()
    }

    #[test]
    fn pool_verifies_batches_and_pinpoints_forgeries() {
        let chains = Keychain::deterministic_system(b"pool", 4);
        let pool = VerifyPool::start(2, chains[0].book().clone());
        let mut checks = checks_from(&chains, b"ctx");
        // Forge entry 2: replica 2's signature over different bytes.
        checks[2].sig = chains[2].sign(b"other");
        // And an unknown signer.
        checks.push(SigCheck {
            signer: ReplicaId(99),
            context: b"ctx".to_vec().into(),
            sig: chains[0].sign(b"ctx"),
        });
        let expected: Vec<bool> = vec![true, true, false, true, false];
        let keys: Vec<[u8; 32]> = checks.iter().map(SigCheck::cache_key).collect();
        pool.submit(checks).wait();
        let cache = pool.cache();
        let verdicts: Vec<bool> =
            keys.iter().map(|k| cache.get(k).expect("verdict cached")).collect();
        assert_eq!(verdicts, expected);
    }

    #[test]
    fn cached_verdicts_drive_the_authenticator() {
        let chains = Keychain::deterministic_system(b"pool-auth", 4);
        let pool = VerifyPool::start(1, chains[0].book().clone());
        let auth = SchnorrAuthenticator::with_cache(chains[0].clone(), pool.cache());
        let context = b"quorum context";
        let mut checks = checks_from(&chains, context);
        checks[1].sig = chains[1].sign(b"forged");
        let sigs: Vec<(ReplicaId, astro_crypto::Signature)> =
            checks.iter().map(|c| (c.signer, c.sig)).collect();
        pool.submit(checks).wait();
        // The authenticator answers from the cache — and agrees exactly
        // with what serial verification would say.
        let refs: Vec<(ReplicaId, &astro_crypto::Signature)> =
            sigs.iter().map(|(r, s)| (*r, s)).collect();
        assert!(!auth.verify_all(context, &refs));
        assert_eq!(auth.verify_each(context, &refs), [true, false, true, true]);
        let serial = SchnorrAuthenticator::new(chains[0].clone());
        assert_eq!(auth.verify_each(context, &refs), serial.verify_each(context, &refs));
    }

    #[test]
    fn empty_jobs_complete_immediately() {
        let chains = Keychain::deterministic_system(b"pool-empty", 4);
        let pool = VerifyPool::start(1, chains[0].book().clone());
        let ticket = pool.submit(Vec::new());
        assert!(ticket.is_done());
        ticket.wait();
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let chains = Keychain::deterministic_system(b"pool-drop", 4);
        let pool = VerifyPool::start(3, chains[0].book().clone());
        let ticket = pool.submit(checks_from(&chains, b"last job"));
        drop(pool);
        // Queued work was drained before the workers exited.
        assert!(ticket.is_done());
    }
}
