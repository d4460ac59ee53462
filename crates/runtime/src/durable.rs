//! Durable replicas: journaled state over `astro-store`, recovered from
//! disk on restart.
//!
//! A cluster built with [`ClusterBuilder::durable`](crate::ClusterBuilder::durable)
//! gives every replica a storage directory: the replica journals its
//! state-machine effects into a per-replica WAL (group commit), the driver
//! snapshots periodically (checkpoint segment + residual, installed off
//! the replica thread), and [`Cluster::restart_replica`](crate::Cluster::restart_replica)
//! brings a killed replica back from `snapshot + WAL` before it catches
//! up with its peers.
//!
//! What is durable: everything settlement-relevant — ledger (balances +
//! xlogs), the approval queue, Astro II's dependency replay-protection,
//! stuck set and held certificates, the replica's own broadcast tag
//! counter, and the BRB delivery cursors. What is deliberately not:
//! payments sitting in the unflushed client batch and broadcast instances
//! in flight at the moment of the crash — those are lost exactly as
//! messages on the wire are lost, and recovering them is the client-retry
//! / state-transfer story (paper Appendix A), not the storage layer's.

use crate::ClusterError;
use astro_core::journal::Residual;
use astro_core::Replica;
use astro_store::{SharedStorage, Storage, StoreConfig};
use astro_types::wire::{decode_exact, Wire};
use astro_types::Keychain;
use std::path::{Path, PathBuf};

/// Deterministic demo keychains for local clusters.
///
/// **Never deploy with these.** The key material derives from a fixed,
/// public seed baked into this function: *anyone* can derive every
/// replica's secret key, join the mesh, impersonate replicas, and sign
/// whatever they like. They exist so examples, tests, and benchmarks can
/// spin up a loopback cluster in one line; a deployment passes
/// pre-distributed key material (paper §III) to
/// [`ClusterBuilder::tcp_keychains`](crate::ClusterBuilder::tcp_keychains).
pub fn demo_keychains(n: usize) -> Vec<Keychain> {
    Keychain::deterministic_system(b"astro-runtime-tcp", n)
}

/// The deterministic seed Astro II signing keys derive from unless the
/// builder is given keychains; independent of the transport keychains.
pub(crate) const ASTRO2_SIGNING_SEED: &[u8] = b"astro-runtime-astro2";

/// A replica's storage and the snapshot policy run over it: journals flow
/// in through the replica's journal hook; every
/// [`StoreConfig::snapshot_every_settled`] settled payments the replica
/// seals its dirty-account delta (a checkpoint segment) plus a small
/// residual snapshot, and the store makes both durable **off the replica
/// thread** ([`Storage::begin_install`]) — the settle path pays a
/// group-commit fsync and a WAL rotation, never a full-state
/// serialization. Results fold back in at later step boundaries: success
/// prunes delivered BRB instances, failure re-baselines the watermarks so
/// the next seal re-exports from segment zero.
pub(crate) struct Durability {
    storage: SharedStorage,
    snapshot_every: usize,
    settled_since_snapshot: usize,
    /// Checkpoint segments *confirmed durable* so far (the next segment's
    /// index). Only advances when an install reports success — an
    /// in-flight install's target waits in [`Self::pending_segments`].
    segments: u64,
    /// The segment count the in-flight install will confirm, if any.
    pending_segments: Option<u64>,
}

impl Durability {
    /// Attaches `storage` as `node`'s journal; `segments` is how many
    /// sealed checkpoint segments the node was recovered from.
    fn new<R: Replica>(node: &mut R, storage: SharedStorage, segments: u64) -> Self {
        let snapshot_every = storage.with(|s| s.config().snapshot_every_settled).max(1);
        node.set_journal(Box::new(storage.clone()));
        Durability {
            storage,
            snapshot_every,
            settled_since_snapshot: 0,
            segments,
            pending_segments: None,
        }
    }

    /// Resolves the store's WAL / snapshot metric handles.
    pub(crate) fn attach_registry(&self, registry: &astro_obs::Registry, me: u32) {
        self.storage.with(|s| s.attach_obs(astro_store::StoreObs::for_replica(registry, me)));
    }

    /// Blocks until any in-flight snapshot install completes and folds
    /// its outcome in (prune on success, re-baseline on failure).
    pub(crate) fn drain_installs<R: Replica>(&mut self, node: &mut R) {
        let result = self.storage.drain_install();
        self.fold_install_result(node, result);
    }

    /// Clean stop: a threshold snapshot still in flight completes (so it
    /// is never lost to process exit), then everything journaled becomes
    /// durable. Not run on a simulated crash, which is the point of the
    /// simulation.
    pub(crate) fn stop<R: Replica>(&mut self, node: &mut R) {
        self.drain_installs(node);
        self.storage.sync();
    }

    fn fold_install_result<R: Replica>(
        &mut self,
        node: &mut R,
        result: Option<std::io::Result<()>>,
    ) {
        match result {
            Some(Ok(())) => {
                if let Some(confirmed) = self.pending_segments.take() {
                    self.segments = confirmed;
                }
                // The snapshot now holds every delivered instance's
                // effects: prune their BRB bookkeeping so broadcast-layer
                // memory stays bounded (ROADMAP's WAL-aware GC item).
                node.prune_delivered();
            }
            Some(Err(_)) => {
                // The install guarantees an error left the previous
                // snapshot chain intact (see `astro-store`), so `segments`
                // stands — but the failed seal's delta is now above the
                // node's watermarks without a durable segment holding it.
                // Re-baseline: the next seal exports full history as a
                // rewrite record set, which recovery applies over whatever
                // older segments say. The recovery WAL still has every
                // record (it is only deleted after a successful install);
                // the store reports health out of band.
                self.pending_segments = None;
                node.rebaseline();
            }
            None => {}
        }
    }

    /// The driver calls this after every step of `node` that `settled`
    /// payments.
    pub(crate) fn after_step<R: Replica>(&mut self, node: &mut R, settled: usize) {
        // Step boundary: the step's journal records reach the OS with one
        // write(2), so a kill between steps loses nothing (fsync stays
        // amortized by group commit).
        self.storage.flush_writes();
        self.settled_since_snapshot += settled;
        // Fold in any install that completed off-thread since last step.
        let polled = self.storage.poll_install();
        self.fold_install_result(node, polled);
        if node.take_snapshot_request() {
            // A catch-up install replaced the ledger wholesale (state in
            // memory no journal replay can reproduce): every account is
            // dirty again, so the next seal is a full rewrite — and it
            // must happen now, not at the next settled-count threshold.
            self.settled_since_snapshot = self.snapshot_every;
        }
        if self.settled_since_snapshot >= self.snapshot_every && !self.storage.installing() {
            // While an install is in flight the seal defers (the counter
            // keeps the threshold) — sealing on top of an unconfirmed
            // segment could reference an index that never becomes durable.
            self.settled_since_snapshot = 0;
            let records = node.seal_checkpoint();
            let segment = (!records.is_empty()).then_some((self.segments as u32, records));
            let new_segments = self.segments + u64::from(segment.is_some());
            let residual = node.residual_state(new_segments).to_wire_bytes();
            if self.storage.begin_install(segment, residual) {
                if self.storage.installing() {
                    // Async: the worker owns sealing + install; the result
                    // folds in at a later step boundary.
                    self.pending_segments = Some(new_segments);
                } else if self.storage.healthy() {
                    // Inline completion (memory backend).
                    self.segments = new_segments;
                    node.prune_delivered();
                } else {
                    // Inline failure (WAL already degraded, rotation
                    // failed): nothing was sealed.
                    node.rebaseline();
                }
            } else {
                // Refused (unreachable: `installing()` was just checked on
                // this thread) — but the seal above advanced the node's
                // watermarks, so never drop its records silently.
                node.rebaseline();
            }
        }
    }
}

/// Per-replica storage directory under the cluster root.
fn replica_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("replica-{i}"))
}

/// Opens replica `i`'s store under `root` and recovers `fresh` (a newly
/// constructed replica of the crashed incarnation's identity and config)
/// from `checkpoint segments + residual snapshot + WAL`.
pub(crate) fn recover<R: Replica>(
    root: &Path,
    i: usize,
    fresh: R,
    store_cfg: &StoreConfig,
) -> Result<(R, Durability), ClusterError> {
    let (storage, recovered) = Storage::open(replica_dir(root, i), store_cfg.clone())?;
    let (mut node, segments) = match &recovered.snapshot {
        Some(bytes) => {
            let residual: Residual<R::Local> =
                decode_exact(bytes).map_err(|_| ClusterError::Recovery("snapshot decode"))?;
            let segments = residual.sealed_segments;
            let node = fresh
                .restore_from_checkpoints(&recovered.checkpoints, &residual)
                .map_err(|_| ClusterError::Recovery("checkpoint chain invariants"))?;
            (node, segments)
        }
        None => (fresh, 0),
    };
    for record in &recovered.records {
        node.replay(record);
    }
    node.finish_recovery();
    let durability = Durability::new(&mut node, SharedStorage::new(storage), segments);
    Ok((node, durability))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AstroOneCluster, BRB_GC_HIGH_WATER};
    use astro_core::astro1::{Astro1Config, AstroOneReplica};
    use astro_core::testkit::PaymentCluster;
    use astro_types::{Amount, ClientId, Payment, ReplicaId, ShardLayout};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("astro-durable-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh(i: u32, cfg: &Astro1Config) -> AstroOneReplica {
        AstroOneReplica::new(ReplicaId(i), ShardLayout::single(4).unwrap(), cfg.clone())
    }

    #[test]
    fn durable_node_snapshots_after_threshold() {
        let dir = tmp_dir("snap-policy");
        let store_cfg = StoreConfig { snapshot_every_settled: 3, ..StoreConfig::default() };
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(1000) };

        // Drive settlements through a real in-proc cluster so the nodes
        // see deliveries; then check the snapshot landed.
        let cluster = AstroOneCluster::builder(4, cfg.clone(), Duration::from_millis(1))
            .durable(&dir, store_cfg.clone())
            .start()
            .unwrap();
        for seq in 0..8u64 {
            cluster.submit(Payment::new(1u64, seq, 2u64, 1u64)).unwrap();
        }
        assert!(cluster.wait_settled(8, Duration::from_secs(10)));
        cluster.shutdown();
        let (_s, recovered) = Storage::open(replica_dir(&dir, 0), store_cfg.clone()).unwrap();
        assert!(recovered.snapshot.is_some(), "threshold crossed: snapshot installed");
        // And the recovered state resumes, not restarts, the ledger.
        let (node, _) = recover(&dir, 0, fresh(0, &cfg), &store_cfg).unwrap();
        assert_eq!(node.ledger().total_settled(), 8);
        assert_eq!(node.balance(ClientId(1)), Amount(992));
    }

    #[test]
    fn snapshot_install_prunes_delivered_brb_instances() {
        // The WAL-aware GC satellite: once a snapshot holds the
        // deliveries' effects, the BRB layer's per-instance bookkeeping
        // is pruned, so broadcast memory is bounded by the in-flight
        // window instead of growing with settled history. The
        // deterministic router (instead of the threaded cluster) keeps
        // the live nodes observable; its step hook runs the storage
        // policy exactly where the driver does.
        let dir = tmp_dir("brb-gc");
        let store_cfg = StoreConfig { snapshot_every_settled: 4, ..StoreConfig::default() };
        let cfg = Astro1Config { batch_size: 1, initial_balance: Amount(1000) };
        let (nodes, stores): (Vec<_>, Vec<_>) =
            (0..4).map(|i| recover(&dir, i, fresh(i as u32, &cfg), &store_cfg).unwrap()).unzip();
        let stores = Rc::new(RefCell::new(stores));
        let mut c = PaymentCluster::new(nodes);
        let hook = Rc::clone(&stores);
        c.on_step(move |from, node, step| {
            node.prune_delivered_at(BRB_GC_HIGH_WATER);
            hook.borrow_mut()[from.0 as usize].after_step(node, step.settled.len());
        });
        let drain = |c: &mut PaymentCluster<AstroOneReplica>| {
            for (i, store) in stores.borrow_mut().iter_mut().enumerate() {
                store.drain_installs(c.node_mut(i));
            }
        };
        // 32 settles at batch size 1 = 32 broadcast instances; without
        // snapshot-install GC every one would be tracked forever.
        let rep = ShardLayout::single(4).unwrap().representative_of(ClientId(1));
        let pay = |c: &mut PaymentCluster<AstroOneReplica>, seqs: std::ops::Range<u64>| {
            for seq in seqs {
                let step = c.node_mut(rep.0 as usize).submit(Payment::new(1u64, seq, 2u64, 1u64));
                c.submit_step(rep, step.unwrap());
                c.run_to_quiescence();
            }
        };
        pay(&mut c, 0..32);
        // Quiesce: installs run off-thread, so under a loaded machine the
        // last seal may still be deferred behind an in-flight install.
        // Fold whatever is in flight, settle one more threshold's worth
        // (guaranteeing a fresh seal covering everything before it), and
        // fold that install too — after which at most the post-seal tail
        // of the extra round is still tracked.
        drain(&mut c);
        pay(&mut c, 32..36);
        drain(&mut c);
        for i in 0..4 {
            assert_eq!(c.node(i).ledger().total_settled(), 36, "replica {i}");
            let tracked = c.node(i).tracked_instances();
            assert!(
                tracked <= 4,
                "replica {i}: snapshot-install GC must prune history, still tracks {tracked}"
            );
        }
    }

    #[test]
    fn restart_errors_are_reported() {
        let dir = tmp_dir("restart-errors");
        let cfg = Astro1Config { batch_size: 4, initial_balance: Amount(100) };
        let mut cluster =
            AstroOneCluster::start_tcp_durable(4, &dir, cfg, Duration::from_millis(1)).unwrap();
        assert!(matches!(cluster.restart_replica(2), Err(ClusterError::ReplicaRunning(2))));
        cluster.kill_replica(2).unwrap();
        assert!(matches!(cluster.kill_replica(2), Err(ClusterError::ReplicaStopped(2))));
        cluster.restart_replica(2).unwrap();
        cluster.shutdown();

        let mut plain =
            AstroOneCluster::start(4, Astro1Config::default(), Duration::from_millis(1)).unwrap();
        plain.kill_replica(1).unwrap();
        assert!(
            matches!(plain.restart_replica(1), Err(ClusterError::NotRestartable)),
            "in-process endpoints cannot be re-established"
        );
        plain.shutdown();
    }
}
