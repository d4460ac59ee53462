//! The system under test. This is the only file of the end-to-end path
//! that names the repository's API; `README.md` lists the surface, because
//! a change outside `benchmark/` cannot edit this file and must keep it
//! compiling.

use crate::spec::{Workload, BATCH, FLUSH_EVERY_MS, INITIAL_BALANCE, REPLICAS};
use crate::stream::Pay;
use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode, DepPolicy};
use astro_obs::{Gauge, Registry, Snapshot};
use astro_runtime::{AstroOneCluster, AstroTwoCluster};
use astro_types::{Amount, Payment};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Deployment rung the cluster runs on.
pub enum Rung {
    /// `InProcTransport`: channels, no sockets, no MACs.
    InProc,
    /// Loopback TCP with HMAC sessions, state in memory.
    Tcp,
    /// The same plus a WAL per replica under this directory.
    Durable(PathBuf),
}

enum Cluster {
    One(AstroOneCluster),
    Two(AstroTwoCluster),
}

pub struct Sut {
    cluster: Cluster,
    observed: Option<Observed>,
}

/// The registry of an observed cluster, plus the gauges whose maximum
/// matters and which an end-of-phase snapshot cannot give.
struct Observed {
    registry: Arc<Registry>,
    verify_queue_depth: Gauge,
    outbox_depth: Vec<Gauge>,
    verify_queue_depth_max: u64,
    outbox_depth_max: u64,
}

/// What one replica reports at shutdown.
pub struct Final {
    pub balances: BTreeMap<u64, u64>,
    pub settled: u64,
}

fn a1_config() -> Astro1Config {
    Astro1Config { batch_size: BATCH, initial_balance: Amount(INITIAL_BALANCE) }
}

fn a2_config(dep_policy: DepPolicy) -> Astro2Config {
    Astro2Config {
        batch_size: BATCH,
        initial_balance: Amount(INITIAL_BALANCE),
        credit_mode: CreditMode::Certificates,
        dep_policy,
    }
}

impl Sut {
    /// Starts the workload's cluster on `rung`. With `observed`, the
    /// cluster records into a registry this call creates (the `*_observed`
    /// constructors); without, no registry exists anywhere.
    pub fn start(workload: Workload, rung: Rung, observed: bool) -> Result<Sut, String> {
        let n = REPLICAS;
        let flush = Duration::from_millis(FLUSH_EVERY_MS);
        let registry = observed.then(Registry::new);
        let reg = registry.clone();
        let cluster = match workload {
            Workload::A1Tcp | Workload::A1Durable => {
                let cfg = a1_config();
                let started = match (rung, reg) {
                    (Rung::InProc, None) => AstroOneCluster::start(n, cfg, flush),
                    (Rung::Tcp, None) => AstroOneCluster::start_tcp(n, cfg, flush),
                    (Rung::Tcp, Some(r)) => AstroOneCluster::start_tcp_observed(n, cfg, flush, r),
                    (Rung::Durable(dir), None) => {
                        AstroOneCluster::start_tcp_durable(n, dir, cfg, flush)
                    }
                    (Rung::Durable(dir), Some(r)) => {
                        AstroOneCluster::start_tcp_durable_observed(n, dir, cfg, flush, r)
                    }
                    (Rung::InProc, Some(_)) => return Err("no observed in-proc rung".into()),
                };
                Cluster::One(started.map_err(|e| e.to_string())?)
            }
            Workload::A2Funded | Workload::A2Certs => {
                let cfg = a2_config(if workload == Workload::A2Certs {
                    DepPolicy::Always
                } else {
                    DepPolicy::WhenNeeded
                });
                let started = match (rung, reg) {
                    (Rung::InProc, None) => AstroTwoCluster::start(n, cfg, flush),
                    (Rung::Tcp, None) => AstroTwoCluster::start_tcp(n, cfg, flush),
                    (Rung::Tcp, Some(r)) => AstroTwoCluster::start_tcp_observed(n, cfg, flush, r),
                    _ => return Err("no workload runs Astro II on this rung".into()),
                };
                Cluster::Two(started.map_err(|e| e.to_string())?)
            }
        };
        let observed = registry.map(|registry| Observed {
            verify_queue_depth: registry.gauge("verify.queue_depth"),
            outbox_depth: (0..n)
                .map(|i| registry.gauge(&format!("core.r{i}.outbox_depth")))
                .collect(),
            verify_queue_depth_max: 0,
            outbox_depth_max: 0,
            registry,
        });
        Ok(Sut { cluster, observed })
    }

    pub fn submit(&self, p: Pay) -> Result<(), String> {
        let payment = Payment::new(p.spender, p.seq, p.beneficiary, 1u64);
        match &self.cluster {
            Cluster::One(c) => c.submit(payment),
            Cluster::Two(c) => c.submit(payment),
        }
        .map_err(|e| e.to_string())
    }

    /// True once every listed replica has settled `count` payments. Never
    /// blocks: a waiter parked on the cluster's condvar is woken by every
    /// settle of every replica and slows the cluster it is measuring.
    pub fn settled_among(&self, replicas: &[usize], count: u64) -> bool {
        match &self.cluster {
            Cluster::One(c) => c.wait_settled_among(replicas, count as usize, Duration::ZERO),
            Cluster::Two(c) => c.wait_settled_among(replicas, count as usize, Duration::ZERO),
        }
    }

    pub fn kill_replica(&mut self, i: usize) -> Result<(), String> {
        match &mut self.cluster {
            Cluster::One(c) => c.kill_replica(i),
            Cluster::Two(c) => c.kill_replica(i),
        }
        .map_err(|e| e.to_string())
    }

    /// The registry's current state; `None` on an unobserved cluster.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.observed.as_ref().map(|o| o.registry.snapshot())
    }

    /// Reads the watched gauges (relaxed atomic loads) and keeps their
    /// maxima. Called once per generator poll; nothing on an unobserved
    /// cluster.
    pub fn sample_gauges(&mut self) {
        if let Some(o) = &mut self.observed {
            o.verify_queue_depth_max = o.verify_queue_depth_max.max(o.verify_queue_depth.get());
            let outbox = o.outbox_depth.iter().map(Gauge::get).max().unwrap_or(0);
            o.outbox_depth_max = o.outbox_depth_max.max(outbox);
        }
    }

    /// `(verify.queue_depth, core.r*.outbox_depth)` maxima sampled so far.
    pub fn gauge_maxima(&self) -> (u64, u64) {
        self.observed.as_ref().map_or((0, 0), |o| (o.verify_queue_depth_max, o.outbox_depth_max))
    }

    /// Stops every replica and waits for its thread. One [`Final`] per
    /// replica (a killed one reports its state at the kill), and the
    /// registry's state once everything has stopped.
    pub fn shutdown(self) -> (Vec<Final>, Option<Snapshot>) {
        let finals = match self.cluster {
            Cluster::One(c) => c.shutdown(),
            Cluster::Two(c) => c.shutdown(),
        };
        let finals = finals
            .into_iter()
            .map(|(balances, settled)| Final {
                balances: balances.into_iter().map(|(c, a)| (c.0, a.0)).collect(),
                settled: settled as u64,
            })
            .collect();
        (finals, self.observed.map(|o| o.registry.snapshot()))
    }
}
