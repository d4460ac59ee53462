//! Simulated telemetry plane: the deterministic twin of the runtime's
//! metric registry, scrape exporter, and gray-failure health engine.
//!
//! [`SimTelemetry`] owns an [`astro_obs::Registry`] and a bound
//! [`HealthEngine`]. The harness ([`crate::harness::run_observed`])
//! feeds it every network transmission and settle, and closes a health
//! window at a fixed *simulated* interval — snapshots are stamped with
//! simulation time, so windowed rates (settles/s, frames/s) come out in
//! simulated seconds and the exact same engine + thresholds that watch
//! the live TCP cluster can be validated against injected
//! [`crate::harness::Fault`]s under seeded schedules.
//!
//! Signal mapping (one namespace, shared with the runtime):
//!
//! - `core.r{i}.*` — attach the system to [`SimTelemetry::registry`]
//!   (`AstroSystem::attach_registry`) and the replicas' own
//!   [`astro_core::obs::CoreObs`] counters (settles, CREDIT
//!   retransmits, catch-up retries) flow in unchanged.
//! - `net.r{i}.to_r{j}.tx_frames` / `net.r{j}.from_r{i}.rx_frames` —
//!   counted per modelled transmission. Frames on a severed link count
//!   as sent but never received (TCP buffers the write; the packets
//!   black-hole), which is exactly the asymmetry the partition rule
//!   keys on. Writes to a *crashed* endpoint count as neither: the
//!   connection is reset and the runtime's writer would fail before
//!   framing anything.
//! - `net.r{i}.to_r{j}.delay_nanos` — per-link send-to-arrival latency
//!   (NIC queueing + propagation + injected slow-link extra), the
//!   simulated stand-in for the runtime's `write_nanos`.
//! - `store.r{i}.fsync_nanos` — the modelled WAL cost of each settle
//!   (settle cost plus any [`crate::harness::Fault::DiskDegraded`]
//!   stall).

use crate::netmodel::{Nanos, Network};
use astro_obs::{
    Counter, HealthConfig, HealthEngine, HealthReport, Histogram, Registry, Subject, Verdict,
};
use astro_types::ReplicaId;
use std::sync::Arc;

/// Telemetry collector + health engine for one simulated cluster.
pub struct SimTelemetry {
    registry: Arc<Registry>,
    engine: HealthEngine,
    interval: Nanos,
    next_due: Nanos,
    reports: Vec<HealthReport>,
    n: usize,
    // Pre-resolved handles, n*n row-major (`from * n + to`): the hooks
    // run on the simulator's hot path.
    tx: Vec<Counter>,
    rx: Vec<Counter>,
    delay: Vec<Histogram>,
    fsync: Vec<Histogram>,
}

impl SimTelemetry {
    /// Builds the telemetry plane for an `n`-replica cluster, closing
    /// one health window every `interval` simulated nanoseconds. The
    /// engine is bound to the registry, so `health.*` gauges and flight
    /// transition events export exactly as in the live runtime.
    pub fn new(n: usize, cfg: HealthConfig, interval: Nanos) -> Self {
        let registry = Registry::new();
        let mut engine = HealthEngine::new(n, cfg);
        engine.bind(&registry);
        let per_link = |mk: &dyn Fn(usize, usize) -> String| -> Vec<String> {
            (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).map(|(i, j)| mk(i, j)).collect()
        };
        let tx: Vec<Counter> = per_link(&|i, j| format!("net.r{i}.to_r{j}.tx_frames"))
            .iter()
            .map(|name| registry.counter(name))
            .collect();
        let rx: Vec<Counter> = per_link(&|i, j| format!("net.r{j}.from_r{i}.rx_frames"))
            .iter()
            .map(|name| registry.counter(name))
            .collect();
        let delay: Vec<Histogram> = per_link(&|i, j| format!("net.r{i}.to_r{j}.delay_nanos"))
            .iter()
            .map(|name| registry.histogram(name))
            .collect();
        let fsync =
            (0..n).map(|i| registry.histogram(&format!("store.r{i}.fsync_nanos"))).collect();
        SimTelemetry {
            registry,
            engine,
            interval: interval.max(1),
            next_due: interval.max(1),
            reports: Vec::new(),
            n,
            tx,
            rx,
            delay,
            fsync,
        }
    }

    /// The registry everything flows into. Attach the simulated system
    /// to it (`attach_registry`) before the run so `core.*` counters
    /// flow, and snapshot/serve it like any runtime registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one modelled transmission attempt. `arrival` is what
    /// [`Network::transmit`] returned for it.
    pub fn on_transmit(
        &mut self,
        network: &Network,
        from: ReplicaId,
        to: ReplicaId,
        sent_at: Nanos,
        arrival: Option<Nanos>,
    ) {
        if from == to {
            return; // loopback never leaves the process
        }
        let l = from.0 as usize * self.n + to.0 as usize;
        match arrival {
            Some(at) => {
                self.tx[l].inc();
                self.rx[l].inc();
                self.delay[l].record(at.saturating_sub(sent_at));
            }
            // Severed link: the frame was written (TCP buffers it) and
            // black-holed in flight — tx without rx.
            None if network.is_severed(from, to) => self.tx[l].inc(),
            // Crashed endpoint: the connection is reset, the write
            // fails — neither side counts a frame.
            None => {}
        }
    }

    /// Records `count` settles at `replica`, each paying `fsync_nanos`
    /// of modelled WAL latency.
    pub fn on_settled(&mut self, replica: ReplicaId, count: usize, fsync_nanos: Nanos) {
        let h = &self.fsync[replica.0 as usize];
        for _ in 0..count {
            h.record(fsync_nanos);
        }
    }

    /// Closes every health window due strictly before simulated time
    /// `now`, snapshotting the registry with the window's end as the
    /// capture time.
    pub fn poll(&mut self, now: Nanos) {
        while self.next_due <= now {
            let mut snap = self.registry.snapshot();
            snap.at_nanos = self.next_due;
            let report = self.engine.observe(&snap);
            self.reports.push(report);
            self.next_due += self.interval;
        }
    }

    /// Every window's report, in order.
    pub fn reports(&self) -> &[HealthReport] {
        &self.reports
    }

    /// The most recent report, if any window closed.
    pub fn latest(&self) -> Option<&HealthReport> {
        self.reports.last()
    }

    /// Every subject that was ever non-healthy in any window — the
    /// localization set a chaos test asserts against.
    pub fn implicated(&self) -> Vec<Subject> {
        let mut out: Vec<Subject> = Vec::new();
        for report in &self.reports {
            for (subject, _) in report.non_healthy() {
                if !out.contains(&subject) {
                    out.push(subject);
                }
            }
        }
        out
    }

    /// The most severe verdict `subject` ever reached, with the reason
    /// it first reached it at that severity.
    pub fn worst_verdict(&self, subject: Subject) -> Verdict {
        let mut worst = Verdict::Healthy;
        for report in &self.reports {
            for (s, v) in &report.verdicts {
                if *s == subject && v.code() > worst.code() {
                    worst = *v;
                }
            }
        }
        worst
    }
}
