//! The simulation harness: closed-loop clients driving a payment system
//! over the modelled WAN, with fault injection and metrics.
//!
//! Reproduces the paper's measurement methodology (§VI-B): clients submit
//! a payment, wait for confirmation from their replica, and immediately
//! submit the next one; throughput is confirmed payments per second,
//! latency is the client-observed submit-to-confirmation time.

use crate::cpumodel::CpuModel;
use crate::metrics::{LatencyRecorder, LatencyStats, ThroughputTimeline};
use crate::netmodel::{Nanos, NetParams, Network, Region};
use crate::rng::Rng;
use crate::systems::{ConfirmRule, SimSystem};
use crate::telemetry::SimTelemetry;
use crate::workload::Workload;
use astro_brb::Dest;
use astro_core::ReplicaStep;
use astro_types::{Payment, PaymentId, ReplicaId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A scheduled fault (paper §VI-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash-stop a replica.
    Crash(ReplicaId),
    /// Restart a crashed replica with its state intact — the
    /// deterministic model of a replica recovering from durable storage
    /// (`astro-store`) and rejoining the mesh. Messages sent during the
    /// outage stay lost, exactly as over TCP, so the replica starts the
    /// catch-up handshake the runtime's restart starts
    /// ([`SimSystem::rejoin`]): its requests, the donors' replies and the
    /// retries cross the simulated links like any other message.
    Restart(ReplicaId),
    /// Add a constant delay to all the replica's outgoing packets
    /// (`tc qdisc … netem delay …`).
    Delay(ReplicaId, Nanos),
    /// Sever one link in both directions while both endpoints stay up —
    /// a partial (gray) partition: each node still reaches the rest of
    /// the cluster, so neither looks crashed to anyone but the other.
    PartialPartition(ReplicaId, ReplicaId),
    /// Heal a severed link. Packets dropped during the partition stay
    /// lost (the TCP connections were reset), so both endpoints start the
    /// catch-up handshake, as after a [`Fault::Restart`], to recover
    /// whatever broadcast state they missed — unicast CREDIT traffic
    /// recovers through the retry outbox instead. A live cluster has no
    /// such trigger: its replicas start catch-up on restart, and Astro I's
    /// also when their payload pulls run out.
    HealPartition(ReplicaId, ReplicaId),
    /// Add a constant delay to both directions of one link (a slow but
    /// live link). Zero restores the link.
    SlowLink(ReplicaId, ReplicaId, Nanos),
    /// Degrade (`true`) or restore (`false`) a replica's disk: every
    /// settle pays an extra write stall, the deterministic analogue of a
    /// sick device whose fsyncs take milliseconds — the process stays up
    /// and keeps voting, just slowly. The health engine's `disk-degraded`
    /// rule localises it by fsync latency far above the peer median.
    DiskDegraded(ReplicaId, bool),
    /// Skew the replica's timer pacing: every flush deadline interval is
    /// stretched by `permille / 1000` (values below 1000 are clamped to
    /// 1000 — a fast clock would only flush smaller batches, which is not
    /// a fault). The deterministic analogue of a VM whose timer
    /// interrupts fire late (steal time, cgroup throttling): the replica
    /// keeps voting and settling at full speed, but its batch cuts and
    /// CREDIT ack/retransmit pacing crawl. The health engine's
    /// pacing-skew rule fires only once the ack cadence stretches past
    /// the peers' retry horizon of 64 flush ticks
    /// (`astro_core::astro2::OUTBOX_BASE_TICKS`) and they retransmit;
    /// milder skews are gray by design. `1000` restores nominal pacing.
    ClockSkew(ReplicaId, u64),
}

/// Extra per-settle stall a [`Fault::DiskDegraded`] replica pays — the
/// cost model's stand-in for fsyncs hitting a sick device.
const DISK_DEGRADED_STALL: Nanos = 2_000_000;

/// How long a fate-sharing client waits before retrying a submission
/// whose representative is down (it polls for its replica's return;
/// paper §VI-D).
const CLIENT_RETRY: Nanos = 200_000_000;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated duration.
    pub duration: Nanos,
    /// Metrics (latency, steady-state throughput) ignore confirmations
    /// before this time.
    pub warmup: Nanos,
    /// RNG seed (simulations are deterministic given a seed).
    pub seed: u64,
    /// Network parameters.
    pub net: NetParams,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// Scheduled faults.
    pub faults: Vec<(Nanos, Fault)>,
    /// Throughput timeline bucket width.
    pub timeline_bucket: Nanos,
    /// Stop drawing fresh client payments after this many (parked
    /// payments still retry). `None` = the closed loop never stops. A
    /// finite budget lets a run drain to quiescence before `duration` —
    /// what the chaos convergence tests need.
    pub submit_budget: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: 10_000_000_000, // 10 s
            warmup: 2_000_000_000,    // 2 s
            seed: 42,
            net: NetParams::europe_wan(),
            cpu: CpuModel::calibrated(),
            faults: Vec::new(),
            timeline_bucket: 1_000_000_000,
            submit_budget: None,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Payments submitted.
    pub submitted: usize,
    /// Payments confirmed.
    pub confirmed: usize,
    /// Steady-state throughput: the confirmations whose reply reaches the
    /// client in `[warmup, duration)`, per second of that window (0 when
    /// the window is empty). Exact whatever the timeline bucket.
    pub throughput_pps: f64,
    /// Latency statistics for confirmations after warmup.
    pub latency: Option<LatencyStats>,
    /// Per-bucket confirmation timeline (for the robustness figures).
    pub timeline: ThroughputTimeline,
    /// Total simulator events processed.
    pub events: u64,
}

enum EventKind<M> {
    Deliver { from: ReplicaId, to: ReplicaId, msg: M },
    Tick { replica: ReplicaId },
    ClientSubmit { client: usize },
    Fault(Fault),
}

struct Event<M> {
    time: Nanos,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct Outstanding {
    client: usize,
    sent_at: Nanos,
    entry: ReplicaId,
    seen_at: u32,
}

/// One replica's row of the run state: its CPU, disk and timer models.
#[derive(Clone)]
struct Node {
    /// When the replica's event loop next comes free.
    cpu_free: Nanos,
    /// What each settle costs: the model's settle cost plus any
    /// [`Fault::DiskDegraded`] write stall.
    settle_ns: Nanos,
    /// Timer-pacing skew in permille ([`Fault::ClockSkew`]); 1000 =
    /// nominal.
    clock_skew: u64,
    /// Verifier lanes (the runtime's verify pool in simulated time): each
    /// entry is when that lane next comes free. Empty when the model runs
    /// verification inline.
    verify_free: Vec<Nanos>,
    /// When the replica's most recent inbound message took effect. The
    /// runtime handles parked messages strictly in arrival order
    /// (`drain_verified`), so a message's effects can never precede an
    /// earlier message's verification — model that head-of-line ordering.
    deliver_ready: Nanos,
    /// The protocol deadline the scheduled tick serves.
    next_tick: Nanos,
    /// The authoritative (possibly skew-stretched) fire time of the
    /// scheduled tick. Superseded tick events still sitting in the heap
    /// are dropped when they pop — otherwise a stale tick would fire an
    /// overdue timer at its *nominal* time and silently erode a
    /// [`Fault::ClockSkew`] stretch back to the healthy cadence.
    tick_fire: Nanos,
}

/// One run: the system under test, the models around it, the event heap
/// and the metrics.
struct Sim<'t, S: SimSystem> {
    system: S,
    cfg: SimConfig,
    telemetry: Option<&'t mut SimTelemetry>,
    rng: Rng,
    network: Network,
    heap: BinaryHeap<Reverse<Event<S::Msg>>>,
    /// Schedule order: breaks ties between events due at the same time.
    seq: u64,
    nodes: Vec<Node>,
    outstanding: HashMap<PaymentId, Outstanding>,
    /// The replica a client reconnected to after its own crashed.
    entry_override: HashMap<usize, ReplicaId>,
    /// Payments whose representative was down at submit time, waiting for
    /// the scheduled retry (one slot per client: the loop is closed).
    parked: HashMap<usize, Payment>,
    latency: LatencyRecorder,
    timeline: ThroughputTimeline,
    /// Confirmations whose reply lands in `[warmup, duration)`.
    steady: usize,
    /// Fresh payments drawn from the workload (parked retries excluded).
    drawn: usize,
    submitted: usize,
    confirmed: usize,
    events: u64,
}

/// Runs `workload` against `system` under `cfg` and reports metrics.
pub fn run<S: SimSystem, W: Workload>(system: S, workload: W, cfg: SimConfig) -> SimReport {
    Sim::new(system, cfg, None).run(workload).0
}

/// Like [`run`], additionally returning the system for post-run inspection
/// (final views, replica state).
pub fn run_with_system<S: SimSystem, W: Workload>(
    system: S,
    workload: W,
    cfg: SimConfig,
) -> (SimReport, S) {
    Sim::new(system, cfg, None).run(workload)
}

/// Like [`run_with_system`], additionally feeding every network
/// transmission, settle, and health-tick window into `telemetry` — the
/// simulated twin of the runtime's registry + [`astro_obs::HealthEngine`]
/// wiring. Attach the system to the same registry first
/// (`attach_registry`) so `core.*` counters flow too.
pub fn run_observed<S: SimSystem, W: Workload>(
    system: S,
    workload: W,
    cfg: SimConfig,
    telemetry: &mut SimTelemetry,
) -> (SimReport, S) {
    Sim::new(system, cfg, Some(telemetry)).run(workload)
}

impl<'t, S: SimSystem> Sim<'t, S> {
    fn new(system: S, cfg: SimConfig, telemetry: Option<&'t mut SimTelemetry>) -> Self {
        let node = Node {
            cpu_free: 0,
            settle_ns: cfg.cpu.settle_ns,
            clock_skew: 1000,
            verify_free: vec![0; cfg.cpu.verify_lanes],
            deliver_ready: 0,
            next_tick: Nanos::MAX,
            tick_fire: Nanos::MAX,
        };
        Sim {
            telemetry,
            rng: Rng::seeded(cfg.seed),
            network: Network::new(system.n(), cfg.net.clone()),
            heap: BinaryHeap::new(),
            seq: 0,
            nodes: vec![node; system.n()],
            outstanding: HashMap::new(),
            entry_override: HashMap::new(),
            parked: HashMap::new(),
            latency: LatencyRecorder::new(),
            timeline: ThroughputTimeline::new(cfg.timeline_bucket),
            steady: 0,
            drawn: 0,
            submitted: 0,
            confirmed: 0,
            events: 0,
            system,
            cfg,
        }
    }

    fn run<W: Workload>(mut self, mut workload: W) -> (SimReport, S) {
        // Closed-loop clients start staggered to avoid a thundering herd,
        // but the whole ramp fits well inside the warm-up window
        // regardless of the client count.
        let stagger = 137_000.min(500_000_000 / workload.num_clients().max(1) as Nanos);
        for client in 0..workload.num_clients() {
            self.schedule(client as Nanos * stagger, EventKind::ClientSubmit { client });
        }
        for (time, fault) in std::mem::take(&mut self.cfg.faults) {
            self.schedule(time, EventKind::Fault(fault));
        }

        while let Some(Reverse(Event { time, kind, .. })) = self.heap.pop() {
            if time > self.cfg.duration {
                break;
            }
            // Health windows close on the simulated clock: run every tick
            // due strictly before this event (events arrive in time order,
            // so the registry holds exactly the state as of the window's
            // end).
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.poll(time);
            }
            self.events += 1;
            match kind {
                EventKind::Fault(fault) => self.fault(fault, time),
                EventKind::ClientSubmit { client } => {
                    self.client_submit(&mut workload, client, time)
                }
                EventKind::Deliver { from, to, msg } => self.deliver(from, to, msg, time),
                EventKind::Tick { replica } => self.tick(replica, time),
            }
        }

        let window = self.cfg.duration.saturating_sub(self.cfg.warmup);
        let throughput_pps =
            if window > 0 { self.steady as f64 * 1_000_000_000.0 / window as f64 } else { 0.0 };
        let report = SimReport {
            submitted: self.submitted,
            confirmed: self.confirmed,
            throughput_pps,
            latency: self.latency.stats(),
            timeline: self.timeline,
            events: self.events,
        };
        (report, self.system)
    }

    /// Queues an event; events due at the same time pop in the order they
    /// were scheduled.
    fn schedule(&mut self, time: Nanos, kind: EventKind<S::Msg>) {
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq: self.seq, kind }));
    }

    fn fault(&mut self, fault: Fault, now: Nanos) {
        match fault {
            Fault::Crash(r) => self.network.crash(r),
            Fault::Restart(r) => {
                self.network.restore(r);
                self.rejoin(r, now);
            }
            Fault::Delay(r, extra) => self.network.add_delay(r, extra),
            Fault::PartialPartition(a, b) => self.network.partition(a, b),
            Fault::HealPartition(a, b) => {
                self.network.heal(a, b);
                // Broadcast messages dropped on the severed link have no
                // transport-level retransmit; both endpoints fetch the
                // missed state exactly as a restarted replica does.
                self.rejoin(a, now);
                self.rejoin(b, now);
            }
            Fault::SlowLink(a, b, extra) => self.network.slow_link(a, b, extra),
            Fault::DiskDegraded(r, degraded) => {
                let stall = if degraded { DISK_DEGRADED_STALL } else { 0 };
                self.nodes[r.0 as usize].settle_ns = self.cfg.cpu.settle_ns + stall;
            }
            Fault::ClockSkew(r, permille) => {
                self.nodes[r.0 as usize].clock_skew = permille.max(1000);
            }
        }
    }

    /// `replica` rejoins the cluster and starts whatever catch-up its
    /// system runs.
    fn rejoin(&mut self, replica: ReplicaId, now: Nanos) {
        let step = self.system.rejoin(replica, now);
        self.step(replica, step, now);
    }

    fn client_submit<W: Workload>(&mut self, workload: &mut W, client: usize, now: Nanos) {
        // A payment parked while its representative was down is retried
        // as-is: drawing a fresh one would skip a sequence number and
        // wedge the client's xlog forever.
        let payment = match self.parked.remove(&client) {
            Some(p) => p,
            None => {
                // The budget counts *drawn* payments; once exhausted this
                // client's closed loop ends.
                if self.cfg.submit_budget.is_some_and(|b| self.drawn >= b) {
                    return;
                }
                self.drawn += 1;
                workload.next_payment(client, &mut self.rng)
            }
        };
        // Route by the *payment's spender* — a Smallbank owner has two
        // xlogs (checking, savings) with possibly different
        // representatives.
        let mut entry = *self
            .entry_override
            .get(&client)
            .unwrap_or(&self.system.entry_replica(payment.spender));
        if self.network.is_crashed(entry) {
            match self.system.confirm_rule() {
                // Astro: fate-sharing with the representative — the
                // client's xlog stops while it is down (paper §VI-D), and
                // resumes if a restart brings it back.
                ConfirmRule::AtEntryReplica => {
                    self.parked.insert(client, payment);
                    self.schedule(now + CLIENT_RETRY, EventKind::ClientSubmit { client });
                    return;
                }
                // BFT-SMaRt clients reconnect to another replica.
                ConfirmRule::ReplicaCount(_) => {
                    let live: Vec<ReplicaId> = (0..self.system.n() as u32)
                        .map(ReplicaId)
                        .filter(|&r| !self.network.is_crashed(r))
                        .collect();
                    if live.is_empty() {
                        return;
                    }
                    entry = live[self.rng.below(live.len() as u64) as usize];
                    self.entry_override.insert(client, entry);
                }
            }
        }
        self.submitted += 1;
        self.outstanding
            .insert(payment.id(), Outstanding { client, sent_at: now, entry, seen_at: 0 });
        let arrival = now + self.client_leg(entry);
        let node = &mut self.nodes[entry.0 as usize];
        let start = arrival.max(node.cpu_free);
        let step = self.system.submit(entry, payment, start);
        let completion = start + self.cfg.cpu.overhead_ns;
        node.cpu_free = completion;
        self.step(entry, step, completion);
    }

    fn deliver(&mut self, from: ReplicaId, to: ReplicaId, msg: S::Msg, now: Nanos) {
        if self.network.is_crashed(to) {
            return;
        }
        let cpu = &self.cfg.cpu;
        let node = &mut self.nodes[to.0 as usize];
        let start = now.max(node.cpu_free);
        let cost = self.system.deliver_cost(&msg, cpu);
        // The verification share runs on the earliest-free lane (the
        // verify pool), overlapping the event loop; with no lanes it IS
        // event-loop work and counts toward `inline_done` — the serial
        // baseline charges it even when the step produces no effects.
        let (inline_done, ready) = if cost.verify == 0 || cpu.verify_lanes == 0 {
            let done = start + cpu.overhead_ns + cost.total();
            (done, done)
        } else {
            let inline_done = start + cpu.overhead_ns + cost.inline;
            let lanes = &mut node.verify_free;
            let lane = (0..lanes.len()).min_by_key(|&l| lanes[l]).expect("lanes > 0");
            lanes[lane] = lanes[lane].max(start) + cost.verify;
            (inline_done, inline_done.max(lanes[lane]))
        };
        // FIFO handling: this message cannot take effect before its
        // predecessors have (arrival-order pipeline).
        let ready = ready.max(node.deliver_ready);
        node.deliver_ready = ready;
        let step = self.system.deliver(to, from, msg, ready);
        let completion = ready + node.settle_ns * step.settled.len() as Nanos;
        // The loop itself is busy only for the inline share — a message
        // whose step had effects re-occupies it at `ready` to emit them;
        // one that produced nothing (an ACK below quorum verifying in the
        // background) frees the loop at `inline_done`.
        node.cpu_free = if step.outbound.is_empty() && step.settled.is_empty() {
            inline_done
        } else {
            completion
        };
        self.step(to, step, completion);
    }

    fn tick(&mut self, replica: ReplicaId, now: Nanos) {
        let node = &mut self.nodes[replica.0 as usize];
        // Only the authoritative schedule fires the clock; ticks whose
        // deadline was superseded by a re-schedule are inert heap residue.
        if now != node.tick_fire {
            return;
        }
        node.next_tick = Nanos::MAX;
        node.tick_fire = Nanos::MAX;
        if self.network.is_crashed(replica) {
            return;
        }
        let start = now.max(node.cpu_free);
        let step = self.system.tick(replica, start);
        let completion =
            start + self.cfg.cpu.overhead_ns + node.settle_ns * step.settled.len() as Nanos;
        node.cpu_free = completion;
        self.step(replica, step, completion);
    }

    /// Applies `replica`'s transition, done at `now`: confirms its
    /// settles, transmits its messages and re-arms its timer.
    fn step(&mut self, replica: ReplicaId, step: ReplicaStep<S::Msg>, now: Nanos) {
        // The settles of this step hit the WAL: record the modelled fsync
        // latency (settle cost plus any injected disk stall) so the health
        // engine sees the same `store.*` signal the runtime exports.
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_settled(replica, step.settled.len(), self.nodes[replica.0 as usize].settle_ns);
        }
        for p in &step.settled {
            self.confirm(replica, p.id(), now);
        }

        // Outbound messages. Each copy costs sender CPU (serialization,
        // link MAC) before it reaches the NIC, so broadcasts serialize
        // through the sender — the leader-bottleneck effect.
        let mut send_clock = now;
        for env in step.outbound {
            let size = self.system.wire_size(&env.msg);
            let per_copy = self.system.send_cost(&env.msg, &self.cfg.cpu);
            let targets = match env.to {
                Dest::All => self.system.broadcast_targets(replica),
                Dest::One(target) => vec![target],
            };
            for to in targets {
                send_clock += per_copy;
                let arrival = self.network.transmit(replica, to, size, send_clock, &mut self.rng);
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.on_transmit(&self.network, replica, to, send_clock, arrival);
                }
                if let Some(arrival) = arrival {
                    let msg = env.msg.clone();
                    self.schedule(arrival, EventKind::Deliver { from: replica, to, msg });
                }
            }
        }

        // The sender's CPU was busy until the last copy left.
        let node = &mut self.nodes[replica.0 as usize];
        node.cpu_free = node.cpu_free.max(send_clock);

        // Timer rescheduling. A skewed clock ([`Fault::ClockSkew`])
        // stretches the remaining interval: the timer still fires, just
        // `permille / 1000` later than the protocol asked for — batch cuts
        // and outbox pacing crawl while message handling runs at full
        // speed.
        if let Some(deadline) = self.system.next_deadline(replica) {
            if deadline < node.next_tick {
                node.next_tick = deadline;
                let stretched = deadline.saturating_sub(now).saturating_mul(node.clock_skew);
                let fire = now + stretched / 1000;
                node.tick_fire = fire;
                self.schedule(fire, EventKind::Tick { replica });
            }
        }
    }

    /// Counts a settle of `id` at `replica` toward the confirmation rule;
    /// once it holds, the reply reaches the client and the closed loop
    /// submits the client's next payment.
    fn confirm(&mut self, replica: ReplicaId, id: PaymentId, now: Nanos) {
        let Some(o) = self.outstanding.get_mut(&id) else { return };
        o.seen_at += 1;
        let confirmed = match self.system.confirm_rule() {
            ConfirmRule::AtEntryReplica => o.entry == replica,
            ConfirmRule::ReplicaCount(k) => o.seen_at as usize >= k,
        };
        if !confirmed {
            return;
        }
        let Outstanding { client, sent_at, .. } = self.outstanding.remove(&id).expect("present");
        let reply_at = now + self.client_leg(replica);
        if reply_at >= self.cfg.warmup {
            self.latency.record(reply_at - sent_at);
        }
        if (self.cfg.warmup..self.cfg.duration).contains(&reply_at) {
            self.steady += 1;
        }
        self.timeline.record(reply_at);
        self.confirmed += 1;
        self.schedule(reply_at, EventKind::ClientSubmit { client });
    }

    /// One-way latency between the client park (Ireland, §VI-B) and a
    /// replica.
    fn client_leg(&self, replica: ReplicaId) -> Nanos {
        if self.network.region_of(replica) == Region::Ireland {
            self.cfg.net.intra_region_latency
        } else {
            self.cfg.net.inter_region_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{Astro1System, Astro2System, PbftSystem};
    use crate::workload::UniformWorkload;
    use astro_consensus::pbft::PbftConfig;
    use astro_core::astro1::Astro1Config;
    use astro_core::astro2::Astro2Config;
    use astro_types::Amount;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: 3_000_000_000,
            warmup: 500_000_000,
            seed: 7,
            net: NetParams::europe_wan(),
            cpu: CpuModel::calibrated(),
            faults: Vec::new(),
            timeline_bucket: 500_000_000,
            submit_budget: None,
        }
    }

    #[test]
    fn astro1_simulation_confirms_payments() {
        let system = Astro1System::new(
            1,
            4,
            Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000_000) },
            5_000_000,
        );
        let report = run(system, UniformWorkload::new(8, 10), quick_cfg());
        assert!(report.confirmed > 50, "confirmed only {}", report.confirmed);
        assert!(report.throughput_pps > 10.0);
        let lat = report.latency.expect("has samples");
        // WAN quorum round trips: tens of milliseconds, sub-second.
        assert!(lat.p50 > 10_000_000, "p50 {} too small", lat.p50);
        assert!(lat.p95 < 1_000_000_000, "p95 {} too large", lat.p95);
    }

    #[test]
    fn astro2_simulation_confirms_payments() {
        let system = Astro2System::new(
            1,
            4,
            Astro2Config {
                batch_size: 8,
                initial_balance: Amount(1_000_000_000),
                ..Astro2Config::default()
            },
            5_000_000,
        );
        let report = run(system, UniformWorkload::new(8, 10), quick_cfg());
        assert!(report.confirmed > 50, "confirmed only {}", report.confirmed);
    }

    #[test]
    fn pbft_simulation_confirms_payments() {
        let system = PbftSystem::new(
            4,
            PbftConfig {
                batch_size: 8,
                batch_delay: 5_000_000,
                view_change_timeout: 2_000_000_000,
                initial_balance: Amount(1_000_000_000),
            },
        );
        let report = run(system, UniformWorkload::new(8, 10), quick_cfg());
        assert!(report.confirmed > 50, "confirmed only {}", report.confirmed);
    }

    #[test]
    fn simulation_is_deterministic() {
        let mk = || {
            Astro1System::new(
                1,
                4,
                Astro1Config { batch_size: 4, initial_balance: Amount(1_000_000_000) },
                5_000_000,
            )
        };
        let r1 = run(mk(), UniformWorkload::new(4, 10), quick_cfg());
        let r2 = run(mk(), UniformWorkload::new(4, 10), quick_cfg());
        assert_eq!(r1.confirmed, r2.confirmed);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.timeline.buckets(), r2.timeline.buckets());
    }

    #[test]
    fn throughput_does_not_depend_on_the_timeline_bucket() {
        // A warm-up that is no multiple of the bucket: the steady-state
        // window starts mid-bucket, and only the confirmations inside it
        // may count.
        let rate = |bucket| {
            let system = Astro1System::new(
                1,
                4,
                Astro1Config { batch_size: 4, initial_balance: Amount(1_000_000_000) },
                5_000_000,
            );
            let cfg = SimConfig { warmup: 333_000_000, timeline_bucket: bucket, ..quick_cfg() };
            run(system, UniformWorkload::new(8, 10), cfg).throughput_pps
        };
        let (coarse, fine) = (rate(1_000_000_000), rate(1_000_000));
        assert!(fine > 0.0);
        assert_eq!(coarse, fine, "1 s buckets vs 1 ms buckets");
    }

    #[test]
    fn crash_of_representative_stalls_only_its_clients() {
        let mut cfg = quick_cfg();
        cfg.duration = 4_000_000_000;
        // Crash replica 1 at t = 2 s.
        cfg.faults = vec![(2_000_000_000, Fault::Crash(ReplicaId(1)))];
        let system = Astro1System::new(
            1,
            4,
            Astro1Config { batch_size: 4, initial_balance: Amount(1_000_000_000) },
            5_000_000,
        );
        let report = run(system, UniformWorkload::new(8, 10), cfg);
        // Throughput drops but does not reach zero: other representatives
        // keep settling (the broadcast-robustness claim of Figure 5).
        let per_sec = report.timeline.per_second();
        let after = per_sec.last().copied().unwrap_or(0.0);
        assert!(after > 0.0, "non-crashed clients must keep confirming");
    }

    #[test]
    fn crash_restart_resumes_the_representatives_clients() {
        // The deterministic twin of the runtime's kill-and-restart e2e
        // test: crash replica 1 at 1.5 s, bring it back (state intact —
        // the durable-storage recovery model) at 2.5 s. Its fate-sharing
        // clients park their submissions during the outage and resume
        // after the restart, so a crash+restart run must confirm strictly
        // more than a crash-forever run.
        let system = || {
            Astro1System::new(
                1,
                4,
                Astro1Config { batch_size: 4, initial_balance: Amount(1_000_000_000) },
                5_000_000,
            )
        };
        let mut cfg = quick_cfg();
        cfg.duration = 6_000_000_000;
        cfg.faults = vec![(1_500_000_000, Fault::Crash(ReplicaId(1)))];
        let crash_only = run(system(), UniformWorkload::new(8, 10), cfg.clone());

        cfg.faults = vec![
            (1_500_000_000, Fault::Crash(ReplicaId(1))),
            (2_500_000_000, Fault::Restart(ReplicaId(1))),
        ];
        let restarted = run(system(), UniformWorkload::new(8, 10), cfg);

        assert!(
            restarted.confirmed > crash_only.confirmed,
            "restart must resume confirmations: {} (restart) vs {} (crash only)",
            restarted.confirmed,
            crash_only.confirmed
        );
        // And the tail of the run is live again.
        let per_sec = restarted.timeline.per_second();
        assert!(per_sec.last().copied().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn pbft_leader_crash_halts_then_recovers() {
        let mut cfg = quick_cfg();
        cfg.duration = 12_000_000_000;
        cfg.faults = vec![(3_000_000_000, Fault::Crash(ReplicaId(0)))]; // leader of view 0
        let system = PbftSystem::new(
            4,
            PbftConfig {
                batch_size: 4,
                batch_delay: 5_000_000,
                view_change_timeout: 1_000_000_000,
                initial_balance: Amount(1_000_000_000),
            },
        );
        let report = run(system, UniformWorkload::new(8, 10), cfg);
        let per_sec = report.timeline.per_second();
        // Somewhere after the crash there must be a (near-)zero bucket
        // (view change), and throughput must resume afterwards.
        let crash_bucket = 6; // 3 s / 0.5 s buckets
        let stall = per_sec[crash_bucket..].iter().any(|&r| r < 1.0);
        let resumed = per_sec.last().copied().unwrap_or(0.0) > 1.0;
        assert!(stall, "expected a stalled bucket after leader crash: {per_sec:?}");
        assert!(resumed, "expected recovery after view change: {per_sec:?}");
    }
}
