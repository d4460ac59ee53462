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
use astro_types::{PaymentId, ReplicaId};
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
    /// outage stay lost, exactly as over TCP.
    Restart(ReplicaId),
    /// Add a constant delay to all the replica's outgoing packets
    /// (`tc qdisc … netem delay …`).
    Delay(ReplicaId, Nanos),
    /// Sever one link in both directions while both endpoints stay up —
    /// a partial (gray) partition: each node still reaches the rest of
    /// the cluster, so neither looks crashed to anyone but the other.
    PartialPartition(ReplicaId, ReplicaId),
    /// Heal a severed link. Packets dropped during the partition stay
    /// lost (the TCP connections were reset), so both endpoints run the
    /// catch-up handshake to recover whatever broadcast state they
    /// missed — unicast CREDIT traffic recovers through the retry
    /// outbox instead.
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

/// How long a restarted replica waits before retrying the catch-up
/// handshake when no `f+1` matching state certified (its donors were
/// mid-divergence) — the simulated analogue of the runtime's
/// flush-timer-paced catch-up request retry.
const CATCH_UP_RETRY: Nanos = 200_000_000;

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
    /// Steady-state throughput (confirmations in `[warmup, duration)`).
    pub throughput_pps: f64,
    /// Latency statistics for confirmations after warmup.
    pub latency: Option<LatencyStats>,
    /// Per-bucket confirmation timeline (for the robustness figures).
    pub timeline: ThroughputTimeline,
    /// Total simulator events processed.
    pub events: u64,
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver {
        from: ReplicaId,
        to: ReplicaId,
        msg: M,
    },
    Tick {
        replica: ReplicaId,
    },
    ClientSubmit {
        client: usize,
    },
    Fault(Fault),
    /// A restarted replica (re)tries the catch-up state transfer.
    CatchUp {
        replica: ReplicaId,
    },
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

/// Runs `workload` against `system` under `cfg` and reports metrics.
pub fn run<S: SimSystem, W: Workload>(system: S, workload: W, cfg: SimConfig) -> SimReport {
    run_inner(system, workload, cfg, None).0
}

/// Like [`run`], additionally returning the system for post-run inspection
/// (final views, replica state).
pub fn run_with_system<S: SimSystem, W: Workload>(
    system: S,
    workload: W,
    cfg: SimConfig,
) -> (SimReport, S) {
    run_inner(system, workload, cfg, None)
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
    run_inner(system, workload, cfg, Some(telemetry))
}

fn run_inner<S: SimSystem, W: Workload>(
    mut system: S,
    mut workload: W,
    cfg: SimConfig,
    mut telemetry: Option<&mut SimTelemetry>,
) -> (SimReport, S) {
    let mut rng = Rng::seeded(cfg.seed);
    let mut network = Network::new(system.n(), cfg.net.clone());
    let mut heap: BinaryHeap<Reverse<Event<S::Msg>>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<Event<S::Msg>>>, seq: &mut u64, time, kind| {
        *seq += 1;
        heap.push(Reverse(Event { time, seq: *seq, kind }));
    };

    // Closed-loop clients start staggered to avoid a thundering herd, but
    // the whole ramp fits well inside the warm-up window regardless of the
    // client count.
    let stagger = 137_000.min(500_000_000 / workload.num_clients().max(1) as Nanos);
    for c in 0..workload.num_clients() {
        push(&mut heap, &mut seq, (c as Nanos) * stagger, EventKind::ClientSubmit { client: c });
    }
    for (t, f) in &cfg.faults {
        push(&mut heap, &mut seq, *t, EventKind::Fault(*f));
    }

    let mut cpu_free: Vec<Nanos> = vec![0; system.n()];
    // Per-replica extra write stall per settle ([`Fault::DiskDegraded`]).
    let mut disk_stall: Vec<Nanos> = vec![0; system.n()];
    // Per-replica timer-pacing skew in permille ([`Fault::ClockSkew`]);
    // 1000 = nominal.
    let mut clock_skew: Vec<u64> = vec![1000; system.n()];
    // Per-replica verifier lanes (the runtime's verify pool in simulated
    // time): each entry is when that lane next comes free. Empty when the
    // model runs verification inline.
    let mut verify_free: Vec<Vec<Nanos>> = vec![vec![0; cfg.cpu.verify_lanes]; system.n()];
    // When the replica's most recent inbound message took effect. The
    // runtime handles parked messages strictly in arrival order
    // (`drain_verified`), so a message's effects can never precede an
    // earlier message's verification — model that head-of-line ordering.
    let mut deliver_ready: Vec<Nanos> = vec![0; system.n()];
    let mut next_tick: Vec<Nanos> = vec![Nanos::MAX; system.n()];
    // The authoritative (possibly skew-stretched) fire time for each
    // replica's scheduled tick. Superseded tick events still sitting in
    // the heap are dropped when they pop — otherwise a stale tick would
    // fire an overdue timer at its *nominal* time and silently erode a
    // [`Fault::ClockSkew`] stretch back to the healthy cadence.
    let mut tick_fire: Vec<Nanos> = vec![Nanos::MAX; system.n()];
    let mut outstanding: HashMap<PaymentId, Outstanding> = HashMap::new();
    let mut entry_override: HashMap<usize, ReplicaId> = HashMap::new();
    // Payments whose representative was down at submit time, waiting for
    // the scheduled retry (one slot per client: the loop is closed).
    let mut parked: HashMap<usize, astro_types::Payment> = HashMap::new();
    let mut latency = LatencyRecorder::new();
    let mut timeline = ThroughputTimeline::new(cfg.timeline_bucket);
    // Fresh payments drawn from the workload (parked retries excluded).
    let mut drawn = 0usize;
    let mut submitted = 0usize;
    let mut confirmed = 0usize;
    let mut events = 0u64;
    let confirm_rule = system.confirm_rule();

    while let Some(Reverse(event)) = heap.pop() {
        if event.time > cfg.duration {
            break;
        }
        // Health windows close on the simulated clock: run every tick due
        // strictly before this event (events arrive in time order, so the
        // registry holds exactly the state as of the window's end).
        if let Some(t) = telemetry.as_deref_mut() {
            t.poll(event.time);
        }
        events += 1;
        match event.kind {
            EventKind::Fault(f) => match f {
                Fault::Crash(r) => network.crash(r),
                Fault::Restart(r) => {
                    network.restore(r);
                    // The restarted replica runs the catch-up handshake
                    // to learn what the quorum settled during its
                    // downtime (the runtime's `restart_replica` flow).
                    push(&mut heap, &mut seq, event.time, EventKind::CatchUp { replica: r });
                }
                Fault::Delay(r, extra) => network.add_delay(r, extra),
                Fault::PartialPartition(a, b) => network.partition(a, b),
                Fault::HealPartition(a, b) => {
                    network.heal(a, b);
                    // Broadcast messages dropped on the severed link have
                    // no transport-level retransmit; both endpoints fetch
                    // the missed state exactly as a restarted replica
                    // does.
                    push(&mut heap, &mut seq, event.time, EventKind::CatchUp { replica: a });
                    push(&mut heap, &mut seq, event.time, EventKind::CatchUp { replica: b });
                }
                Fault::SlowLink(a, b, extra) => network.slow_link(a, b, extra),
                Fault::DiskDegraded(r, degraded) => {
                    disk_stall[r.0 as usize] = if degraded { DISK_DEGRADED_STALL } else { 0 };
                }
                Fault::ClockSkew(r, permille) => {
                    clock_skew[r.0 as usize] = permille.max(1000);
                }
            },
            EventKind::CatchUp { replica } => {
                if network.is_crashed(replica) {
                    continue; // crashed again before catching up
                }
                let donors: Vec<ReplicaId> = system
                    .broadcast_targets(replica)
                    .into_iter()
                    .filter(|&d| d != replica && !network.is_crashed(d))
                    .collect();
                match system.catch_up(replica, &donors) {
                    Some((bytes, step)) => {
                        // Charge the handshake: one request/response round
                        // trip plus serializing the transferred state.
                        let tx = (bytes as u64).saturating_mul(1_000_000_000)
                            / cfg.net.bandwidth_bytes_per_sec.max(1);
                        let done = event.time + 2 * cfg.net.inter_region_latency + tx;
                        cpu_free[replica.0 as usize] = cpu_free[replica.0 as usize].max(done);
                        process_step(
                            &mut system,
                            &mut network,
                            &mut heap,
                            &mut seq,
                            &mut rng,
                            &cfg,
                            &mut outstanding,
                            &mut latency,
                            &mut timeline,
                            &mut confirmed,
                            &mut next_tick,
                            &mut tick_fire,
                            &mut cpu_free,
                            replica,
                            step,
                            done,
                            confirm_rule,
                            telemetry.as_deref_mut(),
                            &disk_stall,
                            &clock_skew,
                        );
                    }
                    // No f+1 matching state yet (donors mid-divergence):
                    // retry later, as the live protocol does on its flush
                    // timer. Systems without catch-up machinery (the
                    // consensus baseline) restart with state intact and
                    // nothing to fetch.
                    None if system.has_catch_up() => push(
                        &mut heap,
                        &mut seq,
                        event.time + CATCH_UP_RETRY,
                        EventKind::CatchUp { replica },
                    ),
                    None => {}
                }
            }
            EventKind::ClientSubmit { client } => {
                // A payment parked while its representative was down is
                // retried as-is: drawing a fresh one would skip a
                // sequence number and wedge the client's xlog forever.
                let payment = match parked.remove(&client) {
                    Some(p) => p,
                    None => {
                        // The budget counts *drawn* payments; once
                        // exhausted this client's closed loop ends.
                        if cfg.submit_budget.is_some_and(|b| drawn >= b) {
                            continue;
                        }
                        drawn += 1;
                        workload.next_payment(client, &mut rng)
                    }
                };
                // Route by the *payment's spender* — a Smallbank owner has
                // two xlogs (checking, savings) with possibly different
                // representatives.
                let mut entry =
                    *entry_override.get(&client).unwrap_or(&system.entry_replica(payment.spender));
                if network.is_crashed(entry) {
                    match confirm_rule {
                        // Astro: fate-sharing with the representative —
                        // the client's xlog stops while it is down (paper
                        // §VI-D), and resumes if a restart brings it back.
                        ConfirmRule::AtEntryReplica => {
                            parked.insert(client, payment);
                            push(
                                &mut heap,
                                &mut seq,
                                event.time + CLIENT_RETRY,
                                EventKind::ClientSubmit { client },
                            );
                            continue;
                        }
                        // BFT-SMaRt clients reconnect to another replica.
                        ConfirmRule::ReplicaCount(_) => {
                            let live: Vec<ReplicaId> = (0..system.n() as u32)
                                .map(ReplicaId)
                                .filter(|r| !network.is_crashed(*r))
                                .collect();
                            if live.is_empty() {
                                continue;
                            }
                            entry = live[rng.below(live.len() as u64) as usize];
                            entry_override.insert(client, entry);
                        }
                    }
                }
                submitted += 1;
                outstanding.insert(
                    payment.id(),
                    Outstanding { client, sent_at: event.time, entry, seen_at: 0 },
                );
                let arrival = event.time + client_leg(&network, entry, &cfg.net);
                let start = arrival.max(cpu_free[entry.0 as usize]);
                let step = system.submit(entry, payment, start);
                let completion = start + cfg.cpu.overhead_ns;
                cpu_free[entry.0 as usize] = completion;
                process_step(
                    &mut system,
                    &mut network,
                    &mut heap,
                    &mut seq,
                    &mut rng,
                    &cfg,
                    &mut outstanding,
                    &mut latency,
                    &mut timeline,
                    &mut confirmed,
                    &mut next_tick,
                    &mut tick_fire,
                    &mut cpu_free,
                    entry,
                    step,
                    completion,
                    confirm_rule,
                    telemetry.as_deref_mut(),
                    &disk_stall,
                    &clock_skew,
                );
            }
            EventKind::Deliver { from, to, msg } => {
                if network.is_crashed(to) {
                    continue;
                }
                let start = event.time.max(cpu_free[to.0 as usize]);
                let cost = system.deliver_cost(&msg, &cfg.cpu);
                // The verification share runs on the earliest-free lane
                // (the verify pool), overlapping the event loop; with no
                // lanes it IS event-loop work and counts toward
                // `inline_done` — the serial baseline charges it even
                // when the step produces no effects.
                let (inline_done, ready) = if cost.verify == 0 || cfg.cpu.verify_lanes == 0 {
                    let done = start + cfg.cpu.overhead_ns + cost.total();
                    (done, done)
                } else {
                    let inline_done = start + cfg.cpu.overhead_ns + cost.inline;
                    let lanes = &mut verify_free[to.0 as usize];
                    let lane = (0..lanes.len()).min_by_key(|&l| lanes[l]).expect("lanes > 0");
                    lanes[lane] = lanes[lane].max(start) + cost.verify;
                    (inline_done, inline_done.max(lanes[lane]))
                };
                // FIFO handling: this message cannot take effect before
                // its predecessors have (arrival-order pipeline).
                let ready = ready.max(deliver_ready[to.0 as usize]);
                deliver_ready[to.0 as usize] = ready;
                let step = system.deliver(to, from, msg, ready);
                let completion = ready
                    + (cfg.cpu.settle_ns + disk_stall[to.0 as usize]) * step.settled.len() as Nanos;
                // The loop itself is busy only for the inline share — a
                // message whose step had effects re-occupies it at
                // `ready` to emit them; one that produced nothing (an ACK
                // below quorum verifying in the background) frees the
                // loop at `inline_done`.
                cpu_free[to.0 as usize] = if step.outbound.is_empty() && step.settled.is_empty() {
                    inline_done
                } else {
                    completion
                };
                process_step(
                    &mut system,
                    &mut network,
                    &mut heap,
                    &mut seq,
                    &mut rng,
                    &cfg,
                    &mut outstanding,
                    &mut latency,
                    &mut timeline,
                    &mut confirmed,
                    &mut next_tick,
                    &mut tick_fire,
                    &mut cpu_free,
                    to,
                    step,
                    completion,
                    confirm_rule,
                    telemetry.as_deref_mut(),
                    &disk_stall,
                    &clock_skew,
                );
            }
            EventKind::Tick { replica } => {
                // Only the authoritative schedule fires the clock; ticks
                // whose deadline was superseded by a re-schedule are
                // inert heap residue.
                if event.time != tick_fire[replica.0 as usize] {
                    continue;
                }
                next_tick[replica.0 as usize] = Nanos::MAX;
                tick_fire[replica.0 as usize] = Nanos::MAX;
                if network.is_crashed(replica) {
                    continue;
                }
                let start = event.time.max(cpu_free[replica.0 as usize]);
                let step = system.tick(replica, start);
                let completion = start
                    + cfg.cpu.overhead_ns
                    + (cfg.cpu.settle_ns + disk_stall[replica.0 as usize])
                        * step.settled.len() as Nanos;
                cpu_free[replica.0 as usize] = completion;
                process_step(
                    &mut system,
                    &mut network,
                    &mut heap,
                    &mut seq,
                    &mut rng,
                    &cfg,
                    &mut outstanding,
                    &mut latency,
                    &mut timeline,
                    &mut confirmed,
                    &mut next_tick,
                    &mut tick_fire,
                    &mut cpu_free,
                    replica,
                    step,
                    completion,
                    confirm_rule,
                    telemetry.as_deref_mut(),
                    &disk_stall,
                    &clock_skew,
                );
            }
        }
    }

    let measured = cfg.duration.saturating_sub(cfg.warmup);
    let throughput =
        if measured > 0 { timeline.rate_between(cfg.warmup, cfg.duration) } else { 0.0 };
    (
        SimReport {
            submitted,
            confirmed,
            throughput_pps: throughput,
            latency: latency.stats(),
            timeline,
            events,
        },
        system,
    )
}

/// One-way latency between the client park (Ireland, §VI-B) and a replica.
fn client_leg(network: &Network, replica: ReplicaId, params: &NetParams) -> Nanos {
    if network.region_of(replica) == Region::Ireland {
        params.intra_region_latency
    } else {
        params.inter_region_latency
    }
}

#[allow(clippy::too_many_arguments)]
fn process_step<S: SimSystem>(
    system: &mut S,
    network: &mut Network,
    heap: &mut BinaryHeap<Reverse<Event<S::Msg>>>,
    seq: &mut u64,
    rng: &mut Rng,
    cfg: &SimConfig,
    outstanding: &mut HashMap<PaymentId, Outstanding>,
    latency: &mut LatencyRecorder,
    timeline: &mut ThroughputTimeline,
    confirmed: &mut usize,
    next_tick: &mut [Nanos],
    tick_fire: &mut [Nanos],
    cpu_free: &mut [Nanos],
    replica: ReplicaId,
    step: ReplicaStep<S::Msg>,
    now: Nanos,
    confirm_rule: ConfirmRule,
    mut telemetry: Option<&mut SimTelemetry>,
    disk_stall: &[Nanos],
    clock_skew: &[u64],
) {
    // The settles of this step hit the WAL: record the modelled fsync
    // latency (settle cost plus any injected disk stall) so the health
    // engine sees the same `store.*` signal the runtime exports.
    if !step.settled.is_empty() {
        if let Some(t) = telemetry.as_deref_mut() {
            t.on_settled(
                replica,
                step.settled.len(),
                cfg.cpu.settle_ns + disk_stall[replica.0 as usize],
            );
        }
    }

    // Confirmations.
    for p in &step.settled {
        let id = p.id();
        let confirm = match confirm_rule {
            ConfirmRule::AtEntryReplica => outstanding.get(&id).is_some_and(|o| o.entry == replica),
            ConfirmRule::ReplicaCount(k) => match outstanding.get_mut(&id) {
                Some(o) => {
                    o.seen_at += 1;
                    o.seen_at as usize >= k
                }
                None => false,
            },
        };
        if confirm {
            let info = outstanding.remove(&id).expect("checked above");
            let reply_at = now + client_leg(network, replica, &cfg.net);
            if reply_at >= cfg.warmup {
                latency.record(reply_at - info.sent_at);
            }
            timeline.record(reply_at);
            *confirmed += 1;
            // Closed loop: the client immediately submits its next payment.
            *seq += 1;
            heap.push(Reverse(Event {
                time: reply_at,
                seq: *seq,
                kind: EventKind::ClientSubmit { client: info.client },
            }));
        }
    }

    // Outbound messages. Each copy costs sender CPU (serialization, link
    // MAC) before it reaches the NIC, so broadcasts serialize through the
    // sender — the leader-bottleneck effect.
    let mut send_clock = now;
    for env in step.outbound {
        let size = system.wire_size(&env.msg);
        let per_copy = system.send_cost(&env.msg, &cfg.cpu);
        match env.to {
            Dest::All => {
                for target in system.broadcast_targets(replica) {
                    send_clock += per_copy;
                    let arrival = network.transmit(replica, target, size, send_clock, rng);
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.on_transmit(&*network, replica, target, send_clock, arrival);
                    }
                    if let Some(arrival) = arrival {
                        *seq += 1;
                        heap.push(Reverse(Event {
                            time: arrival,
                            seq: *seq,
                            kind: EventKind::Deliver {
                                from: replica,
                                to: target,
                                msg: env.msg.clone(),
                            },
                        }));
                    }
                }
            }
            Dest::One(target) => {
                send_clock += per_copy;
                let arrival = network.transmit(replica, target, size, send_clock, rng);
                if let Some(t) = telemetry.as_deref_mut() {
                    t.on_transmit(&*network, replica, target, send_clock, arrival);
                }
                if let Some(arrival) = arrival {
                    *seq += 1;
                    heap.push(Reverse(Event {
                        time: arrival,
                        seq: *seq,
                        kind: EventKind::Deliver { from: replica, to: target, msg: env.msg },
                    }));
                }
            }
        }
    }

    // The sender's CPU was busy until the last copy left.
    cpu_free[replica.0 as usize] = cpu_free[replica.0 as usize].max(send_clock);

    // Timer rescheduling for this replica. A skewed clock
    // ([`Fault::ClockSkew`]) stretches the remaining interval: the timer
    // still fires, just `permille / 1000` later than the protocol asked
    // for — batch cuts and outbox pacing crawl while message handling
    // runs at full speed.
    if let Some(deadline) = system.next_deadline(replica) {
        let slot = &mut next_tick[replica.0 as usize];
        if deadline < *slot {
            *slot = deadline;
            let skew = clock_skew[replica.0 as usize];
            let fire = now + deadline.saturating_sub(now).saturating_mul(skew) / 1000;
            tick_fire[replica.0 as usize] = fire;
            *seq += 1;
            heap.push(Reverse(Event { time: fire, seq: *seq, kind: EventKind::Tick { replica } }));
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
