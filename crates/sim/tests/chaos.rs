//! Deterministic chaos schedules: random kill/restart sequences over a
//! payment workload must always converge.
//!
//! Each proptest case draws a schedule of crash windows (victim, start
//! offset, outage length), runs it through the discrete-event harness —
//! where `Fault::Restart` starts the runtime's catch-up handshake: the
//! restarted replica's requests (re-sent on its flush timer), the
//! donors' head and block replies and the broadcast traffic it parks
//! meanwhile all cross the simulated links, and it installs once `f+1`
//! copies certify — and then asserts the invariants no schedule may
//! violate:
//!
//! - **liveness**: every drawn payment confirms (clients never resubmit
//!   a different payment; parked submissions retry verbatim),
//! - **convergence**: all replicas end with byte-identical settlement
//!   state,
//! - **conservation**: no money is created or destroyed,
//! - **no stream-tag reuse**: no replica ever broadcasts the same
//!   `(source, tag)` twice (a catch-up install must never regress the
//!   tag counter),
//! - **no double settle**: no replica reports the same payment settled
//!   twice.
//!
//! Cases are generated from a per-test deterministic seed (the offline
//! proptest engine), so CI runs the exact same schedules every time and
//! a failure names the reproducing case.

use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode};
use astro_core::Replica;
use astro_sim::harness::run_with_system;
use astro_sim::netmodel::Nanos;
use astro_sim::rng::Rng;
use astro_sim::{
    Astro1System, Astro2System, CpuModel, Fault, NetParams, SimConfig, SimSystem, UniformWorkload,
};
use astro_types::{Amount, ClientId, Payment, ReplicaId};
use proptest::prelude::*;

const CLIENTS: usize = 6;
const GENESIS: u64 = 1_000_000;
const BUDGET: usize = 96;
const MS: Nanos = 1_000_000;

/// Serializes raw `(victim, gap_ms, outage_ms)` draws into a list of
/// non-overlapping crash windows (at most one replica down at a time —
/// `f = 1` for `n = 4`, so the live quorum always makes progress) and
/// returns the fault list plus a duration with a generous drain tail.
fn build_schedule(raw: &[(u64, u64, u64)]) -> (Vec<(Nanos, Fault)>, Nanos) {
    let mut faults = Vec::new();
    let mut t: Nanos = 300 * MS;
    for &(victim, gap_ms, outage_ms) in raw {
        let victim = ReplicaId((victim % 4) as u32);
        let crash = t + gap_ms * MS;
        let restart = crash + outage_ms * MS;
        faults.push((crash, Fault::Crash(victim)));
        faults.push((restart, Fault::Restart(victim)));
        t = restart + 50 * MS;
    }
    (faults, t + 3_000 * MS)
}

fn chaos_cfg(seed: u64, raw: &[(u64, u64, u64)]) -> SimConfig {
    let (faults, duration) = build_schedule(raw);
    cfg_with(seed, faults, duration)
}

fn cfg_with(seed: u64, faults: Vec<(Nanos, Fault)>, duration: Nanos) -> SimConfig {
    SimConfig {
        duration,
        warmup: 0,
        seed,
        net: NetParams::lan(),
        cpu: CpuModel::calibrated(),
        faults,
        timeline_bucket: 500 * MS,
        submit_budget: Some(BUDGET),
    }
}

/// Like [`build_schedule`], but every window layers a *gray* failure on
/// top of the crash: a partial partition between two survivors, a slow
/// link, a degraded disk, or a skewed timer — each healed/restored when
/// the window ends, so the run always drains. The crash victim doubles
/// as a beneficiary representative for some clients (round-robin
/// representation), which is exactly the "kill the representative
/// between settle and CREDIT delivery" race the retry outbox and
/// `CreditRequest` replay must win.
fn build_gray_schedule(raw: &[(u64, u64, u64, u64)]) -> (Vec<(Nanos, Fault)>, Nanos) {
    let mut faults = Vec::new();
    let mut t: Nanos = 300 * MS;
    for &(victim, gap_ms, outage_ms, gray) in raw {
        let v = ReplicaId((victim % 4) as u32);
        // Two replicas that are NOT the crash victim, for link faults:
        // severing a live-live link while a third replica is down stalls
        // broadcasts until the heal, which the drain tail must absorb.
        let a = ReplicaId(((victim + 1) % 4) as u32);
        let b = ReplicaId(((victim + 2 + gray % 2) % 4) as u32);
        let start = t + gap_ms * MS;
        let end = start + outage_ms * MS;
        faults.push((start, Fault::Crash(v)));
        faults.push((end, Fault::Restart(v)));
        match gray % 4 {
            0 => {
                faults.push((start, Fault::PartialPartition(a, b)));
                faults.push((end, Fault::HealPartition(a, b)));
            }
            1 => {
                faults.push((start, Fault::SlowLink(a, b, 20 * MS)));
                faults.push((end, Fault::SlowLink(a, b, 0)));
            }
            2 => {
                faults.push((start, Fault::DiskDegraded(a, true)));
                faults.push((end, Fault::DiskDegraded(a, false)));
            }
            _ => {
                // A survivor's timers crawl 8× slow: its batch cuts and
                // CREDIT ack/retransmit pacing stretch while a peer is
                // down — payments must still drain once pacing restores.
                faults.push((start, Fault::ClockSkew(a, 8_000)));
                faults.push((end, Fault::ClockSkew(a, 1_000)));
            }
        }
        t = end + 50 * MS;
    }
    (faults, t + 4_000 * MS)
}

/// The invariants shared by both systems, checked post-run.
fn assert_invariants(
    confirmed: usize,
    ledgers: Vec<Vec<u8>>,
    balances: Vec<Vec<u64>>,
    report: astro_sim::ChaosReport,
) {
    assert_eq!(
        confirmed, BUDGET,
        "every drawn payment must confirm — none may be lost to a crash window"
    );
    for (i, bytes) in ledgers.iter().enumerate() {
        assert_eq!(
            bytes, &ledgers[0],
            "replica {i} settlement state diverged from replica 0 after the schedule"
        );
    }
    for (i, per_client) in balances.iter().enumerate() {
        let total: u64 = per_client.iter().sum();
        assert_eq!(total, CLIENTS as u64 * GENESIS, "replica {i}: money not conserved");
    }
    assert_eq!(report.duplicate_broadcasts, 0, "stream-tag reuse");
    assert_eq!(report.double_settles, 0, "double settle");
    assert_eq!(report.equivocation_settles, 0, "conflicting payments settled under one id");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Astro I: echo-based broadcast, FIFO delivery — a restarted replica
    /// must advance its cursors through the transferred state or wedge.
    #[test]
    fn astro1_random_crash_restart_schedules_converge(
        seed in 0u64..u64::MAX / 2,
        raw in proptest::collection::vec((0u64..4, 50u64..600, 100u64..900), 1..4),
    ) {
        let mut system = Astro1System::new(
            1,
            4,
            Astro1Config { batch_size: 1, initial_balance: Amount(GENESIS) },
            2 * MS,
        );
        system.enable_chaos_audit();
        let workload = UniformWorkload::new(CLIENTS, 10);
        let (sim_report, system) = run_with_system(system, workload, chaos_cfg(seed, &raw));
        let ledgers: Vec<Vec<u8>> = (0..4)
            .map(|i| astro_types::wire::Wire::to_wire_bytes(&system.replica(i).ledger().export()))
            .collect();
        let balances: Vec<Vec<u64>> = (0..4)
            .map(|i| {
                assert!(system.replica(i).ledger().audit(), "replica {i} ledger audit");
                (0..CLIENTS as u64).map(|c| system.replica(i).balance(ClientId(c)).0).collect()
            })
            .collect();
        assert_invariants(
            sim_report.confirmed,
            ledgers,
            balances,
            system.chaos_report().expect("audit enabled"),
        );
    }

    /// Astro II (direct intra-shard credits): unordered signed broadcast —
    /// a restarted replica must resume its stream above the certified
    /// high-water mark and never re-materialize a used dependency.
    #[test]
    fn astro2_random_crash_restart_schedules_converge(
        seed in 0u64..u64::MAX / 2,
        raw in proptest::collection::vec((0u64..4, 50u64..600, 100u64..900), 1..4),
    ) {
        let mut system = Astro2System::new(
            1,
            4,
            Astro2Config {
                batch_size: 1,
                initial_balance: Amount(GENESIS),
                credit_mode: CreditMode::DirectIntraShard,
                ..Astro2Config::default()
            },
            2 * MS,
        );
        system.enable_chaos_audit();
        let workload = UniformWorkload::new(CLIENTS, 10);
        let (sim_report, system) = run_with_system(system, workload, chaos_cfg(seed, &raw));
        let ledgers: Vec<Vec<u8>> = (0..4)
            .map(|i| astro_types::wire::Wire::to_wire_bytes(&system.replica(i).ledger().export()))
            .collect();
        let balances: Vec<Vec<u64>> = (0..4)
            .map(|i| {
                assert!(system.replica(i).ledger().audit(), "replica {i} ledger audit");
                (0..CLIENTS as u64).map(|c| system.replica(i).balance(ClientId(c)).0).collect()
            })
            .collect();
        assert_invariants(
            sim_report.confirmed,
            ledgers,
            balances,
            system.chaos_report().expect("audit enabled"),
        );
    }

    /// Astro II with the full certificate mechanism under *gray*
    /// failures: every schedule kills replicas (beneficiary
    /// representatives among them — representation is round-robin, so
    /// every replica represents clients) while partial partitions, slow
    /// links, and degraded disks run alongside. CREDIT sub-batches are
    /// unicast, so a representative that dies between a settle and its
    /// CREDIT's arrival loses the bundle — the acked retry outbox and
    /// `CreditRequest` replay must re-deliver it. Asserted on top of the
    /// usual liveness/no-double-settle invariants:
    ///
    /// - **certificate availability**: conservation holds counting
    ///   certified-but-unspent credits at each client's representative —
    ///   every settled payment's credit is either materialized in the
    ///   ledger or certified at the beneficiary's representative, i.e.
    ///   nothing stayed lost in flight;
    /// - **delivery completes**: every retry outbox drained (all CREDIT
    ///   sub-batches were acked by their destination).
    #[test]
    fn astro2_certificates_survive_gray_failure_schedules(
        seed in 0u64..u64::MAX / 2,
        raw in proptest::collection::vec((0u64..4, 50u64..600, 100u64..900, 0u64..6), 1..4),
    ) {
        let (faults, duration) = build_gray_schedule(&raw);
        let mut system = Astro2System::new(
            1,
            4,
            Astro2Config {
                batch_size: 1,
                initial_balance: Amount(GENESIS),
                credit_mode: CreditMode::Certificates,
                ..Astro2Config::default()
            },
            2 * MS,
        );
        system.enable_chaos_audit();
        let workload = UniformWorkload::new(CLIENTS, 10);
        let (sim_report, system) = run_with_system(system, workload, cfg_with(seed, faults, duration));

        assert_eq!(
            sim_report.confirmed, BUDGET,
            "every drawn payment must confirm despite crashes, partitions, and sick disks"
        );
        let ledgers: Vec<Vec<u8>> = (0..4)
            .map(|i| astro_types::wire::Wire::to_wire_bytes(&system.replica(i).ledger().export()))
            .collect();
        for (i, bytes) in ledgers.iter().enumerate() {
            assert!(system.replica(i).ledger().audit(), "replica {i} ledger audit");
            assert_eq!(bytes, &ledgers[0], "replica {i} settlement state diverged");
        }
        for i in 0..4 {
            assert_eq!(
                system.replica(i).outbox_depth(),
                0,
                "replica {i}: unacked CREDIT sub-batches left at quiescence"
            );
        }
        // Conservation, counting money in flight as certificates: each
        // settle debits the spender immediately, and the credit must by
        // now be either materialized (in the ledger) or certified at the
        // beneficiary's representative. Anything else is a lost CREDIT.
        let ledger_total: u64 =
            (0..CLIENTS as u64).map(|c| system.replica(0).balance(ClientId(c)).0).sum();
        let floating: u64 = (0..CLIENTS as u64)
            .map(|c| {
                let rep = system.layout().representative_of(ClientId(c));
                let r = system.replica(rep.0 as usize);
                r.available_balance(ClientId(c)).0 - r.balance(ClientId(c)).0
            })
            .sum();
        assert_eq!(
            ledger_total + floating,
            CLIENTS as u64 * GENESIS,
            "money neither in a ledger nor certified at a representative: a CREDIT was lost"
        );
        let report = system.chaos_report().expect("audit enabled");
        assert_eq!(report.duplicate_broadcasts, 0, "stream-tag reuse");
        assert_eq!(report.double_settles, 0, "double settle");
        assert_eq!(report.equivocation_settles, 0, "conflicting payments settled under one id");
    }

    /// An equivocating client races two *conflicting* payments — same
    /// `(spender, seq)`, different beneficiary/amount — into the cluster:
    /// one through its representative, the other through both the
    /// representative (again) and a non-representative replica. Under
    /// seeded delivery reordering and duplication, at most one of the two
    /// may settle anywhere, and every replica must settle the same one.
    #[test]
    fn equivocating_client_settles_at_most_one_payment(
        seed in 0u64..u64::MAX / 2,
        amount_a in 1u64..50,
        amount_b in 1u64..50,
    ) {
        let mut system = Astro2System::new(
            1,
            4,
            Astro2Config {
                batch_size: 1,
                initial_balance: Amount(GENESIS),
                credit_mode: CreditMode::Certificates,
                ..Astro2Config::default()
            },
            2 * MS,
        );
        system.enable_chaos_audit();
        let rep = system.layout().representative_of(ClientId(0));
        let other = ReplicaId((rep.0 + 1) % 4);
        // Conflicting pair: same xlog slot, different content.
        let first = Payment::new(0u64, 0u64, 1u64, amount_a);
        let second = Payment::new(0u64, 0u64, 2u64, amount_b);

        let mut rng = Rng::seeded(seed);
        let mut queue: Vec<(ReplicaId, ReplicaId, <Astro2System as SimSystem>::Msg)> = Vec::new();
        let mut now: Nanos = 0;
        let route = |queue: &mut Vec<_>,
                     system: &Astro2System,
                     from: ReplicaId,
                     step: astro_core::ReplicaStep<<Astro2System as SimSystem>::Msg>| {
            for env in step.outbound {
                match env.to {
                    astro_brb::Dest::All => {
                        for to in system.broadcast_targets(from) {
                            queue.push((from, to, env.msg.clone()));
                        }
                    }
                    astro_brb::Dest::One(to) => queue.push((from, to, env.msg)),
                }
            }
        };

        let step = system.submit(rep, first, now);
        route(&mut queue, &system, rep, step);
        // The double spend: the same slot re-submitted at the honest
        // representative, and misrouted to a non-representative (which
        // must refuse to originate it).
        let step = system.submit(rep, second, now);
        route(&mut queue, &system, rep, step);
        let step = system.submit(other, second, now);
        route(&mut queue, &system, other, step);

        // Deliver everything in seeded random order, occasionally
        // duplicating a message (redelivery chaos); between bursts fire
        // the flush timers so batches, CREDIT retransmits, and acks keep
        // flowing. The idle threshold outlasts the outbox's maximum
        // retransmit backoff, so quiescence means genuinely done.
        let mut idle_rounds = 0;
        while idle_rounds < 40 {
            if let Some(pick) = (!queue.is_empty()).then(|| rng.below(queue.len() as u64) as usize) {
                idle_rounds = 0;
                let (from, to, msg) = queue.swap_remove(pick);
                let duplicate = rng.below(8) == 0;
                let step = system.deliver(to, from, msg.clone(), now);
                route(&mut queue, &system, to, step);
                if duplicate {
                    let step = system.deliver(to, from, msg, now);
                    route(&mut queue, &system, to, step);
                }
            } else {
                now += 4 * MS;
                for r in 0..4u32 {
                    let step = system.tick(ReplicaId(r), now);
                    route(&mut queue, &system, ReplicaId(r), step);
                }
                if queue.is_empty() {
                    idle_rounds += 1;
                }
            }
        }

        // Exactly the first-submitted payment settled, everywhere.
        let ledgers: Vec<Vec<u8>> = (0..4)
            .map(|i| astro_types::wire::Wire::to_wire_bytes(&system.replica(i).ledger().export()))
            .collect();
        for (i, bytes) in ledgers.iter().enumerate() {
            assert_eq!(bytes, &ledgers[0], "replica {i} diverged under the equivocation race");
            assert_eq!(
                system.replica(i).balance(ClientId(0)).0,
                GENESIS - amount_a,
                "replica {i}: the spender must be debited exactly once, for the first payment"
            );
        }
        // The winning beneficiary's representative certifies the credit;
        // the losing beneficiary gets nothing anywhere.
        let rep1 = system.layout().representative_of(ClientId(1));
        let rep2 = system.layout().representative_of(ClientId(2));
        assert_eq!(
            system.replica(rep1.0 as usize).available_balance(ClientId(1)).0,
            GENESIS + amount_a,
            "the settled payment's credit must reach its representative"
        );
        assert_eq!(
            system.replica(rep2.0 as usize).available_balance(ClientId(2)).0,
            GENESIS,
            "the conflicting payment must not credit anyone"
        );
        let report = system.chaos_report().expect("audit enabled");
        assert_eq!(report.equivocation_settles, 0, "conflicting payments settled under one id");
        assert_eq!(report.double_settles, 0, "double settle");
    }
}
