//! Exact-output pins of the simulator: one seeded run per system, each
//! under a schedule that injects every [`Fault`] variant, must report the
//! very numbers recorded here — counts, event total, throughput, latency
//! percentiles, the confirmation timeline, and (for the observed run) the
//! health engine's output. A second run per system drops the two faults
//! after which a replica rejoins and catches up (`Restart`,
//! `HealPartition`), so a change to catch-up alone leaves those pins put.
//!
//! The harness is deterministic given a seed, so any change to the event
//! loop that reorders a heap push or an rng draw moves a number and fails
//! here by name. `warmup` and `duration` are multiples of the timeline
//! bucket, so a confirmation's bucket and its steady-state window agree.

use astro_consensus::pbft::PbftConfig;
use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode};
use astro_obs::{HealthConfig, Subject};
use astro_sim::harness::{run, run_observed};
use astro_sim::netmodel::Nanos;
use astro_sim::{
    Astro1System, Astro2System, CpuModel, Fault, NetParams, PbftSystem, SimConfig, SimReport,
    SimTelemetry, UniformWorkload,
};
use astro_types::{Amount, ReplicaId};

const MS: Nanos = 1_000_000;
const BUCKET: Nanos = 250 * MS;

/// The pinned face of a [`SimReport`].
#[derive(Debug, PartialEq)]
struct Pin {
    submitted: usize,
    confirmed: usize,
    events: u64,
    throughput_pps: f64,
    /// Latency `(count, p50, p95, p99, max)`.
    latency: (u64, Nanos, Nanos, Nanos, Nanos),
    buckets: Vec<u64>,
}

impl From<&SimReport> for Pin {
    fn from(r: &SimReport) -> Self {
        let l = r.latency.expect("the run confirms after warm-up");
        Pin {
            submitted: r.submitted,
            confirmed: r.confirmed,
            events: r.events,
            throughput_pps: r.throughput_pps,
            latency: (l.count, l.p50, l.p95, l.p99, l.max),
            buckets: r.timeline.buckets().to_vec(),
        }
    }
}

/// Every fault variant, on replicas `a`, `b`, `c` (all distinct, at most
/// one crashed at a time), each undone before the run ends.
fn every_fault(a: u32, b: u32, c: u32) -> Vec<(Nanos, Fault)> {
    let (a, b, c) = (ReplicaId(a), ReplicaId(b), ReplicaId(c));
    vec![
        (200 * MS, Fault::Delay(b, 5 * MS)),
        (300 * MS, Fault::Crash(c)),
        (400 * MS, Fault::SlowLink(b, a, 10 * MS)),
        (500 * MS, Fault::DiskDegraded(a, true)),
        (600 * MS, Fault::ClockSkew(b, 3_000)),
        (700 * MS, Fault::Restart(c)),
        (900 * MS, Fault::PartialPartition(a, c)),
        (1_100 * MS, Fault::SlowLink(b, a, 0)),
        (1_200 * MS, Fault::HealPartition(a, c)),
        (1_300 * MS, Fault::DiskDegraded(a, false)),
        (1_400 * MS, Fault::ClockSkew(b, 1_000)),
    ]
}

/// [`every_fault`] without the two faults that make a replica rejoin
/// ([`Fault::Restart`], [`Fault::HealPartition`]): the crashed replica
/// stays down and the severed link stays cut, so no fault starts a
/// catch-up.
fn no_rejoin(faults: Vec<(Nanos, Fault)>) -> Vec<(Nanos, Fault)> {
    faults
        .into_iter()
        .filter(|(_, f)| !matches!(f, Fault::Restart(_) | Fault::HealPartition(..)))
        .collect()
}

fn cfg(seed: u64, faults: Vec<(Nanos, Fault)>) -> SimConfig {
    SimConfig {
        duration: 2_000 * MS,
        warmup: 500 * MS,
        seed,
        net: NetParams::europe_wan(),
        cpu: CpuModel::calibrated(),
        faults,
        timeline_bucket: BUCKET,
        submit_budget: None,
    }
}

fn astro1() -> Astro1System {
    Astro1System::new(
        1,
        4,
        Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000_000) },
        5 * MS,
    )
}

fn astro2() -> (Astro2System, SimTelemetry) {
    let mut system = Astro2System::new(
        2,
        4,
        Astro2Config {
            batch_size: 8,
            initial_balance: Amount(1_000_000_000),
            credit_mode: CreditMode::Certificates,
            ..Astro2Config::default()
        },
        5 * MS,
    );
    let telemetry = SimTelemetry::new(8, HealthConfig::default(), BUCKET);
    system.attach_registry(telemetry.registry());
    (system, telemetry)
}

fn pbft() -> PbftSystem {
    PbftSystem::new(
        4,
        PbftConfig {
            batch_size: 8,
            batch_delay: 5 * MS,
            view_change_timeout: 1_000 * MS,
            initial_balance: Amount(1_000_000_000),
        },
    )
}

#[test]
fn astro1_n4_every_fault_pinned() {
    let report = run(astro1(), UniformWorkload::new(8, 10), cfg(11, every_fault(0, 1, 2)));
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 276,
            confirmed: 268,
            events: 4983,
            throughput_pps: 136.0,
            latency: (204, 55_866_139, 74_807_517, 83_694_541, 457_396_320),
            buckets: vec![36, 28, 24, 34, 28, 40, 38, 40],
        }
    );
}

#[test]
fn astro2_two_shards_observed_every_fault_pinned() {
    let (system, mut telemetry) = astro2();
    // Faults straddle the shards: replicas 0–3 form shard 0, 4–7 shard 1.
    let (report, _system) = run_observed(
        system,
        UniformWorkload::new(16, 10),
        cfg(22, every_fault(1, 4, 6)),
        &mut telemetry,
    );
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 764,
            confirmed: 748,
            events: 12961,
            throughput_pps: 369.333_333_333_333_3,
            latency: (554, 41_169_559, 46_523_738, 47_350_287, 62_684_365),
            buckets: vec![96, 98, 88, 90, 90, 94, 96, 96],
        }
    );
    // One health window per bucket; the degraded disk is the one fault
    // the engine localises within the run.
    assert_eq!(telemetry.reports().len(), 7);
    assert_eq!(telemetry.implicated(), vec![Subject::Replica(1)]);
}

#[test]
fn pbft_n4_every_fault_pinned() {
    // The crash hits a backup, so clients of the crashed replica
    // reconnect elsewhere (an rng draw) while the leader keeps ordering.
    let report = run(pbft(), UniformWorkload::new(8, 10), cfg(33, every_fault(1, 2, 3)));
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 251,
            confirmed: 243,
            events: 3441,
            throughput_pps: 121.333_333_333_333_33,
            latency: (182, 61_674_393, 83_596_384, 90_592_357, 90_592_357),
            buckets: vec![32, 29, 24, 30, 34, 32, 32, 30],
        }
    );
}

#[test]
fn astro1_n4_rejoin_free_faults_pinned() {
    let report =
        run(astro1(), UniformWorkload::new(8, 10), cfg(11, no_rejoin(every_fault(0, 1, 2))));
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 218,
            confirmed: 210,
            events: 2938,
            throughput_pps: 97.333_333_333_333_33,
            latency: (146, 60_850_554, 76_926_338, 77_819_851, 77_819_851),
            buckets: vec![36, 28, 22, 20, 24, 24, 28, 28],
        }
    );
}

#[test]
fn astro2_two_shards_observed_rejoin_free_faults_pinned() {
    let (system, mut telemetry) = astro2();
    let (report, _system) = run_observed(
        system,
        UniformWorkload::new(16, 10),
        cfg(22, no_rejoin(every_fault(1, 4, 6))),
        &mut telemetry,
    );
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 748,
            confirmed: 732,
            events: 11025,
            throughput_pps: 358.666_666_666_666_7,
            latency: (538, 41_215_016, 46_720_593, 47_005_306, 47_383_804),
            buckets: vec![96, 98, 88, 88, 86, 90, 94, 92],
        }
    );
    // With nothing undone, the engine localises the degraded disk, the
    // replica that stays crashed and the link that stays cut.
    assert_eq!(telemetry.reports().len(), 7);
    assert_eq!(
        telemetry.implicated(),
        vec![Subject::Replica(1), Subject::Replica(6), Subject::Link(1, 6)]
    );
}

#[test]
fn pbft_n4_rejoin_free_faults_pinned() {
    let report = run(pbft(), UniformWorkload::new(8, 10), cfg(33, no_rejoin(every_fault(1, 2, 3))));
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 243,
            confirmed: 235,
            events: 2398,
            throughput_pps: 116.0,
            latency: (174, 70_180_829, 90_417_357, 101_609_843, 101_609_843),
            buckets: vec![32, 29, 24, 22, 30, 32, 30, 36],
        }
    );
}
