//! Exact-output pins of the simulator: one seeded run per system, each
//! under a schedule that injects every [`Fault`] variant, must report the
//! very numbers recorded here — counts, event total, throughput, latency
//! percentiles, the confirmation timeline, and (for the observed run) the
//! health engine's output.
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

#[test]
fn astro1_n4_every_fault_pinned() {
    let system = Astro1System::new(
        1,
        4,
        Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000_000) },
        5 * MS,
    );
    let report = run(system, UniformWorkload::new(8, 10), cfg(11, every_fault(0, 1, 2)));
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 270,
            confirmed: 266,
            events: 4897,
            throughput_pps: 132.0,
            latency: (202, 55_744_058, 74_756_087, 76_373_515, 651_915_918),
            buckets: vec![36, 28, 24, 28, 34, 34, 42, 36, 4],
        }
    );
}

#[test]
fn astro2_two_shards_observed_every_fault_pinned() {
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
    let mut telemetry = SimTelemetry::new(8, HealthConfig::default(), BUCKET);
    system.attach_registry(telemetry.registry());
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
            submitted: 768,
            confirmed: 752,
            events: 13162,
            throughput_pps: 372.0,
            latency: (558, 41_176_300, 46_487_246, 47_295_949, 52_573_654),
            buckets: vec![96, 98, 90, 88, 94, 96, 92, 98],
        }
    );
    // One health window per bucket; the degraded disk is the one fault
    // the engine localises within the run.
    assert_eq!(telemetry.reports().len(), 7);
    assert_eq!(telemetry.implicated(), vec![Subject::Replica(1)]);
}

#[test]
fn pbft_n4_every_fault_pinned() {
    let system = PbftSystem::new(
        4,
        PbftConfig {
            batch_size: 8,
            batch_delay: 5 * MS,
            view_change_timeout: 1_000 * MS,
            initial_balance: Amount(1_000_000_000),
        },
    );
    // The crash hits a backup, so clients of the crashed replica
    // reconnect elsewhere (an rng draw) while the leader keeps ordering.
    let report = run(system, UniformWorkload::new(8, 10), cfg(33, every_fault(1, 2, 3)));
    assert_eq!(
        Pin::from(&report),
        Pin {
            submitted: 251,
            confirmed: 243,
            events: 3444,
            throughput_pps: 121.333_333_333_333_33,
            latency: (182, 61_674_393, 83_596_384, 90_592_357, 90_592_357),
            buckets: vec![32, 29, 24, 30, 34, 32, 32, 30],
        }
    );
}
