//! Gray-failure health-engine validation under seeded schedules: every
//! injected gray fault must be *localized* to the faulted subject, and
//! quiet runs must stay verdict-clean (zero false positives).
//!
//! These runs drive the exact engine + default thresholds the threaded
//! runtime deploys ([`astro_obs::HealthEngine`]) through the simulated
//! telemetry plane ([`astro_sim::SimTelemetry`]): `core.*` counters come
//! from the replicas' own [`astro_core::CoreObs`] instrumentation,
//! `net.*`/`store.*` from the harness's network and cost models, and
//! windows close on the simulated clock — so a failure here means the
//! live detector would mislocalize the same fault.

use astro_core::astro2::{Astro2Config, OUTBOX_BASE_TICKS};
use astro_obs::health::reason;
use astro_obs::{HealthConfig, Subject, Verdict};
use astro_sim::harness::run_observed;
use astro_sim::netmodel::Nanos;
use astro_sim::{
    Astro2System, CpuModel, Fault, NetParams, SimConfig, SimTelemetry, UniformWorkload,
};
use astro_types::{Amount, ReplicaId};

const MS: Nanos = 1_000_000;
/// One health window of simulated time.
const WINDOW: Nanos = 500 * MS;

/// Runs an Astro II cluster with the telemetry plane attached and
/// returns the collected health reports.
fn observed_run(seed: u64, duration: Nanos, faults: Vec<(Nanos, Fault)>) -> SimTelemetry {
    let mut system = Astro2System::new(
        1,
        4,
        Astro2Config {
            batch_size: 8,
            initial_balance: Amount(1_000_000_000),
            ..Astro2Config::default()
        },
        5 * MS,
    );
    let mut telemetry = SimTelemetry::new(4, HealthConfig::default(), WINDOW);
    system.attach_registry(telemetry.registry());
    let cfg = SimConfig {
        duration,
        warmup: 1_000 * MS,
        seed,
        net: NetParams::europe_wan(),
        cpu: CpuModel::calibrated(),
        faults,
        timeline_bucket: 1_000 * MS,
        submit_budget: None,
    };
    let (report, _system) = run_observed(system, UniformWorkload::new(8, 10), cfg, &mut telemetry);
    assert!(report.confirmed > 50, "cluster must make progress: {}", report.confirmed);
    telemetry
}

/// The faulted-subject set must contain `expected` (at whatever
/// severity) and nothing outside `allowed`.
fn assert_localized(telemetry: &SimTelemetry, expected: Subject, allowed: &[Subject]) {
    let worst = telemetry.worst_verdict(expected);
    assert!(!worst.is_healthy(), "{expected:?} never implicated");
    for subject in telemetry.implicated() {
        assert!(
            allowed.contains(&subject),
            "verdict on unfaulted subject {subject:?}: {:?} (allowed: {allowed:?})",
            telemetry.worst_verdict(subject)
        );
    }
}

#[test]
fn quiet_schedules_stay_verdict_clean() {
    for seed in [7u64, 21, 42] {
        let telemetry = observed_run(seed, 10_000 * MS, Vec::new());
        assert!(telemetry.reports().len() >= 15, "windows must close on the simulated clock");
        let implicated = telemetry.implicated();
        assert!(
            implicated.is_empty(),
            "seed {seed}: false positives on a healthy cluster: {implicated:?}"
        );
    }
}

#[test]
fn slow_link_is_localized_to_the_link() {
    // Both directions of 1–2 slow from 3 s (the fault is symmetric, so
    // both directed links may be implicated — but nothing else).
    let faults = vec![(3_000 * MS, Fault::SlowLink(ReplicaId(1), ReplicaId(2), 150 * MS))];
    let telemetry = observed_run(11, 14_000 * MS, faults);
    let allowed = [Subject::Link(1, 2), Subject::Link(2, 1)];
    assert_localized(&telemetry, Subject::Link(1, 2), &allowed);
    assert_eq!(
        telemetry.worst_verdict(Subject::Link(1, 2)).reason(),
        Some(reason::SLOW_LINK),
        "wrong diagnosis: {:?}",
        telemetry.worst_verdict(Subject::Link(1, 2))
    );
}

#[test]
fn degraded_disk_is_localized_to_the_replica() {
    let faults = vec![(3_000 * MS, Fault::DiskDegraded(ReplicaId(3), true))];
    let telemetry = observed_run(13, 14_000 * MS, faults);
    assert_localized(&telemetry, Subject::Replica(3), &[Subject::Replica(3)]);
    assert_eq!(telemetry.worst_verdict(Subject::Replica(3)).reason(), Some(reason::DISK_DEGRADED));
    assert_eq!(
        telemetry.worst_verdict(Subject::Replica(3)),
        Verdict::Degraded(reason::DISK_DEGRADED),
        "a persistent stall must escalate past Suspect"
    );
}

#[test]
fn partial_partition_is_localized_to_the_severed_links() {
    // Sever 1–2 from 3 s, never healed: frames keep entering the black
    // hole (TCP buffers them), nothing comes out the far side.
    let faults = vec![(3_000 * MS, Fault::PartialPartition(ReplicaId(1), ReplicaId(2)))];
    let telemetry = observed_run(17, 14_000 * MS, faults);
    let allowed = [Subject::Link(1, 2), Subject::Link(2, 1)];
    assert_localized(&telemetry, Subject::Link(1, 2), &allowed);
    assert_eq!(telemetry.worst_verdict(Subject::Link(1, 2)).reason(), Some(reason::PARTITIONED));
}

/// Replica 1's timers crawl `skew`× slow from 3 s (a wedged timer
/// thread): it keeps echoing peers' broadcasts at full speed, but its
/// batch cuts and the acks it owes leave only on its stretched flush
/// tick.
fn clock_skew_run(skew: u64) -> SimTelemetry {
    observed_run(19, 16_000 * MS, vec![(3_000 * MS, Fault::ClockSkew(ReplicaId(1), skew * 1000))])
}

/// Peers retransmit an unacked CREDIT after `OUTBOX_BASE_TICKS` = 64 of
/// their flush ticks, and while a CREDIT is unacked their timer ticks
/// every flush interval (5 ms here: a 320 ms horizon). A replica skewed
/// `s`× acks once every `s` flush intervals: at `s` = 64 its acks land
/// on the horizon, past it peers retransmit.
const RETRY_HORIZON: u64 = OUTBOX_BASE_TICKS as u64;

#[test]
fn clock_skew_is_localized_as_pacing_skew() {
    // At 2 × the horizon (128×: an ack every 640 ms against peers'
    // 320 ms retry timer) CREDITs to the skewed replica go out again
    // before its acks arrive: its egress collapses relative to peers
    // while their outboxes retransmit, exactly the signature the
    // pacing-skew rule keys on.
    let telemetry = clock_skew_run(2 * RETRY_HORIZON);
    assert_localized(&telemetry, Subject::Replica(1), &[Subject::Replica(1)]);
    assert_eq!(telemetry.worst_verdict(Subject::Replica(1)).reason(), Some(reason::PACING_SKEW));
}

#[test]
fn clock_skew_at_the_retry_horizon_implicates_nothing() {
    // Exactly at the horizon the acks still beat the peers' retry timer:
    // batches stretch but nothing retransmits — gray by design, and no
    // subject may be blamed for it.
    let telemetry = clock_skew_run(RETRY_HORIZON);
    let implicated = telemetry.implicated();
    assert!(implicated.is_empty(), "false positives at the retry horizon: {implicated:?}");
}
