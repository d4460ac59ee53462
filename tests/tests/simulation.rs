//! Integration tests for the simulator: cross-system invariants, fault
//! handling, determinism, and sharded consistency under load.

use astro_consensus::pbft::PbftConfig;
use astro_core::astro1::Astro1Config;
use astro_core::astro2::Astro2Config;
use astro_core::Replica;
use astro_sim::harness::{run, run_with_system, Fault, SimConfig};
use astro_sim::systems::{Astro1System, Astro2System, PbftSystem};
use astro_sim::workload::{SmallbankWorkload, UniformWorkload};
use astro_sim::{CpuModel, NetParams};
use astro_types::{Amount, ClientId, ReplicaId, ShardId};

fn cfg(secs: u64) -> SimConfig {
    SimConfig {
        duration: secs * 1_000_000_000,
        warmup: 500_000_000,
        seed: 99,
        net: NetParams::europe_wan(),
        cpu: CpuModel::calibrated(),
        faults: Vec::new(),
        timeline_bucket: 500_000_000,
        submit_budget: None,
    }
}

#[test]
fn astro2_sharded_smallbank_settles_cross_shard() {
    let system = Astro2System::new(
        2,
        4,
        Astro2Config {
            batch_size: 16,
            initial_balance: Amount(1_000_000_000),
            ..Astro2Config::default()
        },
        5_000_000,
    );
    let (report, system) = run_with_system(system, SmallbankWorkload::new(64, 2, 10), cfg(4));
    assert!(report.confirmed > 100, "only {} confirmed", report.confirmed);
    // The simulation cuts off mid-flight, so replicas may differ by
    // in-flight batches; the safety invariant is *prefix consistency*:
    // within a shard, any two replicas' xlogs for a client are prefixes of
    // one another with identical common entries.
    let layout = system.layout().clone();
    for shard in 0..2u16 {
        let members = layout.shard(ShardId(shard)).replicas.clone();
        for owner in 0..64u64 {
            let c = SmallbankWorkload::checking(owner, 2);
            if layout.shard_of_client(c) != ShardId(shard) {
                continue;
            }
            let logs: Vec<_> =
                members.iter().map(|m| system.replica(m.0 as usize).ledger().xlog(c)).collect();
            let min_len = logs.iter().map(|l| l.map_or(0, |x| x.len())).min().unwrap();
            for k in 0..min_len {
                let seq = astro_types::SeqNo(k as u64);
                let reference = logs[0].and_then(|x| x.get(seq));
                for (mi, log) in logs.iter().enumerate().skip(1) {
                    assert_eq!(
                        log.and_then(|x| x.get(seq)),
                        reference,
                        "shard {shard} xlog divergence for {c} at {k} (member {mi})"
                    );
                }
            }
        }
    }
}

#[test]
fn all_replicas_converge_after_simulation() {
    let system = Astro1System::new(
        7,
        Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000) },
        5_000_000,
    );
    let (report, system) = run_with_system(system, UniformWorkload::new(12, 5), cfg(3));
    assert!(report.confirmed > 50);
    // Quiescence is not guaranteed at cut-off, but settled prefixes must
    // agree: any two replicas' ledgers are prefix-consistent per client.
    for c in 0..12u64 {
        let client = ClientId(c);
        let mut lens: Vec<usize> = (0..7)
            .map(|i| system.replica(i).ledger().xlog(client).map_or(0, |x| x.len()))
            .collect();
        lens.sort_unstable();
        // Within each client, all replicas hold a prefix of the same log;
        // entries at common indexes must be identical.
        let min_len = lens[0];
        if min_len == 0 {
            continue;
        }
        let reference = system.replica(0).ledger().xlog(client);
        for i in 1..7 {
            let other = system.replica(i).ledger().xlog(client);
            if let (Some(a), Some(b)) = (reference, other) {
                for k in 0..min_len {
                    assert_eq!(
                        a.get(astro_types::SeqNo(k as u64)),
                        b.get(astro_types::SeqNo(k as u64)),
                        "xlog divergence for {client} at {k}"
                    );
                }
            }
        }
    }
}

#[test]
fn delay_fault_degrades_but_does_not_stop_astro() {
    let mut c = cfg(6);
    c.faults = vec![(3_000_000_000, Fault::Delay(ReplicaId(1), 100_000_000))];
    let report = run(
        Astro1System::new(
            4,
            Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000) },
            5_000_000,
        ),
        UniformWorkload::new(8, 5),
        c,
    );
    let series = report.timeline.per_second();
    assert!(series.last().copied().unwrap_or(0.0) > 0.0, "{series:?}");
}

#[test]
fn pbft_total_order_survives_simulated_crash() {
    let mut c = cfg(10);
    c.faults = vec![(3_000_000_000, Fault::Crash(ReplicaId(0)))];
    let system = PbftSystem::new(
        4,
        PbftConfig {
            batch_size: 8,
            initial_balance: Amount(1_000_000),
            view_change_timeout: 1_000_000_000,
            ..PbftConfig::default()
        },
    );
    let (report, system) = run_with_system(system, UniformWorkload::new(8, 5), c);
    assert!(report.confirmed > 50);
    // A view change must have happened, and live replicas' executed
    // histories must be prefix-consistent (cut-off may leave them one
    // batch apart or one view behind).
    assert!(system.view_of(1) >= 1, "view change must have happened");
    for i in 2..4 {
        assert!(system.view_of(i) >= 1);
    }
    for cl in 0..8u64 {
        let client = ClientId(cl);
        let logs: Vec<_> = (1..4).map(|i| system.replica(i).ledger().xlog(client)).collect();
        let min_len = logs.iter().map(|l| l.map_or(0, |x| x.len())).min().unwrap();
        for k in 0..min_len {
            let seq = astro_types::SeqNo(k as u64);
            let reference = logs[0].and_then(|x| x.get(seq));
            for log in &logs[1..] {
                assert_eq!(log.and_then(|x| x.get(seq)), reference);
            }
        }
    }
}

#[test]
fn reports_are_reproducible_across_runs() {
    let make = || {
        Astro2System::new(
            1,
            4,
            Astro2Config {
                batch_size: 8,
                initial_balance: Amount(1_000_000_000),
                ..Astro2Config::default()
            },
            5_000_000,
        )
    };
    let r1 = run(make(), UniformWorkload::new(6, 5), cfg(2));
    let r2 = run(make(), UniformWorkload::new(6, 5), cfg(2));
    assert_eq!(r1.confirmed, r2.confirmed);
    assert_eq!(r1.events, r2.events);
    assert_eq!(r1.latency.map(|l| l.p95), r2.latency.map(|l| l.p95));
}

#[test]
fn free_cpu_model_is_faster_than_calibrated() {
    let mut fast = cfg(2);
    fast.cpu = CpuModel::free();
    let slow = cfg(2);
    let make = || {
        Astro1System::new(
            4,
            Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000_000) },
            5_000_000,
        )
    };
    let r_fast = run(make(), UniformWorkload::new(256, 5), fast);
    let r_slow = run(make(), UniformWorkload::new(256, 5), slow);
    assert!(
        r_fast.throughput_pps >= r_slow.throughput_pps,
        "free CPU {} < calibrated {}",
        r_fast.throughput_pps,
        r_slow.throughput_pps
    );
}
