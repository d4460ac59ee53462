//! A replica that crashes under sustained load and restarts must end the
//! run level with the rest of its cluster.
//!
//! 256 closed-loop clients keep every replica busy; replica 3 crashes at
//! 1 s and restarts at 1.5 s with its state intact. While it was down the
//! quorum settled payments it never saw, and the broadcast layer does not
//! retransmit them, so it has to fetch them through the catch-up
//! handshake while the load goes on. By the end of the 3 s run it must
//! have finished catching up and trail the best replica by at most one
//! payment per client: a closed loop has at most one payment per client
//! in flight, so anything more is history the replica failed to learn.

use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode, DepPolicy};
use astro_sim::harness::run_with_system;
use astro_sim::netmodel::Nanos;
use astro_sim::{
    Astro1System, Astro2System, AstroSystem, CpuModel, Fault, NetParams, SimConfig, SimReplica,
    UniformWorkload,
};
use astro_types::{Amount, ReplicaId};

const MS: Nanos = 1_000_000;
const CLIENTS: usize = 256;
const VICTIM: usize = 3;

fn assert_rejoins_level<R: SimReplica>(system: AstroSystem<R>) {
    let cfg = SimConfig {
        duration: 3_000 * MS,
        warmup: 500 * MS,
        seed: 11,
        net: NetParams::europe_wan(),
        cpu: CpuModel::calibrated(),
        faults: vec![
            (1_000 * MS, Fault::Crash(ReplicaId(VICTIM as u32))),
            (1_500 * MS, Fault::Restart(ReplicaId(VICTIM as u32))),
        ],
        timeline_bucket: 500 * MS,
        submit_budget: None,
    };
    let (report, system) = run_with_system(system, UniformWorkload::new(CLIENTS, 10), cfg);
    assert!(report.confirmed > 0);
    let settled: Vec<usize> = (0..4).map(|i| system.replica(i).ledger().total_settled()).collect();
    let victim = system.replica(VICTIM);
    assert!(!victim.is_syncing(), "replica {VICTIM} still catching up; settled {settled:?}");
    let best = *settled.iter().max().expect("four replicas");
    assert!(
        best - settled[VICTIM] <= CLIENTS,
        "replica {VICTIM} trails by {}; settled {settled:?}",
        best - settled[VICTIM]
    );
}

#[test]
fn astro1_replica_restarted_under_load_ends_level() {
    assert_rejoins_level(Astro1System::new(
        1,
        4,
        Astro1Config { batch_size: 16, initial_balance: Amount(1_000_000_000) },
        5 * MS,
    ));
}

fn astro2(dep_policy: DepPolicy) -> Astro2System {
    Astro2System::new(
        1,
        4,
        Astro2Config {
            batch_size: 16,
            initial_balance: Amount(1_000_000_000),
            credit_mode: CreditMode::Certificates,
            dep_policy,
        },
        5 * MS,
    )
}

#[test]
fn astro2_replica_restarted_under_load_ends_level_when_needed() {
    assert_rejoins_level(astro2(DepPolicy::WhenNeeded));
}

#[test]
fn astro2_replica_restarted_under_load_ends_level_always_attaching() {
    assert_rejoins_level(astro2(DepPolicy::Always));
}
