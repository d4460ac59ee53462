//! **Figure 5**: throughput timeline under a crash-stop failure (N = 49).
//!
//! Paper setup: 10 single-thread closed-loop clients (below saturation), a
//! replica crashes mid-run. Paper result: crashing the consensus *leader*
//! drops throughput to zero for several seconds (view change); crashing a
//! random consensus replica causes a brief dip; crashing a random Astro I
//! replica removes only the crashed representative's share (~270 → 250
//! pps) with no global disturbance.
//!
//! The fault fires at half the run; the paper's window is 60 s with the
//! fault at 30 s (use `ASTRO_BENCH_DURATION_SECS=60` to match).

use astro_consensus::pbft::PbftConfig;
use astro_core::astro1::Astro1Config;
use astro_sim::harness::{run, Fault, SimConfig};
use astro_sim::systems::{Astro1System, PbftSystem};
use astro_sim::workload::UniformWorkload;
use astro_types::{Amount, ReplicaId};

const N: usize = 49;
const CLIENTS: usize = 10;
const GENESIS: Amount = Amount(u64::MAX / 2);

fn main() {
    let secs: u64 =
        std::env::var("ASTRO_BENCH_DURATION_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(24);
    let duration = secs * 1_000_000_000;
    let fault_at = duration / 2;
    let cfg =
        SimConfig { duration, warmup: 0, timeline_bucket: 1_000_000_000, ..SimConfig::default() };

    println!("# Figure 5: throughput during a crash-stop failure, N = {N}, {CLIENTS} clients");
    println!("# fault at t = {} s; one column per second (pps)", fault_at / 1_000_000_000);

    // Consensus, leader crash (leader of view 0 is replica 0).
    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Crash(ReplicaId(0)))];
    let r = run(pbft(), UniformWorkload::new(CLIENTS, 100), c);
    print_series("consensus-leader", &r);

    // Consensus, random (non-leader) replica crash.
    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Crash(ReplicaId(17)))];
    let r = run(pbft(), UniformWorkload::new(CLIENTS, 100), c);
    print_series("consensus-random", &r);

    // Astro I (broadcast), random replica crash.
    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Crash(ReplicaId(7)))];
    let r = run(
        Astro1System::new(
            1,
            N,
            Astro1Config { batch_size: 64, initial_balance: GENESIS },
            5_000_000,
        ),
        UniformWorkload::new(CLIENTS, 100),
        c,
    );
    print_series("broadcast-random", &r);
}

fn pbft() -> PbftSystem {
    PbftSystem::new(
        N,
        PbftConfig {
            batch_size: 64,
            initial_balance: GENESIS,
            view_change_timeout: 3_000_000_000,
            ..PbftConfig::default()
        },
    )
}

fn print_series(label: &str, r: &astro_sim::SimReport) {
    let mut per_second = r.timeline.per_second();
    per_second.truncate(per_second.len().saturating_sub(1)); // drop partial bucket
    let series: Vec<String> = per_second.iter().map(|v| format!("{v:.0}")).collect();
    println!("{label:>18}: {}", series.join(" "));
}
