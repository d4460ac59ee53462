//! **Figure 7**: robustness at N = 100 (crash or asynchrony).
//!
//! Paper result: a leader crash stalls the consensus system for ~20 s of
//! view change at this scale; leader asynchrony degrades it for as long as
//! the slow replica stays leader. For the broadcast system either fault
//! only removes the affected replica's own share of client traffic.
//!
//! (Our PBFT's view change completes faster than BFT-SMaRt's Java
//! implementation at N = 100 — the stall is visible but shorter.)

use astro_consensus::pbft::PbftConfig;
use astro_core::astro1::Astro1Config;
use astro_sim::harness::{run, Fault, SimConfig};
use astro_sim::systems::{Astro1System, PbftSystem};
use astro_sim::workload::UniformWorkload;
use astro_types::{Amount, ReplicaId};

const N: usize = 100;
const CLIENTS: usize = 6;
const GENESIS: Amount = Amount(u64::MAX / 2);
const DELAY: u64 = 100_000_000;

fn main() {
    let secs: u64 =
        std::env::var("ASTRO_BENCH_DURATION_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(20);
    let duration = secs * 1_000_000_000;
    let fault_at = duration / 2;
    let cfg =
        SimConfig { duration, warmup: 0, timeline_bucket: 1_000_000_000, ..SimConfig::default() };

    println!(
        "# Figure 7: robustness at N = {N}, {CLIENTS} clients; fault at t = {} s",
        fault_at / 1_000_000_000
    );

    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Crash(ReplicaId(0)))];
    let r = run(pbft(), UniformWorkload::new(CLIENTS, 100), c);
    print_series("consensus-fail", &r);

    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Delay(ReplicaId(0), DELAY))];
    let r = run(pbft(), UniformWorkload::new(CLIENTS, 100), c);
    print_series("consensus-async", &r);

    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Crash(ReplicaId(3)))];
    let r = run(astro1(), UniformWorkload::new(CLIENTS, 100), c);
    print_series("broadcast-fail", &r);

    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Delay(ReplicaId(3), DELAY))];
    let r = run(astro1(), UniformWorkload::new(CLIENTS, 100), c);
    print_series("broadcast-async", &r);
}

fn pbft() -> PbftSystem {
    PbftSystem::new(
        N,
        PbftConfig {
            batch_size: 64,
            initial_balance: GENESIS,
            view_change_timeout: 4_000_000_000,
            ..PbftConfig::default()
        },
    )
}

fn astro1() -> Astro1System {
    Astro1System::new(N, Astro1Config { batch_size: 64, initial_balance: GENESIS }, 5_000_000)
}

fn print_series(label: &str, r: &astro_sim::SimReport) {
    let mut per_second = r.timeline.per_second();
    per_second.truncate(per_second.len().saturating_sub(1)); // drop partial bucket
    let series: Vec<String> = per_second.iter().map(|v| format!("{v:.0}")).collect();
    println!("{label:>16}: {}", series.join(" "));
}
