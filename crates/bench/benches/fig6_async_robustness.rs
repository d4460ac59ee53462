//! **Figure 6**: throughput timeline under asynchrony (N = 49).
//!
//! Paper setup: a 100 ms delay is injected on all packets leaving one
//! replica (`tc netem`). Paper result: with the *leader* affected, the
//! consensus system either stays degraded for good (timeline A — the
//! view-change timeout never fires) or goes through a view change and
//! recovers (timeline B — smaller penalty); a random consensus replica
//! causes only a brief quorum-switch dip; in Astro the affected replica's
//! own clients slow down and nothing else changes.

use astro_consensus::pbft::{Nanos, PbftConfig};
use astro_core::astro1::Astro1Config;
use astro_sim::harness::{run, Fault, SimConfig};
use astro_sim::systems::{Astro1System, PbftSystem};
use astro_sim::workload::UniformWorkload;
use astro_types::{Amount, ReplicaId};

const N: usize = 49;
const CLIENTS: usize = 10;
const GENESIS: Amount = Amount(u64::MAX / 2);
const DELAY: u64 = 100_000_000; // 100 ms, as in the paper

fn main() {
    let secs: u64 =
        std::env::var("ASTRO_BENCH_DURATION_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(24);
    let duration = secs * 1_000_000_000;
    let fault_at = duration / 2;
    let cfg =
        SimConfig { duration, warmup: 0, timeline_bucket: 1_000_000_000, ..SimConfig::default() };

    println!("# Figure 6: throughput during asynchrony (100 ms delay), N = {N}, {CLIENTS} clients");
    println!("# fault at t = {} s; one column per second (pps)", fault_at / 1_000_000_000);

    // A: leader delayed, conservative timeout — degraded, no view change.
    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Delay(ReplicaId(0), DELAY))];
    let r = run(pbft(8_000_000_000), UniformWorkload::new(CLIENTS, 100), c);
    print_series("consensus-leader-A", &r);

    // B: leader delayed, aggressive timeout — view change, then recovery.
    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Delay(ReplicaId(0), DELAY))];
    let r = run(pbft(120_000_000), UniformWorkload::new(CLIENTS, 100), c);
    print_series("consensus-leader-B", &r);

    // Random (non-leader) consensus replica delayed.
    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Delay(ReplicaId(17), DELAY))];
    let r = run(pbft(8_000_000_000), UniformWorkload::new(CLIENTS, 100), c);
    print_series("consensus-random", &r);

    // Astro I, random replica delayed.
    let mut c = cfg.clone();
    c.faults = vec![(fault_at, Fault::Delay(ReplicaId(7), DELAY))];
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

fn pbft(timeout: Nanos) -> PbftSystem {
    PbftSystem::new(
        N,
        PbftConfig {
            batch_size: 64,
            initial_balance: GENESIS,
            view_change_timeout: timeout,
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
