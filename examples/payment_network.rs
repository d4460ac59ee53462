//! A simulated WAN payment network under failure — the robustness story of
//! the paper (§VI-D) as a runnable demo.
//!
//! ```sh
//! cargo run --release -p astro-examples --bin payment_network
//! ```
//!
//! Runs the same workload on Astro I (broadcast) and on the consensus
//! baseline over the modelled European WAN, crashes a replica mid-run, and
//! prints both throughput timelines: the consensus system stalls through a
//! view change when its leader dies; Astro loses only the crashed
//! representative's clients.

use astro_consensus::pbft::PbftConfig;
use astro_core::astro1::Astro1Config;
use astro_sim::harness::{run, Fault, SimConfig};
use astro_sim::systems::{Astro1System, PbftSystem};
use astro_sim::workload::UniformWorkload;
use astro_types::{Amount, ReplicaId};

const N: usize = 16;
const CLIENTS: usize = 10;

fn main() {
    let duration = 16_000_000_000;
    let fault_at = 8_000_000_000;
    let base =
        SimConfig { duration, warmup: 0, timeline_bucket: 1_000_000_000, ..SimConfig::default() };

    println!("payment network: N = {N}, {CLIENTS} closed-loop clients over a 4-region WAN");
    println!("a replica crashes at t = 8 s\n");

    let mut cfg = base.clone();
    cfg.faults = vec![(fault_at, Fault::Crash(ReplicaId(0)))]; // consensus leader
    let report = run(
        PbftSystem::new(
            N,
            PbftConfig {
                batch_size: 16,
                initial_balance: Amount(1_000_000),
                view_change_timeout: 2_000_000_000,
                ..PbftConfig::default()
            },
        ),
        UniformWorkload::new(CLIENTS, 10),
        cfg,
    );
    print_timeline("consensus (leader crashes)", &report);

    let mut cfg = base.clone();
    cfg.faults = vec![(fault_at, Fault::Crash(ReplicaId(3)))]; // one representative
    let report = run(
        Astro1System::new(
            1,
            N,
            Astro1Config { batch_size: 16, initial_balance: Amount(1_000_000) },
            5_000_000,
        ),
        UniformWorkload::new(CLIENTS, 10),
        cfg,
    );
    print_timeline("astro (a representative crashes)", &report);

    println!("\nthe consensus line hits zero during the view change; astro only sheds");
    println!("the crashed representative's own clients (fate-sharing, paper §VI-D)");
}

fn print_timeline(label: &str, report: &astro_sim::SimReport) {
    println!("{label}:");
    let series = report.timeline.per_second();
    let peak = series.iter().cloned().fold(1.0_f64, f64::max);
    for (sec, pps) in series.iter().enumerate().take(15) {
        let bar = "#".repeat((pps / peak * 50.0).round() as usize);
        println!("  t={sec:>2}s {pps:>7.0} pps |{bar}");
    }
    println!();
}
