//! **Figure 4**: latency vs throughput at N = 100 (single shard).
//!
//! Paper result: BFT-SMaRt sub-second average latency (95p 1.3–1.5 s);
//! Astro I 400–500 ms before saturation (95p ≈ 1 s); Astro II ≈ 200 ms
//! with 95p < 240 ms at low load. Each system's latency stays roughly flat
//! until its saturation knee.

use astro_bench::json::Metric;
use astro_bench::{default_sim_config, full_scale};
use astro_consensus::pbft::PbftConfig;
use astro_core::astro1::Astro1Config;
use astro_core::astro2::Astro2Config;
use astro_sim::harness::run;
use astro_sim::systems::{Astro1System, Astro2System, PbftSystem};
use astro_sim::workload::UniformWorkload;
use astro_types::Amount;

const GENESIS: Amount = Amount(u64::MAX / 2);
const N: usize = 100;

fn main() {
    let cfg = default_sim_config();
    let loads: Vec<usize> = if full_scale() {
        vec![4, 16, 64, 128, 256, 512, 1024, 2048, 4096]
    } else {
        vec![8, 64, 512, 2048]
    };
    println!("# Figure 4: latency vs throughput at N = {N} (one line per load point)");
    println!(
        "# paper: BFT-SMaRt avg <1s (95p 1.3-1.5s); AstroI 400-500ms; AstroII ~200ms (95p<240ms)"
    );
    println!(
        "{:>10} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "system", "clients", "pps", "avg_ms", "p95_ms", "p99_ms"
    );
    let mut metrics: Vec<Metric> = Vec::new();
    for &clients in &loads {
        let r = run(
            Astro1System::new(
                1,
                N,
                Astro1Config { batch_size: 64, initial_balance: GENESIS },
                // Throughput-optimal flush for Bracha at N=100 (see fig3).
                540_000_000,
            ),
            UniformWorkload::new(clients, 100),
            cfg.clone(),
        );
        record_row(&mut metrics, "astro1", clients, &r);
        let r = run(
            Astro2System::new(
                1,
                N,
                Astro2Config {
                    batch_size: 256,
                    initial_balance: GENESIS,
                    ..Astro2Config::default()
                },
                50_000_000,
            ),
            UniformWorkload::new(clients, 100),
            cfg.clone(),
        );
        record_row(&mut metrics, "astro2", clients, &r);
        let r = run(
            PbftSystem::new(
                N,
                PbftConfig { batch_size: 64, initial_balance: GENESIS, ..PbftConfig::default() },
            ),
            UniformWorkload::new(clients, 100),
            cfg.clone(),
        );
        record_row(&mut metrics, "consensus", clients, &r);
    }
    let path =
        astro_bench::json::write("fig4_latency_throughput", &metrics).expect("write bench json");
    println!("\nwrote {}", path.display());
}

fn record_row(metrics: &mut Vec<Metric>, system: &str, clients: usize, r: &astro_sim::SimReport) {
    let (avg, p50, p95, p99) = r
        .latency
        .map(|l| (l.mean / 1e6, l.p50 as f64 / 1e6, l.p95 as f64 / 1e6, l.p99 as f64 / 1e6))
        .unwrap_or((f64::NAN, f64::NAN, f64::NAN, f64::NAN));
    println!(
        "{:>10} {:>8} {:>12.0} {:>10.1} {:>10.1} {:>10.1}",
        system, clients, r.throughput_pps, avg, p95, p99
    );
    metrics.push(Metric::new(
        format!("{system}/clients_{clients}"),
        [
            ("payments_per_sec", r.throughput_pps),
            ("avg_ms", avg),
            ("p50_ms", p50),
            ("p95_ms", p95),
            ("p99_ms", p99),
        ],
    ));
}
