//! **Figure 3**: peak throughput vs system size (single shard).
//!
//! Paper result (log-scale): Astro II ≈ 55K pps (N=4) → 5K (N=100);
//! Astro I ≈ 13.5K → 2K; BFT-SMaRt ≈ 10K → 334. Expected reproduction:
//! the same ordering at every size (Astro II > Astro I > consensus), with
//! Astro's curves decaying gently and the consensus baseline decaying
//! ~1/N due to the leader bottleneck.

use astro_bench::saturation::find_peak;
use astro_bench::{default_sim_config, fig3_sizes};
use astro_consensus::pbft::PbftConfig;
use astro_core::astro1::Astro1Config;
use astro_core::astro2::Astro2Config;
use astro_sim::systems::{Astro1System, Astro2System, PbftSystem};
use astro_types::Amount;

const GENESIS: Amount = Amount(u64::MAX / 2);

/// Throughput-optimal batch flush delay per system size (the authors tune
/// batching per configuration, §VI-A). Bracha floods 2N messages per batch
/// at every replica, so its delay must grow ~N² for batches to amortize;
/// the signed broadcast only needs ~N·0.5 ms. (The Astro I constant was
/// tuned when ECHO and READY carried the whole batch and has not been
/// re-tuned for 49-byte digest votes: it is now longer than it need be.)
fn astro1_delay(n: usize) -> u64 {
    (2 * (n as u64) * (n as u64) * 27_000).max(5_000_000)
}

fn astro2_delay(n: usize) -> u64 {
    ((n as u64) * 500_000).max(5_000_000)
}

fn main() {
    let mut cfg = default_sim_config();
    // Saturation latency approaches a second at large N; the run must be
    // long enough for the closed loop to reach steady state.
    cfg.duration = cfg.duration.max(4_000_000_000);
    cfg.warmup = cfg.duration * 2 / 5;
    println!("# Figure 3: peak throughput (pps) vs system size N, single shard");
    println!("# paper: AstroII 55K->5K | AstroI 13.5K->2K | BFT-SMaRt 10K->334 (N=4->100)");
    println!("{:>4} {:>12} {:>12} {:>12}", "N", "astro1_pps", "astro2_pps", "consensus_pps");
    for n in fig3_sizes() {
        // Closed-loop saturation needs plenty of clients, especially for
        // the latency-bound Astro II.
        let max_clients = 8192;
        let max_clients_a2 = 8192;
        let (astro1, _) = find_peak(
            || {
                Astro1System::new(
                    1,
                    n,
                    Astro1Config { batch_size: 64, initial_balance: GENESIS },
                    astro1_delay(n),
                )
            },
            &cfg,
            128,
            max_clients,
        );
        let (astro2, _) = find_peak(
            || {
                Astro2System::new(
                    1,
                    n,
                    Astro2Config {
                        batch_size: 256,
                        initial_balance: GENESIS,
                        ..Astro2Config::default()
                    },
                    astro2_delay(n),
                )
            },
            &cfg,
            128,
            max_clients_a2,
        );
        let (pbft, _) = find_peak(
            || {
                PbftSystem::new(
                    n,
                    PbftConfig {
                        batch_size: 64,
                        initial_balance: GENESIS,
                        ..PbftConfig::default()
                    },
                )
            },
            &cfg,
            128,
            max_clients,
        );
        println!(
            "{:>4} {:>12.0} {:>12.0} {:>12.0}",
            n, astro1.throughput_pps, astro2.throughput_pps, pbft.throughput_pps
        );
    }
}
