//! **Ablation**: the batching and crediting design choices.
//!
//! 1. Batch size (paper §VI-A): throughput with batch 1 / 16 / 64 / 256.
//!    The paper reports that one signature per batch of 256 payments makes
//!    Astro II bandwidth-limited instead of CPU-limited.
//! 2. Astro II credit mode: full certificates (Listings 7–10) vs the
//!    lightweight direct intra-shard crediting mentioned in the Table I
//!    discussion.
//! 3. Dependency policy: lazy (attach certificates only when needed) vs
//!    the literal Listing 7 (attach always).

use astro_bench::default_sim_config;
use astro_bench::saturation::find_peak;
use astro_core::astro1::Astro1Config;
use astro_core::astro2::{Astro2Config, CreditMode, DepPolicy};
use astro_sim::systems::{Astro1System, Astro2System};
use astro_types::Amount;

const GENESIS: Amount = Amount(u64::MAX / 2);
const N: usize = 16;

fn main() {
    let cfg = default_sim_config();
    println!("# Ablation 1: batch size vs peak throughput (N = {N})");
    println!("{:>8} {:>12} {:>12}", "batch", "astro1_pps", "astro2_pps");
    for batch in [1usize, 16, 64, 256] {
        let (a1, _) = find_peak(
            || {
                Astro1System::new(
                    N,
                    Astro1Config { batch_size: batch, initial_balance: GENESIS },
                    14_000_000, // ~2N² · 27 µs at N=16
                )
            },
            &cfg,
            64,
            2048,
        );
        let (a2, _) = find_peak(
            || {
                Astro2System::new(
                    1,
                    N,
                    Astro2Config {
                        batch_size: batch,
                        initial_balance: GENESIS,
                        ..Astro2Config::default()
                    },
                    8_000_000,
                )
            },
            &cfg,
            64,
            2048,
        );
        println!("{:>8} {:>12.0} {:>12.0}", batch, a1.throughput_pps, a2.throughput_pps);
    }

    println!();
    println!("# Ablation 2: Astro II credit mode (N = {N}, single shard)");
    println!("{:>24} {:>12}", "mode", "peak_pps");
    for (label, mode) in [
        ("certificates", CreditMode::Certificates),
        ("direct_intra_shard", CreditMode::DirectIntraShard),
    ] {
        let (r, _) = find_peak(
            || {
                Astro2System::new(
                    1,
                    N,
                    Astro2Config {
                        batch_size: 256,
                        initial_balance: GENESIS,
                        credit_mode: mode,
                        ..Astro2Config::default()
                    },
                    8_000_000,
                )
            },
            &cfg,
            64,
            2048,
        );
        println!("{:>24} {:>12.0}", label, r.throughput_pps);
    }

    println!();
    println!("# Ablation 3: dependency attachment policy (N = {N})");
    println!("{:>24} {:>12}", "policy", "peak_pps");
    for (label, policy) in
        [("when_needed (lazy)", DepPolicy::WhenNeeded), ("always (Listing 7)", DepPolicy::Always)]
    {
        let (r, _) = find_peak(
            || {
                Astro2System::new(
                    1,
                    N,
                    Astro2Config {
                        batch_size: 256,
                        initial_balance: GENESIS,
                        dep_policy: policy,
                        ..Astro2Config::default()
                    },
                    8_000_000,
                )
            },
            &cfg,
            64,
            2048,
        );
        println!("{:>24} {:>12.0}", label, r.throughput_pps);
    }
}
