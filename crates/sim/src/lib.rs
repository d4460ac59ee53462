//! Deterministic discrete-event simulation of Astro and its consensus
//! baseline on a modelled European WAN.
//!
//! The paper evaluates on Amazon EC2 (four EU regions, t2.medium VMs,
//! ~20 ms RTT, ~30 MiB/s — §VI-B). This crate substitutes a calibrated
//! simulator: the *same protocol state machines* from
//! `astro-core` / `astro-consensus` are driven over
//!
//! - a **network model** ([`netmodel`]): region latency matrix, per-node
//!   NIC bandwidth with FIFO serialization, jitter, crash and `tc`-style
//!   delay injection;
//! - a **CPU model** ([`cpumodel`]): calibrated costs for signatures,
//!   MACs, hashing, and settlement (the state machines run with cheap
//!   simulation authenticators; the model charges real crypto prices);
//! - **closed-loop clients** ([`harness`]): submit → confirm → submit, as
//!   in the paper's methodology;
//! - **workloads** ([`workload`]): uniform random payments and Smallbank.
//!
//! Every figure and table of the paper is regenerated on top of this crate
//! by `astro-bench`.
//!
//! # Examples
//!
//! Both Astro protocols run under one adapter, [`systems::AstroSystem`];
//! [`Astro1System`] and [`Astro2System`] name its two instances. A
//! deployment is `shards × per_shard` replicas (Astro I has one shard)
//! plus the batch flush interval:
//!
//! ```
//! use astro_sim::harness::{run, SimConfig};
//! use astro_sim::systems::Astro1System;
//! use astro_sim::workload::UniformWorkload;
//! use astro_core::astro1::Astro1Config;
//! use astro_types::Amount;
//!
//! let system = Astro1System::new(
//!     1,
//!     4,
//!     Astro1Config { batch_size: 8, initial_balance: Amount(1_000_000) },
//!     5_000_000, // 5 ms batch flush
//! );
//! let cfg = SimConfig { duration: 1_000_000_000, warmup: 200_000_000, ..SimConfig::default() };
//! let report = run(system, UniformWorkload::new(4, 10), cfg);
//! assert!(report.confirmed > 0);
//! ```

#![warn(missing_docs)]

pub mod cpumodel;
pub mod harness;
pub mod metrics;
pub mod netmodel;
pub mod rng;
pub mod systems;
pub mod telemetry;
pub mod workload;

pub use cpumodel::CpuModel;
pub use harness::{run, run_observed, run_with_system, Fault, SimConfig, SimReport};
pub use metrics::{LatencyStats, ThroughputTimeline};
pub use netmodel::{NetParams, Network, Region};
pub use systems::{
    Astro1System, Astro2System, AstroSystem, ChaosReport, ConfirmRule, PbftSystem, SimReplica,
    SimSystem,
};
pub use telemetry::SimTelemetry;
pub use workload::{SmallbankWorkload, UniformWorkload, Workload};

#[cfg(test)]
mod tests {
    use crate::rng::Rng;

    #[test]
    fn seeded_runs_are_deterministic() {
        let mut a = Rng::seeded(7);
        let mut b = Rng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seeded(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Rng::seeded(1);
        for n in [1, 5, 7, 10, u64::MAX] {
            for _ in 0..1_000 {
                let v = rng.below(n);
                assert!(v < n, "below({n}) gave {v}");
            }
        }
        assert!((0..1_000).all(|_| rng.below(1) == 0));
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut rng = Rng::seeded(2);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "below(8) missed a value: {seen:?}");
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = Rng::seeded(3);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "chance(0.25) hit {hits} of 10000");
        assert!((0..1_000).all(|_| !rng.chance(0.0)));
        assert!((0..1_000).all(|_| rng.chance(1.0)));
    }

    /// splitmix64 expands even a zero seed into a non-zero xoshiro state
    /// (the all-zero state would emit zeros forever).
    #[test]
    fn from_seed_avoids_zero_state() {
        let mut rng = Rng::seeded(0);
        assert_ne!(rng.next_u64(), 0);
    }
}
