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
//! ```
//! use astro_sim::harness::{run, SimConfig};
//! use astro_sim::systems::Astro1System;
//! use astro_sim::workload::UniformWorkload;
//! use astro_core::astro1::Astro1Config;
//! use astro_types::Amount;
//!
//! let system = Astro1System::new(
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
pub mod systems;
pub mod telemetry;
pub mod workload;

pub use cpumodel::CpuModel;
pub use harness::{run, run_observed, run_with_system, Fault, SimConfig, SimReport};
pub use metrics::{LatencyStats, ThroughputTimeline};
pub use netmodel::{NetParams, Network, Region};
pub use systems::{Astro1System, Astro2System, ChaosReport, ConfirmRule, PbftSystem, SimSystem};
pub use telemetry::SimTelemetry;
pub use workload::{SmallbankWorkload, UniformWorkload, Workload};
