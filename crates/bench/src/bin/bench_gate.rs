//! CI perf-regression gate over the checked-in `BENCH_*.json` baselines.
//!
//! Usage: `bench_gate <baseline-dir> <fresh-dir>`
//!
//! Compares a fresh smoke-bench run against the committed baselines and
//! fails (exit 1) when a gated metric drops below its floor:
//!
//! - `schnorr_batch_verify/speedup_32` (`batch_over_serial`) — the
//!   batch-verification advantage must hold at ≥ 60% of baseline (the
//!   ratio is hardware-independent, so a big drop means an algorithmic
//!   regression, not a slow runner).
//! - `schnorr_batch_verify/few_signers_gain_32` (`distinct_over_few`) —
//!   a batched signature among 4 signers must cost ≤ 0.8× one among 32
//!   distinct signers (absolute floor 1.25 on the within-run ratio): the
//!   per-key grouping of `batch_verify` is still there.
//! - `astro2/clients_512` and `astro2/clients_2048`
//!   (`payments_per_sec`, fig4) — settled throughput must hold at ≥ 50%
//!   of baseline (the simulator is deterministic; headroom covers the
//!   shorter smoke duration and CI-runner timing jitter in the checked-in
//!   numbers).
//! - `settle_256_n4/obs_overhead` (`instrumented_over_unattached`,
//!   obs) — attaching a metric registry must keep ≥ 95% of the
//!   unattached settle throughput, as an absolute floor (the ratio is
//!   computed within one run, so machine load cancels out).
//! - `credit_outbox/delivery` (`acked_fraction`, obs) — after an
//!   Astro II certificates-mode workload quiesces, every CREDIT
//!   sub-batch in the retry outboxes must have been acked by its
//!   destination representative (absolute floor 1.0).
//! - `health_engine/tick` (`ticks_per_sec`, obs) and
//!   `scrape/metrics_text` (`scrapes_per_sec`, obs) — the
//!   health-monitor tick (snapshot + observe) and the `/metrics` scrape
//!   round-trip must hold at ≥ 50% of baseline throughput (wall-time
//!   microbenches; headroom covers runner jitter).
//!
//! The JSON was written by `astro_bench::json` (flat metric objects), so
//! a small scanner suffices — the offline toolchain has no serde.

use std::path::Path;
use std::process::ExitCode;

/// Extracts `field` of the metric named `name` from a bench JSON dump.
fn metric_field(json: &str, name: &str, field: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let start = json.find(&needle)? + needle.len();
    let object = &json[start..json[start..].find('}').map(|e| start + e)?];
    let fneedle = format!("\"{field}\": ");
    let fstart = object.find(&fneedle)? + fneedle.len();
    let rest = &object[fstart..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

struct Gate {
    file: &'static str,
    metric: &'static str,
    field: &'static str,
    /// Fraction of the baseline value the fresh run must reach.
    floor_fraction: f64,
    /// Absolute value the fresh run must reach regardless of baseline
    /// (0.0 = no absolute floor). Used for machine-independent ratios
    /// whose acceptable range is known a priori.
    absolute_floor: f64,
}

const GATES: &[Gate] = &[
    Gate {
        file: "BENCH_micro_crypto.json",
        metric: "schnorr_batch_verify/speedup_32",
        field: "batch_over_serial",
        floor_fraction: 0.6,
        absolute_floor: 0.0,
    },
    // Batch verification sums the challenges of signatures that share a
    // key: with 4 signers a signature at batch 32 must cost at most 0.8×
    // what it costs with 32 distinct signers (within-run ratio; loose —
    // the measured ratio is about 1.7).
    Gate {
        file: "BENCH_micro_crypto.json",
        metric: "schnorr_batch_verify/few_signers_gain_32",
        field: "distinct_over_few",
        floor_fraction: 0.0,
        absolute_floor: 1.25,
    },
    Gate {
        file: "BENCH_fig4_latency_throughput.json",
        metric: "astro2/clients_512",
        field: "payments_per_sec",
        floor_fraction: 0.5,
        absolute_floor: 0.0,
    },
    Gate {
        file: "BENCH_fig4_latency_throughput.json",
        metric: "astro2/clients_2048",
        field: "payments_per_sec",
        floor_fraction: 0.5,
        absolute_floor: 0.0,
    },
    // Attached-registry instrumentation must stay near-free: the
    // instrumented/unattached settle-throughput ratio is a within-run
    // comparison (machine load cancels), gated absolutely at 0.95×.
    Gate {
        file: "BENCH_obs.json",
        metric: "settle_256_n4/obs_overhead",
        field: "instrumented_over_unattached",
        floor_fraction: 0.0,
        absolute_floor: 0.95,
    },
    // Reliable CREDIT delivery: at quiescence every CREDIT sub-batch in
    // the retry outboxes must have been acked by its destination
    // representative. The fraction is exact (acks / (acks + residual
    // depth)), so the floor is exactly 1.0 — any undrained entry means
    // the ack or retransmit path regressed.
    Gate {
        file: "BENCH_obs.json",
        metric: "credit_outbox/delivery",
        field: "acked_fraction",
        floor_fraction: 0.0,
        absolute_floor: 1.0,
    },
    // Incremental snapshots: the full-state payload a v1 snapshot would
    // rewrite per install, over the bytes the v2 engine actually writes
    // (sealed delta + residual). The ratio grows with history depth —
    // an absolute floor of 4 catches any regression back to
    // rewrite-everything snapshots without being machine-sensitive.
    Gate {
        file: "BENCH_store.json",
        metric: "snapshot_bytes_per_install",
        field: "full_over_incremental",
        floor_fraction: 0.0,
        absolute_floor: 4.0,
    },
    // Off-thread installs must stay off the settle path: durable settle
    // throughput with frequent incremental snapshots vs the install-free
    // durable series, within one run (machine load cancels out).
    Gate {
        file: "BENCH_store.json",
        metric: "settle_durable_n4/install_overhead",
        field: "during_install_over_steady",
        floor_fraction: 0.0,
        absolute_floor: 0.9,
    },
    // Chunked state transfer: serve + reassemble + install of a
    // multi-block history must not quietly regress.
    Gate {
        file: "BENCH_store.json",
        metric: "state_transfer_chunked/entries_per_sec",
        field: "elements_per_sec",
        floor_fraction: 0.5,
        absolute_floor: 0.0,
    },
    // The health monitor's per-interval cost (registry snapshot + one
    // engine observe over a busy 4-replica surface) must not quietly
    // grow past its microsecond budget.
    Gate {
        file: "BENCH_obs.json",
        metric: "health_engine/tick",
        field: "ticks_per_sec",
        floor_fraction: 0.5,
        absolute_floor: 0.0,
    },
    // The `/metrics` scrape round-trip (connect, encode, read) guards
    // the exposition encoder against going accidentally quadratic in
    // the metric count.
    Gate {
        file: "BENCH_obs.json",
        metric: "scrape/metrics_text",
        field: "scrapes_per_sec",
        floor_fraction: 0.5,
        absolute_floor: 0.0,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_dir, fresh_dir] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline-dir> <fresh-dir>");
        return ExitCode::FAILURE;
    };
    let mut failed = false;
    for gate in GATES {
        let read = |dir: &str| std::fs::read_to_string(Path::new(dir).join(gate.file));
        let (Ok(baseline), Ok(fresh)) = (read(baseline_dir), read(fresh_dir)) else {
            // A missing file is a hard failure: the gate must never pass
            // because a bench silently stopped emitting JSON.
            eprintln!("FAIL {}: missing in baseline or fresh run", gate.file);
            failed = true;
            continue;
        };
        let base = metric_field(&baseline, gate.metric, gate.field);
        let now = metric_field(&fresh, gate.metric, gate.field);
        match (base, now) {
            (Some(base), Some(now)) => {
                let floor = (base * gate.floor_fraction).max(gate.absolute_floor);
                let verdict = if now >= floor { "ok  " } else { "FAIL" };
                println!(
                    "{verdict} {}/{}: {now:.1} (baseline {base:.1}, floor {floor:.1})",
                    gate.metric, gate.field
                );
                failed |= now < floor;
            }
            _ => {
                eprintln!(
                    "FAIL {}/{}: metric missing (baseline: {base:?}, fresh: {now:?})",
                    gate.metric, gate.field
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("all perf gates passed");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::metric_field;

    const SAMPLE: &str = r#"{
  "bench": "micro_crypto",
  "metrics": [
    {"name": "schnorr/verify", "p50_ns": 82000, "iters_per_sec": 12195.1},
    {"name": "schnorr_batch_verify/speedup_32", "batch_over_serial": 3.53, "per_sig_batched_ns": 47845.7}
  ]
}"#;

    #[test]
    fn extracts_fields() {
        assert_eq!(metric_field(SAMPLE, "schnorr/verify", "p50_ns"), Some(82000.0));
        assert_eq!(
            metric_field(SAMPLE, "schnorr_batch_verify/speedup_32", "batch_over_serial"),
            Some(3.53)
        );
        assert_eq!(metric_field(SAMPLE, "schnorr/verify", "missing"), None);
        assert_eq!(metric_field(SAMPLE, "missing", "p50_ns"), None);
    }
}
