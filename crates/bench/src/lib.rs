//! Shared helpers for the figure/table reproduction benches.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper (README's *Benches* section lists them; recorded results live in
//! the `BENCH_*.json` files and CHANGES.md). Durations and sweep densities are scaled for a small machine;
//! override with environment variables:
//!
//! - `ASTRO_BENCH_DURATION_SECS` — simulated seconds per run (default 3).
//! - `ASTRO_BENCH_SIZES` — comma-separated system sizes for Figure 3.
//! - `ASTRO_BENCH_FULL=1` — use paper-scale durations and sweeps.

pub mod saturation;

use astro_sim::harness::SimConfig;
use astro_sim::netmodel::Nanos;

/// Simulated run length for throughput experiments.
pub fn duration() -> Nanos {
    let secs: u64 = std::env::var("ASTRO_BENCH_DURATION_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if full_scale() { 10 } else { 3 });
    secs * 1_000_000_000
}

/// True when paper-scale runs were requested.
pub fn full_scale() -> bool {
    std::env::var("ASTRO_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// True when a fast smoke run was requested (`ASTRO_BENCH_SMOKE=1`): CI
/// runs the JSON-emitting benches at reduced duration/sample counts to
/// catch panics and produce artifacts, without meaningful statistics.
pub fn smoke() -> bool {
    std::env::var("ASTRO_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// The default simulation configuration for throughput experiments.
pub fn default_sim_config() -> SimConfig {
    let duration = duration();
    SimConfig { duration, warmup: duration / 3, ..SimConfig::default() }
}

/// System sizes for the Figure 3 sweep.
pub fn fig3_sizes() -> Vec<usize> {
    if let Ok(v) = std::env::var("ASTRO_BENCH_SIZES") {
        return v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
    }
    if full_scale() {
        // The paper's increments of 6 from 4 to 100.
        let mut v = vec![4];
        v.extend((10..=100).step_by(6));
        v
    } else {
        vec![4, 16, 52, 100]
    }
}

/// Formats nanoseconds as milliseconds with one decimal.
pub fn ms(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1_000_000.0)
}

/// Machine-readable benchmark export: `BENCH_<name>.json` files that
/// record the perf trajectory across PRs (ops/s, p50/p99, ratios — one
/// metrics object per benchmark id). Serialization is hand-rolled; the
/// offline container has no serde.
pub mod json {
    use std::io::Write;
    use std::path::PathBuf;

    /// One benchmark's recorded numbers: a name plus numeric fields.
    #[derive(Debug, Clone)]
    pub struct Metric {
        /// Benchmark id (e.g. `settle_256_n4/tcp_hmac`).
        pub name: String,
        /// `(field, value)` pairs, e.g. `("ops_per_sec", 81490.0)`.
        pub fields: Vec<(String, f64)>,
    }

    impl Metric {
        /// Builds a metric from anything stringly/numeric.
        pub fn new(
            name: impl Into<String>,
            fields: impl IntoIterator<Item = (&'static str, f64)>,
        ) -> Self {
            Metric {
                name: name.into(),
                fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            }
        }
    }

    fn escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }

    fn number(v: f64) -> String {
        if v.is_finite() {
            // Shortest round-trip representation is valid JSON.
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Writes `BENCH_<bench>.json` into `ASTRO_BENCH_JSON_DIR` (default:
    /// the workspace root, so the files sit beside the README regardless
    /// of the bench binary's working directory) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(bench: &str, metrics: &[Metric]) -> std::io::Result<PathBuf> {
        let dir = std::env::var("ASTRO_BENCH_JSON_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
        let path = dir.join(format!("BENCH_{bench}.json"));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(bench)));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in metrics.iter().enumerate() {
            out.push_str(&format!("    {{\"name\": \"{}\"", escape(&m.name)));
            for (k, v) in &m.fields {
                out.push_str(&format!(", \"{}\": {}", escape(k), number(*v)));
            }
            out.push_str(if i + 1 == metrics.len() { "}\n" } else { "},\n" });
        }
        out.push_str("  ]\n}\n");
        let mut file = std::fs::File::create(&path)?;
        file.write_all(out.as_bytes())?;
        Ok(path)
    }
}
