//! Per-layer drivers, kind (b): single-threaded loops that time calls
//! into one crate's public functions on inputs shaped like the workloads'
//! (64-payment batches, 4 replicas, the seeded stream's 1024 clients).
//!
//! Every driver does a fixed amount of work, so a faster layer shows as a
//! smaller number, never as more iterations. Every timed call sits inside
//! a span of [`Spans`]; the metric is the span's duration over the work
//! it covers.

pub mod crypto;
pub mod net;
pub mod protocol;
pub mod runtime;
pub mod store;

use crate::trace::Spans;
use std::collections::BTreeMap;
use std::path::Path;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What the budget needs from the protocol loopbacks beyond the metrics.
pub struct Loopbacks {
    pub a1: protocol::LoopbackStats,
    pub a2: protocol::LoopbackStats,
    pub a2_certs: protocol::LoopbackStats,
}

/// Runs every driver. `scratch` is a directory this may create files in.
pub fn run_all(
    seed: u64,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<(Metrics, Loopbacks), String> {
    let mut m = Metrics::new();
    spans.span("layers.crypto", |s| crypto::run(s, &mut m));
    spans.span("layers.net", |s| net::run(s, &mut m))?;
    let loopbacks = spans.span("layers.protocol", |s| protocol::run(seed, s, &mut m));
    spans.span("layers.store", |s| store::run(scratch, s, &mut m))?;
    spans.span("layers.runtime", |s| runtime::run(seed, s, &mut m))?;
    Ok((m, loopbacks))
}
