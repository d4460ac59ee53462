//! `runtime`: the sat phase over `InProcTransport` — the same replica
//! threads, driver loop and verify pool with channels for links. One
//! minus TCP throughput over this is the share `net` can win.

use super::Metrics;
use crate::harness;
use crate::spec::Workload;
use crate::trace::Spans;

const A1_WARMUP: u64 = 25_600;
const A1_PAYMENTS: u64 = 256_000;
const A2_WARMUP: u64 = 2_560;
const A2_PAYMENTS: u64 = 25_600;

pub fn run(seed: u64, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let pps = spans.span("runtime.a1_inproc", |s| {
        harness::inproc_rate(Workload::A1Tcp, A1_WARMUP, A1_PAYMENTS, seed, s)
    })?;
    m.insert("runtime.a1_inproc_pps", pps);
    let pps = spans.span("runtime.a2_inproc", |s| {
        harness::inproc_rate(Workload::A2Funded, A2_WARMUP, A2_PAYMENTS, seed, s)
    })?;
    m.insert("runtime.a2_inproc_pps", pps);
    Ok(())
}
