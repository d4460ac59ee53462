//! The benchmark's fixed parameters: workloads, phase sizes, metric names
//! and bounds. Nothing here is adapted at run time — a run on a slower
//! machine takes longer, it does not measure less.

/// Replicas in every workload (`f = 1`).
pub const REPLICAS: usize = 4;
/// The replica `one_down` kills.
pub const VICTIM: usize = 3;
/// Clients in every workload. A traffic dimension, fixed between the 512
/// and 2048 of the paper's fig. 4: it sets how many certificates a client
/// holds and how often one is seen again.
pub const CLIENTS: u64 = 1024;
/// Payments per broadcast batch.
pub const BATCH: usize = 64;
/// One full batch per representative: the unit the closed loops refill in.
pub const CHUNK: u64 = (BATCH * REPLICAS) as u64;
/// Payments of one chunk whose representative survives `one_down`.
pub const CHUNK_ALIVE: u64 = (BATCH * (REPLICAS - 1)) as u64;
/// Replica batch flush timer.
pub const FLUSH_EVERY_MS: u64 = 1;
/// Genesis balance: every payment of every workload is funded.
pub const INITIAL_BALANCE: u64 = 1 << 40;
/// Closed-loop window, in payments.
pub const WINDOW: u64 = 4096;
/// Every n-th paced payment is a latency marker.
pub const MARKER_EVERY: u64 = 8;
/// Open-loop phase length.
pub const PACED_SECS: u64 = 3;
/// A repetition with no settle progress for this long is failed.
pub const STALL_SECS: u64 = 30;
/// Nominal length of one repetition's measured phases (paced ≈ 3 s, sat
/// ≈ 3.5 s, one_down ≈ 1 s): `--seconds` ÷ this is the repetition count.
pub const REP_NOMINAL_SECS: f64 = 7.5;
/// Poll interval of the closed loops. The generator never parks on the
/// cluster's condvar (see README, load-generator rules).
pub const POLL_CLOSED_US: u64 = 500;
/// Poll interval of the open loop.
pub const POLL_PACED_US: u64 = 100;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 30;
/// `--smoke` divides every count by this.
pub const SMOKE_DIVISOR: u64 = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    A1Tcp,
    A1Durable,
    A2Funded,
    A2Certs,
}

/// Phase sizes of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Payments settled before anything is timed (part of `setup_s`).
    pub warmup: u64,
    /// Offered rate of the open loop, payments per second.
    pub paced_rate: u64,
    /// Payments the open loop offers.
    pub paced: u64,
    /// Payments of the closed loop on four replicas.
    pub sat: u64,
    /// Payments of the closed loop on three replicas: a quarter to three
    /// quarters of `sat`, rounded up to whole chunks.
    pub one_down: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::A1Tcp, Workload::A1Durable, Workload::A2Funded, Workload::A2Certs];

    pub fn name(self) -> &'static str {
        match self {
            Workload::A1Tcp => "a1_tcp",
            Workload::A1Durable => "a1_durable",
            Workload::A2Funded => "a2_funded",
            Workload::A2Certs => "a2_certs",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Warm-up and closed-loop counts are whole chunks; the paced rate is
    /// 10–30 % of the workload's closed-loop capacity.
    ///
    /// `one_down` is a quarter of the sat count on `a1_*` (≈ 0.6 s). On the
    /// Astro II workloads that is 0.65 s of a phase that starts with redial
    /// cooldowns and a filling CREDIT outbox: at a quarter, single
    /// repetitions of `a2_certs` ranged 4.5k–13.8k pps and run-level
    /// medians spread 17–24 %; at three quarters they spread 6–11 %. So the
    /// slower the workload, the larger the share: each lasts 1.5–2 s.
    /// (Doubling it on `a1_durable` was tried: 19 % against 11–21 %, no
    /// steadier — there the spread is the shared disk's — and 6 s longer.)
    pub fn plan(self, smoke: bool) -> Plan {
        let (warmup, paced_rate, sat, one_down_quarters) = match self {
            Workload::A1Tcp => (51_200, 20_000, 768_000, 1),
            Workload::A1Durable => (51_200, 20_000, 409_600, 1),
            Workload::A2Funded => (5_120, 2_000, 102_400, 2),
            Workload::A2Certs => (2_560, 1_000, 20_480, 3),
        };
        let div = if smoke { SMOKE_DIVISOR } else { 1 };
        // Smoke counts round up to whole chunks; the full counts already are.
        let chunks = |count: u64| (count / div).div_ceil(CHUNK) * CHUNK;
        let sat = chunks(sat);
        Plan {
            warmup: chunks(warmup),
            paced_rate,
            paced: paced_rate * PACED_SECS / div,
            sat,
            one_down: (sat * one_down_quarters / 4).div_ceil(CHUNK_ALIVE) * CHUNK_ALIVE,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// One gated end-to-end metric; mirrors `BENCHMARK.json`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The issue asked for seven gated metrics with bounds of 5–10 %. Twice
/// ten runs per workload on the 2-core box this was written on say
/// otherwise (README, "What the bounds are made of"): the machine's own
/// speed drifts by ±10 % over minutes — single-threaded `schnorr.sign_us`
/// spreads 13 % run to run — so every CPU-bound metric spreads 8–19 % and
/// carries the widest bound the pipeline allows. `paced_p50_ms` and
/// `paced_p95_ms` spread 30–47 % and fit no bound the pipeline allows: by
/// the issue's own rule they are diagnostics on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "throughput_pps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "one_down_pps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_payment", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "rss_peak_mb", unit: "MB", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// One per-layer metric of the traced run; mirrors `BENCHMARK.json`.
/// `(name, unit, better)`. A metric that is undefined on a workload (a hit
/// ratio with no lookups, a store metric without a store) reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 80] = {
    use Better::{Higher, Lower};
    [
        // net (a): the registry's link counters over the sat phase.
        ("net.tx_bytes_per_payment", "B", Lower),
        ("net.tx_frames_per_payment", "count", Lower),
        ("net.writes_per_payment", "count", Lower),
        ("net.flush_bytes_p50", "B", Higher),
        ("net.write_us_p50", "us", Lower),
        ("net.write_us_p99", "us", Lower),
        ("net.redials", "count", Lower),
        ("runtime.send_failures", "count", Lower),
        // net (b)
        ("session.seal_open_ns_per_frame", "ns", Lower),
        ("hmac.tag_ns_per_kib", "ns", Lower),
        ("tcp.link_frames_per_s", "1/s", Higher),
        ("inproc.link_frames_per_s", "1/s", Higher),
        // types (b)
        ("wire.a1_encode_ns_per_payment", "ns", Lower),
        ("wire.a1_decode_ns_per_payment", "ns", Lower),
        ("wire.a2_encode_ns_per_payment", "ns", Lower),
        ("wire.a2_decode_ns_per_payment", "ns", Lower),
        ("wire.a2_certs_encode_ns_per_payment", "ns", Lower),
        ("wire.a2_certs_decode_ns_per_payment", "ns", Lower),
        ("wire.a1_bytes_per_payment", "B", Lower),
        ("wire.a2_bytes_per_payment", "B", Lower),
        ("wire.a2_certs_bytes_per_payment", "B", Lower),
        // brb (b)
        ("bracha.ns_per_delivery", "ns", Lower),
        ("bracha.msgs_per_delivery", "count", Lower),
        ("signed.ns_per_delivery", "ns", Lower),
        ("signed.msgs_per_delivery", "count", Lower),
        // core (b)
        ("astro1.step_ns_per_payment", "ns", Lower),
        ("astro2.step_us_per_payment", "us", Lower),
        ("astro2.certs_step_us_per_payment", "us", Lower),
        ("ledger.settle_ns", "ns", Lower),
        ("journal.encode_ns_per_record", "ns", Lower),
        // core (a)
        ("core.cert_cache_hit_ratio", "ratio", Higher),
        ("core.parked_per_kpayment", "count", Lower),
        ("core.outbox_depth_max", "count", Lower),
        ("core.credit_retransmits", "count", Lower),
        ("core.credit_acks_per_payment", "count", Lower),
        // crypto (b)
        ("schnorr.sign_us", "us", Lower),
        ("schnorr.verify_us", "us", Lower),
        ("schnorr.batch32_us_per_sig", "us", Lower),
        ("schnorr.batch3_us_per_sig", "us", Lower),
        ("sha256.ns_per_kib", "ns", Lower),
        // runtime (a)
        ("verify.batch_checks_p50", "count", Higher),
        ("verify.batch_us_p50", "us", Lower),
        ("verify.us_per_payment", "us", Lower),
        ("verify.checks_per_payment", "count", Lower),
        ("verify.cache_hit_ratio", "ratio", Higher),
        ("verify.queue_depth_max", "count", Lower),
        ("runtime.burst_msgs_p50", "count", Higher),
        ("runtime.pending_high_water", "count", Lower),
        // runtime (b)
        ("runtime.a1_inproc_pps", "1/s", Higher),
        ("runtime.a2_inproc_pps", "1/s", Higher),
        // store (a)
        ("store.append_us_p50", "us", Lower),
        ("store.fsync_ms_p50", "ms", Lower),
        ("store.fsync_ms_p99", "ms", Lower),
        ("store.fsyncs_per_kpayment", "count", Lower),
        ("store.commit_batch_records_p50", "count", Higher),
        ("store.records_per_payment", "count", Lower),
        ("store.flush_batch_bytes_p50", "B", Higher),
        ("store.wal_bytes_per_payment", "B", Lower),
        ("store.snapshot_ms_p50", "ms", Lower),
        // store (b)
        ("wal.append_ns_per_record", "ns", Lower),
        ("wal.fsync_ms", "ms", Lower),
        ("wal.replay_records_per_s", "1/s", Higher),
        // obs (a): lifecycle spans over the paced phase.
        ("lifecycle.submit_to_prepare_ms_p50", "ms", Lower),
        ("lifecycle.prepare_to_ack_quorum_ms_p50", "ms", Lower),
        ("lifecycle.ack_quorum_to_settle_ms_p50", "ms", Lower),
        ("lifecycle.prepare_to_settle_ms_p50", "ms", Lower),
        ("lifecycle.settle_to_confirm_ms_p50", "ms", Lower),
        ("lifecycle.end_to_end_ms_p50", "ms", Lower),
        ("lifecycle.coverage", "ratio", Higher),
        ("obs.traced_over_untraced", "ratio", Higher),
        // The traced repetitions' own end-to-end figures, the base of the
        // budget and of `obs.traced_over_untraced`.
        ("traced.throughput_pps", "1/s", Higher),
        ("traced.cpu_us_per_payment", "us", Lower),
        // Marker latency at the fixed rate: too machine-dependent to gate
        // (see `END_TO_END`), recorded here so that it is still tracked.
        ("traced.paced_p50_ms", "ms", Lower),
        ("traced.paced_p95_ms", "ms", Lower),
        // budget: shares of `traced.cpu_us_per_payment`.
        ("budget.wire_share", "ratio", Lower),
        ("budget.mac_share", "ratio", Lower),
        ("budget.state_machine_share", "ratio", Lower),
        ("budget.sign_verify_share", "ratio", Lower),
        ("budget.journal_wal_share", "ratio", Lower),
        ("budget.residual_share", "ratio", Lower),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_whole_chunks() {
        for smoke in [false, true] {
            for w in Workload::ALL {
                let p = w.plan(smoke);
                assert_eq!(p.warmup % CHUNK, 0, "{w:?} warmup");
                assert_eq!(p.sat % CHUNK, 0, "{w:?} sat");
                assert_eq!(p.one_down % CHUNK_ALIVE, 0, "{w:?} one_down");
                assert!(p.one_down >= p.sat / 4 && p.one_down < p.sat);
                assert!(WINDOW.is_multiple_of(CHUNK) && p.paced > 0);
            }
        }
    }

    /// `BENCHMARK.json` at the repository root is what the pipeline reads;
    /// this table is what the binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_these_tables() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let better = |b: Better| if b == Better::Higher { "higher" } else { "lower" }.to_string();

        let workloads: Vec<String> =
            doc.get("workloads").unwrap().items().iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

        let listed = doc.get("end_to_end").unwrap().items();
        assert_eq!(listed.len(), END_TO_END.len());
        for (j, e) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), e.name);
            assert_eq!(field(j, "unit"), e.unit);
            assert_eq!(field(j, "better"), better(e.better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
        }
        let listed = doc.get("per_layer").unwrap().items();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (j, (name, unit, b)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (name.to_string(), unit.to_string(), better(b))
            );
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, ..)| *n).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(Workload::ALL.map(Workload::name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(names.iter().all(|n| n.len() <= 64
            && n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))));
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));
    }

    #[test]
    fn names_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("a3"), None);
    }
}
