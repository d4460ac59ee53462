//! Per-layer metrics, kind (a): what the program's own registry recorded
//! during an observed repetition, read from outside through
//! `Registry::snapshot`. Each metric is taken over the phase it belongs
//! to — rates and distributions over sat, lifecycle spans over paced,
//! link-failure counters over one_down — summed over replicas and divided
//! by the payments of that phase.

use crate::harness::Observed;
use crate::layers::Metrics;
use crate::spec::Plan;
use astro_obs::{HistBuckets, Snapshot};

/// What may stand between a query's prefix and suffix.
#[derive(Clone, Copy)]
enum Mid {
    /// Nothing: the name is exactly `prefix`.
    Nothing,
    /// A replica number: `net.r2.write_nanos`, not `net.r2.to_r1.write_nanos`.
    Replica,
    /// Anything: every link of every replica.
    Anything,
}

/// Which names a query sums over.
#[derive(Clone, Copy)]
struct Names<'a> {
    prefix: &'a str,
    mid: Mid,
    suffix: &'a str,
}

impl Names<'_> {
    fn matches(&self, name: &str) -> bool {
        let mid = name.strip_prefix(self.prefix).and_then(|rest| rest.strip_suffix(self.suffix));
        mid.is_some_and(|mid| match self.mid {
            Mid::Nothing => mid.is_empty(),
            Mid::Replica => !mid.is_empty() && mid.bytes().all(|b| b.is_ascii_digit()),
            Mid::Anything => true,
        })
    }
}

fn exact(name: &str) -> Names<'_> {
    Names { prefix: name, mid: Mid::Nothing, suffix: "" }
}

fn per_replica<'a>(prefix: &'a str, suffix: &'a str) -> Names<'a> {
    Names { prefix, mid: Mid::Replica, suffix }
}

fn per_link<'a>(prefix: &'a str, suffix: &'a str) -> Names<'a> {
    Names { prefix, mid: Mid::Anything, suffix }
}

/// A window between two snapshots of one registry.
struct Window<'a> {
    from: &'a Snapshot,
    to: &'a Snapshot,
}

/// Sum of the matching entries of a snapshot's counter or gauge list.
fn total(entries: &[(String, u64)], names: Names) -> u64 {
    entries.iter().filter(|(k, _)| names.matches(k)).map(|(_, v)| v).sum()
}

impl Window<'_> {
    fn counters(&self, names: Names) -> f64 {
        total(&self.to.counters, names).saturating_sub(total(&self.from.counters, names)) as f64
    }

    /// Gauges that mirror a monotonic count (cache hits, misses).
    fn gauges(&self, names: Names) -> f64 {
        total(&self.to.gauges, names).saturating_sub(total(&self.from.gauges, names)) as f64
    }

    /// The window's samples of every matching histogram, merged.
    fn histogram(&self, names: Names) -> HistBuckets {
        let mut counts = std::collections::BTreeMap::new();
        let mut merged = HistBuckets::default();
        for (name, later) in self.to.hist_buckets.iter().filter(|(k, _)| names.matches(k)) {
            let interval = match self.from.buckets(name) {
                Some(earlier) => later.since(earlier),
                None => later.clone(),
            };
            for (idx, c) in &interval.counts {
                *counts.entry(*idx).or_insert(0u64) += c;
            }
            merged.count += interval.count;
            merged.sum += interval.sum;
            merged.max = merged.max.max(interval.max);
        }
        merged.counts = counts.into_iter().collect();
        merged
    }
}

fn p50(h: &HistBuckets) -> f64 {
    h.summary().map_or(0.0, |s| s.p50 as f64)
}

fn p99(h: &HistBuckets) -> f64 {
    h.summary().map_or(0.0, |s| s.p99 as f64)
}

/// `a / (a + b)`, 0 when both are 0: a ratio that is undefined on a
/// workload is reported as 0.
fn share(a: f64, b: f64) -> f64 {
    if a + b > 0.0 {
        a / (a + b)
    } else {
        0.0
    }
}

/// The (a) metrics of one observed repetition.
pub fn metrics(obs: &Observed, plan: &Plan) -> Metrics {
    let paced = Window { from: &obs.after_setup, to: &obs.after_paced };
    let sat = Window { from: &obs.after_paced, to: &obs.after_sat };
    let one_down = Window { from: &obs.after_sat, to: &obs.at_exit };
    let whole = Window { from: &Snapshot::default(), to: &obs.at_exit };
    let per_payment = plan.sat as f64;
    let mut m = Metrics::new();

    // net
    m.insert(
        "net.tx_bytes_per_payment",
        sat.counters(per_link("net.r", ".tx_bytes")) / per_payment,
    );
    m.insert(
        "net.tx_frames_per_payment",
        sat.counters(per_link("net.r", ".tx_frames")) / per_payment,
    );
    let flushes = sat.histogram(per_replica("net.r", ".flush_bytes"));
    m.insert("net.writes_per_payment", flushes.count as f64 / per_payment);
    m.insert("net.flush_bytes_p50", p50(&flushes));
    let writes = sat.histogram(per_replica("net.r", ".write_nanos"));
    m.insert("net.write_us_p50", p50(&writes) / 1e3);
    m.insert("net.write_us_p99", p99(&writes) / 1e3);
    m.insert("net.redials", whole.counters(per_replica("net.r", ".redials")));
    m.insert(
        "runtime.send_failures",
        one_down.counters(per_replica("runtime.r", ".send_failures")),
    );

    // core
    m.insert(
        "core.cert_cache_hit_ratio",
        share(
            sat.gauges(per_replica("core.r", ".cert_cache_hits")),
            sat.gauges(per_replica("core.r", ".cert_cache_misses")),
        ),
    );
    m.insert(
        "core.parked_per_kpayment",
        sat.counters(per_replica("core.r", ".parked")) / per_payment * 1e3,
    );
    m.insert("core.outbox_depth_max", obs.outbox_depth_max as f64);
    m.insert(
        "core.credit_retransmits",
        whole.counters(per_replica("core.r", ".credit_retransmits")),
    );
    m.insert(
        "core.credit_acks_per_payment",
        sat.counters(per_replica("core.r", ".credit_acks")) / per_payment,
    );

    // runtime
    let checks = sat.histogram(exact("verify.batch_checks"));
    let verify = sat.histogram(exact("verify.batch_nanos"));
    m.insert("verify.batch_checks_p50", p50(&checks));
    m.insert("verify.batch_us_p50", p50(&verify) / 1e3);
    m.insert("verify.us_per_payment", verify.sum as f64 / 1e3 / per_payment);
    m.insert("verify.checks_per_payment", checks.sum as f64 / per_payment);
    m.insert(
        "verify.cache_hit_ratio",
        share(
            sat.gauges(exact("verify.verdict_cache_hits")),
            sat.gauges(exact("verify.verdict_cache_misses")),
        ),
    );
    m.insert("verify.queue_depth_max", obs.verify_queue_depth_max as f64);
    m.insert(
        "runtime.burst_msgs_p50",
        p50(&paced.histogram(per_replica("runtime.r", ".burst_msgs"))),
    );
    m.insert(
        "runtime.pending_high_water",
        whole.counters(per_replica("runtime.r", ".pending_high_water")),
    );

    // store
    let fsyncs = sat.histogram(per_replica("store.r", ".fsync_nanos"));
    let commits = sat.histogram(per_replica("store.r", ".commit_batch_records"));
    let wal_writes = sat.histogram(per_replica("store.r", ".flush_batch_bytes"));
    m.insert(
        "store.append_us_p50",
        p50(&sat.histogram(per_replica("store.r", ".append_nanos"))) / 1e3,
    );
    m.insert("store.fsync_ms_p50", p50(&fsyncs) / 1e6);
    m.insert("store.fsync_ms_p99", p99(&fsyncs) / 1e6);
    m.insert("store.fsyncs_per_kpayment", fsyncs.count as f64 / per_payment * 1e3);
    m.insert("store.commit_batch_records_p50", p50(&commits));
    m.insert("store.records_per_payment", commits.sum as f64 / per_payment);
    m.insert("store.flush_batch_bytes_p50", p50(&wal_writes));
    m.insert("store.wal_bytes_per_payment", wal_writes.sum as f64 / per_payment);
    m.insert(
        "store.snapshot_ms_p50",
        p50(&sat.histogram(per_replica("store.r", ".snapshot_nanos"))) / 1e6,
    );

    // obs: the lifecycle spans at the paced rate, where they explain
    // `paced_p50_ms`, and the share of paced payments they describe.
    for (metric, span) in [
        ("lifecycle.submit_to_prepare_ms_p50", "lifecycle.submit_to_prepare"),
        ("lifecycle.prepare_to_ack_quorum_ms_p50", "lifecycle.prepare_to_ack_quorum"),
        ("lifecycle.ack_quorum_to_settle_ms_p50", "lifecycle.ack_quorum_to_settle"),
        ("lifecycle.prepare_to_settle_ms_p50", "lifecycle.prepare_to_settle"),
        ("lifecycle.settle_to_confirm_ms_p50", "lifecycle.settle_to_confirm"),
        ("lifecycle.end_to_end_ms_p50", "lifecycle.end_to_end"),
    ] {
        m.insert(metric, p50(&paced.histogram(exact(span))) / 1e6);
    }
    m.insert(
        "lifecycle.coverage",
        share(
            paced.counters(exact("lifecycle.confirmed")),
            paced.counters(exact("lifecycle.dropped")),
        ),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_obs::Registry;

    #[test]
    fn name_queries_tell_replicas_from_links() {
        let replica = per_replica("net.r", ".write_nanos");
        assert!(replica.matches("net.r2.write_nanos"));
        assert!(!replica.matches("net.r2.to_r1.write_nanos"));
        assert!(!replica.matches("net.r.write_nanos"));
        let link = per_link("net.r", ".tx_bytes");
        assert!(link.matches("net.r0.to_r3.tx_bytes"));
        assert!(!link.matches("net.r0.to_r3.tx_frames"));
        assert!(exact("verify.batch_nanos").matches("verify.batch_nanos"));
        assert!(!exact("verify.batch").matches("verify.batch_nanos"));
    }

    #[test]
    fn windows_subtract_and_merge_across_replicas() {
        let reg = Registry::new();
        reg.counter("net.r0.to_r1.tx_bytes").add(100);
        reg.histogram("net.r0.flush_bytes").record(1000);
        let before = reg.snapshot();
        reg.counter("net.r0.to_r1.tx_bytes").add(50);
        reg.counter("net.r1.to_r0.tx_bytes").add(25);
        for _ in 0..3 {
            reg.histogram("net.r0.flush_bytes").record(4000);
        }
        reg.histogram("net.r1.flush_bytes").record(4000);
        let after = reg.snapshot();
        let w = Window { from: &before, to: &after };
        assert_eq!(w.counters(per_link("net.r", ".tx_bytes")), 75.0);
        let h = w.histogram(per_replica("net.r", ".flush_bytes"));
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 16_000);
        let p = p50(&h);
        assert!((3500.0..=4000.0).contains(&p), "log-bucketed p50 within 12.5 %: {p}");
        assert_eq!(share(0.0, 0.0), 0.0);
        assert_eq!(share(3.0, 1.0), 0.75);
    }
}
