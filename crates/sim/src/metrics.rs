//! Measurement: throughput timelines and latency percentiles.

use super::netmodel::Nanos;

/// Latency statistics over a set of samples — the same shape (and
/// nearest-rank percentile convention) `astro_obs` histograms report, so
/// simulated and deployed runs read identically. The simulator computes
/// it over exact samples; obs over log buckets.
pub type LatencyStats = astro_obs::Summary;

/// Collects per-payment confirmation latencies.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    samples: Vec<Nanos>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Nanos) {
        self.samples.push(latency);
    }

    /// Computes the statistics; `None` when no samples exist. Sorts the
    /// samples in place: the harness reads them once, at the end of a run.
    pub fn stats(&mut self) -> Option<LatencyStats> {
        let sorted = &mut self.samples;
        sorted.sort_unstable();
        let max = *sorted.last()?;
        let sum: u128 = sorted.iter().map(|&s| s as u128).sum();
        // Nearest-rank convention: the p-th percentile is the smallest
        // sample with at least p·n samples at or below it.
        let pct = |p: f64| -> Nanos {
            let rank = (p * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Some(LatencyStats {
            count: sorted.len() as u64,
            mean: sum as f64 / sorted.len() as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max,
        })
    }
}

/// Counts confirmations into fixed-width time buckets — the throughput
/// timelines of Figures 5–7.
#[derive(Debug, Clone)]
pub struct ThroughputTimeline {
    bucket: Nanos,
    counts: Vec<u64>,
}

impl ThroughputTimeline {
    /// Creates a timeline with `bucket`-sized windows.
    pub fn new(bucket: Nanos) -> Self {
        ThroughputTimeline { bucket, counts: Vec::new() }
    }

    /// Records one confirmation at `time`.
    pub fn record(&mut self, time: Nanos) {
        let idx = (time / self.bucket) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// The bucket width.
    pub fn bucket(&self) -> Nanos {
        self.bucket
    }

    /// Confirmations per bucket, in time order.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Throughput in payments/second for each bucket.
    pub fn per_second(&self) -> Vec<f64> {
        let scale = 1_000_000_000.0 / self.bucket as f64;
        self.counts.iter().map(|&c| c as f64 * scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(i * 1_000_000);
        }
        let s = r.stats().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50_000_000);
        assert_eq!(s.p95, 95_000_000);
        assert_eq!(s.max, 100_000_000);
        assert!((s.mean - 50_500_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_recorder_has_no_stats() {
        assert!(LatencyRecorder::new().stats().is_none());
    }

    #[test]
    fn timeline_buckets_and_rates() {
        let mut t = ThroughputTimeline::new(1_000_000_000); // 1 s buckets
        for i in 0..10u64 {
            t.record(i * 500_000_000); // every 0.5 s => 2/s
        }
        assert_eq!(t.buckets().len(), 5);
        assert_eq!(t.buckets()[0], 2);
    }
}
