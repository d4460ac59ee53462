//! One repetition: a fresh cluster driven through setup → paced → sat →
//! one_down → verify by a single generator thread.
//!
//! The generator follows the rules in `README.md` ("Load-generator
//! rules"): it polls the settle count and sleeps, never parks on the
//! cluster's condvar; closed loops refill in whole chunks, one full batch
//! per representative; nothing that costs O(history) is called inside a
//! measured phase.

use crate::procfs::{process_cpu_secs, rss_peak_mb, thread_cpu_secs};
use crate::spec::{
    Plan, Workload, CHUNK, CHUNK_ALIVE, CLIENTS, INITIAL_BALANCE, MARKER_EVERY, POLL_CLOSED_US,
    POLL_PACED_US, REPLICAS, STALL_SECS, VICTIM, WINDOW,
};
use crate::stats::{percentile, sorted};
use crate::stream::Stream;
use crate::sut::{Final, Rung, Sut};
use crate::trace::Spans;
use astro_obs::Snapshot;
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

const ALL: [usize; REPLICAS] = [0, 1, 2, 3];
const SURVIVORS: [usize; REPLICAS - 1] = [0, 1, 2];

/// What a closed-loop phase measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Closed {
    pub wall_s: f64,
    /// Process CPU over the phase.
    pub cpu_s: f64,
    /// Generator-thread CPU over the phase.
    pub gen_cpu_s: f64,
    /// Rate of the second half of the phase over the rate of the first.
    pub sustain_ratio: f64,
}

/// What the open-loop phase measured.
#[derive(Clone, Debug, Default)]
pub struct Paced {
    /// Marker latencies in ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// 99th percentile of how late the generator submitted a payment.
    pub gen_late_p99_ms: f64,
    pub cpu_s: f64,
    pub gen_cpu_s: f64,
}

impl Paced {
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }
}

/// Registry states of an observed repetition, one per phase boundary, so
/// each layer metric is read over the phase it belongs to.
pub struct Observed {
    pub after_setup: Snapshot,
    pub after_paced: Snapshot,
    pub after_sat: Snapshot,
    pub at_exit: Snapshot,
    pub verify_queue_depth_max: u64,
    pub outbox_depth_max: u64,
}

#[derive(Default)]
pub struct Repetition {
    pub setup_s: f64,
    pub paced: Paced,
    pub sat: Closed,
    pub one_down: Closed,
    /// Payments submitted, warm-up included.
    pub submitted: u64,
    /// `VmHWM` of the process when the repetition ended: the peak over
    /// this repetition and every earlier one.
    pub rss_hwm_mb: f64,
    pub observed: Option<Observed>,
    /// Why the repetition failed, if it did. All its payments then count
    /// as failed.
    pub error: Option<String>,
}

struct Driver {
    sut: Sut,
    stream: Stream,
    /// Payments submitted so far; also the settle count that means
    /// "everything submitted has settled".
    submitted: u64,
    /// A settle count every watched replica is known to have reached.
    confirmed: u64,
}

impl Driver {
    fn submit_next(&mut self, skip_rep: Option<usize>) -> Result<(), String> {
        let pay = self.stream.next(skip_rep);
        self.submitted += 1;
        self.sut.submit(pay)
    }

    /// Closed loop: keeps up to [`WINDOW`] payments outstanding until
    /// `count` more have settled at every replica of `watch`.
    fn closed_loop(
        &mut self,
        count: u64,
        chunk: u64,
        skip_rep: Option<usize>,
        watch: &[usize],
    ) -> Result<Closed, String> {
        let goal = self.submitted + count;
        let half = self.submitted + (count / 2).div_ceil(chunk) * chunk;
        let (cpu0, gen0) = (process_cpu_secs(), thread_cpu_secs());
        let start = Instant::now();
        let mut half_at = None;
        let mut last_progress = start;
        loop {
            while self.confirmed < self.submitted
                && self.sut.settled_among(watch, self.confirmed + chunk)
            {
                self.confirmed += chunk;
                last_progress = Instant::now();
            }
            if half_at.is_none() && self.confirmed >= half {
                half_at = Some(last_progress);
            }
            if self.confirmed == goal {
                break;
            }
            while self.submitted < goal && self.submitted + chunk - self.confirmed <= WINDOW {
                for _ in 0..chunk {
                    self.submit_next(skip_rep)?;
                }
            }
            if last_progress.elapsed() > Duration::from_secs(STALL_SECS) {
                return Err(format!(
                    "stalled: {} of {} settled, no progress for {STALL_SECS} s",
                    self.confirmed, self.submitted
                ));
            }
            self.sut.sample_gauges();
            std::thread::sleep(Duration::from_micros(POLL_CLOSED_US));
        }
        let end = last_progress;
        let first = half_at.map_or(0.0, |h| (h - start).as_secs_f64());
        let second = half_at.map_or(0.0, |h| (end - h).as_secs_f64());
        Ok(Closed {
            wall_s: (end - start).as_secs_f64(),
            cpu_s: process_cpu_secs() - cpu0,
            gen_cpu_s: thread_cpu_secs() - gen0,
            sustain_ratio: if second > 0.0 { first / second } else { 0.0 },
        })
    }

    /// Open loop: payment `i` is due at `i / rate` seconds and is timed
    /// from then, however late the generator or the cluster runs.
    fn paced(&mut self, plan: &Plan) -> Result<Paced, String> {
        let due = |i: u64| due_at(i, plan.paced_rate);
        let (cpu0, gen0) = (process_cpu_secs(), thread_cpu_secs());
        let start = Instant::now();
        let mut markers: VecDeque<(u64, Duration)> = VecDeque::new();
        let mut latencies = Vec::new();
        let mut late = Vec::with_capacity(plan.paced as usize);
        let mut next = 0;
        let mut last_progress = start;
        loop {
            while next < plan.paced && due(next) <= start.elapsed() {
                late.push((start.elapsed() - due(next)).as_secs_f64() * 1e3);
                self.submit_next(None)?;
                if next % MARKER_EVERY == 0 {
                    markers.push_back((self.submitted, due(next)));
                }
                next += 1;
            }
            while let Some(&(count, due_at)) = markers.front() {
                if !self.sut.settled_among(&ALL, count) {
                    break;
                }
                latencies.push((start.elapsed() - due_at).as_secs_f64() * 1e3);
                markers.pop_front();
                last_progress = Instant::now();
            }
            if next == plan.paced
                && markers.is_empty()
                && self.sut.settled_among(&ALL, self.submitted)
            {
                break;
            }
            if last_progress.elapsed() > Duration::from_secs(STALL_SECS) {
                return Err(format!("stalled in the paced phase at payment {next}"));
            }
            self.sut.sample_gauges();
            std::thread::sleep(Duration::from_micros(POLL_PACED_US));
        }
        self.confirmed = self.submitted;
        Ok(Paced {
            latencies_ms: sorted(latencies),
            gen_late_p99_ms: percentile(&sorted(late), 0.99),
            cpu_s: process_cpu_secs() - cpu0,
            gen_cpu_s: thread_cpu_secs() - gen0,
        })
    }

    /// paced → sat → one_down. On an observed cluster, also the registry's
    /// state before each of them.
    fn measured_phases(
        &mut self,
        plan: &Plan,
        spans: &mut Spans,
        rep: &mut Repetition,
    ) -> Result<Option<[Snapshot; 3]>, String> {
        let after_setup = self.sut.snapshot();
        rep.paced = spans.span("paced", |_| self.paced(plan))?;
        let after_paced = self.sut.snapshot();
        rep.sat = spans.span("sat", |_| self.closed_loop(plan.sat, CHUNK, None, &ALL))?;
        let after_sat = self.sut.snapshot();
        rep.one_down = spans.span("one_down", |_| {
            self.sut.kill_replica(VICTIM)?;
            self.closed_loop(plan.one_down, CHUNK_ALIVE, Some(VICTIM), &SURVIVORS)
        })?;
        Ok(match (after_setup, after_paced, after_sat) {
            (Some(a), Some(b), Some(c)) => Some([a, b, c]),
            _ => None,
        })
    }
}

/// When payment `i` of an open loop at `rate` per second is due, from the
/// start of the phase.
fn due_at(i: u64, rate: u64) -> Duration {
    Duration::from_nanos((u128::from(i) * 1_000_000_000 / u128::from(rate)) as u64)
}

/// Checks what the surviving replicas report against the reference the
/// stream kept: everything settled, identical balances, money conserved.
fn verify(
    workload: Workload,
    stream: &Stream,
    submitted: u64,
    finals: &[Final],
    alive: &[usize],
) -> Result<(), String> {
    for &i in alive {
        if finals[i].settled != submitted {
            return Err(format!(
                "replica {i} settled {} of {submitted} payments",
                finals[i].settled
            ));
        }
        if finals[i].balances != finals[0].balances {
            return Err(format!("replica {i} and replica 0 disagree on balances"));
        }
    }
    // A client no payment has touched yet holds its genesis balance.
    let balance = |c: u64| finals[0].balances.get(&c).copied().unwrap_or(INITIAL_BALANCE);
    let mut total: u128 = 0;
    for c in 0..CLIENTS {
        let (sent, received) = (stream.sent[c as usize], stream.received[c as usize]);
        let debited = INITIAL_BALANCE - sent;
        // Astro II credits a beneficiary only when a later payment of
        // theirs carries the certificate: never under `WhenNeeded` with
        // funded clients, at some point under `Always`.
        let (low, high) = match workload {
            Workload::A1Tcp | Workload::A1Durable => (debited + received, debited + received),
            Workload::A2Funded => (debited, debited),
            Workload::A2Certs => (debited, debited + received),
        };
        let got = balance(c);
        if got < low || got > high {
            return Err(format!("client {c} holds {got}, expected {low}..={high}"));
        }
        total += u128::from(got);
    }
    let supply = u128::from(CLIENTS) * u128::from(INITIAL_BALANCE);
    let in_flight = supply - total;
    let conserved = match workload {
        Workload::A1Tcp | Workload::A1Durable => in_flight == 0,
        Workload::A2Funded => in_flight == u128::from(submitted),
        Workload::A2Certs => in_flight <= u128::from(submitted),
    };
    if !conserved {
        return Err(format!("balances sum to {total}, supply is {supply}"));
    }
    Ok(())
}

/// Runs one repetition. `wal_dir` is created for a durable workload and
/// removed again, both outside the timed phases.
pub fn run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    observed: bool,
    wal_dir: &Path,
    spans: &mut Spans,
) -> Repetition {
    let mut rep = Repetition::default();
    let rung = if workload == Workload::A1Durable {
        let _ = std::fs::remove_dir_all(wal_dir);
        if let Err(e) = std::fs::create_dir_all(wal_dir) {
            rep.error = Some(format!("cannot create {}: {e}", wal_dir.display()));
            return rep;
        }
        Rung::Durable(wal_dir.to_path_buf())
    } else {
        Rung::Tcp
    };
    // setup: constructor call → mesh up → warm-up settled.
    let (started, setup_ns) = spans.time("setup", |_| {
        let sut = Sut::start(workload, rung, observed)?;
        let mut d = Driver { sut, stream: Stream::new(seed), submitted: 0, confirmed: 0 };
        match d.closed_loop(plan.warmup, CHUNK, None, &ALL) {
            Ok(_) => Ok(d),
            Err(e) => {
                d.sut.shutdown();
                Err(e)
            }
        }
    });
    rep.setup_s = setup_ns as f64 / 1e9;
    match started {
        Ok(mut d) => {
            let measured = d.measured_phases(plan, spans, &mut rep);
            rep.submitted = d.submitted;
            // Shut down and verify even after a failed phase: every thread
            // the cluster started must have ended when this returns.
            let (verify_queue_depth_max, outbox_depth_max) = d.sut.gauge_maxima();
            let (finals, at_exit) = spans.span("verify", |_| d.sut.shutdown());
            let checked = verify(workload, &d.stream, d.submitted, &finals, &SURVIVORS);
            let (snapshots, failed) = match measured {
                Ok(snapshots) => (snapshots, None),
                Err(e) => (None, Some(e)),
            };
            if let (Some([after_setup, after_paced, after_sat]), Some(at_exit)) =
                (snapshots, at_exit)
            {
                rep.observed = Some(Observed {
                    after_setup,
                    after_paced,
                    after_sat,
                    at_exit,
                    verify_queue_depth_max,
                    outbox_depth_max,
                });
            }
            rep.error = failed.or(checked.err());
        }
        Err(e) => rep.error = Some(e),
    }
    let _ = std::fs::remove_dir_all(wal_dir);
    rep.rss_hwm_mb = rss_peak_mb();
    rep
}

/// The closed loop alone on the in-process rung (`InProcTransport`):
/// payments per second over `count` payments after `warmup`.
pub fn inproc_rate(
    workload: Workload,
    warmup: u64,
    count: u64,
    seed: u64,
    spans: &mut Spans,
) -> Result<f64, String> {
    let sut = Sut::start(workload, Rung::InProc, false)?;
    let mut d = Driver { sut, stream: Stream::new(seed), submitted: 0, confirmed: 0 };
    let measured = d
        .closed_loop(warmup, CHUNK, None, &ALL)
        .and_then(|_| spans.span("sat", |_| d.closed_loop(count, CHUNK, None, &ALL)));
    let (finals, _) = d.sut.shutdown();
    let closed = measured?;
    verify(workload, &d.stream, d.submitted, &finals, &ALL)?;
    Ok(count as f64 / closed.wall_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_and_exact_at_whole_seconds() {
        assert_eq!(due_at(0, 20_000), Duration::ZERO);
        assert_eq!(due_at(1, 20_000), Duration::from_micros(50));
        assert_eq!(due_at(20_000, 20_000), Duration::from_secs(1));
        assert_eq!(due_at(59_999, 20_000), Duration::from_micros(2_999_950));
        // A rate that does not divide a second: never early, never more
        // than a nanosecond late, and exact again at every whole second.
        for i in 0..9_000u64 {
            let exact = i as f64 / 3_000.0;
            let got = due_at(i, 3_000).as_secs_f64();
            assert!(got <= exact + 1e-12 && exact - got < 2e-9, "payment {i}");
        }
        assert_eq!(due_at(6_000, 3_000), Duration::from_secs(2));
        // Far beyond any phase length the product still fits.
        assert_eq!(
            due_at(u64::from(u32::MAX) * 1_000, 1_000),
            Duration::from_secs(u64::from(u32::MAX))
        );
    }

    #[test]
    fn verify_accepts_exactly_the_balances_the_stream_implies() {
        use std::collections::BTreeMap;
        let mut stream = Stream::new(9);
        for _ in 0..3 * CHUNK {
            stream.next(None);
        }
        let submitted = 3 * CHUNK;
        let balances = |credit: bool| -> BTreeMap<u64, u64> {
            (0..CLIENTS)
                .map(|c| {
                    let received = if credit { stream.received[c as usize] } else { 0 };
                    (c, INITIAL_BALANCE - stream.sent[c as usize] + received)
                })
                .collect()
        };
        let finals = |b: &BTreeMap<u64, u64>, settled: u64| -> Vec<Final> {
            (0..REPLICAS).map(|_| Final { balances: b.clone(), settled }).collect()
        };
        let ok =
            |w: Workload, finals: &[Final]| verify(w, &stream, submitted, finals, &ALL).is_ok();
        let credited = balances(true);
        let debited = balances(false);
        assert!(ok(Workload::A1Tcp, &finals(&credited, submitted)));
        assert!(ok(Workload::A2Funded, &finals(&debited, submitted)));
        assert!(ok(Workload::A2Certs, &finals(&credited, submitted)));
        assert!(ok(Workload::A2Certs, &finals(&debited, submitted)));
        // Astro I must credit; funded Astro II must not.
        assert!(!ok(Workload::A1Tcp, &finals(&debited, submitted)));
        assert!(!ok(Workload::A2Funded, &finals(&credited, submitted)));
        // A replica that is behind, a replica that disagrees, minted money.
        assert!(!ok(Workload::A1Tcp, &finals(&credited, submitted - 1)));
        let mut split = finals(&credited, submitted);
        *split[2].balances.get_mut(&5).unwrap() += 1;
        assert!(!ok(Workload::A1Tcp, &split));
        let mut minted = credited.clone();
        *minted.get_mut(&7).unwrap() += 1;
        assert!(!ok(Workload::A1Tcp, &finals(&minted, submitted)));
        assert!(!ok(Workload::A2Certs, &finals(&minted, submitted)));
    }
}
