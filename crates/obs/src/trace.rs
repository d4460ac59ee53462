//! Payment-lifecycle tracing: timestamps each payment at the pipeline
//! stages the paper's latency story is made of — client submit, PREPARE
//! broadcast, ACK quorum, settle, client confirmation — and feeds the
//! per-span histograms.
//!
//! The in-flight table is a fixed open-addressed array of atomic slots,
//! one cache line per payment. A stamp is a hash, a short probe, and one
//! relaxed store — no locks, so the replica threads' settle loops never
//! serialize on the tracer. The protocol guarantees the stamps of one
//! payment are causally ordered (submit → its representative's
//! prepare/ack/settle → confirm), so same-key claims never race; the
//! slot state machine below only has to arbitrate *different* payments
//! hashing to the same slot. Confirmation hands the closed record to a
//! bounded ring; the six span-histogram feeds happen when a snapshot
//! drains it, not on the representative's confirm path.

use crate::metric::{Counter, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Slots in the in-flight table. Payments that never reach
/// [`Stage::Confirm`] (e.g. catch-up deltas settled at a
/// non-representative) linger until their slot is wanted by a colliding
/// claim that exhausts its probe window. Sized to cover any plausible
/// in-flight load while keeping the table (64 B/slot, 64 KB total)
/// small enough to live in L2 — stamps are on the settle hot path,
/// claims land on hash-random lines, and on small machines every
/// capacity miss is serial critical-path time.
const SLOTS: usize = 1 << 10;

/// How far a claim probes past its home slot before giving up and
/// counting the record as dropped. Bounds the stamp cost under a full
/// table.
const PROBE_LIMIT: usize = 32;

/// Slot states: free, mid-claim (key words not yet published), occupied.
const FREE: u64 = 0;
const CLAIMING: u64 = 1;
const OCCUPIED: u64 = 2;

/// Closed records buffered between drains. Span accounting (six
/// histogram feeds per payment) is deferred off the confirm path onto
/// whoever snapshots; the buffer only has to cover the confirms between
/// two snapshots, and an overflow falls back to feeding inline — slower,
/// never lossy.
const RING: usize = 1 << 10;

/// The stages of one payment's pipeline, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The client handed the payment to its representative.
    Submit = 0,
    /// The representative broadcast the PREPARE carrying it.
    Prepare = 1,
    /// The broadcaster assembled an ACK quorum (Astro II's commit
    /// certificate; Bracha has no directly observable analogue).
    AckQuorum = 2,
    /// The spender's representative settled it. (Every correct replica
    /// settles every payment; stamping only at the representative keeps
    /// the timeline a single replica's view and the other replicas off
    /// the tracer entirely.)
    Settle = 3,
    /// The spender's representative reported it settled — what a
    /// closed-loop client observes as confirmation.
    Confirm = 4,
}

const STAGES: usize = 5;

/// One in-flight payment: state word, the key, and a stamp per stage
/// (0 = unset). Exactly one cache line, so two payments in adjacent
/// slots never false-share.
#[repr(align(64))]
struct Slot {
    state: AtomicU64,
    spender: AtomicU64,
    seq: AtomicU64,
    stamps: [AtomicU64; STAGES],
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU64::new(FREE),
            spender: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            stamps: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Per-span histograms the tracer feeds, resolved from the registry once
/// at construction. Field order mirrors the pipeline.
pub(crate) struct SpanHists {
    pub submit_to_prepare: Histogram,
    pub prepare_to_ack: Histogram,
    pub ack_to_settle: Histogram,
    pub prepare_to_settle: Histogram,
    pub settle_to_confirm: Histogram,
    pub end_to_end: Histogram,
}

/// One cell of the closed-record ring (bounded MPMC, Vyukov scheme: the
/// `seq` word arbitrates producers and consumers and publishes the
/// payload fields, which are plain relaxed atomics under its protocol).
struct RingCell {
    seq: AtomicU64,
    stamps: [AtomicU64; STAGES],
    confirm: AtomicU64,
}

struct TracerInner {
    start: Instant,
    slots: Vec<Slot>,
    ring: Vec<RingCell>,
    /// Next ring position a producer will claim.
    enq: AtomicU64,
    /// Next ring position a drain will consume.
    deq: AtomicU64,
    spans: SpanHists,
    /// Payments confirmed with a full span record.
    confirmed: Counter,
    /// Records dropped because the probe window held no free slot.
    dropped: Counter,
}

/// Shared handle to the lifecycle tracer. Cloning is an `Arc` bump, so
/// every layer that can observe a stage holds one.
#[derive(Clone)]
pub struct PaymentTracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for PaymentTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaymentTracer")
            .field("in_flight", &self.in_flight())
            .field("confirmed", &self.inner.confirmed.get())
            .finish_non_exhaustive()
    }
}

/// Home slot for payment `(spender, seq)`: a multiplicative hash spreads
/// sequential `seq` values (the common workload) across the table.
#[inline]
fn home(spender: u64, seq: u64) -> usize {
    let mixed =
        (spender ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize & (SLOTS - 1)
}

impl PaymentTracer {
    pub(crate) fn new(
        start: Instant,
        spans: SpanHists,
        confirmed: Counter,
        dropped: Counter,
    ) -> Self {
        PaymentTracer {
            inner: Arc::new(TracerInner {
                start,
                slots: (0..SLOTS).map(|_| Slot::new()).collect(),
                ring: (0..RING)
                    .map(|i| RingCell {
                        seq: AtomicU64::new(i as u64),
                        stamps: std::array::from_fn(|_| AtomicU64::new(0)),
                        confirm: AtomicU64::new(0),
                    })
                    .collect(),
                enq: AtomicU64::new(0),
                deq: AtomicU64::new(0),
                spans,
                confirmed,
                dropped,
            }),
        }
    }

    /// Nanoseconds since the registry epoch, clamped above the 0 "unset"
    /// sentinel. For stamping a whole batch, read once and pass to
    /// [`stage_at`](Self::stage_at) — the clock read is a third of an
    /// uncontended stamp's cost, and a batch settles at one instant
    /// anyway.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        (self.inner.start.elapsed().as_nanos() as u64).max(1)
    }

    /// Marks `stage` for payment `(spender, seq)` now. First write wins,
    /// so a redundant observer (e.g. a state-transfer replay) cannot move
    /// an already-recorded stamp. [`Stage::Confirm`] closes the record
    /// and feeds the histograms.
    pub fn stage(&self, spender: u64, seq: u64, stage: Stage) {
        self.stage_at(self.now_nanos(), spender, seq, stage);
    }

    /// [`stage`](Self::stage) with a caller-provided timestamp from
    /// [`now_nanos`](Self::now_nanos), for batch stamp sites.
    pub fn stage_at(&self, now: u64, spender: u64, seq: u64, stage: Stage) {
        // Re-probes only when another payment takes the free slot this
        // claim picked, between the probe and the claim — a thread
        // preempted there holds a stale pick for a whole time slice.
        while !self.try_stage(now, spender, seq, stage) {}
    }

    /// One probe-and-stamp pass; false if the claim lost its slot.
    fn try_stage(&self, now: u64, spender: u64, seq: u64, stage: Stage) -> bool {
        let start = home(spender, seq);
        let mut free_at: Option<&Slot> = None;
        for i in 0..PROBE_LIMIT {
            let slot = &self.inner.slots[(start + i) & (SLOTS - 1)];
            // Acquire pairs with the Release publish in the claim path,
            // so a matching key implies the stamps array is visible.
            match slot.state.load(Ordering::Acquire) {
                OCCUPIED
                    if slot.spender.load(Ordering::Relaxed) == spender
                        && slot.seq.load(Ordering::Relaxed) == seq =>
                {
                    if stage == Stage::Confirm {
                        self.close(slot, now);
                    } else {
                        // First write wins; same-key stamps are causally
                        // ordered, so a plain read-then-store suffices.
                        let cell = &slot.stamps[stage as usize];
                        if cell.load(Ordering::Relaxed) == 0 {
                            cell.store(now, Ordering::Relaxed);
                        }
                    }
                    return true;
                }
                FREE if free_at.is_none() => free_at = Some(slot),
                // CLAIMING is another payment mid-insert (same-key claims
                // cannot race, see the module docs): probe on.
                _ => {}
            }
        }
        // No record. A confirm with no history is ignored — the payment
        // settled before tracing attached, or was already closed.
        if stage == Stage::Confirm {
            return true;
        }
        let Some(slot) = free_at else {
            self.inner.dropped.inc();
            return true;
        };
        if slot
            .state
            .compare_exchange(FREE, CLAIMING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        slot.spender.store(spender, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Relaxed);
        for (i, cell) in slot.stamps.iter().enumerate() {
            cell.store(if i == stage as usize { now } else { 0 }, Ordering::Relaxed);
        }
        slot.state.store(OCCUPIED, Ordering::Release);
        true
    }

    /// Reads the record out of `slot`, frees it, and queues it for span
    /// accounting. The six histogram feeds happen at the next
    /// [`drain`](Self::drain) — off the confirming replica's critical
    /// path — unless the ring is full, in which case they happen here.
    fn close(&self, slot: &Slot, confirm: u64) {
        let t: [u64; STAGES] = std::array::from_fn(|i| slot.stamps[i].load(Ordering::Relaxed));
        slot.state.store(FREE, Ordering::Release);
        self.inner.confirmed.inc();
        if !self.push_closed(&t, confirm) {
            self.feed(t, confirm);
        }
    }

    /// Enqueues a closed record; false when the ring is full.
    fn push_closed(&self, t: &[u64; STAGES], confirm: u64) -> bool {
        let inner = &*self.inner;
        let mut pos = inner.enq.load(Ordering::Relaxed);
        loop {
            let cell = &inner.ring[pos as usize & (RING - 1)];
            let seq = cell.seq.load(Ordering::Acquire);
            if seq == pos {
                match inner.enq.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        for (c, v) in cell.stamps.iter().zip(t) {
                            c.store(*v, Ordering::Relaxed);
                        }
                        cell.confirm.store(confirm, Ordering::Relaxed);
                        cell.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(p) => pos = p,
                }
            } else if seq < pos {
                return false; // a full lap behind: ring is full
            } else {
                pos = inner.enq.load(Ordering::Relaxed);
            }
        }
    }

    /// Feeds every queued closed record into the span histograms. Called
    /// by `Registry::snapshot`; safe from any number of threads.
    pub fn drain(&self) {
        let inner = &*self.inner;
        let mut pos = inner.deq.load(Ordering::Relaxed);
        loop {
            let cell = &inner.ring[pos as usize & (RING - 1)];
            let seq = cell.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                match inner.deq.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let t: [u64; STAGES] =
                            std::array::from_fn(|i| cell.stamps[i].load(Ordering::Relaxed));
                        let confirm = cell.confirm.load(Ordering::Relaxed);
                        cell.seq.store(pos + RING as u64, Ordering::Release);
                        self.feed(t, confirm);
                        pos = inner.deq.load(Ordering::Relaxed);
                    }
                    Err(p) => pos = p,
                }
            } else if seq <= pos {
                return; // empty (or a producer mid-publish: caught next drain)
            } else {
                pos = inner.deq.load(Ordering::Relaxed);
            }
        }
    }

    /// Feeds every span both endpoints of which were observed.
    fn feed(&self, t: [u64; STAGES], confirm: u64) {
        let [submit, prepare, ack, settle, _] = t;
        let spans = &self.inner.spans;
        let span = |h: &Histogram, from: u64, to: u64| {
            if from > 0 && to >= from {
                h.record(to - from);
            }
        };
        span(&spans.submit_to_prepare, submit, prepare);
        span(&spans.prepare_to_ack, prepare, ack);
        span(&spans.ack_to_settle, ack, settle);
        span(&spans.prepare_to_settle, prepare, settle);
        span(&spans.settle_to_confirm, settle, confirm);
        span(&spans.end_to_end, submit, confirm);
    }

    /// Payments currently in flight (observed but not yet confirmed).
    pub fn in_flight(&self) -> usize {
        self.inner.slots.iter().filter(|s| s.state.load(Ordering::Acquire) == OCCUPIED).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn full_lifecycle_feeds_every_span() {
        let reg = Registry::new();
        let tracer = reg.tracer().clone();
        tracer.stage(1, 7, Stage::Submit);
        tracer.stage(1, 7, Stage::Prepare);
        tracer.stage(1, 7, Stage::AckQuorum);
        tracer.stage(1, 7, Stage::Settle);
        tracer.stage(1, 7, Stage::Settle); // duplicate: first write wins
        tracer.stage(1, 7, Stage::Confirm);
        assert_eq!(tracer.in_flight(), 0, "confirm closes the record");
        let snap = reg.snapshot();
        for name in [
            "lifecycle.submit_to_prepare",
            "lifecycle.prepare_to_ack_quorum",
            "lifecycle.ack_quorum_to_settle",
            "lifecycle.prepare_to_settle",
            "lifecycle.settle_to_confirm",
            "lifecycle.end_to_end",
        ] {
            let s = snap.histogram(name).unwrap_or_else(|| panic!("{name} populated"));
            assert_eq!(s.count, 1, "{name}");
        }
        assert_eq!(snap.counter("lifecycle.confirmed"), Some(1));
    }

    #[test]
    fn missing_stages_skip_their_spans() {
        let reg = Registry::new();
        let tracer = reg.tracer().clone();
        // Astro I: no ACK-quorum observation.
        tracer.stage(2, 0, Stage::Submit);
        tracer.stage(2, 0, Stage::Prepare);
        tracer.stage(2, 0, Stage::Settle);
        tracer.stage(2, 0, Stage::Confirm);
        let snap = reg.snapshot();
        assert!(snap.histogram("lifecycle.prepare_to_ack_quorum").is_none());
        assert!(snap.histogram("lifecycle.ack_quorum_to_settle").is_none());
        assert_eq!(snap.histogram("lifecycle.prepare_to_settle").unwrap().count, 1);
        assert_eq!(snap.histogram("lifecycle.end_to_end").unwrap().count, 1);
    }

    #[test]
    fn confirm_without_history_is_ignored() {
        let reg = Registry::new();
        reg.tracer().stage(9, 9, Stage::Confirm);
        assert!(reg.snapshot().histogram("lifecycle.end_to_end").is_none());
    }

    #[test]
    fn colliding_payments_keep_separate_records() {
        let reg = Registry::new();
        let tracer = reg.tracer().clone();
        // Far more in-flight payments than one probe window, exercising
        // displacement: every record must still round-trip.
        let n = 4 * PROBE_LIMIT as u64;
        for seq in 0..n {
            tracer.stage(1, seq, Stage::Submit);
        }
        assert_eq!(tracer.in_flight(), n as usize);
        for seq in 0..n {
            tracer.stage(1, seq, Stage::Confirm);
        }
        assert_eq!(tracer.in_flight(), 0);
        assert_eq!(reg.snapshot().counter("lifecycle.confirmed"), Some(n));
    }

    #[test]
    fn slot_exhaustion_drops_and_counts() {
        let reg = Registry::new();
        let tracer = reg.tracer().clone();
        // Saturate the table; the overflow must land in `dropped`, not
        // corrupt existing records.
        let n = (SLOTS + SLOTS / 4) as u64;
        for seq in 0..n {
            tracer.stage(3, seq, Stage::Submit);
        }
        let snap = reg.snapshot();
        let dropped = snap.counter("lifecycle.dropped").unwrap_or(0);
        assert!(dropped > 0, "overflow past the table must be counted");
        assert_eq!(tracer.in_flight() as u64 + dropped, n);
    }
}
