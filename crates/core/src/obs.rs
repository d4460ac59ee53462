//! Core-layer observability: the metric handles a payment replica
//! reports into when a registry is attached.
//!
//! The replicas themselves stay sans-I/O: [`CoreObs`] is a bundle of
//! pre-resolved [`astro_obs`] handles (atomic counters/gauges, the
//! cluster-wide payment tracer, and this replica's flight recorder), so
//! the per-event cost is a relaxed atomic op. Replicas without an
//! attached bundle skip instrumentation entirely — the unobserved path
//! is a `None` check.

use astro_obs::{Counter, FlightRecorder, Gauge, PaymentTracer, Registry, Stage};
use astro_types::Payment;

/// Metric handles for one payment replica (Astro I or II).
///
/// Resolve once with [`CoreObs::for_replica`] and attach via
/// `set_obs`; every handle is cheaply cloneable and shared with the
/// process-wide [`Registry`].
#[derive(Debug, Clone)]
pub struct CoreObs {
    /// `core.r{i}.settles` — payments settled at this replica (direct
    /// and cascade; state-transfer-learned payments included).
    pub settles: Counter,
    /// `core.r{i}.parked` — broadcast messages parked during catch-up.
    pub parked: Counter,
    /// `core.r{i}.parked_depth` — current catch-up parking-buffer depth.
    pub parked_depth: Gauge,
    /// `core.r{i}.sync_retries` — catch-up request re-sends beyond the first
    /// request of a catch-up session.
    pub sync_retries: Counter,
    /// `core.r{i}.sync_rejected` — responses the catch-up collector has
    /// rejected (non-members, self, stale floors).
    pub sync_rejected: Gauge,
    /// `core.r{i}.sync_blocks_certified` — history blocks certified so
    /// far in the current catch-up session (monotonic within a session;
    /// the chunked-transfer progress indicator).
    pub sync_blocks_certified: Gauge,
    /// `core.r{i}.sync_refused_oversize` — catch-up requests this donor
    /// refused because the volatile head exceeded the wire-safe bound
    /// (the typed-error path that replaced the `put_frame` panic).
    pub sync_refused_oversize: Counter,
    /// `core.r{i}.cert_cache_hits` — dependency-certificate cache hits
    /// (Astro II; sampled at flush).
    pub cert_cache_hits: Gauge,
    /// `core.r{i}.cert_cache_misses` — certificate cache misses.
    pub cert_cache_misses: Gauge,
    /// `core.r{i}.pending_depth` — approval-queue depth (sampled at
    /// flush).
    pub pending_depth: Gauge,
    /// `core.r{i}.outbox_depth` — unacked CREDIT sub-batches awaiting
    /// their destination representative's ack (Astro II).
    pub outbox_depth: Gauge,
    /// `core.r{i}.credit_retransmits` — CREDIT sub-batches re-sent by the
    /// retry outbox beyond the initial transmission.
    pub credit_retransmits: Counter,
    /// `core.r{i}.credit_acks` — CREDIT acknowledgments accepted from
    /// destination representatives (each discharges one outbox entry).
    pub credit_acks: Counter,
    /// `core.r{i}.credit_replays` — CREDIT sub-batches served in response
    /// to a `CreditRequest`, whether retransmitted from the retry outbox
    /// or regenerated from settled history.
    pub credit_replays: Counter,
    /// The cluster-wide payment-lifecycle tracer.
    pub tracer: PaymentTracer,
    /// This replica's flight recorder.
    pub flight: FlightRecorder,
}

impl CoreObs {
    /// Resolves the core metric handles for replica `replica`.
    pub fn for_replica(registry: &Registry, replica: u32) -> Self {
        let name = |suffix: &str| format!("core.r{replica}.{suffix}");
        CoreObs {
            settles: registry.counter(&name("settles")),
            parked: registry.counter(&name("parked")),
            parked_depth: registry.gauge(&name("parked_depth")),
            sync_retries: registry.counter(&name("sync_retries")),
            sync_rejected: registry.gauge(&name("sync_rejected")),
            sync_blocks_certified: registry.gauge(&name("sync_blocks_certified")),
            sync_refused_oversize: registry.counter(&name("sync_refused_oversize")),
            cert_cache_hits: registry.gauge(&name("cert_cache_hits")),
            cert_cache_misses: registry.gauge(&name("cert_cache_misses")),
            pending_depth: registry.gauge(&name("pending_depth")),
            outbox_depth: registry.gauge(&name("outbox_depth")),
            credit_retransmits: registry.counter(&name("credit_retransmits")),
            credit_acks: registry.counter(&name("credit_acks")),
            credit_replays: registry.counter(&name("credit_replays")),
            tracer: registry.tracer().clone(),
            flight: registry.flight(replica),
        }
    }

    /// Stamps a lifecycle stage for a batch of payments (first writer
    /// wins per payment). One clock read for the whole batch: the batch
    /// is handled at one instant, and the clock read is a large share of
    /// a stamp's cost.
    pub(crate) fn stage_batch<'a, I>(&self, payments: I, stage: Stage)
    where
        I: IntoIterator<Item = &'a Payment>,
    {
        let now = self.tracer.now_nanos();
        for p in payments {
            self.tracer.stage_at(now, p.spender.0, p.seq.0, stage);
        }
    }
}
