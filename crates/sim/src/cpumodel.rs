//! The CPU cost model.
//!
//! Protocol state machines in the simulator run with simulation-grade
//! authenticators (cheap HMAC tags), and this model charges simulated time
//! for what the *real* cryptography costs. The default constants are
//! calibrated from `cargo bench -p astro-bench --bench micro_crypto`
//! running this repository's own SHA-256 / HMAC / Schnorr implementations
//! (`BENCH_micro_crypto.json` holds the measured numbers), scaled to the paper's
//! t2.medium-class hardware.

use super::netmodel::Nanos;

/// Per-operation CPU costs in nanoseconds.
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// One Schnorr signature.
    pub sign_ns: Nanos,
    /// One stand-alone Schnorr verification.
    pub verify_ns: Nanos,
    /// Verifier worker threads per replica — the runtime's verify pool
    /// (`astro_runtime::VerifyPool`) modeled in simulated time. With
    /// `lanes > 0`, the signature-verification share of a message's cost
    /// runs on the earliest-free lane and overlaps the event loop, which
    /// pays only the inline share; `0` charges verification inline (the
    /// serial baseline).
    pub verify_lanes: usize,
    /// Marginal cost per signature inside a batch verification
    /// (shared-doubling multi-scalar multiplication; see
    /// `astro_crypto::schnorr::batch_verify` and the `micro_crypto` bench).
    pub verify_batch_marginal_ns: Nanos,
    /// One HMAC-SHA256 over a small message.
    pub mac_ns: Nanos,
    /// SHA-256 hashing, per byte.
    pub hash_ns_per_byte: Nanos,
    /// Ledger work per payment applied (settle + queues + xlog append).
    pub settle_ns: Nanos,
    /// Fixed message-handling overhead (deserialization, dispatch,
    /// kernel/network stack — dominated by the runtime on t2.medium-class
    /// VMs, hence much larger than raw parsing).
    pub overhead_ns: Nanos,
    /// Per-request ordering overhead in the consensus baseline (request
    /// validation, MAC vector handling, Java-runtime serialization —
    /// see "Can 100 Machines Agree?", paper ref \[40\]).
    pub consensus_request_ns: Nanos,
}

impl CpuModel {
    /// Costs calibrated from this repo's crypto on commodity hardware
    /// (t2.medium-class; see `micro_crypto` bench). Recalibrated after
    /// the secp256k1-specialized field/scalar reduction and the
    /// cached-public-key signing fix (micro_crypto medians moved from
    /// 84 µs sign / 148 µs verify to 24 µs / 84 µs; the same ~1.7×
    /// hardware scale factor to the paper's t2.medium class is kept).
    /// Four verify lanes model the runtime's worker pool on a small
    /// modern server.
    pub fn calibrated() -> Self {
        CpuModel {
            sign_ns: 36_000,    // one fixed-base comb multiplication
            verify_ns: 140_000, // double-scalar multiplication
            verify_batch_marginal_ns: 42_000,
            verify_lanes: 4,
            mac_ns: 1_500,
            hash_ns_per_byte: 8,
            settle_ns: 4_000,
            overhead_ns: 25_000,
            consensus_request_ns: 30_000,
        }
    }

    /// Zero-cost model (isolates the network in ablation experiments).
    pub fn free() -> Self {
        CpuModel {
            sign_ns: 0,
            verify_ns: 0,
            verify_batch_marginal_ns: 0,
            verify_lanes: 0,
            mac_ns: 0,
            hash_ns_per_byte: 0,
            settle_ns: 0,
            overhead_ns: 0,
            consensus_request_ns: 0,
        }
    }

    /// Cost of hashing `bytes` bytes.
    pub fn hash(&self, bytes: usize) -> Nanos {
        self.hash_ns_per_byte * bytes as Nanos
    }

    /// Cost of verifying `k` signatures as one batch.
    pub fn batch_verify(&self, k: usize) -> Nanos {
        if k == 0 {
            return 0;
        }
        self.verify_ns + (k as Nanos - 1) * self.verify_batch_marginal_ns
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// The CPU price of processing one inbound message, split by where the
/// work can run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeliverCost {
    /// Work the event loop must do itself (deserialization, hashing,
    /// MAC checks, signing replies, bookkeeping).
    pub inline: Nanos,
    /// Signature-verification work a verify pool can take off the loop.
    /// Charged to the earliest-free lane when [`CpuModel::verify_lanes`]
    /// is nonzero, inline otherwise.
    pub verify: Nanos,
}

impl DeliverCost {
    /// A cost with no offloadable share.
    pub fn inline(inline: Nanos) -> Self {
        DeliverCost { inline, verify: 0 }
    }

    /// The serial total (what a 0-lane replica pays on the loop).
    pub fn total(&self) -> Nanos {
        self.inline + self.verify
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_ordering_of_costs() {
        let m = CpuModel::calibrated();
        assert!(m.verify_ns > m.sign_ns, "verification is a double-scalar mult");
        assert!(m.sign_ns > m.mac_ns * 10, "signatures are much dearer than MACs");
    }

    #[test]
    fn hash_scales_with_size() {
        let m = CpuModel::calibrated();
        assert_eq!(m.hash(1000), 1000 * m.hash_ns_per_byte);
    }
}
