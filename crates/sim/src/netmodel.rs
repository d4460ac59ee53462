//! The wide-area network model.
//!
//! Substitutes for the paper's EC2 deployment (§VI-B): four European
//! regions (Frankfurt, Ireland, London, Paris), ~20 ms inter-region RTT,
//! ~30 MiB/s per-VM bandwidth. The model charges every message
//!
//! 1. **NIC serialization** at the sender: `size / bandwidth`, queued FIFO
//!    behind earlier sends (this is what makes a leader that sends N copies
//!    of every batch the bottleneck; Bracha's O(N²) votes are 49-byte
//!    digest frames, so what decays with N there is per-message CPU, not
//!    the NIC);
//! 2. **propagation latency** from a region-pair matrix plus jitter;
//! 3. optional **fault state**: crashed nodes send/receive nothing;
//!    "tc-delayed" nodes (paper §VI-D) add a constant extra delay to every
//!    outgoing packet.

use astro_types::ReplicaId;
use rand::rngs::StdRng;
use rand::Rng;

/// Nanosecond simulation time.
pub type Nanos = u64;

/// A cloud region (the four EU regions of the paper's deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// eu-central-1.
    Frankfurt,
    /// eu-west-1 (where the paper places all clients).
    Ireland,
    /// eu-west-2.
    London,
    /// eu-west-3.
    Paris,
}

impl Region {
    /// The paper's four regions, in round-robin assignment order.
    pub const ALL: [Region; 4] =
        [Region::Frankfurt, Region::Ireland, Region::London, Region::Paris];
}

/// Static parameters of the modelled network.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// One-way latency between distinct regions.
    pub inter_region_latency: Nanos,
    /// One-way latency within a region.
    pub intra_region_latency: Nanos,
    /// Uniform jitter bound added to every delivery.
    pub jitter: Nanos,
    /// Per-node NIC bandwidth in bytes/second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-message overhead in bytes (IP/TCP framing).
    pub per_message_overhead: usize,
}

impl NetParams {
    /// The paper's European WAN: ~20 ms RTT across regions, ~30 MiB/s.
    pub fn europe_wan() -> Self {
        NetParams {
            inter_region_latency: 10_000_000, // 10 ms one-way => 20 ms RTT
            intra_region_latency: 400_000,    // 0.4 ms
            jitter: 300_000,                  // 0.3 ms
            bandwidth_bytes_per_sec: 30 * 1024 * 1024,
            per_message_overhead: 60,
        }
    }

    /// A fast LAN (for tests that should not wait on WAN latencies).
    pub fn lan() -> Self {
        NetParams {
            inter_region_latency: 100_000,
            intra_region_latency: 100_000,
            jitter: 10_000,
            bandwidth_bytes_per_sec: 1024 * 1024 * 1024,
            per_message_overhead: 60,
        }
    }
}

/// Dynamic per-node network state.
#[derive(Debug, Clone, Default)]
struct NodeState {
    crashed: bool,
    /// Extra delay on outgoing packets (`tc qdisc … netem delay …`).
    extra_delay: Nanos,
    /// Time the NIC finishes its current queue.
    nic_free_at: Nanos,
}

/// The simulated network: region placement, latency, bandwidth, faults.
#[derive(Debug)]
pub struct Network {
    params: NetParams,
    regions: Vec<Region>,
    nodes: Vec<NodeState>,
    /// Last arrival time per (from, to) link: links are TCP connections,
    /// so deliveries on one link are FIFO despite jitter.
    link_clock: std::collections::HashMap<(u32, u32), Nanos>,
    /// Severed links (partial partitions): packets on these pairs are
    /// dropped while both endpoints stay up. Both directions are listed.
    severed: std::collections::HashSet<(u32, u32)>,
    /// Per-link extra delay (gray links: slow, not dead). Both directions.
    link_extra: std::collections::HashMap<(u32, u32), Nanos>,
}

impl Network {
    /// Builds a network of `n` nodes assigned round-robin to the four
    /// regions (the paper spreads replicas uniformly across regions).
    pub fn new(n: usize, params: NetParams) -> Self {
        Network {
            regions: (0..n).map(|i| Region::ALL[i % 4]).collect(),
            nodes: vec![NodeState::default(); n],
            params,
            link_clock: std::collections::HashMap::new(),
            severed: std::collections::HashSet::new(),
            link_extra: std::collections::HashMap::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The region of a node.
    pub fn region_of(&self, node: ReplicaId) -> Region {
        self.regions[node.0 as usize]
    }

    /// Marks `node` as crashed from now on.
    pub fn crash(&mut self, node: ReplicaId) {
        self.nodes[node.0 as usize].crashed = true;
    }

    /// True if `node` is crashed.
    pub fn is_crashed(&self, node: ReplicaId) -> bool {
        self.nodes[node.0 as usize].crashed
    }

    /// Brings a crashed `node` back: it sends and receives again from now
    /// on. Packets that were in flight (or dropped) during the outage
    /// stay lost — the restarted node resumes from its retained state,
    /// which models a replica recovering from durable storage
    /// (`astro-store`) and rejoining the broadcast flow.
    pub fn restore(&mut self, node: ReplicaId) {
        self.nodes[node.0 as usize].crashed = false;
    }

    /// Adds `extra` delay to all packets leaving `node` (the `tc netem`
    /// experiment of §VI-D).
    pub fn add_delay(&mut self, node: ReplicaId, extra: Nanos) {
        self.nodes[node.0 as usize].extra_delay = extra;
    }

    /// Severs the `a`–`b` link in both directions: a partial partition —
    /// both nodes stay up and keep talking to everyone else, but packets
    /// between them are dropped until [`Network::heal`].
    pub fn partition(&mut self, a: ReplicaId, b: ReplicaId) {
        self.severed.insert((a.0, b.0));
        self.severed.insert((b.0, a.0));
    }

    /// Heals a severed `a`–`b` link. Packets dropped during the
    /// partition stay lost (TCP connections were reset); recovery is the
    /// protocols' job — retry outboxes and catch-up state transfer.
    pub fn heal(&mut self, a: ReplicaId, b: ReplicaId) {
        self.severed.remove(&(a.0, b.0));
        self.severed.remove(&(b.0, a.0));
    }

    /// True if the `from`→`to` direction is severed by a partial
    /// partition.
    pub fn is_severed(&self, from: ReplicaId, to: ReplicaId) -> bool {
        self.severed.contains(&(from.0, to.0))
    }

    /// Adds `extra` delay to both directions of the `a`–`b` link — a
    /// gray link that is slow but not dead. `0` restores the link.
    pub fn slow_link(&mut self, a: ReplicaId, b: ReplicaId, extra: Nanos) {
        if extra == 0 {
            self.link_extra.remove(&(a.0, b.0));
            self.link_extra.remove(&(b.0, a.0));
        } else {
            self.link_extra.insert((a.0, b.0), extra);
            self.link_extra.insert((b.0, a.0), extra);
        }
    }

    /// Propagation latency between two nodes (excluding serialization).
    pub fn latency(&self, from: ReplicaId, to: ReplicaId) -> Nanos {
        if self.region_of(from) == self.region_of(to) {
            self.params.intra_region_latency
        } else {
            self.params.inter_region_latency
        }
    }

    /// Schedules the transmission of `size` bytes from `from` to `to`
    /// starting no earlier than `now`. Returns the arrival time, or `None`
    /// if either endpoint is crashed.
    ///
    /// Loopback (`from == to`) costs no NIC time and a fixed 1 µs.
    pub fn transmit(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        size: usize,
        now: Nanos,
        rng: &mut StdRng,
    ) -> Option<Nanos> {
        let f = &self.nodes[from.0 as usize];
        if f.crashed || self.nodes[to.0 as usize].crashed {
            return None;
        }
        if from == to {
            return Some(now + 1_000);
        }
        if self.severed.contains(&(from.0, to.0)) {
            return None;
        }
        let bytes = (size + self.params.per_message_overhead) as u64;
        let tx = bytes
            .saturating_mul(1_000_000_000)
            .checked_div(self.params.bandwidth_bytes_per_sec)
            .unwrap_or(0);
        let start = now.max(self.nodes[from.0 as usize].nic_free_at);
        let done = start + tx;
        self.nodes[from.0 as usize].nic_free_at = done;
        let jitter = if self.params.jitter > 0 { rng.gen_range(0..self.params.jitter) } else { 0 };
        let extra = self.nodes[from.0 as usize].extra_delay
            + self.link_extra.get(&(from.0, to.0)).copied().unwrap_or(0);
        let raw = done + self.latency(from, to) + jitter + extra;
        // TCP semantics: per-link FIFO delivery.
        let clock = self.link_clock.entry((from.0, to.0)).or_insert(0);
        let arrival = raw.max(*clock + 1);
        *clock = arrival;
        Some(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn round_robin_region_assignment() {
        let net = Network::new(8, NetParams::europe_wan());
        assert_eq!(net.region_of(ReplicaId(0)), Region::Frankfurt);
        assert_eq!(net.region_of(ReplicaId(1)), Region::Ireland);
        assert_eq!(net.region_of(ReplicaId(4)), Region::Frankfurt);
    }

    #[test]
    fn inter_region_slower_than_intra() {
        let net = Network::new(8, NetParams::europe_wan());
        assert!(net.latency(ReplicaId(0), ReplicaId(1)) > net.latency(ReplicaId(0), ReplicaId(4)));
    }

    #[test]
    fn nic_serialization_queues_back_to_back_sends() {
        let mut net = Network::new(2, NetParams::europe_wan());
        let mut r = rng();
        // Two 3 MiB messages: the second must leave ~0.1 s after the first.
        let a1 = net.transmit(ReplicaId(0), ReplicaId(1), 3 << 20, 0, &mut r).unwrap();
        let a2 = net.transmit(ReplicaId(0), ReplicaId(1), 3 << 20, 0, &mut r).unwrap();
        let tx = (3u64 << 20) * 1_000_000_000 / (30 * 1024 * 1024);
        assert!(a2 >= a1 + tx / 2, "second send must queue behind the first");
    }

    #[test]
    fn crash_stops_traffic() {
        let mut net = Network::new(2, NetParams::europe_wan());
        let mut r = rng();
        net.crash(ReplicaId(1));
        assert!(net.transmit(ReplicaId(0), ReplicaId(1), 100, 0, &mut r).is_none());
        assert!(net.transmit(ReplicaId(1), ReplicaId(0), 100, 0, &mut r).is_none());
    }

    #[test]
    fn tc_delay_inflates_arrivals() {
        let mut net = Network::new(2, NetParams::europe_wan());
        let mut r = rng();
        let before = net.transmit(ReplicaId(0), ReplicaId(1), 100, 0, &mut r).unwrap();
        net.add_delay(ReplicaId(0), 100_000_000); // +100 ms
        let after = net.transmit(ReplicaId(0), ReplicaId(1), 100, 1_000_000_000, &mut r).unwrap();
        assert!(after - 1_000_000_000 >= before + 99_000_000);
    }

    #[test]
    fn per_link_delivery_is_fifo() {
        let mut net = Network::new(2, NetParams::europe_wan());
        let mut r = rng();
        let mut last = 0;
        for i in 0..200 {
            let a = net.transmit(ReplicaId(0), ReplicaId(1), 100, i * 10, &mut r).unwrap();
            assert!(a > last, "link must deliver in order");
            last = a;
        }
    }

    #[test]
    fn partition_severs_one_link_both_ways_and_heals() {
        let mut net = Network::new(4, NetParams::europe_wan());
        let mut r = rng();
        net.partition(ReplicaId(0), ReplicaId(1));
        assert!(net.is_severed(ReplicaId(0), ReplicaId(1)));
        assert!(net.transmit(ReplicaId(0), ReplicaId(1), 100, 0, &mut r).is_none());
        assert!(net.transmit(ReplicaId(1), ReplicaId(0), 100, 0, &mut r).is_none());
        // Other links stay up: a *partial* partition.
        assert!(net.transmit(ReplicaId(0), ReplicaId(2), 100, 0, &mut r).is_some());
        assert!(net.transmit(ReplicaId(1), ReplicaId(3), 100, 0, &mut r).is_some());
        net.heal(ReplicaId(0), ReplicaId(1));
        assert!(net.transmit(ReplicaId(0), ReplicaId(1), 100, 0, &mut r).is_some());
    }

    #[test]
    fn slow_link_inflates_one_pair_only() {
        let mut net = Network::new(4, NetParams::europe_wan());
        let mut r = rng();
        let baseline = net.transmit(ReplicaId(0), ReplicaId(1), 100, 0, &mut r).unwrap();
        net.slow_link(ReplicaId(0), ReplicaId(1), 50_000_000); // +50 ms
        let slowed = net.transmit(ReplicaId(0), ReplicaId(1), 100, 1_000_000_000, &mut r).unwrap();
        assert!(slowed - 1_000_000_000 >= baseline + 49_000_000);
        // The reverse direction is slowed too; unrelated links are not.
        let reverse = net.transmit(ReplicaId(1), ReplicaId(0), 100, 1_000_000_000, &mut r).unwrap();
        assert!(reverse - 1_000_000_000 >= 50_000_000);
        let other = net.transmit(ReplicaId(0), ReplicaId(2), 100, 2_000_000_000, &mut r).unwrap();
        assert!(other - 2_000_000_000 < 50_000_000);
        // Zero restores.
        net.slow_link(ReplicaId(0), ReplicaId(1), 0);
        let healed = net.transmit(ReplicaId(0), ReplicaId(1), 100, 3_000_000_000, &mut r).unwrap();
        assert!(healed - 3_000_000_000 < 50_000_000);
    }

    #[test]
    fn loopback_is_cheap_and_free_of_nic() {
        let mut net = Network::new(2, NetParams::europe_wan());
        let mut r = rng();
        let arrival = net.transmit(ReplicaId(0), ReplicaId(0), 10 << 20, 5, &mut r).unwrap();
        assert_eq!(arrival, 5 + 1_000);
    }
}
