//! An in-memory message router for deterministic protocol testing.
//!
//! [`Cluster`] wires N protocol state machines together with an explicit
//! message queue, supporting crash injection, message filtering (drops,
//! partitions), Byzantine message injection, and both FIFO and randomized
//! schedules. The unit, integration, and property tests of `astro-brb`,
//! `astro-core`, and `astro-consensus` all build on it.
//!
//! This is a test harness, not a performance model: for latency/throughput
//! experiments use `astro-sim`, which adds a network/CPU cost model on top
//! of the same state machines.

use crate::{Delivery, Dest, Step};
use astro_types::ReplicaId;
use std::collections::VecDeque;

/// A protocol state machine that can be driven by [`Cluster`].
pub trait TestNode {
    /// Payloads the node delivers.
    type Payload: Clone + core::fmt::Debug;
    /// Messages the node exchanges.
    type Msg: Clone + core::fmt::Debug;

    /// The node's replica id.
    fn id(&self) -> ReplicaId;

    /// Processes one inbound message.
    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg) -> Step<Self::Payload, Self::Msg>;
}

/// A queued message in flight.
#[derive(Debug, Clone)]
struct InFlight<M> {
    from: ReplicaId,
    to: ReplicaId,
    msg: M,
}

type Filter<M> = Box<dyn FnMut(ReplicaId, ReplicaId, &M) -> bool>;

/// An in-memory cluster of protocol nodes connected by a message queue.
pub struct Cluster<N: TestNode> {
    nodes: Vec<N>,
    queue: VecDeque<InFlight<N::Msg>>,
    crashed: Vec<bool>,
    delivered: Vec<Vec<Delivery<N::Payload>>>,
    filter: Option<Filter<N::Msg>>,
    messages_processed: u64,
}

impl<N: TestNode> Cluster<N> {
    /// Builds a cluster from nodes ordered by replica id (`ReplicaId(i)`
    /// must be at index `i`).
    ///
    /// # Panics
    ///
    /// Panics if node ids are not `0..n` in order.
    pub fn new(nodes: impl IntoIterator<Item = N>) -> Self {
        let nodes: Vec<N> = nodes.into_iter().collect();
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.id(), ReplicaId(i as u32), "nodes must be ordered by id");
        }
        let n = nodes.len();
        Cluster {
            nodes,
            queue: VecDeque::new(),
            crashed: vec![false; n],
            delivered: vec![Vec::new(); n],
            filter: None,
            messages_processed: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Mutable access to a node (for initiating broadcasts etc.).
    pub fn node_mut(&mut self, i: usize) -> &mut N {
        &mut self.nodes[i]
    }

    /// Shared access to a node.
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// Marks a replica as crashed: it no longer sends or receives.
    pub fn crash(&mut self, id: ReplicaId) {
        self.crashed[id.0 as usize] = true;
    }

    /// Installs a message filter; messages for which it returns `false`
    /// are silently dropped (models lossy links / partitions).
    pub fn set_filter(
        &mut self,
        filter: impl FnMut(ReplicaId, ReplicaId, &N::Msg) -> bool + 'static,
    ) {
        self.filter = Some(Box::new(filter));
    }

    /// Enqueues the outbound messages of `step` as if sent by `from`, and
    /// records its deliveries.
    pub fn submit(&mut self, from: ReplicaId, step: Step<N::Payload, N::Msg>) {
        self.delivered[from.0 as usize].extend(step.delivered);
        for env in step.outbound {
            match env.to {
                Dest::All => {
                    for i in 0..self.nodes.len() {
                        self.queue.push_back(InFlight {
                            from,
                            to: ReplicaId(i as u32),
                            msg: env.msg.clone(),
                        });
                    }
                }
                Dest::One(to) => {
                    self.queue.push_back(InFlight { from, to, msg: env.msg });
                }
            }
        }
    }

    /// Injects a single message with an arbitrary claimed sender — the
    /// Byzantine primitive (a faulty replica can say anything, but only
    /// with its own authenticated identity).
    pub fn inject(&mut self, from: ReplicaId, to: ReplicaId, msg: N::Msg) {
        self.queue.push_back(InFlight { from, to, msg });
    }

    /// Processes messages FIFO until the queue drains.
    pub fn run_to_quiescence(&mut self) {
        while self.step_one(None) {}
    }

    /// Processes messages in a pseudo-random order (seeded, deterministic)
    /// until the queue drains. Useful for schedule-independence property
    /// tests: BRB safety must hold under every schedule.
    pub fn run_to_quiescence_shuffled(&mut self, seed: u64) {
        let mut rng = XorShift64::new(seed);
        loop {
            let len = self.queue.len();
            if len == 0 {
                return;
            }
            let pick = (rng.next() % len as u64) as usize;
            if !self.step_one(Some(pick)) {
                return;
            }
        }
    }

    /// Processes at most one message; returns false when the queue is empty.
    fn step_one(&mut self, index: Option<usize>) -> bool {
        let inflight = match index {
            None => self.queue.pop_front(),
            Some(i) => self.queue.remove(i),
        };
        let Some(InFlight { from, to, msg }) = inflight else {
            return false;
        };
        if self.crashed[from.0 as usize] || self.crashed[to.0 as usize] {
            return true;
        }
        if let Some(filter) = &mut self.filter {
            if !filter(from, to, &msg) {
                return true;
            }
        }
        self.messages_processed += 1;
        let step = self.nodes[to.0 as usize].on_message(from, msg);
        self.submit(to, step);
        true
    }

    /// Everything node `i` has delivered so far, in order.
    pub fn deliveries(&self, i: usize) -> &[Delivery<N::Payload>] {
        &self.delivered[i]
    }

    /// Total messages processed (for complexity assertions).
    pub fn messages_processed(&self) -> u64 {
        self.messages_processed
    }
}

/// Minimal deterministic PRNG for schedule shuffling (no `rand` dependency
/// in non-dev code).
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl<P: crate::Payload> TestNode for crate::bracha::BrachaBrb<P> {
    type Payload = P;
    type Msg = crate::bracha::BrachaMsg<P>;

    fn id(&self) -> ReplicaId {
        self.id()
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg) -> Step<P, Self::Msg> {
        self.handle(from, msg)
    }
}

impl<P: crate::Payload, A: astro_types::Authenticator> TestNode for crate::signed::SignedBrb<P, A> {
    type Payload = P;
    type Msg = crate::signed::SignedMsg<P, A::Sig>;

    fn id(&self) -> ReplicaId {
        self.id()
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg) -> Step<P, Self::Msg> {
        self.handle(from, msg)
    }
}
