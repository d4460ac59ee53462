//! In-memory router for payment replicas (sharding-aware), plus the
//! hooks adversarial tests use.
//!
//! Like `astro_brb::testkit::Cluster`, but for [`crate::ReplicaStep`]s:
//! tracks *settled payments* per replica and expands [`Dest::All`] to the
//! *sender's group* (its shard), which is what a sharded transport does.

use crate::astro2::{Astro2Msg, AstroTwoReplica};
use crate::batch::{DepPayment, DependencyCertificate};
use crate::{Replica, ReplicaStep};
use astro_brb::Dest;
use astro_types::{Authenticator, Payment, ReplicaId};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct InFlight<M> {
    from: ReplicaId,
    to: ReplicaId,
    msg: M,
}

type Filter<M> = Box<dyn FnMut(ReplicaId, ReplicaId, &M) -> bool>;

type StepHook<N> = Box<dyn FnMut(ReplicaId, &mut N, &ReplicaStep<<N as Replica>::Msg>)>;

/// An in-memory cluster of payment replicas (possibly spanning shards).
pub struct PaymentCluster<N: Replica> {
    nodes: Vec<N>,
    queue: VecDeque<InFlight<N::Msg>>,
    crashed: Vec<bool>,
    settled: Vec<Vec<Payment>>,
    filter: Option<Filter<N::Msg>>,
    on_step: Option<StepHook<N>>,
    messages_processed: u64,
}

impl<N: Replica> PaymentCluster<N> {
    /// Builds a cluster; node `i` must have id `ReplicaId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if ids are not consecutive from zero.
    pub fn new(nodes: impl IntoIterator<Item = N>) -> Self {
        let nodes: Vec<N> = nodes.into_iter().collect();
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.id(), ReplicaId(i as u32), "nodes must be ordered by id");
        }
        let n = nodes.len();
        PaymentCluster {
            nodes,
            queue: VecDeque::new(),
            crashed: vec![false; n],
            settled: vec![Vec::new(); n],
            filter: None,
            on_step: None,
            messages_processed: 0,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared node access.
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// Mutable node access (submit payments, flush batches).
    pub fn node_mut(&mut self, i: usize) -> &mut N {
        &mut self.nodes[i]
    }

    /// Marks a replica as crashed.
    pub fn crash(&mut self, id: ReplicaId) {
        self.crashed[id.0 as usize] = true;
    }

    /// Installs a drop filter (returns `false` ⇒ message dropped).
    pub fn set_filter(
        &mut self,
        filter: impl FnMut(ReplicaId, ReplicaId, &N::Msg) -> bool + 'static,
    ) {
        self.filter = Some(Box::new(filter));
    }

    /// Installs a hook run on a node after each of its steps is
    /// submitted — what a driver does around the state machine (the
    /// runtime's size-triggered GC and storage policy).
    pub fn on_step(&mut self, hook: impl FnMut(ReplicaId, &mut N, &ReplicaStep<N::Msg>) + 'static) {
        self.on_step = Some(Box::new(hook));
    }

    /// Enqueues a step's outbound messages as sent by `from` and records
    /// its settled payments.
    pub fn submit_step(&mut self, from: ReplicaId, step: ReplicaStep<N::Msg>) {
        let node = &mut self.nodes[from.0 as usize];
        if let Some(hook) = &mut self.on_step {
            hook(from, node, &step);
        }
        self.settled[from.0 as usize].extend(step.settled);
        for env in step.outbound {
            match env.to {
                Dest::All => {
                    for to in node.group().members() {
                        self.queue.push_back(InFlight { from, to: *to, msg: env.msg.clone() });
                    }
                }
                Dest::One(to) => self.queue.push_back(InFlight { from, to, msg: env.msg }),
            }
        }
    }

    /// Injects a raw message (Byzantine primitive).
    pub fn inject(&mut self, from: ReplicaId, to: ReplicaId, msg: N::Msg) {
        self.queue.push_back(InFlight { from, to, msg });
    }

    /// Processes messages FIFO until quiescent.
    pub fn run_to_quiescence(&mut self) {
        while let Some(InFlight { from, to, msg }) = self.queue.pop_front() {
            if self.crashed[from.0 as usize] || self.crashed[to.0 as usize] {
                continue;
            }
            if let Some(filter) = &mut self.filter {
                if !filter(from, to, &msg) {
                    continue;
                }
            }
            self.messages_processed += 1;
            let step = self.nodes[to.0 as usize].handle(from, msg);
            self.submit_step(to, step);
        }
    }

    /// Payments settled by replica `i`, in settlement order.
    pub fn settled(&self, i: usize) -> &[Payment] {
        &self.settled[i]
    }

    /// Total messages processed.
    pub fn messages_processed(&self) -> u64 {
        self.messages_processed
    }
}

/// Enqueues a payment with explicitly chosen dependency certificates and
/// flushes immediately — how adversarial tests model a Byzantine
/// representative attaching arbitrary (possibly forged) certificates.
pub fn submit_with_deps<A: Authenticator>(
    node: &mut AstroTwoReplica<A>,
    payment: Payment,
    deps: Vec<DependencyCertificate<A::Sig>>,
) -> ReplicaStep<Astro2Msg<A::Sig>> {
    node.batch.push(DepPayment { payment, deps });
    node.flush()
}
