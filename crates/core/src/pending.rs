//! The approval queue: payments delivered by the broadcast layer but not
//! yet settleable (paper Listing 3's two `wait until` conditions).
//!
//! A payment waits when (1) the spender's preceding payment has not settled
//! yet, or (2) the spender's balance is insufficient. Both conditions can
//! only be resolved by *other* settlements (the predecessor, or a credit to
//! the spender), so the queue is re-examined through a cascade after every
//! successful settlement.

use crate::ledger::{Ledger, SettleOutcome};
use astro_types::{ClientId, Payment};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A generic pending entry: the payment plus protocol-specific context the
/// caller wants back when it finally settles (e.g. Astro II dependencies).
#[derive(Debug, Clone)]
pub struct Queued<C> {
    /// The waiting payment.
    pub payment: Payment,
    /// Caller context returned on settlement.
    pub context: C,
}

/// Per-spender queues of payments waiting for approval.
#[derive(Debug, Clone)]
pub struct PendingQueue<C> {
    /// Waiting payments per spender, keyed by sequence number.
    by_spender: HashMap<ClientId, BTreeMap<u64, Queued<C>>>,
    len: usize,
}

impl<C> Default for PendingQueue<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> PendingQueue<C> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PendingQueue { by_spender: HashMap::new(), len: 0 }
    }

    /// Total queued payments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues a payment (first delivery or re-queue). A later delivery of
    /// a payment with the same `(spender, seq)` replaces the entry — BRB
    /// agreement guarantees the payload is identical.
    pub fn push(&mut self, payment: Payment, context: C) {
        let entry = self
            .by_spender
            .entry(payment.spender)
            .or_default()
            .insert(payment.seq.0, Queued { payment, context });
        if entry.is_none() {
            self.len += 1;
        }
    }

    /// Number of payments a given spender has waiting.
    pub fn waiting_for(&self, spender: ClientId) -> usize {
        self.by_spender.get(&spender).map_or(0, BTreeMap::len)
    }

    /// All queued payments in canonical `(spender, seq)` order (snapshot
    /// export).
    pub fn payments(&self) -> Vec<Payment> {
        self.entries().into_iter().map(|(p, _)| *p).collect()
    }

    /// All queued entries with their context in canonical `(spender,
    /// seq)` order (snapshot export for protocols with per-entry state).
    pub fn entries(&self) -> Vec<(&Payment, &C)> {
        let mut spenders: Vec<ClientId> = self.by_spender.keys().copied().collect();
        spenders.sort_unstable();
        spenders
            .into_iter()
            .flat_map(|s| self.by_spender[&s].values().map(|e| (&e.payment, &e.context)))
            .collect()
    }

    /// Drops every entry whose sequence number the ledger has already
    /// moved past (recovery: a replayed settle supersedes its queue
    /// entry). Entries at or beyond the next expected sequence stay.
    pub fn prune_stale(&mut self, ledger: &Ledger) {
        let mut dropped = 0usize;
        self.by_spender.retain(|spender, queue| {
            let next = ledger.next_seq(*spender).0;
            let before = queue.len();
            queue.retain(|seq, _| *seq >= next);
            dropped += before - queue.len();
            !queue.is_empty()
        });
        self.len -= dropped;
    }

    /// Settles everything unblocked by a state change affecting `seed`
    /// clients, cascading transitively: each examined spender's lowest
    /// queued payment goes to `settle` until one does not settle, and a
    /// settled payment re-examines its beneficiary and spender. `settle`
    /// gets `state` (a [`Ledger`], or the replica that owns one) and must
    /// leave a payment that is behind or ahead of its spender's xlog
    /// untouched and say so, as [`Ledger::settle`] does: `StaleSeq`
    /// discards the entry, `FutureSeq` and `InsufficientFunds` leave it
    /// waiting.
    ///
    /// Returns settled entries in settlement order. An empty queue
    /// returns at once: nothing is waiting, so nothing can be unblocked.
    pub fn drain_cascade<S>(
        &mut self,
        seed: impl IntoIterator<Item = ClientId>,
        state: &mut S,
        mut settle: impl FnMut(&mut S, &Payment, &C) -> SettleOutcome,
    ) -> Vec<Queued<C>> {
        let mut settled = Vec::new();
        if self.len == 0 {
            return settled;
        }
        let mut work: VecDeque<ClientId> = seed.into_iter().collect();
        while let Some(client) = work.pop_front() {
            // One probe per examined client: the slot both yields the
            // queue and removes it once drained.
            let Entry::Occupied(mut slot) = self.by_spender.entry(client) else { continue };
            let queue = slot.get_mut();
            // Examine heads (lowest sequence) of this spender's queue.
            while let Some(head) = queue.first_entry() {
                let entry = head.get();
                match settle(state, &entry.payment, &entry.context) {
                    SettleOutcome::Applied => {
                        let entry = head.remove();
                        self.len -= 1;
                        work.push_back(entry.payment.beneficiary);
                        work.push_back(entry.payment.spender);
                        settled.push(entry);
                    }
                    SettleOutcome::StaleSeq => {
                        head.remove();
                        self.len -= 1;
                    }
                    SettleOutcome::FutureSeq | SettleOutcome::InsufficientFunds => break,
                }
            }
            if queue.is_empty() {
                slot.remove();
            }
        }
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_types::Amount;

    fn plain_settle(ledger: &mut Ledger, p: &Payment, _: &()) -> SettleOutcome {
        ledger.settle(p, true)
    }

    #[test]
    fn queued_future_seq_settles_after_gap_fills() {
        let mut ledger = Ledger::new(Amount(100));
        let mut q = PendingQueue::new();
        // Deliver seq 1 before seq 0.
        q.push(Payment::new(1u64, 1u64, 2u64, 10u64), ());
        let settled = q.drain_cascade([ClientId(1)], &mut ledger, plain_settle);
        assert!(settled.is_empty());
        // Now seq 0 settles directly; cascade must pick up seq 1.
        assert_eq!(
            ledger.settle(&Payment::new(1u64, 0u64, 2u64, 5u64), true),
            SettleOutcome::Applied
        );
        let settled = q.drain_cascade([ClientId(1)], &mut ledger, plain_settle);
        assert_eq!(settled.len(), 1);
        assert_eq!(settled[0].payment.seq.0, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn insufficient_funds_unblocked_by_credit() {
        let mut ledger = Ledger::new(Amount(10));
        let mut q = PendingQueue::new();
        // Client 1 wants to pay 50 but has 10.
        q.push(Payment::new(1u64, 0u64, 3u64, 50u64), ());
        assert!(q.drain_cascade([ClientId(1)], &mut ledger, plain_settle).is_empty());
        // Client 2 (topped up first) pays client 1 enough.
        ledger.credit(ClientId(2), Amount(40));
        assert_eq!(
            ledger.settle(&Payment::new(2u64, 0u64, 1u64, 45u64), true),
            SettleOutcome::Applied
        );
        let settled = q.drain_cascade([ClientId(1)], &mut ledger, plain_settle);
        assert_eq!(settled.len(), 1);
        assert_eq!(ledger.balance(ClientId(1)), Amount(5));
    }

    #[test]
    fn transitive_cascade() {
        // 1 pays 2 (queued on funds), 2 pays 3 (queued on funds); a credit
        // to 1 must settle both transitively.
        let mut ledger = Ledger::new(Amount(0));
        let mut q = PendingQueue::new();
        q.push(Payment::new(1u64, 0u64, 2u64, 30u64), ());
        q.push(Payment::new(2u64, 0u64, 3u64, 30u64), ());
        assert!(q.drain_cascade([ClientId(1), ClientId(2)], &mut ledger, plain_settle).is_empty());
        ledger.credit(ClientId(1), Amount(30));
        let settled = q.drain_cascade([ClientId(1)], &mut ledger, plain_settle);
        assert_eq!(settled.len(), 2);
        assert_eq!(ledger.balance(ClientId(3)), Amount(30));
        assert!(q.is_empty());
    }

    #[test]
    fn stale_entries_discarded() {
        let mut ledger = Ledger::new(Amount(100));
        let mut q = PendingQueue::new();
        ledger.settle(&Payment::new(1u64, 0u64, 2u64, 1u64), true);
        q.push(Payment::new(1u64, 0u64, 9u64, 1u64), ()); // stale duplicate
        let settled = q.drain_cascade([ClientId(1)], &mut ledger, plain_settle);
        assert!(settled.is_empty());
        assert!(q.is_empty(), "stale entry must be discarded");
        assert_eq!(ledger.balance(ClientId(9)), Amount(100));
    }

    #[test]
    fn replacing_same_seq_keeps_len_consistent() {
        let mut q: PendingQueue<()> = PendingQueue::new();
        q.push(Payment::new(1u64, 0u64, 2u64, 1u64), ());
        q.push(Payment::new(1u64, 0u64, 2u64, 1u64), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.waiting_for(ClientId(1)), 1);
    }

    #[test]
    fn cascade_over_an_empty_queue_never_settles() {
        let mut ledger = Ledger::new(Amount(100));
        let mut q = PendingQueue::new();
        let mut calls = 0;
        let mut counting = |l: &mut Ledger, p: &Payment, _: &()| {
            calls += 1;
            l.settle(p, true)
        };
        assert!(q.drain_cascade([ClientId(1), ClientId(2)], &mut ledger, &mut counting).is_empty());
        // A queue that drained empty is empty too: only the cascade that
        // settles the queued payment calls `settle`.
        q.push(Payment::new(1u64, 1u64, 2u64, 10u64), ());
        ledger.settle(&Payment::new(1u64, 0u64, 2u64, 10u64), true);
        assert_eq!(q.drain_cascade([ClientId(1)], &mut ledger, &mut counting).len(), 1);
        assert!(q.is_empty());
        assert!(q.drain_cascade([ClientId(1), ClientId(2)], &mut ledger, &mut counting).is_empty());
        assert_eq!(calls, 1);
    }

    #[test]
    fn long_chain_settles_in_order() {
        // Payments seq 1..=5 queued, then seq 0 arrives.
        let mut ledger = Ledger::new(Amount(1000));
        let mut q = PendingQueue::new();
        for seq in 1..=5u64 {
            q.push(Payment::new(7u64, seq, 8u64, 10u64), ());
        }
        assert!(q.drain_cascade([ClientId(7)], &mut ledger, plain_settle).is_empty());
        ledger.settle(&Payment::new(7u64, 0u64, 8u64, 10u64), true);
        let settled = q.drain_cascade([ClientId(7)], &mut ledger, plain_settle);
        let seqs: Vec<u64> = settled.iter().map(|e| e.payment.seq.0).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }
}
