//! Replica-local system state: balances, sequence numbers, and xlogs —
//! the `sn[..]`, `bal[..]`, `xlogs[..]` of the paper's Listing 2.
//!
//! Account storage is a dense, `ClientId`-indexed table for the id range
//! real workloads use (the paper's experiments number clients from 0), so
//! the per-payment balance/sequence/xlog lookups on the settle path are
//! two array index operations instead of three hash-map probes. Ids above
//! [`DENSE_LIMIT`] fall back to a hash map, so the id space stays the
//! full `u64` without unbounded memory.

use crate::journal::{CheckpointRecord, LedgerState, RecoverError};
use crate::xlog::{XLog, XLogError};
use astro_types::{Amount, ClientId, Payment, SeqNo};
use std::collections::HashMap;

/// Client ids below this index into the dense account table; ids at or
/// above it live in the sparse fallback map. The dense table grows on
/// demand up to this bound, amortized-doubling.
pub const DENSE_LIMIT: u64 = 1 << 20;

/// Most xlog entries one [`CheckpointRecord`] carries. At 32 bytes an
/// entry a record stays near 2 MiB, well inside the 16 MiB frame bound
/// recovery enforces on checkpoint segments; without the split, a
/// re-baselined client with about 524k settled payments would seal a
/// segment recovery refuses.
pub const CHECKPOINT_CHUNK_ENTRIES: usize = 1 << 16;

/// Outcome of attempting to settle a payment against the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleOutcome {
    /// The payment was applied (balances, sequence number, xlog updated).
    Applied,
    /// The payment's sequence number is ahead of the spender's xlog —
    /// approval criterion (1) of Listing 3 is unmet; queue and retry.
    FutureSeq,
    /// The sequence number was already settled — a duplicate or the loser
    /// of an equivocation; drop.
    StaleSeq,
    /// Approval criterion (2) unmet: insufficient balance; queue and retry
    /// after a credit (Astro I), or reject (Astro II without matching
    /// dependencies).
    InsufficientFunds,
}

/// One client's tracked state. `balance: None` means the client still
/// holds the untouched genesis endowment.
#[derive(Debug, Clone, Default)]
struct Account {
    balance: Option<Amount>,
    xlog: Option<XLog>,
    /// Xlog entries already sealed into checkpoint segments (the
    /// per-client checkpoint watermark). Entries below this index are
    /// durable history; a snapshot delta only exports entries at or
    /// above it.
    ckpt: u64,
    /// Touched since the last checkpoint: set exactly while the id is in
    /// `Ledger::dirty`, so that list never holds an id twice.
    dirty: bool,
}

impl Account {
    fn is_vacant(&self) -> bool {
        self.balance.is_none() && self.xlog.is_none()
    }

    /// Sets the dirty flag. True if it was clear: the caller then lists
    /// the account in `Ledger::dirty`.
    #[inline]
    fn mark_dirty(&mut self) -> bool {
        !std::mem::replace(&mut self.dirty, true)
    }
}

/// The state a replica maintains for its shard's clients.
///
/// Unknown clients implicitly start with `initial_balance` — the genesis
/// endowment used throughout the paper's experiments (clients are funded so
/// payments can settle immediately, §VI-B).
#[derive(Debug, Clone)]
pub struct Ledger {
    initial_balance: Amount,
    /// Accounts for ids below [`DENSE_LIMIT`], indexed by id.
    dense: Vec<Account>,
    /// Accounts for ids at or above [`DENSE_LIMIT`].
    sparse: HashMap<ClientId, Account>,
    /// Payments settled across all xlogs (maintained incrementally).
    settled: usize,
    /// Accounts touched (balance or xlog) since their last checkpoint —
    /// exactly what the next [`Ledger::seal_delta`] exports. An id joins
    /// when its account's flag goes from clear to set, so the per-payment
    /// cost is a flag test and at most a push; the list is in touch order
    /// and sorted once in `seal_delta`, which keeps the delta canonical.
    dirty: Vec<ClientId>,
}

impl Ledger {
    /// Creates a ledger where every client starts with `initial_balance`.
    pub fn new(initial_balance: Amount) -> Self {
        Ledger {
            initial_balance,
            dense: Vec::new(),
            sparse: HashMap::new(),
            settled: 0,
            dirty: Vec::new(),
        }
    }

    #[inline]
    fn account(&self, client: ClientId) -> Option<&Account> {
        if client.0 < DENSE_LIMIT {
            self.dense.get(client.0 as usize)
        } else {
            self.sparse.get(&client)
        }
    }

    #[inline]
    fn account_mut(&mut self, client: ClientId) -> &mut Account {
        if client.0 < DENSE_LIMIT {
            let idx = client.0 as usize;
            if idx >= self.dense.len() {
                // Amortized doubling keeps a sweep over ascending ids
                // linear instead of quadratic in re-initialization work.
                let target = (idx + 1).max(self.dense.len() * 2).min(DENSE_LIMIT as usize);
                self.dense.resize_with(target, Account::default);
            }
            &mut self.dense[idx]
        } else {
            self.sparse.entry(client).or_default()
        }
    }

    /// The genesis balance of clients the ledger has not seen.
    pub fn initial_balance(&self) -> Amount {
        self.initial_balance
    }

    /// The spendable balance of `client` as currently settled.
    #[inline]
    pub fn balance(&self, client: ClientId) -> Amount {
        self.account(client).and_then(|a| a.balance).unwrap_or(self.initial_balance)
    }

    /// The next expected sequence number of `client`'s xlog (the paper's
    /// `sn[client] + 1` with 0-based numbering).
    #[inline]
    pub fn next_seq(&self, client: ClientId) -> SeqNo {
        self.account(client).and_then(|a| a.xlog.as_ref()).map_or(SeqNo::FIRST, XLog::next_seq)
    }

    /// The xlog of `client`, if any payment has been recorded.
    pub fn xlog(&self, client: ClientId) -> Option<&XLog> {
        self.account(client).and_then(|a| a.xlog.as_ref())
    }

    /// Iterates over all xlogs (state transfer / audit). Dense-id logs
    /// come first in id order, sparse-id logs follow in arbitrary order.
    pub fn xlogs(&self) -> impl Iterator<Item = &XLog> {
        self.dense
            .iter()
            .filter_map(|a| a.xlog.as_ref())
            .chain(self.sparse.values().filter_map(|a| a.xlog.as_ref()))
    }

    /// Number of payments settled across all xlogs.
    pub fn total_settled(&self) -> usize {
        self.settled
    }

    /// Credits `amount` to `client` (beneficiary side of settlement, or a
    /// materialized dependency certificate).
    pub fn credit(&mut self, client: ClientId, amount: Amount) {
        let initial = self.initial_balance;
        let account = self.account_mut(client);
        let balance = account.balance.unwrap_or(initial);
        let new =
            balance.checked_add(amount).expect("balance overflow: total money supply exceeds u64");
        account.balance = Some(new);
        if account.mark_dirty() {
            self.dirty.push(client);
        }
    }

    /// Attempts to settle `payment` atomically: both approval criteria of
    /// Listing 3 are checked, then the updates of Listing 4 are applied.
    ///
    /// `credit_beneficiary` controls whether the beneficiary's balance is
    /// updated in the same step (Astro I / intra-shard direct mode) or left
    /// to the CREDIT-certificate mechanism (Astro II, Listing 9).
    pub fn settle(&mut self, payment: &Payment, credit_beneficiary: bool) -> SettleOutcome {
        let initial = self.initial_balance;
        let spender = self.account_mut(payment.spender);
        let next = spender.xlog.as_ref().map_or(SeqNo::FIRST, XLog::next_seq);
        if payment.seq > next {
            return SettleOutcome::FutureSeq;
        }
        if payment.seq < next {
            return SettleOutcome::StaleSeq;
        }
        let balance = spender.balance.unwrap_or(initial);
        let Some(remaining) = balance.checked_sub(payment.amount) else {
            return SettleOutcome::InsufficientFunds;
        };
        // Apply (Listing 4).
        spender.balance = Some(remaining);
        spender
            .xlog
            .get_or_insert_with(|| XLog::new(payment.spender))
            .append(*payment)
            .expect("sequence checked above");
        if spender.mark_dirty() {
            self.dirty.push(payment.spender);
        }
        self.settled += 1;
        if credit_beneficiary {
            self.credit(payment.beneficiary, payment.amount);
        }
        SettleOutcome::Applied
    }

    /// Audit: the settled counter agrees with the logs. (Each xlog is
    /// internally consistent by construction: its entries cannot express
    /// a foreign spender or a sequence gap.)
    pub fn audit(&self) -> bool {
        self.xlogs().map(XLog::len).sum::<usize>() == self.settled
    }

    /// Exports the full settlement state in canonical (id-ascending)
    /// order; two replicas holding identical state export identical bytes.
    pub fn export(&self) -> LedgerState {
        let mut accounts: Vec<(ClientId, Amount)> = Vec::new();
        let mut xlogs: Vec<(ClientId, Vec<Payment>)> = Vec::new();
        let mut visit = |client: ClientId, account: &Account| {
            if let Some(balance) = account.balance {
                accounts.push((client, balance));
            }
            if let Some(xlog) = &account.xlog {
                xlogs.push((client, xlog.iter().collect()));
            }
        };
        for (i, account) in self.dense.iter().enumerate() {
            if !account.is_vacant() {
                visit(ClientId(i as u64), account);
            }
        }
        let mut sparse: Vec<(&ClientId, &Account)> = self.sparse.iter().collect();
        sparse.sort_unstable_by_key(|(c, _)| **c);
        for (client, account) in sparse {
            visit(*client, account);
        }
        LedgerState { initial_balance: self.initial_balance, accounts, xlogs }
    }

    /// Reconstructs a ledger from an exported state.
    ///
    /// # Errors
    ///
    /// Fails if any xlog's entries violate the owner/sequence invariants
    /// (a snapshot that passed its integrity check can still be rejected
    /// here if it was produced by corrupt software).
    pub fn import(state: &LedgerState) -> Result<Ledger, XLogError> {
        let mut ledger = Ledger::new(state.initial_balance);
        for (client, balance) in &state.accounts {
            let account = ledger.account_mut(*client);
            account.balance = Some(*balance);
            if account.mark_dirty() {
                ledger.dirty.push(*client);
            }
        }
        for (owner, entries) in &state.xlogs {
            let xlog = XLog::from_entries(*owner, entries.iter().copied())?;
            ledger.settled += xlog.len();
            let account = ledger.account_mut(*owner);
            account.xlog = Some(xlog);
            if account.mark_dirty() {
                ledger.dirty.push(*owner);
            }
        }
        Ok(ledger)
    }

    /// Accounts touched since their last checkpoint — what the next
    /// [`Ledger::seal_delta`] will export.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Xlog entries already sealed into checkpoint segments, across all
    /// accounts (observability for the incremental-snapshot metrics).
    pub fn sealed_entries(&self) -> u64 {
        let dense = self.dense.iter().map(|a| a.ckpt).sum::<u64>();
        dense + self.sparse.values().map(|a| a.ckpt).sum::<u64>()
    }

    /// Seals the dirty-account delta: one [`CheckpointRecord`] per account
    /// touched since its last checkpoint, in canonical (id-ascending)
    /// order, each carrying the account's absolute balance and the xlog
    /// entries above its watermark. The dirty list is sorted here, once
    /// per seal. A delta longer than [`CHECKPOINT_CHUNK_ENTRIES`] is split
    /// into consecutive records with the same balance, each based where
    /// the previous one ends.
    /// Watermarks advance and the dirty flags clear — the caller owns
    /// making the records durable (and calling [`Ledger::rebaseline`] if
    /// it fails to).
    pub fn seal_delta(&mut self) -> Vec<CheckpointRecord> {
        let initial = self.initial_balance;
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "an id listed twice as dirty");
        debug_assert!(
            dirty.iter().all(|c| self.account(*c).is_some_and(|a| a.dirty)),
            "a dirty-listed account without its flag"
        );
        let mut records = Vec::with_capacity(dirty.len());
        for &client in &dirty {
            let account = self.account_mut(client);
            account.dirty = false;
            let balance = account.balance.unwrap_or(initial);
            let mut base = account.ckpt;
            let mut delta =
                account.xlog.iter().flat_map(|x| x.iter_from(SeqNo(account.ckpt))).peekable();
            loop {
                let entries: Vec<Payment> = delta.by_ref().take(CHECKPOINT_CHUNK_ENTRIES).collect();
                let len = entries.len() as u64;
                records.push(CheckpointRecord { client, balance, base, entries });
                base += len;
                if delta.peek().is_none() {
                    break;
                }
            }
            account.ckpt = base;
        }
        // Keep the list's allocation for the next interval's touches.
        dirty.clear();
        self.dirty = dirty;
        records
    }

    /// Replays one recovered checkpoint record: the balance is absolute
    /// (last-writer-wins across segments) and the entries must extend the
    /// account's xlog exactly at `base` — except a `base == 0` record,
    /// which *replaces* the account wholesale. Re-baselined seals (after
    /// an install failure or a catch-up import) export full history from
    /// `base == 0`, so a later segment can lawfully rewrite what earlier
    /// segments built; xlogs only ever grow, so the rewrite is always a
    /// superset of what it replaces. The later chunks of a split delta
    /// (see [`Ledger::seal_delta`]) continue at `base == have`.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Discontinuity`] if a non-zero `base` does not meet
    /// the xlog (a segment is missing or reordered), [`RecoverError::Log`]
    /// if the entries violate the owner/sequence invariants.
    pub fn apply_checkpoint(&mut self, record: &CheckpointRecord) -> Result<(), RecoverError> {
        let have = self.account_mut(record.client).xlog.as_ref().map_or(0, XLog::len) as u64;
        if record.base == 0 && have > 0 {
            let xlog = XLog::from_entries(record.client, record.entries.iter().copied())?;
            let new_len = xlog.len();
            let account = self.account_mut(record.client);
            account.xlog = Some(xlog);
            account.balance = Some(record.balance);
            account.ckpt = new_len as u64;
            self.settled = self.settled - have as usize + new_len;
            return Ok(());
        }
        let account = self.account_mut(record.client);
        if record.base != have {
            return Err(RecoverError::Discontinuity {
                client: record.client,
                expected: have,
                got: record.base,
            });
        }
        if !record.entries.is_empty() {
            let xlog = account.xlog.get_or_insert_with(|| XLog::new(record.client));
            for entry in &record.entries {
                xlog.append(*entry)?;
            }
        }
        account.balance = Some(record.balance);
        account.ckpt = record.base + record.entries.len() as u64;
        self.settled += record.entries.len();
        Ok(())
    }

    /// Reconstructs a ledger from recovered checkpoint segments (each a
    /// list of encoded [`CheckpointRecord`]s, in seal order). The result
    /// is fully sealed: nothing is dirty until new effects arrive.
    ///
    /// # Errors
    ///
    /// Propagates [`Ledger::apply_checkpoint`] failures, or
    /// [`RecoverError::Decode`] on undecodable records.
    pub fn from_checkpoints(
        initial_balance: Amount,
        segments: &[Vec<Vec<u8>>],
    ) -> Result<Ledger, RecoverError> {
        use astro_types::wire::decode_exact;
        let mut ledger = Ledger::new(initial_balance);
        for segment in segments {
            for bytes in segment {
                let record =
                    decode_exact::<CheckpointRecord>(bytes).map_err(|_| RecoverError::Decode)?;
                ledger.apply_checkpoint(&record)?;
            }
        }
        Ok(ledger)
    }

    /// Invalidates all checkpoint watermarks: every non-vacant account
    /// becomes dirty with nothing sealed, so the next [`Ledger::seal_delta`]
    /// exports the full state from segment zero. Called when a snapshot
    /// install fails (the sealed segment may not have survived) or after
    /// a catch-up install replaced the ledger wholesale.
    pub fn rebaseline(&mut self) {
        for (i, account) in self.dense.iter_mut().enumerate() {
            if !account.is_vacant() {
                account.ckpt = 0;
                if account.mark_dirty() {
                    self.dirty.push(ClientId(i as u64));
                }
            }
        }
        for (client, account) in &mut self.sparse {
            if !account.is_vacant() {
                account.ckpt = 0;
                if account.mark_dirty() {
                    self.dirty.push(*client);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_types::wire::Wire;

    fn ledger() -> Ledger {
        Ledger::new(Amount(100))
    }

    #[test]
    fn settle_applies_in_order() {
        let mut l = ledger();
        let p = Payment::new(1u64, 0u64, 2u64, 30u64);
        assert_eq!(l.settle(&p, true), SettleOutcome::Applied);
        assert_eq!(l.balance(ClientId(1)), Amount(70));
        assert_eq!(l.balance(ClientId(2)), Amount(130));
        assert_eq!(l.next_seq(ClientId(1)), SeqNo(1));
        assert_eq!(l.total_settled(), 1);
    }

    #[test]
    fn settle_without_beneficiary_credit() {
        let mut l = ledger();
        let p = Payment::new(1u64, 0u64, 2u64, 30u64);
        assert_eq!(l.settle(&p, false), SettleOutcome::Applied);
        assert_eq!(l.balance(ClientId(2)), Amount(100), "beneficiary not credited");
    }

    #[test]
    fn future_seq_not_applied() {
        let mut l = ledger();
        let p = Payment::new(1u64, 1u64, 2u64, 30u64);
        assert_eq!(l.settle(&p, true), SettleOutcome::FutureSeq);
        assert_eq!(l.balance(ClientId(1)), Amount(100));
    }

    #[test]
    fn stale_seq_dropped() {
        let mut l = ledger();
        assert_eq!(l.settle(&Payment::new(1u64, 0u64, 2u64, 10u64), true), SettleOutcome::Applied);
        // Conflicting payment with the same (settled) sequence number.
        assert_eq!(l.settle(&Payment::new(1u64, 0u64, 3u64, 10u64), true), SettleOutcome::StaleSeq);
        assert_eq!(l.balance(ClientId(3)), Amount(100));
    }

    #[test]
    fn insufficient_funds_blocks() {
        let mut l = ledger();
        let p = Payment::new(1u64, 0u64, 2u64, 101u64);
        assert_eq!(l.settle(&p, true), SettleOutcome::InsufficientFunds);
        // A credit unblocks it.
        l.credit(ClientId(1), Amount(1));
        assert_eq!(l.settle(&p, true), SettleOutcome::Applied);
        assert_eq!(l.balance(ClientId(1)), Amount(0));
    }

    #[test]
    fn self_payment_conserves_money() {
        let mut l = ledger();
        let p = Payment::new(1u64, 0u64, 1u64, 40u64);
        assert_eq!(l.settle(&p, true), SettleOutcome::Applied);
        assert_eq!(l.balance(ClientId(1)), Amount(100));
    }

    #[test]
    fn money_conservation_over_random_settles() {
        let mut l = Ledger::new(Amount(50));
        let clients = 5u64;
        let mut seqs = vec![0u64; clients as usize];
        let mut applied = 0;
        for i in 0..100u64 {
            let s = i % clients;
            let b = (i * 7 + 3) % clients;
            let p = Payment::new(s, seqs[s as usize], b, (i % 13) + 1);
            if l.settle(&p, true) == SettleOutcome::Applied {
                seqs[s as usize] += 1;
                applied += 1;
            }
        }
        assert!(applied > 0);
        let total: u64 = (0..clients).map(|c| l.balance(ClientId(c)).0).sum();
        assert_eq!(total, clients * 50, "money must be conserved");
    }

    #[test]
    fn sparse_ids_fall_back_to_the_map() {
        let mut l = ledger();
        let far = ClientId(DENSE_LIMIT + 17);
        assert_eq!(l.balance(far), Amount(100));
        let p = Payment::new(far.0, 0u64, 2u64, 30u64);
        assert_eq!(l.settle(&p, true), SettleOutcome::Applied);
        assert_eq!(l.balance(far), Amount(70));
        assert_eq!(l.next_seq(far), SeqNo(1));
        assert!(l.dense.len() <= DENSE_LIMIT as usize, "sparse id must not grow dense table");
        assert!(l.audit());
    }

    #[test]
    fn dense_table_grows_on_demand_only() {
        let mut l = ledger();
        assert_eq!(l.settle(&Payment::new(3u64, 0u64, 1u64, 1u64), true), SettleOutcome::Applied);
        assert!(l.dense.len() >= 4);
        assert!(l.dense.len() < 1024, "table tracks the touched range, not DENSE_LIMIT");
    }

    #[test]
    fn export_import_round_trips() {
        let mut l = Ledger::new(Amount(500));
        for seq in 0..5u64 {
            assert_eq!(
                l.settle(&Payment::new(1u64, seq, 2u64, 10u64), true),
                SettleOutcome::Applied
            );
        }
        l.settle(&Payment::new(DENSE_LIMIT + 3, 0u64, 1u64, 7u64), true);
        l.credit(ClientId(42), Amount(9));
        let state = l.export();
        let back = Ledger::import(&state).unwrap();
        assert_eq!(back.export(), state, "round trip is lossless");
        assert_eq!(back.total_settled(), l.total_settled());
        assert_eq!(back.balance(ClientId(1)), l.balance(ClientId(1)));
        assert_eq!(back.balance(ClientId(2)), l.balance(ClientId(2)));
        assert_eq!(back.balance(ClientId(42)), l.balance(ClientId(42)));
        assert_eq!(back.next_seq(ClientId(1)), SeqNo(5));
        assert!(back.audit());
    }

    #[test]
    fn export_is_canonical_across_construction_orders() {
        let build = |order: &[u64]| {
            let mut l = Ledger::new(Amount(100));
            for &c in order {
                l.credit(ClientId(c), Amount(c));
            }
            l
        };
        let a = build(&[5, DENSE_LIMIT + 9, 1, DENSE_LIMIT + 2, 3]);
        let b = build(&[DENSE_LIMIT + 2, 3, 5, 1, DENSE_LIMIT + 9]);
        assert_eq!(a.export().to_wire_bytes(), b.export().to_wire_bytes());
    }

    #[test]
    fn seal_delta_exports_only_dirty_accounts() {
        let mut l = ledger();
        for seq in 0..3u64 {
            assert_eq!(
                l.settle(&Payment::new(1u64, seq, 2u64, 10u64), true),
                SettleOutcome::Applied
            );
        }
        assert_eq!(l.dirty_len(), 2, "spender and beneficiary");
        let first = l.seal_delta();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].client, ClientId(1));
        assert_eq!(first[0].base, 0);
        assert_eq!(first[0].entries.len(), 3);
        assert_eq!(first[0].balance, Amount(70));
        assert_eq!(first[1].client, ClientId(2));
        assert!(first[1].entries.is_empty(), "beneficiary delta is balance-only");
        assert_eq!(l.dirty_len(), 0);
        assert_eq!(l.sealed_entries(), 3);
        // Nothing dirty: the next delta is empty.
        assert!(l.seal_delta().is_empty());
        // One more settle dirties exactly the touched accounts, and the
        // xlog delta starts at the watermark.
        assert_eq!(l.settle(&Payment::new(1u64, 3u64, 3u64, 5u64), true), SettleOutcome::Applied);
        let second = l.seal_delta();
        assert_eq!(second.len(), 2);
        assert_eq!(second[0].client, ClientId(1));
        assert_eq!(second[0].base, 3, "delta starts above the sealed prefix");
        assert_eq!(second[0].entries.len(), 1);
        assert_eq!(second[1].client, ClientId(3));
    }

    #[test]
    fn checkpoints_rebuild_the_exact_ledger() {
        let mut l = ledger();
        let mut segments: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut seqs = [0u64; 4];
        for round in 0..3 {
            for i in 0..5u64 {
                let s = ((i + round) % 4) as usize;
                let p = Payment::new(s as u64, seqs[s], (i + 1) % 4, 2u64);
                if l.settle(&p, true) == SettleOutcome::Applied {
                    seqs[s] += 1;
                }
            }
            segments.push(l.seal_delta().iter().map(Wire::to_wire_bytes).collect());
        }
        let recovered = Ledger::from_checkpoints(Amount(100), &segments).unwrap();
        assert_eq!(recovered.export(), l.export(), "segment replay rebuilds the state");
        assert_eq!(recovered.total_settled(), l.total_settled());
        assert_eq!(recovered.dirty_len(), 0, "recovered-sealed state is clean");
        assert!(recovered.audit());
    }

    #[test]
    fn apply_checkpoint_rejects_discontinuity() {
        let mut l = ledger();
        assert_eq!(l.settle(&Payment::new(1u64, 0u64, 2u64, 1u64), true), SettleOutcome::Applied);
        let records = l.seal_delta();
        let mut fresh = Ledger::new(Amount(100));
        // Skipping the first segment breaks the chain.
        let gap = CheckpointRecord {
            client: ClientId(1),
            balance: Amount(50),
            base: 7,
            entries: vec![Payment::new(1u64, 7u64, 2u64, 1u64)],
        };
        assert!(matches!(
            fresh.apply_checkpoint(&gap),
            Err(RecoverError::Discontinuity { expected: 0, got: 7, .. })
        ));
        // In order it applies.
        for r in &records {
            fresh.apply_checkpoint(r).unwrap();
        }
        assert_eq!(fresh.export(), l.export());
    }

    #[test]
    fn rebaseline_marks_everything_dirty_again() {
        let mut l = ledger();
        assert_eq!(l.settle(&Payment::new(1u64, 0u64, 2u64, 10u64), true), SettleOutcome::Applied);
        l.credit(ClientId(DENSE_LIMIT + 5), Amount(1));
        let sealed = l.seal_delta();
        assert_eq!(sealed.len(), 3);
        assert_eq!(l.dirty_len(), 0);
        l.rebaseline();
        assert_eq!(l.dirty_len(), 3, "all non-vacant accounts dirty again");
        let resealed = l.seal_delta();
        assert_eq!(resealed.len(), 3);
        assert_eq!(resealed[0].base, 0, "watermarks reset: full state from segment zero");
        assert_eq!(resealed[0].entries.len(), 1);
        // Rebuilding from the re-sealed full delta matches.
        let bytes: Vec<Vec<u8>> = resealed.iter().map(Wire::to_wire_bytes).collect();
        let recovered = Ledger::from_checkpoints(Amount(100), &[bytes]).unwrap();
        assert_eq!(recovered.export(), l.export());
    }

    #[test]
    fn base_zero_checkpoint_replaces_a_shorter_xlog() {
        // A rebaselined seal (post-catch-up or after a failed install)
        // re-exports every account from base 0. Applied over a directory
        // whose earlier segment already materialized a shorter prefix,
        // it must *replace* the account — xlogs only grow, so the
        // rewrite is a superset of what it overwrites.
        let mut l = ledger();
        assert_eq!(l.settle(&Payment::new(1u64, 0u64, 2u64, 10u64), true), SettleOutcome::Applied);
        let first = l.seal_delta();
        assert_eq!(l.settle(&Payment::new(1u64, 1u64, 2u64, 5u64), true), SettleOutcome::Applied);
        l.rebaseline();
        let full = l.seal_delta();
        assert_eq!(full[0].base, 0, "rebaselined seal restarts at zero");
        assert_eq!(full[0].entries.len(), 2);

        let mut recovered = Ledger::new(Amount(100));
        for r in first.iter().chain(&full) {
            recovered.apply_checkpoint(r).unwrap();
        }
        assert_eq!(recovered.export(), l.export(), "replacement supersedes the old prefix");
        assert_eq!(recovered.total_settled(), l.total_settled());
        assert!(recovered.audit());

        // A base-0 record over a *fresh* account still takes the append
        // path — both entry points agree.
        let mut fresh = Ledger::new(Amount(100));
        for r in &full {
            fresh.apply_checkpoint(r).unwrap();
        }
        assert_eq!(fresh.export(), l.export());
    }

    #[test]
    fn rebaselined_long_history_seals_in_bounded_chunks() {
        let chunk = CHECKPOINT_CHUNK_ENTRIES as u64;
        let mut l = Ledger::new(Amount(1 << 40));
        for seq in 0..chunk + 100 {
            assert_eq!(
                l.settle(&Payment::new(1u64, seq, 2u64, 1u64), true),
                SettleOutcome::Applied
            );
        }
        let first = l.seal_delta();
        assert_eq!(first.iter().map(|r| r.base).collect::<Vec<_>>(), [0, chunk, 0]);
        let first: Vec<Vec<u8>> = first.iter().map(Wire::to_wire_bytes).collect();
        // Client 1 grows past two chunks; client 3 stays small.
        for seq in chunk + 100..2 * chunk + 17 {
            assert_eq!(
                l.settle(&Payment::new(1u64, seq, 2u64, 1u64), true),
                SettleOutcome::Applied
            );
        }
        assert_eq!(l.settle(&Payment::new(3u64, 0u64, 1u64, 9u64), true), SettleOutcome::Applied);
        l.rebaseline();
        let full = l.seal_delta();
        let long: Vec<&CheckpointRecord> =
            full.iter().filter(|r| r.client == ClientId(1)).collect();
        assert_eq!(long.iter().map(|r| r.base).collect::<Vec<_>>(), [0, chunk, 2 * chunk]);
        assert_eq!(long.iter().map(|r| r.entries.len()).sum::<usize>(), 2 * chunk as usize + 17);
        assert!(long.iter().all(|r| r.balance == l.balance(ClientId(1))));
        assert!(full.iter().all(|r| r.entries.len() <= CHECKPOINT_CHUNK_ENTRIES));
        assert_eq!(full.len(), 3 + 2, "clients 2 and 3 fit one record each");
        assert_eq!(l.sealed_entries(), 2 * chunk + 18);

        // The base-0 chunk replaces the longer history the first segment
        // built, and the later chunks continue it.
        let full: Vec<Vec<u8>> = full.iter().map(Wire::to_wire_bytes).collect();
        let recovered = Ledger::from_checkpoints(Amount(1 << 40), &[first, full]).unwrap();
        assert_eq!(recovered.export(), l.export());
        assert_eq!(recovered.total_settled(), l.total_settled());
        assert!(recovered.audit());
    }

    #[test]
    fn import_rejects_invalid_xlog() {
        let state = LedgerState {
            initial_balance: Amount(10),
            accounts: vec![],
            xlogs: vec![(ClientId(1), vec![Payment::new(2u64, 0u64, 3u64, 1u64)])],
        };
        assert!(Ledger::import(&state).is_err(), "wrong-owner entries must be rejected");
    }
}
