//! The seeded payment stream. The program under test only ever sees the
//! payments; everything about how they are chosen lives here.
//!
//! Slot `k` of the stream is spent by client `4·perm[(k/4) mod 256] +
//! (k mod 4)`, `perm` a seeded permutation of `0..256`. A client's
//! representative is `client mod 4`, so any 256 consecutive slots hand
//! each of the four representatives exactly one full batch of 64, and any
//! 1024 consecutive slots use every client once.

use crate::spec::{CLIENTS, REPLICAS};

/// One payment of amount 1, before it becomes the program's `Payment`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pay {
    pub spender: u64,
    pub seq: u64,
    pub beneficiary: u64,
}

/// SplitMix64: small, seedable, and good enough to pick beneficiaries.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (rejection sampling, no modulo bias).
    fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next();
            if v < zone {
                return v % n;
            }
        }
    }
}

pub struct Stream {
    perm: Vec<u64>,
    rng: SplitMix64,
    slot: u64,
    next_seq: Vec<u64>,
    /// Payments each client has sent and received — the reference the
    /// final balances are checked against.
    pub sent: Vec<u64>,
    pub received: Vec<u64>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let mut rng = SplitMix64(seed);
        let groups = CLIENTS / REPLICAS as u64;
        let mut perm: Vec<u64> = (0..groups).collect();
        // Fisher–Yates.
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let clients = CLIENTS as usize;
        Stream {
            perm,
            rng,
            slot: 0,
            next_seq: vec![0; clients],
            sent: vec![0; clients],
            received: vec![0; clients],
        }
    }

    fn spender_of(&self, slot: u64) -> u64 {
        let r = REPLICAS as u64;
        r * self.perm[((slot / r) % self.perm.len() as u64) as usize] + slot % r
    }

    /// The next payment. With `skip_rep` set, slots whose spender that
    /// replica represents are passed over (its clients have nobody to
    /// submit to while it is down); beneficiaries stay unrestricted.
    pub fn next(&mut self, skip_rep: Option<usize>) -> Pay {
        let r = REPLICAS as u64;
        if skip_rep.is_some_and(|rep| self.slot % r == rep as u64) {
            self.slot += 1;
        }
        let spender = self.spender_of(self.slot);
        self.slot += 1;
        let pick = self.rng.below(CLIENTS - 1);
        let beneficiary = if pick >= spender { pick + 1 } else { pick };
        let seq = self.next_seq[spender as usize];
        self.next_seq[spender as usize] += 1;
        self.sent[spender as usize] += 1;
        self.received[beneficiary as usize] += 1;
        Pay { spender, seq, beneficiary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BATCH, CHUNK, CHUNK_ALIVE, VICTIM};

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed| {
            let mut s = Stream::new(seed);
            (0..5000).map(|_| s.next(None)).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn every_256_give_each_representative_one_full_batch() {
        let mut s = Stream::new(3);
        // Start off a chunk boundary, as the sat phase does after a paced
        // phase whose length is not a multiple of 256.
        for _ in 0..37 {
            s.next(None);
        }
        for _ in 0..20 {
            let mut per_rep = [0usize; REPLICAS];
            for _ in 0..CHUNK {
                let p = s.next(None);
                per_rep[(p.spender % REPLICAS as u64) as usize] += 1;
                assert_ne!(p.spender, p.beneficiary);
                assert!(p.spender < CLIENTS && p.beneficiary < CLIENTS);
            }
            assert_eq!(per_rep, [BATCH; REPLICAS]);
        }
    }

    #[test]
    fn every_1024_use_every_client_once_and_seqs_count_up() {
        let mut s = Stream::new(11);
        for round in 0..3 {
            let mut seen = vec![false; CLIENTS as usize];
            for _ in 0..CLIENTS {
                let p = s.next(None);
                assert!(!seen[p.spender as usize]);
                seen[p.spender as usize] = true;
                assert_eq!(p.seq, round);
            }
        }
        assert_eq!(s.sent.iter().sum::<u64>(), 3 * CLIENTS);
        assert_eq!(s.sent.iter().sum::<u64>(), s.received.iter().sum::<u64>());
    }

    #[test]
    fn one_down_skips_only_the_victims_spenders() {
        let mut s = Stream::new(5);
        for _ in 0..CHUNK {
            s.next(None);
        }
        let mut per_rep = [0usize; REPLICAS];
        let mut victim_credited = false;
        let mut expect_seq = s.next_seq.clone();
        for _ in 0..10 * CHUNK_ALIVE {
            let p = s.next(Some(VICTIM));
            per_rep[(p.spender % REPLICAS as u64) as usize] += 1;
            victim_credited |= p.beneficiary % REPLICAS as u64 == VICTIM as u64;
            assert_eq!(p.seq, expect_seq[p.spender as usize]);
            expect_seq[p.spender as usize] += 1;
        }
        assert_eq!(per_rep, [10 * BATCH, 10 * BATCH, 10 * BATCH, 0]);
        assert!(victim_credited, "beneficiaries are unrestricted");
    }
}
