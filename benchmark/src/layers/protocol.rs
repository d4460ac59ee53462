//! `core`, `brb` and `types`: the replica state machines looped back on
//! one thread, the broadcast primitives alone, and the wire codec on the
//! messages the loopback produced.
//!
//! The loopback is four replica state machines and a FIFO of messages
//! between them — submit / handle / flush, no sockets, no threads — fed
//! whole chunks of the seeded stream, so every batch is cut by size as in
//! the sat phase. Only the calls into the state machines are timed; the
//! routing around them is not.

use super::{Loopbacks, Metrics};
use crate::spec::{BATCH, CHUNK, INITIAL_BALANCE, REPLICAS};
use crate::stream::{Pay, Stream};
use crate::trace::Spans;
use astro_brb::bracha::BrachaBrb;
use astro_brb::signed::SignedBrb;
use astro_brb::testkit::Cluster;
use astro_brb::{BrbConfig, DeliveryOrder, Dest, InstanceId};
use astro_core::astro1::{Astro1Config, Astro1Msg, AstroOneReplica};
use astro_core::astro2::{Astro2Config, Astro2Msg, AstroTwoReplica, CreditMode, DepPolicy};
use astro_core::batch::Batch;
use astro_core::journal::WalRecord;
use astro_core::ledger::Ledger;
use astro_core::ReplicaStep;
use astro_types::wire::{decode_exact, Wire};
use astro_types::{
    Amount, Authenticator, Group, Keychain, MacAuthenticator, Payment, ReplicaId,
    SchnorrAuthenticator, ShardLayout,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const A1_CHUNKS: u64 = 400;
const A2_CHUNKS: u64 = 24;
const A2_CERTS_CHUNKS: u64 = 12;
/// Chunks whose messages are kept for the wire-codec driver.
const CAPTURE_CHUNKS: u64 = 12;
const BRB_INSTANCES: u64 = 2_000;
const LEDGER_SETTLES: u64 = 200_000;
const JOURNAL_RECORDS: u64 = 400_000;

fn payment(p: Pay) -> Payment {
    Payment::new(p.spender, p.seq, p.beneficiary, 1u64)
}

/// What the loopback needs of a replica state machine.
trait Machine {
    type Msg: Wire + Clone;
    fn submit(&mut self, p: Payment) -> ReplicaStep<Self::Msg>;
    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg>;
    fn flush(&mut self) -> ReplicaStep<Self::Msg>;
}

impl Machine for AstroOneReplica {
    type Msg = Astro1Msg;
    fn submit(&mut self, p: Payment) -> ReplicaStep<Astro1Msg> {
        AstroOneReplica::submit(self, p).expect("the stream submits at the representative")
    }
    fn handle(&mut self, from: ReplicaId, msg: Astro1Msg) -> ReplicaStep<Astro1Msg> {
        AstroOneReplica::handle(self, from, msg)
    }
    fn flush(&mut self) -> ReplicaStep<Astro1Msg> {
        AstroOneReplica::flush(self)
    }
}

impl<A: Authenticator> Machine for AstroTwoReplica<A> {
    type Msg = Astro2Msg<A::Sig>;
    fn submit(&mut self, p: Payment) -> ReplicaStep<Self::Msg> {
        AstroTwoReplica::submit(self, p).expect("the stream submits at the representative")
    }
    fn handle(&mut self, from: ReplicaId, msg: Self::Msg) -> ReplicaStep<Self::Msg> {
        AstroTwoReplica::handle(self, from, msg)
    }
    fn flush(&mut self) -> ReplicaStep<Self::Msg> {
        AstroTwoReplica::flush(self)
    }
}

/// Signature work done through a [`Timed`] authenticator.
#[derive(Default)]
struct Tally {
    signs: AtomicU64,
    sigs_verified: AtomicU64,
    nanos: AtomicU64,
}

/// An authenticator that counts and times what passes through it, so the
/// loopback can say how much of a step was signature work. Statistics
/// only: `Relaxed` publishes nothing else.
#[derive(Clone)]
struct Timed<A> {
    inner: A,
    tally: Arc<Tally>,
}

impl<A> Timed<A> {
    fn timed<T>(&self, f: impl FnOnce(&A) -> T) -> T {
        let t = Instant::now();
        let out = f(&self.inner);
        self.tally.nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<A: Authenticator> Authenticator for Timed<A> {
    type Sig = A::Sig;
    fn me(&self) -> ReplicaId {
        self.inner.me()
    }
    fn sign(&self, message: &[u8]) -> A::Sig {
        self.tally.signs.fetch_add(1, Ordering::Relaxed);
        self.timed(|a| a.sign(message))
    }
    fn verify(&self, peer: ReplicaId, message: &[u8], sig: &A::Sig) -> bool {
        self.tally.sigs_verified.fetch_add(1, Ordering::Relaxed);
        self.timed(|a| a.verify(peer, message, sig))
    }
    fn verify_all(&self, message: &[u8], sigs: &[(ReplicaId, &A::Sig)]) -> bool {
        self.tally.sigs_verified.fetch_add(sigs.len() as u64, Ordering::Relaxed);
        self.timed(|a| a.verify_all(message, sigs))
    }
    fn verify_each(&self, message: &[u8], sigs: &[(ReplicaId, &A::Sig)]) -> Vec<bool> {
        self.tally.sigs_verified.fetch_add(sigs.len() as u64, Ordering::Relaxed);
        self.timed(|a| a.verify_each(message, sigs))
    }
}

/// Totals of one loopback run; the budget turns them into per-frame and
/// per-payment costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopbackStats {
    pub payments: u64,
    /// Time inside submit / handle / flush, signature work included.
    pub step_ns: u64,
    /// Messages that crossed a link (self-deliveries excluded) and their
    /// encoded bytes.
    pub frames: u64,
    pub link_bytes: u64,
    pub signs: u64,
    pub sigs_verified: u64,
    /// Time inside the authenticator, part of `step_ns`.
    pub crypto_ns: u64,
}

impl LoopbackStats {
    pub fn step_ns_per_payment(&self) -> f64 {
        self.step_ns as f64 / self.payments as f64
    }
    pub fn frames_per_payment(&self) -> f64 {
        self.frames as f64 / self.payments as f64
    }
}

/// One message the loopback routed and how many replicas it went to.
struct Routed<M> {
    msg: M,
    recipients: usize,
}

struct Loopback<M: Machine> {
    nodes: Vec<M>,
    queue: VecDeque<(usize, usize, M::Msg)>,
    settled: Vec<u64>,
    stats: LoopbackStats,
    captured: Vec<Routed<M::Msg>>,
    capturing: bool,
}

impl<M: Machine> Loopback<M> {
    fn timed(&mut self, at: usize, f: impl FnOnce(&mut M) -> ReplicaStep<M::Msg>) {
        let t = Instant::now();
        let step = f(&mut self.nodes[at]);
        self.stats.step_ns += t.elapsed().as_nanos() as u64;
        self.settled[at] += step.settled.len() as u64;
        for env in step.outbound {
            let to: Vec<usize> = match env.to {
                Dest::All => (0..self.nodes.len()).collect(),
                Dest::One(r) => vec![r.0 as usize],
            };
            let links = to.iter().filter(|&&r| r != at).count() as u64;
            self.stats.frames += links;
            self.stats.link_bytes += links * env.msg.encoded_len() as u64;
            for &r in &to {
                self.queue.push_back((at, r, env.msg.clone()));
            }
            if self.capturing {
                self.captured.push(Routed { msg: env.msg, recipients: to.len() });
            }
        }
    }

    fn drain(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.timed(to, |n| n.handle(ReplicaId(from as u32), msg));
        }
    }

    fn run(nodes: Vec<M>, stream: &mut Stream, chunks: u64) -> Loopback<M> {
        let n = nodes.len();
        let mut lb = Loopback {
            nodes,
            queue: VecDeque::new(),
            settled: vec![0; n],
            stats: LoopbackStats::default(),
            captured: Vec::new(),
            capturing: true,
        };
        for chunk in 0..chunks {
            lb.capturing = chunk < CAPTURE_CHUNKS;
            for _ in 0..CHUNK {
                let p = stream.next(None);
                lb.timed((p.spender % n as u64) as usize, |node| node.submit(payment(p)));
            }
            lb.drain();
            // The flush tick: partial batches (none here), CREDIT acks.
            for at in 0..n {
                lb.timed(at, Machine::flush);
            }
            lb.drain();
        }
        lb.stats.payments = chunks * CHUNK;
        assert!(
            lb.settled.iter().all(|&s| s == lb.stats.payments),
            "loopback settled {:?} of {} payments",
            lb.settled,
            lb.stats.payments
        );
        lb
    }
}

/// Encodes every captured message once and decodes it once per recipient,
/// as the runtime does. Returns `(encode_ns, decode_ns)`.
fn wire_costs<T: Wire>(prefix: &str, captured: &[Routed<T>], spans: &mut Spans) -> (u64, u64) {
    let (encoded, encode_ns) = spans.time(&format!("wire.{prefix}.encode"), |_| {
        captured.iter().map(|r| black_box(&r.msg).to_wire_bytes()).collect::<Vec<_>>()
    });
    let (ok, decode_ns) = spans.time(&format!("wire.{prefix}.decode"), |_| {
        let mut ok = true;
        for (bytes, routed) in encoded.iter().zip(captured) {
            for _ in 0..routed.recipients {
                ok &= black_box(decode_exact::<T>(black_box(bytes))).is_ok();
            }
        }
        ok
    });
    assert!(ok, "every encoded message decodes");
    (encode_ns, decode_ns)
}

fn layout() -> ShardLayout {
    ShardLayout::single(REPLICAS).expect("4 replicas form a shard")
}

fn astro2_nodes(
    dep_policy: DepPolicy,
    tally: &Arc<Tally>,
) -> Vec<AstroTwoReplica<Timed<SchnorrAuthenticator>>> {
    let cfg = Astro2Config {
        batch_size: BATCH,
        initial_balance: Amount(INITIAL_BALANCE),
        credit_mode: CreditMode::Certificates,
        dep_policy,
    };
    Keychain::deterministic_system(b"payment_path-astro2", REPLICAS)
        .into_iter()
        .map(|kc| {
            let auth = Timed { inner: SchnorrAuthenticator::new(kc), tally: Arc::clone(tally) };
            AstroTwoReplica::new(auth, layout(), cfg.clone())
        })
        .collect()
}

fn astro2_loopback(
    name: &str,
    dep_policy: DepPolicy,
    chunks: u64,
    seed: u64,
    spans: &mut Spans,
) -> Loopback<AstroTwoReplica<Timed<SchnorrAuthenticator>>> {
    let tally = Arc::new(Tally::default());
    let nodes = astro2_nodes(dep_policy, &tally);
    let mut lb = spans.span(name, |_| Loopback::run(nodes, &mut Stream::new(seed), chunks));
    lb.stats.signs = tally.signs.load(Ordering::Relaxed);
    lb.stats.sigs_verified = tally.sigs_verified.load(Ordering::Relaxed);
    lb.stats.crypto_ns = tally.nanos.load(Ordering::Relaxed);
    lb
}

/// One 64-payment batch of the stream, as a broadcast payload.
fn batch_of(stream: &mut Stream) -> Batch {
    Batch { payments: (0..BATCH).map(|_| payment(stream.next(None))).collect() }
}

/// Broadcasts [`BRB_INSTANCES`] batches from replica 0 through `cluster`;
/// `(ns per delivery, messages per delivery)`.
fn brb_costs<N>(
    name: &str,
    mut cluster: Cluster<N>,
    seed: u64,
    spans: &mut Spans,
    mut broadcast: impl FnMut(&mut N, InstanceId, Batch) -> astro_brb::Step<Batch, N::Msg>,
) -> (f64, f64)
where
    N: astro_brb::testkit::TestNode<Payload = Batch>,
{
    let mut stream = Stream::new(seed);
    let batches: Vec<Batch> = (0..BRB_INSTANCES).map(|_| batch_of(&mut stream)).collect();
    let (_, ns) = spans.time(name, |_| {
        for (tag, batch) in batches.into_iter().enumerate() {
            let id = InstanceId { source: 0, tag: tag as u64 };
            let step = broadcast(cluster.node_mut(0), id, batch);
            cluster.submit(ReplicaId(0), step);
            cluster.run_to_quiescence();
        }
    });
    let deliveries: u64 = (0..REPLICAS).map(|i| cluster.deliveries(i).len() as u64).sum();
    assert_eq!(deliveries, BRB_INSTANCES * REPLICAS as u64, "every replica delivers every batch");
    (ns as f64 / deliveries as f64, cluster.messages_processed() as f64 / deliveries as f64)
}

pub fn run(seed: u64, spans: &mut Spans, m: &mut Metrics) -> Loopbacks {
    // core: Astro I.
    let a1_nodes: Vec<AstroOneReplica> = (0..REPLICAS)
        .map(|i| {
            AstroOneReplica::new(
                ReplicaId(i as u32),
                layout(),
                Astro1Config { batch_size: BATCH, initial_balance: Amount(INITIAL_BALANCE) },
            )
        })
        .collect();
    let a1 = spans
        .span("astro1.loopback", |_| Loopback::run(a1_nodes, &mut Stream::new(seed), A1_CHUNKS));
    m.insert("astro1.step_ns_per_payment", a1.stats.step_ns_per_payment());

    // core: Astro II, funded (no certificate ever attached) and with the
    // literal Listing 7 (every payment carries what its spender holds).
    let a2 = astro2_loopback("astro2.loopback", DepPolicy::WhenNeeded, A2_CHUNKS, seed, spans);
    m.insert("astro2.step_us_per_payment", a2.stats.step_ns_per_payment() / 1e3);
    let a2_certs =
        astro2_loopback("astro2.certs_loopback", DepPolicy::Always, A2_CERTS_CHUNKS, seed, spans);
    m.insert("astro2.certs_step_us_per_payment", a2_certs.stats.step_ns_per_payment() / 1e3);

    // types: the wire codec on the messages of the first chunks.
    let captured_payments = (CAPTURE_CHUNKS * CHUNK) as f64;
    let (enc, dec) = wire_costs("a1", &a1.captured, spans);
    m.insert("wire.a1_encode_ns_per_payment", enc as f64 / captured_payments);
    m.insert("wire.a1_decode_ns_per_payment", dec as f64 / captured_payments);
    let (enc, dec) = wire_costs("a2", &a2.captured, spans);
    m.insert("wire.a2_encode_ns_per_payment", enc as f64 / captured_payments);
    m.insert("wire.a2_decode_ns_per_payment", dec as f64 / captured_payments);
    let (enc, dec) = wire_costs("a2_certs", &a2_certs.captured, spans);
    m.insert("wire.a2_certs_encode_ns_per_payment", enc as f64 / captured_payments);
    m.insert("wire.a2_certs_decode_ns_per_payment", dec as f64 / captured_payments);
    let per_payment = |s: &LoopbackStats| s.link_bytes as f64 / s.payments as f64;
    m.insert("wire.a1_bytes_per_payment", per_payment(&a1.stats));
    m.insert("wire.a2_bytes_per_payment", per_payment(&a2.stats));
    m.insert("wire.a2_certs_bytes_per_payment", per_payment(&a2_certs.stats));

    // brb: the broadcast primitives alone, one 64-payment batch per
    // instance. The signed primitive runs under MAC "signatures" so that
    // its bookkeeping shows, not the curve arithmetic `crypto` measures.
    let group = Group::of_size(REPLICAS).expect("4 replicas form a group");
    let bracha = Cluster::new((0..REPLICAS).map(|i| {
        BrachaBrb::<Batch>::new(ReplicaId(i as u32), group.clone(), BrbConfig::default())
    }));
    let (ns, msgs) = brb_costs("bracha.rounds", bracha, seed, spans, |n, id, b| n.broadcast(id, b));
    m.insert("bracha.ns_per_delivery", ns);
    m.insert("bracha.msgs_per_delivery", msgs);
    let signed = Cluster::new((0..REPLICAS).map(|i| {
        SignedBrb::<Batch, _>::new(
            MacAuthenticator::new(ReplicaId(i as u32), b"payment_path".to_vec()),
            group.clone(),
            BrbConfig { order: DeliveryOrder::Unordered, ..BrbConfig::default() },
        )
    }));
    let (ns, msgs) = brb_costs("signed.rounds", signed, seed, spans, |n, id, b| n.broadcast(id, b));
    m.insert("signed.ns_per_delivery", ns);
    m.insert("signed.msgs_per_delivery", msgs);

    // core: the ledger and the journal codec on the stream's payments.
    let mut stream = Stream::new(seed);
    let payments: Vec<Payment> = (0..LEDGER_SETTLES).map(|_| payment(stream.next(None))).collect();
    let mut ledger = Ledger::new(Amount(INITIAL_BALANCE));
    let (_, ns) = spans.time("ledger.settle", |_| {
        for p in &payments {
            black_box(ledger.settle(black_box(p), true));
        }
    });
    assert_eq!(ledger.total_settled() as u64, LEDGER_SETTLES, "every payment is funded");
    m.insert("ledger.settle_ns", ns as f64 / LEDGER_SETTLES as f64);

    let records: Vec<WalRecord> = payments
        .iter()
        .cycle()
        .take(JOURNAL_RECORDS as usize)
        .map(|p| WalRecord::Settle { payment: *p, credit_beneficiary: true })
        .collect();
    // One fresh buffer per record, as `Storage::append` encodes them.
    let (_, ns) = spans.time("journal.encode", |_| {
        for r in &records {
            black_box(black_box(r).to_wire_bytes());
        }
    });
    m.insert("journal.encode_ns_per_record", ns as f64 / JOURNAL_RECORDS as f64);

    Loopbacks { a1: a1.stats, a2: a2.stats, a2_certs: a2_certs.stats }
}
