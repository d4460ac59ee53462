//! Integration tests for the TCP transport over loopback: mesh bring-up,
//! authenticated traffic, Byzantine-input rejection, and reconnection.

use astro_net::{Endpoint, NetError, TcpEndpoint, TcpTransport, Transport};
use astro_types::{Keychain, ReplicaId};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECV: Duration = Duration::from_secs(5);

/// The transport's handshake deadline.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

fn mesh(seed: &[u8], n: usize) -> Vec<TcpEndpoint> {
    TcpTransport::loopback(Keychain::deterministic_system(seed, n))
        .expect("loopback mesh comes up")
        .into_endpoints()
}

#[test]
fn four_replica_mesh_carries_unicast_and_broadcast() {
    let mut eps = mesh(b"tcp-basic", 4);
    // Unicast 1 → 3.
    let payload = b"pay alice 30".to_vec();
    {
        let (left, right) = eps.split_at_mut(3);
        left[1].send(ReplicaId(3), &payload).unwrap();
        let (from, bytes) = right[0].recv_timeout(RECV).unwrap().expect("delivered");
        assert_eq!(from, ReplicaId(1));
        assert_eq!(&bytes[..], &payload[..]);
    }
    // Broadcast from 0 reaches everyone including the sender.
    eps[0].broadcast(b"batch").unwrap();
    for ep in &mut eps {
        let (from, bytes) = ep.recv_timeout(RECV).unwrap().expect("broadcast delivered");
        assert_eq!(from, ReplicaId(0));
        assert_eq!(&bytes[..], b"batch");
    }
}

#[test]
fn many_messages_arrive_in_order_per_link() {
    let mut eps = mesh(b"tcp-order", 4);
    let count = 200u64;
    for i in 0..count {
        eps[2].send(ReplicaId(0), &i.to_be_bytes()).unwrap();
    }
    for expected in 0..count {
        let (from, bytes) = eps[0].recv_timeout(RECV).unwrap().expect("message arrives");
        assert_eq!(from, ReplicaId(2));
        assert_eq!(u64::from_be_bytes(bytes[..].try_into().unwrap()), expected);
    }
}

#[test]
fn mismatched_key_material_cannot_join_the_mesh() {
    // Two replicas with key books from *different* systems: every
    // handshake tag fails, so the mesh never comes up.
    let good = Keychain::deterministic_system(b"tcp-auth-a", 2);
    let evil = Keychain::deterministic_system(b"tcp-auth-b", 2);
    let result = TcpTransport::loopback(vec![good[0].clone(), evil[1].clone()]);
    // The dialer sees either its hello rejected (connection closed → Io),
    // a handshake error, or a bring-up timeout; in every case the mesh
    // must fail to form.
    assert!(result.is_err(), "mesh with mismatched keys must fail");
}

#[test]
fn raw_garbage_connection_is_ignored() {
    let mut eps = mesh(b"tcp-garbage", 4);
    let addr = eps[3].listen_addr();
    // A non-replica connects and sprays bytes: no authenticated HELLO, so
    // nothing must reach the endpoint's inbox.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut junk = vec![0u8; 4 + 61];
    junk[0] = 61; // plausible little-endian frame length
    stream.write_all(&junk).unwrap();
    stream.write_all(b"totally not a handshake").ok();
    drop(stream);
    assert_eq!(eps[3].recv_timeout(Duration::from_millis(300)).unwrap(), None);
    // The mesh still works afterwards.
    eps[0].send(ReplicaId(3), b"still alive").unwrap();
    let (from, bytes) = eps[3].recv_timeout(RECV).unwrap().expect("delivered");
    assert_eq!((from, &bytes[..]), (ReplicaId(0), &b"still alive"[..]));
}

#[test]
fn severed_links_reconnect_and_traffic_resumes() {
    let mut eps = mesh(b"tcp-reconnect", 4);
    // Drain the mesh, then cut every socket endpoint 0 holds.
    eps[0].debug_sever_links();
    // Driving the endpoints is all it takes: each notices its dead links
    // in `recv_timeout`, and endpoint 0's maintenance pass re-dials 1..3
    // (it is their dialer) — no send asks for it.
    let deadline = std::time::Instant::now() + RECV;
    loop {
        for ep in &mut eps {
            assert_eq!(ep.recv_timeout(Duration::from_millis(10)).unwrap(), None);
        }
        if eps.iter_mut().all(|ep| ep.wait_connected(Duration::ZERO).is_ok()) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "the mesh did not heal");
    }
    eps[0].broadcast(b"after the storm").unwrap();
    for ep in &mut eps {
        let (from, bytes) = ep.recv_timeout(RECV).unwrap().expect("reconnect restores delivery");
        assert_eq!(from, ReplicaId(0));
        assert_eq!(&bytes[..], b"after the storm");
    }
    // The acceptor side uses the re-dialed link in the other direction.
    eps[2].send(ReplicaId(0), b"reverse direction").unwrap();
    let (from, bytes) = eps[0].recv_timeout(RECV).unwrap().expect("delivered");
    assert_eq!((from, &bytes[..]), (ReplicaId(2), &b"reverse direction"[..]));
}

#[test]
fn quiet_mesh_heals_without_traffic_toward_the_dead_peer() {
    // The catch-up scenario: the highest-id replica's endpoint dies and a
    // replacement rebinds the same address. The mesh convention is
    // lower-id-dials, so the replacement cannot initiate its own links —
    // and its peers have nothing to send it. The background maintenance
    // pass must re-dial anyway, so the replacement's first *outbound*
    // message (a catch-up request) can leave.
    let keychains = Keychain::deterministic_system(b"tcp-maintenance", 4);
    let mut eps = mesh_with(&keychains);
    let addrs: Vec<_> = eps.iter().map(TcpEndpoint::listen_addr).collect();
    // Kill replica 3's endpoint (drop severs links and frees its port).
    let dead = eps.pop().expect("four endpoints");
    drop(dead);
    // A replacement rebinds the same address — exactly what the runtime's
    // restart path does. The dropped endpoint closed its listener.
    let listener = TcpListener::bind(addrs[3]).expect("the dropped endpoint freed its port");
    let peer_addrs = addrs.iter().enumerate().map(|(j, a)| (j != 3).then_some(*a)).collect();
    let mut replacement = TcpEndpoint::establish(keychains[3].clone(), listener, peer_addrs)
        .expect("replacement comes up");
    // No live replica sends anything. The maintenance re-dial must still
    // complete the mesh from the peers' side. The survivors notice their
    // dead links when driven, so they wait in `recv_timeout` — as a
    // replica driver always does.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while replacement.wait_connected(Duration::from_millis(10)).is_err() {
        for ep in &mut eps {
            assert_eq!(ep.recv_timeout(Duration::from_millis(10)).unwrap(), None);
        }
        if std::time::Instant::now() >= deadline {
            break;
        }
    }
    replacement.wait_connected(Duration::ZERO).expect("maintenance pass heals the mesh");
    // And the replacement's broadcast (the catch-up request) reaches all.
    replacement.broadcast(b"sync-request").unwrap();
    for ep in &mut eps {
        let (from, bytes) = ep.recv_timeout(RECV).unwrap().expect("request arrives");
        assert_eq!(from, ReplicaId(3));
        assert_eq!(&bytes[..], b"sync-request");
    }
    // (Broadcast self-delivers too; drain the loopback copy.)
    let (own, _) = replacement.recv_timeout(RECV).unwrap().expect("self copy");
    assert_eq!(own, ReplicaId(3));
    // The reply path works too.
    eps[0].send(ReplicaId(3), b"sync-state").unwrap();
    let (from, bytes) = replacement.recv_timeout(RECV).unwrap().expect("reply arrives");
    assert_eq!(from, ReplicaId(0));
    assert_eq!(&bytes[..], b"sync-state");
}

#[test]
fn a_peer_that_never_answers_the_handshake_cannot_stall_sends() {
    // Endpoint 0 comes up while its peer's port is closed, so the link
    // stays down. Then a listener binds that port and never accepts: the
    // kernel completes each TCP connect, but no HELLO is ever answered, so
    // every dial to it waits out the whole handshake timeout. Only the
    // maintenance pass may pay that; a send to the down link must fail at
    // once, however often it is retried.
    let chains = Keychain::deterministic_system(b"tcp-silent-peer", 2);
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = TcpListener::bind(("127.0.0.1", 0)).unwrap().local_addr().unwrap();
    let mut ep = TcpEndpoint::establish(chains[0].clone(), listener, vec![None, Some(port)])
        .expect("an unreachable peer is left to the maintenance pass");
    let _silent = TcpListener::bind(port).unwrap();
    for attempt in 0..4 {
        // Past the 250 ms redial cooldown, so a dial is always due.
        std::thread::sleep(Duration::from_millis(300));
        let started = std::time::Instant::now();
        let sent = ep.send(ReplicaId(1), b"into the void");
        let took = started.elapsed();
        assert!(matches!(sent, Err(NetError::LinkDown(ReplicaId(1)))), "attempt {attempt}");
        assert!(took < Duration::from_millis(100), "attempt {attempt}: send took {took:?}");
    }
}

#[test]
fn establish_does_not_wait_out_a_silent_peer() {
    // The peer's listener completes the TCP connect, but nothing ever
    // answers the HELLO. `establish` gives that dial its handshake
    // deadline, returns, and leaves the link to the redial schedule.
    let chains = Keychain::deterministic_system(b"tcp-silent-establish", 2);
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let silent = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let peer = silent.local_addr().unwrap();
    let started = Instant::now();
    let mut ep = TcpEndpoint::establish(chains[0].clone(), listener, vec![None, Some(peer)])
        .expect("a silent peer is not fatal");
    let took = started.elapsed();
    assert!(took < HANDSHAKE_TIMEOUT + Duration::from_secs(1), "establish took {took:?}");
    assert!(matches!(ep.send(ReplicaId(1), b"hello?"), Err(NetError::LinkDown(ReplicaId(1)))));
    // Driven past the 250 ms cooldown, the endpoint dials again, and the
    // second silent handshake does not block it either.
    let driven = Instant::now();
    while driven.elapsed() < Duration::from_millis(400) {
        assert_eq!(ep.recv_timeout(Duration::from_millis(20)).unwrap(), None);
    }
    assert!(driven.elapsed() < Duration::from_millis(600));
    silent.set_nonblocking(true).unwrap();
    let dials = std::iter::from_fn(|| silent.accept().ok()).count();
    assert!(dials >= 2, "{dials} dial(s) reached the silent peer");
}

#[test]
fn a_busy_endpoint_still_completes_an_inbound_handshake() {
    // Endpoint 3 receives a continuous stream from endpoint 1 and takes
    // its messages slowly, so its inbox never runs dry, while endpoint 0,
    // its dialer, loses every link. Endpoint 0 re-dials, and endpoint 3
    // must answer the new handshake within 1 s all the same.
    let mut eps = mesh(b"tcp-accept-under-load", 4);
    let mut ep3 = eps.pop().unwrap();
    let _ep2 = eps.pop().unwrap();
    let mut ep1 = eps.pop().unwrap();
    let mut ep0 = eps.pop().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flood = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                ep1.cork();
                // Endpoint 3 must keep reading: a flush it leaves waiting
                // for 2 s tears the link down.
                for _ in 0..64 {
                    ep1.send(ReplicaId(3), &seq.to_be_bytes()).expect("endpoint 3 reads");
                    seq += 1;
                }
                ep1.uncork().expect("endpoint 3 reads");
                let _ = ep1.recv_timeout(Duration::ZERO);
            }
            ep1
        })
    };
    // Takes one message at endpoint 3: true if it is endpoint 0's.
    let take = |ep3: &mut TcpEndpoint, next: &mut u64| {
        let (from, bytes) = ep3.recv_timeout(RECV).unwrap().expect("traffic keeps arriving");
        if from == ReplicaId(0) {
            assert_eq!(&bytes[..], b"back");
            return true;
        }
        assert_eq!(u64::from_be_bytes(bytes[..].try_into().unwrap()), *next);
        *next += 1;
        false
    };
    let mut next = 0u64;
    while next < 10_000 {
        take(&mut ep3, &mut next);
    }
    ep0.debug_sever_links();
    let severed = Instant::now();
    let healer = std::thread::spawn(move || loop {
        let _ = ep0.recv_timeout(Duration::from_millis(5));
        if ep0.send(ReplicaId(3), b"back").is_ok() {
            return (severed.elapsed(), ep0);
        }
        assert!(severed.elapsed() < RECV, "endpoint 0 never reached endpoint 3 again");
    });
    while !healer.is_finished() {
        assert!(!take(&mut ep3, &mut next));
        std::thread::sleep(Duration::from_micros(200));
    }
    let (took, _ep0) = healer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let _ep1 = flood.join().unwrap();
    assert!(took < Duration::from_secs(1), "the inbound handshake took {took:?}");
    // The healed link delivers, behind the backlog.
    while !take(&mut ep3, &mut next) {}
}

fn mesh_with(keychains: &[Keychain]) -> Vec<TcpEndpoint> {
    TcpTransport::loopback(keychains.to_vec()).expect("loopback mesh comes up").into_endpoints()
}

#[test]
fn crashed_peer_does_not_stall_broadcasts_to_the_live_quorum() {
    let mut eps = mesh(b"tcp-crash", 4);
    // Replica 3 crashes (endpoint dropped: listener closed, sockets shut).
    let dead = eps.pop().unwrap();
    drop(dead);
    std::thread::sleep(Duration::from_millis(50));
    // Twenty broadcasts from replica 0: sends to the dead peer fail fast
    // (only the maintenance pass re-dials it), so the batch must complete
    // quickly — a crashed minority must not throttle the live quorum.
    let t0 = std::time::Instant::now();
    for i in 0..20u64 {
        let _ = eps[0].broadcast(&i.to_be_bytes()); // LinkDown(3) is expected
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "broadcasts stalled {:?} behind a crashed peer",
        t0.elapsed()
    );
    // Every live replica (sender included) still received all twenty.
    for ep in &mut eps {
        for expected in 0..20u64 {
            let (from, bytes) = ep.recv_timeout(RECV).unwrap().expect("live delivery");
            assert_eq!(from, ReplicaId(0));
            assert_eq!(u64::from_be_bytes(bytes[..].try_into().unwrap()), expected);
        }
    }
}

#[test]
fn corked_frames_coalesce_and_flush_in_order() {
    let mut eps = mesh(b"tcp-cork", 4);
    // A corked burst: many frames to the same links, one write per link
    // at uncork. Interleave unicast and broadcast to cross links.
    eps[0].cork();
    for i in 0..50u64 {
        eps[0].send(ReplicaId(1), &i.to_be_bytes()).unwrap();
        eps[0].broadcast(&(1000 + i).to_be_bytes()).unwrap();
    }
    eps[0].uncork().unwrap();
    // Replica 1 sees the full interleaving in order.
    for i in 0..50u64 {
        for expected in [i, 1000 + i] {
            let (from, bytes) = eps[1].recv_timeout(RECV).unwrap().expect("delivered");
            assert_eq!(from, ReplicaId(0));
            assert_eq!(u64::from_be_bytes(bytes[..].try_into().unwrap()), expected);
        }
    }
    // Replicas 2, 3 (and 0 via self-delivery) see the broadcasts in order.
    let (_, tail) = eps.split_at_mut(2);
    for ep in tail {
        for i in 0..50u64 {
            let (_, bytes) = ep.recv_timeout(RECV).unwrap().expect("delivered");
            assert_eq!(u64::from_be_bytes(bytes[..].try_into().unwrap()), 1000 + i);
        }
    }
    // Uncork with nothing pending is a no-op.
    eps[0].cork();
    eps[0].uncork().unwrap();
}

#[test]
fn corked_traffic_to_a_crashed_peer_is_dropped_not_wedged() {
    let mut eps = mesh(b"tcp-cork-crash", 4);
    let dead = eps.pop().unwrap();
    drop(dead);
    std::thread::sleep(Duration::from_millis(50));
    eps[0].cork();
    for i in 0..10u64 {
        let _ = eps[0].broadcast(&i.to_be_bytes()); // LinkDown(3) tolerated
    }
    // Uncork must not error on the already-torn-down link (its frames
    // never buffered) and live peers get everything.
    eps[0].uncork().unwrap();
    for ep in &mut eps {
        for expected in 0..10u64 {
            let (_, bytes) = ep.recv_timeout(RECV).unwrap().expect("live delivery");
            assert_eq!(u64::from_be_bytes(bytes[..].try_into().unwrap()), expected);
        }
    }
}

#[test]
fn establish_rejects_mismatched_address_book() {
    let chains = Keychain::deterministic_system(b"tcp-addrbook", 4);
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let result = TcpEndpoint::establish(chains[0].clone(), listener, vec![None; 2]);
    assert!(matches!(result, Err(NetError::Handshake { .. })));
}

#[test]
fn empty_payloads_and_large_payloads_round_trip() {
    let mut eps = mesh(b"tcp-sizes", 4);
    let big = vec![0xabu8; 1 << 20];
    eps[1].send(ReplicaId(2), b"").unwrap();
    eps[1].send(ReplicaId(2), &big).unwrap();
    let (_, first) = eps[2].recv_timeout(RECV).unwrap().expect("empty arrives");
    assert!(first.is_empty());
    let (_, second) = eps[2].recv_timeout(RECV).unwrap().expect("1 MiB arrives");
    assert_eq!(&second[..], &big[..]);
}

#[test]
fn flushing_toward_each_other_cannot_wedge() {
    // Two endpoints each cork and send 32 MiB to the other without ever
    // calling `recv_timeout`, so socket buffers fill both ways. Every
    // flush the kernel cannot take (the inline flush past the cork
    // threshold, then `uncork`) keeps reading its own links while it
    // waits, so the two sides drain each other: no call may come near the
    // 2 s write timeout, after which a silent link is torn down and its
    // frames are lost.
    const FRAME: usize = 16 << 10;
    const FRAMES: u64 = (32 << 20) / FRAME as u64;
    let eps = mesh(b"tcp-no-wedge", 2);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let handles: Vec<_> = eps
        .into_iter()
        .map(|mut ep| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let me = ep.local();
                let other = ReplicaId(1 - me.0);
                let mut frame = vec![me.0 as u8; FRAME];
                let mut longest = Duration::ZERO;
                let mut timed = |call: &mut dyn FnMut() -> Result<(), NetError>| {
                    let started = std::time::Instant::now();
                    call().expect("flush succeeds");
                    longest = longest.max(started.elapsed());
                };
                barrier.wait();
                ep.cork();
                for i in 0..FRAMES {
                    frame[..8].copy_from_slice(&i.to_be_bytes());
                    timed(&mut || ep.send(other, &frame));
                }
                timed(&mut || ep.uncork());
                eprintln!("longest {longest:?}");
                assert!(longest < Duration::from_secs(1), "a flush blocked for {longest:?}");
                for expected in 0..FRAMES {
                    let (from, bytes) = ep.recv_timeout(RECV).unwrap().expect("frame arrives");
                    assert_eq!(from, other);
                    assert_eq!(bytes.len(), FRAME);
                    assert_eq!(u64::from_be_bytes(bytes[..8].try_into().unwrap()), expected);
                    assert_eq!(bytes[FRAME - 1], other.0 as u8);
                }
                ep
            })
        })
        .collect();
    // Join both before dropping either: a dropped endpoint would cut the
    // other's link mid-transfer.
    let _eps: Vec<TcpEndpoint> = handles.into_iter().map(|h| h.join().unwrap()).collect();
}

#[test]
fn link_adopted_while_blocked_in_recv_delivers_within_the_call() {
    // Replica 1 comes up alone and blocks in `recv_timeout(5 s)` with no
    // link at all. Replica 0 then comes up, dials it and sends: the
    // acceptor's hand-over wakes the blocked call, which adopts the link
    // and returns its first frame.
    let chains = Keychain::deterministic_system(b"tcp-adopt-wake", 2);
    let listeners: Vec<TcpListener> =
        (0..2).map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap()).collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let mut listeners = listeners.into_iter();
    let (l0, l1) = (listeners.next().unwrap(), listeners.next().unwrap());
    let mut ep1 = TcpEndpoint::establish(chains[1].clone(), l1, vec![Some(addrs[0]), None])
        .expect("replica 1 comes up alone");
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let receiver = std::thread::spawn(move || {
        ready_tx.send(()).unwrap();
        let started = std::time::Instant::now();
        let got = ep1.recv_timeout(RECV).unwrap();
        (got, started.elapsed(), ep1)
    });
    ready_rx.recv().unwrap();
    let mut ep0 = TcpEndpoint::establish(chains[0].clone(), l0, vec![None, Some(addrs[1])])
        .expect("replica 0 dials replica 1");
    ep0.send(ReplicaId(1), b"first contact").unwrap();
    let (got, took, _ep1) = receiver.join().unwrap();
    let (from, bytes) = got.expect("delivered within the blocked call");
    assert_eq!((from, &bytes[..]), (ReplicaId(0), &b"first contact"[..]));
    assert!(took < Duration::from_secs(2), "took {took:?}");
}

#[test]
fn recv_without_deadline_blocks_until_a_frame_arrives() {
    // `Duration::MAX` cannot be added to the current instant: the call
    // must wait with no deadline, and the peer's frame ends the wait.
    let mut eps = mesh(b"tcp-no-deadline", 2);
    let mut ep1 = eps.pop().unwrap();
    let mut ep0 = eps.pop().unwrap();
    let receiver = std::thread::spawn(move || (ep1.recv_timeout(Duration::MAX).unwrap(), ep1));
    std::thread::sleep(Duration::from_millis(100));
    ep0.send(ReplicaId(1), b"wake up").unwrap();
    let (got, _ep1) = receiver.join().expect("the wait does not panic");
    let (from, bytes) = got.expect("the frame ends the wait");
    assert_eq!((from, &bytes[..]), (ReplicaId(0), &b"wake up"[..]));
}
