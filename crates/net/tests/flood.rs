//! Connections that never speak cost a TCP endpoint no thread and do not
//! hold up its traffic. This is its own test binary because it counts the
//! process's threads.

use astro_net::{Endpoint, TcpTransport, Transport};
use astro_types::{Keychain, ReplicaId};
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The transport's handshake deadline.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// The transport's cap on pending inbound handshakes.
const MAX_PENDING_ACCEPTS: usize = 16;

/// Threads of this process, where the platform lists them.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(Iterator::count)
}

#[test]
fn silent_connections_cost_no_thread_and_close_on_their_deadline() {
    const SILENT: usize = 32;
    let mut eps = TcpTransport::loopback(Keychain::deterministic_system(b"tcp-flood", 4))
        .expect("loopback mesh comes up")
        .into_endpoints();
    let before = threads();
    let target = eps[3].listen_addr();
    // (socket, opened at, closed after)
    let mut silent: Vec<(TcpStream, Instant, Option<Duration>)> = (0..SILENT)
        .map(|_| {
            let stream = TcpStream::connect(target).unwrap();
            stream.set_nonblocking(true).unwrap();
            (stream, Instant::now(), None)
        })
        .collect();
    let (mut sent, mut delivered) = (0u64, [0u64; 2]);
    let mut peak = before;
    let give_up = Instant::now() + HANDSHAKE_TIMEOUT + Duration::from_secs(2);
    while silent.iter().any(|s| s.2.is_none()) {
        assert!(Instant::now() < give_up, "a silent connection outlived its deadline");
        // Traffic keeps flowing meanwhile: 0 → 3 (the flooded endpoint)
        // and 1 → 2.
        eps[0].send(ReplicaId(3), &sent.to_be_bytes()).unwrap();
        eps[1].send(ReplicaId(2), &sent.to_be_bytes()).unwrap();
        sent += 1;
        for (slot, ep) in [(0, 3), (1, 2)] {
            while let Some((from, bytes)) = eps[ep].recv_timeout(Duration::from_millis(5)).unwrap()
            {
                assert_eq!(from, ReplicaId(slot as u32));
                let seq = u64::from_be_bytes(bytes[..].try_into().unwrap());
                assert_eq!(seq, delivered[slot]);
                delivered[slot] += 1;
            }
        }
        peak = peak.max(threads());
        for (stream, opened, closed) in silent.iter_mut().filter(|s| s.2.is_none()) {
            match stream.read(&mut [0u8; 1]) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Ok(0) | Err(_) => *closed = Some(opened.elapsed()),
                Ok(_) => panic!("a silent connection was sent bytes"),
            }
        }
    }
    assert_eq!(peak, before, "silent connections started threads");
    let closed: Vec<Duration> = silent.iter().map(|s| s.2.expect("closed")).collect();
    assert!(closed.iter().all(|&c| c < HANDSHAKE_TIMEOUT + Duration::from_secs(1)), "{closed:?}");
    // Past the cap, each new connection evicted the oldest pending one.
    let evicted = closed.iter().filter(|&&c| c < HANDSHAKE_TIMEOUT / 2).count();
    assert!(evicted >= SILENT - MAX_PENDING_ACCEPTS, "{closed:?}");
    assert!(delivered.iter().all(|&d| d + 2 >= sent), "delivered {delivered:?} of {sent}");
}
