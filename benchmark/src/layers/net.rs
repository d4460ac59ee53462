//! `net`: link MAC, session seal/open, and raw link frame rates over the
//! two transports, no protocol on top.

use super::Metrics;
use crate::trace::Spans;
use astro_crypto::hmac::MacKey;
use astro_net::session::{session_pair, NONCE_LEN};
use astro_net::{Endpoint, InProcTransport, TcpTransport, Transport};
use astro_types::{Keychain, ReplicaId};
use std::hint::black_box;
use std::time::Duration;

const FRAME_BYTES: usize = 1024;
const MAC_ITERS: u64 = 40_000;
const SEAL_ITERS: u64 = 20_000;
/// Frames per cork window and windows per measurement.
const LINK_BURST: u64 = 512;
const LINK_ROUNDS: u64 = 40;

/// Sends `LINK_ROUNDS` corked bursts of 1 KiB frames 0 → 1 and receives
/// them; frames per second.
fn link_frames_per_s<E: Endpoint>(
    name: &str,
    mut endpoints: Vec<E>,
    spans: &mut Spans,
) -> Result<f64, String> {
    let payload = vec![0x5au8; FRAME_BYTES];
    let mut rx = endpoints.pop().ok_or("two endpoints")?;
    let mut tx = endpoints.pop().ok_or("two endpoints")?;
    let (sent, ns) = spans.time(name, |_| -> Result<(), String> {
        for _ in 0..LINK_ROUNDS {
            tx.cork();
            for _ in 0..LINK_BURST {
                tx.send(ReplicaId(1), &payload).map_err(|e| e.to_string())?;
            }
            tx.uncork().map_err(|e| e.to_string())?;
            for _ in 0..LINK_BURST {
                rx.recv_timeout(Duration::from_secs(5))
                    .map_err(|e| e.to_string())?
                    .ok_or("link delivered nothing for 5 s")?;
            }
        }
        Ok(())
    });
    sent?;
    Ok((LINK_ROUNDS * LINK_BURST) as f64 / (ns as f64 / 1e9))
}

pub fn run(spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let frame = vec![0x5au8; FRAME_BYTES];
    let key = MacKey::from_bytes([7u8; 32]);
    let (_, ns) = spans.time("hmac.tag_1KiB", |_| {
        for _ in 0..MAC_ITERS {
            black_box(key.tag(black_box(&frame)));
        }
    });
    m.insert("hmac.tag_ns_per_kib", ns as f64 / MAC_ITERS as f64);

    let chains = Keychain::deterministic_system(b"payment_path-session", 2);
    let (nonce_d, nonce_a) = ([1u8; NONCE_LEN], [2u8; NONCE_LEN]);
    let (mut seal, _) = session_pair(&chains[0], ReplicaId(1), ReplicaId(0), &nonce_d, &nonce_a);
    let (_, mut open) = session_pair(&chains[1], ReplicaId(0), ReplicaId(0), &nonce_d, &nonce_a);
    let mut sealed = Vec::new();
    let (ok, ns) = spans.time("session.seal_open_1KiB", |_| {
        let mut ok = true;
        for _ in 0..SEAL_ITERS {
            sealed.clear();
            seal.seal_into(black_box(&frame), &mut sealed);
            ok &= open.open_ref(black_box(&sealed)).is_ok();
        }
        ok
    });
    if !ok {
        return Err("a sealed frame failed to open".to_string());
    }
    m.insert("session.seal_open_ns_per_frame", ns as f64 / SEAL_ITERS as f64);

    let chains = Keychain::deterministic_system(b"payment_path-link", 2);
    let tcp = TcpTransport::loopback(chains).map_err(|e| e.to_string())?.into_endpoints();
    m.insert("tcp.link_frames_per_s", link_frames_per_s("tcp.link", tcp, spans)?);
    let inproc = InProcTransport::new(2).into_endpoints();
    m.insert("inproc.link_frames_per_s", link_frames_per_s("inproc.link", inproc, spans)?);
    Ok(())
}
