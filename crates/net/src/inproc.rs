//! In-process transport: `std::sync::mpsc` channels as authenticated links.
//!
//! This wraps the channel mesh the threaded runtime always used, behind
//! the [`Transport`]/[`Endpoint`] interface. Links are authenticated by
//! construction — only endpoint `i` holds the senders that stamp messages
//! with `ReplicaId(i)` — so no MAC work is spent; this is the baseline the
//! TCP backend is benchmarked against.

use crate::{Endpoint, NetError, Payload, Transport};
use astro_types::ReplicaId;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

type Packet = (ReplicaId, Payload);

/// A full in-process mesh for `n` replicas.
#[derive(Debug)]
pub struct InProcTransport {
    endpoints: Vec<InProcEndpoint>,
}

impl InProcTransport {
    /// Builds the mesh: one unbounded inbox per replica, every endpoint
    /// holding a sender to every inbox.
    pub fn new(n: usize) -> Self {
        let (txs, rxs): (Vec<Sender<Packet>>, Vec<Receiver<Packet>>) =
            (0..n).map(|_| channel()).unzip();
        let endpoints = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| InProcEndpoint {
                me: ReplicaId(i as u32),
                peers: txs.clone(),
                inbox: rx,
            })
            .collect();
        InProcTransport { endpoints }
    }

    /// Number of replicas in the mesh.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True if the mesh is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }
}

impl Transport for InProcTransport {
    type Endpoint = InProcEndpoint;

    fn into_endpoints(self) -> Vec<InProcEndpoint> {
        self.endpoints
    }
}

/// One replica's view of the in-process mesh.
#[derive(Debug)]
pub struct InProcEndpoint {
    me: ReplicaId,
    peers: Vec<Sender<Packet>>,
    inbox: Receiver<Packet>,
}

impl Endpoint for InProcEndpoint {
    fn local(&self) -> ReplicaId {
        self.me
    }

    fn n(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, to: ReplicaId, payload: &[u8]) -> Result<(), NetError> {
        let tx = self.peers.get(to.0 as usize).ok_or(NetError::UnknownPeer(to))?;
        // A dropped endpoint (stopped replica) swallows traffic, exactly
        // like a crashed peer on a real network.
        let _ = tx.send((self.me, Payload::from(payload)));
        Ok(())
    }

    fn broadcast(&mut self, payload: &[u8]) -> Result<(), NetError> {
        // One allocation for the whole fan-out: every peer receives a
        // refcount bump of the same shared buffer, not its own copy.
        let shared = Payload::from(payload);
        for tx in &self.peers {
            let _ = tx.send((self.me, Payload::clone(&shared)));
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Packet>, NetError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(packet) => Ok(Some(packet)),
            // Disconnected = every peer endpoint is gone; for the caller
            // that is indistinguishable from a quiet network.
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_and_self_delivery() {
        let mut eps = InProcTransport::new(2).into_endpoints();
        let mut e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        e0.send(ReplicaId(1), b"x").unwrap();
        e0.send(ReplicaId(0), b"self").unwrap();
        assert_eq!(
            e1.recv_timeout(Duration::from_secs(1)).unwrap(),
            Some((ReplicaId(0), Payload::from(b"x".as_slice())))
        );
        assert_eq!(
            e0.recv_timeout(Duration::from_secs(1)).unwrap(),
            Some((ReplicaId(0), Payload::from(b"self".as_slice())))
        );
    }

    #[test]
    fn broadcast_shares_one_buffer() {
        let mut eps = InProcTransport::new(3).into_endpoints();
        eps[0].broadcast(b"shared").unwrap();
        let mut bodies = Vec::new();
        for ep in &mut eps {
            let (from, body) = ep.recv_timeout(Duration::from_secs(1)).unwrap().unwrap();
            assert_eq!(from, ReplicaId(0));
            assert_eq!(&body[..], b"shared");
            bodies.push(body);
        }
        // All three receivers hold the same allocation.
        assert!(Payload::ptr_eq(&bodies[0], &bodies[1]));
        assert!(Payload::ptr_eq(&bodies[1], &bodies[2]));
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let mut eps = InProcTransport::new(2).into_endpoints();
        let mut e0 = eps.remove(0);
        assert!(matches!(e0.send(ReplicaId(9), b"x"), Err(NetError::UnknownPeer(ReplicaId(9)))));
    }

    #[test]
    fn send_to_stopped_peer_is_silently_dropped() {
        let mut eps = InProcTransport::new(2).into_endpoints();
        let e1 = eps.pop().unwrap();
        let mut e0 = eps.pop().unwrap();
        drop(e1);
        assert!(e0.send(ReplicaId(1), b"x").is_ok());
    }

    #[test]
    fn timeout_returns_none() {
        let mut eps = InProcTransport::new(1).into_endpoints();
        let mut e0 = eps.pop().unwrap();
        assert_eq!(e0.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }
}
