//! Authenticated message transport for Astro.
//!
//! The paper assumes authenticated point-to-point links between replicas
//! (§III); until this crate existed the repository could only *fake* them
//! with in-process channels. `astro-net` makes the link layer a real
//! subsystem:
//!
//! - [`Transport`] / [`Endpoint`]: the interface the threaded runtime is
//!   generic over. An endpoint is one replica's connection to the full
//!   replica mesh: `send`, `broadcast` (which includes self-delivery, as
//!   the protocol cores expect), and `recv_timeout`.
//! - [`InProcTransport`]: `std::sync::mpsc` channels, authenticated by
//!   construction. The zero-overhead baseline, and what deterministic
//!   tests and single-process deployments use.
//! - [`TcpTransport`] / [`TcpEndpoint`]: real sockets. One TCP connection
//!   per replica pair, length-prefixed framing over the
//!   [`astro_types::wire`] codec, an HMAC handshake deriving per-direction
//!   session keys from the per-replica [`Keychain`](astro_types::Keychain)
//!   (paper §III's pre-distributed key material), per-message MACs with
//!   strict sequence numbers, and reconnect-on-drop. An endpoint does all
//!   of its link I/O on the thread that calls it (see [`tcp`]).
//!
//! Byte payloads, not typed messages, cross the transport: callers encode
//! with [`astro_types::wire::Wire`] and decode on receipt, so a Byzantine
//! peer's garbage terminates at `decode` with an error, never a panic.
//!
//! # Examples
//!
//! ```
//! use astro_net::{Endpoint, InProcTransport, Transport};
//! use astro_types::ReplicaId;
//! use std::time::Duration;
//!
//! let mut eps = InProcTransport::new(3).into_endpoints();
//! let mut e2 = eps.pop().unwrap();
//! let mut e1 = eps.pop().unwrap();
//! let mut e0 = eps.pop().unwrap();
//!
//! e0.broadcast(b"hello").unwrap();
//! for ep in [&mut e0, &mut e1, &mut e2] {
//!     let (from, bytes) = ep
//!         .recv_timeout(Duration::from_secs(1))
//!         .unwrap()
//!         .expect("broadcast reaches everyone, sender included");
//!     assert_eq!(from, ReplicaId(0));
//!     assert_eq!(&bytes[..], b"hello");
//! }
//! ```

#![warn(missing_docs)]

mod frames;
pub mod inproc;
pub mod session;
pub mod tcp;

pub use inproc::{InProcEndpoint, InProcTransport};
pub use tcp::{TcpEndpoint, TcpTransport};

use astro_types::ReplicaId;
use std::sync::Arc;
use std::time::Duration;

/// A received message body.
///
/// Shared, immutable bytes: a broadcast is encoded **once** and fanned out
/// by reference-count bump (`InProcTransport`). A received TCP frame is
/// authenticated in place in its link's reassembly buffer and its payload
/// copied out once, into its own `Payload`. Derefs to `&[u8]` wherever a
/// slice is expected.
pub type Payload = Arc<[u8]>;

/// Errors produced by transports.
#[derive(Debug)]
pub enum NetError {
    /// The destination id is outside the mesh.
    UnknownPeer(ReplicaId),
    /// The link to `peer` is down and could not be re-established in time.
    LinkDown(ReplicaId),
    /// The authenticated handshake with a peer failed.
    Handshake {
        /// The peer, when known.
        peer: Option<ReplicaId>,
        /// What went wrong.
        reason: &'static str,
    },
    /// A deadline elapsed while establishing connectivity.
    Timeout(&'static str),
    /// An underlying socket error.
    Io(std::io::Error),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            NetError::LinkDown(p) => write!(f, "link to {p} is down"),
            NetError::Handshake { peer: Some(p), reason } => {
                write!(f, "handshake with {p} failed: {reason}")
            }
            NetError::Handshake { peer: None, reason } => {
                write!(f, "handshake failed: {reason}")
            }
            NetError::Timeout(what) => write!(f, "timed out: {what}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One replica's connection to the replica mesh.
///
/// Implementations deliver messages reliably and in order per link while
/// both endpoints are up, and authenticate the sending replica: a received
/// `(from, bytes)` pair means replica `from` really sent `bytes` (channel
/// ownership in-process; HMAC session authentication over TCP).
pub trait Endpoint: Send + 'static {
    /// The local replica's id.
    fn local(&self) -> ReplicaId;

    /// Number of replicas in the mesh.
    fn n(&self) -> usize;

    /// Sends `payload` to one replica. Sending to `self.local()` loops the
    /// message back through the local inbox.
    ///
    /// # Errors
    ///
    /// Fails if the destination is unknown or its link cannot be
    /// (re-)established.
    fn send(&mut self, to: ReplicaId, payload: &[u8]) -> Result<(), NetError>;

    /// Sends `payload` to every replica, the local one included — the
    /// self-delivery contract the protocol drivers rely on for
    /// `Dest::All`.
    ///
    /// # Errors
    ///
    /// Reports the first link error after attempting every destination, so
    /// one crashed peer does not block traffic to the rest.
    fn broadcast(&mut self, payload: &[u8]) -> Result<(), NetError>;

    /// Waits up to `timeout` for the next message; `Ok(None)` on timeout.
    /// A `timeout` too long to add to the current instant, such as
    /// [`Duration::MAX`], waits with no deadline.
    ///
    /// This is where a [`TcpEndpoint`] performs its I/O: it reads its
    /// sockets, authenticates frames, adopts reconnected links and notices
    /// dead ones only while its caller is inside this method (or flushing
    /// in [`send`](Endpoint::send) / [`uncork`](Endpoint::uncork)). A
    /// caller that stops calling it stops draining its peers' sockets.
    ///
    /// # Errors
    ///
    /// Fails only on unrecoverable local errors; a quiet or disconnected
    /// mesh is `Ok(None)`.
    fn recv_timeout(&mut self, timeout: Duration)
        -> Result<Option<(ReplicaId, Payload)>, NetError>;

    /// Starts coalescing outbound traffic: frames from subsequent `send` /
    /// `broadcast` calls may be buffered per link until [`uncork`] — a
    /// burst of k messages to one peer then costs O(1) writes instead of
    /// O(k). Drivers cork around each batch of protocol output; plain
    /// `send` outside a cork window keeps immediate, unbuffered delivery.
    ///
    /// Default: no-op (transports without syscall cost have nothing to
    /// coalesce).
    ///
    /// [`uncork`]: Endpoint::uncork
    fn cork(&mut self) {}

    /// Flushes everything buffered since [`cork`](Endpoint::cork) and
    /// returns to immediate-delivery mode.
    ///
    /// # Errors
    ///
    /// Reports the first link that failed during the flush after
    /// attempting every link (the per-link traffic is lost, as with any
    /// link drop; quorums mask a disconnected minority).
    fn uncork(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    /// Attaches an observability registry: per-link byte/frame counters,
    /// write-syscall latency, cork flush sizes, redials, and handshake
    /// failures report into it from here on. Default: no-op (a transport
    /// without syscall cost has nothing worth attributing).
    fn attach_registry(&mut self, _registry: &Arc<astro_obs::Registry>) {}
}

/// A bundle of [`Endpoint`]s, one per replica of a cluster.
///
/// The threaded runtime is generic over this: it splits the transport into
/// endpoints and moves one into each replica thread. Index `i` of the
/// returned vector is `ReplicaId(i)`'s endpoint.
pub trait Transport {
    /// The per-replica endpoint type.
    type Endpoint: Endpoint;

    /// Splits the transport into per-replica endpoints.
    fn into_endpoints(self) -> Vec<Self::Endpoint>;
}
