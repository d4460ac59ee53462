//! Frame reassembly: one link's inbound byte stream → authenticated
//! payloads.
//!
//! A [`FrameReader`] owns one reassembly buffer and the link's
//! [`RecvSession`]. Bytes are read straight into the buffer's free tail,
//! and every complete `len || seq || payload || tag` frame is MAC- and
//! sequence-checked in place; the caller copies the payload out once (into
//! a [`Payload`](crate::Payload)). No socket code lives here: anything
//! that implements [`Read`] can feed it, which is how the property tests
//! drive it with arbitrary chunkings.
//!
//! Memory is bounded by what has actually arrived. The buffer starts at
//! [`BASE_CAPACITY`]; a frame larger than that grows it by doubling, and
//! only when the buffer is full of that frame's bytes, so it never exceeds
//! twice the bytes held nor `4 + len` for the announced `len` — a bare
//! 4-byte header announcing 16 MiB reserves nothing. Once the large frame
//! is consumed the buffer shrinks back to the base capacity.

use crate::session::{AuthError, RecvSession};
use astro_types::wire::peek_frame_len;
use std::io::{self, Read};

/// Reassembly buffer size between large frames: one `read` takes up to
/// this much of what the socket holds.
const BASE_CAPACITY: usize = 64 << 10;

/// Why a link's inbound stream can no longer be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// A header announced more than [`MAX_FRAME_LEN`](astro_types::wire::MAX_FRAME_LEN).
    Oversized,
    /// A complete frame failed its MAC or sequence check.
    Auth(AuthError),
}

/// One link's inbound reassembly state.
///
/// `buf[start..end]` holds received bytes not yet consumed; `buf.len()` is
/// the capacity (the whole buffer stays initialised so reads go straight
/// into it).
pub(crate) struct FrameReader {
    session: RecvSession,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// A reader for a freshly handshaken link.
    pub(crate) fn new(session: RecvSession) -> FrameReader {
        FrameReader { session, buf: vec![0; BASE_CAPACITY], start: 0, end: 0 }
    }

    /// Bytes currently allocated for reassembly.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Received bytes not yet returned as frames.
    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// True if the last read filled every free byte: the source may hold
    /// more.
    pub(crate) fn is_full(&self) -> bool {
        self.end == self.buf.len()
    }

    /// Makes room and performs **one** `read` from `src` into the free
    /// tail. `Ok(0)` is end of stream. Drain [`next_payload`] to `None`
    /// before reading again.
    ///
    /// [`next_payload`]: FrameReader::next_payload
    pub(crate) fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            // Only the (incomplete) next frame's prefix is left: move it
            // to the front so the whole tail is free.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            // Full of one incomplete frame larger than the buffer: double,
            // capped at the frame's own size.
            let needed = match peek_frame_len(&self.buf[..self.end]) {
                Ok(Some(len)) => 4 + len,
                _ => 0,
            };
            if needed <= self.buf.len() {
                // A complete or oversized frame: the caller skipped
                // `next_payload` (or its error).
                return Err(io::Error::new(io::ErrorKind::InvalidData, "undrained frame"));
            }
            let grown = (2 * self.buf.len()).min(needed);
            self.buf.reserve_exact(grown - self.buf.len());
            self.buf.resize(grown, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Opens the next complete frame, if one is buffered, and returns its
    /// payload as a borrow of the buffer.
    ///
    /// # Errors
    ///
    /// [`FrameError`] at the first oversized header or failed MAC /
    /// sequence check; every frame before it was returned, nothing after
    /// it will be, and the link must be dropped.
    pub(crate) fn next_payload(&mut self) -> Result<Option<&[u8]>, FrameError> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() > BASE_CAPACITY && 2 * self.buffered() < self.buf.len() {
            self.shrink();
        }
        let pending = &self.buf[self.start..self.end];
        let len = match peek_frame_len(pending) {
            Ok(Some(len)) => len,
            Ok(None) => return Ok(None),
            Err(_) => return Err(FrameError::Oversized),
        };
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let sealed = &self.buf[self.start + 4..self.start + 4 + len];
        self.start += 4 + len;
        self.session.open_ref(sealed).map(Some).map_err(FrameError::Auth)
    }

    /// Gives back what a large frame grew: keeps the unconsumed bytes at
    /// the front of a buffer of `max(BASE_CAPACITY, buffered)`.
    fn shrink(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        self.buf.truncate(self.end.max(BASE_CAPACITY));
        self.buf.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{session_pair, SendSession, NONCE_LEN};
    use astro_types::wire::{Wire, MAX_FRAME_LEN};
    use astro_types::{Keychain, ReplicaId};
    use proptest::prelude::*;

    fn sessions() -> (SendSession, RecvSession) {
        let ks = Keychain::deterministic_system(b"frames-tests", 2);
        let (nonce_d, nonce_a) = ([3u8; NONCE_LEN], [4u8; NONCE_LEN]);
        let (tx, _) = session_pair(&ks[0], ReplicaId(1), ReplicaId(0), &nonce_d, &nonce_a);
        let (_, rx) = session_pair(&ks[1], ReplicaId(0), ReplicaId(0), &nonce_d, &nonce_a);
        (tx, rx)
    }

    /// Payload `i` of a test stream: `len` bytes derived from `i`.
    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j) as u8).collect()
    }

    /// The wire image of `payloads` sealed in order, and each frame's
    /// starting offset.
    fn stream(tx: &mut SendSession, payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
        let mut out = Vec::new();
        let mut starts = Vec::new();
        for p in payloads {
            starts.push(out.len());
            (SendSession::sealed_len(p.len()) as u32).encode(&mut out);
            tx.seal_into(p, &mut out);
        }
        (out, starts)
    }

    /// Feeds `bytes` to a reader in chunks of the given sizes (cycled; the
    /// last chunk takes the rest), checking the capacity bounds after
    /// every drain. Returns the payloads delivered and the error that
    /// stopped delivery, if any.
    fn feed(
        reader: &mut FrameReader,
        bytes: &[u8],
        chunks: &[usize],
    ) -> (Vec<Vec<u8>>, Option<FrameError>) {
        let mut out = Vec::new();
        let mut rest = bytes;
        let mut sizes = chunks.iter().cycle();
        while !rest.is_empty() {
            let take = sizes.next().map_or(rest.len(), |&s| s.clamp(1, rest.len()));
            let mut chunk = &rest[..take];
            rest = &rest[take..];
            while !chunk.is_empty() {
                assert!(reader.read_from(&mut chunk).unwrap() > 0);
                loop {
                    match reader.next_payload() {
                        Ok(Some(p)) => out.push(p.to_vec()),
                        Ok(None) => break,
                        Err(e) => return (out, Some(e)),
                    }
                }
                let cap = reader.capacity();
                assert!(cap <= (2 * reader.buffered()).max(BASE_CAPACITY), "cap {cap}");
                assert!(cap <= 4 + MAX_FRAME_LEN);
            }
        }
        (out, None)
    }

    /// Payload sizes: mostly small, sometimes past the base capacity.
    fn sizes() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(
            (0usize..8, 0usize..1500, 0usize..200_000).prop_map(|(pick, small, large)| {
                if pick == 0 {
                    large
                } else {
                    small
                }
            }),
            1..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any chunking yields exactly the payloads, in order, and the
        /// buffer is back at its base capacity afterwards.
        #[test]
        fn any_chunking_yields_the_payloads_in_order(
            lens in sizes(),
            splits in proptest::collection::vec(1usize..70_000, 1..16),
            mode in 0usize..3,
        ) {
            // Mode 0: everything at once; 1: random splits; 2: a 1-byte
            // dribble, over small frames to keep the case fast.
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &l)| payload(i, if mode == 2 { l % 1500 } else { l }))
                .collect();
            let (mut tx, rx) = sessions();
            let (bytes, _) = stream(&mut tx, &payloads);
            let chunks = match mode {
                0 => vec![bytes.len()],
                1 => splits,
                _ => vec![1],
            };
            let mut reader = FrameReader::new(rx);
            let (got, err) = feed(&mut reader, &bytes, &chunks);
            prop_assert_eq!(err, None);
            prop_assert_eq!(got, payloads);
            prop_assert_eq!(reader.buffered(), 0);
            prop_assert_eq!(reader.capacity(), BASE_CAPACITY);
        }

        /// A tampered, out-of-sequence or oversized frame stops delivery
        /// right after the authenticated prefix.
        #[test]
        fn a_bad_frame_yields_the_prefix_then_an_error(
            lens in sizes(),
            at in any::<usize>(),
            fault in 0usize..3,
            splits in proptest::collection::vec(1usize..70_000, 1..16),
        ) {
            let payloads: Vec<Vec<u8>> =
                lens.iter().enumerate().map(|(i, &l)| payload(i, l)).collect();
            let bad = at % payloads.len();
            let (mut tx, rx) = sessions();
            let (mut bytes, starts) = stream(&mut tx, &payloads);
            let expected = match fault {
                0 => {
                    // Flip one bit of frame `bad`'s sealed body.
                    let end = starts.get(bad + 1).copied().unwrap_or(bytes.len());
                    let i = starts[bad] + 4 + (at / payloads.len()) % (end - starts[bad] - 4);
                    bytes[i] ^= 1;
                    FrameError::Auth(AuthError::BadTag)
                }
                1 => {
                    // Drop frame `bad`: the next one is out of sequence.
                    prop_assume!(bad + 1 < payloads.len());
                    bytes.drain(starts[bad]..starts[bad + 1]);
                    FrameError::Auth(AuthError::BadSequence)
                }
                _ => {
                    bytes.truncate(starts[bad]);
                    ((MAX_FRAME_LEN + 1) as u32).encode(&mut bytes);
                    bytes.extend_from_slice(&[0u8; 64]);
                    FrameError::Oversized
                }
            };
            let mut reader = FrameReader::new(rx);
            let (got, err) = feed(&mut reader, &bytes, &splits);
            prop_assert_eq!(err, Some(expected));
            prop_assert_eq!(&got[..], &payloads[..bad]);
        }

        /// Arbitrary bytes never panic and never allocate past what
        /// arrived.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 1..4096),
            splits in proptest::collection::vec(1usize..600, 1..8),
        ) {
            let mut reader = FrameReader::new(sessions().1);
            let (got, _) = feed(&mut reader, &bytes, &splits);
            prop_assert!(got.is_empty());
        }
    }

    #[test]
    fn a_bare_header_reserves_nothing() {
        // 16 MiB announced, 60 KiB delivered: the buffer stays at its base.
        let mut reader = FrameReader::new(sessions().1);
        let mut bytes = Vec::new();
        (MAX_FRAME_LEN as u32).encode(&mut bytes);
        bytes.resize(60 << 10, 0);
        let (got, err) = feed(&mut reader, &bytes, &[bytes.len()]);
        assert!(got.is_empty() && err.is_none());
        assert_eq!(reader.capacity(), BASE_CAPACITY);
        // Another 10 KiB fills the buffer: it doubles, no further.
        let (_, err) = feed(&mut reader, &[0u8; 10 << 10], &[10 << 10]);
        assert!(err.is_none());
        assert_eq!(reader.capacity(), 2 * BASE_CAPACITY);
    }
}
