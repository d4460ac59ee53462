//! A small hand-rolled binary wire format.
//!
//! The one codec in the workspace (there is no serde): the network-facing
//! and on-disk encoding is implemented here directly on `Vec<u8>` and
//! `&[u8]`.
//! The format is deliberately boring: fixed-width little-endian integers,
//! length-prefixed sequences, one tag byte per enum variant. Decoding is
//! total — malformed input from Byzantine peers yields a [`WireError`],
//! never a panic.
//!
//! # Examples
//!
//! ```
//! use astro_types::wire::{Wire, decode_exact};
//!
//! let mut buf = Vec::new();
//! 42u64.encode(&mut buf);
//! vec![1u32, 2, 3].encode(&mut buf);
//!
//! let mut slice = buf.as_slice();
//! assert_eq!(u64::decode(&mut slice).unwrap(), 42);
//! assert_eq!(Vec::<u32>::decode(&mut slice).unwrap(), vec![1, 2, 3]);
//! assert!(slice.is_empty());
//! ```

// Decodes bytes from the network and the disk: none may reach a panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A tag, length, or field value was outside its valid range.
    InvalidValue(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of input"),
            WireError::InvalidValue(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum element count accepted for any length-prefixed sequence.
///
/// Bounds allocation when decoding data from untrusted (Byzantine) peers.
pub const MAX_SEQ_LEN: usize = 1 << 20;

/// Types with a canonical binary encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] if the buffer is truncated or contains an
    /// out-of-range tag/length/value.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// The exact number of bytes [`Wire::encode`] would produce, in closed
    /// form: no encoding, no allocation.
    ///
    /// [`Wire::to_wire_bytes`] allocates exactly this much, and the network
    /// simulator charges it for every modelled message. An under-count
    /// would bring back growth reallocations, so `to_wire_bytes` checks it
    /// in debug builds.
    fn encoded_len(&self) -> usize;

    /// Encodes into a fresh buffer of exactly [`Wire::encoded_len`] bytes:
    /// one allocation, no growth. A caller that encodes repeatedly should
    /// instead keep one buffer and [`Wire::encode`] into it.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut buf = Vec::with_capacity(len);
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), len, "encoded_len must be exact");
        buf
    }
}

/// Runs `f` over the encoding of `value`, written into a scratch buffer
/// this thread keeps between calls. Hashing an encoding this way
/// allocates nothing once the buffer has grown to the largest value the
/// thread has encoded. A nested call, from inside `f`, encodes into a
/// buffer of its own.
pub fn with_encoding<T: Wire, R>(value: &T, f: impl FnOnce(&[u8]) -> R) -> R {
    thread_local! {
        static SCRATCH: core::cell::Cell<Vec<u8>> = const { core::cell::Cell::new(Vec::new()) };
    }
    let mut buf = SCRATCH.take();
    buf.clear();
    value.encode(&mut buf);
    let out = f(&buf);
    SCRATCH.set(buf);
    out
}

/// Decodes a value that must consume the entire buffer.
///
/// # Errors
///
/// Fails if decoding fails or trailing bytes remain.
pub fn decode_exact<T: Wire>(mut buf: &[u8]) -> Result<T, WireError> {
    let value = T::decode(&mut buf)?;
    if buf.is_empty() {
        Ok(value)
    } else {
        Err(WireError::InvalidValue("trailing bytes"))
    }
}

/// Splits the next `N` bytes off the front of `buf`.
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    let (head, tail) = buf.split_first_chunk::<N>().ok_or(WireError::UnexpectedEof)?;
    *buf = tail;
    Ok(*head)
}

macro_rules! impl_wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(take_array(buf)?))
            }
            fn encoded_len(&self) -> usize {
                core::mem::size_of::<$ty>()
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue("bool tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl<const LEN: usize> Wire for [u8; LEN] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        take_array(buf)
    }
    fn encoded_len(&self) -> usize {
        LEN
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(buf)? as usize;
        if len > MAX_SEQ_LEN {
            return Err(WireError::InvalidValue("sequence too long"));
        }
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(WireError::InvalidValue("option tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

// --- stream framing ---

/// Maximum payload length accepted in one length-prefixed frame (16 MiB).
///
/// Bounds allocation when framing data arrives from untrusted (Byzantine)
/// peers over a byte stream; `astro-net` enforces it on both directions.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Appends a length-prefixed frame containing `payload` to `buf`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — oversized frames are a
/// local logic error, never a remote input.
pub fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    (payload.len() as u32).encode(buf);
    buf.extend_from_slice(payload);
}

/// Inspects the front of `buf` for a frame header.
///
/// Returns `Ok(Some(payload_len))` once the 4-byte header is available,
/// `Ok(None)` if fewer than 4 bytes have arrived, and an error if the
/// advertised length exceeds [`MAX_FRAME_LEN`] (the peer is faulty or
/// Byzantine and the stream should be dropped).
pub fn peek_frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    let Some(&header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::InvalidValue("frame too large"));
    }
    Ok(Some(len))
}

/// Splits one complete frame off the front of `buf`, advancing it past the
/// header and payload.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] if the frame is still incomplete, or
/// [`WireError::InvalidValue`] if the advertised length is oversized.
pub fn take_frame<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = peek_frame_len(buf)?.ok_or(WireError::UnexpectedEof)?;
    if buf.len() < 4 + len {
        return Err(WireError::UnexpectedEof);
    }
    let payload = &buf[4..4 + len];
    *buf = &buf[4 + len..];
    Ok(payload)
}

// --- crypto types ---

// Decoding a signature checks ranges only (`Signature::from_bytes`): the
// thread that parses a frame does no curve arithmetic, and an R that is on
// no curve point fails verification later instead of the frame here.
impl Wire for astro_crypto::Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes: [u8; astro_crypto::schnorr::SIGNATURE_LEN] = Wire::decode(buf)?;
        astro_crypto::Signature::from_bytes(&bytes)
            .map_err(|_| WireError::InvalidValue("signature"))
    }
    fn encoded_len(&self) -> usize {
        astro_crypto::schnorr::SIGNATURE_LEN
    }
}

impl Wire for astro_crypto::PublicKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes: [u8; astro_crypto::schnorr::PUBLIC_KEY_LEN] = Wire::decode(buf)?;
        astro_crypto::PublicKey::from_bytes(&bytes)
            .map_err(|_| WireError::InvalidValue("public key"))
    }
    fn encoded_len(&self) -> usize {
        astro_crypto::schnorr::PUBLIC_KEY_LEN
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn int_round_trips() {
        let mut buf = Vec::new();
        7u8.encode(&mut buf);
        513u16.encode(&mut buf);
        0xdeadbeefu32.encode(&mut buf);
        u64::MAX.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(u8::decode(&mut s).unwrap(), 7);
        assert_eq!(u16::decode(&mut s).unwrap(), 513);
        assert_eq!(u32::decode(&mut s).unwrap(), 0xdeadbeef);
        assert_eq!(u64::decode(&mut s).unwrap(), u64::MAX);
        assert!(s.is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        let buf = [1u8, 2, 3];
        let mut s = &buf[..];
        assert_eq!(u64::decode(&mut s), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn bool_rejects_junk() {
        let mut s = &[7u8][..];
        assert!(matches!(bool::decode(&mut s), Err(WireError::InvalidValue(_))));
    }

    #[test]
    fn vec_round_trip_and_len() {
        let v = vec![1u64, 2, 3];
        let bytes = v.to_wire_bytes();
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(decode_exact::<Vec<u64>>(&bytes).unwrap(), v);
    }

    #[test]
    fn vec_rejects_huge_length_prefix() {
        let mut buf = Vec::new();
        (u32::MAX).encode(&mut buf);
        assert!(matches!(decode_exact::<Vec<u8>>(&buf), Err(WireError::InvalidValue(_))));
    }

    #[test]
    fn option_round_trip() {
        for v in [None, Some(99u32)] {
            let bytes = v.to_wire_bytes();
            assert_eq!(decode_exact::<Option<u32>>(&bytes).unwrap(), v);
            assert_eq!(bytes.len(), v.encoded_len());
        }
    }

    #[test]
    fn decode_exact_rejects_trailing() {
        let mut buf = Vec::new();
        5u8.encode(&mut buf);
        buf.push(0);
        assert!(decode_exact::<u8>(&buf).is_err());
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"hello");
        put_frame(&mut buf, b"");
        put_frame(&mut buf, &[7u8; 300]);
        let mut s = buf.as_slice();
        assert_eq!(take_frame(&mut s).unwrap(), b"hello");
        assert_eq!(take_frame(&mut s).unwrap(), b"");
        assert_eq!(take_frame(&mut s).unwrap(), &[7u8; 300][..]);
        assert!(s.is_empty());
    }

    #[test]
    fn truncated_frame_is_incomplete_not_fatal() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"payload");
        // Header only: peek knows the length, take reports EOF.
        assert_eq!(peek_frame_len(&buf[..4]).unwrap(), Some(7));
        let mut s = &buf[..buf.len() - 1];
        assert_eq!(take_frame(&mut s), Err(WireError::UnexpectedEof));
        // Partial header: not even a length yet.
        assert_eq!(peek_frame_len(&buf[..3]).unwrap(), None);
        let mut s = &buf[..3];
        assert_eq!(take_frame(&mut s), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut buf = Vec::new();
        ((MAX_FRAME_LEN + 1) as u32).encode(&mut buf);
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(peek_frame_len(&buf), Err(WireError::InvalidValue(_))));
        let mut s = buf.as_slice();
        assert!(matches!(take_frame(&mut s), Err(WireError::InvalidValue(_))));
    }

    #[test]
    #[should_panic(expected = "frame payload too large")]
    fn put_frame_refuses_oversized_payload() {
        let mut buf = Vec::new();
        put_frame(&mut buf, &vec![0u8; MAX_FRAME_LEN + 1]);
    }

    #[test]
    fn signature_round_trip() {
        let kp = astro_crypto::Keypair::from_seed(b"wire");
        let sig = kp.sign(b"msg");
        let bytes = sig.to_wire_bytes();
        assert_eq!(bytes.len(), sig.encoded_len());
        let back: astro_crypto::Signature = decode_exact(&bytes).unwrap();
        assert!(kp.public().verify(b"msg", &back));
    }

    #[test]
    fn public_key_round_trip() {
        let kp = astro_crypto::Keypair::from_seed(b"wire-pk");
        let bytes = kp.public().to_wire_bytes();
        let back: astro_crypto::PublicKey = decode_exact(&bytes).unwrap();
        assert_eq!(back, *kp.public());
    }

    #[test]
    fn garbage_signature_rejected() {
        let garbage = [0xffu8; astro_crypto::schnorr::SIGNATURE_LEN];
        let mut s = &garbage[..];
        assert!(astro_crypto::Signature::decode(&mut s).is_err());
    }
}
