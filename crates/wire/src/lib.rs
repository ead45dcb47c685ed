//! Multipath QUIC wire format.
//!
//! This crate implements the byte-level encoding of Multipath QUIC packets
//! as designed in *Multipath QUIC: Design and Evaluation* (CoNEXT 2017):
//!
//! * a small unencrypted **public header** carrying the flags, Connection
//!   ID, the explicit **Path ID** (the paper's key header addition) and the
//!   **per-path packet number**;
//! * an encrypted payload made of **frames**. Frames are independent of the
//!   packets that carry them — the property the paper exploits to let the
//!   scheduler place (re)transmissions and control frames on any path.
//!
//! The frame set contains the gQUIC-era frames the paper builds on
//! ([`Frame::Stream`], [`Frame::Ack`], [`Frame::WindowUpdate`], ...) plus
//! the two frames the paper introduces: [`Frame::AddAddress`] and
//! [`Frame::Paths`].
//!
//! The layout is a varint-based simplification of the 2017 gQUIC bit
//! layout (see DESIGN.md §8) but preserves every field the paper's
//! mechanisms rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod header;
pub mod packet;

pub use frame::{AckFrame, AddressInfo, Frame, FrameType, PathInfo, PathStatus, StreamFrame};
pub use header::{PacketType, PathId, PublicHeader};
pub use packet::{Packet, PacketBuilder};

/// Errors produced while decoding wire data.
///
/// Every decode path in this crate is total: malformed or truncated input
/// yields a `DecodeError`, never a panic. The `cargo xtask lint` no-panic
/// pass enforces this at the source level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before a complete field was read.
    UnexpectedEnd,
    /// Unknown frame type byte.
    UnknownFrame(u64),
    /// Unknown packet type in the public header flags.
    UnknownPacketType(u8),
    /// A length or count field exceeded a protocol limit.
    LimitExceeded(&'static str),
    /// A field had a semantically invalid value.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of buffer"),
            DecodeError::UnknownFrame(t) => write!(f, "unknown frame type {t:#x}"),
            DecodeError::UnknownPacketType(t) => write!(f, "unknown packet type {t:#x}"),
            DecodeError::LimitExceeded(what) => write!(f, "limit exceeded: {what}"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<mpquic_util::varint::VarintError> for DecodeError {
    fn from(e: mpquic_util::varint::VarintError) -> Self {
        match e {
            mpquic_util::varint::VarintError::UnexpectedEnd => DecodeError::UnexpectedEnd,
            mpquic_util::varint::VarintError::ValueTooLarge => {
                DecodeError::LimitExceeded("varint value")
            }
        }
    }
}

/// Writes `value` as a varint, assuming the caller has respected the
/// `MAX_VARINT` range contract (all protocol fields — packet numbers,
/// offsets, lengths — are bounded well below `2^62`). Debug builds assert
/// the contract; release builds clamp rather than panic, because encode
/// paths run in the packetizer hot loop of a long-lived process.
pub(crate) fn put_varint<B: bytes::BufMut>(buf: &mut B, value: u64) {
    use mpquic_util::varint::{encode_varint, MAX_VARINT};
    debug_assert!(value <= MAX_VARINT, "varint out of range: {value}");
    let clamped = value.min(MAX_VARINT);
    // Infallible after clamping; the Err arm is unreachable by construction.
    let _ = encode_varint(buf, clamped);
}

/// Maximum UDP datagram payload we produce (conservative Internet-safe MTU
/// minus IP/UDP headers, matching quic-go's default of the era).
pub const MAX_DATAGRAM_SIZE: usize = 1350;

/// Maximum number of ACK ranges a single ACK frame may carry.
///
/// The paper: "the ACK frame ... can acknowledge up to 256 packet number
/// ranges. This is much larger than the 2-3 blocks than can be acknowledged
/// with the SACK TCP option".
pub const MAX_ACK_RANGES: usize = 256;

/// Size in bytes of the AEAD authentication tag appended to every encrypted
/// payload (see `mpquic-crypto`).
pub const AEAD_TAG_SIZE: usize = 8;
