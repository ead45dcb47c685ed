//! Frames: the units of control and data carried inside encrypted packet
//! payloads.
//!
//! A core property the paper builds on: *"frames are independent of the
//! packets containing them, they are not constrained to a particular
//! path"*. A frame lost in a packet on one path can be retransmitted inside
//! a new packet on any other path. This module therefore keeps frames fully
//! self-describing.
//!
//! Besides the gQUIC-era frames, two frames are introduced by the paper:
//!
//! * [`Frame::AddAddress`] — advertises an address owned by the sending
//!   host (e.g. a dual-stack server's IPv6 address over an IPv4-initiated
//!   connection). Encrypted, so it avoids the security concerns of MPTCP's
//!   cleartext `ADD_ADDR` option.
//! * [`Frame::Paths`] — shares the sender's view of its active paths and
//!   their performance (estimated RTT, liveness) so the peer can detect
//!   underperforming or broken paths; used to accelerate handover (§4.3).

use bytes::{Buf, BufMut, Bytes};
use mpquic_util::varint::{decode_varint, varint_size};
use mpquic_util::RangeSet;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use crate::header::PathId;
use crate::{put_varint, DecodeError, MAX_ACK_RANGES};

/// Frame type identifiers on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum FrameType {
    /// Single padding byte.
    Padding = 0x00,
    /// Liveness probe; elicits an ACK.
    Ping = 0x01,
    /// Per-path acknowledgement.
    Ack = 0x02,
    /// Flow-control credit for a stream (or the connection when stream 0).
    WindowUpdate = 0x03,
    /// Sender is blocked by flow control.
    Blocked = 0x04,
    /// Abrupt stream termination.
    RstStream = 0x05,
    /// Connection termination.
    ConnectionClose = 0x06,
    /// Handshake bytes (the gQUIC crypto stream, as its own frame).
    Crypto = 0x07,
    /// Stream data without FIN.
    Stream = 0x08,
    /// Stream data with FIN (final frame of the stream).
    StreamFin = 0x09,
    /// Advertise an owned address (paper §3, Path Management).
    AddAddress = 0x10,
    /// Share active-path statistics (paper §3 / §4.3 handover).
    Paths = 0x11,
    /// Probe a (possibly rebound) path with an unguessable token.
    PathChallenge = 0x12,
    /// Echo a PATH_CHALLENGE token, proving the address can receive.
    PathResponse = 0x13,
    /// Issue a fresh connection ID the peer may switch to.
    NewConnectionId = 0x14,
    /// Retire a previously issued connection ID.
    RetireConnectionId = 0x15,
}

impl FrameType {
    fn from_u64(v: u64) -> Option<FrameType> {
        Some(match v {
            0x00 => FrameType::Padding,
            0x01 => FrameType::Ping,
            0x02 => FrameType::Ack,
            0x03 => FrameType::WindowUpdate,
            0x04 => FrameType::Blocked,
            0x05 => FrameType::RstStream,
            0x06 => FrameType::ConnectionClose,
            0x07 => FrameType::Crypto,
            0x08 => FrameType::Stream,
            0x09 => FrameType::StreamFin,
            0x10 => FrameType::AddAddress,
            0x11 => FrameType::Paths,
            0x12 => FrameType::PathChallenge,
            0x13 => FrameType::PathResponse,
            0x14 => FrameType::NewConnectionId,
            0x15 => FrameType::RetireConnectionId,
            _ => return None,
        })
    }

    /// The frame kind's wire-format name (telemetry's
    /// `frame_retransmitted.kind` field and log output).
    pub fn name(self) -> &'static str {
        match self {
            FrameType::Padding => "PADDING",
            FrameType::Ping => "PING",
            FrameType::Ack => "ACK",
            FrameType::WindowUpdate => "WINDOW_UPDATE",
            FrameType::Blocked => "BLOCKED",
            FrameType::RstStream => "RST_STREAM",
            FrameType::ConnectionClose => "CONNECTION_CLOSE",
            FrameType::Crypto => "CRYPTO",
            FrameType::Stream => "STREAM",
            FrameType::StreamFin => "STREAM_FIN",
            FrameType::AddAddress => "ADD_ADDRESS",
            FrameType::Paths => "PATHS",
            FrameType::PathChallenge => "PATH_CHALLENGE",
            FrameType::PathResponse => "PATH_RESPONSE",
            FrameType::NewConnectionId => "NEW_CONNECTION_ID",
            FrameType::RetireConnectionId => "RETIRE_CONNECTION_ID",
        }
    }
}

/// Stream data frame: `(stream id, offset, data, fin)` — everything a
/// receiver needs to reorder data arriving over different paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// Stream identifier.
    pub stream_id: u64,
    /// Byte offset of `data` within the stream.
    pub offset: u64,
    /// Payload bytes.
    pub data: Bytes,
    /// True if this frame ends the stream.
    pub fin: bool,
}

impl StreamFrame {
    /// Encoded size including the type byte.
    pub fn wire_size(&self) -> usize {
        1 + varint_size(self.stream_id)
            + varint_size(self.offset)
            + varint_size(self.data.len() as u64)
            + self.data.len()
    }

    /// Overhead of a stream frame before any payload byte, for packetizers
    /// deciding how much data fits.
    pub fn overhead(stream_id: u64, offset: u64, max_len: usize) -> usize {
        1 + varint_size(stream_id) + varint_size(offset) + varint_size(max_len as u64)
    }
}

/// Per-path acknowledgement frame.
///
/// Carries the Path ID of the packet-number space being acknowledged, so an
/// ACK for path 2's packets may travel on any path. Up to
/// [`MAX_ACK_RANGES`] disjoint ranges are reported — the mechanism that
/// makes QUIC loss recovery so much more informed than TCP SACK's 2–3
/// blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckFrame {
    /// Which path's packet-number space is acknowledged.
    pub path_id: PathId,
    /// Largest packet number received on that path.
    pub largest_acked: u64,
    /// Time between receiving `largest_acked` and sending this ACK, in
    /// microseconds; lets the peer subtract host delay from RTT samples.
    pub ack_delay_micros: u64,
    /// Acknowledged ranges, descending, inclusive `(start, end)` pairs.
    /// `ranges[0].1 == largest_acked`.
    pub ranges: Vec<(u64, u64)>,
}

impl AckFrame {
    /// Builds an ACK frame from a receiver's [`RangeSet`], keeping only the
    /// newest [`MAX_ACK_RANGES`] ranges.
    ///
    /// Returns `None` if the set is empty.
    pub fn from_range_set(
        path_id: PathId,
        received: &RangeSet,
        ack_delay_micros: u64,
    ) -> Option<AckFrame> {
        Self::from_range_set_capped(path_id, received, ack_delay_micros, MAX_ACK_RANGES)
    }

    /// [`AckFrame::from_range_set`] with an explicit range cap — used by
    /// the `ablate_ack_ranges` experiment to give QUIC TCP-SACK-like
    /// 3-block acking and measure what the 256-range frame buys.
    pub fn from_range_set_capped(
        path_id: PathId,
        received: &RangeSet,
        ack_delay_micros: u64,
        cap: usize,
    ) -> Option<AckFrame> {
        if received.is_empty() {
            return None;
        }
        let mut ranges: Vec<(u64, u64)> = received
            .iter_descending()
            .take(cap.clamp(1, MAX_ACK_RANGES))
            .map(|r| (*r.start(), *r.end()))
            .collect();
        ranges.shrink_to_fit();
        let largest_acked = ranges.first()?.1;
        Some(AckFrame {
            path_id,
            largest_acked,
            ack_delay_micros,
            ranges,
        })
    }

    /// Iterates acknowledged packet numbers as ascending ranges.
    pub fn iter_ranges_ascending(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().rev().copied()
    }

    /// Smallest acknowledged packet number.
    pub fn smallest_acked(&self) -> u64 {
        self.ranges
            .last()
            .map(|&(s, _)| s)
            .unwrap_or(self.largest_acked)
    }

    /// Encoded size including the type byte.
    ///
    /// A structurally empty ACK (no ranges — unreachable through
    /// [`AckFrame::from_range_set`]) has size 0, matching the zero bytes
    /// `AckFrame::encode` emits for it.
    pub fn wire_size(&self) -> usize {
        let Some(&(first_start, first_end)) = self.ranges.first() else {
            return 0;
        };
        let mut size = 1
            + varint_size(u64::from(self.path_id.0))
            + varint_size(self.largest_acked)
            + varint_size(self.ack_delay_micros)
            + varint_size(self.ranges.len() as u64 - 1)
            + varint_size(first_end - first_start);
        let mut prev_start = first_start;
        for &(start, end) in self.ranges.iter().skip(1) {
            size += varint_size(prev_start - end - 2) + varint_size(end - start);
            prev_start = start;
        }
        size
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        let Some(&(first_start, first_end)) = self.ranges.first() else {
            debug_assert!(false, "encoding an ACK frame with no ranges");
            return;
        };
        debug_assert_eq!(first_end, self.largest_acked);
        buf.put_u8(FrameType::Ack as u8);
        put_varint(buf, u64::from(self.path_id.0));
        put_varint(buf, self.largest_acked);
        put_varint(buf, self.ack_delay_micros);
        put_varint(buf, self.ranges.len() as u64 - 1);
        // First range length.
        put_varint(buf, first_end - first_start);
        let mut prev_start = first_start;
        for &(start, end) in self.ranges.iter().skip(1) {
            debug_assert!(
                end < prev_start.saturating_sub(1),
                "ranges must be disjoint, descending"
            );
            // Gap: unacked packets between ranges, minus one (RFC 9000 style).
            put_varint(buf, prev_start - end - 2);
            put_varint(buf, end - start);
            prev_start = start;
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<AckFrame, DecodeError> {
        let raw_path = decode_varint(buf)?;
        let path_id =
            PathId(u32::try_from(raw_path).map_err(|_| DecodeError::LimitExceeded("ack path id"))?);
        let largest_acked = decode_varint(buf)?;
        let ack_delay_micros = decode_varint(buf)?;
        let extra_ranges = decode_varint(buf)?;
        if extra_ranges as usize >= MAX_ACK_RANGES {
            return Err(DecodeError::LimitExceeded("ack range count"));
        }
        let first_len = decode_varint(buf)?;
        if first_len > largest_acked {
            return Err(DecodeError::Invalid("ack first range underflow"));
        }
        let mut ranges = Vec::with_capacity(extra_ranges as usize + 1);
        ranges.push((largest_acked - first_len, largest_acked));
        let mut prev_start = largest_acked - first_len;
        for _ in 0..extra_ranges {
            let gap = decode_varint(buf)?;
            let len = decode_varint(buf)?;
            let end = prev_start
                .checked_sub(gap + 2)
                .ok_or(DecodeError::Invalid("ack gap underflow"))?;
            let start = end
                .checked_sub(len)
                .ok_or(DecodeError::Invalid("ack range underflow"))?;
            ranges.push((start, end));
            prev_start = start;
        }
        Ok(AckFrame {
            path_id,
            largest_acked,
            ack_delay_micros,
            ranges,
        })
    }
}

/// Liveness / performance status of a path as reported in a PATHS frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathStatus {
    /// Path is believed usable.
    Active = 0,
    /// Path experienced an RTO with no activity since — the sender will
    /// avoid it until traffic is acknowledged on it again (paper §4.3).
    PotentiallyFailed = 1,
    /// Path has been abandoned.
    Closed = 2,
}

impl PathStatus {
    fn from_u8(v: u8) -> Option<PathStatus> {
        Some(match v {
            0 => PathStatus::Active,
            1 => PathStatus::PotentiallyFailed,
            2 => PathStatus::Closed,
            _ => return None,
        })
    }
}

/// One path's entry inside a [`Frame::Paths`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathInfo {
    /// The path being described.
    pub path_id: PathId,
    /// Sender's view of the path's liveness.
    pub status: PathStatus,
    /// Sender's smoothed RTT estimate for the path, microseconds
    /// (`u64::MAX` = unknown).
    pub srtt_micros: u64,
}

/// Maximum number of entries in a PATHS frame.
pub const MAX_PATHS_ENTRIES: usize = 64;

/// Sentinel `srtt_micros` value meaning "RTT not yet measured" (the
/// largest encodable varint).
pub const SRTT_UNKNOWN: u64 = mpquic_util::varint::MAX_VARINT;

/// An address advertisement inside a [`Frame::AddAddress`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressInfo {
    /// Sender-chosen identifier for the address (stable across readvertisement).
    pub address_id: u64,
    /// The advertised socket address.
    pub addr: SocketAddr,
}

/// Maximum CONNECTION_CLOSE reason length we accept.
const MAX_REASON_LEN: usize = 512;

/// A decoded (or to-be-encoded) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `len` padding bytes (consecutive padding bytes decode as one frame).
    Padding {
        /// Number of padding bytes.
        len: usize,
    },
    /// Liveness probe.
    Ping,
    /// Per-path acknowledgement.
    Ack(AckFrame),
    /// Stream data.
    Stream(StreamFrame),
    /// Flow-control window advertisement. `stream_id == 0` advertises the
    /// connection-level window (gQUIC convention); the paper's scheduler
    /// duplicates these on **all** paths to avoid receive-buffer stalls.
    WindowUpdate {
        /// Stream the credit applies to; 0 for the connection window.
        stream_id: u64,
        /// New absolute flow-control limit in bytes.
        max_data: u64,
    },
    /// The sender has data but is blocked by flow control.
    Blocked {
        /// Blocked stream; 0 for the connection window.
        stream_id: u64,
    },
    /// Abrupt stream reset.
    RstStream {
        /// Stream being reset.
        stream_id: u64,
        /// Application error code.
        error_code: u64,
        /// Final length of the stream in bytes (for flow-control accounting).
        final_offset: u64,
    },
    /// Connection termination with a reason.
    ConnectionClose {
        /// Transport or application error code.
        error_code: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Handshake bytes at an offset within the crypto stream.
    Crypto {
        /// Offset within the handshake byte stream.
        offset: u64,
        /// Handshake payload.
        data: Bytes,
    },
    /// Advertise an owned address (paper's new frame).
    AddAddress(AddressInfo),
    /// Share per-path statistics (paper's new frame).
    Paths(
        /// Entries, one per path the sender considers part of the connection.
        Vec<PathInfo>,
    ),
    /// Probe a rebound path: the receiver must echo `token` in a
    /// PATH_RESPONSE before the sender resumes data on that address.
    PathChallenge {
        /// Unguessable 64-bit token (fixed 8 bytes on the wire).
        token: u64,
    },
    /// Echo of a PATH_CHALLENGE token. May ride any path; what it
    /// validates is the address the challenge was sent to.
    PathResponse {
        /// The token being echoed.
        token: u64,
    },
    /// Issue a fresh connection ID the peer should migrate to (CID
    /// rotation after a validated migration).
    NewConnectionId {
        /// Monotonic issue sequence number.
        sequence: u64,
        /// The new connection ID (fixed 8 bytes on the wire).
        cid: u64,
    },
    /// Tell the issuer a connection ID is no longer in use.
    RetireConnectionId {
        /// The issue sequence number being retired.
        sequence: u64,
    },
}

impl Frame {
    /// The frame's wire type.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Padding { .. } => FrameType::Padding,
            Frame::Ping => FrameType::Ping,
            Frame::Ack(_) => FrameType::Ack,
            Frame::Stream(s) if s.fin => FrameType::StreamFin,
            Frame::Stream(_) => FrameType::Stream,
            Frame::WindowUpdate { .. } => FrameType::WindowUpdate,
            Frame::Blocked { .. } => FrameType::Blocked,
            Frame::RstStream { .. } => FrameType::RstStream,
            Frame::ConnectionClose { .. } => FrameType::ConnectionClose,
            Frame::Crypto { .. } => FrameType::Crypto,
            Frame::AddAddress(_) => FrameType::AddAddress,
            Frame::Paths(_) => FrameType::Paths,
            Frame::PathChallenge { .. } => FrameType::PathChallenge,
            Frame::PathResponse { .. } => FrameType::PathResponse,
            Frame::NewConnectionId { .. } => FrameType::NewConnectionId,
            Frame::RetireConnectionId { .. } => FrameType::RetireConnectionId,
        }
    }

    /// True for frames that must be delivered reliably (retransmitted if
    /// the carrying packet is lost). ACKs and padding are not
    /// retransmittable; everything else is.
    pub fn is_retransmittable(&self) -> bool {
        !matches!(self, Frame::Padding { .. } | Frame::Ack(_))
    }

    /// Encoded size in bytes, including the type byte.
    pub fn wire_size(&self) -> usize {
        match self {
            Frame::Padding { len } => *len,
            Frame::Ping => 1,
            Frame::Ack(ack) => ack.wire_size(),
            Frame::Stream(s) => s.wire_size(),
            Frame::WindowUpdate {
                stream_id,
                max_data,
            } => 1 + varint_size(*stream_id) + varint_size(*max_data),
            Frame::Blocked { stream_id } => 1 + varint_size(*stream_id),
            Frame::RstStream {
                stream_id,
                error_code,
                final_offset,
            } => {
                1 + varint_size(*stream_id) + varint_size(*error_code) + varint_size(*final_offset)
            }
            Frame::ConnectionClose { error_code, reason } => {
                1 + varint_size(*error_code) + varint_size(reason.len() as u64) + reason.len()
            }
            Frame::Crypto { offset, data } => {
                1 + varint_size(*offset) + varint_size(data.len() as u64) + data.len()
            }
            Frame::AddAddress(info) => {
                let ip_len = match info.addr.ip() {
                    IpAddr::V4(_) => 4,
                    IpAddr::V6(_) => 16,
                };
                1 + varint_size(info.address_id) + 1 + ip_len + 2
            }
            Frame::Paths(paths) => {
                1 + varint_size(paths.len() as u64)
                    + paths
                        .iter()
                        .map(|p| {
                            varint_size(u64::from(p.path_id.0)) + 1 + varint_size(p.srtt_micros)
                        })
                        .sum::<usize>()
            }
            Frame::PathChallenge { .. } | Frame::PathResponse { .. } => 1 + 8,
            Frame::NewConnectionId { sequence, .. } => 1 + varint_size(*sequence) + 8,
            Frame::RetireConnectionId { sequence } => 1 + varint_size(*sequence),
        }
    }

    /// Encodes the frame into `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Frame::Padding { len } => {
                for _ in 0..*len {
                    buf.put_u8(FrameType::Padding as u8);
                }
            }
            Frame::Ping => buf.put_u8(FrameType::Ping as u8),
            Frame::Ack(ack) => ack.encode(buf),
            Frame::Stream(s) => {
                buf.put_u8(if s.fin {
                    FrameType::StreamFin as u8
                } else {
                    FrameType::Stream as u8
                });
                put_varint(buf, s.stream_id);
                put_varint(buf, s.offset);
                put_varint(buf, s.data.len() as u64);
                buf.put_slice(&s.data);
            }
            Frame::WindowUpdate {
                stream_id,
                max_data,
            } => {
                buf.put_u8(FrameType::WindowUpdate as u8);
                put_varint(buf, *stream_id);
                put_varint(buf, *max_data);
            }
            Frame::Blocked { stream_id } => {
                buf.put_u8(FrameType::Blocked as u8);
                put_varint(buf, *stream_id);
            }
            Frame::RstStream {
                stream_id,
                error_code,
                final_offset,
            } => {
                buf.put_u8(FrameType::RstStream as u8);
                put_varint(buf, *stream_id);
                put_varint(buf, *error_code);
                put_varint(buf, *final_offset);
            }
            Frame::ConnectionClose { error_code, reason } => {
                buf.put_u8(FrameType::ConnectionClose as u8);
                put_varint(buf, *error_code);
                put_varint(buf, reason.len() as u64);
                buf.put_slice(reason.as_bytes());
            }
            Frame::Crypto { offset, data } => {
                buf.put_u8(FrameType::Crypto as u8);
                put_varint(buf, *offset);
                put_varint(buf, data.len() as u64);
                buf.put_slice(data);
            }
            Frame::AddAddress(info) => {
                buf.put_u8(FrameType::AddAddress as u8);
                put_varint(buf, info.address_id);
                match info.addr.ip() {
                    IpAddr::V4(ip) => {
                        buf.put_u8(4);
                        buf.put_slice(&ip.octets());
                    }
                    IpAddr::V6(ip) => {
                        buf.put_u8(6);
                        buf.put_slice(&ip.octets());
                    }
                }
                buf.put_u16(info.addr.port());
            }
            Frame::Paths(paths) => {
                debug_assert!(paths.len() <= MAX_PATHS_ENTRIES);
                buf.put_u8(FrameType::Paths as u8);
                put_varint(buf, paths.len() as u64);
                for p in paths {
                    put_varint(buf, u64::from(p.path_id.0));
                    buf.put_u8(p.status as u8);
                    put_varint(buf, p.srtt_micros);
                }
            }
            Frame::PathChallenge { token } => {
                buf.put_u8(FrameType::PathChallenge as u8);
                buf.put_u64(*token);
            }
            Frame::PathResponse { token } => {
                buf.put_u8(FrameType::PathResponse as u8);
                buf.put_u64(*token);
            }
            Frame::NewConnectionId { sequence, cid } => {
                buf.put_u8(FrameType::NewConnectionId as u8);
                put_varint(buf, *sequence);
                buf.put_u64(*cid);
            }
            Frame::RetireConnectionId { sequence } => {
                buf.put_u8(FrameType::RetireConnectionId as u8);
                put_varint(buf, *sequence);
            }
        }
    }

    /// Decodes one frame from the front of `buf` (consecutive padding bytes
    /// collapse into a single `Padding` frame).
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Frame, DecodeError> {
        let Some(&first) = buf.chunk().first() else {
            return Err(DecodeError::UnexpectedEnd);
        };
        let type_byte = u64::from(first);
        let frame_type =
            FrameType::from_u64(type_byte).ok_or(DecodeError::UnknownFrame(type_byte))?;
        buf.advance(1);
        Ok(match frame_type {
            FrameType::Padding => {
                let mut len = 1;
                while buf.chunk().first() == Some(&(FrameType::Padding as u8)) {
                    buf.advance(1);
                    len += 1;
                }
                Frame::Padding { len }
            }
            FrameType::Ping => Frame::Ping,
            FrameType::Ack => Frame::Ack(AckFrame::decode(buf)?),
            FrameType::Stream | FrameType::StreamFin => {
                let stream_id = decode_varint(buf)?;
                let offset = decode_varint(buf)?;
                let len = decode_varint(buf)? as usize;
                if buf.remaining() < len {
                    return Err(DecodeError::UnexpectedEnd);
                }
                let data = buf.copy_to_bytes(len);
                Frame::Stream(StreamFrame {
                    stream_id,
                    offset,
                    data,
                    fin: frame_type == FrameType::StreamFin,
                })
            }
            FrameType::WindowUpdate => Frame::WindowUpdate {
                stream_id: decode_varint(buf)?,
                max_data: decode_varint(buf)?,
            },
            FrameType::Blocked => Frame::Blocked {
                stream_id: decode_varint(buf)?,
            },
            FrameType::RstStream => Frame::RstStream {
                stream_id: decode_varint(buf)?,
                error_code: decode_varint(buf)?,
                final_offset: decode_varint(buf)?,
            },
            FrameType::ConnectionClose => {
                let error_code = decode_varint(buf)?;
                let len = decode_varint(buf)? as usize;
                if len > MAX_REASON_LEN {
                    return Err(DecodeError::LimitExceeded("close reason length"));
                }
                if buf.remaining() < len {
                    return Err(DecodeError::UnexpectedEnd);
                }
                let bytes = buf.copy_to_bytes(len);
                let reason = String::from_utf8(bytes.to_vec())
                    .map_err(|_| DecodeError::Invalid("close reason utf-8"))?;
                Frame::ConnectionClose { error_code, reason }
            }
            FrameType::Crypto => {
                let offset = decode_varint(buf)?;
                let len = decode_varint(buf)? as usize;
                if buf.remaining() < len {
                    return Err(DecodeError::UnexpectedEnd);
                }
                Frame::Crypto {
                    offset,
                    data: buf.copy_to_bytes(len),
                }
            }
            FrameType::AddAddress => {
                let address_id = decode_varint(buf)?;
                if buf.remaining() < 1 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                let version = buf.get_u8();
                let ip: IpAddr = if version == 4 {
                    if buf.remaining() < 4 {
                        return Err(DecodeError::UnexpectedEnd);
                    }
                    let mut octets = [0u8; 4];
                    buf.copy_to_slice(&mut octets);
                    IpAddr::V4(Ipv4Addr::from(octets))
                } else if version == 6 {
                    if buf.remaining() < 16 {
                        return Err(DecodeError::UnexpectedEnd);
                    }
                    let mut octets = [0u8; 16];
                    buf.copy_to_slice(&mut octets);
                    IpAddr::V6(Ipv6Addr::from(octets))
                } else {
                    return Err(DecodeError::Invalid("address version"));
                };
                if buf.remaining() < 2 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                let port = buf.get_u16();
                Frame::AddAddress(AddressInfo {
                    address_id,
                    addr: SocketAddr::new(ip, port),
                })
            }
            FrameType::Paths => {
                let count = decode_varint(buf)? as usize;
                if count > MAX_PATHS_ENTRIES {
                    return Err(DecodeError::LimitExceeded("paths entry count"));
                }
                let mut paths = Vec::with_capacity(count);
                for _ in 0..count {
                    let raw_id = decode_varint(buf)?;
                    let path_id = PathId(
                        u32::try_from(raw_id).map_err(|_| DecodeError::LimitExceeded("path id"))?,
                    );
                    if buf.remaining() < 1 {
                        return Err(DecodeError::UnexpectedEnd);
                    }
                    let status = PathStatus::from_u8(buf.get_u8())
                        .ok_or(DecodeError::Invalid("path status"))?;
                    let srtt_micros = decode_varint(buf)?;
                    paths.push(PathInfo {
                        path_id,
                        status,
                        srtt_micros,
                    });
                }
                Frame::Paths(paths)
            }
            FrameType::PathChallenge => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                Frame::PathChallenge {
                    token: buf.get_u64(),
                }
            }
            FrameType::PathResponse => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                Frame::PathResponse {
                    token: buf.get_u64(),
                }
            }
            FrameType::NewConnectionId => {
                let sequence = decode_varint(buf)?;
                if buf.remaining() < 8 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                Frame::NewConnectionId {
                    sequence,
                    cid: buf.get_u64(),
                }
            }
            FrameType::RetireConnectionId => Frame::RetireConnectionId {
                sequence: decode_varint(buf)?,
            },
        })
    }

    /// Decodes all frames in a payload buffer.
    pub fn decode_all(mut payload: &[u8]) -> Result<Vec<Frame>, DecodeError> {
        let mut frames = Vec::new();
        while payload.remaining() > 0 {
            frames.push(Frame::decode(&mut payload)?);
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        assert_eq!(
            buf.len(),
            frame.wire_size(),
            "wire_size mismatch for {frame:?}"
        );
        let mut read = buf.freeze();
        let decoded = Frame::decode(&mut read).unwrap();
        assert_eq!(read.remaining(), 0, "leftover bytes for {frame:?}");
        decoded
    }

    #[test]
    fn ping_and_padding() {
        assert_eq!(round_trip(&Frame::Ping), Frame::Ping);
        assert_eq!(
            round_trip(&Frame::Padding { len: 5 }),
            Frame::Padding { len: 5 }
        );
    }

    #[test]
    fn stream_frame_round_trip() {
        for fin in [false, true] {
            let frame = Frame::Stream(StreamFrame {
                stream_id: 3,
                offset: 70_000,
                data: Bytes::from_static(b"hello multipath"),
                fin,
            });
            assert_eq!(round_trip(&frame), frame);
        }
    }

    #[test]
    fn ack_single_range() {
        let frame = Frame::Ack(AckFrame {
            path_id: PathId(2),
            largest_acked: 10,
            ack_delay_micros: 250,
            ranges: vec![(5, 10)],
        });
        assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn ack_multiple_ranges() {
        // Acked: 20-25, 10-14, 3, 0-1 (descending).
        let frame = Frame::Ack(AckFrame {
            path_id: PathId::INITIAL,
            largest_acked: 25,
            ack_delay_micros: 0,
            ranges: vec![(20, 25), (10, 14), (3, 3), (0, 1)],
        });
        assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn ack_from_range_set_caps_ranges() {
        let mut set = RangeSet::new();
        for i in 0..300u64 {
            set.insert(i * 3); // 300 disjoint singleton ranges
        }
        let ack = AckFrame::from_range_set(PathId(1), &set, 7).unwrap();
        assert_eq!(ack.ranges.len(), MAX_ACK_RANGES);
        assert_eq!(ack.largest_acked, 299 * 3);
        // The *newest* (largest) ranges are kept.
        assert_eq!(ack.smallest_acked(), (300 - 256) as u64 * 3);
        assert_eq!(ack.ack_delay_micros, 7);
    }

    #[test]
    fn ack_from_empty_set_is_none() {
        assert!(AckFrame::from_range_set(PathId(1), &RangeSet::new(), 0).is_none());
    }

    #[test]
    fn window_update_and_blocked() {
        let wu = Frame::WindowUpdate {
            stream_id: 0,
            max_data: 16 << 20,
        };
        assert_eq!(round_trip(&wu), wu);
        let b = Frame::Blocked { stream_id: 9 };
        assert_eq!(round_trip(&b), b);
    }

    #[test]
    fn rst_and_close() {
        let rst = Frame::RstStream {
            stream_id: 5,
            error_code: 404,
            final_offset: 1_000_000,
        };
        assert_eq!(round_trip(&rst), rst);
        let close = Frame::ConnectionClose {
            error_code: 1,
            reason: "going away".into(),
        };
        assert_eq!(round_trip(&close), close);
    }

    #[test]
    fn crypto_frame() {
        let frame = Frame::Crypto {
            offset: 42,
            data: Bytes::from_static(b"CHLO..."),
        };
        assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn add_address_v4_and_v6() {
        let v4 = Frame::AddAddress(AddressInfo {
            address_id: 1,
            addr: "192.0.2.10:443".parse().unwrap(),
        });
        assert_eq!(round_trip(&v4), v4);
        let v6 = Frame::AddAddress(AddressInfo {
            address_id: 2,
            addr: "[2001:db8::1]:8443".parse().unwrap(),
        });
        assert_eq!(round_trip(&v6), v6);
    }

    #[test]
    fn paths_frame() {
        let frame = Frame::Paths(vec![
            PathInfo {
                path_id: PathId::INITIAL,
                status: PathStatus::PotentiallyFailed,
                srtt_micros: 15_000,
            },
            PathInfo {
                path_id: PathId(1),
                status: PathStatus::Active,
                srtt_micros: 25_000,
            },
        ]);
        assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn path_challenge_and_response() {
        let ch = Frame::PathChallenge {
            token: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(round_trip(&ch), ch);
        let resp = Frame::PathResponse { token: u64::MAX };
        assert_eq!(round_trip(&resp), resp);
        assert!(ch.is_retransmittable());
        assert!(resp.is_retransmittable());
    }

    #[test]
    fn cid_rotation_frames() {
        let issue = Frame::NewConnectionId {
            sequence: 3,
            cid: 0x1234_5678_9ABC_DEF0,
        };
        assert_eq!(round_trip(&issue), issue);
        let retire = Frame::RetireConnectionId { sequence: 3 };
        assert_eq!(round_trip(&retire), retire);
        assert!(issue.is_retransmittable());
        assert!(retire.is_retransmittable());
    }

    #[test]
    fn retransmittability() {
        assert!(!Frame::Padding { len: 1 }.is_retransmittable());
        assert!(!Frame::Ack(AckFrame {
            path_id: PathId(0),
            largest_acked: 0,
            ack_delay_micros: 0,
            ranges: vec![(0, 0)],
        })
        .is_retransmittable());
        assert!(Frame::Ping.is_retransmittable());
        assert!(Frame::WindowUpdate {
            stream_id: 0,
            max_data: 1
        }
        .is_retransmittable());
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let mut buf: &[u8] = &[0xFF];
        assert_eq!(
            Frame::decode(&mut buf),
            Err(DecodeError::UnknownFrame(0xFF))
        );
    }

    #[test]
    fn decode_all_sequence() {
        let mut buf = BytesMut::new();
        Frame::Ping.encode(&mut buf);
        Frame::Padding { len: 3 }.encode(&mut buf);
        Frame::Blocked { stream_id: 1 }.encode(&mut buf);
        let frames = Frame::decode_all(&buf).unwrap();
        assert_eq!(
            frames,
            vec![
                Frame::Ping,
                Frame::Padding { len: 3 },
                Frame::Blocked { stream_id: 1 }
            ]
        );
    }

    #[test]
    fn truncated_frames_rejected() {
        let samples = vec![
            Frame::Stream(StreamFrame {
                stream_id: 1,
                offset: 100,
                data: Bytes::from_static(b"abcdef"),
                fin: true,
            }),
            Frame::Ack(AckFrame {
                path_id: PathId(3),
                largest_acked: 50,
                ack_delay_micros: 10,
                ranges: vec![(40, 50), (10, 20)],
            }),
            Frame::AddAddress(AddressInfo {
                address_id: 9,
                addr: "[2001:db8::2]:1234".parse().unwrap(),
            }),
            Frame::Paths(vec![PathInfo {
                path_id: PathId(1),
                status: PathStatus::Active,
                srtt_micros: 1000,
            }]),
            Frame::PathChallenge {
                token: 0x0123_4567_89AB_CDEF,
            },
            Frame::PathResponse {
                token: 0xFEDC_BA98_7654_3210,
            },
            Frame::NewConnectionId {
                sequence: 300,
                cid: 0xAAAA_BBBB_CCCC_DDDD,
            },
            Frame::RetireConnectionId { sequence: 300 },
        ];
        for frame in samples {
            let mut buf = BytesMut::new();
            frame.encode(&mut buf);
            for cut in 1..buf.len() {
                let mut partial = &buf[..cut];
                assert!(
                    Frame::decode(&mut partial).is_err(),
                    "frame {frame:?} cut at {cut} should fail"
                );
            }
        }
    }

    fn arb_frame() -> impl Strategy<Value = Frame> {
        let stream = (
            any::<u64>(),
            0u64..(1 << 40),
            proptest::collection::vec(any::<u8>(), 0..100),
            any::<bool>(),
        )
            .prop_map(|(id, offset, data, fin)| {
                Frame::Stream(StreamFrame {
                    stream_id: id & 0x3FFF_FFFF,
                    offset,
                    data: Bytes::from(data),
                    fin,
                })
            });
        let ack = (
            0u32..1000,
            proptest::collection::btree_set(0u64..10_000, 1..64),
            0u64..1_000_000,
        )
            .prop_map(|(path, acked, delay)| {
                let set: RangeSet = acked.into_iter().collect();
                Frame::Ack(AckFrame::from_range_set(PathId(path), &set, delay).unwrap())
            });
        let wu = (0u64..100, 0u64..(1 << 50)).prop_map(|(s, m)| Frame::WindowUpdate {
            stream_id: s,
            max_data: m,
        });
        let paths =
            proptest::collection::vec((0u32..100, 0u8..3, 0u64..(1 << 40)), 0..MAX_PATHS_ENTRIES)
                .prop_map(|entries| {
                    Frame::Paths(
                        entries
                            .into_iter()
                            .map(|(id, st, srtt)| PathInfo {
                                path_id: PathId(id),
                                status: PathStatus::from_u8(st).unwrap(),
                                srtt_micros: srtt,
                            })
                            .collect(),
                    )
                });
        let challenge = any::<u64>().prop_map(|token| Frame::PathChallenge { token });
        let response = any::<u64>().prop_map(|token| Frame::PathResponse { token });
        let new_cid = (any::<u64>(), any::<u64>()).prop_map(|(seq, cid)| Frame::NewConnectionId {
            sequence: seq & 0x3FFF_FFFF,
            cid,
        });
        let retire_cid = any::<u64>().prop_map(|seq| Frame::RetireConnectionId {
            sequence: seq & 0x3FFF_FFFF,
        });
        prop_oneof![
            Just(Frame::Ping),
            stream,
            ack,
            wu,
            paths,
            challenge,
            response,
            new_cid,
            retire_cid,
        ]
    }

    proptest! {
        #[test]
        fn prop_frame_round_trip(frame in arb_frame()) {
            prop_assert_eq!(round_trip(&frame), frame);
        }

        #[test]
        fn prop_frame_sequences_round_trip(frames in proptest::collection::vec(arb_frame(), 0..10)) {
            let mut buf = BytesMut::new();
            for f in &frames {
                f.encode(&mut buf);
            }
            let decoded = Frame::decode_all(&buf).unwrap();
            prop_assert_eq!(decoded, frames);
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
            // Malformed input must yield Err, never a panic or a hang.
            let mut read = &bytes[..];
            let _ = Frame::decode(&mut read);
            let _ = Frame::decode_all(&bytes);
        }

        #[test]
        fn prop_ack_round_trip_from_arbitrary_sets(
            acked in proptest::collection::btree_set(0u64..100_000, 1..300),
            path in 0u32..50,
        ) {
            let set: RangeSet = acked.iter().copied().collect();
            let ack = AckFrame::from_range_set(PathId(path), &set, 123).unwrap();
            let frame = Frame::Ack(ack.clone());
            let decoded = round_trip(&frame);
            prop_assert_eq!(decoded, frame);
            // Every reported range must be a subset of what was received.
            for (start, end) in ack.iter_ranges_ascending() {
                for pn in start..=end {
                    prop_assert!(set.contains(pn));
                }
            }
        }
    }
}
