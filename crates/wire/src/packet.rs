//! Packet assembly: packing frames into bounded datagrams.
//!
//! A packet is a [`PublicHeader`] plus a sequence of frames that will be
//! sealed by the crypto layer. [`PacketBuilder`] enforces the datagram size
//! budget (`MAX_DATAGRAM_SIZE` minus header and AEAD tag) while the
//! connection's packetizer decides *what* goes in.

use bytes::BytesMut;

use crate::frame::Frame;
use crate::header::PublicHeader;
use crate::{DecodeError, AEAD_TAG_SIZE, MAX_DATAGRAM_SIZE};

/// A fully assembled (but not yet encrypted) packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The unencrypted public header.
    pub header: PublicHeader,
    /// Frames carried in the (to-be-encrypted) payload.
    pub frames: Vec<Frame>,
}

impl Packet {
    /// Encodes the header and the plaintext payload separately; the crypto
    /// layer seals the payload using the header bytes as associated data.
    pub fn encode_parts(&self) -> (Vec<u8>, Vec<u8>) {
        let mut header = BytesMut::with_capacity(self.header.wire_size());
        let payload_size: usize = self.frames.iter().map(Frame::wire_size).sum();
        let mut payload = BytesMut::with_capacity(payload_size);
        self.encode_parts_into(&mut header, &mut payload);
        (header.to_vec(), payload.to_vec())
    }

    /// Like [`Packet::encode_parts`], but writes into caller-provided
    /// buffers (cleared first), so a caller that reuses them allocates
    /// nothing once warm. (The connection's egress path encodes header and
    /// frames straight into its datagram buffer instead.)
    pub fn encode_parts_into(&self, header: &mut BytesMut, payload: &mut BytesMut) {
        header.clear();
        self.header.encode(header);
        payload.clear();
        for frame in &self.frames {
            frame.encode(payload);
        }
    }

    /// Parses a plaintext payload back into frames, given its decoded header.
    pub fn from_parts(header: PublicHeader, payload: &[u8]) -> Result<Packet, DecodeError> {
        Ok(Packet {
            header,
            frames: Frame::decode_all(payload)?,
        })
    }

    /// Total on-the-wire size once sealed (header + payload + AEAD tag).
    pub fn wire_size(&self) -> usize {
        self.header.wire_size()
            + self.frames.iter().map(Frame::wire_size).sum::<usize>()
            + AEAD_TAG_SIZE
    }

    /// True if the packet contains at least one retransmittable frame and
    /// therefore must be tracked by loss recovery.
    pub fn is_ack_eliciting(&self) -> bool {
        self.frames.iter().any(Frame::is_retransmittable)
    }
}

/// Incrementally packs frames into a packet without exceeding the datagram
/// budget.
#[derive(Debug)]
pub struct PacketBuilder {
    header: PublicHeader,
    frames: Vec<Frame>,
    /// Payload bytes still available.
    remaining: usize,
}

impl PacketBuilder {
    /// Starts a packet with the standard budget
    /// (`MAX_DATAGRAM_SIZE - header - tag`).
    pub fn new(header: PublicHeader) -> PacketBuilder {
        Self::with_datagram_size(header, MAX_DATAGRAM_SIZE)
    }

    /// Starts a packet bounded by a custom datagram size (for tests and
    /// MTU experiments).
    pub fn with_datagram_size(header: PublicHeader, datagram_size: usize) -> PacketBuilder {
        let overhead = header.wire_size() + AEAD_TAG_SIZE;
        PacketBuilder {
            header,
            frames: Vec::new(),
            remaining: datagram_size.saturating_sub(overhead),
        }
    }

    /// Remaining payload budget in bytes.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Attempts to add a frame; returns false (leaving the builder
    /// unchanged) if it does not fit.
    pub fn try_push(&mut self, frame: Frame) -> bool {
        let size = frame.wire_size();
        if size > self.remaining {
            return false;
        }
        self.remaining -= size;
        self.frames.push(frame);
        true
    }

    /// True if no frames have been added yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// True if any added frame is retransmittable.
    pub fn has_retransmittable(&self) -> bool {
        self.frames.iter().any(Frame::is_retransmittable)
    }

    /// Finishes the packet. Returns `None` if no frames were added.
    pub fn finish(self) -> Option<Packet> {
        if self.frames.is_empty() {
            None
        } else {
            Some(Packet {
                header: self.header,
                frames: self.frames,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::StreamFrame;
    use crate::header::{PacketType, PathId};
    use bytes::Bytes;

    fn header() -> PublicHeader {
        PublicHeader {
            connection_id: 0xABCD,
            path_id: PathId(1),
            packet_number: 42,
            packet_type: PacketType::OneRtt,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let packet = Packet {
            header: header(),
            frames: vec![
                Frame::Ping,
                Frame::Stream(StreamFrame {
                    stream_id: 3,
                    offset: 0,
                    data: Bytes::from_static(b"payload"),
                    fin: false,
                }),
            ],
        };
        let (hdr_bytes, payload) = packet.encode_parts();
        let mut hdr_read = &hdr_bytes[..];
        let decoded_header = PublicHeader::decode(&mut hdr_read).unwrap();
        let decoded = Packet::from_parts(decoded_header, &payload).unwrap();
        assert_eq!(decoded, packet);
        assert_eq!(
            packet.wire_size(),
            hdr_bytes.len() + payload.len() + AEAD_TAG_SIZE
        );
    }

    #[test]
    fn builder_respects_budget() {
        let mut builder = PacketBuilder::with_datagram_size(header(), 100);
        let budget = builder.remaining();
        assert!(budget < 100);
        // A stream frame sized exactly to the budget fits...
        let overhead = StreamFrame::overhead(1, 0, budget);
        let fits = Frame::Stream(StreamFrame {
            stream_id: 1,
            offset: 0,
            data: Bytes::from(vec![0u8; budget - overhead]),
            fin: false,
        });
        assert!(builder.try_push(fits));
        // ...and then nothing else does.
        assert!(!builder.try_push(Frame::Ping));
        let packet = builder.finish().unwrap();
        assert!(packet.wire_size() <= 100);
    }

    #[test]
    fn builder_rejects_oversized_frame_without_mutation() {
        let mut builder = PacketBuilder::with_datagram_size(header(), 50);
        let before = builder.remaining();
        let huge = Frame::Stream(StreamFrame {
            stream_id: 1,
            offset: 0,
            data: Bytes::from(vec![0u8; 1000]),
            fin: false,
        });
        assert!(!builder.try_push(huge));
        assert_eq!(builder.remaining(), before);
        assert!(builder.is_empty());
        assert!(builder.finish().is_none());
    }

    #[test]
    fn ack_eliciting_detection() {
        let acks_only = Packet {
            header: header(),
            frames: vec![Frame::Padding { len: 3 }],
        };
        assert!(!acks_only.is_ack_eliciting());
        let with_ping = Packet {
            header: header(),
            frames: vec![Frame::Padding { len: 3 }, Frame::Ping],
        };
        assert!(with_ping.is_ack_eliciting());
    }

    #[test]
    fn default_budget_leaves_room_for_tag() {
        let builder = PacketBuilder::new(header());
        assert_eq!(
            builder.remaining(),
            MAX_DATAGRAM_SIZE - header().wire_size() - AEAD_TAG_SIZE
        );
    }
}
