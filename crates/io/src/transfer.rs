//! The `mpq` file-transfer application protocol.
//!
//! What the `mpq-client` / `mpq-server` binaries speak on top of the
//! (already AEAD-protected and handshake-authenticated) QUIC stream — a
//! deliberately small framing so the binaries demonstrate the transport,
//! not an application:
//!
//! ```text
//! client → server:  "MPQ1" · name_len:u16 · name · size:u64 · sum64:u64 · payload
//! server → client:  status:u8 (1 = verified) · sum64:u64 (as announced)
//! ```
//!
//! All integers are big-endian. `sum64` is the [`Checksum64`] of the
//! payload, an *end-to-end integrity witness*: packet protection already
//! authenticates each packet, the checksum additionally proves the
//! multipath reassembly (two packet-number spaces, one stream) delivered
//! every byte in order. The receiving side folds the payload into the
//! checksum as it arrives ([`RequestReader`], [`recv_request`]) instead
//! of walking a finished buffer a second time.

use mpquic_util::Checksum64;
use std::io::{self, Read, Write};

use crate::error::{Error, Result};

/// Protocol magic, version 1.
pub const MAGIC: &[u8; 4] = b"MPQ1";

/// [`Error::Protocol`] code: the stream did not start with [`MAGIC`].
pub const ERR_BAD_MAGIC: u64 = 0x1;
/// [`Error::Protocol`] code: announced file name exceeds [`MAX_NAME_LEN`].
pub const ERR_NAME_TOO_LONG: u64 = 0x2;
/// [`Error::Protocol`] code: file name is not valid UTF-8.
pub const ERR_NAME_NOT_UTF8: u64 = 0x3;

/// Server verdict: payload arrived intact.
pub const STATUS_OK: u8 = 1;

/// Server verdict: checksum mismatch.
pub const STATUS_CORRUPT: u8 = 0;

/// Longest accepted file name, bytes.
pub const MAX_NAME_LEN: usize = 1024;

/// The transfer request header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferHeader {
    /// File name (metadata only; the server may ignore it).
    pub name: String,
    /// Payload size in bytes.
    pub size: u64,
    /// [`Checksum64`] of the payload.
    pub checksum: u64,
}

impl TransferHeader {
    /// Builds a header describing `data`.
    pub fn for_data(name: &str, data: &[u8]) -> TransferHeader {
        TransferHeader {
            name: name.to_string(),
            size: data.len() as u64,
            checksum: Checksum64::of(data),
        }
    }

    /// Serializes the header.
    pub fn encode(&self) -> Vec<u8> {
        let name = self.name.as_bytes();
        assert!(name.len() <= MAX_NAME_LEN, "file name too long");
        let mut out = Vec::with_capacity(4 + 2 + name.len() + 8 + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.size.to_be_bytes());
        out.extend_from_slice(&self.checksum.to_be_bytes());
        out
    }

    /// Reads and parses a header from a blocking reader.
    pub fn decode<R: Read>(reader: &mut R) -> Result<TransferHeader> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(Error::Protocol {
                code: ERR_BAD_MAGIC,
                reason: "bad transfer magic".into(),
            });
        }
        let mut len = [0u8; 2];
        reader.read_exact(&mut len)?;
        let name_len = usize::from(u16::from_be_bytes(len));
        if name_len > MAX_NAME_LEN {
            return Err(Error::Protocol {
                code: ERR_NAME_TOO_LONG,
                reason: "file name too long".into(),
            });
        }
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| Error::Protocol {
            code: ERR_NAME_NOT_UTF8,
            reason: "file name not UTF-8".into(),
        })?;
        let mut size = [0u8; 8];
        reader.read_exact(&mut size)?;
        let mut checksum = [0u8; 8];
        reader.read_exact(&mut checksum)?;
        Ok(TransferHeader {
            name,
            size: u64::from_be_bytes(size),
            checksum: u64::from_be_bytes(checksum),
        })
    }

    /// Checks what `sum` absorbed — the payload as received — against
    /// the announced size and checksum; [`Error::Auth`] on a mismatch.
    fn verify(&self, sum: &Checksum64) -> Result<()> {
        if sum.absorbed() != self.size || sum.finish() != self.checksum {
            return Err(Error::Auth("payload checksum mismatch".into()));
        }
        Ok(())
    }
}

/// Writes a complete transfer request (header + payload) to `writer`.
/// The caller ends the stream afterwards (`BlockingStream::finish`).
pub fn send_request<W: Write>(writer: &mut W, name: &str, data: &[u8]) -> Result<()> {
    let header = TransferHeader::for_data(name, data);
    writer.write_all(&header.encode())?;
    writer.write_all(data)?;
    writer.flush()?;
    Ok(())
}

/// Bytes [`recv_request`] asks its reader for at a time.
const READ_CHUNK: u64 = 64 << 10;

/// Reads a complete transfer request. Returns the header and payload;
/// fails with [`Error::Auth`] if the payload does not match the
/// announced checksum. The payload buffer grows with what arrives, not
/// with what the header announces, and each piece is folded into the
/// checksum as it is read.
pub fn recv_request<R: Read>(reader: &mut R) -> Result<(TransferHeader, Vec<u8>)> {
    let header = TransferHeader::decode(reader)?;
    let mut payload = Vec::new();
    let mut sum = Checksum64::new();
    while sum.absorbed() < header.size {
        let start = payload.len();
        let want = (header.size - sum.absorbed()).min(READ_CHUNK);
        if reader.by_ref().take(want).read_to_end(&mut payload)? == 0 {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        sum.update(payload.get(start..).unwrap_or_default());
    }
    header.verify(&sum)?;
    Ok((header, payload))
}

/// A transfer request as it arrives on a non-blocking stream: the
/// variable-length header is parsed once enough bytes are in, then the
/// payload is folded into its checksum chunk by chunk and dropped. Holds
/// at most the header's bytes, never the payload's.
#[derive(Debug, Default)]
pub struct RequestReader {
    /// Header bytes so far; emptied once the header parses.
    head: Vec<u8>,
    header: Option<TransferHeader>,
    /// The first error met; later input is dropped.
    error: Option<Error>,
    /// Checksum and byte count of the payload so far.
    sum: Checksum64,
}

impl RequestReader {
    /// A reader before its first byte.
    pub fn new() -> RequestReader {
        RequestReader::default()
    }

    /// Takes the next chunk of the request stream.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if self.header.is_some() {
            self.sum.update(chunk);
            return;
        }
        self.head.extend_from_slice(chunk);
        let mut rest = self.head.as_slice();
        match TransferHeader::decode(&mut rest) {
            Ok(header) => {
                self.sum.update(rest);
                self.header = Some(header);
                self.head = Vec::new();
            }
            // The header is still short of its own length.
            Err(Error::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {}
            Err(e) => self.error = Some(e),
        }
    }

    /// The stream ended: the header of a request that arrived whole and
    /// matches its announced size and checksum.
    pub fn finish(self) -> Result<TransferHeader> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let header = self
            .header
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        header.verify(&self.sum)?;
        Ok(header)
    }
}

/// Writes the server's verdict.
pub fn send_response<W: Write>(writer: &mut W, ok: bool, checksum: u64) -> Result<()> {
    let status = if ok { STATUS_OK } else { STATUS_CORRUPT };
    writer.write_all(&[status])?;
    writer.write_all(&checksum.to_be_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Reads the server's verdict: `(verified, checksum as computed there)`.
pub fn recv_response<R: Read>(reader: &mut R) -> Result<(bool, u64)> {
    let mut status = [0u8; 1];
    reader.read_exact(&mut status)?;
    let mut checksum = [0u8; 8];
    reader.read_exact(&mut checksum)?;
    Ok((status == [STATUS_OK], u64::from_be_bytes(checksum)))
}

/// Deterministic synthetic payload for `--size`-mode transfers and tests:
/// a varying pattern so reassembly bugs cannot hide behind repetition.
pub fn pattern(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let i = i as u64;
            (i.wrapping_mul(31).wrapping_add(i >> 8) & 0xff) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let header = TransferHeader::for_data("paper.pdf", b"multipath");
        let encoded = header.encode();
        let decoded = TransferHeader::decode(&mut &encoded[..]).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(decoded.size, 9);
    }

    #[test]
    fn request_round_trips_and_verifies() {
        let data = pattern(10_000);
        let mut wire = Vec::new();
        send_request(&mut wire, "blob", &data).unwrap();
        let (header, payload) = recv_request(&mut &wire[..]).unwrap();
        assert_eq!(header.name, "blob");
        assert_eq!(payload, data);
    }

    #[test]
    fn corrupted_payload_is_rejected_as_auth_failure() {
        let data = pattern(1000);
        let mut wire = Vec::new();
        send_request(&mut wire, "blob", &data).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        let err = recv_request(&mut &wire[..]).unwrap_err();
        assert!(matches!(err, Error::Auth(_)), "got {err:?}");
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        send_response(&mut wire, true, 0xdead_beef).unwrap();
        let (ok, checksum) = recv_response(&mut &wire[..]).unwrap();
        assert!(ok);
        assert_eq!(checksum, 0xdead_beef);
    }

    #[test]
    fn bad_magic_is_rejected_as_protocol_error() {
        let wire = b"NOPE\x00\x00";
        let err = TransferHeader::decode(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Protocol {
                    code: ERR_BAD_MAGIC,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn request_reader_agrees_with_recv_request_under_any_chunking() {
        let data = pattern(3000);
        let mut wire = Vec::new();
        send_request(&mut wire, "blob", &data).unwrap();
        let (expected, _) = recv_request(&mut &wire[..]).unwrap();
        for step in [1, 7, 19, 1200, wire.len()] {
            let mut reader = RequestReader::new();
            for chunk in wire.chunks(step) {
                reader.push(chunk);
            }
            assert_eq!(reader.finish().unwrap(), expected, "step {step}");
        }
        // Damage, a missing tail and a surplus byte all fail the check.
        let last = wire.len() - 1;
        let mut corrupt = wire.clone();
        corrupt[last] ^= 1;
        let mut longer = wire.clone();
        longer.push(0);
        for bad in [&corrupt[..], &wire[..last], &longer[..]] {
            let mut reader = RequestReader::new();
            reader.push(bad);
            assert!(matches!(reader.finish(), Err(Error::Auth(_))));
        }
        // A bad header is a protocol error however late the FIN.
        let mut reader = RequestReader::new();
        reader.push(b"NOPE\x00\x00");
        reader.push(&data);
        assert!(matches!(
            reader.finish(),
            Err(Error::Protocol {
                code: ERR_BAD_MAGIC,
                ..
            })
        ));
        // FIN inside the header.
        let mut reader = RequestReader::new();
        reader.push(&wire[..5]);
        assert!(matches!(reader.finish(), Err(Error::Io(_))));
    }

    #[test]
    fn announced_size_does_not_size_the_buffer() {
        // A header claiming 2^60 bytes over a short stream: an early end
        // of input, not an allocation of what was claimed.
        let header = TransferHeader {
            name: "huge".into(),
            size: 1 << 60,
            checksum: 0,
        };
        let mut wire = header.encode();
        wire.extend_from_slice(&[0u8; 100]);
        let err = recv_request(&mut &wire[..]).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "got {err:?}");
    }
}
