//! The `mpq-rpc` request/response application protocol.
//!
//! The one application protocol this repository serves and measures
//! (DESIGN.md §20): `mpq-server`/`mpq-client`, `mpquic-loadgen` and the
//! `perf/` yardstick all speak it. `mpq-rpc` multiplexes many
//! request/response exchanges over one connection — one exchange per
//! client-opened bidirectional stream, the shape every netbench-style
//! load harness needs (request/response and streaming workloads issue
//! thousands of calls per connection; connection churn, and a file
//! upload, issue one).
//!
//! ```text
//! client → server (per stream):
//!     "MPQR" · flags:u8 · resp_len:u32 · req_len:u32 · payload · FIN
//! server → client (same stream):
//!     "MPQS" · status:u8 · sum64:u64 · resp_len:u32 · payload · FIN
//! ```
//!
//! All integers big-endian. `flags` bit 0 (`FLAG_FINAL`) marks the last
//! request on the connection: once its response is flushed the server
//! app reports success to its shard, so a clean client close is counted
//! [`crate::EndpointSnapshot::completed`], not `failed`. `sum64` is the
//! [`Checksum64`] of the request payload, echoed in the response as the
//! end-to-end integrity witness: packet protection authenticates
//! packets, the checksum proves that reassembly — two packet-number
//! spaces, many streams — delivered every byte in order.
//!
//! Both sides take a message as it arrives (DESIGN.md §19): the fixed
//! header is parsed the moment its last byte is readable, every payload
//! chunk is folded into the checksum and a byte count and dropped. An
//! exchange in flight holds a few dozen bytes whatever the payload
//! size, and a request that cannot become valid — bad magic, a length
//! over [`MAX_RPC_PAYLOAD`], more payload than announced — is answered
//! [`STATUS_BAD_REQUEST`] at once, not after the peer's FIN.

use bytes::Bytes;
use mpquic_core::{Connection, QuicTransport, StreamId};
use mpquic_util::Checksum64;
use std::collections::HashMap;

use crate::endpoint::{AppStatus, ConnApp};
use crate::error::{Error, Result};

/// Request magic ("MPQ Rpc").
pub const REQ_MAGIC: &[u8; 4] = b"MPQR";
/// Response magic ("MPQ reSponse").
pub const RESP_MAGIC: &[u8; 4] = b"MPQS";

/// Request flag: last request on this connection; the client closes
/// after the response arrives.
pub const FLAG_FINAL: u8 = 0x01;

/// Response status: request parsed and payload intact.
pub const STATUS_OK: u8 = 0;
/// Response status: request malformed or truncated.
pub const STATUS_BAD_REQUEST: u8 = 1;

/// Upper bound on either direction's payload, guarding length fields.
pub const MAX_RPC_PAYLOAD: usize = 64 << 20;

/// Request header length on the wire.
const REQ_HEADER_LEN: usize = 4 + 1 + 4 + 4;
/// Response header length on the wire.
const RESP_HEADER_LEN: usize = 4 + 1 + 8 + 4;

/// [`Error::Protocol`] code: bad rpc magic.
pub const ERR_RPC_MAGIC: u64 = 0x10;
/// [`Error::Protocol`] code: length field exceeds [`MAX_RPC_PAYLOAD`].
pub const ERR_RPC_TOO_LARGE: u64 = 0x11;
/// [`Error::Protocol`] code: stream ended mid-message.
pub const ERR_RPC_TRUNCATED: u64 = 0x12;
/// [`Error::Protocol`] code: more payload than the header announced.
pub const ERR_RPC_OVERLONG: u64 = 0x13;

fn protocol_error(code: u64, reason: &str) -> Error {
    Error::Protocol {
        code,
        reason: reason.into(),
    }
}

/// A fixed-length message header being collected from stream chunks.
#[derive(Debug, Clone, Copy)]
struct HeadBuf<const N: usize> {
    bytes: [u8; N],
    have: usize,
}

impl<const N: usize> HeadBuf<N> {
    fn new() -> HeadBuf<N> {
        HeadBuf {
            bytes: [0u8; N],
            have: 0,
        }
    }

    /// Moves bytes from the front of `chunk` into the header until it
    /// is full, leaving the message body in `chunk`; true once full.
    fn fill(&mut self, chunk: &mut &[u8]) -> bool {
        let room = self.bytes.get_mut(self.have..).unwrap_or_default();
        let take = room.len().min(chunk.len());
        let (head, body) = chunk.split_at(take);
        for (dst, src) in room.iter_mut().zip(head) {
            *dst = *src;
        }
        self.have += take;
        *chunk = body;
        self.have == N
    }
}

/// The fields of a request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RequestHead {
    /// Request flags ([`FLAG_FINAL`]).
    flags: u8,
    /// Response payload bytes the client asks for.
    resp_len: u32,
    /// Request payload bytes that follow.
    req_len: u32,
}

impl RequestHead {
    fn encode(self) -> [u8; REQ_HEADER_LEN] {
        let [m0, m1, m2, m3] = *REQ_MAGIC;
        let [a0, a1, a2, a3] = self.resp_len.to_be_bytes();
        let [b0, b1, b2, b3] = self.req_len.to_be_bytes();
        [m0, m1, m2, m3, self.flags, a0, a1, a2, a3, b0, b1, b2, b3]
    }

    fn decode(bytes: &[u8; REQ_HEADER_LEN]) -> Result<RequestHead> {
        let [m0, m1, m2, m3, flags, a0, a1, a2, a3, b0, b1, b2, b3] = *bytes;
        if [m0, m1, m2, m3] != *REQ_MAGIC {
            return Err(protocol_error(ERR_RPC_MAGIC, "bad rpc request magic"));
        }
        let head = RequestHead {
            flags,
            resp_len: u32::from_be_bytes([a0, a1, a2, a3]),
            req_len: u32::from_be_bytes([b0, b1, b2, b3]),
        };
        if head.req_len as usize > MAX_RPC_PAYLOAD || head.resp_len as usize > MAX_RPC_PAYLOAD {
            return Err(protocol_error(
                ERR_RPC_TOO_LARGE,
                "rpc length exceeds limit",
            ));
        }
        Ok(head)
    }
}

/// The fields of a response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ResponseHead {
    /// [`STATUS_OK`] or [`STATUS_BAD_REQUEST`].
    status: u8,
    /// [`Checksum64`] of the request payload, as the server saw it.
    checksum: u64,
    /// Response payload bytes that follow.
    resp_len: u32,
}

impl ResponseHead {
    fn encode(self) -> [u8; RESP_HEADER_LEN] {
        let [m0, m1, m2, m3] = *RESP_MAGIC;
        let [c0, c1, c2, c3, c4, c5, c6, c7] = self.checksum.to_be_bytes();
        let [l0, l1, l2, l3] = self.resp_len.to_be_bytes();
        let st = self.status;
        [
            m0, m1, m2, m3, st, c0, c1, c2, c3, c4, c5, c6, c7, l0, l1, l2, l3,
        ]
    }

    fn decode(bytes: &[u8; RESP_HEADER_LEN]) -> Result<ResponseHead> {
        let [m0, m1, m2, m3, status, c0, c1, c2, c3, c4, c5, c6, c7, l0, l1, l2, l3] = *bytes;
        if [m0, m1, m2, m3] != *RESP_MAGIC {
            return Err(protocol_error(ERR_RPC_MAGIC, "bad rpc response magic"));
        }
        let head = ResponseHead {
            status,
            checksum: u64::from_be_bytes([c0, c1, c2, c3, c4, c5, c6, c7]),
            resp_len: u32::from_be_bytes([l0, l1, l2, l3]),
        };
        if head.resp_len as usize > MAX_RPC_PAYLOAD {
            return Err(protocol_error(
                ERR_RPC_TOO_LARGE,
                "rpc length exceeds limit",
            ));
        }
        Ok(head)
    }
}

/// A request as it arrives: the header, then the payload folded into
/// its checksum. Holds no payload bytes.
#[derive(Debug)]
struct RequestReader {
    head: HeadBuf<REQ_HEADER_LEN>,
    /// The header, once complete and acceptable.
    parsed: Option<RequestHead>,
    /// Checksum and byte count of the payload so far.
    sum: Checksum64,
}

impl RequestReader {
    fn new() -> RequestReader {
        RequestReader {
            head: HeadBuf::new(),
            parsed: None,
            sum: Checksum64::new(),
        }
    }

    /// Takes the next chunk of the request stream. Fails the moment the
    /// message can no longer become valid: the completed header has the
    /// wrong magic or a length over [`MAX_RPC_PAYLOAD`], or more payload
    /// has arrived than the header announced.
    fn push(&mut self, mut chunk: &[u8]) -> Result<()> {
        let head = match self.parsed {
            Some(head) => head,
            None if self.head.fill(&mut chunk) => {
                *self.parsed.insert(RequestHead::decode(&self.head.bytes)?)
            }
            None => return Ok(()),
        };
        self.sum.update(chunk);
        if self.sum.absorbed() > u64::from(head.req_len) {
            return Err(protocol_error(
                ERR_RPC_OVERLONG,
                "rpc request longer than announced",
            ));
        }
        Ok(())
    }

    /// The stream ended: the request's header and payload checksum, if
    /// all of it arrived.
    fn finish(&self) -> Result<(RequestHead, u64)> {
        match self.parsed {
            Some(head) if self.sum.absorbed() == u64::from(head.req_len) => {
                Ok((head, self.sum.finish()))
            }
            _ => Err(protocol_error(ERR_RPC_TRUNCATED, "rpc request truncated")),
        }
    }
}

/// The response pattern repeats with this period: byte `i` depends only
/// on the low 16 bits of `i ^ checksum`.
const PATTERN_PERIOD: usize = 1 << 16;

/// Appends [`response_pattern`]`(len, checksum)` to `out`: the first
/// period row by row, the rest as block copies of it.
///
/// Byte `i` is `(j * 31 + (j >> 8)) mod 256` with `j = i ^ checksum`.
/// Within a 256-byte row the first term depends on `i`'s low byte only
/// and the second is the constant `(row ^ (checksum >> 8)) mod 256`, so
/// every row is one base row plus its constant.
fn write_pattern(out: &mut Vec<u8>, len: usize, checksum: u64) {
    let start = out.len();
    let first = len.min(PATTERN_PERIOD);
    let base: [u8; 256] =
        std::array::from_fn(|low| ((low as u64 ^ checksum).wrapping_mul(31) & 0xff) as u8);
    for row in 0..first.div_ceil(256) {
        let add = ((row as u64 ^ (checksum >> 8)) & 0xff) as u8;
        let n = (first - row * 256).min(256);
        out.extend(base.iter().take(n).map(|b| b.wrapping_add(add)));
    }
    let mut left = len - first;
    while left > 0 {
        let n = left.min(PATTERN_PERIOD);
        out.extend_from_within(start..start + n);
        left -= n;
    }
}

/// Deterministic response payload: a varying pattern, so reassembly
/// bugs cannot hide behind repetition, offset by the checksum so
/// responses to different requests differ. With `checksum` 0 it is also
/// the synthetic upload `mpq-client --size` sends.
pub fn response_pattern(len: usize, checksum: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    write_pattern(&mut out, len, checksum);
    out
}

/// Writes a whole response and ends the stream. One buffer holds the
/// header and the pattern's first period (all of a response up to
/// [`PATTERN_PERIOD`] bytes, written as one chunk); the rest of the
/// payload is views of that period. A response pins at most one period
/// plus the header, whatever `resp_len` is.
fn respond(conn: &mut Connection, id: StreamId, status: u8, checksum: u64, resp_len: u32) {
    let head = ResponseHead {
        status,
        checksum,
        resp_len,
    };
    let len = resp_len as usize;
    let first = len.min(PATTERN_PERIOD);
    let mut message = Vec::with_capacity(RESP_HEADER_LEN + first);
    message.extend_from_slice(&head.encode());
    write_pattern(&mut message, first, checksum);
    let message = Bytes::from(message);
    let period = message.slice(RESP_HEADER_LEN..);
    let _ = conn.stream_write(id, message);
    let mut left = len - first;
    while left > 0 {
        let n = left.min(PATTERN_PERIOD);
        let _ = conn.stream_write(id, period.slice(..n));
        left -= n;
    }
    conn.stream_finish(id);
}

/// Per-stream server state.
enum StreamState {
    /// Taking the request in as it arrives.
    Receiving(RequestReader),
    /// Response written — the answer to a complete request, or an early
    /// rejection. Whatever else the client sends is discarded; the
    /// exchange ends once the client's FIN has been read and the
    /// response acknowledged.
    Flushing { final_req: bool },
}

/// The `mpq-rpc` server as a [`crate::ConnApp`]: serves every
/// client-opened stream as one request/response exchange, concurrently.
///
/// Reports [`AppStatus::Done`] once a [`FLAG_FINAL`] request's response
/// has been flushed and no other exchange is in flight — `ok` unless
/// some request on the connection was malformed.
#[derive(Default)]
pub struct RpcServerApp {
    /// Exchanges in flight; a served one leaves.
    streams: HashMap<StreamId, StreamState>,
    /// Exchanges fully served (response acknowledged).
    served: u64,
    any_bad: bool,
    final_flushed: bool,
    finished: bool,
}

impl RpcServerApp {
    /// A fresh server. The [`crate::AppFactory`] form is
    /// `Box::new(|_| Box::new(RpcServerApp::new()))`.
    pub fn new() -> RpcServerApp {
        RpcServerApp::default()
    }

    /// Exchanges fully served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

impl ConnApp for RpcServerApp {
    fn poll(&mut self, transport: &mut QuicTransport) -> AppStatus {
        if self.finished {
            return AppStatus::Done { ok: !self.any_bad };
        }
        let conn = &mut transport.conn;

        // Adopt newly opened peer streams; each is handed out once.
        while let Some(id) = conn.accept_stream() {
            self.streams
                .insert(id, StreamState::Receiving(RequestReader::new()));
        }

        // Advance every in-flight exchange; a served one leaves the map.
        self.streams.retain(|&id, state| match state {
            StreamState::Receiving(reader) => {
                let mut taken = Ok(());
                // After a rejection the rest is read and dropped, so the
                // stream's flow-control window keeps moving.
                while conn
                    .stream_read_with(id, usize::MAX, |chunk| {
                        if taken.is_ok() {
                            taken = reader.push(chunk);
                        }
                    })
                    .is_some()
                {}
                let request = match taken {
                    Ok(()) if !conn.stream_is_finished(id) => return true,
                    Ok(()) => reader.finish(),
                    Err(e) => Err(e),
                };
                let final_req = match request {
                    Ok((head, checksum)) => {
                        respond(conn, id, STATUS_OK, checksum, head.resp_len);
                        head.flags & FLAG_FINAL != 0
                    }
                    Err(_) => {
                        self.any_bad = true;
                        respond(conn, id, STATUS_BAD_REQUEST, 0, 0);
                        false
                    }
                };
                *state = StreamState::Flushing { final_req };
                true
            }
            StreamState::Flushing { final_req } => {
                while conn.stream_read_with(id, usize::MAX, |_| ()).is_some() {}
                let flushed = conn.stream_fully_acked(id) && conn.stream_is_finished(id);
                if !flushed && !conn.is_closed() {
                    return true;
                }
                self.served += 1;
                self.final_flushed |= *final_req;
                false
            }
        });

        if self.final_flushed && self.streams.is_empty() {
            self.finished = true;
            return AppStatus::Done { ok: !self.any_bad };
        }
        AppStatus::Pending
    }
}

/// One client-side in-flight call: open a stream, send the request,
/// count the response as it arrives until the server's FIN.
pub struct RpcCall {
    id: StreamId,
    expect_checksum: u64,
    expect_resp_len: u64,
    head: HeadBuf<RESP_HEADER_LEN>,
    /// Response payload bytes seen so far (counted, not kept).
    received: u64,
}

/// What a completed [`RpcCall`] verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcVerdict {
    /// Server status byte was [`STATUS_OK`].
    pub ok: bool,
    /// Echoed checksum matched and the payload had the requested
    /// length (implied false when `ok` is false).
    pub intact: bool,
}

impl RpcCall {
    /// Opens a new stream on `conn` and writes a complete request: the
    /// header as one small chunk, then one copy of `payload`.
    pub fn start(conn: &mut Connection, payload: &[u8], resp_len: u32, last: bool) -> RpcCall {
        assert!(
            payload.len() <= MAX_RPC_PAYLOAD,
            "request payload too large"
        );
        assert!(resp_len as usize <= MAX_RPC_PAYLOAD, "response too large");
        let head = RequestHead {
            flags: if last { FLAG_FINAL } else { 0 },
            resp_len,
            req_len: payload.len() as u32,
        };
        let id = conn.open_stream();
        let _ = conn.stream_write(id, Bytes::copy_from_slice(&head.encode()));
        let _ = conn.stream_write(id, Bytes::copy_from_slice(payload));
        conn.stream_finish(id);
        RpcCall {
            id,
            expect_checksum: Checksum64::of(payload),
            expect_resp_len: u64::from(resp_len),
            head: HeadBuf::new(),
            received: 0,
        }
    }

    /// The call's stream ID.
    pub fn stream(&self) -> StreamId {
        self.id
    }

    /// Drains response bytes; `Some(verdict)` once the response is
    /// complete. Call on every loop iteration until it completes.
    pub fn poll(&mut self, conn: &mut Connection) -> Option<RpcVerdict> {
        self.poll_with(conn, |_| {})
    }

    /// [`RpcCall::poll`] that also shows `body` each run of response
    /// payload as it is read, borrowed from the stream: a caller that
    /// wants the bytes, not just their count and checksum, looks here.
    pub fn poll_with(
        &mut self,
        conn: &mut Connection,
        mut body: impl FnMut(&[u8]),
    ) -> Option<RpcVerdict> {
        while conn
            .stream_read_with(self.id, usize::MAX, |mut chunk| {
                self.head.fill(&mut chunk);
                self.received += chunk.len() as u64;
                body(chunk);
            })
            .is_some()
        {}
        if !conn.stream_is_finished(self.id) {
            return None;
        }
        // A short header, a bad one, or a payload of another length than
        // the header announced is no response at all.
        let complete = self.head.have == RESP_HEADER_LEN;
        Some(match ResponseHead::decode(&self.head.bytes) {
            Ok(head) if complete && u64::from(head.resp_len) == self.received => {
                let ok = head.status == STATUS_OK;
                RpcVerdict {
                    ok,
                    intact: ok
                        && head.checksum == self.expect_checksum
                        && self.received == self.expect_resp_len,
                }
            }
            _ => RpcVerdict {
                ok: false,
                intact: false,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpquic_core::Config;
    use mpquic_util::SimTime;
    use std::net::SocketAddr;
    use std::time::Duration;

    fn addr(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    /// A whole request message as one buffer.
    fn request_wire(flags: u8, resp_len: u32, payload: &[u8]) -> Vec<u8> {
        let head = RequestHead {
            flags,
            resp_len,
            req_len: payload.len() as u32,
        };
        [&head.encode()[..], payload].concat()
    }

    #[test]
    fn request_reader_takes_any_chunking() {
        let wire = request_wire(FLAG_FINAL, 512, b"hello rpc");
        for cut in 0..=wire.len() {
            let mut reader = RequestReader::new();
            reader.push(&wire[..cut]).unwrap();
            reader.push(&wire[cut..]).unwrap();
            let (head, checksum) = reader.finish().unwrap();
            assert_eq!(
                (head.flags, head.resp_len, head.req_len),
                (FLAG_FINAL, 512, 9)
            );
            assert_eq!(checksum, Checksum64::of(b"hello rpc"));
        }
    }

    #[test]
    fn response_head_round_trips() {
        let head = ResponseHead {
            status: STATUS_OK,
            checksum: 0xfeed_f00d_0bad_cafe,
            resp_len: 7,
        };
        assert_eq!(ResponseHead::decode(&head.encode()).unwrap(), head);
    }

    fn code(result: Result<()>) -> Option<u64> {
        match result {
            Err(Error::Protocol { code, .. }) => Some(code),
            _ => None,
        }
    }

    #[test]
    fn bad_requests_fail_as_early_as_they_can() {
        // Bad magic: known with the header's last byte, not before.
        let mut wire = request_wire(0, 0, b"x");
        wire[0] = b'X';
        let mut reader = RequestReader::new();
        assert!(reader.push(&wire[..REQ_HEADER_LEN - 1]).is_ok());
        assert_eq!(
            code(reader.push(&wire[REQ_HEADER_LEN - 1..])),
            Some(ERR_RPC_MAGIC)
        );
        // A length over the cap, in either field.
        for (resp_len, req_len) in [(0, MAX_RPC_PAYLOAD as u32 + 1), (u32::MAX, 0)] {
            let head = RequestHead {
                flags: 0,
                resp_len,
                req_len,
            };
            assert_eq!(
                code(RequestReader::new().push(&head.encode())),
                Some(ERR_RPC_TOO_LARGE)
            );
        }
        // One byte more than announced.
        let mut reader = RequestReader::new();
        assert!(reader.push(&request_wire(0, 0, b"abc")).is_ok());
        assert_eq!(code(reader.push(b"d")), Some(ERR_RPC_OVERLONG));
        // FIN short of the announced length, or inside the header.
        let wire = request_wire(0, 0, b"abc");
        for cut in [3, REQ_HEADER_LEN, wire.len() - 1] {
            let mut reader = RequestReader::new();
            reader.push(&wire[..cut]).unwrap();
            assert_eq!(
                code(reader.finish().map(|_| ())),
                Some(ERR_RPC_TRUNCATED),
                "cut at {cut}"
            );
        }
        let mut wire = ResponseHead {
            status: STATUS_OK,
            checksum: 1,
            resp_len: 0,
        }
        .encode();
        wire[0] = b'X';
        assert!(ResponseHead::decode(&wire).is_err());
    }

    #[test]
    fn response_pattern_matches_the_one_line_generator() {
        // The generator as it was first written, one byte at a time.
        let reference = |len: usize, checksum: u64| -> Vec<u8> {
            (0..len)
                .map(|i| {
                    let i = i as u64 ^ checksum;
                    (i.wrapping_mul(31).wrapping_add(i >> 8) & 0xff) as u8
                })
                .collect()
        };
        for checksum in [0, 1, 0xff00, 0x1234_5678, 0xfeed_f00d_dead_beef, u64::MAX] {
            for len in [0, 1, 255, 256, 257, 65_535, 65_536, 65_537, 70_000, 200_000] {
                assert_eq!(
                    response_pattern(len, checksum),
                    reference(len, checksum),
                    "len {len} checksum {checksum:#x}"
                );
                // Appended after other bytes, as a response's header.
                let mut out = vec![0xee; 13];
                write_pattern(&mut out, len, checksum);
                assert_eq!(out.get(13..), Some(&reference(len, checksum)[..]));
            }
        }
    }

    /// Client connection and server app joined by a zero-delay
    /// in-memory wire.
    struct Pair {
        client: Connection,
        server: QuicTransport,
        app: RpcServerApp,
        now: SimTime,
    }

    impl Pair {
        fn new() -> Pair {
            Pair::with_config(Config::default())
        }

        /// A pair past its handshake.
        fn with_config(config: Config) -> Pair {
            let ca = addr("10.0.0.1:1111");
            let sa = addr("10.0.0.2:4433");
            let client = Connection::client(config.clone(), vec![ca], 0, sa, 7);
            let server = QuicTransport::server(Connection::server(config, vec![sa], 8));
            let mut pair = Pair {
                client,
                server,
                app: RpcServerApp::new(),
                now: SimTime::ZERO,
            };
            for _ in 0..50 {
                pair.tick();
                if pair.client.is_established() {
                    break;
                }
            }
            assert!(pair.client.is_established(), "handshake stalled");
            pair
        }

        /// One tick: shuttle datagrams both ways, poll the server app.
        /// Returns the app's status.
        fn tick(&mut self) -> AppStatus {
            use mpquic_util::Endpoint as _;
            self.now += Duration::from_millis(5);
            while let Some(t) = self.client.poll_transmit(self.now) {
                self.server
                    .handle_datagram(self.now, t.remote, t.local, &t.payload);
            }
            let status = self.app.poll(&mut self.server);
            while let Some(t) = self.server.conn.poll_transmit(self.now) {
                self.client
                    .handle_datagram(self.now, t.remote, t.local, &t.payload);
            }
            status
        }

        /// Writes `pieces` to a fresh stream, one per tick, and with
        /// `fin` ends it; ticks on until the server's whole response
        /// has arrived (or gives up) and returns it with the stream.
        fn raw_exchange(&mut self, pieces: &[&[u8]], fin: bool) -> (StreamId, Vec<u8>) {
            let id = self.client.open_stream();
            for piece in pieces {
                let _ = self.client.stream_write(id, Bytes::copy_from_slice(piece));
                self.tick();
            }
            if fin {
                self.client.stream_finish(id);
            }
            let mut response = Vec::new();
            for _ in 0..400 {
                self.tick();
                while let Some(chunk) = self.client.stream_read(id, usize::MAX) {
                    response.extend_from_slice(&chunk);
                }
                if self.client.stream_is_finished(id) {
                    break;
                }
            }
            assert!(self.client.stream_is_finished(id), "no response");
            (id, response)
        }
    }

    #[test]
    fn serves_concurrent_calls_and_finishes_on_final() {
        let mut pair = Pair::new();
        let mut calls = vec![
            RpcCall::start(&mut pair.client, b"first", 64, false),
            RpcCall::start(&mut pair.client, b"second", 256, false),
        ];
        let mut verdicts = Vec::new();
        for _ in 0..200 {
            pair.tick();
            calls.retain_mut(|call| match call.poll(&mut pair.client) {
                Some(v) => {
                    verdicts.push(v);
                    false
                }
                None => true,
            });
            if verdicts.len() == 2 {
                break;
            }
        }
        assert_eq!(verdicts.len(), 2, "calls stalled");
        assert!(verdicts.iter().all(|v| v.ok && v.intact));

        // The final call drives the app to a success verdict.
        let mut last = RpcCall::start(&mut pair.client, b"bye", 16, true);
        let mut last_verdict = None;
        let mut app_done = false;
        for _ in 0..200 {
            let status = pair.tick();
            if last_verdict.is_none() {
                last_verdict = last.poll(&mut pair.client);
            }
            if status == (AppStatus::Done { ok: true }) {
                app_done = true;
            }
            if app_done && last_verdict.is_some() {
                break;
            }
        }
        assert_eq!(
            last_verdict,
            Some(RpcVerdict {
                ok: true,
                intact: true
            })
        );
        assert!(app_done, "server app never reported Done");
        assert_eq!(pair.app.served(), 3);
    }

    /// 5,000 exchanges, up to 4 in flight: the stream tables on both
    /// sides hold the calls in flight, not every call the connection
    /// has served.
    #[test]
    fn stream_tables_hold_only_the_calls_in_flight() {
        const CALLS: usize = 5_000;
        const MAX_IN_FLIGHT: usize = 4;
        let mut pair = Pair::new();
        let mut calls = Vec::new();
        let (mut started, mut done) = (0, 0);
        while done < CALLS {
            while calls.len() < MAX_IN_FLIGHT && started < CALLS {
                calls.push(RpcCall::start(&mut pair.client, b"ping", 32, false));
                started += 1;
            }
            let in_flight = calls.len();
            pair.tick();
            for (side, conn) in [("client", &pair.client), ("server", &pair.server.conn)] {
                let (send, recv) = conn.live_streams();
                assert!(
                    send <= in_flight && recv <= in_flight,
                    "{side}: {send} send and {recv} receive halves live \
                     with {in_flight} calls in flight, after {done} calls"
                );
            }
            calls.retain_mut(|call| match call.poll(&mut pair.client) {
                Some(verdict) => {
                    assert!(verdict.ok && verdict.intact);
                    done += 1;
                    false
                }
                None => true,
            });
        }
        // The last responses' ACKs reach the server: nothing is left.
        for _ in 0..10 {
            if pair.app.served() == CALLS as u64 {
                break;
            }
            pair.tick();
        }
        assert_eq!(pair.app.served(), CALLS as u64);
        assert_eq!(pair.client.live_streams(), (0, 0));
        assert_eq!(pair.server.conn.live_streams(), (0, 0));
    }

    /// A request datagram that arrives after its exchange was served and
    /// retired — a late copy, as retransmission on another path makes
    /// one — is acknowledged and dropped: the stream does not come back.
    #[test]
    fn a_late_request_for_a_retired_stream_is_dropped() {
        let mut pair = Pair::new();
        let mut call = RpcCall::start(&mut pair.client, b"late", 16, false);
        let id = call.stream();
        // Hold the request's datagram back until the exchange is over;
        // the client's loss timer sends the request again.
        let held = pair.client.poll_transmit(pair.now).expect("request");
        for _ in 0..8 {
            if pair.client.stats().frames_retransmitted > 0 {
                break;
            }
            pair.now = pair.client.next_timeout().expect("loss timer armed");
            pair.client.on_timeout(pair.now);
        }
        assert!(pair.client.stats().frames_retransmitted > 0);
        let mut verdict = None;
        for _ in 0..50 {
            pair.tick();
            verdict = verdict.or_else(|| call.poll(&mut pair.client));
            if verdict.is_some() && pair.server.conn.live_streams() == (0, 0) {
                break;
            }
        }
        assert_eq!(verdict.map(|v| v.ok && v.intact), Some(true));
        assert_eq!(pair.server.conn.live_streams(), (0, 0), "exchange retired");

        let server = &mut pair.server.conn;
        let received = server.stats().packets_received;
        server.handle_datagram(pair.now, held.remote, held.local, &held.payload);
        assert_eq!(server.stats().packets_received, received + 1, "accepted");
        assert_eq!(server.accept_stream(), None);
        assert!(!server.is_closed());
        assert_eq!(server.live_streams(), (0, 0));
        assert!(server.stream_is_finished(id) && server.stream_fully_acked(id));
    }

    /// Big enough for several packets and a pattern past one period.
    const RESP_LEN: u32 = 70_000;

    #[test]
    fn response_is_the_same_however_the_request_arrives() {
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 251) as u8).collect();
        let wire = request_wire(0, RESP_LEN, &payload);
        let checksum = Checksum64::of(&payload);
        let head = ResponseHead {
            status: STATUS_OK,
            checksum,
            resp_len: RESP_LEN,
        };
        let expected = [
            &head.encode()[..],
            &response_pattern(RESP_LEN as usize, checksum),
        ]
        .concat();

        let mut pair = Pair::new();
        let (_, whole) = pair.raw_exchange(&[&wire], true);
        assert_eq!(whole, expected, "request in one piece");
        let (_, split) = pair.raw_exchange(&[&wire[..6], &wire[6..]], true);
        assert_eq!(split, expected, "request split inside the header");
        // A shorter message keeps the byte-per-tick case quick.
        let small = request_wire(0, 64, b"drip");
        let bytes: Vec<&[u8]> = small.chunks(1).collect();
        let (_, dripped) = pair.raw_exchange(&bytes, true);
        let (_, at_once) = pair.raw_exchange(&[&small], true);
        assert_eq!(dripped, at_once, "request one byte per tick");
        assert_eq!(dripped.len(), RESP_HEADER_LEN + 64);
        assert!(!pair.app.any_bad);
    }

    fn bad_request_response() -> Vec<u8> {
        ResponseHead {
            status: STATUS_BAD_REQUEST,
            checksum: 0,
            resp_len: 0,
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn malformed_request_yields_bad_status() {
        let mut pair = Pair::new();
        // Hand-rolled garbage on a fresh stream.
        let (_, response) = pair.raw_exchange(&[b"not an rpc request"], true);
        assert_eq!(response, bad_request_response());
        assert!(pair.app.any_bad, "server accepted garbage");
    }

    #[test]
    fn truncated_request_is_rejected_at_fin() {
        let mut pair = Pair::new();
        let wire = request_wire(0, 64, b"0123456789");
        let (_, response) = pair.raw_exchange(&[&wire[..wire.len() - 4]], true);
        assert_eq!(response, bad_request_response());
        assert!(pair.app.any_bad);
    }

    /// Over-cap and over-long requests are answered before the client's
    /// FIN, and whatever the client streams afterwards is drained, not
    /// kept: with windows this small an unread stream would stall the
    /// client long before its 1 MiB is acknowledged.
    #[test]
    fn hopeless_requests_are_rejected_early_and_drained() {
        let over_cap = RequestHead {
            flags: 0,
            resp_len: 0,
            req_len: MAX_RPC_PAYLOAD as u32 + 1,
        }
        .encode()
        .to_vec();
        let over_long = request_wire(0, 64, b"four!");
        for (what, mut opening) in [("over-cap", over_cap), ("over-long", over_long)] {
            let mut pair = Pair::with_config(Config {
                stream_recv_window: 64 << 10,
                conn_recv_window: 128 << 10,
                ..Config::default()
            });
            if what == "over-long" {
                // Announced five bytes; a sixth follows.
                opening.push(b'!');
            }
            let (id, response) = pair.raw_exchange(&[&opening], false);
            assert_eq!(response, bad_request_response(), "{what}");
            assert!(pair.app.any_bad, "{what}");

            let _ = pair
                .client
                .stream_write(id, Bytes::from(vec![0xAAu8; 1 << 20]));
            pair.client.stream_finish(id);
            for _ in 0..2000 {
                pair.tick();
                if pair.client.stream_fully_acked(id) {
                    break;
                }
            }
            assert!(pair.client.stream_fully_acked(id), "{what}: stream wedged");
            pair.tick();
            assert!(pair.app.streams.is_empty(), "{what}: exchange never ended");
        }
    }

    /// An in-memory two-path wire that loses and reorders: a datagram is
    /// dropped with probability 1/50, otherwise delivered after its
    /// path's delay (path by client address: 5 ms or 12 ms) plus up to
    /// 4 ms of jitter, so datagrams overtake each other on a path and
    /// across the two.
    struct LossyWire {
        rng: mpquic_util::DetRng,
        /// `(due, sent order, to the server, local, remote, payload)`.
        in_flight: Vec<(SimTime, u64, bool, SocketAddr, SocketAddr, Vec<u8>)>,
        sent: u64,
        dropped: u64,
        overtaken: u64,
    }

    impl LossyWire {
        fn send(&mut self, now: SimTime, to_server: bool, t: mpquic_util::Datagram) {
            self.sent += 1;
            if self.rng.index(50) == 0 {
                self.dropped += 1;
                return;
            }
            let client_addr = if to_server { t.local } else { t.remote };
            let base = if client_addr == addr("10.0.0.1:1111") {
                5_000
            } else {
                12_000
            };
            let due = now + Duration::from_micros(base + self.rng.index(4_000) as u64);
            self.in_flight
                .push((due, self.sent, to_server, t.remote, t.local, t.payload));
        }

        /// Takes the datagrams due by `now`, in arrival order.
        fn due(&mut self, now: SimTime) -> Vec<(u64, bool, SocketAddr, SocketAddr, Vec<u8>)> {
            self.in_flight.sort_by_key(|d| (d.0, d.1));
            let split = self.in_flight.partition_point(|d| d.0 <= now);
            let mut latest = 0;
            self.in_flight
                .drain(..split)
                .map(|(_, order, to_server, local, remote, payload)| {
                    if order < latest {
                        self.overtaken += 1;
                    }
                    latest = latest.max(order);
                    (order, to_server, local, remote, payload)
                })
                .collect()
        }
    }

    /// `RpcVerdict::intact` checks a response's length and echoed
    /// checksum, not its body, so a client-side reassembly bug could
    /// pass it. Here an 8 MiB response crosses two lossy, reordering
    /// paths and every byte `RpcCall` reads borrowed from its stream is
    /// compared with `response_pattern`.
    #[test]
    fn a_response_over_two_lossy_paths_arrives_byte_for_byte() {
        use mpquic_util::Endpoint as _;
        const LEN: usize = 8 << 20;
        let config = Config::builder()
            .multipath()
            .idle_timeout(None)
            .build()
            .expect("valid config");
        let client_addrs = vec![addr("10.0.0.1:1111"), addr("10.0.1.1:1111")];
        let server_addrs = vec![addr("10.0.0.2:4433"), addr("10.0.1.2:4433")];
        let mut client = Connection::client(config.clone(), client_addrs, 0, server_addrs[0], 7);
        let mut server = QuicTransport::server(Connection::server(config, server_addrs, 8));
        let mut app = RpcServerApp::new();
        let mut wire = LossyWire {
            rng: mpquic_util::DetRng::new(0x5eed),
            in_flight: Vec::new(),
            sent: 0,
            dropped: 0,
            overtaken: 0,
        };
        let payload = b"an eight MiB download";
        let expected = response_pattern(LEN, Checksum64::of(payload));
        let mut call = RpcCall::start(&mut client, payload, LEN as u32, true);
        let mut body = Vec::with_capacity(LEN);
        let mut verdict = None;
        let mut now = SimTime::ZERO;
        for _ in 0..200_000 {
            now += Duration::from_millis(1);
            for (_, to_server, local, remote, payload) in wire.due(now) {
                if to_server {
                    server.handle_datagram(now, local, remote, &payload);
                } else {
                    client.handle_datagram(now, local, remote, &payload);
                }
            }
            if client.next_timeout().is_some_and(|due| due <= now) {
                client.on_timeout(now);
            }
            if server.conn.next_timeout().is_some_and(|due| due <= now) {
                server.conn.on_timeout(now);
            }
            let _ = app.poll(&mut server);
            verdict = call.poll_with(&mut client, |chunk| body.extend_from_slice(chunk));
            while let Some(t) = client.poll_transmit(now) {
                wire.send(now, true, t);
            }
            while let Some(t) = server.conn.poll_transmit(now) {
                wire.send(now, false, t);
            }
            if verdict.is_some() {
                break;
            }
        }
        assert_eq!(
            verdict,
            Some(RpcVerdict {
                ok: true,
                intact: true
            })
        );
        assert_eq!(body.len(), LEN);
        if let Some(at) = body.iter().zip(&expected).position(|(a, b)| a != b) {
            panic!("response byte {at} differs from the pattern");
        }
        // The wire did what it claims: loss, reordering, both paths.
        assert!(
            wire.dropped > 50,
            "{} of {} dropped",
            wire.dropped,
            wire.sent
        );
        assert!(wire.overtaken > 50, "{} overtaken", wire.overtaken);
        for id in client.path_ids() {
            assert!(
                client.path(id).unwrap().bytes_received > (256 << 10),
                "{id}"
            );
        }
    }
}
