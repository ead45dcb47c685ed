//! The surface a loop drives, [`Transport`]: a sans-IO
//! [`Endpoint`] plus one byte stream, so real UDP sockets (`mpquic-io`)
//! and the simulator (`mpquic-harness`, which adds its TCP models) drive
//! the same [`QuicTransport`]. [`Connection`] itself is the [`Endpoint`]
//! the simulator drives when no application sits on top.

use crate::{Connection, StreamId, Transmit, TransmitQueue};
use bytes::Bytes;
use mpquic_util::{Datagram, Endpoint, SimTime};
use std::net::SocketAddr;

/// One bidirectional byte stream over some transport protocol, on top of
/// the [`Endpoint`] driving surface.
pub trait Transport: Endpoint {
    /// Appends data to the outgoing stream.
    fn write(&mut self, data: Bytes);
    /// Ends the outgoing stream.
    fn finish(&mut self);
    /// Reads the next chunk of in-order incoming data.
    fn read_chunk(&mut self) -> Option<Bytes>;
    /// True once the peer's end-of-stream was received and read.
    fn recv_finished(&self) -> bool;
    /// True once the secure handshake completed.
    fn is_established(&self) -> bool;

    /// Fills `queue` with as many outgoing datagrams as it accepts,
    /// returning how many wire datagrams were produced.
    ///
    /// The default implementation loops [`Endpoint::poll_transmit`]
    /// (one allocation per datagram, no coalescing); transports with a
    /// native batched egress path override it.
    fn poll_transmit_batch(&mut self, now: SimTime, queue: &mut TransmitQueue) -> usize {
        let mut produced = 0;
        while queue.has_capacity() {
            let Some(datagram) = self.poll_transmit(now) else {
                break;
            };
            queue.push(Transmit {
                local: datagram.local,
                remote: datagram.remote,
                payload: datagram.payload,
                segment_size: None,
            });
            produced += 1;
        }
        produced
    }
    /// Drops the routing operations the transport queued for an
    /// endpoint's demux (QUIC's [`crate::PathOp`]s). A loop that
    /// routes nothing on them — one connection on its own sockets, or
    /// the simulator — calls this after each step so they do not pile
    /// up; an endpoint pops and applies them instead. Nothing by default.
    fn discard_path_ops(&mut self) {}
}

impl Endpoint for Connection {
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        Connection::handle_datagram(self, now, local, remote, payload);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        Connection::poll_transmit(self, now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        Connection::next_timeout(self)
    }

    fn on_timeout(&mut self, now: SimTime) {
        Connection::on_timeout(self, now);
    }
}

/// The (MP)QUIC transport: a [`Connection`] with one application stream
/// (the paper's single-stream transfers).
pub struct QuicTransport {
    /// The underlying connection (public for instrumentation).
    pub conn: Connection,
    stream: StreamId,
}

/// The client's first stream ID (client-opened streams are odd).
const APP_STREAM: StreamId = 1;

impl QuicTransport {
    /// Wraps a client connection, opening the application stream.
    pub fn client(mut conn: Connection) -> QuicTransport {
        let stream = conn.open_stream();
        debug_assert_eq!(stream, APP_STREAM);
        QuicTransport { conn, stream }
    }

    /// Wraps a server connection; the stream is created when the client's
    /// first STREAM frame arrives.
    pub fn server(conn: Connection) -> QuicTransport {
        QuicTransport {
            conn,
            stream: APP_STREAM,
        }
    }
}

impl Transport for QuicTransport {
    fn write(&mut self, data: Bytes) {
        self.conn
            .stream_write(self.stream, data)
            .expect("app writes before finish");
    }

    fn finish(&mut self) {
        self.conn.stream_finish(self.stream);
    }

    fn read_chunk(&mut self) -> Option<Bytes> {
        self.conn.stream_read(self.stream, usize::MAX)
    }

    fn recv_finished(&self) -> bool {
        self.conn.stream_is_finished(self.stream)
    }

    fn is_established(&self) -> bool {
        self.conn.is_established()
    }

    fn poll_transmit_batch(&mut self, now: SimTime, queue: &mut TransmitQueue) -> usize {
        // Native batched egress: pool-backed buffers, GSO coalescing.
        self.conn.poll_transmit_batch(now, queue)
    }

    fn discard_path_ops(&mut self) {
        while self.conn.pop_path_op().is_some() {}
    }
}

impl Endpoint for QuicTransport {
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        self.conn.handle_datagram(now, local, remote, payload);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        self.conn.poll_transmit(now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.conn.next_timeout()
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.conn.on_timeout(now);
    }
}
