//! The experiments run the same applications over four protocols: beside
//! `mpquic-core`'s [`Transport`] trait and [`QuicTransport`], this module
//! has [`TcpTransport`] over the modelled (MP)TCP stack and
//! [`AnyTransport`], which dispatches to either.

use bytes::Bytes;
use mpquic_core::{Connection, TransmitQueue};
pub use mpquic_core::{QuicTransport, Transport};
use mpquic_tcp::TcpStack;
use mpquic_util::{Datagram, Endpoint, SimTime};
use std::net::SocketAddr;

/// The (MP)TCP transport.
pub struct TcpTransport {
    /// The underlying stack (public for instrumentation).
    pub stack: TcpStack,
}

impl TcpTransport {
    /// Wraps a TCP stack.
    pub fn new(stack: TcpStack) -> TcpTransport {
        TcpTransport { stack }
    }
}

impl Transport for TcpTransport {
    fn write(&mut self, data: Bytes) {
        self.stack.write(data);
    }

    fn finish(&mut self) {
        self.stack.finish();
    }

    fn read_chunk(&mut self) -> Option<Bytes> {
        self.stack.read(usize::MAX)
    }

    fn recv_finished(&self) -> bool {
        self.stack.recv_finished()
    }

    fn is_established(&self) -> bool {
        self.stack.is_established()
    }
}

impl Endpoint for TcpTransport {
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        self.stack.handle_datagram(now, local, remote, payload);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        self.stack.poll_transmit(now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.stack.next_timeout()
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.stack.on_timeout(now);
    }
}

/// Either transport, statically dispatched per call.
#[allow(clippy::large_enum_variant)] // two long-lived stacks; boxing buys nothing
pub enum AnyTransport {
    /// (MP)QUIC.
    Quic(QuicTransport),
    /// (MP)TCP.
    Tcp(TcpTransport),
}

impl AnyTransport {
    /// The QUIC connection, when this is a QUIC transport.
    pub fn quic(&self) -> Option<&Connection> {
        match self {
            AnyTransport::Quic(q) => Some(&q.conn),
            AnyTransport::Tcp(_) => None,
        }
    }

    /// Mutable access to the QUIC connection, e.g. to install a
    /// telemetry subscriber before the simulation starts.
    pub fn quic_mut(&mut self) -> Option<&mut Connection> {
        match self {
            AnyTransport::Quic(q) => Some(&mut q.conn),
            AnyTransport::Tcp(_) => None,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $t:ident => $body:expr) => {
        match $self {
            AnyTransport::Quic($t) => $body,
            AnyTransport::Tcp($t) => $body,
        }
    };
}

impl Transport for AnyTransport {
    fn write(&mut self, data: Bytes) {
        dispatch!(self, t => t.write(data))
    }
    fn finish(&mut self) {
        dispatch!(self, t => t.finish())
    }
    fn read_chunk(&mut self) -> Option<Bytes> {
        dispatch!(self, t => t.read_chunk())
    }
    fn recv_finished(&self) -> bool {
        dispatch!(self, t => t.recv_finished())
    }
    fn is_established(&self) -> bool {
        dispatch!(self, t => t.is_established())
    }
    fn poll_transmit_batch(&mut self, now: SimTime, queue: &mut TransmitQueue) -> usize {
        dispatch!(self, t => t.poll_transmit_batch(now, queue))
    }
    fn discard_path_ops(&mut self) {
        dispatch!(self, t => t.discard_path_ops())
    }
}

impl Endpoint for AnyTransport {
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        dispatch!(self, t => t.handle_datagram(now, local, remote, payload))
    }
    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        dispatch!(self, t => t.poll_transmit(now))
    }
    fn next_timeout(&self) -> Option<SimTime> {
        dispatch!(self, t => t.next_timeout())
    }
    fn on_timeout(&mut self, now: SimTime) {
        dispatch!(self, t => t.on_timeout(now))
    }
}
