//! The UDP datagram exchanged between a transport state machine and
//! whatever carries its packets, and the sans-IO [`Endpoint`] surface
//! that exchanges them.
//!
//! Both network substrates in this workspace speak these: the
//! discrete-event simulator (`mpquic-netsim`) routes datagrams over
//! modelled links between [`Endpoint`]s, and the real-socket runtime
//! (`mpquic-io`) writes them to the operating system's UDP stack.
//! Keeping them here — in the dependency-free utility crate — lets
//! `mpquic-core`'s `Transport` (an [`Endpoint`] plus a byte stream)
//! stay agnostic about which substrate is underneath.

use crate::SimTime;
use std::net::SocketAddr;

/// A UDP datagram (or an encapsulated TCP segment) handed to the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Source address; selects the outgoing interface/link.
    pub local: SocketAddr,
    /// Destination address.
    pub remote: SocketAddr,
    /// Payload bytes (what a link bills for, plus any fixed overhead the
    /// substrate accounts separately).
    pub payload: Vec<u8>,
}

/// A sans-IO protocol endpoint: datagrams and timer events in, datagrams
/// out, time always passed in.
///
/// `mpquic-core`'s `Connection` and `mpquic-tcp`'s `TcpStack` implement
/// it, so the simulator's `Simulation` drives either stack directly.
pub trait Endpoint {
    /// A datagram arrived addressed to `local` from `remote`.
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    );
    /// Produces the next outgoing datagram, if any. Called until `None`.
    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram>;
    /// Earliest time `on_timeout` must run.
    fn next_timeout(&self) -> Option<SimTime>;
    /// The clock reached a previously announced timeout.
    fn on_timeout(&mut self, now: SimTime);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Datagram {
            local: "10.0.0.1:1000".parse().unwrap(),
            remote: "10.0.1.1:2000".parse().unwrap(),
            payload: vec![1, 2, 3],
        };
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.payload.len(), 3);
    }
}
