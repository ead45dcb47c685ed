//! Shared-bottleneck fairness — why the paper pairs MPQUIC with OLIA.
//!
//! §3 of the paper: "To achieve a fair distribution of network resources,
//! transport protocols rely on congestion control algorithms. ... Using
//! CUBIC in a multipath protocol would cause unfairness \[48\]." The
//! two-host simulator cannot show this (fairness is about *competing
//! connections*), so this experiment uses
//! [`mpquic_netsim::MultiSimulation`]: a multipath connection whose two
//! paths both traverse a shared bottleneck, competing with an ordinary
//! single-path QUIC connection.
//!
//! With coupled OLIA the multipath connection behaves like *one* flow at
//! the bottleneck and the single-path competitor keeps ≈ half the
//! capacity; with uncoupled CUBIC per path the multipath connection acts
//! like two flows and squeezes the competitor toward one third.

use mpquic_core::{CcAlgorithm, Config, Connection};
use mpquic_netsim::{Datagram, Endpoint, LinkParams, MultiSimulation};
use mpquic_util::SimTime;
use std::cell::Cell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Duration;

use crate::app::App;
use crate::protocol::ProtoEndpoint;
use crate::transport::{AnyTransport, QuicTransport};

/// Wraps a [`ProtoEndpoint`] and mirrors its application byte counter
/// into a shared cell the experiment can read after the run (boxed
/// endpoints inside the simulation are not downcastable).
struct CountingEndpoint {
    inner: ProtoEndpoint,
    bytes: Rc<Cell<u64>>,
}

impl Endpoint for CountingEndpoint {
    fn on_datagram(&mut self, now: SimTime, local: SocketAddr, remote: SocketAddr, payload: &[u8]) {
        self.inner.on_datagram(now, local, remote, payload);
        self.bytes.set(self.inner.app.bytes_received());
    }
    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        let d = self.inner.poll_transmit(now);
        self.bytes.set(self.inner.app.bytes_received());
        d
    }
    fn next_timeout(&self) -> Option<SimTime> {
        self.inner.next_timeout()
    }
    fn on_timeout(&mut self, now: SimTime) {
        self.inner.on_timeout(now);
        self.bytes.set(self.inner.app.bytes_received());
    }
}

/// Result of one fairness run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessOutcome {
    /// Goodput of the 2-path multipath connection, bytes/sec.
    pub multipath_goodput: f64,
    /// Goodput of the single-path competitor, bytes/sec.
    pub single_goodput: f64,
}

impl FairnessOutcome {
    /// The competitor's share of the aggregate goodput (0.5 = perfectly
    /// fair against a one-flow-equivalent multipath connection).
    pub fn single_share(&self) -> f64 {
        self.single_goodput / (self.multipath_goodput + self.single_goodput)
    }
}

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

/// Runs the dumbbell experiment: a 2-path MPQUIC download (with the given
/// per-path congestion controller) and a single-path QUIC download share
/// one `bottleneck_mbps` link for `horizon` of simulated time.
pub fn run_shared_bottleneck(
    multipath_cc: CcAlgorithm,
    bottleneck_mbps: f64,
    horizon: Duration,
    seed: u64,
) -> FairnessOutcome {
    // Addresses: multipath pair (c0,c1 -> s0,s1), competitor (cb -> sb).
    let c0 = addr("10.0.0.1:40000");
    let c1 = addr("10.1.0.1:40000");
    let s0 = addr("10.0.8.1:443");
    let s1 = addr("10.1.8.1:443");
    let cb = addr("10.2.0.1:40000");
    let sb = addr("10.2.8.1:443");

    let mut sim = MultiSimulation::new(seed);
    // Generous access links; the only scarce resource is the bottleneck.
    let access = LinkParams::from_paper_units(100.0, 5.0, 200.0, 0.0);
    let bottleneck = LinkParams::from_paper_units(bottleneck_mbps, 10.0, 100.0, 0.0);
    let (acc0_f, acc0_r) = sim.add_duplex(access);
    let (acc1_f, acc1_r) = sim.add_duplex(access);
    let (accb_f, accb_r) = sim.add_duplex(access);
    let (bott_f, bott_r) = sim.add_duplex(bottleneck);

    // Client -> server crosses access then bottleneck; the reverse path
    // mirrors it. Both multipath paths AND the competitor share the
    // bottleneck in each direction.
    sim.add_route(c0, s0, vec![acc0_f, bott_f]);
    sim.add_route(s0, c0, vec![bott_r, acc0_r]);
    sim.add_route(c1, s1, vec![acc1_f, bott_f]);
    sim.add_route(s1, c1, vec![bott_r, acc1_r]);
    sim.add_route(cb, sb, vec![accb_f, bott_f]);
    sim.add_route(sb, cb, vec![bott_r, accb_r]);

    // Big enough downloads that nobody finishes within the horizon
    // (64 MB at a ≤100 Mbps bottleneck outlasts any sensible horizon).
    let payload = 64 << 20;
    let make = |conn: Connection, client: bool, response: usize| ProtoEndpoint {
        transport: AnyTransport::Quic(if client {
            QuicTransport::client(conn)
        } else {
            QuicTransport::server(conn)
        }),
        app: if client {
            App::file_client(100)
        } else {
            App::file_server(100, response)
        },
    };

    let mut mp_config = Config::multipath();
    mp_config.cc = multipath_cc;
    let mp_client = Connection::client(mp_config.clone(), vec![c0, c1], 0, s0, seed * 7 + 1);
    let mp_server = Connection::server(mp_config, vec![s0, s1], seed * 7 + 2);
    let sp_config = Config::single_path();
    let sp_client = Connection::client(sp_config.clone(), vec![cb], 0, sb, seed * 7 + 3);
    let sp_server = Connection::server(sp_config, vec![sb], seed * 7 + 4);

    let mp_bytes = Rc::new(Cell::new(0u64));
    let sp_bytes = Rc::new(Cell::new(0u64));
    sim.add_endpoint(
        Box::new(CountingEndpoint {
            inner: make(mp_client, true, 0),
            bytes: Rc::clone(&mp_bytes),
        }),
        [c0, c1],
    );
    sim.add_endpoint(Box::new(make(mp_server, false, payload)), [s0, s1]);
    sim.add_endpoint(
        Box::new(CountingEndpoint {
            inner: make(sp_client, true, 0),
            bytes: Rc::clone(&sp_bytes),
        }),
        [cb],
    );
    sim.add_endpoint(Box::new(make(sp_server, false, payload)), [sb]);

    let deadline = SimTime::ZERO + horizon;
    sim.run_until(deadline, |_| false);
    let elapsed = horizon.as_secs_f64();
    FairnessOutcome {
        multipath_goodput: mp_bytes.get() as f64 / elapsed,
        single_goodput: sp_bytes.get() as f64 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn olia_is_fairer_than_uncoupled_cubic_at_a_shared_bottleneck() {
        let horizon = Duration::from_secs(12);
        let olia = run_shared_bottleneck(CcAlgorithm::Olia, 8.0, horizon, 5);
        let cubic = run_shared_bottleneck(CcAlgorithm::Cubic, 8.0, horizon, 5);
        // Both runs keep the bottleneck busy.
        let total_olia = olia.multipath_goodput + olia.single_goodput;
        assert!(
            total_olia * 8.0 > 8e6 * 0.6,
            "bottleneck should be well utilized: {:.2} Mbps",
            total_olia * 8.0 / 1e6
        );
        // The paper's point: coupled OLIA leaves the competitor a larger
        // share than two uncoupled CUBIC subflows do.
        assert!(
            olia.single_share() > cubic.single_share() + 0.04,
            "OLIA share {:.3} should exceed CUBIC share {:.3}",
            olia.single_share(),
            cubic.single_share()
        );
        // And OLIA's competitor lands in the fair-ish region.
        assert!(
            olia.single_share() > 0.35,
            "OLIA single share {:.3} too small",
            olia.single_share()
        );
    }
}
