//! The two-path network the end-to-end suites of `mpquic-core` and
//! `mpquic-tcp` run a client and a server on, each suite including this
//! file with `#[path]`.
//!
//! It is an `mpquic_netsim::Simulation` whose links are pure delay
//! (unbounded rate, so no serialization and no queue), 20 ms one way
//! unless a test changes it. The client owns `C0` and `C1`, the server
//! `S0` and `S1`, and every client–server address pair has a route in
//! both directions ([`Net::new`] says over which path). A route
//! crosses two links: the path's delay, then a zero-delay last hop, so
//! a path can fail at the sender ([`Net::kill_path`]) or at delivery,
//! taking what is on the wire with it ([`Net::cut_path`]).
//!
//! Every datagram either end sends passes one tap in send order and
//! takes the next number of one sequence, whether the tap keeps it or
//! not ([`Net::tap`], [`Net::drop_seqs`]).

#![allow(dead_code)] // each suite uses its own part

use mpquic_netsim::{Datagram, Endpoint, LinkChange, LinkParams, Simulation};
use mpquic_util::SimTime;
use std::cell::RefCell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Duration;

pub const C0: &str = "10.0.0.1:50000";
pub const C1: &str = "10.1.0.1:50001";
pub const S0: &str = "10.0.1.1:4433";
pub const S1: &str = "10.1.1.1:4433";

pub fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

/// Decides a sent datagram's fate from its sender (0 the client, 1 the
/// server), its sequence number, the time and the datagram itself:
/// `false` drops it.
type Tap = Box<dyn FnMut(usize, u64, SimTime, &Datagram) -> bool>;

struct Wire {
    sent: u64,
    tap: Tap,
}

/// One end of the network, sending through the shared tap.
struct Tapped<E> {
    inner: E,
    side: usize,
    wire: Rc<RefCell<Wire>>,
}

impl<E: Endpoint> Endpoint for Tapped<E> {
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        self.inner.handle_datagram(now, local, remote, payload);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        loop {
            let datagram = self.inner.poll_transmit(now)?;
            let mut wire = self.wire.borrow_mut();
            let seq = wire.sent;
            wire.sent += 1;
            if (wire.tap)(self.side, seq, now, &datagram) {
                return Some(datagram);
            }
        }
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.inner.next_timeout()
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.inner.on_timeout(now);
    }
}

/// The two ends and the time, as a [`Net::run_until`] condition sees
/// them.
pub struct Ends<'a, E> {
    pub client: &'a mut E,
    pub server: &'a mut E,
    pub now: SimTime,
}

pub struct Net<E: Endpoint> {
    sim: Simulation<Tapped<E>>,
    wire: Rc<RefCell<Wire>>,
}

impl<E: Endpoint> Net<E> {
    /// A datagram between `Cp` and `Sp` crosses path `p`, one between
    /// `C0` and `S1` or `C1` and `S0` path `cross`. Path `p` is link
    /// `2p` (the delay), then link `2p + 1` (the last hop).
    pub fn new(client: E, server: E, cross: usize) -> Net<E> {
        let wire = Rc::new(RefCell::new(Wire {
            sent: 0,
            tap: Box::new(|_, _, _, _| true),
        }));
        let mut sim = Simulation::empty(0);
        let ends = [(client, [C0, C1]), (server, [S0, S1])];
        for (side, (inner, addrs)) in ends.into_iter().enumerate() {
            let wire = wire.clone();
            let end = Tapped { inner, side, wire };
            sim.add_endpoint(end, addrs.map(addr));
        }
        for delay_ms in [20, 0, 20, 0] {
            sim.add_link(LinkParams {
                rate_bps: f64::INFINITY,
                one_way_delay: Duration::from_millis(delay_ms),
                max_queue_delay: Duration::ZERO,
                loss: 0.0,
            });
        }
        for (i, c) in [C0, C1].map(addr).into_iter().enumerate() {
            for (j, s) in [S0, S1].map(addr).into_iter().enumerate() {
                let p = if i == j { i } else { cross };
                sim.add_route(c, s, vec![2 * p, 2 * p + 1]);
                sim.add_route(s, c, vec![2 * p, 2 * p + 1]);
            }
        }
        Net { sim, wire }
    }

    pub fn client(&mut self) -> &mut E {
        &mut self.sim.endpoints[0].inner
    }

    pub fn server(&mut self) -> &mut E {
        &mut self.sim.endpoints[1].inner
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Replaces the tap that keeps or drops each datagram sent from now
    /// on.
    pub fn tap(&mut self, tap: impl FnMut(usize, u64, SimTime, &Datagram) -> bool + 'static) {
        self.wire.borrow_mut().tap = Box::new(tap);
    }

    /// Drops the datagrams with these sequence numbers.
    pub fn drop_seqs(&mut self, seqs: impl IntoIterator<Item = u64>) {
        let seqs: Vec<u64> = seqs.into_iter().collect();
        self.tap(move |_, seq, _, _| !seqs.contains(&seq));
    }

    /// Path `path`'s one-way delay for datagrams sent from now on.
    pub fn set_delay(&mut self, path: usize, delay: Duration) {
        self.change(2 * path, None, Some(delay));
    }

    /// Path `path` drops every datagram sent from now on; what is on
    /// the wire still arrives.
    pub fn kill_path(&mut self, path: usize) {
        self.change(2 * path, Some(1.0), None);
    }

    /// Path `path` drops every datagram delivered from now on, what is
    /// on the wire included, as a real link failure does.
    pub fn cut_path(&mut self, path: usize) {
        self.change(2 * path + 1, Some(1.0), None);
    }

    fn change(&mut self, link: usize, loss: Option<f64>, one_way_delay: Option<Duration>) {
        self.sim.schedule_change(LinkChange {
            at: self.sim.now(),
            link,
            loss,
            one_way_delay,
        });
    }

    /// Runs until `cond` holds, the network runs dry or the clock passes
    /// `limit`; returns whether `cond` held.
    pub fn run_until(
        &mut self,
        mut cond: impl FnMut(&mut Ends<'_, E>) -> bool,
        limit: SimTime,
    ) -> bool {
        // The simulation stops once its clock reaches the deadline; the
        // suites' limits let the clock run up to and including `limit`.
        let deadline = limit + Duration::from_nanos(1);
        self.sim.run_until(deadline, |ends, now| {
            let [client, server] = ends else {
                unreachable!("a client and a server")
            };
            cond(&mut Ends {
                client: &mut client.inner,
                server: &mut server.inner,
                now,
            })
        })
    }
}
