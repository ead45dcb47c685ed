//! Multi-endpoint, multi-hop simulation — shared-bottleneck topologies.
//!
//! The two-host [`crate::Simulation`] covers the paper's Fig. 2
//! (disjoint paths). The *fairness* argument behind the paper's choice of
//! OLIA ("Using CUBIC in a multipath protocol would cause unfairness
//! \[48\]", §3) needs more: several connections competing on a **shared
//! bottleneck**. [`MultiSimulation`] drives any number of endpoints over
//! routes that may traverse multiple links, with hop-by-hop queueing.

use mpquic_util::{DetRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::SocketAddr;

use crate::link::{Drop, Link, LinkParams};
use crate::sim::Endpoint;
use crate::{Datagram, NetStats, WIRE_OVERHEAD};

/// A route: the sequence of link indices a datagram traverses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Link indices, in traversal order.
    pub links: Vec<usize>,
}

/// A network of endpoints, links and routes.
pub struct MultiSimulation {
    endpoints: Vec<Box<dyn Endpoint>>,
    /// Which endpoint owns each address.
    owners: HashMap<SocketAddr, usize>,
    links: Vec<Link>,
    /// Route per (src, dst) address pair.
    routes: HashMap<(SocketAddr, SocketAddr), Route>,
    /// Heap of `(time, seq, event)`.
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Parked hop events: `(remaining hops, datagram)`.
    parked: Vec<Option<(Vec<usize>, Datagram)>>,
    now: SimTime,
    seq: u64,
    rng: DetRng,
    stats: NetStats,
}

impl MultiSimulation {
    /// Creates an empty network.
    pub fn new(seed: u64) -> MultiSimulation {
        MultiSimulation {
            endpoints: Vec::new(),
            owners: HashMap::new(),
            links: Vec::new(),
            routes: HashMap::new(),
            queue: BinaryHeap::new(),
            parked: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: DetRng::new(seed),
            stats: NetStats::default(),
        }
    }

    /// Adds an endpoint owning `addrs`; returns its index.
    pub fn add_endpoint(
        &mut self,
        endpoint: Box<dyn Endpoint>,
        addrs: impl IntoIterator<Item = SocketAddr>,
    ) -> usize {
        let idx = self.endpoints.len();
        self.endpoints.push(endpoint);
        for addr in addrs {
            let prev = self.owners.insert(addr, idx);
            assert!(prev.is_none(), "address {addr} already owned");
        }
        idx
    }

    /// Adds a unidirectional link; returns its index.
    pub fn add_link(&mut self, params: LinkParams) -> usize {
        self.links.push(Link::new(params));
        self.links.len() - 1
    }

    /// Adds a bidirectional link pair; returns `(forward, reverse)`.
    pub fn add_duplex(&mut self, params: LinkParams) -> (usize, usize) {
        (self.add_link(params), self.add_link(params))
    }

    /// Declares the route for datagrams from `src` to `dst`.
    pub fn add_route(&mut self, src: SocketAddr, dst: SocketAddr, links: Vec<usize>) {
        assert!(!links.is_empty());
        self.routes.insert((src, dst), Route { links });
    }

    /// Mutable access to an endpoint (for application driving).
    pub fn endpoint_mut(&mut self, idx: usize) -> &mut dyn Endpoint {
        self.endpoints[idx].as_mut()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// A link's counters: `(delivered, lost_random, lost_queue)`.
    pub fn link_counters(&self, idx: usize) -> (u64, u64, u64) {
        let l = &self.links[idx];
        (l.delivered, l.lost_random, l.lost_queue)
    }

    fn schedule_hop(&mut self, at: SimTime, remaining: Vec<usize>, datagram: Datagram) {
        let key = self.parked.len();
        self.parked.push(Some((remaining, datagram)));
        self.queue.push(Reverse((at, self.seq, key)));
        self.seq += 1;
    }

    /// Offers `datagram` to the first link of `remaining` at `now`,
    /// scheduling the next hop (or final delivery) on success.
    fn traverse(&mut self, now: SimTime, mut remaining: Vec<usize>, datagram: Datagram) {
        let link_idx = remaining.remove(0);
        let size = datagram.payload.len() + WIRE_OVERHEAD;
        match self.links[link_idx].offer(now, size, &mut self.rng) {
            Ok(arrival) => self.schedule_hop(arrival, remaining, datagram),
            Err(Drop::Random) => self.stats.lost_random += 1,
            Err(Drop::QueueFull) => self.stats.lost_queue += 1,
        }
    }

    fn dispatch(&mut self, datagram: Datagram) {
        let Some(route) = self.routes.get(&(datagram.local, datagram.remote)) else {
            self.stats.unroutable += 1;
            return;
        };
        let links = route.links.clone();
        self.traverse(self.now, links, datagram);
    }

    fn pump(&mut self) {
        loop {
            let mut any = false;
            let mut outgoing = Vec::new();
            for endpoint in &mut self.endpoints {
                while let Some(d) = endpoint.poll_transmit(self.now) {
                    outgoing.push(d);
                    any = true;
                }
            }
            for d in outgoing {
                self.dispatch(d);
            }
            if !any {
                break;
            }
        }
    }

    /// Runs one event step; `false` when the network is quiescent.
    pub fn step(&mut self) -> bool {
        self.pump();
        let next_event = self.queue.peek().map(|Reverse((t, ..))| *t);
        let next_timer = self.endpoints.iter().filter_map(|e| e.next_timeout()).min();
        let next = match (next_event, next_timer) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return false,
        };
        self.now = next.max(self.now);
        // Hop arrivals due now.
        while let Some(&Reverse((t, _, key))) = self.queue.peek() {
            if t > self.now {
                break;
            }
            self.queue.pop();
            let (remaining, datagram) = self.parked[key].take().expect("hop delivered once");
            if remaining.is_empty() {
                // Final delivery.
                match self.owners.get(&datagram.remote).copied() {
                    Some(idx) => {
                        self.stats.delivered += 1;
                        self.endpoints[idx].on_datagram(
                            self.now,
                            datagram.remote,
                            datagram.local,
                            &datagram.payload,
                        );
                    }
                    None => self.stats.unroutable += 1,
                }
            } else {
                self.traverse(self.now, remaining, datagram);
            }
        }
        // Timers due now.
        for endpoint in &mut self.endpoints {
            if endpoint.next_timeout().is_some_and(|t| t <= self.now) {
                endpoint.on_timeout(self.now);
            }
        }
        true
    }

    /// Runs until `until` returns true, the deadline passes, or the
    /// network goes quiescent.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut until: impl FnMut(&mut MultiSimulation) -> bool,
    ) -> bool {
        loop {
            if until(self) {
                return true;
            }
            if self.now >= deadline || !self.step() {
                return until(self);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ScriptedEndpoint;
    use std::time::Duration;

    fn addr(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn params(mbps: f64, delay_ms: f64) -> LinkParams {
        LinkParams::from_paper_units(mbps, delay_ms, 1000.0, 0.0)
    }

    #[test]
    fn two_hop_route_accumulates_delay() {
        let mut sim = MultiSimulation::new(1);
        let a = addr("10.0.0.1:1000");
        let b = addr("10.0.9.1:2000");
        let sender = ScriptedEndpoint::with_script(vec![(
            SimTime::ZERO,
            Datagram {
                local: a,
                remote: b,
                payload: vec![0; 972], // +28 = 1000 B
            },
        )]);
        let s = sim.add_endpoint(Box::new(sender), [a]);
        assert_eq!(s, 0);
        let receiver = sim.add_endpoint(Box::new(ScriptedEndpoint::silent()), [b]);
        // 8 Mbps (1 ms serialization for 1000 B) + 10 ms, twice.
        let l1 = sim.add_link(params(8.0, 10.0));
        let l2 = sim.add_link(params(8.0, 10.0));
        sim.add_route(a, b, vec![l1, l2]);
        sim.run_until(SimTime::from_secs(5), |_| false);
        {
            let e = sim.endpoint_mut(receiver);
            // Downcast through the scripted endpoint's record: we can't
            // downcast dyn Endpoint, so check link counters instead.
            let _ = e;
        };
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.link_counters(l1).0, 1);
        assert_eq!(sim.link_counters(l2).0, 1);
        // Total one-way: 1 + 10 + 1 + 10 = 22 ms; the sim clock stops at
        // the final delivery.
        assert_eq!(sim.now(), SimTime::from_millis(22));
    }

    #[test]
    fn bottleneck_serializes_competing_senders() {
        let mut sim = MultiSimulation::new(2);
        let a1 = addr("10.0.0.1:1000");
        let a2 = addr("10.0.1.1:1000");
        let b = addr("10.0.9.1:2000");
        let mk = |from: SocketAddr, n: usize| {
            ScriptedEndpoint::with_script(
                (0..n)
                    .map(|_| {
                        (
                            SimTime::ZERO,
                            Datagram {
                                local: from,
                                remote: b,
                                payload: vec![0; 972],
                            },
                        )
                    })
                    .collect(),
            )
        };
        sim.add_endpoint(Box::new(mk(a1, 5)), [a1]);
        sim.add_endpoint(Box::new(mk(a2, 5)), [a2]);
        sim.add_endpoint(Box::new(ScriptedEndpoint::silent()), [b]);
        // Fast access links, slow shared bottleneck.
        let acc1 = sim.add_link(params(100.0, 1.0));
        let acc2 = sim.add_link(params(100.0, 1.0));
        let shared = sim.add_link(params(8.0, 1.0)); // 1 ms per packet
        sim.add_route(a1, b, vec![acc1, shared]);
        sim.add_route(a2, b, vec![acc2, shared]);
        sim.run_until(SimTime::from_secs(5), |_| false);
        assert_eq!(sim.stats().delivered, 10);
        // All ten packets crossed the one bottleneck; with 1 ms
        // serialization each, the last arrives ≥ 10 ms in.
        assert_eq!(sim.link_counters(shared).0, 10);
        assert!(sim.now() >= SimTime::from_millis(10));
    }

    #[test]
    fn unroutable_pairs_counted() {
        let mut sim = MultiSimulation::new(3);
        let a = addr("10.0.0.1:1000");
        let b = addr("10.0.9.1:2000");
        let sender = ScriptedEndpoint::with_script(vec![(
            SimTime::ZERO,
            Datagram {
                local: a,
                remote: b,
                payload: vec![0; 10],
            },
        )]);
        sim.add_endpoint(Box::new(sender), [a]);
        sim.add_endpoint(Box::new(ScriptedEndpoint::silent()), [b]);
        // No route declared.
        sim.run_until(SimTime::from_secs(1), |_| false);
        assert_eq!(sim.stats().unroutable, 1);
        let _ = Duration::ZERO;
    }
}
