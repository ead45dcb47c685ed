//! The discrete-event simulation loop.
//!
//! [`Simulation`] owns any number of [`Endpoint`]s, a list of
//! unidirectional [`Link`]s, a route (the links a datagram crosses, in
//! order) for each `(source, destination)` address pair, and a
//! time-ordered queue of hop arrivals. [`Simulation::new`] builds the
//! paper's Fig. 2 network from a [`NetworkPlan`]: endpoint 0 is the
//! client, endpoint 1 the server, and path `p` is link `2p` (client →
//! server) plus link `2p + 1` (server → client), each a one-hop route.
//! [`Simulation::empty`] and the `add_*` methods build anything else,
//! such as several connections sharing a bottleneck. Each iteration:
//!
//! 1. drains `poll_transmit` from every endpoint in index order, offering
//!    each datagram to the first link of its route (loss and droptail
//!    applied on entry);
//! 2. advances the clock to the next hop arrival, protocol timer or link
//!    change;
//! 3. offers each datagram that reached the end of a hop to the next link
//!    of its route, or delivers it, then fires due timers in index order.
//!
//! The loop is fully deterministic for a given network and seed.

use mpquic_util::{DetRng, Endpoint, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::SocketAddr;

use crate::link::{Drop, Link, LinkParams};
use crate::topology::NetworkPlan;
use crate::trace::{PacketFate, PacketRecord, Trace};
use crate::{Datagram, LinkChange, WIRE_OVERHEAD};

/// Network-level statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams delivered end-to-end.
    pub delivered: u64,
    /// Datagrams lost to random loss.
    pub lost_random: u64,
    /// Datagrams lost to droptail queues.
    pub lost_queue: u64,
    /// Datagrams with no route (address pair not connected).
    pub unroutable: u64,
}

/// The simulation: endpoints joined by routed links.
pub struct Simulation<E: Endpoint> {
    /// The endpoints, in the order they were added ([`Simulation::new`]:
    /// the client, then the server).
    pub endpoints: Vec<E>,
    /// Which endpoint owns each address.
    owners: HashMap<SocketAddr, usize>,
    links: Vec<Link>,
    /// The links a datagram from `src` to `dst` crosses, in order.
    routes: HashMap<(SocketAddr, SocketAddr), Vec<usize>>,
    /// Hop arrivals: `(time, key into parked)`. Keys grow with every
    /// offer, so arrivals due at the same time keep their offer order.
    in_flight: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Each hop arrival's datagram and the index of the hop it crosses.
    parked: Vec<Option<(usize, Datagram)>>,
    pending_changes: Vec<LinkChange>,
    now: SimTime,
    rng: DetRng,
    stats: NetStats,
    trace: Option<Trace>,
}

impl<E: Endpoint> Simulation<E> {
    /// The Fig. 2 network: `client` owns `plan.client_addrs`, `server`
    /// owns `plan.server_addrs`, and path `p` is link `2p` (client →
    /// server) plus link `2p + 1` (server → client). All randomness is
    /// derived from `seed`.
    pub fn new(client: E, server: E, plan: NetworkPlan, seed: u64) -> Simulation<E> {
        let mut sim = Simulation::empty(seed);
        sim.add_endpoint(client, plan.client_addrs.iter().copied());
        sim.add_endpoint(server, plan.server_addrs.iter().copied());
        for (p, spec) in plan.paths.iter().enumerate() {
            let (up, down) = sim.add_duplex(spec.link_params());
            let (c, s) = (plan.client_addrs[p], plan.server_addrs[p]);
            sim.add_route(c, s, vec![up]);
            sim.add_route(s, c, vec![down]);
        }
        sim
    }

    /// A network with no endpoints, links or routes yet.
    pub fn empty(seed: u64) -> Simulation<E> {
        Simulation {
            endpoints: Vec::new(),
            owners: HashMap::new(),
            links: Vec::new(),
            routes: HashMap::new(),
            in_flight: BinaryHeap::new(),
            parked: Vec::new(),
            pending_changes: Vec::new(),
            now: SimTime::ZERO,
            rng: DetRng::new(seed),
            stats: NetStats::default(),
            trace: None,
        }
    }

    /// Adds an endpoint owning `addrs`; returns its index.
    pub fn add_endpoint(
        &mut self,
        endpoint: E,
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
        self.routes.insert((src, dst), links);
    }

    /// Turns on packet-level tracing (see [`Trace`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::default());
        }
    }

    /// The packet trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// A link's counters: `(delivered, lost_random, lost_queue)`.
    pub fn link_counters(&self, idx: usize) -> (u64, u64, u64) {
        let l = &self.links[idx];
        (l.delivered, l.lost_random, l.lost_queue)
    }

    /// Schedules a mid-run link parameter change (e.g. a path failing).
    pub fn schedule_change(&mut self, change: LinkChange) {
        self.pending_changes.push(change);
        self.pending_changes.sort_by_key(|c| c.at);
    }

    /// Offers `datagram` to hop `hop` of its route now, scheduling its
    /// arrival at the far end of that link on success.
    fn offer(&mut self, hop: usize, datagram: Datagram) {
        let size = datagram.payload.len() + WIRE_OVERHEAD;
        let route = self.routes.get(&(datagram.local, datagram.remote));
        let Some(&link) = route.map(|links| &links[hop]) else {
            self.stats.unroutable += 1;
            self.record(usize::MAX, size, PacketFate::Unroutable);
            return;
        };
        let fate = match self.links[link].offer(self.now, size, &mut self.rng) {
            Ok(arrival) => {
                self.in_flight.push(Reverse((arrival, self.parked.len())));
                self.parked.push(Some((hop, datagram)));
                PacketFate::Delivered { arrival }
            }
            Err(Drop::Random) => {
                self.stats.lost_random += 1;
                PacketFate::LostRandom
            }
            Err(Drop::QueueFull) => {
                self.stats.lost_queue += 1;
                PacketFate::LostQueue
            }
        };
        self.record(link, size, fate);
    }

    fn record(&mut self, link: usize, size: usize, fate: PacketFate) {
        if let Some(trace) = &mut self.trace {
            trace.push(PacketRecord {
                sent: self.now,
                link,
                size,
                fate,
            });
        }
    }

    fn pump(&mut self) {
        loop {
            let mut any = false;
            for idx in 0..self.endpoints.len() {
                while let Some(d) = self.endpoints[idx].poll_transmit(self.now) {
                    debug_assert_eq!(self.owners.get(&d.local), Some(&idx));
                    self.offer(0, d);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    fn apply_due_changes(&mut self) {
        while let Some(change) = self.pending_changes.first().copied() {
            if change.at > self.now {
                break;
            }
            self.pending_changes.remove(0);
            if let Some(link) = self.links.get_mut(change.link) {
                if let Some(loss) = change.loss {
                    link.params.loss = loss;
                }
                if let Some(delay) = change.one_way_delay {
                    link.params.one_way_delay = delay;
                }
            }
        }
    }

    /// Runs one event step. Returns `false` when nothing remains to do.
    pub fn step(&mut self) -> bool {
        self.apply_due_changes();
        self.pump();
        let next_arrival = self.in_flight.peek().map(|Reverse((t, ..))| *t);
        let next_timer = self.endpoints.iter().filter_map(E::next_timeout).min();
        let next_change = self.pending_changes.first().map(|c| c.at);
        let next = [next_arrival, next_timer, next_change]
            .into_iter()
            .flatten()
            .fold(SimTime::FAR_FUTURE, SimTime::min);
        if next == SimTime::FAR_FUTURE {
            return false;
        }
        // Endpoints may report timers that are already due (e.g. a loss
        // deadline computed for the past); never move the clock backwards.
        self.now = next.max(self.now);
        self.apply_due_changes();
        // Move every datagram that reached the end of a hop on to its
        // next link, or deliver it.
        while let Some(&Reverse((t, key))) = self.in_flight.peek() {
            if t > self.now {
                break;
            }
            self.in_flight.pop();
            let (hop, datagram) = self.parked[key].take().expect("arrives once");
            if hop + 1 < self.routes[&(datagram.local, datagram.remote)].len() {
                self.offer(hop + 1, datagram);
                continue;
            }
            match self.owners.get(&datagram.remote) {
                Some(&idx) => {
                    self.stats.delivered += 1;
                    self.endpoints[idx].handle_datagram(
                        self.now,
                        datagram.remote,
                        datagram.local,
                        &datagram.payload,
                    );
                }
                None => self.stats.unroutable += 1,
            }
        }
        // Fire due timers.
        let now = self.now;
        for endpoint in &mut self.endpoints {
            if endpoint.next_timeout().is_some_and(|t| t <= now) {
                endpoint.on_timeout(now);
            }
        }
        true
    }

    /// Runs until `until` returns true or the deadline passes or the
    /// simulation runs dry. Returns true if the condition was met.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut until: impl FnMut(&mut [E], SimTime) -> bool,
    ) -> bool {
        loop {
            if until(&mut self.endpoints, self.now) {
                return true;
            }
            if self.now >= deadline || !self.step() {
                return until(&mut self.endpoints, self.now);
            }
        }
    }

    /// Runs to quiescence or the deadline, whichever comes first.
    pub fn run_to_quiescence(&mut self, deadline: SimTime) {
        self.run_until(deadline, |_, _| false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PathSpec;

    /// A trivial endpoint for tests: records what it receives and sends a
    /// scripted list of datagrams at given times.
    #[derive(Debug, Default)]
    struct ScriptedEndpoint {
        /// `(send_at, datagram)` entries, consumed in order.
        script: Vec<(SimTime, Datagram)>,
        /// Everything received: `(when, from, payload_len)`.
        received: Vec<(SimTime, SocketAddr, usize)>,
        cursor: usize,
    }

    impl ScriptedEndpoint {
        /// An endpoint that sends nothing.
        fn silent() -> ScriptedEndpoint {
            ScriptedEndpoint::default()
        }

        /// An endpoint sending the given script.
        fn with_script(script: Vec<(SimTime, Datagram)>) -> ScriptedEndpoint {
            ScriptedEndpoint {
                script,
                ..Default::default()
            }
        }
    }

    impl Endpoint for ScriptedEndpoint {
        fn handle_datagram(
            &mut self,
            now: SimTime,
            _local: SocketAddr,
            remote: SocketAddr,
            payload: &[u8],
        ) {
            self.received.push((now, remote, payload.len()));
        }

        fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
            let (at, _) = self.script.get(self.cursor)?;
            if *at <= now {
                let (_, d) = &self.script[self.cursor];
                self.cursor += 1;
                Some(d.clone())
            } else {
                None
            }
        }

        fn next_timeout(&self) -> Option<SimTime> {
            self.script.get(self.cursor).map(|(at, _)| *at)
        }

        fn on_timeout(&mut self, _now: SimTime) {}
    }

    fn plan() -> NetworkPlan {
        NetworkPlan::two_host(&[
            PathSpec::new(10.0, 20, 100, 0.0),
            PathSpec::new(1.0, 100, 100, 0.0),
        ])
    }

    fn dgram(plan: &NetworkPlan, path: usize, from_client: bool, len: usize) -> Datagram {
        let (local, remote) = if from_client {
            (plan.client_addrs[path], plan.server_addrs[path])
        } else {
            (plan.server_addrs[path], plan.client_addrs[path])
        };
        Datagram {
            local,
            remote,
            payload: vec![0xAA; len],
        }
    }

    fn addr(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn params(mbps: f64, delay_ms: f64) -> LinkParams {
        LinkParams::from_paper_units(mbps, delay_ms, 1000.0, 0.0)
    }

    /// One 972-byte (1000 B on the wire) datagram from `from` to `to`.
    fn one_datagram(from: SocketAddr, to: SocketAddr) -> ScriptedEndpoint {
        ScriptedEndpoint::with_script(vec![(
            SimTime::ZERO,
            Datagram {
                local: from,
                remote: to,
                payload: vec![0; 972],
            },
        )])
    }

    #[test]
    fn delivery_respects_path_delay() {
        let plan = plan();
        let d0 = dgram(&plan, 0, true, 100);
        let d1 = dgram(&plan, 1, true, 100);
        let a = ScriptedEndpoint::with_script(vec![(SimTime::ZERO, d0), (SimTime::ZERO, d1)]);
        let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, 1);
        sim.run_to_quiescence(SimTime::from_secs(10));
        let received = &sim.endpoints[1].received;
        assert_eq!(received.len(), 2);
        // Path 0: ~10 ms one-way (+ serialization). Path 1: ~50 ms.
        let t0 = received[0].0;
        let t1 = received[1].0;
        assert!(
            t0 >= SimTime::from_millis(10) && t0 < SimTime::from_millis(12),
            "{t0:?}"
        );
        assert!(
            t1 >= SimTime::from_millis(50) && t1 < SimTime::from_millis(53),
            "{t1:?}"
        );
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn cross_path_addresses_unroutable() {
        let plan = plan();
        let bogus = Datagram {
            local: plan.client_addrs[0],
            remote: plan.server_addrs[1],
            payload: vec![0; 10],
        };
        let a = ScriptedEndpoint::with_script(vec![(SimTime::ZERO, bogus)]);
        let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, 1);
        sim.run_to_quiescence(SimTime::from_secs(1));
        assert_eq!(sim.endpoints[1].received.len(), 0);
        assert_eq!(sim.stats().unroutable, 1);
    }

    #[test]
    fn both_directions_work() {
        let plan = plan();
        let to_server = dgram(&plan, 0, true, 10);
        let to_client = dgram(&plan, 0, false, 20);
        let a = ScriptedEndpoint::with_script(vec![(SimTime::ZERO, to_server)]);
        let b = ScriptedEndpoint::with_script(vec![(SimTime::ZERO, to_client)]);
        let mut sim = Simulation::new(a, b, plan, 1);
        sim.run_to_quiescence(SimTime::from_secs(1));
        assert_eq!(sim.endpoints[1].received.len(), 1);
        assert_eq!(sim.endpoints[0].received.len(), 1);
    }

    #[test]
    fn scheduled_loss_change_kills_path() {
        let plan = plan();
        let before = dgram(&plan, 0, true, 10);
        let after = dgram(&plan, 0, true, 10);
        let a = ScriptedEndpoint::with_script(vec![
            (SimTime::ZERO, before),
            (SimTime::from_secs(4), after),
        ]);
        let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, 1);
        sim.schedule_change(LinkChange {
            at: SimTime::from_secs(3),
            link: 0,
            loss: Some(1.0),
            one_way_delay: None,
        });
        sim.run_to_quiescence(SimTime::from_secs(10));
        assert_eq!(
            sim.endpoints[1].received.len(),
            1,
            "only the pre-change datagram arrives"
        );
        assert_eq!(sim.stats().lost_random, 1);
    }

    #[test]
    fn a_link_change_leaves_the_reverse_link_alone() {
        let plan = plan();
        let up = dgram(&plan, 1, true, 10);
        let down = dgram(&plan, 1, false, 10);
        let a = ScriptedEndpoint::with_script(vec![(SimTime::from_secs(2), up)]);
        let b = ScriptedEndpoint::with_script(vec![(SimTime::from_secs(2), down)]);
        let mut sim = Simulation::new(a, b, plan, 1);
        // Path 1's client → server link dies; its server → client link
        // (link 3) keeps the plan's parameters.
        sim.schedule_change(LinkChange {
            at: SimTime::from_secs(1),
            link: 2,
            loss: Some(1.0),
            one_way_delay: None,
        });
        sim.run_to_quiescence(SimTime::from_secs(10));
        assert!(sim.endpoints[1].received.is_empty());
        assert_eq!(sim.endpoints[0].received.len(), 1);
        assert_eq!(sim.link_counters(2), (0, 1, 0));
        assert_eq!(sim.link_counters(3), (1, 0, 0));
    }

    #[test]
    fn rate_limiting_spaces_deliveries() {
        // 1 Mbps path: a 1250 B payload (+28 overhead) takes ~10.2 ms to
        // serialize; back-to-back sends arrive ~10.2 ms apart.
        let plan = NetworkPlan::two_host(&[PathSpec::new(1.0, 0, 1000, 0.0)]);
        let script = (0..5)
            .map(|_| (SimTime::ZERO, dgram(&plan, 0, true, 1250)))
            .collect();
        let a = ScriptedEndpoint::with_script(script);
        let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, 1);
        sim.run_to_quiescence(SimTime::from_secs(10));
        let received = &sim.endpoints[1].received;
        assert_eq!(received.len(), 5);
        let times: Vec<u64> = received.iter().map(|(t, ..)| t.as_micros()).collect();
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            assert!((10_100..10_300).contains(&gap), "gap {gap} µs");
        }
    }

    #[test]
    fn delay_change_applies_mid_run() {
        let plan = NetworkPlan::two_host(&[PathSpec::new(10.0, 20, 100, 0.0)]);
        let early = dgram(&plan, 0, true, 100);
        let late = dgram(&plan, 0, true, 100);
        let a = ScriptedEndpoint::with_script(vec![
            (SimTime::ZERO, early),
            (SimTime::from_secs(2), late),
        ]);
        let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, 1);
        sim.schedule_change(LinkChange {
            at: SimTime::from_secs(1),
            link: 0,
            loss: None,
            one_way_delay: Some(std::time::Duration::from_millis(200)),
        });
        sim.run_to_quiescence(SimTime::from_secs(10));
        let received = &sim.endpoints[1].received;
        assert_eq!(received.len(), 2);
        let first = received[0].0;
        let second = received[1].0;
        assert!(first < SimTime::from_millis(15), "{first:?}");
        assert!(
            second >= SimTime::from_millis(2200),
            "late datagram should see the 200 ms delay: {second:?}"
        );
    }

    #[test]
    fn link_counters_track_per_link_activity() {
        let plan = plan();
        let script = vec![
            (SimTime::ZERO, dgram(&plan, 0, true, 100)),
            (SimTime::ZERO, dgram(&plan, 0, true, 100)),
            (SimTime::ZERO, dgram(&plan, 1, true, 100)),
        ];
        let a = ScriptedEndpoint::with_script(script);
        let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, 1);
        sim.run_to_quiescence(SimTime::from_secs(2));
        assert_eq!(sim.link_counters(0), (2, 0, 0));
        assert_eq!(sim.link_counters(1), (0, 0, 0));
        assert_eq!(sim.link_counters(2), (1, 0, 0));
        assert_eq!(sim.link_counters(3), (0, 0, 0));
    }

    #[test]
    fn wire_overhead_billed_on_links() {
        // A 1 Mbps link: 972 B payload + 28 B overhead = 1000 B = 8 ms.
        let plan = NetworkPlan::two_host(&[PathSpec::new(1.0, 0, 1000, 0.0)]);
        let a = ScriptedEndpoint::with_script(vec![(SimTime::ZERO, dgram(&plan, 0, true, 972))]);
        let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, 1);
        sim.run_to_quiescence(SimTime::from_secs(1));
        assert_eq!(sim.endpoints[1].received[0].0, SimTime::from_millis(8));
    }

    #[test]
    fn determinism_across_runs() {
        let run = |seed: u64| {
            let plan = NetworkPlan::two_host(&[PathSpec::new(5.0, 20, 50, 20.0)]);
            let script = (0..50)
                .map(|i| (SimTime::from_millis(i * 5), dgram(&plan, 0, true, 500)))
                .collect();
            let a = ScriptedEndpoint::with_script(script);
            let mut sim = Simulation::new(a, ScriptedEndpoint::silent(), plan, seed);
            sim.run_to_quiescence(SimTime::from_secs(10));
            (sim.endpoints[1].received.len(), sim.stats())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(999).0);
    }

    #[test]
    fn two_hop_route_accumulates_delay() {
        let mut sim = Simulation::empty(1);
        let a = addr("10.0.0.1:1000");
        let b = addr("10.0.9.1:2000");
        assert_eq!(sim.add_endpoint(one_datagram(a, b), [a]), 0);
        let receiver = sim.add_endpoint(ScriptedEndpoint::silent(), [b]);
        // 8 Mbps (1 ms serialization for 1000 B) + 10 ms, twice.
        let l1 = sim.add_link(params(8.0, 10.0));
        let l2 = sim.add_link(params(8.0, 10.0));
        sim.add_route(a, b, vec![l1, l2]);
        sim.run_to_quiescence(SimTime::from_secs(5));
        // Total one-way: 1 + 10 + 1 + 10 = 22 ms; the sim clock stops at
        // the final delivery.
        assert_eq!(
            sim.endpoints[receiver].received,
            [(SimTime::from_millis(22), a, 972)]
        );
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.link_counters(l1).0, 1);
        assert_eq!(sim.link_counters(l2).0, 1);
        assert_eq!(sim.now(), SimTime::from_millis(22));
    }

    #[test]
    fn the_trace_records_every_hop_a_datagram_reaches() {
        let mut sim = Simulation::empty(1);
        let a = addr("10.0.0.1:1000");
        let b = addr("10.0.9.1:2000");
        sim.add_endpoint(one_datagram(a, b), [a]);
        sim.add_endpoint(ScriptedEndpoint::silent(), [b]);
        let l1 = sim.add_link(params(8.0, 10.0));
        let l2 = sim.add_link(params(8.0, 10.0));
        sim.add_route(a, b, vec![l1, l2]);
        sim.enable_trace();
        sim.run_to_quiescence(SimTime::from_secs(5));
        let hop = |sent_ms, link, arrival_ms| PacketRecord {
            sent: SimTime::from_millis(sent_ms),
            link,
            size: 1000,
            fate: PacketFate::Delivered {
                arrival: SimTime::from_millis(arrival_ms),
            },
        };
        assert_eq!(
            sim.trace().expect("enabled").records(),
            [hop(0, l1, 11), hop(11, l2, 22)]
        );
    }

    #[test]
    fn a_loss_on_the_second_hop_is_counted_once() {
        let mut sim = Simulation::empty(1);
        let a = addr("10.0.0.1:1000");
        let b = addr("10.0.9.1:2000");
        sim.add_endpoint(one_datagram(a, b), [a]);
        sim.add_endpoint(ScriptedEndpoint::silent(), [b]);
        let l1 = sim.add_link(params(8.0, 10.0));
        let l2 = sim.add_link(LinkParams {
            loss: 1.0,
            ..params(8.0, 10.0)
        });
        sim.add_route(a, b, vec![l1, l2]);
        sim.run_to_quiescence(SimTime::from_secs(5));
        assert!(sim.endpoints.iter().all(|e| e.received.is_empty()));
        assert_eq!(
            sim.stats(),
            NetStats {
                lost_random: 1,
                ..NetStats::default()
            }
        );
        assert_eq!(sim.link_counters(l1), (1, 0, 0));
        assert_eq!(sim.link_counters(l2), (0, 1, 0));
    }

    #[test]
    fn bottleneck_serializes_competing_senders() {
        let mut sim = Simulation::empty(2);
        let a1 = addr("10.0.0.1:1000");
        let a2 = addr("10.0.1.1:1000");
        let b = addr("10.0.9.1:2000");
        let five = |from: SocketAddr| {
            ScriptedEndpoint::with_script(
                (0..5)
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
        sim.add_endpoint(five(a1), [a1]);
        sim.add_endpoint(five(a2), [a2]);
        sim.add_endpoint(ScriptedEndpoint::silent(), [b]);
        // Fast access links, slow shared bottleneck.
        let acc1 = sim.add_link(params(100.0, 1.0));
        let acc2 = sim.add_link(params(100.0, 1.0));
        let shared = sim.add_link(params(8.0, 1.0)); // 1 ms per packet
        sim.add_route(a1, b, vec![acc1, shared]);
        sim.add_route(a2, b, vec![acc2, shared]);
        sim.run_to_quiescence(SimTime::from_secs(5));
        assert_eq!(sim.stats().delivered, 10);
        // All ten packets crossed the one bottleneck; with 1 ms
        // serialization each, the last arrives ≥ 10 ms in.
        assert_eq!(sim.link_counters(shared).0, 10);
        assert!(sim.now() >= SimTime::from_millis(10));
    }

    #[test]
    fn unroutable_pairs_counted() {
        let mut sim = Simulation::empty(3);
        let a = addr("10.0.0.1:1000");
        let b = addr("10.0.9.1:2000");
        sim.add_endpoint(one_datagram(a, b), [a]);
        sim.add_endpoint(ScriptedEndpoint::silent(), [b]);
        // No route declared.
        sim.run_to_quiescence(SimTime::from_secs(1));
        assert_eq!(sim.stats().unroutable, 1);
    }
}
