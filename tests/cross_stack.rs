//! Workspace-level integration tests spanning every crate: the wire
//! format, crypto, both protocol stacks, the simulator, the experimental
//! design and the harness — invariants that only hold when all the
//! pieces cooperate.

use bytes::Bytes;
use mpquic_core::{Config, Connection, PathId};
use mpquic_crypto::{nonce_for, NonceMode};
use mpquic_expdesign::table1::design_scenarios;
use mpquic_expdesign::ExperimentClass;
use mpquic_harness::{run_file_transfer, Overrides, Protocol};
use mpquic_netsim::{Datagram, Endpoint, NetworkPlan, PathSpec, Simulation};
use mpquic_util::SimTime;
use mpquic_wire::PublicHeader;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::Duration;

/// An endpoint wrapper that records every public header it emits, so
/// tests can check wire-level invariants of a live connection.
struct RecordingEndpoint {
    conn: Connection,
    headers: Vec<PublicHeader>,
}

impl Endpoint for RecordingEndpoint {
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
        let datagram = self.conn.poll_transmit(now)?;
        let mut cursor = &datagram.payload[..];
        let header = PublicHeader::decode(&mut cursor).expect("own packets parse");
        self.headers.push(header);
        Some(datagram)
    }
    fn next_timeout(&self) -> Option<SimTime> {
        self.conn.next_timeout()
    }
    fn on_timeout(&mut self, now: SimTime) {
        self.conn.on_timeout(now);
    }
}

fn run_recorded_transfer(size: usize) -> (RecordingEndpoint, RecordingEndpoint) {
    let plan = NetworkPlan::two_host(&[
        PathSpec::new(10.0, 30, 80, 1.0),
        PathSpec::new(6.0, 50, 80, 1.0),
    ]);
    let mut client = Connection::client(
        Config::multipath(),
        plan.client_addrs.clone(),
        0,
        plan.server_addrs[0],
        11,
    );
    let server = Connection::server(Config::multipath(), plan.server_addrs.clone(), 12);
    let stream = client.open_stream();
    client
        .stream_write(stream, Bytes::from(vec![9u8; size]))
        .unwrap();
    client.stream_finish(stream);
    let mut sim = Simulation::new(
        RecordingEndpoint {
            conn: client,
            headers: Vec::new(),
        },
        RecordingEndpoint {
            conn: server,
            headers: Vec::new(),
        },
        plan,
        13,
    );
    let done = sim.run_until(SimTime::ZERO + Duration::from_secs(120), |hosts, _| {
        let s = &mut hosts[1];
        while s.conn.stream_read(stream, usize::MAX).is_some() {}
        s.conn.stream_is_finished(stream)
    });
    assert!(done, "transfer must complete");
    let server = sim.endpoints.pop().expect("server");
    let client = sim.endpoints.pop().expect("client");
    (client, server)
}

#[test]
fn packet_numbers_monotonic_per_path_on_the_wire() {
    let (client, server) = run_recorded_transfer(1 << 20);
    for endpoint in [&client, &server] {
        let mut last: std::collections::HashMap<PathId, u64> = Default::default();
        for header in &endpoint.headers {
            if let Some(prev) = last.get(&header.path_id) {
                assert!(
                    header.packet_number > *prev,
                    "pn must increase per path: {header:?} after {prev}"
                );
            }
            last.insert(header.path_id, header.packet_number);
        }
    }
}

#[test]
fn nonces_never_repeat_across_the_whole_connection() {
    // The paper's §3 security concern: with per-path packet-number spaces
    // the nonce must involve the Path ID. Verify no nonce repeats across
    // every packet either endpoint sent in a real multipath transfer.
    let (client, server) = run_recorded_transfer(1 << 20);
    for endpoint in [&client, &server] {
        let mut nonces = HashSet::new();
        for header in &endpoint.headers {
            let nonce = nonce_for(
                NonceMode::PathIdMixed,
                header.path_id.0,
                header.packet_number,
            );
            assert!(nonces.insert(nonce), "nonce reuse at {header:?}");
        }
    }
    // Sanity: both paths actually carried packets (the invariant is
    // about cross-path collisions).
    let paths_used: HashSet<PathId> = client.headers.iter().map(|h| h.path_id).collect();
    assert!(
        paths_used.len() >= 2,
        "expected multipath traffic: {paths_used:?}"
    );
}

#[test]
fn full_pipeline_is_deterministic_end_to_end() {
    let scenario = design_scenarios(ExperimentClass::LowBdpLosses, 3)
        .into_iter()
        .nth(1)
        .unwrap();
    let specs = scenario.path_specs();
    let run = || {
        Protocol::ALL.map(|p| {
            let s: &[PathSpec] = if p.is_multipath() {
                &specs
            } else {
                &specs[..1]
            };
            run_file_transfer(
                s,
                p,
                256 << 10,
                scenario.seed(),
                Duration::from_secs(60),
                &Overrides::default(),
            )
            .duration_secs
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn all_protocols_complete_across_design_space_sample() {
    // A smoke sweep across all four classes: every protocol must either
    // complete or make measurable progress on every WSP-designed network.
    for class in ExperimentClass::ALL {
        for scenario in design_scenarios(class, 3) {
            let specs = scenario.path_specs();
            for protocol in Protocol::ALL {
                let s: &[PathSpec] = if protocol.is_multipath() {
                    &specs
                } else {
                    &specs[..1]
                };
                let outcome = run_file_transfer(
                    s,
                    protocol,
                    128 << 10,
                    scenario.seed(),
                    Duration::from_secs(90),
                    &Overrides::default(),
                );
                assert!(
                    outcome.bytes_received > 0,
                    "{} moved no data on {class:?} #{}: {outcome:?} (paths {:?})",
                    protocol.name(),
                    scenario.index,
                    scenario.paths,
                );
            }
        }
    }
}

#[test]
fn handshake_latency_ordering_quic_vs_tcp() {
    // 1-RTT QUIC vs 3-RTT TCP+TLS: on a high-latency clean path, the
    // difference for a tiny transfer must be ≈ 2 RTTs.
    let one = [PathSpec::new(50.0, 200, 100, 0.0)];
    let quic = run_file_transfer(
        &one,
        Protocol::Quic,
        10_000,
        5,
        Duration::from_secs(30),
        &Overrides::default(),
    );
    let tcp = run_file_transfer(
        &one,
        Protocol::Tcp,
        10_000,
        5,
        Duration::from_secs(30),
        &Overrides::default(),
    );
    let gap = tcp.duration_secs - quic.duration_secs;
    assert!(
        (0.3..0.6).contains(&gap),
        "expected ~2 RTT (0.4s) handshake gap, got {gap:.3}s (TCP {:.3}, QUIC {:.3})",
        tcp.duration_secs,
        quic.duration_secs
    );
}

#[test]
fn three_paths_aggregate() {
    // The paper evaluates two paths; the design supports N. Three
    // disjoint paths must all open (odd client Path IDs 1, 3) and all
    // carry data.
    use mpquic_harness::{build_pair, App};
    use mpquic_netsim::Simulation;
    let plan = NetworkPlan::two_host(&[
        PathSpec::new(6.0, 30, 100, 0.0),
        PathSpec::new(6.0, 50, 100, 0.0),
        PathSpec::new(6.0, 70, 100, 0.0),
    ]);
    let (client, server) = build_pair(
        Protocol::Mpquic,
        &plan,
        17,
        App::file_client(100),
        App::file_server(100, 6 << 20),
        &Overrides::default(),
    );
    let mut sim = Simulation::new(client, server, plan, 17);
    let done = sim.run_until(SimTime::ZERO + Duration::from_secs(120), |hosts, _| {
        hosts[0].app.done_at().is_some()
    });
    assert!(done, "three-path transfer should finish");
    let conn = sim.endpoints[1].transport.quic().expect("server side");
    let ids = conn.path_ids();
    assert_eq!(ids.len(), 3, "paths: {ids:?}");
    for id in ids {
        let path = conn.path(id).expect("listed");
        assert!(
            path.bytes_sent > 200_000,
            "{id} should carry a meaningful share, sent {}",
            path.bytes_sent
        );
    }
    // Aggregation: 6 MB over 3 × 6 Mbps should be much faster than one path.
    let elapsed = sim.endpoints[0].app.done_at().unwrap().as_secs_f64();
    assert!(
        elapsed < 2.0 * 6.0 * 8.0 / 18.0 + 1.0,
        "aggregate throughput should approach 18 Mbps: took {elapsed:.2}s"
    );
}
