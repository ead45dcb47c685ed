//! End-to-end tests driving two [`Connection`]s through an in-memory
//! network with per-path latency, programmable loss and path kill
//! switches. This exercises the full protocol — handshake, streams,
//! multipath path management, scheduling, loss recovery and the
//! potentially-failed handover logic — without the full `mpquic-netsim`
//! substrate.

use bytes::Bytes;
use mpquic_core::{Config, Connection, Event, PathId, PathState, Transmit};
use mpquic_util::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::SocketAddr;
use std::time::Duration;

const C0: &str = "10.0.0.1:50000";
const C1: &str = "10.1.0.1:50001";
const S0: &str = "10.0.1.1:4433";
const S1: &str = "10.1.1.1:4433";

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    ClientToServer,
    ServerToClient,
}

/// A two-host in-memory network with per-link one-way delay.
struct Net {
    client: Connection,
    server: Connection,
    /// (deliver_at, seq, dir, transmit) — min-heap by time.
    in_flight: BinaryHeap<Reverse<(SimTime, u64, u8, TransmitKey)>>,
    payloads: Vec<Option<Transmit>>,
    now: SimTime,
    /// One-way delay for (client-addr, server-addr) pairs; default applies
    /// otherwise.
    path0_delay: Duration,
    path1_delay: Duration,
    /// Deterministic drop: datagram sequence numbers to drop.
    drop_seqs: Vec<u64>,
    /// Kill switches: when true, all datagrams on that path vanish.
    path0_dead: bool,
    path1_dead: bool,
    seq: u64,
    delivered: u64,
}

type TransmitKey = usize;

impl Net {
    fn new(client: Connection, server: Connection) -> Net {
        Net {
            client,
            server,
            in_flight: BinaryHeap::new(),
            payloads: Vec::new(),
            now: SimTime::ZERO,
            path0_delay: Duration::from_millis(20),
            path1_delay: Duration::from_millis(20),
            drop_seqs: Vec::new(),
            path0_dead: false,
            path1_dead: false,
            seq: 0,
            delivered: 0,
        }
    }

    fn is_path0(t: &Transmit) -> bool {
        t.local == addr(C0) || t.local == addr(S0) || t.remote == addr(S0) || t.remote == addr(C0)
    }

    fn pump(&mut self) {
        loop {
            let mut any = false;
            while let Some(t) = self.client.poll_transmit(self.now) {
                any = true;
                self.enqueue(Dir::ClientToServer, t);
            }
            while let Some(t) = self.server.poll_transmit(self.now) {
                any = true;
                self.enqueue(Dir::ServerToClient, t);
            }
            if !any {
                break;
            }
        }
    }

    fn enqueue(&mut self, dir: Dir, t: Transmit) {
        let seq = self.seq;
        self.seq += 1;
        let on_path0 = Net::is_path0(&t);
        if self.drop_seqs.contains(&seq) {
            return;
        }
        if (on_path0 && self.path0_dead) || (!on_path0 && self.path1_dead) {
            return;
        }
        let delay = if on_path0 {
            self.path0_delay
        } else {
            self.path1_delay
        };
        let key = self.payloads.len();
        self.payloads.push(Some(t));
        let dir_code = match dir {
            Dir::ClientToServer => 0,
            Dir::ServerToClient => 1,
        };
        self.in_flight
            .push(Reverse((self.now + delay, seq, dir_code, key)));
    }

    /// Advances simulated time by one event (delivery or timer). Returns
    /// false when nothing remains to do.
    fn step(&mut self) -> bool {
        self.pump();
        let next_delivery = self.in_flight.peek().map(|Reverse((t, ..))| *t);
        let next_timer = [self.client.next_timeout(), self.server.next_timeout()]
            .into_iter()
            .flatten()
            .min();
        let next = match (next_delivery, next_timer) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return false,
        };
        assert!(next >= self.now, "time went backwards");
        self.now = next;
        // Deliveries due now.
        while let Some(Reverse((t, _, dir_code, key))) = self.in_flight.peek().copied() {
            if t > self.now {
                break;
            }
            self.in_flight.pop();
            let transmit = self.payloads[key].take().expect("delivered once");
            self.delivered += 1;
            match dir_code {
                0 => self.server.handle_datagram(
                    self.now,
                    transmit.remote,
                    transmit.local,
                    &transmit.payload,
                ),
                _ => self.client.handle_datagram(
                    self.now,
                    transmit.remote,
                    transmit.local,
                    &transmit.payload,
                ),
            }
        }
        // Timers due now.
        if self.client.next_timeout().is_some_and(|t| t <= self.now) {
            self.client.on_timeout(self.now);
        }
        if self.server.next_timeout().is_some_and(|t| t <= self.now) {
            self.server.on_timeout(self.now);
        }
        true
    }

    fn run_until(&mut self, mut cond: impl FnMut(&mut Net) -> bool, limit: SimTime) -> bool {
        loop {
            if cond(self) {
                return true;
            }
            if self.now > limit || !self.step() {
                return cond(self);
            }
        }
    }
}

fn single_path_pair() -> Net {
    let client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
    let server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
    Net::new(client, server)
}

fn multipath_pair() -> Net {
    let client = Connection::client(
        Config::multipath(),
        vec![addr(C0), addr(C1)],
        0,
        addr(S0),
        1,
    );
    let server = Connection::server(Config::multipath(), vec![addr(S0), addr(S1)], 2);
    Net::new(client, server)
}

fn drain_events(conn: &mut Connection) -> Vec<Event> {
    std::iter::from_fn(|| conn.poll_event()).collect()
}

#[test]
fn handshake_completes_in_one_rtt() {
    let mut net = single_path_pair();
    assert!(net.run_until(
        |n| n.client.is_established() && n.server.is_established(),
        SimTime::from_secs(5),
    ));
    // One-way delay 20 ms: server completes at 20 ms, client at 40 ms.
    assert_eq!(net.now, SimTime::from_millis(40));
    assert!(drain_events(&mut net.client).contains(&Event::HandshakeCompleted));
    assert!(drain_events(&mut net.server).contains(&Event::HandshakeCompleted));
}

#[test]
fn request_response_over_single_path() {
    let mut net = single_path_pair();
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from_static(b"GET /file"))
        .unwrap();
    net.client.stream_finish(stream);

    // Server echoes a 100 kB response when the request completes.
    let response = vec![0xABu8; 100_000];
    let mut responded = false;
    let resp = response.clone();
    assert!(net.run_until(
        move |n| {
            if !responded {
                let events = drain_events(&mut n.server);
                if events.iter().any(|e| matches!(e, Event::StreamComplete(_))) {
                    let mut req = Vec::new();
                    while let Some(chunk) = n.server.stream_read(stream, usize::MAX) {
                        req.extend_from_slice(&chunk);
                    }
                    assert_eq!(&req, b"GET /file");
                    n.server
                        .stream_write(stream, Bytes::from(resp.clone()))
                        .unwrap();
                    n.server.stream_finish(stream);
                    responded = true;
                }
            }
            n.client.stream_is_finished(stream) || {
                while n.client.stream_read(stream, usize::MAX).is_some() {}
                n.client.stream_is_finished(stream)
            }
        },
        SimTime::from_secs(30),
    ));
    assert_eq!(
        net.client.path_ids(),
        vec![PathId::INITIAL],
        "single path stays single"
    );
}

#[test]
fn multipath_opens_second_path_and_uses_it() {
    let mut net = multipath_pair();
    let stream = net.client.open_stream();
    // 2 MB client -> server transfer to give both paths work.
    net.client
        .stream_write(stream, Bytes::from(vec![7u8; 2_000_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let ids = net.client.path_ids();
    assert!(
        ids.contains(&PathId(1)),
        "client should open path 1: {ids:?}"
    );
    let p1 = net.client.path(PathId(1)).unwrap();
    assert!(p1.bytes_sent > 0, "path 1 should carry data");
    let p0 = net.client.path(PathId::INITIAL).unwrap();
    assert!(p0.bytes_sent > 0, "path 0 should carry data");
    // Server saw both paths too.
    assert!(net.server.path_ids().contains(&PathId(1)));
}

#[test]
fn duplication_happens_while_rtt_unknown() {
    let mut net = multipath_pair();
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![9u8; 500_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let stats = net.client.stats();
    assert!(
        stats.duplicated_stream_frames > 0,
        "fresh path should trigger the duplicate-while-unknown phase"
    );
}

#[test]
fn transfer_survives_random_loss() {
    let mut net = single_path_pair();
    // Drop a swath of datagrams mid-transfer.
    net.drop_seqs = (30..60).step_by(3).collect();
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![5u8; 300_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    assert!(
        net.client.stats().frames_retransmitted > 0,
        "losses must cause retransmissions"
    );
}

#[test]
fn handover_marks_path_potentially_failed_and_continues() {
    let mut net = multipath_pair();
    net.path1_delay = Duration::from_millis(30);
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![1u8; 200_000]))
        .unwrap();

    // Let both paths come up and move some data.
    assert!(net.run_until(
        |n| n
            .client
            .path(PathId(1))
            .is_some_and(|p| p.bytes_sent > 10_000),
        SimTime::from_secs(30),
    ));
    // Kill path 0 (the "bad WiFi").
    net.path0_dead = true;
    // Keep writing so there is always data to move.
    net.client
        .stream_write(stream, Bytes::from(vec![2u8; 500_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(
        net.run_until(
            |n| {
                while n.server.stream_read(stream, usize::MAX).is_some() {}
                n.server.stream_is_finished(stream)
            },
            SimTime::from_secs(120),
        ),
        "transfer must complete over the surviving path"
    );
    // The client noticed the failure.
    let p0 = net.client.path(PathId::INITIAL).unwrap();
    assert_eq!(p0.state, PathState::PotentiallyFailed);
    assert!(net.client.stats().rtos > 0);
    let events = drain_events(&mut net.client);
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::PathPotentiallyFailed(p) if *p == PathId::INITIAL)));
}

#[test]
fn paths_frame_informs_peer_of_failure() {
    let mut net = multipath_pair();
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![1u8; 100_000]))
        .unwrap();
    assert!(net.run_until(
        |n| n.client.path(PathId(1)).is_some_and(|p| p.rtt_known()),
        SimTime::from_secs(30),
    ));
    net.path0_dead = true;
    net.client
        .stream_write(stream, Bytes::from(vec![2u8; 100_000]))
        .unwrap();
    net.client.stream_finish(stream);
    // The server learns about path 0's failure from the client's PATHS
    // frame without waiting for its own RTO on path 0.
    assert!(net.run_until(
        |n| {
            n.server.peer_paths().iter().any(|info| {
                info.path_id == PathId::INITIAL
                    && info.status == mpquic_wire::PathStatus::PotentiallyFailed
            })
        },
        SimTime::from_secs(60),
    ));
}

#[test]
fn close_propagates() {
    let mut net = single_path_pair();
    assert!(net.run_until(|n| n.client.is_established(), SimTime::from_secs(5)));
    net.client.close(0, "done");
    assert!(net.run_until(|n| n.server.is_closed(), SimTime::from_secs(5)));
    let events = drain_events(&mut net.server);
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Closed { error_code: 0, reason } if reason == "done"
    )));
    assert!(net.client.is_closed());
}

#[test]
fn single_path_config_ignores_advertised_addresses() {
    // Client is single-path but server is multipath: the ADD_ADDRESS
    // frames must not cause extra paths.
    let client = Connection::client(
        Config::single_path(),
        vec![addr(C0), addr(C1)],
        0,
        addr(S0),
        1,
    );
    let server = Connection::server(Config::multipath(), vec![addr(S0), addr(S1)], 2);
    let mut net = Net::new(client, server);
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![3u8; 50_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(30),
    ));
    assert_eq!(net.client.path_ids(), vec![PathId::INITIAL]);
}

#[test]
fn worst_path_first_still_aggregates() {
    // Start the connection on the slower interface (index 1), as the
    // paper's experimental design varies.
    let client = Connection::client(
        Config::multipath(),
        vec![addr(C0), addr(C1)],
        1,
        addr(S1),
        1,
    );
    let server = Connection::server(Config::multipath(), vec![addr(S0), addr(S1)], 2);
    let mut net = Net::new(client, server);
    net.path1_delay = Duration::from_millis(80); // initial path slow
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![4u8; 1_000_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(120),
    ));
    // The second (fast) path must have been opened and used.
    let ids = net.client.path_ids();
    assert_eq!(ids.len(), 2, "paths: {ids:?}");
    let secondary = ids
        .iter()
        .find(|&&id| id != PathId::INITIAL)
        .copied()
        .unwrap();
    assert!(net.client.path(secondary).unwrap().bytes_sent > 0);
}

#[test]
fn large_ack_ranges_survive_heavy_loss() {
    let mut net = single_path_pair();
    // Periodic loss creating many ACK ranges.
    net.drop_seqs = (20..400).step_by(5).collect();
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![6u8; 500_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(120),
    ));
}

#[test]
fn lost_frames_are_retransmitted_on_the_other_path() {
    // Frames are independent of packets: data lost on path 0 may be
    // retransmitted on path 1 (unlike MPTCP's same-subflow rule).
    let mut net = multipath_pair();
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![0xAAu8; 400_000]))
        .unwrap();
    net.client.stream_finish(stream);
    // Warm up both paths.
    assert!(net.run_until(
        |n| {
            n.client.path(PathId(1)).is_some_and(|p| p.rtt_known())
                && n.client
                    .path(PathId::INITIAL)
                    .is_some_and(|p| p.rtt_known())
        },
        SimTime::from_secs(30),
    ));
    // Kill path 0: its in-flight data is lost; recovery must finish the
    // transfer exclusively over path 1.
    net.path0_dead = true;
    let sent_on_p1_before = net.client.path(PathId(1)).unwrap().bytes_sent;
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(300),
    ));
    let p1 = net.client.path(PathId(1)).unwrap();
    assert!(
        p1.bytes_sent > sent_on_p1_before,
        "path 1 must carry the retransmissions"
    );
    assert!(net.client.stats().frames_retransmitted > 0);
}

#[test]
fn data_acked_via_duplicate_is_not_retransmitted() {
    // The duplicate-while-unknown phase sends copies on two paths; once
    // either copy is acked, losing the other must not trigger a data
    // retransmission (SendStream trims against acked ranges).
    let mut net = multipath_pair();
    // Make path 1 slow so duplicated copies race visibly.
    net.path1_delay = Duration::from_millis(150);
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![0x55u8; 60_000]))
        .unwrap();
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let stats = net.client.stats();
    assert!(
        stats.duplicated_stream_frames > 0,
        "unknown-RTT phase should have duplicated frames"
    );
    // No losses occurred, so every "retransmission" would be pure waste;
    // allow a tiny number (frames declared lost by reordering heuristics)
    // but not wholesale re-sending of the duplicated volume.
    assert!(
        stats.frames_retransmitted <= stats.duplicated_stream_frames,
        "retransmissions {} should not exceed duplicates {}",
        stats.frames_retransmitted,
        stats.duplicated_stream_frames
    );
}

#[test]
fn multiple_streams_multiplex_over_multiple_paths() {
    // "MPQUIC can spread multiple data streams over multiple paths by
    // design" — three concurrent streams, both paths, exact delivery.
    let mut net = multipath_pair();
    let streams: Vec<_> = (0..3).map(|_| net.client.open_stream()).collect();
    for (i, &stream) in streams.iter().enumerate() {
        net.client
            .stream_write(stream, Bytes::from(vec![i as u8 + 1; 150_000 * (i + 1)]))
            .unwrap();
        net.client.stream_finish(stream);
    }
    let mut received = vec![Vec::new(); 3];
    assert!(net.run_until(
        |n| {
            for (i, &stream) in streams.iter().enumerate() {
                while let Some(chunk) = n.server.stream_read(stream, usize::MAX) {
                    received[i].extend_from_slice(&chunk);
                }
            }
            streams.iter().all(|&s| n.server.stream_is_finished(s))
        },
        SimTime::from_secs(120),
    ));
    for (i, data) in received.iter().enumerate() {
        assert_eq!(data.len(), 150_000 * (i + 1), "stream {i} length");
        assert!(data.iter().all(|&b| b == i as u8 + 1), "stream {i} content");
    }
    // Both paths carried traffic.
    assert!(net.client.path(PathId::INITIAL).unwrap().bytes_sent > 50_000);
    assert!(net.client.path(PathId(1)).unwrap().bytes_sent > 50_000);
}

#[test]
fn tight_connection_window_still_completes_via_window_updates() {
    // A 64 kB connection window forces continuous WINDOW_UPDATE traffic;
    // the transfer must still complete at full correctness.
    let mut config = Config::multipath();
    config.conn_recv_window = 64 << 10;
    config.stream_recv_window = 64 << 10;
    let client = Connection::client(config.clone(), vec![addr(C0), addr(C1)], 0, addr(S0), 1);
    let server = Connection::server(config, vec![addr(S0), addr(S1)], 2);
    let mut net = Net::new(client, server);
    let stream = net.client.open_stream();
    net.client
        .stream_write(
            stream,
            Bytes::from((0..1_000_000u32).map(|i| i as u8).collect::<Vec<u8>>()),
        )
        .unwrap();
    net.client.stream_finish(stream);
    let mut received = Vec::new();
    assert!(net.run_until(
        |n| {
            while let Some(chunk) = n.server.stream_read(stream, usize::MAX) {
                received.extend_from_slice(&chunk);
            }
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(120),
    ));
    assert_eq!(received.len(), 1_000_000);
    assert!(
        received.iter().enumerate().all(|(i, &b)| b == i as u8),
        "content integrity under window churn"
    );
}

#[test]
fn paths_frame_shares_rtt_estimates() {
    let mut net = multipath_pair();
    net.path1_delay = Duration::from_millis(60);
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![1u8; 300_000]))
        .unwrap();
    // Warm both paths, then force a PATHS frame via an RTO on path 0.
    assert!(net.run_until(
        |n| n.client.path(PathId(1)).is_some_and(|p| p.rtt_known()),
        SimTime::from_secs(30),
    ));
    net.path0_dead = true;
    net.client.stream_finish(stream);
    assert!(net.run_until(
        |n| !n.server.peer_paths().is_empty(),
        SimTime::from_secs(60),
    ));
    let infos = net.server.peer_paths();
    // The client's srtt estimates travelled to the server.
    let p1 = infos
        .iter()
        .find(|i| i.path_id == PathId(1))
        .expect("path 1 entry");
    let reported_ms = p1.srtt_micros as f64 / 1000.0;
    assert!(
        (90.0..200.0).contains(&reported_ms),
        "path 1 srtt ≈ 120 ms (2×60 one-way), reported {reported_ms:.1}"
    );
}

#[test]
fn telemetry_records_the_connection_story() {
    let (metrics, handle) = mpquic_core::telemetry::MetricsSubscriber::new();
    let mut client = Connection::client(
        Config::multipath(),
        vec![addr(C0), addr(C1)],
        0,
        addr(S0),
        1,
    );
    client.set_subscriber(Box::new(metrics));
    let server = Connection::server(Config::multipath(), vec![addr(S0), addr(S1)], 2);
    let mut net = Net::new(client, server);
    let stream = net.client.open_stream();
    net.client
        .stream_write(stream, Bytes::from(vec![3u8; 200_000]))
        .unwrap();
    net.client.stream_finish(stream);
    // A few mid-stream drops so loss events appear in the trace.
    net.drop_seqs = (40..60).step_by(4).collect();
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let snapshot = handle.snapshot();
    let paths = &snapshot.paths;
    let stats = net.client.stats();
    assert_eq!(
        paths.iter().map(|p| p.packets_sent).sum::<u64>(),
        stats.packets_sent
    );
    assert_eq!(
        paths.iter().map(|p| p.packets_received).sum::<u64>(),
        stats.packets_received
    );
    assert!(
        paths.iter().any(|p| p.lost_bytes > 0),
        "drops must surface as loss events"
    );
    for id in [PathId::INITIAL, PathId(1)] {
        let summary = snapshot.path(id).expect("both paths carried traffic");
        assert!(summary.bytes_sent > 0);
        assert_eq!(summary.bytes_sent, net.client.path(id).unwrap().bytes_sent);
    }
}
