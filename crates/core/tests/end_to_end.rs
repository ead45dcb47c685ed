//! End-to-end tests driving two [`Connection`]s through the two-path
//! test network (`tests/common/net.rs` at the workspace root): per-path
//! latency, programmable loss and path kill switches over links of pure
//! delay. This exercises the full protocol — handshake, streams,
//! multipath path management, scheduling, loss recovery and the
//! potentially-failed handover logic.

use bytes::Bytes;
use mpquic_core::{Config, Connection, PathId, PathState};
use mpquic_util::SimTime;
use std::time::Duration;

#[path = "../../../tests/common/net.rs"]
mod net;
use net::{addr, C0, C1, S0, S1};

type Net = net::Net<Connection>;

/// The path a datagram between `C0` and `S1` or `C1` and `S0` crosses.
const CROSS: usize = 0;

fn single_path_pair() -> Net {
    let client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
    let server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
    Net::new(client, server, CROSS)
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
    Net::new(client, server, CROSS)
}

#[test]
fn handshake_completes_in_one_rtt() {
    let mut net = single_path_pair();
    assert!(net.run_until(
        |n| n.client.is_established() && n.server.is_established(),
        SimTime::from_secs(5),
    ));
    // One-way delay 20 ms: server completes at 20 ms, client at 40 ms.
    assert_eq!(net.now(), SimTime::from_millis(40));
}

#[test]
fn request_response_over_single_path() {
    let mut net = single_path_pair();
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from_static(b"GET /file"))
        .unwrap();
    net.client().stream_finish(stream);

    // Server echoes a 100 kB response when the request completes.
    let response = vec![0xABu8; 100_000];
    let mut responded = false;
    let resp = response.clone();
    let mut req = Vec::new();
    assert!(net.run_until(
        move |n| {
            if !responded {
                while let Some(chunk) = n.server.stream_read(stream, usize::MAX) {
                    req.extend_from_slice(&chunk);
                }
                if n.server.stream_is_finished(stream) {
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
        net.client().path_ids(),
        vec![PathId::INITIAL],
        "single path stays single"
    );
}

#[test]
fn multipath_opens_second_path_and_uses_it() {
    let mut net = multipath_pair();
    let stream = net.client().open_stream();
    // 2 MB client -> server transfer to give both paths work.
    net.client()
        .stream_write(stream, Bytes::from(vec![7u8; 2_000_000]))
        .unwrap();
    net.client().stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let ids = net.client().path_ids();
    assert!(
        ids.contains(&PathId(1)),
        "client should open path 1: {ids:?}"
    );
    let p1 = net.client().path(PathId(1)).unwrap();
    assert!(p1.bytes_sent > 0, "path 1 should carry data");
    let p0 = net.client().path(PathId::INITIAL).unwrap();
    assert!(p0.bytes_sent > 0, "path 0 should carry data");
    // Server saw both paths too.
    assert!(net.server().path_ids().contains(&PathId(1)));
}

#[test]
fn duplication_happens_while_rtt_unknown() {
    let mut net = multipath_pair();
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![9u8; 500_000]))
        .unwrap();
    net.client().stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let stats = net.client().stats();
    assert!(
        stats.duplicated_stream_frames > 0,
        "fresh path should trigger the duplicate-while-unknown phase"
    );
}

#[test]
fn transfer_survives_random_loss() {
    let mut net = single_path_pair();
    // Drop a swath of datagrams mid-transfer.
    net.drop_seqs((30..60).step_by(3));
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![5u8; 300_000]))
        .unwrap();
    net.client().stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    assert!(
        net.client().stats().frames_retransmitted > 0,
        "losses must cause retransmissions"
    );
}

#[test]
fn handover_marks_path_potentially_failed_and_continues() {
    let mut net = multipath_pair();
    net.set_delay(1, Duration::from_millis(30));
    let stream = net.client().open_stream();
    net.client()
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
    net.kill_path(0);
    // Keep writing so there is always data to move.
    net.client()
        .stream_write(stream, Bytes::from(vec![2u8; 500_000]))
        .unwrap();
    net.client().stream_finish(stream);
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
    let p0 = net.client().path(PathId::INITIAL).unwrap();
    assert_eq!(p0.state, PathState::PotentiallyFailed);
    assert!(net.client().stats().rtos > 0);
}

#[test]
fn paths_frame_informs_peer_of_failure() {
    let mut net = multipath_pair();
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![1u8; 100_000]))
        .unwrap();
    assert!(net.run_until(
        |n| n.client.path(PathId(1)).is_some_and(|p| p.rtt_known()),
        SimTime::from_secs(30),
    ));
    net.kill_path(0);
    net.client()
        .stream_write(stream, Bytes::from(vec![2u8; 100_000]))
        .unwrap();
    net.client().stream_finish(stream);
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
    net.client().close(0, "done");
    assert!(net.run_until(|n| n.server.is_closed(), SimTime::from_secs(5)));
    assert_eq!(net.server().close_reason(), Some((0, "done")));
    assert!(net.client().is_closed());
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
    let mut net = Net::new(client, server, CROSS);
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![3u8; 50_000]))
        .unwrap();
    net.client().stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(30),
    ));
    assert_eq!(net.client().path_ids(), vec![PathId::INITIAL]);
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
    let mut net = Net::new(client, server, CROSS);
    net.set_delay(1, Duration::from_millis(80)); // initial path slow
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![4u8; 1_000_000]))
        .unwrap();
    net.client().stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(120),
    ));
    // The second (fast) path must have been opened and used.
    let ids = net.client().path_ids();
    assert_eq!(ids.len(), 2, "paths: {ids:?}");
    let secondary = ids
        .iter()
        .find(|&&id| id != PathId::INITIAL)
        .copied()
        .unwrap();
    assert!(net.client().path(secondary).unwrap().bytes_sent > 0);
}

#[test]
fn large_ack_ranges_survive_heavy_loss() {
    let mut net = single_path_pair();
    // Periodic loss creating many ACK ranges.
    net.drop_seqs((20..400).step_by(5));
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![6u8; 500_000]))
        .unwrap();
    net.client().stream_finish(stream);
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
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![0xAAu8; 400_000]))
        .unwrap();
    net.client().stream_finish(stream);
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
    net.kill_path(0);
    let sent_on_p1_before = net.client().path(PathId(1)).unwrap().bytes_sent;
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(300),
    ));
    let p1 = net.client().path(PathId(1)).unwrap();
    assert!(
        p1.bytes_sent > sent_on_p1_before,
        "path 1 must carry the retransmissions"
    );
    assert!(net.client().stats().frames_retransmitted > 0);
}

#[test]
fn data_acked_via_duplicate_is_not_retransmitted() {
    // The duplicate-while-unknown phase sends copies on two paths; once
    // either copy is acked, losing the other must not trigger a data
    // retransmission (SendStream trims against acked ranges).
    let mut net = multipath_pair();
    // Make path 1 slow so duplicated copies race visibly.
    net.set_delay(1, Duration::from_millis(150));
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![0x55u8; 60_000]))
        .unwrap();
    net.client().stream_finish(stream);
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let stats = net.client().stats();
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
    let streams: Vec<_> = (0..3).map(|_| net.client().open_stream()).collect();
    for (i, &stream) in streams.iter().enumerate() {
        net.client()
            .stream_write(stream, Bytes::from(vec![i as u8 + 1; 150_000 * (i + 1)]))
            .unwrap();
        net.client().stream_finish(stream);
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
    assert!(net.client().path(PathId::INITIAL).unwrap().bytes_sent > 50_000);
    assert!(net.client().path(PathId(1)).unwrap().bytes_sent > 50_000);
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
    let mut net = Net::new(client, server, CROSS);
    let stream = net.client().open_stream();
    net.client()
        .stream_write(
            stream,
            Bytes::from((0..1_000_000u32).map(|i| i as u8).collect::<Vec<u8>>()),
        )
        .unwrap();
    net.client().stream_finish(stream);
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
    net.set_delay(1, Duration::from_millis(60));
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![1u8; 300_000]))
        .unwrap();
    // Warm both paths, then force a PATHS frame via an RTO on path 0.
    assert!(net.run_until(
        |n| n.client.path(PathId(1)).is_some_and(|p| p.rtt_known()),
        SimTime::from_secs(30),
    ));
    net.kill_path(0);
    net.client().stream_finish(stream);
    assert!(net.run_until(
        |n| !n.server.peer_paths().is_empty(),
        SimTime::from_secs(60),
    ));
    let infos = net.server().peer_paths();
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
    let mut net = Net::new(client, server, CROSS);
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![3u8; 200_000]))
        .unwrap();
    net.client().stream_finish(stream);
    // A few mid-stream drops so loss events appear in the trace.
    net.drop_seqs((40..60).step_by(4));
    assert!(net.run_until(
        |n| {
            while n.server.stream_read(stream, usize::MAX).is_some() {}
            n.server.stream_is_finished(stream)
        },
        SimTime::from_secs(60),
    ));
    let snapshot = handle.snapshot();
    let paths = &snapshot.paths;
    let stats = net.client().stats();
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
        assert_eq!(
            summary.bytes_sent,
            net.client().path(id).unwrap().bytes_sent
        );
    }
}
