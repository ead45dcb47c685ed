//! End-to-end (MP)TCP tests over the two-path test network
//! (`tests/common/net.rs` at the workspace root) with per-path latency,
//! programmable loss and path kill switches — mirrors the mpquic-core
//! end-to-end suite so both stacks are validated the same way before
//! the full simulator comparison.

use bytes::Bytes;
use mpquic_tcp::{SubflowState, TcpConfig, TcpStack};
use mpquic_util::SimTime;
use std::time::Duration;

#[path = "../../../tests/common/net.rs"]
mod net;
use net::{addr, C0, C1, S0, S1};

type Net = net::Net<TcpStack>;

/// The path a datagram between `C0` and `S1` or `C1` and `S0` crosses.
const CROSS: usize = 0;

fn single_pair() -> Net {
    let client = TcpStack::client(TcpConfig::single_path(), vec![addr(C0)], 0, addr(S0));
    let server = TcpStack::server(TcpConfig::single_path(), vec![addr(S0)]);
    Net::new(client, server, CROSS)
}

fn multipath_pair() -> Net {
    let client = TcpStack::client(
        TcpConfig::multipath(),
        vec![addr(C0), addr(C1)],
        0,
        addr(S0),
    );
    let server = TcpStack::server(TcpConfig::multipath(), vec![addr(S0), addr(S1)]);
    Net::new(client, server, CROSS)
}

fn drain(stack: &mut TcpStack) -> usize {
    let mut total = 0;
    while let Some(chunk) = stack.read(usize::MAX) {
        total += chunk.len();
    }
    total
}

#[test]
fn tls_over_tcp_takes_three_rtts() {
    let mut net = single_pair();
    assert!(net.run_until(|n| n.client.is_established(), SimTime::from_secs(5),));
    // One-way 20 ms → RTT 40 ms. SYN(0.5 RTT) + SYNACK(1) + CH(1.5)
    // + SH(2) + CKE(2.5) + FIN(3): client app-ready at 3 RTT = 120 ms.
    let established = net.client().established_at().unwrap();
    assert!(
        established >= SimTime::from_millis(115) && established <= SimTime::from_millis(135),
        "client established at {established:?}, expected ~120 ms"
    );
}

#[test]
fn tcp_without_tls_is_one_rtt() {
    let client = TcpStack::client(
        TcpConfig {
            tls: false,
            ..TcpConfig::single_path()
        },
        vec![addr(C0)],
        0,
        addr(S0),
    );
    let server = TcpStack::server(
        TcpConfig {
            tls: false,
            ..TcpConfig::single_path()
        },
        vec![addr(S0)],
    );
    let mut net = Net::new(client, server, CROSS);
    assert!(net.run_until(|n| n.client.is_established(), SimTime::from_secs(5)));
    assert_eq!(
        net.client().established_at(),
        Some(SimTime::from_millis(40))
    );
}

#[test]
fn request_response_round_trip() {
    let mut net = single_pair();
    net.client().write(Bytes::from_static(b"GET /file"));
    let mut request_len = 0;
    let mut responded = false;
    assert!(net.run_until(
        |n| {
            request_len += drain(n.server);
            if request_len >= 9 && !responded {
                responded = true;
                n.server.write(Bytes::from(vec![0x5A; 200_000]));
                n.server.finish();
            }
            drain(n.client);
            n.client.recv_finished()
        },
        SimTime::from_secs(60),
    ));
    // The final data-ACK needs one more half-RTT to reach the server.
    let deadline = net.now() + Duration::from_secs(5);
    assert!(net.run_until(|n| n.server.send_complete(), deadline));
}

#[test]
fn transfer_survives_random_loss() {
    let mut net = single_pair();
    net.drop_seqs((30..120).step_by(4));
    net.client().write(Bytes::from(vec![7u8; 300_000]));
    net.client().finish();
    assert!(net.run_until(
        |n| {
            drain(n.server);
            n.server.recv_finished()
        },
        SimTime::from_secs(120),
    ));
    assert!(net.client().stats().retransmissions > 0);
}

#[test]
fn mptcp_joins_and_aggregates() {
    let mut net = multipath_pair();
    net.client().write(Bytes::from(vec![3u8; 2_000_000]));
    net.client().finish();
    assert!(net.run_until(
        |n| {
            drain(n.server);
            n.server.recv_finished()
        },
        SimTime::from_secs(120),
    ));
    assert_eq!(net.client().subflow_count(), 2, "join subflow expected");
    let sf1 = net.client().subflow(1).unwrap();
    assert_eq!(sf1.state, SubflowState::Established);
    assert!(sf1.stats.bytes_sent > 10_000, "subflow 1 should carry data");
    assert!(net.client().subflow(0).unwrap().stats.bytes_sent > 10_000);
    // Server-side join accepted.
    assert_eq!(net.server().subflow_count(), 2);
}

#[test]
fn join_needs_a_handshake_before_data() {
    // Verifies the MPTCP property the paper contrasts with MPQUIC: the
    // second subflow carries no payload until its 3-way handshake
    // completes, so its first data can't appear before ~1 RTT after the
    // SYN.
    let mut net = multipath_pair();
    net.client().write(Bytes::from(vec![1u8; 500_000]));
    net.client().finish();
    let mut first_data_on_sf1: Option<SimTime> = None;
    let mut join_syn_at: Option<SimTime> = None;
    assert!(net.run_until(
        |n| {
            if join_syn_at.is_none() {
                if let Some(sf) = n.client.subflow(1) {
                    join_syn_at = Some(n.now).filter(|_| sf.state != SubflowState::Idle);
                }
            }
            if first_data_on_sf1.is_none() {
                if let Some(sf) = n.client.subflow(1) {
                    if sf.stats.bytes_sent > 2000 {
                        first_data_on_sf1 = Some(n.now);
                    }
                }
            }
            drain(n.server);
            n.server.recv_finished()
        },
        SimTime::from_secs(120),
    ));
    let (syn_at, data_at) = (join_syn_at.unwrap(), first_data_on_sf1.unwrap());
    assert!(
        data_at.saturating_duration_since(syn_at) >= Duration::from_millis(40),
        "subflow data at {data_at:?} must wait a full RTT after the join SYN at {syn_at:?}"
    );
}

#[test]
fn mptcp_handover_reinjets_after_path_death() {
    let mut net = multipath_pair();
    // A slow initial path keeps data in flight on it for a while.
    net.set_delay(0, Duration::from_millis(100));
    net.client().write(Bytes::from(vec![2u8; 300_000]));
    // Wait until subflow 1 is up and subflow 0 provably has un-acked
    // data in the pipe, then kill path 0 — that data is now lost and
    // leaves a hole in the meta sequence space.
    assert!(net.run_until(
        |n| {
            drain(n.server);
            n.client
                .subflow(1)
                .is_some_and(|sf| sf.state == SubflowState::Established)
                && n.client
                    .subflow(0)
                    .is_some_and(|sf| sf.bytes_in_flight() > 2_000)
        },
        SimTime::from_secs(60),
    ));
    net.cut_path(0);
    net.client().write(Bytes::from(vec![4u8; 300_000]));
    net.client().finish();
    assert!(
        net.run_until(
            |n| {
                drain(n.server);
                n.server.recv_finished()
            },
            SimTime::from_secs(300),
        ),
        "transfer must complete over the surviving subflow"
    );
    assert!(net.client().stats().rtos > 0);
    assert!(
        net.client().stats().reinjections > 0,
        "RTO on the dead subflow must reinject on the live one"
    );
}

#[test]
fn single_path_ignores_add_addr() {
    let client = TcpStack::client(
        TcpConfig::single_path(),
        vec![addr(C0), addr(C1)],
        0,
        addr(S0),
    );
    let server = TcpStack::server(TcpConfig::multipath(), vec![addr(S0), addr(S1)]);
    let mut net = Net::new(client, server, CROSS);
    net.client().write(Bytes::from(vec![6u8; 100_000]));
    net.client().finish();
    assert!(net.run_until(
        |n| {
            drain(n.server);
            n.server.recv_finished()
        },
        SimTime::from_secs(60),
    ));
    assert_eq!(net.client().subflow_count(), 1);
}

#[test]
fn worst_path_first_still_joins_fast_path() {
    let client = TcpStack::client(
        TcpConfig::multipath(),
        vec![addr(C0), addr(C1)],
        1,
        addr(S1),
    );
    let server = TcpStack::server(TcpConfig::multipath(), vec![addr(S0), addr(S1)]);
    let mut net = Net::new(client, server, CROSS);
    net.set_delay(1, Duration::from_millis(80));
    net.client().write(Bytes::from(vec![9u8; 1_000_000]));
    net.client().finish();
    assert!(net.run_until(
        |n| {
            drain(n.server);
            n.server.recv_finished()
        },
        SimTime::from_secs(300),
    ));
    assert_eq!(net.client().subflow_count(), 2);
    assert!(net.client().subflow(1).unwrap().stats.bytes_sent > 10_000);
}

#[test]
fn bidirectional_transfer() {
    let mut net = single_pair();
    net.client().write(Bytes::from(vec![1u8; 150_000]));
    net.client().finish();
    net.server().write(Bytes::from(vec![2u8; 150_000]));
    net.server().finish();
    assert!(net.run_until(
        |n| {
            drain(n.server);
            drain(n.client);
            n.server.recv_finished() && n.client.recv_finished()
        },
        SimTime::from_secs(120),
    ));
}
