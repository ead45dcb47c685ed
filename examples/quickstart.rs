//! Quickstart: a Multipath QUIC transfer over two paths.
//!
//! Shows the sans-IO API directly: build two [`mpquic_core::Connection`]s,
//! join them with the discrete-event network simulator (a `Connection`
//! is the `Endpoint` it drives), transfer a file
//! over both paths at once, and inspect what each path carried.
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;
use mpquic_core::{Config, Connection};
use mpquic_netsim::{NetworkPlan, PathSpec, Simulation};
use mpquic_util::SimTime;
use std::time::Duration;

fn main() {
    // Two disjoint paths, like WiFi (fast, short RTT) + LTE (slower).
    let plan = NetworkPlan::two_host(&[
        PathSpec::new(20.0, 30, 100, 0.0), // 20 Mbps, 30 ms RTT
        PathSpec::new(8.0, 60, 100, 0.0),  //  8 Mbps, 60 ms RTT
    ]);

    // The client dials server address 0 from interface 0; the path
    // manager opens the second path automatically after the handshake,
    // using the addresses the server advertises via ADD_ADDRESS frames.
    let mut client = Connection::client(
        Config::builder().build().expect("defaults are valid"),
        plan.client_addrs.clone(),
        0,
        plan.server_addrs[0],
        0xC0FFEE,
    );
    let server = Connection::server(
        Config::builder().build().expect("defaults are valid"),
        plan.server_addrs.clone(),
        0xBEEF,
    );

    // Queue 4 MB of application data on one stream before the handshake
    // even starts — it will flow as soon as keys are established.
    let stream = client.open_stream();
    client
        .stream_write(stream, Bytes::from(vec![0x42u8; 4 << 20]))
        .expect("fresh stream accepts writes");
    client.stream_finish(stream);

    let mut sim = Simulation::new(client, server, plan, 7);

    // Drive the simulation until the server has read the whole stream.
    let deadline = SimTime::ZERO + Duration::from_secs(60);
    let mut received = 0usize;
    let done = sim.run_until(deadline, |hosts, _now| {
        let server = &mut hosts[1];
        while let Some(chunk) = server.stream_read(stream, usize::MAX) {
            received += chunk.len();
        }
        server.stream_is_finished(stream)
    });
    assert!(done, "transfer should complete");

    println!(
        "transferred {} bytes in {:.3}s of simulated time",
        received,
        sim.now().as_secs_f64()
    );
    println!();
    println!("client paths:");
    let client = &sim.endpoints[0];
    for id in client.path_ids() {
        let path = client.path(id).expect("listed");
        println!(
            "  {id}: {} -> {} | sent {} bytes | srtt {:.1} ms | state {:?}",
            path.local,
            path.remote,
            path.bytes_sent,
            path.rtt.srtt().as_secs_f64() * 1e3,
            path.state,
        );
    }
    let stats = client.stats();
    println!();
    println!(
        "stats: {} packets sent, {} duplicated stream frames (unknown-RTT phase), {} retransmitted frames",
        stats.packets_sent, stats.duplicated_stream_frames, stats.frames_retransmitted
    );
}
