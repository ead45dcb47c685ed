//! Dual-stack (IPv4 + IPv6) aggregation — the paper's second motivating
//! use case: "a growing fraction of hosts are dual-stack and the IPv4 and
//! IPv6 paths between them often differ and have different performance."
//!
//! The connection starts over IPv4; the server advertises its IPv6
//! address in an encrypted ADD_ADDRESS frame (no MPTCP-style cleartext
//! ADD_ADDR security concerns), and the client opens a second path over
//! IPv6 with data in its very first packet.
//!
//! Run with: `cargo run --release --example dualstack`

use bytes::Bytes;
use mpquic_core::{Config, Connection};
use mpquic_netsim::{NetworkPlan, PathSpec, Simulation};
use mpquic_util::SimTime;
use std::time::Duration;

fn main() {
    // Hand-built plan: path 0 is the IPv4 route, path 1 the IPv6 route
    // (here: lower latency — e.g. native v6 vs a detouring v4 route).
    let plan = NetworkPlan {
        client_addrs: vec![
            "203.0.113.7:40000".parse().unwrap(),
            "[2001:db8:cafe::7]:40000".parse().unwrap(),
        ],
        server_addrs: vec![
            "198.51.100.1:443".parse().unwrap(),
            "[2001:db8:beef::1]:443".parse().unwrap(),
        ],
        paths: vec![
            PathSpec::new(10.0, 70, 100, 0.0), // IPv4: 10 Mbps, 70 ms
            PathSpec::new(10.0, 25, 100, 0.0), // IPv6: 10 Mbps, 25 ms
        ],
    };

    let mut client = Connection::client(
        Config::builder().build().expect("defaults are valid"),
        plan.client_addrs.clone(),
        0, // dial over IPv4
        plan.server_addrs[0],
        0xD0A1,
    );
    let server = Connection::server(
        Config::builder().build().expect("defaults are valid"),
        plan.server_addrs.clone(),
        0xD0A2,
    );

    let stream = client.open_stream();
    client
        .stream_write(stream, Bytes::from(vec![6u8; 3 << 20]))
        .expect("write");
    client.stream_finish(stream);

    let mut sim = Simulation::new(client, server, plan, 3);
    let done = sim.run_until(SimTime::ZERO + Duration::from_secs(60), |hosts, _| {
        let s = &mut hosts[1];
        while s.stream_read(stream, usize::MAX).is_some() {}
        s.stream_is_finished(stream)
    });
    assert!(done);

    println!(
        "3 MB uploaded in {:.3}s over IPv4 + IPv6 simultaneously",
        sim.now().as_secs_f64()
    );
    let client = &sim.endpoints[0];
    for id in client.path_ids() {
        let p = client.path(id).expect("listed");
        let family = if p.local.is_ipv4() { "IPv4" } else { "IPv6" };
        println!(
            "  {id} ({family}): {} -> {} | {} bytes sent | srtt {:.1} ms",
            p.local,
            p.remote,
            p.bytes_sent,
            p.rtt.srtt().as_secs_f64() * 1e3
        );
    }
    println!();
    println!("the IPv6 path was advertised in an encrypted ADD_ADDRESS frame and came up");
    println!("mid-connection — no second handshake, data in its first packet.");
}
