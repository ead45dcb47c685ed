//! Per-path utilization of an MPQUIC download, from the packet trace —
//! watch the scheduler light up the second path after the handshake and
//! rebalance toward the faster link.
//!
//! Run with: `cargo run --release --example path_usage`

use bytes::Bytes;
use mpquic_core::{Config, Connection};
use mpquic_netsim::{NetworkPlan, PathSpec, Simulation};
use mpquic_util::SimTime;
use std::time::Duration;

fn bar(bytes: u64, per_char: u64) -> String {
    "█".repeat((bytes / per_char.max(1)) as usize)
}

fn main() {
    // Asymmetric paths: fast/short vs slow/long.
    let plan = NetworkPlan::two_host(&[
        PathSpec::new(16.0, 30, 100, 0.0),
        PathSpec::new(6.0, 90, 100, 0.0),
    ]);
    let mut client = Connection::client(
        Config::builder().build().expect("defaults are valid"),
        plan.client_addrs.clone(),
        0,
        plan.server_addrs[0],
        0x7ACE,
    );
    let server = Connection::server(
        Config::builder().build().expect("defaults are valid"),
        plan.server_addrs.clone(),
        0x7ACF,
    );

    // Server-push style: client requests, server sends 6 MB back.
    let stream = client.open_stream();
    client
        .stream_write(stream, Bytes::from_static(b"GET /big"))
        .expect("write");
    client.stream_finish(stream);

    let mut sim = Simulation::new(client, server, plan, 9);
    sim.enable_trace();

    let mut responded = false;
    let done = sim.run_until(SimTime::ZERO + Duration::from_secs(60), |hosts, _now| {
        let [c, s] = hosts else {
            unreachable!("a client and a server")
        };
        while s.stream_read(stream, usize::MAX).is_some() {}
        if !responded && s.stream_is_finished(stream) {
            responded = true;
            s.stream_write(stream, Bytes::from(vec![0x0Fu8; 6 << 20]))
                .expect("response");
            s.stream_finish(stream);
        }
        while c.stream_read(stream, usize::MAX).is_some() {}
        responded && c.stream_is_finished(stream)
    });
    assert!(done, "download should finish");

    let horizon = sim.now();
    let trace = sim.trace().expect("tracing enabled");
    println!(
        "6 MB downloaded in {:.2}s — server-side bytes offered per 250 ms bucket:",
        horizon.as_secs_f64()
    );
    println!(
        "{:>6}  {:<32} {:<32}",
        "t[s]", "path 0 (16 Mbps / 30 ms)", "path 1 (6 Mbps / 90 ms)"
    );
    let bucket = Duration::from_millis(250);
    // Path p's server → client link is 2p + 1.
    let u0 = trace.utilization(1, bucket, horizon);
    let u1 = trace.utilization(3, bucket, horizon);
    // One █ per 20 kB.
    for ((t, b0), (_, b1)) in u0.iter().zip(&u1) {
        println!(
            "{t:>6.2}  {:<32} {:<32}",
            bar(*b0, 20_000),
            bar(*b1, 20_000)
        );
    }
    println!();
    println!(
        "totals: path 0 carried {:.2} MB, path 1 carried {:.2} MB | drop rates {:.2}% / {:.2}%",
        trace.bytes_on_link(1, SimTime::ZERO, horizon) as f64 / 1e6,
        trace.bytes_on_link(3, SimTime::ZERO, horizon) as f64 / 1e6,
        trace.drop_rate(&[0, 1]) * 100.0,
        trace.drop_rate(&[2, 3]) * 100.0,
    );
}
