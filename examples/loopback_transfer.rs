//! A multipath transfer over **real UDP sockets** — no simulator.
//!
//! Everything the other examples do inside `mpquic-netsim`, this one does
//! through the OS network stack: the client binds two loopback ports (its
//! two "interfaces"), the server binds one, and `mpquic-io` drives the
//! same sans-IO `Connection` over `std::net::UdpSocket`. The server is an
//! [`Endpoint`] on its own threads, standing in for a separate process,
//! and the upload is one `mpq-rpc` exchange; `mpq-server` and
//! `mpq-client` are the two halves as real binaries.
//!
//! Run with:
//! `cargo run --release --example loopback_transfer -- [size_mb] [--qlog FILE]`
//!
//! With `--qlog FILE` the client connection streams its telemetry events
//! (scheduler decisions, per-path metrics updates, ...) to FILE as JSON
//! lines while the transfer runs.

use mpquic_core::telemetry::{MetricsSubscriber, StreamingQlog};
use mpquic_core::Config;
use mpquic_io::rpc::{response_pattern, MAX_RPC_PAYLOAD};
use mpquic_io::{quic_client, Endpoint, RpcCall, RpcServerApp};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn main() {
    let mut size_mb = 4.0f64;
    let mut qlog_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--qlog" {
            qlog_path = args.next();
        } else if let Ok(v) = arg.parse() {
            size_mb = v;
        }
    }
    let size = (size_mb * 1024.0 * 1024.0) as usize;
    if size > MAX_RPC_PAYLOAD {
        eprintln!("loopback_transfer: one mpq-rpc message carries at most 64 MB");
        std::process::exit(2);
    }
    let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();

    // The "remote host": one socket, its address advertised via
    // ADD_ADDRESS during the handshake; every connection it accepts runs
    // the `mpq-rpc` server.
    let endpoint = Endpoint::bind(
        &[loopback],
        Config::builder().build().expect("defaults are valid"),
        2,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind server");
    let server_addr = endpoint.local_addrs()[0];

    // The "client host": two loopback ports play the role of two
    // interfaces (say, Wi-Fi and LTE on a smartphone).
    let mut driver = quic_client(
        Config::builder().build().expect("defaults are valid"),
        &[loopback, loopback],
        server_addr,
        1,
    )
    .expect("bind client");
    let (metrics, metrics_handle) = MetricsSubscriber::new();
    let qlog = qlog_path.as_deref().map(|path| {
        StreamingQlog::create(path).unwrap_or_else(|e| panic!("create qlog {path}: {e}"))
    });
    driver
        .connection_mut()
        .set_subscriber(Box::new((metrics, qlog)));
    println!(
        "client {:?} -> server {server_addr} ({:.1} MB over real UDP sockets)",
        driver.local_addrs(),
        size as f64 / 1048576.0
    );
    let established = driver
        .run_until(Duration::from_secs(30), |t| t.conn.is_established())
        .expect("pump the handshake");
    assert!(established, "client handshake");

    // One exchange, the last on this connection: the payload up, no
    // response body; the server echoes the checksum of what it got.
    let started = Instant::now();
    let payload = response_pattern(size, 0);
    let mut call = RpcCall::start(driver.connection_mut(), &payload, 0, true);
    let mut verdict = None;
    driver
        .run_until(Duration::from_secs(30), |t| {
            verdict = call.poll(&mut t.conn);
            verdict.is_some() || t.conn.is_closed()
        })
        .expect("pump the upload");
    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        verdict.is_some_and(|v| v.ok && v.intact),
        "server echoed our checksum: {verdict:?}"
    );

    driver.connection_mut().close(0, "done");
    let _ = driver.run_for(Duration::from_millis(100));
    let report = endpoint.shutdown();
    assert_eq!(
        (report.totals.completed, report.totals.failed),
        (1, 0),
        "the server counted one clean connection"
    );

    println!();
    println!(
        "server verified {} bytes in {elapsed:.3} s ({:.1} Mbit/s)",
        size,
        size as f64 * 8.0 / elapsed / 1e6
    );
    let conn = driver.connection();
    let total: u64 = conn
        .path_ids()
        .iter()
        .map(|&id| conn.path(id).unwrap().bytes_sent)
        .sum();
    let snapshot = metrics_handle.snapshot();
    for id in conn.path_ids() {
        let path = conn.path(id).unwrap();
        let share = snapshot
            .path(id)
            .map(|p| p.sched_share * 100.0)
            .unwrap_or(0.0);
        println!(
            "path {}: {} -> {}  {} B sent ({:.1}% of wire bytes, {share:.1}% of \
             scheduler picks), srtt {:.2} ms",
            id.0,
            path.local,
            path.remote,
            path.bytes_sent,
            path.bytes_sent as f64 * 100.0 / total.max(1) as f64,
            path.rtt.srtt().as_secs_f64() * 1e3,
        );
    }
    if let Some(path) = &qlog_path {
        // The streaming writer flushed when the connection dropped the
        // subscriber stack; the trace is complete on disk by now.
        drop(driver);
        println!("qlog written to {path}");
    }
}
