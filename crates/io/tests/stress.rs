//! Accept/close churn stress for the multi-loop endpoint — the
//! sanitizer-facing companion to the model-checked idle-wait test
//! (`tests/loom.rs`).
//!
//! This test hammers the real thing: waves of concurrent clients
//! handshake, transfer, and close against one two-loop `Endpoint`,
//! exercising kernel steering, the shared accept limit, CID
//! retirement/tombstoning, and teardown under genuine thread
//! concurrency. On its own it is a smoke test; under ThreadSanitizer
//! (CI job `tsan`, see DESIGN.md §14) every data race in the churned
//! paths is a hard failure.
//!
//! `#[ignore]` by default: it opens dozens of real sockets and runs for
//! seconds. Run with `cargo test -p mpquic-io --test stress -- --ignored`.

use mpquic_core::Config;
use mpquic_io::{quic_client, Endpoint, RpcCall, RpcServerApp};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn loopback0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// Payload whose bytes depend on `tag`, so checksum collisions between
/// concurrent clients cannot mask cross-connection delivery bugs.
fn distinct_payload(tag: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(31)
                .wrapping_add(tag.wrapping_mul(17))) as u8
        })
        .collect()
}

/// One handshake → upload → verify → close cycle against the endpoint.
fn churn_client(server: SocketAddr, seed: u64, payload: &[u8]) {
    let config = Config::builder()
        .single_path()
        .build()
        .expect("client config");
    let mut driver = quic_client(config, &[loopback0()], server, seed).expect("client bind");

    // The echoed checksum is of *this* client's payload: no other
    // connection's bytes were verified in its place.
    let mut call = RpcCall::start(driver.connection_mut(), payload, 0, true);
    let mut verdict = None;
    driver
        .run_until(OP_TIMEOUT, |t| {
            verdict = call.poll(&mut t.conn);
            verdict.is_some() || t.conn.is_closed()
        })
        .expect("pump");
    assert!(
        verdict.is_some_and(|v| v.ok && v.intact),
        "server failed to verify the upload (seed {seed}): {verdict:?}"
    );

    driver.connection_mut().close(0, "churn done");
    let _ = driver.run_until(Duration::from_millis(50), |t| t.conn.is_closed());
}

/// Waves of concurrent connect/transfer/close churn. Each wave fully
/// drains before the next starts, so the same accept slots are reused
/// wave after wave — the retire paths, not just the steady state,
/// carry the load.
#[test]
#[ignore = "sanitizer workload: seconds of real-socket churn; run with -- --ignored"]
fn accept_close_churn_is_race_free() {
    const WAVES: usize = 3;
    const CLIENTS_PER_WAVE: usize = 4;

    let config = Config::builder()
        .single_path()
        .max_incoming_connections(CLIENTS_PER_WAVE)
        .worker_shards(2)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x57E55,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];

    for wave in 0..WAVES {
        let clients: Vec<_> = (0..CLIENTS_PER_WAVE)
            .map(|i| {
                let tag = (wave * CLIENTS_PER_WAVE + i) as u64;
                std::thread::spawn(move || {
                    let payload = distinct_payload(tag, 8 * 1024 + (tag as usize) * 512);
                    churn_client(server, 0x5EED_0000 + tag, &payload);
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        // Let the wave's closes retire server-side before reusing the
        // accept slots: the endpoint only frees a slot once the owning
        // loop has reaped the connection.
        let deadline = Instant::now() + OP_TIMEOUT;
        let target = ((wave + 1) * CLIENTS_PER_WAVE) as u64;
        while endpoint.stats().completed < target && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            endpoint.stats().completed,
            target,
            "wave {wave} did not fully complete server-side"
        );
    }

    let report = endpoint.shutdown();
    let total = (WAVES * CLIENTS_PER_WAVE) as u64;
    assert_eq!(
        report.totals.accepted, total,
        "every churned client accepted"
    );
    assert_eq!(report.totals.completed, total, "every transfer verified");
    assert_eq!(report.totals.failed, 0, "no transfer failed verification");
    assert_eq!(
        report.totals.accepted,
        report.totals.closed + report.totals.active,
        "close accounting balances after churn: {:?}",
        report.totals
    );
}
