//! Forced-backend loopback transfers: both datapath backends
//! (DESIGN.md §17) must carry a complete QUIC transfer over real UDP,
//! each pinned through `SocketRegistry::bind_with`.

use mpquic_core::{Config, Connection};
use mpquic_io::rpc::response_pattern;
use mpquic_io::{
    mmsg, AppStatus, BackendChoice, BackendKind, ConnApp, Driver, QuicTransport, RpcCall,
    RpcServerApp, SocketRegistry,
};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

const SIZE: usize = 256 << 10;
const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn loopback0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// One single-path `mpq-rpc` upload with both ends' registries bound on
/// `choice`; asserts the server's echoed checksum matched and both ends
/// stayed on `expected`.
fn run_transfer(choice: BackendChoice, expected: BackendKind) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let (server_tx, server_rx) = mpsc::channel();

    let server = std::thread::spawn(move || {
        let sockets = SocketRegistry::bind_with(&[loopback0()], choice).expect("bind server");
        let conn = Connection::server(Config::single_path(), sockets.local_addrs(), 0xBEEF);
        let mut driver = Driver::new(QuicTransport::server(conn), sockets);
        addr_tx.send(driver.local_addrs()[0]).expect("report addr");
        // The endpoint's application, polled by hand on one connection.
        let mut app = RpcServerApp::new();
        let mut status = AppStatus::Pending;
        let _ = driver.run_until(OP_TIMEOUT, |t| {
            status = app.poll(t);
            status != AppStatus::Pending || t.conn.is_closed()
        });
        let sockets = driver.sockets();
        server_tx
            .send((status, sockets.backend_kind(), sockets.backend_stats()))
            .expect("report outcome");
    });

    let server_addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server came up");
    let sockets = SocketRegistry::bind_with(&[loopback0()], choice).expect("bind client");
    let conn = Connection::client(
        Config::single_path(),
        sockets.local_addrs(),
        0,
        server_addr,
        0xC0FFEE,
    );
    let mut driver = Driver::new(QuicTransport::client(conn), sockets);

    let data = response_pattern(SIZE, 0);
    let mut call = RpcCall::start(driver.connection_mut(), &data, 0, true);
    let mut verdict = None;
    driver
        .run_until(OP_TIMEOUT, |t| {
            verdict = call.poll(&mut t.conn);
            verdict.is_some() || t.conn.is_closed()
        })
        .expect("pump the upload");
    assert!(
        verdict.is_some_and(|v| v.ok && v.intact),
        "{expected:?}: server did not echo our checksum: {verdict:?}"
    );

    // The close ends the server's wait if the response's last
    // acknowledgement has not already.
    driver.connection_mut().close(0, "transfer complete");
    let _ = driver.run_for(Duration::from_millis(100));
    let (status, server_kind, server_stats) = server_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server finished");
    server.join().expect("server thread clean exit");

    assert_eq!(
        status,
        AppStatus::Done { ok: true },
        "{expected:?}: server verified the upload"
    );
    let sockets = driver.sockets();
    assert_eq!(
        sockets.backend_kind(),
        expected,
        "client kept the forced backend"
    );
    assert_eq!(server_kind, expected, "server kept the forced backend");
    let client_stats = sockets.backend_stats();
    assert!(
        client_stats.submissions > 0 && client_stats.completions > 0,
        "{expected:?}: client backend saw no traffic: {client_stats:?}"
    );
    assert!(
        server_stats.submissions > 0 && server_stats.completions > 0,
        "{expected:?}: server backend saw no traffic: {server_stats:?}"
    );
    assert_eq!(
        client_stats.fallbacks, 0,
        "{expected:?}: a forced arm must not fall back mid-transfer"
    );
}

#[test]
fn every_backend_carries_a_loopback_transfer() {
    run_transfer(BackendChoice::Mmsg, BackendKind::Mmsg);
    run_transfer(BackendChoice::Portable, BackendKind::Portable);
}

#[test]
fn auto_is_the_platforms_batched_path() {
    let auto = SocketRegistry::bind_with(&[loopback0()], BackendChoice::Auto).expect("bind");
    let expected = if mmsg::NATIVE_BATCH {
        BackendKind::Mmsg
    } else {
        BackendKind::Portable
    };
    assert_eq!(auto.backend_kind(), expected);
    let plain = SocketRegistry::bind(&[loopback0()]).expect("bind");
    assert_eq!(plain.backend_kind(), expected, "bind is bind_with(Auto)");
}
