//! Forced-backend loopback transfers: both datapath backends
//! (DESIGN.md §17) must carry a complete QUIC transfer over real UDP,
//! each pinned through `SocketRegistry::bind_with`.

use mpquic_core::{Config, Connection};
use mpquic_io::{
    mmsg, transfer, BackendChoice, BackendKind, BlockingStream, Driver, QuicTransport,
    SocketRegistry,
};
use std::io::Read;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

const SIZE: usize = 256 << 10;
const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn loopback0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// One single-path client→server transfer with both ends' registries
/// bound on `choice`; asserts both ends stayed on `expected`.
fn run_transfer(choice: BackendChoice, expected: BackendKind) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let (server_tx, server_rx) = mpsc::channel();

    let server = std::thread::spawn(move || {
        let sockets = SocketRegistry::bind_with(&[loopback0()], choice).expect("bind server");
        let conn = Connection::server(Config::single_path(), sockets.local_addrs(), 0xBEEF);
        let driver = Driver::new(QuicTransport::server(conn), sockets);
        addr_tx.send(driver.local_addrs()[0]).expect("report addr");
        let mut stream = BlockingStream::with_timeout(driver, OP_TIMEOUT);
        stream.wait_established().expect("server handshake");
        let (header, payload) = transfer::recv_request(&mut stream).expect("receive upload");
        transfer::send_response(&mut stream, true, header.checksum).expect("send verdict");
        stream.finish().expect("finish response");
        let driver = stream.driver_mut();
        let _ = driver.run_until(Duration::from_secs(5), |t| {
            t.conn.stream_fully_acked(1) || t.conn.is_closed()
        });
        server_tx
            .send((payload, driver.backend_kind(), driver.backend_stats()))
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
    let driver = Driver::new(QuicTransport::client(conn), sockets);
    let mut stream = BlockingStream::with_timeout(driver, OP_TIMEOUT);
    stream.wait_established().expect("client handshake");

    let data = transfer::pattern(SIZE);
    transfer::send_request(&mut stream, "backend.bin", &data).expect("send upload");
    stream.finish().expect("finish upload");
    let (verified, checksum) = transfer::recv_response(&mut stream).expect("read verdict");
    assert!(
        verified,
        "{expected:?}: server reported a checksum mismatch"
    );
    assert_eq!(checksum, mpquic_util::Checksum64::of(&data));

    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).expect("drain to EOF");
    let mut driver = stream.into_driver();
    driver.connection_mut().close(0, "transfer complete");
    let _ = driver.run_for(Duration::from_millis(100));

    let (payload, server_kind, server_stats) = server_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server delivered payload");
    server.join().expect("server thread clean exit");

    assert_eq!(payload, data, "{expected:?}: payload reassembled exactly");
    assert_eq!(
        driver.backend_kind(),
        expected,
        "client kept the forced backend"
    );
    assert_eq!(server_kind, expected, "server kept the forced backend");
    let client_stats = driver.backend_stats();
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
