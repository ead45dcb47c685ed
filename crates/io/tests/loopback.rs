//! Loopback integration: real multipath transfers over the OS UDP stack.
//!
//! These tests are the acceptance gate for the real-socket runtime: a
//! client bound to **two real loopback sockets** transfers ≥ 1 MiB to a
//! server over actual UDP, the payload arrives in order and verified, and
//! the per-path statistics prove that *both* paths carried a meaningful
//! share — i.e. the lowest-RTT scheduler and the per-path packet-number
//! spaces work outside the simulator.

use mpquic_core::Config;
use mpquic_io::rpc::response_pattern;
use mpquic_io::{quic_client, quic_server, Driver, QuicTransport, Transport};
use mpquic_util::Checksum64;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

const MIB: usize = 1 << 20;
const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn loopback0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// The deterministic upload: a varying pattern, so a reassembly bug
/// cannot hide behind repetition.
fn pattern(size: usize) -> Vec<u8> {
    response_pattern(size, 0)
}

/// Runs one complete client→server transfer over real sockets: the server
/// in its own thread (as a separate process would be), the client on the
/// test thread. Returns the client driver (for stats/qlog inspection) and
/// the payload exactly as the server received it.
///
/// No application protocol here: the bytes go up the transport's one
/// raw stream and the server keeps every one of them, so the callers
/// can compare what arrived byte for byte.
fn run_transfer(
    client_config: Config,
    server_config: Config,
    client_interfaces: usize,
    size: usize,
) -> (Driver<QuicTransport>, Vec<u8>) {
    run_transfer_with(
        client_config,
        server_config,
        client_interfaces,
        size,
        |_| {},
    )
}

/// [`run_transfer`] with a hook over the client connection before the
/// handshake — used to install telemetry subscribers.
fn run_transfer_with(
    client_config: Config,
    server_config: Config,
    client_interfaces: usize,
    size: usize,
    setup: impl FnOnce(&mut mpquic_core::Connection),
) -> (Driver<QuicTransport>, Vec<u8>) {
    let (addr_tx, addr_rx) = mpsc::channel();
    let (payload_tx, payload_rx) = mpsc::channel();

    let server = std::thread::spawn(move || {
        let mut driver = quic_server(server_config, &[loopback0()], 0xBEEF).expect("bind server");
        addr_tx.send(driver.local_addrs()[0]).expect("report addr");
        let mut payload = Vec::new();
        let finished = driver
            .run_until(OP_TIMEOUT, |t| {
                while let Some(chunk) = t.read_chunk() {
                    payload.extend_from_slice(&chunk);
                }
                t.recv_finished()
            })
            .expect("pump the upload");
        assert!(finished, "upload never finished");
        // The receipt: the checksum of what arrived, then end of stream.
        let receipt = Checksum64::of(&payload).to_be_bytes();
        driver.transport_mut().write(receipt.to_vec().into());
        driver.transport_mut().finish();
        // Linger until the client acknowledged the receipt or closed.
        let _ = driver.run_until(Duration::from_secs(5), |t| {
            t.conn.stream_fully_acked(1) || t.conn.is_closed()
        });
        payload_tx.send(payload).expect("report payload");
    });

    let server_addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server came up");
    let locals: Vec<SocketAddr> = (0..client_interfaces).map(|_| loopback0()).collect();
    let mut driver =
        quic_client(client_config, &locals, server_addr, 0xC0FFEE).expect("bind client");
    setup(driver.connection_mut());

    let data = pattern(size);
    driver.transport_mut().write(data.clone().into());
    driver.transport_mut().finish();
    let mut receipt = Vec::new();
    let finished = driver
        .run_until(OP_TIMEOUT, |t| {
            while let Some(chunk) = t.read_chunk() {
                receipt.extend_from_slice(&chunk);
            }
            t.recv_finished()
        })
        .expect("pump the receipt");
    assert!(finished, "receipt never arrived");
    assert_eq!(
        receipt,
        Checksum64::of(&data).to_be_bytes(),
        "server's checksum matches ours"
    );
    // Close so the server's linger loop ends promptly.
    driver.connection_mut().close(0, "transfer complete");
    let _ = driver.run_for(Duration::from_millis(100));

    let payload = payload_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server delivered payload");
    server.join().expect("server thread clean exit");
    (driver, payload)
}

#[test]
fn multipath_loopback_transfer_uses_both_paths() {
    const SIZE: usize = 2 * MIB;
    let config = Config::builder().multipath().build().expect("valid config");
    let (driver, payload) = run_transfer(config.clone(), config, 2, SIZE);

    // In-order, verified delivery of every byte over real sockets.
    assert_eq!(payload.len(), SIZE);
    assert_eq!(payload, pattern(SIZE), "payload reassembled exactly");

    let conn = driver.connection();
    let ids = conn.path_ids();
    assert!(
        ids.len() >= 2,
        "the path manager opened the second path over real sockets (paths: {ids:?})"
    );

    // Both paths carried ≥ 10% of the bytes.
    let stats = conn.stats();
    let per_path: Vec<(u32, u64)> = ids
        .iter()
        .map(|&id| (id.0, conn.path(id).unwrap().bytes_sent))
        .collect();
    let total: u64 = per_path.iter().map(|(_, bytes)| bytes).sum();
    assert_eq!(
        total, stats.bytes_sent,
        "per-path byte counters add up to the connection total"
    );
    assert!(total as usize >= SIZE, "wire bytes cover the payload");
    for &(id, bytes) in &per_path {
        assert!(
            bytes * 10 >= total,
            "path {id} carried only {bytes} of {total} wire bytes (< 10%): {per_path:?}"
        );
    }

    // The batched datapath actually batched: a bulk transfer must have
    // coalesced multiple datagrams into single syscalls somewhere, and
    // the telemetry histograms must show it.
    let io = driver.stats();
    assert!(io.datagrams_sent > 0);
    #[cfg(target_os = "linux")]
    {
        let batch = driver.sockets().batch_stats();
        assert!(
            batch.send_batch_size.max() >= 2,
            "no send syscall ever carried more than one datagram: {batch:?}"
        );
        assert!(
            io.syscalls_saved > 0,
            "batching saved no syscalls on a 2 MiB multipath transfer"
        );
    }
}

#[test]
fn scheduler_decision_share_matches_bytes_on_wire() {
    const SIZE: usize = 2 * MIB;
    let (metrics, handle) = mpquic_core::telemetry::MetricsSubscriber::new();
    let (driver, payload) =
        run_transfer_with(Config::multipath(), Config::multipath(), 2, SIZE, |conn| {
            conn.set_subscriber(Box::new(metrics));
        });
    assert_eq!(payload.len(), SIZE);

    let conn = driver.connection();
    let ids = conn.path_ids();
    assert!(ids.len() >= 2, "second path opened (paths: {ids:?})");
    let snapshot = handle.snapshot();

    let total_bytes: u64 = ids
        .iter()
        .map(|&id| conn.path(id).unwrap().bytes_sent)
        .sum();
    for &id in &ids {
        let summary = snapshot
            .path(id)
            .unwrap_or_else(|| panic!("telemetry saw path {}", id.0));
        // Every packet_sent event reached the subscriber: its per-path
        // byte count is the path's own.
        assert_eq!(
            summary.bytes_sent,
            conn.path(id).unwrap().bytes_sent,
            "telemetry and path counters agree for path {}",
            id.0
        );
        // scheduler_decision events were emitted for this path, and
        // metrics_updated filled in its RTT gauge.
        assert!(
            summary.sched_decisions > 0,
            "scheduler decisions recorded for path {}",
            id.0
        );
        assert!(
            summary.srtt_us > 0,
            "metrics_updated seen for path {}",
            id.0
        );

        // The scheduler-share statistic (fraction of scheduler picks)
        // tracks the fraction of wire bytes the path carried: data
        // packets dominate and are near-uniform in size, so the two
        // shares agree within a loose tolerance.
        let byte_share = conn.path(id).unwrap().bytes_sent as f64 / total_bytes.max(1) as f64;
        assert!(
            (summary.sched_share - byte_share).abs() < 0.15,
            "path {}: sched share {:.3} vs byte share {:.3}",
            id.0,
            summary.sched_share,
            byte_share
        );
    }
}

#[test]
fn timed_out_transfer_still_leaves_a_qlog_file() {
    // A "server" that never answers: the handshake times out and the
    // client exits through its error path. The streaming qlog writer
    // flushes on drop, so the trace must still be on disk afterwards.
    let black_hole = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind black hole");
    let server_addr = black_hole.local_addr().expect("black hole addr");

    let qlog_path = std::env::temp_dir().join(format!("mpq-crash-{}.qlog", std::process::id()));
    let _ = std::fs::remove_file(&qlog_path);
    {
        let mut driver = quic_client(
            Config::multipath(),
            &[loopback0(), loopback0()],
            server_addr,
            7,
        )
        .expect("bind client");
        let qlog = mpquic_core::telemetry::StreamingQlog::create(&qlog_path).expect("create qlog");
        driver.connection_mut().set_subscriber(Box::new(qlog));
        let established = driver
            .run_until(Duration::from_millis(500), |t| t.is_established())
            .expect("pump");
        assert!(!established, "handshake against a black hole must time out");
        // `driver` (and the connection holding the subscriber) drops here,
        // exactly like the binaries' error exit.
    }

    let trace = std::fs::read_to_string(&qlog_path).expect("qlog file exists");
    assert!(
        !trace.trim().is_empty(),
        "timed-out transfer left an empty qlog"
    );
    // At least the client's handshake packet was recorded.
    let lower = trace.to_ascii_lowercase();
    assert!(
        lower.contains("packet"),
        "trace records packet events: {}",
        &trace[..trace.len().min(200)]
    );
    let _ = std::fs::remove_file(&qlog_path);
}

#[test]
fn single_path_loopback_transfer_completes() {
    const SIZE: usize = MIB;
    let (driver, payload) = run_transfer(Config::single_path(), Config::single_path(), 1, SIZE);

    assert_eq!(payload.len(), SIZE);
    assert_eq!(payload, pattern(SIZE), "payload reassembled exactly");

    let conn = driver.connection();
    assert_eq!(
        conn.path_ids().len(),
        1,
        "single-path mode opens no extra paths"
    );
    assert!(conn.stats().bytes_sent as usize >= SIZE);
}
