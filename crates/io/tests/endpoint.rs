//! Multi-connection endpoint integration: CID steering correctness
//! over real sockets.
//!
//! These tests are the acceptance gate for the multi-loop endpoint
//! (DESIGN.md §12): several concurrent clients transfer *distinct*
//! payloads through one `Endpoint` and each gets exactly its own file
//! verified back (per-CID stream isolation); datagrams with unknown
//! connection IDs beyond `--max-conns` are dropped and counted, across
//! loops; every path of a multipath connection, and every CID a
//! migrating connection rotates through, reaches the one loop that owns
//! it; every datagram received is delivered or counted under a reason;
//! the CID→loop assignment is stable and balanced over random CIDs; one
//! `mpq-server` *process* completes eight concurrent `mpq-client`
//! transfers; a client of an earlier build (the `mpq` transfer protocol)
//! is turned away cleanly; the loop is O(active) — silent connections
//! are never polled, an idle loop parks, and timers and shutdown reach
//! it there, as do a datagram or a stop racing the park
//! (`park_race`); and a loop's panic reaches `shutdown`'s caller.

use mpquic_core::{Config, Connection, TransmitQueue};
use mpquic_io::rpc::STATUS_BAD_REQUEST;
use mpquic_io::{
    quic_client, shard_for_cid, AppStatus, Clock, ConnApp, Driver, Endpoint, QuicTransport,
    RecvBatch, RpcCall, RpcServerApp, SocketRegistry, Transport,
};
use mpquic_util::DetRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod park_race;

const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn loopback0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// A per-client payload no other client sends: content depends on `tag`,
/// so two clients' checksums never collide by construction.
fn distinct_payload(tag: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(31)
                .wrapping_add(tag.wrapping_mul(17))) as u8
        })
        .collect()
}

/// One complete client transfer against a running endpoint: handshake,
/// upload `payload`, and assert the server's response echoes *our*
/// checksum — the isolation proof. Closes cleanly so the server retires
/// the connection promptly.
fn run_client(server: SocketAddr, seed: u64, payload: &[u8]) {
    let config = Config::builder()
        .single_path()
        .build()
        .expect("client config");
    let driver = quic_client(config, &[loopback0()], server, seed).expect("client bind");
    run_transfer(driver, payload);
}

/// [`run_client`] over an already-bound driver (any path count).
/// Returns the driver, closed, for the caller to inspect.
fn run_transfer(mut driver: Driver<QuicTransport>, payload: &[u8]) -> Driver<QuicTransport> {
    exchange(&mut driver, payload, 0, true);
    close(&mut driver);
    driver
}

/// One verified `mpq-rpc` exchange on `driver`: `request` up,
/// `resp_len` bytes back, the echoed checksum ours and no one else's.
fn exchange(driver: &mut Driver<QuicTransport>, request: &[u8], resp_len: u32, last: bool) {
    let cid = driver.connection().connection_id();
    let mut call = RpcCall::start(driver.connection_mut(), request, resp_len, last);
    let mut verdict = None;
    driver
        .run_until(OP_TIMEOUT, |t| {
            verdict = call.poll(&mut t.conn);
            verdict.is_some() || t.conn.is_closed()
        })
        .expect("pump");
    assert!(
        verdict.is_some_and(|v| v.ok && v.intact),
        "server did not verify our bytes (cid {cid:#x}): {verdict:?}"
    );
}

/// Closes cleanly, so the server retires the connection promptly.
fn close(driver: &mut Driver<QuicTransport>) {
    driver.connection_mut().close(0, "done");
    let _ = driver.run_until(Duration::from_millis(50), |t| t.conn.is_closed());
}

/// Waits (bounded) until the endpoint's live counters satisfy `done`.
fn wait_for(endpoint: &Endpoint, done: impl Fn(&mpquic_io::EndpointSnapshot) -> bool) {
    let deadline = Instant::now() + OP_TIMEOUT;
    while !done(&endpoint.stats()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn concurrent_clients_get_their_own_files_back() {
    const CLIENTS: usize = 3;
    let config = Config::builder()
        .single_path()
        .max_incoming_connections(CLIENTS)
        .worker_shards(2)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x15011,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                // Distinct seed (→ distinct CID) and distinct payload
                // (→ distinct checksum) per client.
                let payload = distinct_payload(i as u64, 24 * 1024 + i * 8 * 1024);
                run_client(server, 0xC0DE + i as u64, &payload);
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    // Every transfer completed server-side too, and the accept path saw
    // exactly one connection per client.
    wait_for(&endpoint, |s| s.completed as usize >= CLIENTS);
    let report = endpoint.shutdown();
    assert_eq!(report.totals.accepted as usize, CLIENTS);
    assert_eq!(report.totals.completed as usize, CLIENTS);
    assert_eq!(report.totals.failed, 0, "no transfer failed verification");
    assert_eq!(report.totals.rejected, 0, "accept limit never hit");
}

#[test]
fn clients_beyond_the_accept_limit_are_rejected_and_counted() {
    beyond_the_accept_limit(1);
}

/// The limit is the endpoint's, not each loop's: the rejected client's
/// CID belongs to the *other* loop, whose own table is empty.
#[test]
fn the_accept_limit_holds_across_loops() {
    beyond_the_accept_limit(2);
}

fn beyond_the_accept_limit(workers: usize) {
    let config = Config::builder()
        .single_path()
        .max_incoming_connections(1)
        .worker_shards(workers)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x7E57,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];

    // First client takes the only slot and holds it.
    let mut holder = quic_client(
        Config::builder().single_path().build().expect("config"),
        &[loopback0()],
        server,
        0xAAAA,
    )
    .expect("holder bind");
    let established = holder
        .run_until(OP_TIMEOUT, |t| t.is_established())
        .expect("pump");
    assert!(established, "holder handshake");
    assert_eq!(endpoint.stats().accepted, 1);

    // Second client's unknown CID arrives past the limit: every one of
    // its datagrams is dropped and counted, so its handshake times out.
    // Its seed is the first whose CID another loop owns (where there is
    // another loop).
    let holder_shard = shard_for_cid(holder.connection().connection_id(), endpoint.workers());
    let mut rejected = (0xBBBB_u64..)
        .map(|seed| {
            quic_client(
                Config::builder().single_path().build().expect("config"),
                &[loopback0()],
                server,
                seed,
            )
            .expect("rejected bind")
        })
        .find(|driver| {
            let cid = driver.connection().connection_id();
            endpoint.workers() == 1 || shard_for_cid(cid, endpoint.workers()) != holder_shard
        })
        .expect("some seed maps to the other loop");
    let established = rejected
        .run_until(Duration::from_millis(700), |t| t.is_established())
        .expect("pump");
    assert!(
        !established,
        "second connection must not get through a --max-conns 1 endpoint"
    );
    assert!(
        endpoint.stats().rejected >= 1,
        "rejected datagrams were counted: {:?}",
        endpoint.stats()
    );

    close(&mut holder);
    let report = endpoint.shutdown();
    assert_eq!(report.totals.accepted, 1, "only the holder was accepted");
    assert!(report.totals.rejected >= 1);
}

/// MPQUIC names a connection by its CID, not by a 4-tuple: a client on
/// two paths reaches the server from two source ports, and the kernel
/// must hand both to the one loop that owns the CID.
#[cfg(target_os = "linux")]
#[test]
fn both_paths_of_a_multipath_client_reach_one_loop() {
    let server_config = Config::builder()
        .multipath()
        .worker_shards(2)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        server_config,
        0x2BA7,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    assert_eq!(endpoint.workers(), 2, "this kernel steers by CID");
    let server = endpoint.local_addrs()[0];

    let client_config = Config::builder()
        .multipath()
        .build()
        .expect("client config");
    let driver = quic_client(client_config, &[loopback0(), loopback0()], server, 0x2BA7)
        .expect("client bind");
    let owner = shard_for_cid(driver.connection().connection_id(), 2);
    let driver = run_transfer(driver, &distinct_payload(7, 512 * 1024));

    let conn = driver.connection();
    let paths = conn.path_ids();
    assert_eq!(paths.len(), 2, "the client opened its second path");
    for id in paths {
        let path = conn.path(id).expect("listed path");
        assert!(path.bytes_sent > 0, "path {} carried nothing", id.0);
    }

    wait_for(&endpoint, |s| s.completed == 1);
    let report = endpoint.shutdown();
    assert_eq!(report.totals.accepted, 1, "two 4-tuples, one connection");
    assert_eq!(report.totals.completed, 1);
    for shard in &report.plane.shards {
        let received = shard.delivered;
        if shard.shard == owner {
            assert!(received > 0, "the owning loop served the connection");
        } else {
            assert_eq!(received, 0, "loop {} saw another loop's path", shard.shard);
        }
    }
}

/// One small verified exchange on `driver`, its request unique to `tag`.
#[cfg(target_os = "linux")]
fn rpc(driver: &mut Driver<QuicTransport>, tag: u64, last: bool) {
    exchange(driver, &distinct_payload(tag, 2048), 4096, last);
}

/// Idle steps the endpoint's loops spent spinning or yielding.
#[cfg(target_os = "linux")]
fn spins(endpoint: &Endpoint) -> u64 {
    let shards = endpoint.plane().snapshot().shards;
    shards.iter().map(|shard| shard.spins).sum()
}

/// Between small calls nothing is mid-transfer, so the loop parks at
/// once, straight after the pass that served each datagram: 20 calls,
/// each 2 ms after the last one completed, cost no spin and at most 4
/// loop iterations a call. (Each wake walking the four spin and four
/// yield rungs before it parked would cost 9 or more.)
#[cfg(target_os = "linux")]
#[test]
fn small_calls_apart_park_at_once() {
    const CALLS: u64 = 20;
    let config = Config::builder()
        .single_path()
        .worker_shards(1)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x5A11,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];
    let client_config = Config::builder()
        .single_path()
        .build()
        .expect("client config");
    let mut driver =
        quic_client(client_config, &[loopback0()], server, 0x5A11).expect("client bind");
    // The handshake is a transfer in flight: warm up past it.
    rpc(&mut driver, 0, false);
    std::thread::sleep(Duration::from_millis(2));

    let (iterations, spun) = (loop_iterations(&endpoint).0, spins(&endpoint));
    for call in 1..=CALLS {
        rpc(&mut driver, call, call == CALLS);
        std::thread::sleep(Duration::from_millis(2));
    }
    let iterated = loop_iterations(&endpoint).0 - iterations;
    assert_eq!(spins(&endpoint) - spun, 0, "the loop spun between calls");
    assert!(
        iterated <= 4 * CALLS,
        "{iterated} loop iterations for {CALLS} calls"
    );

    close(&mut driver);
    let report = endpoint.shutdown();
    assert_eq!(report.totals.failed, 0);
}

/// A transfer in flight keeps the spin and yield rungs: the gaps of a
/// 4 MiB upload are spun through before the loop parks.
#[cfg(target_os = "linux")]
#[test]
fn an_upload_spins_between_its_datagrams() {
    let config = Config::builder()
        .single_path()
        .worker_shards(1)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x0B1C,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    run_client(
        endpoint.local_addrs()[0],
        0x0B1C,
        &distinct_payload(11, 4 << 20),
    );
    assert!(spins(&endpoint) > 0, "the upload never spun");
    let report = endpoint.shutdown();
    assert_eq!(report.totals.failed, 0);
}

/// A migrating client: new source port, then — once the server has
/// validated it — a new CID. Neither may move the connection to another
/// loop, or the other loop would accept the rotated CID as a stranger.
#[cfg(target_os = "linux")]
#[test]
fn rebind_and_cid_rotation_stay_on_the_owning_loop() {
    const CLIENTS: u64 = 3;
    let config = Config::builder()
        .single_path()
        .worker_shards(2)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x207A,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    assert_eq!(endpoint.workers(), 2, "this kernel steers by CID");
    let server = endpoint.local_addrs()[0];

    for i in 0..CLIENTS {
        let mut driver = quic_client(
            Config::builder().single_path().build().expect("config"),
            &[loopback0()],
            server,
            0x207A + i,
        )
        .expect("client bind");
        let first_cid = driver.connection().connection_id();
        rpc(&mut driver, 10 * i, false);
        // Stragglers of the previous client (its last ACKs, after the
        // server closed) are long counted by now; from here on only
        // this connection talks to the endpoint.
        let tombstoned_before = endpoint.stats().tombstoned;

        driver
            .rebind_path(mpquic_core::PathId::INITIAL)
            .expect("rebind");
        rpc(&mut driver, 10 * i + 1, false);
        // Validation of the new address triggers the rotation; keep the
        // connection pumping until the old CID is retired.
        let rotated = driver
            .run_until(OP_TIMEOUT, |_| endpoint.stats().cid_rotations_completed > i)
            .expect("pump");
        assert!(rotated, "client {i}: rotation never completed");
        let new_cid = driver.connection().connection_id();
        assert_ne!(new_cid, first_cid, "client {i} switched CIDs");
        assert_eq!(new_cid & 0xFF, first_cid & 0xFF, "steering byte kept");
        // The client routes nothing on its path ops: its driver drops
        // the rotation's demux mapping instead of keeping it forever.
        assert_eq!(driver.connection_mut().pop_path_op(), None);

        // Traffic on the rotated CID is served by the same connection.
        rpc(&mut driver, 10 * i + 2, false);
        let stats = endpoint.stats();
        assert_eq!(stats.accepted, i + 1, "a rotated CID was accepted anew");
        assert_eq!(
            stats.tombstoned, tombstoned_before,
            "a live connection's datagram was dropped as a straggler"
        );

        rpc(&mut driver, 10 * i + 3, true);
        close(&mut driver);
    }

    wait_for(&endpoint, |s| s.closed == CLIENTS);
    let report = endpoint.shutdown();
    assert_eq!(report.totals.accepted, CLIENTS);
    assert_eq!(report.totals.completed, CLIENTS);
    assert_eq!(report.totals.closed, CLIENTS);
    assert_eq!(report.totals.failed, 0);
}

/// A datagram carrying `cid` that no connection can open: the header's
/// fixed bit and CID, then filler.
#[cfg(target_os = "linux")]
fn forged_datagram(cid: u64, len: usize) -> Vec<u8> {
    let mut datagram = vec![0x40];
    datagram.extend_from_slice(&cid.to_be_bytes());
    datagram.resize(len, 0xA5);
    datagram
}

/// One receive batch carries a datagram for each way ingress routes
/// one: an owned accept-time CID, a rotated alias of it, a tombstoned
/// CID, and a first-seen CID (twice — its second datagram finds the
/// connection its first one made). They leave as one GSO train, which
/// reaches the loop as one receive. Each is delivered, counted as
/// tombstoned, or accepted, and nothing else moves.
#[cfg(target_os = "linux")]
#[test]
fn a_mixed_receive_batch_routes_each_datagram_by_its_cid() {
    const SEGMENT: usize = 64;
    let config = Config::builder()
        .single_path()
        .worker_shards(1)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0xBA7C,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];
    let client_config = || Config::builder().single_path().build().expect("config");

    // A finished connection: its CID is tombstoned.
    let mut finished =
        quic_client(client_config(), &[loopback0()], server, 0xBA7C_0001).expect("client bind");
    let tombstoned_cid = finished.connection().connection_id();
    rpc(&mut finished, 1, true);
    close(&mut finished);
    drop(finished);
    wait_for(&endpoint, |s| s.closed == 1);

    // A live connection that has rotated its CID: the accept-time CID
    // still keys it, and the new one is an alias of it.
    let mut live =
        quic_client(client_config(), &[loopback0()], server, 0xBA7C_0002).expect("client bind");
    let owned_cid = live.connection().connection_id();
    rpc(&mut live, 2, false);
    live.rebind_path(mpquic_core::PathId::INITIAL)
        .expect("rebind");
    rpc(&mut live, 3, false);
    let rotated = live
        .run_until(OP_TIMEOUT, |_| endpoint.stats().cid_rotations_completed > 0)
        .expect("pump");
    assert!(rotated, "rotation never completed");
    let alias_cid = live.connection().connection_id();
    assert_ne!(alias_cid, owned_cid);
    let fresh_cid = !owned_cid;
    assert!(![owned_cid, alias_cid, tombstoned_cid].contains(&fresh_cid));

    // Let what the clients sent so far be counted.
    let mut before = endpoint.plane().snapshot();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = endpoint.plane().snapshot();
        if now.stats.datagrams_in == before.stats.datagrams_in {
            break;
        }
        before = now;
    }

    let train: Vec<u8> = [owned_cid, alias_cid, tombstoned_cid, fresh_cid, fresh_cid]
        .into_iter()
        .flat_map(|cid| forged_datagram(cid, SEGMENT))
        .collect();
    let mut sender = SocketRegistry::bind(&[loopback0()]).expect("sender bind");
    let local = sender.local_addrs()[0];
    let sent = sender
        .send_train(local, server, &train, Some(SEGMENT))
        .expect("send train");
    assert_eq!(sent, 5);
    // The receive tally is published last in the loop's iteration, after
    // every counter the batch moved.
    let recv =
        |p: &mpquic_io::PlaneSnapshot| (p.backend_recv_batch.count(), p.backend_recv_batch.sum());
    let deadline = Instant::now() + OP_TIMEOUT;
    let mut after = endpoint.plane().snapshot();
    while recv(&after).1 < recv(&before).1 + 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        after = endpoint.plane().snapshot();
    }
    assert_eq!(
        (
            recv(&after).0 - recv(&before).0,
            recv(&after).1 - recv(&before).1
        ),
        (1, 5),
        "the train did not arrive as one receive"
    );
    let delivered =
        |p: &mpquic_io::PlaneSnapshot| -> u64 { p.shards.iter().map(|s| s.delivered).sum() };
    let (b, a) = (&before.stats, &after.stats);
    assert_eq!(a.datagrams_in - b.datagrams_in, 5);
    assert_eq!(
        delivered(&after) - delivered(&before),
        4,
        "owned, alias and both fresh"
    );
    assert_eq!(a.tombstoned - b.tombstoned, 1);
    assert_eq!(a.accepted - b.accepted, 1, "the fresh CID is accepted once");
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.malformed, b.malformed);

    let report = endpoint.shutdown();
    let t = report.plane.stats;
    assert_eq!(t.accepted, 3);
    assert_eq!(
        t.datagrams_in,
        delivered(&report.plane) + t.malformed + t.rejected + t.tombstoned,
        "a datagram was dropped without a reason: {t:?}"
    );
}

/// No silent drops: after connection churn plus some garbage, every
/// datagram the loops received was delivered to a connection or counted
/// under exactly one reason. One client uploads 1 MiB, enough for its
/// GSO trains to reach the server as GRO-coalesced buffers, so the
/// identity is checked with wire datagrams split out of them.
#[test]
fn every_received_datagram_is_delivered_or_counted() {
    const WAVES: usize = 2;
    const CLIENTS: usize = 3;
    const BULK: usize = 1 << 20;
    let config = Config::builder()
        .single_path()
        .max_incoming_connections(CLIENTS)
        .worker_shards(2)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0xACC7,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];

    for wave in 0..WAVES {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tag = (wave * CLIENTS + i) as u64;
                let size = if tag == 0 { BULK } else { 16 * 1024 };
                std::thread::spawn(move || {
                    run_client(server, 0xACC7_0000 + tag, &distinct_payload(tag, size));
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        let target = ((wave + 1) * CLIENTS) as u64;
        wait_for(&endpoint, |s| s.closed == target);
    }
    // Two datagrams no connection can own: no fixed bit, and too short
    // to hold a CID.
    let stray = UdpSocket::bind(loopback0()).expect("stray socket");
    stray.send_to(&[0u8; 32], server).expect("send garbage");
    stray.send_to(&[0x40, 1, 2], server).expect("send runt");
    wait_for(&endpoint, |s| s.malformed == 2);

    let report = endpoint.shutdown();
    let t = report.plane.stats;
    let delivered: u64 = report.plane.shards.iter().map(|s| s.delivered).sum();
    assert_eq!(t.accepted as usize, WAVES * CLIENTS);
    assert_eq!(t.malformed, 2);
    assert_eq!(t.recv_errors, 0);
    assert_eq!(
        t.datagrams_in,
        delivered + t.malformed + t.rejected + t.tombstoned,
        "a datagram was dropped without a reason: {t:?}"
    );
    // The batch rows are folded from the registries' `BatchStats`
    // tallies: the receive row counts every datagram the sockets gave
    // up, which is what `datagrams_in` counts.
    let sends = &report.plane.backend_send_batch;
    assert!(sends.count() > 0, "no send reached the plane");
    assert_eq!(report.plane.backend_recv_batch.sum(), t.datagrams_in);
}

/// Property test over the repo's deterministic RNG: shard assignment is
/// a pure function of the CID (stable) and spreads uniformly random
/// CIDs evenly (balanced) — every shard receives at least half and at
/// most twice its fair share.
#[test]
fn shard_assignment_is_stable_and_balanced_over_random_cids() {
    const CIDS: u64 = 4_000;
    let mut rng = DetRng::new(0x51A4D);
    for shards in [1usize, 2, 3, 4, 8] {
        let mut counts = vec![0u64; shards];
        for _ in 0..CIDS {
            let cid = rng.next_u64();
            let shard = shard_for_cid(cid, shards);
            assert!(shard < shards, "assignment in range");
            assert_eq!(
                shard,
                shard_for_cid(cid, shards),
                "assignment is stable for cid {cid:#x}"
            );
            counts[shard] += 1;
        }
        let fair = CIDS / shards as u64;
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count >= fair / 2 && count <= fair * 2,
                "shard {shard} of {shards} got {count} of {CIDS} \
                 (fair share {fair}): {counts:?}"
            );
        }
    }
}

/// The acceptance run: one `mpq-server` process serves eight concurrent
/// `mpq-client` processes, every transfer verifies, and the server
/// exits cleanly once all eight are done.
#[test]
fn one_server_process_completes_eight_concurrent_client_transfers() {
    const CLIENTS: usize = 8;
    let mut server = std::process::Command::new(env!("CARGO_BIN_EXE_mpq-server"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--single-path",
            "--max-conns",
            "8",
            "--workers",
            "4",
            "--timeout",
            "120",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mpq-server");

    // The server prints `listening on [127.0.0.1:PORT] (...)` once its
    // sockets are bound; the port is all the clients need.
    let stdout = server.stdout.take().expect("server stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr: SocketAddr = loop {
        let line = lines
            .next()
            .expect("server printed its listen line")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on [") {
            let addr = rest.split(']').next().expect("closing bracket");
            break addr.parse().expect("listen address parses");
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    let drain = std::thread::spawn(move || {
        let mut tail = Vec::new();
        for line in lines.map_while(Result::ok) {
            tail.push(line);
        }
        tail
    });

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::process::Command::new(env!("CARGO_BIN_EXE_mpq-client"))
                .args([
                    "--connect",
                    &addr.to_string(),
                    "--single-path",
                    "--size",
                    "64k",
                    "--seed",
                    &(0xD1A1 + i as u64).to_string(),
                    "--timeout",
                    "90",
                ])
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn mpq-client")
        })
        .collect();

    for (i, mut client) in clients.into_iter().enumerate() {
        let status = client.wait().expect("wait for client");
        assert!(status.success(), "client {i} failed: {status}");
    }
    let status = server.wait().expect("wait for server");
    let tail = drain.join().expect("drain thread");
    assert!(
        status.success(),
        "server exited with {status}; report:\n{}",
        tail.join("\n")
    );
    let report = tail.join("\n");
    assert!(
        report.contains("8 completed"),
        "server report counts all eight transfers:\n{report}"
    );
}

/// A client built before `mpq-rpc` was the one protocol opens with the
/// `mpq` transfer header on the transport's first stream. The server
/// answers that stream `STATUS_BAD_REQUEST` at once, keeps serving, and
/// counts the connection failed when the client gives up and closes.
#[test]
fn an_old_builds_first_flight_is_answered_bad_request() {
    let config = Config::builder()
        .single_path()
        .worker_shards(1)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x01D,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];

    let mut old = quic_client(
        Config::builder().single_path().build().expect("config"),
        &[loopback0()],
        server,
        0x01D,
    )
    .expect("client bind");
    // "MPQ1" · name_len:u16 · name · size:u64 · sum64:u64 · payload.
    let payload = distinct_payload(1, 4096);
    let mut flight = b"MPQ1\x00\x07old.bin".to_vec();
    flight.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    flight.extend_from_slice(&mpquic_util::Checksum64::of(&payload).to_be_bytes());
    flight.extend_from_slice(&payload);
    old.transport_mut().write(flight.into());
    old.transport_mut().finish();

    let mut answer = Vec::new();
    let answered = old
        .run_until(OP_TIMEOUT, |t| {
            while let Some(chunk) = t.read_chunk() {
                answer.extend_from_slice(&chunk);
            }
            t.recv_finished()
        })
        .expect("pump");
    assert!(answered, "the server never answered the old request");
    // "MPQS" · status · sum64 · resp_len, and no body.
    let mut expected = b"MPQS".to_vec();
    expected.push(STATUS_BAD_REQUEST);
    expected.extend_from_slice(&[0; 12]);
    assert_eq!(answer, expected);
    assert_eq!(endpoint.stats().failed, 0, "not judged before it closes");

    close(&mut old);
    wait_for(&endpoint, |s| s.closed == 1);
    // Still serving: a current client gets through afterwards.
    run_client(server, 0x01E, &distinct_payload(2, 4096));
    wait_for(&endpoint, |s| s.closed == 2);

    let report = endpoint.shutdown();
    let t = report.totals;
    assert_eq!((t.accepted, t.closed), (2, 2));
    assert_eq!(
        (t.completed, t.failed),
        (1, 1),
        "old client failed, new one served"
    );
}

/// A client connection pumped by hand, so that it can go silent: the
/// ingress → timers → egress cycle over two small buffers. (A `Driver`
/// would do, but each owns 4 MiB of receive buffers, and the tests
/// below hold 128 connections.)
struct QuietClient {
    conn: Connection,
    sockets: SocketRegistry,
    clock: Clock,
    recv: RecvBatch,
    queue: TransmitQueue,
}

impl QuietClient {
    /// A single-path client with no idle timer, one step into its
    /// handshake.
    fn dial(server: SocketAddr, seed: u64) -> QuietClient {
        let config = Config::builder()
            .single_path()
            .idle_timeout(None)
            .build()
            .expect("client config");
        let sockets = SocketRegistry::bind(&[loopback0()]).expect("client bind");
        let conn = Connection::client(config, sockets.local_addrs(), 0, server, seed);
        let mut client = QuietClient {
            conn,
            sockets,
            clock: Clock::new(),
            recv: RecvBatch::new(2),
            queue: TransmitQueue::new(4, 2048),
        };
        client.step();
        client
    }

    fn step(&mut self) {
        let now = self.clock.now();
        if self.conn.next_timeout().is_some_and(|due| due <= now) {
            self.conn.on_timeout(now);
        }
        while self.sockets.poll_recv_batch(&mut self.recv).unwrap_or(0) > 0 {
            for (meta, payload) in self.recv.iter() {
                self.conn
                    .handle_datagram(now, meta.local, meta.remote, payload);
            }
        }
        while self.conn.poll_transmit_batch(now, &mut self.queue) > 0 {
            while let Some(t) = self.queue.pop() {
                let sent = self
                    .sockets
                    .send_train(t.local, t.remote, &t.payload, t.segment_size);
                self.queue.recycle(t.payload);
                sent.expect("client send");
            }
        }
    }

    /// One verified `mpq-rpc` exchange.
    fn rpc(&mut self, tag: u64) {
        let request = distinct_payload(tag, 2048);
        let mut call = RpcCall::start(&mut self.conn, &request, 4096, false);
        let deadline = Instant::now() + OP_TIMEOUT;
        let verdict = loop {
            self.step();
            if let Some(verdict) = call.poll(&mut self.conn) {
                break verdict;
            }
            assert!(Instant::now() < deadline, "rpc {tag} timed out");
        };
        assert!(verdict.ok && verdict.intact, "rpc {tag} failed");
    }
}

/// Loop iterations across the endpoint's shards: all of them, and the
/// ones that found something to do.
fn loop_iterations(endpoint: &Endpoint) -> (u64, u64) {
    let shards = endpoint.plane().snapshot().shards;
    (
        shards.iter().map(|shard| shard.loop_iterations).sum(),
        shards.iter().map(|shard| shard.busy_iterations).sum(),
    )
}

/// Pumps `clients` until neither side has anything left to say: every
/// client is free of timers, and the endpoint's loops have stopped
/// finding work.
fn settle(endpoint: &Endpoint, clients: &mut [QuietClient]) {
    let deadline = Instant::now() + OP_TIMEOUT;
    let mut seen = loop_iterations(endpoint).1;
    loop {
        assert!(Instant::now() < deadline, "the endpoint never went quiet");
        clients.iter_mut().for_each(QuietClient::step);
        std::thread::sleep(Duration::from_millis(10));
        let busy = loop_iterations(endpoint).1;
        if busy == seen && clients.iter().all(|c| c.conn.next_timeout().is_none()) {
            return;
        }
        seen = busy;
    }
}

/// An [`RpcServerApp`] that counts how often its shard polls it.
struct CountingApp {
    inner: RpcServerApp,
    polls: Arc<AtomicU64>,
}

impl ConnApp for CountingApp {
    fn poll(&mut self, transport: &mut QuicTransport) -> AppStatus {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.inner.poll(transport)
    }
}

/// The loop's cost follows the connections that have something to do,
/// not the table: 128 established but silent connections are not
/// polled once while a 129th runs 200 calls, and with everyone quiet
/// the loop does not iterate at all.
#[test]
fn silent_connections_cost_nothing() {
    const SILENT: usize = 128;
    const CALLS: u64 = 200;
    let config = Config::builder()
        .single_path()
        .idle_timeout(None)
        .max_incoming_connections(SILENT + 1)
        .worker_shards(1)
        .build()
        .expect("server config");
    // Every accepted connection's poll counter, by CID.
    let polls: Arc<Mutex<HashMap<u64, Arc<AtomicU64>>>> = Arc::default();
    let registry = Arc::clone(&polls);
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x51E7,
        Box::new(move |cid| {
            let polls = Arc::new(AtomicU64::new(0));
            registry
                .lock()
                .expect("registry lock")
                .insert(cid, Arc::clone(&polls));
            Box::new(CountingApp {
                inner: RpcServerApp::new(),
                polls,
            })
        }),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];

    // The last client is the one that will talk.
    let mut clients: Vec<QuietClient> = (0..=SILENT as u64)
        .map(|i| QuietClient::dial(server, 0x51E7_0000 + i))
        .collect();
    let deadline = Instant::now() + OP_TIMEOUT;
    while !clients.iter().all(|c| c.conn.is_established()) {
        assert!(Instant::now() < deadline, "handshakes timed out");
        clients.iter_mut().for_each(QuietClient::step);
    }
    settle(&endpoint, &mut clients);
    assert_eq!(endpoint.stats().accepted as usize, SILENT + 1);

    let polls_of = |client: &QuietClient| {
        let polls = polls.lock().expect("registry lock");
        polls[&client.conn.connection_id()].load(Ordering::Relaxed)
    };
    let (active, silent) = clients.split_last_mut().expect("129 clients");
    let before: Vec<u64> = silent.iter().map(&polls_of).collect();
    let active_before = polls_of(active);
    for call in 0..CALLS {
        active.rpc(call);
    }
    let after: Vec<u64> = silent.iter().map(&polls_of).collect();
    assert_eq!(before, after, "a silent connection was polled");
    assert!(
        polls_of(active) > active_before,
        "the active one was served"
    );

    // All quiet: no datagram and no armed deadline, so the loop parks
    // and stays parked. Were it to wake on a tick, 300 ms would show
    // hundreds of iterations — as it does where the park is the
    // bounded sleep.
    settle(&endpoint, &mut clients);
    let quiet_from = loop_iterations(&endpoint).0;
    std::thread::sleep(Duration::from_millis(300));
    let iterated = loop_iterations(&endpoint).0 - quiet_from;
    if cfg!(target_os = "linux") {
        assert!(iterated <= 4, "an idle loop iterated {iterated} times");
    }

    let report = endpoint.shutdown();
    assert!(report.plane.shards[0].parks > 0, "the loop parked");
    assert_eq!(report.totals.failed, 0);
    assert_eq!(report.totals.rejected, 0);
}

/// A parked loop still keeps time: the park ends at the earliest armed
/// deadline, so an idle timeout closes a silent connection on schedule
/// with no datagram to wake the loop.
#[test]
fn timers_fire_while_parked() {
    const IDLE: Duration = Duration::from_millis(150);
    let config = Config::builder()
        .single_path()
        .idle_timeout(Some(IDLE))
        .worker_shards(1)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0x1D7E,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .expect("bind endpoint");
    let server = endpoint.local_addrs()[0];

    let mut client = QuietClient::dial(server, 0x1D7E);
    let deadline = Instant::now() + OP_TIMEOUT;
    while !client.conn.is_established() {
        assert!(Instant::now() < deadline, "handshake timed out");
        client.step();
    }
    settle(&endpoint, std::slice::from_mut(&mut client));

    // From here the client says nothing more.
    let silent_from = Instant::now();
    let datagrams_in = endpoint.stats().datagrams_in;
    let iterations = loop_iterations(&endpoint).0;
    wait_for(&endpoint, |s| s.closed == 1);
    let took = silent_from.elapsed();

    let stats = endpoint.stats();
    assert_eq!((stats.accepted, stats.closed), (1, 1), "closed == accepted");
    assert!(
        took < IDLE + Duration::from_secs(1),
        "idle close took {took:?}"
    );
    assert_eq!(stats.datagrams_in, datagrams_in, "only the timer woke it");
    let iterated = loop_iterations(&endpoint).0 - iterations;
    if cfg!(target_os = "linux") {
        assert!(iterated <= 32, "the loop polled for its timer: {iterated}");
    }
    endpoint.shutdown();
}

/// A loop parked with nothing armed blocks without a deadline; only the
/// stop request's wake gets it out.
#[test]
fn shutdown_wakes_parked_loops() {
    for workers in [1, 2] {
        let config = Config::builder()
            .single_path()
            .worker_shards(workers)
            .build()
            .expect("server config");
        let endpoint = Endpoint::bind(
            &[loopback0()],
            config,
            0x570B,
            Box::new(|_cid| Box::new(RpcServerApp::new())),
        )
        .expect("bind endpoint");
        let plane = endpoint.plane();
        let deadline = Instant::now() + OP_TIMEOUT;
        while !plane.snapshot().shards.iter().all(|s| s.parks > 0) {
            assert!(Instant::now() < deadline, "a loop never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let asked = Instant::now();
        endpoint.shutdown();
        let took = asked.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "{workers} parked loop(s) took {took:?} to stop"
        );
    }
}

/// A few hundred datagrams, each landing at a seeded moment of an idle
/// loop's wait — parked at once, since it serves nobody — are each seen
/// within 50 ms.
#[test]
fn a_datagram_racing_the_park_is_counted() {
    park_race::datagrams_race_the_park(park_race::Serving::Nobody, 0xDA7A, 300);
}

/// The same race against a loop that owns a connection mid-transfer, so
/// the datagrams land inside its spin → yield → park walk as well.
#[test]
fn a_datagram_racing_the_ladder_is_counted() {
    park_race::datagrams_race_the_park(park_race::Serving::MidTransfer, 0xDA7B, 300);
}

/// A stop landing at a seeded moment of the walk, at one loop and at
/// two, ends every loop within 50 ms.
#[test]
fn a_stop_racing_the_park_ends_the_loop() {
    for workers in [1, 2] {
        park_race::stops_race_the_park(workers, 0x5709 + workers as u64, 40);
    }
}

/// An application that panics the first time its shard polls it.
struct PanickingApp;

impl ConnApp for PanickingApp {
    fn poll(&mut self, _transport: &mut QuicTransport) -> AppStatus {
        panic!("app panicked on its first poll");
    }
}

/// A loop that panicked is not quietly left out of the report:
/// `shutdown` re-raises its panic, payload and all.
#[test]
fn shutdown_reraises_a_loops_panic() {
    let config = Config::builder()
        .single_path()
        .worker_shards(1)
        .build()
        .expect("server config");
    let endpoint = Endpoint::bind(
        &[loopback0()],
        config,
        0xDEAD,
        Box::new(|_cid| Box::new(PanickingApp)),
    )
    .expect("bind endpoint");
    // The client's first flight is accepted, and the new connection's
    // app is polled in the same loop iteration.
    let _client = QuietClient::dial(endpoint.local_addrs()[0], 0xDEAD);
    wait_for(&endpoint, |s| s.accepted == 1);

    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| endpoint.shutdown()))
        .expect_err("shutdown returned a report without the panicked loop");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"app panicked on its first poll")
    );
}
