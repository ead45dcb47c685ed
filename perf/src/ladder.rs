//! The isolated rungs: each layer priced on its own, from outside.
//!
//! Packet rungs run with a 1200 B and a 64 B STREAM payload — the small
//! size is where per-packet cost is all there is. Every rung is
//! repeated and reported as median and interquartile range. The rungs
//! cost *both ends* of a packet's trip (encode and decode, seal and
//! open, send and receive); the endpoint is one end, which is why the
//! residual in [`crate::report`] takes half.

use crate::report::{value, Value};
use bytes::{Bytes, BytesMut};
use mpquic_core::{Config, Connection, PathId, TransmitQueue};
use mpquic_crypto::{nonce_for, Aead, NonceMode};
use mpquic_harness::QuicTransport;
use mpquic_io::backend::BackendChoice;
use mpquic_io::rpc::{RpcCall, RpcServerApp};
use mpquic_io::{quic_client, ConnApp, Endpoint, RecvBatch, SocketRegistry};
use mpquic_loadgen::schedule::Op;
use mpquic_util::{alloc_count, SimTime};
use mpquic_wire::{Frame, Packet, PacketBuilder, PacketType, PublicHeader, StreamFrame};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Payload sizes of the packet rungs, B.
pub const SIZES: [usize; 2] = [1200, 64];

/// How much work the ladder does.
#[derive(Debug, Clone, Copy)]
pub struct LadderOpts {
    /// Repetitions of each rung.
    pub reps: usize,
    /// Packets per repetition of a packet rung.
    pub packets: usize,
    /// Fresh connections of the handshake rung.
    pub connections: usize,
    /// Seed of connection IDs and op sizes.
    pub seed: u64,
}

impl LadderOpts {
    /// The full ladder, or the smoke's single short repetition.
    pub fn new(smoke: bool, seed: u64) -> LadderOpts {
        if smoke {
            LadderOpts {
                reps: 1,
                packets: 2_000,
                connections: 8,
                seed,
            }
        } else {
            LadderOpts {
                reps: 5,
                packets: 20_000,
                connections: 100,
                seed,
            }
        }
    }
}

fn addr(s: &str) -> SocketAddr {
    s.parse().expect("address literal")
}

/// Runs `rep` `opts.reps` times; it returns one sample per metric.
fn repeat<const N: usize>(
    opts: &LadderOpts,
    names: [(String, &'static str); N],
    mut rep: impl FnMut() -> [f64; N],
) -> Vec<Value> {
    let mut samples = vec![Vec::with_capacity(opts.reps); N];
    for _ in 0..opts.reps {
        for (column, value) in samples.iter_mut().zip(rep()) {
            column.push(value);
        }
    }
    names
        .into_iter()
        .zip(&samples)
        .map(|((name, unit), column)| value(&name, unit, column))
        .collect()
}

/// `wire.codec_ns_per_pkt`: one STREAM packet through `PacketBuilder`,
/// `encode_parts_into`, `PublicHeader::decode`, `Packet::from_parts`.
fn codec(opts: &LadderOpts, size: usize) -> Vec<Value> {
    let data = Bytes::from(vec![0xabu8; size]);
    let (mut header_buf, mut payload_buf) = (BytesMut::new(), BytesMut::new());
    repeat(
        opts,
        [(format!("wire.codec_ns_per_pkt.{size}"), "ns")],
        || {
            let started = Instant::now();
            for n in 0..opts.packets as u64 {
                let header = PublicHeader {
                    connection_id: opts.seed,
                    path_id: PathId(1),
                    packet_number: n,
                    packet_type: PacketType::OneRtt,
                };
                let mut builder = PacketBuilder::new(header);
                builder.try_push(Frame::Stream(StreamFrame {
                    stream_id: 1,
                    offset: n * size as u64,
                    data: data.clone(),
                    fin: false,
                }));
                let packet = builder.finish().expect("one frame pushed");
                packet.encode_parts_into(&mut header_buf, &mut payload_buf);
                let mut read = &header_buf[..];
                let header = PublicHeader::decode(&mut read).expect("own header decodes");
                black_box(Packet::from_parts(header, &payload_buf).expect("own payload decodes"));
            }
            [started.elapsed().as_nanos() as f64 / opts.packets as f64]
        },
    )
}

/// `crypto.aead_ns_per_pkt`: `Aead::seal_into` then `Aead::open`.
fn aead(opts: &LadderOpts, size: usize) -> Vec<Value> {
    let aead = Aead::new([7u8; 32]);
    let header = [0x41u8; 12];
    let plain = vec![0xeeu8; size];
    let mut sealed = Vec::with_capacity(size + 16);
    repeat(
        opts,
        [(format!("crypto.aead_ns_per_pkt.{size}"), "ns")],
        || {
            let started = Instant::now();
            for n in 0..opts.packets as u64 {
                let nonce = nonce_for(NonceMode::PathIdMixed, 1, n);
                sealed.clear();
                aead.seal_into(&nonce, &header, black_box(&plain), &mut sealed);
                black_box(aead.open(&nonce, &header, &sealed).expect("own seal opens"));
            }
            [started.elapsed().as_nanos() as f64 / opts.packets as f64]
        },
    )
}

/// Two sans-IO connections wired back to back in memory: two client
/// addresses to one server address, no sockets, a simulated clock.
struct Pair {
    client: Connection,
    server: Connection,
    queue: TransmitQueue,
    now: SimTime,
    /// Per-call wall time by span, filled only on a timed pass.
    split: Option<Split>,
}

/// Where the in-memory rung's time goes, ns.
#[derive(Debug, Clone, Copy, Default)]
struct Split {
    handle_datagram: u64,
    poll_transmit_batch: u64,
    on_timeout: u64,
    stream_io: u64,
}

fn timed<T>(slot: Option<&mut u64>, f: impl FnOnce() -> T) -> T {
    match slot {
        None => f(),
        Some(slot) => {
            let started = Instant::now();
            let out = f();
            *slot += started.elapsed().as_nanos() as u64;
            out
        }
    }
}

impl Pair {
    fn new(seed: u64, timed_pass: bool) -> Pair {
        let config = Config::builder()
            .multipath()
            .idle_timeout(None)
            .build()
            .expect("rung config is valid");
        let server_addr = addr("10.0.0.2:4433");
        let client_addrs = vec![addr("10.0.0.1:1111"), addr("10.0.1.1:1111")];
        let mut pair = Pair {
            client: Connection::client(config.clone(), client_addrs, 0, server_addr, seed),
            server: Connection::server(config.clone(), vec![server_addr], seed ^ 1),
            queue: TransmitQueue::for_config(&config),
            now: SimTime::ZERO,
            split: None,
        };
        for _ in 0..64 {
            pair.turn(Duration::from_millis(1));
        }
        assert!(
            pair.client.is_established() && pair.client.path_ids().len() == 2,
            "in-memory pair did not reach two established paths"
        );
        pair.split = timed_pass.then(Split::default);
        pair
    }

    /// Moves everything `from` has to send into `to`.
    fn flush(
        from: &mut Connection,
        to: &mut Connection,
        queue: &mut TransmitQueue,
        now: SimTime,
        split: &mut Option<Split>,
    ) {
        loop {
            let slot = split.as_mut().map(|s| &mut s.poll_transmit_batch);
            timed(slot, || from.poll_transmit_batch(now, queue));
            if queue.is_empty() {
                return;
            }
            while let Some(transmit) = queue.pop() {
                for segment in transmit.segments() {
                    let slot = split.as_mut().map(|s| &mut s.handle_datagram);
                    timed(slot, || {
                        to.handle_datagram(now, transmit.remote, transmit.local, segment)
                    });
                }
                queue.recycle(transmit.payload);
            }
        }
    }

    /// One turn of the wire: time advances, due timers fire, each side
    /// sends what it has.
    fn turn(&mut self, step: Duration) {
        self.now += step;
        for conn in [&mut self.client, &mut self.server] {
            if conn.next_timeout().is_some_and(|due| due <= self.now) {
                let slot = self.split.as_mut().map(|s| &mut s.on_timeout);
                timed(slot, || conn.on_timeout(self.now));
            }
        }
        let Pair {
            client,
            server,
            queue,
            now,
            split,
        } = self;
        Pair::flush(client, server, queue, *now, split);
        Pair::flush(server, client, queue, *now, split);
    }

    fn packets(&self) -> u64 {
        self.client.stats().packets_sent + self.server.stats().packets_sent
    }
}

/// `core.conn_ns_per_pkt` and its split: the client streams `packets`
/// payloads of `size` bytes to the server, which reads them. At 1200 B
/// the stream is written in 64-packet bursts and packetised at full
/// size; at 64 B every write is flushed on its own, so each packet
/// carries one small frame. The first repetition is untimed inside and
/// gives the total; the split comes from a second, timed pass.
fn conn(opts: &LadderOpts, size: usize) -> Vec<Value> {
    let burst = if size >= 1200 { 64 } else { 1 };
    let chunk = Bytes::from(vec![0x5au8; size * burst]);
    let run = |timed_pass: bool| {
        let mut pair = Pair::new(opts.seed, timed_pass);
        let stream = pair.client.open_stream();
        let packets_before = pair.packets();
        let pool_before = pair.queue.pool_stats();
        let coalesced_before = pair.queue.coalesced();
        alloc_count::reset_thread_counts();
        let started = Instant::now();
        let mut written = 0usize;
        while written < opts.packets {
            let slot = pair.split.as_mut().map(|s| &mut s.stream_io);
            timed(slot, || {
                let _ = pair.client.stream_write(stream, chunk.clone());
            });
            written += burst;
            pair.turn(Duration::from_micros(200));
            let slot = pair.split.as_mut().map(|s| &mut s.stream_io);
            timed(slot, || {
                while let Some(data) = pair.server.stream_read(stream, usize::MAX) {
                    black_box(data);
                }
            });
        }
        let wall_ns = started.elapsed().as_nanos() as f64;
        let allocs = alloc_count::thread_counts().allocs as f64;
        let packets = (pair.packets() - packets_before) as f64;
        let pool = pair.queue.pool_stats();
        (
            wall_ns / packets,
            pair.split.unwrap_or_default(),
            packets,
            allocs / packets,
            (pair.queue.coalesced() - coalesced_before) as f64 / packets,
            (pool.misses - pool_before.misses) as f64
                / (pool.taken - pool_before.taken).max(1) as f64,
        )
    };
    let mut rungs = repeat(
        opts,
        [(format!("core.conn_ns_per_pkt.{size}"), "ns")],
        || [run(false).0],
    );
    if size >= 1200 {
        rungs.extend(repeat(
            opts,
            [
                ("core.handle_datagram_ns".to_string(), "ns"),
                ("core.poll_transmit_batch_ns".to_string(), "ns"),
                ("core.on_timeout_ns".to_string(), "ns"),
                ("core.stream_io_ns".to_string(), "ns"),
                ("core.allocs_per_pkt".to_string(), "count"),
                ("core.coalesced_share".to_string(), "ratio"),
                ("core.pool_miss_share".to_string(), "ratio"),
            ],
            || {
                let (_, split, packets, allocs, coalesced, misses) = run(true);
                [
                    split.handle_datagram as f64 / packets,
                    split.poll_transmit_batch as f64 / packets,
                    split.on_timeout as f64 / packets,
                    split.stream_io as f64 / packets,
                    allocs,
                    coalesced,
                    misses,
                ]
            },
        ));
    }
    rungs
}

/// `io.backend_ns_per_dgram.*`: 16-segment trains through
/// `SocketRegistry::send_train` and back out of `poll_recv_batch`, on
/// one thread, once per backend arm. An arm the kernel lacks reports 0.
fn backend(opts: &LadderOpts) -> Vec<Value> {
    const TRAIN: usize = 16;
    const SEGMENT: usize = 1200;
    let loopback = addr("127.0.0.1:0");
    let payload = vec![0xa5u8; SEGMENT * TRAIN];
    let mut rungs = Vec::new();
    for (arm, choice) in [
        ("auto", BackendChoice::Auto),
        ("mmsg", BackendChoice::Mmsg),
        ("portable", BackendChoice::Portable),
    ] {
        let names = [
            (format!("io.backend_ns_per_dgram.{arm}"), "ns"),
            (format!("io.backend_dgrams_per_syscall.{arm}"), "ratio"),
            (format!("io.backend_send_drops.{arm}"), "count"),
            (format!("io.backend_fallbacks.{arm}"), "count"),
        ];
        rungs.extend(repeat(opts, names, || {
            let bound = SocketRegistry::bind_with(&[loopback], choice)
                .and_then(|tx| Ok((tx, SocketRegistry::bind_with(&[loopback], choice)?)));
            let Ok((mut tx, mut rx)) = bound else {
                return [0.0; 4];
            };
            let (from, to) = (tx.local_addrs()[0], rx.local_addrs()[0]);
            let mut batch = RecvBatch::new(64);
            let mut received = 0usize;
            let started = Instant::now();
            while received < opts.packets {
                let _ = tx.send_train(from, to, &payload, Some(SEGMENT));
                // Loopback delivers within the send call; drain it all.
                loop {
                    let got = rx.poll_recv_batch(&mut batch).unwrap_or(0);
                    received += got;
                    if got == 0 {
                        break;
                    }
                }
            }
            let wall_ns = started.elapsed().as_nanos() as f64;
            let syscalls = tx.batch_stats().send_syscalls + rx.batch_stats().recv_syscalls;
            let fallbacks = tx.backend_stats().fallbacks + rx.backend_stats().fallbacks;
            [
                wall_ns / received as f64,
                2.0 * received as f64 / syscalls.max(1) as f64,
                tx.send_drops() as f64,
                fallbacks as f64,
            ]
        }));
    }
    rungs
}

/// `io.rpc_server_poll_ns_per_op`: `RpcServerApp::poll` timed directly
/// on a `QuicTransport`, in memory, 256 ops per connection (the app's
/// poll scans every stream the connection ever carried, so the figure
/// is tied to that count).
fn rpc_server(opts: &LadderOpts, ops: &[Op]) -> Vec<Value> {
    const OPS_PER_CONN: usize = 256;
    let payload = vec![0x33u8; ops.iter().map(|op| op.req_bytes).max().unwrap_or(0)];
    repeat(
        opts,
        [("io.rpc_server_poll_ns_per_op".to_string(), "ns")],
        || {
            let mut pair = Pair::new(opts.seed, false);
            let mut server = QuicTransport::server(pair.server);
            let mut app = RpcServerApp::new();
            let mut poll_ns = 0u64;
            for op in ops.iter().cycle().take(OPS_PER_CONN) {
                let request = &payload[..op.req_bytes];
                let mut call =
                    RpcCall::start(&mut pair.client, request, op.resp_bytes as u32, false);
                let deadline = Instant::now() + Duration::from_secs(5);
                while call.poll(&mut pair.client).is_none() {
                    assert!(Instant::now() < deadline, "in-memory rpc stalled");
                    pair.now += Duration::from_micros(200);
                    Pair::flush(
                        &mut pair.client,
                        &mut server.conn,
                        &mut pair.queue,
                        pair.now,
                        &mut None,
                    );
                    let started = Instant::now();
                    black_box(app.poll(&mut server));
                    poll_ns += started.elapsed().as_nanos() as u64;
                    Pair::flush(
                        &mut server.conn,
                        &mut pair.client,
                        &mut pair.queue,
                        pair.now,
                        &mut None,
                    );
                }
            }
            [poll_ns as f64 / OPS_PER_CONN as f64]
        },
    )
}

/// `core.handshake_us`, `core.second_path_us`, `xfer_p50_ms`,
/// `xfer_p90_ms`: fresh multipath connections, one after another,
/// against a quiet endpoint over loopback. Each: `quic_client` bind →
/// established → second path carries data → 256 KiB response verified
/// → clean close. The connections are the repetitions.
fn fresh_connections(opts: &LadderOpts) -> Result<Vec<Value>, String> {
    let config = |workers| {
        Config::builder()
            .multipath()
            .idle_timeout(None)
            .worker_shards(workers)
            .build()
            .expect("rung config is valid")
    };
    let endpoint = Endpoint::bind(
        &[addr("127.0.0.1:0")],
        config(1),
        opts.seed,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .map_err(|e| format!("endpoint bind: {e}"))?;
    let server = endpoint.local_addrs()[0];
    let locals = [addr("127.0.0.1:0"); 2];
    let (mut handshake_us, mut second_path_us, mut xfer_ms) = (Vec::new(), Vec::new(), Vec::new());
    for n in 0..opts.connections as u64 {
        let started = Instant::now();
        let deadline = started + Duration::from_secs(5);
        let mut driver = quic_client(config(1), &locals, server, opts.seed ^ (0xf5e5 + n))
            .map_err(|e| format!("client bind: {e}"))?;
        let mut call = RpcCall::start(driver.connection_mut(), &[0u8; 64], 256 << 10, true);
        let (mut established, mut second_path) = (None, None);
        loop {
            driver.step().map_err(|e| format!("driver step: {e}"))?;
            let conn = driver.connection_mut();
            if established.is_none() && conn.is_established() {
                established = Some(Instant::now());
            }
            if second_path.is_none() {
                let carried = conn
                    .path_ids()
                    .into_iter()
                    .skip(1)
                    .filter_map(|id| conn.path(id))
                    .any(|path| path.bytes_received > 0);
                if carried {
                    second_path = Some(Instant::now());
                }
            }
            if let Some(verdict) = call.poll(conn) {
                if !(verdict.ok && verdict.intact) {
                    return Err("fresh-connection transfer failed verification".to_string());
                }
                break;
            }
            if Instant::now() >= deadline {
                return Err("fresh-connection transfer timed out".to_string());
            }
        }
        let done = Instant::now();
        let established = established.unwrap_or(done);
        handshake_us.push((established - started).as_secs_f64() * 1e6);
        // A transfer the second path never joined counts its whole
        // length: the path did not carry data before the end.
        let second_path = second_path.unwrap_or(done).max(established);
        second_path_us.push((second_path - established).as_secs_f64() * 1e6);
        xfer_ms.push((done - started).as_secs_f64() * 1e3);
        driver.connection_mut().close(0, "perf done");
        let _ = driver.run_until(Duration::from_millis(250), |t| t.conn.is_closed());
    }
    endpoint.shutdown();
    let p90 = {
        let mut sorted = xfer_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[(sorted.len() * 9 / 10).min(sorted.len() - 1)]
    };
    Ok(vec![
        value("core.handshake_us", "us", &handshake_us),
        value("core.second_path_us", "us", &second_path_us),
        value("xfer_p50_ms", "ms", &xfer_ms),
        value("xfer_p90_ms", "ms", &[p90]),
    ])
}

/// Runs every rung. `rpc_ops` is the op mix the rpc rung replays.
pub fn run(opts: &LadderOpts, rpc_ops: &[Op]) -> Result<Vec<Value>, String> {
    let mut rungs = Vec::new();
    for size in SIZES {
        rungs.extend(codec(opts, size));
        rungs.extend(aead(opts, size));
        rungs.extend(conn(opts, size));
    }
    rungs.extend(backend(opts));
    rungs.extend(rpc_server(opts, rpc_ops));
    rungs.extend(fresh_connections(opts)?);
    Ok(rungs)
}
