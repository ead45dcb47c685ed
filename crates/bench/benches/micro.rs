//! Micro-benches of the hot paths: wire codecs, packet protection, ACK
//! range bookkeeping, scheduling decisions, link model, a complete
//! small transfer per protocol, and the application rung — the payload
//! checksum and a whole 8 MiB `mpq-rpc` exchange each way over an
//! in-memory wire.

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mpquic_core::{Config, Connection};
use mpquic_crypto::{nonce_for, Aead, NonceMode};
use mpquic_harness::{run_file_transfer, Overrides, Protocol, QuicTransport, Transport};
use mpquic_io::rpc::{response_pattern, RpcCall, RpcServerApp};
use mpquic_io::ConnApp;
use mpquic_netsim::{Link, LinkParams, PathSpec};
use mpquic_util::{Checksum64, DetRng, RangeSet, SimTime};
use mpquic_wire::{AckFrame, Frame, PathId, StreamFrame};
use std::hint::black_box;
use std::time::Duration;

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let stream_frame = Frame::Stream(StreamFrame {
        stream_id: 1,
        offset: 1 << 30,
        data: Bytes::from(vec![0xAB; 1200]),
        fin: false,
    });
    group.throughput(Throughput::Bytes(1200));
    group.bench_function("stream_frame_encode", |b| {
        b.iter(|| {
            let mut buf = BytesMut::with_capacity(1400);
            black_box(&stream_frame).encode(&mut buf);
            black_box(buf.len())
        })
    });
    let mut encoded = BytesMut::new();
    stream_frame.encode(&mut encoded);
    let encoded = encoded.freeze();
    group.bench_function("stream_frame_decode", |b| {
        b.iter(|| {
            let mut read = &encoded[..];
            black_box(Frame::decode(&mut read).unwrap())
        })
    });
    // A worst-case ACK frame: 256 ranges.
    let mut set = RangeSet::new();
    for i in 0..256u64 {
        set.insert_range(i * 10, i * 10 + 3);
    }
    let ack = Frame::Ack(AckFrame::from_range_set(PathId(1), &set, 100).unwrap());
    group.bench_function("ack_frame_256_ranges_encode", |b| {
        b.iter(|| {
            let mut buf = BytesMut::with_capacity(4096);
            black_box(&ack).encode(&mut buf);
            black_box(buf.len())
        })
    });
    group.finish();
}

fn bench_tcp_segment_codec(c: &mut Criterion) {
    use mpquic_tcp::segment::{flags, DssOption, Segment};
    let mut seg = Segment::new(1 << 30, 1 << 20, flags::ACK);
    seg.window = 16 << 20;
    seg.payload = Bytes::from(vec![0x55; 1330]);
    seg.mptcp.dss = Some(DssOption {
        dsn: 1 << 31,
        data_ack: 1 << 29,
        data_fin: false,
    });
    seg.sack = vec![(100, 2000), (5000, 7000), (9000, 9500)];
    let mut group = c.benchmark_group("tcp_segment_codec");
    group.throughput(Throughput::Bytes(1330));
    group.bench_function("segment_encode", |b| {
        b.iter(|| black_box(black_box(&seg).encode().len()))
    });
    let encoded = seg.encode();
    group.bench_function("segment_decode", |b| {
        b.iter(|| black_box(Segment::decode(black_box(&encoded)).unwrap()))
    });
    group.finish();
}

fn bench_packet_protection(c: &mut Criterion) {
    let aead = Aead::new([7u8; 32]);
    let header = [0x41u8; 12];
    let nonce = nonce_for(NonceMode::PathIdMixed, 3, 123_456);
    let mut group = c.benchmark_group("packet_protection");
    // The in-place core the connection calls, at the two sizes the
    // `crypto.aead_ns_per_pkt` ladder rung reports.
    for size in [64usize, 1200] {
        group.throughput(Throughput::Bytes(size as u64));
        let mut buf = vec![0xEE; size];
        group.bench_function(format!("seal_in_place_{size}B"), |b| {
            b.iter(|| black_box(aead.seal_in_place(&nonce, &header, black_box(&mut buf))))
        });
        let sealed = aead.seal(&nonce, &header, &vec![0xEE; size]);
        let mut buf = sealed.clone();
        group.bench_function(format!("open_in_place_{size}B"), |b| {
            b.iter(|| {
                // Opening decrypts the buffer, so each round restores it.
                buf.copy_from_slice(&sealed);
                black_box(
                    aead.open_in_place(&nonce, &header, black_box(&mut buf))
                        .is_ok(),
                )
            })
        });
    }
    group.finish();
}

fn bench_range_set(c: &mut Criterion) {
    c.bench_function("range_set/insert_10k_with_gaps", |b| {
        b.iter(|| {
            let mut set = RangeSet::new();
            for i in 0..10_000u64 {
                // ~1% gaps, like a lossy receive sequence.
                if i % 97 != 0 {
                    set.insert(black_box(i));
                }
            }
            black_box(set.range_count())
        })
    });
}

fn bench_link_model(c: &mut Criterion) {
    c.bench_function("link/offer_100k_packets", |b| {
        b.iter(|| {
            let mut link = Link::new(LinkParams::from_paper_units(100.0, 10.0, 50.0, 1.0));
            let mut rng = DetRng::new(5);
            let mut delivered = 0u64;
            for i in 0..100_000u64 {
                let t = SimTime::from_micros(i * 110);
                if link.offer(t, 1378, &mut rng).is_ok() {
                    delivered += 1;
                }
            }
            black_box(delivered)
        })
    });
}

fn bench_full_transfers(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_transfer_256kb");
    group.sample_size(10);
    let duo = [
        PathSpec::new(10.0, 30, 50, 0.0),
        PathSpec::new(5.0, 60, 50, 0.0),
    ];
    for protocol in Protocol::ALL {
        group.bench_function(protocol.name(), |b| {
            let specs: &[PathSpec] = if protocol.is_multipath() {
                &duo
            } else {
                &duo[..1]
            };
            b.iter(|| {
                let outcome = run_file_transfer(
                    black_box(specs),
                    protocol,
                    256 << 10,
                    9,
                    Duration::from_secs(30),
                    &Overrides::default(),
                );
                black_box(outcome.duration_secs)
            })
        });
    }
    group.finish();
}

/// The bulk payload size of the `bulk-*` benchmark workloads.
const BULK: usize = 8 << 20;

fn bench_checksum(c: &mut Criterion) {
    let payload = response_pattern(BULK, 7);
    let mut group = c.benchmark_group("checksum64");
    group.throughput(Throughput::Bytes(BULK as u64));
    group.bench_function("8MiB", |b| {
        b.iter(|| black_box(Checksum64::of(black_box(&payload))))
    });
    group.finish();
}

/// A client connection and an [`RpcServerApp`] joined by a zero-delay
/// in-memory wire, past their handshake.
struct RpcPair {
    client: Connection,
    server: QuicTransport,
    app: RpcServerApp,
    now: SimTime,
}

impl RpcPair {
    fn new() -> RpcPair {
        let config = Config::default();
        let client_addr = "10.0.0.1:1111".parse().unwrap();
        let server_addr = "10.0.0.2:4433".parse().unwrap();
        let mut pair = RpcPair {
            client: Connection::client(config.clone(), vec![client_addr], 0, server_addr, 7),
            server: QuicTransport::server(Connection::server(config, vec![server_addr], 8)),
            app: RpcServerApp::new(),
            now: SimTime::ZERO,
        };
        while !pair.client.is_established() {
            pair.tick();
        }
        pair
    }

    /// Shuttles datagrams both ways and polls the server app between.
    fn tick(&mut self) {
        self.now += Duration::from_millis(5);
        while let Some(t) = self.client.poll_transmit(self.now) {
            self.server
                .handle_datagram(self.now, t.remote, t.local, &t.payload);
        }
        self.app.poll(&mut self.server);
        while let Some(t) = self.server.conn.poll_transmit(self.now) {
            self.client
                .handle_datagram(self.now, t.remote, t.local, &t.payload);
        }
        while self.client.poll_event().is_some() {}
    }

    /// One whole exchange, verified.
    fn call(&mut self, request: &[u8], resp_len: u32) {
        let mut call = RpcCall::start(&mut self.client, request, resp_len, false);
        loop {
            self.tick();
            if let Some(verdict) = call.poll(&mut self.client) {
                assert!(verdict.ok && verdict.intact, "{verdict:?}");
                return;
            }
        }
    }
}

/// The application rung: one 8 MiB exchange each way through
/// `RpcCall` and `RpcServerApp`, transport included. A fresh pair per
/// exchange, so the figure does not drift with the connection's age.
fn bench_rpc_server(c: &mut Criterion) {
    let upload = response_pattern(BULK, 7);
    let mut group = c.benchmark_group("rpc_server");
    group.throughput(Throughput::Bytes(BULK as u64));
    group.sample_size(10);
    group.bench_function("8MiB-up", |b| {
        b.iter_batched(
            RpcPair::new,
            |mut pair| pair.call(black_box(&upload), 64),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("8MiB-down", |b| {
        b.iter_batched(
            RpcPair::new,
            |mut pair| pair.call(black_box(&[0u8; 64]), BULK as u32),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_wire_codec,
    bench_tcp_segment_codec,
    bench_packet_protection,
    bench_range_set,
    bench_link_model,
    bench_full_transfers,
    bench_checksum,
    bench_rpc_server
);
criterion_main!(micro);
