//! Micro-benches of the hot paths: wire codecs, packet protection, ACK
//! range bookkeeping, scheduling decisions, link model and a complete
//! small transfer per protocol.

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mpquic_crypto::{nonce_for, Aead, NonceMode};
use mpquic_harness::{run_file_transfer, Overrides, Protocol};
use mpquic_netsim::{Link, LinkParams, PathSpec};
use mpquic_util::{DetRng, RangeSet, SimTime};
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

criterion_group!(
    micro,
    bench_wire_codec,
    bench_tcp_segment_codec,
    bench_packet_protection,
    bench_range_set,
    bench_link_model,
    bench_full_transfers
);
criterion_main!(micro);
