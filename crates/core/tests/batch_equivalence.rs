//! Property test: the batched egress path is observationally identical
//! to the one-shot path.
//!
//! [`Connection::poll_transmit_batch`] exists purely as a faster way to
//! drain the same packetizer — pool-backed buffers and GSO-shaped
//! coalescing must never change *what* goes on the wire, only how it is
//! handed to the sockets. This test runs mirrored client/server pairs
//! (same seeds, same configuration, same application schedule) through a
//! deterministic lossless in-memory network, draining one run with a
//! `poll_transmit` loop and its twin with `poll_transmit_batch` +
//! [`TransmitQueue`], and asserts the flattened datagram sequences are
//! byte-for-byte equal.
//!
//! Cases are generated with the repo's deterministic RNG
//! ([`mpquic_util::DetRng`]) so any failure reproduces exactly from the
//! printed case, in the same style as `scheduler_properties.rs`.

use bytes::Bytes;
use mpquic_core::{Config, Connection, TransmitQueue};
use mpquic_util::{DetRng, SimTime};
use std::net::SocketAddr;
use std::time::Duration;

const CASES: u64 = 24;
/// Queue sized small on purpose: forces the batch drain to wrap around
/// `has_capacity` several times per pump, exercising the refill path.
const QUEUE_SEGMENTS: usize = 16;
const QUEUE_BUF_CAPACITY: usize = 2048;

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

/// One flattened wire datagram: addressing plus payload bytes.
type Datagram = (SocketAddr, SocketAddr, Vec<u8>);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Drain {
    OneShot,
    Batched,
}

/// Drains everything the connection wants to send right now into
/// per-datagram tuples. For the batched mode, GSO trains are flattened
/// back into individual datagrams via [`mpquic_core::Transmit::segments`]
/// so the two modes are compared on wire contents, not on framing of the
/// hand-off.
fn drain(
    conn: &mut Connection,
    now: SimTime,
    mode: Drain,
    queue: &mut TransmitQueue,
) -> Vec<Datagram> {
    let mut out = Vec::new();
    match mode {
        Drain::OneShot => {
            while let Some(t) = conn.poll_transmit(now) {
                out.push((t.local, t.remote, t.payload));
            }
        }
        Drain::Batched => loop {
            let produced = conn.poll_transmit_batch(now, queue);
            while let Some(t) = queue.pop() {
                for seg in t.segments() {
                    out.push((t.local, t.remote, seg.to_vec()));
                }
                queue.recycle(t.payload);
            }
            if produced == 0 {
                break;
            }
        },
    }
    out
}

/// Runs one complete transfer scenario and returns the full ordered
/// wire trace (client and server datagrams interleaved per pump round).
fn run_scenario(
    seed: u64,
    multipath: bool,
    size: usize,
    chunk: usize,
    mode: Drain,
) -> Vec<Datagram> {
    let config = if multipath {
        Config::builder().multipath()
    } else {
        Config::builder().single_path()
    }
    .build()
    .expect("preset configurations are valid");

    let client_addrs = if multipath {
        vec![addr("10.0.0.1:50000"), addr("10.1.0.1:50001")]
    } else {
        vec![addr("10.0.0.1:50000")]
    };
    let server_addrs = if multipath {
        vec![addr("10.0.1.1:4433"), addr("10.1.1.1:4433")]
    } else {
        vec![addr("10.0.1.1:4433")]
    };

    let mut client =
        Connection::client(config.clone(), client_addrs, 0, addr("10.0.1.1:4433"), seed);
    let mut server = Connection::server(config, server_addrs, seed ^ 0x9e37_79b9);
    let mut queue = TransmitQueue::new(QUEUE_SEGMENTS, QUEUE_BUF_CAPACITY);

    let stream = client.open_stream();
    let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
    let mut written = 0;
    let mut trace = Vec::new();
    let mut now = SimTime::ZERO;
    let delay = Duration::from_millis(5);

    for _round in 0..10_000 {
        // Application schedule: feed the stream in fixed chunks as soon
        // as the handshake completes (identical in both modes).
        if client.is_established() && written < size {
            let end = (written + chunk).min(size);
            let _ = client.stream_write(stream, Bytes::copy_from_slice(&payload[written..end]));
            written = end;
            if written == size {
                client.stream_finish(stream);
            }
        }

        let from_client = drain(&mut client, now, mode, &mut queue);
        let from_server = drain(&mut server, now, mode, &mut queue);
        let quiet = from_client.is_empty() && from_server.is_empty();
        trace.extend(from_client.iter().cloned());
        trace.extend(from_server.iter().cloned());

        if quiet {
            if written == size && client.stream_fully_acked(stream) {
                break;
            }
            // Nothing in flight: jump to the earliest protocol deadline.
            let next = [client.next_timeout(), server.next_timeout()]
                .into_iter()
                .flatten()
                .min();
            let Some(next) = next else { break };
            now = now.max(next);
            if client.next_timeout().is_some_and(|t| t <= now) {
                client.on_timeout(now);
            }
            if server.next_timeout().is_some_and(|t| t <= now) {
                server.on_timeout(now);
            }
            continue;
        }

        // Lossless in-order delivery after a fixed one-way delay.
        now += delay;
        for (local, remote, bytes) in &from_client {
            server.handle_datagram(now, *remote, *local, bytes);
        }
        for (local, remote, bytes) in &from_server {
            client.handle_datagram(now, *remote, *local, bytes);
        }
    }

    assert!(
        written == size && client.stream_fully_acked(stream),
        "scenario did not complete: seed {seed}, multipath {multipath}, \
         size {size}, chunk {chunk}, written {written}"
    );
    trace
}

#[test]
fn batched_egress_equals_one_shot_egress() {
    let mut rng = DetRng::new(0xba7c4);
    for case in 0..CASES {
        let multipath = rng.bool(0.5);
        let size = rng.range_u64(1, 64 * 1024) as usize;
        let chunk = rng.range_u64(256, 8 * 1024) as usize;
        let seed = rng.next_u64();

        let one_shot = run_scenario(seed, multipath, size, chunk, Drain::OneShot);
        let batched = run_scenario(seed, multipath, size, chunk, Drain::Batched);

        assert_eq!(
            one_shot.len(),
            batched.len(),
            "case {case}: datagram counts diverge (seed {seed}, multipath \
             {multipath}, size {size}, chunk {chunk})"
        );
        for (i, (a, b)) in one_shot.iter().zip(batched.iter()).enumerate() {
            assert_eq!(
                a, b,
                "case {case}: datagram {i} diverges (seed {seed}, multipath \
                 {multipath}, size {size}, chunk {chunk})"
            );
        }
    }
}

/// The GSO invariant the io layer depends on: within one coalesced
/// train every segment except the last has exactly `segment_size`
/// bytes, and none exceeds it.
#[test]
fn coalesced_trains_have_uniform_segments() {
    let config = Config::builder()
        .multipath()
        .build()
        .expect("preset configurations are valid");
    let mut client = Connection::client(
        config.clone(),
        vec![addr("10.0.0.1:50000"), addr("10.1.0.1:50001")],
        0,
        addr("10.0.1.1:4433"),
        7,
    );
    let mut server = Connection::server(
        config,
        vec![addr("10.0.1.1:4433"), addr("10.1.1.1:4433")],
        8,
    );
    let mut queue = TransmitQueue::new(64, 2048);

    let stream = client.open_stream();
    let mut now = SimTime::ZERO;
    let mut wrote = false;
    let mut checked_trains = 0;
    for _ in 0..2_000 {
        if client.is_established() && !wrote {
            let bulk = vec![0xa5u8; 48 * 1024];
            let _ = client.stream_write(stream, Bytes::from(bulk));
            client.stream_finish(stream);
            wrote = true;
        }
        let mut round = Vec::new();
        for conn in [&mut client, &mut server] {
            loop {
                let produced = conn.poll_transmit_batch(now, &mut queue);
                while let Some(t) = queue.pop() {
                    if let Some(seg) = t.segment_size {
                        let lens: Vec<usize> = t.segments().map(<[u8]>::len).collect();
                        for len in &lens[..lens.len().saturating_sub(1)] {
                            assert_eq!(*len, seg, "non-final segment not full-sized");
                        }
                        assert!(lens.last().is_some_and(|l| *l <= seg && *l > 0));
                        checked_trains += 1;
                    }
                    round.push((t.local, t.remote, t.payload.clone(), t.segment_size));
                    queue.recycle(t.payload);
                }
                if produced == 0 {
                    break;
                }
            }
        }
        if round.is_empty() {
            if wrote && client.stream_fully_acked(stream) {
                break;
            }
            let next = [client.next_timeout(), server.next_timeout()]
                .into_iter()
                .flatten()
                .min();
            let Some(next) = next else { break };
            now = now.max(next);
            if client.next_timeout().is_some_and(|t| t <= now) {
                client.on_timeout(now);
            }
            if server.next_timeout().is_some_and(|t| t <= now) {
                server.on_timeout(now);
            }
            continue;
        }
        now += Duration::from_millis(5);
        for (local, remote, bytes, seg) in &round {
            // Trains are delivered segment by segment, exactly as the
            // socket layer fans them out. Server sockets sit on :4433.
            let to_server = local.port() != 4433;
            for segment in chunks_of(bytes, *seg) {
                if to_server {
                    server.handle_datagram(now, *remote, *local, segment);
                } else {
                    client.handle_datagram(now, *remote, *local, segment);
                }
            }
        }
    }
    assert!(
        checked_trains > 0,
        "bulk multipath transfer never produced a coalesced train"
    );
}

/// Splits a train payload for delivery; with `None` the payload is one
/// datagram (trains were already flattened before this point).
fn chunks_of(bytes: &[u8], seg: Option<usize>) -> Vec<&[u8]> {
    match seg {
        Some(s) if s > 0 => bytes.chunks(s).collect(),
        _ => vec![bytes],
    }
}
