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
//! A queue groups a batch by path: a datagram joins the newest train of
//! its `(local, remote)` pair even when another path's train opened
//! after it. Each path numbers, acknowledges and recovers its own
//! packets, so only the order *within* a pair can reach a peer. The
//! multipath cases on a [`DEFAULT_BATCH`] queue, where the duplication
//! of a fresh path interleaves the two paths datagram by datagram,
//! therefore compare a canonical order: each connection's datagrams of
//! a round sorted stably by `(local, remote)`, in both modes, and
//! delivered in that order. Equal canonical traces mean the same bytes
//! in the same order on every pair. The small-queue cases compare the
//! raw sequence.
//!
//! Cases are generated with the repo's deterministic RNG
//! ([`mpquic_util::DetRng`]) so any failure reproduces exactly from the
//! printed case, in the same style as `scheduler_properties.rs`.

use bytes::Bytes;
use mpquic_core::buffer::DEFAULT_BATCH;
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

/// How a scenario batches and orders its datagrams.
#[derive(Clone, Copy)]
struct Shape {
    /// Segments the batched mode's queue holds.
    queue_segments: usize,
    /// Sort each drained round stably by `(local, remote)`.
    canonical: bool,
}

/// The small queue, compared in raw order.
const RAW: Shape = Shape {
    queue_segments: QUEUE_SEGMENTS,
    canonical: false,
};

/// The queue a real endpoint fills, compared path by path.
const BY_PATH: Shape = Shape {
    queue_segments: DEFAULT_BATCH,
    canonical: true,
};

/// A scenario's wire trace, and how many drained rounds the canonical
/// sort reordered (0 when the paths never interleaved or the order was
/// left raw).
struct Trace {
    datagrams: Vec<Datagram>,
    reordered: usize,
}

/// Drains everything the connection wants to send right now into
/// per-datagram tuples. For the batched mode, GSO trains are flattened
/// back into individual datagrams via [`mpquic_core::Transmit::segments`]
/// so the two modes are compared on wire contents, not on framing of the
/// hand-off. A canonical drain sorts them stably by `(local, remote)` and
/// counts the drain in `reordered` when that moved one.
fn drain(
    conn: &mut Connection,
    now: SimTime,
    mode: Drain,
    queue: &mut TransmitQueue,
    canonical: bool,
    reordered: &mut usize,
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
    if canonical && !out.is_sorted_by_key(|(local, remote, _)| (*local, *remote)) {
        out.sort_by_key(|(local, remote, _)| (*local, *remote));
        *reordered += 1;
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
    shape: Shape,
) -> Trace {
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
    let mut queue = TransmitQueue::new(shape.queue_segments, QUEUE_BUF_CAPACITY);
    let mut reordered = 0;

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

        let (canonical, seen) = (shape.canonical, &mut reordered);
        let from_client = drain(&mut client, now, mode, &mut queue, canonical, seen);
        let from_server = drain(&mut server, now, mode, &mut queue, canonical, seen);
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
    Trace {
        datagrams: trace,
        reordered,
    }
}

#[test]
fn batched_egress_equals_one_shot_egress() {
    let mut rng = DetRng::new(0xba7c4);
    for case in 0..CASES {
        let multipath = rng.bool(0.5);
        let size = rng.range_u64(1, 64 * 1024) as usize;
        let chunk = rng.range_u64(256, 8 * 1024) as usize;
        let seed = rng.next_u64();

        let one_shot = run_scenario(seed, multipath, size, chunk, Drain::OneShot, RAW).datagrams;
        let batched = run_scenario(seed, multipath, size, chunk, Drain::Batched, RAW).datagrams;

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

/// Multipath transfers through the queue an endpoint fills: a fresh
/// path's duplication alternates the paths datagram by datagram, so a
/// train of one path is joined after the other path's train opened.
/// Path by path, the batched trace equals the one-shot trace.
#[test]
fn batched_egress_equals_one_shot_egress_path_by_path() {
    let mut rng = DetRng::new(0x9a7b5);
    let mut interleaved = 0;
    for case in 0..CASES {
        let size = rng.range_u64(16 * 1024, 256 * 1024) as usize;
        let chunk = rng.range_u64(256, 64 * 1024) as usize;
        let seed = rng.next_u64();

        let one_shot = run_scenario(seed, true, size, chunk, Drain::OneShot, BY_PATH);
        let batched = run_scenario(seed, true, size, chunk, Drain::Batched, BY_PATH);
        interleaved += one_shot.reordered;

        let (one_shot, batched) = (one_shot.datagrams, batched.datagrams);
        assert_eq!(
            one_shot.len(),
            batched.len(),
            "case {case}: datagram counts diverge (seed {seed}, size {size}, chunk {chunk})"
        );
        for (i, (a, b)) in one_shot.iter().zip(batched.iter()).enumerate() {
            assert_eq!(
                a, b,
                "case {case}: datagram {i} diverges (seed {seed}, size {size}, chunk {chunk})"
            );
        }
    }
    assert!(interleaved > 0, "no round ever interleaved the two paths");
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

/// A fresh two-path pair, one 64-byte request answered with 256 KiB the
/// moment it arrives: the server's first window goes out while the new
/// path's RTT is unknown, so the scheduler duplicates it packet by
/// packet onto both paths. Into the queue an endpoint fills, that first
/// flight is one batch of two trains, the initial window on each path.
#[test]
fn a_fresh_pairs_first_flight_leaves_in_one_train_per_path() {
    let config = Config::builder()
        .multipath()
        .build()
        .expect("preset configurations are valid");
    let server_addr = addr("10.0.1.1:4433");
    let mut client = Connection::client(
        config.clone(),
        vec![addr("10.0.0.1:50000"), addr("10.1.0.1:50001")],
        0,
        server_addr,
        11,
    );
    let mut server = Connection::server(config.clone(), vec![server_addr], 12);
    let mut queue = TransmitQueue::for_config(&config);
    let stream = client.open_stream();
    let mut now = SimTime::ZERO;
    let mut asked = false;
    for _ in 0..16 {
        if client.is_established() && !asked {
            let _ = client.stream_write(stream, Bytes::from_static(&[7; 64]));
            client.stream_finish(stream);
            asked = true;
        }
        while server.stream_read(stream, usize::MAX).is_some() {}
        let answering = server.stream_is_finished(stream);
        if answering {
            let _ = server.stream_write(stream, Bytes::from(vec![0x5a; 256 * 1024]));
            server.stream_finish(stream);
        }
        let from_client = drain(&mut client, now, Drain::OneShot, &mut queue, false, &mut 0);
        // Each batch as the trains it popped: (path, segments).
        let mut batches = Vec::new();
        let mut from_server = Vec::new();
        while server.poll_transmit_batch(now, &mut queue) > 0 {
            let mut trains = Vec::new();
            while let Some(t) = queue.pop() {
                trains.push((t.remote, t.segment_count()));
                from_server.extend(t.segments().map(|seg| (t.local, t.remote, seg.to_vec())));
                queue.recycle(t.payload);
            }
            batches.push(trains);
        }
        if answering {
            let window = mpquic_cc::INITIAL_WINDOW_SEGMENTS as usize;
            let one_batch_of_two = match batches.as_slice() {
                [trains] => trains.as_slice(),
                _ => &[],
            };
            let [(first, a), (second, b)] = one_batch_of_two else {
                panic!("the first flight left in {batches:?}, not one batch of two trains");
            };
            assert_ne!(first, second, "one train per path");
            assert_eq!(
                (*a, *b),
                (window, window),
                "the initial window on each path"
            );
            return;
        }
        now += Duration::from_millis(5);
        for (local, remote, bytes) in from_client {
            server.handle_datagram(now, remote, local, &bytes);
        }
        for (local, remote, bytes) in from_server {
            client.handle_datagram(now, remote, local, &bytes);
        }
    }
    panic!("the request was never answered");
}
