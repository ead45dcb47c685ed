//! Regression tests for the protocol invariants that `cargo xtask lint`
//! and `mpquic_core::invariant` guard (DESIGN.md §9):
//!
//! * an ACK frame never carries more than `MAX_ACK_RANGES` (256) ranges —
//!   capped at build time, rejected at decode time;
//! * per-path packet numbers are never reused, even across retransmission
//!   and RTO storms — retransmitted *frames* get fresh packet numbers in
//!   the path's space (the paper's design: frames, not packets, are
//!   retransmitted).

use bytes::{Bytes, BytesMut};
use mpquic_core::{Config, Connection};
use mpquic_util::{RangeSet, SimTime};
use mpquic_wire::{AckFrame, DecodeError, Frame, PathId, PublicHeader, MAX_ACK_RANGES};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

#[path = "../../../tests/common/net.rs"]
mod net;
use net::{addr, Net, C0, C1, S0, S1};

/// The path a datagram between `C0` and `S1` or `C1` and `S0` crosses.
const CROSS: usize = 1;

// ---------------------------------------------------------------------
// ACK range cap
// ---------------------------------------------------------------------

#[test]
fn ack_builder_truncates_to_max_ranges() {
    let mut set = RangeSet::default();
    for i in 0..400u64 {
        set.insert(i * 2); // 400 disjoint singletons
    }
    let ack = AckFrame::from_range_set(PathId(1), &set, 0).unwrap();
    assert_eq!(ack.ranges.len(), MAX_ACK_RANGES);
    // The newest (largest) packet numbers are the ones kept: dropping old
    // ranges only delays acks, dropping new ones would stall the sender.
    assert_eq!(ack.largest_acked, 399 * 2);
    let mut buf = BytesMut::new();
    Frame::Ack(ack).encode(&mut buf);
    // What the capped builder produces must decode back cleanly.
    assert!(Frame::decode_all(&buf).is_ok());
}

#[test]
fn oversized_ack_rejected_on_decode() {
    // Bypass the builder and construct a structurally valid ACK frame
    // with 300 ranges, as a buggy or hostile peer might.
    let ranges: Vec<(u64, u64)> = (0..300u64).rev().map(|i| (i * 3, i * 3 + 1)).collect();
    let ack = AckFrame {
        path_id: PathId(1),
        largest_acked: ranges[0].1,
        ack_delay_micros: 0,
        ranges,
    };
    let mut buf = BytesMut::new();
    Frame::Ack(ack).encode(&mut buf);
    let mut read = &buf[..];
    assert_eq!(
        Frame::decode(&mut read),
        Err(DecodeError::LimitExceeded("ack range count"))
    );
}

#[test]
fn max_size_ack_is_accepted_on_decode() {
    // Boundary: exactly MAX_ACK_RANGES must still decode.
    let mut set = RangeSet::default();
    for i in 0..MAX_ACK_RANGES as u64 {
        set.insert(i * 2);
    }
    let ack = AckFrame::from_range_set(PathId(2), &set, 5).unwrap();
    assert_eq!(ack.ranges.len(), MAX_ACK_RANGES);
    let frame = Frame::Ack(ack);
    let mut buf = BytesMut::new();
    frame.encode(&mut buf);
    let mut read = &buf[..];
    assert_eq!(Frame::decode(&mut read), Ok(frame));
}

// ---------------------------------------------------------------------
// Packet numbers never repeat
// ---------------------------------------------------------------------

type Seen = Rc<RefCell<HashSet<(u8, u32, u64)>>>;

/// The two-path test network with a tap that decodes the public header
/// of **every datagram ever produced** — including ones it then drops —
/// and fails the test the moment a (direction, path, packet number)
/// triple repeats. It drops every datagram whose sequence number is 3
/// modulo `drop_every` (0 = lossless).
fn multipath_audit_pair(drop_every: u64) -> (Net<Connection>, Seen) {
    let client = Connection::client(
        Config::multipath(),
        vec![addr(C0), addr(C1)],
        0,
        addr(S0),
        1,
    );
    let server = Connection::server(Config::multipath(), vec![addr(S0), addr(S1)], 2);
    let mut net = Net::new(client, server, CROSS);
    let seen = Seen::default();
    let audit = seen.clone();
    net.tap(move |dir, seq, now, t| {
        let mut read = &t.payload[..];
        let header = PublicHeader::decode(&mut read).expect("own datagrams must parse");
        assert!(
            audit
                .borrow_mut()
                .insert((dir as u8, header.path_id.0, header.packet_number)),
            "packet number {} reused on {} (direction {dir}) at {:?}",
            header.packet_number,
            header.path_id,
            now,
        );
        drop_every == 0 || seq % drop_every != 3 // deterministic loss
    });
    (net, seen)
}

fn transfer(net: &mut Net<Connection>, size: usize) {
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![0x5A; size]))
        .unwrap();
    net.client().stream_finish(stream);
    assert!(
        net.run_until(
            |n| {
                while n.server.stream_read(stream, usize::MAX).is_some() {}
                n.server.stream_is_finished(stream)
            },
            SimTime::from_secs(60),
        ),
        "transfer did not complete"
    );
}

#[test]
fn packet_numbers_unique_across_lossy_transfer() {
    // ~1 in 7 datagrams dropped: plenty of retransmission. Every
    // retransmitted frame must ride a fresh packet number.
    let (mut net, seen) = multipath_audit_pair(7);
    transfer(&mut net, 200_000);
    assert!(
        seen.borrow().len() > 100,
        "expected a substantial packet trace"
    );
}

#[test]
fn packet_numbers_unique_across_rto_handover() {
    // Let the transfer spread over both paths, then kill path 1 so its
    // in-flight data RTOs and is retransmitted on path 0 — the paper's
    // Fig. 11 handover scenario. No packet number may be reused in the
    // process, on either path's space.
    let (mut net, seen) = multipath_audit_pair(0);
    let stream = net.client().open_stream();
    net.client()
        .stream_write(stream, Bytes::from(vec![0x77; 300_000]))
        .unwrap();
    net.client().stream_finish(stream);
    // Run until both paths have carried traffic.
    assert!(net.run_until(
        |_| seen.borrow().iter().any(|&(_, path, _)| path != 0),
        SimTime::from_secs(30),
    ));
    net.kill_path(1);
    assert!(
        net.run_until(
            |n| {
                while n.server.stream_read(stream, usize::MAX).is_some() {}
                n.server.stream_is_finished(stream)
            },
            SimTime::from_secs(120),
        ),
        "transfer did not survive the path-1 failure"
    );
    let paths_used: HashSet<u32> = seen.borrow().iter().map(|&(_, p, _)| p).collect();
    assert!(paths_used.len() >= 2, "both path spaces should appear");
}
