//! Steady-state zero-allocation checks for the batched datapath — both
//! directions.
//!
//! DESIGN.md §11 claims that after warm-up the send/receive cycle
//! performs no heap allocation: sendmmsg scratch arrays, the receive
//! batch buffers and the address-decoding scratch all reach their
//! high-water capacity and are reused. The first test installs the
//! counting global allocator from `mpquic_util::alloc_count`, runs a
//! registry-to-registry loopback exchange, resets the counters once the
//! path is warm, and asserts the remaining rounds allocate nothing.
//!
//! The second test covers the **ingress/ACK side**: loss recovery's ACK
//! processing (`Recovery::on_ack`) collects packet numbers and acked
//! frames into buffers reused across ACKs (returned via
//! `Recovery::reclaim`), so acknowledging a full flight allocates
//! nothing at steady state either.

use bytes::Bytes;
use mpquic_core::recovery::{Recovery, SentPacket};
use mpquic_core::rtt::RttEstimator;
use mpquic_io::{RecvBatch, SocketRegistry};
use mpquic_util::alloc_count::{self, CountingAlloc};
use mpquic_util::SimTime;
use mpquic_wire::{Frame, StreamFrame};
use std::net::SocketAddr;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP_ROUNDS: usize = 10;
const MEASURED_ROUNDS: usize = 40;
const SEGMENT: usize = 1200;
const SEGMENTS_PER_TRAIN: usize = 8;

fn loopback0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// One round: A fans an 8-segment train out to B, then B drains its
/// socket with batched receives until the train has fully arrived.
fn round(
    a: &mut SocketRegistry,
    a_local: SocketAddr,
    b: &mut SocketRegistry,
    b_local: SocketAddr,
    payload: &[u8],
    batch: &mut RecvBatch,
) -> usize {
    let sent = a
        .send_train(a_local, b_local, payload, Some(SEGMENT))
        .expect("loopback send");
    let mut received = 0;
    let mut spins = 0;
    while received < sent {
        let got = b.poll_recv_batch(batch).expect("loopback recv");
        received += got;
        if got == 0 {
            spins += 1;
            assert!(spins < 10_000, "train never arrived on loopback");
            std::thread::yield_now();
        }
    }
    received
}

#[test]
fn steady_state_datapath_does_not_allocate() {
    let mut a = SocketRegistry::bind(&[loopback0()]).expect("bind a");
    let mut b = SocketRegistry::bind(&[loopback0()]).expect("bind b");
    let a_local = a.local_addrs()[0];
    let b_local = b.local_addrs()[0];

    let payload = vec![0x5au8; SEGMENT * SEGMENTS_PER_TRAIN];
    let mut batch = RecvBatch::new(64);

    for _ in 0..WARMUP_ROUNDS {
        round(&mut a, a_local, &mut b, b_local, &payload, &mut batch);
    }

    alloc_count::reset_thread_counts();
    let mut datagrams = 0;
    for _ in 0..MEASURED_ROUNDS {
        datagrams += round(&mut a, a_local, &mut b, b_local, &payload, &mut batch);
    }
    let counts = alloc_count::thread_counts();

    assert_eq!(datagrams, MEASURED_ROUNDS * SEGMENTS_PER_TRAIN);
    assert_eq!(
        counts.allocs, 0,
        "steady-state datapath allocated: {counts:?} over {MEASURED_ROUNDS} \
         rounds ({datagrams} datagrams)"
    );

    // On Linux the rounds above must actually have batched: one sendmmsg
    // per 8-segment train, and multi-datagram receives.
    #[cfg(target_os = "linux")]
    {
        let stats = a.batch_stats();
        assert!(
            stats.syscalls_saved > 0,
            "no syscalls saved on the send side: {stats:?}"
        );
        assert_eq!(stats.send_batch_size.max(), SEGMENTS_PER_TRAIN as u64);
        let recv = b.batch_stats();
        assert!(
            recv.recv_batch_size.max() >= 1,
            "receive side recorded no batches: {recv:?}"
        );
    }
}

const ACK_WARMUP_ROUNDS: usize = 10;
const ACK_MEASURED_ROUNDS: usize = 40;
const PACKETS_PER_FLIGHT: u64 = 8;

/// Steady-state ACK processing allocates nothing: the packet-number
/// scratch and the acked-frames buffer both reach their high-water
/// capacity during warm-up and are reused for every later ACK. Sending
/// (the unmeasured half of each round) still allocates — sent-map nodes
/// and per-packet frame vectors — which is exactly why the measurement
/// brackets only `on_ack` + `reclaim`.
#[test]
fn steady_state_ack_processing_does_not_allocate() {
    let mut recovery = Recovery::new();
    let mut rtt = RttEstimator::new(Duration::from_millis(50));
    let mut now = SimTime::ZERO;
    // One shared payload; per-frame clones are refcount bumps.
    let data = Bytes::from(vec![0x5au8; 1200]);

    for round in 0..(ACK_WARMUP_ROUNDS + ACK_MEASURED_ROUNDS) {
        // Unmeasured: put a flight of stream-bearing packets on the wire.
        let first = recovery.next_pn_peek();
        for _ in 0..PACKETS_PER_FLIGHT {
            let pn = recovery.next_packet_number();
            recovery.on_packet_sent(SentPacket {
                packet_number: pn,
                time_sent: now,
                size: 1250,
                ack_eliciting: true,
                frames: vec![Frame::Stream(StreamFrame {
                    stream_id: 1,
                    offset: pn * 1200,
                    data: data.clone(),
                    fin: false,
                })],
            });
        }
        now += Duration::from_millis(5);

        // Measured: the peer acknowledges the whole flight in one range.
        let last = first + PACKETS_PER_FLIGHT - 1;
        alloc_count::reset_thread_counts();
        let outcome = recovery.on_ack(
            now,
            std::iter::once((first, last)),
            Duration::ZERO,
            &mut rtt,
        );
        recovery.reclaim(outcome);
        let counts = alloc_count::thread_counts();

        assert_eq!(recovery.outstanding_packets(), 0, "flight fully acked");
        assert_eq!(recovery.bytes_in_flight(), 0);
        if round >= ACK_WARMUP_ROUNDS {
            assert_eq!(
                counts.allocs, 0,
                "ACK processing allocated in round {round}: {counts:?}"
            );
        }
    }
}
