//! Property tests for the flight recorder (DESIGN.md §15): wraparound
//! keeps exactly the most recent events in order, and the record path
//! never allocates after construction — measured, not assumed, with
//! the workspace's counting global allocator.

use mpquic_telemetry::endpoint::{EndpointPlane, FlightKind, FlightRecorder};
use mpquic_util::alloc_count::{self, CountingAlloc};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every kind, in a fixed order so event `i` is reconstructible from
/// its index alone.
const KINDS: [FlightKind; 6] = [
    FlightKind::Accept,
    FlightKind::Retire,
    FlightKind::Shed,
    FlightKind::Malformed,
    FlightKind::Teardown,
    FlightKind::SloFail,
];

/// The deterministic i-th event (kind, cid, shard, value).
fn event(i: u64) -> (FlightKind, u64, u32, u64) {
    (KINDS[(i % 6) as usize], i.wrapping_mul(31), i as u32, i)
}

proptest! {
    /// After `count` records into a `capacity` ring, the kept events
    /// are exactly the last `min(count, capacity)`, oldest first.
    #[test]
    fn wraparound_keeps_the_most_recent_events(capacity in 1usize..48, count in 0u64..2000) {
        let recorder = FlightRecorder::new(capacity);
        for i in 0..count {
            let (kind, cid, shard, value) = event(i);
            recorder.record(kind, cid, shard, value);
        }
        prop_assert_eq!(recorder.total_recorded(), count);
        let events = recorder.events();
        let kept = (count as usize).min(capacity);
        prop_assert_eq!(events.len(), kept);
        let first = count - kept as u64;
        for (offset, got) in events.iter().enumerate() {
            let (kind, cid, shard, value) = event(first + offset as u64);
            prop_assert_eq!(got.kind, kind);
            prop_assert_eq!(got.cid, cid);
            prop_assert_eq!(got.shard, shard);
            prop_assert_eq!(got.value, value);
        }
        // Timestamps never run backwards within the kept window.
        for pair in events.windows(2) {
            prop_assert!(pair[0].at_us <= pair[1].at_us);
        }
    }

    /// The dump is self-describing even across wraparound: its header
    /// carries the true totals and one line per kept event follows.
    #[test]
    fn dump_header_matches_ring_state(capacity in 1usize..16, count in 0u64..200) {
        let recorder = FlightRecorder::new(capacity);
        for i in 0..count {
            let (kind, cid, shard, value) = event(i);
            recorder.record(kind, cid, shard, value);
        }
        let dump = recorder.dump_json_lines();
        let kept = (count as usize).min(capacity);
        prop_assert_eq!(dump.lines().count(), 1 + kept);
        let header = dump.lines().next().unwrap_or("");
        prop_assert!(header.contains(&format!("\"capacity\":{capacity}")));
        prop_assert!(header.contains(&format!("\"recorded\":{count}")));
        prop_assert!(header.contains(&format!("\"kept\":{kept}")));
    }
}

/// Recording — through the recorder alone and through a full plane's
/// counters and histograms — performs zero allocations once the plane
/// is built. This is the ISSUE's steady-state budget as a unit test
/// rather than a benchmark.
#[test]
fn record_path_never_allocates_after_construction() {
    let plane = EndpointPlane::with_flight_capacity(4, 64);
    let shard = plane.shard(1);

    alloc_count::reset_thread_counts();
    for i in 0..10_000u64 {
        let (kind, cid, shard_idx, value) = event(i);
        plane.recorder.record(kind, cid, shard_idx, value);
        plane.stats.datagrams_in.add(1);
        plane.stats.active.set(i % 7);
        shard.loop_iterations.add(1);
        shard.loop_ns.record(i * 37);
        plane.backend_sqe_batch.record(i % 65);
    }
    let counts = alloc_count::thread_counts();
    assert_eq!(
        counts.allocs, 0,
        "metrics/flight record path allocated {} time(s)",
        counts.allocs
    );
}
