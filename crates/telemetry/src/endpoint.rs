//! The endpoint metrics plane: sharded lock-free counters, atomic log2
//! histograms, a constant-memory flight recorder, and a dependency-free
//! scrape surface.
//!
//! The endpoint (DESIGN.md §12) runs N identical event loops; wakeups
//! per second, loop time and per-connection accounting are to be
//! *measured*, not guessed. This module is the fixed-memory, always-on
//! plane those measurements live on — the s2n-quic shape: cheap enough
//! that it is never turned off.
//!
//! * [`EndpointStats`] — the endpoint-level counters (accept, retire,
//!   shed, and one counter per reason a datagram is dropped), each a
//!   cache-line-padded Relaxed atomic so every loop can hammer them
//!   without false sharing.
//! * [`ShardPlane`] — per-loop telemetry: iteration counts, idle→busy
//!   wakeups, and an [`AtomicHistogram`] of busy loop-iteration time.
//! * [`EndpointPlane`] — one [`EndpointStats`] plus one padded
//!   [`ShardPlane`] per loop plus the [`FlightRecorder`]; aggregated
//!   on demand into a typed [`PlaneSnapshot`].
//! * [`FlightRecorder`] — a fixed-capacity ring of the last N
//!   endpoint-level events (accept, retire, shed, teardown, …) dumped
//!   as JSON lines when an SLO fails, the endpoint sheds load, or on
//!   demand (`cargo xtask qlog-check` validates the dump format).
//! * [`MetricsServer`] / [`SnapshotWriter`] — the scrape surface:
//!   Prometheus text exposition plus periodic JSON-lines snapshots,
//!   on `std::net::TcpListener` alone.
//!
//! Every exported family is declared once, as one row of the
//! `metric_table!` invocation below: the row names the field, the kind,
//! the `mpq_*` name and the HELP text, and the live cell, the snapshot
//! field, `snapshot()`, `delta()`, the `/metrics` family and the
//! `/snapshot` key are all generated from it. Adding a counter is adding
//! a row; a rename is a one-line diff of the only place the name is
//! spelled.
//!
//! Every atomic here is role `counter` in `crates/xtask/atomics.toml`
//! (all operations Relaxed: the values are commutative tallies, never
//! synchronisation), routed through one receiver name — [`RelaxedCell`]'s
//! `cell` field — so the atomic-ordering lint checks the whole plane
//! against a single registry entry. The hot paths (`add`, `record`,
//! [`FlightRecorder::record`]) allocate nothing after construction;
//! `crates/telemetry/tests/flight_recorder.rs` pins that with the
//! counting global allocator, and `crates/io/tests/zero_alloc.rs` both
//! repeats it on a live send loop and gates that loop's throughput
//! cost at ≤ 3%.

use crate::metrics::LogHistogram;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pads (and aligns) `T` to a cache line so two adjacent plane fields
/// updated by different threads never share one. 64 bytes covers
/// x86-64 and mainstream aarch64; on 128-byte-line parts the cost is
/// one extra (still private) line per counter, not sharing.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value` to its own cache line.
    pub fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// A `u64` statistic cell: every operation is `Ordering::Relaxed`.
///
/// The one atomic receiver the whole plane funnels through — the inner
/// field is deliberately named `cell` so `crates/xtask/atomics.toml`
/// registers the plane once (role `counter`) and the atomic-ordering
/// lint rejects any operation stronger than Relaxed on it. Relaxed is
/// correct by construction here: cells carry commutative tallies and
/// last-writer-wins gauges, and nothing is published *through* them —
/// the endpoint's loops hand nothing to each other, and shutdown goes
/// over the Release/Acquire stop flag, never a statistic.
#[derive(Debug, Default)]
pub struct RelaxedCell {
    cell: AtomicU64,
}

impl RelaxedCell {
    /// A cell starting at `value`.
    pub fn new(value: u64) -> RelaxedCell {
        RelaxedCell {
            cell: AtomicU64::new(value),
        }
    }

    /// Adds `n` (counter use).
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` and returns the value before the add — what makes a
    /// gauge reservable across threads: add, look at what was there,
    /// [`RelaxedCell::sub`] again if that was already too many.
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.cell.fetch_add(n, Ordering::Relaxed)
    }

    /// Subtracts `n` (gauge use, e.g. `active` on retire).
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrites the value (gauge use).
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Reads the current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Raises the cell to `value` if larger (running-maximum gauge).
    /// A Relaxed CAS loop rather than `fetch_max`: the registry's
    /// counter role admits exactly the RMW set the lint recognises.
    pub fn record_max(&self, value: u64) {
        let mut seen = self.cell.load(Ordering::Relaxed);
        while value > seen {
            match self
                .cell
                .compare_exchange_weak(seen, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }
}

/// A lock-free mirror of [`LogHistogram`]: one Relaxed atomic per
/// power-of-two bucket, recordable concurrently from any thread,
/// convertible to a [`LogHistogram`] on demand. Bucket boundaries are
/// exactly [`LogHistogram::bucket_index`]'s, so merged snapshots and
/// quantiles come from the existing reporting machinery.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [RelaxedCell; LogHistogram::NUM_BUCKETS],
    sum: RelaxedCell,
    max: RelaxedCell,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| RelaxedCell::new(0)),
            sum: RelaxedCell::new(0),
            max: RelaxedCell::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one value: one bucket increment, a sum add and a
    /// running-max raise — no locks, no allocation.
    pub fn record(&self, value: u64) {
        if let Some(slot) = self.buckets.get(LogHistogram::bucket_index(value)) {
            slot.add(1);
        }
        self.sum.add(value);
        self.max.record_max(value);
    }

    /// Copies the live buckets into a [`LogHistogram`]. Concurrent
    /// recording keeps running; the copy is per-bucket atomic, which
    /// is all a statistics snapshot needs.
    pub fn snapshot(&self) -> LogHistogram {
        let counts: [u64; LogHistogram::NUM_BUCKETS] =
            std::array::from_fn(|i| self.buckets.get(i).map_or(0, RelaxedCell::get));
        LogHistogram::from_bucket_counts(&counts, self.sum.get(), self.max.get())
    }

    /// Folds the bucket-wise difference `cur - prev` into the live
    /// histogram without allocating — how a shard loop publishes a
    /// locally-accumulated [`LogHistogram`] (e.g. the datapath
    /// backend's batch sizes) into the shared plane incrementally:
    /// keep the previous snapshot, fold the delta, replace it.
    pub fn merge_delta(&self, cur: &LogHistogram, prev: &LogHistogram) {
        let cur_counts = cur.bucket_counts();
        let prev_counts = prev.bucket_counts();
        for (i, slot) in self.buckets.iter().enumerate() {
            let was = prev_counts.get(i).copied().unwrap_or(0);
            let now = cur_counts.get(i).copied().unwrap_or(0);
            let delta = now.saturating_sub(was);
            if delta > 0 {
                slot.add(delta);
            }
        }
        self.sum.add(cur.sum().saturating_sub(prev.sum()));
        self.max.record_max(cur.max());
    }
}

// ---------------------------------------------------------------------
// The family table
// ---------------------------------------------------------------------

/// What a family is: its `# TYPE` line and its naming rule (a counter's
/// name ends `_total`, no other kind's does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Where a family's samples come from in a [`PlaneSnapshot`] — the
/// three shapes both renderers match on.
enum Source {
    /// One unlabelled sample.
    Plain(fn(&PlaneSnapshot) -> u64),
    /// One `{shard="i"}`-labelled sample per loop.
    PerShard(fn(&ShardPlaneSnapshot) -> u64),
    /// One log2 histogram, merged across the loops.
    Merged(fn(&PlaneSnapshot) -> &LogHistogram),
}

/// One exported family: a row of `metric_table!`.
struct Family {
    /// The exported `mpq_*` family name.
    name: &'static str,
    kind: Kind,
    /// The `# HELP` text — and the field's doc comment.
    help: &'static str,
    /// The `/snapshot` key: the snapshot field's name.
    key: &'static str,
    source: Source,
}

/// Declares the plane's families once. Each row is
/// `field: Kind "mpq_name" "help";` and becomes the live cell, the
/// snapshot field (both documented by the help text plus any `///`
/// lines above the row), its `snapshot()` and `delta()` lines, and one
/// `FAMILIES` entry that `/metrics` and `/snapshot` render — in row
/// order, so the table is also the exposition order.
macro_rules! metric_table {
    (
        endpoint { $($(#[$edoc:meta])* $efield:ident: $ekind:ident $ename:literal $ehelp:literal;)* }
        endpoint_unexported { $($(#[$udoc:meta])* $ufield:ident;)* }
        derived { $($dkey:ident: $dkind:ident $dname:literal $dhelp:literal = $dget:expr;)* }
        shard { $($(#[$sdoc:meta])* $sfield:ident: $skind:ident $sname:literal $shelp:literal;)* }
        shard_histograms { $($(#[$hdoc:meta])* $hfield:ident: $hname:literal $hhelp:literal;)* }
        plane_histograms { $($pfield:ident: $pname:literal $phelp:literal;)* }
    ) => {
        /// Endpoint-level cells shared by every loop and the endpoint
        /// handle. Each sits on its own cache line: `datagrams_in` is
        /// bumped on every ingress datagram, and unpadded it would drag
        /// the verdict counters' lines between cores with it.
        #[derive(Debug, Default)]
        pub struct EndpointStats {
            $(#[doc = $ehelp] #[doc = ""] $(#[$edoc])* pub $efield: CachePadded<RelaxedCell>,)*
            $($(#[$udoc])* pub $ufield: CachePadded<RelaxedCell>,)*
        }

        /// A point-in-time copy of [`EndpointStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EndpointSnapshot {
            $(#[doc = $ehelp] #[doc = ""] $(#[$edoc])* pub $efield: u64,)*
            $($(#[$udoc])* pub $ufield: u64,)*
        }

        impl EndpointStats {
            /// Copies the live cells.
            pub fn snapshot(&self) -> EndpointSnapshot {
                EndpointSnapshot {
                    $($efield: self.$efield.get(),)*
                    $($ufield: self.$ufield.get(),)*
                }
            }
        }

        impl EndpointSnapshot {
            /// Field-wise `self - before` (saturating): what happened
            /// between two snapshots. Loadgen embeds one of these per
            /// scenario so an SLO failure arrives with its drop context.
            pub fn delta(&self, before: &EndpointSnapshot) -> EndpointSnapshot {
                EndpointSnapshot {
                    $($efield: self.$efield.saturating_sub(before.$efield),)*
                    $($ufield: self.$ufield.saturating_sub(before.$ufield),)*
                }
            }
        }

        /// Per-loop telemetry. One of these per shard, each padded onto
        /// its own cache lines inside [`EndpointPlane`] so shard A's
        /// loop counter never bounces shard B's.
        #[derive(Debug, Default)]
        pub struct ShardPlane {
            $(#[doc = $shelp] #[doc = ""] $(#[$sdoc])* pub $sfield: RelaxedCell,)*
            $(#[doc = $hhelp] #[doc = ""] $(#[$hdoc])* pub $hfield: AtomicHistogram,)*
        }

        /// A point-in-time copy of one [`ShardPlane`]; the histograms
        /// are this shard's alone.
        #[derive(Debug, Clone, Default)]
        pub struct ShardPlaneSnapshot {
            /// Which shard (0-based).
            pub shard: usize,
            $(#[doc = $shelp] #[doc = ""] $(#[$sdoc])* pub $sfield: u64,)*
            $(#[doc = $hhelp] #[doc = ""] $(#[$hdoc])* pub $hfield: LogHistogram,)*
        }

        impl ShardPlane {
            fn snapshot(&self, shard: usize) -> ShardPlaneSnapshot {
                ShardPlaneSnapshot {
                    shard,
                    $($sfield: self.$sfield.get(),)*
                    $($hfield: self.$hfield.snapshot(),)*
                }
            }
        }

        /// Every exported family, in exposition order.
        static FAMILIES: &[Family] = &[
            $(Family {
                name: $ename,
                kind: Kind::$ekind,
                help: $ehelp,
                key: stringify!($efield),
                source: Source::Plain(|p| p.stats.$efield),
            },)*
            $(Family {
                name: $dname,
                kind: Kind::$dkind,
                help: $dhelp,
                key: stringify!($dkey),
                source: Source::Plain($dget),
            },)*
            $(Family {
                name: $sname,
                kind: Kind::$skind,
                help: $shelp,
                key: stringify!($sfield),
                source: Source::PerShard(|s| s.$sfield),
            },)*
            $(Family {
                name: $hname,
                kind: Kind::Histogram,
                help: $hhelp,
                key: stringify!($hfield),
                source: Source::Merged(|p| &p.$hfield),
            },)*
            $(Family {
                name: $pname,
                kind: Kind::Histogram,
                help: $phelp,
                key: stringify!($pfield),
                source: Source::Merged(|p| &p.$pfield),
            },)*
        ];
    };
}

metric_table! {
    // `plane.stats.<field>`: one padded cell each, one unlabelled sample.
    endpoint {
        accepted: Counter "mpq_endpoint_accepted_total" "connections created for a first-seen CID";
        completed: Counter "mpq_endpoint_completed_total" "applications finished successfully";
        failed: Counter "mpq_endpoint_failed_total" "applications failed or lost before a verdict";
        /// The close went to the wire and the CID was released:
        /// `accepted - active == closed` once the endpoint is quiet,
        /// the cross-check load harnesses use for conns/sec accounting.
        closed: Counter "mpq_endpoint_closed_total" "connections fully retired";
        rejected: Counter "mpq_endpoint_rejected_total" "new-CID datagrams shed at the accept limit";
        malformed: Counter "mpq_endpoint_malformed_total" "datagrams whose public header yielded no CID";
        /// Stragglers of a closed connection or of a rotated-away CID,
        /// dropped instead of re-accepted.
        tombstoned: Counter "mpq_endpoint_tombstoned_total" "datagrams dropped because their CID was retired";
        /// Datagrams the batch took in before the error are still served.
        recv_errors: Counter "mpq_endpoint_recv_errors_total" "batched receives that failed with an unabsorbed error";
        /// Each is delivered to a connection or counted in exactly one
        /// of `malformed`, `rejected`, `tombstoned`.
        datagrams_in: Counter "mpq_endpoint_datagrams_in_total" "datagrams pulled off the listen sockets";
        path_validations_started: Counter "mpq_path_validation_started_total" "path validations started after an address rebind";
        path_validations_validated: Counter "mpq_path_validation_validated_total" "path validations completed by a matching PATH_RESPONSE";
        path_validations_abandoned: Counter "mpq_path_validation_abandoned_total" "path validations abandoned after bounded retries";
        cid_rotations_initiated: Counter "mpq_cid_rotation_initiated_total" "connection-ID rotations initiated";
        cid_rotations_completed: Counter "mpq_cid_rotation_completed_total" "connection-ID rotations completed (old CID retired)";
        backend_submissions: Counter "mpq_backend_submissions_total" "datapath-backend entries handed to the kernel";
        backend_completions: Counter "mpq_backend_completions_total" "datapath-backend entries completed successfully";
        backend_fallbacks: Counter "mpq_backend_fallbacks_total" "datapath fallbacks: GSO rungs dropped plus descents to the portable loop";
        /// Accepted minus retired.
        active: Gauge "mpq_endpoint_active" "connections currently live";
    }
    // Cells `perf/` still reads that export nothing.
    endpoint_unexported {
        /// Always zero: there is no shard queue to overflow any more
        /// (receive overload drops in the kernel socket buffer). The
        /// field is read by `perf/`; its removal waits for a
        /// `benchmark` PR.
        backpressure_drops;
    }
    // Plain samples computed from the snapshot, with no cell of their own.
    derived {
        worker_shards: Gauge "mpq_endpoint_worker_shards" "worker shards serving connections" = |p| p.shards.len() as u64;
        flight_recorded: Counter "mpq_endpoint_flight_events_total" "events the flight recorder has seen" = |p| p.flight_recorded;
    }
    // `plane.shard(i).<field>`: one sample per loop, labelled `{shard="i"}`.
    shard {
        loop_iterations: Counter "mpq_shard_loop_iterations_total" "shard loop iterations, busy or idle";
        /// Progress is: drained ingress, moved a connection, sent egress.
        busy_iterations: Counter "mpq_shard_busy_iterations_total" "shard loop iterations that made progress";
        /// A shard that never parks between bursts scores low here
        /// even at high iteration counts.
        wakeups: Counter "mpq_shard_wakeups_total" "shard idle-to-busy transitions";
        /// An iteration found nothing to do and the spin and yield
        /// steps were spent.
        parks: Counter "mpq_shard_parks_total" "times the shard loop blocked on its sockets with nothing to do";
        /// A last-writer gauge, refreshed each busy loop iteration.
        conns_active: Gauge "mpq_shard_conns_active" "connections currently owned by the shard";
    }
    // `plane.shard(i).<field>` histograms, exported merged: the
    // `PlaneSnapshot` field of the same name.
    shard_histograms {
        loop_ns: "mpq_shard_loop_ns" "busy shard-loop iteration wall time, nanoseconds (all shards)";
        /// With `loop_ns` this splits a loop's life three ways: busy
        /// (`loop_ns`), parked (here), and the remainder spent spinning
        /// through idle iterations.
        park_ns: "mpq_shard_park_ns" "wall time of each shard-loop park, nanoseconds (all shards)";
    }
    // Histograms the loops share: an `EndpointPlane` cell and the
    // `PlaneSnapshot` field of the same name.
    plane_histograms {
        backend_sqe_batch: "mpq_backend_sqe_batch" "datapath-backend entries per kernel submission boundary (all shards)";
    }
}

/// A typed aggregate of the whole plane: endpoint counters, per-shard
/// snapshots, and the cross-shard merged histograms reports gate on.
#[derive(Debug, Clone, Default)]
pub struct PlaneSnapshot {
    /// Endpoint-level counters.
    pub stats: EndpointSnapshot,
    /// Per-shard loop telemetry, in shard order.
    pub shards: Vec<ShardPlaneSnapshot>,
    /// Datapath-backend entries per productive batched call
    /// (datagrams per `sendmmsg`/`recvmmsg`), merged across shards.
    pub backend_sqe_batch: LogHistogram,
    /// All shards' busy-iteration times merged.
    pub loop_ns: LogHistogram,
    /// All shards' park times merged.
    pub park_ns: LogHistogram,
    /// Always empty: there is no shard queue to sample any more. The
    /// field is read by `perf/`; its removal waits for a `benchmark` PR.
    pub queue_depth: LogHistogram,
    /// Total idle→busy transitions across shards.
    pub wakeups: u64,
    /// Events the flight recorder has seen (recorded, not kept).
    pub flight_recorded: u64,
}

/// The endpoint's whole metrics plane, shared (`Arc`) by every loop,
/// the endpoint handle and the scrape surface.
#[derive(Debug)]
pub struct EndpointPlane {
    /// Endpoint-level counters.
    pub stats: EndpointStats,
    shards: Box<[CachePadded<ShardPlane>]>,
    /// Absorbs writes addressed to an out-of-range shard index (cannot
    /// happen in the endpoint's own wiring, but [`EndpointPlane::shard`]
    /// stays total either way). Excluded from snapshots.
    spare: CachePadded<ShardPlane>,
    /// Datapath-backend entries per kernel submission boundary, folded
    /// in by each shard loop as deltas of its registry's counters.
    pub backend_sqe_batch: AtomicHistogram,
    /// The last-N-events ring (see [`FlightRecorder`]).
    pub recorder: FlightRecorder,
}

impl EndpointPlane {
    /// A plane for `workers` shards (at least one) with the default
    /// flight-recorder capacity.
    pub fn new(workers: usize) -> EndpointPlane {
        EndpointPlane::with_flight_capacity(workers, FLIGHT_CAPACITY)
    }

    /// A plane for `workers` shards keeping the last `flight_capacity`
    /// endpoint events.
    pub fn with_flight_capacity(workers: usize, flight_capacity: usize) -> EndpointPlane {
        let n = workers.max(1);
        let shards: Vec<CachePadded<ShardPlane>> = (0..n)
            .map(|_| CachePadded::new(ShardPlane::default()))
            .collect();
        EndpointPlane {
            stats: EndpointStats::default(),
            shards: shards.into_boxed_slice(),
            spare: CachePadded::new(ShardPlane::default()),
            backend_sqe_batch: AtomicHistogram::default(),
            recorder: FlightRecorder::new(flight_capacity),
        }
    }

    /// Number of per-shard planes.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Shard `index`'s plane (total: out-of-range indices land on a
    /// spare plane excluded from snapshots, rather than panicking on a
    /// datapath).
    pub fn shard(&self, index: usize) -> &ShardPlane {
        match self.shards.get(index) {
            Some(plane) => plane,
            None => &self.spare,
        }
    }

    /// Aggregates the whole plane into a typed snapshot: per-shard
    /// copies plus the merged histograms and wakeup totals.
    pub fn snapshot(&self) -> PlaneSnapshot {
        let shards: Vec<ShardPlaneSnapshot> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, plane)| plane.snapshot(i))
            .collect();
        let mut loop_ns = LogHistogram::default();
        let mut park_ns = LogHistogram::default();
        let mut wakeups = 0u64;
        for shard in &shards {
            loop_ns.merge(&shard.loop_ns);
            park_ns.merge(&shard.park_ns);
            wakeups += shard.wakeups;
        }
        PlaneSnapshot {
            stats: self.stats.snapshot(),
            shards,
            backend_sqe_batch: self.backend_sqe_batch.snapshot(),
            loop_ns,
            park_ns,
            queue_depth: LogHistogram::default(),
            wakeups,
            flight_recorded: self.recorder.total_recorded(),
        }
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// Default ring capacity: the last 1024 endpoint events, 40 bytes each.
pub const FLIGHT_CAPACITY: usize = 1024;

/// What happened, endpoint-level. Connection-level detail stays in the
/// PR 3 event/qlog plane; the flight recorder answers "what was the
/// *endpoint* doing just before things went wrong".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A first-seen CID became a connection.
    Accept,
    /// A connection fully closed and its CID was released.
    Retire,
    /// A new-CID datagram was shed at the accept limit.
    Shed,
    /// A datagram's public header yielded no CID.
    Malformed,
    /// The endpoint began shutdown.
    Teardown,
    /// A load harness recorded a missed SLO against this endpoint.
    SloFail,
}

impl FlightKind {
    /// Stable lowercase name used in the JSON-lines dump.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Accept => "accept",
            FlightKind::Retire => "retire",
            FlightKind::Shed => "shed",
            FlightKind::Malformed => "malformed",
            FlightKind::Teardown => "teardown",
            FlightKind::SloFail => "slo_fail",
        }
    }
}

/// One recorded endpoint event. `Copy` and fixed-size: recording is a
/// slot overwrite, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the recorder was built.
    pub at_us: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The connection ID involved (0 when not applicable).
    pub cid: u64,
    /// The shard involved (0 when not applicable).
    pub shard: u32,
    /// Kind-specific detail: live count for shed/teardown, p99 µs for
    /// slo_fail.
    pub value: u64,
}

/// The ring storage behind the mutex: a pre-reserved `Vec` that never
/// grows past its construction-time capacity.
#[derive(Debug)]
struct FlightRing {
    slots: Vec<FlightEvent>,
    capacity: usize,
    /// Total events ever recorded; `next % capacity` is the write slot.
    next: u64,
}

impl FlightRing {
    fn push(&mut self, event: FlightEvent) {
        let idx = (self.next % self.capacity as u64) as usize;
        if idx < self.slots.len() {
            if let Some(slot) = self.slots.get_mut(idx) {
                *slot = event;
            }
        } else {
            // Still filling the pre-reserved storage: len < capacity,
            // so this push never reallocates.
            self.slots.push(event);
        }
        self.next += 1;
    }
}

/// A constant-memory ring of the last N endpoint events.
///
/// Recording takes an uncontended mutex (the endpoint's event rate —
/// accepts, retires, drops — is orders of magnitude below the datagram
/// rate, so a ~20 ns lock on this path costs nothing measurable) and
/// overwrites a fixed slot; nothing allocates after construction.
/// Dumping renders oldest→newest as one JSON object per line, the
/// shape `cargo xtask qlog-check` validates.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    ring: Mutex<FlightRing>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` (≥ 1) events.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            ring: Mutex::new(FlightRing {
                slots: Vec::with_capacity(capacity),
                capacity,
                next: 0,
            }),
        }
    }

    /// Records one event, overwriting the oldest once the ring is
    /// full. Alloc-free; tolerates a poisoned lock (a panicking peer
    /// loses telemetry, not the process).
    pub fn record(&self, kind: FlightKind, cid: u64, shard: u32, value: u64) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        if let Ok(mut ring) = self.ring.lock() {
            ring.push(FlightEvent {
                at_us,
                kind,
                cid,
                shard,
                value,
            });
        }
    }

    /// Ring capacity (events kept).
    pub fn capacity(&self) -> usize {
        self.ring.lock().map_or(0, |r| r.capacity)
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().map_or(0, |r| r.slots.len())
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (kept + overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().map_or(0, |r| r.next)
    }

    /// The kept events, oldest first. Allocates (report path, not
    /// datapath).
    pub fn events(&self) -> Vec<FlightEvent> {
        let Ok(ring) = self.ring.lock() else {
            return Vec::new();
        };
        if ring.next <= ring.capacity as u64 {
            return ring.slots.clone();
        }
        let split = (ring.next % ring.capacity as u64) as usize;
        let mut out = Vec::with_capacity(ring.slots.len());
        out.extend(ring.slots.get(split..).unwrap_or(&[]));
        out.extend(ring.slots.get(..split).unwrap_or(&[]));
        out
    }

    /// Renders the ring as JSON lines: one header object (so a dump is
    /// non-empty and self-describing even before any event), then one
    /// object per kept event, oldest first. Every line is a standalone
    /// JSON object — `cargo xtask qlog-check FILE` accepts the dump
    /// unchanged.
    pub fn dump_json_lines(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str(&format!(
            "{{\"kind\":\"flight_header\",\"capacity\":{},\"recorded\":{},\"kept\":{}}}\n",
            self.capacity(),
            self.total_recorded(),
            events.len(),
        ));
        for e in &events {
            out.push_str(&format!(
                "{{\"at_us\":{},\"kind\":\"{}\",\"cid\":{},\"shard\":{},\"value\":{}}}\n",
                e.at_us,
                e.kind.as_str(),
                e.cid,
                e.shard,
                e.value,
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Renderers: Prometheus text exposition + JSON snapshot line
// ---------------------------------------------------------------------

/// Appends a histogram family: cumulative `_bucket{le=...}` samples
/// (empty buckets skipped; `le` is the bucket's upper bound), `_sum`
/// and `_count`.
fn prom_histogram(out: &mut String, name: &str, h: &LogHistogram) {
    let mut cumulative = 0u64;
    for (i, &n) in h.bucket_counts().iter().enumerate() {
        cumulative += n;
        if n == 0 {
            continue;
        }
        let (_, upper) = LogHistogram::bucket_bounds(i);
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            upper.saturating_sub(1),
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

/// Renders a [`PlaneSnapshot`] as Prometheus text exposition (format
/// 0.0.4): every `FAMILIES` row in table order, each a
/// `# HELP`/`# TYPE` pair followed by its samples.
pub fn render_prometheus(snap: &PlaneSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for family in FAMILIES {
        let Family {
            name, kind, help, ..
        } = family;
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {}\n",
            kind.as_str()
        ));
        match family.source {
            Source::Plain(get) => out.push_str(&format!("{name} {}\n", get(snap))),
            Source::PerShard(get) => {
                for s in &snap.shards {
                    out.push_str(&format!("{name}{{shard=\"{}\"}} {}\n", s.shard, get(s)));
                }
            }
            Source::Merged(get) => prom_histogram(&mut out, name, get(snap)),
        }
    }
    out
}

/// Renders a [`PlaneSnapshot`] as one JSON object on one line — the
/// periodic snapshot-writer format (a file of these is itself valid
/// `cargo xtask qlog-check` input) and the `/snapshot` HTTP body.
/// Every `FAMILIES` row appears under its field name: plain values
/// at the top level, histograms as `<field>_p50`/`<field>_p99`,
/// per-shard values inside the `shards` array.
pub fn render_snapshot_json(snap: &PlaneSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"kind\":\"endpoint_snapshot\"");
    for family in FAMILIES {
        let key = family.key;
        match family.source {
            Source::Plain(get) => out.push_str(&format!(",\"{key}\":{}", get(snap))),
            Source::PerShard(_) => {}
            Source::Merged(get) => {
                let h = get(snap);
                out.push_str(&format!(
                    ",\"{key}_p50\":{},\"{key}_p99\":{}",
                    h.quantile(0.50),
                    h.quantile(0.99),
                ));
            }
        }
    }
    out.push_str(&format!(",\"wakeups\":{},\"shards\":[", snap.wakeups));
    for (i, shard) in snap.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"shard\":{}", shard.shard));
        for family in FAMILIES {
            if let Source::PerShard(get) = family.source {
                out.push_str(&format!(",\"{}\":{}", family.key, get(shard)));
            }
        }
        out.push_str(&format!(
            ",\"loop_ns_p99\":{}}}",
            shard.loop_ns.quantile(0.99)
        ));
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Scrape surface: HTTP server + periodic JSON-lines snapshot writer
// ---------------------------------------------------------------------

/// How long an accepted scrape connection may take to send its whole
/// request — one deadline, not a per-`read` allowance: the serve thread
/// handles one connection at a time and `Drop` joins it, so a client
/// trickling bytes must not be able to hold either for longer.
const SCRAPE_READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// A minimal dependency-free scrape server over `std::net`:
///
/// * `GET /metrics` — Prometheus text exposition (0.0.4);
/// * `GET /snapshot` — the one-line JSON snapshot;
/// * `GET /flight` — the flight recorder as JSON lines, on demand.
///
/// One thread, non-blocking accept with a poll interval, one request
/// per connection (`Connection: close`). It serves *snapshots* of the
/// lock-free plane; scraping never touches a datapath lock.
#[derive(Debug)]
pub struct MetricsServer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    local: SocketAddr,
}

impl MetricsServer {
    /// Binds `addr` (port 0 picks a free port — see
    /// [`MetricsServer::local_addr`]) and serves `plane` until dropped.
    pub fn serve(addr: SocketAddr, plane: Arc<EndpointPlane>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("mpq-metrics".to_string())
                .spawn(move || serve_loop(&listener, &plane, &stop))?
        };
        Ok(MetricsServer {
            stop,
            handle: Some(handle),
            local,
        })
    }

    /// The bound address (resolves a port-0 bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        // Release pairs with the serve loop's Acquire load.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_loop(listener: &TcpListener, plane: &EndpointPlane, stop: &AtomicBool) {
    loop {
        // Acquire pairs with the Release store in `Drop`.
        if stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => handle_scrape(stream, plane),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads the request line and answers one route. Any IO error just
/// drops the connection — a broken scraper must never hurt the server.
fn handle_scrape(mut stream: TcpStream, plane: &EndpointPlane) {
    use std::io::Read;
    let deadline = Instant::now() + SCRAPE_READ_TIMEOUT;
    let _ = stream.set_nonblocking(false);
    let mut buf = [0u8; 1024];
    let mut len = 0usize;
    // Read until the header terminator (or the buffer/deadline limit);
    // the request line is all that matters.
    while len < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        // A zero timeout is an error to `set_read_timeout`; a failed
        // set must not leave a blocking read behind either.
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        let Some(free) = buf.get_mut(len..) else {
            break;
        };
        match stream.read(free) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf.get(..len).is_some_and(contains_terminator) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(buf.get(..len).unwrap_or(&[]));
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&plane.snapshot()),
        ),
        "/snapshot" => {
            let mut body = render_snapshot_json(&plane.snapshot());
            body.push('\n');
            ("200 OK", "application/json", body)
        }
        "/flight" => (
            "200 OK",
            "application/x-ndjson",
            plane.recorder.dump_json_lines(),
        ),
        "/" => (
            "200 OK",
            "text/plain; charset=utf-8",
            "mpq metrics endpoints: /metrics /snapshot /flight\n".to_string(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    respond(&mut stream, status, content_type, &body);
}

fn contains_terminator(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    use std::io::Write;
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Stop-check granularity of the snapshot writer's sleep.
const WRITER_POLL: Duration = Duration::from_millis(50);

/// A periodic JSON-lines snapshot writer: every `interval` it appends
/// one [`render_snapshot_json`] line for the plane to a file (created
/// fresh at spawn). A final line is written at drop so short runs
/// still leave at least one sample. The output file is valid
/// `cargo xtask qlog-check` input.
#[derive(Debug)]
pub struct SnapshotWriter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl SnapshotWriter {
    /// Creates `path` and starts sampling `plane` every `interval`.
    pub fn spawn(
        path: &str,
        plane: Arc<EndpointPlane>,
        interval: Duration,
    ) -> std::io::Result<SnapshotWriter> {
        let file = std::fs::File::create(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("mpq-snapshots".to_string())
                .spawn(move || writer_loop(file, &plane, interval, &stop))?
        };
        Ok(SnapshotWriter {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        // Release pairs with the writer loop's Acquire load.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn writer_loop(file: std::fs::File, plane: &EndpointPlane, interval: Duration, stop: &AtomicBool) {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(file);
    let write_line = |out: &mut std::io::BufWriter<std::fs::File>| {
        let mut line = render_snapshot_json(&plane.snapshot());
        line.push('\n');
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    };
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            // Acquire pairs with the Release store in `Drop`.
            if stop.load(Ordering::Acquire) {
                write_line(&mut out);
                return;
            }
            let step = WRITER_POLL.min(interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        write_line(&mut out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_cell_ops() {
        let c = RelaxedCell::new(5);
        c.add(3);
        c.sub(2);
        assert_eq!(c.get(), 6);
        assert_eq!(c.fetch_add(1), 6, "fetch_add returns the value before");
        c.sub(1);
        c.set(100);
        assert_eq!(c.get(), 100);
        c.record_max(50);
        assert_eq!(c.get(), 100, "record_max never lowers");
        c.record_max(150);
        assert_eq!(c.get(), 150);
    }

    #[test]
    fn atomic_histogram_matches_log_histogram() {
        let atomic = AtomicHistogram::default();
        let mut reference = LogHistogram::default();
        for v in [0u64, 1, 2, 3, 100, 5_000, 1 << 40, u64::MAX] {
            atomic.record(v);
            reference.record(v);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.count(), reference.count());
        assert_eq!(snap.max(), reference.max());
        assert_eq!(snap.bucket_counts(), reference.bucket_counts());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(snap.quantile(q), reference.quantile(q));
        }
    }

    #[test]
    fn snapshot_delta_saturates() {
        let after = EndpointSnapshot {
            accepted: 10,
            closed: 7,
            ..EndpointSnapshot::default()
        };
        let before = EndpointSnapshot {
            accepted: 4,
            closed: 9, // out-of-order reads must not underflow
            ..EndpointSnapshot::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.accepted, 6);
        assert_eq!(d.closed, 0);
    }

    #[test]
    fn plane_shard_is_total_and_snapshot_aggregates() {
        let plane = EndpointPlane::new(2);
        plane.shard(0).wakeups.add(2);
        plane.shard(1).wakeups.add(3);
        plane.shard(99).wakeups.add(1000); // lands on the spare
        plane.shard(0).loop_ns.record(500);
        plane.shard(1).loop_ns.record(700);
        plane.shard(0).park_ns.record(9_000);
        plane.shard(1).park_ns.record(11_000);
        plane.shard(1).parks.add(1);
        plane.stats.accepted.add(4);
        let snap = plane.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.wakeups, 5, "spare plane excluded");
        assert_eq!(snap.loop_ns.count(), 2, "merged across shards");
        assert_eq!(snap.park_ns.count(), 2, "merged across shards");
        assert_eq!(snap.shards[1].parks, 1);
        assert_eq!(snap.shards[1].park_ns.count(), 1);
        assert_eq!(snap.stats.accepted, 4);
    }

    #[test]
    fn flight_recorder_wraps_keeping_newest() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(FlightKind::Accept, i, 0, 0);
        }
        let events: Vec<u64> = r.events().iter().map(|e| e.cid).collect();
        assert_eq!(events, vec![6, 7, 8, 9], "last 4, oldest first");
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn flight_dump_is_json_lines_with_header() {
        let r = FlightRecorder::new(8);
        r.record(FlightKind::Shed, 0xAB, 2, 511);
        let dump = r.dump_json_lines();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"flight_header\""));
        assert!(lines[1].contains("\"kind\":\"shed\""));
        assert!(lines[1].contains("\"cid\":171"));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn prometheus_render_has_families_and_cumulative_buckets() {
        let plane = EndpointPlane::new(2);
        plane.stats.accepted.add(3);
        plane.shard(0).loop_ns.record(10);
        plane.shard(0).loop_ns.record(1000);
        plane.shard(1).parks.add(1);
        plane.shard(1).park_ns.record(4096);
        let text = render_prometheus(&plane.snapshot());
        assert!(text.contains("# TYPE mpq_endpoint_accepted_total counter"));
        assert!(text.contains("mpq_endpoint_accepted_total 3"));
        assert!(text.contains("mpq_endpoint_tombstoned_total 0"));
        assert!(text.contains("mpq_endpoint_recv_errors_total 0"));
        assert!(text.contains("mpq_shard_wakeups_total{shard=\"1\"} 0"));
        assert!(text.contains("mpq_shard_loop_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mpq_shard_loop_ns_count 2"));
        assert!(text.contains("mpq_shard_loop_ns_sum 1010"));
        assert!(text.contains("mpq_shard_parks_total{shard=\"1\"} 1"));
        assert!(text.contains("mpq_shard_park_ns_count 1"));
        assert!(text.contains("mpq_shard_park_ns_sum 4096"));
    }

    /// The naming rules are properties of the table, and both renderers
    /// carry every row of it.
    #[test]
    fn family_table_invariants() {
        let plane = EndpointPlane::new(2);
        let snap = plane.snapshot();
        let text = render_prometheus(&snap);
        let json = render_snapshot_json(&snap);
        let shard_objects = json.split_once("\"shards\":[").expect("shards array").1;
        for (i, family) in FAMILIES.iter().enumerate() {
            let Family {
                name, kind, help, ..
            } = family;
            assert!(name.starts_with("mpq_"), "{name}: outside the namespace");
            assert!(
                FAMILIES.iter().skip(i + 1).all(|other| other.name != *name),
                "{name}: exported twice"
            );
            assert_eq!(
                name.ends_with("_total"),
                *kind == Kind::Counter,
                "{name}: counters, and only counters, end in _total"
            );
            assert!(!help.is_empty(), "{name}: empty HELP");
            let header = format!("# HELP {name} {help}\n# TYPE {name} {}\n", kind.as_str());
            assert!(text.contains(&header), "{name}: no header in /metrics");
            // Each sample line attributes to its family: histograms by
            // their `_bucket`/`_sum`/`_count` suffixes, the rest by name.
            let key = family.key;
            match family.source {
                Source::Plain(_) => {
                    assert_ne!(*kind, Kind::Histogram);
                    assert!(text.contains(&format!("\n{name} ")), "{name}: no sample");
                    assert!(
                        json.contains(&format!(",\"{key}\":")),
                        "{key}: not in /snapshot"
                    );
                }
                Source::PerShard(_) => {
                    assert_ne!(*kind, Kind::Histogram);
                    assert!(
                        text.contains(&format!("\n{name}{{shard=\"1\"}} ")),
                        "{name}: no sample for the second shard"
                    );
                    assert_eq!(
                        shard_objects.matches(&format!(",\"{key}\":")).count(),
                        2,
                        "{key}: not in every /snapshot shard"
                    );
                }
                Source::Merged(_) => {
                    assert_eq!(*kind, Kind::Histogram);
                    for suffix in ["_bucket", "_sum", "_count"] {
                        assert!(
                            !name.ends_with(suffix),
                            "{name}: a sample name, not a family"
                        );
                    }
                    for sample in ["_bucket{le=\"+Inf\"}", "_sum", "_count"] {
                        assert!(
                            text.contains(&format!("\n{name}{sample} ")),
                            "{name}: no {sample} sample"
                        );
                    }
                    assert!(
                        json.contains(&format!(",\"{key}_p99\":")),
                        "{key}: not in /snapshot"
                    );
                }
            }
        }
        // Nothing reaches `/metrics` except through the table.
        let headers = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(headers, FAMILIES.len());
        assert!(
            !json.contains("backpressure_drops"),
            "unexported cells stay out"
        );
    }

    #[test]
    fn snapshot_json_is_one_object_per_line() {
        let plane = EndpointPlane::new(1);
        plane.stats.datagrams_in.add(42);
        let line = render_snapshot_json(&plane.snapshot());
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"kind\":\"endpoint_snapshot\""));
        assert!(line.contains("\"datagrams_in\":42"));
        assert!(line.contains("\"tombstoned\":0,\"recv_errors\":0"));
        assert!(line.ends_with("]}"));
    }

    #[test]
    fn metrics_server_serves_all_routes() {
        use std::io::{Read, Write};
        let plane = Arc::new(EndpointPlane::new(1));
        plane.stats.accepted.add(7);
        plane.recorder.record(FlightKind::Accept, 1, 0, 0);
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let server = MetricsServer::serve(addr, Arc::clone(&plane)).expect("bind metrics");
        let fetch = |path: &str| -> String {
            let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
            conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .expect("request");
            let mut body = String::new();
            conn.read_to_string(&mut body).expect("response");
            body
        };
        let metrics = fetch("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("mpq_endpoint_accepted_total 7"));
        let snapshot = fetch("/snapshot");
        assert!(snapshot.contains("\"accepted\":7"));
        let flight = fetch("/flight");
        assert!(flight.contains("\"kind\":\"accept\""));
        assert!(fetch("/nope").starts_with("HTTP/1.1 404"));
        drop(server); // stops and joins the serve thread
    }

    /// One deadline bounds a whole request: a client trickling bytes
    /// and never finishing its headers holds neither the next scrape
    /// nor `drop(server)` (it used to get a fresh 500 ms per `read`).
    #[test]
    fn trickling_scraper_cannot_hold_the_serve_thread() {
        use std::io::{Read, Write};
        use std::sync::mpsc;
        const PROMPT: Duration = Duration::from_millis(1500);
        let plane = Arc::new(EndpointPlane::new(1));
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let server = MetricsServer::serve(addr, plane).expect("bind metrics");
        let target = server.local_addr();

        let (connected_tx, connected_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let trickler = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(target).expect("connect");
            conn.write_all(b"G").expect("first byte");
            connected_tx.send(()).expect("test is waiting");
            // One byte per 100 ms, well inside the old per-read timeout,
            // until the test is done (or the server hangs up).
            while stop_rx.recv_timeout(Duration::from_millis(100)).is_err() {
                if conn.write_all(b"x").is_err() {
                    break;
                }
            }
        });
        // The trickler is in the accept queue ahead of the next scrape.
        connected_rx.recv().expect("trickler connected");

        let mut conn = TcpStream::connect(target).expect("connect");
        conn.set_read_timeout(Some(PROMPT)).expect("timeout");
        conn.write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
            .expect("request");
        let mut body = String::new();
        let scraped = conn.read_to_string(&mut body);

        let (dropped_tx, dropped_rx) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(server);
            let _ = dropped_tx.send(());
        });
        let dropped = dropped_rx.recv_timeout(PROMPT);

        // Release the trickler before asserting, so a failure reports
        // instead of hanging on the joins.
        let _ = stop_tx.send(());
        trickler.join().expect("trickler");
        dropper.join().expect("dropper");
        assert!(
            scraped.is_ok() && body.contains("mpq_endpoint_accepted_total 0"),
            "second scrape not answered promptly: {scraped:?}"
        );
        assert!(dropped.is_ok(), "drop(server) did not return promptly");
    }

    #[test]
    fn snapshot_writer_leaves_json_lines() {
        let dir = std::env::temp_dir().join(format!("mpq-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        let path_str = path.to_str().unwrap();
        let plane = Arc::new(EndpointPlane::new(1));
        plane.stats.accepted.add(1);
        {
            let w = SnapshotWriter::spawn(path_str, Arc::clone(&plane), Duration::from_secs(60))
                .expect("spawn writer");
            drop(w); // final sample on drop
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with("{\"kind\":\"endpoint_snapshot\""));
            assert!(line.ends_with("]}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
