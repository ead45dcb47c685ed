//! The multi-connection endpoint: N identical event loops, each fed by
//! the kernel with its own connections' datagrams.
//!
//! A [`crate::Driver`] serves exactly one connection; an [`Endpoint`]
//! serves many over the same listen addresses, the way deployed QUIC
//! stacks do. MPQUIC names a connection by its connection ID, not by a
//! 4-tuple — every extra path is a new 4-tuple carrying the same CID —
//! so the CID is what the endpoint steers on (DESIGN.md §12):
//!
//! * every worker binds its **own** [`SocketRegistry`] on every listen
//!   address, all of them members of one `SO_REUSEPORT` group per
//!   address, and a three-instruction classic-BPF program on the group
//!   delivers each datagram to the worker [`crate::shard_for_cid`] names
//!   ([`SocketRegistry::bind_steered`]);
//! * each worker runs the same loop (`run_loop`) over what it is
//!   given: one batched receive, each datagram routed by the CID read
//!   straight off the public header
//!   ([`mpquic_wire::PublicHeader::connection_id_of`] — no full decode,
//!   no crypto) into a connection it owns outright, first-seen CIDs
//!   accepted up to [`mpquic_core::Config::max_incoming_connections`],
//!   then one `ShardCore::process` pass (timers, applications,
//!   egress, reaping) over the connections that were fed or whose
//!   deadline came due — a silent connection is not visited — and,
//!   when that found nothing to do or drained everything, a blocking
//!   wait on the sockets until the next datagram or the earliest
//!   deadline; only while a connection is mid-transfer does an idle
//!   loop spin and yield a few steps first.
//!
//! A connection's packets never leave its loop, on any path, so nothing
//! on the packet path is shared between threads; the loops meet only in
//! the metrics plane's relaxed counters and the stop flag.
//!
//! The application each accepted connection runs is pluggable
//! ([`ConnApp`]); the one this repository serves is
//! [`crate::RpcServerApp`].

use mpquic_core::{Config, QuicTransport};
use mpquic_util::DetRng;
use mpquic_wire::PublicHeader;
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mpquic_telemetry::endpoint::ShardPlane;
pub use mpquic_telemetry::endpoint::{
    EndpointPlane, EndpointSnapshot, EndpointStats, FlightKind, PlaneSnapshot,
};

use crate::backoff::Backoff;
use crate::error::{Error, Result};
use crate::mmsg::Waker;
use crate::shard::{Delivery, ShardCore};
use crate::socket::{RecvBatch, SocketRegistry};

/// Datagrams pulled per loop iteration (one batched syscall's worth).
const RECV_BATCH: usize = 64;

/// Retired-CID tombstones kept before the oldest is forgotten.
const MAX_TOMBSTONES: usize = 4096;

/// What a [`ConnApp::poll`] reports back to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStatus {
    /// Still working; poll again when the connection next has news.
    Pending,
    /// Finished. The shard closes the connection and counts the verdict
    /// in [`EndpointSnapshot::completed`] / [`EndpointSnapshot::failed`].
    Done {
        /// Whether the application's job succeeded.
        ok: bool,
    },
}

/// The application served on one accepted connection.
///
/// Polled by the owning shard whenever its connection was fed a
/// datagram, fired a timer, or still has egress pending from the last
/// pass — and at no other time: an application that wants to be polled
/// again must be waiting for something one of those brings (stream
/// data, an acknowledgement, a close), not for a later call. The poll
/// runs between ingress and egress, so data read here was fed by the
/// freshest datagrams and data written flushes in the same pass.
/// Implementations must never block: return [`AppStatus::Pending`].
pub trait ConnApp: Send {
    /// Advances the application one non-blocking step.
    fn poll(&mut self, transport: &mut QuicTransport) -> AppStatus;
}

/// Builds the [`ConnApp`] for each accepted connection, given its CID.
pub type AppFactory = Box<dyn Fn(u64) -> Box<dyn ConnApp> + Send + Sync>;

/// End-of-run report, read off the metrics plane once every loop has
/// stopped.
#[derive(Debug, Clone, Default)]
pub struct EndpointReport {
    /// Final endpoint-level counters (`plane.stats`).
    pub totals: EndpointSnapshot,
    /// Final metrics-plane aggregate: endpoint counters, per-shard loop
    /// telemetry, merged histograms, flight-recorder tally (DESIGN.md
    /// §15).
    pub plane: PlaneSnapshot,
}

/// An [`AppFactory`] every loop can call.
type SharedFactory = Arc<dyn Fn(u64) -> Box<dyn ConnApp> + Send + Sync>;

/// What one loop needs to accept connections and report on itself:
/// its own copy of the endpoint's parameters, and handles on the two
/// things all loops share — the metrics plane and the stop flag.
struct Worker {
    shard: usize,
    local: Vec<SocketAddr>,
    config: Config,
    seed: u64,
    factory: SharedFactory,
    plane: Arc<EndpointPlane>,
    stop: Arc<AtomicBool>,
}

/// A multi-connection server endpoint: N identical loops over the same
/// listen addresses, each owning the connections the kernel steers to
/// it.
pub struct Endpoint {
    /// Each loop's thread, and what wakes it when it is parked.
    shards: Vec<(JoinHandle<()>, Waker)>,
    stop: Arc<AtomicBool>,
    plane: Arc<EndpointPlane>,
    local: Vec<SocketAddr>,
}

impl Endpoint {
    /// Binds `listen` and starts serving: every accepted connection
    /// runs the app built by `factory`. [`Config::worker_shards`]
    /// (`0` = `available_parallelism`) is the loop count asked for;
    /// [`Endpoint::workers`] is the count serving — one, where the
    /// platform cannot steer datagrams by CID. The accept limit,
    /// [`Config::max_incoming_connections`], holds across all loops.
    pub fn bind(
        listen: &[SocketAddr],
        config: Config,
        seed: u64,
        factory: AppFactory,
    ) -> Result<Endpoint> {
        let registries =
            SocketRegistry::bind_steered(listen, resolve_workers(config.worker_shards))
                .map_err(Error::Io)?;
        let factory: SharedFactory = Arc::from(factory);
        let mut endpoint = Endpoint {
            shards: Vec::with_capacity(registries.len()),
            stop: Arc::new(AtomicBool::new(false)),
            plane: Arc::new(EndpointPlane::new(registries.len())),
            local: registries
                .first()
                .map(SocketRegistry::local_addrs)
                .unwrap_or_default(),
        };
        // A failed spawn drops `endpoint`, which stops and joins the
        // loops already running.
        for (shard, mut sockets) in registries.into_iter().enumerate() {
            let waker = sockets.waker().map_err(Error::Io)?;
            let worker = Worker {
                shard,
                local: endpoint.local.clone(),
                config: config.clone(),
                seed,
                factory: Arc::clone(&factory),
                plane: Arc::clone(&endpoint.plane),
                stop: Arc::clone(&endpoint.stop),
            };
            let handle = std::thread::Builder::new()
                .name(format!("mpq-shard-{shard}"))
                .spawn(move || run_loop(&worker, sockets))
                .map_err(Error::Io)?;
            endpoint.shards.push((handle, waker));
        }
        Ok(endpoint)
    }

    /// The bound listen addresses, in bind order.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.local.clone()
    }

    /// Number of loops serving connections.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Live endpoint counters (lock-free; safe to poll while serving).
    pub fn stats(&self) -> EndpointSnapshot {
        self.plane.stats.snapshot()
    }

    /// The endpoint's metrics plane — share it with a
    /// [`mpquic_telemetry::endpoint::MetricsServer`] /
    /// [`mpquic_telemetry::endpoint::SnapshotWriter`], or record
    /// harness-level flight events ([`FlightKind::SloFail`]) against
    /// it. Outlives the endpoint: it stays readable after `shutdown`.
    pub fn plane(&self) -> Arc<EndpointPlane> {
        Arc::clone(&self.plane)
    }

    /// Stops every loop, joins them, and returns the final state of the
    /// metrics plane.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first loop, in shard order, that
    /// panicked (an invariant trip, a [`ConnApp`] panic) once every
    /// loop is joined, rather than return a report without that shard.
    pub fn shutdown(mut self) -> EndpointReport {
        let plane = self.plane();
        plane
            .recorder
            .record(FlightKind::Teardown, 0, 0, plane.stats.active.get());
        for joined in self.stop_and_join() {
            if let Err(payload) = joined {
                std::panic::resume_unwind(payload);
            }
        }
        EndpointReport {
            totals: plane.stats.snapshot(),
            plane: plane.snapshot(),
        }
    }

    /// Raises the stop flag, wakes every loop and joins them, in shard
    /// order.
    fn stop_and_join(&mut self) -> Vec<std::thread::Result<()>> {
        // Release pairs with the loops' Acquire loads: everything the
        // closing thread wrote before asking for shutdown is visible to
        // their final iterations.
        self.stop.store(true, Ordering::Release);
        // The wake is sticky — the wake descriptor is never drained —
        // so the order of these two steps does not matter: a loop that
        // parks after the wake returns at once, polls, and parks again
        // until its next flag check sees the flag. No loop can sleep
        // through a stop.
        for (_, waker) in &self.shards {
            waker.wake();
        }
        self.shards
            .drain(..)
            .map(|(handle, _)| handle.join())
            .collect()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // A loop's panic is not re-raised here: `Drop` may run while
        // the thread is already unwinding.
        let _ = self.stop_and_join();
    }
}

/// Resolves the configured shard count (`0` = auto).
fn resolve_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Bounded FIFO set of retired connection IDs.
///
/// A straggler datagram for a just-retired CID (the client ACKing our
/// CONNECTION_CLOSE, say) must not re-trigger the accept path and pin
/// a zombie connection in a loop. Bounded FIFO eviction keeps the set
/// small; forgetting the oldest tombstone is safe (the straggler would
/// merely open — and immediately starve — a throwaway connection).
#[derive(Debug, Default)]
pub struct Tombstones {
    set: HashSet<u64>,
    order: VecDeque<u64>,
}

impl Tombstones {
    /// An empty tombstone set with the endpoint's standard capacity.
    pub fn new() -> Tombstones {
        Tombstones::default()
    }

    /// Records `cid` as retired, evicting the oldest tombstone past
    /// the cap.
    pub fn insert(&mut self, cid: u64) {
        if self.set.insert(cid) {
            self.order.push_back(cid);
            if self.order.len() > MAX_TOMBSTONES {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    /// True if `cid` retired recently enough to still be remembered.
    pub fn contains(&self, cid: u64) -> bool {
        self.set.contains(&cid)
    }
}

/// Accepts a first-seen CID into `core` — the one place the endpoint
/// creates a connection. The slot is reserved against the live-count
/// gauge every loop shares (add, check, undo), so
/// [`Config::max_incoming_connections`] bounds the endpoint, not each
/// loop; over the limit the datagram is dropped and counted, and the
/// client's retransmission tries again once a slot has freed.
fn accept(worker: &Worker, core: &mut ShardCore, cid: u64) -> bool {
    let plane = &worker.plane;
    let shard = worker.shard as u32;
    let live = plane.stats.active.fetch_add(1);
    if live >= worker.config.max_incoming_connections as u64 {
        plane.stats.active.sub(1);
        plane.stats.rejected.add(1);
        plane.recorder.record(FlightKind::Shed, cid, shard, live);
        return false;
    }
    // Each connection gets an independent deterministic RNG stream:
    // the endpoint seed advanced by the (client-chosen) CID.
    let conn_seed = DetRng::new(worker.seed ^ cid).next_u64();
    let conn =
        mpquic_core::Connection::server(worker.config.clone(), worker.local.clone(), conn_seed);
    core.insert(
        cid,
        Box::new(QuicTransport::server(conn)),
        (worker.factory)(cid),
    );
    plane.stats.accepted.add(1);
    plane.recorder.record(FlightKind::Accept, cid, shard, 0);
    true
}

/// The endpoint's event loop; every worker runs this and nothing else.
/// Each receive batch is handled at one clock reading and feeds
/// connections in place (the payload never leaves the batch's buffer),
/// accepting first-seen CIDs inline; then
/// one `ShardCore::process` pass runs timers, applications, egress
/// and reaping over the connections that have something to do. Every
/// datagram pulled off the sockets is delivered to a connection or
/// counted under a reason, so once the loops are quiet the plane's
/// `datagrams_in` equals the shards' `delivered` summed plus
/// `malformed + rejected + tombstoned` (`/snapshot` shows both sides).
/// The loop parks on the sockets until a datagram, the earliest
/// connection deadline or a stop request ends the wait: after an
/// iteration that did nothing, at once unless a connection is
/// mid-transfer, when it spins and yields a few steps first; and after
/// a busy iteration that drained everything — a receive short of a
/// full batch, no connection left ready, nothing mid-transfer.
fn run_loop(worker: &Worker, mut sockets: SocketRegistry) {
    let plane = &*worker.plane;
    let shard = worker.shard as u32;
    let shard_plane = plane.shard(worker.shard);
    let mut batch = RecvBatch::new(RECV_BATCH);
    let mut core = ShardCore::new();
    let mut backoff = Backoff::new();
    let mut was_idle = true;
    // Last-published backend counters: each busy iteration folds only
    // the delta into the shared plane.
    let mut prev_backend = crate::BackendStats::default();

    loop {
        let iter_start = Instant::now();

        // 1. Ingress: one batched receive, each datagram routed by CID
        //    and handed to its connection. A receive error is counted,
        //    and whatever the batch took in before it is still served.
        if sockets.poll_recv_batch(&mut batch).is_err() {
            plane.stats.recv_errors.add(1);
        }
        let mut progressed = !batch.is_empty();
        let mut delivered = 0;
        if progressed {
            // One add per batch: every loop bumps this shared cell.
            plane.stats.datagrams_in.add(batch.len() as u64);
            // The whole batch is handled at one instant, read once.
            let now = core.now();
            for (meta, payload) in batch.iter() {
                let Some(cid) = PublicHeader::connection_id_of(payload) else {
                    plane.stats.malformed.add(1);
                    plane.recorder.record(FlightKind::Malformed, 0, shard, 0);
                    continue;
                };
                let fed = match core.deliver(now, cid, meta.local, meta.remote, payload) {
                    Delivery::Fed => true,
                    // Straggler for a finished connection (the client
                    // ACKing our CONNECTION_CLOSE, say).
                    Delivery::Retired => {
                        plane.stats.tombstoned.add(1);
                        false
                    }
                    Delivery::Unknown => {
                        accept(worker, &mut core, cid)
                            && core.deliver(now, cid, meta.local, meta.remote, payload)
                                == Delivery::Fed
                    }
                };
                if fed {
                    delivered += 1;
                }
            }
        }
        if delivered > 0 {
            shard_plane.delivered.add(delivered);
        }

        // 2. Timers, application progress, egress, reaping — for the
        //    connections ingress fed or whose deadline came due.
        progressed |= core.process(&mut sockets, &plane.stats, |cid| {
            plane.stats.active.sub(1);
            plane.stats.closed.add(1);
            plane.recorder.record(FlightKind::Retire, cid, shard, 0);
        });

        shard_plane.loop_iterations.add(1);
        if progressed {
            shard_plane.busy_iterations.add(1);
            if was_idle {
                shard_plane.wakeups.add(1);
            }
            shard_plane
                .loop_ns
                .record(iter_start.elapsed().as_nanos() as u64);
            shard_plane.conns_active.set(core.len() as u64);
            crate::shard::publish_backend_delta(plane, &mut prev_backend, &sockets);
        }
        was_idle = !progressed;

        // Acquire pairs with the Release store in `Endpoint::shutdown`:
        // whatever the closer wrote before raising the flag is visible
        // to this final iteration.
        if worker.stop.load(Ordering::Acquire) {
            break;
        }

        // 3. Wait. A stop raised after the check above ends the park
        //    below, and every later one: the wake is sticky. After a
        //    drained pass another receive would come back empty, and
        //    the park is level-triggered, so it returns at once if a
        //    datagram came in since. Spinning pays only while a
        //    connection is mid-transfer, its next datagram due within
        //    about an RTT; otherwise that datagram may be milliseconds
        //    away.
        if progressed {
            backoff.reset();
            if batch.is_full() || core.has_ready() || core.is_transferring() {
                continue;
            }
        } else if core.is_transferring() {
            if !backoff.wait_or_park(|| park(shard_plane, &mut sockets, &core)) {
                shard_plane.spins.add(1);
            }
            continue;
        }
        park(shard_plane, &mut sockets, &core);
        was_idle = true;
    }

    crate::shard::publish_backend_delta(plane, &mut prev_backend, &sockets);
}

/// Blocks the loop on its sockets until a datagram, the earliest
/// connection deadline (at once if one is already due) or a stop
/// request, and counts the park.
fn park(shard_plane: &ShardPlane, sockets: &mut SocketRegistry, core: &ShardCore) {
    shard_plane.parks.add(1);
    let parked_at = Instant::now();
    sockets.wait_readable(core.park_timeout());
    shard_plane
        .park_ns
        .record(parked_at.elapsed().as_nanos() as u64);
}
