//! The per-loop connection table: what one endpoint event loop owns.
//!
//! An [`crate::Endpoint`] runs N identical loops, and the kernel hands
//! each one exactly the datagrams whose connection ID maps to it under
//! [`shard_for_cid`] (DESIGN.md §12). A loop therefore owns a disjoint
//! connection set outright — its sockets, clock, pool-backed
//! [`TransmitQueue`], CID aliases and tombstones — and nothing on a
//! connection's packet path is shared with another thread: no lock, no
//! channel, no hand-off. What a loop did is counted in the endpoint's
//! metrics plane, not here.
//!
//! `ShardCore` is that state plus the pass over it (timers →
//! application poll → batched egress → reap), the
//! [`crate::Driver::step`] cycle generalised over a map of connections
//! instead of exactly one — and run over the connections that have
//! something to do, not over the map. Only two things can give a
//! connection something to do: a datagram (`ShardCore::deliver` puts
//! it on the ready list) and a deadline (every connection's
//! `next_timeout()` sits in one ordered set, and the due prefix joins
//! the ready list each pass); a third, egress that stopped at its
//! per-pass cap, keeps a connection on the list it was already on. A
//! connection that is on neither list costs the loop nothing.
//!
//! The pass also counts the connections that are mid-transfer
//! ([`mpquic_core::Connection::is_transferring`]), so the loop decides
//! in O(1) whether an idle moment is worth spinning through: only
//! while that count is non-zero is the next datagram due within about
//! an RTT.

use mpquic_core::buffer::DEFAULT_BATCH;
use mpquic_core::{PathOp, QuicTransport, TransmitQueue};
use mpquic_util::{Endpoint as _, SimTime};
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::time::Duration;

use crate::backend::BackendStats;
use crate::clock::Clock;
use crate::driver::{drain_egress, SEND_BUF_CAPACITY};
use crate::endpoint::{AppStatus, ConnApp, EndpointPlane, EndpointStats, Tombstones};
use crate::socket::SocketRegistry;

/// Application error code a loop closes with when the app layer
/// reports failure (checksum mismatch, protocol violation).
const APP_ERROR_CODE: u64 = 0x1;

/// Maps a connection ID to the loop that owns it: the CID's last byte
/// modulo the loop count.
///
/// This is the userspace statement of the rule the kernel runs on every
/// datagram ([`crate::mmsg::bind_steered`]'s three-instruction
/// program), so it has to stay that simple: one byte at a fixed offset,
/// hence at most [`crate::mmsg::MAX_STEERED`] loops. Client CIDs are
/// DetRng-random, so the byte is uniform; a rotated CID keeps it
/// ([`mpquic_core::Connection::rotate_cid`]), so a connection never
/// changes loops.
pub fn shard_for_cid(cid: u64, shards: usize) -> usize {
    (cid & 0xFF) as usize % shards.clamp(1, crate::mmsg::MAX_STEERED)
}

/// What [`ShardCore::deliver`] did with a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Handed to the connection that owns its CID.
    Fed,
    /// Its CID stopped routing recently: a straggler, dropped.
    Retired,
    /// A CID this loop has never routed: a candidate for accept.
    Unknown,
}

/// One connection owned by a shard.
struct ConnEntry {
    transport: Box<QuicTransport>,
    app: Box<dyn ConnApp>,
    /// The app finished (its verdict is counted); the connection is
    /// only reaped once the CONNECTION_CLOSE has gone to the wire.
    done: bool,
    /// On [`ShardCore::ready`] right now; set and cleared with the
    /// list, so the list never holds a connection twice.
    queued: bool,
    /// The deadline this connection holds in [`ShardCore::deadlines`]:
    /// its `next_timeout()` as of its last pass.
    armed: Option<SimTime>,
    /// Counted in [`ShardCore::transferring`]: its
    /// [`mpquic_core::Connection::is_transferring`] as of its last pass.
    transferring: bool,
}

/// One loop's connections and everything that routes to them.
pub(crate) struct ShardCore {
    clock: Clock,
    queue: TransmitQueue,
    conns: HashMap<u64, ConnEntry>,
    /// Rotated on-wire CIDs → the accept-time CID a connection stays
    /// keyed under. Connections are never rekeyed: a rotation adds an
    /// alias here, so old and new CIDs both reach the entry while they
    /// overlap in flight.
    aliases: HashMap<u64, u64>,
    /// CIDs this loop stopped routing — reaped connections, their
    /// aliases, rotated-away CIDs — whose stragglers must be dropped,
    /// not accepted as new connections.
    retired: Tombstones,
    reap: Vec<u64>,
    /// Scratch for path ops drained mid-iteration (the connection map
    /// is mutably borrowed there, so alias updates are deferred).
    path_ops: Vec<(u64, PathOp)>,
    /// Connections the next pass runs, keyed as in `conns`: fed a
    /// datagram, reached a deadline, or left with egress pending.
    ready: Vec<u64>,
    /// Every armed deadline, earliest first — exactly one element per
    /// connection whose `armed` is `Some`, and none for any other.
    deadlines: BTreeSet<(SimTime, u64)>,
    /// Owned connections whose `transferring` is set: those whose peer
    /// owes the next datagram within about an RTT.
    transferring: usize,
}

impl ShardCore {
    pub(crate) fn new() -> ShardCore {
        ShardCore {
            clock: Clock::new(),
            queue: TransmitQueue::new(DEFAULT_BATCH, SEND_BUF_CAPACITY),
            conns: HashMap::new(),
            aliases: HashMap::new(),
            retired: Tombstones::new(),
            reap: Vec::new(),
            path_ops: Vec::new(),
            ready: Vec::new(),
            deadlines: BTreeSet::new(),
            transferring: 0,
        }
    }

    /// Number of connections currently owned.
    pub(crate) fn len(&self) -> usize {
        self.conns.len()
    }

    /// The instant a receive batch is handled at: read once per batch,
    /// as [`crate::Driver::step`] does.
    pub(crate) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// True if some owned connection was mid-transfer at the end of its
    /// last pass (see [`mpquic_core::Connection::is_transferring`]): its
    /// next datagram is due within about an RTT, so an idle loop may
    /// spin for it rather than park at once.
    pub(crate) fn is_transferring(&self) -> bool {
        self.transferring > 0
    }

    /// True if the last pass left a connection ready — egress stopped
    /// at its cap, say — so the next pass has work without any datagram.
    pub(crate) fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Takes ownership of a freshly built connection under `cid`.
    pub(crate) fn insert(
        &mut self,
        cid: u64,
        transport: Box<QuicTransport>,
        app: Box<dyn ConnApp>,
    ) {
        self.conns.insert(
            cid,
            ConnEntry {
                transport,
                app,
                done: false,
                queued: false,
                armed: None,
                transferring: false,
            },
        );
    }

    /// Feeds one datagram received at `now` to the connection `cid`
    /// names and marks that connection ready for the next
    /// [`ShardCore::process`]. An owned accept-time CID costs one probe;
    /// the alias table is read only when that misses, and the tombstones
    /// only when both do.
    pub(crate) fn deliver(
        &mut self,
        now: SimTime,
        cid: u64,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) -> Delivery {
        let (key, entry) = match self.conns.get_mut(&cid) {
            Some(entry) => (cid, entry),
            None => {
                let alias = self.aliases.get(&cid).copied();
                match alias.and_then(|key| Some((key, self.conns.get_mut(&key)?))) {
                    Some(found) => found,
                    None if self.retired.contains(cid) => return Delivery::Retired,
                    None => return Delivery::Unknown,
                }
            }
        };
        entry.transport.handle_datagram(now, local, remote, payload);
        if !entry.queued {
            entry.queued = true;
            self.ready.push(key);
        }
        Delivery::Fed
    }

    /// How long the loop may block when a pass found nothing to do:
    /// until the earliest armed deadline, or for ever (`None`) when no
    /// connection has one — only a datagram can make work then.
    pub(crate) fn park_timeout(&self) -> Option<Duration> {
        let &(at, _) = self.deadlines.first()?;
        Some(at.saturating_duration_since(self.clock.now()))
    }

    /// One pass over the ready connections — those fed a datagram since
    /// the last pass, those whose deadline has come due, and those the
    /// last pass left with egress pending: fire the due timer, poll the
    /// application, drain batched egress, re-arm the deadline, recount
    /// the connection as mid-transfer or not, and reap closed
    /// connections (reporting each retired CID through `on_retire`). Path ops the connections queued — CID rotations,
    /// validation outcomes — bump the endpoint counters and update the
    /// alias table here; every CID that stops routing is tombstoned
    /// here and nowhere else. Returns `true` if anything happened.
    pub(crate) fn process(
        &mut self,
        sockets: &mut SocketRegistry,
        stats: &EndpointStats,
        mut on_retire: impl FnMut(u64),
    ) -> bool {
        let mut progressed = false;

        let now = self.clock.now();
        while let Some(&(at, cid)) = self.deadlines.first() {
            if at > now {
                break;
            }
            self.deadlines.pop_first();
            if let Some(entry) = self.conns.get_mut(&cid) {
                entry.armed = None;
                if !entry.queued {
                    entry.queued = true;
                    self.ready.push(cid);
                }
            }
        }

        // A connection that stays ready is pushed behind `batch`, so it
        // runs next pass, after the loop has been back to its sockets.
        let batch = self.ready.len();
        for i in 0..batch {
            let Some(&cid) = self.ready.get(i) else {
                break;
            };
            let Some(entry) = self.conns.get_mut(&cid) else {
                continue;
            };
            let now = self.clock.now();
            if entry.transport.next_timeout().is_some_and(|at| at <= now) {
                entry.transport.on_timeout(now);
                progressed = true;
            }

            if !entry.done {
                match entry.app.poll(&mut entry.transport) {
                    AppStatus::Pending => {}
                    AppStatus::Done { ok } => {
                        if ok {
                            stats.completed.add(1);
                            entry.transport.conn.close(0, "transfer complete");
                        } else {
                            stats.failed.add(1);
                            entry
                                .transport
                                .conn
                                .close(APP_ERROR_CODE, "transfer failed");
                        }
                        entry.done = true;
                        progressed = true;
                    }
                }
                // A peer-initiated (or error) close without an app
                // verdict counts as a failure.
                if !entry.done && entry.transport.conn.is_closed() {
                    stats.failed.add(1);
                    entry.done = true;
                }
            }

            // Egress. A socket-level refusal is fatal for this
            // connection only — close it; the loop and its other
            // connections keep running.
            let egress = drain_egress(&mut *entry.transport, &self.clock, &mut self.queue, sockets);
            progressed |= egress.datagrams > 0 || egress.capped;
            if egress.result.is_err() {
                if !entry.done {
                    stats.failed.add(1);
                    entry.done = true;
                }
                entry.transport.conn.close(APP_ERROR_CODE, "socket error");
                progressed = true;
            }

            // Path ops queued by anything above — ingress and timers
            // today — are collected now, not on a later visit: there
            // may be none for a long while. The connection map is
            // borrowed here, so alias-table updates are deferred past
            // the loop.
            while let Some(op) = entry.transport.conn.pop_path_op() {
                self.path_ops.push((cid, op));
                progressed = true;
            }

            // Whatever the pass did to the connection's timers, its
            // one element in `deadlines` now says so. A closed
            // connection has no deadline, so one about to be reaped
            // leaves the set here.
            let deadline = entry.transport.next_timeout();
            if entry.armed != deadline {
                if let Some(at) = entry.armed {
                    self.deadlines.remove(&(at, cid));
                }
                if let Some(at) = deadline {
                    self.deadlines.insert((at, cid));
                }
                entry.armed = deadline;
            }

            // A closed connection is never mid-transfer, so one about
            // to be reaped leaves the count here too.
            let transferring = entry.transport.conn.is_transferring();
            if entry.transferring != transferring {
                if transferring {
                    self.transferring += 1;
                } else {
                    self.transferring -= 1;
                }
                entry.transferring = transferring;
            }

            // Reap once the close frame has hit the wire. Otherwise a
            // connection stays ready only while it has egress the loop
            // alone knows about — more behind the cap, or the close a
            // socket error just queued: no datagram and no timer would
            // bring the loop back for either.
            if entry.done && entry.transport.conn.is_closed() {
                self.reap.push(cid);
            } else if egress.capped || egress.result.is_err() {
                self.ready.push(cid);
                continue;
            }
            entry.queued = false;
        }
        self.ready.drain(..batch);

        let mut ops = std::mem::take(&mut self.path_ops);
        for (canonical, op) in ops.drain(..) {
            match op {
                PathOp::MapCid(alias) => {
                    stats.cid_rotations_initiated.add(1);
                    self.aliases.insert(alias, canonical);
                }
                PathOp::UnmapCid(old) => {
                    stats.cid_rotations_completed.add(1);
                    self.aliases.remove(&old);
                    self.retired.insert(old);
                }
                PathOp::ValidationStarted => stats.path_validations_started.add(1),
                PathOp::ValidationCompleted => stats.path_validations_validated.add(1),
                PathOp::ValidationAbandoned => stats.path_validations_abandoned.add(1),
            }
        }
        self.path_ops = ops;

        for cid in self.reap.drain(..) {
            self.conns.remove(&cid);
            // Any live aliases of the reaped connection die with it — a
            // straggler carrying a rotated CID must be dropped, not
            // re-enter the accept path as a phantom connection.
            let retired = &mut self.retired;
            self.aliases.retain(|&alias, &mut canonical| {
                if canonical == cid {
                    retired.insert(alias);
                }
                canonical != cid
            });
            retired.insert(cid);
            on_retire(cid);
            progressed = true;
        }

        progressed
    }
}

/// Folds the registry's backend counters since the last publish into
/// the shared plane's `mpq_backend_*` family. Delta-based so the loop
/// can call it every busy iteration without double counting, and
/// allocation-free (the stats copy is a fixed-size struct).
pub(crate) fn publish_backend_delta(
    plane: &EndpointPlane,
    prev: &mut BackendStats,
    sockets: &SocketRegistry,
) {
    let cur = sockets.backend_stats();
    plane
        .stats
        .backend_fallbacks
        .add(cur.fallbacks.saturating_sub(prev.fallbacks));
    plane
        .stats
        .socket_send_drops
        .add(cur.send_drops.saturating_sub(prev.send_drops));
    plane
        .stats
        .socket_rx_queue_drops
        .add(cur.rx_queue_drops.saturating_sub(prev.rx_queue_drops));
    plane
        .backend_send_batch
        .merge_delta(&cur.send_batch, &prev.send_batch);
    plane
        .backend_recv_batch
        .merge_delta(&cur.recv_batch, &prev.recv_batch);
    *prev = cur;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1, 2, 3, 7, 16, 256, 1000] {
            for cid in [0u64, 1, 2, 0xABCD, 0xFF, 0x1FF, u64::MAX] {
                let first = shard_for_cid(cid, shards);
                assert!(first < shards);
                assert_eq!(first, shard_for_cid(cid, shards), "stable");
            }
        }
    }

    #[test]
    fn zero_shards_does_not_divide_by_zero() {
        assert_eq!(shard_for_cid(42, 0), 0);
    }

    #[test]
    fn only_the_last_byte_decides() {
        // The kernel program reads one byte; userspace must agree.
        for shards in [2usize, 3, 8] {
            for low in 0..=255u64 {
                let expect = low as usize % shards;
                assert_eq!(shard_for_cid(low, shards), expect);
                assert_eq!(shard_for_cid(0xDEAD_BEEF_0000_0100 | low, shards), expect);
            }
        }
        // Past 256 loops the extra ones can never be selected.
        assert_eq!(shard_for_cid(0xFF, 1000), 0xFF);
    }

    #[test]
    fn sequential_cids_spread_across_shards() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for cid in 0..800u64 {
            counts[shard_for_cid(cid, shards)] += 1;
        }
        assert_eq!(counts, vec![100; shards], "sequential CIDs round-robin");
    }
}
