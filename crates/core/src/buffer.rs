//! Pooled segment-train buffers for the batched egress datapath.
//!
//! The batched datapath ([`crate::Connection::poll_transmit_batch`])
//! produces many datagrams per call. Allocating a fresh `Vec<u8>` per
//! datagram would make allocator pressure scale with throughput, so the
//! buffers cycle through a [`BufferPool`]: taken when a train is opened,
//! handed to the socket layer inside a [`crate::Transmit`], and returned
//! once the bytes are on the wire. After a short warm-up the pool
//! reaches a steady state where the hot path performs no heap
//! allocation at all (buffers keep whatever capacity they grew to).
//!
//! [`TransmitQueue`] owns a pool of whole-train buffers plus the queue of
//! pending [`crate::Transmit`]s. The connection writes each datagram
//! straight to the tail of the newest *train* of its `(local, remote)`
//! pair, whose [`crate::Transmit::segment_size`] records the segment
//! boundary the way Linux `UDP_SEGMENT` does, and seals it there. A train
//! grows to the kernel's limits ([`MAX_TRAIN_SEGMENTS`] segments,
//! [`MAX_UDP_PAYLOAD`] bytes); the socket layer sends each in one syscall.
//!
//! This module is inside the no-panic lint scope (`cargo xtask lint`):
//! nothing here may index, unwrap or panic.

use std::collections::VecDeque;
use std::net::SocketAddr;

use crate::config::Transmit;

/// The largest UDP payload an IPv4 datagram can carry (65,535 − 20-byte
/// IP header − 8-byte UDP header): the most bytes Linux accepts in one
/// `UDP_SEGMENT` train, and the largest datagram a [`crate::Config`] may
/// name.
pub const MAX_UDP_PAYLOAD: usize = 65_507;

/// The most segments Linux accepts in one `UDP_SEGMENT` train (the
/// kernel's `UDP_MAX_SEGMENTS`). At the default 1,350-byte datagram the
/// byte limit binds first, at 48.
pub const MAX_TRAIN_SEGMENTS: usize = 64;

/// Default number of datagrams a [`TransmitQueue`] accepts per batch:
/// two full trains at the default 1,350-byte datagram.
pub const DEFAULT_BATCH: usize = 96;

/// Where the packet assembler puts a datagram: `finalize` asks for the
/// buffer the next `len`-byte datagram from `local` to `remote` is
/// appended to, then encodes and seals it there, in place.
pub(crate) trait DatagramSink {
    /// The buffer to append the datagram to; it lands at `buffer.len()`.
    fn buffer_for(&mut self, local: SocketAddr, remote: SocketAddr, len: usize) -> &mut Vec<u8>;
}

/// The one-datagram sink ([`crate::Connection::poll_transmit`]): the
/// datagram is the whole buffer.
impl DatagramSink for Vec<u8> {
    fn buffer_for(&mut self, _: SocketAddr, _: SocketAddr, _: usize) -> &mut Vec<u8> {
        self
    }
}

/// Counters describing pool behaviour, for telemetry and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out over the pool's lifetime.
    pub taken: u64,
    /// Buffers returned over the pool's lifetime.
    pub returned: u64,
    /// `take` calls that had to allocate because the free list was empty
    /// (a steady-state datapath stops incrementing this after warm-up).
    pub misses: u64,
}

/// A fixed-capacity pool of reusable byte buffers.
///
/// `take` pops a cleared buffer (allocating only when the pool is
/// empty); `put` returns one. In debug builds the pool is leak-checked:
/// dropping it while buffers are still outstanding trips a
/// `debug_assert`, so a datapath that forgets to recycle fails loudly in
/// tests instead of silently degrading to per-datagram allocation.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    buf_capacity: usize,
    max_buffers: usize,
    outstanding: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates a pool of `max_buffers` buffers, each preallocated with
    /// `buf_capacity` bytes of capacity.
    pub fn new(max_buffers: usize, buf_capacity: usize) -> BufferPool {
        let max_buffers = max_buffers.max(1);
        let mut free = Vec::with_capacity(max_buffers);
        for _ in 0..max_buffers {
            free.push(Vec::with_capacity(buf_capacity));
        }
        BufferPool {
            free,
            buf_capacity,
            max_buffers,
            outstanding: 0,
            stats: PoolStats::default(),
        }
    }

    /// Pops a cleared buffer, allocating a fresh one only when the pool
    /// has run dry (counted in [`PoolStats::misses`]).
    pub fn take(&mut self) -> Vec<u8> {
        self.outstanding += 1;
        self.stats.taken += 1;
        match self.free.pop() {
            Some(buf) => buf,
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(self.buf_capacity)
            }
        }
    }

    /// Returns a buffer to the pool. The buffer is cleared but keeps its
    /// capacity; buffers beyond the pool's fixed size are dropped.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.stats.returned += 1;
        if self.free.len() < self.max_buffers {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Buffers on the free list, ready to be taken without allocating.
    pub(crate) fn available(&self) -> usize {
        self.free.len()
    }

    /// Buffers currently taken and not yet returned.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Leak check (debug builds): every taken buffer must have been
        // returned by the time the pool goes away. Skipped during panics
        // so a failing test reports its own assertion, not this one.
        if cfg!(debug_assertions) && !std::thread::panicking() {
            debug_assert_eq!(
                self.outstanding, 0,
                "BufferPool dropped with {} leaked buffer(s)",
                self.outstanding
            );
        }
    }
}

/// A bounded queue of pool-backed segment trains, filled by
/// [`crate::Connection::poll_transmit_batch`] and drained by the socket
/// layer.
///
/// Capacity is counted in *segments* (individual datagrams on the
/// wire), so a batch never outgrows what the socket layer sized its
/// syscall arrays for; memory is counted in *trains*. The pool holds
/// one buffer per train the queue fills, each as large as a train may
/// grow, plus one datagram-sized spare: a datagram that cannot join the
/// newest train of its path when no train buffer is free lands there,
/// and the queue is then full. So a batch never allocates, whatever the
/// order of its paths.
#[derive(Debug)]
pub struct TransmitQueue {
    /// Whole-train buffers.
    pool: BufferPool,
    /// The datagram-sized spare, home when `Some`.
    spare: Option<Vec<u8>>,
    /// Trains the pool holds buffers for.
    trains: usize,
    /// The byte limit of one train.
    train_bytes: usize,
    /// Trains, oldest first; a datagram may join the newest of its path.
    items: VecDeque<Transmit>,
    /// Leading `items` no datagram joins: up to the last one pushed.
    pushed: usize,
    max_segments: usize,
    limit: usize,
    queued_segments: usize,
    coalesced: u64,
}

impl TransmitQueue {
    /// A queue accepting up to `max_segments` datagrams per batch, each
    /// up to `datagram_capacity` bytes. It preallocates about what
    /// `max_segments` datagram buffers would take: one datagram's worth
    /// as the spare, the rest as trains of at most [`MAX_TRAIN_SEGMENTS`]
    /// such datagrams and [`MAX_UDP_PAYLOAD`] bytes — so a small queue
    /// gets small train buffers.
    pub fn new(max_segments: usize, datagram_capacity: usize) -> TransmitQueue {
        let max_segments = max_segments.max(1);
        let in_trains = max_segments.saturating_sub(1).max(1);
        let per_train = in_trains.min(MAX_TRAIN_SEGMENTS);
        let trains = in_trains.div_ceil(per_train);
        let train_bytes = per_train
            .saturating_mul(datagram_capacity)
            .min(MAX_UDP_PAYLOAD);
        TransmitQueue {
            pool: BufferPool::new(trains, train_bytes),
            spare: Some(Vec::with_capacity(datagram_capacity)),
            trains,
            train_bytes,
            items: VecDeque::with_capacity(trains + 1),
            pushed: 0,
            max_segments,
            limit: max_segments,
            queued_segments: 0,
            coalesced: 0,
        }
    }

    /// A queue of [`DEFAULT_BATCH`] datagrams of the wire's maximum size;
    /// `_config` sizes nothing (the signature stays for its callers).
    pub fn for_config(_config: &crate::Config) -> TransmitQueue {
        TransmitQueue::new(DEFAULT_BATCH, mpquic_wire::MAX_DATAGRAM_SIZE)
    }

    /// Caps the datagrams the queue holds at `segments` (never above
    /// its capacity) from now on: a sender with a per-step budget fills
    /// no more than it has left.
    pub fn limit_segments(&mut self, segments: usize) {
        self.limit = segments.min(self.max_segments);
    }

    /// True while the queue can accept at least one more datagram, for
    /// any path and of any size: the segment limit is not reached, and
    /// a train buffer or the spare is free for a datagram that cannot
    /// join a queued train.
    pub fn has_capacity(&self) -> bool {
        self.queued_segments < self.limit && (self.pool.available() > 0 || self.spare.is_some())
    }

    /// Returns a buffer (one popped inside a [`Transmit`]) to the pool
    /// or, if it is the spare, to its slot.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        let spare = self.spare.is_none()
            && (buf.capacity() < self.train_bytes || self.pool.available() >= self.trains);
        if spare {
            buf.clear();
            self.spare = Some(buf);
        } else {
            self.pool.put(buf);
        }
    }

    /// Enqueues an externally built [`Transmit`] (not pool-backed; used
    /// by the generic one-at-a-time shims). Neither it nor a train before
    /// it is ever joined: the payload's allocation is owned by the caller.
    pub fn push(&mut self, transmit: Transmit) {
        self.queued_segments += transmit.segment_count();
        self.items.push_back(transmit);
        self.pushed = self.items.len();
    }

    /// Dequeues the next transmit, oldest first. Its payload buffer
    /// should come back via [`TransmitQueue::recycle`] once sent
    /// (pool-backed payloads that are dropped instead trip the debug
    /// leak check).
    pub fn pop(&mut self) -> Option<Transmit> {
        let transmit = self.items.pop_front()?;
        self.pushed = self.pushed.saturating_sub(1);
        self.queued_segments = self
            .queued_segments
            .saturating_sub(transmit.segment_count());
        Some(transmit)
    }

    /// Queue entries (GSO trains count once).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Datagrams queued (each train segment counts).
    pub fn segments(&self) -> usize {
        self.queued_segments
    }

    /// Segments appended to an existing train over the queue's lifetime.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Pool counters (one take per train opened).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Whether a `len`-byte datagram may join the train at `at`: queued
    /// after the last pushed transmit, no longer than its segments, not
    /// closed by a short one, and within the kernel's limits afterwards.
    fn joins(&self, at: usize, len: usize) -> bool {
        let Some(train) = self.items.get(at).filter(|_| at >= self.pushed) else {
            return false;
        };
        // The first datagram fixes the segment size, and only the final
        // segment may be short: a short segment closes the train.
        let seg = match train.segment_size {
            Some(seg) => seg,
            None => train.payload.len(),
        };
        seg > 0
            && len <= seg
            && train.payload.len().is_multiple_of(seg)
            && train.payload.len() / seg < MAX_TRAIN_SEGMENTS
            && train.payload.len() + len <= self.train_bytes
    }
}

/// The batched sink: a datagram joins the newest train of its path if it
/// can, else opens the next in a free train buffer or the spare. Never an
/// older train: a path's datagrams keep their build order, the only order
/// that reaches a peer, so grouping a batch by path shows nowhere.
impl DatagramSink for TransmitQueue {
    fn buffer_for(&mut self, local: SocketAddr, remote: SocketAddr, len: usize) -> &mut Vec<u8> {
        self.queued_segments += 1;
        let on_path = |train: &Transmit| train.local == local && train.remote == remote;
        let newest = self.items.iter().rposition(on_path);
        let at = match newest.filter(|&at| self.joins(at, len)) {
            Some(at) => {
                self.coalesced += 1;
                at
            }
            None => {
                let payload = match self.spare.take() {
                    Some(spare) if self.pool.available() == 0 => spare,
                    spare => {
                        self.spare = spare;
                        self.pool.take()
                    }
                };
                self.items.push_back(Transmit {
                    local,
                    remote,
                    payload,
                    segment_size: None,
                });
                self.items.len() - 1
            }
        };
        match self.items.get_mut(at) {
            Some(train) if train.payload.is_empty() => &mut train.payload,
            Some(train) => {
                train.segment_size.get_or_insert(train.payload.len());
                &mut train.payload
            }
            // Not reached: `at` names the train just joined or opened.
            None => self.spare.get_or_insert_with(Vec::new),
        }
    }
}

impl Drop for TransmitQueue {
    fn drop(&mut self) {
        // Return queued payloads so the pool's leak check only fires for
        // buffers the *caller* popped and failed to recycle.
        while let Some(transmit) = self.pop() {
            self.recycle(transmit.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    #[test]
    fn pool_reuses_buffers_without_allocating() {
        let mut pool = BufferPool::new(4, 1500);
        let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| pool.take()).collect();
        assert_eq!(pool.outstanding(), 4);
        assert_eq!(pool.stats().misses, 0, "preallocated buffers suffice");
        for buf in &mut bufs {
            buf.extend_from_slice(&[0xAB; 100]);
        }
        for buf in bufs {
            pool.put(buf);
        }
        assert_eq!(pool.outstanding(), 0);
        let again = pool.take();
        assert!(again.is_empty(), "returned buffers are cleared");
        assert!(again.capacity() >= 1500, "capacity is retained");
        pool.put(again);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn pool_overflow_allocates_and_counts_misses() {
        let mut pool = BufferPool::new(1, 64);
        let a = pool.take();
        let b = pool.take();
        assert_eq!(pool.stats().misses, 1);
        pool.put(a);
        pool.put(b); // beyond max_buffers: dropped, not pooled
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "leaked buffer")]
    #[cfg(debug_assertions)]
    fn pool_leak_check_fires_in_debug() {
        let mut pool = BufferPool::new(2, 64);
        let leaked = pool.take();
        std::mem::forget(leaked);
        drop(pool); // panics: 1 outstanding
    }

    /// Writes one `len`-byte datagram of `fill` the way the connection
    /// does: while the queue has capacity, straight into the buffer it
    /// names for the datagram.
    fn write(q: &mut TransmitQueue, from: u16, to: u16, fill: u8, len: usize) {
        assert!(q.has_capacity(), "written only while there is room");
        let buf = q.buffer_for(addr(from), addr(to), len);
        buf.resize(buf.len() + len, fill);
    }

    /// Pops every queued train, recycling its buffer: `(segments,
    /// bytes)` per train, in send order.
    fn drain(q: &mut TransmitQueue) -> Vec<(usize, usize)> {
        let mut trains = Vec::new();
        while let Some(t) = q.pop() {
            trains.push((t.segment_count(), t.payload.len()));
            q.recycle(t.payload);
        }
        trains
    }

    #[test]
    fn queue_coalesces_equal_size_same_path_runs() {
        let mut q = TransmitQueue::new(16, 1500);
        for _ in 0..3 {
            write(&mut q, 1, 2, 1, 100);
        }
        assert_eq!(q.len(), 1, "three equal segments form one train");
        assert_eq!(q.segments(), 3);
        assert_eq!(q.coalesced(), 2);
        let t = q.pop().expect("queued");
        assert_eq!(t.segment_size, Some(100));
        assert_eq!(t.payload.len(), 300);
        assert_eq!(t.segment_count(), 3);
        q.recycle(t.payload);
    }

    #[test]
    fn queue_does_not_coalesce_across_paths_or_after_short_segment() {
        let mut q = TransmitQueue::new(DEFAULT_BATCH, 1500);
        write(&mut q, 1, 2, 1, 100);
        // Different remote: new entry.
        write(&mut q, 1, 3, 2, 100);
        assert_eq!(q.len(), 2);
        // Short segment joins its train but closes it...
        write(&mut q, 1, 3, 3, 40);
        assert_eq!(q.len(), 2);
        // ...so the next full-size datagram starts a fresh entry.
        write(&mut q, 1, 3, 4, 100);
        assert_eq!(q.len(), 3);
        assert_eq!(q.segments(), 4);
        assert_eq!(drain(&mut q), [(1, 100), (2, 140), (1, 100)]);
        assert_eq!(q.pool_stats().misses, 0);
    }

    #[test]
    fn queue_capacity_counts_segments_not_entries() {
        let mut q = TransmitQueue::new(3, 1500);
        for _ in 0..3 {
            assert!(q.has_capacity());
            write(&mut q, 1, 2, 9, 50);
        }
        assert!(!q.has_capacity(), "3 segments fill a 3-segment queue");
        assert_eq!(q.len(), 1, "even though they coalesced into one entry");
        let t = q.pop().expect("queued");
        assert!(q.has_capacity());
        q.recycle(t.payload);
    }

    #[test]
    fn train_segments_iterate_in_order() {
        let mut q = TransmitQueue::new(8, 1500);
        for fill in [10u8, 20, 30] {
            write(&mut q, 7, 8, fill, 64);
        }
        let t = q.pop().expect("queued");
        let segs: Vec<&[u8]> = t.segments().collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], &[10u8; 64][..]);
        assert_eq!(segs[1], &[20u8; 64][..]);
        assert_eq!(segs[2], &[30u8; 64][..]);
        q.recycle(t.payload);
    }

    /// 48 full 1,350-byte datagrams are one kernel-size train (48 ×
    /// 1,350 = 64,800 B; a 49th would pass 65,507), and the 49th opens
    /// the next; the default queue holds two such trains.
    #[test]
    fn default_datagrams_make_48_segment_trains() {
        let mut q = TransmitQueue::new(DEFAULT_BATCH, 1350);
        for _ in 0..48 {
            write(&mut q, 1, 2, 0xAA, 1350);
        }
        assert_eq!(q.len(), 1);
        write(&mut q, 1, 2, 0xAA, 1350);
        assert_eq!(q.len(), 2, "the 49th datagram opens the next train");
        while q.has_capacity() {
            write(&mut q, 1, 2, 0xAA, 1350);
        }
        assert_eq!(q.segments(), DEFAULT_BATCH);
        assert_eq!(drain(&mut q), [(48, 64_800), (48, 64_800)]);
        let stats = q.pool_stats();
        assert_eq!((stats.taken, stats.misses), (2, 0), "one buffer per train");
    }

    /// Whichever of the kernel's two limits binds first ends a train:
    /// bytes at 1,500 B (43) and 9,000 B (7), segments at 1,000 B (64).
    /// No train ever passes 65,507 bytes.
    #[test]
    fn trains_stop_at_the_kernels_limits() {
        for (size, per_train) in [(1_000, 64), (1_350, 48), (1_500, 43), (9_000, 7)] {
            let mut q = TransmitQueue::new(2 * MAX_TRAIN_SEGMENTS + 1, size);
            for _ in 0..=per_train {
                write(&mut q, 1, 2, 0x55, size);
            }
            let trains = drain(&mut q);
            assert_eq!(
                trains,
                [(per_train, per_train * size), (1, size)],
                "{size} B"
            );
            assert!(trains.iter().all(|&(_, bytes)| bytes <= MAX_UDP_PAYLOAD));
            assert_eq!(q.pool_stats().misses, 0);
        }
    }

    /// With every train buffer in use, a datagram for another path takes
    /// the datagram-sized spare and the queue is full: no batch
    /// allocates, whatever order its paths come in.
    #[test]
    fn a_datagram_for_another_path_takes_the_spare() {
        let mut q = TransmitQueue::new(4, 100);
        write(&mut q, 1, 2, 1, 100);
        assert!(q.has_capacity(), "the spare is still free");
        write(&mut q, 1, 3, 2, 100);
        assert!(!q.has_capacity(), "no train buffer and no spare left");
        assert_eq!(drain(&mut q), [(1, 100), (1, 100)]);
        assert!(q.has_capacity());
        // The spare went back to its slot, the train buffer to the pool.
        write(&mut q, 1, 3, 3, 100);
        write(&mut q, 1, 2, 4, 100);
        assert_eq!(drain(&mut q), [(1, 100), (1, 100)]);
        assert_eq!(q.pool_stats().misses, 0);
    }

    /// Alternating paths, as a fresh path's duplication sends them:
    /// each path fills one train, and the trains pop in the order they
    /// opened.
    #[test]
    fn interleaved_paths_keep_one_train_each() {
        let mut q = TransmitQueue::new(DEFAULT_BATCH, 1350);
        for _ in 0..10 {
            write(&mut q, 1, 3, 1, 1350);
            write(&mut q, 2, 4, 2, 1350);
        }
        assert_eq!(q.coalesced(), 18);
        let mut trains = Vec::new();
        while let Some(t) = q.pop() {
            assert!(t.segments().all(|seg| seg.len() == 1350));
            trains.push((t.local.port(), t.segment_count()));
            q.recycle(t.payload);
        }
        assert_eq!(trains, [(1, 10), (2, 10)]);
        let stats = q.pool_stats();
        assert_eq!((stats.taken, stats.misses), (2, 0), "one buffer per path");
    }

    /// A datagram joins only the newest train of its path: joining an
    /// older one would put it on the wire before datagrams built ahead
    /// of it on the same path.
    #[test]
    fn a_datagram_never_joins_an_older_train_of_its_path() {
        let mut q = TransmitQueue::new(DEFAULT_BATCH, 1500);
        write(&mut q, 1, 2, 1, 40);
        // Longer than the first train's segments: a second train...
        write(&mut q, 1, 2, 2, 100);
        // ...which a short datagram joins and closes.
        write(&mut q, 1, 2, 3, 40);
        // The first train could take this one, but it is older.
        write(&mut q, 1, 2, 4, 40);
        assert_eq!(q.len(), 3);
        let mut fills = Vec::new();
        while let Some(t) = q.pop() {
            fills.push(t.segments().map(|seg| seg[0]).collect::<Vec<u8>>());
            q.recycle(t.payload);
        }
        assert_eq!(fills, [vec![1], vec![2, 3], vec![4]], "build order kept");
        assert_eq!(q.pool_stats().misses, 0);
    }

    /// A pushed transmit belongs to its caller: no datagram joins it,
    /// nor a train queued before it.
    #[test]
    fn a_pushed_transmit_is_never_joined() {
        let mut q = TransmitQueue::new(DEFAULT_BATCH, 1500);
        write(&mut q, 1, 3, 1, 100);
        q.push(Transmit {
            local: addr(1),
            remote: addr(2),
            payload: vec![2; 100],
            segment_size: None,
        });
        write(&mut q, 1, 2, 3, 100);
        write(&mut q, 1, 3, 4, 100);
        assert_eq!(q.segments(), 4);
        let mut trains = Vec::new();
        while let Some(t) = q.pop() {
            trains.push((t.remote.port(), t.segment_count(), t.payload[0]));
            if t.payload[0] != 2 {
                q.recycle(t.payload);
            }
        }
        assert_eq!(trains, [(3, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 4)]);
        assert_eq!(q.coalesced(), 0);
    }

    #[test]
    fn a_segment_limit_caps_the_batch() {
        let mut q = TransmitQueue::new(DEFAULT_BATCH, 1350);
        q.limit_segments(5);
        for _ in 0..5 {
            assert!(q.has_capacity());
            write(&mut q, 1, 2, 0, 1350);
        }
        assert!(!q.has_capacity());
        q.limit_segments(usize::MAX);
        assert!(q.has_capacity(), "never above the queue's own capacity");
        assert_eq!(drain(&mut q), [(5, 5 * 1350)]);
    }
}
