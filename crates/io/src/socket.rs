//! The socket registry: one non-blocking UDP socket per local address,
//! with a batched datapath.
//!
//! A multipath endpoint is multihomed by definition — the client in the
//! paper's Fig. 2 owns a WiFi and an LTE interface. The registry binds one
//! `std::net::UdpSocket` per local address, keeps them all in non-blocking
//! mode, and routes each outgoing datagram to the socket bound to its
//! source address (that is how a `Transmit` selects its path at the OS
//! level).
//!
//! The hot paths are *batched* and run through a [`Backend`] (see
//! [`crate::backend`]): [`send_train`] fans a GSO-shaped segment train
//! out in one call (GSO or `sendmmsg` on Linux, the portable loop
//! elsewhere) and [`poll_recv_batch`] fills a [`RecvBatch`] with one
//! batched receive per socket, round-robining so a busy path cannot
//! starve a quiet one. A kernel that answers `ENOSYS` to the batched
//! syscalls has the backend swapped for the portable loop *mid-train*:
//! the registry retries the unsent suffix on the replacement, so the
//! descent never loses queued datagrams. Any other error is about one
//! datagram or destination and is the caller's, not the backend's.
//! Per-batch telemetry ([`BatchStats`]) records the datagrams-per-
//! syscall histogram and the syscalls saved versus a one-at-a-time
//! loop. A lone datagram is a one-segment train (`segment_size: None`).
//!
//! A loop with nothing to do parks on its registry
//! ([`wait_readable`]): a blocking wait for a datagram on any of the
//! registry's sockets, a [`Waker`] from another thread, or a timeout —
//! whichever comes first.
//!
//! Send-buffer drops are counted **per socket** so a report can show
//! *which* interface was overwhelmed, not just that one was.
//!
//! [`send_train`]: SocketRegistry::send_train
//! [`poll_recv_batch`]: SocketRegistry::poll_recv_batch
//! [`wait_readable`]: SocketRegistry::wait_readable

use mpquic_telemetry::LogHistogram;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use crate::backend::{self, Backend, BackendChoice, BackendKind, BackendStats};
use crate::backoff::Backoff;
use crate::mmsg::{self, Parker, Waker};

/// Largest datagram the registry can receive (UDP's theoretical maximum;
/// the connection itself never sends more than its configured MTU).
pub const MAX_DATAGRAM: usize = 65_535;

/// How many times a send that hit a full socket buffer is retried before
/// the remaining datagrams are treated as dropped (loss recovery
/// retransmits them). The retries walk the [`Backoff`] ladder, so the
/// early ones are near-free spins and only a persistently full buffer
/// accumulates real sleep time (~150 µs total, matching the fixed
/// 3 × 50 µs budget this replaces).
const SEND_RETRIES: u32 = 12;

/// Kernel buffer size requested for every bound socket (clamped by the
/// kernel to `rmem_max`/`wmem_max`). The default ~208 KiB receive
/// buffer holds a listen socket only ~170 full datagrams of burst; with
/// many connections served through one socket, one scheduling stall of
/// the loop that drains it overflows it and triggers an RTO storm.
/// 4 MiB matches the common `rmem_max` ceiling.
const SOCKET_BUFFER_BYTES: usize = 4 << 20;

/// `ENOSYS`: the one errno that condemns a whole backend. Everything
/// else a batched syscall returns (`EMSGSIZE`, a netfilter `EPERM`, …)
/// is about the datagram or destination in hand.
const ENOSYS: i32 = 38;

/// One received datagram's addressing, paired with a caller buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvMeta {
    /// The local address the datagram arrived on (identifies the path's
    /// local end).
    pub local: SocketAddr,
    /// The sender's address.
    pub remote: SocketAddr,
    /// Payload length within the caller's buffer.
    pub len: usize,
}

/// Per-batch datapath telemetry: how well the syscall batching works.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Batched send syscalls issued.
    pub send_syscalls: u64,
    /// Batched receive syscalls that returned at least one datagram.
    pub recv_syscalls: u64,
    /// Syscalls avoided versus a one-datagram-per-syscall loop
    /// (`datagrams - syscalls`, summed; 0 on platforms without native
    /// batching).
    pub syscalls_saved: u64,
    /// Datagrams handed to the OS per send syscall.
    pub send_batch_size: LogHistogram,
    /// Datagrams returned per productive receive syscall.
    pub recv_batch_size: LogHistogram,
}

impl BatchStats {
    /// Folds another registry's counters into this one — used to
    /// aggregate the per-loop registries of an endpoint into one
    /// report without sharing any state between the loops at runtime.
    pub fn merge(&mut self, other: &BatchStats) {
        self.send_syscalls += other.send_syscalls;
        self.recv_syscalls += other.recv_syscalls;
        self.syscalls_saved += other.syscalls_saved;
        self.send_batch_size.merge(&other.send_batch_size);
        self.recv_batch_size.merge(&other.recv_batch_size);
    }
}

/// One bound socket plus its local counters.
#[derive(Debug)]
struct Entry {
    local: SocketAddr,
    socket: UdpSocket,
    /// Datagrams abandoned after repeated `WouldBlock` on send — kept
    /// per socket so reports can name the overwhelmed interface.
    send_drops: u64,
}

impl Entry {
    /// Takes a bound socket into the registry: non-blocking, kernel
    /// buffers grown, local address resolved.
    fn new(socket: UdpSocket) -> io::Result<Entry> {
        socket.set_nonblocking(true)?;
        mmsg::set_buffer_sizes(&socket, SOCKET_BUFFER_BYTES);
        Ok(Entry {
            local: socket.local_addr()?,
            socket,
            send_drops: 0,
        })
    }
}

/// A reusable receive batch: fixed buffers plus the metadata of the
/// datagrams the last [`SocketRegistry::poll_recv_batch`] call filled
/// them with. Buffer `i` pairs with meta `i`; after warm-up the batch
/// performs no allocation.
#[derive(Debug)]
pub struct RecvBatch {
    bufs: Vec<Vec<u8>>,
    metas: Vec<RecvMeta>,
}

impl RecvBatch {
    /// A batch accepting up to `capacity` datagrams per poll, each up
    /// to [`MAX_DATAGRAM`] bytes.
    pub fn new(capacity: usize) -> RecvBatch {
        let capacity = capacity.max(1);
        RecvBatch {
            bufs: (0..capacity).map(|_| vec![0u8; MAX_DATAGRAM]).collect(),
            metas: Vec::with_capacity(capacity),
        }
    }

    /// Datagrams held from the last poll.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when the last poll returned nothing.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The received datagrams, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (RecvMeta, &[u8])> {
        self.metas
            .iter()
            .zip(self.bufs.iter())
            .map(|(meta, buf)| (*meta, buf.get(..meta.len).unwrap_or(&[])))
    }

    fn clear(&mut self) {
        self.metas.clear();
    }
}

/// A set of non-blocking UDP sockets, one per local interface address.
#[derive(Debug)]
pub struct SocketRegistry {
    sockets: Vec<Entry>,
    /// Round-robin cursor so receive polls serve interfaces fairly.
    cursor: usize,
    /// The datapath implementation (see [`crate::backend`]); swapped in
    /// place for the portable loop when the kernel answers `ENOSYS`.
    backend: Box<dyn Backend>,
    /// Backend swaps taken by *this* registry — reported by
    /// [`SocketRegistry::backend_stats`] on top of the backend's own
    /// GSO fallback count.
    backend_fallbacks: u64,
    /// Scratch for `(remote, len)` pairs coming back from a batch recv.
    pairs: Vec<(SocketAddr, usize)>,
    batch: BatchStats,
    /// What [`SocketRegistry::wait_readable`] blocks on.
    parker: Parker,
}

impl SocketRegistry {
    /// Binds one non-blocking socket per address. Addresses may use port 0
    /// (the OS assigns an ephemeral port); [`SocketRegistry::local_addrs`]
    /// reports the addresses actually bound — those are what must be
    /// handed to `Connection::client`/`Connection::server`.
    pub fn bind(addrs: &[SocketAddr]) -> io::Result<SocketRegistry> {
        Self::bind_with(addrs, BackendChoice::Auto)
    }

    /// [`SocketRegistry::bind`] starting on the backend `choice` names
    /// — how tests and benchmarks pin an arm. The choice cannot fail;
    /// the error is the sockets'.
    pub fn bind_with(addrs: &[SocketAddr], choice: BackendChoice) -> io::Result<SocketRegistry> {
        assert!(!addrs.is_empty(), "at least one local address required");
        let sockets = addrs
            .iter()
            .map(UdpSocket::bind)
            .collect::<io::Result<Vec<_>>>()?;
        Self::from_sockets(sockets, choice)
    }

    /// Binds `addrs` once per event loop: up to `loops` registries over
    /// the *same* addresses, registry `i` receiving exactly the
    /// datagrams whose connection ID maps to `i` under
    /// [`crate::shard_for_cid`] — the kernel steers them
    /// ([`mmsg::bind_steered`]), so no loop ever sees, or has to pass
    /// on, another loop's traffic. Port 0 is resolved once per address
    /// and shared by every registry.
    ///
    /// Where the platform cannot steer, one ordinary registry is
    /// returned instead: the caller runs as many loops as it was given
    /// registries.
    pub fn bind_steered(addrs: &[SocketAddr], loops: usize) -> io::Result<Vec<SocketRegistry>> {
        assert!(!addrs.is_empty(), "at least one local address required");
        // Socket `i` of every address's group goes to registry `i`.
        let mut per_loop: Vec<Vec<UdpSocket>> = Vec::new();
        for &addr in addrs {
            match mmsg::bind_steered(addr, loops) {
                Ok(group) => {
                    per_loop.resize_with(group.len(), Vec::new);
                    for (sockets, socket) in per_loop.iter_mut().zip(group) {
                        sockets.push(socket);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                    if loops > 1 {
                        eprintln!("warn: no kernel CID steering ({e}); serving with one loop");
                    }
                    // Release any group already bound before rebinding
                    // its (possibly fixed) port the ordinary way.
                    drop(per_loop);
                    return Ok(vec![Self::bind(addrs)?]);
                }
                Err(e) => return Err(e),
            }
        }
        per_loop
            .into_iter()
            .map(|sockets| Self::from_sockets(sockets, BackendChoice::Auto))
            .collect()
    }

    fn from_sockets(sockets: Vec<UdpSocket>, choice: BackendChoice) -> io::Result<SocketRegistry> {
        Ok(SocketRegistry {
            backend: backend::create(choice),
            sockets: sockets
                .into_iter()
                .map(Entry::new)
                .collect::<io::Result<Vec<_>>>()?,
            cursor: 0,
            backend_fallbacks: 0,
            pairs: Vec::with_capacity(mmsg::MAX_BATCH),
            batch: BatchStats::default(),
            parker: Parker::default(),
        })
    }

    /// The bound local addresses, in bind order.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.sockets.iter().map(|entry| entry.local).collect()
    }

    /// Rebinds the socket bound to `old_local` onto a fresh ephemeral
    /// port on the same interface, returning the new local address —
    /// the client half of a NAT rebinding / connection migration.
    /// Subsequent sends routed to the returned address leave from the
    /// new source port; anything still in the old socket's receive
    /// buffer is abandoned with it (to the transport that is loss, and
    /// is recovered the same way).
    pub fn rebind(&mut self, old_local: SocketAddr) -> io::Result<SocketAddr> {
        let index = self
            .sockets
            .iter()
            .position(|entry| entry.local == old_local)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no socket bound to {old_local}"),
                )
            })?;
        let mut fresh = old_local;
        fresh.set_port(0);
        let rebound = Entry::new(UdpSocket::bind(fresh)?)?;
        let local = rebound.local;
        if let Some(entry) = self.sockets.get_mut(index) {
            entry.socket = rebound.socket;
            entry.local = local;
        }
        Ok(local)
    }

    /// Number of sockets in the registry.
    pub fn len(&self) -> usize {
        self.sockets.len()
    }

    /// True if the registry holds no sockets (never, post-`bind`).
    pub fn is_empty(&self) -> bool {
        self.sockets.is_empty()
    }

    /// Total datagrams abandoned because a socket buffer stayed full.
    pub fn send_drops(&self) -> u64 {
        self.sockets.iter().map(|entry| entry.send_drops).sum()
    }

    /// Send drops broken down by local address, in bind order.
    pub fn send_drops_per_socket(&self) -> Vec<(SocketAddr, u64)> {
        self.sockets
            .iter()
            .map(|entry| (entry.local, entry.send_drops))
            .collect()
    }

    /// Datapath batching telemetry.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch
    }

    /// Which datapath backend this registry is currently running on
    /// (`Portable` after an `ENOSYS` descent, whatever it started on).
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Backend telemetry, read off the one tally [`BatchStats`] keeps:
    /// every batch-size sample is that many datagrams submitted and
    /// completed. Fallbacks are this registry's backend swaps plus the
    /// live backend's GSO → `sendmmsg` drop.
    pub fn backend_stats(&self) -> BackendStats {
        let mut sqe_batch = self.batch.send_batch_size.clone();
        sqe_batch.merge(&self.batch.recv_batch_size);
        BackendStats {
            submissions: sqe_batch.sum(),
            completions: sqe_batch.sum(),
            fallbacks: self.backend_fallbacks + self.backend.gso_fallbacks(),
            sqe_batch,
        }
    }

    /// Swaps the live backend out — test hook for simulating a kernel
    /// that starts returning `ENOSYS`.
    #[cfg(test)]
    pub(crate) fn set_backend_for_tests(&mut self, backend: Box<dyn Backend>) {
        self.backend = backend;
    }

    /// Swaps in the portable loop if `err` is `ENOSYS`. Returns `false`
    /// for any other error, or when already on the portable floor (the
    /// error then surfaces to the caller).
    fn descend(&mut self, err: &io::Error) -> bool {
        if err.raw_os_error() != Some(ENOSYS) || self.backend.kind() == BackendKind::Portable {
            return false;
        }
        eprintln!(
            "warn: {} backend unavailable ({err}); falling back to portable",
            self.backend.kind()
        );
        self.backend = backend::create(BackendChoice::Portable);
        self.backend_fallbacks += 1;
        true
    }

    /// Sends a segment train — `payload` split at `segment_size`
    /// boundaries (`None`: a single datagram) — from the socket bound
    /// to `local` to `remote`, batching all segments into one syscall
    /// where the platform allows.
    ///
    /// Returns the number of datagrams handed to the OS. Segments the
    /// socket buffer would not take after retries are counted in the
    /// socket's drop counter — to the transport that is
    /// indistinguishable from network loss, and is recovered the same
    /// way.
    pub fn send_train(
        &mut self,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
        segment_size: Option<usize>,
    ) -> io::Result<usize> {
        let index = self
            .sockets
            .iter()
            .position(|entry| entry.local == local)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no socket bound to {local}"),
                )
            })?;
        let seg = match segment_size {
            Some(seg) if seg > 0 => seg,
            _ => payload.len().max(1),
        };
        let total = payload.len().div_ceil(seg);
        let mut sent = 0;
        let mut attempt = 0;
        let mut backoff = Backoff::new();
        while sent < total {
            let rest = payload.get(sent * seg..).unwrap_or(&[]);
            let Some(entry) = self.sockets.get(index) else {
                break;
            };
            match self
                .backend
                .send_segments(&entry.socket, &remote, rest, seg)
            {
                Ok((accepted, syscalls)) if accepted > 0 => {
                    sent += accepted;
                    self.batch.send_syscalls += syscalls as u64;
                    self.batch.send_batch_size.record(accepted as u64);
                    self.batch.syscalls_saved += accepted.saturating_sub(syscalls) as u64;
                    backoff.reset();
                }
                Ok(_) => {
                    // The kernel accepted nothing without erroring:
                    // treat like a full buffer.
                    attempt += 1;
                    if attempt > SEND_RETRIES {
                        break;
                    }
                    backoff.wait();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    attempt += 1;
                    if attempt > SEND_RETRIES {
                        break;
                    }
                    // Give the kernel a moment to drain the buffer,
                    // spending as little of it waiting as possible.
                    backoff.wait();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // The kernel lacks the backend's syscalls: descend and
                // retry the *same* unsent suffix on the replacement —
                // the queued train must not be lost with it.
                Err(e) if self.descend(&e) => {}
                Err(e) => return Err(e),
            }
        }
        if sent < total {
            if let Some(entry) = self.sockets.get_mut(index) {
                entry.send_drops += (total - sent) as u64;
            }
        }
        Ok(sent)
    }

    /// Fills `batch` with as many pending datagrams as one pass over
    /// the sockets yields (one batched receive syscall per socket,
    /// starting after the socket served last). Returns how many
    /// datagrams were received; 0 means all sockets were dry.
    pub fn poll_recv_batch(&mut self, batch: &mut RecvBatch) -> io::Result<usize> {
        batch.clear();
        let n = self.sockets.len();
        if n == 0 {
            return Ok(0);
        }
        let mut total = 0;
        for i in 0..n {
            let index = (self.cursor + i) % n;
            let filled = batch.metas.len();
            let Some(slots) = batch.bufs.get_mut(filled..) else {
                break;
            };
            if slots.is_empty() {
                break;
            }
            let Some(entry) = self.sockets.get(index) else {
                continue;
            };
            let local = entry.local;
            self.pairs.clear();
            match self
                .backend
                .recv_batch(&entry.socket, slots, &mut self.pairs)
            {
                Ok((received, syscalls)) if received > 0 => {
                    self.batch.recv_syscalls += syscalls as u64;
                    self.batch.recv_batch_size.record(received as u64);
                    self.batch.syscalls_saved += received.saturating_sub(syscalls) as u64;
                    for &(remote, len) in &self.pairs {
                        batch.metas.push(RecvMeta { local, remote, len });
                    }
                    total += received;
                    self.cursor = (index + 1) % n;
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                // A previous send to an unreachable port surfaces here on
                // some platforms (Linux ICMP errors); treat as no-data,
                // the transport's own timers handle the unreachable peer.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {}
                // `ENOSYS`: descend; the datagrams are still in the
                // kernel buffer, so the next poll (on the replacement)
                // drains them — nothing is lost by treating this pass
                // as dry.
                Err(e) if self.descend(&e) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Blocks until a datagram is waiting on any socket, a [`Waker`] of
    /// this registry fired, or `timeout` passed (`None`: no deadline) —
    /// what a loop does instead of sleeping once polling has come up
    /// empty. A datagram that arrived before the call ends it at once,
    /// so nothing is slept through; an early return for no reason is
    /// possible, and the caller polls again either way. Where the
    /// platform has no such wait ([`mmsg::Parker`]) this is a sleep of at
    /// most [`crate::timer::DEFAULT_GRANULARITY`].
    pub fn wait_readable(&mut self, timeout: Option<Duration>) {
        self.parker
            .park(self.sockets.iter().map(|entry| &entry.socket), timeout);
    }

    /// A handle that ends this registry's [`wait_readable`] from
    /// another thread — how a stop request reaches a parked loop.
    ///
    /// [`wait_readable`]: SocketRegistry::wait_readable
    pub fn waker(&mut self) -> io::Result<Waker> {
        self.parker.waker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loopback(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    #[test]
    fn bind_assigns_ephemeral_ports() {
        let registry = SocketRegistry::bind(&[loopback(0), loopback(0)]).unwrap();
        let addrs = registry.local_addrs();
        assert_eq!(addrs.len(), 2);
        assert_ne!(addrs[0].port(), 0);
        assert_ne!(addrs[1].port(), 0);
        assert_ne!(addrs[0], addrs[1]);
    }

    #[test]
    fn train_fans_out_and_batch_recv_collects() {
        let mut a = SocketRegistry::bind(&[loopback(0), loopback(0)]).unwrap();
        let mut b = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let (a_addr, a_other) = (a.local_addrs()[0], a.local_addrs()[1]);
        let b_addr = b.local_addrs()[0];

        // A local address the registry never bound is an error, not a drop.
        let err = a.send_train(loopback(9), b_addr, b"x", None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);

        // A 5-segment train: 4 × 100 B + 1 × 60 B.
        let payload: Vec<u8> = (0..460).map(|i| (i % 251) as u8).collect();
        let sent = a.send_train(a_addr, b_addr, &payload, Some(100)).unwrap();
        assert_eq!(sent, 5);
        assert_eq!(a.send_drops(), 0);
        assert!(a.batch_stats().send_syscalls >= 1);
        if mmsg::NATIVE_BATCH {
            assert_eq!(a.batch_stats().send_syscalls, 1);
            assert_eq!(a.batch_stats().syscalls_saved, 4);
            assert_eq!(a.batch_stats().send_batch_size.max(), 5);
        }

        // One lone datagram (`None`: no segmentation) from A's other
        // interface: sends route by local address.
        const LONE: &[u8] = b"second";
        assert_eq!(a.send_train(a_other, b_addr, LONE, None).unwrap(), 1);

        let mut batch = RecvBatch::new(16);
        let mut rejoined = Vec::new();
        let mut lone = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while rejoined.len() + lone.len() < payload.len() + LONE.len()
            && std::time::Instant::now() < deadline
        {
            if b.poll_recv_batch(&mut batch).unwrap() == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
                continue;
            }
            for (meta, bytes) in batch.iter() {
                assert_eq!(meta.local, b_addr);
                // The source address identifies the sending interface.
                if meta.remote == a_addr {
                    rejoined.extend_from_slice(bytes);
                } else {
                    assert_eq!(meta.remote, a_other);
                    lone.extend_from_slice(bytes);
                }
            }
        }
        assert_eq!(rejoined, payload, "segments reassemble byte-for-byte");
        assert_eq!(lone, LONE);
        assert!(b.batch_stats().recv_syscalls >= 1);
        if mmsg::NATIVE_BATCH {
            assert!(
                b.batch_stats().recv_batch_size.max() > 1,
                "recvmmsg returned more than one datagram in a call"
            );
        }
    }

    /// A backend whose kernel support is missing: every call is
    /// refused with `ENOSYS`, the way `sendmmsg`/`recvmmsg` answer on a
    /// kernel (or under a seccomp filter) without them.
    #[derive(Debug)]
    struct FailingBackend(BackendKind);

    impl Backend for FailingBackend {
        fn kind(&self) -> BackendKind {
            self.0
        }

        fn send_segments(
            &mut self,
            _socket: &UdpSocket,
            _remote: &SocketAddr,
            _payload: &[u8],
            _segment_size: usize,
        ) -> io::Result<(usize, usize)> {
            Err(io::Error::from_raw_os_error(ENOSYS))
        }

        fn recv_batch(
            &mut self,
            _socket: &UdpSocket,
            _bufs: &mut [Vec<u8>],
            _out: &mut Vec<(SocketAddr, usize)>,
        ) -> io::Result<(usize, usize)> {
            Err(io::Error::from_raw_os_error(ENOSYS))
        }
    }

    #[test]
    fn enosys_falls_back_without_losing_the_train() {
        let mut a = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let mut b = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let a_addr = a.local_addrs()[0];
        let b_addr = b.local_addrs()[0];

        a.set_backend_for_tests(Box::new(FailingBackend(BackendKind::Mmsg)));
        assert_eq!(a.backend_kind(), BackendKind::Mmsg);

        // The first send hits ENOSYS; the registry must descend and
        // resend the same train, losing nothing.
        let payload: Vec<u8> = (0..460).map(|i| (i % 251) as u8).collect();
        let sent = a.send_train(a_addr, b_addr, &payload, Some(100)).unwrap();
        assert_eq!(sent, 5, "whole train handed to the fallback backend");
        assert_eq!(a.send_drops(), 0);
        assert_eq!(a.backend_kind(), BackendKind::Portable);
        assert_eq!(a.backend_stats().fallbacks, 1);

        let mut batch = RecvBatch::new(16);
        let mut rejoined = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while rejoined.len() < payload.len() && std::time::Instant::now() < deadline {
            if b.poll_recv_batch(&mut batch).unwrap() == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
                continue;
            }
            for (_, bytes) in batch.iter() {
                rejoined.extend_from_slice(bytes);
            }
        }
        assert_eq!(rejoined, payload, "queued train survived the fallback");

        // Below the portable floor there is nothing: the error surfaces.
        a.set_backend_for_tests(Box::new(FailingBackend(BackendKind::Portable)));
        let err = a.send_train(a_addr, b_addr, &payload, None).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSYS));
        assert_eq!(a.backend_stats().fallbacks, 1);
    }

    /// One undeliverable datagram is that datagram's problem: the
    /// registry must not take every connection it serves down to one
    /// syscall per datagram over it.
    #[test]
    fn per_datagram_error_does_not_demote_the_backend() {
        let mut a = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let b = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let (a_addr, b_addr) = (a.local_addrs()[0], b.local_addrs()[0]);
        let kind = a.backend_kind();

        // Larger than any UDP datagram: `EMSGSIZE`.
        let oversize = vec![0u8; 70_000];
        assert!(a.send_train(a_addr, b_addr, &oversize, None).is_err());
        assert_eq!(a.backend_kind(), kind);
        assert_eq!(a.backend_stats().fallbacks, 0);

        let payload = [7u8; 460];
        assert_eq!(
            a.send_train(a_addr, b_addr, &payload, Some(100)).unwrap(),
            5
        );
        if mmsg::NATIVE_BATCH {
            assert_eq!(a.batch_stats().send_syscalls, 1, "still batched");
        }
    }

    #[test]
    fn recv_enosys_descends_and_next_poll_drains() {
        let mut a = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let mut b = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let a_addr = a.local_addrs()[0];
        let b_addr = b.local_addrs()[0];
        let held = a.send_train(a_addr, b_addr, b"held in kernel buffer", None);
        assert_eq!(held.unwrap(), 1);

        b.set_backend_for_tests(Box::new(FailingBackend(BackendKind::Mmsg)));
        let mut batch = RecvBatch::new(4);
        // The refused pass reports dry but swaps the backend…
        assert_eq!(b.poll_recv_batch(&mut batch).unwrap(), 0);
        assert_eq!(b.backend_kind(), BackendKind::Portable);
        // …and the datagram is still in the kernel buffer for the next
        // poll on the replacement.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = 0;
        while got == 0 && std::time::Instant::now() < deadline {
            got = b.poll_recv_batch(&mut batch).unwrap();
            if got == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        assert_eq!(got, 1, "nothing lost across the recv-side fallback");
    }

    /// The three ways out of a park. The bounds are loose on purpose:
    /// what is checked is which event ended the wait, not how fast.
    #[test]
    fn wait_readable_ends_on_a_datagram_a_wake_or_the_timeout() {
        const LONG: Duration = Duration::from_secs(30);
        let mut a = SocketRegistry::bind(&[loopback(0)]).unwrap();
        let mut b = SocketRegistry::bind(&[loopback(0), loopback(0)]).unwrap();
        let (a_addr, b_addr) = (a.local_addrs()[0], b.local_addrs()[1]);

        // Nothing to wait for: the timeout ends it.
        let start = std::time::Instant::now();
        b.wait_readable(Some(Duration::from_millis(20)));
        assert!(start.elapsed() < LONG / 2);
        if mmsg::NATIVE_BATCH {
            assert!(
                start.elapsed() >= Duration::from_millis(20),
                "waited it out"
            );
        }

        // A datagram that is already there ends it at once, on
        // whichever socket it sits, and stays there for the poll.
        assert_eq!(a.send_train(a_addr, b_addr, b"early", None).unwrap(), 1);
        let start = std::time::Instant::now();
        b.wait_readable(Some(LONG));
        assert!(start.elapsed() < LONG / 2, "slept through a datagram");
        let mut batch = RecvBatch::new(4);
        assert_eq!(b.poll_recv_batch(&mut batch).unwrap(), 1);

        // So does a wake, whether it lands before the wait or during
        // it; and once it has ended one wait it is spent.
        let waker = b.waker().unwrap();
        waker.wake();
        let start = std::time::Instant::now();
        b.wait_readable(Some(LONG));
        let other = std::thread::spawn(move || waker.wake());
        b.wait_readable(Some(LONG));
        other.join().unwrap();
        assert!(start.elapsed() < LONG / 2, "slept through a wake");
        if mmsg::NATIVE_BATCH {
            let start = std::time::Instant::now();
            b.wait_readable(Some(Duration::from_millis(20)));
            assert!(
                start.elapsed() >= Duration::from_millis(20),
                "wake was drained"
            );
        }
    }

    #[test]
    fn drops_are_counted_per_socket() {
        let a = SocketRegistry::bind(&[loopback(0), loopback(0)]).unwrap();
        let addrs = a.local_addrs();
        let per_socket = a.send_drops_per_socket();
        assert_eq!(per_socket.len(), 2);
        assert_eq!(per_socket[0], (addrs[0], 0));
        assert_eq!(per_socket[1], (addrs[1], 0));
        assert_eq!(a.send_drops(), 0);
    }
}
