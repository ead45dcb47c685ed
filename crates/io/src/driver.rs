//! The connection driver: a deadline-driven event loop over real sockets.
//!
//! [`Driver`] owns the two things a sans-IO transport needs to touch the
//! real world — a [`SocketRegistry`] (one non-blocking UDP socket per
//! local interface) and a [`Clock`] — and pumps any [`Transport`]
//! implementation through the canonical sans-IO cycle:
//!
//! ```text
//! ingress:  recvmmsg batch ─→ transport.handle_datagram(now, ...) × n
//! timers:   next_timeout   ─→ transport.on_timeout(now) when due
//! egress:   transport.poll_transmit_batch(now, queue)
//!               ─→ one GSO send per train (by local addr)
//! routing:  transport.discard_path_ops() (no demux routes on them)
//! ```
//!
//! Both halves of the datapath are *batched*: egress drains the
//! transport into a pool-backed [`TransmitQueue`] (each datagram sealed
//! in place in a kernel-size GSO train of its path) and hands each
//! train over with one syscall; ingress fills a [`RecvBatch`] with one
//! syscall per socket.
//! After warm-up the cycle performs no per-datagram heap allocation —
//! buffers cycle through the queue's [`mpquic_core::BufferPool`] and
//! the syscall arrays are reused (see DESIGN.md §11).
//!
//! A driver keeps no counters of its own: what it did is its
//! connection's `ConnStats` plus its registry's tallies
//! ([`SocketRegistry::batch_stats`], [`SocketRegistry::send_drops`]).
//!
//! The same cycle drives the discrete-event simulator
//! (`mpquic_netsim::Simulation`); this module is its real-network twin, so
//! every protocol feature exercised in the paper's experiments — the
//! lowest-RTT scheduler, per-path packet-number spaces, PATHS-frame
//! handover — runs unchanged over the OS network stack.

use mpquic_core::buffer::{DEFAULT_BATCH, MAX_TRAIN_SEGMENTS};
use mpquic_core::{Config, Connection, QuicTransport, TransmitQueue, Transport};
use mpquic_util::SimTime;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::error::{Error, Result};
use crate::socket::{RecvBatch, SocketRegistry};

/// Per-step caps so a flood on one side of the cycle cannot starve the
/// other (or the timers) indefinitely — nor, in an endpoint loop, one
/// bulk sender the loop's other connections.
const MAX_RECV_PER_STEP: usize = 256;
const MAX_SEND_PER_STEP: usize = 256;

/// The datagram size the egress queue is sized for: comfortably above
/// any configured MTU, so its train buffers (each the kernel's
/// 65,507-byte train limit; [`DEFAULT_BATCH`] datagrams are two full
/// trains) and its one datagram-sized spare never grow.
pub(crate) const SEND_BUF_CAPACITY: usize = 2048;

/// Receive buffers per [`Driver`]. With GRO each holds a whole train of
/// up to [`MAX_TRAIN_SEGMENTS`] datagrams, so this many reach
/// [`MAX_RECV_PER_STEP`] in one syscall; datagrams the kernel does not
/// coalesce take more syscalls, never more buffers (each is 64 KiB).
const RECV_BUFFERS: usize = MAX_RECV_PER_STEP / MAX_TRAIN_SEGMENTS;

/// Polling granularity. On Linux an idle loop's wait is
/// [`SocketRegistry::wait_readable`], which a datagram ends on
/// arrival, so what this constant bounds is:
///
/// * how long [`Driver::run_until`] parks before it looks at its
///   `done` predicate and wall-clock timeout again (both may depend on
///   things no datagram announces);
/// * off Linux, where there is no readiness wait, the sleep that stands
///   in for one — the longest a loop there sleeps while a peer could be
///   sending to it. 500 µs keeps that well under loopback RTO scales
///   while burning negligible CPU.
pub const DEFAULT_GRANULARITY: Duration = Duration::from_micros(500);

/// What one [`drain_egress`] call did.
pub(crate) struct Egress {
    /// Datagrams the OS took.
    pub(crate) datagrams: u64,
    /// The call stopped at [`MAX_SEND_PER_STEP`] with the transport
    /// still producing: there is more to send, and only calling again
    /// will send it — nothing else (no datagram, no timer) announces it.
    pub(crate) capped: bool,
    /// The first socket error. The rest of the queue was recycled
    /// unsent (loss, to the peer), so the queue comes back empty either
    /// way; what the error means — abort the driver, close one
    /// connection — is the caller's policy.
    pub(crate) result: io::Result<()>,
}

/// Drains `transport`'s egress to the sockets: fill the pool-backed
/// queue (same-path packets sealed into GSO trains), then hand each
/// train over with one batched syscall on the socket bound to its local
/// address — that *is* the path selection — until the transport runs
/// dry or [`MAX_SEND_PER_STEP`] datagrams were attempted. Each fill is
/// limited to what is left of that budget, so a step never overshoots
/// it.
pub(crate) fn drain_egress<T: Transport>(
    transport: &mut T,
    clock: &Clock,
    queue: &mut TransmitQueue,
    sockets: &mut SocketRegistry,
) -> Egress {
    let mut egress = Egress {
        datagrams: 0,
        capped: false,
        result: Ok(()),
    };
    let mut attempted = 0;
    loop {
        if attempted >= MAX_SEND_PER_STEP {
            egress.capped = true;
            break;
        }
        queue.limit_segments(MAX_SEND_PER_STEP - attempted);
        transport.poll_transmit_batch(clock.now(), queue);
        // A fill that stopped with room left stopped because the
        // transport ran dry: polling it again after the send below
        // would only walk it once more to find nothing.
        let drained = queue.has_capacity();
        if queue.is_empty() {
            break;
        }
        while let Some(transmit) = queue.pop() {
            let result = sockets.send_train(
                transmit.local,
                transmit.remote,
                &transmit.payload,
                transmit.segment_size,
            );
            let accepted = *result.as_ref().unwrap_or(&0);
            attempted += transmit.segment_count();
            egress.datagrams += accepted as u64;
            // Recycle before acting on any error: pool buffers must go
            // back even on a failed send.
            queue.recycle(transmit.payload);
            if let Err(e) = result {
                while let Some(unsent) = queue.pop() {
                    queue.recycle(unsent.payload);
                }
                egress.result = Err(e);
                return egress;
            }
        }
        if drained {
            break;
        }
    }
    egress
}

/// Drives one sans-IO [`Transport`] over real UDP sockets.
#[derive(Debug)]
pub struct Driver<T: Transport> {
    transport: T,
    sockets: SocketRegistry,
    clock: Clock,
    /// Pool-backed egress queue, filled by `poll_transmit_batch`.
    queue: TransmitQueue,
    /// Reusable ingress batch, filled by `poll_recv_batch`.
    recv: RecvBatch,
}

impl<T: Transport> Driver<T> {
    /// Builds a driver from an already-constructed transport and registry.
    /// The transport's local addresses must match the registry's bound
    /// addresses (the convenience constructors [`quic_client`] and
    /// [`quic_server`] guarantee this).
    pub fn new(transport: T, sockets: SocketRegistry) -> Driver<T> {
        Driver {
            transport,
            sockets,
            clock: Clock::new(),
            queue: TransmitQueue::new(DEFAULT_BATCH, SEND_BUF_CAPACITY),
            recv: RecvBatch::new(RECV_BUFFERS),
        }
    }

    /// The transport being driven.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable access to the transport (write application data, read
    /// chunks, inspect the connection).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The bound local addresses, in bind order.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.sockets.local_addrs()
    }

    /// The current instant on the transport's time line.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The socket registry underneath: batching and backend telemetry,
    /// per-socket send drops.
    pub fn sockets(&self) -> &SocketRegistry {
        &self.sockets
    }

    /// Runs one non-blocking iteration of the event loop: fires due
    /// timers, drains ingress into the transport, drains the transport's
    /// egress to the sockets. Returns `true` if anything happened, or
    /// if egress stopped at its per-step cap with more to send —
    /// callers wait (see [`Driver::run_until`]) only when it returns
    /// `false`.
    pub fn step(&mut self) -> Result<bool> {
        let mut progressed = false;

        // 1. Protocol timers.
        let now = self.clock.now();
        if self.transport.next_timeout().is_some_and(|at| at <= now) {
            self.transport.on_timeout(now);
            progressed = true;
        }

        // 2. Ingress first: ACKs open congestion window that egress below
        //    can immediately use. One syscall brings in a whole batch.
        let mut received = 0;
        while received < MAX_RECV_PER_STEP {
            let got = self.sockets.poll_recv_batch(&mut self.recv)?;
            if got == 0 {
                break;
            }
            let now = self.clock.now();
            for (meta, payload) in self.recv.iter() {
                self.transport
                    .handle_datagram(now, meta.local, meta.remote, payload);
            }
            received += got;
            progressed = true;
        }

        // 3. Egress. A socket error aborts the step: the caller owns
        //    this one connection and decides what survives it.
        let egress = drain_egress(
            &mut self.transport,
            &self.clock,
            &mut self.queue,
            &mut self.sockets,
        );
        // Capped is progress even if the OS took nothing: the caller
        // must step again, not wait.
        progressed |= egress.datagrams > 0 || egress.capped;
        // One connection on its own sockets has no demux to route on
        // the connection's path ops.
        self.transport.discard_path_ops();
        egress.result?;

        Ok(progressed)
    }

    /// Pumps the loop until `done(transport)` returns `true` or `timeout`
    /// of wall time elapses. Returns whether `done` was reached. An idle
    /// iteration parks on the sockets: a datagram ends the wait the
    /// moment it arrives, and otherwise it lasts until the transport's
    /// next deadline, clamped to [`DEFAULT_GRANULARITY`] so that `done`
    /// and `timeout` are looked at again that often whatever the
    /// network does.
    pub fn run_until(
        &mut self,
        timeout: Duration,
        mut done: impl FnMut(&mut T) -> bool,
    ) -> Result<bool> {
        // A deadline the clock cannot represent is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if done(&mut self.transport) {
                return Ok(true);
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return Ok(false);
            }
            if !self.step()? {
                self.park();
            }
        }
    }

    /// Waits out an idle moment: until a datagram arrives, or else
    /// for [`sleep_for`] the transport's next deadline.
    fn park(&mut self) {
        let wait = sleep_for(self.clock.now(), self.transport.next_timeout());
        if !wait.is_zero() {
            self.sockets.wait_readable(Some(wait));
        }
    }

    /// Pumps the loop for (at least) `duration` of wall time — useful to
    /// flush final packets (a CONNECTION_CLOSE, the last ACKs) before
    /// dropping the driver.
    pub fn run_for(&mut self, duration: Duration) -> Result<()> {
        self.run_until(duration, |_| false).map(|_| ())
    }
}

/// How long a one-connection loop may wait at `now` given the
/// transport's next deadline: zero if the deadline is due, otherwise
/// the time until it clamped to [`DEFAULT_GRANULARITY`] (no deadline ⇒
/// the granularity). The endpoint's loops keep one armed deadline per
/// connection instead and park until the earliest, unclamped (see
/// [`crate::shard`]).
fn sleep_for(now: SimTime, deadline: Option<SimTime>) -> Duration {
    match deadline {
        Some(at) if at <= now => Duration::ZERO,
        Some(at) => at.saturating_duration_since(now).min(DEFAULT_GRANULARITY),
        None => DEFAULT_GRANULARITY,
    }
}

impl Driver<QuicTransport> {
    /// The underlying (MP)QUIC connection.
    pub fn connection(&self) -> &Connection {
        &self.transport().conn
    }

    /// Mutable access to the underlying connection.
    pub fn connection_mut(&mut self) -> &mut Connection {
        &mut self.transport_mut().conn
    }

    /// Rebinds the socket under path `id`'s local address onto a fresh
    /// ephemeral port and migrates the path onto it — a client-driven
    /// NAT rebinding. The very next packets leave from the new source
    /// port carrying the same CID; the server quarantines the rebound
    /// address behind a PATH_CHALLENGE and, once validation succeeds,
    /// rotates the connection ID (NEW_CONNECTION_ID /
    /// RETIRE_CONNECTION_ID ride this same connection). Returns the
    /// new local address.
    pub fn rebind_path(&mut self, id: mpquic_core::PathId) -> Result<SocketAddr> {
        let old = self
            .transport
            .conn
            .path(id)
            .map(|path| path.local)
            .ok_or_else(|| {
                Error::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no path {}", id.0),
                ))
            })?;
        let new_local = self.sockets.rebind(old).map_err(Error::Io)?;
        let now = self.clock.now();
        self.transport.conn.migrate_path(id, new_local, now);
        Ok(new_local)
    }
}

/// Binds `local_addrs` (port 0 allowed) and dials `remote` from the first
/// of them: the real-socket equivalent of `Connection::client`. With
/// multipath enabled and several local addresses, the path manager opens
/// one additional path per extra address once the handshake completes,
/// exactly as in the simulator.
pub fn quic_client(
    config: Config,
    local_addrs: &[SocketAddr],
    remote: SocketAddr,
    seed: u64,
) -> Result<Driver<QuicTransport>> {
    let sockets = SocketRegistry::bind(local_addrs).map_err(Error::Io)?;
    let bound = sockets.local_addrs();
    let conn = Connection::client(config, bound, 0, remote, seed);
    Ok(Driver::new(QuicTransport::client(conn), sockets))
}

/// Binds `local_addrs` and waits for a client: the real-socket equivalent
/// of `Connection::server`. The first authenticated datagram creates the
/// initial path; with multipath enabled the server advertises every bound
/// address via ADD_ADDRESS so the client can open the additional paths.
pub fn quic_server(
    config: Config,
    local_addrs: &[SocketAddr],
    seed: u64,
) -> Result<Driver<QuicTransport>> {
    let sockets = SocketRegistry::bind(local_addrs).map_err(Error::Io)?;
    let bound = sockets.local_addrs();
    let conn = Connection::server(config, bound, seed);
    Ok(Driver::new(QuicTransport::server(conn), sockets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mpquic_util::{Datagram, Endpoint};

    /// A transport with `left` datagrams to send and nothing else to do
    /// but count what it receives.
    struct Flood {
        left: usize,
        local: SocketAddr,
        remote: SocketAddr,
        received: usize,
    }

    impl Transport for Flood {
        fn write(&mut self, _data: Bytes) {}
        fn finish(&mut self) {}
        fn read_chunk(&mut self) -> Option<Bytes> {
            None
        }
        fn recv_finished(&self) -> bool {
            false
        }
        fn is_established(&self) -> bool {
            true
        }
    }

    impl Endpoint for Flood {
        fn handle_datagram(&mut self, _: SimTime, _: SocketAddr, _: SocketAddr, _: &[u8]) {
            self.received += 1;
        }
        fn poll_transmit(&mut self, _now: SimTime) -> Option<Datagram> {
            self.left = self.left.checked_sub(1)?;
            Some(Datagram {
                local: self.local,
                remote: self.remote,
                payload: vec![0x5A; 32],
            })
        }
        fn next_timeout(&self) -> Option<SimTime> {
            None
        }
        fn on_timeout(&mut self, _now: SimTime) {}
    }

    /// A sender with more than one step's worth says so: no datagram
    /// and no timer would bring its loop back for the rest.
    #[test]
    fn egress_stopped_at_the_cap_reports_more_to_send() {
        let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let sink = SocketRegistry::bind(&[loopback]).unwrap();
        let mut sockets = SocketRegistry::bind(&[loopback]).unwrap();
        let mut flood = Flood {
            left: MAX_SEND_PER_STEP + 40,
            local: sockets.local_addrs()[0],
            remote: sink.local_addrs()[0],
            received: 0,
        };
        let clock = Clock::new();
        let mut queue = TransmitQueue::new(DEFAULT_BATCH, SEND_BUF_CAPACITY);

        let first = drain_egress(&mut flood, &clock, &mut queue, &mut sockets);
        assert!(first.capped, "stopped with 40 still to go");
        assert_eq!(first.datagrams as usize, MAX_SEND_PER_STEP);
        assert!(first.result.is_ok());

        let second = drain_egress(&mut flood, &clock, &mut queue, &mut sockets);
        assert!(!second.capped, "ran dry below the cap");
        assert_eq!(second.datagrams, 40);

        // The same two calls through a `Driver`: progress, progress, idle.
        flood.left = MAX_SEND_PER_STEP + 40;
        let mut driver = Driver::new(flood, sockets);
        let sent = |driver: &Driver<Flood>| driver.sockets().batch_stats().send_batch_size.sum();
        let before = sent(&driver);
        assert!(driver.step().unwrap());
        assert!(driver.step().unwrap());
        assert!(!driver.step().unwrap());
        assert_eq!((sent(&driver) - before) as usize, MAX_SEND_PER_STEP + 40);
    }

    /// A driver's few receive buffers still take in a whole step's worth
    /// of datagrams the kernel does not coalesce — one per buffer, over
    /// more syscalls — and no more than that.
    #[test]
    fn one_step_takes_in_a_step_of_uncoalesced_datagrams() {
        let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let sockets = SocketRegistry::bind(&[loopback]).unwrap();
        let local = sockets.local_addrs()[0];
        let sender = std::net::UdpSocket::bind(loopback).unwrap();
        for i in 0..MAX_RECV_PER_STEP + 40 {
            sender.send_to(&[i as u8; 32], local).unwrap();
        }
        let flood = Flood {
            left: 0,
            local,
            remote: sender.local_addr().unwrap(),
            received: 0,
        };
        let mut driver = Driver::new(flood, sockets);
        assert!(driver.step().unwrap());
        assert_eq!(driver.transport().received, MAX_RECV_PER_STEP);
    }

    /// A timeout past what `Instant` can hold is no deadline at all,
    /// not an overflow panic (`mpq-client --timeout 18446744073709551615`).
    #[test]
    fn an_unrepresentable_timeout_waits_without_a_deadline() {
        let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let sockets = SocketRegistry::bind(&[loopback]).unwrap();
        let flood = Flood {
            left: 0,
            local: sockets.local_addrs()[0],
            remote: loopback,
            received: 0,
        };
        let mut driver = Driver::new(flood, sockets);
        assert!(driver.run_until(Duration::MAX, |_| true).unwrap());
        let mut polls = 0;
        let done = driver.run_until(Duration::MAX, |_| {
            polls += 1;
            polls == 3
        });
        assert!(done.unwrap());
    }

    #[test]
    fn due_deadline_means_no_sleep() {
        let now = SimTime::from_millis(10);
        assert_eq!(
            sleep_for(now, Some(SimTime::from_millis(10))),
            Duration::ZERO
        );
        assert_eq!(
            sleep_for(now, Some(SimTime::from_millis(5))),
            Duration::ZERO
        );
    }

    #[test]
    fn near_deadline_sleeps_exactly_until_it() {
        let now = SimTime::from_millis(10);
        let deadline = SimTime::from_micros(10_200);
        assert_eq!(sleep_for(now, Some(deadline)), Duration::from_micros(200));
    }

    #[test]
    fn far_or_absent_deadline_clamps_to_granularity() {
        let now = SimTime::from_millis(10);
        assert_eq!(
            sleep_for(now, Some(SimTime::from_secs(10))),
            DEFAULT_GRANULARITY
        );
        assert_eq!(sleep_for(now, None), DEFAULT_GRANULARITY);
    }
}
