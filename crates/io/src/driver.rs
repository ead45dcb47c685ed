//! The connection driver: a deadline-driven event loop over real sockets.
//!
//! [`Driver`] owns the three things a sans-IO transport needs to touch the
//! real world — a [`SocketRegistry`] (one non-blocking UDP socket per
//! local interface), a [`Clock`], and a [`Timer`] — and pumps any
//! [`Transport`] implementation through the canonical sans-IO cycle:
//!
//! ```text
//! ingress:  recvmmsg batch ─→ transport.handle_datagram(now, ...) × n
//! timers:   next_timeout   ─→ transport.on_timeout(now) when due
//! egress:   transport.poll_transmit_batch(now, queue)
//!               ─→ sendmmsg per GSO train (by local addr)
//! ```
//!
//! Both halves of the datapath are *batched*: egress drains the
//! transport into a pool-backed [`TransmitQueue`] (coalescing same-path
//! packets into GSO-shaped trains) and fans each train out with one
//! syscall; ingress fills a [`RecvBatch`] with one syscall per socket.
//! After warm-up the cycle performs no per-datagram heap allocation —
//! buffers cycle through the queue's [`mpquic_core::BufferPool`] and
//! the syscall arrays are reused (see DESIGN.md §11).
//!
//! The same cycle drives the discrete-event simulator
//! (`mpquic_netsim::Simulation`); this module is its real-network twin, so
//! every protocol feature exercised in the paper's experiments — the
//! lowest-RTT scheduler, per-path packet-number spaces, PATHS-frame
//! handover — runs unchanged over the OS network stack.

use mpquic_core::{Config, Connection, TransmitQueue};
use mpquic_harness::{QuicTransport, Transport};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::error::{Error, Result};
use crate::socket::{RecvBatch, SocketRegistry};
use crate::timer::Timer;

/// Per-step caps so a flood on one side of the cycle cannot starve the
/// other (or the timers) indefinitely — nor, in an endpoint loop, one
/// bulk sender the loop's other connections.
const MAX_RECV_PER_STEP: usize = 256;
const MAX_SEND_PER_STEP: usize = 256;

/// Datagrams per transmit batch (the egress queue's segment capacity)
/// and per receive poll.
pub(crate) const BATCH_SEGMENTS: usize = 64;

/// Egress pool buffer pre-allocation: comfortably above any configured
/// MTU, so pool buffers never grow after the first use.
pub(crate) const SEND_BUF_CAPACITY: usize = 2048;

/// What one [`drain_egress`] call did.
pub(crate) struct Egress {
    /// Datagrams the OS took.
    pub(crate) datagrams: u64,
    /// UDP payload bytes in them.
    pub(crate) bytes: u64,
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
/// queue (coalescing same-path packets into GSO trains), then fan each
/// train out with one batched syscall on the socket bound to its local
/// address — that *is* the path selection — until the transport runs
/// dry or [`MAX_SEND_PER_STEP`] datagrams were attempted.
pub(crate) fn drain_egress<T: Transport>(
    transport: &mut T,
    clock: &Clock,
    queue: &mut TransmitQueue,
    sockets: &mut SocketRegistry,
) -> Egress {
    let mut egress = Egress {
        datagrams: 0,
        bytes: 0,
        capped: false,
        result: Ok(()),
    };
    let mut attempted = 0;
    loop {
        if attempted >= MAX_SEND_PER_STEP {
            egress.capped = true;
            break;
        }
        let produced = transport.poll_transmit_batch(clock.now(), queue);
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
            egress.bytes += transmit
                .segments()
                .take(accepted)
                .map(<[u8]>::len)
                .sum::<usize>() as u64;
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
        if produced == 0 {
            break;
        }
    }
    egress
}

/// Counters describing what the event loop did (socket-level view; the
/// transport's own `ConnStats` counts the protocol-level view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Datagrams handed to the OS.
    pub datagrams_sent: u64,
    /// Datagrams received from the OS and fed to the transport.
    pub datagrams_received: u64,
    /// UDP payload bytes sent.
    pub bytes_sent: u64,
    /// UDP payload bytes received.
    pub bytes_received: u64,
    /// Datagrams dropped locally because the socket buffer stayed full.
    pub send_drops: u64,
    /// Times a due protocol deadline was fired.
    pub timer_fires: u64,
    /// Batched send syscalls issued.
    pub send_syscalls: u64,
    /// Batched receive syscalls that returned data.
    pub recv_syscalls: u64,
    /// Syscalls avoided versus a one-datagram-per-syscall loop.
    pub syscalls_saved: u64,
}

impl IoStats {
    /// Sums another loop's counters into this one — used to fold the
    /// loops of an [`crate::Endpoint`] into one report.
    pub fn merge(&mut self, other: &IoStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_received += other.datagrams_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.send_drops += other.send_drops;
        self.timer_fires += other.timer_fires;
        self.send_syscalls += other.send_syscalls;
        self.recv_syscalls += other.recv_syscalls;
        self.syscalls_saved += other.syscalls_saved;
    }

    /// These loop-counted fields plus the four counters `sockets` keeps
    /// itself (send drops and the syscall tallies).
    pub(crate) fn with_socket_counters(mut self, sockets: &SocketRegistry) -> IoStats {
        self.send_drops = sockets.send_drops();
        let batch = sockets.batch_stats();
        self.send_syscalls = batch.send_syscalls;
        self.recv_syscalls = batch.recv_syscalls;
        self.syscalls_saved = batch.syscalls_saved;
        self
    }
}

/// Drives one sans-IO [`Transport`] over real UDP sockets.
#[derive(Debug)]
pub struct Driver<T: Transport> {
    transport: T,
    sockets: SocketRegistry,
    clock: Clock,
    timer: Timer,
    /// Pool-backed egress queue, filled by `poll_transmit_batch`.
    queue: TransmitQueue,
    /// Reusable ingress batch, filled by `poll_recv_batch`.
    recv: RecvBatch,
    stats: IoStats,
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
            timer: Timer::new(),
            queue: TransmitQueue::new(BATCH_SEGMENTS, SEND_BUF_CAPACITY),
            recv: RecvBatch::new(BATCH_SEGMENTS),
            stats: IoStats::default(),
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

    /// Consumes the driver, returning the transport (sockets close).
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// The bound local addresses, in bind order.
    pub fn local_addrs(&self) -> Vec<SocketAddr> {
        self.sockets.local_addrs()
    }

    /// The current instant on the transport's time line.
    pub fn now(&self) -> mpquic_util::SimTime {
        self.clock.now()
    }

    /// Socket-level counters.
    pub fn stats(&self) -> IoStats {
        self.stats.with_socket_counters(&self.sockets)
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
        if self.timer.is_due(now, self.transport.next_timeout()) {
            self.transport.on_timeout(now);
            self.stats.timer_fires += 1;
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
                self.stats.datagrams_received += 1;
                self.stats.bytes_received += meta.len as u64;
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
        self.stats.datagrams_sent += egress.datagrams;
        self.stats.bytes_sent += egress.bytes;
        // Capped is progress even if the OS took nothing: the caller
        // must step again, not wait.
        progressed |= egress.datagrams > 0 || egress.capped;
        egress.result?;

        Ok(progressed)
    }

    /// Pumps the loop until `done(transport)` returns `true` or `timeout`
    /// of wall time elapses. Returns whether `done` was reached. An idle
    /// iteration parks on the sockets: a datagram ends the wait the
    /// moment it arrives, and otherwise it lasts until the transport's
    /// next deadline, clamped to the polling granularity
    /// ([`Timer::sleep_for`]) so that `done` and `timeout` are looked at
    /// again that often whatever the network does.
    pub fn run_until(
        &mut self,
        timeout: Duration,
        mut done: impl FnMut(&mut T) -> bool,
    ) -> Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            if done(&mut self.transport) {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            if !self.step()? {
                self.park();
            }
        }
    }

    /// Waits out an idle moment: until a datagram arrives, or else
    /// until the transport's next deadline clamped to the polling
    /// granularity ([`Timer::sleep_for`]).
    fn park(&mut self) {
        let wait = self
            .timer
            .sleep_for(self.clock.now(), self.transport.next_timeout());
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
    use mpquic_util::{Datagram, SimTime};

    /// A transport with `left` datagrams to send and nothing else to do.
    struct Flood {
        left: usize,
        local: SocketAddr,
        remote: SocketAddr,
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
        fn handle_datagram(&mut self, _: SimTime, _: SocketAddr, _: SocketAddr, _: &[u8]) {}
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
        };
        let clock = Clock::new();
        let mut queue = TransmitQueue::new(BATCH_SEGMENTS, SEND_BUF_CAPACITY);

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
        assert!(driver.step().unwrap());
        assert!(driver.step().unwrap());
        assert!(!driver.step().unwrap());
        assert_eq!(
            driver.stats().datagrams_sent as usize,
            MAX_SEND_PER_STEP + 40
        );
    }
}
