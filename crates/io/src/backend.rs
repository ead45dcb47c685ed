//! The datapath backend seam: one batched way across the kernel
//! boundary, one portable loop beneath it.
//!
//! The [`Backend`] trait abstracts the two batched operations the
//! datapath is built from — send one egress segment train, receive one
//! ingress batch — so [`crate::SocketRegistry`] can swap *how* those
//! batches reach the kernel without its callers noticing:
//!
//! * [`MmsgBackend`]: UDP GSO when the socket takes it,
//!   `sendmmsg`/`recvmmsg` otherwise (one syscall per batch).
//! * [`PortableBackend`]: one `send_to`/`recv_from` per datagram;
//!   works on every platform `std` does.
//!
//! No option chooses between them. The target OS does at build time
//! ([`mmsg::NATIVE_BATCH`]), the sticky GSO probe does inside
//! [`MmsgBackend`] ([`crate::probe`]), and a kernel that answers
//! `ENOSYS` to the batched syscalls sends the registry down to the
//! portable loop for good. [`BackendChoice`] exists so tests and
//! benchmarks can pin an arm through
//! [`crate::SocketRegistry::bind_with`].

use mpquic_telemetry::LogHistogram;
use std::io;
use std::net::{SocketAddr, UdpSocket};

use crate::mmsg::{self, MmsgScratch};

/// Which implementation a [`Backend`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// GSO + `sendmmsg`/`recvmmsg` batching.
    Mmsg,
    /// One datagram per syscall through `std`.
    Portable,
}

impl BackendKind {
    /// Stable lower-case name, as it appears in reports and benchmark
    /// JSON.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Mmsg => "mmsg",
            BackendKind::Portable => "portable",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which backend a registry starts on. On Linux `Auto` and `Mmsg` are
/// the same thing; elsewhere `Auto` is `Portable`, and `Mmsg` names the
/// same portable loop through the [`mmsg`] seam's non-Linux body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The platform's best: `Mmsg` where [`mmsg::NATIVE_BATCH`],
    /// `Portable` elsewhere.
    #[default]
    Auto,
    /// The `sendmmsg`/`recvmmsg` path.
    Mmsg,
    /// The one-syscall-per-datagram path.
    Portable,
}

/// The registry's datapath telemetry as the `mpq_backend_*` metric
/// family reports it. "Entry" is one datagram handed to (or taken
/// from) the kernel, so on a healthy datapath `submissions ==
/// completions`; the registry derives all of it from its
/// [`crate::BatchStats`] tally rather than counting twice.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Entries handed to the kernel.
    pub submissions: u64,
    /// Entries that completed successfully (datagrams on the wire or
    /// in a buffer).
    pub completions: u64,
    /// Rungs dropped: GSO → `sendmmsg` inside [`MmsgBackend`], or the
    /// registry's `ENOSYS` descent to [`PortableBackend`].
    pub fallbacks: u64,
    /// Entries per productive batched call, sends and receives alike.
    pub sqe_batch: LogHistogram,
}

impl BackendStats {
    /// Folds another registry's counters into this one (per-shard →
    /// endpoint aggregation, same shape as `BatchStats::merge`).
    pub fn merge(&mut self, other: &BackendStats) {
        self.submissions += other.submissions;
        self.completions += other.completions;
        self.fallbacks += other.fallbacks;
        self.sqe_batch.merge(&other.sqe_batch);
    }
}

/// One way to move batches across the kernel boundary.
///
/// The contract is exactly [`crate::mmsg`]'s: both operations return
/// `(datagrams, syscalls)`, an empty payload is `Ok((0, 0))`,
/// `segment_size == 0` means "the whole payload is one datagram", a
/// partial send returns the accepted *prefix* count (the caller retries
/// the rest), and an empty socket surfaces as `WouldBlock`. `ENOSYS`
/// — the kernel has no such syscall — makes the registry swap in
/// [`PortableBackend`] for good; every other error is about the one
/// datagram or destination and goes to the caller.
pub trait Backend: std::fmt::Debug + Send {
    /// Which implementation this is (names the bench arm and report
    /// line).
    fn kind(&self) -> BackendKind;

    /// Sends one egress train: `payload` split at `segment_size`
    /// boundaries, fanned out to `remote`.
    fn send_segments(
        &mut self,
        socket: &UdpSocket,
        remote: &SocketAddr,
        payload: &[u8],
        segment_size: usize,
    ) -> io::Result<(usize, usize)>;

    /// Receives one ingress batch: up to `bufs.len()` datagrams, one
    /// per buffer, appending `(remote, len)` to `out` in buffer order.
    fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
    ) -> io::Result<(usize, usize)>;

    /// GSO rungs this backend dropped (its sticky probe flips once);
    /// 0 for a backend that has no GSO rung.
    fn gso_fallbacks(&self) -> u64 {
        0
    }
}

/// The batched datapath as a [`Backend`]: UDP GSO with a sticky
/// fallback to `sendmmsg`/`recvmmsg`.
#[derive(Debug, Default)]
pub struct MmsgBackend {
    scratch: MmsgScratch,
}

impl MmsgBackend {
    /// A fresh backend with its own scratch arrays and GSO probe.
    pub fn new() -> MmsgBackend {
        MmsgBackend::default()
    }
}

impl Backend for MmsgBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mmsg
    }

    fn send_segments(
        &mut self,
        socket: &UdpSocket,
        remote: &SocketAddr,
        payload: &[u8],
        segment_size: usize,
    ) -> io::Result<(usize, usize)> {
        mmsg::send_segments(socket, remote, payload, segment_size, &mut self.scratch)
    }

    fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
    ) -> io::Result<(usize, usize)> {
        mmsg::recv_batch(socket, bufs, out, &mut self.scratch)
    }

    fn gso_fallbacks(&self) -> u64 {
        u64::from(self.scratch.gso_unsupported())
    }
}

/// The floor: the [`mmsg`] seam's portable loop, one syscall per
/// datagram through `std`. Never falls back.
#[derive(Debug, Default)]
pub struct PortableBackend;

impl Backend for PortableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Portable
    }

    fn send_segments(
        &mut self,
        socket: &UdpSocket,
        remote: &SocketAddr,
        payload: &[u8],
        segment_size: usize,
    ) -> io::Result<(usize, usize)> {
        mmsg::send_portable(socket, remote, payload, segment_size)
    }

    fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
    ) -> io::Result<(usize, usize)> {
        mmsg::recv_portable(socket, bufs, out)
    }
}

/// Builds the backend `choice` names.
pub fn create(choice: BackendChoice) -> Box<dyn Backend> {
    match choice {
        BackendChoice::Portable => Box::new(PortableBackend),
        BackendChoice::Auto if !mmsg::NATIVE_BATCH => Box::new(PortableBackend),
        BackendChoice::Auto | BackendChoice::Mmsg => Box::new(MmsgBackend::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_name_their_arm() {
        assert_eq!(create(BackendChoice::Mmsg).kind(), BackendKind::Mmsg);
        assert_eq!(
            create(BackendChoice::Portable).kind(),
            BackendKind::Portable
        );
    }

    #[test]
    fn portable_backend_round_trips_a_train() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let b_addr = b.local_addr().unwrap();
        let mut backend = PortableBackend;
        let payload: Vec<u8> = (0..250).map(|i| i as u8).collect();
        let (sent, syscalls) = backend.send_segments(&a, &b_addr, &payload, 100).unwrap();
        assert_eq!(sent, 3);
        assert_eq!(syscalls, 3, "portable pays one syscall per datagram");

        let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 2048]).collect();
        let mut metas = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = 0;
        while got < 3 && std::time::Instant::now() < deadline {
            match backend.recv_batch(&b, &mut bufs[got..], &mut metas) {
                Ok((k, _)) => got += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_micros(200))
                }
                Err(e) => panic!("recv: {e}"),
            }
        }
        assert_eq!(got, 3);
        let lens: Vec<usize> = metas.iter().map(|(_, len)| *len).collect();
        assert_eq!(lens, [100, 100, 50]);
    }
}
