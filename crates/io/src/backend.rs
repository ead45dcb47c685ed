//! Pluggable datapath backends: one seam, three ways to cross the
//! kernel boundary.
//!
//! The [`Backend`] trait abstracts the two batched operations the
//! datapath is built from — submit one egress segment train, complete
//! one ingress batch — so [`crate::SocketRegistry`] can swap *how* those
//! batches reach the kernel without its callers noticing:
//!
//! * [`UringBackend`](crate::uring::UringBackend) (Linux): completion-
//!   based IO over hand-rolled `io_uring` FFI — linked send SQEs (or a
//!   single GSO SQE) per train, batched `recvmsg` SQEs per ingress
//!   poll, one `io_uring_enter` per batch.
//! * [`MmsgBackend`]: the PR 4 ladder — UDP GSO when the socket takes
//!   it, `sendmmsg`/`recvmmsg` otherwise (one syscall per batch).
//! * [`PortableBackend`]: one `send_to`/`recv_from` per datagram;
//!   works on every platform `std` does.
//!
//! Selection is a runtime probe, not a compile-time switch: `auto`
//! starts at the top of the ladder and every refusal ([`crate::probe`])
//! drops one rung, sticky per registry clone — exactly how the GSO
//! fallback has always behaved, now generalised to whole backends. The
//! `--backend {auto,uring,mmsg,portable}` flag on the binaries forces
//! an arm for benchmarking and tests ([`BackendChoice`]).
//!
//! Every backend keeps [`BackendStats`] — submissions, completions,
//! fallbacks, entries-per-submit histogram — which the endpoint folds
//! into the `mpq_backend_*` metric family.

use mpquic_telemetry::LogHistogram;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU8, Ordering};

use crate::mmsg::{self, MmsgScratch};

/// Which implementation a [`Backend`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `io_uring` submission/completion rings (Linux).
    Uring,
    /// GSO + `sendmmsg`/`recvmmsg` batching (the PR 4 datapath).
    Mmsg,
    /// One datagram per syscall through `std`.
    Portable,
}

impl BackendKind {
    /// Stable lower-case name, as it appears in reports, benchmark JSON
    /// and the `--backend` flag.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Uring => "uring",
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

/// What the user asked for: a forced arm, or the probe ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Probe down the ladder: uring → mmsg → portable.
    #[default]
    Auto,
    /// Force `io_uring`; construction fails where the kernel lacks it.
    Uring,
    /// Force the `sendmmsg`/`recvmmsg` path.
    Mmsg,
    /// Force the one-syscall-per-datagram path.
    Portable,
}

impl BackendChoice {
    /// Every valid `--backend` value, for usage strings.
    pub const NAMES: [&'static str; 4] = ["auto", "uring", "mmsg", "portable"];

    fn as_u8(self) -> u8 {
        match self {
            BackendChoice::Auto => 0,
            BackendChoice::Uring => 1,
            BackendChoice::Mmsg => 2,
            BackendChoice::Portable => 3,
        }
    }

    fn from_u8(value: u8) -> BackendChoice {
        match value {
            1 => BackendChoice::Uring,
            2 => BackendChoice::Mmsg,
            3 => BackendChoice::Portable,
            _ => BackendChoice::Auto,
        }
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendChoice, String> {
        match s {
            "auto" => Ok(BackendChoice::Auto),
            "uring" => Ok(BackendChoice::Uring),
            "mmsg" => Ok(BackendChoice::Mmsg),
            "portable" => Ok(BackendChoice::Portable),
            other => Err(format!(
                "unknown backend '{other}' (expected one of: {})",
                BackendChoice::NAMES.join(", ")
            )),
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Uring => "uring",
            BackendChoice::Mmsg => "mmsg",
            BackendChoice::Portable => "portable",
        })
    }
}

/// The process-wide default `--backend` choice, set once by a binary's
/// flag parsing before any registry binds. An ordinary config cell:
/// Release on store / Acquire on load publish it to whatever thread
/// binds next.
static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default backend choice (what
/// [`crate::SocketRegistry::bind`] uses). Binaries call this from
/// `--backend`; tests and benches prefer the explicit
/// [`crate::SocketRegistry::bind_with`].
pub fn set_default_choice(choice: BackendChoice) {
    DEFAULT_BACKEND.store(choice.as_u8(), Ordering::Release);
}

/// The current process-wide default backend choice.
pub fn default_choice() -> BackendChoice {
    BackendChoice::from_u8(DEFAULT_BACKEND.load(Ordering::Acquire))
}

/// Per-backend submit/complete telemetry, the raw material of the
/// `mpq_backend_*` metric family. "Entry" is one submitted unit of
/// work: an SQE on io_uring, an `mmsghdr` slot (or one GSO `sendmsg`
/// carrying a whole train) on mmsg, one syscall on portable.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Entries handed to the kernel.
    pub submissions: u64,
    /// Entries that completed successfully (datagrams on the wire or
    /// in a buffer).
    pub completions: u64,
    /// Rungs dropped: GSO → sendmmsg inside a backend, or a whole
    /// backend swapped down the ladder by the registry.
    pub fallbacks: u64,
    /// Entries per kernel submit boundary (per `io_uring_enter`, per
    /// `sendmmsg`/`recvmmsg`, per productive portable poll).
    pub sqe_batch: LogHistogram,
}

impl BackendStats {
    /// Folds another backend's counters into this one (per-shard →
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
/// the rest), and an empty socket surfaces as `WouldBlock`. Errors the
/// registry classifies as "backend unsupported"
/// ([`crate::probe::is_unsupported`]) trigger a sticky swap down the
/// ladder — implementations should let construction-type failures
/// (`ENOSYS`, `EPERM`, `EOPNOTSUPP`, `EINVAL`) escape rather than
/// retrying them forever.
pub trait Backend: std::fmt::Debug + Send {
    /// Which implementation this is (names the bench arm and report
    /// line).
    fn kind(&self) -> BackendKind;

    /// Submits one egress train: `payload` split at `segment_size`
    /// boundaries, fanned out to `remote`.
    fn send_segments(
        &mut self,
        socket: &UdpSocket,
        remote: &SocketAddr,
        payload: &[u8],
        segment_size: usize,
    ) -> io::Result<(usize, usize)>;

    /// Completes one ingress batch: up to `bufs.len()` datagrams, one
    /// per buffer, appending `(remote, len)` to `out` in buffer order.
    fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
    ) -> io::Result<(usize, usize)>;

    /// Submit/complete counters accumulated so far.
    fn stats(&self) -> &BackendStats;
}

/// The PR 4 datapath as a [`Backend`]: UDP GSO with a sticky per-clone
/// fallback to `sendmmsg`/`recvmmsg` (on non-Linux targets the
/// underlying seam is already the portable loop, so this backend equals
/// [`PortableBackend`] there).
#[derive(Debug, Default)]
pub struct MmsgBackend {
    scratch: MmsgScratch,
    stats: BackendStats,
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
        let gso_was_live = !self.scratch.gso_unsupported();
        let result = mmsg::send_segments(socket, remote, payload, segment_size, &mut self.scratch);
        if gso_was_live && self.scratch.gso_unsupported() {
            // The GSO probe flipped inside this call: one rung down.
            self.stats.fallbacks += 1;
        }
        if let Ok((datagrams, syscalls)) = result {
            if datagrams > 0 {
                self.stats.submissions += datagrams as u64;
                self.stats.completions += datagrams as u64;
                // Entries per submit boundary: the whole train on one
                // GSO/sendmmsg syscall, 1 on the portable-shaped path.
                self.stats
                    .sqe_batch
                    .record((datagrams / syscalls.max(1)) as u64);
            }
        }
        result
    }

    fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
    ) -> io::Result<(usize, usize)> {
        let result = mmsg::recv_batch(socket, bufs, out, &mut self.scratch);
        if let Ok((datagrams, _)) = result {
            if datagrams > 0 {
                self.stats.submissions += datagrams as u64;
                self.stats.completions += datagrams as u64;
                self.stats.sqe_batch.record(datagrams as u64);
            }
        }
        result
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }
}

/// The bottom of the ladder: one syscall per datagram through `std`'s
/// portable socket API. Never fails construction, never falls back.
#[derive(Debug, Default)]
pub struct PortableBackend {
    stats: BackendStats,
}

impl PortableBackend {
    /// A fresh portable backend.
    pub fn new() -> PortableBackend {
        PortableBackend::default()
    }
}

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
        if payload.is_empty() {
            return Ok((0, 0));
        }
        let segment_size = if segment_size == 0 {
            payload.len()
        } else {
            segment_size
        };
        let mut sent = 0;
        for chunk in payload.chunks(segment_size).take(mmsg::MAX_BATCH) {
            match socket.send_to(chunk, *remote) {
                Ok(_) => sent += 1,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => break,
                Err(e) if sent == 0 => return Err(e),
                // Partial train: report what went out; the caller
                // retries the rest.
                Err(_) => break,
            }
        }
        if sent > 0 {
            self.stats.submissions += sent as u64;
            self.stats.completions += sent as u64;
            self.stats.sqe_batch.record(1);
        }
        Ok((sent, sent.max(1)))
    }

    fn recv_batch(
        &mut self,
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
    ) -> io::Result<(usize, usize)> {
        if bufs.is_empty() {
            return Ok((0, 0));
        }
        let mut received = 0;
        for buf in bufs.iter_mut().take(mmsg::MAX_BATCH) {
            match socket.recv_from(buf) {
                Ok((len, remote)) => {
                    out.push((remote, len));
                    received += 1;
                }
                Err(e) if received == 0 => return Err(e),
                Err(_) => break,
            }
        }
        if received > 0 {
            self.stats.submissions += received as u64;
            self.stats.completions += received as u64;
            self.stats.sqe_batch.record(1);
        }
        Ok((received, received.max(1)))
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }
}

/// Builds the backend a `--backend` choice names. `Auto` probes down
/// the ladder and cannot fail; a forced arm that the platform lacks
/// (uring on a kernel without `io_uring`, or on non-Linux) returns the
/// construction error so callers can skip-with-message instead of
/// silently testing the wrong thing.
pub fn create(choice: BackendChoice) -> io::Result<Box<dyn Backend>> {
    match choice {
        BackendChoice::Auto => Ok(probe_ladder()),
        BackendChoice::Uring => create_uring(),
        BackendChoice::Mmsg => Ok(Box::new(MmsgBackend::new())),
        BackendChoice::Portable => Ok(Box::new(PortableBackend::new())),
    }
}

#[cfg(target_os = "linux")]
fn create_uring() -> io::Result<Box<dyn Backend>> {
    crate::uring::UringBackend::new().map(|backend| Box::new(backend) as Box<dyn Backend>)
}

#[cfg(not(target_os = "linux"))]
fn create_uring() -> io::Result<Box<dyn Backend>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "io_uring backend requires Linux",
    ))
}

/// The `auto` probe: top of the ladder downward, one process-wide
/// warning the first time the top rung is refused.
fn probe_ladder() -> Box<dyn Backend> {
    match create_uring() {
        Ok(backend) => backend,
        Err(e) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!("warn: io_uring backend unavailable ({e}); falling back to mmsg");
            });
            Box::new(MmsgBackend::new())
        }
    }
}

/// The rung below `kind`, for the registry's sticky runtime fallback.
/// `None` below the portable floor.
pub fn next_fallback(kind: BackendKind) -> Option<Box<dyn Backend>> {
    match kind {
        BackendKind::Uring => Some(Box::new(MmsgBackend::new())),
        BackendKind::Mmsg => Some(Box::new(PortableBackend::new())),
        BackendKind::Portable => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_round_trips_through_names() {
        for name in BackendChoice::NAMES {
            let choice: BackendChoice = name.parse().unwrap();
            assert_eq!(choice.to_string(), name);
        }
        assert!("epoll".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn default_choice_is_auto_and_settable() {
        // Runs in-process with other tests, so restore the default.
        let before = default_choice();
        set_default_choice(BackendChoice::Portable);
        assert_eq!(default_choice(), BackendChoice::Portable);
        set_default_choice(before);
    }

    #[test]
    fn ladder_descends_to_portable_floor() {
        assert_eq!(
            next_fallback(BackendKind::Uring).map(|b| b.kind()),
            Some(BackendKind::Mmsg)
        );
        assert_eq!(
            next_fallback(BackendKind::Mmsg).map(|b| b.kind()),
            Some(BackendKind::Portable)
        );
        assert!(next_fallback(BackendKind::Portable).is_none());
    }

    #[test]
    fn forced_arms_construct_or_refuse_honestly() {
        assert_eq!(
            create(BackendChoice::Mmsg).unwrap().kind(),
            BackendKind::Mmsg
        );
        assert_eq!(
            create(BackendChoice::Portable).unwrap().kind(),
            BackendKind::Portable
        );
        // Auto never fails; it lands on whatever the platform has.
        let auto = create(BackendChoice::Auto).unwrap();
        assert!(matches!(
            auto.kind(),
            BackendKind::Uring | BackendKind::Mmsg
        ));
    }

    #[test]
    fn portable_backend_round_trips_a_train() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let b_addr = b.local_addr().unwrap();
        let mut backend = PortableBackend::new();
        let payload: Vec<u8> = (0..250).map(|i| i as u8).collect();
        let (sent, syscalls) = backend.send_segments(&a, &b_addr, &payload, 100).unwrap();
        assert_eq!(sent, 3);
        assert_eq!(syscalls, 3, "portable pays one syscall per datagram");
        assert_eq!(backend.stats().completions, 3);

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
