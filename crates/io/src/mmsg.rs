//! Batched UDP send/receive: `sendmmsg`/`recvmmsg` on Linux, one
//! portable one-at-a-time loop everywhere else.
//!
//! The syscall is the unit of datapath cost: at loopback rates the
//! kernel crossing dominates per-datagram work, so handing the kernel
//! *vectors* of datagrams is what turns the pool-backed egress
//! ([`mpquic_core::Connection::poll_transmit_batch`]) into wire
//! throughput. This module is the platform seam:
//!
//! * [`send_segments`] fans one GSO-shaped segment train (a payload
//!   split at `segment_size` boundaries, see
//!   [`mpquic_core::Transmit::segment_size`]) out to the kernel. On
//!   Linux it first tries real UDP GSO (`UDP_SEGMENT`): one `sendmsg`
//!   carries the whole train and the kernel segments it *once*, below
//!   the per-datagram send path — this is where most of the speedup
//!   lives, since on loopback the per-datagram kernel work dominates
//!   the bare syscall cost. Kernels or paths without GSO fall back to
//!   one `sendmmsg` per train, and non-Linux platforms to one
//!   `send_to` per segment.
//! * [`recv_batch`] fills many caller buffers per call — one `recvmmsg`
//!   on Linux, repeated `recv_from` elsewhere.
//! * [`bind_steered`] binds one socket per endpoint loop on the same
//!   address and has the kernel pick the loop for each datagram by its
//!   connection ID (`SO_REUSEPORT` + a classic-BPF program; Linux only,
//!   [`io::ErrorKind::Unsupported`] elsewhere).
//! * [`Parker`] is what an idle event loop blocks on: one `ppoll(2)`
//!   over its sockets and a wake `eventfd` on Linux, a bounded sleep
//!   elsewhere.
//!
//! The first two return `(datagrams, syscalls)` so the caller's telemetry
//! (batch-size histogram, syscalls saved) reflects what actually
//! happened on the running platform rather than an assumed one.
//!
//! The standard library exposes none of these syscalls (nor a socket
//! that is configured before it is bound) and the workspace is
//! dependency-free, so the Linux half carries its own `extern "C"`
//! declarations and `#[repr(C)]` layouts (matching `struct msghdr`,
//! `struct mmsghdr`, `struct iovec`, `struct sock_fprog`, `struct pollfd`,
//! `struct timespec` and the `sockaddr` family on glibc and musl). All unsafe code in the crate
//! lives behind the scoped `#[allow(unsafe_code)]` here.
//!
//! The portable loop is written once: the non-Linux body of
//! [`send_segments`]/[`recv_batch`] and [`crate::backend::PortableBackend`]
//! are the same two functions. [`crate::backend::MmsgBackend`] wraps the
//! seam itself behind the [`crate::backend::Backend`] trait.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Most datagrams a single batched syscall will carry (the syscall
/// arrays in [`MmsgScratch`] are sized to this; `IOV_MAX` is far
/// larger).
pub const MAX_BATCH: usize = 64;

/// True when the running platform batches natively (one syscall per
/// batch) rather than falling back to one syscall per datagram.
pub const NATIVE_BATCH: bool = cfg!(target_os = "linux");

/// Reusable syscall-argument arrays. One lives in the
/// [`crate::socket::SocketRegistry`]; after the first few calls its
/// vectors reach their high-water capacity and the datapath stops
/// allocating.
#[derive(Debug, Default)]
pub struct MmsgScratch {
    inner: imp::Scratch,
}

/// Sends the segments of `payload` (chunks of `segment_size` bytes; the
/// final one may be short) from `socket` to `remote`.
///
/// Returns `(datagrams_sent, syscalls_used)`. A partial send (the
/// kernel accepted only a prefix) returns the short count; the caller
/// retries the remainder. An immediately-full socket buffer surfaces as
/// `WouldBlock`.
pub fn send_segments(
    socket: &UdpSocket,
    remote: &SocketAddr,
    payload: &[u8],
    segment_size: usize,
    scratch: &mut MmsgScratch,
) -> io::Result<(usize, usize)> {
    if payload.is_empty() {
        return Ok((0, 0));
    }
    let segment_size = if segment_size == 0 {
        payload.len()
    } else {
        segment_size
    };
    imp::send_segments(socket, remote, payload, segment_size, &mut scratch.inner)
}

/// Receives up to `bufs.len()` datagrams from `socket`, one per buffer
/// (each buffer must be pre-sized to the largest acceptable datagram;
/// its length is not changed). Appends `(remote, len)` to `out` for
/// each datagram, in buffer order.
///
/// Returns `(datagrams_received, syscalls_used)`; an empty socket
/// surfaces as `WouldBlock`.
pub fn recv_batch(
    socket: &UdpSocket,
    bufs: &mut [Vec<u8>],
    out: &mut Vec<(SocketAddr, usize)>,
    scratch: &mut MmsgScratch,
) -> io::Result<(usize, usize)> {
    if bufs.is_empty() {
        return Ok((0, 0));
    }
    imp::recv_batch(socket, bufs, out, &mut scratch.inner)
}

/// [`send_segments`] one `send_to` per segment: the crate's only
/// portable send loop, under the seam off Linux and under
/// [`crate::backend::PortableBackend`] everywhere.
pub(crate) fn send_portable(
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
    for chunk in payload.chunks(segment_size).take(MAX_BATCH) {
        match socket.send_to(chunk, *remote) {
            Ok(_) => sent += 1,
            Err(e) if sent == 0 && e.kind() != io::ErrorKind::Interrupted => return Err(e),
            // Partial train: report what went out; the caller
            // retries the rest.
            Err(_) => break,
        }
    }
    Ok((sent, sent.max(1)))
}

/// [`recv_batch`] one `recv_from` per buffer: the portable receive
/// loop, shared the same way as [`send_portable`].
pub(crate) fn recv_portable(
    socket: &UdpSocket,
    bufs: &mut [Vec<u8>],
    out: &mut Vec<(SocketAddr, usize)>,
) -> io::Result<(usize, usize)> {
    if bufs.is_empty() {
        return Ok((0, 0));
    }
    let mut received = 0;
    for buf in bufs.iter_mut().take(MAX_BATCH) {
        match socket.recv_from(buf) {
            Ok((len, remote)) => {
                out.push((remote, len));
                received += 1;
            }
            Err(e) if received == 0 => return Err(e),
            Err(_) => break,
        }
    }
    Ok((received, received.max(1)))
}

/// Grows `socket`'s kernel send and receive buffers toward `bytes`,
/// best-effort. A multi-connection endpoint funnels many clients'
/// traffic through one socket per loop; at the default ~208 KiB receive
/// buffer a brief stall of that loop (a scheduling quantum on a loaded
/// box) overflows it and converts a healthy burst into mass loss and
/// RTO backoff. The kernel clamps the request to `rmem_max`/`wmem_max`,
/// so a refusal or an unprivileged clamp is not an error — the socket
/// simply keeps the size the kernel allows.
pub fn set_buffer_sizes(socket: &UdpSocket, bytes: usize) {
    imp::set_buffer_sizes(socket, bytes);
}

/// Offset of the connection ID's last byte in a datagram: the flags
/// byte, then the CID big-endian in bytes 1..9 — the field
/// [`mpquic_wire::PublicHeader::connection_id_of`] reads.
pub const CID_LAST_BYTE: u32 = 8;

/// Most sockets one steered group can hold: the steering key is one
/// byte, so a 257th socket would never be selected.
pub const MAX_STEERED: usize = 256;

/// Binds `loops` sockets to `addr` as one `SO_REUSEPORT` group steered
/// by connection ID: a classic-BPF program on the group returns
/// `datagram[CID_LAST_BYTE] % loops` and the kernel delivers each
/// datagram to the group member of that index (bind order, the order
/// returned) — [`crate::shard_for_cid`] in three instructions. Every
/// path of a connection carries the same CID, so all of a connection's
/// datagrams reach one socket whatever 4-tuple they arrive on. A
/// datagram too short to hold a CID fails the load and lands on
/// socket 0.
///
/// `addr` may use port 0; the first socket takes an ephemeral port and
/// the rest join it. Fails with [`io::ErrorKind::Unsupported`] when the
/// platform has no such steering (not Linux, or the kernel refused the
/// socket options); any other error is the bind's own.
pub fn bind_steered(addr: SocketAddr, loops: usize) -> io::Result<Vec<UdpSocket>> {
    imp::bind_steered(addr, loops.clamp(1, MAX_STEERED))
}

impl MmsgScratch {
    /// True once this scratch's GSO probe flipped to unsupported (the
    /// sticky `UDP_SEGMENT` fallback; always `false` off-Linux) — the
    /// one rung [`crate::backend::MmsgBackend`] can drop.
    pub fn gso_unsupported(&self) -> bool {
        self.inner.gso_unsupported()
    }
}

/// What an event loop blocks on when it has nothing to do.
///
/// On Linux [`Parker::park`] is one `ppoll(2)` over the loop's sockets,
/// level-triggered: a datagram that arrived before the call makes it
/// return at once, so nothing sent before a park is slept through, and
/// a parked loop is off its core until the kernel has something for it.
/// Elsewhere it is a sleep bounded by
/// [`crate::timer::DEFAULT_GRANULARITY`], after which the caller polls
/// again.
#[derive(Debug, Default)]
pub struct Parker {
    inner: imp::Parker,
}

impl Parker {
    /// A handle another thread uses to end a [`Parker::park`] early.
    /// The first call creates the wake descriptor (an `eventfd` on
    /// Linux, nothing elsewhere: the bounded sleep needs no waking);
    /// a parker nobody asked a waker of watches only its sockets.
    pub fn waker(&mut self) -> io::Result<Waker> {
        self.inner.waker().map(|inner| Waker { inner })
    }

    /// Blocks until one of `sockets` is readable, a [`Waker`] fired, or
    /// `timeout` passed (`None`: no deadline). May return early for no
    /// reason at all (a signal); callers poll and park again.
    pub fn park<'a>(
        &mut self,
        sockets: impl Iterator<Item = &'a UdpSocket>,
        timeout: Option<Duration>,
    ) {
        self.inner.park(sockets, timeout);
    }
}

/// Ends a [`Parker::park`] from another thread. A wake that lands
/// before the park makes that park return immediately (the descriptor
/// stays readable until the parker drains it), so "raise a flag, then
/// wake" can never be slept through.
#[derive(Debug, Clone)]
pub struct Waker {
    inner: imp::Waker,
}

impl Waker {
    /// Wakes the parker, now or at its next park.
    pub fn wake(&self) {
        self.inner.wake();
    }
}

/// Linux: real `sendmmsg`/`recvmmsg` through hand-declared FFI.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    use super::{Duration, SocketAddr, UdpSocket, MAX_BATCH};
    use crate::probe::ProbeState;
    use std::ffi::{c_long, c_ulong};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::{Ipv6Addr, SocketAddrV6};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::sync::Arc;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    /// `SOL_UDP` / `UDP_SEGMENT`: socket-level UDP GSO (Linux ≥ 4.18).
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    /// The kernel refuses GSO trains beyond these bounds.
    const UDP_MAX_SEGMENTS: usize = 64;
    const MAX_GSO_BYTES: usize = 65_507;

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Debug)]
    struct IoVec {
        base: *mut std::ffi::c_void,
        len: usize,
    }

    /// `struct msghdr` (glibc/musl layout; the compiler inserts the
    /// same padding after `namelen` and `flags` that the C definition
    /// carries on 64-bit targets).
    #[repr(C)]
    #[derive(Debug)]
    struct MsgHdr {
        name: *mut std::ffi::c_void,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut std::ffi::c_void,
        controllen: usize,
        flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    #[derive(Debug)]
    pub(super) struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// `struct sockaddr_storage`: opaque bytes, 8-byte aligned, large
    /// enough for any address family.
    #[repr(C, align(8))]
    #[derive(Debug, Clone, Copy)]
    struct SockaddrStorage {
        data: [u8; 128],
    }

    impl Default for SockaddrStorage {
        fn default() -> SockaddrStorage {
            SockaddrStorage { data: [0; 128] }
        }
    }

    /// `SOL_SOCKET` / `SO_SNDBUF` / `SO_RCVBUF` for the buffer-size knob.
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    /// `SO_REUSEPORT` / `SO_ATTACH_REUSEPORT_CBPF` for CID steering.
    const SO_REUSEPORT: i32 = 15;
    const SO_ATTACH_REUSEPORT_CBPF: i32 = 51;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2_000_000;

    /// Classic-BPF opcodes: `ldb [k]`, `mod #k`, `ret a`.
    const BPF_LDB_ABS: u16 = 0x30;
    const BPF_MOD_K: u16 = 0x94;
    const BPF_RET_A: u16 = 0x16;

    /// `struct sock_filter`: one classic-BPF instruction.
    #[repr(C)]
    struct SockFilter {
        code: u16,
        jt: u8,
        jf: u8,
        k: u32,
    }

    /// `struct sock_fprog`: a classic-BPF program by pointer and length.
    #[repr(C)]
    struct SockFprog {
        len: u16,
        filter: *const SockFilter,
    }

    /// `struct pollfd`.
    #[repr(C)]
    #[derive(Debug)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` (`time_t` is `long` on glibc and on 64-bit
    /// musl).
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    const POLLIN: i16 = 0x001;
    const EFD_CLOEXEC: i32 = 0o2_000_000;
    const EFD_NONBLOCK: i32 = 0o4_000;

    extern "C" {
        fn sendmmsg(sockfd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            sockfd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut std::ffi::c_void,
        ) -> i32;
        fn sendmsg(sockfd: i32, msg: *const MsgHdr, flags: i32) -> isize;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(sockfd: i32, addr: *const std::ffi::c_void, addrlen: u32) -> i32;
        fn setsockopt(
            sockfd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    /// `setsockopt(SOL_SOCKET, opt, value)`.
    fn set_socket_option<T>(socket: &UdpSocket, opt: i32, value: &T) -> io::Result<()> {
        // SAFETY: `value` is a live `T` for the whole call and `optlen`
        // is exactly its size; the kernel only reads through the pointer
        // (and, for a `SockFprog`, through the program it points at,
        // which the caller keeps alive alongside it).
        let ret = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_SOCKET,
                opt,
                value as *const T as *const std::ffi::c_void,
                std::mem::size_of::<T>() as u32,
            )
        };
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub(super) fn set_buffer_sizes(socket: &UdpSocket, bytes: usize) {
        let value = bytes.min(i32::MAX as usize) as i32;
        for opt in [SO_RCVBUF, SO_SNDBUF] {
            // Failure (e.g. a tightened rmem_max) is ignored: the socket
            // keeps whatever size the kernel granted.
            let _ = set_socket_option(socket, opt, &value);
        }
    }

    /// A refused steering option, as the one error kind
    /// [`super::bind_steered`] callers fall back on.
    fn unsupported(e: io::Error) -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, e)
    }

    /// An unbound UDP socket of `addr`'s family with `SO_REUSEPORT` set.
    fn reuseport_socket(addr: &SocketAddr) -> io::Result<UdpSocket> {
        let domain = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        // SAFETY: `socket` takes three integers and touches no memory of
        // ours.
        let fd = unsafe { socket(i32::from(domain), SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `socket`, is open, is a UDP
        // socket, and is owned by nobody else; the `UdpSocket` becomes
        // its only owner and closes it on every path out of here.
        let socket = unsafe { UdpSocket::from_raw_fd(fd) };
        set_socket_option(&socket, SO_REUSEPORT, &1i32).map_err(unsupported)?;
        Ok(socket)
    }

    /// `bind(2)`: std only binds at construction, and these sockets need
    /// their options set first.
    fn bind_socket(socket: &UdpSocket, addr: &SocketAddr) -> io::Result<()> {
        let mut storage = SockaddrStorage::default();
        let len = encode_sockaddr(addr, &mut storage);
        // SAFETY: `storage` outlives the call and `len` is the length of
        // the `sockaddr` just encoded into it.
        let ret = unsafe {
            bind(
                socket.as_raw_fd(),
                &storage as *const SockaddrStorage as *const std::ffi::c_void,
                len,
            )
        };
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub(super) fn bind_steered(addr: SocketAddr, loops: usize) -> io::Result<Vec<UdpSocket>> {
        let program = [
            SockFilter {
                code: BPF_LDB_ABS,
                jt: 0,
                jf: 0,
                k: super::CID_LAST_BYTE,
            },
            SockFilter {
                code: BPF_MOD_K,
                jt: 0,
                jf: 0,
                k: loops as u32,
            },
            SockFilter {
                code: BPF_RET_A,
                jt: 0,
                jf: 0,
                k: 0,
            },
        ];
        let fprog = SockFprog {
            len: program.len() as u16,
            filter: program.as_ptr(),
        };
        let first = reuseport_socket(&addr)?;
        // Attached before the bind: the program creates the socket's
        // reuseport group, and a socket that already has a group is never
        // given an ephemeral port some other reuseport socket of this
        // user holds — so a port-0 bind cannot land in a stranger's group.
        set_socket_option(&first, SO_ATTACH_REUSEPORT_CBPF, &fprog).map_err(unsupported)?;
        bind_socket(&first, &addr)?;
        let local = first.local_addr()?;
        let mut group = vec![first];
        for _ in 1..loops {
            let socket = reuseport_socket(&local)?;
            bind_socket(&socket, &local)?;
            group.push(socket);
        }
        Ok(group)
    }

    /// The pollfd array and, once someone asked for a [`Waker`], the
    /// eventfd it writes.
    #[derive(Debug, Default)]
    pub(super) struct Parker {
        wake: Option<Arc<File>>,
        fds: Vec<PollFd>,
    }

    impl Parker {
        pub(super) fn waker(&mut self) -> io::Result<Waker> {
            if let Some(wake) = &self.wake {
                return Ok(Waker(Arc::clone(wake)));
            }
            // SAFETY: `eventfd` takes two integers and touches no memory
            // of ours.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` was just returned by `eventfd`, is open, and is
            // owned by nobody else; the `File` becomes its only owner and
            // closes it when the last `Arc` goes.
            let wake = Arc::new(unsafe { File::from_raw_fd(fd) });
            self.wake = Some(Arc::clone(&wake));
            Ok(Waker(wake))
        }

        pub(super) fn park<'a>(
            &mut self,
            sockets: impl Iterator<Item = &'a UdpSocket>,
            timeout: Option<Duration>,
        ) {
            let watch = |fd| PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            };
            self.fds.clear();
            self.fds.extend(sockets.map(|s| watch(s.as_raw_fd())));
            // The wake descriptor goes last, where its `revents` is
            // looked for below.
            self.fds
                .extend(self.wake.iter().map(|w| watch(w.as_raw_fd())));
            let timeout = timeout.map(|t| Timespec {
                sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
                nsec: t.subsec_nanos() as c_long,
            });
            let timeout = timeout
                .as_ref()
                .map_or(std::ptr::null(), |t| t as *const Timespec);
            // SAFETY: `fds` is a live array of exactly `len` `pollfd`s that
            // the kernel reads and writes `revents` of; `timeout` is null
            // or points at a `Timespec` that outlives the call; the null
            // signal mask means "leave the mask alone". Every descriptor
            // in the array is open: the sockets are borrowed for `'a` and
            // `self.wake` is held by `self`.
            let ready = unsafe {
                ppoll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    timeout,
                    std::ptr::null(),
                )
            };
            // A timeout (0) or `EINTR` (-1) is just an early return: the
            // caller's loop polls everything again either way.
            if ready <= 0 {
                return;
            }
            if let (Some(wake), Some(last)) = (&self.wake, self.fds.last()) {
                if last.revents != 0 {
                    // Reading resets the counter, so the next park
                    // blocks again. Non-blocking: a lost race with
                    // another drain is `WouldBlock`, which is fine.
                    let _ = (&**wake).read(&mut [0u8; 8]);
                }
            }
        }
    }

    /// The write end of a [`Parker`]'s eventfd.
    #[derive(Debug, Clone)]
    pub(super) struct Waker(Arc<File>);

    impl Waker {
        pub(super) fn wake(&self) {
            // Adds one to the counter, making the descriptor readable.
            // The only failure is `WouldBlock` at counter overflow — a
            // wake is pending already.
            let _ = (&*self.0).write_all(&1u64.to_ne_bytes());
        }
    }

    #[derive(Debug)]
    pub(super) struct Scratch {
        hdrs: Vec<MMsgHdr>,
        iovs: Vec<IoVec>,
        addrs: Vec<SockaddrStorage>,
        /// Sticky `UDP_SEGMENT` probe: once unsupported, every later
        /// train goes via `sendmmsg` (see [`crate::probe`]).
        gso: ProbeState,
    }

    impl Default for Scratch {
        fn default() -> Scratch {
            Scratch {
                hdrs: Vec::new(),
                iovs: Vec::new(),
                addrs: Vec::new(),
                gso: ProbeState::new("UDP GSO"),
            }
        }
    }

    impl Scratch {
        pub(super) fn gso_unsupported(&self) -> bool {
            self.gso.is_unsupported()
        }
    }

    /// `struct cmsghdr` (64-bit glibc/musl layout).
    #[repr(C)]
    #[derive(Debug)]
    struct CmsgHdr {
        len: usize,
        level: i32,
        ty: i32,
    }

    /// A control buffer carrying exactly one `UDP_SEGMENT` cmsg:
    /// `CMSG_SPACE(sizeof(u16))` = 24 bytes on 64-bit, header followed
    /// by the segment size and alignment padding.
    ///
    /// Carrying the segment size per *call* (instead of `setsockopt` on
    /// the fd) keeps the option off the socket itself: a train that
    /// falls back to `sendmmsg` has no fd-level state to undo.
    #[repr(C, align(8))]
    #[derive(Debug)]
    struct GsoControl {
        hdr: CmsgHdr,
        seg: u16,
        _pad: [u8; 6],
    }

    impl GsoControl {
        /// `CMSG_LEN(sizeof(u16))`: header plus payload, no tail pad.
        const CMSG_LEN: usize = std::mem::size_of::<CmsgHdr>() + std::mem::size_of::<u16>();

        fn new(segment_size: usize) -> GsoControl {
            GsoControl {
                hdr: CmsgHdr {
                    len: GsoControl::CMSG_LEN,
                    level: SOL_UDP,
                    ty: UDP_SEGMENT,
                },
                seg: segment_size as u16,
                _pad: [0; 6],
            }
        }
    }

    /// One GSO send: the whole train in a single `sendmsg` with a
    /// `UDP_SEGMENT` control message, segmented once inside the kernel.
    /// `Ok(None)` means GSO is unusable here and the caller should fall
    /// back to `sendmmsg`.
    fn send_gso(
        socket: &UdpSocket,
        remote: &SocketAddr,
        payload: &[u8],
        segment_size: usize,
        segments: usize,
        s: &mut Scratch,
    ) -> io::Result<Option<(usize, usize)>> {
        let fd = socket.as_raw_fd();
        let mut addr = SockaddrStorage::default();
        let namelen = encode_sockaddr(remote, &mut addr);
        let mut iov = IoVec {
            base: payload.as_ptr() as *mut std::ffi::c_void,
            len: payload.len(),
        };
        let mut control = GsoControl::new(segment_size);
        let hdr = MsgHdr {
            name: &mut addr as *mut SockaddrStorage as *mut std::ffi::c_void,
            namelen,
            iov: &mut iov as *mut IoVec,
            iovlen: 1,
            control: &mut control as *mut GsoControl as *mut std::ffi::c_void,
            controllen: std::mem::size_of::<GsoControl>(),
            flags: 0,
        };
        // SAFETY: `addr`, `iov`, `control` and `payload` all outlive
        // the call, and `controllen` matches the control buffer's size.
        let ret = unsafe { sendmsg(fd, &hdr, 0) };
        if ret >= 0 {
            // UDP sends are atomic: success means the whole train went.
            return Ok(Some((segments, 1)));
        }
        let e = io::Error::last_os_error();
        // EINVAL/EIO/EMSGSIZE/EOPNOTSUPP (see `probe::UNSUPPORTED_ERRNOS`):
        // this socket or device cannot GSO. Let the caller use the
        // sendmmsg path from now on; nothing to undo since the fd itself
        // was never touched.
        if s.gso.observe(&e, "sendmmsg") {
            Ok(None)
        } else {
            Err(e)
        }
    }

    // SAFETY: the raw pointers inside the scratch arrays point into the
    // scratch itself or into a caller's payload, and only within one
    // `send_segments`/`recv_batch` call — every call clears and rebuilds
    // them before the syscall reads them. Between calls they are dead
    // values, so moving the scratch to another thread aliases nothing.
    unsafe impl Send for Scratch {}

    /// Writes `addr` into `out` in kernel wire layout; returns the
    /// `sockaddr` length to pass as `msg_namelen`.
    fn encode_sockaddr(addr: &SocketAddr, out: &mut SockaddrStorage) -> u32 {
        out.data = [0; 128];
        match addr {
            SocketAddr::V4(v4) => {
                // sockaddr_in: family, port (BE), addr (BE), zero pad.
                let family = AF_INET.to_ne_bytes();
                let port = v4.port().to_be_bytes();
                let ip = v4.ip().octets();
                let src = family.iter().chain(port.iter()).chain(ip.iter());
                for (dst, byte) in out.data.iter_mut().zip(src) {
                    *dst = *byte;
                }
                16
            }
            SocketAddr::V6(v6) => {
                // sockaddr_in6: family, port (BE), flowinfo, addr, scope.
                let family = AF_INET6.to_ne_bytes();
                let port = v6.port().to_be_bytes();
                let flow = v6.flowinfo().to_be_bytes();
                let ip = v6.ip().octets();
                let scope = v6.scope_id().to_ne_bytes();
                let src = family
                    .iter()
                    .chain(port.iter())
                    .chain(flow.iter())
                    .chain(ip.iter())
                    .chain(scope.iter());
                for (dst, byte) in out.data.iter_mut().zip(src) {
                    *dst = *byte;
                }
                28
            }
        }
    }

    /// Parses a kernel-written `sockaddr` back into a `SocketAddr`.
    fn decode_sockaddr(storage: &SockaddrStorage) -> Option<SocketAddr> {
        let mut it = storage.data.iter().copied();
        let family = u16::from_ne_bytes([it.next()?, it.next()?]);
        match family {
            AF_INET => {
                let port = u16::from_be_bytes([it.next()?, it.next()?]);
                let ip = [it.next()?, it.next()?, it.next()?, it.next()?];
                Some(SocketAddr::from((ip, port)))
            }
            AF_INET6 => {
                let port = u16::from_be_bytes([it.next()?, it.next()?]);
                let flow = u32::from_be_bytes([it.next()?, it.next()?, it.next()?, it.next()?]);
                let mut ip = [0u8; 16];
                for slot in ip.iter_mut() {
                    *slot = it.next()?;
                }
                let scope = u32::from_ne_bytes([it.next()?, it.next()?, it.next()?, it.next()?]);
                Some(SocketAddr::V6(SocketAddrV6::new(
                    Ipv6Addr::from(ip),
                    port,
                    flow,
                    scope,
                )))
            }
            _ => None,
        }
    }

    pub(super) fn send_segments(
        socket: &UdpSocket,
        remote: &SocketAddr,
        payload: &[u8],
        segment_size: usize,
        s: &mut Scratch,
    ) -> io::Result<(usize, usize)> {
        let segments = payload.len().div_ceil(segment_size);
        if segments > 1
            && !s.gso.is_unsupported()
            && segments <= UDP_MAX_SEGMENTS
            && payload.len() <= MAX_GSO_BYTES
        {
            if let Some(result) = send_gso(socket, remote, payload, segment_size, segments, s)? {
                return Ok(result);
            }
        }
        // sendmmsg fallback (also the single-datagram path). The GSO
        // segment size travels as a per-call cmsg, so there is no
        // fd-level option to switch off here.
        s.addrs.clear();
        s.addrs.push(SockaddrStorage::default());
        let namelen = match s.addrs.first_mut() {
            Some(slot) => encode_sockaddr(remote, slot),
            None => 0,
        };
        // Phase 1: one iovec per segment (pointers into `payload`).
        s.iovs.clear();
        for chunk in payload.chunks(segment_size).take(MAX_BATCH) {
            s.iovs.push(IoVec {
                base: chunk.as_ptr() as *mut std::ffi::c_void,
                len: chunk.len(),
            });
        }
        // Phase 2: headers, after the iovec vector stopped moving.
        let count = s.iovs.len();
        let name = s
            .addrs
            .first_mut()
            .map(|slot| slot as *mut SockaddrStorage as *mut std::ffi::c_void)
            .unwrap_or(std::ptr::null_mut());
        s.hdrs.clear();
        for iov in s.iovs.iter_mut() {
            s.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name,
                    namelen,
                    iov: iov as *mut IoVec,
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        // SAFETY: every pointer in `hdrs` refers into `s` or `payload`,
        // both live across the call; `count` matches the array length.
        let ret = unsafe { sendmmsg(socket.as_raw_fd(), s.hdrs.as_mut_ptr(), count as u32, 0) };
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok((ret as usize, 1))
        }
    }

    pub(super) fn recv_batch(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
        s: &mut Scratch,
    ) -> io::Result<(usize, usize)> {
        let count = bufs.len().min(MAX_BATCH);
        s.addrs.clear();
        s.addrs.resize(count, SockaddrStorage::default());
        s.iovs.clear();
        for buf in bufs.iter_mut().take(count) {
            s.iovs.push(IoVec {
                base: buf.as_mut_ptr() as *mut std::ffi::c_void,
                len: buf.len(),
            });
        }
        s.hdrs.clear();
        for (addr, iov) in s.addrs.iter_mut().zip(s.iovs.iter_mut()) {
            s.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: addr as *mut SockaddrStorage as *mut std::ffi::c_void,
                    namelen: 128,
                    iov: iov as *mut IoVec,
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        // SAFETY: as in `send_segments`; the null timeout means "do not
        // wait" is governed by the socket's non-blocking mode.
        let ret = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                s.hdrs.as_mut_ptr(),
                count as u32,
                0,
                std::ptr::null_mut(),
            )
        };
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        let received = ret as usize;
        for (hdr, addr) in s.hdrs.iter().zip(s.addrs.iter()).take(received) {
            // An undecodable source address (never seen for UDP in
            // practice) degrades to the unspecified address; the
            // transport discards unauthenticated datagrams anyway.
            let remote =
                decode_sockaddr(addr).unwrap_or_else(|| SocketAddr::from(([0, 0, 0, 0], 0)));
            out.push((remote, hdr.len as usize));
        }
        Ok((received, 1))
    }
}

/// Not Linux: the seam is the portable loop, and there is nothing to
/// probe, size or steer.
#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Duration, SocketAddr, UdpSocket};
    use crate::timer::DEFAULT_GRANULARITY;
    use std::io;

    #[derive(Debug, Default)]
    pub(super) struct Scratch;

    /// No portable readiness wait in std: a park is a sleep short
    /// enough that polling again afterwards loses little, so there is
    /// nothing for a [`Waker`] to interrupt either.
    #[derive(Debug, Default)]
    pub(super) struct Parker;

    impl Parker {
        pub(super) fn waker(&mut self) -> io::Result<Waker> {
            Ok(Waker)
        }

        pub(super) fn park<'a>(
            &mut self,
            _sockets: impl Iterator<Item = &'a UdpSocket>,
            timeout: Option<Duration>,
        ) {
            std::thread::sleep(timeout.map_or(DEFAULT_GRANULARITY, |t| t.min(DEFAULT_GRANULARITY)));
        }
    }

    #[derive(Debug, Clone)]
    pub(super) struct Waker;

    impl Waker {
        pub(super) fn wake(&self) {}
    }

    impl Scratch {
        pub(super) fn gso_unsupported(&self) -> bool {
            false
        }
    }

    pub(super) fn set_buffer_sizes(_socket: &UdpSocket, _bytes: usize) {
        // No portable std API for SO_RCVBUF/SO_SNDBUF; platform defaults
        // stand. The batched endpoint still works, just with less burst
        // absorption.
    }

    pub(super) fn bind_steered(_addr: SocketAddr, _loops: usize) -> io::Result<Vec<UdpSocket>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "no kernel CID steering on this platform",
        ))
    }

    pub(super) fn send_segments(
        socket: &UdpSocket,
        remote: &SocketAddr,
        payload: &[u8],
        segment_size: usize,
        _s: &mut Scratch,
    ) -> io::Result<(usize, usize)> {
        super::send_portable(socket, remote, payload, segment_size)
    }

    pub(super) fn recv_batch(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(SocketAddr, usize)>,
        _s: &mut Scratch,
    ) -> io::Result<(usize, usize)> {
        super::recv_portable(socket, bufs, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let b_addr = b.local_addr().unwrap();
        (a, b, b_addr)
    }

    #[test]
    fn segment_train_round_trips() {
        let (a, b, b_addr) = pair();
        let mut scratch = MmsgScratch::default();

        // 3 full segments + 1 short one.
        let payload: Vec<u8> = (0..350).map(|i| i as u8).collect();
        let (sent, syscalls) = send_segments(&a, &b_addr, &payload, 100, &mut scratch).unwrap();
        assert_eq!(sent, 4);
        assert!(syscalls >= 1);
        if NATIVE_BATCH {
            assert_eq!(syscalls, 1, "Linux sends the train in one syscall");
        }

        let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 2048]).collect();
        let mut metas = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = 0;
        while got < 4 && std::time::Instant::now() < deadline {
            match recv_batch(&b, &mut bufs[got..], &mut metas, &mut scratch) {
                Ok((k, _)) => got += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_micros(200))
                }
                Err(e) => panic!("recv: {e}"),
            }
        }
        assert_eq!(got, 4, "all four segments arrive");
        let lens: Vec<usize> = metas.iter().map(|(_, len)| *len).collect();
        assert_eq!(lens, [100, 100, 100, 50]);
        let a_addr = a.local_addr().unwrap();
        for (remote, _) in &metas {
            assert_eq!(*remote, a_addr, "source address survives the batch path");
        }
        // Byte-for-byte reassembly across the buffers.
        let mut rejoined = Vec::new();
        for (buf, (_, len)) in bufs.iter().zip(metas.iter()) {
            rejoined.extend_from_slice(&buf[..*len]);
        }
        assert_eq!(rejoined, payload);
    }

    #[test]
    fn empty_socket_reports_would_block() {
        let (_a, b, _b_addr) = pair();
        let mut scratch = MmsgScratch::default();
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 128]];
        let mut metas = Vec::new();
        let err = recv_batch(&b, &mut bufs, &mut metas, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn zero_segment_size_means_one_datagram() {
        let (a, b, b_addr) = pair();
        let mut scratch = MmsgScratch::default();
        let (sent, _) = send_segments(&a, &b_addr, b"hello", 0, &mut scratch).unwrap();
        assert_eq!(sent, 1);
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 128]];
        let mut metas = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match recv_batch(&b, &mut bufs, &mut metas, &mut scratch) {
                Ok((1, _)) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "datagram arrives");
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                Err(e) => panic!("recv: {e}"),
            }
        }
        assert_eq!(metas[0].1, 5);
        assert_eq!(&bufs[0][..5], b"hello");
    }

    /// The kernel half of `shard_for_cid`: whatever source port a
    /// datagram comes from, it lands on the group member its CID's last
    /// byte names — and that byte is where the wire format puts it.
    #[cfg(target_os = "linux")]
    #[test]
    fn steered_group_delivers_by_cid_last_byte() {
        const LOOPS: usize = 3;
        let group = bind_steered("127.0.0.1:0".parse().unwrap(), LOOPS).expect("steering");
        assert_eq!(group.len(), LOOPS);
        let addr = group[0].local_addr().unwrap();
        for socket in &group {
            assert_eq!(socket.local_addr().unwrap(), addr, "one port for the group");
            socket.set_nonblocking(true).unwrap();
        }

        let mut sent = [0usize; LOOPS];
        for port in 0..8u64 {
            let client = UdpSocket::bind("127.0.0.1:0").unwrap();
            for i in 0..16u64 {
                let cid = 0xC0FF_EE00_0000_0000 | ((port * 16 + i) * 37);
                let mut datagram = vec![0x40u8; 24];
                datagram[1..9].copy_from_slice(&cid.to_be_bytes());
                assert_eq!(
                    mpquic_wire::PublicHeader::connection_id_of(&datagram),
                    Some(cid)
                );
                assert_eq!(u64::from(datagram[CID_LAST_BYTE as usize]), cid & 0xFF);
                client.send_to(&datagram, addr).unwrap();
                sent[crate::shard_for_cid(cid, LOOPS)] += 1;
            }
            // Too short for a CID: the program's load fails, socket 0.
            client.send_to(&[0x40, 0, 0], addr).unwrap();
            sent[0] += 1;
        }

        let mut buf = [0u8; 64];
        for (index, socket) in group.iter().enumerate() {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            let mut got = 0;
            while got < sent[index] && std::time::Instant::now() < deadline {
                match socket.recv_from(&mut buf) {
                    Ok((len, _)) => {
                        if len > CID_LAST_BYTE as usize {
                            let cid = mpquic_wire::PublicHeader::connection_id_of(&buf[..len]);
                            assert_eq!(cid.map(|c| crate::shard_for_cid(c, LOOPS)), Some(index));
                        }
                        got += 1;
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_micros(200)),
                }
            }
            assert_eq!(got, sent[index], "socket {index} got its share, no more");
            assert!(
                socket.recv_from(&mut buf).is_err(),
                "socket {index} got extra"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn ipv6_addresses_round_trip() {
        let a = UdpSocket::bind("[::1]:0").unwrap();
        let b = UdpSocket::bind("[::1]:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let b_addr = b.local_addr().unwrap();
        let mut scratch = MmsgScratch::default();
        let (sent, _) = send_segments(&a, &b_addr, b"v6", 0, &mut scratch).unwrap();
        assert_eq!(sent, 1);
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 128]];
        let mut metas = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            match recv_batch(&b, &mut bufs, &mut metas, &mut scratch) {
                Ok((1, _)) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "datagram arrives");
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                Err(e) => panic!("recv: {e}"),
            }
        }
        assert_eq!(metas[0].0, a.local_addr().unwrap());
    }
}
