//! # mpquic-io — the real-socket runtime
//!
//! Everything in `mpquic-core` is sans-IO: a [`mpquic_core::Connection`]
//! only ever sees datagrams, instants and timer callbacks. The simulator
//! (`mpquic-netsim`) feeds it a modelled network; this crate feeds it the
//! *real* one, through `std::net::UdpSocket` — no async runtime, no
//! platform pollers, no new dependencies.
//!
//! The pieces, mirroring how deployed stacks split platform IO from
//! transport logic:
//!
//! * [`socket::SocketRegistry`] — one non-blocking UDP socket per local
//!   interface address; outgoing datagrams are routed to the socket bound
//!   to their source address, which is how the scheduler's path choice
//!   reaches the OS. Send and receive are batched (`sendmmsg`/`recvmmsg`
//!   on Linux, see [`mmsg`]), and GSO-shaped segment trains from the
//!   core's pool-backed egress fan out in one syscall.
//! * [`clock::Clock`] — maps the monotonic wall clock onto the
//!   `SimTime` time line the protocol speaks.
//! * [`timer::Timer`] — deadline arithmetic for the one-connection
//!   loop: wait exactly until the transport's next RTO/ACK/probe
//!   deadline, never past it.
//! * [`driver::Driver`] — the event loop pumping any
//!   [`mpquic_harness::Transport`] (QUIC, and equally the TCP stack)
//!   through the ingress → timers → egress cycle.
//! * [`endpoint::Endpoint`] + [`shard`] — the multi-connection server:
//!   N identical `Driver`-style loops, each over its own sockets and a
//!   disjoint connection set the kernel steers to it by connection ID
//!   (DESIGN.md §12).
//! * [`backoff::Backoff`] — graduated spin → yield → sleep waiting for
//!   a full send buffer, and spin → yield → *park* for an idle loop:
//!   every loop above blocks on its sockets
//!   ([`socket::SocketRegistry::wait_readable`]) rather than sleep.
//! * [`rpc`] — `mpq-rpc`, the one application protocol everything
//!   here serves and measures (DESIGN.md §20): `mpq-server` and
//!   `mpq-client`, the `mpquic-loadgen` harness and the `perf/`
//!   yardstick all run [`RpcServerApp`] against [`RpcCall`] — many
//!   concurrent exchanges per connection, one per client-opened stream.
//!
//! ## A multipath upload over real sockets
//!
//! ```no_run
//! use mpquic_core::Config;
//! use mpquic_io::{quic_client, RpcCall};
//! use std::time::Duration;
//!
//! // Two local interfaces (here: two loopback ports) — the path manager
//! // opens the second path automatically after the handshake.
//! let mut driver = quic_client(
//!     Config::builder().multipath().build().unwrap(),
//!     &["127.0.0.1:0".parse().unwrap(), "127.0.0.1:0".parse().unwrap()],
//!     "127.0.0.1:4433".parse().unwrap(),
//!     7,
//! ).unwrap();
//! // One exchange: the payload up, no response body, last on this
//! // connection. The request is buffered now and leaves as the
//! // handshake and the windows allow.
//! let payload = b"over two real UDP sockets";
//! let mut call = RpcCall::start(driver.connection_mut(), payload, 0, true);
//! let mut verdict = None;
//! driver.run_until(Duration::from_secs(30), |t| {
//!     verdict = call.poll(&mut t.conn);
//!     verdict.is_some() || t.conn.is_closed()
//! }).unwrap();
//! // The server echoed the checksum of what it reassembled.
//! assert!(verdict.is_some_and(|v| v.ok && v.intact));
//! ```

// `deny`, not `forbid`: the socket FFI (`sendmmsg`/`recvmmsg`, the
// `SO_REUSEPORT` steering bind, the `ppoll` park) lives behind the
// crate's one scoped `#[allow(unsafe_code)]`, in [`mmsg`].
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod backoff;
pub mod cli;
pub mod clock;
pub mod driver;
pub mod endpoint;
pub mod error;
pub mod mmsg;
pub mod probe;
pub mod rpc;
pub mod shard;
pub mod socket;
pub mod timer;

pub use backend::{Backend, BackendChoice, BackendKind, BackendStats};
pub use backoff::Backoff;
pub use clock::Clock;
pub use driver::{quic_client, quic_server, Driver, IoStats};
pub use endpoint::{
    AppFactory, AppStatus, ConnApp, Endpoint, EndpointPlane, EndpointReport, EndpointSnapshot,
    EndpointStats, FlightKind, PlaneSnapshot, Tombstones,
};
pub use error::Error;
pub use rpc::{RpcCall, RpcServerApp, RpcVerdict};
pub use shard::{shard_for_cid, ShardReport};
pub use socket::{BatchStats, RecvBatch, SocketRegistry};
pub use timer::Timer;

// The abstractions this runtime plugs into, re-exported for convenience.
pub use mpquic_harness::{QuicTransport, Transport};
pub use mpquic_util::Datagram;
