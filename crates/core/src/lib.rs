//! # mpquic-core — Multipath QUIC
//!
//! A from-scratch Rust implementation of **Multipath QUIC** as designed in
//! *Multipath QUIC: Design and Evaluation* (De Coninck & Bonaventure,
//! CoNEXT 2017): a QUIC extension that lets one connection exploit several
//! network paths simultaneously — WiFi + LTE on a smartphone, IPv4 + IPv6
//! on a dual-stack host.
//!
//! ## Design (paper §3)
//!
//! * **Explicit Path IDs** in the public header, one packet-number space
//!   per path ([`mpquic_wire::PublicHeader`], [`path::Path`]).
//! * **Frames independent of packets**: stream data and control frames may
//!   be (re)transmitted on any path ([`stream`], [`Connection`]).
//! * **Path management**: handshake on the initial path only; new paths
//!   carry data in their first packet; `ADD_ADDRESS` advertises addresses;
//!   `PATHS` shares per-path health ([`Connection`]).
//! * **Lowest-RTT scheduling** with duplication while a path's RTT is
//!   unknown ([`scheduler::select_for_data`]).
//! * **OLIA coupled congestion control** (`mpquic-cc`).
//! * **RTO ⇒ potentially-failed path** handover logic with PATHS-frame
//!   acceleration ([`recovery`], [`Connection`]) — the Fig. 11 mechanism.
//!
//! ## Sans-IO
//!
//! [`Connection`] never touches sockets or clocks. Drive it with:
//!
//! ```text
//! conn.handle_datagram(now, local, remote, &bytes);   // network -> conn
//! while let Some(t) = conn.poll_transmit(now) { ... } // conn -> network
//! conn.next_timeout() / conn.on_timeout(now)          // timers
//! conn.accept_stream() / conn.stream_read(id, max)    // conn -> app
//! ```
//!
//! Applications read the connection's state (streams, paths,
//! `close_reason`); observers install one telemetry subscriber stack
//! (`set_subscriber`), the connection's only event channel.
//!
//! Those four driving calls are [`mpquic_util::Endpoint`], which
//! [`Connection`] implements: `mpquic-netsim`, the discrete-event network
//! the experiments, the examples and this crate's tests run on, drives a
//! connection directly. `mpquic-io` drives the same state machine over
//! real UDP sockets through [`Transport`], an `Endpoint` with a byte
//! stream on top.
//!
//! Single-path QUIC — the paper's baseline — is this same implementation
//! with [`Config::single_path`] (multipath disabled, CUBIC).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod connection;
pub mod flow;
mod handshake;
pub mod invariant;
pub mod path;
pub mod recovery;
pub mod rtt;
pub mod scheduler;
pub mod stream;
pub mod transport;

pub use buffer::{BufferPool, PoolStats, TransmitQueue};
pub use config::{Config, ConfigBuilder, ConfigError, ConnStats, Role, Transmit};
pub use connection::{error_codes, Connection, PathOp};
pub use path::{Path, PathState};
pub use stream::StreamId;
pub use transport::{QuicTransport, Transport};

// Re-export the pieces callers commonly need alongside the connection.
pub use mpquic_cc::CcAlgorithm;
pub use mpquic_wire::PathId;

/// The telemetry crate, re-exported so subscribers can be built without a
/// separate dependency: `mpquic_core::telemetry::StreamingQlog`, etc.
/// Install a stack with [`Connection::set_subscriber`].
pub use mpquic_telemetry as telemetry;
