//! The four evaluated protocols and their endpoint construction.

use mpquic_core::{CcAlgorithm, Config as QuicConfig, Connection};
use mpquic_netsim::{Datagram, Endpoint, NetworkPlan};
use mpquic_tcp::{TcpConfig, TcpStack};
use mpquic_util::SimTime;
use std::net::SocketAddr;

use crate::app::App;
use crate::transport::{AnyTransport, QuicTransport, TcpTransport, Transport};

/// The protocols compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Single-path TCP with TLS 1.2 and CUBIC.
    Tcp,
    /// Multipath TCP (Linux v0.91 semantics) with OLIA.
    Mptcp,
    /// Single-path QUIC (gQUIC crypto, CUBIC).
    Quic,
    /// Multipath QUIC — the paper's contribution (OLIA, lowest-RTT
    /// scheduler with duplication).
    Mpquic,
}

impl Protocol {
    /// All four, in the paper's enumeration order.
    pub const ALL: [Protocol; 4] = [
        Protocol::Tcp,
        Protocol::Mptcp,
        Protocol::Quic,
        Protocol::Mpquic,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tcp => "TCP",
            Protocol::Mptcp => "MPTCP",
            Protocol::Quic => "QUIC",
            Protocol::Mpquic => "MPQUIC",
        }
    }

    /// True for the multipath variants.
    pub fn is_multipath(self) -> bool {
        matches!(self, Protocol::Mptcp | Protocol::Mpquic)
    }
}

/// Optional deviations from the paper's default configuration, used by
/// the ablation benches (DESIGN.md §6).
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// Toggle the MPQUIC scheduler's duplication while a path's RTT is
    /// unknown (the paper's §3 no-duplication ablation).
    pub duplicate_unknown_rtt: Option<bool>,
    /// Collapse every path onto one shared packet-number space (the
    /// single-PN-space ablation: per-path spaces are the paper's
    /// design, §3.1).
    pub shared_pn_space: Option<bool>,
    /// Toggle WINDOW_UPDATE duplication on all paths.
    pub duplicate_window_updates: Option<bool>,
    /// Toggle the PATHS frame on RTO.
    pub send_paths_frames: Option<bool>,
    /// Replace the congestion controller.
    pub cc: Option<CcAlgorithm>,
    /// Toggle MPTCP's penalization + opportunistic retransmission.
    pub orp: Option<bool>,
    /// Shrink QUIC's receive windows (stress flow-control mechanisms).
    pub quic_recv_window: Option<u64>,
    /// Cap the ACK ranges QUIC reports (3 emulates TCP-SACK acking).
    pub quic_ack_ranges: Option<usize>,
    /// Shrink (MP)TCP's shared meta receive window (stress the coupled
    /// window / ORP machinery).
    pub tcp_recv_window: Option<u64>,
}

/// A protocol endpoint: transport + application, driven by the simulator.
pub struct ProtoEndpoint {
    /// The transport stack.
    pub transport: AnyTransport,
    /// The application.
    pub app: App,
}

impl ProtoEndpoint {
    fn drive_app(&mut self, now: SimTime) {
        self.app.drive(&mut self.transport, now);
        // No demux here: the simulator routes by address alone.
        self.transport.discard_path_ops();
    }
}

impl Endpoint for ProtoEndpoint {
    fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        payload: &[u8],
    ) {
        self.transport.handle_datagram(now, local, remote, payload);
        self.drive_app(now);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        self.drive_app(now);
        self.transport.poll_transmit(now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        match (self.transport.next_timeout(), self.app.next_timeout()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.transport.on_timeout(now);
        self.drive_app(now);
    }
}

fn quic_config(multipath: bool, overrides: &Overrides) -> QuicConfig {
    let mut builder = if multipath {
        QuicConfig::builder().multipath()
    } else {
        QuicConfig::builder().single_path()
    };
    if let Some(d) = overrides.duplicate_unknown_rtt {
        builder = builder.duplicate_unknown_rtt(d);
    }
    if let Some(shared) = overrides.shared_pn_space {
        builder = builder.shared_pn_space(shared);
    }
    if let Some(d) = overrides.duplicate_window_updates {
        builder = builder.duplicate_window_updates(d);
    }
    if let Some(p) = overrides.send_paths_frames {
        builder = builder.send_paths_frames(p);
    }
    if let Some(cc) = overrides.cc {
        builder = builder.cc(cc);
    }
    if let Some(w) = overrides.quic_recv_window {
        builder = builder.recv_windows(w);
    }
    if let Some(r) = overrides.quic_ack_ranges {
        builder = builder.max_ack_ranges(r);
    }
    builder
        .build()
        .expect("experiment overrides form a valid configuration")
}

fn tcp_config(multipath: bool, overrides: &Overrides) -> TcpConfig {
    let mut config = if multipath {
        TcpConfig::multipath()
    } else {
        TcpConfig::single_path()
    };
    if let Some(cc) = overrides.cc {
        config.cc = cc;
    }
    if let Some(orp) = overrides.orp {
        config.orp = orp;
    }
    if let Some(w) = overrides.tcp_recv_window {
        config.recv_window = w;
    }
    config
}

/// Builds the client and server endpoints for `protocol` over `plan`.
///
/// The plan's path 0 is the initial path (the scenario's start-mode
/// ordering is applied before the plan is built). Single-path protocols
/// must be given a single-path plan.
pub fn build_pair(
    protocol: Protocol,
    plan: &NetworkPlan,
    seed: u64,
    client_app: App,
    server_app: App,
    overrides: &Overrides,
) -> (ProtoEndpoint, ProtoEndpoint) {
    if !protocol.is_multipath() {
        assert_eq!(
            plan.path_count(),
            1,
            "single-path protocols take a single-path plan"
        );
    }
    let (client_t, server_t) = match protocol {
        Protocol::Quic | Protocol::Mpquic => {
            let config = quic_config(protocol.is_multipath(), overrides);
            let client = Connection::client(
                config.clone(),
                plan.client_addrs.clone(),
                0,
                plan.server_addrs[0],
                seed.wrapping_mul(2) + 1,
            );
            let server =
                Connection::server(config, plan.server_addrs.clone(), seed.wrapping_mul(2) + 2);
            (
                AnyTransport::Quic(QuicTransport::client(client)),
                AnyTransport::Quic(QuicTransport::server(server)),
            )
        }
        Protocol::Tcp | Protocol::Mptcp => {
            let config = tcp_config(protocol.is_multipath(), overrides);
            let client = TcpStack::client(
                config.clone(),
                plan.client_addrs.clone(),
                0,
                plan.server_addrs[0],
            );
            let server = TcpStack::server(config, plan.server_addrs.clone());
            (
                AnyTransport::Tcp(TcpTransport::new(client)),
                AnyTransport::Tcp(TcpTransport::new(server)),
            )
        }
    };
    (
        ProtoEndpoint {
            transport: client_t,
            app: client_app,
        },
        ProtoEndpoint {
            transport: server_t,
            app: server_app,
        },
    )
}
