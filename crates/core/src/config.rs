//! Connection configuration, role, statistics and the transmit type.

use mpquic_cc::CcAlgorithm;
use std::net::SocketAddr;
use std::time::Duration;

/// Connection configuration.
///
/// The defaults reproduce the paper's experimental setup: OLIA coupled
/// congestion control, lowest-RTT scheduling with duplication on
/// unknown-RTT paths, 16 MB receive windows and WINDOW_UPDATE
/// duplication on all paths.
///
/// Build one with [`Config::builder`], which validates the combination
/// before the connection ever sees it. The fields are public and
/// unvalidated: a `Config` constructed or mutated field by field
/// (`Config { .. }`, `config.field = ..`) skips that check.
#[derive(Debug, Clone)]
pub struct Config {
    /// Enable the multipath extension. `false` yields plain single-path
    /// QUIC (the paper's QUIC baseline): one path, no ADD_ADDRESS/PATHS.
    pub multipath: bool,
    /// Congestion control algorithm for every path.
    pub cc: CcAlgorithm,
    /// Duplicate stream data onto the best known path while the path it
    /// is sent on has no RTT estimate (the paper's scheduler, §3;
    /// disable for the no-duplication ablation).
    pub duplicate_unknown_rtt: bool,
    /// Ablation: allocate packet numbers from one shared space instead of
    /// one space per path. Loses the per-path monotonicity that makes
    /// multipath loss detection robust to cross-path reordering — the
    /// paper's argument for per-path spaces (§3) — and exists so the
    /// figure harness can measure exactly that cost.
    pub shared_pn_space: bool,
    /// Connection-level receive window (the paper sets 16 MB).
    pub conn_recv_window: u64,
    /// Per-stream receive window.
    pub stream_recv_window: u64,
    /// Duplicate WINDOW_UPDATE frames on all active paths (the paper's
    /// receive-buffer-stall defence; disable for the ablation bench).
    pub duplicate_window_updates: bool,
    /// Send a PATHS frame alongside retransmissions after an RTO (the
    /// paper's handover accelerator, §4.3; disable for the ablation).
    pub send_paths_frames: bool,
    /// Close the connection silently after this long without receiving
    /// any packet (`None` disables the idle timer).
    pub idle_timeout: Option<Duration>,
    /// Maximum ACK ranges reported per ACK frame (the paper's 256; set
    /// to 3 to emulate TCP-SACK-starved acking in the ablation).
    pub max_ack_ranges: usize,
    /// Protocol version the client proposes in its CHLO. A server that
    /// does not support it answers with version negotiation and the
    /// client retries (one extra round trip), per paper §2.
    pub quic_version: u32,
    /// Maximum concurrently accepted server-side connections. An
    /// endpoint's demux drops (and counts) datagrams carrying unknown
    /// CIDs once this many connections are live. Ignored by clients.
    pub max_incoming_connections: usize,
    /// Worker shards an endpoint spreads accepted connections over.
    /// `0` means auto (`std::thread::available_parallelism`). Ignored by
    /// the single-connection `Driver` loop.
    pub worker_shards: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            multipath: true,
            cc: CcAlgorithm::Olia,
            duplicate_unknown_rtt: true,
            shared_pn_space: false,
            conn_recv_window: 16 << 20,
            stream_recv_window: 16 << 20,
            duplicate_window_updates: true,
            send_paths_frames: true,
            idle_timeout: Some(Duration::from_secs(30)),
            max_ack_ranges: mpquic_wire::MAX_ACK_RANGES,
            quic_version: mpquic_crypto::handshake::SUPPORTED_VERSION,
            max_incoming_connections: 64,
            worker_shards: 0,
        }
    }
}

impl Config {
    /// The paper's single-path QUIC baseline: CUBIC, no multipath.
    pub fn single_path() -> Config {
        Config {
            multipath: false,
            cc: CcAlgorithm::Cubic,
            ..Config::default()
        }
    }

    /// The paper's MPQUIC configuration (also the `Default`).
    pub fn multipath() -> Config {
        Config::default()
    }

    /// Starts a validated builder from the multipath defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            config: Config::default(),
        }
    }

    /// Checks the configuration's internal consistency; called by
    /// [`ConfigBuilder::build`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.conn_recv_window == 0 {
            return Err(ConfigError::ZeroWindow("conn_recv_window"));
        }
        if self.stream_recv_window == 0 {
            return Err(ConfigError::ZeroWindow("stream_recv_window"));
        }
        if self.stream_recv_window > self.conn_recv_window {
            return Err(ConfigError::StreamWindowExceedsConnWindow {
                stream: self.stream_recv_window,
                conn: self.conn_recv_window,
            });
        }
        if self.max_ack_ranges == 0 || self.max_ack_ranges > mpquic_wire::MAX_ACK_RANGES {
            return Err(ConfigError::AckRangesOutOfRange {
                got: self.max_ack_ranges,
                max: mpquic_wire::MAX_ACK_RANGES,
            });
        }
        if self.idle_timeout.is_some_and(|t| t.is_zero()) {
            return Err(ConfigError::ZeroDuration("idle_timeout"));
        }
        if self.max_incoming_connections == 0 {
            return Err(ConfigError::ZeroAcceptLimit);
        }
        Ok(())
    }
}

/// Why a [`ConfigBuilder`] rejected a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A receive window (named field) is zero, which would deadlock the
    /// transfer before the first byte.
    ZeroWindow(&'static str),
    /// The per-stream window exceeds the connection window, so a single
    /// stream could never actually use its advertised credit.
    StreamWindowExceedsConnWindow {
        /// Per-stream window.
        stream: u64,
        /// Connection window.
        conn: u64,
    },
    /// `max_ack_ranges` is zero or exceeds the wire format's cap.
    AckRangesOutOfRange {
        /// Rejected value.
        got: usize,
        /// Wire-format maximum.
        max: usize,
    },
    /// A duration (named field) is zero.
    ZeroDuration(&'static str),
    /// `max_incoming_connections` is zero: the endpoint could never
    /// accept anything, which is never what a server meant.
    ZeroAcceptLimit,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWindow(field) => write!(f, "{field} must be > 0"),
            ConfigError::StreamWindowExceedsConnWindow { stream, conn } => write!(
                f,
                "stream_recv_window {stream} exceeds conn_recv_window {conn}"
            ),
            ConfigError::AckRangesOutOfRange { got, max } => {
                write!(f, "max_ack_ranges {got} outside [1, {max}]")
            }
            ConfigError::ZeroDuration(field) => write!(f, "{field} must be > 0"),
            ConfigError::ZeroAcceptLimit => {
                write!(f, "max_incoming_connections must be > 0")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builds a validated [`Config`].
///
/// ```
/// use mpquic_core::Config;
/// let config = Config::builder()
///     .single_path()
///     .recv_windows(8 << 20)
///     .build()
///     .expect("valid configuration");
/// assert!(!config.multipath);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    config: Config,
}

impl Default for ConfigBuilder {
    fn default() -> Self {
        Config::builder()
    }
}

impl ConfigBuilder {
    /// Applies the paper's single-path baseline preset (no multipath,
    /// CUBIC congestion control).
    pub fn single_path(mut self) -> Self {
        self.config.multipath = false;
        self.config.cc = CcAlgorithm::Cubic;
        self
    }

    /// Applies the paper's multipath preset (the defaults: multipath on,
    /// OLIA congestion control).
    pub fn multipath(mut self) -> Self {
        self.config.multipath = true;
        self.config.cc = CcAlgorithm::Olia;
        self
    }

    /// Congestion control algorithm for every path.
    pub fn cc(mut self, cc: CcAlgorithm) -> Self {
        self.config.cc = cc;
        self
    }

    /// Duplicate stream data while a path's RTT is unknown (see
    /// [`Config::duplicate_unknown_rtt`]).
    pub fn duplicate_unknown_rtt(mut self, on: bool) -> Self {
        self.config.duplicate_unknown_rtt = on;
        self
    }

    /// Ablation: one shared packet-number space instead of per-path
    /// spaces (see [`Config::shared_pn_space`]).
    pub fn shared_pn_space(mut self, on: bool) -> Self {
        self.config.shared_pn_space = on;
        self
    }

    /// Sets the connection and per-stream receive windows together (the
    /// paper always configures them equal).
    pub fn recv_windows(mut self, window: u64) -> Self {
        self.config.conn_recv_window = window;
        self.config.stream_recv_window = window;
        self
    }

    /// Duplicate WINDOW_UPDATE frames on all active paths.
    pub fn duplicate_window_updates(mut self, on: bool) -> Self {
        self.config.duplicate_window_updates = on;
        self
    }

    /// Send a PATHS frame alongside retransmissions after an RTO.
    pub fn send_paths_frames(mut self, on: bool) -> Self {
        self.config.send_paths_frames = on;
        self
    }

    /// Idle timeout (`None` disables the idle timer).
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.idle_timeout = timeout;
        self
    }

    /// Maximum ACK ranges reported per ACK frame.
    pub fn max_ack_ranges(mut self, ranges: usize) -> Self {
        self.config.max_ack_ranges = ranges;
        self
    }

    /// Protocol version the client proposes in its CHLO.
    pub fn quic_version(mut self, version: u32) -> Self {
        self.config.quic_version = version;
        self
    }

    /// Maximum concurrently accepted server-side connections.
    pub fn max_incoming_connections(mut self, limit: usize) -> Self {
        self.config.max_incoming_connections = limit;
        self
    }

    /// Worker shards an endpoint spreads connections over (0 = auto).
    pub fn worker_shards(mut self, shards: usize) -> Self {
        self.config.worker_shards = shards;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<Config, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A datagram (or GSO-shaped train of datagrams) to hand to the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmit {
    /// Source address (selects the local interface / path).
    pub local: SocketAddr,
    /// Destination address.
    pub remote: SocketAddr,
    /// UDP payload. When `segment_size` is set this holds several
    /// wire datagrams back to back (a GSO segment train).
    pub payload: Vec<u8>,
    /// `None`: `payload` is one datagram. `Some(s)`: `payload` is a
    /// train of datagrams of `s` bytes each (only the last may be
    /// shorter), produced by the batched egress path
    /// ([`crate::Connection::poll_transmit_batch`]); the socket layer
    /// must send each segment as its own UDP datagram.
    pub segment_size: Option<usize>,
}

impl Transmit {
    /// The wire datagrams this transmit expands to, in send order.
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        let seg = match self.segment_size {
            Some(seg) if seg > 0 => seg,
            _ => self.payload.len().max(1),
        };
        self.payload.chunks(seg)
    }

    /// Number of wire datagrams this transmit expands to.
    pub fn segment_count(&self) -> usize {
        match self.segment_size {
            Some(seg) if seg > 0 => self.payload.len().div_ceil(seg).max(1),
            _ => 1,
        }
    }
}

/// Which end of the connection this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Connection initiator.
    Client,
    /// Connection acceptor.
    Server,
}

/// Counters for experiment analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Packets sent (all paths).
    pub packets_sent: u64,
    /// Packets received and accepted.
    pub packets_received: u64,
    /// Wire bytes sent.
    pub bytes_sent: u64,
    /// Wire bytes received.
    pub bytes_received: u64,
    /// Frames re-queued after loss.
    pub frames_retransmitted: u64,
    /// Stream frames duplicated by the unknown-RTT scheduler phase.
    pub duplicated_stream_frames: u64,
    /// RTO events across paths.
    pub rtos: u64,
    /// Congestion (loss) events across paths.
    pub congestion_events: u64,
    /// Packets dropped because they failed decryption.
    pub decrypt_failures: u64,
    /// Duplicate packets discarded.
    pub duplicate_packets: u64,
}
