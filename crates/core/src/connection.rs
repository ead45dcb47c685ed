//! The Multipath QUIC connection: the paper's design, assembled.
//!
//! A [`Connection`] is a sans-IO state machine (see the crate docs): the
//! caller feeds incoming datagrams ([`Connection::handle_datagram`]) and
//! the clock ([`Connection::on_timeout`]), and drains outgoing datagrams
//! ([`Connection::poll_transmit`]) and application events
//! ([`Connection::poll_event`]).
//!
//! The multipath machinery follows §3 of the paper:
//!
//! * the handshake runs on the initial path only; once complete, the
//!   client's path manager opens one path per additional local interface
//!   (odd Path IDs), pairing local and remote addresses by the address IDs
//!   the server announced in `ADD_ADDRESS` frames;
//! * new paths carry data in their very first packet (no per-path
//!   handshake);
//! * each packet is placed by the lowest-RTT scheduler, with stream frames
//!   duplicated onto a known path while the chosen path's RTT is unknown;
//! * `WINDOW_UPDATE` frames are duplicated on all active paths;
//! * an RTO marks a path *potentially failed*, moves its frames to the
//!   retransmission queues (servable by any path), collapses its window
//!   and — the §4.3 handover accelerator — attaches a `PATHS` frame so the
//!   peer learns about the failure without waiting for its own RTO.

use bytes::Bytes;
use mpquic_crypto::nonce_for;
use mpquic_crypto::{
    handshake::initial_key, Aead, ClientHandshake, HandshakeEvent, ServerHandshake, SessionKeys,
};
use mpquic_util::{DetRng, SimTime};
use mpquic_wire::{
    AckFrame, AddressInfo, Frame, Packet, PacketBuilder, PacketType, PathId, PathInfo, PathStatus,
    PublicHeader, StreamFrame,
};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::ops::Bound;

use mpquic_telemetry::{self as telemetry, Subscriber};

use crate::buffer::TransmitQueue;
use crate::config::{Config, ConnStats, Event, Role, Transmit};
use crate::flow::ConnFlowControl;
use crate::invariant::InvariantChecker;
use crate::path::{ChallengeTimeout, Path, PathState};
use crate::recovery::SentPacket;
use crate::scheduler::{PathView, Scheduler, SchedulerReason};
use crate::stream::{RecvStream, SendStream, StreamId};

/// Transport-level error codes used in CONNECTION_CLOSE.
pub mod error_codes {
    /// Clean application close.
    pub const NO_ERROR: u64 = 0;
    /// Peer violated flow control.
    pub const FLOW_CONTROL_ERROR: u64 = 0x3;
    /// Peer broke stream semantics (e.g. moved a FIN).
    pub const STREAM_STATE_ERROR: u64 = 0x5;
    /// The connection idled out (closed silently, no CONNECTION_CLOSE).
    pub const IDLE_TIMEOUT: u64 = 0x10;
}

/// Demux-facing operations a connection asks its endpoint to perform,
/// drained via [`Connection::pop_path_op`] after each batch of work.
///
/// CID rotation only works if the endpoint's demux table learns the new
/// connection ID *before* the peer starts using it — otherwise the first
/// rotated datagram is dropped on the floor. The connection therefore
/// publishes routing changes through this queue instead of mutating demux
/// state it cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathOp {
    /// Route datagrams carrying this connection ID to this connection (a
    /// rotation is in progress; the peer may switch at any moment).
    MapCid(u64),
    /// Stop routing this connection ID (rotation complete). Endpoints
    /// should tombstone it so stragglers are counted, not misrouted.
    UnmapCid(u64),
    /// A path validation started (an address change quarantined a path).
    ValidationStarted,
    /// A path validation completed successfully.
    ValidationCompleted,
    /// A path validation exhausted its challenge retries.
    ValidationAbandoned,
}

/// A Multipath QUIC connection endpoint.
///
/// ```
/// use mpquic_core::{Config, Connection};
/// use mpquic_util::SimTime;
/// use bytes::Bytes;
///
/// // A dual-interface client (e.g. WiFi + LTE) dialing a server.
/// let mut client = Connection::client(
///     Config::multipath(),
///     vec!["10.0.0.1:4000".parse().unwrap(), "10.1.0.1:4000".parse().unwrap()],
///     0,
///     "10.0.1.1:443".parse().unwrap(),
///     42,
/// );
/// let stream = client.open_stream();
/// client.stream_write(stream, Bytes::from_static(b"hello")).unwrap();
/// client.stream_finish(stream);
/// // The first transmit is the handshake packet (CHLO on path 0).
/// let first = client.poll_transmit(SimTime::ZERO).expect("CHLO");
/// assert_eq!(first.remote, "10.0.1.1:443".parse().unwrap());
/// ```
pub struct Connection {
    role: Role,
    config: Config,
    /// Connection ID (chosen by the client; learned by the server).
    cid: u64,
    /// Previous connection ID, still accepted inbound after a rotation so
    /// in-flight datagrams keyed to the old CID are not dropped.
    prev_cid: Option<u64>,
    /// A rotation we initiated and are waiting to see retired:
    /// `(sequence, new CID)`.
    pending_new_cid: Option<(u64, u64)>,
    /// Sequence number for the next NEW_CONNECTION_ID we issue.
    next_cid_seq: u64,
    /// Lowest NEW_CONNECTION_ID sequence we would still accept from the
    /// peer (highest adopted + 1).
    peer_cid_seq: u64,
    /// Deterministic RNG for path-challenge tokens and rotated CIDs.
    rng: DetRng,
    /// Demux-facing operations, drained via [`Connection::pop_path_op`].
    path_ops: VecDeque<PathOp>,
    /// Connection-wide packet-number counter, used instead of the
    /// per-path counters when `Config::shared_pn_space` is set (the
    /// paper's single-space ablation).
    shared_pn: u64,

    // --- crypto ---
    client_hs: Option<ClientHandshake>,
    server_hs: Option<ServerHandshake>,
    session_keys: Option<SessionKeys>,
    /// 1-RTT protection contexts `(send, receive)`: one key schedule per
    /// direction, run where `session_keys` appears, not per packet.
    one_rtt_aead: Option<(Aead, Aead)>,
    /// Handshake-packet context and the CID its key derives from.
    handshake_aead: Option<(u64, Aead)>,
    handshake_complete: bool,
    /// Crypto frames awaiting transmission in Handshake packets.
    crypto_queue: VecDeque<Frame>,

    // --- paths & addressing ---
    paths: BTreeMap<PathId, Path>,
    local_addrs: Vec<SocketAddr>,
    /// Index (into `local_addrs`) of the interface the connection started on.
    initial_local_index: usize,
    /// Remote addresses by the peer's address ID (ADD_ADDRESS).
    remote_addrs: BTreeMap<u64, SocketAddr>,
    /// Next client-initiated path ID (odd).
    next_path_id: u32,
    /// Most recent PATHS frame received from the peer.
    peer_paths: Vec<PathInfo>,
    addresses_advertised: bool,
    /// Set while processing a packet that contained ADD_ADDRESS frames.
    addresses_dirty: bool,

    // --- streams & flow control ---
    send_streams: BTreeMap<StreamId, SendStream>,
    recv_streams: BTreeMap<StreamId, RecvStream>,
    next_stream_id: u64,
    /// Round-robin service cursor so one busy stream cannot starve the
    /// others within a packet-building loop.
    stream_cursor: u64,
    flow: ConnFlowControl,

    // --- scheduling & frame queues ---
    scheduler: Scheduler,
    /// Path-agnostic control frames (sendable anywhere).
    control_queue: VecDeque<Frame>,
    /// Frames bound to a specific path (WINDOW_UPDATE duplicates, probes).
    per_path_queue: BTreeMap<PathId, VecDeque<Frame>>,
    /// Stream frames duplicated toward a specific path by the scheduler's
    /// unknown-RTT phase (always `Frame::Stream`).
    duplicate_queue: BTreeMap<PathId, VecDeque<Frame>>,

    // --- lifecycle ---
    /// Last time any authenticated packet was received.
    last_activity: Option<SimTime>,
    /// Telemetry subscriber stack ([`Connection::set_subscriber`]). Every
    /// instrumentation point emits a [`mpquic_telemetry::Event`] through
    /// it; the default `()` stack discards everything.
    subscriber: Box<dyn telemetry::Subscriber>,
    events: VecDeque<Event>,
    close_pending: Option<(u64, String)>,
    close_sent: bool,
    closed: bool,
    stats: ConnStats,
    /// Runtime protocol invariants (zero-sized no-op in plain release
    /// builds; see [`crate::invariant`]).
    invariants: InvariantChecker,
    /// Reusable ingress scratch: a datagram's sealed payload is copied
    /// here and opened in place, sparing an allocation per datagram.
    scratch_open: Vec<u8>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("role", &self.role)
            .field("cid", &self.cid)
            .field("handshake_complete", &self.handshake_complete)
            .field("paths", &self.paths.keys().collect::<Vec<_>>())
            .field("closed", &self.closed)
            .finish()
    }
}

impl Connection {
    /// Creates a client connection. The initial path runs from
    /// `local_addrs[initial_local_index]` to `remote_addr`; additional
    /// paths open automatically after the handshake when multipath is
    /// enabled and the server advertises matching addresses.
    pub fn client(
        config: Config,
        local_addrs: Vec<SocketAddr>,
        initial_local_index: usize,
        remote_addr: SocketAddr,
        seed: u64,
    ) -> Connection {
        assert!(initial_local_index < local_addrs.len());
        let mut rng = DetRng::new(seed);
        // CID 0 is the server's "not yet adopted" sentinel, so the client
        // must never choose it (a DetRng word is 0 with probability 2⁻⁶⁴,
        // but seeds are caller-controlled, so guard anyway).
        let mut cid = rng.next_u64();
        while cid == 0 {
            cid = rng.next_u64();
        }
        let mut hs = ClientHandshake::with_version(cid, &mut rng, config.quic_version);
        let mut crypto_queue = VecDeque::new();
        if let Some(HandshakeEvent::Send(bytes)) = hs.poll() {
            crypto_queue.push_back(Frame::Crypto {
                offset: 0,
                data: bytes,
            });
        }
        let mut conn = Connection::new_common(Role::Client, config, cid, local_addrs, rng);
        conn.initial_local_index = initial_local_index;
        conn.client_hs = Some(hs);
        conn.crypto_queue = crypto_queue;
        let local = conn.local_addrs[initial_local_index];
        conn.create_path(SimTime::ZERO, PathId::INITIAL, local, remote_addr, true);
        conn
    }

    /// Creates a server connection that will accept the first incoming
    /// datagram as its initial path.
    pub fn server(config: Config, local_addrs: Vec<SocketAddr>, seed: u64) -> Connection {
        let mut rng = DetRng::new(seed);
        let hs = ServerHandshake::new(&mut rng);
        let mut conn = Connection::new_common(Role::Server, config, 0, local_addrs, rng);
        conn.server_hs = Some(hs);
        conn
    }

    fn new_common(
        role: Role,
        config: Config,
        cid: u64,
        local_addrs: Vec<SocketAddr>,
        rng: DetRng,
    ) -> Connection {
        assert!(
            !local_addrs.is_empty(),
            "at least one local address required"
        );
        let flow = ConnFlowControl::new(config.conn_recv_window, config.conn_recv_window);
        Connection {
            role,
            cid,
            prev_cid: None,
            pending_new_cid: None,
            next_cid_seq: 0,
            peer_cid_seq: 0,
            rng,
            path_ops: VecDeque::new(),
            shared_pn: 0,
            subscriber: Box::new(()),
            client_hs: None,
            server_hs: None,
            session_keys: None,
            one_rtt_aead: None,
            handshake_aead: None,
            handshake_complete: false,
            crypto_queue: VecDeque::new(),
            paths: BTreeMap::new(),
            local_addrs,
            initial_local_index: 0,
            remote_addrs: BTreeMap::new(),
            next_path_id: 1,
            peer_paths: Vec::new(),
            addresses_advertised: false,
            addresses_dirty: false,
            send_streams: BTreeMap::new(),
            recv_streams: BTreeMap::new(),
            next_stream_id: match role {
                Role::Client => 1,
                Role::Server => 2,
            },
            stream_cursor: 0,
            flow,
            scheduler: Scheduler::new(config.scheduler),
            control_queue: VecDeque::new(),
            per_path_queue: BTreeMap::new(),
            duplicate_queue: BTreeMap::new(),
            last_activity: None,
            events: VecDeque::new(),
            close_pending: None,
            close_sent: false,
            closed: false,
            stats: ConnStats::default(),
            invariants: InvariantChecker::new(),
            scratch_open: Vec::new(),
            config,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This endpoint's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The connection ID.
    pub fn connection_id(&self) -> u64 {
        self.cid
    }

    /// True once the secure handshake finished.
    pub fn is_established(&self) -> bool {
        self.handshake_complete
    }

    /// True once the connection is closed (either side).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Statistics counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// The local addresses this connection may send from (one per
    /// interface). A real-socket driver binds one socket per entry.
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.local_addrs
    }

    /// IDs of the currently known paths.
    pub fn path_ids(&self) -> Vec<PathId> {
        self.paths.keys().copied().collect()
    }

    /// Read-only view of a path (tests and experiment instrumentation).
    pub fn path(&self, id: PathId) -> Option<&Path> {
        self.paths.get(&id)
    }

    /// Most recent PATHS frame contents received from the peer.
    pub fn peer_paths(&self) -> &[PathInfo] {
        &self.peer_paths
    }

    /// Pops the next application event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    /// Installs a telemetry subscriber stack, replacing the current one.
    ///
    /// Compose subscribers with tuples —
    /// `Box::new((metrics, (streaming_qlog, stats)))` — per
    /// [`mpquic_telemetry::Subscriber`]. Events emitted before the call
    /// are not replayed, so install the stack before driving the
    /// connection.
    pub fn set_subscriber(&mut self, subscriber: Box<dyn telemetry::Subscriber>) {
        self.subscriber = subscriber;
    }

    /// True when a subscriber is listening. Emission points that must
    /// *allocate* to describe an event (candidate lists, path vectors)
    /// check this first.
    fn telemetry_enabled(&self) -> bool {
        self.subscriber.is_enabled()
    }

    /// Delivers one event to the subscriber stack.
    fn emit(&mut self, event: telemetry::Event) {
        self.subscriber.on_event(&event);
    }

    /// Reports a path's new liveness state to the subscriber stack.
    fn emit_path_state(&mut self, now: SimTime, path: PathId, state: telemetry::PathState) {
        self.emit(telemetry::Event::PathStateChanged(
            telemetry::PathStateChanged {
                time: now,
                path,
                state,
            },
        ));
    }

    // ------------------------------------------------------------------
    // Stream API
    // ------------------------------------------------------------------

    /// Opens a new bidirectional stream and returns its ID.
    pub fn open_stream(&mut self) -> StreamId {
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.send_streams
            .insert(id, SendStream::new(id, self.config.stream_recv_window));
        self.recv_streams
            .insert(id, RecvStream::new(id, self.config.stream_recv_window));
        id
    }

    /// Appends data to a stream's send buffer.
    ///
    /// # Panics
    /// Panics if the stream is unknown (open streams with
    /// [`Connection::open_stream`]).
    pub fn stream_write(
        &mut self,
        id: StreamId,
        data: Bytes,
    ) -> Result<(), crate::stream::StreamError> {
        self.send_streams
            .get_mut(&id)
            .expect("unknown stream")
            .write(data)
    }

    /// Marks a stream finished at its current write offset.
    ///
    /// # Panics
    /// Panics if the stream is unknown.
    pub fn stream_finish(&mut self, id: StreamId) {
        self.send_streams
            .get_mut(&id)
            .expect("unknown stream")
            .finish();
    }

    /// Reads up to `max` in-order bytes from a stream.
    pub fn stream_read(&mut self, id: StreamId, max: usize) -> Option<Bytes> {
        let data = self.recv_streams.get_mut(&id)?.read(max)?;
        self.flow.on_data_consumed(data.len() as u64);
        Some(data)
    }

    /// True once the peer's FIN and all stream data have been read.
    pub fn stream_is_finished(&self, id: StreamId) -> bool {
        self.recv_streams.get(&id).is_some_and(|s| s.is_finished())
    }

    /// True once everything written (and the FIN) was acknowledged.
    pub fn stream_fully_acked(&self, id: StreamId) -> bool {
        self.send_streams
            .get(&id)
            .is_some_and(|s| s.is_fully_acked())
    }

    /// IDs of streams the *peer* opened, in ID order (no allocation).
    ///
    /// Peer streams have the opposite ID parity from locally opened
    /// ones (clients open odd IDs, servers even), so a server
    /// application can discover new request streams by scanning this
    /// instead of tracking [`Event::StreamOpened`] events.
    pub fn peer_stream_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        let peer_parity = match self.role {
            Role::Client => 0,
            Role::Server => 1,
        };
        self.recv_streams
            .keys()
            .copied()
            .filter(move |id| id % 2 == peer_parity)
    }

    /// Begins a clean or error close.
    pub fn close(&mut self, error_code: u64, reason: &str) {
        if self.close_pending.is_none() && !self.closed {
            self.close_pending = Some((error_code, reason.to_string()));
        }
    }

    // ------------------------------------------------------------------
    // Ingress
    // ------------------------------------------------------------------

    /// Processes one incoming UDP datagram.
    pub fn handle_datagram(
        &mut self,
        now: SimTime,
        local: SocketAddr,
        remote: SocketAddr,
        data: &[u8],
    ) {
        if self.closed {
            return;
        }
        let mut cursor = data;
        let Ok(header) = PublicHeader::decode(&mut cursor) else {
            self.stats.decrypt_failures += 1;
            return;
        };
        let header_len = data.len() - cursor.len();
        // A fresh server has no CID yet and takes its first packet's — but
        // only once that packet authenticates (below): no state from
        // unauthenticated bytes.
        let unadopted = self.role == Role::Server && self.cid == 0;
        // During a CID rotation, three IDs route here: the current one,
        // the freshly issued one (the peer may adopt it before our
        // bookkeeping catches up), and the just-retired one (in-flight
        // stragglers).
        let cid_known = unadopted
            || header.connection_id == self.cid
            || self.prev_cid == Some(header.connection_id)
            || self.pending_new_cid.map(|(_, cid)| cid) == Some(header.connection_id);
        if !cid_known {
            self.stats.decrypt_failures += 1;
            return;
        }
        // Select the context by packet type and direction.
        let aead = match header.packet_type {
            PacketType::Handshake => self.handshake_aead(header.connection_id),
            PacketType::OneRtt => {
                let Some((_, recv)) = &self.one_rtt_aead else {
                    // Can't decrypt yet (e.g. 1-RTT data racing the SHLO).
                    self.stats.decrypt_failures += 1;
                    return;
                };
                recv.clone()
            }
        };
        let nonce = nonce_for(
            self.config.nonce_mode,
            header.path_id.0,
            header.packet_number,
        );
        let (aad, sealed) = data.split_at(header_len);
        let mut scratch = std::mem::take(&mut self.scratch_open);
        scratch.clear();
        scratch.extend_from_slice(sealed);
        let packet = aead
            .open_in_place(&nonce, aad, &mut scratch)
            .ok()
            .and_then(|plaintext| Packet::from_parts(header, plaintext).ok());
        self.scratch_open = scratch;
        let Some(packet) = packet else {
            self.stats.decrypt_failures += 1;
            return;
        };
        if unadopted {
            self.cid = header.connection_id;
        }

        // Locate or create the path (peer-opened paths carry data in
        // their first packet; no handshake needed).
        if !self.paths.contains_key(&header.path_id) {
            let valid_initiator = match self.role {
                // Peer is the server: it may create even IDs.
                Role::Client => header.path_id.server_initiated(),
                // Peer is the client: ID 0 or odd IDs.
                Role::Server => header.path_id.client_initiated(),
            };
            if !valid_initiator {
                return;
            }
            self.create_path(now, header.path_id, local, remote, false);
            self.events.push_back(Event::PathActive(header.path_id));
        } else {
            // NAT rebinding / handover: the explicit Path ID lets us keep
            // all path state while the remote address changes (paper §3).
            // Once the handshake is done, the new address must prove it
            // can return traffic before any fresh data is scheduled onto
            // it: the path is quarantined in `Validating` and challenged
            // (bounded, timer-driven retries); only a PATH_RESPONSE
            // echoing the token lifts the quarantine. Receiving stays
            // allowed throughout — the quarantine is outbound-only.
            let mut validation_started = None;
            if let Some(path) = self.paths.get_mut(&header.path_id) {
                if path.remote != remote && path.state != PathState::Closed {
                    // A still-pending challenge belongs to an address
                    // the peer has already left: that validation is
                    // superseded, not completed.
                    let superseded = path.state == PathState::Validating;
                    path.remote = remote;
                    if self.handshake_complete {
                        let token = self.rng.next_u64();
                        path.begin_validation(token, now);
                        self.per_path_queue
                            .entry(header.path_id)
                            .or_default()
                            .push_back(Frame::PathChallenge { token });
                        validation_started = Some((header.path_id, superseded));
                    }
                }
            }
            if let Some((path_id, superseded)) = validation_started {
                if superseded {
                    self.path_ops.push_back(PathOp::ValidationAbandoned);
                }
                self.path_ops.push_back(PathOp::ValidationStarted);
                self.events.push_back(Event::PathPotentiallyFailed(path_id));
                self.emit(telemetry::Event::PathValidationStarted(
                    telemetry::PathValidationStarted {
                        time: now,
                        path: path_id,
                    },
                ));
                self.emit_path_state(now, path_id, telemetry::PathState::Validating);
            }
        }

        let ack_eliciting = packet.is_ack_eliciting();
        {
            let path = self.paths.get_mut(&header.path_id).expect("just ensured");
            if !path.on_packet_received(
                header.packet_number,
                now,
                ack_eliciting,
                self.config.max_ack_delay,
            ) {
                self.stats.duplicate_packets += 1;
                return;
            }
            path.bytes_received += data.len() as u64;
        }
        self.stats.packets_received += 1;
        self.stats.bytes_received += data.len() as u64;
        self.last_activity = Some(now);
        self.emit(telemetry::Event::PacketReceived(
            telemetry::PacketReceived {
                time: now,
                path: header.path_id,
                packet_number: header.packet_number,
                size: data.len(),
            },
        ));

        for frame in packet.frames {
            self.handle_frame(now, header.path_id, frame);
            if self.closed {
                return;
            }
        }
        if self.addresses_dirty {
            self.addresses_dirty = false;
            self.maybe_open_paths(now);
        }
    }

    fn handle_frame(&mut self, now: SimTime, on_path: PathId, frame: Frame) {
        match frame {
            Frame::Padding { .. } | Frame::Ping => {}
            Frame::Crypto { data, .. } => self.handle_crypto(now, &data),
            Frame::Ack(ack) => {
                // Decode enforces the cap/layout; this asserts that
                // postcondition actually held (paper: ≤256 ranges).
                self.invariants.check_ack_frame(&ack, "received");
                self.handle_ack(now, on_path, ack);
            }
            Frame::Stream(f) => self.handle_stream_frame(now, f),
            Frame::WindowUpdate {
                stream_id,
                max_data,
            } => {
                if stream_id == 0 {
                    self.flow.on_max_data(max_data);
                } else if let Some(s) = self.send_streams.get_mut(&stream_id) {
                    s.on_max_stream_data(max_data);
                }
            }
            Frame::Blocked { .. } => {}
            Frame::RstStream { stream_id, .. } => {
                // Minimal reset handling: drop receive state and surface
                // completion so readers unblock.
                if self.recv_streams.remove(&stream_id).is_some() {
                    self.events.push_back(Event::StreamComplete(stream_id));
                }
            }
            Frame::ConnectionClose { error_code, reason } => {
                self.closed = true;
                self.events.push_back(Event::Closed { error_code, reason });
            }
            Frame::AddAddress(info) => {
                self.remote_addrs.insert(info.address_id, info.addr);
                // Path opening is deferred to the end of the packet so a
                // multi-address advertisement is seen whole before local
                // interfaces are paired with remote addresses.
                self.addresses_dirty = true;
            }
            Frame::Paths(infos) => {
                let mut changes: Vec<(PathId, telemetry::PathState)> = Vec::new();
                for info in &infos {
                    match info.status {
                        PathStatus::PotentiallyFailed => {
                            if let Some(path) = self.paths.get_mut(&info.path_id) {
                                if path.state == PathState::Active {
                                    path.mark_potentially_failed(now);
                                    self.events
                                        .push_back(Event::PathPotentiallyFailed(info.path_id));
                                    changes.push((
                                        info.path_id,
                                        telemetry::PathState::PotentiallyFailed,
                                    ));
                                }
                            }
                        }
                        PathStatus::Closed => {
                            if let Some(path) = self.paths.get_mut(&info.path_id) {
                                if path.state != PathState::Closed {
                                    path.state = PathState::Closed;
                                    path.probe_at = None;
                                    self.events.push_back(Event::PathClosed(info.path_id));
                                    changes.push((info.path_id, telemetry::PathState::Closed));
                                }
                            }
                        }
                        PathStatus::Active => {}
                    }
                }
                self.peer_paths = infos;
                for (path, state) in changes {
                    self.emit_path_state(now, path, state);
                }
            }
            Frame::PathChallenge { token } => {
                // Echo on the same path: a PATH_RESPONSE only proves the
                // 4-tuple works if it travels the challenged path.
                self.per_path_queue
                    .entry(on_path)
                    .or_default()
                    .push_back(Frame::PathResponse { token });
            }
            Frame::PathResponse { token } => self.handle_path_response(now, token),
            Frame::NewConnectionId { sequence, cid } => self.adopt_new_cid(now, sequence, cid),
            Frame::RetireConnectionId { sequence } => self.complete_cid_rotation(now, sequence),
        }
    }

    /// A PATH_RESPONSE lifts the quarantine on whichever path issued the
    /// matching challenge. On the server, a successful migration also
    /// triggers a CID rotation so on-path observers cannot link the
    /// client's old and new addresses.
    fn handle_path_response(&mut self, now: SimTime, token: u64) {
        let validated = self
            .paths
            .values_mut()
            .find_map(|p| p.complete_validation(token).then_some(p.id));
        let Some(path_id) = validated else {
            return;
        };
        self.path_ops.push_back(PathOp::ValidationCompleted);
        self.events.push_back(Event::PathActive(path_id));
        self.emit(telemetry::Event::PathValidated(telemetry::PathValidated {
            time: now,
            path: path_id,
        }));
        self.emit_path_state(now, path_id, telemetry::PathState::Active);
        if self.role == Role::Server {
            self.rotate_cid();
        }
    }

    /// Initiates a connection-ID rotation: queues NEW_CONNECTION_ID with a
    /// fresh CID and tells the local demux (via [`Connection::pop_path_op`])
    /// to route the new CID here *before* the peer can switch to it. The
    /// rotation completes when the peer retires it back with
    /// RETIRE_CONNECTION_ID, at which point this endpoint switches its
    /// outgoing CID and unmaps the old one. No-op while a rotation is
    /// already pending or before the handshake completes.
    ///
    /// Every CID of a connection shares its low byte (the price: one
    /// byte in eight links a rotated CID to its predecessor, so an
    /// observer narrows the candidates 256-fold; DESIGN.md §12).
    pub fn rotate_cid(&mut self) {
        if self.pending_new_cid.is_some() || !self.handshake_complete || self.closed {
            return;
        }
        // The fresh CID keeps the low byte of the one it replaces: that
        // byte is what a multi-loop endpoint steers datagrams on, so a
        // rotated connection stays with the loop that owns it.
        let low = self.cid & 0xFF;
        let mut new_cid = (self.rng.next_u64() & !0xFF) | low;
        while new_cid == 0 || new_cid == self.cid || Some(new_cid) == self.prev_cid {
            new_cid = (self.rng.next_u64() & !0xFF) | low;
        }
        let sequence = self.next_cid_seq;
        self.next_cid_seq += 1;
        self.pending_new_cid = Some((sequence, new_cid));
        self.path_ops.push_back(PathOp::MapCid(new_cid));
        self.control_queue.push_back(Frame::NewConnectionId {
            sequence,
            cid: new_cid,
        });
    }

    /// Peer issued us a fresh CID: adopt it for all future sends and
    /// retire the sequence so the peer can drop its old routing entry.
    fn adopt_new_cid(&mut self, now: SimTime, sequence: u64, cid: u64) {
        if sequence < self.peer_cid_seq {
            // Retransmission of one we already adopted; re-ack the
            // retirement in case the first RETIRE_CONNECTION_ID was lost.
            self.control_queue
                .push_back(Frame::RetireConnectionId { sequence });
            return;
        }
        if cid == 0 || cid == self.cid {
            return;
        }
        self.peer_cid_seq = sequence + 1;
        let old_cid = self.cid;
        self.prev_cid = Some(old_cid);
        self.cid = cid;
        self.path_ops.push_back(PathOp::MapCid(cid));
        self.control_queue
            .push_back(Frame::RetireConnectionId { sequence });
        self.emit(telemetry::Event::CidRotated(telemetry::CidRotated {
            time: now,
            old_cid,
            new_cid: cid,
        }));
    }

    /// Peer confirmed it switched to the CID we issued: cut over our own
    /// bookkeeping and release the old demux route.
    fn complete_cid_rotation(&mut self, now: SimTime, sequence: u64) {
        let Some((pending_seq, new_cid)) = self.pending_new_cid else {
            return;
        };
        if sequence != pending_seq {
            return;
        }
        let old_cid = self.cid;
        self.prev_cid = Some(old_cid);
        self.cid = new_cid;
        self.pending_new_cid = None;
        self.path_ops.push_back(PathOp::UnmapCid(old_cid));
        self.emit(telemetry::Event::CidRotated(telemetry::CidRotated {
            time: now,
            old_cid,
            new_cid,
        }));
    }

    /// Drains the next demux-facing path operation. Endpoints call this
    /// after processing a connection so their demux table follows CID
    /// rotations without dropping a datagram; drivers without a demux may
    /// drain and discard.
    pub fn pop_path_op(&mut self) -> Option<PathOp> {
        self.path_ops.pop_front()
    }

    fn handle_crypto(&mut self, now: SimTime, data: &[u8]) {
        match self.role {
            Role::Client => {
                let hs = self.client_hs.as_mut().expect("client handshake");
                match hs.on_crypto_data(data) {
                    Some(HandshakeEvent::Complete(keys)) => {
                        self.install_session_keys(keys);
                        self.handshake_complete = true;
                        self.events.push_back(Event::HandshakeCompleted);
                        self.maybe_open_paths(now);
                    }
                    Some(HandshakeEvent::Send(bytes)) => {
                        // Version negotiation: retry CHLO with the
                        // mutually supported version.
                        self.crypto_queue.push_back(Frame::Crypto {
                            offset: 0,
                            data: bytes,
                        });
                    }
                    None => {}
                }
            }
            Role::Server => {
                let hs = self.server_hs.as_mut().expect("server handshake");
                let completion = hs.on_crypto_data(data);
                // The server may have queued an SHLO *or* a version
                // negotiation; either way it goes on the crypto stream.
                if let Some(HandshakeEvent::Send(bytes)) = hs.poll() {
                    self.crypto_queue.push_back(Frame::Crypto {
                        offset: 0,
                        data: bytes,
                    });
                }
                if let Some(HandshakeEvent::Complete(keys)) = completion {
                    self.install_session_keys(keys);
                    self.handshake_complete = true;
                    self.events.push_back(Event::HandshakeCompleted);
                    // Advertise our addresses so the client can open the
                    // additional paths (paper §3, Path Management).
                    if self.config.multipath && !self.addresses_advertised {
                        self.addresses_advertised = true;
                        for (i, &addr) in self.local_addrs.clone().iter().enumerate() {
                            self.control_queue.push_back(Frame::AddAddress(AddressInfo {
                                address_id: i as u64,
                                addr,
                            }));
                        }
                    }
                }
            }
        }
    }

    fn handle_ack(&mut self, now: SimTime, on_path: PathId, ack: AckFrame) {
        // Coupled congestion control needs a snapshot of every path.
        let snapshots: Vec<_> = self.paths.values().map(Path::snapshot).collect();
        let self_index = self
            .paths
            .keys()
            .position(|&id| id == ack.path_id)
            .unwrap_or(0);
        let Some(path) = self.paths.get_mut(&ack.path_id) else {
            return;
        };
        let ack_delay = std::time::Duration::from_micros(ack.ack_delay_micros);
        let mut outcome =
            path.recovery
                .on_ack(now, ack.iter_ranges_ascending(), ack_delay, &mut path.rtt);
        // Telemetry payloads are gathered while the path borrow is live
        // and emitted once it ends.
        let mut metrics = None;
        let mut recovered = false;
        if outcome.newly_acked_bytes > 0 {
            let rtt = path.rtt.latest();
            path.cc
                .on_ack(now, outcome.newly_acked_bytes, rtt, &snapshots, self_index);
            recovered = path.state == PathState::PotentiallyFailed;
            path.mark_recovered();
            metrics = Some(telemetry::MetricsUpdated {
                time: now,
                path: ack.path_id,
                srtt_us: path.rtt.srtt().as_micros() as u64,
                rttvar_us: path.rtt.rttvar().as_micros() as u64,
                cwnd: path.cc.window(),
                bytes_in_flight: path.recovery.bytes_in_flight(),
            });
        }
        let mut window_after = None;
        if outcome.congestion_event {
            path.cc.on_congestion_event(now);
            self.stats.congestion_events += 1;
            window_after = Some(path.cc.window());
        }
        self.emit(telemetry::Event::AckReceived(telemetry::AckReceived {
            time: now,
            on_path,
            acks_path: ack.path_id,
            largest_acked: ack.largest_acked,
            newly_acked_bytes: outcome.newly_acked_bytes,
        }));
        if let Some(m) = metrics {
            self.emit(telemetry::Event::MetricsUpdated(m));
        }
        if recovered {
            self.events.push_back(Event::PathActive(ack.path_id));
            self.emit_path_state(now, ack.path_id, telemetry::PathState::Active);
        }
        if let Some(window_after) = window_after {
            self.emit(telemetry::Event::CongestionEvent(
                telemetry::CongestionEvent {
                    time: now,
                    path: ack.path_id,
                    window_after,
                },
            ));
        }
        if outcome.lost_bytes > 0 {
            self.emit(telemetry::Event::FramesLost(telemetry::FramesLost {
                time: now,
                path: ack.path_id,
                frames: outcome.lost_frames.len(),
                bytes: outcome.lost_bytes,
            }));
        }
        for frame in outcome.acked_frames.drain(..) {
            self.on_frame_acked(frame);
        }
        let lost_frames = std::mem::take(&mut outcome.lost_frames);
        if !lost_frames.is_empty() {
            self.requeue_lost_frames(now, ack.path_id, lost_frames);
        }
        // Hand the outcome's spent buffers back so the next ACK on this
        // path reuses their capacity (the steady-state zero-alloc claim).
        if let Some(path) = self.paths.get_mut(&ack.path_id) {
            path.recovery.reclaim(outcome);
        }
    }

    /// Delivery confirmation for one retransmittable frame (the on-ack
    /// twin of [`Connection::requeue_lost_frames`]). Deliberately an
    /// exhaustive match — `cargo xtask lint` checks every [`Frame`]
    /// variant appears here so a new frame type cannot silently skip its
    /// acked bookkeeping.
    fn on_frame_acked(&mut self, frame: Frame) {
        match frame {
            Frame::Stream(f) => {
                // Mark the range delivered so a lost duplicate of the same
                // bytes is not retransmitted.
                if let Some(s) = self.send_streams.get_mut(&f.stream_id) {
                    s.on_acked(f.offset, f.data.len() as u64, f.fin);
                }
            }
            // Handshake delivery is confirmed by the crypto state machine
            // itself (completion), not per-frame.
            Frame::Crypto { .. } => {}
            // Control frames are idempotent advertisements: once acked
            // there is nothing to clean up, and a newer copy may already
            // be queued.
            Frame::WindowUpdate { .. }
            | Frame::Blocked { .. }
            | Frame::RstStream { .. }
            | Frame::ConnectionClose { .. }
            | Frame::AddAddress(_)
            | Frame::Paths(_)
            | Frame::Ping => {}
            // Path-validation and CID-rotation frames are one-shot
            // signals; their outcomes live in the connection state
            // machine, not per-frame bookkeeping.
            Frame::PathChallenge { .. }
            | Frame::PathResponse { .. }
            | Frame::NewConnectionId { .. }
            | Frame::RetireConnectionId { .. } => {}
            // Never tracked by recovery (not retransmittable).
            Frame::Ack(_) | Frame::Padding { .. } => {}
        }
    }

    fn handle_stream_frame(&mut self, _now: SimTime, frame: StreamFrame) {
        let id = frame.stream_id;
        if !self.recv_streams.contains_key(&id) && !self.send_streams.contains_key(&id) {
            // Peer-opened stream: create both halves.
            self.recv_streams
                .insert(id, RecvStream::new(id, self.config.stream_recv_window));
            self.send_streams
                .insert(id, SendStream::new(id, self.config.stream_recv_window));
            self.events.push_back(Event::StreamOpened(id));
        }
        let Some(stream) = self.recv_streams.get_mut(&id) else {
            return;
        };
        match stream.on_frame(&frame) {
            Ok(outcome) => {
                if self
                    .flow
                    .on_data_received(outcome.conn_window_consumed)
                    .is_err()
                {
                    self.abort(
                        error_codes::FLOW_CONTROL_ERROR,
                        "connection flow control violated",
                    );
                    return;
                }
                if outcome.readable {
                    self.events.push_back(Event::StreamReadable(id));
                }
                if outcome.finished {
                    self.events.push_back(Event::StreamComplete(id));
                }
            }
            Err(crate::stream::StreamError::FlowControlViolated) => {
                self.abort(
                    error_codes::FLOW_CONTROL_ERROR,
                    "stream flow control violated",
                );
            }
            Err(_) => {
                self.abort(error_codes::STREAM_STATE_ERROR, "stream state violated");
            }
        }
    }

    fn abort(&mut self, code: u64, reason: &str) {
        self.close(code, reason);
    }

    // ------------------------------------------------------------------
    // Path management
    // ------------------------------------------------------------------

    fn create_path(
        &mut self,
        now: SimTime,
        id: PathId,
        local: SocketAddr,
        remote: SocketAddr,
        locally_initiated: bool,
    ) {
        self.invariants
            .check_path_ownership(self.role, id, locally_initiated);
        let cc = self.config.cc.build(self.config.max_datagram_size as u64);
        let path = Path::new(id, local, remote, self.config.initial_rtt, cc);
        self.paths.insert(id, path);
        self.emit_path_state(now, id, telemetry::PathState::Active);
    }

    /// Client-side: opens additional paths once the handshake is complete
    /// and the server's addresses are known. Local interface `i` pairs
    /// with the server address advertised under address ID `i`; if the
    /// server advertised a single address, every interface pairs with it.
    fn maybe_open_paths(&mut self, now: SimTime) {
        if self.role != Role::Client || !self.config.multipath || !self.handshake_complete {
            return;
        }
        for i in 0..self.local_addrs.len() {
            if i == self.initial_local_index {
                continue;
            }
            let local = self.local_addrs[i];
            if self.paths.values().any(|p| p.local == local) {
                continue;
            }
            let remote = self.remote_addrs.get(&(i as u64)).copied().or_else(|| {
                if self.remote_addrs.len() == 1 {
                    self.remote_addrs.values().next().copied()
                } else {
                    None
                }
            });
            let Some(remote) = remote else { continue };
            let id = PathId(self.next_path_id);
            self.next_path_id += 2;
            self.create_path(now, id, local, remote, true);
            // Exercise the path immediately: the first packet tells the
            // peer the path exists (so *its* scheduler can use it — vital
            // when the server is the bulk sender) and samples the RTT.
            self.per_path_queue
                .entry(id)
                .or_default()
                .push_back(Frame::Ping);
            self.events.push_back(Event::PathActive(id));
        }
    }

    /// Migrates a path to a new local address — QUIC's *connection
    /// migration*, which the paper's introduction contrasts with
    /// multipath: "QUIC connection migration allows moving a flow from
    /// one address to another. This is a form of hard handover."
    ///
    /// Path identity (Path ID, packet-number spaces) is preserved, but
    /// the congestion and RTT state is reset: the new network's
    /// characteristics are unknown (RFC 9000 §9.4 semantics). The peer
    /// learns the new address from the packets themselves (its
    /// NAT-rebinding handling updates the remote address).
    pub fn migrate_path(&mut self, id: PathId, new_local: SocketAddr, now: SimTime) {
        let Some(path) = self.paths.get_mut(&id) else {
            return;
        };
        if path.local == new_local || path.state == PathState::Closed {
            return;
        }
        path.local = new_local;
        path.cc = self.config.cc.build(self.config.max_datagram_size as u64);
        path.rtt = crate::rtt::RttEstimator::new(self.config.initial_rtt);
        path.state = PathState::Active;
        path.probe_at = None;
        // Everything in flight went out on the old network; surrender it
        // for retransmission on the new one.
        let frames = path.recovery.surrender_all();
        self.requeue_lost_frames(now, id, frames);
        // Probe the new network immediately.
        self.per_path_queue
            .entry(id)
            .or_default()
            .push_back(Frame::Ping);
        self.events.push_back(Event::PathActive(id));
        self.emit_path_state(now, id, telemetry::PathState::Active);
    }

    /// Closes a path: the paper's path manager controls "the creation
    /// and deletion of paths". Outstanding frames move to the shared
    /// retransmission queues (servable by the remaining paths) and the
    /// peer is told via a PATHS frame carrying `Closed` status.
    pub fn close_path(&mut self, id: PathId, now: SimTime) {
        let Some(path) = self.paths.get_mut(&id) else {
            return;
        };
        if path.state == PathState::Closed {
            return;
        }
        path.state = PathState::Closed;
        path.probe_at = None;
        // Surrender everything in flight on the dying path.
        let frames = path.recovery.surrender_all();
        self.requeue_lost_frames(now, id, frames);
        // Reroute its queued control frames.
        if let Some(queue) = self.per_path_queue.get_mut(&id) {
            let frames: Vec<Frame> = queue.drain(..).collect();
            self.control_queue.extend(frames);
        }
        self.reclaim_duplicates(id);
        self.queue_paths_frame();
        self.events.push_back(Event::PathClosed(id));
        self.emit_path_state(now, id, telemetry::PathState::Closed);
    }

    /// Duplicates still queued for a path that will carry nothing more go
    /// back to their streams as lost, so another path resends the bytes.
    fn reclaim_duplicates(&mut self, id: PathId) {
        for frame in self.duplicate_queue.remove(&id).unwrap_or_default() {
            if let Frame::Stream(f) = frame {
                if let Some(s) = self.send_streams.get_mut(&f.stream_id) {
                    s.on_lost(f);
                }
            }
        }
    }

    fn queue_paths_frame(&mut self) {
        if !self.config.send_paths_frames || !self.config.multipath {
            return;
        }
        let infos: Vec<PathInfo> = self
            .paths
            .values()
            .map(|p| PathInfo {
                path_id: p.id,
                status: p.status(),
                srtt_micros: if p.rtt_known() {
                    p.rtt.srtt().as_micros() as u64
                } else {
                    mpquic_wire::frame::SRTT_UNKNOWN
                },
            })
            .collect();
        self.control_queue.push_back(Frame::Paths(infos));
    }

    /// Routes reliable frames from lost (or surrendered) packets back to
    /// their retransmission queues. `from_path` is the path the frames
    /// originally travelled on — recorded in the `frame_retransmitted`
    /// telemetry event; the retransmission itself is rescheduled and may
    /// leave on any path.
    fn requeue_lost_frames(&mut self, now: SimTime, from_path: PathId, frames: Vec<Frame>) {
        for frame in frames {
            self.stats.frames_retransmitted += 1;
            let kind = frame.frame_type().name();
            match frame {
                Frame::Stream(f) => {
                    if let Some(s) = self.send_streams.get_mut(&f.stream_id) {
                        s.on_lost(f);
                    }
                }
                Frame::Crypto { .. } => self.crypto_queue.push_back(frame),
                Frame::Paths(_) => self.queue_paths_frame(),
                Frame::Ping => {}
                Frame::WindowUpdate { .. }
                | Frame::AddAddress(_)
                | Frame::Blocked { .. }
                | Frame::RstStream { .. }
                | Frame::ConnectionClose { .. } => self.control_queue.push_back(frame),
                // Challenge retransmission is timer-driven with a bounded
                // retry budget; a lost copy is simply dropped here.
                Frame::PathChallenge { .. } => {}
                Frame::PathResponse { .. }
                | Frame::NewConnectionId { .. }
                | Frame::RetireConnectionId { .. } => self.control_queue.push_back(frame),
                Frame::Ack(_) | Frame::Padding { .. } => {}
            }
            self.emit(telemetry::Event::FrameRetransmitted(
                telemetry::FrameRetransmitted {
                    time: now,
                    from_path,
                    kind,
                },
            ));
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest instant at which [`Connection::on_timeout`] (or a
    /// transmission) is needed.
    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.closed {
            return None;
        }
        let mut earliest = SimTime::FAR_FUTURE;
        if let (Some(idle), Some(last)) = (self.config.idle_timeout, self.last_activity) {
            earliest = earliest.min(last + idle);
        }
        for path in self.paths.values() {
            if let Some((when, _)) = path.recovery.next_timeout(&path.rtt) {
                earliest = earliest.min(when);
            }
            if path.ack_pending {
                if let Some(deadline) = path.ack_deadline {
                    earliest = earliest.min(deadline);
                }
            }
            if let Some(probe) = path.probe_at {
                earliest = earliest.min(probe);
            }
            if let Some(challenge) = path.challenge_timeout() {
                earliest = earliest.min(challenge);
            }
        }
        if earliest == SimTime::FAR_FUTURE {
            None
        } else {
            Some(earliest)
        }
    }

    /// Fires expired timers: loss detection, RTOs, and probe scheduling.
    /// Delayed ACKs flush through the next [`Connection::poll_transmit`].
    pub fn on_timeout(&mut self, now: SimTime) {
        if self.closed {
            return;
        }
        if let (Some(idle), Some(last)) = (self.config.idle_timeout, self.last_activity) {
            if now.saturating_duration_since(last) >= idle {
                // Idle connections close silently (no CONNECTION_CLOSE:
                // the peer is unreachable or gone anyway).
                self.closed = true;
                self.events.push_back(Event::Closed {
                    error_code: error_codes::IDLE_TIMEOUT,
                    reason: "idle timeout".to_string(),
                });
                return;
            }
        }
        let ids: Vec<PathId> = self.paths.keys().copied().collect();
        for id in ids {
            let (outcome, was_active) = {
                let path = self.paths.get_mut(&id).expect("listed");
                let due = path
                    .recovery
                    .next_timeout(&path.rtt)
                    .is_some_and(|(when, _)| when <= now);
                if !due {
                    continue;
                }
                let was_active = path.state == PathState::Active;
                let outcome = path.recovery.on_timeout(now, &path.rtt);
                (outcome, was_active)
            };
            if outcome.rto_fired {
                self.stats.rtos += 1;
                self.emit(telemetry::Event::Rto(telemetry::Rto {
                    time: now,
                    path: id,
                }));
                {
                    let path = self.paths.get_mut(&id).expect("listed");
                    path.cc.on_rto(now);
                    // The paper's §4.3 behaviour: the path is only
                    // *potentially* failed; the scheduler ignores it until
                    // data is acked on it.
                    path.mark_potentially_failed(now);
                }
                if was_active {
                    self.events.push_back(Event::PathPotentiallyFailed(id));
                    self.emit_path_state(now, id, telemetry::PathState::PotentiallyFailed);
                }
                // Tell the peer which path failed so it does not have to
                // discover it through its own RTO (Fig. 11).
                if self.paths.len() > 1 {
                    self.queue_paths_frame();
                    if was_active {
                        // Traffic moves to the best remaining usable path
                        // (§4.3 handover). `None` means no healthy path is
                        // left and the connection rides the fallback.
                        let to_path = {
                            let views: Vec<PathView> = self
                                .path_views()
                                .into_iter()
                                .filter(|v| v.id != id)
                                .collect();
                            self.scheduler.select_for_control(&views)
                        };
                        self.emit(telemetry::Event::Handover(telemetry::Handover {
                            time: now,
                            from_path: id,
                            to_path,
                        }));
                    }
                }
            } else if outcome.congestion_event {
                let path = self.paths.get_mut(&id).expect("listed");
                path.cc.on_congestion_event(now);
                self.stats.congestion_events += 1;
            }
            if !outcome.lost_frames.is_empty() {
                self.requeue_lost_frames(now, id, outcome.lost_frames);
            }
        }
        // Path-validation timers: retransmit the challenge (bounded
        // budget) or abandon the rebound path.
        let ids: Vec<PathId> = self.paths.keys().copied().collect();
        for id in ids {
            let action = self
                .paths
                .get_mut(&id)
                .and_then(|p| p.on_challenge_timeout(now));
            match action {
                Some(ChallengeTimeout::Retransmit(token)) => {
                    self.per_path_queue
                        .entry(id)
                        .or_default()
                        .push_back(Frame::PathChallenge { token });
                }
                Some(ChallengeTimeout::Abandon) => self.abandon_path_validation(now, id),
                None => {}
            }
        }
    }

    /// The rebound address never answered its challenges: close the path,
    /// reroute everything it still held, and tell the peer via PATHS.
    fn abandon_path_validation(&mut self, now: SimTime, id: PathId) {
        let surrendered = {
            let Some(path) = self.paths.get_mut(&id) else {
                return;
            };
            path.abandon_validation();
            path.recovery.surrender_all()
        };
        if !surrendered.is_empty() {
            self.requeue_lost_frames(now, id, surrendered);
        }
        if let Some(queue) = self.per_path_queue.get_mut(&id) {
            // Stranded challenges/responses die with the path; everything
            // else reroutes through the path-agnostic queue.
            let rerouted: Vec<Frame> = queue
                .drain(..)
                .filter(|f| !matches!(f, Frame::PathChallenge { .. } | Frame::PathResponse { .. }))
                .collect();
            self.control_queue.extend(rerouted);
        }
        self.reclaim_duplicates(id);
        if self.paths.len() > 1 {
            self.queue_paths_frame();
        }
        self.path_ops.push_back(PathOp::ValidationAbandoned);
        self.events.push_back(Event::PathClosed(id));
        self.emit(telemetry::Event::PathValidationFailed(
            telemetry::PathValidationFailed {
                time: now,
                path: id,
            },
        ));
        self.emit_path_state(now, id, telemetry::PathState::Closed);
    }

    // ------------------------------------------------------------------
    // Egress
    // ------------------------------------------------------------------

    /// Produces the next outgoing datagram, if any. Call repeatedly until
    /// it returns `None`.
    ///
    /// The one-datagram API (what the simulator and `TcpStack`-style
    /// drivers speak): each call allocates its own payload. Hot loops
    /// should prefer [`Connection::poll_transmit_batch`], which fills
    /// pool-backed buffers and coalesces same-path runs GSO-style. Both
    /// sit on the same packet assembler and produce the same bytes.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Transmit> {
        let mut payload = Vec::new();
        let (local, remote) = self.poll_transmit_into(now, &mut payload)?;
        Some(Transmit {
            local,
            remote,
            payload,
            segment_size: None,
        })
    }

    /// Fills `queue` with as many datagrams as the congestion window,
    /// the scheduler and the queue's capacity allow, writing each into a
    /// buffer from the queue's pool. Consecutive datagrams for the same
    /// `(local, remote)` pair coalesce into GSO-shaped segment trains
    /// (see [`Transmit::segment_size`]). Returns the number of wire
    /// datagrams produced.
    pub fn poll_transmit_batch(&mut self, now: SimTime, queue: &mut TransmitQueue) -> usize {
        let mut produced = 0;
        while queue.has_capacity() {
            let mut buf = queue.take_buf();
            match self.poll_transmit_into(now, &mut buf) {
                Some((local, remote)) => {
                    queue.push_segment(local, remote, buf);
                    produced += 1;
                }
                None => {
                    queue.recycle(buf);
                    break;
                }
            }
        }
        produced
    }

    /// Builds the next outgoing datagram directly into `out` (cleared
    /// first) and returns its `(local, remote)` addressing, or `None`
    /// when there is nothing to send.
    fn poll_transmit_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> Option<(SocketAddr, SocketAddr)> {
        out.clear();
        if self.closed && !self.close_sent {
            // We process a received close by going silent; nothing to send.
            return None;
        }
        // 0. Pending CONNECTION_CLOSE.
        if let Some((error_code, reason)) = self.close_pending.clone() {
            if self.close_sent {
                return None;
            }
            let path_id = self
                .paths
                .values()
                .find(|p| p.state == PathState::Active)
                .or_else(|| self.paths.values().next())
                .map(|p| p.id);
            let sent = path_id.and_then(|id| {
                self.assemble(now, id, self.keyed_packet_type(), out, |_, builder| {
                    builder.try_push(Frame::ConnectionClose { error_code, reason });
                    true
                })
            });
            self.close_sent = true;
            self.closed = true;
            return sent;
        }
        // 1. Generate window updates (duplicated on all paths).
        self.flush_window_updates(now);
        // 2. Handshake packets (initial path, initial keys).
        if !self.crypto_queue.is_empty() && self.paths.contains_key(&PathId::INITIAL) {
            let sent = self.assemble(
                now,
                PathId::INITIAL,
                PacketType::Handshake,
                out,
                |conn, builder| {
                    fill_from(&mut conn.crypto_queue, builder);
                    true
                },
            );
            if sent.is_some() {
                return sent;
            }
        }
        // 3. Path-bound control frames (window-update duplicates, probes).
        // Frames stranded on a path that is no longer active are rerouted
        // through the path-agnostic queue — frames are independent of
        // paths by design.
        let stranded: Vec<PathId> = self
            .per_path_queue
            .iter()
            .filter(|(id, q)| {
                // A Validating path keeps its queue: the PATH_CHALLENGE
                // must leave on the quarantined 4-tuple to prove it.
                !q.is_empty()
                    && self.paths.get(id).is_none_or(|p| {
                        !matches!(p.state, PathState::Active | PathState::Validating)
                    })
            })
            .map(|(&id, _)| id)
            .collect();
        for id in stranded {
            if let Some(queue) = self.per_path_queue.get_mut(&id) {
                let frames: Vec<Frame> = queue.drain(..).collect();
                self.control_queue.extend(frames);
            }
        }
        let path_with_control = self
            .per_path_queue
            .iter()
            .find(|(_, q)| !q.is_empty())
            .map(|(&id, _)| id);
        if let Some(id) = path_with_control {
            let sent = self.assemble(now, id, PacketType::OneRtt, out, |conn, builder| {
                if let Some(queue) = conn.per_path_queue.get_mut(&id) {
                    fill_from(queue, builder);
                }
                // Nothing but ACKs would go out: leave those to step 5.
                builder.has_retransmittable()
            });
            if sent.is_some() {
                return sent;
            }
        }
        // 4. Data packets, scheduled per the paper.
        if self.session_keys.is_some() {
            if let Some(t) = self.emit_data(now, out) {
                return Some(t);
            }
        }
        // 5. Due ACKs that found no ride. The ACK frame names the path it
        // acknowledges, so it may travel on any path; prefer the path the
        // data arrived on (like the paper's implementation), but fall back
        // to the best active path when that one is potentially failed —
        // otherwise ACKs for a broken path would be sent into the void.
        let due: Vec<(PathId, bool)> = self
            .paths
            .values()
            .filter(|p| p.ack_due(now))
            .map(|p| (p.id, p.state == PathState::Active))
            .collect();
        for (due_path, active) in due {
            let send_on = if active {
                Some(due_path)
            } else {
                // The receiving path is sick: route its ACK over the best
                // active path (ACK frames carry their own Path ID).
                self.scheduler
                    .select_for_control(&self.path_views())
                    .or(Some(due_path))
            };
            if let Some(id) = send_on {
                // The assembler's own ACK pass is the whole packet (and
                // an empty one is never sealed).
                let sent = self.assemble(now, id, self.keyed_packet_type(), out, |_, _| true);
                if sent.is_some() {
                    return sent;
                }
            }
        }
        // 6. Probes of potentially-failed paths.
        let probe_path = self
            .paths
            .values()
            .find(|p| p.probe_at.is_some_and(|at| at <= now))
            .map(|p| p.id);
        let id = probe_path?;
        // One probe per backoff period; the probe's own RTO (or its ACK)
        // schedules what happens next.
        self.paths.get_mut(&id)?.probe_at = None;
        self.assemble(now, id, PacketType::OneRtt, out, |_, builder| {
            builder.try_push(Frame::Ping);
            true
        })
    }

    fn flush_window_updates(&mut self, now: SimTime) {
        let mut updates: Vec<Frame> = Vec::new();
        if let Some(limit) = self.flow.poll_window_update() {
            updates.push(Frame::WindowUpdate {
                stream_id: 0,
                max_data: limit,
            });
        }
        for (&id, stream) in self.recv_streams.iter_mut() {
            if let Some(limit) = stream.poll_window_update() {
                updates.push(Frame::WindowUpdate {
                    stream_id: id,
                    max_data: limit,
                });
            }
        }
        if updates.is_empty() {
            return;
        }
        if self.config.duplicate_window_updates && self.config.multipath {
            // The paper's rule: WINDOW_UPDATE goes out on *all* paths.
            let active: Vec<PathId> = self
                .paths
                .values()
                .filter(|p| p.state == PathState::Active)
                .map(|p| p.id)
                .collect();
            for &id in &active {
                let queue = self.per_path_queue.entry(id).or_default();
                queue.extend(updates.iter().cloned());
            }
            if self.telemetry_enabled() {
                for update in &updates {
                    if let Frame::WindowUpdate {
                        stream_id,
                        max_data,
                    } = update
                    {
                        let (stream_id, max_data) = (*stream_id, *max_data);
                        self.emit(telemetry::Event::WindowUpdateDuplicated(
                            telemetry::WindowUpdateDuplicated {
                                time: now,
                                stream_id,
                                max_data,
                                paths: active.clone(),
                            },
                        ));
                    }
                }
            }
        } else {
            self.control_queue.extend(updates);
        }
    }

    /// Records the session keys and runs both directions' key schedule.
    fn install_session_keys(&mut self, keys: SessionKeys) {
        let (send, recv) = match self.role {
            Role::Client => (keys.client_to_server, keys.server_to_client),
            Role::Server => (keys.server_to_client, keys.client_to_server),
        };
        self.session_keys = Some(keys);
        self.one_rtt_aead = Some((Aead::new(send), Aead::new(recv)));
    }

    /// The Handshake-packet context for `cid`. Kept for the connection's
    /// own CID; a fresh server's first flight and stragglers keyed to a
    /// rotated-away CID derive theirs on the spot, so nothing is stored on
    /// the word of an unauthenticated datagram.
    fn handshake_aead(&mut self, cid: u64) -> Aead {
        if let Some((cached, aead)) = &self.handshake_aead {
            if *cached == cid {
                return aead.clone();
            }
        }
        let aead = Aead::new(initial_key(cid));
        if cid == self.cid {
            self.handshake_aead = Some((cid, aead.clone()));
        }
        aead
    }

    /// Which AEAD protects packets we send of the given type.
    fn send_aead(&mut self, packet_type: PacketType) -> Option<Aead> {
        match packet_type {
            PacketType::Handshake => Some(self.handshake_aead(self.cid)),
            PacketType::OneRtt => self.one_rtt_aead.as_ref().map(|(send, _)| send.clone()),
        }
    }

    fn provisional_header(&self, path_id: PathId, packet_type: PacketType) -> PublicHeader {
        let packet_number = if self.config.shared_pn_space {
            self.shared_pn
        } else {
            self.paths
                .get(&path_id)
                .map(|p| p.recovery.next_pn_peek())
                .unwrap_or(0)
        };
        PublicHeader {
            connection_id: self.cid,
            path_id,
            packet_number,
            packet_type,
        }
    }

    /// Adds pending ACK frames to a packet being built for `packet_path`.
    ///
    /// ACK affinity follows the paper: "our implementation returns the ACK
    /// frame for a given path on the path where the data was received" —
    /// unless that path is potentially failed, in which case the ACK may
    /// ride the best active path ("since it contains the Path ID, it is
    /// possible to send ACK frames over different paths"). Keeping healthy
    /// paths' ACKs off sick paths prevents a single dead path from
    /// starving the others of acknowledgements.
    fn push_acks(&mut self, now: SimTime, builder: &mut PacketBuilder, packet_path: PathId) {
        let best_active = self
            .paths
            .values()
            .filter(|p| p.state == PathState::Active)
            .min_by_key(|p| p.rtt.srtt())
            .map(|p| p.id);
        let pending: Vec<(PathId, PathId)> = self
            .paths
            .values()
            .filter(|p| p.ack_pending)
            .map(|p| {
                let target = if p.state == PathState::Active {
                    p.id
                } else {
                    best_active.unwrap_or(packet_path)
                };
                (p.id, target)
            })
            .collect();
        for (id, target) in pending {
            if target != packet_path {
                continue;
            }
            let frame = {
                let path = self.paths.get(&id).expect("listed");
                path.peek_ack_frame(now, self.config.max_ack_ranges)
                    .map(Frame::Ack)
            };
            if let Some(frame) = frame {
                let mut largest_acked = 0;
                if let Frame::Ack(ack) = &frame {
                    self.invariants.check_ack_frame(ack, "built");
                    largest_acked = ack.largest_acked;
                }
                if builder.try_push(frame) {
                    self.paths.get_mut(&id).expect("listed").note_ack_sent();
                    self.emit(telemetry::Event::AckSent(telemetry::AckSent {
                        time: now,
                        on_path: packet_path,
                        acks_path: id,
                        largest_acked,
                    }));
                }
            }
        }
    }

    /// Seals a finished builder into `out` (cleared first) and records
    /// the packet with recovery and congestion control. Returns the
    /// datagram's `(local, remote)` addressing.
    ///
    /// The packet is encoded straight into `out` and protected there —
    /// header as associated data, payload encrypted where it lies, tag
    /// appended — so a warm egress path neither allocates nor copies the
    /// payload here.
    fn finalize(
        &mut self,
        now: SimTime,
        builder: PacketBuilder,
        path_id: PathId,
        aead: &Aead,
        out: &mut Vec<u8>,
    ) -> Option<(SocketAddr, SocketAddr)> {
        let packet = builder.finish()?;
        let ack_eliciting = packet.is_ack_eliciting();
        let nonce = nonce_for(
            self.config.nonce_mode,
            path_id.0,
            packet.header.packet_number,
        );
        out.clear();
        packet.header.encode(out);
        let header_len = out.len();
        for frame in &packet.frames {
            frame.encode(out);
        }
        let (aad, payload) = out.split_at_mut(header_len);
        let tag = aead.seal_in_place(&nonce, aad, payload);
        out.extend_from_slice(&tag);
        let wire_len = out.len() as u64;

        let path = self.paths.get_mut(&path_id).expect("path exists");
        if self.config.shared_pn_space {
            // Single-space ablation: every path allocates from one
            // connection-wide counter. Recovery reserves the value so it
            // still owns the per-path numbering (and stays monotonic).
            path.recovery.reserve_through(self.shared_pn);
            self.shared_pn += 1;
        }
        let pn = path.recovery.next_packet_number();
        debug_assert_eq!(pn, packet.header.packet_number, "provisional pn must match");
        if ack_eliciting {
            path.recovery.on_packet_sent(SentPacket {
                packet_number: pn,
                time_sent: now,
                size: wire_len,
                ack_eliciting,
                frames: packet
                    .frames
                    .into_iter()
                    .filter(Frame::is_retransmittable)
                    .collect(),
            });
            path.cc.on_packet_sent(now, wire_len);
        }
        self.invariants.on_packet_sent(path_id, pn, &path.recovery);
        path.bytes_sent += wire_len;
        let (local, remote) = (path.local, path.remote);
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += wire_len;
        self.emit(telemetry::Event::PacketSent(telemetry::PacketSent {
            time: now,
            path: path_id,
            packet_number: pn,
            size: wire_len as usize,
            ack_eliciting,
        }));
        Some((local, remote))
    }

    /// The packet type the connection's newest keys protect: 1-RTT once
    /// the session keys exist, Handshake before.
    fn keyed_packet_type(&self) -> PacketType {
        if self.session_keys.is_some() {
            PacketType::OneRtt
        } else {
            PacketType::Handshake
        }
    }

    /// The one packet assembler: every datagram this connection sends is
    /// built here. Opens a `packet_type` packet on `path_id`, gives due
    /// ACKs their ride, lets `source` add its frames, and seals the result
    /// into `out` through [`Connection::finalize`]. Frames are independent
    /// of packets (paper §3), so a source only decides *what* goes — and,
    /// by returning `false`, that what fitted is not worth a packet.
    /// `None` when nothing was sent.
    fn assemble(
        &mut self,
        now: SimTime,
        path_id: PathId,
        packet_type: PacketType,
        out: &mut Vec<u8>,
        source: impl FnOnce(&mut Connection, &mut PacketBuilder) -> bool,
    ) -> Option<(SocketAddr, SocketAddr)> {
        // No keys for this packet type yet: touch nothing.
        let aead = self.send_aead(packet_type)?;
        let header = self.provisional_header(path_id, packet_type);
        let mut builder = PacketBuilder::with_datagram_size(header, self.config.max_datagram_size);
        self.push_acks(now, &mut builder, path_id);
        if !source(self, &mut builder) {
            return None;
        }
        self.finalize(now, builder, path_id, &aead, out)
    }

    fn emit_data(&mut self, now: SimTime, out: &mut Vec<u8>) -> Option<(SocketAddr, SocketAddr)> {
        // Does anyone want to send?
        let has_dup = self.duplicate_queue.values().any(|q| !q.is_empty());
        let has_stream_data = self.send_streams.values().any(SendStream::wants_to_send);
        let has_control = !self.control_queue.is_empty();
        if !has_dup && !has_stream_data && !has_control {
            return None;
        }
        let views = self.path_views();
        // Duplicate-queue frames are bound to their target path; if a
        // target path has queued duplicates and window space, serve it
        // first so duplicates don't rot.
        let dup_path = self
            .duplicate_queue
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&id, _)| id)
            .find(|id| {
                views.iter().any(|v| {
                    v.id == *id
                        && v.usable
                        && v.cwnd_available >= self.config.max_datagram_size as u64
                })
            });
        let decision = if let Some(id) = dup_path {
            crate::scheduler::Decision {
                path: id,
                duplicate_on: Vec::new(),
                reason: SchedulerReason::DuplicateQueue,
            }
        } else {
            self.scheduler
                .select_for_data(&views, self.config.max_datagram_size as u64)?
        };
        let transmit = self.assemble(
            now,
            decision.path,
            PacketType::OneRtt,
            out,
            |conn, builder| {
                conn.fill_data(builder, decision.path, &decision.duplicate_on);
                builder.has_retransmittable()
            },
        );
        // Record the decision only for packets that actually left, so the
        // scheduler-share statistic matches bytes on the wire.
        if transmit.is_some() && self.telemetry_enabled() {
            let min_space = self.config.max_datagram_size as u64;
            let candidates: Vec<PathId> = views
                .iter()
                .filter(|v| v.usable && v.cwnd_available >= min_space)
                .map(|v| v.id)
                .collect();
            self.emit(telemetry::Event::SchedulerDecision(
                telemetry::SchedulerDecision {
                    time: now,
                    chosen_path: decision.path,
                    candidates,
                    duplicate_on: decision.duplicate_on,
                    reason: decision.reason,
                },
            ));
        }
        transmit
    }

    /// The frame source of a data packet on `path_id`: path-agnostic
    /// control frames, duplicates bound for this path, then stream data
    /// (copied toward each `duplicate_on` path as it is packed).
    fn fill_data(&mut self, builder: &mut PacketBuilder, path_id: PathId, duplicate_on: &[PathId]) {
        // Path-agnostic control frames ride along.
        fill_from(&mut self.control_queue, builder);
        // Duplicated stream frames targeted at this path.
        if let Some(queue) = self.duplicate_queue.get_mut(&path_id) {
            fill_from(queue, builder);
        }
        // Fresh stream data (and retransmissions), subject to connection
        // flow control.
        let mut credit = self.flow.send_credit();
        // Service streams round-robin, starting after the last stream
        // served, so concurrent streams share the paths fairly: the ids
        // above the cursor in order, then the rest from the bottom.
        let cursor = self.stream_cursor;
        let order = [
            (Bound::Excluded(cursor), Bound::Unbounded),
            (Bound::Unbounded, Bound::Included(cursor)),
        ];
        loop {
            let mut progressed = false;
            for part in order {
                for (&sid, stream) in self.send_streams.range_mut(part) {
                    if !stream.wants_to_send() {
                        if stream.should_report_blocked() {
                            builder.try_push(Frame::Blocked { stream_id: sid });
                        }
                        continue;
                    }
                    let overhead =
                        StreamFrame::overhead(sid, stream.next_send_offset(), builder.remaining());
                    if builder.remaining() <= overhead {
                        continue;
                    }
                    let max_payload = builder.remaining() - overhead;
                    if let Some((frame, consumed)) = stream.next_frame(max_payload, credit) {
                        credit -= consumed;
                        self.stream_cursor = sid;
                        self.flow.on_new_data_sent(consumed);
                        for &dup_target in duplicate_on {
                            self.duplicate_queue
                                .entry(dup_target)
                                .or_default()
                                .push_back(Frame::Stream(frame.clone()));
                            self.stats.duplicated_stream_frames += 1;
                        }
                        let ok = builder.try_push(Frame::Stream(frame));
                        debug_assert!(ok, "frame was sized to fit");
                        progressed = true;
                    }
                }
            }
            if !progressed || builder.remaining() < 16 {
                break;
            }
        }
        if self.flow.should_report_blocked() {
            builder.try_push(Frame::Blocked { stream_id: 0 });
        }
    }

    fn path_views(&self) -> Vec<PathView> {
        self.paths
            .values()
            // Validating paths are invisible to the scheduler entirely —
            // not even the control-frame fallback may place traffic on an
            // unvalidated address (the challenge itself travels through
            // the per-path queue, which ignores scheduling).
            .filter(|p| !matches!(p.state, PathState::Closed | PathState::Validating))
            .map(|p| PathView {
                id: p.id,
                srtt: p.rtt.srtt(),
                rtt_known: p.rtt_known(),
                cwnd_available: p.cwnd_available(),
                bytes_in_flight: p.recovery.bytes_in_flight(),
                usable: p.usable_for_data() && (self.handshake_complete || p.id == PathId::INITIAL),
            })
            .collect()
    }
}

/// Moves frames from the front of `queue` into `builder`, in order, until
/// the next one no longer fits.
fn fill_from(queue: &mut VecDeque<Frame>, builder: &mut PacketBuilder) {
    while queue
        .front()
        .is_some_and(|frame| frame.wire_size() <= builder.remaining())
    {
        let frame = queue.pop_front().expect("front checked");
        builder.try_push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Event;
    use crate::SchedulerKind;

    const C0: &str = "10.0.0.1:50000";
    const C1: &str = "10.1.0.1:50000";
    const S0: &str = "10.0.1.1:4433";
    const S1: &str = "10.1.1.1:4433";

    fn addr(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    fn pair() -> (Connection, Connection) {
        let client = Connection::client(
            Config::multipath(),
            vec![addr(C0), addr(C1)],
            0,
            addr(S0),
            1,
        );
        let server = Connection::server(Config::multipath(), vec![addr(S0), addr(S1)], 2);
        (client, server)
    }

    /// Shuttles all pending datagrams both ways (zero latency) until both
    /// sides are quiescent at `now`.
    fn shuttle(client: &mut Connection, server: &mut Connection, now: SimTime) {
        for _ in 0..64 {
            let mut any = false;
            while let Some(t) = client.poll_transmit(now) {
                server.handle_datagram(now, t.remote, t.local, &t.payload);
                any = true;
            }
            while let Some(t) = server.poll_transmit(now) {
                client.handle_datagram(now, t.remote, t.local, &t.payload);
                any = true;
            }
            if !any {
                return;
            }
        }
        panic!("shuttle did not quiesce");
    }

    fn established_pair(now: SimTime) -> (Connection, Connection) {
        let (mut client, mut server) = pair();
        shuttle(&mut client, &mut server, now);
        assert!(client.is_established() && server.is_established());
        (client, server)
    }

    fn drain(conn: &mut Connection) -> Vec<Event> {
        std::iter::from_fn(|| conn.poll_event()).collect()
    }

    /// Fires the earliest pending timer of either side and shuttles the
    /// resulting datagrams. Returns the time it advanced to.
    fn advance(client: &mut Connection, server: &mut Connection) -> SimTime {
        let now = [client.next_timeout(), server.next_timeout()]
            .into_iter()
            .flatten()
            .min()
            .expect("a timer is armed");
        client.on_timeout(now);
        server.on_timeout(now);
        shuttle(client, server, now);
        now
    }

    #[test]
    fn zero_latency_handshake_establishes_both_sides() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        assert!(drain(&mut client).contains(&Event::HandshakeCompleted));
        assert!(drain(&mut server).contains(&Event::HandshakeCompleted));
        assert_eq!(client.connection_id(), server.connection_id());
    }

    #[test]
    fn client_opens_additional_path_after_add_address() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(client.path_ids().contains(&PathId(1)));
        let p1 = client.path(PathId(1)).unwrap();
        assert_eq!(p1.local, addr(C1));
        assert_eq!(p1.remote, addr(S1));
        // Path 1 was probed (PING) so the server learned about it.
        assert!(server.path_ids().contains(&PathId(1)));
    }

    #[test]
    fn stream_ids_allocated_by_role() {
        let (mut client, mut server) = pair();
        assert_eq!(client.open_stream(), 1);
        assert_eq!(client.open_stream(), 3);
        assert_eq!(server.open_stream(), 2);
        assert_eq!(server.open_stream(), 4);
    }

    #[test]
    fn peer_opened_stream_creates_both_halves_and_event() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"hi"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        let events = drain(&mut server);
        assert!(events.contains(&Event::StreamOpened(stream)));
        assert!(events.contains(&Event::StreamReadable(stream)));
        assert_eq!(&server.stream_read(stream, 10).unwrap()[..], b"hi");
        // The server can answer on the same stream.
        server
            .stream_write(stream, Bytes::from_static(b"yo"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(3));
        assert_eq!(&client.stream_read(stream, 10).unwrap()[..], b"yo");
    }

    #[test]
    fn close_is_idempotent_and_propagates_once() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        client.close(0, "bye");
        client.close(7, "ignored");
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(client.is_closed());
        assert!(server.is_closed());
        let events = drain(&mut server);
        let closes: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::Closed { .. }))
            .collect();
        assert_eq!(closes.len(), 1);
        assert!(matches!(
            closes[0],
            Event::Closed { error_code: 0, reason } if reason == "bye"
        ));
        // A closed connection emits nothing further.
        assert!(client.poll_transmit(SimTime::from_millis(3)).is_none());
        assert!(client.next_timeout().is_none());
    }

    #[test]
    fn datagrams_with_wrong_cid_are_dropped() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"x"))
            .unwrap();
        let t = client.poll_transmit(SimTime::from_millis(2)).unwrap();
        let mut corrupted = t.payload.clone();
        corrupted[3] ^= 0xFF; // flip a CID byte in the public header
        let before = server.stats();
        server.handle_datagram(SimTime::from_millis(2), t.remote, t.local, &corrupted);
        let after = server.stats();
        assert_eq!(after.packets_received, before.packets_received);
        assert_eq!(after.decrypt_failures, before.decrypt_failures + 1);
    }

    #[test]
    fn unauthenticated_datagram_cannot_pin_a_fresh_server_to_its_cid() {
        let (mut client, mut server) = pair();
        let chlo = client.poll_transmit(SimTime::ZERO).expect("CHLO");
        // Garbage naming some other connection ID reaches the server
        // first...
        let mut garbage = chlo.payload.clone();
        garbage[3] ^= 0xFF; // a CID byte in the public header
        server.handle_datagram(SimTime::ZERO, chlo.remote, chlo.local, &garbage);
        assert_eq!(server.stats().decrypt_failures, 1);
        // ...and must leave no state behind: the genuine CHLO still lands.
        server.handle_datagram(SimTime::ZERO, chlo.remote, chlo.local, &chlo.payload);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        assert!(client.is_established() && server.is_established());
        assert_eq!(server.connection_id(), client.connection_id());
        assert_eq!(server.stats().decrypt_failures, 1);
    }

    #[test]
    fn tampered_payload_fails_authentication() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"secret"))
            .unwrap();
        let t = client.poll_transmit(SimTime::from_millis(2)).unwrap();
        let mut tampered = t.payload.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01;
        let before = server.stats().decrypt_failures;
        server.handle_datagram(SimTime::from_millis(2), t.remote, t.local, &tampered);
        assert_eq!(server.stats().decrypt_failures, before + 1);
        assert!(server.stream_read(stream, 10).is_none());
    }

    #[test]
    fn duplicate_datagram_discarded() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"abc"))
            .unwrap();
        let t = client.poll_transmit(SimTime::from_millis(2)).unwrap();
        server.handle_datagram(SimTime::from_millis(2), t.remote, t.local, &t.payload);
        server.handle_datagram(SimTime::from_millis(2), t.remote, t.local, &t.payload);
        assert_eq!(server.stats().duplicate_packets, 1);
        assert_eq!(&server.stream_read(stream, 10).unwrap()[..], b"abc");
        assert!(server.stream_read(stream, 10).is_none());
    }

    #[test]
    fn nat_rebinding_updates_remote_without_losing_state() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"before"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert_eq!(&server.stream_read(stream, 100).unwrap()[..], b"before");
        let srtt_before = server.path(PathId::INITIAL).unwrap().rtt.srtt();

        // The client's NAT rebinds: same path id, new source address.
        client
            .stream_write(stream, Bytes::from_static(b"after"))
            .unwrap();
        let rebound = addr("192.0.2.99:1234");
        while let Some(t) = client.poll_transmit(SimTime::from_millis(3)) {
            if t.local == addr(C0) {
                server.handle_datagram(SimTime::from_millis(3), t.remote, rebound, &t.payload);
            } else {
                server.handle_datagram(SimTime::from_millis(3), t.remote, t.local, &t.payload);
            }
        }
        assert_eq!(&server.stream_read(stream, 100).unwrap()[..], b"after");
        let path = server.path(PathId::INITIAL).unwrap();
        assert_eq!(path.remote, rebound, "remote address follows the rebinding");
        assert_eq!(path.rtt.srtt(), srtt_before, "path state survives");
    }

    /// Shuttles both ways through a NAT that rewrites the client's
    /// path-0 source address to `rebound` (return traffic addressed to
    /// `rebound` is translated back to the client transparently).
    fn shuttle_nat(
        client: &mut Connection,
        server: &mut Connection,
        rebound: SocketAddr,
        now: SimTime,
    ) {
        for _ in 0..64 {
            let mut any = false;
            while let Some(t) = client.poll_transmit(now) {
                let src = if t.local == addr(C0) {
                    rebound
                } else {
                    t.local
                };
                server.handle_datagram(now, t.remote, src, &t.payload);
                any = true;
            }
            while let Some(t) = server.poll_transmit(now) {
                client.handle_datagram(now, t.remote, t.local, &t.payload);
                any = true;
            }
            if !any {
                return;
            }
        }
        panic!("shuttle_nat did not quiesce");
    }

    /// Decrypts one server-to-client datagram back into frames.
    fn server_frames(server: &Connection, payload: &[u8]) -> (PathId, Vec<Frame>) {
        let mut cursor = payload;
        let header = PublicHeader::decode(&mut cursor).unwrap();
        let keys = server.session_keys.unwrap();
        let aead = Aead::new(keys.server_to_client);
        let nonce = nonce_for(
            NonceMode::PathIdMixed,
            header.path_id.0,
            header.packet_number,
        );
        let hdr_len = payload.len() - cursor.len();
        let plain = aead
            .open(&nonce, &payload[..hdr_len], &payload[hdr_len..])
            .unwrap();
        (header.path_id, Frame::decode_all(&plain).unwrap())
    }

    #[test]
    fn rebind_triggers_validation_and_cid_rotation() {
        let mut client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        assert!(client.is_established());
        let old_cid = server.connection_id();
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"hello"))
            .unwrap();
        // First flight after the rebind: the server quarantines path 0
        // but still accepts the data it carried.
        let rebound = addr("203.0.113.9:4242");
        while let Some(t) = client.poll_transmit(SimTime::from_millis(2)) {
            server.handle_datagram(SimTime::from_millis(2), t.remote, rebound, &t.payload);
        }
        assert_eq!(
            server.path(PathId::INITIAL).unwrap().state,
            PathState::Validating
        );
        assert_eq!(&server.stream_read(stream, 100).unwrap()[..], b"hello");
        // Challenge/response completes, the path re-activates at its new
        // address, and the server rotates the connection ID end to end.
        shuttle_nat(&mut client, &mut server, rebound, SimTime::from_millis(3));
        let path = server.path(PathId::INITIAL).unwrap();
        assert_eq!(path.state, PathState::Active);
        assert_eq!(path.remote, rebound);
        assert_ne!(server.connection_id(), old_cid, "CID rotated");
        assert_eq!(client.connection_id(), server.connection_id());
        // The demux-facing op stream saw the whole story.
        let mut ops = Vec::new();
        while let Some(op) = server.pop_path_op() {
            ops.push(op);
        }
        assert!(ops.contains(&PathOp::ValidationStarted));
        assert!(ops.contains(&PathOp::ValidationCompleted));
        assert!(ops.iter().any(|o| matches!(o, PathOp::MapCid(_))));
        assert!(ops.contains(&PathOp::UnmapCid(old_cid)));
        // Data still flows after the rotation.
        client
            .stream_write(stream, Bytes::from_static(b"again"))
            .unwrap();
        shuttle_nat(&mut client, &mut server, rebound, SimTime::from_millis(4));
        assert_eq!(&server.stream_read(stream, 100).unwrap()[..], b"again");
    }

    /// Opens one client-to-server 1-RTT datagram with a context built
    /// from scratch: its header, nonce and plaintext payload.
    fn open_client_datagram(
        keys: SessionKeys,
        datagram: &[u8],
    ) -> (PublicHeader, [u8; 12], Vec<u8>) {
        let mut cursor = datagram;
        let header = PublicHeader::decode(&mut cursor).unwrap();
        let (aad, sealed) = datagram.split_at(datagram.len() - cursor.len());
        let nonce = nonce_for(
            NonceMode::PathIdMixed,
            header.path_id.0,
            header.packet_number,
        );
        let plain = Aead::new(keys.client_to_server)
            .open(&nonce, aad, sealed)
            .unwrap();
        (header, nonce, plain)
    }

    /// Re-protects a client 1-RTT datagram as a Handshake-typed packet
    /// keyed to `cid`: same packet number and frames, sealed by a context
    /// built from scratch.
    fn as_handshake_straggler(keys: SessionKeys, datagram: &[u8], cid: u64) -> Vec<u8> {
        let (mut header, nonce, plain) = open_client_datagram(keys, datagram);
        header.connection_id = cid;
        header.packet_type = PacketType::Handshake;
        let mut out = Vec::new();
        header.encode(&mut out);
        let sealed = Aead::new(initial_key(cid)).seal(&nonce, &out, &plain);
        out.extend_from_slice(&sealed);
        out
    }

    /// The Handshake context is kept for one CID, and a rotation moves the
    /// connection off it: stragglers keyed to the retired CID and packets
    /// keyed to the fresh one must both still open.
    #[test]
    fn handshake_typed_stragglers_open_across_a_cid_rotation() {
        let mut client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        let old_cid = server.connection_id();
        let stream = client.open_stream();
        let body: Vec<u8> = (0..40_000usize).map(|i| (i % 251) as u8).collect();
        client
            .stream_write(stream, Bytes::from(body[..20_000].to_vec()))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        // Rotate mid-transfer and let the client adopt the new CID.
        server.rotate_cid();
        shuttle(&mut client, &mut server, SimTime::from_millis(3));
        let new_cid = server.connection_id();
        assert_ne!(new_cid, old_cid);
        assert_eq!(client.connection_id(), new_cid);
        // The rest of the transfer arrives Handshake-typed, alternating
        // between the retired CID and the current one.
        client
            .stream_write(stream, Bytes::from(body[20_000..].to_vec()))
            .unwrap();
        client.stream_finish(stream);
        let keys = server.session_keys.unwrap();
        let now = SimTime::from_millis(4);
        let mut rewritten = 0u64;
        for _ in 0..64 {
            let mut any = false;
            while let Some(t) = client.poll_transmit(now) {
                let cid = [old_cid, new_cid][(rewritten % 2) as usize];
                let straggler = as_handshake_straggler(keys, &t.payload, cid);
                assert_eq!(straggler.len(), t.payload.len());
                server.handle_datagram(now, t.remote, t.local, &straggler);
                rewritten += 1;
                any = true;
            }
            while let Some(t) = server.poll_transmit(now) {
                client.handle_datagram(now, t.remote, t.local, &t.payload);
                any = true;
            }
            if !any {
                break;
            }
        }
        assert!(rewritten >= 16, "only {rewritten} datagrams rewritten");
        assert_eq!(server.stats().decrypt_failures, 0);
        assert_eq!(server.stats().duplicate_packets, 0);
        let mut received = Vec::new();
        while let Some(chunk) = server.stream_read(stream, 1 << 16) {
            received.extend_from_slice(&chunk);
        }
        assert_eq!(received, body);
        assert!(server.stream_is_finished(stream));
        // A CID the connection never had still does not route here.
        let other = client.open_stream();
        client
            .stream_write(other, Bytes::from_static(b"x"))
            .unwrap();
        let t = client.poll_transmit(now).unwrap();
        let stray = as_handshake_straggler(keys, &t.payload, new_cid ^ 0x100);
        server.handle_datagram(now, t.remote, t.local, &stray);
        assert_eq!(server.stats().decrypt_failures, 1);
    }

    /// The two crates' tag-size constants are one number, and protecting a
    /// packet in place adds exactly that to header and payload.
    #[test]
    fn sealed_datagram_length_is_the_packets_wire_size() {
        assert_eq!(mpquic_crypto::TAG_SIZE, mpquic_wire::AEAD_TAG_SIZE);
        let mut client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        let keys = server.session_keys.unwrap();
        // Writes of every small size (one of them makes a 64-byte STREAM
        // packet), then one that fills datagrams.
        let mut sizes = std::collections::BTreeSet::new();
        for (round, len) in (1..=64usize).chain([8_000]).enumerate() {
            let now = SimTime::from_millis(2 + round as u64);
            let stream = client.open_stream();
            client
                .stream_write(stream, Bytes::from(vec![0xA5u8; len]))
                .unwrap();
            while let Some(t) = client.poll_transmit(now) {
                let (header, _, plain) = open_client_datagram(keys, &t.payload);
                let packet = Packet::from_parts(header, &plain).unwrap();
                assert_eq!(t.payload.len(), packet.wire_size());
                if packet.frames.iter().any(|f| matches!(f, Frame::Stream(_))) {
                    sizes.insert(t.payload.len());
                }
                server.handle_datagram(now, t.remote, t.local, &t.payload);
            }
            shuttle(&mut client, &mut server, now);
        }
        assert!(sizes.contains(&64), "{sizes:?}");
        assert!(sizes.contains(&mpquic_wire::MAX_DATAGRAM_SIZE), "{sizes:?}");
    }

    #[test]
    fn debug_output_carries_no_key_material() {
        let (client, _server) = established_pair(SimTime::from_millis(1));
        let shown = format!("{client:?}");
        assert!(shown.starts_with("Connection { role: Client, cid: "));
        assert!(!shown.contains("key") && !shown.contains("Aead"), "{shown}");
        assert_eq!(
            format!("{:?}", client.session_keys),
            "Some(SessionKeys { .. })"
        );
        assert_eq!(
            format!("{:?}", client.one_rtt_aead),
            "Some((Aead { key: .. }, Aead { key: .. }))"
        );
    }

    /// A multi-loop endpoint steers datagrams on the CID's low byte, so
    /// no rotation may ever change it.
    #[test]
    fn rotation_keeps_the_cid_low_byte() {
        let mut client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        let first = server.connection_id();
        let mut seen = std::collections::HashSet::from([first]);
        for i in 0..1_000u64 {
            server.rotate_cid();
            shuttle(&mut client, &mut server, SimTime::from_millis(2 + i));
            let cid = server.connection_id();
            assert_eq!(client.connection_id(), cid, "rotation {i} completed");
            assert!(seen.insert(cid), "rotation {i} reused CID {cid:#x}");
            assert_eq!(cid & 0xFF, first & 0xFF, "rotation {i} moved the low byte");
        }
    }

    #[test]
    fn validation_timeout_abandons_rebound_path() {
        let mut client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"x"))
            .unwrap();
        let rebound = addr("203.0.113.9:4242");
        while let Some(t) = client.poll_transmit(SimTime::from_millis(2)) {
            server.handle_datagram(SimTime::from_millis(2), t.remote, rebound, &t.payload);
        }
        assert_eq!(
            server.path(PathId::INITIAL).unwrap().state,
            PathState::Validating
        );
        // The rebound address black-holes everything: drop all server
        // output and fire its timers until the challenge budget runs out.
        let mut fired = 0;
        while server.path(PathId::INITIAL).unwrap().state == PathState::Validating {
            let at = server.next_timeout().expect("validation timer armed");
            server.on_timeout(at);
            while server.poll_transmit(at).is_some() {}
            fired += 1;
            assert!(fired < 64, "validation never resolved");
        }
        assert_eq!(
            server.path(PathId::INITIAL).unwrap().state,
            PathState::Closed
        );
        let mut ops = Vec::new();
        while let Some(op) = server.pop_path_op() {
            ops.push(op);
        }
        assert!(ops.contains(&PathOp::ValidationStarted));
        assert!(ops.contains(&PathOp::ValidationAbandoned));
    }

    #[test]
    fn quarantined_path_carries_no_data_while_sibling_keeps_flowing() {
        // Redundant scheduling guarantees both paths carry the client's
        // data, so the rebind on path 0 is always observed.
        let config = Config::builder()
            .scheduler(SchedulerKind::Redundant)
            .build()
            .unwrap();
        let mut client =
            Connection::client(config.clone(), vec![addr(C0), addr(C1)], 0, addr(S0), 1);
        let mut server = Connection::server(config, vec![addr(S0), addr(S1)], 2);
        for step in 1..4 {
            shuttle(&mut client, &mut server, SimTime::from_millis(step));
        }
        assert!(server.path_ids().contains(&PathId(1)));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"payload"))
            .unwrap();
        let rebound = addr("203.0.113.9:4242");
        while let Some(t) = client.poll_transmit(SimTime::from_millis(5)) {
            let src = if t.local == addr(C0) {
                rebound
            } else {
                t.local
            };
            server.handle_datagram(SimTime::from_millis(5), t.remote, src, &t.payload);
        }
        assert_eq!(
            server.path(PathId::INITIAL).unwrap().state,
            PathState::Validating
        );
        // The server responds while path 0 is quarantined: stream data
        // may only leave on path 1; path-0 datagrams are challenge/ACKs.
        server
            .stream_write(stream, Bytes::from_static(b"response"))
            .unwrap();
        let mut path1_stream_frames = 0;
        while let Some(t) = server.poll_transmit(SimTime::from_millis(6)) {
            let (path_id, frames) = server_frames(&server, &t.payload);
            let has_stream = frames.iter().any(|f| matches!(f, Frame::Stream(_)));
            if path_id == PathId::INITIAL {
                assert!(
                    !has_stream,
                    "stream data escaped onto the unvalidated path: {frames:?}"
                );
            } else if has_stream {
                path1_stream_frames += 1;
            }
            client.handle_datagram(SimTime::from_millis(6), t.remote, t.local, &t.payload);
        }
        assert!(
            path1_stream_frames > 0,
            "the healthy sibling path must keep carrying data"
        );
        assert_eq!(&client.stream_read(stream, 100).unwrap()[..], b"response");
    }

    #[test]
    fn rebind_mid_transfer_never_sends_data_unvalidated() {
        // DetRng-driven property: wherever the rebind lands in the
        // transfer, the server never puts stream data on the rebound
        // address until validation completes — and the transfer still
        // finishes afterwards.
        let mut seeds = DetRng::new(0x5EED_A617);
        for _case in 0..6u64 {
            let seed = seeds.next_u64();
            let mut case_rng = DetRng::new(seed);
            let rebind_step = case_rng.range_u64(4, 16);
            let mut client =
                Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), seed);
            let mut server = Connection::server(Config::single_path(), vec![addr(S0)], seed ^ 0xff);
            shuttle(&mut client, &mut server, SimTime::from_millis(1));
            let stream = client.open_stream();
            client
                .stream_write(stream, Bytes::from_static(b"want"))
                .unwrap();
            shuttle(&mut client, &mut server, SimTime::from_millis(2));
            assert_eq!(&server.stream_read(stream, 100).unwrap()[..], b"want");
            server
                .stream_write(stream, Bytes::from(vec![7u8; 40_000]))
                .unwrap();
            server.stream_finish(stream);
            let rebound = addr("198.51.100.7:9999");
            let mut rebound_active = false;
            let mut received = 0usize;
            for step in 3..200u64 {
                let now = SimTime::from_millis(step * 10);
                if step == rebind_step + 3 {
                    rebound_active = true;
                }
                for conn in [&mut client, &mut server] {
                    if conn.next_timeout().is_some_and(|t| t <= now) {
                        conn.on_timeout(now);
                    }
                }
                for _ in 0..8 {
                    let mut any = false;
                    while let Some(t) = client.poll_transmit(now) {
                        let src = if rebound_active && t.local == addr(C0) {
                            rebound
                        } else {
                            t.local
                        };
                        server.handle_datagram(now, t.remote, src, &t.payload);
                        any = true;
                    }
                    while let Some(t) = server.poll_transmit(now) {
                        if server.path(PathId::INITIAL).unwrap().state == PathState::Validating {
                            let (_, frames) = server_frames(&server, &t.payload);
                            assert!(
                                !frames.iter().any(|f| matches!(f, Frame::Stream(_))),
                                "seed {seed:#x}: stream data sent while path \
                                 unvalidated"
                            );
                        }
                        client.handle_datagram(now, t.remote, t.local, &t.payload);
                        any = true;
                    }
                    if !any {
                        break;
                    }
                }
                while let Some(chunk) = client.stream_read(stream, usize::MAX) {
                    received += chunk.len();
                }
                if client.stream_is_finished(stream) {
                    break;
                }
            }
            assert!(
                client.stream_is_finished(stream),
                "seed {seed:#x}: transfer did not complete after rebind"
            );
            assert_eq!(received, 40_000, "seed {seed:#x}: byte count");
            assert_eq!(
                server.path(PathId::INITIAL).unwrap().state,
                PathState::Active,
                "seed {seed:#x}: path re-validated"
            );
        }
    }

    #[test]
    fn shared_pn_space_ablation_still_transfers() {
        // The per-path vs single packet-number-space ablation: with one
        // shared counter, packet numbers interleave across paths but the
        // transfer must still complete (per-path sequences stay strictly
        // monotonic, so loss detection keeps working).
        let config = Config::builder().shared_pn_space(true).build().unwrap();
        let mut client =
            Connection::client(config.clone(), vec![addr(C0), addr(C1)], 0, addr(S0), 1);
        let mut server = Connection::server(config, vec![addr(S0), addr(S1)], 2);
        for step in 1..4 {
            shuttle(&mut client, &mut server, SimTime::from_millis(step));
        }
        assert!(server.path_ids().contains(&PathId(1)));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from(vec![9u8; 100_000]))
            .unwrap();
        client.stream_finish(stream);
        let mut got = 0usize;
        for step in 5..60u64 {
            shuttle(&mut client, &mut server, SimTime::from_millis(step));
            while let Some(chunk) = server.stream_read(stream, usize::MAX) {
                got += chunk.len();
            }
            if server.stream_is_finished(stream) {
                break;
            }
            let now = SimTime::from_millis(step);
            for conn in [&mut client, &mut server] {
                if conn.next_timeout().is_some_and(|t| t <= now) {
                    conn.on_timeout(now);
                }
            }
        }
        assert!(server.stream_is_finished(stream));
        assert_eq!(got, 100_000);
    }

    #[test]
    fn single_path_config_never_advertises_addresses() {
        let mut client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::single_path(), vec![addr(S0), addr(S1)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        assert!(client.is_established());
        assert_eq!(client.path_ids(), vec![PathId::INITIAL]);
        assert_eq!(server.path_ids(), vec![PathId::INITIAL]);
    }

    #[test]
    fn flow_control_violation_closes_connection() {
        let mut config = Config::multipath();
        config.stream_recv_window = 64; // tiny window on the receiver
        config.conn_recv_window = 1 << 20;
        let mut client = Connection::client(Config::multipath(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(config, vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        // The client believes the stream window is its own default (16 MB),
        // so it overruns the server's tiny 64-byte limit.
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from(vec![1u8; 4096]))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(
            server.is_closed(),
            "server must abort on flow-control violation"
        );
        assert!(client.is_closed(), "client learns about the abort");
        let events = drain(&mut client);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Closed { error_code, .. } if *error_code == error_codes::FLOW_CONTROL_ERROR
        )));
    }

    #[test]
    fn window_updates_are_duplicated_on_all_paths() {
        let mut config = Config::multipath();
        config.conn_recv_window = 64 << 10;
        config.stream_recv_window = 64 << 10;
        let mut client =
            Connection::client(config.clone(), vec![addr(C0), addr(C1)], 0, addr(S0), 1);
        let mut server = Connection::server(config, vec![addr(S0), addr(S1)], 2);
        // Establish + open paths.
        for step in 1..4 {
            shuttle(&mut client, &mut server, SimTime::from_millis(step));
        }
        assert!(server.path_ids().contains(&PathId(1)));
        // Push more than half the window and read it, forcing updates.
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from(vec![2u8; 48 << 10]))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(5));
        while server.stream_read(stream, usize::MAX).is_some() {}
        // Collect the server's outgoing packets and count WINDOW_UPDATE
        // carriers per path.
        let mut wu_paths = std::collections::HashSet::new();
        while let Some(t) = server.poll_transmit(SimTime::from_millis(6)) {
            let mut cursor = &t.payload[..];
            let header = PublicHeader::decode(&mut cursor).unwrap();
            let keys = server.session_keys.unwrap();
            let aead = Aead::new(keys.server_to_client);
            let nonce = nonce_for(
                NonceMode::PathIdMixed,
                header.path_id.0,
                header.packet_number,
            );
            let hdr_len = t.payload.len() - cursor.len();
            let plain = aead
                .open(&nonce, &t.payload[..hdr_len], &t.payload[hdr_len..])
                .unwrap();
            let frames = Frame::decode_all(&plain).unwrap();
            if frames
                .iter()
                .any(|f| matches!(f, Frame::WindowUpdate { .. }))
            {
                wu_paths.insert(header.path_id);
            }
            client.handle_datagram(SimTime::from_millis(6), t.remote, t.local, &t.payload);
        }
        assert!(
            wu_paths.len() >= 2,
            "WINDOW_UPDATE should ride every active path, saw {wu_paths:?}"
        );
    }

    #[test]
    fn handshake_packet_loss_recovers_via_rto() {
        let (mut client, mut server) = pair();
        // Drop the CHLO.
        let chlo = client.poll_transmit(SimTime::ZERO).expect("CHLO");
        assert!(client.poll_transmit(SimTime::ZERO).is_none());
        drop(chlo);
        // RTO fires and the CHLO is retransmitted.
        let rto_at = client.next_timeout().expect("rto armed");
        client.on_timeout(rto_at);
        let retx = client.poll_transmit(rto_at).expect("retransmitted CHLO");
        server.handle_datagram(rto_at, retx.remote, retx.local, &retx.payload);
        shuttle(&mut client, &mut server, rto_at);
        assert!(client.is_established());
        assert!(server.is_established());
    }

    #[test]
    fn writes_before_handshake_flow_after_it() {
        let (mut client, mut server) = pair();
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"early data"))
            .unwrap();
        client.stream_finish(stream);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        let mut got = Vec::new();
        while let Some(chunk) = server.stream_read(stream, usize::MAX) {
            got.extend_from_slice(&chunk);
        }
        assert_eq!(&got, b"early data");
        assert!(server.stream_is_finished(stream));
        // The final ACK may ride the delayed-ACK timer.
        for _ in 0..4 {
            if client.stream_fully_acked(stream) {
                break;
            }
            advance(&mut client, &mut server);
        }
        assert!(client.stream_fully_acked(stream));
    }

    #[test]
    fn close_path_reroutes_and_informs_peer() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(client.path_ids().contains(&PathId(1)));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from(vec![5u8; 200_000]))
            .unwrap();
        client.stream_finish(stream);
        // Move some data so both paths are warm, then close path 1.
        shuttle(&mut client, &mut server, SimTime::from_millis(3));
        client.close_path(PathId(1), SimTime::from_millis(4));
        assert_eq!(client.path(PathId(1)).unwrap().state, PathState::Closed);
        assert!(drain(&mut client)
            .iter()
            .any(|e| matches!(e, Event::PathClosed(p) if *p == PathId(1))));
        // Everything still completes, and no packet leaves on path 1.
        let mut sent_on_path1 = false;
        for step in 5..40u64 {
            while let Some(t) = client.poll_transmit(SimTime::from_millis(step)) {
                sent_on_path1 |= t.local == addr(C1);
                server.handle_datagram(SimTime::from_millis(step), t.remote, t.local, &t.payload);
            }
            while let Some(t) = server.poll_transmit(SimTime::from_millis(step)) {
                client.handle_datagram(SimTime::from_millis(step), t.remote, t.local, &t.payload);
            }
            while server.stream_read(stream, usize::MAX).is_some() {}
            if server.stream_is_finished(stream) {
                break;
            }
            if client
                .next_timeout()
                .is_some_and(|t| t <= SimTime::from_millis(step))
            {
                client.on_timeout(SimTime::from_millis(step));
            }
        }
        assert!(server.stream_is_finished(stream));
        assert!(!sent_on_path1, "closed path must carry nothing");
        // The peer learned about the closure via the PATHS frame.
        assert_eq!(
            server.path(PathId(1)).map(|p| p.state),
            Some(PathState::Closed)
        );
    }

    #[test]
    fn idle_timeout_closes_silently() {
        let mut config = Config::multipath();
        config.idle_timeout = Some(Duration::from_secs(5));
        let mut client = Connection::client(config, vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::multipath(), vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        assert!(client.is_established());
        // Fire timers until the idle deadline passes with no traffic.
        let mut guard = 0;
        while !client.is_closed() {
            let t = client.next_timeout().expect("idle timer armed");
            client.on_timeout(t);
            guard += 1;
            assert!(guard < 64, "idle timer never fired");
        }
        let events = drain(&mut client);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Closed { error_code, .. } if *error_code == error_codes::IDLE_TIMEOUT
        )));
        // Silent close: nothing was sent to the peer.
        assert!(client.poll_transmit(SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn connection_migration_is_a_hard_handover() {
        // Single-path QUIC moves its flow to a new local address: the
        // Path ID survives, congestion state resets, and the server
        // follows the address change.
        let mut client = Connection::client(
            Config::single_path(),
            vec![addr(C0), addr(C1)],
            0,
            addr(S0),
            1,
        );
        let mut server = Connection::server(Config::single_path(), vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from(vec![1u8; 50_000]))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        while server.stream_read(stream, usize::MAX).is_some() {}
        let cwnd_before = client.path(PathId::INITIAL).unwrap().cc.window();
        assert!(cwnd_before > 20_000, "window grew before migration");

        client.migrate_path(PathId::INITIAL, addr(C1), SimTime::from_millis(3));
        let path = client.path(PathId::INITIAL).unwrap();
        assert_eq!(path.local, addr(C1));
        assert!(path.cc.window() < cwnd_before, "congestion state reset");
        assert!(!path.rtt_known(), "RTT estimate reset");

        // Traffic continues from the new address; the server follows.
        client
            .stream_write(stream, Bytes::from(vec![2u8; 50_000]))
            .unwrap();
        client.stream_finish(stream);
        for step in 4..40u64 {
            shuttle(&mut client, &mut server, SimTime::from_millis(step));
            while server.stream_read(stream, usize::MAX).is_some() {}
            if server.stream_is_finished(stream) {
                break;
            }
            if [client.next_timeout(), server.next_timeout()]
                .into_iter()
                .flatten()
                .min()
                .is_some_and(|t| t <= SimTime::from_millis(step))
            {
                client.on_timeout(SimTime::from_millis(step));
                server.on_timeout(SimTime::from_millis(step));
            }
        }
        assert!(server.stream_is_finished(stream));
        assert_eq!(server.path(PathId::INITIAL).unwrap().remote, addr(C1));
    }

    #[test]
    fn version_negotiation_costs_one_extra_round_trip() {
        let mut config = Config::multipath();
        config.quic_version = 99; // a future version the server rejects
        let mut client = Connection::client(config, vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::multipath(), vec![addr(S0)], 2);
        // Round 1: CHLO(v99) -> version negotiation.
        let chlo = client.poll_transmit(SimTime::ZERO).expect("CHLO");
        server.handle_datagram(
            SimTime::from_millis(10),
            chlo.remote,
            chlo.local,
            &chlo.payload,
        );
        assert!(!server.is_established(), "v99 must be rejected");
        let vneg = server
            .poll_transmit(SimTime::from_millis(10))
            .expect("VN packet");
        client.handle_datagram(
            SimTime::from_millis(20),
            vneg.remote,
            vneg.local,
            &vneg.payload,
        );
        assert!(!client.is_established());
        // Round 2: CHLO(v1) -> SHLO; both complete.
        shuttle(&mut client, &mut server, SimTime::from_millis(20));
        assert!(client.is_established());
        assert!(server.is_established());
        // And data flows.
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"post-negotiation"))
            .unwrap();
        client.stream_finish(stream);
        shuttle(&mut client, &mut server, SimTime::from_millis(30));
        let mut got = Vec::new();
        while let Some(chunk) = server.stream_read(stream, usize::MAX) {
            got.extend_from_slice(&chunk);
        }
        assert_eq!(&got, b"post-negotiation");
    }

    use mpquic_crypto::NonceMode;
    use std::time::Duration;
}
