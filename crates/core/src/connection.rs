//! The Multipath QUIC connection: the paper's design, assembled.
//!
//! A [`Connection`] is a sans-IO state machine (see the crate docs): the
//! caller feeds incoming datagrams ([`Connection::handle_datagram`]) and
//! the clock ([`Connection::on_timeout`]), and drains outgoing datagrams
//! ([`Connection::poll_transmit`]). Applications read the connection's
//! state (streams, paths, [`Connection::close_reason`]); observers install
//! a telemetry subscriber stack ([`Connection::set_subscriber`]).
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
//!
//! The connection assembles four parts: the handshake and its keys
//! (`Handshake`), the paths (`PathManager`), the streams (`StreamSet`),
//! and a frame's three fates (the `dispatch` submodule).

use bytes::Bytes;
use mpquic_crypto::Aead;
use mpquic_util::{Datagram, DetRng, SimTime};
use mpquic_wire::{
    Frame, PacketBuilder, PacketType, PathId, PathInfo, PublicHeader, MAX_DATAGRAM_SIZE,
};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::ops::Bound;

use mpquic_telemetry::{self as telemetry, Subscriber};

use crate::buffer::{DatagramSink, TransmitQueue};
use crate::config::{Config, ConnStats, Role};
use crate::handshake::{self, Handshake};
use crate::invariant::InvariantChecker;
pub use crate::path::PathOp;
use crate::path::{ack_carrier, Path, PathManager, PathState};
use crate::recovery::SentPacket;
use crate::scheduler::{self, SchedulerReason};
use crate::stream::{StreamError, StreamId, StreamSet};
use scratch::Scratch;

mod dispatch;
mod scratch;

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
    /// Connection-wide packet-number counter, used instead of the
    /// per-path counters when `Config::shared_pn_space` is set (the
    /// paper's single-space ablation).
    shared_pn: u64,

    /// The handshake, its crypto frames and the packet-protection
    /// contexts it keys.
    handshake: Handshake,
    /// Paths, their addressing, validation and connection IDs, and the
    /// frames bound to one path.
    paths: PathManager,

    /// Streams and connection flow control (path-independent).
    streams: StreamSet,

    // --- frame queues ---
    /// Path-agnostic control frames (sendable anywhere).
    control_queue: VecDeque<Frame>,
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
    close: Close,
    stats: ConnStats,
    /// Runtime protocol invariants (zero-sized no-op in plain release
    /// builds; see [`crate::invariant`]).
    invariants: InvariantChecker,
    /// Reusable buffers of ingress, ACKs and WINDOW_UPDATEs.
    scratch: Scratch,
}

/// How far a connection is through its close. The first close wins: a
/// later one, local or the peer's, keeps the reason already given.
enum Close {
    Open,
    /// A local close whose CONNECTION_CLOSE has not been sent yet.
    Closing(u64, String),
    /// Closed: the close was sent or received, or the idle timer fired.
    Closed(u64, String),
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("role", &self.role)
            .field("cid", &self.paths.cid())
            .field("handshake_complete", &self.handshake.is_complete())
            .field("paths", &self.path_ids())
            .field("closed", &self.is_closed())
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
        let local = local_addrs[initial_local_index];
        let mut conn = Connection::new_common(Role::Client, config, cid, local_addrs, rng);
        let (id, events) = (PathId::INITIAL, &mut *conn.subscriber);
        conn.invariants.check_path_ownership(Role::Client, id, true);
        conn.paths
            .create(SimTime::ZERO, id, local, remote_addr, events);
        conn
    }

    /// Creates a server connection that will accept the first incoming
    /// datagram as its initial path.
    pub fn server(config: Config, local_addrs: Vec<SocketAddr>, seed: u64) -> Connection {
        assert!(
            !local_addrs.is_empty(),
            "at least one local address required"
        );
        Connection::new_common(Role::Server, config, 0, local_addrs, DetRng::new(seed))
    }

    fn new_common(
        role: Role,
        config: Config,
        cid: u64,
        local_addrs: Vec<SocketAddr>,
        mut rng: DetRng,
    ) -> Connection {
        Connection {
            role,
            shared_pn: 0,
            subscriber: Box::new(()),
            handshake: Handshake::new(role, cid, &mut rng, config.quic_version),
            paths: PathManager::new(role, &config, cid, local_addrs, rng),
            streams: StreamSet::new(role, &config),
            control_queue: VecDeque::new(),
            duplicate_queue: BTreeMap::new(),
            last_activity: None,
            close: Close::Open,
            stats: ConnStats::default(),
            invariants: InvariantChecker::new(),
            scratch: Scratch::default(),
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
        self.paths.cid()
    }

    /// True once the secure handshake finished.
    pub fn is_established(&self) -> bool {
        self.handshake.is_complete()
    }

    /// True once the connection is closed (either side).
    pub fn is_closed(&self) -> bool {
        matches!(self.close, Close::Closed(..))
    }

    /// True while a transfer is in flight, so that the peer owes this
    /// side its next datagram within about an RTT: the handshake is not
    /// complete, a send half holds data or a FIN not yet on the wire
    /// (whatever holds it back), or a receive half has not yet received
    /// everything up to its FIN. False once the connection is closed.
    pub fn is_transferring(&self) -> bool {
        !self.is_closed() && (!self.is_established() || self.streams.is_transferring())
    }

    /// Statistics counters.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// The local addresses this connection may send from (one per
    /// interface). A real-socket driver binds one socket per entry.
    pub fn local_addrs(&self) -> &[SocketAddr] {
        self.paths.local_addrs()
    }

    /// IDs of the currently known paths.
    pub fn path_ids(&self) -> Vec<PathId> {
        self.paths.iter().map(|p| p.id).collect()
    }

    /// Read-only view of a path (tests and experiment instrumentation).
    pub fn path(&self, id: PathId) -> Option<&Path> {
        self.paths.get(id)
    }

    /// Most recent PATHS frame contents received from the peer.
    pub fn peer_paths(&self) -> &[PathInfo] {
        self.paths.peer_paths()
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

    // ------------------------------------------------------------------
    // Stream API
    // ------------------------------------------------------------------

    /// Opens a new bidirectional stream and returns its ID.
    pub fn open_stream(&mut self) -> StreamId {
        self.streams.open()
    }

    /// Appends data to a stream's send buffer. A send half that was
    /// finished and has since been fully acknowledged and retired
    /// answers [`StreamError::WriteAfterFinish`], as it did while live.
    ///
    /// # Panics
    /// Panics if the stream was never opened (open streams with
    /// [`Connection::open_stream`]).
    pub fn stream_write(&mut self, id: StreamId, data: Bytes) -> Result<(), StreamError> {
        self.streams.write(id, data)
    }

    /// Marks a stream finished at its current write offset; a no-op on a
    /// retired send half, which was finished already.
    ///
    /// # Panics
    /// Panics if the stream was never opened.
    pub fn stream_finish(&mut self, id: StreamId) {
        self.streams.finish(id)
    }

    /// Reads up to `max` in-order bytes from a stream without copying:
    /// `f` gets them borrowed from the stream's reassembly ring, and its
    /// result is returned. One call hands over one contiguous run, so a
    /// reader loops until `None` (nothing readable) to drain the stream.
    pub fn stream_read_with<R>(
        &mut self,
        id: StreamId,
        max: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let read = self.streams.read_with(id, max, f);
        self.streams.check_invariants(&self.invariants);
        read
    }

    /// Reads up to `max` in-order bytes from a stream into a copy, for
    /// callers that keep the bytes; [`Connection::stream_read_with`]
    /// reads them borrowed.
    pub fn stream_read(&mut self, id: StreamId, max: usize) -> Option<Bytes> {
        self.stream_read_with(id, max, Bytes::copy_from_slice)
    }

    /// True once the peer's FIN and all stream data have been read (or
    /// the peer reset the stream); stays true after the half retires.
    pub fn stream_is_finished(&self, id: StreamId) -> bool {
        self.streams.is_finished(id)
    }

    /// True once everything written (and the FIN) was acknowledged;
    /// stays true after the half retires.
    pub fn stream_fully_acked(&self, id: StreamId) -> bool {
        self.streams.is_fully_acked(id)
    }

    /// Takes the next stream the peer opened, in the order their first
    /// frames arrived. Each peer-opened stream is handed out once; the
    /// queue is filled where such a stream is created.
    pub fn accept_stream(&mut self) -> Option<StreamId> {
        self.streams.accept()
    }

    /// Live stream halves `(send, receive)`. A half leaves once it is
    /// done, so this follows the exchanges in flight, not how many the
    /// connection has carried.
    pub fn live_streams(&self) -> (usize, usize) {
        self.streams.live()
    }

    /// Begins a clean or error close.
    pub fn close(&mut self, error_code: u64, reason: &str) {
        if let Close::Open = self.close {
            self.close = Close::Closing(error_code, reason.to_string());
        }
    }

    /// Closes the connection at once, with `(error_code, reason)` unless
    /// a local close gave its reason first.
    fn conclude(&mut self, error_code: u64, reason: String) {
        self.close = match std::mem::replace(&mut self.close, Close::Open) {
            Close::Open => Close::Closed(error_code, reason),
            Close::Closing(code, given) | Close::Closed(code, given) => Close::Closed(code, given),
        };
    }

    /// The error code and reason the connection closed (or is closing)
    /// with, whichever side closed it: a local [`Connection::close`], the
    /// peer's CONNECTION_CLOSE, or the idle timer
    /// ([`error_codes::IDLE_TIMEOUT`]). The first close wins.
    pub fn close_reason(&self) -> Option<(u64, &str)> {
        match &self.close {
            Close::Open => None,
            Close::Closing(code, reason) | Close::Closed(code, reason) => Some((*code, reason)),
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
        if self.is_closed() {
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
        let unadopted = self.role == Role::Server && self.paths.cid() == 0;
        if !unadopted && !self.paths.routes(header.connection_id) {
            self.stats.decrypt_failures += 1;
            return;
        }
        let (own_cid, cid) = (self.paths.cid(), header.connection_id);
        let aead = self.handshake.opener(header.packet_type, cid, own_cid);
        let nonce = handshake::nonce(header.path_id, header.packet_number);
        let (aad, sealed) = data.split_at(header_len);
        if !aead.is_some_and(|aead| self.scratch.open(&aead, &nonce, aad, sealed)) {
            self.stats.decrypt_failures += 1;
            return;
        }
        if unadopted {
            self.paths.adopt_first_cid(header.connection_id);
        }

        // Locate or create the path (peer-opened paths carry data in
        // their first packet; no handshake needed), or follow its remote
        // address.
        let (id, events) = (header.path_id, &mut *self.subscriber);
        if self.paths.get(id).is_none() {
            // The client opens path 0 and odd IDs, the server even ones.
            if id.client_initiated() != (self.role == Role::Server) {
                return;
            }
            self.invariants.check_path_ownership(self.role, id, false);
            self.paths.create(now, id, local, remote, events);
        } else {
            let validate = self.handshake.is_complete();
            self.paths.follow_remote(now, id, remote, validate, events);
        }
        self.paths.check_invariants(&self.invariants);

        let ack_eliciting = self.scratch.frames.iter().any(Frame::is_retransmittable);
        {
            let path = self.paths.get_mut(header.path_id).expect("just ensured");
            if !path.on_packet_received(header.packet_number, now, ack_eliciting) {
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

        let mut frames = std::mem::take(&mut self.scratch.frames);
        let plaintext = std::mem::take(&mut self.scratch.open);
        for frame in frames.drain(..) {
            self.handle_frame(now, header.path_id, frame, &plaintext);
            if self.is_closed() {
                break;
            }
        }
        self.scratch.frames = frames;
        self.scratch.open = plaintext;
        self.paths.check_invariants(&self.invariants);
        if self.is_closed() {
            return;
        }
        if self.paths.take_new_addresses() {
            let events = &mut *self.subscriber;
            self.paths.open_paths(now, &self.invariants, events);
        }
        self.streams.check_invariants(&self.invariants);
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
        if self.is_established() && !self.is_closed() {
            self.paths.rotate_cid(&mut self.control_queue);
        }
    }

    /// Drains the next demux-facing path operation. Endpoints call this
    /// after processing a connection so their demux table follows CID
    /// rotations without dropping a datagram; drivers without a demux may
    /// drain and discard.
    pub fn pop_path_op(&mut self) -> Option<PathOp> {
        self.paths.pop_op()
    }

    // ------------------------------------------------------------------
    // Path management
    // ------------------------------------------------------------------

    /// Migrates a path to a new local address — QUIC's *connection
    /// migration*, which the paper's introduction contrasts with
    /// multipath: "QUIC connection migration allows moving a flow from
    /// one address to another. This is a form of hard handover."
    ///
    /// Path identity (Path ID, packet-number spaces) is preserved, but
    /// the congestion and RTT state is reset: the new network's
    /// characteristics are unknown (RFC 9000 §9.4 semantics). A path
    /// being validated stays so until its challenge, now sent from the
    /// new address, is answered. The peer learns the new address from the
    /// packets themselves, as from a NAT rebinding.
    pub fn migrate_path(&mut self, id: PathId, new_local: SocketAddr, now: SimTime) {
        if self
            .paths
            .migrate(now, id, new_local, &mut *self.subscriber)
        {
            // What went out on the old network is retransmitted on the new.
            self.leave_service(now, id);
            // Probe the new network immediately.
            self.paths.bind(id, Frame::Ping);
        }
    }

    /// A path leaves the service it gave (its validation failed, or it
    /// moved to another local address): what it has in flight and its
    /// queued duplicates are resent on any path. Its bound frames stay:
    /// a migrated path sends them from its new address, and a closed
    /// one's strand at the next packet (step 3 of `poll_transmit_into`).
    fn leave_service(&mut self, now: SimTime, id: PathId) {
        let path = self.paths.get_mut(id);
        let surrendered = path.map(|p| p.recovery.surrender_all());
        self.requeue_lost_frames(now, id, surrendered.unwrap_or_default());
        for frame in self.duplicate_queue.remove(&id).unwrap_or_default() {
            if let Frame::Stream(f) = frame {
                self.streams.on_lost(f);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest instant at which [`Connection::on_timeout`] (or a
    /// transmission) is needed. Once `on_timeout(now)` has run and the
    /// connection was polled until it had nothing to send, this is `None`
    /// or later than `now`. A due delayed-ACK deadline clears only when
    /// the connection is polled: `ShardCore` and `Driver` poll after
    /// every `on_timeout`.
    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.is_closed() {
            return None;
        }
        let idle = self.config.idle_timeout.zip(self.last_activity);
        self.paths
            .next_timeout(idle.map(|(idle, last)| last + idle))
    }

    /// Fires expired timers: loss detection, RTOs, and probe scheduling.
    /// Delayed ACKs flush through the next [`Connection::poll_transmit`].
    pub fn on_timeout(&mut self, now: SimTime) {
        if self.is_closed() {
            return;
        }
        if let (Some(idle), Some(last)) = (self.config.idle_timeout, self.last_activity) {
            if now.saturating_duration_since(last) >= idle {
                // Idle connections close silently (no CONNECTION_CLOSE:
                // the peer is unreachable or gone anyway).
                self.conclude(error_codes::IDLE_TIMEOUT, "idle timeout".to_string());
                return;
            }
        }
        let mut after = Bound::Unbounded;
        let due = |p: &Path| {
            let timer = p.recovery.next_timeout(&p.rtt);
            timer.is_some_and(|(at, _)| at <= now)
        };
        while let Some(id) = self.paths.next(after, due) {
            after = Bound::Excluded(id);
            let Some(path) = self.paths.get_mut(id) else {
                break;
            };
            let was_active = path.state == PathState::Active;
            let outcome = path.recovery.on_timeout(now, &path.rtt);
            if outcome.rto_fired {
                path.cc.on_rto(now);
                self.stats.rtos += 1;
                self.emit(telemetry::Event::Rto(telemetry::Rto {
                    time: now,
                    path: id,
                }));
                self.paths.on_rto(now, id, &mut *self.subscriber);
                // Tell the peer which path failed so it does not have to
                // discover it through its own RTO (Fig. 11).
                self.paths.queue_paths_frame(&mut self.control_queue);
                if was_active && self.paths.count() > 1 {
                    let to_path = self.paths.handover_target(id, self.is_established());
                    self.emit(telemetry::Event::Handover(telemetry::Handover {
                        time: now,
                        from_path: id,
                        to_path,
                    }));
                }
            } else if outcome.congestion_event {
                path.cc.on_congestion_event(now);
                self.stats.congestion_events += 1;
            }
            if !outcome.lost_frames.is_empty() {
                self.requeue_lost_frames(now, id, outcome.lost_frames);
            }
        }
        // Path-validation timers: a challenge is resent or its path abandoned.
        let mut after = Bound::Unbounded;
        while let Some(id) = self.paths.next_failed_challenge(now, after) {
            after = Bound::Excluded(id);
            self.abandon_path(now, id);
        }
        self.paths.check_invariants(&self.invariants);
    }

    /// Closes a path, which leaves service; the peer hears of it through PATHS.
    fn abandon_path(&mut self, now: SimTime, id: PathId) {
        self.paths
            .transition(now, id, PathState::Closed, &mut *self.subscriber);
        self.leave_service(now, id);
        self.paths.queue_paths_frame(&mut self.control_queue);
    }

    // ------------------------------------------------------------------
    // Egress
    // ------------------------------------------------------------------

    /// Produces the next outgoing datagram, if any. Call repeatedly until
    /// it returns `None`.
    ///
    /// The one-datagram API of [`mpquic_util::Endpoint`], which the
    /// simulator speaks: each call allocates its own payload. Hot loops
    /// should prefer [`Connection::poll_transmit_batch`], which seals
    /// datagrams straight into pool-backed GSO trains. Both sit on the
    /// same packet assembler and produce the same bytes.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
        let mut payload = Vec::new();
        let (local, remote) = self.poll_transmit_into(now, &mut payload)?;
        Some(Datagram {
            local,
            remote,
            payload,
        })
    }

    /// Fills `queue` with as many datagrams as the congestion window,
    /// the scheduler and the queue's capacity allow. Each datagram is
    /// encoded and sealed once, at its final offset in the newest GSO
    /// train of its path (see [`crate::Transmit::segment_size`]), or opens the
    /// next train of its path when it cannot join that one. Returns the
    /// number of wire datagrams produced.
    pub fn poll_transmit_batch(&mut self, now: SimTime, queue: &mut TransmitQueue) -> usize {
        let mut produced = 0;
        while queue.has_capacity() && self.poll_transmit_into(now, queue).is_some() {
            produced += 1;
        }
        produced
    }

    /// Builds the next outgoing datagram into the buffer `out` names
    /// for it and returns its `(local, remote)` addressing, or `None`
    /// when there is nothing to send.
    fn poll_transmit_into(
        &mut self,
        now: SimTime,
        out: &mut dyn DatagramSink,
    ) -> Option<(SocketAddr, SocketAddr)> {
        // 0. A pending CONNECTION_CLOSE goes out once; a closed
        // connection, whichever side closed it, is silent.
        match &mut self.close {
            Close::Open => {}
            Close::Closed(..) => return None,
            Close::Closing(error_code, reason) => {
                let (error_code, reason) = (*error_code, std::mem::take(reason));
                let frame = Frame::ConnectionClose {
                    error_code,
                    reason: reason.clone(),
                };
                let path_id = self
                    .paths
                    .iter()
                    .find(|p| p.state == PathState::Active)
                    .or_else(|| self.paths.iter().next())
                    .map(|p| p.id);
                let packet_type = self.handshake.keyed_packet_type();
                let sent = path_id.and_then(|id| {
                    self.assemble(now, id, packet_type, out, |_, builder| {
                        builder.try_push(frame);
                        true
                    })
                });
                self.close = Close::Closed(error_code, reason);
                return sent;
            }
        }
        // 1. Generate window updates (duplicated on all paths).
        self.flush_window_updates(now);
        // 2. Handshake packets (initial path, initial keys).
        if !self.handshake.queue().is_empty() && self.paths.get(PathId::INITIAL).is_some() {
            let sent = self.assemble(
                now,
                PathId::INITIAL,
                PacketType::Handshake,
                out,
                |conn, builder| {
                    fill_from(conn.handshake.queue(), builder);
                    true
                },
            );
            if sent.is_some() {
                return sent;
            }
        }
        // 3. Path-bound frames (window-update duplicates, probes,
        // challenges and responses); those stranded reroute.
        self.paths.strand(&mut self.control_queue);
        if let Some(id) = self.paths.next_bound() {
            let sent = self.assemble(now, id, PacketType::OneRtt, out, |conn, builder| {
                if let Some(queue) = conn.paths.bound_mut(id) {
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
        if self.is_established() {
            if let Some(t) = self.emit_data(now, out) {
                return Some(t);
            }
        }
        // 5. Due ACKs that found no ride, each on a packet of the path the
        // ACK-placement rule gives it. The assembler's own ACK pass is the
        // whole packet (and an empty one is never sealed).
        let mut after = Bound::Unbounded;
        while let Some(due_path) = self.paths.next(after, |p| p.ack_due(now)) {
            after = Bound::Excluded(due_path);
            let send_on = self.paths.due_ack_carrier(due_path);
            let packet_type = self.handshake.keyed_packet_type();
            let sent = self.assemble(now, send_on, packet_type, out, |_, _| true);
            if sent.is_some() {
                return sent;
            }
        }
        // 6. Probes of potentially-failed paths.
        let id = self.paths.take_due_probe(now)?;
        self.assemble(now, id, PacketType::OneRtt, out, |_, builder| {
            builder.try_push(Frame::Ping);
            true
        })
    }

    fn flush_window_updates(&mut self, now: SimTime) {
        let mut updates = std::mem::take(&mut self.scratch.window_updates);
        updates.clear();
        self.streams.poll_window_updates(&mut updates);
        if updates.is_empty() {
            self.scratch.window_updates = updates;
            return;
        }
        if self.config.duplicate_window_updates && self.config.multipath {
            // The paper's rule: WINDOW_UPDATE goes out on *all* paths.
            self.paths.bind_to_active(&updates);
            if self.telemetry_enabled() {
                let active = self.paths.iter().filter(|p| p.state == PathState::Active);
                let active: Vec<PathId> = active.map(|p| p.id).collect();
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
            self.control_queue.extend(updates.drain(..));
        }
        self.scratch.window_updates = updates;
    }

    fn provisional_header(&self, path_id: PathId, packet_type: PacketType) -> PublicHeader {
        let packet_number = if self.config.shared_pn_space {
            self.shared_pn
        } else {
            self.paths
                .get(path_id)
                .map(|p| p.recovery.next_pn_peek())
                .unwrap_or(0)
        };
        PublicHeader {
            connection_id: self.paths.cid(),
            path_id,
            packet_number,
            packet_type,
        }
    }

    /// Adds the pending ACK frames the ACK-placement rule puts on a packet
    /// for `packet_path`.
    fn push_acks(&mut self, now: SimTime, builder: &mut PacketBuilder, packet_path: PathId) {
        let best = self.paths.fastest(PathState::Active);
        let rides = |p: &Path| ack_carrier(p, best).unwrap_or(packet_path) == packet_path;
        let mut after = Bound::Unbounded;
        while let Some(id) = self.paths.next(after, |p| p.ack_pending && rides(p)) {
            after = Bound::Excluded(id);
            let ranges = self.scratch.ack_ranges();
            let ack = self
                .paths
                .get(id)
                .and_then(|path| path.peek_ack_frame(now, self.config.max_ack_ranges, ranges));
            let Some(ack) = ack else {
                continue;
            };
            self.invariants.check_ack_frame(&ack, "built");
            if ack.wire_size() > builder.remaining() {
                self.scratch.recycle_ack_ranges(ack.ranges);
                continue;
            }
            let largest_acked = ack.largest_acked;
            builder.try_push(Frame::Ack(ack));
            if let Some(path) = self.paths.get_mut(id) {
                path.note_ack_sent();
            }
            self.emit(telemetry::Event::AckSent(telemetry::AckSent {
                time: now,
                on_path: packet_path,
                acks_path: id,
                largest_acked,
            }));
        }
    }

    /// Seals a finished builder into the buffer `out` names for it and
    /// records the packet with recovery and congestion control. Returns
    /// the datagram's `(local, remote)` addressing.
    ///
    /// The packet's size and path are known before a byte is written, so
    /// the sink picks the buffer up front — the tail of its path's newest
    /// train, or the next train — and the packet is encoded straight there and
    /// protected in place: header as associated data, payload encrypted
    /// where it lies, tag appended. A warm egress path neither allocates
    /// nor copies the payload, here or after.
    fn finalize(
        &mut self,
        now: SimTime,
        builder: PacketBuilder,
        path_id: PathId,
        aead: &Aead,
        out: &mut dyn DatagramSink,
    ) -> Option<(SocketAddr, SocketAddr)> {
        if builder.is_empty() {
            let path = self.paths.get_mut(path_id);
            self.scratch.recycle_frames(path, builder.into_frames());
            return None;
        }
        let packet = builder.finish()?;
        let ack_eliciting = packet.is_ack_eliciting();
        let nonce = handshake::nonce(path_id, packet.header.packet_number);
        let (local, remote) = self
            .paths
            .get(path_id)
            .map(|path| (path.local, path.remote))
            .expect("path exists");
        let size = packet.wire_size();
        let out = out.buffer_for(local, remote, size);
        let start = out.len();
        packet.header.encode(out);
        let header_len = out.len() - start;
        for frame in &packet.frames {
            frame.encode(out);
        }
        let (aad, payload) = out[start..].split_at_mut(header_len);
        let tag = aead.seal_in_place(&nonce, aad, payload);
        out.extend_from_slice(&tag);
        debug_assert_eq!(out.len() - start, size, "sealed size is the wire size");
        let wire_len = size as u64;
        let mut frames = packet.frames;
        self.scratch.keep_retransmittable(&mut frames);

        let path = self.paths.get_mut(path_id).expect("path exists");
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
                frames,
            });
            path.cc.on_packet_sent(now, wire_len);
        } else {
            path.recovery.recycle_frame_vec(frames);
        }
        self.invariants.on_packet_sent(path_id, pn, &path.recovery);
        path.bytes_sent += wire_len;
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
        out: &mut dyn DatagramSink,
        source: impl FnOnce(&mut Connection, &mut PacketBuilder) -> bool,
    ) -> Option<(SocketAddr, SocketAddr)> {
        // No keys for this packet type yet: touch nothing.
        let aead = self.handshake.sealer(packet_type, self.paths.cid())?;
        let header = self.provisional_header(path_id, packet_type);
        let frames = self
            .paths
            .get_mut(path_id)
            .map(|p| p.recovery.take_frame_vec())
            .unwrap_or_default();
        let mut builder = PacketBuilder::reusing(header, MAX_DATAGRAM_SIZE, frames);
        self.push_acks(now, &mut builder, path_id);
        if !source(self, &mut builder) {
            let path = self.paths.get_mut(path_id);
            self.scratch.recycle_frames(path, builder.into_frames());
            return None;
        }
        self.finalize(now, builder, path_id, &aead, out)
    }

    fn emit_data(
        &mut self,
        now: SimTime,
        out: &mut dyn DatagramSink,
    ) -> Option<(SocketAddr, SocketAddr)> {
        // Does anyone want to send?
        let has_dup = self.duplicate_queue.values().any(|q| !q.is_empty());
        let has_stream_data = self.streams.wants_to_send();
        let has_control = !self.control_queue.is_empty();
        if !has_dup && !has_stream_data && !has_control {
            return None;
        }
        let views = self.paths.refresh_views(self.handshake.is_complete());
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
                    v.id == *id && v.usable && v.cwnd_available >= MAX_DATAGRAM_SIZE as u64
                })
            });
        let decision = if let Some(id) = dup_path {
            scheduler::Decision {
                path: id,
                duplicate_on: None,
                reason: SchedulerReason::DuplicateQueue,
            }
        } else {
            scheduler::select_for_data(
                views,
                MAX_DATAGRAM_SIZE as u64,
                self.config.duplicate_unknown_rtt,
            )?
        };
        let transmit = self.assemble(
            now,
            decision.path,
            PacketType::OneRtt,
            out,
            |conn, builder| {
                conn.fill_data(builder, decision.path, decision.duplicate_on);
                builder.has_retransmittable()
            },
        );
        // Record the decision only for packets that actually left, so the
        // scheduler-share statistic matches bytes on the wire.
        if transmit.is_some() && self.telemetry_enabled() {
            let min_space = MAX_DATAGRAM_SIZE as u64;
            let candidates: Vec<PathId> = self
                .paths
                .views()
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
    /// (copied toward the `duplicate_on` path as it is packed).
    fn fill_data(
        &mut self,
        builder: &mut PacketBuilder,
        path_id: PathId,
        duplicate_on: Option<PathId>,
    ) {
        // Path-agnostic control frames ride along.
        fill_from(&mut self.control_queue, builder);
        // Duplicated stream frames targeted at this path.
        if let Some(queue) = self.duplicate_queue.get_mut(&path_id) {
            fill_from(queue, builder);
        }
        // Fresh stream data, each frame copied toward `duplicate_on`.
        let (duplicates, stats) = (&mut self.duplicate_queue, &mut self.stats);
        self.streams.fill(builder, |frame| {
            if let Some(target) = duplicate_on {
                duplicates
                    .entry(target)
                    .or_default()
                    .push_back(Frame::Stream(frame.clone()));
                stats.duplicated_stream_frames += 1;
            }
        });
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
    use mpquic_crypto::{handshake::initial_key, nonce_for, NonceMode, SessionKeys};
    use mpquic_wire::{Packet, StreamFrame};

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
        let (client, server) = established_pair(SimTime::from_millis(1));
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
    fn peer_opened_stream_creates_both_halves_and_is_accepted() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"hi"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert_eq!(server.accept_stream(), Some(stream));
        assert_eq!(server.accept_stream(), None, "accepted once");
        assert_eq!(&server.stream_read(stream, 10).unwrap()[..], b"hi");
        // The server can answer on the same stream.
        server
            .stream_write(stream, Bytes::from_static(b"yo"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(3));
        assert_eq!(&client.stream_read(stream, 10).unwrap()[..], b"yo");
    }

    #[test]
    fn transferring_while_the_peer_owes_the_next_datagram() {
        let (mut client, mut server) = pair();
        assert!(server.is_transferring(), "handshake under way");
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        assert!(!server.is_transferring(), "established, nothing open");
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"req"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(server.is_transferring(), "a request short of its FIN");
        client.stream_finish(stream);
        shuttle(&mut client, &mut server, SimTime::from_millis(3));
        assert!(!server.is_transferring(), "the request is in");
        server
            .stream_write(stream, Bytes::from_static(b"answer"))
            .unwrap();
        server.stream_finish(stream);
        assert!(server.is_transferring(), "the answer is not on the wire");
        shuttle(&mut client, &mut server, SimTime::from_millis(4));
        assert!(!server.is_transferring(), "the answer is out");
        let held = client.open_stream();
        client
            .stream_write(held, Bytes::from_static(b"more"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(5));
        assert!(server.is_transferring());
        server.close(0, "done");
        shuttle(&mut client, &mut server, SimTime::from_millis(6));
        assert!(
            !server.is_transferring(),
            "a closed connection is owed nothing"
        );
    }

    #[test]
    fn peer_cannot_open_a_stream_of_ours() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        // A client that picks the server's parity.
        client.streams = StreamSet::new(Role::Server, &Config::multipath());
        let stream = client.open_stream();
        assert_eq!(stream, 2);
        client
            .stream_write(stream, Bytes::from_static(b"hi"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(server.is_closed());
        assert_eq!(server.live_streams(), (0, 0), "no stream table entry");
        assert_eq!(server.accept_stream(), None);
        assert!(client.is_closed());
        assert_eq!(
            client.close_reason().map(|(code, _)| code),
            Some(error_codes::STREAM_STATE_ERROR)
        );
    }

    /// Client stream `stream` with `body` written, finished and acked.
    fn acked_stream(client: &mut Connection, server: &mut Connection, body: &'static [u8]) -> u64 {
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(body))
            .unwrap();
        client.stream_finish(stream);
        shuttle(client, server, SimTime::from_millis(2));
        for _ in 0..4 {
            if client.stream_fully_acked(stream) {
                break;
            }
            advance(client, server);
        }
        assert!(client.stream_fully_acked(stream));
        stream
    }

    #[test]
    fn writing_to_a_retired_stream_fails_as_after_finish() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = acked_stream(&mut client, &mut server, b"request");
        assert_eq!(client.live_streams().0, 0, "send half retired");
        assert_eq!(
            client.stream_write(stream, Bytes::from_static(b"more")),
            Err(crate::stream::StreamError::WriteAfterFinish)
        );
    }

    #[test]
    fn finishing_a_retired_stream_is_a_no_op() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let stream = acked_stream(&mut client, &mut server, b"request");
        client.stream_finish(stream);
        assert_eq!(client.live_streams().0, 0);
        assert!(client.stream_fully_acked(stream));
    }

    #[test]
    #[should_panic(expected = "unknown stream")]
    fn writing_to_a_never_opened_stream_panics() {
        let (mut client, _) = pair();
        let _ = client.stream_write(1, Bytes::from_static(b"x"));
    }

    #[test]
    fn close_is_idempotent_and_propagates_once() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        client.close(0, "bye");
        client.close(7, "ignored");
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(client.is_closed());
        assert!(server.is_closed());
        assert_eq!(client.close_reason(), Some((0, "bye")));
        assert_eq!(server.close_reason(), Some((0, "bye")));
        // A closed connection emits nothing further.
        assert!(client.poll_transmit(SimTime::from_millis(3)).is_none());
        assert!(client.next_timeout().is_none());
    }

    /// A local close still pending when the peer's CONNECTION_CLOSE
    /// arrives: the connection closes with the local reason, which was
    /// given first, and sends no CONNECTION_CLOSE of its own.
    #[test]
    fn a_peer_close_ends_a_pending_local_close_silently() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        let now = SimTime::from_millis(2);
        server.close(0, "server done");
        let t = server.poll_transmit(now).expect("the server's close");
        client.close(7, "client done");
        assert!(!client.is_closed());
        client.handle_datagram(now, t.remote, t.local, &t.payload);
        assert!(client.is_closed());
        assert_eq!(client.close_reason(), Some((7, "client done")));
        assert!(client.poll_transmit(now).is_none());
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
        let keys = server.handshake.keys().unwrap();
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
        let keys = server.handshake.keys().unwrap();
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
        let keys = server.handshake.keys().unwrap();
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

    /// A rebound path whose new address never answers leaves service:
    /// what it carried reroutes, nothing more leaves on it, and the peer
    /// learns through a PATHS frame that it closed.
    #[test]
    fn validation_timeout_abandons_rebound_path() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(server.path_ids().contains(&PathId(1)));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"get"))
            .unwrap();
        shuttle(&mut client, &mut server, SimTime::from_millis(3));
        server
            .stream_write(stream, Bytes::from(vec![5u8; 200_000]))
            .unwrap();
        server.stream_finish(stream);
        // The client's NAT rebinds path 0 to an address that black-holes
        // whatever the server sends it, the server's first flight on
        // path 0 included.
        let rebound = addr("203.0.113.9:4242");
        let (mut got, mut sent_after_close) = (0, 0);
        for step in 4..2_000u64 {
            let now = SimTime::from_millis(step * 5);
            for conn in [&mut client, &mut server] {
                if conn.next_timeout().is_some_and(|t| t <= now) {
                    conn.on_timeout(now);
                }
            }
            while let Some(t) = server.poll_transmit(now) {
                let on_path0 = t.local == addr(S0);
                if server.path(PathId::INITIAL).unwrap().state == PathState::Closed {
                    sent_after_close += usize::from(on_path0);
                }
                if !on_path0 {
                    client.handle_datagram(now, t.remote, t.local, &t.payload);
                }
            }
            while let Some(t) = client.poll_transmit(now) {
                let src = if t.local == addr(C0) {
                    rebound
                } else {
                    t.local
                };
                server.handle_datagram(now, t.remote, src, &t.payload);
            }
            while let Some(chunk) = client.stream_read(stream, usize::MAX) {
                got += chunk.len();
            }
            let closed = client.path(PathId::INITIAL).unwrap().state == PathState::Closed;
            if client.stream_is_finished(stream) && closed {
                break;
            }
        }
        assert_eq!(got, 200_000, "the response rerouted onto path 1");
        assert!(client.stream_is_finished(stream));
        assert_eq!(
            server.path(PathId::INITIAL).unwrap().state,
            PathState::Closed
        );
        assert_eq!(sent_after_close, 0, "the closed path carried something");
        assert_eq!(
            client.path(PathId::INITIAL).unwrap().state,
            PathState::Closed,
            "the peer learned of the closure through PATHS"
        );
        let mut ops = Vec::new();
        while let Some(op) = server.pop_path_op() {
            ops.push(op);
        }
        assert!(ops.contains(&PathOp::ValidationStarted));
        assert!(ops.contains(&PathOp::ValidationAbandoned));
    }

    /// A PATH_RESPONSE queued on a path that then leaves service still
    /// reaches the peer: the challenger accepts it on any path (RFC 9000
    /// §8.2.3), so it reroutes where a PATH_CHALLENGE dies.
    #[test]
    fn a_response_stranded_by_an_abandoned_path_still_reaches_the_peer() {
        let (mut client, mut server) = established_pair(SimTime::from_millis(1));
        shuttle(&mut client, &mut server, SimTime::from_millis(2));
        assert!(server.path_ids().contains(&PathId(1)));
        // The client challenges on path 0 from behind a new NAT binding:
        // the server quarantines path 0 and queues its answer there.
        let token = 0x5eed_a115;
        let challenge = forged_datagram(&client, 1 << 20, &[Frame::PathChallenge { token }]);
        let rebound = addr("203.0.113.9:4242");
        server.handle_datagram(SimTime::from_millis(3), addr(S0), rebound, &challenge);
        // The new binding never answers the server's own challenges, and
        // the server abandons path 0 before it sends anything.
        let mut now = SimTime::from_millis(3);
        while server.path(PathId::INITIAL).unwrap().state == PathState::Validating {
            now = server
                .path(PathId::INITIAL)
                .unwrap()
                .challenge
                .unwrap()
                .retransmit_at;
            server.on_timeout(now);
        }
        assert_eq!(
            server.path(PathId::INITIAL).unwrap().state,
            PathState::Closed
        );
        let mut echoed_on = Vec::new();
        while let Some(t) = server.poll_transmit(now) {
            let (path, frames) = server_frames(&server, &t.payload);
            if frames.contains(&Frame::PathResponse { token }) {
                echoed_on.push(path);
            }
            assert!(
                !frames
                    .iter()
                    .any(|f| matches!(f, Frame::PathChallenge { .. })),
                "a challenge outlived its path"
            );
        }
        assert_eq!(echoed_on, vec![PathId(1)]);
    }

    /// Migrating a path that is still being validated lifts no
    /// quarantine: the path stays validating, and its challenge goes on
    /// from the new local address until the peer answers it.
    #[test]
    fn migrating_a_validating_path_keeps_it_quarantined_until_answered() {
        let mut client = Connection::client(Config::single_path(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(Config::single_path(), vec![addr(S0), addr(S1)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        let stream = client.open_stream();
        client
            .stream_write(stream, Bytes::from_static(b"x"))
            .unwrap();
        let rebound = addr("203.0.113.9:4242");
        let mut now = SimTime::from_millis(2);
        while let Some(t) = client.poll_transmit(now) {
            server.handle_datagram(now, t.remote, rebound, &t.payload);
        }
        server.migrate_path(PathId::INITIAL, addr(S1), now);
        let path = server.path(PathId::INITIAL).unwrap();
        assert_eq!(
            path.state,
            PathState::Validating,
            "migration lifted the quarantine"
        );
        assert!(path.challenge.is_some());
        // The queued challenge leaves at once, from the new address, and
        // is lost.
        let mut challenges = 0;
        while let Some(t) = server.poll_transmit(now) {
            assert_eq!(t.local, addr(S1));
            let (_, frames) = server_frames(&server, &t.payload);
            let challenge = |f: &Frame| matches!(f, Frame::PathChallenge { .. });
            challenges += frames.iter().filter(|f| challenge(f)).count();
        }
        assert_eq!(challenges, 1, "the challenge did not leave on migration");
        // The client answers every challenge that reaches it.
        for _ in 0..8 {
            shuttle_nat(&mut client, &mut server, rebound, now);
            if server.path(PathId::INITIAL).unwrap().state != PathState::Validating {
                break;
            }
            now = [client.next_timeout(), server.next_timeout()]
                .into_iter()
                .flatten()
                .min()
                .expect("a timer is armed");
            client.on_timeout(now);
            server.on_timeout(now);
        }
        let path = server.path(PathId::INITIAL).unwrap();
        assert_eq!(path.state, PathState::Active, "validated, not abandoned");
        assert_eq!((path.local, path.remote), (addr(S1), rebound));
        assert_eq!(&server.stream_read(stream, 10).unwrap()[..], b"x");
    }

    #[test]
    fn quarantined_path_carries_no_data_while_sibling_keeps_flowing() {
        let config = Config::default();
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
        assert_eq!(
            client.close_reason().map(|(code, _)| code),
            Some(error_codes::FLOW_CONTROL_ERROR)
        );
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
            let keys = server.handshake.keys().unwrap();
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

    /// A warm path that closes mid-transfer: what it carried reroutes,
    /// nothing more leaves on it, and the peer learns of it through PATHS.
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
        client.abandon_path(SimTime::from_millis(4), PathId(1));
        assert_eq!(client.path(PathId(1)).unwrap().state, PathState::Closed);
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

    /// The timer contract a driver relies on: once `on_timeout(now)` ran
    /// and the connection was polled until `None`, no deadline is left at
    /// or before `now`. One left behind fires again at once; an RTO's
    /// fails a path whose first packet after a loss just left. Seeded
    /// two-path 200 KB uploads over links with 10 and 30 ms one-way delay
    /// and 0–40 % random loss.
    #[test]
    fn a_fired_timer_leaves_no_deadline_behind() {
        use mpquic_netsim::{Endpoint, LinkParams, Simulation};

        /// Asserts, once the polls after a fired timer run dry, that the
        /// timer left no deadline at or before `now`.
        struct Checked {
            conn: Connection,
            fired: bool,
            seed: u64,
        }

        impl Endpoint for Checked {
            fn handle_datagram(
                &mut self,
                now: SimTime,
                local: SocketAddr,
                remote: SocketAddr,
                payload: &[u8],
            ) {
                self.conn.handle_datagram(now, local, remote, payload);
            }
            fn poll_transmit(&mut self, now: SimTime) -> Option<Datagram> {
                let datagram = self.conn.poll_transmit(now);
                if datagram.is_none() && std::mem::take(&mut self.fired) {
                    let (seed, next) = (self.seed, self.conn.next_timeout());
                    assert!(
                        next.is_none_or(|at| at > now),
                        "seed {seed}: deadline {next:?} left at {now:?}"
                    );
                }
                datagram
            }
            fn next_timeout(&self) -> Option<SimTime> {
                self.conn.next_timeout()
            }
            fn on_timeout(&mut self, now: SimTime) {
                self.conn.on_timeout(now);
                self.fired = true;
            }
        }

        for seed in 0..16u64 {
            let loss = DetRng::new(seed).f64() * 0.4;
            let (mut client, server) = pair();
            let stream = client.open_stream();
            let body = Bytes::from(vec![7u8; 200_000]);
            client.stream_write(stream, body).unwrap();
            client.stream_finish(stream);
            let mut sim = Simulation::empty(seed);
            for (conn, addrs) in [(client, [C0, C1]), (server, [S0, S1])] {
                let end = Checked {
                    conn,
                    fired: false,
                    seed,
                };
                sim.add_endpoint(end, addrs.map(addr));
            }
            // Links of pure delay, lossy: 30 ms from C1 or S1, 10 ms from
            // the others.
            for (local, peers) in [
                (C0, [S0, S1]),
                (C1, [S0, S1]),
                (S0, [C0, C1]),
                (S1, [C0, C1]),
            ] {
                let slow = local == C1 || local == S1;
                let link = sim.add_link(LinkParams {
                    rate_bps: f64::INFINITY,
                    one_way_delay: Duration::from_millis(if slow { 30 } else { 10 }),
                    max_queue_delay: Duration::ZERO,
                    loss,
                });
                for remote in peers {
                    sim.add_route(addr(local), addr(remote), vec![link]);
                }
            }
            let acked = sim.run_until(SimTime::from_secs(60), |ends, _| {
                while ends[1].conn.stream_read(stream, usize::MAX).is_some() {}
                ends[0].conn.stream_fully_acked(stream)
            });
            assert!(acked, "seed {seed}: stalled at {:?}", sim.now());
        }
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
        assert_eq!(
            client.close_reason(),
            Some((error_codes::IDLE_TIMEOUT, "idle timeout"))
        );
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

    /// A hostile client: seals `frames` as 1-RTT packet `pn` on path 0
    /// with the client's keys, past its own streams and flow control.
    fn forged_datagram(client: &Connection, pn: u64, frames: &[Frame]) -> Vec<u8> {
        let header = PublicHeader {
            connection_id: client.connection_id(),
            path_id: PathId::INITIAL,
            packet_number: pn,
            packet_type: PacketType::OneRtt,
        };
        let mut out = Vec::new();
        header.encode(&mut out);
        let mut payload = Vec::new();
        for frame in frames {
            frame.encode(&mut payload);
        }
        let nonce = nonce_for(NonceMode::PathIdMixed, 0, pn);
        let keys = client.handshake.keys().unwrap();
        let sealed = Aead::new(keys.client_to_server).seal(&nonce, &out, &payload);
        out.extend_from_slice(&sealed);
        out
    }

    /// A STREAM frame of `len` bytes of `fill` at `offset`.
    fn stream_frame(stream_id: u64, offset: u64, len: usize, fill: u8) -> Frame {
        Frame::Stream(StreamFrame {
            stream_id,
            offset,
            data: Bytes::from(vec![fill; len]),
            fin: false,
        })
    }

    /// A server with the given windows, past its handshake with a client,
    /// and the hostile side's packet-number counter.
    fn hostile_pair(stream_window: u64, conn_window: u64) -> (Connection, Connection, u64) {
        let mut config = Config::single_path();
        config.stream_recv_window = stream_window;
        config.conn_recv_window = conn_window;
        let mut client = Connection::client(config.clone(), vec![addr(C0)], 0, addr(S0), 1);
        let mut server = Connection::server(config, vec![addr(S0)], 2);
        shuttle(&mut client, &mut server, SimTime::from_millis(1));
        assert!(server.is_established());
        (client, server, 1 << 20)
    }

    /// Bytes the server's receive rings hold, summed over its streams.
    fn ring_bytes(server: &Connection) -> usize {
        server.streams.ring_bytes()
    }

    #[test]
    fn a_frame_past_a_window_fails_before_any_ring_grows() {
        let now = SimTime::from_millis(2);
        // Past the stream window.
        let (client, mut server, pn) = hostile_pair(64 << 10, 96 << 10);
        let past = forged_datagram(&client, pn, &[stream_frame(1, (64 << 10) - 1, 2, 1)]);
        server.handle_datagram(now, addr(C0), addr(S0), &past);
        assert_eq!(
            server.close_reason(),
            Some((
                error_codes::FLOW_CONTROL_ERROR,
                "stream flow control violated"
            ))
        );
        assert_eq!(ring_bytes(&server), 0);

        // Within each stream's window, past the connection's: stream 1
        // holds 60 KiB, and one byte at 40 KiB on stream 3 would take
        // the two past 96 KiB.
        let (client, mut server, pn) = hostile_pair(64 << 10, 96 << 10);
        let frames: Vec<Frame> = (0..60)
            .map(|i| stream_frame(1, i * 1024, 1024, 1))
            .collect();
        let fill = forged_datagram(&client, pn, &frames);
        server.handle_datagram(now, addr(C0), addr(S0), &fill);
        assert_eq!(server.close_reason(), None);
        let held = ring_bytes(&server);
        assert_eq!(held, 64 << 10);
        let past = forged_datagram(&client, pn + 1, &[stream_frame(3, 40 << 10, 1, 3)]);
        server.handle_datagram(now, addr(C0), addr(S0), &past);
        assert_eq!(
            server.close_reason(),
            Some((
                error_codes::FLOW_CONTROL_ERROR,
                "connection flow control violated"
            ))
        );
        assert_eq!(server.streams.recv_half(3).unwrap().capacity(), 0);
        assert_eq!(ring_bytes(&server), held);
    }

    #[test]
    fn one_byte_at_the_window_edge_takes_at_most_the_window() {
        // A window that is not a power of two: the ring stops at it.
        let window = 100_000;
        let (client, mut server, pn) = hostile_pair(window, window);
        let edge = forged_datagram(&client, pn, &[stream_frame(1, window - 1, 1, 9)]);
        server.handle_datagram(SimTime::from_millis(2), addr(C0), addr(S0), &edge);
        assert_eq!(server.close_reason(), None);
        assert_eq!(ring_bytes(&server), window as usize);
    }

    #[test]
    fn streams_of_one_byte_hold_one_byte_each() {
        const STREAMS: u64 = 1_000;
        let (client, mut server, pn) = hostile_pair(1 << 20, 1 << 20);
        let frames: Vec<Frame> = (0..STREAMS)
            .map(|i| stream_frame(2 * i + 1, 0, 1, i as u8))
            .collect();
        let datagram = forged_datagram(&client, pn, &frames);
        server.handle_datagram(SimTime::from_millis(2), addr(C0), addr(S0), &datagram);
        assert_eq!(server.live_streams().1, STREAMS as usize);
        // No floor: O(K) bytes, not K times a minimum ring.
        assert_eq!(ring_bytes(&server), STREAMS as usize);
    }

    /// The rings together stay within twice the connection window at
    /// every step (the invariant checker asserts it after every datagram
    /// and read; this test asserts it too), while a hostile client fills
    /// each stream's window as far as the connection lets it and the
    /// application reads all but the last byte of each — the pattern
    /// that leaves rings larger than what they hold.
    #[test]
    fn ring_bytes_stay_within_twice_the_connection_window() {
        const WINDOW: u64 = 64 << 10;
        let now = SimTime::from_millis(2);
        let (client, mut server, mut pn) = hostile_pair(WINDOW, WINDOW);
        let mut compacted = false;
        for stream in (1..40).step_by(2) {
            // As much as the connection's credit allows, in 1 KiB frames.
            let credit = server.streams.recv_credit().min(WINDOW);
            let frames: Vec<Frame> = (0..credit / 1024)
                .map(|i| stream_frame(stream, i * 1024, 1024, stream as u8))
                .collect();
            let before = server.streams.ring_bytes();
            let datagram = forged_datagram(&client, pn, &frames);
            pn += 1;
            server.handle_datagram(now, addr(C0), addr(S0), &datagram);
            assert_eq!(server.close_reason(), None, "stream {stream}");
            let held = ring_bytes(&server);
            assert!(held as u64 <= 2 * WINDOW, "stream {stream}: {held} bytes");
            compacted |= held < before;
            // Read all but the last byte, byte for byte what was sent,
            // then let the WINDOW_UPDATEs out.
            let mut left = credit / 1024 * 1024 - 1;
            while left > 0 {
                let read = server.stream_read_with(stream, left as usize, |data| {
                    assert!(data.iter().all(|&b| b == stream as u8));
                    data.len()
                });
                left -= read.expect("bytes readable") as u64;
            }
            while server.poll_transmit(now).is_some() {}
        }
        assert!(compacted, "no step shrank the rings");
        // Every drained stream keeps one unread byte in a one-byte ring.
        assert_eq!(server.streams.recv_half(1).unwrap().capacity(), 1);
    }

    use std::time::Duration;
}
