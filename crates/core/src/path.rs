//! Per-path state and the path manager.
//!
//! A path is the unit the paper adds to QUIC: its own 4-tuple, its own
//! packet-number space (send and receive), its own RTT estimator and its
//! own congestion window. Everything else (streams, flow control,
//! handshake) stays connection-wide.
//!
//! The crate-private `PathManager` is the paper's path manager (§3) in
//! one place; every change of a path's state goes through its one
//! transition.

use mpquic_cc::{CcAlgorithm, CongestionController, PathSnapshot};
use mpquic_telemetry::{self as telemetry, Subscriber};
use mpquic_util::{DetRng, RangeSet, SimTime};
use mpquic_wire::{AckFrame, AddressInfo, Frame, PathId, PathInfo, PathStatus, MAX_DATAGRAM_SIZE};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::ops::Bound;
use std::time::Duration;

use crate::config::{Config, Role};
use crate::invariant::InvariantChecker;
use crate::recovery::{AckOutcome, Recovery};
use crate::rtt::{RttEstimator, DEFAULT_INITIAL_RTT};
use crate::scheduler::{self, PathView};

/// Maximum time an ACK may be delayed.
pub const MAX_ACK_DELAY: Duration = Duration::from_millis(25);

/// Liveness state of a path, as the paper's handover logic uses it: the
/// telemetry's own type, so a state is reported as it is.
pub use mpquic_telemetry::PathState;

/// Maximum PATH_CHALLENGE (re)transmissions before a rebound path is
/// declared unreachable and abandoned.
pub const MAX_CHALLENGE_RETRIES: u32 = 3;

/// In-flight address-validation state for a quarantined path.
#[derive(Debug, Clone, Copy)]
pub struct PathChallenge {
    /// Random token the peer must echo in a PATH_RESPONSE.
    pub token: u64,
    /// Challenges sent so far (first transmission included).
    pub sent: u32,
    /// When to retransmit the challenge if no response arrived.
    pub retransmit_at: SimTime,
}

/// Demux-facing operations a connection asks its endpoint to perform,
/// drained via [`Connection::pop_path_op`](crate::Connection::pop_path_op)
/// after each batch of work.
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
    /// A path validation ended without a response: its challenges ran
    /// out, a newer address superseded it, or the path closed.
    ValidationAbandoned,
}

/// One network path of a connection.
#[derive(Debug)]
pub struct Path {
    /// The explicit path identifier carried in every public header.
    pub id: PathId,
    /// Local address the path sends from.
    pub local: SocketAddr,
    /// Remote address the path sends to (updated on NAT rebinding).
    pub remote: SocketAddr,
    /// Liveness state.
    pub state: PathState,
    /// RTT estimator.
    pub rtt: RttEstimator,
    /// Loss recovery / packet-number spaces (send side).
    pub recovery: Recovery,
    /// Congestion controller.
    pub cc: Box<dyn CongestionController>,
    // --- receive side ---
    /// Packet numbers received on this path.
    pub received: RangeSet,
    /// Arrival time of the largest received packet (for the ACK delay
    /// field).
    pub largest_recv_time: SimTime,
    /// True if an ack-eliciting packet arrived since the last ACK we sent.
    pub ack_pending: bool,
    /// Deadline by which a pending ACK must be flushed (delayed ACK).
    pub ack_deadline: Option<SimTime>,
    /// Ack-eliciting packets received since the last ACK was sent; an ACK
    /// is forced once this reaches 2 (standard every-other-packet acking).
    pub unacked_count: u32,
    /// When to probe a potentially-failed path next (PING with backoff).
    pub probe_at: Option<SimTime>,
    /// Address-validation state while the path is [`PathState::Validating`].
    pub challenge: Option<PathChallenge>,
    /// Bytes of application payload sent on this path (statistics).
    pub bytes_sent: u64,
    /// Bytes received on this path (statistics).
    pub bytes_received: u64,
}

impl Path {
    /// Creates an active path, its RTT at [`DEFAULT_INITIAL_RTT`] until
    /// the first sample.
    pub fn new(
        id: PathId,
        local: SocketAddr,
        remote: SocketAddr,
        cc: Box<dyn CongestionController>,
    ) -> Path {
        Path {
            id,
            local,
            remote,
            state: PathState::Active,
            rtt: RttEstimator::new(DEFAULT_INITIAL_RTT),
            recovery: Recovery::new(),
            cc,
            received: RangeSet::new(),
            largest_recv_time: SimTime::ZERO,
            ack_pending: false,
            ack_deadline: None,
            unacked_count: 0,
            probe_at: None,
            challenge: None,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// Congestion window bytes still available.
    pub fn cwnd_available(&self) -> u64 {
        self.cc
            .window()
            .saturating_sub(self.recovery.bytes_in_flight())
    }

    /// True once at least one RTT sample exists (the paper's trigger for
    /// turning duplication off on this path).
    pub fn rtt_known(&self) -> bool {
        self.rtt.has_sample()
    }

    /// Records an incoming packet on this path's receive space.
    ///
    /// Returns `false` for duplicates (already-received packet numbers),
    /// which must not be processed again.
    pub fn on_packet_received(&mut self, pn: u64, now: SimTime, ack_eliciting: bool) -> bool {
        if !self.received.insert(pn) {
            return false;
        }
        if Some(pn) == self.received.max() {
            self.largest_recv_time = now;
        }
        if ack_eliciting {
            self.ack_pending = true;
            self.unacked_count += 1;
            let deadline = now + MAX_ACK_DELAY;
            self.ack_deadline = Some(self.ack_deadline.map_or(deadline, |d| d.min(deadline)));
        }
        true
    }

    /// True when a pending ACK must go out now: either two ack-eliciting
    /// packets have accumulated or the delayed-ACK deadline passed.
    pub fn ack_due(&self, now: SimTime) -> bool {
        self.ack_pending && (self.unacked_count >= 2 || self.ack_deadline.is_some_and(|d| d <= now))
    }

    /// Builds the ACK frame for this path without clearing pending state
    /// (cleared via [`Path::note_ack_sent`] once the frame actually made
    /// it into a packet). `max_ranges` caps the reported ranges
    /// (`Config::max_ack_ranges`); the frame's range list is written into
    /// `ranges`, a vector the caller may have pooled.
    pub fn peek_ack_frame(
        &self,
        now: SimTime,
        max_ranges: usize,
        ranges: Vec<(u64, u64)>,
    ) -> Option<AckFrame> {
        let delay = now.saturating_duration_since(self.largest_recv_time);
        AckFrame::from_range_set_into(
            self.id,
            &self.received,
            delay.as_micros() as u64,
            max_ranges,
            ranges,
        )
    }

    /// Clears pending-ACK state after an ACK frame was sent.
    pub fn note_ack_sent(&mut self) {
        self.ack_pending = false;
        self.ack_deadline = None;
        self.unacked_count = 0;
    }

    /// Snapshot for coupled congestion control.
    pub fn snapshot(&self) -> PathSnapshot {
        PathSnapshot {
            cwnd: self.cc.window(),
            srtt: self.rtt.srtt(),
            loss_interval_bytes: self.cc.loss_interval_bytes(),
        }
    }

    /// Wire status for PATHS frames. A validating path is reported as
    /// potentially failed: the wire format predates validation, and to
    /// the peer the distinction is the same — do not expect data here.
    pub fn status(&self) -> PathStatus {
        match self.state {
            PathState::Active => PathStatus::Active,
            PathState::Validating | PathState::PotentiallyFailed => PathStatus::PotentiallyFailed,
            PathState::Closed => PathStatus::Closed,
        }
    }
}

/// The connection's telemetry stack, which path-manager calls report to.
type Events<'a> = &'a mut dyn Subscriber;

/// Reports a path's state to the subscriber stack: every
/// `PathStateChanged` event is built here.
fn report(events: Events, time: SimTime, path: PathId, state: PathState) {
    let event = telemetry::PathStateChanged { time, path, state };
    events.on_event(&telemetry::Event::PathStateChanged(event));
}

/// ACK placement, the one rule (paper §3): "our implementation returns
/// the ACK frame for a given path on the path where the data was
/// received" — unless that path is not active, when its ACK rides
/// `best_active`, the active path with the lowest smoothed RTT
/// ([`PathManager::fastest`]; "since it contains the Path ID, it is
/// possible to send ACK frames over different paths"), so one dead path
/// cannot starve the others of acknowledgements. `None` when no path is
/// active: then any packet may carry it.
pub(crate) fn ack_carrier(acked: &Path, best_active: Option<PathId>) -> Option<PathId> {
    (acked.state == PathState::Active)
        .then_some(acked.id)
        .or(best_active)
}

/// The paper's path manager (§3). The connection passes in its telemetry
/// stack and its path-agnostic frame queue (`control`) where a call
/// reports or queues.
#[derive(Debug)]
pub(crate) struct PathManager {
    role: Role,
    paths: BTreeMap<PathId, Path>,
    /// Each new path's congestion controller.
    cc: CcAlgorithm,
    multipath: bool,
    /// PATHS frames go out (`Config::send_paths_frames`, multipath only).
    paths_frames: bool,
    local_addrs: Vec<SocketAddr>,
    /// Remote addresses by the peer's address ID (ADD_ADDRESS).
    remote_addrs: BTreeMap<u64, SocketAddr>,
    /// Set while processing a packet that contained ADD_ADDRESS frames.
    addresses_dirty: bool,
    /// Next client-initiated path ID (odd).
    next_path_id: u32,
    /// Most recent PATHS frame received from the peer.
    peer_paths: Vec<PathInfo>,
    /// Connection ID (chosen by the client; learned by the server), and
    /// the previous one, still accepted inbound after a rotation.
    cid: u64,
    prev_cid: Option<u64>,
    /// A rotation we started, awaiting retirement: `(sequence, new CID)`.
    pending_new_cid: Option<(u64, u64)>,
    /// Sequence of the next NEW_CONNECTION_ID we issue, and the lowest
    /// one we would still accept from the peer.
    next_cid_seq: u64,
    peer_cid_seq: u64,
    /// Deterministic RNG for path-challenge tokens and rotated CIDs.
    rng: DetRng,
    /// Demux-facing operations, drained via `Connection::pop_path_op`.
    ops: VecDeque<PathOp>,
    /// Frames bound to one path: probes, challenges and responses,
    /// WINDOW_UPDATE duplicates.
    bound: BTreeMap<PathId, VecDeque<Frame>>,
    /// Reusable scheduler and coupled-congestion-control inputs.
    views: Vec<PathView>,
    cc_snapshots: Vec<PathSnapshot>,
}

impl PathManager {
    /// An empty table for a `role` endpoint on `local_addrs`.
    pub(crate) fn new(
        role: Role,
        config: &Config,
        cid: u64,
        local_addrs: Vec<SocketAddr>,
        rng: DetRng,
    ) -> PathManager {
        PathManager {
            role,
            paths: BTreeMap::new(),
            cc: config.cc,
            multipath: config.multipath,
            paths_frames: config.send_paths_frames && config.multipath,
            local_addrs,
            remote_addrs: BTreeMap::new(),
            addresses_dirty: false,
            next_path_id: 1,
            peer_paths: Vec::new(),
            cid,
            prev_cid: None,
            pending_new_cid: None,
            next_cid_seq: 0,
            peer_cid_seq: 0,
            rng,
            ops: VecDeque::new(),
            bound: BTreeMap::new(),
            views: Vec::new(),
            cc_snapshots: Vec::new(),
        }
    }

    pub(crate) fn cid(&self) -> u64 {
        self.cid
    }

    /// A fresh server takes the CID of its first authenticated packet.
    pub(crate) fn adopt_first_cid(&mut self, cid: u64) {
        self.cid = cid;
    }

    /// True for the CIDs that route here: the current one and, during a
    /// rotation, the one just issued (the peer may adopt it at once) and
    /// the one just retired (stragglers).
    pub(crate) fn routes(&self, cid: u64) -> bool {
        let pending = self.pending_new_cid.map(|(_, new)| new);
        cid == self.cid || self.prev_cid == Some(cid) || pending == Some(cid)
    }

    pub(crate) fn local_addrs(&self) -> &[SocketAddr] {
        &self.local_addrs
    }

    pub(crate) fn peer_paths(&self) -> &[PathInfo] {
        &self.peer_paths
    }

    pub(crate) fn get(&self, id: PathId) -> Option<&Path> {
        self.paths.get(&id)
    }

    pub(crate) fn get_mut(&mut self, id: PathId) -> Option<&mut Path> {
        self.paths.get_mut(&id)
    }

    fn state(&self, id: PathId) -> Option<PathState> {
        self.paths.get(&id).map(|p| p.state)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Path> {
        self.paths.values()
    }

    pub(crate) fn count(&self) -> usize {
        self.paths.len()
    }

    pub(crate) fn views(&self) -> &[PathView] {
        &self.views
    }

    pub(crate) fn pop_op(&mut self) -> Option<PathOp> {
        self.ops.pop_front()
    }

    /// Adds an active path.
    pub(crate) fn create(
        &mut self,
        now: SimTime,
        id: PathId,
        local: SocketAddr,
        remote: SocketAddr,
        events: Events,
    ) {
        let cc = self.cc.build(MAX_DATAGRAM_SIZE as u64);
        self.paths.insert(id, Path::new(id, local, remote, cc));
        report(events, now, id, PathState::Active);
    }

    /// Client side, on new server addresses (which ride 1-RTT packets, so
    /// the handshake is complete): opens a path from each local interface
    /// `i` no path uses to the address advertised under ID `i` (or the
    /// only one), and probes it at once, so the peer learns the path
    /// exists (vital when the server is the bulk sender).
    pub(crate) fn open_paths(
        &mut self,
        now: SimTime,
        invariants: &InvariantChecker,
        events: Events,
    ) {
        if self.role != Role::Client || !self.multipath {
            return;
        }
        let only = self.remote_addrs.values().next().copied();
        let only = only.filter(|_| self.remote_addrs.len() == 1);
        for i in 0..self.local_addrs.len() {
            let Some(&local) = self.local_addrs.get(i) else {
                continue;
            };
            let unused = self.iter().all(|p| p.local != local);
            let remote = self.remote_addrs.get(&(i as u64)).copied().or(only);
            let Some(remote) = remote.filter(|_| unused) else {
                continue;
            };
            let id = PathId(self.next_path_id);
            self.next_path_id += 2;
            invariants.check_path_ownership(self.role, id, true);
            self.create(now, id, local, remote, events);
            self.bind(id, Frame::Ping);
        }
    }

    /// Records an ADD_ADDRESS; paths open once the whole packet is seen.
    pub(crate) fn on_add_address(&mut self, info: AddressInfo) {
        self.remote_addrs.insert(info.address_id, info.addr);
        self.addresses_dirty = true;
    }

    pub(crate) fn take_new_addresses(&mut self) -> bool {
        std::mem::take(&mut self.addresses_dirty)
    }

    /// Server side, at handshake completion (which happens once):
    /// advertises each local address.
    pub(crate) fn advertise(&mut self, control: &mut VecDeque<Frame>) {
        if !self.multipath {
            return;
        }
        for (i, &addr) in self.local_addrs.iter().enumerate() {
            let address_id = i as u64;
            control.push_back(Frame::AddAddress(AddressInfo { address_id, addr }));
        }
    }

    /// A datagram on path `id` came from `remote`. On a NAT rebinding or
    /// handover the path keeps its state, its ID naming it (paper §3);
    /// once the handshake is done (`validate`) the new address is
    /// challenged and, until it answers, gets no data. Receiving stays
    /// allowed: the quarantine is outbound-only.
    pub(crate) fn follow_remote(
        &mut self,
        now: SimTime,
        id: PathId,
        remote: SocketAddr,
        validate: bool,
        events: Events,
    ) {
        let moved = |p: &&mut Path| p.remote != remote && p.state != PathState::Closed;
        if let Some(path) = self.paths.get_mut(&id).filter(moved) {
            path.remote = remote;
            if validate {
                self.transition(now, id, PathState::Validating, events);
            }
        }
    }

    /// The one transition every change of a path's state goes through:
    /// sets path `id` to `to`, clears what the new state forbids (an
    /// armed challenge, a probe deadline), and reports the change — the
    /// `PathStateChanged` event, and the validation's [`PathOp`] and
    /// event where one starts, completes or ends. Entering `Validating`
    /// arms a fresh challenge, from `Validating` too (the peer has left
    /// the address the pending one tests: that validation is superseded);
    /// entering any other state the path is in changes nothing.
    pub(crate) fn transition(
        &mut self,
        now: SimTime,
        id: PathId,
        to: PathState,
        events: Events,
    ) -> bool {
        let Some(path) = self.paths.get_mut(&id) else {
            return false;
        };
        let from = path.state;
        if from == to && to != PathState::Validating {
            return false;
        }
        path.state = to;
        path.probe_at = None;
        path.challenge = None;
        if to == PathState::Validating {
            let token = self.rng.next_u64();
            let retransmit_at = now + path.rtt.rto();
            path.challenge = Some(PathChallenge {
                token,
                sent: 1,
                retransmit_at,
            });
            self.bind(id, Frame::PathChallenge { token });
        }
        let (time, path) = (now, id);
        if from == PathState::Validating && to == PathState::Active {
            self.ops.push_back(PathOp::ValidationCompleted);
            let event = telemetry::PathValidated { time, path };
            events.on_event(&telemetry::Event::PathValidated(event));
        } else if from == PathState::Validating {
            self.ops.push_back(PathOp::ValidationAbandoned);
            let event = telemetry::PathValidationFailed { time, path };
            events.on_event(&telemetry::Event::PathValidationFailed(event));
        }
        if to == PathState::Validating {
            self.ops.push_back(PathOp::ValidationStarted);
            let event = telemetry::PathValidationStarted { time, path };
            events.on_event(&telemetry::Event::PathValidationStarted(event));
        }
        report(events, now, id, to);
        true
    }

    /// An RTO fired on path `id` (paper §4.3): an active path is only
    /// *potentially* failed, and any path but a closed one is probed
    /// with backoff.
    pub(crate) fn on_rto(&mut self, now: SimTime, id: PathId, events: Events) {
        if self.state(id) == Some(PathState::Active) {
            self.transition(now, id, PathState::PotentiallyFailed, events);
        }
        let open = |p: &&mut Path| p.state != PathState::Closed;
        if let Some(path) = self.paths.get_mut(&id).filter(open) {
            let backoff = 1u32 << path.recovery.rto_count().min(6);
            path.probe_at = Some(now + path.rtt.rto() * backoff);
        }
    }

    /// Data was acknowledged on path `id`: a potentially-failed path is
    /// active again, and no probe is needed any more.
    pub(crate) fn on_progress(&mut self, now: SimTime, id: PathId, events: Events) {
        if self.state(id) == Some(PathState::PotentiallyFailed) {
            self.transition(now, id, PathState::Active, events);
        } else if let Some(path) = self.paths.get_mut(&id) {
            path.probe_at = None;
        }
    }

    /// A PATH_RESPONSE lifts the quarantine on whichever path issued the
    /// matching challenge. Returns whether one did.
    pub(crate) fn on_response(&mut self, now: SimTime, token: u64, events: Events) -> bool {
        let answered = |p: &&Path| p.challenge.is_some_and(|c| c.token == token);
        let id = self.paths.values().find(answered).map(|p| p.id);
        id.is_some_and(|id| self.transition(now, id, PathState::Active, events))
    }

    /// The peer's PATHS frame: an active path it reports potentially
    /// failed, or any path it reports closed, is marked so here too.
    pub(crate) fn on_peer_paths(&mut self, now: SimTime, infos: Vec<PathInfo>, events: Events) {
        for info in &infos {
            let id = info.path_id;
            match info.status {
                PathStatus::PotentiallyFailed if self.state(id) == Some(PathState::Active) => {
                    self.on_rto(now, id, events)
                }
                PathStatus::Closed => _ = self.transition(now, id, PathState::Closed, events),
                _ => {}
            }
        }
        self.peer_paths = infos;
    }

    /// Moves path `id` to the local address `local` (see
    /// `Connection::migrate_path`). False if there is nothing to move.
    pub(crate) fn migrate(
        &mut self,
        now: SimTime,
        id: PathId,
        local: SocketAddr,
        events: Events,
    ) -> bool {
        let movable = |p: &&mut Path| p.local != local && p.state != PathState::Closed;
        let Some(path) = self.paths.get_mut(&id).filter(movable) else {
            return false;
        };
        path.local = local;
        path.cc = self.cc.build(MAX_DATAGRAM_SIZE as u64);
        path.rtt = RttEstimator::new(DEFAULT_INITIAL_RTT);
        path.probe_at = None;
        if path.state == PathState::PotentiallyFailed {
            self.transition(now, id, PathState::Active, events);
        }
        true
    }

    /// Empties into `control` the bound frames of any path neither active
    /// nor validating, under the one rule for stranded frames: a
    /// PATH_CHALLENGE dies with its path (it proves only the path it
    /// leaves on); all else reroutes, a PATH_RESPONSE included, as the
    /// challenger accepts it on any path (RFC 9000 §8.2.3).
    pub(crate) fn strand(&mut self, control: &mut VecDeque<Frame>) {
        for (&id, queue) in &mut self.bound {
            let state = || self.paths.get(&id).map(|p| p.state);
            let sendable = || matches!(state(), Some(PathState::Active | PathState::Validating));
            if !queue.is_empty() && !sendable() {
                let frames = queue.drain(..);
                control.extend(frames.filter(|f| !matches!(f, Frame::PathChallenge { .. })));
            }
        }
    }

    /// Queues `frame` on path `id` alone.
    pub(crate) fn bind(&mut self, id: PathId, frame: Frame) {
        self.bound.entry(id).or_default().push_back(frame);
    }

    /// Queues a copy of each of `frames` on every active path.
    pub(crate) fn bind_to_active(&mut self, frames: &[Frame]) {
        for path in self.paths.values().filter(|p| p.state == PathState::Active) {
            let queue = self.bound.entry(path.id).or_default();
            queue.extend(frames.iter().cloned());
        }
    }

    /// The lowest-numbered path with bound frames waiting.
    pub(crate) fn next_bound(&self) -> Option<PathId> {
        let mut queues = self.bound.iter();
        queues.find(|(_, q)| !q.is_empty()).map(|(&id, _)| id)
    }

    pub(crate) fn bound_mut(&mut self, id: PathId) -> Option<&mut VecDeque<Frame>> {
        self.bound.get_mut(&id)
    }

    /// The first path past `after` that satisfies `f`, so that a
    /// caller may act on each in turn without collecting their IDs.
    pub(crate) fn next(&self, after: Bound<PathId>, f: impl Fn(&Path) -> bool) -> Option<PathId> {
        let mut paths = self.paths.range((after, Bound::Unbounded));
        paths.find(|(_, p)| f(p)).map(|(&id, _)| id)
    }

    /// The path in `state` with the lowest smoothed RTT.
    pub(crate) fn fastest(&self, state: PathState) -> Option<PathId> {
        let paths = self.paths.values().filter(|p| p.state == state);
        paths.min_by_key(|p| p.rtt.srtt()).map(|p| p.id)
    }

    /// The path a packet carrying path `id`'s due ACK takes: its
    /// carrier, or with no path active the potentially-failed path with
    /// the lowest smoothed RTT (it might still deliver), else `id`.
    pub(crate) fn due_ack_carrier(&self, id: PathId) -> PathId {
        let best = self.fastest(PathState::Active);
        let carrier = self.paths.get(&id).and_then(|p| ack_carrier(p, best));
        carrier
            .or_else(|| self.fastest(PathState::PotentiallyFailed))
            .unwrap_or(id)
    }

    /// The earliest of the connection's `idle` deadline and the paths'
    /// recovery, delayed-ACK, probe and challenge timers.
    pub(crate) fn next_timeout(&self, idle: Option<SimTime>) -> Option<SimTime> {
        let mut earliest = idle.unwrap_or(SimTime::FAR_FUTURE);
        for p in self.paths.values() {
            let recovery = p.recovery.next_timeout(&p.rtt).map(|(when, _)| when);
            let ack = p.ack_deadline.filter(|_| p.ack_pending);
            let challenge = p.challenge.map(|c| c.retransmit_at);
            let timers = [recovery, ack, p.probe_at, challenge];
            earliest = timers.into_iter().flatten().fold(earliest, SimTime::min);
        }
        Some(earliest).filter(|&e| e != SimTime::FAR_FUTURE)
    }

    /// Fires the challenge timers due at `now` past `after`: a path with
    /// retries left sends its PATH_CHALLENGE again, backing off like an
    /// RTO, and the first whose budget is spent is returned, to be
    /// abandoned.
    pub(crate) fn next_failed_challenge(
        &mut self,
        now: SimTime,
        after: Bound<PathId>,
    ) -> Option<PathId> {
        for (&id, path) in self.paths.range_mut((after, Bound::Unbounded)) {
            let Some(c) = path.challenge.as_mut().filter(|c| c.retransmit_at <= now) else {
                continue;
            };
            if c.sent >= MAX_CHALLENGE_RETRIES {
                return Some(id);
            }
            c.sent += 1;
            c.retransmit_at = now + path.rtt.rto() * (1 << c.sent.min(6));
            let queue = self.bound.entry(id).or_default();
            queue.push_back(Frame::PathChallenge { token: c.token });
        }
        None
    }

    /// Takes the first probe deadline due at `now`, returning its path;
    /// the probe's own RTO (or its ACK) schedules the next.
    pub(crate) fn take_due_probe(&mut self, now: SimTime) -> Option<PathId> {
        let mut paths = self.paths.values_mut();
        let path = paths.find(|p| p.probe_at.is_some_and(|at| at <= now))?;
        path.probe_at = None;
        Some(path.id)
    }

    /// Runs an ACK through its path's recovery and, for newly acked
    /// bytes, its coupled congestion controller.
    pub(crate) fn on_ack(&mut self, now: SimTime, ack: &AckFrame) -> Option<AckOutcome> {
        self.cc_snapshots.clear();
        self.cc_snapshots
            .extend(self.paths.values().map(Path::snapshot));
        let index = self.paths.keys().position(|&id| id == ack.path_id);
        let path = self.paths.get_mut(&ack.path_id)?;
        let delay = Duration::from_micros(ack.ack_delay_micros);
        let ranges = ack.iter_ranges_ascending();
        let outcome = path.recovery.on_ack(now, ranges, delay, &mut path.rtt);
        if outcome.newly_acked_bytes > 0 {
            let (bytes, rtt) = (outcome.newly_acked_bytes, path.rtt.latest());
            let index = index.unwrap_or(0);
            path.cc.on_ack(now, bytes, rtt, &self.cc_snapshots, index);
        }
        Some(outcome)
    }

    /// Refills the scheduler's view of every schedulable path. Validating
    /// paths are invisible to the scheduler entirely — not even the
    /// control-frame fallback may place traffic on an unvalidated address
    /// (the challenge travels as a bound frame, which ignores scheduling).
    /// Until the handshake is `established` only the initial path carries
    /// data.
    pub(crate) fn refresh_views(&mut self, established: bool) -> &[PathView] {
        self.views.clear();
        let schedulable = self
            .paths
            .values()
            .filter(|p| !matches!(p.state, PathState::Closed | PathState::Validating));
        self.views.extend(schedulable.map(|p| PathView {
            id: p.id,
            srtt: p.rtt.srtt(),
            rtt_known: p.rtt_known(),
            cwnd_available: p.cwnd_available(),
            usable: p.state == PathState::Active && (established || p.id == PathId::INITIAL),
        }));
        &self.views
    }

    /// Where traffic moves when path `id` fails (§4.3 handover); `None`
    /// when no healthy path is left.
    pub(crate) fn handover_target(&mut self, id: PathId, established: bool) -> Option<PathId> {
        self.refresh_views(established);
        self.views.retain(|v| v.id != id);
        scheduler::select_for_control(&self.views)
    }

    /// Queues a PATHS frame with every path's status and smoothed RTT
    /// (§4.3), when there is more than one path to report.
    pub(crate) fn queue_paths_frame(&self, control: &mut VecDeque<Frame>) {
        if !self.paths_frames || self.paths.len() < 2 {
            return;
        }
        let infos = self.paths.values().map(|p| PathInfo {
            path_id: p.id,
            status: p.status(),
            srtt_micros: match p.rtt_known() {
                true => p.rtt.srtt().as_micros() as u64,
                false => mpquic_wire::frame::SRTT_UNKNOWN,
            },
        });
        control.push_back(Frame::Paths(infos.collect()));
    }

    /// Starts a connection-ID rotation (see `Connection::rotate_cid`),
    /// unless one is pending.
    pub(crate) fn rotate_cid(&mut self, control: &mut VecDeque<Frame>) {
        if self.pending_new_cid.is_some() {
            return;
        }
        // The fresh CID keeps the low byte of the one it replaces: that
        // byte is what a multi-loop endpoint steers datagrams on, so a
        // rotated connection stays with the loop that owns it.
        let low = self.cid & 0xFF;
        let mut cid = (self.rng.next_u64() & !0xFF) | low;
        while cid == 0 || cid == self.cid || Some(cid) == self.prev_cid {
            cid = (self.rng.next_u64() & !0xFF) | low;
        }
        let sequence = self.next_cid_seq;
        self.next_cid_seq += 1;
        self.pending_new_cid = Some((sequence, cid));
        self.ops.push_back(PathOp::MapCid(cid));
        control.push_back(Frame::NewConnectionId { sequence, cid });
    }

    /// Peer issued us a fresh CID: adopt it for all future sends and
    /// retire the sequence so the peer can drop its old routing entry.
    pub(crate) fn adopt_cid(
        &mut self,
        now: SimTime,
        (sequence, cid): (u64, u64),
        control: &mut VecDeque<Frame>,
        events: Events,
    ) {
        if sequence < self.peer_cid_seq {
            // Retransmission of one we already adopted; re-ack the
            // retirement in case the first RETIRE_CONNECTION_ID was lost.
            control.push_back(Frame::RetireConnectionId { sequence });
        } else if cid != 0 && cid != self.cid {
            self.peer_cid_seq = sequence + 1;
            self.ops.push_back(PathOp::MapCid(cid));
            control.push_back(Frame::RetireConnectionId { sequence });
            self.switch_cid(now, cid, events);
        }
    }

    /// Peer confirmed it switched to the CID we issued: cut over our own
    /// bookkeeping and release the old demux route.
    pub(crate) fn on_retire(&mut self, now: SimTime, sequence: u64, events: Events) {
        if let Some((_, cid)) = self.pending_new_cid.filter(|p| p.0 == sequence) {
            self.pending_new_cid = None;
            self.ops.push_back(PathOp::UnmapCid(self.cid));
            self.switch_cid(now, cid, events);
        }
    }

    /// Sends with `new_cid` from now on, still accepting the old one.
    fn switch_cid(&mut self, time: SimTime, new_cid: u64, events: Events) {
        let old_cid = std::mem::replace(&mut self.cid, new_cid);
        self.prev_cid = Some(old_cid);
        let event = telemetry::CidRotated {
            time,
            old_cid,
            new_cid,
        };
        events.on_event(&telemetry::Event::CidRotated(event));
    }

    /// Asserts the path-state rules ([`InvariantChecker::check_path_states`]).
    pub(crate) fn check_invariants(&self, checker: &InvariantChecker) {
        checker.check_path_states(&self.paths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpquic_cc::CcAlgorithm;

    fn path() -> Path {
        Path::new(
            PathId(1),
            "10.0.0.1:4433".parse().unwrap(),
            "10.0.1.1:4433".parse().unwrap(),
            CcAlgorithm::Olia.build(1250),
        )
    }

    /// A server's path manager holding path 1, its state checked against
    /// the invariants after every step the tests take.
    fn manager() -> PathManager {
        let local = "10.0.1.1:4433".parse().unwrap();
        let config = Config::multipath();
        let rng = DetRng::new(9);
        let mut paths = PathManager::new(Role::Server, &config, 5, vec![local], rng);
        let remote = "10.0.0.1:4433".parse().unwrap();
        paths.create(SimTime::ZERO, PathId(1), local, remote, &mut ());
        paths
    }

    fn state(paths: &PathManager) -> PathState {
        paths.check_invariants(&InvariantChecker::new());
        paths.get(PathId(1)).unwrap().state
    }

    /// The token of path 1's pending challenge.
    fn token(paths: &PathManager) -> u64 {
        paths.get(PathId(1)).unwrap().challenge.unwrap().token
    }

    /// Moves path 1 to a new remote address once the handshake is done.
    fn rebind(paths: &mut PathManager, now: SimTime) {
        let remote = "192.0.2.7:999".parse().unwrap();
        paths.follow_remote(now, PathId(1), remote, true, &mut ());
    }

    #[test]
    fn receive_tracks_duplicates() {
        let mut p = path();
        assert!(p.on_packet_received(0, SimTime::from_millis(1), true));
        assert!(!p.on_packet_received(0, SimTime::from_millis(2), true));
        assert!(p.on_packet_received(2, SimTime::from_millis(3), true));
    }

    #[test]
    fn ack_frame_reports_ranges_and_delay() {
        let mut p = path();
        p.on_packet_received(0, SimTime::from_millis(10), true);
        p.on_packet_received(2, SimTime::from_millis(20), true);
        let ack = p
            .peek_ack_frame(
                SimTime::from_millis(23),
                mpquic_wire::MAX_ACK_RANGES,
                Vec::new(),
            )
            .unwrap();
        p.note_ack_sent();
        assert_eq!(ack.path_id, PathId(1));
        assert_eq!(ack.largest_acked, 2);
        assert_eq!(ack.ranges, vec![(2, 2), (0, 0)]);
        assert_eq!(ack.ack_delay_micros, 3_000);
        assert!(!p.ack_pending);
        assert!(p.ack_deadline.is_none());
    }

    #[test]
    fn non_ack_eliciting_does_not_arm_ack() {
        let mut p = path();
        p.on_packet_received(0, SimTime::from_millis(1), false);
        assert!(!p.ack_pending);
        assert!(p.ack_deadline.is_none());
    }

    #[test]
    fn ack_deadline_keeps_earliest() {
        let mut p = path();
        p.on_packet_received(0, SimTime::from_millis(10), true);
        let first = p.ack_deadline.unwrap();
        p.on_packet_received(1, SimTime::from_millis(20), true);
        assert_eq!(p.ack_deadline.unwrap(), first);
    }

    #[test]
    fn potentially_failed_lifecycle() {
        let mut paths = manager();
        assert!(paths.refresh_views(true)[0].usable);
        paths.on_rto(SimTime::from_millis(100), PathId(1), &mut ());
        assert_eq!(state(&paths), PathState::PotentiallyFailed);
        assert!(!paths.refresh_views(true)[0].usable);
        assert!(paths.get(PathId(1)).unwrap().probe_at.is_some());
        paths.on_progress(SimTime::from_millis(200), PathId(1), &mut ());
        assert_eq!(state(&paths), PathState::Active);
        assert!(paths.refresh_views(true)[0].usable);
        assert!(paths.get(PathId(1)).unwrap().probe_at.is_none());
        // A closed path stays closed and is never probed.
        paths.transition(
            SimTime::from_millis(300),
            PathId(1),
            PathState::Closed,
            &mut (),
        );
        paths.on_rto(SimTime::from_millis(400), PathId(1), &mut ());
        assert_eq!(state(&paths), PathState::Closed);
        assert!(paths.get(PathId(1)).unwrap().probe_at.is_none());
    }

    #[test]
    fn cwnd_available_subtracts_in_flight() {
        let mut p = path();
        let w = p.cc.window();
        assert_eq!(p.cwnd_available(), w);
        let pn = p.recovery.next_packet_number();
        p.recovery.on_packet_sent(crate::recovery::SentPacket {
            packet_number: pn,
            time_sent: SimTime::ZERO,
            size: 1000,
            ack_eliciting: true,
            frames: vec![],
        });
        assert_eq!(p.cwnd_available(), w - 1000);
    }

    #[test]
    fn ack_frame_respects_range_cap() {
        let mut p = path();
        // 10 disjoint singleton ranges.
        for i in 0..10u64 {
            p.on_packet_received(i * 3, SimTime::from_millis(i), true);
        }
        let full = p
            .peek_ack_frame(SimTime::from_millis(20), 256, Vec::new())
            .unwrap();
        assert_eq!(full.ranges.len(), 10);
        // TCP-SACK-like cap: only the 3 newest ranges are reported.
        let capped = p
            .peek_ack_frame(SimTime::from_millis(20), 3, Vec::new())
            .unwrap();
        assert_eq!(capped.ranges.len(), 3);
        assert_eq!(capped.largest_acked, 27);
        assert_eq!(capped.smallest_acked(), 21);
    }

    #[test]
    fn validation_quarantines_until_token_matches() {
        let mut paths = manager();
        rebind(&mut paths, SimTime::from_millis(10));
        assert_eq!(state(&paths), PathState::Validating);
        assert_eq!(paths.pop_op(), Some(PathOp::ValidationStarted));
        assert_eq!(
            paths.get(PathId(1)).unwrap().status(),
            PathStatus::PotentiallyFailed
        );
        let views = paths.refresh_views(true);
        assert!(views.is_empty(), "quarantined while validating: {views:?}");
        let token = token(&paths);
        // A wrong token changes nothing.
        let now = SimTime::from_millis(20);
        assert!(!paths.on_response(now, token ^ 1, &mut ()));
        assert_eq!(state(&paths), PathState::Validating);
        // The right token restores the path.
        assert!(paths.on_response(now, token, &mut ()));
        assert_eq!(state(&paths), PathState::Active);
        assert_eq!(paths.pop_op(), Some(PathOp::ValidationCompleted));
        assert!(paths.refresh_views(true)[0].usable);
        // A replayed response is rejected once validation completed.
        assert!(!paths.on_response(now, token, &mut ()));
    }

    #[test]
    fn challenge_retries_are_bounded() {
        let mut paths = manager();
        rebind(&mut paths, SimTime::ZERO);
        let token = token(&paths);
        let challenges = |paths: &mut PathManager| {
            let queue = paths.bound_mut(PathId(1)).unwrap();
            let sent = queue
                .drain(..)
                .filter(|f| *f == Frame::PathChallenge { token });
            sent.count()
        };
        assert_eq!(challenges(&mut paths), 1, "the first challenge is queued");
        let mut retransmits = 0;
        loop {
            let now = paths.next_timeout(None).unwrap();
            if let Some(id) = paths.next_failed_challenge(now, Bound::Unbounded) {
                assert_eq!(id, PathId(1));
                break;
            }
            retransmits += challenges(&mut paths);
            assert!(retransmits < 10, "retry budget never exhausted");
        }
        assert_eq!(retransmits, MAX_CHALLENGE_RETRIES as usize - 1);
        paths.transition(
            SimTime::from_secs(60),
            PathId(1),
            PathState::Closed,
            &mut (),
        );
        assert_eq!(state(&paths), PathState::Closed);
        assert!(paths.get(PathId(1)).unwrap().challenge.is_none());
    }

    #[test]
    fn challenge_timer_not_due_early() {
        let mut paths = manager();
        rebind(&mut paths, SimTime::ZERO);
        let early = SimTime::from_millis(1);
        assert_eq!(paths.next_failed_challenge(early, Bound::Unbounded), None);
        let challenge = paths.get(PathId(1)).unwrap().challenge.unwrap();
        assert_eq!(challenge.sent, 1, "nothing went out again");
    }

    #[test]
    fn rtt_known_flips_on_first_sample() {
        let mut p = path();
        assert!(!p.rtt_known());
        p.rtt
            .on_sample(SimTime::ZERO, SimTime::from_millis(30), Duration::ZERO);
        assert!(p.rtt_known());
    }
}
