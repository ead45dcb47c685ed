//! Per-path loss recovery: sent-packet tracking, ACK processing, loss
//! detection and retransmission timeouts.
//!
//! Each path has its own packet-number space (the paper's design), so each
//! path owns one `Recovery` instance. Because packet numbers are never
//! reused, ACKs unambiguously identify the transmission being acknowledged
//! — the property that gives (MP)QUIC its precise RTT samples and effective
//! early retransmit, which the paper contrasts with TCP's retransmission
//! ambiguity.
//!
//! Loss is declared through the two standard QUIC signals:
//!
//! * **packet threshold** — a packet is lost once packets sent ≥3 packet
//!   numbers after it have been acknowledged (fast retransmit);
//! * **time threshold** — a packet is lost once it has been outstanding
//!   for 9/8·max(srtt, latest) *and* something sent after it was acked
//!   (early retransmit, armed via a loss timer).
//!
//! When neither fires and ack-eliciting data is outstanding, the
//! **RTO** timer backs off exponentially; on expiry the path is reported
//! to the connection, which (per the paper, §4.3) marks it *potentially
//! failed* and moves its outstanding frames to any other usable path.

use mpquic_util::SimTime;
use mpquic_wire::Frame;
use std::collections::VecDeque;
use std::time::Duration;

use crate::rtt::RttEstimator;

/// Number of newer packets that must be acknowledged before an older
/// outstanding packet is declared lost (RFC 9002 kPacketThreshold).
pub const PACKET_THRESHOLD: u64 = 3;

/// A packet handed to loss recovery at send time.
#[derive(Debug, Clone)]
pub struct SentPacket {
    /// Per-path packet number.
    pub packet_number: u64,
    /// Send timestamp.
    pub time_sent: SimTime,
    /// Full wire size, bytes (counted against the congestion window).
    pub size: u64,
    /// True if the packet elicits an acknowledgement (carries anything
    /// other than ACK/PADDING frames).
    pub ack_eliciting: bool,
    /// The retransmittable frames the packet carried; returned to the
    /// connection if the packet is declared lost.
    pub frames: Vec<Frame>,
}

/// What an ACK did to this path's state.
#[derive(Debug, Default)]
pub struct AckOutcome {
    /// Bytes newly removed from flight.
    pub newly_acked_bytes: u64,
    /// Largest packet number newly acknowledged, if any.
    pub largest_newly_acked: Option<u64>,
    /// Send time of the largest newly acked packet (for the RTT sample).
    pub rtt_sample_taken: bool,
    /// Retransmittable frames of the packets newly acknowledged — the
    /// connection uses these to mark stream ranges as delivered so lost
    /// duplicates are not retransmitted.
    pub acked_frames: Vec<Frame>,
    /// Retransmittable frames of packets now declared lost.
    pub lost_frames: Vec<Frame>,
    /// Bytes of packets now declared lost.
    pub lost_bytes: u64,
    /// True if this loss constitutes a *new* congestion event (first loss
    /// in the current congestion epoch) — callers must invoke the
    /// congestion controller's decrease exactly once per event.
    pub congestion_event: bool,
}

/// Which timer fired.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TimeoutKind {
    /// The early-retransmit loss timer.
    LossTime,
    /// The retransmission timeout.
    Rto,
}

/// Result of handling a timeout.
#[derive(Debug, Default)]
pub struct TimeoutOutcome {
    /// Frames to retransmit.
    pub lost_frames: Vec<Frame>,
    /// Bytes removed from flight.
    pub lost_bytes: u64,
    /// True if the congestion controller should apply a loss decrease.
    pub congestion_event: bool,
    /// True if this was an RTO (the connection marks the path
    /// potentially failed and collapses its window).
    pub rto_fired: bool,
}

/// One slot of the sent ring: a packet, either outstanding or resolved
/// (acknowledged or declared lost) and waiting to reach the front.
#[derive(Debug)]
struct Slot {
    packet: SentPacket,
    outstanding: bool,
}

/// Loss-recovery state for one path's packet-number space.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The packets sent since the oldest outstanding one, ascending by
    /// packet number. Numbers are monotonic per path, so a send is a
    /// `push_back`; an acknowledged or lost packet leaves a hole that is
    /// trimmed once it reaches the front. Each slot keeps its packet
    /// number, so the numbers another path took under the shared-space
    /// ablation cost no slot: the ring never holds more than the packets
    /// this path sent since its oldest outstanding one.
    sent: VecDeque<Slot>,
    /// Outstanding (tracked, unresolved) packets in `sent`.
    outstanding: usize,
    /// Outstanding ack-eliciting packets in `sent`.
    ack_eliciting_outstanding: usize,
    /// Next packet number to assign.
    next_pn: u64,
    /// Largest packet number the peer has acknowledged.
    largest_acked: Option<u64>,
    /// Bytes currently in flight (ack-eliciting packets only).
    bytes_in_flight: u64,
    /// Earliest time at which an outstanding packet crosses the time
    /// threshold (the armed loss timer).
    loss_time: Option<SimTime>,
    /// Consecutive RTO count (exponential backoff).
    rto_count: u32,
    /// RTO reference point: set at the first send of a flight, restarted
    /// on every acknowledgement that makes progress (classic retransmit
    /// timer semantics — arming from the oldest packet's send time fires
    /// spuriously whenever serialization delays stretch the flight).
    rto_reference: Option<SimTime>,
    /// First packet number of the current congestion epoch: losses of
    /// packets sent before this do not trigger another window reduction.
    congestion_epoch_start: u64,
    /// Reusable backing stores for [`AckOutcome::acked_frames`] and
    /// [`AckOutcome::lost_frames`]: the outcome borrows them via
    /// `mem::take` and the connection hands them back through
    /// [`Recovery::reclaim`] once the frames are consumed, so
    /// steady-state ACKs reuse one high-water allocation each instead of
    /// growing fresh vectors per ACK.
    acked_buf: Vec<Frame>,
    lost_buf: Vec<Frame>,
    /// Emptied frame vectors of resolved packets, handed out again by
    /// [`Recovery::take_frame_vec`] for the next packet on this path.
    spare_frames: Vec<Vec<Frame>>,
}

impl Recovery {
    /// Fresh state for a new path.
    pub fn new() -> Recovery {
        Recovery::default()
    }

    /// Allocates the next packet number (monotonic, never reused).
    pub fn next_packet_number(&mut self) -> u64 {
        let pn = self.next_pn;
        self.next_pn += 1;
        pn
    }

    /// Highest packet number allocated so far plus one.
    pub fn next_pn_peek(&self) -> u64 {
        self.next_pn
    }

    /// Jumps this space's counter forward so the next allocation returns
    /// `pn` — the shared-packet-number-space ablation routes every send
    /// through one connection-wide counter and reserves each value here,
    /// keeping the numbering owned by recovery. Never moves backwards.
    pub fn reserve_through(&mut self, pn: u64) {
        self.next_pn = self.next_pn.max(pn);
    }

    /// Bytes currently in flight.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// Number of outstanding (tracked) packets.
    pub fn outstanding_packets(&self) -> usize {
        self.outstanding
    }

    /// True if any ack-eliciting packet is outstanding.
    pub fn has_ack_eliciting_in_flight(&self) -> bool {
        self.ack_eliciting_outstanding > 0
    }

    /// Current RTO backoff exponent.
    pub fn rto_count(&self) -> u32 {
        self.rto_count
    }

    /// An empty frame vector for the next packet on this path: the
    /// emptied vector of an acknowledged or lost packet when one is
    /// spare, so a warm sender allocates none.
    pub fn take_frame_vec(&mut self) -> Vec<Frame> {
        self.spare_frames.pop().unwrap_or_default()
    }

    /// Returns a frame vector [`Recovery::take_frame_vec`] handed out
    /// whose packet is not tracked (it carried nothing retransmittable,
    /// or was never sent). The pool keeps no more vectors than the ring
    /// has ever held packets at once — what the next flight can use.
    pub fn recycle_frame_vec(&mut self, mut frames: Vec<Frame>) {
        frames.clear();
        if frames.capacity() > 0 && self.spare_frames.len() < self.sent.capacity() {
            self.spare_frames.push(frames);
        }
    }

    /// Records a sent packet. Packet numbers must rise from one call to
    /// the next, as [`Recovery::next_packet_number`] hands them out.
    pub fn on_packet_sent(&mut self, packet: SentPacket) {
        debug_assert!(packet.packet_number < self.next_pn);
        debug_assert!(self
            .sent
            .back()
            .is_none_or(|s| s.packet.packet_number < packet.packet_number));
        if packet.ack_eliciting {
            // The first ack-eliciting packet of a flight starts the timer
            // afresh: a reference left by a flight that loss detection
            // emptied would put this packet's RTO in the past.
            if self.ack_eliciting_outstanding == 0 {
                self.rto_reference = Some(packet.time_sent);
            }
            self.bytes_in_flight += packet.size;
            self.ack_eliciting_outstanding += 1;
        }
        self.outstanding += 1;
        self.sent.push_back(Slot {
            packet,
            outstanding: true,
        });
    }

    /// Index of the first slot whose packet number is at least `pn`:
    /// by offset from the front when no numbers were skipped, by binary
    /// search otherwise.
    fn lower_bound(&self, pn: u64) -> usize {
        let Some(front) = self.sent.front() else {
            return 0;
        };
        let base = front.packet.packet_number;
        if pn <= base {
            return 0;
        }
        let guess = usize::try_from(pn - base).unwrap_or(usize::MAX);
        if self
            .sent
            .get(guess)
            .is_some_and(|s| s.packet.packet_number == pn)
        {
            return guess;
        }
        self.sent.partition_point(|s| s.packet.packet_number < pn)
    }

    /// Resolves the outstanding packet in slot `i` — acknowledged or
    /// lost, it leaves flight either way: its frames move to `frames`
    /// and its emptied vector goes back to the pool. Returns the
    /// packet's `(packet number, send time, size, ack-eliciting)`, or
    /// `None` for a hole.
    fn resolve(&mut self, i: usize, frames: &mut Vec<Frame>) -> Option<(u64, SimTime, u64, bool)> {
        let slot = self.sent.get_mut(i).filter(|s| s.outstanding)?;
        slot.outstanding = false;
        let packet = &mut slot.packet;
        frames.append(&mut packet.frames);
        let spare = std::mem::take(&mut packet.frames);
        let resolved = (
            packet.packet_number,
            packet.time_sent,
            packet.size,
            packet.ack_eliciting,
        );
        self.outstanding -= 1;
        if packet.ack_eliciting {
            self.ack_eliciting_outstanding -= 1;
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(packet.size);
        }
        self.recycle_frame_vec(spare);
        Some(resolved)
    }

    /// Drops the resolved slots at the front of the ring.
    fn trim(&mut self) {
        while self.sent.front().is_some_and(|s| !s.outstanding) {
            self.sent.pop_front();
        }
    }

    /// Processes the ACK ranges `(start, end)` (ascending) for this path.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        ranges: impl Iterator<Item = (u64, u64)>,
        ack_delay: Duration,
        rtt: &mut RttEstimator,
    ) -> AckOutcome {
        // Frames accumulate into the reusable buffers; the caller returns
        // them via [`Recovery::reclaim`] after consuming them.
        let mut acked_frames = std::mem::take(&mut self.acked_buf);
        acked_frames.clear();
        let mut outcome = AckOutcome::default();
        let mut largest_newly_acked: Option<(u64, SimTime, bool)> = None;
        for (start, end) in ranges {
            if end >= self.next_pn {
                // Acking packets we never sent: ignore the bogus range.
                continue;
            }
            let mut i = self.lower_bound(start);
            while self
                .sent
                .get(i)
                .is_some_and(|s| s.packet.packet_number <= end)
            {
                if let Some((pn, time_sent, size, ack_eliciting)) =
                    self.resolve(i, &mut acked_frames)
                {
                    if ack_eliciting {
                        outcome.newly_acked_bytes += size;
                    }
                    if largest_newly_acked.is_none_or(|(l, _, _)| pn > l) {
                        largest_newly_acked = Some((pn, time_sent, ack_eliciting));
                    }
                }
                i += 1;
            }
            self.largest_acked = Some(self.largest_acked.map_or(end, |l| l.max(end)));
        }
        self.trim();
        outcome.acked_frames = acked_frames;
        if let Some((pn, time_sent, ack_eliciting)) = largest_newly_acked {
            outcome.largest_newly_acked = Some(pn);
            // Take an RTT sample only when the largest acked packet is
            // newly acknowledged and was ack-eliciting (RFC 9002 §5.1).
            if Some(pn) == self.largest_acked && ack_eliciting {
                rtt.on_sample(time_sent, now, ack_delay);
                outcome.rtt_sample_taken = true;
            }
            // Forward progress: reset the RTO backoff and restart the
            // retransmission timer.
            self.rto_count = 0;
            self.rto_reference = if self.has_ack_eliciting_in_flight() {
                Some(now)
            } else {
                None
            };
        }
        // Loss detection pass.
        let mut lost_frames = std::mem::take(&mut self.lost_buf);
        lost_frames.clear();
        let (lost_bytes, congestion_event) = self.detect_lost(now, rtt, &mut lost_frames);
        outcome.lost_frames = lost_frames;
        outcome.lost_bytes = lost_bytes;
        outcome.congestion_event = congestion_event;
        outcome
    }

    /// Takes an [`AckOutcome`] back once its frames are consumed, so the
    /// next [`Recovery::on_ack`] reuses its vectors' capacity instead of
    /// allocating. Optional — dropping the outcome is harmless, it just
    /// costs the next ACK fresh allocations.
    pub fn reclaim(&mut self, mut outcome: AckOutcome) {
        outcome.acked_frames.clear();
        outcome.lost_frames.clear();
        self.acked_buf = outcome.acked_frames;
        self.lost_buf = outcome.lost_frames;
    }

    /// Declares packets lost by packet threshold or time threshold,
    /// moving their frames to `lost`, and re-arms the loss timer.
    /// Returns `(bytes, congestion_event)`.
    fn detect_lost(
        &mut self,
        now: SimTime,
        rtt: &RttEstimator,
        lost: &mut Vec<Frame>,
    ) -> (u64, bool) {
        self.loss_time = None;
        let Some(largest_acked) = self.largest_acked else {
            return (0, false);
        };
        let threshold = rtt.loss_time_threshold();
        let mut lost_bytes = 0;
        let mut congestion_event = false;
        let mut i = 0;
        while let Some(slot) = self.sent.get(i) {
            let pn = slot.packet.packet_number;
            if pn >= largest_acked {
                break;
            }
            if slot.outstanding {
                let by_count = pn + PACKET_THRESHOLD <= largest_acked;
                let deadline = slot.packet.time_sent + threshold;
                if by_count || deadline <= now {
                    if let Some((_, _, size, _)) = self.resolve(i, lost) {
                        lost_bytes += size;
                    }
                    if pn >= self.congestion_epoch_start {
                        congestion_event = true;
                    }
                } else {
                    // Earliest still-outstanding candidate arms the timer.
                    self.loss_time = Some(self.loss_time.map_or(deadline, |t| t.min(deadline)));
                }
            }
            i += 1;
        }
        self.trim();
        if congestion_event {
            // Start a new epoch: further losses of already-sent packets
            // belong to this same event.
            self.congestion_epoch_start = self.next_pn;
        }
        (lost_bytes, congestion_event)
    }

    /// Resolves every outstanding packet into `frames`; returns the
    /// bytes they occupied on the wire.
    fn resolve_all(&mut self, frames: &mut Vec<Frame>) -> u64 {
        let mut bytes = 0;
        for i in 0..self.sent.len() {
            if let Some((_, _, size, _)) = self.resolve(i, frames) {
                bytes += size;
            }
        }
        self.trim();
        bytes
    }

    /// When the next timer fires, and which one.
    pub fn next_timeout(&self, rtt: &RttEstimator) -> Option<(SimTime, TimeoutKind)> {
        if let Some(t) = self.loss_time {
            return Some((t, TimeoutKind::LossTime));
        }
        // RTO armed from the last progress point while ack-eliciting
        // data is outstanding.
        if !self.has_ack_eliciting_in_flight() {
            return None;
        }
        let reference = self.rto_reference?;
        let backoff = 1u32 << self.rto_count.min(10);
        Some((reference + rtt.rto() * backoff, TimeoutKind::Rto))
    }

    /// Handles an expired timer.
    ///
    /// * Loss timer → time-threshold losses are declared.
    /// * RTO → **all** outstanding packets are surrendered for
    ///   retransmission (the connection re-schedules them, possibly on
    ///   another path) and the backoff doubles.
    pub fn on_timeout(&mut self, now: SimTime, rtt: &RttEstimator) -> TimeoutOutcome {
        let mut outcome = TimeoutOutcome::default();
        if let Some((when, kind)) = self.next_timeout(rtt) {
            if when > now {
                return outcome;
            }
            match kind {
                TimeoutKind::LossTime => {
                    let (bytes, event) = self.detect_lost(now, rtt, &mut outcome.lost_frames);
                    outcome.lost_bytes = bytes;
                    outcome.congestion_event = event;
                }
                TimeoutKind::Rto => {
                    self.rto_count += 1;
                    self.rto_reference = None;
                    outcome.rto_fired = true;
                    outcome.congestion_event = true;
                    self.congestion_epoch_start = self.next_pn;
                    outcome.lost_bytes = self.resolve_all(&mut outcome.lost_frames);
                }
            }
        }
        outcome
    }
}

impl Recovery {
    /// True if `bytes_in_flight` equals the sum of outstanding
    /// ack-eliciting packet sizes — the accounting identity the congestion
    /// controller depends on — and the outstanding counters match the
    /// ring. Only compiled for invariant-checking builds (it walks the
    /// whole ring).
    #[cfg(any(debug_assertions, feature = "invariants"))]
    pub fn flight_accounting_consistent(&self) -> bool {
        let live = || self.sent.iter().filter(|s| s.outstanding);
        let eliciting = || live().filter(|s| s.packet.ack_eliciting);
        let sum: u64 = eliciting().map(|s| s.packet.size).sum();
        sum == self.bytes_in_flight
            && live().count() == self.outstanding
            && eliciting().count() == self.ack_eliciting_outstanding
    }
}

impl Recovery {
    /// Removes every outstanding packet and returns all retransmittable
    /// frames — used when a path is closed or migrated and its in-flight
    /// data must move elsewhere wholesale.
    pub fn surrender_all(&mut self) -> Vec<Frame> {
        self.loss_time = None;
        self.rto_reference = None;
        let mut frames = Vec::new();
        self.resolve_all(&mut frames);
        self.bytes_in_flight = 0;
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtt::DEFAULT_INITIAL_RTT;
    use bytes::Bytes;
    use mpquic_util::{check, DetRng};
    use mpquic_wire::StreamFrame;

    fn stream_frame(tag: u8) -> Frame {
        Frame::Stream(StreamFrame {
            stream_id: 1,
            offset: u64::from(tag) * 100,
            data: Bytes::from(vec![tag; 10]),
            fin: false,
        })
    }

    fn send(r: &mut Recovery, now_ms: u64, size: u64) -> u64 {
        let pn = r.next_packet_number();
        r.on_packet_sent(SentPacket {
            packet_number: pn,
            time_sent: SimTime::from_millis(now_ms),
            size,
            ack_eliciting: true,
            frames: vec![stream_frame(pn as u8)],
        });
        pn
    }

    fn rtt() -> RttEstimator {
        RttEstimator::new(DEFAULT_INITIAL_RTT)
    }

    #[test]
    fn ack_removes_from_flight_and_samples_rtt() {
        let mut r = Recovery::new();
        let mut est = rtt();
        let pn = send(&mut r, 0, 1000);
        assert_eq!(r.bytes_in_flight(), 1000);
        let out = r.on_ack(
            SimTime::from_millis(40),
            [(pn, pn)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(out.newly_acked_bytes, 1000);
        assert_eq!(out.largest_newly_acked, Some(pn));
        assert!(out.rtt_sample_taken);
        assert_eq!(est.latest(), Duration::from_millis(40));
        assert_eq!(r.bytes_in_flight(), 0);
    }

    #[test]
    fn duplicate_ack_is_noop() {
        let mut r = Recovery::new();
        let mut est = rtt();
        let pn = send(&mut r, 0, 1000);
        let _ = r.on_ack(
            SimTime::from_millis(40),
            [(pn, pn)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        let out = r.on_ack(
            SimTime::from_millis(50),
            [(pn, pn)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(out.newly_acked_bytes, 0);
        assert!(out.largest_newly_acked.is_none());
        assert!(!out.rtt_sample_taken);
    }

    #[test]
    fn bogus_ack_of_unsent_packet_ignored() {
        let mut r = Recovery::new();
        let mut est = rtt();
        send(&mut r, 0, 1000);
        let out = r.on_ack(
            SimTime::from_millis(40),
            [(5, 9)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(out.newly_acked_bytes, 0);
        assert_eq!(r.bytes_in_flight(), 1000);
    }

    #[test]
    fn packet_threshold_loss() {
        let mut r = Recovery::new();
        let mut est = rtt();
        let p0 = send(&mut r, 0, 100);
        let _p1 = send(&mut r, 1, 100);
        let _p2 = send(&mut r, 2, 100);
        let p3 = send(&mut r, 3, 100);
        // Ack p3 only: p0 is three behind -> lost; p1, p2 not yet.
        let out = r.on_ack(
            SimTime::from_millis(40),
            [(p3, p3)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(out.lost_frames, vec![stream_frame(p0 as u8)]);
        assert!(out.congestion_event);
        assert_eq!(r.outstanding_packets(), 2);
    }

    #[test]
    fn one_congestion_event_per_epoch() {
        let mut r = Recovery::new();
        let mut est = rtt();
        for i in 0..8 {
            send(&mut r, i, 100);
        }
        // Ack pn 4: pns 0 and 1 lost -> one congestion event.
        let out = r.on_ack(
            SimTime::from_millis(40),
            [(4, 4)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(out.lost_frames.len(), 2);
        assert!(out.congestion_event);
        // Ack pn 6: pns 2 and 3 lost, but they were sent before the epoch
        // started -> no second congestion event.
        let out2 = r.on_ack(
            SimTime::from_millis(50),
            [(6, 6)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(out2.lost_frames.len(), 2);
        assert!(!out2.congestion_event);
    }

    #[test]
    fn time_threshold_arms_loss_timer() {
        let mut r = Recovery::new();
        let mut est = rtt();
        let p0 = send(&mut r, 0, 100);
        let p1 = send(&mut r, 5, 100);
        // Ack p1 at t=50: RTT sample = 45 ms, so the time threshold is
        // 9/8·45 ≈ 50.6 ms. p0 is only 1 behind (below the packet
        // threshold) and 50 ms old — just under the threshold — so the
        // loss timer must be armed rather than declaring it lost.
        let out = r.on_ack(
            SimTime::from_millis(50),
            [(p1, p1)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert!(out.lost_frames.is_empty());
        let (when, kind) = r.next_timeout(&est).expect("timer armed");
        assert_eq!(kind, TimeoutKind::LossTime);
        // Firing the timer declares p0 lost.
        let to = r.on_timeout(when, &est);
        assert_eq!(to.lost_frames, vec![stream_frame(p0 as u8)]);
        assert!(to.congestion_event);
        assert!(!to.rto_fired);
    }

    #[test]
    fn rto_surrenders_everything_and_backs_off() {
        let mut r = Recovery::new();
        let est = rtt();
        send(&mut r, 0, 100);
        send(&mut r, 10, 100);
        let (when, kind) = r.next_timeout(&est).unwrap();
        assert_eq!(kind, TimeoutKind::Rto);
        let out = r.on_timeout(when, &est);
        assert!(out.rto_fired);
        assert_eq!(out.lost_frames.len(), 2);
        assert_eq!(r.bytes_in_flight(), 0);
        assert_eq!(r.rto_count(), 1);
        assert_eq!(r.outstanding_packets(), 0);
        // Next RTO (after retransmission) doubles.
        send(&mut r, 1000, 100);
        let (when2, _) = r.next_timeout(&est).unwrap();
        let expected = SimTime::from_millis(1000) + est.rto() * 2;
        assert_eq!(when2, expected);
    }

    #[test]
    fn ack_resets_rto_backoff() {
        let mut r = Recovery::new();
        let mut est = rtt();
        send(&mut r, 0, 100);
        let (when, _) = r.next_timeout(&est).unwrap();
        let _ = r.on_timeout(when, &est);
        assert_eq!(r.rto_count(), 1);
        let pn = send(&mut r, 2000, 100);
        let _ = r.on_ack(
            SimTime::from_millis(2040),
            [(pn, pn)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(r.rto_count(), 0);
    }

    /// An ACK that makes progress restarts the timer while packets are
    /// still in flight, and its own loss pass may then declare them all
    /// lost: the next packet sent must not inherit that reference.
    #[test]
    fn a_flight_emptied_by_loss_detection_leaves_no_stale_rto() {
        let mut r = Recovery::new();
        let mut est = rtt();
        for i in 0..4 {
            send(&mut r, i, 100);
        }
        send(&mut r, 4_000, 100);
        let out = r.on_ack(
            SimTime::from_millis(4_040),
            [(4, 4)].into_iter(),
            Duration::ZERO,
            &mut est,
        );
        assert_eq!(out.lost_frames.len(), 4);
        assert!(!r.has_ack_eliciting_in_flight());
        let sent_at = SimTime::from_millis(9_000);
        send(&mut r, 9_000, 100);
        let (when, kind) = r.next_timeout(&est).expect("RTO armed");
        assert_eq!(kind, TimeoutKind::Rto);
        assert!(
            when > sent_at,
            "RTO at {when:?} for a packet sent at {sent_at:?}"
        );
    }

    #[test]
    fn timeout_before_deadline_is_noop() {
        let mut r = Recovery::new();
        let est = rtt();
        send(&mut r, 0, 100);
        let out = r.on_timeout(SimTime::from_millis(1), &est);
        assert!(out.lost_frames.is_empty());
        assert!(!out.rto_fired);
        assert_eq!(r.outstanding_packets(), 1);
    }

    #[test]
    fn no_timer_when_nothing_outstanding() {
        let r = Recovery::new();
        assert!(r.next_timeout(&rtt()).is_none());
    }

    #[test]
    fn non_ack_eliciting_packets_not_counted_in_flight() {
        let mut r = Recovery::new();
        let pn = r.next_packet_number();
        r.on_packet_sent(SentPacket {
            packet_number: pn,
            time_sent: SimTime::ZERO,
            size: 50,
            ack_eliciting: false,
            frames: vec![],
        });
        assert_eq!(r.bytes_in_flight(), 0);
        // And they don't arm the RTO.
        assert!(r.next_timeout(&rtt()).is_none());
    }

    #[test]
    fn surrender_all_empties_state() {
        let mut r = Recovery::new();
        let est = rtt();
        send(&mut r, 0, 100);
        send(&mut r, 5, 100);
        let frames = r.surrender_all();
        assert_eq!(frames.len(), 2);
        assert_eq!(r.bytes_in_flight(), 0);
        assert_eq!(r.outstanding_packets(), 0);
        assert!(r.next_timeout(&est).is_none());
        // Packet numbers keep increasing afterwards.
        let pn = r.next_packet_number();
        assert_eq!(pn, 2);
    }

    /// The sent map as it was before the ring — a `BTreeMap` keyed by
    /// packet number, walked and mutated through a packet-number scratch
    /// — kept as the oracle the ring must match step for step.
    mod oracle {
        use super::super::{AckOutcome, SentPacket, TimeoutKind, TimeoutOutcome, PACKET_THRESHOLD};
        use crate::rtt::RttEstimator;
        use mpquic_util::SimTime;
        use mpquic_wire::Frame;
        use std::collections::BTreeMap;
        use std::time::Duration;

        /// Loss-recovery state for one path's packet-number space.
        #[derive(Debug)]
        pub struct Oracle {
            /// Outstanding packets by packet number.
            sent: BTreeMap<u64, SentPacket>,
            /// Next packet number to assign.
            next_pn: u64,
            /// Largest packet number the peer has acknowledged.
            largest_acked: Option<u64>,
            /// Bytes currently in flight (ack-eliciting packets only).
            bytes_in_flight: u64,
            /// Earliest time at which an outstanding packet crosses the time
            /// threshold (the armed loss timer).
            loss_time: Option<SimTime>,
            /// Consecutive RTO count (exponential backoff).
            rto_count: u32,
            /// RTO reference point: set at the first outstanding send, restarted
            /// on every acknowledgement that makes progress (classic retransmit
            /// timer semantics — arming from the oldest packet's send time fires
            /// spuriously whenever serialization delays stretch the flight).
            rto_reference: Option<SimTime>,
            /// First packet number of the current congestion epoch: losses of
            /// packets sent before this do not trigger another window reduction.
            congestion_epoch_start: u64,
            /// Reusable packet-number scratch for ACK processing and loss
            /// detection: collecting pns before removal needs a buffer (the map
            /// cannot be mutated mid-iteration), and reusing one keeps the ACK
            /// path allocation-free at steady state like the egress side.
            scratch: Vec<u64>,
            /// Reusable backing store for [`AckOutcome::acked_frames`]: the
            /// outcome borrows it via `mem::take` and the connection hands it
            /// back through [`Oracle::reclaim`] once the frames are consumed,
            /// so steady-state ACKs reuse one high-water allocation instead of
            /// growing a fresh vector per ACK.
            frames_buf: Vec<Frame>,
        }

        impl Oracle {
            /// Fresh state for a new path.
            pub fn new() -> Oracle {
                Oracle {
                    sent: BTreeMap::new(),
                    next_pn: 0,
                    largest_acked: None,
                    bytes_in_flight: 0,
                    loss_time: None,
                    rto_count: 0,
                    rto_reference: None,
                    congestion_epoch_start: 0,
                    scratch: Vec::new(),
                    frames_buf: Vec::new(),
                }
            }

            /// Allocates the next packet number (monotonic, never reused).
            pub fn next_packet_number(&mut self) -> u64 {
                let pn = self.next_pn;
                self.next_pn += 1;
                pn
            }

            /// Jumps this space's counter forward so the next allocation returns
            /// `pn` — the shared-packet-number-space ablation routes every send
            /// through one connection-wide counter and reserves each value here,
            /// keeping the numbering owned by recovery. Never moves backwards.
            pub fn reserve_through(&mut self, pn: u64) {
                self.next_pn = self.next_pn.max(pn);
            }

            /// Bytes currently in flight.
            pub fn bytes_in_flight(&self) -> u64 {
                self.bytes_in_flight
            }

            /// The oldest outstanding packet's number.
            pub fn oldest_outstanding(&self) -> Option<u64> {
                self.sent.keys().next().copied()
            }

            /// Number of outstanding (tracked) packets.
            pub fn outstanding_packets(&self) -> usize {
                self.sent.len()
            }

            /// True if any ack-eliciting packet is outstanding.
            pub fn has_ack_eliciting_in_flight(&self) -> bool {
                self.sent.values().any(|p| p.ack_eliciting)
            }

            /// Current RTO backoff exponent.
            pub fn rto_count(&self) -> u32 {
                self.rto_count
            }

            /// Records a sent packet.
            pub fn on_packet_sent(&mut self, packet: SentPacket) {
                debug_assert!(packet.packet_number < self.next_pn);
                if packet.ack_eliciting {
                    if !self.has_ack_eliciting_in_flight() {
                        self.rto_reference = Some(packet.time_sent);
                    }
                    self.bytes_in_flight += packet.size;
                }
                self.sent.insert(packet.packet_number, packet);
            }

            /// Processes the ACK ranges `(start, end)` (ascending) for this path.
            pub fn on_ack(
                &mut self,
                now: SimTime,
                ranges: impl Iterator<Item = (u64, u64)>,
                ack_delay: Duration,
                rtt: &mut RttEstimator,
            ) -> AckOutcome {
                // Acked frames accumulate into the reusable buffer; the caller
                // returns it via [`Oracle::reclaim`] after consuming them.
                let mut acked_frames = std::mem::take(&mut self.frames_buf);
                acked_frames.clear();
                let mut outcome = AckOutcome {
                    acked_frames,
                    ..AckOutcome::default()
                };
                let mut largest_newly_acked: Option<(u64, SimTime, bool)> = None;
                for (start, end) in ranges {
                    if end >= self.next_pn {
                        // Acking packets we never sent: ignore the bogus range.
                        continue;
                    }
                    // Collect outstanding pns within the range into the reusable
                    // scratch (taken out of `self` so the map stays borrowable).
                    let mut pns = std::mem::take(&mut self.scratch);
                    pns.clear();
                    pns.extend(self.sent.range(start..=end).map(|(&pn, _)| pn));
                    for &pn in &pns {
                        let packet = self.sent.remove(&pn).expect("pn listed");
                        if packet.ack_eliciting {
                            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(packet.size);
                            outcome.newly_acked_bytes += packet.size;
                        }
                        let is_new_largest = largest_newly_acked.is_none_or(|(l, _, _)| pn > l);
                        if is_new_largest {
                            largest_newly_acked =
                                Some((pn, packet.time_sent, packet.ack_eliciting));
                        }
                        outcome.acked_frames.extend(packet.frames);
                    }
                    self.scratch = pns;
                    self.largest_acked = Some(self.largest_acked.map_or(end, |l| l.max(end)));
                }
                if let Some((pn, time_sent, ack_eliciting)) = largest_newly_acked {
                    outcome.largest_newly_acked = Some(pn);
                    // Take an RTT sample only when the largest acked packet is
                    // newly acknowledged and was ack-eliciting (RFC 9002 §5.1).
                    if Some(pn) == self.largest_acked && ack_eliciting {
                        rtt.on_sample(time_sent, now, ack_delay);
                        outcome.rtt_sample_taken = true;
                    }
                    // Forward progress: reset the RTO backoff and restart the
                    // retransmission timer.
                    self.rto_count = 0;
                    self.rto_reference = if self.has_ack_eliciting_in_flight() {
                        Some(now)
                    } else {
                        None
                    };
                }
                // Loss detection pass.
                let (lost_frames, lost_bytes, congestion_event) = self.detect_lost(now, rtt);
                outcome.lost_frames = lost_frames;
                outcome.lost_bytes = lost_bytes;
                outcome.congestion_event = congestion_event;
                outcome
            }

            /// Declares packets lost by packet threshold or time threshold and
            /// re-arms the loss timer. Returns `(frames, bytes, congestion_event)`.
            fn detect_lost(&mut self, now: SimTime, rtt: &RttEstimator) -> (Vec<Frame>, u64, bool) {
                self.loss_time = None;
                let Some(largest_acked) = self.largest_acked else {
                    return (Vec::new(), 0, false);
                };
                let threshold = rtt.loss_time_threshold();
                let mut lost_frames = Vec::new();
                let mut lost_bytes = 0;
                let mut congestion_event = false;
                let mut lost_pns = std::mem::take(&mut self.scratch);
                lost_pns.clear();
                for (&pn, packet) in self.sent.range(..largest_acked) {
                    let by_count = pn + PACKET_THRESHOLD <= largest_acked;
                    let deadline = packet.time_sent + threshold;
                    let by_time = deadline <= now;
                    if by_count || by_time {
                        lost_pns.push(pn);
                    } else {
                        // Earliest still-outstanding candidate arms the timer.
                        self.loss_time = Some(self.loss_time.map_or(deadline, |t| t.min(deadline)));
                    }
                }
                for &pn in &lost_pns {
                    let packet = self.sent.remove(&pn).expect("pn listed");
                    if packet.ack_eliciting {
                        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(packet.size);
                    }
                    lost_bytes += packet.size;
                    if pn >= self.congestion_epoch_start {
                        congestion_event = true;
                    }
                    lost_frames.extend(packet.frames);
                }
                self.scratch = lost_pns;
                if congestion_event {
                    // Start a new epoch: further losses of already-sent packets
                    // belong to this same event.
                    self.congestion_epoch_start = self.next_pn;
                }
                (lost_frames, lost_bytes, congestion_event)
            }

            /// When the next timer fires, and which one.
            pub fn next_timeout(&self, rtt: &RttEstimator) -> Option<(SimTime, TimeoutKind)> {
                if let Some(t) = self.loss_time {
                    return Some((t, TimeoutKind::LossTime));
                }
                // RTO armed from the last progress point while ack-eliciting
                // data is outstanding.
                if !self.has_ack_eliciting_in_flight() {
                    return None;
                }
                let reference = self.rto_reference?;
                let backoff = 1u32 << self.rto_count.min(10);
                Some((reference + rtt.rto() * backoff, TimeoutKind::Rto))
            }

            /// Handles an expired timer.
            ///
            /// * Loss timer → time-threshold losses are declared.
            /// * RTO → **all** outstanding packets are surrendered for
            ///   retransmission (the connection re-schedules them, possibly on
            ///   another path) and the backoff doubles.
            pub fn on_timeout(&mut self, now: SimTime, rtt: &RttEstimator) -> TimeoutOutcome {
                let mut outcome = TimeoutOutcome::default();
                if let Some((when, kind)) = self.next_timeout(rtt) {
                    if when > now {
                        return outcome;
                    }
                    match kind {
                        TimeoutKind::LossTime => {
                            let (frames, bytes, event) = self.detect_lost(now, rtt);
                            outcome.lost_frames = frames;
                            outcome.lost_bytes = bytes;
                            outcome.congestion_event = event;
                        }
                        TimeoutKind::Rto => {
                            self.rto_count += 1;
                            self.rto_reference = None;
                            outcome.rto_fired = true;
                            outcome.congestion_event = true;
                            self.congestion_epoch_start = self.next_pn;
                            let mut pns = std::mem::take(&mut self.scratch);
                            pns.clear();
                            pns.extend(self.sent.keys().copied());
                            for &pn in &pns {
                                let packet = self.sent.remove(&pn).expect("listed");
                                if packet.ack_eliciting {
                                    self.bytes_in_flight =
                                        self.bytes_in_flight.saturating_sub(packet.size);
                                }
                                outcome.lost_bytes += packet.size;
                                outcome.lost_frames.extend(packet.frames);
                            }
                            self.scratch = pns;
                        }
                    }
                }
                outcome
            }
        }

        impl Oracle {
            /// Removes every outstanding packet and returns all retransmittable
            /// frames — used when a path is closed or migrated and its in-flight
            /// data must move elsewhere wholesale.
            pub fn surrender_all(&mut self) -> Vec<Frame> {
                self.loss_time = None;
                self.rto_reference = None;
                self.bytes_in_flight = 0;
                let mut frames = Vec::new();
                for (_, packet) in std::mem::take(&mut self.sent) {
                    frames.extend(packet.frames);
                }
                frames
            }
        }
    }

    /// One step of a sender's life, for the ring-vs-oracle property.
    #[derive(Debug, Clone)]
    enum Op {
        /// Send a packet after skipping `gap` numbers, as another path's
        /// sends make a path skip them under the shared-space ablation.
        Send {
            gap: u64,
            size: u64,
            ack_eliciting: bool,
            frames: u64,
        },
        /// An ACK frame's ranges in arrival order, each `(back, len)`:
        /// ending `back` below the next packet number (0 acks a packet
        /// never sent) and spanning `len + 1` numbers. Ranges overlap,
        /// repeat and come in any order.
        Ack {
            ranges: Vec<(u64, u64)>,
            delay_us: u64,
        },
        /// Time passes.
        Advance { ms: u64 },
        /// The timer is served at its deadline (now, if none is armed).
        Timeout,
        /// The path is closed and everything in flight surrendered.
        Surrender,
    }

    fn op(rng: &mut DetRng) -> Op {
        match rng.next_below(100) {
            0..=44 => Op::Send {
                gap: if rng.bool(0.3) { rng.next_below(4) } else { 0 },
                size: 40 + rng.next_below(1300),
                ack_eliciting: rng.bool(0.9),
                frames: rng.next_below(3),
            },
            45..=74 => Op::Ack {
                ranges: check::vec(rng, 1..5, |rng| (rng.next_below(12), rng.next_below(6))),
                delay_us: rng.next_below(5_000),
            },
            75..=89 => Op::Advance {
                ms: rng.next_below(80),
            },
            90..=97 => Op::Timeout,
            _ => Op::Surrender,
        }
    }

    /// The ring and the `BTreeMap` oracle, driven by the same random
    /// sends (with packet-number gaps), ACKs (overlapping, duplicate,
    /// out-of-order and bogus ranges), clock advances, loss timers, RTOs
    /// and surrenders, agree after every step on every outcome, on the
    /// timers, the flight and the RTT estimate; and the ring never holds
    /// more slots than packets sent since the oldest outstanding one.
    #[test]
    fn ring_matches_the_btreemap_oracle() {
        check::check(
            0x5e47_4a11,
            check::CASES,
            |rng| check::vec(rng, 50..300, op),
            |ops| {
                let mut ring = Recovery::new();
                let mut map = oracle::Oracle::new();
                let (mut ring_rtt, mut map_rtt) = (rtt(), rtt());
                let mut now = SimTime::ZERO;
                let mut tag = 0;
                let mut sent: Vec<u64> = Vec::new();
                for (step, op) in ops.into_iter().enumerate() {
                    match op {
                        Op::Send {
                            gap,
                            size,
                            ack_eliciting,
                            frames,
                        } => {
                            let pn = ring.next_pn_peek() + gap;
                            ring.reserve_through(pn);
                            map.reserve_through(pn);
                            let pn = ring.next_packet_number();
                            assert_eq!(map.next_packet_number(), pn);
                            let frames = (0..frames)
                                .map(|_| {
                                    tag += 1;
                                    Frame::WindowUpdate {
                                        stream_id: 0,
                                        max_data: tag,
                                    }
                                })
                                .collect();
                            let packet = SentPacket {
                                packet_number: pn,
                                time_sent: now,
                                size,
                                ack_eliciting,
                                frames,
                            };
                            map.on_packet_sent(packet.clone());
                            ring.on_packet_sent(packet);
                            sent.push(pn);
                        }
                        Op::Ack { ranges, delay_us } => {
                            let next = ring.next_pn_peek();
                            let ranges: Vec<(u64, u64)> = ranges
                                .iter()
                                .map(|&(back, len)| {
                                    let end = next.saturating_sub(back);
                                    (end.saturating_sub(len), end)
                                })
                                .collect();
                            let delay = Duration::from_micros(delay_us);
                            let a = ring.on_ack(now, ranges.iter().copied(), delay, &mut ring_rtt);
                            let b = map.on_ack(now, ranges.iter().copied(), delay, &mut map_rtt);
                            assert_eq!(a.acked_frames, b.acked_frames, "step {step}: acked");
                            assert_eq!(a.lost_frames, b.lost_frames, "step {step}: lost");
                            assert_eq!(
                                (a.newly_acked_bytes, a.largest_newly_acked, a.lost_bytes),
                                (b.newly_acked_bytes, b.largest_newly_acked, b.lost_bytes),
                                "step {step}: byte counts"
                            );
                            assert_eq!(
                                (a.rtt_sample_taken, a.congestion_event),
                                (b.rtt_sample_taken, b.congestion_event),
                                "step {step}: RTT sample, congestion event"
                            );
                            ring.reclaim(a);
                        }
                        Op::Advance { ms } => now += Duration::from_millis(ms),
                        Op::Timeout => {
                            if let Some((when, _)) = map.next_timeout(&map_rtt) {
                                now = now.max(when);
                            }
                            let a = ring.on_timeout(now, &ring_rtt);
                            let b = map.on_timeout(now, &map_rtt);
                            assert_eq!(a.lost_frames, b.lost_frames, "step {step}: lost");
                            assert_eq!(
                                (a.lost_bytes, a.congestion_event, a.rto_fired),
                                (b.lost_bytes, b.congestion_event, b.rto_fired),
                                "step {step}: timeout outcome"
                            );
                        }
                        Op::Surrender => {
                            assert_eq!(ring.surrender_all(), map.surrender_all(), "step {step}");
                        }
                    }
                    assert_eq!(
                        ring.next_timeout(&ring_rtt),
                        map.next_timeout(&map_rtt),
                        "step {step}: next timeout"
                    );
                    assert_eq!(
                        (ring.bytes_in_flight(), ring.outstanding_packets()),
                        (map.bytes_in_flight(), map.outstanding_packets()),
                        "step {step}: flight"
                    );
                    assert_eq!(
                        (ring.has_ack_eliciting_in_flight(), ring.rto_count()),
                        (map.has_ack_eliciting_in_flight(), map.rto_count()),
                        "step {step}: RTO state"
                    );
                    assert_eq!(
                        (ring_rtt.srtt(), ring_rtt.latest()),
                        (map_rtt.srtt(), map_rtt.latest()),
                        "step {step}: RTT estimate"
                    );
                    let since_oldest = map
                        .oldest_outstanding()
                        .map_or(0, |oldest| sent.iter().filter(|&&pn| pn >= oldest).count());
                    assert!(
                        ring.sent.len() <= since_oldest,
                        "step {step}: {} slots for {since_oldest} packets since the oldest \
                         outstanding one",
                        ring.sent.len()
                    );
                }
            },
        );
    }

    #[test]
    fn packet_numbers_monotonic() {
        let mut r = Recovery::new();
        let a = r.next_packet_number();
        let b = r.next_packet_number();
        assert!(b > a);
    }
}
