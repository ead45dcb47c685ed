//! A frame's three fates, side by side: it arrives
//! ([`Connection::handle_frame`]), the packet that carried it is
//! acknowledged ([`Connection::on_frame_acked`]) or it is lost
//! ([`Connection::requeue_lost_frames`]). Each is one exhaustive `match`
//! over [`Frame`], so `cargo xtask lint` finds a new variant that any of
//! them forgets.

use mpquic_util::SimTime;
use mpquic_wire::{AckFrame, Frame, PathId, StreamFrame};
use std::ops::Range;

use super::Connection;
use crate::config::Role;
use mpquic_telemetry as telemetry;

impl Connection {
    /// Dispatches one received frame; its STREAM or CRYPTO payload is a
    /// span of `plaintext`, the packet it came in.
    pub(super) fn handle_frame(
        &mut self,
        now: SimTime,
        on_path: PathId,
        frame: Frame<Range<usize>>,
        plaintext: &[u8],
    ) {
        match frame {
            Frame::Padding { .. } | Frame::Ping => {}
            Frame::Crypto { data, .. } => {
                let completed = self
                    .handshake
                    .on_crypto(plaintext.get(data).unwrap_or_default());
                if completed && self.role == Role::Server {
                    self.paths.advertise(&mut self.control_queue);
                }
            }
            Frame::Ack(ack) => {
                // Decode enforces the cap/layout; this asserts that
                // postcondition actually held (paper: ≤256 ranges).
                self.invariants.check_ack_frame(&ack, "received");
                self.handle_ack(now, on_path, &ack);
                self.scratch.recycle_ack_ranges(ack.ranges);
            }
            Frame::Stream(f) => {
                let frame = StreamFrame {
                    stream_id: f.stream_id,
                    offset: f.offset,
                    data: plaintext.get(f.data).unwrap_or_default(),
                    fin: f.fin,
                };
                if let Err((code, reason)) = self.streams.on_frame(&frame) {
                    self.close(code, reason);
                }
            }
            Frame::WindowUpdate {
                stream_id,
                max_data,
            } => self.streams.on_window_update(stream_id, max_data),
            Frame::Blocked { .. } => {}
            Frame::RstStream { stream_id, .. } => self.streams.on_reset(stream_id),
            Frame::ConnectionClose { error_code, reason } => self.conclude(error_code, reason),
            Frame::AddAddress(info) => self.paths.on_add_address(info),
            Frame::Paths(infos) => self.paths.on_peer_paths(now, infos, &mut *self.subscriber),
            // Echo on the challenged path while it can carry it (RFC 9000
            // §8.2.2); the challenger accepts it on any path (§8.2.3).
            Frame::PathChallenge { token } => {
                self.paths.bind(on_path, Frame::PathResponse { token })
            }
            Frame::PathResponse { token } => {
                // On the server, a validated migration also rotates the
                // CID, so that no observer links the old and new address.
                let events = &mut *self.subscriber;
                if self.paths.on_response(now, token, events) && self.role == Role::Server {
                    self.rotate_cid();
                }
            }
            Frame::NewConnectionId { sequence, cid } => {
                let (control, events) = (&mut self.control_queue, &mut *self.subscriber);
                self.paths.adopt_cid(now, (sequence, cid), control, events);
            }
            Frame::RetireConnectionId { sequence } => {
                self.paths.on_retire(now, sequence, &mut *self.subscriber)
            }
        }
    }

    /// Delivery confirmation for one retransmittable frame (the on-ack
    /// twin of [`Connection::requeue_lost_frames`]). Deliberately an
    /// exhaustive match — `cargo xtask lint` checks every [`Frame`]
    /// variant appears here so a new frame type cannot silently skip its
    /// acked bookkeeping.
    fn on_frame_acked(&mut self, frame: Frame) {
        match frame {
            Frame::Stream(f) => self.streams.on_acked(&f),
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

    /// Routes reliable frames from lost (or surrendered) packets back to
    /// their retransmission queues. `from_path` is the path the frames
    /// originally travelled on — recorded in the `frame_retransmitted`
    /// telemetry event; the retransmission itself is rescheduled and may
    /// leave on any path.
    pub(super) fn requeue_lost_frames(
        &mut self,
        now: SimTime,
        from_path: PathId,
        frames: impl IntoIterator<Item = Frame>,
    ) {
        for frame in frames {
            self.stats.frames_retransmitted += 1;
            let kind = frame.frame_type().name();
            match frame {
                Frame::Stream(f) => self.streams.on_lost(f),
                Frame::Crypto { .. } => self.handshake.queue().push_back(frame),
                Frame::Paths(_) => self.paths.queue_paths_frame(&mut self.control_queue),
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

    /// Applies an ACK to the path it acknowledges: recovery, congestion
    /// control and telemetry, then each acked and lost frame's fate.
    fn handle_ack(&mut self, now: SimTime, on_path: PathId, ack: &AckFrame) {
        let Some(mut outcome) = self.paths.on_ack(now, ack) else {
            return;
        };
        let id = ack.path_id;
        let Some(path) = self.paths.get_mut(id) else {
            return;
        };
        // The metrics are read before a congestion event cuts the window.
        let metrics = telemetry::MetricsUpdated {
            time: now,
            path: id,
            srtt_us: path.rtt.srtt().as_micros() as u64,
            rttvar_us: path.rtt.rttvar().as_micros() as u64,
            cwnd: path.cc.window(),
            bytes_in_flight: path.recovery.bytes_in_flight(),
        };
        let window_after = outcome.congestion_event.then(|| {
            path.cc.on_congestion_event(now);
            path.cc.window()
        });
        self.stats.congestion_events += u64::from(outcome.congestion_event);
        self.emit(telemetry::Event::AckReceived(telemetry::AckReceived {
            time: now,
            on_path,
            acks_path: id,
            largest_acked: ack.largest_acked,
            newly_acked_bytes: outcome.newly_acked_bytes,
        }));
        if outcome.newly_acked_bytes > 0 {
            self.emit(telemetry::Event::MetricsUpdated(metrics));
            self.paths.on_progress(now, id, &mut *self.subscriber);
        }
        if let Some(window_after) = window_after {
            let event = telemetry::CongestionEvent {
                time: now,
                path: id,
                window_after,
            };
            self.emit(telemetry::Event::CongestionEvent(event));
        }
        if outcome.lost_bytes > 0 {
            self.emit(telemetry::Event::FramesLost(telemetry::FramesLost {
                time: now,
                path: id,
                frames: outcome.lost_frames.len(),
                bytes: outcome.lost_bytes,
            }));
        }
        for frame in outcome.acked_frames.drain(..) {
            self.on_frame_acked(frame);
        }
        self.requeue_lost_frames(now, id, outcome.lost_frames.drain(..));
        // Hand the outcome's spent buffers back so the next ACK on this
        // path reuses their capacity (the steady-state zero-alloc claim).
        if let Some(path) = self.paths.get_mut(id) {
            path.recovery.reclaim(outcome);
        }
    }
}
