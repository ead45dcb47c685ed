//! The connection's reusable buffers, each with where it is filled and
//! where it goes back: a warm datapath allocates nothing because every
//! vector here keeps the capacity it grew to. Inside the no-panic lint
//! scope (`cargo xtask lint`).

use mpquic_crypto::Aead;
use mpquic_wire::{Frame, Spans};
use std::ops::Range;

use crate::path::Path;

/// Reusable buffers of ingress, ACKs and WINDOW_UPDATEs.
#[derive(Default)]
pub(super) struct Scratch {
    /// A datagram's payload, opened straight from the receive buffer.
    pub(super) open: Vec<u8>,
    /// The opened payload's frames; STREAM and CRYPTO payloads are spans
    /// of `open`.
    pub(super) frames: Vec<Frame<Range<usize>>>,
    /// Range vectors of ACK frames sent and received, for the next ACK
    /// built or decoded.
    ack_ranges: Vec<Vec<(u64, u64)>>,
    /// The WINDOW_UPDATE frames a poll generates.
    pub(super) window_updates: Vec<Frame>,
}

impl Scratch {
    /// Opens a packet's `sealed` payload into `open` and decodes it into
    /// `frames`; false when it fails to authenticate or to parse.
    pub(super) fn open(
        &mut self,
        aead: &Aead,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> bool {
        self.recycle_decoded();
        self.open.clear();
        if aead.open_into(nonce, aad, sealed, &mut self.open).is_err() {
            return false;
        }
        let spans = Spans::new(self.open.as_slice(), &mut self.ack_ranges);
        Frame::decode_all_from(spans, &mut self.frames).is_ok()
    }

    /// Hands the ACK range vectors of frames the last packet left
    /// undispatched (a duplicate, or one on a path this side may not
    /// open) back to the pool they were decoded from.
    fn recycle_decoded(&mut self) {
        for frame in self.frames.drain(..) {
            if let Frame::Ack(ack) = frame {
                self.ack_ranges.push(ack.ranges);
            }
        }
    }

    /// A range vector for the next ACK frame built.
    pub(super) fn ack_ranges(&mut self) -> Vec<(u64, u64)> {
        self.ack_ranges.pop().unwrap_or_default()
    }

    /// Takes back the range vector of an ACK frame dispatched or not sent.
    pub(super) fn recycle_ack_ranges(&mut self, ranges: Vec<(u64, u64)>) {
        self.ack_ranges.push(ranges);
    }

    /// Reduces a packet's frames to the retransmittable ones, which loss
    /// recovery tracks; ACK range vectors go back to the pool.
    pub(super) fn keep_retransmittable(&mut self, frames: &mut Vec<Frame>) {
        for frame in frames.iter_mut() {
            if let Frame::Ack(ack) = frame {
                self.ack_ranges.push(std::mem::take(&mut ack.ranges));
            }
        }
        frames.retain(Frame::is_retransmittable);
    }

    /// Returns the frame vector of a packet that will not be sent to the
    /// pool of `path`'s recovery, which lent it.
    pub(super) fn recycle_frames(&mut self, path: Option<&mut Path>, mut frames: Vec<Frame>) {
        self.keep_retransmittable(&mut frames);
        if let Some(path) = path {
            path.recovery.recycle_frame_vec(frames);
        }
    }
}
