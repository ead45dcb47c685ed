//! Stream state: ordered byte streams multiplexed over the connection.
//!
//! STREAM frames carry `(stream id, offset)` so the receiver can reorder
//! data that arrived over *different paths* — the property that lets
//! MPQUIC spread one stream across heterogeneous paths without any extra
//! sequence-number layer (unlike MPTCP's DSS mapping).
//!
//! The send side does not keep a copy of transmitted data: when a packet
//! is lost, recovery hands its STREAM frames back and [`SendStream::on_lost`]
//! re-queues exactly the byte ranges that have not been acknowledged in
//! the meantime (data may have been acked on another path — duplication
//! and cross-path retransmission make that common).

use bytes::{Buf, Bytes};
use mpquic_util::RangeSet;
use mpquic_wire::StreamFrame;
use std::collections::{BTreeMap, VecDeque};

/// Stream identifier type. Stream IDs are chosen by the opener: clients
/// use odd IDs (1, 3, ...), servers even IDs (2, 4, ...); 0 is reserved.
pub type StreamId = u64;

/// Errors surfaced by stream machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// Peer exceeded the stream flow-control limit we advertised.
    FlowControlViolated,
    /// Peer moved the FIN offset or sent data past it.
    FinalSizeChanged,
    /// Write after `finish()`.
    WriteAfterFinish,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::FlowControlViolated => write!(f, "stream flow control violated"),
            StreamError::FinalSizeChanged => write!(f, "stream final size changed"),
            StreamError::WriteAfterFinish => write!(f, "write after finish"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Sending half of a stream.
#[derive(Debug)]
pub struct SendStream {
    id: StreamId,
    /// Data accepted from the application but not yet sent.
    pending: VecDeque<Bytes>,
    /// Total bytes accepted from the application.
    write_offset: u64,
    /// Offset of the first never-yet-sent byte.
    next_send_offset: u64,
    /// Stream length once `finish()` is called.
    fin_offset: Option<u64>,
    /// True once a frame with FIN has been handed out at least once.
    fin_sent: bool,
    /// True once the FIN has been acknowledged.
    fin_acked: bool,
    /// Byte ranges the peer has acknowledged.
    acked: RangeSet,
    /// Lost byte ranges awaiting retransmission (data re-queued by loss
    /// recovery, already trimmed against `acked`).
    retransmit: VecDeque<StreamFrame>,
    /// Peer's flow-control limit for this stream (max offset we may send).
    pub max_data_remote: u64,
    /// True if we reported being blocked since the last limit increase.
    blocked_reported: bool,
}

impl SendStream {
    /// Creates the sending half with the peer's initial stream window.
    pub fn new(id: StreamId, initial_max_data: u64) -> SendStream {
        SendStream {
            id,
            pending: VecDeque::new(),
            write_offset: 0,
            next_send_offset: 0,
            fin_offset: None,
            fin_sent: false,
            fin_acked: false,
            acked: RangeSet::new(),
            retransmit: VecDeque::new(),
            max_data_remote: initial_max_data,
            blocked_reported: false,
        }
    }

    /// Stream ID.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Appends application data. Returns an error after `finish()`.
    pub fn write(&mut self, data: Bytes) -> Result<(), StreamError> {
        if self.fin_offset.is_some() {
            return Err(StreamError::WriteAfterFinish);
        }
        self.write_offset += data.len() as u64;
        if !data.is_empty() {
            self.pending.push_back(data);
        }
        Ok(())
    }

    /// Marks the end of the stream at the current write offset.
    pub fn finish(&mut self) {
        if self.fin_offset.is_none() {
            self.fin_offset = Some(self.write_offset);
        }
    }

    /// True once every byte (and the FIN) has been acknowledged.
    pub fn is_fully_acked(&self) -> bool {
        match self.fin_offset {
            Some(fin) => {
                self.fin_acked
                    && (fin == 0
                        || (self.acked.min() == Some(0)
                            && self.acked.max() == Some(fin - 1)
                            && self.acked.range_count() == 1))
            }
            None => false,
        }
    }

    /// True if the stream has anything to transmit right now (new data
    /// within the peer's limit, retransmissions, or an unsent FIN).
    pub fn wants_to_send(&self) -> bool {
        if !self.retransmit.is_empty() {
            return true;
        }
        let has_new = self.next_send_offset < self.write_offset
            && self.next_send_offset < self.max_data_remote;
        let fin_pending = self.fin_offset.is_some()
            && !self.fin_sent
            && self.next_send_offset >= self.write_offset;
        has_new || fin_pending
    }

    /// True if new data exists but the peer's stream limit blocks it.
    pub fn is_blocked(&self) -> bool {
        self.next_send_offset < self.write_offset
            && self.next_send_offset >= self.max_data_remote
            && self.retransmit.is_empty()
    }

    /// Reports whether a BLOCKED frame should be emitted (once per
    /// blocking episode).
    pub fn should_report_blocked(&mut self) -> bool {
        if self.is_blocked() && !self.blocked_reported {
            self.blocked_reported = true;
            true
        } else {
            false
        }
    }

    /// Raises the peer's stream flow-control limit.
    pub fn on_max_stream_data(&mut self, max_data: u64) {
        if max_data > self.max_data_remote {
            self.max_data_remote = max_data;
            self.blocked_reported = false;
        }
    }

    /// Produces the next frame to send, at most `max_payload` data bytes
    /// and at most `conn_credit` bytes of *new* (never-sent) data.
    ///
    /// Retransmissions are preferred and do not consume new connection
    /// credit (their offsets were already counted when first sent).
    /// Returns the frame and how many new-data bytes it consumed.
    pub fn next_frame(
        &mut self,
        max_payload: usize,
        conn_credit: u64,
    ) -> Option<(StreamFrame, u64)> {
        // 1. Retransmissions first.
        if let Some(mut frame) = self.retransmit.pop_front() {
            if frame.data.len() > max_payload && max_payload > 0 {
                // Split: send the head, re-queue the tail.
                let tail_data = frame.data.split_off(max_payload);
                let tail = StreamFrame {
                    stream_id: frame.stream_id,
                    offset: frame.offset + max_payload as u64,
                    data: tail_data,
                    fin: frame.fin,
                };
                frame.fin = false;
                self.retransmit.push_front(tail);
            } else if frame.data.len() > max_payload {
                self.retransmit.push_front(frame);
                return None;
            }
            if frame.fin {
                self.fin_sent = true;
            }
            return Some((frame, 0));
        }
        // 2. New data within stream and connection limits.
        let fc_limit = self
            .max_data_remote
            .min(self.next_send_offset.saturating_add(conn_credit));
        let sendable = self
            .write_offset
            .min(fc_limit)
            .saturating_sub(self.next_send_offset);
        let offset = self.next_send_offset;
        let data = self.take_pending((sendable as usize).min(max_payload));
        let len = data.len();
        self.next_send_offset += len as u64;
        // FIN rides on the frame that reaches the final offset.
        let fin = self.fin_offset == Some(self.next_send_offset)
            && self.next_send_offset >= self.write_offset
            && !self.fin_sent;
        if len == 0 && !fin {
            return None;
        }
        if fin {
            self.fin_sent = true;
        }
        Some((
            StreamFrame {
                stream_id: self.id,
                offset,
                data,
                fin,
            },
            len as u64,
        ))
    }

    /// Removes the next `len` unsent bytes from `pending`: a view of the
    /// application's own buffer wherever one written chunk holds them
    /// all (the frame then pins that buffer until it is acknowledged), a
    /// copy only when the frame straddles two written chunks.
    fn take_pending(&mut self, len: usize) -> Bytes {
        match self.pending.front_mut() {
            Some(front) if front.len() > len => front.split_to(len),
            Some(front) if front.len() < len => {
                let mut data = Vec::with_capacity(len);
                while data.len() < len {
                    let Some(chunk) = self.pending.front_mut() else {
                        break;
                    };
                    let take = (len - data.len()).min(chunk.len());
                    data.extend_from_slice(&chunk[..take]);
                    chunk.advance(take);
                    if chunk.is_empty() {
                        self.pending.pop_front();
                    }
                }
                Bytes::from(data)
            }
            // Exactly the front chunk (or nothing written, for a bare FIN).
            _ => self.pending.pop_front().unwrap_or_default(),
        }
    }

    /// Records acknowledgement of a previously sent frame.
    pub fn on_acked(&mut self, offset: u64, len: u64, fin: bool) {
        if len > 0 {
            self.acked.insert_range(offset, offset + len - 1);
        }
        if fin {
            self.fin_acked = true;
        }
    }

    /// Re-queues a lost frame, minus any ranges acknowledged since (e.g.
    /// via a duplicate sent on another path).
    pub fn on_lost(&mut self, frame: StreamFrame) {
        let mut remaining = RangeSet::new();
        if !frame.data.is_empty() {
            remaining.insert_range(frame.offset, frame.offset + frame.data.len() as u64 - 1);
            for acked in self.acked.iter() {
                remaining.remove_range(*acked.start(), *acked.end());
            }
        }
        let fin_needed = frame.fin && !self.fin_acked;
        let mut fin_attached = false;
        let sub_ranges: Vec<(u64, u64)> =
            remaining.iter().map(|r| (*r.start(), *r.end())).collect();
        for (start, end) in &sub_ranges {
            let rel = (start - frame.offset) as usize;
            let len = (end - start + 1) as usize;
            let data = frame.data.slice(rel..rel + len);
            // FIN re-attaches to the final fragment.
            let fin = fin_needed && frame.offset + frame.data.len() as u64 == end + 1;
            fin_attached |= fin;
            self.retransmit.push_back(StreamFrame {
                stream_id: frame.stream_id,
                offset: *start,
                data,
                fin,
            });
        }
        if fin_needed && !fin_attached {
            // All data was acked elsewhere but the FIN still needs delivery.
            self.retransmit.push_back(StreamFrame {
                stream_id: frame.stream_id,
                offset: frame.offset + frame.data.len() as u64,
                data: Bytes::new(),
                fin: true,
            });
        }
    }

    /// Total bytes accepted from the application.
    pub fn write_offset(&self) -> u64 {
        self.write_offset
    }

    /// Offset of the first never-sent byte.
    pub fn next_send_offset(&self) -> u64 {
        self.next_send_offset
    }
}

/// Receiving half of a stream.
#[derive(Debug)]
pub struct RecvStream {
    id: StreamId,
    /// Out-of-order buffered chunks keyed by offset (non-overlapping).
    chunks: BTreeMap<u64, Bytes>,
    /// Byte ranges received so far.
    received: RangeSet,
    /// Next offset the application will read.
    read_offset: u64,
    /// Stream length, once the FIN was seen.
    fin_offset: Option<u64>,
    /// Our advertised flow-control limit (max offset the peer may send).
    max_data_local: u64,
    /// Flow-control window size used when extending the limit.
    window: u64,
    /// Limit value most recently advertised in a WINDOW_UPDATE.
    advertised: u64,
}

/// Outcome of receiving a STREAM frame.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RecvOutcome {
    /// Increase of the highest received offset (counted against the
    /// connection-level flow-control window).
    pub conn_window_consumed: u64,
    /// True if new in-order data became readable.
    pub readable: bool,
    /// True if this frame completed the stream (FIN present or already
    /// known and all bytes received).
    pub finished: bool,
}

impl RecvStream {
    /// Creates the receiving half with our advertised window.
    pub fn new(id: StreamId, window: u64) -> RecvStream {
        RecvStream {
            id,
            chunks: BTreeMap::new(),
            received: RangeSet::new(),
            read_offset: 0,
            fin_offset: None,
            max_data_local: window,
            window,
            advertised: window,
        }
    }

    /// Stream ID.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Handles an incoming STREAM frame (duplicates and overlaps allowed —
    /// the duplication scheduler produces them by design).
    pub fn on_frame(&mut self, frame: &StreamFrame) -> Result<RecvOutcome, StreamError> {
        let mut outcome = RecvOutcome::default();
        let end = frame.offset + frame.data.len() as u64;
        if end > self.max_data_local {
            return Err(StreamError::FlowControlViolated);
        }
        if let Some(fin) = self.fin_offset {
            if end > fin || (frame.fin && end != fin) {
                return Err(StreamError::FinalSizeChanged);
            }
        }
        if frame.fin {
            if self.highest_received() > end {
                return Err(StreamError::FinalSizeChanged);
            }
            self.fin_offset = Some(end);
        }
        let prev_highest = self.highest_received();
        if frame.data.is_empty() {
            // Nothing to store (a bare FIN).
        } else if frame.offset >= prev_highest {
            // Append: nothing at or past `highest_received` is held, so
            // the whole frame is new.
            self.chunks.insert(frame.offset, frame.data.clone());
            self.received.insert_range(frame.offset, end - 1);
        } else {
            // Insert only the sub-ranges not already received.
            let mut fresh = RangeSet::new();
            fresh.insert_range(frame.offset, end - 1);
            for have in self.received.iter() {
                fresh.remove_range(*have.start(), *have.end());
            }
            let new_ranges: Vec<(u64, u64)> =
                fresh.iter().map(|r| (*r.start(), *r.end())).collect();
            for (start, stop) in new_ranges {
                let rel = (start - frame.offset) as usize;
                let len = (stop - start + 1) as usize;
                self.chunks.insert(start, frame.data.slice(rel..rel + len));
                self.received.insert_range(start, stop);
            }
        }
        outcome.conn_window_consumed = self.highest_received().saturating_sub(prev_highest);
        outcome.readable = self
            .received
            .iter()
            .next()
            .is_some_and(|r| *r.start() <= self.read_offset && *r.end() >= self.read_offset);
        outcome.finished = self.is_complete();
        Ok(outcome)
    }

    /// Highest contiguous-or-not offset received.
    pub fn highest_received(&self) -> u64 {
        self.received.max().map_or(0, |m| m + 1)
    }

    /// Reads up to `max` in-order bytes, advancing the read offset.
    pub fn read(&mut self, max: usize) -> Option<Bytes> {
        let (&start, chunk) = self.chunks.iter().next()?;
        if start > self.read_offset {
            return None; // gap at the head
        }
        debug_assert_eq!(start, self.read_offset, "chunks must be disjoint");
        let take = chunk.len().min(max);
        let mut chunk = self.chunks.remove(&start).expect("just looked at it");
        let out = chunk.split_to(take);
        if !chunk.is_empty() {
            self.chunks.insert(start + take as u64, chunk);
        }
        self.read_offset += take as u64;
        Some(out)
    }

    /// Bytes the application has consumed.
    pub fn consumed(&self) -> u64 {
        self.read_offset
    }

    /// True once the FIN offset is known and all bytes up to it were read.
    pub fn is_finished(&self) -> bool {
        self.fin_offset == Some(self.read_offset) && self.chunks.is_empty()
    }

    /// True once all bytes up to the FIN have been *received* (possibly
    /// not yet read).
    pub fn is_complete(&self) -> bool {
        match self.fin_offset {
            Some(0) => true,
            Some(fin) => {
                self.read_offset == fin
                    || (self.received.min().is_some_and(|m| m <= self.read_offset)
                        && self.highest_received() == fin
                        && self.received.range_count() == 1)
            }
            None => false,
        }
    }

    /// If enough window has been consumed, returns the new limit to
    /// advertise in a WINDOW_UPDATE (gQUIC sends one when the unadvertised
    /// consumption exceeds half the window).
    pub fn poll_window_update(&mut self) -> Option<u64> {
        let target = self.read_offset + self.window;
        if target >= self.advertised + self.window / 2 {
            self.advertised = target;
            self.max_data_local = target;
            Some(target)
        } else {
            None
        }
    }

    /// Current advertised limit.
    pub fn max_data_local(&self) -> u64 {
        self.max_data_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(offset: u64, data: &[u8], fin: bool) -> StreamFrame {
        StreamFrame {
            stream_id: 1,
            offset,
            data: Bytes::from(data.to_vec()),
            fin,
        }
    }

    mod send {
        use super::*;

        #[test]
        fn write_and_frame_generation() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from_static(b"hello world")).unwrap();
            let (f, new_bytes) = s.next_frame(5, u64::MAX).unwrap();
            assert_eq!(
                (f.offset, &f.data[..], f.fin, new_bytes),
                (0, &b"hello"[..], false, 5)
            );
            let (f2, _) = s.next_frame(100, u64::MAX).unwrap();
            assert_eq!((f2.offset, &f2.data[..]), (5, &b" world"[..]));
            assert!(s.next_frame(100, u64::MAX).is_none());
        }

        #[test]
        fn frames_are_views_of_the_written_buffer() {
            let buffer = Bytes::from((0..4000u32).map(|i| i as u8).collect::<Vec<u8>>());
            let mut s = SendStream::new(1, 1 << 20);
            s.write(buffer.clone()).unwrap();
            let mut offset = 0;
            while let Some((f, _)) = s.next_frame(1200, u64::MAX) {
                // Not a copy: the frame's bytes sit where the
                // application put them.
                assert_eq!(f.data.as_ptr(), buffer[offset..].as_ptr());
                assert_eq!(f.offset, offset as u64);
                offset += f.data.len();
            }
            assert_eq!(offset, buffer.len());
        }

        #[test]
        fn straddling_frame_is_copied_and_reassembles() {
            let chunks = [&b"abc"[..], b"defgh", b"ij"];
            let mut s = SendStream::new(1, 1 << 20);
            for chunk in chunks {
                s.write(Bytes::copy_from_slice(chunk)).unwrap();
            }
            s.finish();
            let mut r = RecvStream::new(1, 1 << 20);
            let mut sizes = Vec::new();
            for budget in [4, 3, 100] {
                let (f, _) = s.next_frame(budget, u64::MAX).unwrap();
                sizes.push(f.data.len());
                r.on_frame(&f).unwrap();
            }
            // "abc|d" and "h|ij" straddle two chunks; "efg" is a view.
            assert_eq!(sizes, [4, 3, 3]);
            assert!(s.next_frame(100, u64::MAX).is_none());
            let mut got = Vec::new();
            while let Some(chunk) = r.read(usize::MAX) {
                got.extend_from_slice(&chunk);
            }
            assert_eq!(got, chunks.concat());
            assert!(r.is_finished());
        }

        #[test]
        fn fin_rides_last_frame() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from_static(b"abc")).unwrap();
            s.finish();
            let (f, _) = s.next_frame(100, u64::MAX).unwrap();
            assert!(f.fin);
            assert_eq!(&f.data[..], b"abc");
        }

        #[test]
        fn empty_fin_frame() {
            let mut s = SendStream::new(1, 1 << 20);
            s.finish();
            let (f, _) = s.next_frame(100, u64::MAX).unwrap();
            assert!(f.fin);
            assert!(f.data.is_empty());
            assert!(s.next_frame(100, u64::MAX).is_none());
        }

        #[test]
        fn write_after_finish_rejected() {
            let mut s = SendStream::new(1, 1 << 20);
            s.finish();
            assert_eq!(
                s.write(Bytes::from_static(b"x")),
                Err(StreamError::WriteAfterFinish)
            );
        }

        #[test]
        fn stream_flow_control_limits_new_data() {
            let mut s = SendStream::new(1, 4);
            s.write(Bytes::from_static(b"abcdefgh")).unwrap();
            let (f, _) = s.next_frame(100, u64::MAX).unwrap();
            assert_eq!(&f.data[..], b"abcd");
            assert!(s.next_frame(100, u64::MAX).is_none());
            assert!(s.is_blocked());
            assert!(s.should_report_blocked());
            assert!(!s.should_report_blocked(), "only reported once");
            s.on_max_stream_data(8);
            assert!(!s.is_blocked());
            let (f2, _) = s.next_frame(100, u64::MAX).unwrap();
            assert_eq!(&f2.data[..], b"efgh");
        }

        #[test]
        fn connection_credit_limits_new_data() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from_static(b"abcdefgh")).unwrap();
            let (f, consumed) = s.next_frame(100, 3).unwrap();
            assert_eq!(&f.data[..], b"abc");
            assert_eq!(consumed, 3);
        }

        #[test]
        fn lost_frame_requeued_and_preferred() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from(vec![7u8; 20])).unwrap();
            let (f, _) = s.next_frame(10, u64::MAX).unwrap();
            s.on_lost(f);
            // Retransmission comes before the remaining new data.
            let (rtx, new_bytes) = s.next_frame(100, u64::MAX).unwrap();
            assert_eq!((rtx.offset, rtx.data.len(), new_bytes), (0, 10, 0));
        }

        #[test]
        fn lost_frame_trimmed_by_acks() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from((0u8..20).collect::<Vec<u8>>()))
                .unwrap();
            let (f, _) = s.next_frame(20, u64::MAX).unwrap();
            // Bytes 5..=14 acked via a duplicate on another path.
            s.on_acked(5, 10, false);
            s.on_lost(f);
            let (a, _) = s.next_frame(100, u64::MAX).unwrap();
            let (b, _) = s.next_frame(100, u64::MAX).unwrap();
            assert_eq!((a.offset, a.data.len()), (0, 5));
            assert_eq!((b.offset, b.data.len()), (15, 5));
            assert_eq!(&b.data[..], &(15u8..20).collect::<Vec<u8>>()[..]);
        }

        #[test]
        fn fully_acked_lost_frame_vanishes() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from(vec![1u8; 10])).unwrap();
            let (f, _) = s.next_frame(10, u64::MAX).unwrap();
            s.on_acked(0, 10, false);
            s.on_lost(f);
            assert!(s.next_frame(100, u64::MAX).is_none());
        }

        #[test]
        fn lost_fin_reattached() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from(vec![2u8; 5])).unwrap();
            s.finish();
            let (f, _) = s.next_frame(10, u64::MAX).unwrap();
            assert!(f.fin);
            // Data acked but the FIN flag's packet was lost.
            s.on_acked(0, 5, false);
            s.on_lost(f);
            let (rtx, _) = s.next_frame(10, u64::MAX).unwrap();
            assert!(rtx.fin);
            assert!(rtx.data.is_empty());
            assert_eq!(rtx.offset, 5);
        }

        #[test]
        fn retransmission_split_respects_budget() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from(vec![3u8; 30])).unwrap();
            s.finish();
            let (f, _) = s.next_frame(30, u64::MAX).unwrap();
            assert!(f.fin);
            s.on_lost(f);
            let (head, _) = s.next_frame(12, u64::MAX).unwrap();
            assert_eq!((head.offset, head.data.len(), head.fin), (0, 12, false));
            let (tail, _) = s.next_frame(100, u64::MAX).unwrap();
            assert_eq!((tail.offset, tail.data.len(), tail.fin), (12, 18, true));
        }

        #[test]
        fn fully_acked_detection() {
            let mut s = SendStream::new(1, 1 << 20);
            s.write(Bytes::from(vec![4u8; 10])).unwrap();
            s.finish();
            let (f, _) = s.next_frame(100, u64::MAX).unwrap();
            assert!(!s.is_fully_acked());
            s.on_acked(f.offset, f.data.len() as u64, f.fin);
            assert!(s.is_fully_acked());
        }
    }

    mod recv {
        use super::*;

        #[test]
        fn in_order_read() {
            let mut s = RecvStream::new(1, 1 << 20);
            let out = s.on_frame(&frame(0, b"hello", false)).unwrap();
            assert!(out.readable);
            assert_eq!(out.conn_window_consumed, 5);
            assert_eq!(&s.read(100).unwrap()[..], b"hello");
            assert!(s.read(100).is_none());
        }

        #[test]
        fn out_of_order_buffered_until_gap_fills() {
            let mut s = RecvStream::new(1, 1 << 20);
            let out = s.on_frame(&frame(5, b"world", false)).unwrap();
            assert!(!out.readable);
            assert!(s.read(100).is_none());
            let out2 = s.on_frame(&frame(0, b"hello", false)).unwrap();
            assert!(out2.readable);
            assert_eq!(&s.read(100).unwrap()[..], b"hello");
            assert_eq!(&s.read(100).unwrap()[..], b"world");
        }

        #[test]
        fn appended_frames_are_kept_as_views() {
            let mut s = RecvStream::new(1, 1 << 20);
            let first = frame(0, b"hello", false);
            let second = frame(7, b"world", false);
            // In order, and past a gap: both take the append case.
            assert_eq!(s.on_frame(&first).unwrap().conn_window_consumed, 5);
            assert_eq!(s.on_frame(&second).unwrap().conn_window_consumed, 7);
            let head = s.read(100).unwrap();
            assert_eq!(head.as_ptr(), first.data.as_ptr());
            assert!(s.read(100).is_none(), "gap at 5..7");
            s.on_frame(&frame(4, b"o, ", false)).unwrap();
            assert_eq!(&s.read(100).unwrap()[..], b", ");
            let tail = s.read(100).unwrap();
            assert_eq!(tail.as_ptr(), second.data.as_ptr());
        }

        #[test]
        fn duplicates_ignored() {
            let mut s = RecvStream::new(1, 1 << 20);
            s.on_frame(&frame(0, b"abcde", false)).unwrap();
            let out = s.on_frame(&frame(0, b"abcde", false)).unwrap();
            assert_eq!(out.conn_window_consumed, 0);
            assert_eq!(&s.read(100).unwrap()[..], b"abcde");
            assert!(s.read(100).is_none());
        }

        #[test]
        fn partial_overlap_takes_only_new_bytes() {
            let mut s = RecvStream::new(1, 1 << 20);
            s.on_frame(&frame(0, b"abcde", false)).unwrap();
            // Overlaps 3..5, extends to 8.
            let out = s.on_frame(&frame(3, b"XYZxy", false)).unwrap();
            assert_eq!(out.conn_window_consumed, 3);
            let mut all = Vec::new();
            while let Some(chunk) = s.read(100) {
                all.extend_from_slice(&chunk);
            }
            assert_eq!(&all, b"abcdeZxy");
        }

        #[test]
        fn fin_and_finished() {
            let mut s = RecvStream::new(1, 1 << 20);
            let out = s.on_frame(&frame(0, b"bye", true)).unwrap();
            assert!(out.finished);
            assert!(!s.is_finished(), "not finished until read");
            s.read(100).unwrap();
            assert!(s.is_finished());
        }

        #[test]
        fn fin_known_but_gaps_not_complete() {
            let mut s = RecvStream::new(1, 1 << 20);
            s.on_frame(&frame(5, b"tail", true)).unwrap();
            assert!(!s.is_complete());
            s.on_frame(&frame(0, b"heads", false)).unwrap();
            assert!(s.is_complete());
        }

        #[test]
        fn flow_control_enforced() {
            let mut s = RecvStream::new(1, 4);
            assert_eq!(
                s.on_frame(&frame(0, b"abcde", false)),
                Err(StreamError::FlowControlViolated)
            );
        }

        #[test]
        fn final_size_change_rejected() {
            let mut s = RecvStream::new(1, 1 << 20);
            s.on_frame(&frame(0, b"abc", true)).unwrap();
            assert_eq!(
                s.on_frame(&frame(0, b"abcd", false)),
                Err(StreamError::FinalSizeChanged)
            );
            assert_eq!(
                s.on_frame(&frame(0, b"ab", true)),
                Err(StreamError::FinalSizeChanged)
            );
        }

        #[test]
        fn data_beyond_fin_rejected() {
            let mut s = RecvStream::new(1, 1 << 20);
            s.on_frame(&frame(10, b"", true)).unwrap();
            assert_eq!(
                s.on_frame(&frame(8, b"abcd", false)),
                Err(StreamError::FinalSizeChanged)
            );
        }

        #[test]
        fn window_update_after_half_window_consumed() {
            let mut s = RecvStream::new(1, 100);
            assert!(s.poll_window_update().is_none());
            s.on_frame(&frame(0, &[0u8; 60], false)).unwrap();
            assert!(s.poll_window_update().is_none(), "received but not read");
            let mut got = 0;
            while got < 60 {
                got += s.read(100).map_or(0, |b| b.len());
            }
            // Consumed 60 >= window/2: new limit = 60 + 100.
            assert_eq!(s.poll_window_update(), Some(160));
            assert_eq!(s.max_data_local(), 160);
            assert!(s.poll_window_update().is_none(), "no duplicate update");
        }

        #[test]
        fn prop_reassembly_model_runner() {
            // see the proptest block below
        }

        #[test]
        fn read_respects_max() {
            let mut s = RecvStream::new(1, 1 << 20);
            s.on_frame(&frame(0, b"abcdef", false)).unwrap();
            assert_eq!(&s.read(2).unwrap()[..], b"ab");
            assert_eq!(&s.read(2).unwrap()[..], b"cd");
            assert_eq!(&s.read(100).unwrap()[..], b"ef");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A receive stream reassembles the exact original bytes no matter
        /// how STREAM frames are sliced, duplicated or reordered — the
        /// property multipath transfer rests on (frames arrive out of
        /// order across heterogeneous paths by design).
        #[test]
        fn prop_recv_reassembly_matches_original(
            len in 1usize..3000,
            cuts in proptest::collection::vec(0usize..3000, 0..25),
            swaps in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..40),
            dup_count in 0usize..8,
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
            let mut points: Vec<usize> = cuts.into_iter().map(|c| c % len).collect();
            points.push(0);
            points.push(len);
            points.sort_unstable();
            points.dedup();
            let mut frames: Vec<StreamFrame> = points
                .windows(2)
                .filter(|w| w[1] > w[0])
                .map(|w| StreamFrame {
                    stream_id: 1,
                    offset: w[0] as u64,
                    data: Bytes::copy_from_slice(&data[w[0]..w[1]]),
                    fin: w[1] == len,
                })
                .collect();
            for i in 0..dup_count.min(frames.len()) {
                frames.push(frames[i].clone());
            }
            for (a, b) in swaps {
                if frames.len() > 1 {
                    let x = (a as usize) % frames.len();
                    let y = (b as usize) % frames.len();
                    frames.swap(x, y);
                }
            }
            let mut stream = RecvStream::new(1, 1 << 20);
            let mut consumed_total = 0u64;
            for frame in &frames {
                let outcome = stream.on_frame(frame).expect("legal frames");
                consumed_total += outcome.conn_window_consumed;
            }
            // Connection-level accounting equals the stream length exactly
            // (duplicates must not double-count).
            prop_assert_eq!(consumed_total, len as u64);
            let mut got = Vec::new();
            while let Some(chunk) = stream.read(usize::MAX) {
                got.extend_from_slice(&chunk);
            }
            prop_assert_eq!(got, data);
            prop_assert!(stream.is_finished());
        }

        /// The send stream emits every byte exactly once across arbitrary
        /// per-frame payload budgets, and loss + retransmission (minus
        /// what got acked elsewhere) never duplicates delivered ranges.
        #[test]
        fn prop_send_stream_emits_each_byte_once(
            len in 1usize..2000,
            budgets in proptest::collection::vec(1usize..700, 1..60),
            lose_every in 2usize..5,
            ack_every in 2usize..4,
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut stream = SendStream::new(1, 1 << 20);
            stream.write(Bytes::from(data.clone())).unwrap();
            stream.finish();
            let mut received: Vec<Option<u8>> = vec![None; len];
            let mut produced = Vec::new();
            let mut budget_iter = budgets.into_iter().cycle();
            let mut step = 0usize;
            let mut fin_seen = false;
            for _ in 0..10_000 {
                let Some((frame, _)) = stream.next_frame(budget_iter.next().unwrap(), u64::MAX)
                else {
                    break;
                };
                step += 1;
                if step.is_multiple_of(lose_every) {
                    // Frame lost; maybe a duplicate was acked elsewhere.
                    if step.is_multiple_of(ack_every) && !frame.data.is_empty() {
                        stream.on_acked(frame.offset, frame.data.len() as u64, frame.fin);
                        // ...and it was of course delivered there.
                        for (i, b) in frame.data.iter().enumerate() {
                            received[frame.offset as usize + i] = Some(*b);
                        }
                        fin_seen |= frame.fin;
                    }
                    stream.on_lost(frame);
                    continue;
                }
                // Delivered.
                for (i, b) in frame.data.iter().enumerate() {
                    let slot = &mut received[frame.offset as usize + i];
                    *slot = Some(*b);
                }
                fin_seen |= frame.fin;
                stream.on_acked(frame.offset, frame.data.len() as u64, frame.fin);
                produced.push(frame);
            }
            prop_assert!(fin_seen, "FIN must eventually be delivered");
            let assembled: Vec<u8> = received.into_iter().map(|b| b.expect("every byte delivered")).collect();
            prop_assert_eq!(assembled, data);
            prop_assert!(stream.is_fully_acked());
        }
    }
}
