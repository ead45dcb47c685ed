//! The applications the paper's experiments run.
//!
//! * [`App::FileClient`] / [`App::FileServer`] — the §4.1/§4.2 workload:
//!   the client sends a GET-like request; the server answers with an
//!   `N`-byte file on the same stream; the client measures "the delay
//!   between the transmission of the first connection packet and the
//!   reception of the last byte of the file".
//! * [`App::PingClient`] / [`App::PingServer`] — the §4.3 handover
//!   workload: 750-byte requests every 400 ms, each answered immediately
//!   with a 750-byte response; the client records the per-request delay
//!   (the y-axis of Fig. 11).

use bytes::Bytes;
use mpquic_util::SimTime;
use std::time::Duration;

use crate::transport::Transport;

/// The request/response sizes of the handover experiment (paper §4.3).
pub const PING_SIZE: usize = 750;

/// An application state machine driven alongside a [`Transport`].
#[derive(Debug)]
pub enum App {
    /// Requests a file and reads it fully.
    FileClient {
        /// Bytes of request to send at startup.
        request_size: usize,
        /// Request handed to the transport yet?
        sent: bool,
        /// Response bytes received so far.
        received: u64,
        /// Completion time (end-of-stream fully read).
        done_at: Option<SimTime>,
    },
    /// Serves a file once the request is fully received.
    FileServer {
        /// Bytes of request to expect.
        request_size: usize,
        /// Bytes of response to send.
        response_size: usize,
        /// Request bytes received so far.
        received: usize,
        /// Response handed to the transport yet?
        responded: bool,
    },
    /// Sends fixed-size requests on a timer and measures response delays.
    PingClient {
        /// Time between requests.
        interval: Duration,
        /// Total requests to send.
        count: usize,
        /// Next send time.
        next_at: SimTime,
        /// Send time of each request, in order.
        sent_times: Vec<SimTime>,
        /// Response bytes received so far.
        received: u64,
        /// `(request send time, response delay)` per completed request.
        delays: Vec<(SimTime, Duration)>,
    },
    /// Echoes [`PING_SIZE`]-byte responses to each complete request.
    PingServer {
        /// Request bytes received so far.
        received: u64,
        /// Responses sent so far.
        responded: u64,
    },
}

impl App {
    /// A file-download client (request sent immediately at startup —
    /// with QUIC it rides right behind the handshake).
    pub fn file_client(request_size: usize) -> App {
        App::FileClient {
            request_size,
            sent: false,
            received: 0,
            done_at: None,
        }
    }

    /// A file server.
    pub fn file_server(request_size: usize, response_size: usize) -> App {
        App::FileServer {
            request_size,
            response_size,
            received: 0,
            responded: false,
        }
    }

    /// The handover client: `count` requests, one every `interval`.
    pub fn ping_client(interval: Duration, count: usize) -> App {
        App::PingClient {
            interval,
            count,
            next_at: SimTime::ZERO,
            sent_times: Vec::new(),
            received: 0,
            delays: Vec::new(),
        }
    }

    /// The handover server.
    pub fn ping_server() -> App {
        App::PingServer {
            received: 0,
            responded: 0,
        }
    }

    /// Runs the application against its transport.
    pub fn drive<T: Transport>(&mut self, transport: &mut T, now: SimTime) {
        match self {
            App::FileClient {
                request_size,
                sent,
                received,
                done_at,
            } => {
                if !*sent {
                    *sent = true;
                    transport.write(Bytes::from(vec![b'G'; *request_size]));
                    transport.finish();
                }
                while let Some(chunk) = transport.read_chunk() {
                    *received += chunk.len() as u64;
                }
                if done_at.is_none() && transport.recv_finished() {
                    *done_at = Some(now);
                }
            }
            App::FileServer {
                request_size,
                response_size,
                received,
                responded,
            } => {
                while let Some(chunk) = transport.read_chunk() {
                    *received += chunk.len();
                }
                if !*responded && *received >= *request_size {
                    *responded = true;
                    transport.write(Bytes::from(vec![0xF1u8; *response_size]));
                    transport.finish();
                }
            }
            App::PingClient {
                interval,
                count,
                next_at,
                sent_times,
                received,
                delays,
            } => {
                while sent_times.len() < *count && *next_at <= now {
                    transport.write(Bytes::from(vec![b'P'; PING_SIZE]));
                    sent_times.push(now);
                    *next_at += *interval;
                }
                while let Some(chunk) = transport.read_chunk() {
                    *received += chunk.len() as u64;
                }
                while delays.len() < sent_times.len()
                    && *received >= ((delays.len() + 1) * PING_SIZE) as u64
                {
                    let k = delays.len();
                    let delay = now.saturating_duration_since(sent_times[k]);
                    delays.push((sent_times[k], delay));
                }
            }
            App::PingServer {
                received,
                responded,
            } => {
                while let Some(chunk) = transport.read_chunk() {
                    *received += chunk.len() as u64;
                }
                while *received >= (*responded + 1) * PING_SIZE as u64 {
                    transport.write(Bytes::from(vec![b'R'; PING_SIZE]));
                    *responded += 1;
                }
            }
        }
    }

    /// Earliest application timer (the ping client's next request).
    pub fn next_timeout(&self) -> Option<SimTime> {
        match self {
            App::PingClient {
                next_at,
                sent_times,
                count,
                ..
            } if sent_times.len() < *count => Some(*next_at),
            _ => None,
        }
    }

    /// File-client completion time.
    pub fn done_at(&self) -> Option<SimTime> {
        match self {
            App::FileClient { done_at, .. } => *done_at,
            _ => None,
        }
    }

    /// File-client bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        match self {
            App::FileClient { received, .. } => *received,
            App::PingClient { received, .. } => *received,
            _ => 0,
        }
    }

    /// The ping client's measured `(send time, delay)` series.
    pub fn delays(&self) -> &[(SimTime, Duration)] {
        match self {
            App::PingClient { delays, .. } => delays,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpquic_netsim::{Datagram, Endpoint};
    use std::collections::VecDeque;
    use std::net::SocketAddr;

    /// A loopback transport: writes become readable after `deliver()`.
    #[derive(Default)]
    struct MockTransport {
        written: Vec<u8>,
        finished: bool,
        incoming: VecDeque<Bytes>,
        incoming_finished: bool,
    }

    impl MockTransport {
        fn deliver(&mut self, data: &[u8], fin: bool) {
            self.incoming.push_back(Bytes::copy_from_slice(data));
            self.incoming_finished |= fin;
        }
    }

    impl Transport for MockTransport {
        fn write(&mut self, data: Bytes) {
            self.written.extend_from_slice(&data);
        }
        fn finish(&mut self) {
            self.finished = true;
        }
        fn read_chunk(&mut self) -> Option<Bytes> {
            self.incoming.pop_front()
        }
        fn recv_finished(&self) -> bool {
            self.incoming.is_empty() && self.incoming_finished
        }
        fn is_established(&self) -> bool {
            true
        }
    }

    impl Endpoint for MockTransport {
        fn handle_datagram(&mut self, _: SimTime, _: SocketAddr, _: SocketAddr, _: &[u8]) {}
        fn poll_transmit(&mut self, _: SimTime) -> Option<Datagram> {
            None
        }
        fn next_timeout(&self) -> Option<SimTime> {
            None
        }
        fn on_timeout(&mut self, _: SimTime) {}
    }

    #[test]
    fn file_client_sends_request_once_and_records_completion() {
        let mut t = MockTransport::default();
        let mut app = App::file_client(50);
        app.drive(&mut t, SimTime::ZERO);
        app.drive(&mut t, SimTime::from_millis(1));
        assert_eq!(t.written.len(), 50, "request sent exactly once");
        assert!(t.finished);
        t.deliver(&[1u8; 1000], false);
        app.drive(&mut t, SimTime::from_millis(10));
        assert_eq!(app.bytes_received(), 1000);
        assert!(app.done_at().is_none());
        t.deliver(&[2u8; 500], true);
        app.drive(&mut t, SimTime::from_millis(20));
        assert_eq!(app.done_at(), Some(SimTime::from_millis(20)));
        // Completion time latches.
        app.drive(&mut t, SimTime::from_millis(99));
        assert_eq!(app.done_at(), Some(SimTime::from_millis(20)));
    }

    #[test]
    fn file_server_waits_for_full_request() {
        let mut t = MockTransport::default();
        let mut app = App::file_server(100, 5000);
        t.deliver(&[0u8; 60], false);
        app.drive(&mut t, SimTime::ZERO);
        assert!(t.written.is_empty(), "request incomplete");
        t.deliver(&[0u8; 40], false);
        app.drive(&mut t, SimTime::from_millis(5));
        assert_eq!(t.written.len(), 5000);
        assert!(t.finished);
        // No double response.
        t.deliver(&[0u8; 10], false);
        app.drive(&mut t, SimTime::from_millis(6));
        assert_eq!(t.written.len(), 5000);
    }

    #[test]
    fn ping_client_paces_requests_and_measures_delays() {
        let mut t = MockTransport::default();
        let mut app = App::ping_client(Duration::from_millis(400), 3);
        assert_eq!(app.next_timeout(), Some(SimTime::ZERO));
        app.drive(&mut t, SimTime::ZERO);
        assert_eq!(t.written.len(), PING_SIZE, "first request at t=0");
        assert_eq!(app.next_timeout(), Some(SimTime::from_millis(400)));
        // Response to request 0 arrives at t=30.
        t.deliver(&[0u8; PING_SIZE], false);
        app.drive(&mut t, SimTime::from_millis(30));
        assert_eq!(app.delays().len(), 1);
        assert_eq!(app.delays()[0], (SimTime::ZERO, Duration::from_millis(30)));
        // Second and third requests.
        app.drive(&mut t, SimTime::from_millis(400));
        app.drive(&mut t, SimTime::from_millis(800));
        assert_eq!(t.written.len(), 3 * PING_SIZE);
        assert_eq!(app.next_timeout(), None, "all requests sent");
        // A combined (coalesced) double response.
        t.deliver(&vec![0u8; 2 * PING_SIZE], false);
        app.drive(&mut t, SimTime::from_millis(840));
        assert_eq!(app.delays().len(), 3);
        assert_eq!(app.delays()[2].1, Duration::from_millis(40));
    }

    #[test]
    fn ping_server_echoes_per_complete_request() {
        let mut t = MockTransport::default();
        let mut app = App::ping_server();
        t.deliver(&[0u8; PING_SIZE / 2], false);
        app.drive(&mut t, SimTime::ZERO);
        assert!(t.written.is_empty(), "half a request: no response");
        t.deliver(&[0u8; PING_SIZE / 2 + PING_SIZE], false);
        app.drive(&mut t, SimTime::from_millis(1));
        assert_eq!(
            t.written.len(),
            2 * PING_SIZE,
            "two complete requests echoed"
        );
    }
}
