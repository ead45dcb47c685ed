//! Runtime protocol invariants from the paper, asserted while the
//! connection runs.
//!
//! The paper's correctness argument rests on properties the type system
//! cannot express:
//!
//! * **monotonic per-path packet numbers** (§3, *Path identification*) —
//!   packet numbers are never reused within a path's space, which is what
//!   makes RTT samples unambiguous;
//! * **≤ 256 ACK ranges** (§3, *Loss handling*) — the frame-format cap;
//! * **bytes-in-flight accounting** — a path's `bytes_in_flight` must
//!   equal the sum of its outstanding ack-eliciting packet sizes, or the
//!   congestion controller is being fed garbage;
//! * **odd/even Path ID ownership** (§3, *Path management*) — clients
//!   initiate path 0 and odd IDs, servers even IDs, so the hosts cannot
//!   collide when opening paths;
//! * **finished streams retire** — no stream half that is done (fully
//!   acknowledged, or read to its FIN) stays in the connection's tables,
//!   or every packet pays for the connection's whole history;
//! * **bounded reassembly memory** — the receive halves' rings together
//!   hold at most twice the connection's receive window, whatever the
//!   peer sends (the connection window caps what they can hold unread);
//! * **consistent path states** — a path holds a PATH_CHALLENGE if and
//!   only if it is validating, and a closed path is neither probed nor
//!   challenged.
//!
//! [`InvariantChecker`] asserts these on every packet send, on every
//! ACK frame built or received, after every datagram and stream read,
//! and after every timer pass. It compiles to a zero-sized no-op unless
//! `debug_assertions` or the `invariants` feature is enabled, so release
//! builds pay nothing while `cargo test` (and CI, which enables
//! `--features invariants` for release-mode runs) checks every packet.
//!
//! Static enforcement of the companion source-level rules (exhaustive
//! `Frame` match sites, no-panic wire/io code, packet-number counters
//! mutated only inside `recovery`) lives in `cargo xtask lint`; see
//! DESIGN.md §9 for the full invariant table.

use crate::config::Role;
use crate::path::Path;
use crate::recovery::Recovery;
use crate::stream::{RecvStream, SendStream, StreamId};
use mpquic_wire::{AckFrame, PathId};
use std::collections::BTreeMap;

#[cfg(any(debug_assertions, feature = "invariants"))]
mod imp {
    use super::*;
    use crate::path::PathState;
    use mpquic_wire::MAX_ACK_RANGES;

    /// Asserts the paper's runtime invariants on the send/receive hot
    /// path. Active build: `debug_assertions` or `--features invariants`.
    #[derive(Debug, Default)]
    pub struct InvariantChecker {
        /// Highest packet number sent so far, per path.
        last_sent_pn: BTreeMap<PathId, u64>,
    }

    impl InvariantChecker {
        /// A checker with no history.
        pub fn new() -> InvariantChecker {
            InvariantChecker::default()
        }

        /// Called once per sealed packet: packet numbers must be strictly
        /// monotonic per path, and the path's in-flight accounting must
        /// still be consistent after recording the send.
        pub fn on_packet_sent(&mut self, path: PathId, pn: u64, recovery: &Recovery) {
            if let Some(&last) = self.last_sent_pn.get(&path) {
                assert!(
                    pn > last,
                    "invariant violated: non-monotonic packet number on {path}: \
                     sent pn {pn} after pn {last}"
                );
            }
            self.last_sent_pn.insert(path, pn);
            assert!(
                recovery.flight_accounting_consistent(),
                "invariant violated: bytes_in_flight out of sync with \
                 outstanding packets on {path}"
            );
        }

        /// Structural checks on an ACK frame — built locally or decoded
        /// from the peer (`origin` labels the failure): the range-count
        /// cap and the descending, disjoint range layout the recovery
        /// machinery assumes.
        pub fn check_ack_frame(&self, ack: &AckFrame, origin: &'static str) {
            assert!(
                !ack.ranges.is_empty(),
                "invariant violated: {origin} ACK frame with no ranges"
            );
            assert!(
                ack.ranges.len() <= MAX_ACK_RANGES,
                "invariant violated: {origin} ACK frame carries {} ranges (max {})",
                ack.ranges.len(),
                MAX_ACK_RANGES
            );
            let mut prev_start: Option<u64> = None;
            for &(start, end) in &ack.ranges {
                assert!(
                    start <= end,
                    "invariant violated: {origin} ACK range ({start}, {end}) is inverted"
                );
                match prev_start {
                    None => assert!(
                        end == ack.largest_acked,
                        "invariant violated: {origin} ACK first range end {end} \
                         != largest_acked {}",
                        ack.largest_acked
                    ),
                    Some(ps) => assert!(
                        end + 1 < ps,
                        "invariant violated: {origin} ACK ranges not descending/disjoint \
                         (range ending {end} follows range starting {ps})"
                    ),
                }
                prev_start = Some(start);
            }
        }

        /// The odd/even Path ID ownership rule: which IDs each role may
        /// create locally, and which it may accept from the peer.
        pub fn check_path_ownership(&self, role: Role, id: PathId, locally_initiated: bool) {
            let valid = match (role, locally_initiated) {
                // We are the client creating a path, or the server
                // accepting one the client opened: ID 0 or odd.
                (Role::Client, true) | (Role::Server, false) => id.client_initiated(),
                // The mirror: even IDs only.
                (Role::Client, false) | (Role::Server, true) => id.server_initiated(),
            };
            let how = if locally_initiated {
                "create"
            } else {
                "accept"
            };
            assert!(
                valid,
                "invariant violated: {role:?} may not {how} {id} \
                 (path 0/odd = client, even = server)"
            );
        }

        /// Stream retirement: every half still in a table has something
        /// left to do (data or an ACK to await, bytes to read, or a
        /// WINDOW_UPDATE to hand out).
        pub fn check_streams_retired(
            &self,
            send: &BTreeMap<StreamId, SendStream>,
            recv: &BTreeMap<StreamId, RecvStream>,
        ) {
            for (id, s) in send {
                assert!(
                    !s.can_retire(),
                    "invariant violated: send half of stream {id} is fully \
                     acknowledged but was not retired"
                );
            }
            for (id, s) in recv {
                assert!(
                    !s.can_retire(),
                    "invariant violated: receive half of stream {id} was read \
                     to its FIN but was not retired"
                );
            }
        }

        /// Reassembly memory: the receive rings' capacities add up to the
        /// connection's running `total`, and that stays within `budget`.
        pub fn check_recv_rings(
            &self,
            recv: &BTreeMap<StreamId, RecvStream>,
            total: usize,
            budget: u64,
        ) {
            let held: usize = recv.values().map(RecvStream::capacity).sum();
            assert_eq!(
                held, total,
                "invariant violated: receive rings hold {held} bytes, \
                 the connection counts {total}"
            );
            assert!(
                held as u64 <= budget,
                "invariant violated: receive rings hold {held} bytes, over \
                 their budget of {budget}"
            );
        }

        /// Path states: a path holds a challenge if and only if it is
        /// validating, and a closed path has no probe deadline.
        pub fn check_path_states(&self, paths: &BTreeMap<PathId, Path>) {
            for (id, p) in paths {
                let (state, challenge, probe) = (p.state, p.challenge, p.probe_at);
                assert!(
                    challenge.is_some() == (state == PathState::Validating)
                        && (state != PathState::Closed || probe.is_none()),
                    "invariant violated: {id} is {state:?} with challenge {challenge:?}, \
                     probe {probe:?}"
                );
            }
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "invariants")))]
mod imp {
    use super::*;

    /// Zero-sized no-op variant compiled into release builds without the
    /// `invariants` feature; every check vanishes.
    #[derive(Debug, Default)]
    pub struct InvariantChecker;

    impl InvariantChecker {
        /// A checker that checks nothing.
        pub fn new() -> InvariantChecker {
            InvariantChecker
        }

        /// No-op.
        #[inline(always)]
        pub fn on_packet_sent(&mut self, _path: PathId, _pn: u64, _recovery: &Recovery) {}

        /// No-op.
        #[inline(always)]
        pub fn check_ack_frame(&self, _ack: &AckFrame, _origin: &'static str) {}

        /// No-op.
        #[inline(always)]
        pub fn check_path_ownership(&self, _role: Role, _id: PathId, _locally_initiated: bool) {}

        /// No-op.
        #[inline(always)]
        pub fn check_streams_retired(
            &self,
            _send: &BTreeMap<StreamId, SendStream>,
            _recv: &BTreeMap<StreamId, RecvStream>,
        ) {
        }

        /// No-op.
        #[inline(always)]
        pub fn check_recv_rings(
            &self,
            _recv: &BTreeMap<StreamId, RecvStream>,
            _total: usize,
            _budget: u64,
        ) {
        }

        /// No-op.
        #[inline(always)]
        pub fn check_path_states(&self, _paths: &BTreeMap<PathId, Path>) {}
    }
}

pub use imp::InvariantChecker;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_pns_accepted() {
        let mut c = InvariantChecker::new();
        let r = Recovery::new();
        c.on_packet_sent(PathId(1), 0, &r);
        c.on_packet_sent(PathId(1), 1, &r);
        // Independent spaces: path 3 may reuse the same numbers.
        c.on_packet_sent(PathId(3), 0, &r);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "invariants"))]
    #[should_panic(expected = "non-monotonic packet number")]
    fn repeated_pn_panics() {
        let mut c = InvariantChecker::new();
        let r = Recovery::new();
        c.on_packet_sent(PathId(1), 5, &r);
        c.on_packet_sent(PathId(1), 5, &r);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "invariants"))]
    #[should_panic(expected = "ACK frame carries")]
    fn oversized_ack_panics() {
        let c = InvariantChecker::new();
        let ranges: Vec<(u64, u64)> = (0..300u64).rev().map(|i| (i * 3, i * 3)).collect();
        let ack = AckFrame {
            path_id: PathId(0),
            largest_acked: 299 * 3,
            ack_delay_micros: 0,
            ranges,
        };
        c.check_ack_frame(&ack, "test");
    }

    #[test]
    fn path_ownership_rules() {
        let c = InvariantChecker::new();
        c.check_path_ownership(Role::Client, PathId::INITIAL, true);
        c.check_path_ownership(Role::Client, PathId(3), true);
        c.check_path_ownership(Role::Client, PathId(2), false);
        c.check_path_ownership(Role::Server, PathId(1), false);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "invariants"))]
    #[should_panic(expected = "was not retired")]
    fn finished_receive_half_left_live_panics() {
        let c = InvariantChecker::new();
        let mut stream = RecvStream::new(1 << 20);
        let fin = mpquic_wire::StreamFrame {
            stream_id: 1,
            offset: 0,
            data: bytes::Bytes::new(),
            fin: true,
        };
        stream.on_frame(&fin, u64::MAX).unwrap();
        c.check_streams_retired(&BTreeMap::new(), &BTreeMap::from([(1, stream)]));
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "invariants"))]
    #[should_panic(expected = "is Active with challenge Some")]
    fn active_path_holding_a_challenge_panics() {
        let c = InvariantChecker::new();
        let mut path = Path::new(
            PathId(1),
            "10.0.0.1:4433".parse().unwrap(),
            "10.0.1.1:4433".parse().unwrap(),
            mpquic_cc::CcAlgorithm::Olia.build(1250),
        );
        path.challenge = Some(crate::path::PathChallenge {
            token: 7,
            sent: 1,
            retransmit_at: mpquic_util::SimTime::ZERO,
        });
        c.check_path_states(&BTreeMap::from([(path.id, path)]));
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "invariants"))]
    #[should_panic(expected = "odd = client")]
    fn client_creating_even_path_panics() {
        let c = InvariantChecker::new();
        c.check_path_ownership(Role::Client, PathId(2), true);
    }
}
