//! # mpquic-tcp — the paper's baseline stack
//!
//! Segment-level models of **TCP** and **Multipath TCP** (Linux v0.91
//! semantics), built so the CoNEXT'17 comparison has a faithful opponent.
//! The behaviours the paper identifies as decisive are modelled
//! explicitly:
//!
//! | Paper's observation | Where it lives |
//! |---|---|
//! | TCP+TLS 1.2 needs 3 RTTs before the request (Fig. 9) | [`stack`] TLS model + 3-way handshake |
//! | MPTCP subflows need a 3-way handshake before carrying data | [`subflow::Subflow::connect`] |
//! | SACK reports only 2–3 blocks (vs QUIC's 256 ranges) | [`segment::MAX_SACK_BLOCKS`] |
//! | Karn's algorithm starves RTT estimation under loss | [`rtt::TcpRttEstimator`] |
//! | lost data must be retransmitted on the same subflow | [`subflow`] rtx queue |
//! | coupled 16 MB receive window → HoL blocking | [`stack`] meta window |
//! | penalization + opportunistic retransmission (ORP) | [`stack::TcpStack`] `orp_check` |
//! | RTO ⇒ potentially-failed subflow | [`subflow::Subflow::pf`] |
//!
//! Like `mpquic-core`, the stack is sans-IO: datagrams in, datagrams out,
//! timers polled. [`TcpStack`] implements [`mpquic_util::Endpoint`], so
//! `mpquic-netsim` drives it directly (this crate's tests) or under the
//! harness's applications (the experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rtt;
pub mod segment;
pub mod stack;
pub mod subflow;

pub use segment::{DssOption, MptcpOptions, Segment, MAX_SACK_BLOCKS};
pub use stack::{Role, TcpConfig, TcpStack, TcpStats};
pub use subflow::{Subflow, SubflowState};
