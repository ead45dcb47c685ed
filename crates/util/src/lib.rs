//! Shared utilities for the mpquic workspace.
//!
//! This crate hosts the small, dependency-free building blocks that every
//! other crate in the workspace relies on:
//!
//! * [`datagram`] — the UDP datagram type ([`datagram::Datagram`]) shared
//!   by every network substrate (the discrete-event simulator and the
//!   real-socket runtime alike), and the sans-IO [`Endpoint`] trait both
//!   protocol stacks implement.
//! * [`time`] — a simulated clock ([`time::SimTime`]) with nanosecond
//!   resolution. All protocol state machines in this workspace are sans-IO
//!   and never read a wall clock; time is always passed in.
//! * [`rng`] — a deterministic, seedable random number generator
//!   ([`rng::DetRng`], xoshiro256**). Every experiment derives all its
//!   randomness from one seed, making simulations bit-for-bit reproducible.
//! * [`varint`] — QUIC-style variable-length integer encoding used by the
//!   wire format.
//! * [`ranges`] — a compact set of `u64` ranges, used for ACK ranges and
//!   stream reassembly bookkeeping.
//! * [`checksum`] — the streaming, word-wide 64-bit checksum
//!   ([`checksum::Checksum64`]) the application protocols carry as their
//!   end-to-end integrity witness.
//! * [`stats`] — the statistics the paper's figures report: CDFs, medians,
//!   percentiles and box-plot five-number summaries.
//! * [`check`] — the seeded case runner every property test in the
//!   workspace draws its inputs through, so test inputs are [`DetRng`]
//!   streams too and a failure replays from the seed it prints.
//! * [`alloc_count`] — a counting global allocator so tests and benches
//!   can assert the batched datapath's zero-allocation steady state.

// `deny`, not `forbid`: the counting allocator needs one scoped
// `#[allow(unsafe_code)]` for its `GlobalAlloc` impl (which only
// forwards to `std::alloc::System`). Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_count;
pub mod check;
pub mod checksum;
pub mod cli;
pub mod datagram;
pub mod ranges;
pub mod rng;
pub mod stats;
pub mod time;
pub mod varint;

pub use checksum::Checksum64;
pub use datagram::{Datagram, Endpoint};
pub use ranges::RangeSet;
pub use rng::DetRng;
pub use time::SimTime;
