//! # mpquic-netsim — the network substrate
//!
//! The paper evaluates (MP)QUIC against (MP)TCP "on the Mininet emulation
//! platform", varying per-path **capacity**, **round-trip-time**,
//! **queuing delay** (bufferbloat) and **random loss** (Table 1). This
//! crate is the substitution for that testbed (DESIGN.md §2): a
//! deterministic discrete-event simulator with exactly those link
//! semantics:
//!
//! * [`link::Link`] — a unidirectional link with a serialization rate,
//!   propagation delay, a droptail queue bounded by a maximum queuing
//!   delay, and Bernoulli random loss;
//! * [`topology`] — the Fig. 2 two-host network: a multihomed client and
//!   server joined by disjoint paths with independent characteristics;
//! * [`sim::Simulation`] — the one event loop: any number of sans-IO
//!   [`Endpoint`]s (`mpquic-core`'s `Connection` or `mpquic-tcp`'s
//!   `TcpStack` as they are, or the harness's application-driving
//!   endpoint) joined by routes of one or more links, with datagram
//!   delivery and timer callbacks. [`Simulation::new`] lays out the
//!   Fig. 2 network; [`Simulation::empty`] and its `add_*` methods build
//!   others, such as the shared bottleneck behind §3's case for OLIA.
//!
//! Determinism: all loss randomness comes from one seeded
//! [`mpquic_util::DetRng`], so a `(scenario, seed)` pair always reproduces
//! the same packet trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod sim;
pub mod topology;
pub mod trace;

pub use link::{Link, LinkParams};
pub use sim::{NetStats, Simulation};
pub use topology::{NetworkPlan, PathSpec};
pub use trace::{PacketFate, PacketRecord, Trace};

use mpquic_util::SimTime;

// The datagram type and the endpoint trait live in `mpquic-util`, so the
// protocol stacks implement the trait without depending on the simulator
// and the real-socket runtime (`mpquic-io`) speaks the same datagrams;
// re-exported here for simulator users.
pub use mpquic_util::{Datagram, Endpoint};

/// Fixed per-packet overhead the links bill in addition to the payload
/// (IPv4 + UDP headers).
pub const WIRE_OVERHEAD: usize = 28;

/// A scheduled change to one link's parameters mid-simulation (e.g. the
/// Fig. 11 handover scenario where the initial path becomes fully lossy
/// at t = 3 s: one change for each of its two links).
#[derive(Debug, Clone, Copy)]
pub struct LinkChange {
    /// When the change takes effect.
    pub at: SimTime,
    /// Index of the link that changes. In [`Simulation::new`]'s network
    /// path `p` is link `2p` (client → server) plus link `2p + 1`.
    pub link: usize,
    /// New random-loss probability, if changing.
    pub loss: Option<f64>,
    /// New one-way propagation delay, if changing.
    pub one_way_delay: Option<std::time::Duration>,
}
