//! `mpquic-perf`: the repository's performance yardstick.
//!
//! Five end-to-end workloads drive the real [`mpquic_io::Endpoint`] over
//! the host loopback (two busy threads: the endpoint's unified worker
//! and one client thread), and an isolated-rung ladder prices each layer
//! on its own — codec, AEAD, two sans-IO `Connection`s back to back,
//! each datapath backend, the `mpq-rpc` application. Layers are measured
//! from outside only: through their public functions and counters.
//!
//! * [`spec`] — the workload catalogue and the seed → schedule step.
//! * [`engine`] — set-up, the client loop, measurement windows, drain
//!   and the correctness gate.
//! * [`ladder`] — the isolated rungs.
//! * [`trace`] — in-memory spans around the calls the benchmark makes.
//! * [`report`] — medians, spreads, the metric tables and JSON.
//! * [`host`] — `/proc` readers: per-thread CPU, RSS, environment.
//!
//! `README.md` beside this crate holds the metric tables, the reason for
//! each workload and the caveats.

#![forbid(unsafe_code)]

/// Counts allocations per thread, for the ladder's `core.allocs_per_pkt`.
#[global_allocator]
static ALLOC: mpquic_util::alloc_count::CountingAlloc = mpquic_util::alloc_count::CountingAlloc;

pub mod engine;
pub mod host;
pub mod ladder;
pub mod report;
pub mod spec;
pub mod trace;
