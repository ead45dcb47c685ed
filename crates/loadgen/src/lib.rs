//! `mpquic-loadgen`: a netbench-style workload harness for the
//! multipath QUIC endpoint.
//!
//! Where `perf/` measures what the endpoint costs and
//! `mpquic-bench`'s criterion benches time the hot paths in isolation,
//! this crate answers the deployment question: *what latency do real
//! request/response workloads see from the endpoint, at what load, and
//! does it hold an SLO?* It drives the actual
//! sharded [`mpquic_io::Endpoint`] over loopback sockets — no
//! simulator shortcuts — with declarative scenarios:
//!
//! * **request_response** — a population of long-lived connections,
//!   Poisson session arrivals, think-time-separated requests with
//!   bimodal sizes: the classic RPC mix.
//! * **streaming** — few connections pulling paced large chunks, the
//!   video-segment shape.
//! * **incast** — synchronized fan-in bursts that stress the receive
//!   buffers and accept path.
//! * **churn** — many short-lived connections, one exchange each:
//!   connection setup/teardown rate.
//!
//! The pieces:
//!
//! * [`scenario`] — the declarative model: size/time distributions,
//!   arrival processes, the scenario catalog.
//! * [`schedule`] — expands a scenario + seed into a deterministic,
//!   time-sorted op list ([`schedule::build_schedule`]). Same seed,
//!   same schedule, byte for byte.
//! * [`runner`] — executes a schedule open-loop against a fresh
//!   loopback endpoint, measuring each op from its *scheduled*
//!   instant into a [`mpquic_telemetry::LogHistogram`].
//! * [`report`] — flat JSON reports plus the SLO verdict: zero failed
//!   ops and an absolute p99 bound per scenario.
//!
//! On the wire each op is one `mpq-rpc` exchange
//! ([`mpquic_io::rpc`]): a fresh bidirectional stream per request, a
//! checksum-echoing response of the requested size, and a FINAL flag
//! on each connection's last request so the server records a clean
//! completion before the client's close lands.

#![forbid(unsafe_code)]

pub mod report;
pub mod runner;
pub mod scenario;
pub mod schedule;

pub use report::render_report;
pub use runner::{run_scenario, RunOptions, ScenarioOutcome};
pub use scenario::{catalog, Arrivals, Scenario, ScenarioKind, SizeDist, TimeDist};
pub use schedule::{build_schedule, Op, Schedule};
