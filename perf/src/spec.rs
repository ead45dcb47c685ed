//! The workload catalogue and the seed → schedule step.
//!
//! A [`Workload`] says what load a run offers; [`plan`] turns it and a
//! seed into the concrete inputs — arrival instants, sizes, connection
//! seeds — through `mpquic_loadgen`'s distributions and schedule
//! builder. The program under test sees only those inputs.

use mpquic_loadgen::scenario::{Arrivals, Scenario, ScenarioKind, SizeDist, TimeDist};
use mpquic_loadgen::schedule::{build_schedule, Op};
use mpquic_util::DetRng;

/// Offered rate of the two open-loop workloads, ops/s. Chosen once on
/// the 2-core reference box. `mpquic-perf saturate` (the same op mix,
/// closed loop, eight calls outstanding per connection) sustains about
/// 2 600 ops/s over a fresh 4 s session, but half of that makes the
/// generator itself late by more than the latency it measures: client
/// connections age like the server's. This is the highest round rate at
/// which `gen_lag_p99_us` stays well under half of `p50_us`; the
/// endpoint's worker is then about a third busy. One constant, so that
/// `rpc-open` and `rpc-open-idle512` differ only in table size.
pub const RPC_OPEN_RATE: f64 = 500.0;

/// Seconds one run measures: what `BENCHMARK.json` records as
/// `run_seconds` and the driver passes back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Measurement windows per untraced run, each a fresh session. The
/// window length is `--seconds` divided by this: 4 s.
pub const WINDOWS: usize = 5;

/// Windows of a traced run: this many untraced for reference, then as
/// many traced.
pub const TRACE_WINDOWS: usize = 2;

/// Ops a closed loop cycles through.
const CLOSED_CYCLE: usize = 1024;

/// How the client offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Each connection keeps `outstanding` calls in flight and issues
    /// the next when one completes.
    Closed {
        /// Calls in flight per connection.
        outstanding: usize,
    },
    /// Poisson arrivals at a fixed rate, issued whatever is in flight;
    /// latency counts from the scheduled instant.
    Open {
        /// Mean arrival rate, ops/s.
        per_sec: f64,
    },
    /// Each slot repeats: fresh connection, one call, clean close.
    Churn,
}

/// One workload of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
    /// Two client addresses and a multipath configuration on both
    /// sides, or the single-path baseline.
    pub multipath: bool,
    /// Load-generating connections (or churn slots).
    pub active: usize,
    /// Established connections that stay silent.
    pub parked: usize,
    /// Closed loop, open loop or churn.
    pub mode: Mode,
    /// Request payload sizes.
    pub req: SizeDist,
    /// Response payload sizes.
    pub resp: SizeDist,
    /// Ops of the warm-up, issued closed loop. Set-up ends when they
    /// are verified, so `setup_s` measures work, not a fixed wait.
    pub warmup_ops: usize,
}

const BULK: usize = 8 << 20;
const RPC_REQ: SizeDist = SizeDist::Bimodal {
    small: 256,
    large: 4096,
    p_large: 0.1,
};
const RPC_RESP: SizeDist = SizeDist::Uniform {
    min: 256,
    max: 2048,
};

/// The five workloads. `smoke` parks 32 connections instead of 512 and
/// shortens the warm-up.
pub fn catalogue(smoke: bool) -> Vec<Workload> {
    let rpc = |name, why, parked| Workload {
        name,
        why,
        multipath: true,
        active: 2,
        parked,
        mode: Mode::Open {
            per_sec: RPC_OPEN_RATE,
        },
        req: RPC_REQ,
        resp: RPC_RESP,
        warmup_ops: if smoke { 50 } else { 200 },
    };
    vec![
        Workload {
            name: "bulk-down-mp",
            why: "one multipath client, closed loop, 64 B request and 8 MiB response: the paper's large download; per-packet egress cost does the work",
            multipath: true,
            active: 1,
            parked: 0,
            mode: Mode::Closed { outstanding: 1 },
            req: SizeDist::Fixed(64),
            resp: SizeDist::Fixed(BULK),
            warmup_ops: if smoke { 1 } else { 4 },
        },
        Workload {
            name: "bulk-up-sp",
            why: "one single-path client, closed loop, 8 MiB request and 64 B response: server ingress and reassembly in the paper's baseline configuration",
            multipath: false,
            active: 1,
            parked: 0,
            mode: Mode::Closed { outstanding: 1 },
            req: SizeDist::Fixed(BULK),
            resp: SizeDist::Fixed(64),
            warmup_ops: if smoke { 1 } else { 4 },
        },
        rpc(
            "rpc-open",
            "two multipath connections, open-loop Poisson at 500 ops/s, small requests and responses: per-op work dominates and bytes are few",
            0,
        ),
        rpc(
            "rpc-open-idle512",
            "rpc-open at the same rate and seed plus 512 silent connections: only the connection table grows, so the delta is the per-iteration walk",
            if smoke { 32 } else { 512 },
        ),
        Workload {
            name: "churn-256k",
            why: "two closed-loop slots, each: fresh multipath connection, one 256 KiB response, clean close: the paper's short file; handshake, accept and reap dominate",
            multipath: true,
            active: 2,
            parked: 0,
            mode: Mode::Churn,
            req: SizeDist::Fixed(64),
            resp: SizeDist::Fixed(256 << 10),
            warmup_ops: if smoke { 8 } else { 64 },
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    catalogue(smoke).into_iter().find(|w| w.name == name)
}

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Warm-up ops, issued closed loop during set-up.
    pub warmup: Vec<Op>,
    /// Open loop: every op of a window, sorted by `at_us` from the
    /// window's start, `conn` numbering the ops. Closed loop and churn:
    /// the ops the slots cycle through.
    pub ops: Vec<Op>,
    seed: u64,
}

impl Plan {
    /// Seed of the `index`-th connection the run opens (active first,
    /// then parked; churn keeps counting). The seed fixes the
    /// connection ID, so indices are never reused within a run.
    pub fn conn_seed(&self, index: u64) -> u64 {
        DetRng::new(self.seed ^ 0x00c1_1e47).fork(index).next_u64()
    }
}

/// Expands `workload` and `seed` into the inputs of a run whose windows
/// measure for `seconds` each; every window replays them. Depends on the workload's mode and sizes only, so
/// `rpc-open` and `rpc-open-idle512` share one schedule per seed.
pub fn plan(workload: &Workload, seed: u64, seconds: f64) -> Plan {
    // loadgen's churn expansion is one arrival-timed op per index,
    // which is exactly an op stream; `conn` then numbers the ops.
    let stream = |count: usize, arrivals: Arrivals, seed: u64| {
        let scenario = Scenario {
            name: workload.name,
            kind: ScenarioKind::Churn { conns: count },
            arrivals,
            req_size: workload.req,
            resp_size: workload.resp,
            think: TimeDist::Fixed { us: 0 },
            slo_p99_us: 0,
            timeout_us: 0,
        };
        build_schedule(&scenario, seed).ops
    };
    let at_once = Arrivals::FixedRate { per_sec: 1e6 };
    let ops = match workload.mode {
        Mode::Open { per_sec } => {
            // One second past the window, so the schedule never runs dry
            // while the window is still open.
            let count = (per_sec * (seconds + 1.0)).ceil() as usize;
            stream(count, Arrivals::Poisson { per_sec }, seed)
        }
        Mode::Closed { .. } | Mode::Churn => stream(CLOSED_CYCLE, at_once, seed),
    };
    Plan {
        warmup: stream(workload.warmup_ops, at_once, seed ^ 0x3a_93_00),
        ops,
        seed,
    }
}
