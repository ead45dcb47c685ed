//! The load runner: executes a [`Schedule`] against a real
//! [`Endpoint`] over loopback.
//!
//! One server endpoint (the multi-loop `Endpoint` from `mpquic-io`, running
//! [`RpcServerApp`] on every accepted connection) and a small pool of
//! client threads, each driving its partition of the logical
//! connections through non-blocking [`Driver`] loops. Arrivals are
//! **open loop**: an op whose scheduled instant has passed is issued
//! immediately regardless of what is still in flight, and its latency
//! is measured from the *scheduled* instant — queueing delay under
//! overload lands in the percentiles instead of silently throttling
//! the offered load.

use crate::scenario::Scenario;
use crate::schedule::{build_schedule, Op, Schedule};
use mpquic_core::{Config, PathId, SchedulerKind};
use mpquic_harness::QuicTransport;
use mpquic_io::rpc::{RpcCall, RpcServerApp};
use mpquic_io::{quic_client, Driver, Endpoint, EndpointReport, EndpointSnapshot, FlightKind};
use mpquic_telemetry::LogHistogram;
use mpquic_util::DetRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How the runner is wired, independent of the workload itself.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Master seed: schedules, payload sizes, and connection seeds all
    /// derive from it, so a run is reproducible end to end.
    pub seed: u64,
    /// Endpoint worker loops (0 = auto: one per core).
    pub workers: usize,
    /// Client driver threads; logical connections are partitioned
    /// round-robin across them.
    pub client_threads: usize,
    /// Scheduler policy applied to both the server endpoint and every
    /// client connection; `None` keeps the config default.
    pub scheduler: Option<SchedulerKind>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 1,
            workers: 0,
            client_threads: 2,
            scheduler: None,
        }
    }
}

/// Everything a scenario run produced, ready for reporting.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (report key prefix).
    pub name: &'static str,
    /// Logical connections the schedule referenced.
    pub conns: usize,
    /// Ops in the schedule.
    pub ops_total: usize,
    /// Ops that completed with an OK, intact response.
    pub ops_ok: usize,
    /// Ops that completed wrong (bad status, checksum mismatch,
    /// transport error) or were abandoned on a failed connection.
    pub errors: usize,
    /// Ops still outstanding past the scenario timeout.
    pub timeouts: usize,
    /// Connections that finished their session and closed cleanly.
    pub conns_completed: usize,
    /// Connections abandoned after a timeout or transport error.
    pub conns_failed: usize,
    /// Offered op rate from the schedule, per second.
    pub offered_rps: f64,
    /// Completed-OK op rate over the measured wall time, per second.
    pub achieved_rps: f64,
    /// Connection close rate the server observed, per second.
    pub conns_per_sec: f64,
    /// Wall time from first scheduled instant to last client-thread
    /// exit, seconds.
    pub elapsed_s: f64,
    /// Open-loop op latency distribution, µs.
    pub latency: LogHistogram,
    /// p50/p99/p99.9/max over `latency`, µs.
    pub p50_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// 99.9th percentile latency, µs.
    pub p999_us: u64,
    /// Worst observed latency, µs.
    pub max_us: u64,
    /// The scenario's p99 SLO, µs.
    pub slo_p99_us: u64,
    /// SLO verdict: p99 within target and zero errors/timeouts.
    pub slo_pass: bool,
    /// Server-side counters at drain time.
    pub endpoint: EndpointSnapshot,
    /// What this scenario alone did to the server: counters at drain
    /// time minus counters at bind time. On a fresh endpoint the two
    /// agree; the delta is what reports embed so an SLO failure
    /// arrives with its own drop context.
    pub delta: EndpointSnapshot,
    /// Full per-shard server report.
    pub report: EndpointReport,
    /// The server's flight-recorder dump (JSON lines) taken at
    /// shutdown — non-empty context for SLO failures and shed load.
    pub flight: String,
}

/// Per-connection client state inside a worker thread.
struct ConnState {
    driver: Option<Driver<QuicTransport>>,
    /// In-flight calls with their scheduled instants (µs).
    inflight: Vec<(RpcCall, u64)>,
    /// Ops issued so far (including abandoned ones).
    issued: usize,
    /// Total ops this connection owns.
    total: usize,
    /// Set once the connection is being abandoned; later ops count as
    /// errors without touching the wire.
    failed: bool,
    /// Clean or failure close initiated; waiting for it to land.
    closing: Option<Instant>,
}

/// What one client thread hands back.
struct ThreadTally {
    hist: LogHistogram,
    ops_ok: usize,
    errors: usize,
    timeouts: usize,
    conns_completed: usize,
    conns_failed: usize,
}

/// Grace given to a close handshake before the driver is dropped; the
/// server's idle timer reaps anything we abandon.
const CLOSE_GRACE: Duration = Duration::from_millis(250);

/// How long a rebind op will pump its connection waiting for the
/// handshake before giving up and condemning the connection (loopback
/// handshakes finish in microseconds; this only bites when the server
/// is wedged).
const REBIND_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// How long after the last scheduled instant plus the op timeout the
/// whole run may take before the runner bails out.
const RUN_SLACK: Duration = Duration::from_secs(10);

/// Post-run drain: how long to wait for `closed == accepted` on the
/// server before shutting down anyway.
const DRAIN: Duration = Duration::from_secs(3);

/// Runs one scenario against a fresh loopback endpoint.
pub fn run_scenario(scenario: &Scenario, opts: &RunOptions) -> Result<ScenarioOutcome, String> {
    let schedule = build_schedule(scenario, opts.seed);
    let threads = opts.client_threads.max(1).min(schedule.conns.max(1));

    let mut builder = Config::builder()
        .single_path()
        .max_incoming_connections(schedule.conns + 8)
        .worker_shards(opts.workers);
    if let Some(kind) = opts.scheduler {
        builder = builder.scheduler(kind);
    }
    let config = builder.build().map_err(|e| format!("server config: {e}"))?;
    let listen: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
    let endpoint = Endpoint::bind(
        &[listen],
        config,
        opts.seed ^ 0x5e7e_0e9d,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .map_err(|e| format!("endpoint bind: {e}"))?;
    let server = endpoint.local_addrs()[0];
    let plane = endpoint.plane();
    let before = endpoint.stats();

    let deadline = Duration::from_micros(schedule.span_us + scenario.timeout_us) + RUN_SLACK;
    let epoch = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let ops: Vec<Op> = schedule
            .ops
            .iter()
            .copied()
            .filter(|op| op.conn % threads == t)
            .collect();
        let timeout_us = scenario.timeout_us;
        let seed = opts.seed;
        let scheduler = opts.scheduler;
        handles.push(std::thread::spawn(move || {
            run_client_thread(ops, server, epoch, deadline, timeout_us, seed, scheduler)
        }));
    }

    let mut tally = ThreadTally {
        hist: LogHistogram::default(),
        ops_ok: 0,
        errors: 0,
        timeouts: 0,
        conns_completed: 0,
        conns_failed: 0,
    };
    for handle in handles {
        let part = handle
            .join()
            .map_err(|_| "client thread panicked".to_string())?;
        tally.hist.merge(&part.hist);
        tally.ops_ok += part.ops_ok;
        tally.errors += part.errors;
        tally.timeouts += part.timeouts;
        tally.conns_completed += part.conns_completed;
        tally.conns_failed += part.conns_failed;
    }
    let elapsed_s = epoch.elapsed().as_secs_f64();

    // Drain: give the server time to retire every accepted connection
    // so `closed == accepted` holds in the report (the harness's
    // conns/sec cross-check).
    let drain_deadline = Instant::now() + DRAIN;
    loop {
        let stats = endpoint.stats();
        if stats.closed >= stats.accepted || Instant::now() >= drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let qs = tally.hist.quantiles(&[0.50, 0.99, 0.999]);
    let p99_us = qs[1];
    let slo_pass = p99_us <= scenario.slo_p99_us && tally.errors == 0 && tally.timeouts == 0;
    if !slo_pass {
        // The failure lands in the flight recorder before the dump is
        // taken, so the triage trail starts with the verdict itself.
        plane.recorder.record(FlightKind::SloFail, 0, 0, p99_us);
    }
    let report = endpoint.shutdown();
    let snapshot = report.totals;
    let flight = plane.recorder.dump_json_lines();

    Ok(ScenarioOutcome {
        name: scenario.name,
        conns: schedule.conns,
        ops_total: schedule.ops.len(),
        ops_ok: tally.ops_ok,
        errors: tally.errors,
        timeouts: tally.timeouts,
        conns_completed: tally.conns_completed,
        conns_failed: tally.conns_failed,
        offered_rps: schedule.offered_rps,
        achieved_rps: if elapsed_s > 0.0 {
            tally.ops_ok as f64 / elapsed_s
        } else {
            0.0
        },
        conns_per_sec: if elapsed_s > 0.0 {
            snapshot.closed as f64 / elapsed_s
        } else {
            0.0
        },
        elapsed_s,
        p50_us: qs[0],
        p99_us,
        p999_us: qs[2],
        max_us: tally.hist.max(),
        latency: tally.hist,
        slo_p99_us: scenario.slo_p99_us,
        slo_pass,
        endpoint: snapshot,
        delta: snapshot.delta(&before),
        report,
        flight,
    })
}

/// Builds and runs one scenario by way of [`run_scenario`], using the
/// schedule derived from `scenario` and `opts.seed`.
pub fn schedule_for(scenario: &Scenario, seed: u64) -> Schedule {
    build_schedule(scenario, seed)
}

fn run_client_thread(
    ops: Vec<Op>,
    server: SocketAddr,
    epoch: Instant,
    deadline: Duration,
    timeout_us: u64,
    seed: u64,
    scheduler: Option<SchedulerKind>,
) -> ThreadTally {
    let mut tally = ThreadTally {
        hist: LogHistogram::default(),
        ops_ok: 0,
        errors: 0,
        timeouts: 0,
        conns_completed: 0,
        conns_failed: 0,
    };
    if ops.is_empty() {
        return tally;
    }

    // Request payloads are slices of one deterministic pattern buffer;
    // content is irrelevant (the checksum echo is computed over
    // whatever we send) so sharing one allocation keeps the client
    // side quiet.
    let max_req = ops.iter().map(|op| op.req_bytes).max().unwrap_or(0).max(1);
    let payload_buf = mpquic_io::rpc::response_pattern(max_req, seed);

    let mut conns: std::collections::HashMap<usize, ConnState> = std::collections::HashMap::new();
    for op in &ops {
        conns
            .entry(op.conn)
            .or_insert_with(|| ConnState {
                driver: None,
                inflight: Vec::new(),
                issued: 0,
                total: 0,
                failed: false,
                closing: None,
            })
            .total += 1;
    }

    let mut next_op = 0usize;
    loop {
        let now = epoch.elapsed();
        let now_us = now.as_micros() as u64;
        let mut progressed = false;

        // 1. Issue every due op.
        while next_op < ops.len() && ops[next_op].at_us <= now_us {
            let op = ops[next_op];
            next_op += 1;
            let state = conns.get_mut(&op.conn).expect("conn state");
            state.issued += 1;
            if state.failed {
                tally.errors += 1;
                continue;
            }
            if state.driver.is_none() {
                let mut builder = Config::builder().single_path();
                if let Some(kind) = scheduler {
                    builder = builder.scheduler(kind);
                }
                let config = builder.build().expect("client config");
                let local: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
                let conn_seed = DetRng::new(seed ^ 0x00c1_1e47)
                    .fork(op.conn as u64)
                    .next_u64();
                match quic_client(config, &[local], server, conn_seed) {
                    Ok(driver) => state.driver = Some(driver),
                    Err(_) => {
                        state.failed = true;
                        tally.errors += 1;
                        tally.conns_failed += 1;
                        continue;
                    }
                }
            }
            let driver = state.driver.as_mut().expect("driver just ensured");
            if op.rebind {
                // NAT-rebinding injection: drop the socket, bind a
                // fresh ephemeral port, and migrate the path onto it.
                // The server must re-validate the new address before
                // this op's response can flow — that quarantine is
                // exactly what the mobility SLO measures.
                //
                // A rebind the server never observes is not a
                // migration: when this worker falls behind the
                // open-loop schedule, rebind ops can land back to back
                // before the handshake's first flight (or the previous
                // migration's PING probe) ever left the current
                // socket. Pump until the connection is established — a
                // real client never migrates mid-handshake (RFC 9000
                // §9) — and give queued egress one flush from the
                // current address, so the server sees every address
                // the session visits.
                let flushed = driver
                    .run_until(REBIND_FLUSH_GRACE, |t| t.conn.is_established())
                    .unwrap_or(false)
                    && driver.step().is_ok();
                if !flushed || driver.rebind_path(PathId::INITIAL).is_err() {
                    state.failed = true;
                    tally.errors += 1 + state.inflight.len();
                    state.inflight.clear();
                    tally.conns_failed += 1;
                    state.driver = None;
                    continue;
                }
            }
            let call = RpcCall::start(
                driver.connection_mut(),
                &payload_buf[..op.req_bytes.min(payload_buf.len())],
                op.resp_bytes as u32,
                op.last,
            );
            state.inflight.push((call, op.at_us));
            progressed = true;
        }

        // 2. Pump every live connection.
        let mut all_done = next_op >= ops.len();
        for state in conns.values_mut() {
            let Some(driver) = state.driver.as_mut() else {
                if state.issued < state.total {
                    all_done = false;
                }
                continue;
            };
            all_done = false;

            let step_err = driver.step().is_err();
            let now_us = epoch.elapsed().as_micros() as u64;

            // Complete calls.
            let mut idx = 0;
            while idx < state.inflight.len() {
                let (call, at_us) = &mut state.inflight[idx];
                if let Some(verdict) = call.poll(driver.connection_mut()) {
                    let latency = now_us.saturating_sub(*at_us).max(1);
                    tally.hist.record(latency);
                    if verdict.ok && verdict.intact {
                        tally.ops_ok += 1;
                    } else {
                        tally.errors += 1;
                    }
                    state.inflight.swap_remove(idx);
                    progressed = true;
                } else if now_us.saturating_sub(*at_us) > timeout_us {
                    tally.timeouts += 1;
                    state.inflight.swap_remove(idx);
                    // The whole connection is condemned: remaining
                    // in-flight ops are errors, later scheduled ops
                    // will be counted as they come due.
                    tally.errors += state.inflight.len();
                    state.inflight.clear();
                    state.failed = true;
                    break;
                } else {
                    idx += 1;
                }
            }

            if step_err && !state.failed {
                tally.errors += state.inflight.len();
                state.inflight.clear();
                state.failed = true;
            }

            // Close when the session is over (cleanly) or condemned.
            if state.closing.is_none() && state.inflight.is_empty() {
                if state.failed {
                    driver.connection_mut().close(0x10ad, "loadgen abandoned");
                    state.closing = Some(Instant::now());
                } else if state.issued == state.total {
                    driver.connection_mut().close(0, "loadgen done");
                    state.closing = Some(Instant::now());
                }
            }
            if let Some(since) = state.closing {
                if driver.connection().is_closed() || since.elapsed() > CLOSE_GRACE {
                    state.driver = None;
                    if state.failed {
                        tally.conns_failed += 1;
                    } else {
                        tally.conns_completed += 1;
                    }
                    progressed = true;
                }
            }
        }

        if all_done {
            break;
        }
        if now >= deadline {
            // Bail out: everything still pending is a timeout.
            for state in conns.values_mut() {
                tally.timeouts += state.inflight.len();
                tally.errors += state.total.saturating_sub(state.issued);
                state.issued = state.total;
                state.inflight.clear();
                if state.driver.take().is_some() {
                    tally.conns_failed += 1;
                }
            }
            break;
        }
        if !progressed {
            // Sleep to the next scheduled instant, capped so in-flight
            // responses are still polled promptly.
            let until_next = if next_op < ops.len() {
                Duration::from_micros(ops[next_op].at_us.saturating_sub(now_us))
            } else {
                Duration::from_millis(1)
            };
            std::thread::sleep(
                until_next
                    .min(Duration::from_micros(500))
                    .max(Duration::from_micros(50)),
            );
        }
    }
    tally
}
