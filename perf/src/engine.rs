//! Runs one workload against the real [`Endpoint`] over loopback.
//!
//! Load shape: one process, two busy threads — the endpoint's unified
//! worker and the client thread that runs everything here. The client
//! never sleeps while measuring: it polls its drivers in a tight loop,
//! so what an op waits for is the endpoint, not the generator.
//!
//! A run is a series of *windows*, and every window is a session of
//! its own: bind a fresh endpoint, establish every connection, verify
//! a fixed count of warm-up ops, measure for the window's length, drain,
//! check the gate, shut down. The endpoint never retires a finished
//! stream, so what an op costs grows with its connection's age;
//! consecutive windows on one connection would each measure a different
//! system. Fresh sessions replay the same inputs on the same ages, which
//! makes the windows replicates and their median a fair summary — and
//! gives `setup_s` one sample per window. A closed-loop window ends on
//! an op completion, so it never splits an 8 MiB call.

use crate::host::{self, EndpointCpu};
use crate::spec::{self, Mode, Plan, Workload};
use crate::trace::Tracer;
use mpquic_core::{Config, ConnStats, Connection, TransmitQueue};
use mpquic_io::backend::BackendChoice;
use mpquic_io::rpc::{response_pattern, RpcCall, RpcServerApp};
use mpquic_io::{
    Clock, Driver, Endpoint, EndpointSnapshot, PlaneSnapshot, QuicTransport, RecvBatch,
    SocketRegistry,
};
use mpquic_loadgen::schedule::Op;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};

/// Calls in flight per connection while warming an open-loop workload
/// up, and in `saturate`.
pub const WARM_OUTSTANDING: usize = 8;

/// An op outstanding this long has failed, and ends the run.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest wait for a handshake, a close or the endpoint's drain.
const GRACE: Duration = Duration::from_secs(5);
/// Parked connections shaking hands at once during set-up.
const HANDSHAKE_BATCH: usize = 16;
/// Every parked connection is polled once per this interval.
const PARK_SWEEP: Duration = Duration::from_millis(250);

/// How one workload run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Window length.
    pub window: Duration,
    /// Untraced windows.
    pub windows: usize,
    /// Traced windows that follow them.
    pub traced_windows: usize,
    /// Endpoint worker shards (`BENCHMARK.json` pins 1).
    pub workers: usize,
}

/// What one window measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Recorded with the tracer on.
    pub traced: bool,
    /// How long the session's set-up took, s.
    pub setup_s: f64,
    /// Wall time the window covered, s.
    pub wall_s: f64,
    /// Ops verified.
    pub ops_ok: u64,
    /// Verified request and response payload bytes.
    pub bytes: u64,
    /// Op latencies, ns, sorted.
    pub latency_ns: Vec<u64>,
    /// Median latency of the ops verified in the window's second half
    /// over that of its first half: above 1, ops get slower as the
    /// connection ages.
    pub age_drift: f64,
    /// How late the open-loop generator issued, ns, sorted.
    pub gen_lag_ns: Vec<u64>,
    /// CPU time of the endpoint's threads, ns.
    pub server_cpu_ns: u64,
    /// Endpoint plane at the window's start and end.
    pub plane: (PlaneSnapshot, PlaneSnapshot),
    /// Client connections' counters over the window.
    pub conn: ConnTotals,
}

/// Client-side connection counters, summed over connections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnTotals {
    /// Packets sent and received.
    pub packets: u64,
    /// Frames retransmitted.
    pub retx: u64,
    /// Stream frames received twice.
    pub dup: u64,
    /// Bytes sent and received per path, in path-ID order.
    pub path_bytes: Vec<u64>,
}

impl ConnTotals {
    fn add(&mut self, driver: &Driver<QuicTransport>) {
        let conn = driver.connection();
        let stats: ConnStats = conn.stats();
        self.packets += stats.packets_sent + stats.packets_received;
        self.retx += stats.frames_retransmitted;
        self.dup += stats.duplicated_stream_frames;
        let paths = conn.path_ids();
        if self.path_bytes.len() < paths.len() {
            self.path_bytes.resize(paths.len(), 0);
        }
        for (slot, id) in self.path_bytes.iter_mut().zip(paths) {
            if let Some(path) = conn.path(id) {
                *slot += path.bytes_sent + path.bytes_received;
            }
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &ConnTotals) -> ConnTotals {
        ConnTotals {
            packets: self.packets - before.packets,
            retx: self.retx - before.retx,
            dup: self.dup - before.dup,
            path_bytes: self
                .path_bytes
                .iter()
                .enumerate()
                .map(|(i, b)| b - before.path_bytes.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }

    /// The least-used path's share of the bytes (1 with one path).
    pub fn path_share_min(&self) -> f64 {
        let total: u64 = self.path_bytes.iter().sum();
        let min = self.path_bytes.iter().copied().min().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            min as f64 / total as f64
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload's name.
    pub name: &'static str,
    /// Whether the workload's connections must hold two paths.
    pub multipath: bool,
    /// The windows, untraced first.
    pub windows: Vec<Window>,
    /// Ops whose outcome was decided while measuring or draining.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// Correctness-gate violations; empty when the run is correct.
    pub violations: Vec<String>,
    /// RSS growth over the first window's set-up per connection established
    /// (client and server side both live in this process), KiB.
    pub rss_kib_per_conn_pair: f64,
    /// The spans of the traced windows.
    pub tracer: Tracer,
}

struct Inflight {
    call: RpcCall,
    /// When the op was due (open loop) or issued.
    due: Instant,
    bytes: u64,
    id: u64,
}

/// One load-generating connection, or one churn slot.
#[derive(Default)]
struct Slot {
    driver: Option<Driver<QuicTransport>>,
    inflight: Vec<Inflight>,
    /// Churn: close sent, waiting for it to land.
    closing: Option<Instant>,
}

/// A connection that only has to stay alive. A [`Driver`] would do, but
/// each owns 4 MiB of receive buffers, and 512 of them turn set-up into
/// seconds of page faults that say nothing about the endpoint. This is
/// the same ingress → timers → egress cycle over two small buffers.
struct Parked {
    conn: Connection,
    sockets: SocketRegistry,
    clock: Clock,
    recv: RecvBatch,
    queue: TransmitQueue,
}

impl Parked {
    fn step(&mut self) {
        let now = self.clock.now();
        if self.conn.next_timeout().is_some_and(|due| due <= now) {
            self.conn.on_timeout(now);
        }
        while self.sockets.poll_recv_batch(&mut self.recv).unwrap_or(0) > 0 {
            for (meta, payload) in self.recv.iter() {
                self.conn
                    .handle_datagram(now, meta.local, meta.remote, payload);
            }
        }
        while self.conn.poll_transmit_batch(now, &mut self.queue) > 0 {
            while let Some(t) = self.queue.pop() {
                let _ = self
                    .sockets
                    .send_train(t.local, t.remote, &t.payload, t.segment_size);
                self.queue.recycle(t.payload);
            }
        }
    }
}

/// What set-up and drain need of a client connection, load generator
/// or parked.
trait Client {
    fn pump(&mut self);
    fn conn(&mut self) -> &mut Connection;
}

impl Client for Driver<QuicTransport> {
    fn pump(&mut self) {
        let _ = self.step();
    }
    fn conn(&mut self) -> &mut Connection {
        self.connection_mut()
    }
}

impl Client for Parked {
    fn pump(&mut self) {
        self.step();
    }
    fn conn(&mut self) -> &mut Connection {
        &mut self.conn
    }
}

/// One set-up: an endpoint and the client's connections to it.
struct Session<'a> {
    workload: &'a Workload,
    plan: &'a Plan,
    endpoint: Endpoint,
    server: SocketAddr,
    cpu: EndpointCpu,
    slots: Vec<Slot>,
    parked: Vec<Parked>,
    /// Connections opened so far; indexes [`Plan::conn_seed`].
    conns_opened: u64,
    /// Counters of connections already dropped (churn).
    retired: ConnTotals,
    /// Request payloads are prefixes of this.
    payload: Vec<u8>,
    next_op_id: u64,
    attempted: u64,
    failed: u64,
    /// Set when an op failed: the run stops measuring.
    broken: Option<String>,
}

fn config(workload: &Workload, workers: usize) -> Config {
    let preset = if workload.multipath {
        Config::builder().multipath()
    } else {
        // The paper's baseline: one path, CUBIC.
        Config::builder().single_path()
    };
    preset
        .idle_timeout(None)
        .max_incoming_connections(workload.active + workload.parked + 64)
        .worker_shards(workers)
        .build()
        .expect("benchmark config is valid")
}

fn wait_for(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + GRACE;
    while !ready() {
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::hint::spin_loop();
    }
    Ok(())
}

impl<'a> Session<'a> {
    /// Binds an endpoint, establishes every connection and runs the
    /// warm-up. Returns the session and how long that took.
    fn set_up(
        workload: &'a Workload,
        plan: &'a Plan,
        opts: &RunOpts,
        tracer: &mut Tracer,
    ) -> Result<(Session<'a>, f64), String> {
        let started = Instant::now();
        let listen: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
        let endpoint = Endpoint::bind(
            &[listen],
            config(workload, opts.workers),
            opts.seed ^ 0x5e7e_0e9d,
            Box::new(|_cid| Box::new(RpcServerApp::new())),
        )
        .map_err(|e| format!("endpoint bind: {e}"))?;
        // A thread names itself as it starts; give it a moment.
        let mut cpu = EndpointCpu::find();
        let named = Instant::now() + Duration::from_millis(200);
        while cpu.threads() == 0 && Instant::now() < named {
            std::thread::yield_now();
            cpu = EndpointCpu::find();
        }
        let max_req = plan
            .ops
            .iter()
            .chain(&plan.warmup)
            .map(|op| op.req_bytes)
            .max();
        let mut session = Session {
            workload,
            plan,
            server: endpoint.local_addrs()[0],
            endpoint,
            cpu,
            slots: (0..workload.active).map(|_| Slot::default()).collect(),
            parked: Vec::new(),
            conns_opened: 0,
            retired: ConnTotals::default(),
            payload: response_pattern(max_req.unwrap_or(0), opts.seed),
            next_op_id: 0,
            attempted: 0,
            failed: 0,
            broken: None,
        };

        if workload.mode != Mode::Churn {
            for slot in 0..workload.active {
                session.slots[slot].driver = Some(session.connect()?);
            }
        }
        session.establish(0)?;
        // Parked connections shake hands a few at a time: a burst of
        // 512 first flights overflows the listen socket's buffer, and
        // the losers then sit out a retransmission timeout.
        while session.parked.len() < workload.parked {
            let batch = HANDSHAKE_BATCH.min(workload.parked - session.parked.len());
            for _ in 0..batch {
                let parked = session.park()?;
                session.parked.push(parked);
            }
            session.establish(batch)?;
        }

        session.warm_up(tracer)?;
        Ok((session, started.elapsed().as_secs_f64()))
    }

    /// Steps every load generator and the newest `parked_tail` parked
    /// connections until all of them are established.
    fn establish(&mut self, parked_tail: usize) -> Result<(), String> {
        let from = self.parked.len() - parked_tail;
        let mut pending: Vec<&mut dyn Client> = Vec::new();
        for driver in self.slots.iter_mut().filter_map(|s| s.driver.as_mut()) {
            pending.push(driver);
        }
        for parked in &mut self.parked[from..] {
            pending.push(parked);
        }
        wait_for("handshakes", || {
            pending.retain_mut(|client| {
                client.pump();
                !client.conn().is_established()
            });
            pending.is_empty()
        })
    }

    /// Binds the next connection's sockets and builds its sans-IO half.
    ///
    /// Client sockets are forced onto the `mmsg` backend; only the
    /// endpoint runs on what `auto` probes to. A client registry on
    /// io_uring pins megabytes of buffers when it is created, which on
    /// `churn-256k` was a quarter of every transfer and most of its
    /// run-to-run noise, and on 512 parked connections was 13 s of
    /// set-up — client-side cost the benchmark is not about.
    fn dial(&mut self) -> Result<(Connection, SocketRegistry), String> {
        const LOCALS: [SocketAddr; 2] = [SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0); 2];
        let paths = if self.workload.multipath { 2 } else { 1 };
        let seed = self.plan.conn_seed(self.conns_opened);
        self.conns_opened += 1;
        let sockets = SocketRegistry::bind_with(&LOCALS[..paths], BackendChoice::Mmsg)
            .map_err(|e| format!("client bind: {e}"))?;
        let config = config(self.workload, 1);
        let conn = Connection::client(config, sockets.local_addrs(), 0, self.server, seed);
        Ok((conn, sockets))
    }

    /// Opens a load-generating connection: what `quic_client` builds,
    /// on the sockets [`Session::dial`] chose.
    fn connect(&mut self) -> Result<Driver<QuicTransport>, String> {
        let (conn, sockets) = self.dial()?;
        Ok(Driver::new(QuicTransport::client(conn), sockets))
    }

    /// Opens a connection that will stay silent.
    fn park(&mut self) -> Result<Parked, String> {
        let (conn, sockets) = self.dial()?;
        Ok(Parked {
            conn,
            sockets,
            clock: Clock::new(),
            recv: RecvBatch::new(2),
            queue: TransmitQueue::new(4, 2048),
        })
    }

    /// Starts `op` on `slot`, whose connection exists. `due` is the
    /// instant its latency counts from.
    fn issue(&mut self, slot: usize, op: &Op, last: bool, due: Instant, tracer: &mut Tracer) {
        let id = self.next_op_id;
        self.next_op_id += 1;
        let state = &mut self.slots[slot];
        let conn = state
            .driver
            .as_mut()
            .expect("slot is connected")
            .connection_mut();
        let span = tracer.enter("io.rpc_start", Some(id));
        let call = RpcCall::start(
            conn,
            &self.payload[..op.req_bytes],
            op.resp_bytes as u32,
            last,
        );
        tracer.exit(span);
        state.inflight.push(Inflight {
            call,
            due,
            bytes: (op.req_bytes + op.resp_bytes) as u64,
            id,
        });
    }

    /// Steps every slot's driver and appends each verified call to
    /// `done` as `(payload bytes, latency ns)`.
    fn pump(&mut self, tracer: &mut Tracer, done: &mut Vec<(u64, u64)>) {
        for slot in &mut self.slots {
            let Some(driver) = slot.driver.as_mut() else {
                continue;
            };
            let span = tracer.enter("io.driver_step", None);
            match driver.step() {
                Ok(true) => tracer.exit(span),
                Ok(false) => {
                    // Nothing moved, so no call can have advanced. An
                    // idle poll loop makes millions of these: forget it.
                    tracer.discard(span);
                    continue;
                }
                Err(e) => {
                    tracer.exit(span);
                    self.broken = Some(format!("driver step: {e}"));
                    continue;
                }
            }
            let mut i = 0;
            while i < slot.inflight.len() {
                let op = &mut slot.inflight[i];
                let span = tracer.enter("io.rpc_poll", Some(op.id));
                let verdict = op.call.poll(driver.connection_mut());
                tracer.exit(span);
                let Some(verdict) = verdict else {
                    i += 1;
                    continue;
                };
                let op = slot.inflight.swap_remove(i);
                let now = Instant::now();
                self.attempted += 1;
                if verdict.ok && verdict.intact {
                    tracer.record("op", op.due, now, Some(op.id));
                    done.push((op.bytes, (now - op.due).as_nanos() as u64));
                } else {
                    self.failed += 1;
                    self.broken = Some(format!("op {} failed verification", op.id));
                }
            }
        }
    }

    /// Fails every op outstanding past [`OP_TIMEOUT`].
    fn check_timeouts(&mut self) {
        let now = Instant::now();
        for slot in &mut self.slots {
            let before = slot.inflight.len();
            slot.inflight.retain(|op| now - op.due < OP_TIMEOUT);
            let timed_out = (before - slot.inflight.len()) as u64;
            if timed_out > 0 {
                self.attempted += timed_out;
                self.failed += timed_out;
                self.broken = Some(format!("{timed_out} ops timed out"));
            }
        }
    }

    /// Churn: closes the slot's connection once its call is verified
    /// and drops it once the close has landed. True when the slot is
    /// free for a fresh connection.
    fn churn_free(&mut self, slot: usize, tracer: &mut Tracer) -> bool {
        let state = &mut self.slots[slot];
        let Some(driver) = state.driver.as_mut() else {
            return true;
        };
        if !state.inflight.is_empty() {
            return false;
        }
        match state.closing {
            None => {
                let span = tracer.enter("core.close", None);
                driver.connection_mut().close(0, "perf done");
                tracer.exit(span);
                state.closing = Some(Instant::now());
                false
            }
            Some(since) if driver.connection().is_closed() || since.elapsed() >= GRACE => {
                self.retired.add(driver);
                *state = Slot::default();
                true
            }
            Some(_) => false,
        }
    }

    /// Offers load on one slot: tops a closed loop up to `outstanding`
    /// calls, or starts a churn slot's next connection and its one
    /// call, timed from before the sockets are bound. `next` yields
    /// the ops in order and `None` when there are no more.
    fn offer(
        &mut self,
        slot: usize,
        outstanding: usize,
        next: &mut impl FnMut() -> Option<Op>,
        tracer: &mut Tracer,
    ) {
        if self.workload.mode == Mode::Churn {
            if !self.churn_free(slot, tracer) {
                return;
            }
            let Some(op) = next() else { return };
            let due = Instant::now();
            let span = tracer.enter("core.connect", None);
            let driver = self.connect();
            tracer.exit(span);
            match driver {
                Ok(driver) => self.slots[slot].driver = Some(driver),
                Err(why) => return self.broken = Some(why),
            }
            self.issue(slot, &op, true, due, tracer);
            return;
        }
        while self.slots[slot].inflight.len() < outstanding {
            let Some(op) = next() else { return };
            self.issue(slot, &op, false, Instant::now(), tracer);
        }
    }

    /// Calls a closed loop keeps in flight per slot; an open-loop
    /// workload warms up as such a loop.
    fn outstanding(&self) -> usize {
        match self.workload.mode {
            Mode::Closed { outstanding } => outstanding,
            Mode::Open { .. } => WARM_OUTSTANDING,
            Mode::Churn => 1,
        }
    }

    /// Runs the warm-up ops closed loop until all are verified.
    fn warm_up(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let outstanding = self.outstanding();
        let plan = self.plan;
        let mut ops = plan.warmup.iter().copied();
        let mut next = || ops.next();
        let mut verified = 0usize;
        let mut done = Vec::new();
        let deadline = Instant::now() + 12 * GRACE;
        while verified < plan.warmup.len() {
            for slot in 0..self.slots.len() {
                self.offer(slot, outstanding, &mut next, tracer);
            }
            self.pump(tracer, &mut done);
            verified += done.len();
            done.clear();
            if let Some(why) = self.broken.take() {
                return Err(format!("warm-up: {why}"));
            }
            if Instant::now() >= deadline {
                return Err("warm-up timed out".to_string());
            }
        }
        // Warm-up ops are set-up, not measurement.
        self.attempted = 0;
        Ok(())
    }

    fn conn_totals(&self) -> ConnTotals {
        let mut totals = self.retired.clone();
        for driver in self.slots.iter().filter_map(|s| s.driver.as_ref()) {
            totals.add(driver);
        }
        totals
    }

    /// Measures one window of `length`.
    fn measure(&mut self, length: Duration, traced: bool, tracer: &mut Tracer) -> Window {
        let plan = self.plan;
        let outstanding = self.outstanding();
        let open_loop = matches!(self.workload.mode, Mode::Open { .. });
        let plane = self.endpoint.plane();
        let mut window = Window {
            traced,
            ..Window::default()
        };

        tracer.set_on(traced);
        let span = tracer.enter("window", None);
        let plane_before = plane.snapshot();
        let server_cpu_before = self.cpu.total_ns();
        let conn_before = self.conn_totals();
        let epoch = Instant::now();

        let mut issued = 0usize;
        let mut done = Vec::new();
        let sweep_gap = PARK_SWEEP / self.parked.len().max(1) as u32;
        let (mut sweep_at, mut sweep_cursor) = (epoch + sweep_gap, 0usize);
        let mut timeouts_at = epoch + PARK_SWEEP;
        while self.broken.is_none() {
            let now = Instant::now();
            // 1. Offer load.
            if open_loop {
                while let Some(op) = plan.ops.get(issued) {
                    let due = epoch + Duration::from_micros(op.at_us);
                    if due > now {
                        break;
                    }
                    issued += 1;
                    window.gen_lag_ns.push((now - due).as_nanos() as u64);
                    self.issue(op.conn % self.workload.active, op, false, due, tracer);
                }
            } else {
                // A closed loop cycles through the plan's ops.
                let mut next = || {
                    issued += 1;
                    Some(plan.ops[(issued - 1) % plan.ops.len()])
                };
                for slot in 0..self.slots.len() {
                    self.offer(slot, outstanding, &mut next, tracer);
                }
            }

            // 2. Move bytes, collect verdicts.
            self.pump(tracer, &mut done);
            for &(bytes, latency_ns) in &done {
                window.ops_ok += 1;
                window.bytes += bytes;
                window.latency_ns.push(latency_ns);
            }

            // 3. Parked connections: one per tick, each every 250 ms.
            if !self.parked.is_empty() && now >= sweep_at {
                self.parked[sweep_cursor].step();
                sweep_cursor = (sweep_cursor + 1) % self.parked.len();
                sweep_at += sweep_gap;
            }
            if now >= timeouts_at {
                timeouts_at = now + PARK_SWEEP;
                self.check_timeouts();
            }

            // 4. The window's end. A closed loop ends on a completion,
            //    so no call is cut in two.
            let ends = now - epoch >= length && (open_loop || !done.is_empty());
            done.clear();
            if ends {
                break;
            }
        }
        tracer.exit(span);
        tracer.set_on(false);

        window.wall_s = epoch.elapsed().as_secs_f64();
        window.server_cpu_ns = self.cpu.total_ns() - server_cpu_before;
        window.plane = (plane_before, plane.snapshot());
        window.conn = self.conn_totals().since(&conn_before);
        // Latencies arrive in completion order: compare the halves
        // before sorting loses it.
        let half = window.latency_ns.len() / 2;
        let median = |part: &[u64]| {
            let mut part = part.to_vec();
            part.sort_unstable();
            part.get(part.len() / 2).copied().unwrap_or(0) as f64
        };
        window.age_drift =
            median(&window.latency_ns[half..]) / median(&window.latency_ns[..half]).max(1.0);
        window.latency_ns.sort_unstable();
        window.gen_lag_ns.sort_unstable();
        window
    }

    /// Finishes what is in flight, says goodbye on every connection with
    /// a final call, closes them all and waits until each has closed.
    fn drain(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let mut done = Vec::new();
        wait_for("in-flight ops", || {
            self.pump(tracer, &mut done);
            self.check_timeouts();
            self.slots.iter().all(|s| s.inflight.is_empty())
        })?;
        if self.workload.mode == Mode::Churn {
            // Every churn call was final already; land the closes.
            return wait_for("churn closes", || {
                self.pump(tracer, &mut done);
                (0..self.slots.len()).all(|slot| self.churn_free(slot, tracer))
            });
        }

        let mut all: Vec<Box<dyn Client>> = Vec::new();
        for driver in self.slots.iter_mut().filter_map(|s| s.driver.take()) {
            all.push(Box::new(driver));
        }
        for parked in self.parked.drain(..) {
            all.push(Box::new(parked));
        }
        let mut calls: Vec<Option<RpcCall>> = all
            .iter_mut()
            .map(|c| Some(RpcCall::start(c.conn(), b"bye", 16, true)))
            .collect();
        self.attempted += all.len() as u64;
        wait_for("final calls", || {
            for (client, slot) in all.iter_mut().zip(calls.iter_mut()) {
                let Some(call) = slot else { continue };
                client.pump();
                if let Some(verdict) = call.poll(client.conn()) {
                    self.failed += u64::from(!(verdict.ok && verdict.intact));
                    *slot = None;
                    client.conn().close(0, "perf done");
                }
            }
            calls.iter().all(Option::is_none)
        })?;
        wait_for("closes", || {
            all.retain_mut(|client| {
                client.pump();
                !client.conn().is_closed()
            });
            all.is_empty()
        })
    }
}

/// What the endpoint's counters must say once a session has drained.
fn endpoint_violations(totals: &EndpointSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    if totals.accepted != totals.closed {
        out.push(format!(
            "endpoint accepted {} connections but closed {}",
            totals.accepted, totals.closed
        ));
    }
    for (what, count) in [
        ("rejected", totals.rejected),
        ("backpressure_drops", totals.backpressure_drops),
        ("malformed", totals.malformed),
        ("failed", totals.failed),
    ] {
        if count != 0 {
            out.push(format!("endpoint {what} = {count}, want 0"));
        }
    }
    out
}

/// Runs `workload` once: every window a session of its own.
pub fn run_workload(workload: &Workload, opts: &RunOpts) -> Result<WorkloadRun, String> {
    let plan = spec::plan(workload, opts.seed, opts.window.as_secs_f64());
    let mut run = WorkloadRun {
        name: workload.name,
        multipath: workload.multipath,
        windows: Vec::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        rss_kib_per_conn_pair: 0.0,
        tracer: Tracer::new(),
    };
    for index in 0..opts.windows + opts.traced_windows {
        let rss_before = host::rss_kib();
        let (mut session, setup_s) = Session::set_up(workload, &plan, opts, &mut run.tracer)?;
        if index == 0 {
            // Later sessions reuse memory the first one freed.
            let conns = (workload.active + workload.parked) as f64;
            run.rss_kib_per_conn_pair = host::rss_kib().saturating_sub(rss_before) as f64 / conns;
        }
        let mut window = session.measure(opts.window, index >= opts.windows, &mut run.tracer);
        window.setup_s = setup_s;
        run.windows.push(window);

        if let Some(why) = session.broken.take() {
            // Whatever is still in flight is abandoned with the run.
            let abandoned: u64 = session.slots.iter().map(|s| s.inflight.len() as u64).sum();
            session.attempted += abandoned;
            session.failed += abandoned;
            run.violations.push(why);
        } else if let Err(why) = session.drain(&mut run.tracer) {
            run.violations.push(format!("drain: {why}"));
        }
        let Session {
            endpoint,
            attempted,
            failed,
            ..
        } = session;
        run.attempted += attempted;
        run.failed += failed;
        let _ = wait_for("endpoint to retire every connection", || {
            let stats = endpoint.stats();
            stats.closed >= stats.accepted
        });
        run.violations
            .extend(endpoint_violations(&endpoint.shutdown().totals));
        if !run.violations.is_empty() {
            break;
        }
    }
    if run.failed > 0 {
        run.violations
            .push(format!("{} of {} ops failed", run.failed, run.attempted));
    }
    Ok(run)
}

/// Closed-loop saturation of the open-loop op mix, the measurement
/// [`spec::RPC_OPEN_RATE`] was chosen from: verified ops/s in each of
/// the run's windows.
pub fn saturate(seed: u64, seconds: f64, workers: usize) -> Result<Vec<f64>, String> {
    let mut workload = spec::by_name("rpc-open", false).expect("catalogue has rpc-open");
    workload.mode = Mode::Closed {
        outstanding: WARM_OUTSTANDING,
    };
    let opts = RunOpts {
        seed,
        window: Duration::from_secs_f64(seconds / spec::WINDOWS as f64),
        windows: spec::WINDOWS,
        traced_windows: 0,
        workers,
    };
    let run = run_workload(&workload, &opts)?;
    if let Some(why) = run.violations.first() {
        return Err(why.clone());
    }
    Ok(run
        .windows
        .iter()
        .map(|w| w.ops_ok as f64 / w.wall_s)
        .collect())
}
