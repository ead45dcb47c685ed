//! `mpquic-bench` — loopback benchmarks: datapath and endpoint.
//!
//! **`datapath` mode (default)** measures what the batched datapath
//! (DESIGN.md §11) buys over the one-datagram-per-syscall path on this
//! machine's loopback: a sender registry pushes fixed-size datagrams at
//! a draining receiver thread, once as one-segment
//! [`SocketRegistry::send_train`] calls (one syscall per datagram) and
//! once as 16-segment trains (one `sendmmsg` each on Linux). Steady-state allocations on the sender thread are counted
//! by the workspace's counting global allocator.
//!
//! **`conns` mode** measures connection scaling through the sharded
//! [`Endpoint`] (DESIGN.md §12): M concurrent clients each push one
//! file transfer at a multi-worker endpoint, against a 1-connection
//! run of the same transfer — aggregate connections/sec, goodput and
//! endpoint datagram rate go to `BENCH_endpoint.json`.
//!
//! `datapath` mode also runs the batched sender a third time with a
//! live [`EndpointPlane`] wired into the hot loop — the same Relaxed
//! counters and log2 histograms every shard updates per iteration
//! (DESIGN.md §15) — and reports `metrics_overhead_ratio` (metered
//! rate / plain batched rate). `--gate-overhead` fails the run if the
//! ratio drops below 0.97 or the metered arm allocates in steady
//! state.
//!
//! `datapath` mode finishes with a **per-backend matrix**: the batched
//! train is re-run once per datapath backend (`mmsg`, `portable` —
//! DESIGN.md §17) with that arm pinned, so `BENCH_datapath.json`
//! records `sendmmsg` vs the portable loop on the same hardware, plus
//! which of the two the platform default is.
//!
//! ```text
//! mpquic-bench [conns] [--smoke] [--out PATH] [--baseline PATH]
//!              [--conns M] [--workers N] [--gate-overhead]
//! ```
//!
//! Results go to `BENCH_datapath.json` / `BENCH_endpoint.json`
//! (override with `--out`). With `--baseline PATH` the run fails
//! (exit 1) if the gated rate (`batched_datagrams_per_sec` /
//! `aggregate_datagrams_per_sec`) regressed more than 30% below the
//! baseline file's.

use mpquic_bench::gate::{enforce_baseline, Direction};
use mpquic_core::Config;
use mpquic_io::backend::BackendChoice;
use mpquic_io::transfer;
use mpquic_io::{quic_client, Endpoint, RecvBatch, SocketRegistry, TransferApp};
use mpquic_telemetry::endpoint::EndpointPlane;
use mpquic_util::alloc_count::{self, CountingAlloc};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The client-side application stream (the transport pre-opens it).
const APP_STREAM: mpquic_core::StreamId = 1;
/// Wire datagram size: the workspace's default QUIC MTU budget.
const SEGMENT: usize = 1200;
/// Segments per batched train (capped by the core's GSO train length).
const TRAIN: usize = 16;

/// `conns` mode defaults: concurrent client connections, endpoint
/// worker shards (0 = auto: `available_parallelism`, which on a 1-core
/// host selects the endpoint's in-thread fast path), and per-connection
/// transfer size.
const CONNS_DEFAULT: usize = 8;
const WORKERS_DEFAULT: usize = 0;
const TRANSFER_BYTES: usize = 2 << 20;
const TRANSFER_BYTES_SMOKE: usize = 128 << 10;

struct ModeResult {
    /// The backend the sender ran on.
    backend: &'static str,
    datagrams: u64,
    bytes: u64,
    syscalls: u64,
    elapsed: f64,
    allocs_per_sec: f64,
}

impl ModeResult {
    fn datagrams_per_sec(&self) -> f64 {
        self.datagrams as f64 / self.elapsed
    }

    fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.elapsed
    }
}

fn main() {
    let mut mode = "datapath".to_string();
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut conns = CONNS_DEFAULT;
    let mut workers = WORKERS_DEFAULT;
    let mut gate_overhead = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--baseline" => {
                baseline_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--baseline needs a path")),
                )
            }
            "--conns" => {
                conns = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .unwrap_or_else(|| usage("--conns needs a number"))
            }
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|raw| raw.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a number"))
            }
            "--gate-overhead" => gate_overhead = true,
            "--help" => {
                println!(
                    "usage: mpquic-bench [conns] [--smoke] [--out PATH] [--baseline PATH] \
                     [--conns M] [--workers N] [--gate-overhead]"
                );
                return;
            }
            "datapath" | "conns" => mode = arg,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    match mode.as_str() {
        "conns" => run_conns_bench(
            smoke,
            conns.max(1),
            workers,
            &out_path.unwrap_or_else(|| "BENCH_endpoint.json".to_string()),
            baseline_path.as_deref(),
        ),
        _ => run_datapath_bench(
            smoke,
            &out_path.unwrap_or_else(|| "BENCH_datapath.json".to_string()),
            baseline_path.as_deref(),
            gate_overhead,
        ),
    }
}

/// Fail `--gate-overhead` when the metered arm runs slower than this
/// fraction of the plain batched arm (ISSUE budget: within 3%).
const OVERHEAD_FLOOR: f64 = 0.97;

/// The PR-4 datapath benchmark: raw registry throughput, single
/// syscalls versus batched trains, plus a metered arm that prices the
/// endpoint metrics plane on the same hot loop.
fn run_datapath_bench(smoke: bool, out_path: &str, baseline_path: Option<&str>, gate: bool) {
    let measure = if smoke {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(2)
    };
    let warmup = measure / 4;

    println!(
        "datapath benchmark: {SEGMENT} B datagrams, {TRAIN}-segment trains, \
         {:.1} s per mode{}",
        measure.as_secs_f64(),
        if smoke { " (smoke)" } else { "" },
    );

    // The three classic arms run on the platform's default backend.
    let auto = BackendChoice::Auto;
    let single = run_mode(false, warmup, measure, None, auto);
    println!(
        "  single : {:>12.0} datagrams/s  {:>7.1} MB/s  {} syscalls",
        single.datagrams_per_sec(),
        single.bytes_per_sec() / 1e6,
        single.syscalls,
    );
    let batched = run_mode(true, warmup, measure, None, auto);
    println!(
        "  batched: {:>12.0} datagrams/s  {:>7.1} MB/s  {} syscalls  \
         {:.1} allocs/s steady-state",
        batched.datagrams_per_sec(),
        batched.bytes_per_sec() / 1e6,
        batched.syscalls,
        batched.allocs_per_sec,
    );
    // Third arm: the identical batched loop, now feeding a live
    // metrics plane the way a worker shard does (per-iteration
    // counters + loop-time histogram). Its cost relative to `batched`
    // is exactly what turning metrics on costs the datapath.
    let plane = EndpointPlane::new(1);
    let metered = run_mode(true, warmup, measure, Some(&plane), auto);
    let overhead = metered.datagrams_per_sec() / batched.datagrams_per_sec().max(1.0);
    println!(
        "  metered: {:>12.0} datagrams/s  {:>7.1} MB/s  {} syscalls  \
         {:.1} allocs/s steady-state  ({:.3}x of batched)",
        metered.datagrams_per_sec(),
        metered.bytes_per_sec() / 1e6,
        metered.syscalls,
        metered.allocs_per_sec,
        overhead,
    );

    let speedup = batched.datagrams_per_sec() / single.datagrams_per_sec().max(1.0);
    let saved = batched.datagrams.saturating_sub(batched.syscalls);
    println!("  speedup: {speedup:.2}x  ({saved} syscalls saved in batched mode)");

    // Per-backend matrix (DESIGN.md §17): the identical batched train,
    // once per pinned backend.
    println!("  backend matrix (auto is {}):", batched.backend);
    let matrix = [BackendChoice::Mmsg, BackendChoice::Portable].map(|arm| {
        let result = run_mode(true, warmup, measure, None, arm);
        println!(
            "    {:<8}: {:>12.0} datagrams/s  {} syscalls  \
             {:.1} allocs/s steady-state",
            result.backend,
            result.datagrams_per_sec(),
            result.syscalls,
            result.allocs_per_sec,
        );
        result
    });

    let json = render_json(
        &single, &batched, &metered, speedup, overhead, smoke, &matrix,
    );
    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("mpquic-bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("  wrote {out_path}");

    if let Some(path) = baseline_path {
        enforce_baseline(
            "mpquic-bench",
            path,
            "batched_datagrams_per_sec",
            batched.datagrams_per_sec(),
            Direction::HigherIsBetter,
        );
    }

    if gate {
        if overhead < OVERHEAD_FLOOR {
            eprintln!(
                "mpquic-bench: metrics overhead gate FAILED: metered/batched ratio \
                 {overhead:.3} < {OVERHEAD_FLOOR}"
            );
            std::process::exit(1);
        }
        if metered.allocs_per_sec > 0.0 {
            eprintln!(
                "mpquic-bench: metrics overhead gate FAILED: metered arm allocated \
                 in steady state ({:.1} allocs/s; the plane must be allocation-free)",
                metered.allocs_per_sec,
            );
            std::process::exit(1);
        }
        println!("  metrics overhead gate passed ({overhead:.3} >= {OVERHEAD_FLOOR}, 0 allocs/s)");
    }
}

/// One phase of the `conns` benchmark: M concurrent transfers.
struct ConnsResult {
    conns: usize,
    bytes: u64,
    datagrams: u64,
    elapsed: f64,
}

impl ConnsResult {
    fn datagrams_per_sec(&self) -> f64 {
        self.datagrams as f64 / self.elapsed.max(1e-9)
    }

    fn goodput_bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.elapsed.max(1e-9)
    }

    fn conns_per_sec(&self) -> f64 {
        self.conns as f64 / self.elapsed.max(1e-9)
    }
}

/// The endpoint benchmark: one sharded server endpoint, first 1 then M
/// concurrent client connections, each a full `mpq` transfer.
fn run_conns_bench(
    smoke: bool,
    conns: usize,
    workers: usize,
    out_path: &str,
    baseline_path: Option<&str>,
) {
    let size = if smoke {
        TRANSFER_BYTES_SMOKE
    } else {
        TRANSFER_BYTES
    };
    let config = Config::builder()
        .single_path()
        .max_incoming_connections(conns + 1)
        .worker_shards(workers)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("mpquic-bench: config: {e}");
            std::process::exit(1);
        });
    let listen: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
    let endpoint = Endpoint::bind(
        &[listen],
        config,
        0x5EED,
        Box::new(|_cid| Box::new(TransferApp::new())),
    )
    .unwrap_or_else(|e| {
        eprintln!("mpquic-bench: bind: {e}");
        std::process::exit(1);
    });
    let server = endpoint.local_addrs()[0];
    // 0 = auto; report the loops actually serving (one, where the
    // kernel cannot steer datagrams by connection ID).
    let workers = endpoint.workers();

    println!(
        "endpoint benchmark: {size} B per transfer, {workers} workers{}",
        if smoke { " (smoke)" } else { "" },
    );

    // Same total work in both phases — `conns` transfers run one after
    // another on a single connection at a time, then all concurrently —
    // so the comparison isolates what concurrency buys.
    let single = run_conns_phase(&endpoint, server, 1, conns, size, 0x1000);
    println!(
        "  single : {:>10.0} datagrams/s  {:>7.2} MB/s goodput  {:.2} conns/s",
        single.datagrams_per_sec(),
        single.goodput_bytes_per_sec() / 1e6,
        single.conns_per_sec(),
    );
    let multi = run_conns_phase(&endpoint, server, conns, 1, size, 0x2000);
    println!(
        "  x{conns:<5} : {:>10.0} datagrams/s  {:>7.2} MB/s goodput  {:.2} conns/s",
        multi.datagrams_per_sec(),
        multi.goodput_bytes_per_sec() / 1e6,
        multi.conns_per_sec(),
    );

    let speedup = multi.datagrams_per_sec() / single.datagrams_per_sec().max(1.0);
    println!("  speedup: {speedup:.2}x aggregate datagram rate over single-connection");

    let report = endpoint.shutdown();
    if report.totals.failed > 0 {
        eprintln!(
            "mpquic-bench: {} transfers failed verification",
            report.totals.failed
        );
        std::process::exit(1);
    }

    // Record the host's parallelism: the concurrent phase only beats
    // the serial one when shards actually run on separate cores, so a
    // sub-1x speedup on a single-core runner is expected, not a bug.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"benchmark\": \"endpoint_conns\",\n  \"smoke\": {smoke},\n  \
         \"workers\": {workers},\n  \"conns\": {conns},\n  \"cores\": {cores},\n  \
         \"transfer_bytes\": {size},\n  \
         \"single\": {{\n    \"datagrams_per_sec\": {:.0},\n    \
         \"goodput_bytes_per_sec\": {:.0},\n    \"conns_per_sec\": {:.3}\n  }},\n  \
         \"multi\": {{\n    \"datagrams_per_sec\": {:.0},\n    \
         \"goodput_bytes_per_sec\": {:.0},\n    \"conns_per_sec\": {:.3}\n  }},\n  \
         \"aggregate_datagrams_per_sec\": {:.0},\n  \
         \"aggregate_goodput_bytes_per_sec\": {:.0},\n  \"speedup\": {speedup:.3}\n}}\n",
        single.datagrams_per_sec(),
        single.goodput_bytes_per_sec(),
        single.conns_per_sec(),
        multi.datagrams_per_sec(),
        multi.goodput_bytes_per_sec(),
        multi.conns_per_sec(),
        multi.datagrams_per_sec(),
        multi.goodput_bytes_per_sec(),
    );
    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("mpquic-bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("  wrote {out_path}");

    if let Some(path) = baseline_path {
        enforce_baseline(
            "mpquic-bench",
            path,
            "aggregate_datagrams_per_sec",
            multi.datagrams_per_sec(),
            Direction::HigherIsBetter,
        );
    }
}

/// Runs `m` concurrent connection slots, each performing `rounds`
/// sequential transfers (a fresh connection per transfer), and returns
/// the aggregate over the phase's wall time. Datagram counts come from the
/// endpoint's ingress counter (its side of the load). `seed_base` must
/// differ between phases: the client seed determines its connection
/// ID, and a reused CID would hit the endpoint's retired-CID
/// tombstones from the previous phase.
fn run_conns_phase(
    endpoint: &Endpoint,
    server: SocketAddr,
    m: usize,
    rounds: usize,
    size: usize,
    seed_base: u64,
) -> ConnsResult {
    let before = endpoint.stats();
    let started = Instant::now();
    // Client threads are capped at the core count, each multiplexing
    // its share of the M connection slots through non-blocking
    // drivers. M blocking threads on fewer cores would measure the
    // scheduler's context-switch churn, not the endpoint.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = m.min(cores).max(1);
    let mut clients = Vec::with_capacity(threads);
    for t in 0..threads {
        let slots: Vec<usize> = (t..m).step_by(threads).collect();
        clients.push(std::thread::spawn(move || {
            run_client_slots(&slots, server, rounds, size, seed_base)
        }));
    }
    let mut bytes = 0u64;
    for client in clients {
        match client.join() {
            Ok(n) => bytes += n,
            Err(_) => {
                eprintln!("mpquic-bench: a client thread panicked");
                std::process::exit(1);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let after = endpoint.stats();
    ConnsResult {
        conns: m * rounds,
        bytes,
        datagrams: after.datagrams_in.saturating_sub(before.datagrams_in),
        elapsed,
    }
}

/// Grace given to a clean close before a slot's driver is dropped; the
/// server's idle timer reaps anything left hanging.
const CLOSE_GRACE: Duration = Duration::from_millis(50);

/// Drives this thread's connection slots concurrently through
/// non-blocking drivers: each slot performs `rounds` sequential `mpq`
/// transfers (a fresh connection per transfer), all slots interleaved
/// in one event loop. Returns the payload bytes transferred.
fn run_client_slots(
    slots: &[usize],
    server: SocketAddr,
    rounds: usize,
    size: usize,
    seed_base: u64,
) -> u64 {
    enum Phase {
        /// Request written; accumulating the response.
        Transfer,
        /// Clean close sent; waiting for it to land.
        Closing(Instant),
    }
    struct Slot {
        index: usize,
        round: usize,
        driver: mpquic_io::Driver<mpquic_io::QuicTransport>,
        phase: Phase,
        resp: Vec<u8>,
    }

    // One pattern buffer per thread; each transfer clones it into the
    // send stream (the per-round cost the blocking client also paid).
    let payload = transfer::pattern(size);
    let header = transfer::TransferHeader::for_data("bench.bin", &payload).encode();
    let open = |index: usize, round: usize| -> Slot {
        let config = Config::builder()
            .single_path()
            .build()
            .expect("client config");
        let local: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
        let seed = seed_base + (index * rounds + round) as u64;
        let mut driver = quic_client(config, &[local], server, seed).expect("client bind");
        // The whole request is buffered into the pre-opened app stream
        // up front; the core flushes it as the handshake and windows
        // allow.
        let conn = driver.connection_mut();
        let _ = conn.stream_write(APP_STREAM, bytes::Bytes::from(header.clone()));
        let _ = conn.stream_write(APP_STREAM, bytes::Bytes::from(payload.clone()));
        conn.stream_finish(APP_STREAM);
        Slot {
            index,
            round,
            driver,
            phase: Phase::Transfer,
            resp: Vec::with_capacity(16),
        }
    };

    let mut bytes = 0u64;
    let mut active: Vec<Slot> = slots.iter().map(|&i| open(i, 0)).collect();
    while !active.is_empty() {
        let mut progressed = false;
        let mut idx = 0;
        while idx < active.len() {
            let slot = &mut active[idx];
            progressed |= slot.driver.step().unwrap_or(false);
            let conn = slot.driver.connection_mut();
            match slot.phase {
                Phase::Transfer => {
                    while let Some(chunk) = conn.stream_read(APP_STREAM, usize::MAX) {
                        slot.resp.extend_from_slice(&chunk);
                    }
                    if conn.stream_is_finished(APP_STREAM) {
                        let (ok, _checksum) =
                            transfer::recv_response(&mut slot.resp.as_slice()).expect("response");
                        assert!(ok, "server failed to verify transfer");
                        bytes += size as u64;
                        // Close cleanly so the server retires the
                        // connection now instead of waiting out its
                        // idle timer (a pinned slot would starve the
                        // accept limit).
                        conn.close(0, "transfer complete");
                        slot.phase = Phase::Closing(Instant::now());
                        progressed = true;
                    }
                }
                Phase::Closing(since) => {
                    if conn.is_closed() || since.elapsed() > CLOSE_GRACE {
                        let (index, round) = (slot.index, slot.round + 1);
                        if round < rounds {
                            active[idx] = open(index, round);
                        } else {
                            active.swap_remove(idx);
                            continue;
                        }
                        progressed = true;
                    }
                }
            }
            idx += 1;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    bytes
}

fn usage(message: &str) -> ! {
    eprintln!("mpquic-bench: {message}");
    eprintln!(
        "usage: mpquic-bench [conns] [--smoke] [--out PATH] [--baseline PATH] \
         [--conns M] [--workers N] [--gate-overhead]"
    );
    std::process::exit(1)
}

/// Runs one mode: a receiver thread drains its registry while the main
/// thread sends as fast as the sockets accept, then reports accepted
/// datagrams over the measured window. With `plane`, every send
/// iteration also updates the endpoint metrics plane the way a worker
/// shard's loop does — Relaxed counter bumps plus a log2 histogram
/// record of the iteration time — so the metered arm prices exactly
/// the per-iteration instrumentation the real datapath carries.
fn run_mode(
    batched: bool,
    warmup: Duration,
    measure: Duration,
    plane: Option<&EndpointPlane>,
    choice: BackendChoice,
) -> ModeResult {
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback literal");
    let bind = || {
        SocketRegistry::bind_with(&[loopback], choice).unwrap_or_else(|e| {
            eprintln!("mpquic-bench: cannot bind a loopback socket: {e}");
            std::process::exit(1);
        })
    };
    let (mut sender, mut receiver) = (bind(), bind());
    let from = sender.local_addrs()[0];
    let to = receiver.local_addrs()[0];

    let stop = Arc::new(AtomicBool::new(false));
    let drain_stop = stop.clone();
    let drain = std::thread::spawn(move || {
        let mut batch = RecvBatch::new(64);
        let mut received: u64 = 0;
        // Acquire pairs with the main thread's Release store below.
        while !drain_stop.load(Ordering::Acquire) {
            match receiver.poll_recv_batch(&mut batch) {
                Ok(0) => std::thread::yield_now(),
                Ok(n) => received += n as u64,
                Err(_) => std::thread::yield_now(),
            }
        }
        received
    });

    let payload = vec![0xa5u8; SEGMENT * TRAIN];
    let mut datagrams: u64 = 0;

    // Warm-up: reach steady state (socket buffers sized, scratch arrays
    // at high-water capacity), then reset the counters.
    let warm_until = Instant::now() + warmup;
    while Instant::now() < warm_until {
        send_once(&mut sender, from, to, &payload, batched);
    }
    alloc_count::reset_thread_counts();
    let syscalls_before = sender.batch_stats().send_syscalls;
    let started = Instant::now();

    let until = started + measure;
    match plane {
        None => {
            while Instant::now() < until {
                datagrams += send_once(&mut sender, from, to, &payload, batched);
            }
        }
        Some(plane) => {
            let shard = plane.shard(0);
            loop {
                let iter_start = Instant::now();
                if iter_start >= until {
                    break;
                }
                let sent = send_once(&mut sender, from, to, &payload, batched);
                datagrams += sent;
                plane.stats.datagrams_in.add(sent);
                shard.loop_iterations.add(1);
                if sent > 0 {
                    shard.busy_iterations.add(1);
                }
                shard.loop_ns.record(iter_start.elapsed().as_nanos() as u64);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let allocs = alloc_count::thread_counts().allocs;
    let syscalls = sender.batch_stats().send_syscalls - syscalls_before;

    // Release pairs with the drain thread's Acquire load: everything
    // sent before the stop is visible to its final accounting.
    stop.store(true, Ordering::Release);
    let _ = drain.join();

    ModeResult {
        backend: sender.backend_kind().name(),
        datagrams,
        bytes: datagrams * SEGMENT as u64,
        syscalls,
        elapsed,
        allocs_per_sec: allocs as f64 / elapsed,
    }
}

fn send_once(
    sender: &mut SocketRegistry,
    from: SocketAddr,
    to: SocketAddr,
    payload: &[u8],
    batched: bool,
) -> u64 {
    if batched {
        sender
            .send_train(from, to, payload, Some(SEGMENT))
            .unwrap_or(0) as u64
    } else {
        let mut sent = 0;
        for chunk in payload.chunks(SEGMENT) {
            sent += sender.send_train(from, to, chunk, None).unwrap_or(0) as u64;
        }
        sent
    }
}

fn render_json(
    single: &ModeResult,
    batched: &ModeResult,
    metered: &ModeResult,
    speedup: f64,
    overhead: f64,
    smoke: bool,
    matrix: &[ModeResult],
) -> String {
    let arms: Vec<String> = matrix
        .iter()
        .map(|r| {
            format!(
                "\n    \"{}\": {{\n      \"datagrams_per_sec\": {:.0},\n      \
                 \"bytes_per_sec\": {:.0},\n      \"syscalls\": {},\n      \
                 \"allocs_steady_state_per_sec\": {:.1}\n    }}",
                r.backend,
                r.datagrams_per_sec(),
                r.bytes_per_sec(),
                r.syscalls,
                r.allocs_per_sec,
            )
        })
        .collect();
    let backends = format!("{{{}\n  }}", arms.join(","));
    let auto_backend = batched.backend;

    format!(
        "{{\n  \"benchmark\": \"datapath_loopback\",\n  \"smoke\": {smoke},\n  \
         \"segment_bytes\": {SEGMENT},\n  \"train_segments\": {TRAIN},\n  \
         \"auto_backend\": \"{auto_backend}\",\n  \
         \"single\": {{\n    \"datagrams_per_sec\": {:.0},\n    \
         \"bytes_per_sec\": {:.0},\n    \"syscalls\": {}\n  }},\n  \
         \"batched\": {{\n    \"datagrams_per_sec\": {:.0},\n    \
         \"bytes_per_sec\": {:.0},\n    \"syscalls\": {},\n    \
         \"allocs_steady_state_per_sec\": {:.1},\n    \
         \"syscalls_saved\": {}\n  }},\n  \
         \"metered\": {{\n    \"datagrams_per_sec\": {:.0},\n    \
         \"bytes_per_sec\": {:.0},\n    \"syscalls\": {},\n    \
         \"allocs_steady_state_per_sec\": {:.1}\n  }},\n  \
         \"backends\": {backends},\n  \
         \"batched_datagrams_per_sec\": {:.0},\n  \
         \"metrics_overhead_ratio\": {overhead:.3},\n  \"speedup\": {speedup:.3}\n}}\n",
        single.datagrams_per_sec(),
        single.bytes_per_sec(),
        single.syscalls,
        batched.datagrams_per_sec(),
        batched.bytes_per_sec(),
        batched.syscalls,
        batched.allocs_per_sec,
        batched.datagrams.saturating_sub(batched.syscalls),
        metered.datagrams_per_sec(),
        metered.bytes_per_sec(),
        metered.syscalls,
        metered.allocs_per_sec,
        batched.datagrams_per_sec(),
    )
}
