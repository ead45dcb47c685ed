//! `mpq-server` — serve `mpq-rpc` over real UDP.
//!
//! ```text
//! mpq-server [--listen ADDR]... [--single-path | --multipath]
//!            [--scheduler NAME] [--max-conns N] [--workers N]
//!            [--seed N] [--timeout SECS]
//!            [--metrics-addr ADDR] [--metrics-json FILE]
//!            [--metrics-interval SECS] [--flight-dump FILE]
//! ```
//!
//! Binds one UDP socket per `--listen` address (default `127.0.0.1:4433`)
//! and serves **many concurrent clients** through an
//! [`mpquic_io::Endpoint`]: `--workers` identical loops (default: one
//! per core), each with its own sockets, and the kernel delivers each
//! datagram to the loop that owns its connection ID. Every connection
//! runs [`mpquic_io::RpcServerApp`] — the application `mpquic-loadgen`
//! and the `perf/` yardstick drive: each client-opened stream is one
//! request/response exchange, answered with the checksum of the request
//! as reassembled here. An `mpq-client` upload is one such exchange.
//!
//! `--max-conns` (default 1, the old single-shot behaviour) is both the
//! accept limit — datagrams with new connection IDs beyond it are
//! dropped and counted — and the number of connections served before
//! the process prints its per-shard report and exits. A connection
//! counts as completed once the request its client marked final has
//! been answered and acknowledged; one that sent a malformed request,
//! or closed without a final one, counts as failed. The exit status is
//! non-zero if any connection failed or `--timeout` expired first.
//!
//! With `--multipath` (the default) every listen address is advertised
//! to each client via ADD_ADDRESS so it can open one path per local
//! interface.
//!
//! The observability flags expose the endpoint's metrics plane
//! (DESIGN.md §15): `--metrics-addr` serves Prometheus text exposition
//! on `/metrics` (plus `/snapshot` and `/flight`); `--metrics-json`
//! appends one JSON snapshot line every `--metrics-interval` seconds
//! (default 1); `--flight-dump` writes the flight recorder's last
//! events as JSON lines at exit — the same dump `/flight` serves live.

use mpquic_core::Config;
use mpquic_io::cli::{
    entropy_seed, metrics_addr, metrics_interval, print_endpoint_report, scheduler_kind, Args,
};
use mpquic_io::{Endpoint, RpcServerApp};
use mpquic_telemetry::endpoint::{MetricsServer, SnapshotWriter};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn main() {
    if let Err(message) = run() {
        eprintln!("mpq-server: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse();
    if args.has("help") {
        println!(
            "usage: mpq-server [--listen ADDR]... [--single-path|--multipath] \
             [--scheduler NAME] [--max-conns N] [--workers N] [--seed N] \
             [--timeout SECS] [--metrics-addr ADDR] [--metrics-json FILE] \
             [--metrics-interval SECS] [--flight-dump FILE]"
        );
        return Ok(());
    }
    let mut listen = args.addrs("listen")?;
    if listen.is_empty() {
        listen.push(SocketAddr::from(([127, 0, 0, 1], 4433)));
    }
    let single_path = args.has("single-path");
    let max_conns: usize = match args.value("max-conns") {
        Some(raw) => raw
            .parse()
            .map_err(|_| "--max-conns: not a number".to_string())?,
        None => 1,
    };
    let workers: usize = match args.value("workers") {
        Some(raw) => raw
            .parse()
            .map_err(|_| "--workers: not a number".to_string())?,
        None => 0, // auto: one shard per core
    };
    let seed = match args.value("seed") {
        Some(raw) => raw
            .parse()
            .map_err(|_| "--seed: not a number".to_string())?,
        None => entropy_seed(),
    };
    let timeout = Duration::from_secs(match args.value("timeout") {
        Some(raw) => raw
            .parse()
            .map_err(|_| "--timeout: not a number".to_string())?,
        None => 600,
    });

    let mut builder = if single_path {
        Config::builder().single_path()
    } else {
        Config::builder().multipath()
    }
    .max_incoming_connections(max_conns)
    .worker_shards(workers);
    if let Some(kind) = scheduler_kind(&args)? {
        builder = builder.scheduler(kind);
    }
    let config = builder.build().map_err(|e| format!("config: {e}"))?;

    let endpoint = Endpoint::bind(
        &listen,
        config,
        seed,
        Box::new(|_cid| Box::new(RpcServerApp::new())),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let plane = endpoint.plane();
    let _metrics_server = match metrics_addr(&args)? {
        Some(addr) => {
            let server = MetricsServer::serve(addr, endpoint.plane())
                .map_err(|e| format!("--metrics-addr: {e}"))?;
            println!("metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let _snapshot_writer = match args.value("metrics-json") {
        Some(path) => Some(
            SnapshotWriter::spawn(path, endpoint.plane(), metrics_interval(&args)?)
                .map_err(|e| format!("--metrics-json: {e}"))?,
        ),
        None => None,
    };
    println!(
        "listening on {:?} ({}, {} workers, up to {} connections)",
        endpoint.local_addrs(),
        if single_path {
            "single-path"
        } else {
            "multipath"
        },
        endpoint.workers(),
        max_conns,
    );

    // Serve until `--max-conns` connections have finished (counting
    // failures, so a misbehaving client cannot pin the process) or the
    // deadline passes.
    let started = Instant::now();
    let deadline = started + timeout;
    let timed_out = loop {
        let snap = endpoint.stats();
        if (snap.completed + snap.failed) as usize >= max_conns {
            break false;
        }
        if Instant::now() >= deadline {
            break true;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let elapsed = started.elapsed().as_secs_f64();

    let report = endpoint.shutdown();
    print_endpoint_report("mpq-server", &report, elapsed);

    if let Some(path) = args.value("flight-dump") {
        std::fs::write(path, plane.recorder.dump_json_lines())
            .map_err(|e| format!("--flight-dump: {e}"))?;
        println!("flight recorder dumped to {path}");
    }

    if timed_out {
        return Err(format!(
            "timed out after {:.0}s with {}/{} connections done",
            timeout.as_secs_f64(),
            report.totals.completed + report.totals.failed,
            max_conns,
        ));
    }
    if report.totals.failed > 0 {
        return Err(format!(
            "{} of {} connections failed",
            report.totals.failed,
            report.totals.completed + report.totals.failed,
        ));
    }
    Ok(())
}
