//! `mpq-client` — send one authenticated file transfer over real UDP.
//!
//! ```text
//! mpq-client --connect ADDR [--local ADDR]... [--file PATH | --size BYTES]
//!            [--single-path | --multipath] [--scheduler NAME] [--qlog FILE]
//!            [--stats-interval SECS] [--name NAME] [--seed N] [--timeout SECS]
//! ```
//!
//! Binds one UDP socket per `--local` address (defaults: two ephemeral
//! loopback ports under `--multipath`, one under `--single-path`), dials
//! the server from the first, and — once the handshake completes and the
//! server's ADD_ADDRESS frames arrive — the path manager opens one
//! additional path per extra local address. The file (or a `--size`-byte
//! synthetic payload) is sent with a checksum header; the exit status
//! reflects the server's verification verdict. Per-path statistics show
//! how the lowest-RTT scheduler split the transfer.

use mpquic_core::Config;
use mpquic_io::cli::{
    entropy_seed, install_telemetry, print_report, scheduler_kind, stats_interval, Args,
};
use mpquic_io::{quic_client, transfer, BlockingStream};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn main() {
    if let Err(message) = run() {
        eprintln!("mpq-client: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse();
    if args.has("help") {
        println!(
            "usage: mpq-client --connect ADDR [--local ADDR]... [--file PATH | --size BYTES] \
             [--single-path|--multipath] [--scheduler NAME] [--qlog FILE] \
             [--stats-interval SECS] [--name NAME] [--seed N] [--timeout SECS]"
        );
        return Ok(());
    }

    let remote: SocketAddr = args
        .value("connect")
        .ok_or("--connect ADDR is required")?
        .parse()
        .map_err(|_| "--connect: invalid address".to_string())?;
    let single_path = args.has("single-path");
    let mut locals = args.addrs("local")?;
    if locals.is_empty() {
        let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
        locals.push(loopback);
        if !single_path {
            locals.push(loopback);
        }
    }
    let qlog_path = args.value("qlog").map(str::to_string);
    let stats_every = stats_interval(&args)?;
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
        None => 60,
    });

    let (name, payload) = match args.value("file") {
        Some(path) => {
            let data = std::fs::read(path).map_err(|e| format!("--file: {e}"))?;
            let name = args.value("name").unwrap_or(path).to_string();
            (name, data)
        }
        None => {
            let size = parse_size(args.value("size").unwrap_or("4m"))?;
            let name = args.value("name").unwrap_or("synthetic.bin").to_string();
            (name, transfer::pattern(size))
        }
    };

    let mut builder = if single_path {
        Config::builder().single_path()
    } else {
        Config::builder().multipath()
    };
    if let Some(kind) = scheduler_kind(&args)? {
        builder = builder.scheduler(kind);
    }
    let config = builder.build().map_err(|e| format!("config: {e}"))?;

    let mut driver =
        quic_client(config, &locals, remote, seed).map_err(|e| format!("bind: {e}"))?;
    // Streaming telemetry: the qlog is written incrementally and flushed
    // when the connection drops, so a timeout or error exit still leaves
    // the trace on disk.
    let metrics = install_telemetry(driver.connection_mut(), qlog_path.as_deref(), stats_every)?;
    if let Some(path) = &qlog_path {
        println!("qlog streaming to {path}");
    }
    println!(
        "dialing {remote} from {:?} ({})",
        driver.local_addrs(),
        if single_path {
            "single-path"
        } else {
            "multipath"
        }
    );

    let mut stream = BlockingStream::with_timeout(driver, timeout);
    stream
        .wait_established()
        .map_err(|e| format!("handshake: {e}"))?;
    let started = Instant::now();

    let checksum = mpquic_util::Checksum64::of(&payload);
    transfer::send_request(&mut stream, &name, &payload).map_err(|e| format!("send: {e}"))?;
    stream.finish().map_err(|e| format!("finish: {e}"))?;
    println!(
        "sent {:?}: {} bytes, checksum {checksum:#018x}",
        name,
        payload.len()
    );

    let (verified, server_checksum) =
        transfer::recv_response(&mut stream).map_err(|e| format!("response: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();

    let driver = stream.driver_mut();
    driver.connection_mut().close(0, "transfer complete");
    let _ = driver.run_for(Duration::from_millis(100));

    print_report(
        "mpq-client",
        driver.connection(),
        &driver.stats(),
        &driver.socket_drops(),
        driver.batch_stats(),
        (driver.backend_kind(), &driver.backend_stats()),
        elapsed,
        Some(&metrics.snapshot()),
    );

    if !verified || server_checksum != checksum {
        return Err(format!(
            "server failed to verify the transfer (ours {checksum:#018x}, theirs {server_checksum:#018x})"
        ));
    }
    println!("server verified the transfer");
    Ok(())
}

/// Parses a byte count with an optional `k`/`m`/`g` (binary) suffix.
fn parse_size(raw: &str) -> Result<usize, String> {
    let raw = raw.trim().to_ascii_lowercase();
    let (digits, shift) = if let Some(prefix) = raw.strip_suffix('k') {
        (prefix, 10)
    } else if let Some(prefix) = raw.strip_suffix('m') {
        (prefix, 20)
    } else if let Some(prefix) = raw.strip_suffix('g') {
        (prefix, 30)
    } else {
        (raw.as_str(), 0)
    };
    let base: usize = digits
        .parse()
        .map_err(|_| format!("--size: invalid byte count {raw:?}"))?;
    base.checked_mul(1usize << shift)
        .ok_or_else(|| "--size: too large".to_string())
}
