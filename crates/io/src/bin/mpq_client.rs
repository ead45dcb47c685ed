//! `mpq-client` — upload one payload over real UDP and have the server
//! verify it.
//!
//! ```text
//! mpq-client --connect ADDR [--local ADDR]... [--file PATH | --size BYTES]
//!            [--single-path | --multipath] [--scheduler NAME] [--qlog FILE]
//!            [--stats-interval SECS] [--seed N] [--timeout SECS]
//! ```
//!
//! Binds one UDP socket per `--local` address (defaults: two ephemeral
//! loopback ports under `--multipath`, one under `--single-path`), dials
//! the server from the first, and — once the handshake completes and the
//! server's ADD_ADDRESS frames arrive — the path manager opens one
//! additional path per extra local address. The file (or a `--size`-byte
//! synthetic payload, `k`/`m`/`g` suffixes accepted) goes up as one
//! `mpq-rpc` exchange ([`mpquic_io::rpc`]); the server echoes the
//! checksum of what it reassembled, and the exit status reflects that
//! verdict. A payload over 64 MiB (`MAX_RPC_PAYLOAD`, the protocol's
//! cap on one message) is refused before any socket is bound. Per-path
//! statistics show how the lowest-RTT scheduler split the upload.

use mpquic_core::Config;
use mpquic_io::cli::{
    entropy_seed, install_telemetry, print_report, scheduler_kind, stats_interval, Args,
};
use mpquic_io::rpc::{response_pattern, MAX_RPC_PAYLOAD};
use mpquic_io::{quic_client, RpcCall};
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
             [--stats-interval SECS] [--seed N] [--timeout SECS]\n\
             the payload is one mpq-rpc message: at most {} bytes (64 MiB)",
            MAX_RPC_PAYLOAD
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

    let payload = load_payload(args.value("file"), args.value("size"))?;

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

    let established = driver
        .run_until(timeout, |t| t.conn.is_established())
        .map_err(|e| format!("handshake: {e}"))?;
    if !established {
        return Err("handshake timed out".into());
    }
    let started = Instant::now();

    // One exchange, the last on this connection: the payload up, no
    // response body. The verdict is the server's echo of the checksum.
    let mut call = RpcCall::start(driver.connection_mut(), &payload, 0, true);
    println!("sending {} bytes", payload.len());
    let mut verdict = None;
    driver
        .run_until(timeout, |t| {
            verdict = call.poll(&mut t.conn);
            verdict.is_some() || t.conn.is_closed()
        })
        .map_err(|e| format!("upload: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();

    driver.connection_mut().close(0, "transfer complete");
    let _ = driver.run_for(Duration::from_millis(100));

    print_report("mpq-client", &driver, elapsed, Some(&metrics.snapshot()));

    match verdict {
        Some(v) if v.ok && v.intact => {
            println!("server verified the transfer");
            Ok(())
        }
        Some(v) if v.ok => Err("server echoed a different checksum than ours".into()),
        Some(_) => Err("server rejected the request".into()),
        None => Err("no verdict: the connection closed or --timeout expired first".into()),
    }
}

/// The bytes to upload: `--file`'s contents, else a `--size`-byte
/// synthetic pattern (default `4m`). Refuses anything over
/// [`MAX_RPC_PAYLOAD`] — one `mpq-rpc` message cannot carry it — and
/// checks a file's length before reading it.
fn load_payload(file: Option<&str>, size: Option<&str>) -> Result<Vec<u8>, String> {
    let fits = |len: u64, flag: &str| {
        if len > MAX_RPC_PAYLOAD as u64 {
            return Err(format!(
                "{flag}: {len} bytes is over the {MAX_RPC_PAYLOAD}-byte (64 MiB) \
                 limit of one mpq-rpc message"
            ));
        }
        Ok(())
    };
    match file {
        Some(path) => {
            let meta = std::fs::metadata(path).map_err(|e| format!("--file: {e}"))?;
            fits(meta.len(), "--file")?;
            let data = std::fs::read(path).map_err(|e| format!("--file: {e}"))?;
            // A pipe or a growing file has no length to trust.
            fits(data.len() as u64, "--file")?;
            Ok(data)
        }
        None => {
            let size = parse_size(size.unwrap_or("4m"))?;
            fits(size as u64, "--size")?;
            Ok(response_pattern(size, 0))
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_take_binary_suffixes() {
        assert_eq!(parse_size("512"), Ok(512));
        assert_eq!(parse_size("64k"), Ok(64 << 10));
        assert_eq!(parse_size(" 3M "), Ok(3 << 20));
        assert!(parse_size("lots").is_err());
        assert!(parse_size("99999999999999g").is_err());
    }

    /// User input must reach `RpcCall::start` already inside its cap —
    /// past it sits an `assert!`.
    #[test]
    fn a_payload_over_the_rpc_cap_is_a_usage_error() {
        let at_cap = MAX_RPC_PAYLOAD.to_string();
        assert_eq!(
            load_payload(None, Some(&at_cap)).map(|p| p.len()),
            Ok(MAX_RPC_PAYLOAD)
        );
        assert_eq!(
            load_payload(None, Some("64m")).map(|p| p.len()),
            Ok(64 << 20)
        );
        for over in [(MAX_RPC_PAYLOAD + 1).to_string(), "65m".into(), "1g".into()] {
            let err = load_payload(None, Some(&over)).unwrap_err();
            assert!(err.contains("--size") && err.contains("64 MiB"), "{err}");
        }
        assert_eq!(load_payload(None, None).map(|p| p.len()), Ok(4 << 20));
    }

    #[test]
    fn an_oversized_file_is_refused_by_its_length() {
        let dir = std::env::temp_dir();
        let small = dir.join(format!("mpq-client-small-{}", std::process::id()));
        std::fs::write(&small, b"multipath").expect("write small file");
        assert_eq!(
            load_payload(small.to_str(), Some("1g")),
            Ok(b"multipath".to_vec()),
            "--file wins over --size"
        );
        let _ = std::fs::remove_file(&small);

        // Sparse: a length past the cap, no blocks behind it.
        let big = dir.join(format!("mpq-client-big-{}", std::process::id()));
        let file = std::fs::File::create(&big).expect("create big file");
        file.set_len(MAX_RPC_PAYLOAD as u64 + 1).expect("extend");
        drop(file);
        let err = load_payload(big.to_str(), None).unwrap_err();
        assert!(err.contains("--file") && err.contains("64 MiB"), "{err}");
        let _ = std::fs::remove_file(&big);

        assert!(load_payload(Some("/nonexistent/mpq"), None)
            .unwrap_err()
            .starts_with("--file:"));
    }
}
