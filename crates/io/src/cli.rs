//! Minimal flag parsing and reporting shared by `mpq-server` and
//! `mpq-client` (std-only; no argument-parsing dependency).

use mpquic_core::telemetry::{
    MetricsHandle, MetricsSnapshot, MetricsSubscriber, StatsReporter, StreamingQlog,
};
use mpquic_core::{Connection, SchedulerKind};
use mpquic_harness::QuicTransport;
use std::net::SocketAddr;
use std::time::Duration;

use crate::driver::Driver;

/// A parsed command line: flags with optional values, in order.
#[derive(Debug, Default)]
pub struct Args {
    items: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `std::env::args` (skipping the program name). Flags start
    /// with `--`; a flag's value is the following argument unless that
    /// also starts with `--`.
    pub fn parse() -> Args {
        Args::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut items = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next(),
                    _ => None,
                };
                items.push((flag.to_string(), value));
            } else {
                // Bare positional: keep under an empty flag name.
                items.push((String::new(), Some(arg)));
            }
        }
        Args { items }
    }

    /// True if `flag` appeared.
    pub fn has(&self, flag: &str) -> bool {
        self.items.iter().any(|(name, _)| name == flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.items
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Every value given for a repeatable `flag`, in order.
    pub fn values(&self, flag: &str) -> Vec<&str> {
        self.items
            .iter()
            .filter(|(name, _)| name == flag)
            .filter_map(|(_, value)| value.as_deref())
            .collect()
    }

    /// Parses every value of a repeatable address flag.
    pub fn addrs(&self, flag: &str) -> Result<Vec<SocketAddr>, String> {
        self.values(flag)
            .into_iter()
            .map(|value| {
                value
                    .parse()
                    .map_err(|_| format!("--{flag}: invalid address {value:?}"))
            })
            .collect()
    }
}

/// A process-unique RNG seed for connection IDs (the protocol needs
/// unpredictability only across invocations, not cryptographic strength —
/// packet protection supplies that).
pub fn entropy_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ (std::process::id() as u64).rotate_left(32)
}

/// Parses the binaries' `--stats-interval SECS` flag (fractional seconds
/// allowed); `None` when the flag was not given.
pub fn stats_interval(args: &Args) -> Result<Option<Duration>, String> {
    let Some(raw) = args.value("stats-interval") else {
        return Ok(None);
    };
    let secs: f64 = raw
        .parse()
        .map_err(|_| "--stats-interval: not a number".to_string())?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--stats-interval: must be positive".to_string());
    }
    Ok(Some(Duration::from_secs_f64(secs)))
}

/// Parses the binaries' `--scheduler NAME` flag into a
/// [`SchedulerKind`]; `None` when the flag was not given. The shared
/// `FromStr` impl supplies the error message, which lists every valid
/// scheduler name.
pub fn scheduler_kind(args: &Args) -> Result<Option<SchedulerKind>, String> {
    match args.value("scheduler") {
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| format!("--scheduler: {e}")),
        None => Ok(None),
    }
}

/// Parses `mpq-server`'s `--metrics-addr HOST:PORT` flag — where the
/// [`mpquic_core::telemetry`]-independent scrape server
/// (`mpquic_telemetry::endpoint::MetricsServer`) should listen; `None`
/// when the flag was not given.
pub fn metrics_addr(args: &Args) -> Result<Option<SocketAddr>, String> {
    let Some(raw) = args.value("metrics-addr") else {
        return Ok(None);
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("--metrics-addr: invalid address {raw:?}"))
}

/// Parses `mpq-server`'s `--metrics-interval SECS` flag (fractional
/// seconds allowed) — the period of the JSON-lines snapshot writer.
/// Defaults to one second when only `--metrics-json` was given.
pub fn metrics_interval(args: &Args) -> Result<Duration, String> {
    let Some(raw) = args.value("metrics-interval") else {
        return Ok(Duration::from_secs(1));
    };
    let secs: f64 = raw
        .parse()
        .map_err(|_| "--metrics-interval: not a number".to_string())?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--metrics-interval: must be positive".to_string());
    }
    Ok(Duration::from_secs_f64(secs))
}

/// Installs the binaries' telemetry stack on a connection:
///
/// * a metrics registry (always — feeds the per-path section of
///   [`print_report`]);
/// * a streaming qlog writer when `qlog_path` is given. Events are
///   written as they happen and the buffer is flushed when the
///   connection drops, so error and timeout exits still leave a trace —
///   unlike the old write-on-success-only behaviour;
/// * a periodic stats reporter (`--stats-interval`) printing one
///   summary line per path to stdout.
///
/// Returns the handle to snapshot the metrics at the end of the run.
pub fn install_telemetry(
    conn: &mut Connection,
    qlog_path: Option<&str>,
    stats_every: Option<Duration>,
) -> Result<MetricsHandle, String> {
    let (metrics, handle) = MetricsSubscriber::new();
    let qlog = match qlog_path {
        Some(path) => Some(StreamingQlog::create(path).map_err(|e| format!("--qlog: {e}"))?),
        None => None,
    };
    let stats = stats_every.map(|every| StatsReporter::new(every, std::io::stdout()));
    conn.set_subscriber(Box::new((metrics, (qlog, stats))));
    Ok(handle)
}

/// Prints a one-connection driver's end-of-run report: per-path byte
/// counts and smoothed RTTs (with loss and scheduler share when a
/// metrics snapshot is supplied), connection totals, socket-level
/// counters with per-socket send drops, and a datapath batching
/// summary (datagrams per syscall, syscalls saved).
pub fn print_report(
    label: &str,
    driver: &Driver<QuicTransport>,
    elapsed_secs: f64,
    metrics: Option<&MetricsSnapshot>,
) {
    let conn = driver.connection();
    let stats = conn.stats();
    let io = driver.stats();
    let sockets = driver.sockets();
    let batch = sockets.batch_stats();
    let backend = sockets.backend_stats();
    println!("--- {label} ---");
    for id in conn.path_ids() {
        let Some(path) = conn.path(id) else { continue };
        println!(
            "path {}: {} -> {}  sent {} B, received {} B, srtt {:.2} ms",
            id.0,
            path.local,
            path.remote,
            path.bytes_sent,
            path.bytes_received,
            path.rtt.srtt().as_secs_f64() * 1e3,
        );
        if let Some(p) = metrics.and_then(|m| m.path(id)) {
            println!(
                "        rtt p50/p99 {:.2}/{:.2} ms, cwnd {} (max {}), \
                 loss {:.2}%, sched share {:.1}%, {} retransmits",
                p.rtt_p50_us as f64 / 1e3,
                p.rtt_p99_us as f64 / 1e3,
                p.cwnd,
                p.cwnd_max,
                p.loss_percent,
                p.sched_share * 100.0,
                p.frames_retransmitted,
            );
        }
    }
    println!(
        "totals: {} pkts / {} B sent, {} pkts / {} B received, {} retransmitted frames, {} RTOs",
        stats.packets_sent,
        stats.bytes_sent,
        stats.packets_received,
        stats.bytes_received,
        stats.frames_retransmitted,
        stats.rtos,
    );
    println!(
        "sockets: {} datagrams out ({} dropped at socket), {} in, {} timer fires",
        io.datagrams_sent, io.send_drops, io.datagrams_received, io.timer_fires,
    );
    for (local, drops) in sockets.send_drops_per_socket() {
        if drops > 0 {
            println!("        {local}: {drops} datagrams dropped (send buffer full)");
        }
    }
    if batch.send_syscalls > 0 {
        println!(
            "batching: {} send syscalls ({:.2} datagrams/syscall mean, {} max, \
             p99 {}), {} recv syscalls ({:.2} mean), {} syscalls saved",
            batch.send_syscalls,
            batch.send_batch_size.mean(),
            batch.send_batch_size.max(),
            batch.send_batch_size.quantile(0.99),
            batch.recv_syscalls,
            batch.recv_batch_size.mean(),
            batch.syscalls_saved,
        );
    }
    if backend.submissions > 0 || backend.fallbacks > 0 {
        println!(
            "backend: {} — {} submissions, {} completions, {} fallbacks \
             (batch mean {}, max {})",
            sockets.backend_kind(),
            backend.submissions,
            backend.completions,
            backend.fallbacks,
            backend.sqe_batch.mean(),
            backend.sqe_batch.max(),
        );
    }
    if elapsed_secs > 0.0 {
        let goodput = stats.bytes_sent.max(stats.bytes_received) as f64 * 8.0 / elapsed_secs / 1e6;
        println!("elapsed: {elapsed_secs:.3} s ({goodput:.2} Mbit/s on the busier direction)");
    }
}

/// Prints a multi-connection endpoint's end-of-run report: one line per
/// worker shard, the merged socket/batching counters (folded with
/// [`crate::IoStats::merge`] / [`crate::BatchStats::merge`]), and the
/// endpoint-level accept/verdict totals.
pub fn print_endpoint_report(label: &str, report: &crate::EndpointReport, elapsed_secs: f64) {
    let totals = &report.totals;
    println!("--- {label} ---");
    for shard in &report.shards {
        println!(
            "shard {}: {} conns, {} datagrams out / {} in, {} B out / {} B in, \
             {} timer fires, {} send drops",
            shard.shard,
            shard.conns_served,
            shard.io.datagrams_sent,
            shard.io.datagrams_received,
            shard.io.bytes_sent,
            shard.io.bytes_received,
            shard.io.timer_fires,
            shard.io.send_drops,
        );
    }
    let io = report.merged_io();
    let batch = report.merged_batch();
    println!(
        "sockets: {} datagrams out ({} dropped at socket), {} in across {} shards",
        io.datagrams_sent,
        io.send_drops,
        io.datagrams_received,
        report.shards.len(),
    );
    if batch.send_syscalls > 0 {
        println!(
            "batching: {} send syscalls ({:.2} datagrams/syscall mean, {} max), \
             {} syscalls saved",
            batch.send_syscalls,
            batch.send_batch_size.mean(),
            batch.send_batch_size.max(),
            batch.syscalls_saved,
        );
    }
    let backend = report.merged_backend();
    if backend.submissions > 0 || backend.fallbacks > 0 {
        println!(
            "backend: {} submissions, {} completions, {} fallbacks \
             (batch mean {}, max {})",
            backend.submissions,
            backend.completions,
            backend.fallbacks,
            backend.sqe_batch.mean(),
            backend.sqe_batch.max(),
        );
    }
    println!(
        "connections: {} accepted, {} completed, {} failed, {} closed, \
         {} rejected at limit, {} malformed, {} for retired CIDs, {} receive errors",
        totals.accepted,
        totals.completed,
        totals.failed,
        totals.closed,
        totals.rejected,
        totals.malformed,
        totals.tombstoned,
        totals.recv_errors,
    );
    let plane = &report.plane;
    if plane.loop_ns.count() > 0 {
        println!(
            "plane: {} wakeups, loop p50/p99 {}/{} ns",
            plane.wakeups,
            plane.loop_ns.quantile(0.50),
            plane.loop_ns.quantile(0.99),
        );
    }
    if elapsed_secs > 0.0 && totals.closed > 0 {
        println!(
            "elapsed: {elapsed_secs:.3} s ({:.1} accepts/s, {:.1} closes/s, \
             {:.2} Mbit/s aggregate in)",
            totals.accepted as f64 / elapsed_secs,
            totals.closed as f64 / elapsed_secs,
            io.bytes_received as f64 * 8.0 / elapsed_secs / 1e6,
        );
    } else if elapsed_secs > 0.0 && totals.completed > 0 {
        println!(
            "elapsed: {elapsed_secs:.3} s ({:.1} connections/s, {:.2} Mbit/s aggregate in)",
            totals.completed as f64 / elapsed_secs,
            io.bytes_received as f64 * 8.0 / elapsed_secs / 1e6,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_values_and_repeats() {
        let a = args(&[
            "--listen",
            "127.0.0.1:4433",
            "--local",
            "1.2.3.4:0",
            "--local",
            "5.6.7.8:0",
            "--single-path",
            "--qlog",
            "out.jsonl",
        ]);
        assert!(a.has("single-path"));
        assert!(!a.has("multipath"));
        assert_eq!(a.value("listen"), Some("127.0.0.1:4433"));
        assert_eq!(a.value("qlog"), Some("out.jsonl"));
        assert_eq!(a.values("local").len(), 2);
        assert_eq!(a.addrs("local").unwrap().len(), 2);
    }

    #[test]
    fn flag_followed_by_flag_has_no_value() {
        let a = args(&["--multipath", "--qlog", "q.jsonl"]);
        assert!(a.has("multipath"));
        assert_eq!(a.value("multipath"), None);
        assert_eq!(a.value("qlog"), Some("q.jsonl"));
    }

    #[test]
    fn bad_address_reports_the_flag() {
        let a = args(&["--local", "not-an-addr"]);
        let err = a.addrs("local").unwrap_err();
        assert!(err.contains("--local"));
    }

    #[test]
    fn scheduler_flag_parses_every_zoo_member() {
        for kind in mpquic_core::scheduler::SCHEDULER_KINDS {
            let a = args(&["--scheduler", kind.name()]);
            assert_eq!(scheduler_kind(&a).unwrap(), Some(kind));
        }
        assert_eq!(scheduler_kind(&args(&[])).unwrap(), None);
    }

    #[test]
    fn bad_scheduler_name_lists_the_valid_ones() {
        let a = args(&["--scheduler", "fastest"]);
        let err = scheduler_kind(&a).unwrap_err();
        assert!(err.contains("--scheduler"), "{err}");
        for kind in mpquic_core::scheduler::SCHEDULER_KINDS {
            assert!(err.contains(kind.name()), "{err} missing {}", kind.name());
        }
    }
}
