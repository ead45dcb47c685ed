//! `/proc` readers: CPU time of the endpoint's threads, process memory,
//! and the environment every report records.

use mpquic_io::backend::BackendChoice;
use mpquic_io::SocketRegistry;
use std::path::PathBuf;
use std::process::Command;

/// CPU time of the endpoint's threads, matched by the names
/// `mpquic-io` gives them. Client threads are left out.
#[derive(Debug)]
pub struct EndpointCpu {
    tasks: Vec<PathBuf>,
}

impl EndpointCpu {
    /// Finds the live `mpq-unified` / `mpq-demux` / `mpq-shard-*`
    /// threads of this process. Call after `Endpoint::bind`.
    pub fn find() -> EndpointCpu {
        let mut tasks = Vec::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for task in dir.flatten() {
                let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
                let comm = comm.trim();
                if comm == "mpq-unified" || comm == "mpq-demux" || comm.starts_with("mpq-shard-") {
                    tasks.push(task.path());
                }
            }
        }
        EndpointCpu { tasks }
    }

    /// Threads matched.
    pub fn threads(&self) -> usize {
        self.tasks.len()
    }

    /// Summed on-CPU time of the matched threads, ns.
    pub fn total_ns(&self) -> u64 {
        self.tasks.iter().map(|task| task_cpu_ns(task)).sum()
    }
}

/// One task's on-CPU time: the scheduler's nanosecond run time where
/// the kernel exposes it, else utime + stime in clock ticks (10 ms
/// each on Linux).
fn task_cpu_ns(task: &std::path::Path) -> u64 {
    if let Ok(text) = std::fs::read_to_string(task.join("schedstat")) {
        if let Some(ns) = text.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return ns;
        }
    }
    let text = std::fs::read_to_string(task.join("stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let after = text.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let field = |n: usize| -> u64 {
        after
            .split_whitespace()
            .nth(n)
            .and_then(|f| f.parse().ok())
            .unwrap_or(0)
    };
    (field(11) + field(12)) * 10_000_000
}

/// A `kB` line of `/proc/self/status`, in KiB.
fn status_kib(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resident set size now, KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:")
}

/// Process-wide peak resident set size, KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:")
}

/// First line a command prints, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every output records about where it was measured.
#[derive(Debug, Clone)]
pub struct Env {
    /// Cores the process may use.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// Datapath backend that `auto` probing picks here.
    pub backend: String,
    /// Commit of the checkout, `unknown` outside a git repository.
    pub git_commit: String,
    /// Compiler version.
    pub rustc: String,
}

impl Env {
    /// Probes the host.
    pub fn probe() -> Env {
        let loopback = "127.0.0.1:0".parse().expect("loopback literal");
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            backend: SocketRegistry::bind_with(&[loopback], BackendChoice::Auto)
                .map(|r| r.backend_kind().name())
                .unwrap_or("unknown")
                .to_string(),
            git_commit: first_line("git", &["rev-parse", "HEAD"]),
            rustc: first_line("rustc", &["--version"]),
        }
    }
}
