//! From windows to named numbers: the metric tables, medians and
//! spreads, the per-layer derivations, and the JSON the command prints.

use crate::engine::{Window, WorkloadRun};
use crate::host::{self, Env};
use mpquic_io::PlaneSnapshot;
use mpquic_telemetry::endpoint::AtomicHistogram;
use mpquic_telemetry::LogHistogram;
use std::fmt::Write;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One row of a metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End to end: share of the parent's median by which it may worsen.
    /// Per layer: unused (0).
    pub bound: f64,
    /// End to end: the definition. Per layer: which end-to-end metric
    /// it should move, on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    e2e(name, unit, better, 0.0, note)
}

/// The end-to-end metrics: what a user of the endpoint would see.
/// Every workload reports every one; each is the median over the run's
/// windows.
pub const END_TO_END: &[MetricDef] = &[
    e2e("goodput_MBps", "MB/s", Better::Higher, 0.25,
        "verified request and response payload bytes per wall second; no headers, retransmissions or duplicates"),
    e2e("p50_us", "us", Better::Lower, 0.25,
        "median op latency to the last verified response byte: from the scheduled instant (open loop), the issue instant (closed loop) or before the sockets are bound (churn)"),
    e2e("server_cpu_us_per_op", "us", Better::Lower, 0.25,
        "on-CPU time of the endpoint's threads (mpq-unified, mpq-demux, mpq-shard-*) per verified op"),
    e2e("server_cpu_ms_per_MB", "ms", Better::Lower, 0.25,
        "the same thread CPU per verified MB"),
    e2e("setup_s", "s", Better::Lower, 0.25,
        "workload start to first window: endpoint bind, every connection established (parked too), a fixed count of warm-up ops verified"),
];

/// The per-layer metrics, from the traced run and the ladder.
pub const PER_LAYER: &[MetricDef] = &[
    layer("wire.codec_ns_per_pkt.1200", "ns", Better::Lower, "goodput_MBps, server_cpu_ms_per_MB on bulk-*; none on the idle512 delta"),
    layer("wire.codec_ns_per_pkt.64", "ns", Better::Lower, "server_cpu_us_per_op on rpc-open (small packets)"),
    layer("crypto.aead_ns_per_pkt.1200", "ns", Better::Lower, "goodput_MBps, server_cpu_ms_per_MB on bulk-*; none on the idle512 delta"),
    layer("crypto.aead_ns_per_pkt.64", "ns", Better::Lower, "server_cpu_us_per_op on rpc-open (small packets)"),
    layer("core.conn_ns_per_pkt.1200", "ns", Better::Lower, "goodput_MBps, server_cpu_ms_per_MB on bulk-*; none on the idle512 delta"),
    layer("core.conn_ns_per_pkt.64", "ns", Better::Lower, "p50_us, server_cpu_us_per_op on rpc-open"),
    layer("core.handle_datagram_ns", "ns", Better::Lower, "goodput_MBps on bulk-up-sp (server ingress)"),
    layer("core.poll_transmit_batch_ns", "ns", Better::Lower, "goodput_MBps on bulk-down-mp (server egress)"),
    layer("core.on_timeout_ns", "ns", Better::Lower, "p50_us on rpc-open; small everywhere"),
    layer("core.stream_io_ns", "ns", Better::Lower, "goodput_MBps on bulk-*"),
    layer("core.allocs_per_pkt", "count", Better::Lower, "goodput_MBps on bulk-*"),
    layer("core.coalesced_share", "ratio", Better::Higher, "goodput_MBps on bulk-down-mp (GSO trains)"),
    layer("core.pool_miss_share", "ratio", Better::Lower, "goodput_MBps on bulk-*"),
    layer("io.backend_ns_per_dgram.auto", "ns", Better::Lower, "goodput_MBps on bulk-*; a little p50_us on rpc-open"),
    layer("io.backend_ns_per_dgram.mmsg", "ns", Better::Lower, "as .auto, on hosts where auto probes to mmsg"),
    layer("io.backend_ns_per_dgram.portable", "ns", Better::Lower, "as .auto, on hosts where auto probes to portable"),
    layer("io.backend_dgrams_per_syscall.auto", "ratio", Better::Higher, "goodput_MBps on bulk-*"),
    layer("io.backend_dgrams_per_syscall.mmsg", "ratio", Better::Higher, "goodput_MBps on bulk-*"),
    layer("io.backend_dgrams_per_syscall.portable", "ratio", Better::Higher, "goodput_MBps on bulk-*"),
    layer("io.backend_send_drops.auto", "count", Better::Lower, "retx_share, then goodput_MBps on bulk-*"),
    layer("io.backend_send_drops.mmsg", "count", Better::Lower, "retx_share, then goodput_MBps on bulk-*"),
    layer("io.backend_send_drops.portable", "count", Better::Lower, "retx_share, then goodput_MBps on bulk-*"),
    layer("io.backend_fallbacks.auto", "count", Better::Lower, "goodput_MBps on bulk-* (a demoted arm is slower)"),
    layer("io.backend_fallbacks.mmsg", "count", Better::Lower, "goodput_MBps on bulk-*"),
    layer("io.backend_fallbacks.portable", "count", Better::Lower, "goodput_MBps on bulk-*"),
    layer("io.rpc_server_poll_ns_per_op", "ns", Better::Lower, "p50_us, server_cpu_us_per_op on rpc-open"),
    layer("core.handshake_us", "us", Better::Lower, "p50_us on churn-256k, setup_s on rpc-open-idle512; nothing else"),
    layer("core.second_path_us", "us", Better::Lower, "p50_us on churn-256k; nothing else"),
    layer("xfer_p50_ms", "ms", Better::Lower, "the paper's short-file time on a quiet endpoint; tracks p50_us on churn-256k"),
    layer("xfer_p90_ms", "ms", Better::Lower, "diagnostic tail of xfer_p50_ms; too noisy to bound"),
    layer("io.endpoint.loop_iterations", "count", Better::Lower, "server_cpu_us_per_op on rpc-open-idle512"),
    layer("io.endpoint.busy_share", "ratio", Better::Higher, "server_cpu_us_per_op on rpc-open*"),
    layer("io.endpoint.loop_ns_p50", "ns", Better::Lower, "p50_us, server_cpu_us_per_op on rpc-open-idle512; none on bulk-down-mp"),
    layer("io.endpoint.loop_ns_p99", "ns", Better::Lower, "p50_us on rpc-open-idle512"),
    layer("io.endpoint.wakeups", "count", Better::Lower, "p50_us on rpc-open*"),
    layer("io.endpoint.queue_depth_p99", "count", Better::Lower, "p50_us with workers > 1; 0 on the unified worker"),
    layer("io.endpoint.backpressure_drops", "count", Better::Lower, "fails the run when not 0"),
    layer("io.endpoint.rejected", "count", Better::Lower, "fails the run when not 0"),
    layer("io.endpoint.malformed", "count", Better::Lower, "fails the run when not 0"),
    layer("io.endpoint.datagrams_in", "count", Better::Lower, "server_cpu_us_per_op on every workload"),
    layer("io.endpoint.dgrams_per_op", "ratio", Better::Lower, "server_cpu_us_per_op on rpc-open*"),
    layer("io.endpoint_cpu_ns_per_dgram", "ns", Better::Lower, "server_cpu_ms_per_MB on bulk-*, server_cpu_us_per_op on rpc-open*"),
    layer("io.endpoint_cpu_share", "ratio", Better::Lower, "says whether the endpoint's worker was the bottleneck (near 1) when goodput_MBps moves"),
    layer("io.driver_step_ns", "ns", Better::Lower, "benchmark self-cost on the client; subtract when reading p50_us"),
    layer("io.rpc_ns_per_op", "ns", Better::Lower, "benchmark self-cost on the client; p50_us on rpc-open"),
    layer("retx_share", "ratio", Better::Lower, "goodput_MBps on bulk-*; not 0 on loopback means a queue overflowed"),
    layer("dup_share", "ratio", Better::Lower, "goodput_MBps on bulk-down-mp, p50_us on churn-256k"),
    layer("path_share_min", "ratio", Better::Higher, "goodput_MBps on bulk-down-mp (both paths in use)"),
    layer("rss_kib_per_conn_pair", "KiB", Better::Lower, "setup_s on rpc-open-idle512"),
    layer("gen_lag_p99_us", "us", Better::Lower, "how late the open-loop generator issued; bounds how far p50_us can be trusted"),
    layer("p99_us", "us", Better::Lower, "diagnostic tail of p50_us; too noisy to bound (README)"),
    layer("age_drift", "ratio", Better::Lower, "median latency of a window's second half over its first: above 1, cost grows with the connection's age"),
    layer("trace_overhead_share", "ratio", Better::Lower, "what tracing itself costs: traced over untraced p50_us, minus 1"),
    layer("ladder.residual_ns_per_dgram", "ns", Better::Lower, "io.endpoint_cpu_ns_per_dgram minus half the conn and backend rungs: the endpoint cost no rung accounts for"),
];

/// An open-loop window counts only while its generator ran on time:
/// `gen_lag_p99_us` at most this share of `p50_us`. The client's
/// connections age like the server's (same library), so lateness grows
/// in step with latency; a tighter limit would reject every late window.
pub const LAG_LIMIT: f64 = 0.5;

/// First quartile, median and third quartile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so the spreads printed here are the
/// ones the acceptance check computes. Fewer than two values: all three
/// are the value (or 0).
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return Quartiles {
            q1: v,
            median: v,
            q3: v,
        };
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Like Python, extrapolate when the clamp moved `j`.
        let frac = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
    }
}

/// Exact percentile of a sorted sample (nearest rank).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// A named number, with the spread of what it is the median of.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Interquartile range of the windows, set-ups or repetitions.
    pub spread: f64,
    /// What the value is the median of, in run order.
    pub samples: Vec<f64>,
}

/// The median of `samples` under `name`, with their spread.
pub fn value(name: &str, unit: &'static str, samples: &[f64]) -> Value {
    let q = quartiles(samples);
    Value {
        name: name.to_string(),
        unit,
        value: q.median,
        spread: q.iqr(),
        samples: samples.to_vec(),
    }
}

fn window_p50_us(w: &Window) -> f64 {
    percentile(&w.latency_ns, 0.50) / 1e3
}

fn window_lag_p99_us(w: &Window) -> f64 {
    percentile(&w.gen_lag_ns, 0.99) / 1e3
}

/// Whether the open-loop generator ran on time over `w`.
pub fn window_valid(w: &Window) -> bool {
    window_lag_p99_us(w) <= LAG_LIMIT * window_p50_us(w)
}

/// The windows a metric is read from: the untraced or the traced ones,
/// minus those whose generator ran late — unless that leaves no
/// majority, in which case all of them count and [`late_windows`] says
/// so. Lateness is noise in the measurement, not a wrong output, so it
/// never fails a run.
fn windows(run: &WorkloadRun, traced: bool) -> Vec<&Window> {
    let all: Vec<&Window> = run.windows.iter().filter(|w| w.traced == traced).collect();
    let valid: Vec<&Window> = all.iter().copied().filter(|w| window_valid(w)).collect();
    if valid.len() * 2 > all.len() {
        valid
    } else {
        all
    }
}

/// One line per window whose open-loop generator ran late.
pub fn late_windows(run: &WorkloadRun) -> Vec<String> {
    run.windows
        .iter()
        .enumerate()
        .filter(|(_, w)| !window_valid(w))
        .map(|(i, w)| {
            format!(
                "window {i}: generator late, gen_lag_p99 {:.0} us against p50 {:.0} us",
                window_lag_p99_us(w),
                window_p50_us(w)
            )
        })
        .collect()
}

/// The end-to-end metrics of an untraced run, in table order.
pub fn end_to_end(run: &WorkloadRun) -> Vec<Value> {
    let windows = windows(run, false);
    let per_window =
        |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(|w| f(w)).collect() };
    let mb = |w: &Window| w.bytes as f64 / 1e6;
    END_TO_END
        .iter()
        .map(|def| {
            let samples = match def.name {
                "goodput_MBps" => per_window(&|w| mb(w) / w.wall_s),
                "p50_us" => per_window(&window_p50_us),
                "server_cpu_us_per_op" => {
                    per_window(&|w| w.server_cpu_ns as f64 / 1e3 / w.ops_ok as f64)
                }
                "server_cpu_ms_per_MB" => per_window(&|w| w.server_cpu_ns as f64 / 1e6 / mb(w)),
                "setup_s" => per_window(&|w| w.setup_s),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            value(def.name, def.unit, &samples)
        })
        .collect()
}

/// Gate violations that follow from the windows rather than the ops:
/// a window that verified nothing, or a multipath workload on one path.
pub fn window_violations(run: &WorkloadRun) -> Vec<String> {
    let mut out = Vec::new();
    if run.windows.iter().any(|w| w.ops_ok == 0) {
        out.push("a window verified no op".to_string());
    }
    if run.multipath && run.windows.iter().any(|w| w.conn.path_bytes.len() < 2) {
        out.push("multipath workload never established its second path".to_string());
    }
    out
}

/// `cur - prev` of two snapshots of one log2 histogram.
fn hist_delta(cur: &LogHistogram, prev: &LogHistogram) -> LogHistogram {
    let delta = AtomicHistogram::default();
    delta.merge_delta(cur, prev);
    delta.snapshot()
}

/// The per-layer metrics of a traced run plus the ladder, in table
/// order.
pub fn per_layer(run: &WorkloadRun, ladder: &[Value]) -> Vec<Value> {
    let reference = windows(run, false);
    let traced = windows(run, true);
    let per_window =
        |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { traced.iter().map(|w| f(w)).collect() };
    let plane = |f: fn(&PlaneSnapshot) -> u64| -> Vec<f64> {
        per_window(&|w| f(&w.plane.1).saturating_sub(f(&w.plane.0)) as f64)
    };
    let shard0 = |p: &PlaneSnapshot,
                  f: fn(&mpquic_telemetry::endpoint::ShardPlaneSnapshot) -> u64| {
        p.shards.iter().map(f).sum::<u64>()
    };
    let loop_q = |q: f64| {
        per_window(&|w| hist_delta(&w.plane.1.loop_ns, &w.plane.0.loop_ns).quantile(q) as f64)
    };
    let totals = run.tracer.totals();
    let span_mean = |names: &[&str], per: f64| -> f64 {
        let ns: u64 = names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.total_ns)
            .sum();
        ns as f64 / per.max(1.0)
    };
    let traced_ops: f64 = traced.iter().map(|w| w.ops_ok as f64).sum();
    let median_of = |ws: &[&Window], f: &dyn Fn(&Window) -> f64| {
        quartiles(&ws.iter().map(|w| f(w)).collect::<Vec<_>>()).median
    };
    let cpu_per_dgram = quartiles(&per_window(&|w| {
        w.server_cpu_ns as f64 / w.conn.packets.max(1) as f64
    }))
    .median;
    let rung = |name: &str| {
        ladder
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    };

    PER_LAYER
        .iter()
        .map(|def| {
            if let Some(rung) = ladder.iter().find(|r| r.name == def.name) {
                return rung.clone();
            }
            let samples = match def.name {
                "io.endpoint.loop_iterations" => per_window(&|w| {
                    (shard0(&w.plane.1, |s| s.loop_iterations)
                        - shard0(&w.plane.0, |s| s.loop_iterations)) as f64
                }),
                "io.endpoint.busy_share" => per_window(&|w| {
                    let busy = shard0(&w.plane.1, |s| s.busy_iterations)
                        - shard0(&w.plane.0, |s| s.busy_iterations);
                    let all = shard0(&w.plane.1, |s| s.loop_iterations)
                        - shard0(&w.plane.0, |s| s.loop_iterations);
                    busy as f64 / all.max(1) as f64
                }),
                "io.endpoint.loop_ns_p50" => loop_q(0.50),
                "io.endpoint.loop_ns_p99" => loop_q(0.99),
                "io.endpoint.wakeups" => plane(|p| p.wakeups),
                "io.endpoint.queue_depth_p99" => per_window(&|w| {
                    hist_delta(&w.plane.1.queue_depth, &w.plane.0.queue_depth).quantile(0.99) as f64
                }),
                "io.endpoint.backpressure_drops" => plane(|p| p.stats.backpressure_drops),
                "io.endpoint.rejected" => plane(|p| p.stats.rejected),
                "io.endpoint.malformed" => plane(|p| p.stats.malformed),
                "io.endpoint.datagrams_in" => plane(|p| p.stats.datagrams_in),
                "io.endpoint.dgrams_per_op" => {
                    per_window(&|w| w.conn.packets as f64 / w.ops_ok.max(1) as f64)
                }
                "io.endpoint_cpu_ns_per_dgram" => vec![cpu_per_dgram],
                "io.endpoint_cpu_share" => per_window(&|w| w.server_cpu_ns as f64 / 1e9 / w.wall_s),
                "io.driver_step_ns" => {
                    let steps = totals.get("io.driver_step").map_or(0, |t| t.count);
                    vec![span_mean(&["io.driver_step"], steps as f64)]
                }
                "io.rpc_ns_per_op" => vec![span_mean(&["io.rpc_start", "io.rpc_poll"], traced_ops)],
                "retx_share" => per_window(&|w| w.conn.retx as f64 / w.conn.packets.max(1) as f64),
                "dup_share" => per_window(&|w| w.conn.dup as f64 / w.conn.packets.max(1) as f64),
                "path_share_min" => per_window(&|w| w.conn.path_share_min()),
                "rss_kib_per_conn_pair" => vec![run.rss_kib_per_conn_pair],
                "gen_lag_p99_us" => per_window(&window_lag_p99_us),
                "p99_us" => per_window(&|w| percentile(&w.latency_ns, 0.99) / 1e3),
                "age_drift" => per_window(&|w| w.age_drift),
                "trace_overhead_share" => {
                    let plain = median_of(&reference, &window_p50_us);
                    vec![median_of(&traced, &window_p50_us) / plain.max(1e-9) - 1.0]
                }
                "ladder.residual_ns_per_dgram" => {
                    let both_ends =
                        rung("core.conn_ns_per_pkt.1200") + rung("io.backend_ns_per_dgram.auto");
                    vec![cpu_per_dgram - both_ends / 2.0]
                }
                other => unreachable!("per-layer metric {other} has no definition"),
            };
            value(def.name, def.unit, &samples)
        })
        .collect()
}

/// One workload's results, ready to print.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// The run passed every check.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// What failed the run.
    pub violations: Vec<String>,
    /// Windows left out of the medians because the generator ran late.
    pub late: Vec<String>,
    /// End-to-end values, from the untraced windows.
    pub end_to_end: Vec<Value>,
    /// Per-layer values, when the run was traced.
    pub per_layer: Option<Vec<Value>>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON: every digit measured, and never `NaN`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Named values as one JSON object; `full` adds spreads and samples.
pub fn metrics_json(values: &[Value], full: bool) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|v| {
            let extra = if full {
                let samples: Vec<String> = v.samples.iter().map(|s| json_num(*s)).collect();
                format!(
                    ", \"spread\": {}, \"samples\": [{}]",
                    json_num(v.spread),
                    samples.join(", ")
                )
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
                json_str(&v.name),
                json_num(v.value),
                json_str(v.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl Outcome {
    /// The result line the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed`, `metrics` — the per-layer
    /// metrics of a traced run, else the end-to-end ones.
    pub fn contract_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics_json(self.per_layer.as_ref().unwrap_or(&self.end_to_end), false)
        )
    }

    /// The full record: spreads, sample counts and reasons too.
    pub fn full_json(&self) -> String {
        let violations: Vec<String> = self.violations.iter().map(|v| json_str(v)).collect();
        format!(
            "{{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"violations\": [{}], \"end_to_end\": {}, \"per_layer\": {}}}",
            json_str(self.workload),
            self.correct,
            self.attempted,
            self.failed,
            violations.join(", "),
            metrics_json(&self.end_to_end, true),
            self.per_layer
                .as_ref()
                .map_or("null".to_string(), |v| metrics_json(v, true)),
        )
    }

    /// Human-readable lines: every metric by name and unit. The ladder's
    /// rungs are the same for every workload, so the caller prints them
    /// once and names them here as `skip`.
    pub fn print(&self, skip: &[Value]) {
        println!(
            "{}: {} ({} ops attempted, {} failed)",
            self.workload,
            if self.correct { "correct" } else { "FAILED" },
            self.attempted,
            self.failed
        );
        for why in &self.violations {
            println!("  violation: {why}");
        }
        for note in &self.late {
            println!("  note: {note}");
        }
        let values = self
            .end_to_end
            .iter()
            .chain(self.per_layer.iter().flatten());
        for v in values.filter(|v| skip.iter().all(|rung| rung.name != v.name)) {
            let samples: Vec<String> = v
                .samples
                .iter()
                .take(8)
                .map(|s| format!("{s:.4}"))
                .collect();
            println!(
                "  {:<40} {:>14.4} {:<6} spread {:.4} of {} [{}{}]",
                v.name,
                v.value,
                v.unit,
                v.spread,
                v.samples.len(),
                samples.join(", "),
                if v.samples.len() > 8 { ", ..." } else { "" }
            );
        }
    }

    /// The named value, end to end or per layer.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(self.per_layer.iter().flatten())
            .find(|v| v.name == name)
            .map(|v| v.value)
    }
}

/// Builds the outcome of one run; `ladder` adds the per-layer values
/// of a traced one.
pub fn outcome(run: &WorkloadRun, ladder: Option<&[Value]>) -> Outcome {
    let mut violations = run.violations.clone();
    violations.extend(window_violations(run));
    Outcome {
        workload: run.name,
        correct: violations.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        violations,
        late: late_windows(run),
        end_to_end: end_to_end(run),
        per_layer: ladder.map(|ladder| per_layer(run, ladder)),
    }
}

/// What each per-layer metric should move, as JSON: the table's last
/// column, which `BENCHMARK.json` has no key for.
pub fn moves_json() -> String {
    let fields: Vec<String> = PER_LAYER
        .iter()
        .map(|d| format!("{}: {}", json_str(d.name), json_str(d.note)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The command `BENCHMARK.json` records; the driver appends
/// `--workload`, `--seed`, `--seconds` and `--trace`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
    "run",
];

/// The root `BENCHMARK.json`, rendered from the tables above and the
/// catalogue, so the names later issues cite have one source.
pub fn manifest_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads = crate::spec::catalogue(false)
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let metric = |def: &MetricDef, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", json_num(def.bound))
        } else {
            String::new()
        };
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(def.name),
            json_str(def.unit),
            json_str(def.better.as_str())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        crate::spec::RUN_SECONDS,
        list(workloads),
        list(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
    )
}

/// The environment block every output records.
pub fn env_json(env: &Env, window_s: f64, windows: usize, workers: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"kernel\": {}, \"backend_auto\": {}, \"client_backend\": \"mmsg\", \"git_commit\": {}, \"rustc\": {}, \"window_s\": {}, \"windows\": {}, \"workers\": {}, \"link\": \"loopback\", \"peak_rss_kib\": {}}}",
        env.nproc,
        json_str(&env.kernel),
        json_str(&env.backend),
        json_str(&env.git_commit),
        json_str(&env.rustc),
        json_num(window_s),
        windows,
        workers,
        host::peak_rss_kib()
    )
}

/// How a metric compares between two runs: relative change in the
/// direction that is worse (positive means `b` is worse than `a`).
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(1e-12);
    match def.better {
        Better::Higher => -change,
        Better::Lower => change,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let q = quartiles(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]).iqr(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_on_the_exact_sample() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.bound <= 0.25);
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let up = &END_TO_END[0];
        let down = &END_TO_END[1];
        assert!(worse_by(up, 100.0, 90.0) > 0.09);
        assert!(worse_by(up, 100.0, 110.0) < 0.0);
        assert!(worse_by(down, 100.0, 110.0) > 0.09);
    }
}
