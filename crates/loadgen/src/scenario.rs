//! Declarative workload scenarios.
//!
//! A [`Scenario`] is a complete description of a workload — connection
//! population, arrival process, size and think-time distributions, SLO
//! target — from which [`crate::schedule::build_schedule`] derives a
//! deterministic operation timeline. The same scenario with the same
//! seed always produces the same schedule; what varies between runs is
//! only how fast the system under test absorbs it.

use mpquic_util::DetRng;

/// A discrete size distribution (bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every sample is the same size.
    Fixed(usize),
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest sample.
        min: usize,
        /// Largest sample (inclusive).
        max: usize,
    },
    /// `small` with probability `1 - p_large`, else `large` — the
    /// classic RPC mix (mostly-small with a heavy tail).
    Bimodal {
        /// The common size.
        small: usize,
        /// The rare size.
        large: usize,
        /// Probability of drawing `large`, in `[0, 1]`.
        p_large: f64,
    },
}

impl SizeDist {
    /// Draws one sample.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform { min, max } => rng.range_u64(min as u64, max as u64) as usize,
            SizeDist::Bimodal {
                small,
                large,
                p_large,
            } => {
                if rng.bool(p_large) {
                    large
                } else {
                    small
                }
            }
        }
    }

    /// The distribution's mean, for offered-load arithmetic.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(n) => n as f64,
            SizeDist::Uniform { min, max } => (min + max) as f64 / 2.0,
            SizeDist::Bimodal {
                small,
                large,
                p_large,
            } => small as f64 * (1.0 - p_large) + large as f64 * p_large,
        }
    }
}

/// A time distribution (microseconds) for think times and pacing gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeDist {
    /// Always the same gap.
    Fixed {
        /// The gap, µs.
        us: u64,
    },
    /// Uniform over `[min_us, max_us]`.
    Uniform {
        /// Shortest gap, µs.
        min_us: u64,
        /// Longest gap, µs (inclusive).
        max_us: u64,
    },
    /// Exponential with the given mean — the memoryless think time of
    /// classic workload models.
    Exp {
        /// Mean gap, µs.
        mean_us: u64,
    },
}

impl TimeDist {
    /// Draws one gap.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match *self {
            TimeDist::Fixed { us } => us,
            TimeDist::Uniform { min_us, max_us } => rng.range_u64(min_us, max_us),
            TimeDist::Exp { mean_us } => {
                // Inverse transform; (1 - f64) keeps ln's argument
                // away from zero.
                let u = 1.0 - rng.f64();
                (-u.ln() * mean_us as f64) as u64
            }
        }
    }
}

/// The arrival process generating start times — open-loop: arrivals
/// come from the schedule, not from completions, so a slow system
/// accumulates queueing delay instead of silently throttling the load
/// (the property that makes latency percentiles honest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Deterministic arrivals every `1/per_sec` seconds.
    FixedRate {
        /// Arrival rate, per second.
        per_sec: f64,
    },
    /// Poisson arrivals (exponential inter-arrival gaps) at the given
    /// mean rate.
    Poisson {
        /// Mean arrival rate, per second.
        per_sec: f64,
    },
}

impl Arrivals {
    /// Draws the gap to the next arrival, µs.
    pub fn next_gap_us(&self, rng: &mut DetRng) -> u64 {
        match *self {
            Arrivals::FixedRate { per_sec } => (1e6 / per_sec.max(1e-9)) as u64,
            Arrivals::Poisson { per_sec } => {
                let u = 1.0 - rng.f64();
                (-u.ln() / per_sec.max(1e-9) * 1e6) as u64
            }
        }
    }

    /// The mean rate, per second.
    pub fn per_sec(&self) -> f64 {
        match *self {
            Arrivals::FixedRate { per_sec } | Arrivals::Poisson { per_sec } => per_sec,
        }
    }
}

/// The workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A population of long-lived connections, each issuing a session
    /// of requests separated by think time. Sizes come from the
    /// scenario's distributions.
    RequestResponse {
        /// Concurrent client connections.
        conns: usize,
        /// Requests per connection.
        requests_per_conn: usize,
    },
    /// Few connections, each pulling a paced sequence of large chunks
    /// — a video-segment / bulk-feed shape where per-chunk latency is
    /// the SLO.
    Streaming {
        /// Concurrent streaming connections.
        conns: usize,
        /// Chunks per connection.
        chunks_per_conn: usize,
    },
    /// `fan_in` connections fire one request at exactly the same
    /// instant, repeated every wave — the synchronized burst that
    /// stresses receive buffers and accept paths.
    Incast {
        /// Synchronized senders.
        fan_in: usize,
        /// Number of bursts.
        waves: usize,
        /// Gap between bursts, µs.
        wave_interval_us: u64,
    },
    /// Many short-lived connections: one small exchange each, then
    /// close. Connection setup/teardown rate is the metric.
    Churn {
        /// Total connections over the run.
        conns: usize,
    },
    /// Mobile clients: a request/response session whose connection
    /// rebinds its local address mid-session (NAT rebinding / WiFi→LTE
    /// handover), `rebinds` times at evenly spaced points. The server
    /// must quarantine and validate each rebound path and rotate the
    /// connection ID without dropping the connection — zero lost
    /// connections and a bounded p99 across rebinds is the SLO.
    Mobility {
        /// Concurrent client connections.
        conns: usize,
        /// Requests per connection.
        requests_per_conn: usize,
        /// Address rebinds per connection over its session.
        rebinds: usize,
    },
}

impl ScenarioKind {
    /// Short stable name, used in reports and gate keys.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::RequestResponse { .. } => "request_response",
            ScenarioKind::Streaming { .. } => "streaming",
            ScenarioKind::Incast { .. } => "incast",
            ScenarioKind::Churn { .. } => "churn",
            ScenarioKind::Mobility { .. } => "mobility",
        }
    }
}

/// One complete workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Report name (defaults to the kind's name).
    pub name: &'static str,
    /// The workload shape.
    pub kind: ScenarioKind,
    /// Connection (or, for request/response, session) arrival process.
    pub arrivals: Arrivals,
    /// Request payload size distribution.
    pub req_size: SizeDist,
    /// Response payload size distribution.
    pub resp_size: SizeDist,
    /// Think time between a connection's consecutive requests
    /// (pacing gap for streaming; unused for incast and churn).
    pub think: TimeDist,
    /// The latency SLO: scenario passes when p99 stays at or below
    /// this, with zero errors and timeouts.
    pub slo_p99_us: u64,
    /// Per-operation timeout: an exchange outstanding longer than this
    /// past its scheduled start counts as a timeout and fails its
    /// connection.
    pub timeout_us: u64,
}

/// The built-in catalog: the five workload shapes at full or smoke
/// scale. Smoke keeps every shape but cuts the population so the whole
/// suite finishes in seconds on a 1-core CI runner.
pub fn catalog(smoke: bool) -> Vec<Scenario> {
    if smoke {
        vec![
            Scenario {
                name: "request_response",
                kind: ScenarioKind::RequestResponse {
                    conns: 4,
                    requests_per_conn: 16,
                },
                arrivals: Arrivals::Poisson { per_sec: 16.0 },
                req_size: SizeDist::Bimodal {
                    small: 256,
                    large: 4096,
                    p_large: 0.1,
                },
                resp_size: SizeDist::Uniform {
                    min: 256,
                    max: 2048,
                },
                think: TimeDist::Exp { mean_us: 2_000 },
                slo_p99_us: 250_000,
                timeout_us: 5_000_000,
            },
            Scenario {
                name: "streaming",
                kind: ScenarioKind::Streaming {
                    conns: 2,
                    chunks_per_conn: 8,
                },
                arrivals: Arrivals::FixedRate { per_sec: 4.0 },
                req_size: SizeDist::Fixed(64),
                resp_size: SizeDist::Fixed(16 << 10),
                think: TimeDist::Fixed { us: 5_000 },
                slo_p99_us: 500_000,
                timeout_us: 5_000_000,
            },
            Scenario {
                name: "incast",
                kind: ScenarioKind::Incast {
                    fan_in: 8,
                    waves: 2,
                    wave_interval_us: 100_000,
                },
                arrivals: Arrivals::FixedRate { per_sec: 1.0 },
                req_size: SizeDist::Fixed(128),
                resp_size: SizeDist::Fixed(8 << 10),
                think: TimeDist::Fixed { us: 0 },
                slo_p99_us: 250_000,
                timeout_us: 5_000_000,
            },
            Scenario {
                name: "churn",
                kind: ScenarioKind::Churn { conns: 24 },
                arrivals: Arrivals::Poisson { per_sec: 50.0 },
                req_size: SizeDist::Fixed(256),
                resp_size: SizeDist::Fixed(256),
                think: TimeDist::Fixed { us: 0 },
                slo_p99_us: 250_000,
                timeout_us: 5_000_000,
            },
            Scenario {
                name: "mobility",
                kind: ScenarioKind::Mobility {
                    conns: 4,
                    requests_per_conn: 12,
                    rebinds: 2,
                },
                arrivals: Arrivals::Poisson { per_sec: 16.0 },
                req_size: SizeDist::Fixed(512),
                resp_size: SizeDist::Fixed(4096),
                think: TimeDist::Exp { mean_us: 2_000 },
                slo_p99_us: 500_000,
                timeout_us: 5_000_000,
            },
        ]
    } else {
        vec![
            Scenario {
                name: "request_response",
                kind: ScenarioKind::RequestResponse {
                    conns: 8,
                    requests_per_conn: 64,
                },
                arrivals: Arrivals::Poisson { per_sec: 16.0 },
                req_size: SizeDist::Bimodal {
                    small: 256,
                    large: 4096,
                    p_large: 0.1,
                },
                resp_size: SizeDist::Uniform {
                    min: 256,
                    max: 2048,
                },
                think: TimeDist::Exp { mean_us: 2_000 },
                slo_p99_us: 100_000,
                timeout_us: 10_000_000,
            },
            Scenario {
                name: "streaming",
                kind: ScenarioKind::Streaming {
                    conns: 2,
                    chunks_per_conn: 32,
                },
                arrivals: Arrivals::FixedRate { per_sec: 4.0 },
                req_size: SizeDist::Fixed(64),
                resp_size: SizeDist::Fixed(64 << 10),
                think: TimeDist::Fixed { us: 5_000 },
                slo_p99_us: 250_000,
                timeout_us: 10_000_000,
            },
            Scenario {
                name: "incast",
                kind: ScenarioKind::Incast {
                    fan_in: 16,
                    waves: 4,
                    wave_interval_us: 100_000,
                },
                arrivals: Arrivals::FixedRate { per_sec: 1.0 },
                req_size: SizeDist::Fixed(128),
                resp_size: SizeDist::Fixed(8 << 10),
                think: TimeDist::Fixed { us: 0 },
                slo_p99_us: 150_000,
                timeout_us: 10_000_000,
            },
            Scenario {
                name: "churn",
                kind: ScenarioKind::Churn { conns: 96 },
                arrivals: Arrivals::Poisson { per_sec: 100.0 },
                req_size: SizeDist::Fixed(256),
                resp_size: SizeDist::Fixed(256),
                think: TimeDist::Fixed { us: 0 },
                slo_p99_us: 150_000,
                timeout_us: 10_000_000,
            },
            Scenario {
                name: "mobility",
                kind: ScenarioKind::Mobility {
                    conns: 16,
                    requests_per_conn: 24,
                    rebinds: 2,
                },
                arrivals: Arrivals::Poisson { per_sec: 32.0 },
                req_size: SizeDist::Fixed(512),
                resp_size: SizeDist::Fixed(4096),
                think: TimeDist::Exp { mean_us: 2_000 },
                slo_p99_us: 250_000,
                timeout_us: 10_000_000,
            },
        ]
    }
}

/// Looks a scenario up by name in the catalog.
pub fn by_name(name: &str, smoke: bool) -> Option<Scenario> {
    catalog(smoke).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_dists_sample_within_bounds() {
        let mut rng = DetRng::new(1);
        let u = SizeDist::Uniform { min: 10, max: 20 };
        for _ in 0..100 {
            let v = u.sample(&mut rng);
            assert!((10..=20).contains(&v));
        }
        let b = SizeDist::Bimodal {
            small: 1,
            large: 1000,
            p_large: 0.5,
        };
        let samples: Vec<usize> = (0..200).map(|_| b.sample(&mut rng)).collect();
        assert!(samples.contains(&1) && samples.contains(&1000));
        assert_eq!(SizeDist::Fixed(7).sample(&mut rng), 7);
    }

    #[test]
    fn poisson_gaps_have_roughly_the_right_mean() {
        let mut rng = DetRng::new(2);
        let arrivals = Arrivals::Poisson { per_sec: 100.0 };
        let n = 2000;
        let total: u64 = (0..n).map(|_| arrivals.next_gap_us(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        // Expected 10_000 µs; 3-sigma of the sample mean is ~±670.
        assert!((9_000.0..11_000.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn catalog_has_all_five_kinds_in_both_scales() {
        for smoke in [false, true] {
            let names: Vec<&str> = catalog(smoke).iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "request_response",
                    "streaming",
                    "incast",
                    "churn",
                    "mobility"
                ],
                "smoke={smoke}"
            );
        }
        assert!(by_name("churn", true).is_some());
        assert!(by_name("mobility", true).is_some());
        assert!(by_name("nope", true).is_none());
    }
}
