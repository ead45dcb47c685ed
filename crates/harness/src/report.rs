//! Text reporting for the `figures` binary: headline statistics plus
//! the machine-readable series each paper artefact plots, and the
//! options it takes.

use mpquic_expdesign::table1::design_scenarios;
use mpquic_expdesign::ExperimentClass;
use mpquic_telemetry::MetricsSnapshot;
use mpquic_util::cli::Args;
use mpquic_util::stats::{Cdf, FiveNumber};
use std::time::Duration;

use crate::experiments::{ClassResults, SweepConfig};
use crate::figures::{Artefact, Figure, View};
use crate::runner::{run_handover_instrumented, HandoverConfig};

/// The flags `figures` takes with a value.
const VALUED: [&str; 6] = ["figure", "scenarios", "size", "repeats", "threads", "cap"];

/// The `figures` binary's command line.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// `--figure NAME`, repeatable — what to print, in paper order
    /// (default: everything).
    pub figures: Vec<Artefact>,
    /// `--scenarios N` — scenario count (default: the paper's 253).
    pub scenarios: usize,
    /// `--size BYTES` — response size of Figs. 3–8 (default: 20 MB).
    pub size: Option<usize>,
    /// `--repeats K` — repetitions per simulation.
    pub repeats: Option<usize>,
    /// `--threads N` — worker threads.
    pub threads: Option<usize>,
    /// `--cap SECONDS` — simulated time cap per transfer.
    pub cap_secs: Option<u64>,
}

impl CliArgs {
    /// Parses `std::env::args` before any work: an unknown flag or a
    /// missing value exits 2, a bad value (a 0 count, size, thread count
    /// or cap and an unknown figure among them) or a flag no selected
    /// artefact reads exits 1 naming its flag, and `--help` prints the
    /// options.
    pub fn parse() -> CliArgs {
        let refuse = |code: i32, message: String| -> ! {
            eprintln!("{message}; see --help");
            std::process::exit(code)
        };
        let args = Args::parse(&VALUED, &["help"]).unwrap_or_else(|message| refuse(2, message));
        if args.has("help") {
            println!(
                "options: --figure table1|fig3..fig11 (repeatable)  --scenarios N  \
                 --size BYTES (Figs. 3-8)  --repeats K  --threads N  --cap SECONDS"
            );
            std::process::exit(0);
        }
        CliArgs::from_args(&args).unwrap_or_else(|message| refuse(1, message))
    }

    /// The options `args` gives, each checked. A flag that no selected
    /// artefact reads is refused: `--size` scales Figs. 3–8 only, and
    /// Table 1 and Fig. 11 read no sweep flag.
    fn from_args(args: &Args) -> Result<CliArgs, String> {
        let at_least_one = |flag: &str| match args.get(flag)? {
            Some(0) => Err(format!("--{flag}: must be at least 1")),
            n => Ok(n),
        };
        let names: Vec<String> = args.all("figure")?;
        if let Some(name) = names
            .iter()
            .find(|&name| !Artefact::all().any(|a| a.name() == *name))
        {
            return Err(format!("--figure: no figure {name:?}"));
        }
        let figures: Vec<Artefact> = Artefact::all()
            .filter(|a| names.is_empty() || names.contains(&a.name()))
            .collect();
        let swept = |figure: &Artefact| matches!(figure, Artefact::Swept(_));
        let scaled = |figure: &Artefact| matches!(figure, Artefact::Swept(f) if f.takes_size());
        if args.has("size") && !figures.iter().any(scaled) {
            return Err("--size: only Figs. 3-8 read it, and none is selected".to_string());
        }
        let sweep_flags = ["scenarios", "repeats", "threads", "cap"];
        if let Some(flag) = sweep_flags.into_iter().find(|&flag| args.has(flag)) {
            if !figures.iter().any(swept) {
                return Err(format!(
                    "--{flag}: only Figs. 3-10 read it, and none is selected"
                ));
            }
        }
        Ok(CliArgs {
            scenarios: at_least_one("scenarios")?.unwrap_or(mpquic_expdesign::SCENARIOS_PER_CLASS),
            size: at_least_one("size")?,
            repeats: at_least_one("repeats")?,
            threads: at_least_one("threads")?,
            cap_secs: at_least_one("cap")?.map(|cap| cap as u64),
            figures,
        })
    }

    /// Builds the sweep configuration for `class` at `response_size`.
    pub fn sweep(&self, class: ExperimentClass, response_size: usize) -> SweepConfig {
        let mut config = SweepConfig::new(class, self.scenarios, response_size);
        if let Some(r) = self.repeats {
            config.repeats = r;
        }
        if let Some(t) = self.threads {
            config.threads = t;
        }
        if let Some(cap) = self.cap_secs {
            config.time_cap = Duration::from_secs(cap);
        }
        config
    }
}

/// Prints one comment line per path from a telemetry snapshot: the
/// per-path evidence (srtt, cwnd, bytes, loss, scheduler share) behind a
/// figure's headline numbers.
pub fn print_path_metrics(snapshot: &MetricsSnapshot) {
    println!("# per-path telemetry ({} events)", snapshot.events_seen);
    for p in &snapshot.paths {
        println!(
            "# path {}: srtt {:.2} ms, cwnd {} B, sent {} B / {} pkts, \
             loss {:.2}%, sched share {:.1}%, {} RTOs",
            p.path.0,
            p.srtt_us as f64 / 1e3,
            p.cwnd,
            p.bytes_sent,
            p.packets_sent,
            p.loss_percent,
            p.sched_share * 100.0,
            p.rtos,
        );
    }
    if snapshot.handovers > 0 {
        println!("# handovers: {}", snapshot.handovers);
    }
}

fn print_cdf(name: &str, cdf: &Cdf) {
    println!("# series: {name} ({} samples)", cdf.len());
    println!("# ratio\tcdf");
    for (x, p) in cdf.sampled_points(25) {
        println!("{x:.4}\t{p:.4}");
    }
}

fn print_box(name: &str, samples: &[f64]) {
    match FiveNumber::from(samples) {
        Some(s) => println!(
            "{name}\tmin {:+.3}\tq1 {:+.3}\tmed {:+.3}\tq3 {:+.3}\tmax {:+.3}\tmean {:+.3}\tn {}",
            s.min, s.q1, s.median, s.q3, s.max, s.mean, s.count
        ),
        None => println!("{name}\t(no samples)"),
    }
}

/// Prints a swept figure at `size`: its headline next to the paper's
/// claim, then what it plots — the ratio CDFs (Figs. 3, 5, 8, 9) or
/// box summaries of the aggregation benefit (Figs. 4, 6, 7, 10).
pub fn print_figure(figure: &Figure, size: usize, results: &ClassResults) {
    println!("== {} ==", figure.title(size));
    println!("class: {}", results.class.name());
    match figure.view {
        View::Ratio => {
            let tq = Cdf::from_samples(&results.ratio_tcp_quic);
            let mm = Cdf::from_samples(&results.ratio_mptcp_mpquic);
            for (protocol, baseline, cdf) in [("QUIC", "TCP", &tq), ("MPQUIC", "MPTCP", &mm)] {
                println!(
                    "headline: {protocol} faster than {baseline} in {:.1}% of simulations (median ratio {:.3})",
                    cdf.fraction_above(1.0) * 100.0,
                    cdf.quantile(0.5).unwrap_or(f64::NAN),
                );
            }
            println!("paper:    {}", figure.claim);
            print_cdf("Time TCP / QUIC", &tq);
            print_cdf("Time MPTCP / MPQUIC", &mm);
        }
        View::Benefit => {
            println!(
                "headline: multipath beneficial (EBen > 0.05) for MPQUIC in {:.1}% of runs, MPTCP in {:.1}%",
                results.beneficial_fraction(true) * 100.0,
                results.beneficial_fraction(false) * 100.0,
            );
            println!("paper:    {}", figure.claim);
            println!("# experimental aggregation benefit (box summaries)");
            print_box("MPTCP vs TCP   [best-first]", &results.eben_mptcp[0]);
            print_box("MPTCP vs TCP   [worst-first]", &results.eben_mptcp[1]);
            print_box("MPQUIC vs QUIC [best-first]", &results.eben_mpquic[0]);
            print_box("MPQUIC vs QUIC [worst-first]", &results.eben_mpquic[1]);
        }
    }
}

/// Prints Table 1: the design's parameter ranges and the first three
/// WSP scenarios of each class.
pub fn print_table1() {
    println!("== Table 1: Experimental design parameters [37] ==");
    println!("                        Low-BDP           High-BDP");
    println!("Factor                Min.    Max.      Min.    Max.");
    let low = ExperimentClass::LowBdpNoLoss.ranges();
    let high = ExperimentClass::HighBdpNoLoss.ranges();
    for (factor, low, high) in [
        ("Capacity [Mbps]", low.capacity_mbps, high.capacity_mbps),
        ("Round-Trip-Time [ms]", low.rtt_ms, high.rtt_ms),
        ("Queuing Delay [ms]", low.queue_ms, high.queue_ms),
        ("Random Loss [%]", low.loss_pct, high.loss_pct),
    ] {
        println!(
            "{factor:<20} {:>5}  {:>6}     {:>5}  {:>6}",
            low.0, low.1, high.0, high.1
        );
    }
    println!();
    for class in ExperimentClass::ALL {
        let scenarios = design_scenarios(class, mpquic_expdesign::SCENARIOS_PER_CLASS);
        println!(
            "class {:<18} {} WSP scenarios × 2 start modes = {} simulations per protocol",
            class.name(),
            scenarios.len(),
            scenarios.len() * 2
        );
        for s in scenarios.iter().take(3) {
            let [a, b] = &s.paths;
            println!(
                "  #{:<3} pathA: {:6.2} Mbps {:5.1} ms rtt {:6.1} ms queue {:.2}% loss | pathB: {:6.2} Mbps {:5.1} ms rtt {:6.1} ms queue {:.2}% loss",
                s.index,
                a.capacity_mbps, a.rtt_ms, a.queue_ms, a.loss_pct,
                b.capacity_mbps, b.rtt_ms, b.queue_ms, b.loss_pct,
            );
        }
        println!("  ...");
    }
}

/// Runs the Fig. 11 handover and prints each request's delay by its
/// send time, the headline next to the paper's claim, and the per-path
/// telemetry behind it.
pub fn print_handover(config: &HandoverConfig) {
    let (delays, metrics) = run_handover_instrumented(config, 42);
    println!("== Fig. 11 — network handover (MPQUIC) ==");
    println!(
        "initial path RTT {:?} fails at {:?}; second path RTT {:?}",
        config.initial_rtt, config.fail_at, config.second_rtt
    );
    println!("# sent_time[s]\tdelay[ms]");
    for (sent, delay) in &delays {
        println!("{sent:.3}\t{delay:.1}");
    }
    let max_delay = delays.iter().map(|(_, d)| *d).fold(0.0, f64::max);
    let post: Vec<f64> = delays
        .iter()
        .filter(|(t, _)| *t > 5.0)
        .map(|(_, d)| *d)
        .collect();
    let post_avg = post.iter().sum::<f64>() / post.len().max(1) as f64;
    println!("# headline: worst delay {max_delay:.1} ms at failover; post-failover average {post_avg:.1} ms");
    println!(
        "# paper:    one request sees the RTO spike; connection continues on the functional path"
    );
    if let Some(snapshot) = metrics {
        print_path_metrics(&snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every invocation CI, README.md and EXPERIMENTS.md give.
    #[test]
    fn the_documented_invocations_parse() {
        for line in [
            "",
            "--scenarios 253 --size 4194304 --repeats 1 --cap 120",
            "--figure fig7 --scenarios 253 --cap 300",
            "--figure fig8 --scenarios 253 --repeats 1 --cap 300",
            "--figure fig9 --scenarios 253",
            "--figure fig10 --scenarios 253",
            "--figure fig9 --figure fig10",
            "--figure table1",
            "--figure fig11",
        ] {
            let words = line.split_whitespace().map(str::to_string);
            let args = Args::from_args(words, &VALUED, &["help"]).expect("known flags");
            assert!(CliArgs::from_args(&args).is_ok(), "{line:?}");
        }
    }
}
