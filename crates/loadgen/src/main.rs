//! `mpquic-loadgen` binary: run workload scenarios against the real
//! endpoint, judge each against its SLO and emit a flat JSON report.
//!
//! ```text
//! mpquic-loadgen [--smoke] [--scenario NAME] [--seed N] [--workers N]
//!                [--client-threads N] [--scheduler NAME] [--out FILE]
//!                [--flight-dump FILE]
//! ```
//!
//! Without `--scenario` the whole catalog runs (request_response,
//! streaming, incast, churn, mobility). `--scheduler NAME` selects a
//! policy from the scheduler zoo (lowest-rtt, no-duplicate,
//! round-robin, redundant, blest) for the server endpoint and every
//! client connection. Exit status is non-zero when a scenario misses
//! its SLO (any failed op, or p99 over the scenario's absolute bound)
//! or the endpoint shed load. This is a correctness suite; performance
//! numbers come from `perf/` (DESIGN.md §20).
//!
//! `--flight-dump FILE` writes each scenario's flight-recorder dump
//! (JSON lines, see DESIGN.md §15) to FILE. Even without the flag, a
//! dump is written to `loadgen-flight.jsonl` whenever the run sheds
//! load or misses an SLO, so a failing CI run always leaves the last
//! endpoint events behind for triage.

use mpquic_loadgen::report::{print_summary, render_report};
use mpquic_loadgen::runner::{run_scenario, RunOptions};
use mpquic_loadgen::scenario::{by_name, catalog};

fn usage() -> ! {
    eprintln!(
        "usage: mpquic-loadgen [--smoke] [--scenario NAME] [--seed N] [--workers N] \
         [--client-threads N] [--scheduler NAME] [--out FILE] [--flight-dump FILE]\n\
         scenarios: request_response streaming incast churn mobility"
    );
    std::process::exit(2);
}

/// Whether the endpoint turned traffic away: new connections at the
/// accept limit, receive batches lost to socket errors, or datagrams it
/// could not route.
fn shed_load(endpoint: &mpquic_io::EndpointSnapshot) -> bool {
    endpoint.rejected > 0 || endpoint.recv_errors > 0 || endpoint.malformed > 0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut scenario_name: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut flight_path: Option<String> = None;
    let mut opts = RunOptions::default();

    fn value(args: &[String], i: &mut usize, name: &str) -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => {
                eprintln!("mpquic-loadgen: {name} needs a value");
                std::process::exit(2);
            }
        }
    }

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--scenario" => scenario_name = Some(value(&args, &mut i, "--scenario")),
            "--out" => out_path = Some(value(&args, &mut i, "--out")),
            "--flight-dump" => flight_path = Some(value(&args, &mut i, "--flight-dump")),
            "--seed" => {
                opts.seed = value(&args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--workers" => {
                opts.workers = value(&args, &mut i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--client-threads" => {
                opts.client_threads = value(&args, &mut i, "--client-threads")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--scheduler" => {
                let raw = value(&args, &mut i, "--scheduler");
                opts.scheduler = match raw.parse() {
                    Ok(kind) => Some(kind),
                    Err(e) => {
                        eprintln!("mpquic-loadgen: --scheduler: {e}");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("mpquic-loadgen: unknown argument {other}");
                usage();
            }
        }
        i += 1;
    }

    let scenarios = match &scenario_name {
        Some(name) => match by_name(name, smoke) {
            Some(s) => vec![s],
            None => {
                eprintln!("mpquic-loadgen: unknown scenario {name}");
                usage();
            }
        },
        None => catalog(smoke),
    };

    println!(
        "mpquic-loadgen: {} scenario(s), seed {}, workers {} ({}), {} client thread(s)",
        scenarios.len(),
        opts.seed,
        opts.workers,
        if opts.workers == 0 { "auto" } else { "fixed" },
        opts.client_threads,
    );

    let mut outcomes = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        println!("running {} ...", scenario.name);
        match run_scenario(scenario, &opts) {
            Ok(outcome) => {
                print_summary(&outcome);
                outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("mpquic-loadgen: {}: {e}", scenario.name);
                std::process::exit(1);
            }
        }
    }

    // Dump the flight recorders before any failure exit below, so a
    // shedding or SLO-failing run always leaves its last endpoint
    // events behind (DESIGN.md §15).
    let shed = outcomes.iter().any(|o| shed_load(&o.endpoint));
    let slo_failed = outcomes.iter().any(|o| !o.slo_pass);
    if flight_path.is_some() || shed || slo_failed {
        let path = flight_path.as_deref().unwrap_or("loadgen-flight.jsonl");
        let mut dump = String::new();
        for outcome in &outcomes {
            dump.push_str(&outcome.flight);
        }
        match std::fs::write(path, &dump) {
            Ok(()) => println!("flight recorder dumped to {path}"),
            Err(e) => {
                eprintln!("mpquic-loadgen: write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    // The endpoint must never shed load in these scenarios: every
    // population fits the accept limit, and the clients send nothing
    // the endpoint cannot route.
    for outcome in &outcomes {
        let ep = &outcome.endpoint;
        if shed_load(ep) {
            eprintln!(
                "mpquic-loadgen: {}: endpoint shed load ({} rejected, {} recv errors, {} malformed)",
                outcome.name, ep.rejected, ep.recv_errors, ep.malformed
            );
            std::process::exit(1);
        }
    }

    let report = render_report(&outcomes, opts.seed, opts.workers, smoke);
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("mpquic-loadgen: write {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    } else {
        print!("{report}");
    }

    let failed: Vec<&str> = outcomes
        .iter()
        .filter(|o| !o.slo_pass)
        .map(|o| o.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("mpquic-loadgen: SLO FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
    println!("mpquic-loadgen: all SLOs met");
}
