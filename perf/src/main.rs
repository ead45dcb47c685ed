//! `mpquic-perf` — the command behind the root `BENCHMARK.json`.
//!
//! ```text
//! mpquic-perf run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                 [--out DIR] [--smoke] [--workers N]
//! mpquic-perf aa  [--seed N] [--seconds S] [--smoke]
//! mpquic-perf saturate [--seed N] [--seconds S]
//! mpquic-perf manifest
//! ```
//!
//! `run` with `--workload` measures that workload and prints, as its
//! last line, the one JSON object the benchmark contract asks for; with
//! none it runs all five and prints the suite's record. `--trace` makes
//! either a traced run with the ladder. Any failed check exits 1 with
//! the workload named. `manifest` prints the root `BENCHMARK.json` from
//! the metric tables. Traffic crosses the host loopback, not a link.

use mpquic_perf::engine::{self, RunOpts};
use mpquic_perf::host::Env;
use mpquic_perf::ladder::{self, LadderOpts};
use mpquic_perf::report::{self, Outcome, Value, END_TO_END};
use mpquic_perf::spec::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: mpquic-perf run [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--out DIR] [--smoke] [--workers N]\n       \
mpquic-perf aa [--seed N] [--seconds S] [--smoke]\n       \
mpquic-perf saturate [--seed N] [--seconds S]\n       \
mpquic-perf manifest";

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let mut args = Args {
        command: argv.next().ok_or("missing command")?,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
        workers: 1,
    };
    fn number<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
        raw.and_then(|r| r.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(argv.next().ok_or("--workload needs a name")?),
            "--seed" => args.seed = number("--seed", argv.next())?,
            "--seconds" => {
                let seconds: f64 = number("--seconds", argv.next())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                // Bare `--trace` switches tracing on; `--trace 0|1` says which.
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--out" => {
                args.out = Some(PathBuf::from(argv.next().ok_or("--out needs a directory")?))
            }
            "--smoke" => args.smoke = true,
            "--workers" => args.workers = number("--workers", argv.next())?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// The shape of one workload run under these arguments.
fn run_opts(args: &Args) -> RunOpts {
    let (windows, traced_windows) = match (args.smoke, args.trace) {
        // The smoke is one short run that yields both metric families.
        (true, _) => (2, 1),
        (false, true) => (spec::TRACE_WINDOWS, spec::TRACE_WINDOWS),
        (false, false) => (spec::WINDOWS, 0),
    };
    let window = match (args.seconds, args.smoke) {
        (Some(seconds), _) => seconds / spec::WINDOWS as f64,
        (None, true) => 0.5,
        (None, false) => spec::RUN_SECONDS as f64 / spec::WINDOWS as f64,
    };
    RunOpts {
        seed: args.seed,
        window: Duration::from_secs_f64(window),
        windows,
        traced_windows,
        workers: args.workers,
    }
}

/// Runs `work` on the client thread; the main thread only joins.
fn on_client_thread<T: Send + 'static>(
    work: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, String> {
    std::thread::Builder::new()
        .name("perf-client".to_string())
        .spawn(work)
        .map_err(|e| format!("spawn client thread: {e}"))?
        .join()
        .map_err(|_| "client thread panicked".to_string())?
}

fn write_out(
    dir: &Path,
    file: &str,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) {
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(dir.join(file)))
        .and_then(|mut f| write(&mut f));
    if let Err(e) = result {
        eprintln!(
            "mpquic-perf: cannot write {}: {e}",
            dir.join(file).display()
        );
    }
}

/// Runs the named workloads (all five when `only` is `None`) and the
/// ladder when tracing. Returns each outcome and the ladder.
fn run_suite(args: &Args, only: Option<&str>) -> Result<(Vec<Outcome>, Vec<Value>), String> {
    let opts = run_opts(args);
    let traced = opts.traced_windows > 0;
    let catalogue = spec::catalogue(args.smoke);
    let workloads: Vec<&Workload> = match only {
        Some(name) => vec![catalogue
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?],
        None => catalogue.iter().collect(),
    };
    let ladder = if traced {
        let rpc = spec::by_name("rpc-open", args.smoke).expect("catalogue has rpc-open");
        let mix = spec::plan(&rpc, args.seed, 0.0).warmup;
        ladder::run(&LadderOpts::new(args.smoke, args.seed), &mix)?
    } else {
        Vec::new()
    };
    let mut outcomes = Vec::new();
    for workload in workloads {
        let job = workload.clone();
        let run = on_client_thread(move || engine::run_workload(&job, &opts))
            .map_err(|e| format!("{}: {e}", workload.name))?;
        let outcome = report::outcome(&run, traced.then_some(&ladder[..]));
        outcome.print(&ladder);
        if let (Some(dir), true) = (&args.out, traced) {
            write_out(dir, &format!("trace-{}.jsonl", workload.name), |f| {
                run.tracer.write_jsonl(f)
            });
        }
        outcomes.push(outcome);
    }
    Ok((outcomes, ladder))
}

/// `later - earlier` of one metric between two workloads' outcomes.
fn delta(outcomes: &[Outcome], later: &str, earlier: &str, metric: &str) -> Option<f64> {
    let of = |name: &str| outcomes.iter().find(|o| o.workload == name)?.get(metric);
    Some(of(later)? - of(earlier)?)
}

fn command_run(args: &Args) -> Result<bool, String> {
    let opts = run_opts(args);
    let env = Env::probe();
    let env_json = report::env_json(
        &env,
        opts.window.as_secs_f64(),
        opts.windows + opts.traced_windows,
        args.workers,
    );
    println!("mpquic-perf: link loopback (not a real link), {} cores, endpoint workers {}, backend auto -> {}", env.nproc, args.workers, env.backend);
    println!("env {env_json}");
    let (outcomes, ladder) = run_suite(args, args.workload.as_deref())?;
    let all_correct = outcomes.iter().all(|o| o.correct);
    for outcome in outcomes.iter().filter(|o| !o.correct) {
        eprintln!(
            "mpquic-perf: {} failed: {}",
            outcome.workload,
            outcome.violations.join("; ")
        );
    }

    for rung in &ladder {
        println!(
            "ladder {:<40} median {:>12.2} {:<5} iqr {:.2} over {}",
            rung.name,
            rung.value,
            rung.unit,
            rung.spread,
            rung.samples.len()
        );
    }
    for outcome in outcomes.iter().filter(|o| o.per_layer.is_some()) {
        if let (Some(total), Some(residual)) = (
            outcome.get("io.endpoint_cpu_ns_per_dgram"),
            outcome.get("ladder.residual_ns_per_dgram"),
        ) {
            println!(
                "{}: rungs account for {:.1}% of {:.0} ns endpoint CPU per datagram (residual {:.0} ns)",
                outcome.workload,
                100.0 * (1.0 - residual / total.max(1e-9)),
                total,
                residual
            );
        }
    }
    // The pre-registered numbers an O(active)-loop change should move.
    let mut deltas = Vec::new();
    for metric in ["p50_us", "server_cpu_us_per_op"] {
        if let Some(d) = delta(&outcomes, "rpc-open-idle512", "rpc-open", metric) {
            println!("delta rpc-open-idle512 - rpc-open: {metric} {d:+.4} us");
            deltas.push(format!("\"{metric}\": {d}"));
        }
    }

    let record = format!(
        "{{\"benchmark\": \"mpquic-perf\", \"claim\": null, \"env\": {env_json}, \"workloads\": [{}], \"idle512_minus_rpc_open\": {{{}}}, \"ladder\": {}, \"per_layer_moves\": {}}}",
        outcomes.iter().map(Outcome::full_json).collect::<Vec<_>>().join(", "),
        deltas.join(", "),
        report::metrics_json(&ladder, true),
        report::moves_json(),
    );
    if let Some(dir) = &args.out {
        write_out(dir, "report.json", |f| {
            use std::io::Write;
            writeln!(f, "{record}")
        });
    }
    // Last line of standard output: the contract's object for one
    // workload, the whole record for the suite.
    match (&args.workload, outcomes.first()) {
        (Some(_), Some(outcome)) => println!("{}", outcome.contract_json()),
        _ => println!("{record}"),
    }
    Ok(all_correct)
}

/// Runs the untraced suite twice and compares every metric of every
/// workload against its bound.
fn command_aa(args: &Args) -> Result<bool, String> {
    let (first, _) = run_suite(args, None)?;
    let (second, _) = run_suite(args, None)?;
    let mut ok = first.iter().chain(&second).all(|o| o.correct);
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "run A", "run B", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (a.get(def.name), b.get(def.name)) else {
                continue;
            };
            let diff = report::worse_by(def, va, vb).abs();
            let within = diff <= def.bound;
            ok &= within;
            println!(
                "{:<18} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                a.workload,
                def.name,
                va,
                vb,
                100.0 * diff,
                100.0 * def.bound,
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    println!("a/a {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn command_saturate(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    let (seed, workers) = (args.seed, args.workers);
    let rates = on_client_thread(move || engine::saturate(seed, seconds, workers))?;
    let rendered: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!(
        "rpc-open mix, closed loop, {} calls outstanding per connection: ops/s per window [{}]; spec::RPC_OPEN_RATE is about half the last",
        engine::WARM_OUTSTANDING,
        rendered.join(", ")
    );
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("mpquic-perf: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "run" => command_run(&args),
        "aa" => command_aa(&args),
        "saturate" => command_saturate(&args),
        "manifest" => {
            print!("{}", report::manifest_json());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("mpquic-perf: {why}");
            ExitCode::from(1)
        }
    }
}
