//! The full experiment sweeps behind each figure.
//!
//! [`run_class_sweep`] reproduces the §4.1/§4.2 methodology for one
//! experiment class: for every WSP-designed scenario it runs
//!
//! * single-path QUIC and TCP on each of the two paths (the aggregation
//!   baselines, also serving as the initial-path single-path runs), and
//! * MPQUIC and MPTCP with the connection started on the best and on the
//!   worst path,
//!
//! each repeated `repeats` times with the median run kept, then derives
//! the download-time-ratio samples (Figs. 3/5/8/9) and the experimental
//! aggregation benefit samples (Figs. 4/6/7/10).

use mpquic_expdesign::table1::{design_scenarios, Scenario, StartMode};
use mpquic_expdesign::ExperimentClass;
use mpquic_netsim::PathSpec;
use std::time::Duration;

use crate::metrics::aggregation_benefit;
use crate::protocol::{Overrides, Protocol};
use crate::runner::{run_file_transfer_median, TransferOutcome};

/// Sweep configuration for one experiment class.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The experiment class (Table 1 ranges + loss toggle).
    pub class: ExperimentClass,
    /// Response size in bytes (20 MB for §4.1, 256 kB for §4.2).
    pub response_size: usize,
    /// Number of WSP scenarios (the paper: 253).
    pub scenario_count: usize,
    /// Repetitions per simulation, median kept (the paper: 3).
    pub repeats: usize,
    /// Simulated-time cap per transfer.
    pub time_cap: Duration,
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Configuration deviations (ablations).
    pub overrides: Overrides,
}

impl SweepConfig {
    /// `scenarios` WSP scenarios of `class` at `response_size`, capped
    /// at the paper's 300 s of simulated time per transfer. Lossy
    /// simulations run the paper's 3 times (median kept); loss-free
    /// ones are deterministic, so once.
    pub fn new(class: ExperimentClass, scenarios: usize, response_size: usize) -> SweepConfig {
        SweepConfig {
            class,
            response_size,
            scenario_count: scenarios,
            repeats: if class.with_losses() { 3 } else { 1 },
            time_cap: Duration::from_secs(300),
            threads: default_threads(),
            overrides: Overrides::default(),
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// All measurements for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario definition (best-first ordering).
    pub scenario: Scenario,
    /// Single-path outcomes `[path][protocol]` with path 0 = best path,
    /// protocol 0 = QUIC, 1 = TCP.
    pub singles: [[TransferOutcome; 2]; 2],
    /// Multipath outcomes `[start][protocol]` with start 0 = best-first,
    /// 1 = worst-first; protocol 0 = MPQUIC, 1 = MPTCP.
    pub multis: [[TransferOutcome; 2]; 2],
}

/// Aggregated samples for one class — everything Figs. 3–10 plot.
#[derive(Debug, Clone)]
pub struct ClassResults {
    /// The class.
    pub class: ExperimentClass,
    /// TCP/QUIC download-time ratios (one per simulation: scenario ×
    /// start mode, single-path runs on the initial path).
    pub ratio_tcp_quic: Vec<f64>,
    /// MPTCP/MPQUIC download-time ratios.
    pub ratio_mptcp_mpquic: Vec<f64>,
    /// Aggregation benefit of MPQUIC vs QUIC, `[best-first, worst-first]`.
    pub eben_mpquic: [Vec<f64>; 2],
    /// Aggregation benefit of MPTCP vs TCP, `[best-first, worst-first]`.
    pub eben_mptcp: [Vec<f64>; 2],
    /// Raw per-scenario outcomes (for deeper analysis).
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ClassResults {
    /// Fraction of scenarios (both start modes pooled) where multipath
    /// was beneficial (EBen > 0.05) for the given protocol family — the
    /// headline of the aggregation-benefit figures (Figs. 4, 6, 7, 10).
    pub fn beneficial_fraction(&self, quic_family: bool) -> f64 {
        let sets = if quic_family {
            &self.eben_mpquic
        } else {
            &self.eben_mptcp
        };
        let all: Vec<f64> = sets.iter().flatten().copied().collect();
        if all.is_empty() {
            return 0.0;
        }
        all.iter().filter(|&&v| v > 0.05).count() as f64 / all.len() as f64
    }
}

/// Runs the measurements for one scenario.
pub fn run_scenario(
    scenario: &Scenario,
    response_size: usize,
    repeats: usize,
    time_cap: Duration,
    overrides: &Overrides,
) -> ScenarioOutcome {
    debug_assert_eq!(scenario.start, StartMode::BestFirst);
    let ordered = scenario.path_specs(); // [best, worst]
    let run = |specs: &[PathSpec], protocol: Protocol, salt: u64| {
        run_file_transfer_median(
            specs,
            protocol,
            response_size,
            scenario.seed().wrapping_mul(101).wrapping_add(salt),
            repeats,
            time_cap,
            overrides,
        )
    };
    // Single-path baselines on each path.
    let singles = [
        [
            run(&ordered[..1], Protocol::Quic, 1),
            run(&ordered[..1], Protocol::Tcp, 2),
        ],
        [
            run(&ordered[1..], Protocol::Quic, 3),
            run(&ordered[1..], Protocol::Tcp, 4),
        ],
    ];
    // Multipath runs, both start orders.
    let best_first = ordered;
    let worst_first = [ordered[1], ordered[0]];
    let multis = [
        [
            run(&best_first, Protocol::Mpquic, 5),
            run(&best_first, Protocol::Mptcp, 6),
        ],
        [
            run(&worst_first, Protocol::Mpquic, 7),
            run(&worst_first, Protocol::Mptcp, 8),
        ],
    ];
    ScenarioOutcome {
        scenario: scenario.clone(),
        singles,
        multis,
    }
}

/// Runs the full sweep for a class, parallelized over scenarios.
pub fn run_class_sweep(config: &SweepConfig) -> ClassResults {
    let scenarios = design_scenarios(config.class, config.scenario_count);
    let outcomes = parallel_map(&scenarios, config.threads, |scenario| {
        run_scenario(
            scenario,
            config.response_size,
            config.repeats,
            config.time_cap,
            &config.overrides,
        )
    });
    reduce_outcomes(config.class, outcomes)
}

/// Folds per-scenario outcomes into the figure-level sample sets.
pub fn reduce_outcomes(class: ExperimentClass, outcomes: Vec<ScenarioOutcome>) -> ClassResults {
    let mut results = ClassResults {
        class,
        ratio_tcp_quic: Vec::new(),
        ratio_mptcp_mpquic: Vec::new(),
        eben_mpquic: [Vec::new(), Vec::new()],
        eben_mptcp: [Vec::new(), Vec::new()],
        outcomes: Vec::new(),
    };
    for outcome in &outcomes {
        let quic_goodputs = [outcome.singles[0][0].goodput, outcome.singles[1][0].goodput];
        let tcp_goodputs = [outcome.singles[0][1].goodput, outcome.singles[1][1].goodput];
        for (start_idx, _start) in StartMode::BOTH.iter().enumerate() {
            // Initial path: best for start 0, worst for start 1.
            let initial = start_idx;
            let quic = &outcome.singles[initial][0];
            let tcp = &outcome.singles[initial][1];
            results
                .ratio_tcp_quic
                .push(tcp.duration_secs / quic.duration_secs);
            let mpquic = &outcome.multis[start_idx][0];
            let mptcp = &outcome.multis[start_idx][1];
            results
                .ratio_mptcp_mpquic
                .push(mptcp.duration_secs / mpquic.duration_secs);
            results.eben_mpquic[start_idx]
                .push(aggregation_benefit(mpquic.goodput, &quic_goodputs));
            results.eben_mptcp[start_idx].push(aggregation_benefit(mptcp.goodput, &tcp_goodputs));
        }
    }
    results.outcomes = outcomes;
    results
}

/// Simple ordered parallel map over a slice.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<&mut Option<R>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                **slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    drop(slots);
    results
        .into_iter()
        .map(|r| r.expect("all filled"))
        .collect()
}
