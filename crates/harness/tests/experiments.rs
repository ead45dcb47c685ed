//! Full-pipeline tests: every protocol over the simulator, the paper's
//! metrics, and scaled-down versions of the figure sweeps. These assert
//! the *shapes* the paper reports (who wins, in which regime), not
//! absolute numbers.

use mpquic_expdesign::ExperimentClass;
use mpquic_harness::experiments::{run_class_sweep, run_scenario, SweepConfig};
use mpquic_harness::{
    aggregation_benefit, run_file_transfer, run_handover, HandoverConfig, Overrides, Protocol,
};
use mpquic_netsim::PathSpec;
use std::time::Duration;

fn spec(mbps: f64, rtt_ms: u64, queue_ms: u64, loss_pct: f64) -> PathSpec {
    PathSpec::new(mbps, rtt_ms, queue_ms, loss_pct)
}

const MB: usize = 1 << 20;

#[test]
fn every_protocol_completes_a_transfer() {
    let duo = [spec(8.0, 30, 50, 0.0), spec(4.0, 50, 50, 0.0)];
    for protocol in Protocol::ALL {
        let specs: &[PathSpec] = if protocol.is_multipath() {
            &duo
        } else {
            &duo[..1]
        };
        let outcome = run_file_transfer(
            specs,
            protocol,
            2 * MB,
            7,
            Duration::from_secs(120),
            &Overrides::default(),
        );
        assert!(outcome.completed, "{} failed: {outcome:?}", protocol.name());
        assert_eq!(outcome.bytes_received, 2 * MB as u64);
        // Sanity: the transfer should take at least the no-overhead
        // serialization time and less than the cap.
        assert!(
            outcome.duration_secs > 1.0,
            "{}: {outcome:?}",
            protocol.name()
        );
    }
}

#[test]
fn transfers_are_deterministic() {
    let specs = [spec(5.0, 40, 60, 1.0), spec(3.0, 60, 60, 1.0)];
    let a = run_file_transfer(
        &specs,
        Protocol::Mpquic,
        MB,
        99,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    let b = run_file_transfer(
        &specs,
        Protocol::Mpquic,
        MB,
        99,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    assert_eq!(a, b);
}

#[test]
fn quic_wins_short_transfers_thanks_to_handshake() {
    // 256 kB over a clean path: TCP pays 3 RTTs of handshake, QUIC 1.
    // With a 100 ms RTT the gap must be visible.
    let one = [spec(20.0, 100, 50, 0.0)];
    let quic = run_file_transfer(
        &one,
        Protocol::Quic,
        256 << 10,
        3,
        Duration::from_secs(60),
        &Overrides::default(),
    );
    let tcp = run_file_transfer(
        &one,
        Protocol::Tcp,
        256 << 10,
        3,
        Duration::from_secs(60),
        &Overrides::default(),
    );
    assert!(quic.completed && tcp.completed);
    assert!(
        tcp.duration_secs > quic.duration_secs + 0.15,
        "TCP {:.3}s should trail QUIC {:.3}s by ~2 RTTs",
        tcp.duration_secs,
        quic.duration_secs
    );
}

#[test]
fn quic_handles_random_loss_better_than_tcp() {
    // 2.5% random loss on a long path: QUIC's rich ACK ranges, precise
    // RTT estimation and cross-transmission-unambiguous recovery should
    // beat TCP's 3 SACK blocks + Karn (paper Fig. 5). Averaged over a
    // few seeds since a single lossy run is noisy.
    let lossy = [spec(10.0, 100, 50, 2.5)];
    let mut quic_total = 0.0;
    let mut tcp_total = 0.0;
    for seed in 0..4 {
        let quic = run_file_transfer(
            &lossy,
            Protocol::Quic,
            MB,
            seed,
            Duration::from_secs(300),
            &Overrides::default(),
        );
        let tcp = run_file_transfer(
            &lossy,
            Protocol::Tcp,
            MB,
            seed,
            Duration::from_secs(300),
            &Overrides::default(),
        );
        assert!(quic.completed, "{quic:?}");
        quic_total += quic.duration_secs;
        tcp_total += tcp.duration_secs;
    }
    assert!(
        tcp_total > quic_total * 1.1,
        "TCP total {tcp_total:.2}s should trail QUIC {quic_total:.2}s under loss"
    );
}

#[test]
fn mpquic_aggregates_two_good_paths() {
    // Two similar clean paths: MPQUIC should get close to the sum of the
    // single-path QUIC goodputs (EBen near 1).
    let duo = [spec(8.0, 30, 100, 0.0), spec(8.0, 40, 100, 0.0)];
    let multi = run_file_transfer(
        &duo,
        Protocol::Mpquic,
        8 * MB,
        5,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    let s0 = run_file_transfer(
        &duo[..1],
        Protocol::Quic,
        8 * MB,
        5,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    let s1 = run_file_transfer(
        &duo[1..],
        Protocol::Quic,
        8 * MB,
        5,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    let eben = aggregation_benefit(multi.goodput, &[s0.goodput, s1.goodput]);
    assert!(
        eben > 0.6,
        "MPQUIC should aggregate: EBen {eben:.2} (multi {:.0}, singles {:.0}/{:.0})",
        multi.goodput,
        s0.goodput,
        s1.goodput
    );
}

#[test]
fn mptcp_also_aggregates_but_needs_join_time() {
    let duo = [spec(8.0, 30, 100, 0.0), spec(8.0, 40, 100, 0.0)];
    let multi = run_file_transfer(
        &duo,
        Protocol::Mptcp,
        8 * MB,
        5,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    let s0 = run_file_transfer(
        &duo[..1],
        Protocol::Tcp,
        8 * MB,
        5,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    let s1 = run_file_transfer(
        &duo[1..],
        Protocol::Tcp,
        8 * MB,
        5,
        Duration::from_secs(120),
        &Overrides::default(),
    );
    let eben = aggregation_benefit(multi.goodput, &[s0.goodput, s1.goodput]);
    assert!(
        eben > 0.3,
        "MPTCP should aggregate on clean equal paths: EBen {eben:.2}"
    );
}

#[test]
fn handover_recovers_after_path_failure() {
    let delays = run_handover(&HandoverConfig::default(), 21);
    assert!(
        delays.len() >= 30,
        "most requests must be answered, got {}",
        delays.len()
    );
    // Before the failure (t < 2.8 s): delays near the initial path RTT.
    let before: Vec<f64> = delays
        .iter()
        .filter(|(t, _)| *t < 2.8)
        .map(|(_, d)| *d)
        .collect();
    assert!(!before.is_empty());
    let before_max = before.iter().cloned().fold(0.0, f64::max);
    assert!(
        before_max < 60.0,
        "pre-failure delays should be ~RTT: max {before_max:.1} ms"
    );
    // The requests hitting the failure window show the RTO spike.
    let spike = delays
        .iter()
        .filter(|(t, _)| (2.8..5.0).contains(t))
        .map(|(_, d)| *d)
        .fold(0.0, f64::max);
    assert!(
        spike > 100.0,
        "the failover request should see an RTO-sized delay, got {spike:.1} ms"
    );
    // After recovery: delays settle near the second path's RTT.
    let after: Vec<f64> = delays
        .iter()
        .filter(|(t, _)| *t > 6.0)
        .map(|(_, d)| *d)
        .collect();
    assert!(
        !after.is_empty(),
        "requests must keep flowing after failover"
    );
    let after_median = {
        let mut sorted = after.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted.len() / 2]
    };
    assert!(
        after_median < 80.0,
        "post-failover delays should settle near the second path RTT, median {after_median:.1} ms"
    );
}

#[test]
fn scaled_sweep_produces_complete_results() {
    let mut config = SweepConfig::new(ExperimentClass::LowBdpNoLoss, 4, 512 << 10);
    config.time_cap = Duration::from_secs(60);
    let results = run_class_sweep(&config);
    // 4 scenarios × 2 start modes.
    assert_eq!(results.ratio_tcp_quic.len(), 8);
    assert_eq!(results.ratio_mptcp_mpquic.len(), 8);
    assert_eq!(results.eben_mpquic[0].len(), 4);
    assert_eq!(results.eben_mpquic[1].len(), 4);
    assert_eq!(results.outcomes.len(), 4);
    for r in &results.ratio_tcp_quic {
        assert!(r.is_finite() && *r > 0.0);
    }
    for e in results.eben_mpquic.iter().flatten() {
        assert!(e.is_finite() && *e >= -1.5, "EBen {e}");
    }
}

#[test]
fn scenario_runner_uses_initial_path_correctly() {
    // Deterministic scenario: one great path, one terrible path. The
    // worst-first single-path ratio runs must be much slower than the
    // best-first ones.
    let scenario = mpquic_expdesign::table1::design_scenarios(ExperimentClass::LowBdpNoLoss, 3)
        .into_iter()
        .next()
        .unwrap();
    let outcome = run_scenario(
        &scenario,
        256 << 10,
        1,
        Duration::from_secs(60),
        &Overrides::default(),
    );
    // Path 0 of `singles` is the best path by construction.
    let best_cap = scenario
        .paths
        .iter()
        .map(|p| p.capacity_mbps)
        .fold(0.0, f64::max);
    let worst_cap = scenario
        .paths
        .iter()
        .map(|p| p.capacity_mbps)
        .fold(f64::INFINITY, f64::min);
    if best_cap / worst_cap > 2.0 {
        assert!(
            outcome.singles[0][0].goodput > outcome.singles[1][0].goodput,
            "best-path single QUIC should outpace worst-path: {:?}",
            outcome.singles
        );
    }
}

#[test]
fn bbr_lite_extension_completes_transfers() {
    // The BBR-lite extension (paper footnote 3) must move data correctly
    // even though it is not part of the evaluated configuration.
    let overrides = Overrides {
        cc: Some(mpquic_core::CcAlgorithm::BbrLite),
        ..Overrides::default()
    };
    let duo = [spec(10.0, 40, 100, 0.0), spec(5.0, 60, 100, 0.0)];
    for protocol in [Protocol::Quic, Protocol::Mpquic] {
        let specs: &[PathSpec] = if protocol.is_multipath() {
            &duo
        } else {
            &duo[..1]
        };
        let outcome = run_file_transfer(
            specs,
            protocol,
            2 * MB,
            4,
            Duration::from_secs(120),
            &overrides,
        );
        assert!(outcome.completed, "{}: {outcome:?}", protocol.name());
        // Throughput sanity: at least half the bottleneck link.
        assert!(
            outcome.goodput * 8.0 > 5e6 * 0.5,
            "{}: goodput {:.2} Mbps too low",
            protocol.name(),
            outcome.goodput * 8.0 / 1e6
        );
    }
}
