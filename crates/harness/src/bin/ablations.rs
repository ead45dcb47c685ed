//! Ablation study of the paper's design choices (DESIGN.md §6): runs the
//! same workloads with each mechanism toggled and prints the *simulated
//! outcome* differences.

use mpquic_harness::{run_file_transfer, run_handover, HandoverConfig, Overrides, Protocol};
use mpquic_netsim::PathSpec;
use std::time::Duration;

const CAP: Duration = Duration::from_secs(300);
const SIZE: usize = 4 << 20;

fn heterogeneous() -> [PathSpec; 2] {
    // Strongly heterogeneous RTTs: the regime where scheduling and
    // receive-window handling decide the outcome.
    [
        PathSpec::new(12.0, 20, 80, 0.0),
        PathSpec::new(8.0, 400, 400, 0.0),
    ]
}

/// Runs one 4 MB download over [`heterogeneous`] paths and prints its
/// time and goodput.
fn transfer(name: &str, protocol: Protocol, overrides: &Overrides) {
    let o = run_file_transfer(&heterogeneous(), protocol, SIZE, 3, CAP, overrides);
    let mbps = o.goodput * 8.0 / 1e6;
    println!("  {name:<32} {:.3}s  ({mbps:.2} Mbps)", o.duration_secs);
}

fn main() {
    println!("== Ablations: MPQUIC design choices on a heterogeneous two-path network ==");
    println!("paths: 12 Mbps/20 ms + 8 Mbps/400 ms, 4 MB download, 1 MB receive window\n");

    // 1. Scheduler: the paper's duplicate-while-unknown vs none. A tight
    // receive window + extreme RTT asymmetry is where a slow path's
    // first packets can block the fast one, as §3 argues.
    println!("-- packet scheduler (paper §3: duplicate on unknown-RTT paths) --");
    for (name, duplicate) in [
        ("lowest-RTT + duplicate (paper)", true),
        ("lowest-RTT, no duplication", false),
    ] {
        let overrides = Overrides {
            duplicate_unknown_rtt: Some(duplicate),
            quic_recv_window: Some(1 << 20),
            ..Overrides::default()
        };
        transfer(name, Protocol::Mpquic, &overrides);
    }

    // 2. Packet-number spaces: the paper gives every path its own
    // sequence space (§3.1) so one path's reordering cannot poison
    // another's loss detection. Collapse them onto a single shared
    // space and let the 400 ms path's gaps trigger spurious
    // retransmissions on the 20 ms path.
    println!("\n-- packet-number spaces (paper §3.1: one space per path) --");
    for (name, shared) in [("per-path (paper)", false), ("single shared space", true)] {
        let overrides = Overrides {
            shared_pn_space: Some(shared),
            quic_recv_window: Some(1 << 20),
            ..Overrides::default()
        };
        transfer(name, Protocol::Mpquic, &overrides);
    }

    // 3. WINDOW_UPDATE duplication under a tight receive window.
    println!("\n-- WINDOW_UPDATE duplication (tight 256 kB receive window) --");
    for (name, dup) in [("on all paths (paper)", true), ("single path", false)] {
        let overrides = Overrides {
            duplicate_window_updates: Some(dup),
            quic_recv_window: Some(256 << 10),
            ..Overrides::default()
        };
        transfer(name, Protocol::Mpquic, &overrides);
    }

    // 4. PATHS frame during handover.
    println!("\n-- PATHS frame on RTO (handover acceleration, paper §4.3) --");
    for (name, enabled) in [("enabled (paper)", true), ("disabled", false)] {
        let config = HandoverConfig {
            overrides: Overrides {
                send_paths_frames: Some(enabled),
                ..Overrides::default()
            },
            ..HandoverConfig::default()
        };
        let delays = run_handover(&config, 42);
        let worst = delays.iter().map(|(_, d)| *d).fold(0.0, f64::max);
        println!("  {name:<32} worst request delay {worst:.1} ms");
    }

    // 5. Congestion control coupling.
    println!("\n-- multipath congestion control --");
    for (name, cc) in [
        ("OLIA (paper)", mpquic_core::CcAlgorithm::Olia),
        ("uncoupled CUBIC (unfair!)", mpquic_core::CcAlgorithm::Cubic),
        ("BBR-lite (extension)", mpquic_core::CcAlgorithm::BbrLite),
    ] {
        let overrides = Overrides {
            cc: Some(cc),
            ..Overrides::default()
        };
        transfer(name, Protocol::Mpquic, &overrides);
    }

    // 6. MPTCP's ORP, in the regime it exists for: a shared receive
    // window small enough that slow-path data blocks it.
    println!("\n-- MPTCP penalization + opportunistic retransmission (512 kB shared window) --");
    for (name, orp) in [("enabled (Linux default)", true), ("disabled", false)] {
        let overrides = Overrides {
            orp: Some(orp),
            tcp_recv_window: Some(512 << 10),
            ..Overrides::default()
        };
        transfer(name, Protocol::Mptcp, &overrides);
    }

    // 7. ACK-range richness: the paper credits QUIC's 256 ACK ranges
    // (vs TCP's 2-3 SACK blocks) for its loss resilience. Cap QUIC at 3
    // ranges and compare on a lossy path, alongside real TCP.
    println!("\n-- ACK-range richness (2.5% loss, 100 ms RTT, 1 MB) --");
    let lossy = [PathSpec::new(10.0, 100, 50, 2.5)];
    for (name, ranges) in [
        ("QUIC, 256 ACK ranges (paper)", 256usize),
        ("QUIC capped to 3 ranges", 3),
    ] {
        let overrides = Overrides {
            quic_ack_ranges: Some(ranges),
            ..Overrides::default()
        };
        let o = run_file_transfer(&lossy, Protocol::Quic, 1 << 20, 3, CAP, &overrides);
        println!("  {name:<32} {:.3}s", o.duration_secs);
    }
    let o = run_file_transfer(
        &lossy,
        Protocol::Tcp,
        1 << 20,
        3,
        CAP,
        &Overrides::default(),
    );
    println!("  {:<32} {:.3}s", "TCP (3 SACK blocks)", o.duration_secs);

    // 8. Shared-bottleneck fairness — the §3 argument for OLIA: a 2-path
    // MPQUIC download and a single-path QUIC download share an 8 Mbps
    // bottleneck; the competitor's share shows the coupling at work.
    println!("\n-- shared-bottleneck fairness (2-path MPQUIC vs single-path QUIC, 8 Mbps) --");
    for (name, cc) in [
        ("OLIA (coupled, paper)", mpquic_core::CcAlgorithm::Olia),
        ("uncoupled CUBIC", mpquic_core::CcAlgorithm::Cubic),
    ] {
        let o = mpquic_harness::run_shared_bottleneck(cc, 8.0, Duration::from_secs(12));
        println!(
            "  {name:<32} competitor share {:.1}%  (multi {:.2} Mbps / single {:.2} Mbps)",
            o.single_share() * 100.0,
            o.multipath_goodput * 8.0 / 1e6,
            o.single_goodput * 8.0 / 1e6,
        );
    }
}
