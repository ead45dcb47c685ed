//! End-to-end: the churn scenario against a real loopback endpoint.
//!
//! Churn is the harshest accounting test in the catalog — every
//! connection is accepted, serves exactly one exchange, and must be
//! retired cleanly — so it doubles as the endpoint's bookkeeping
//! audit: `accepted == closed == completed`, zero drops, zero
//! malformed datagrams, and the whole run reproducible from the seed.

use mpquic_loadgen::runner::{run_scenario, RunOptions};
use mpquic_loadgen::scenario::by_name;
use mpquic_loadgen::schedule::build_schedule;

#[test]
fn churn_schedule_is_deterministic_under_a_fixed_seed() {
    let scenario = by_name("churn", true).expect("churn in catalog");
    let a = build_schedule(&scenario, 11);
    let b = build_schedule(&scenario, 11);
    assert_eq!(a.ops, b.ops, "same seed must yield the same schedule");
    assert_eq!(a.conns, b.conns);

    let c = build_schedule(&scenario, 12);
    assert_ne!(a.ops, c.ops, "different seed must move the arrivals");
}

#[test]
fn churn_over_loopback_drops_nothing_and_retires_every_connection() {
    let scenario = by_name("churn", true).expect("churn in catalog");
    let opts = RunOptions {
        seed: 11,
        workers: 1,
        client_threads: 2,
        ..RunOptions::default()
    };
    let outcome = run_scenario(&scenario, &opts).expect("churn run");

    // Client side: every scheduled exchange completed, none timed out.
    assert_eq!(outcome.ops_ok, outcome.ops_total, "all ops must succeed");
    assert_eq!(outcome.errors, 0, "no errors");
    assert_eq!(outcome.timeouts, 0, "no timeouts");
    assert_eq!(outcome.conns_failed, 0, "no abandoned connections");
    assert_eq!(outcome.conns_completed, outcome.conns);

    // Server side: the endpoint saw every connection, shed no load,
    // and its retirement books balance.
    let ep = outcome.endpoint;
    assert_eq!(ep.accepted, outcome.conns as u64, "every conn accepted");
    assert_eq!(ep.closed, ep.accepted, "every accepted conn retired");
    assert_eq!(ep.completed, ep.accepted, "every conn completed cleanly");
    assert_eq!(ep.failed, 0, "no server-side failures");
    assert_eq!(ep.rejected, 0, "accept limit never hit");
    assert_eq!(ep.recv_errors, 0, "no receive errors");
    assert_eq!(ep.malformed, 0, "no malformed datagrams");
    assert_eq!(ep.active, 0, "nothing left live after drain");
}
