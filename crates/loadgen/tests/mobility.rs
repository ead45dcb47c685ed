//! End-to-end: the mobility scenario against a real loopback endpoint.
//!
//! Every client rebinds its local address (fresh ephemeral port)
//! twice mid-session, so each connection arrives at the server from
//! three different 4-tuples. The server must quarantine each new
//! address, validate it with PATH_CHALLENGE/PATH_RESPONSE, and rotate
//! the connection ID — all without losing a single request or leaking
//! a connection in its accounting. That is the paper's connection-
//! migration story (Multipath QUIC, CoNEXT 2017 §1) made gateable.

use mpquic_loadgen::runner::{run_scenario, RunOptions};
use mpquic_loadgen::scenario::{by_name, ScenarioKind};

#[test]
fn mobility_survives_rebinds_without_losing_a_connection() {
    let scenario = by_name("mobility", true).expect("mobility in catalog");
    let ScenarioKind::Mobility { conns, rebinds, .. } = scenario.kind else {
        panic!("mobility scenario has the wrong kind");
    };
    let opts = RunOptions {
        seed: 7,
        workers: 1,
        client_threads: 2,
        ..RunOptions::default()
    };
    let outcome = run_scenario(&scenario, &opts).expect("mobility run");

    // Client side: every exchange completed despite the migrations.
    assert_eq!(outcome.ops_ok, outcome.ops_total, "all ops must succeed");
    assert_eq!(outcome.errors, 0, "no errors");
    assert_eq!(outcome.timeouts, 0, "no timeouts");
    assert_eq!(outcome.conns_failed, 0, "no lost connections");
    assert_eq!(outcome.conns_completed, conns);

    // Server side: migrations must not distort the endpoint's books.
    let ep = outcome.endpoint;
    assert_eq!(ep.accepted, conns as u64, "every conn accepted once");
    assert_eq!(ep.closed, ep.accepted, "every accepted conn retired");
    assert_eq!(ep.failed, 0, "no server-side failures");
    assert_eq!(ep.rejected, 0, "accept limit never hit");
    assert_eq!(ep.recv_errors, 0, "no receive errors");
    assert_eq!(ep.malformed, 0, "no malformed datagrams");
    assert_eq!(ep.active, 0, "nothing left live after drain");

    // Path agility counters. Every rebind starts a validation; each
    // either completes or is superseded when the client moves again
    // before the challenge round trip finishes (open-loop think times
    // can be shorter than an RTT), so started must equal validated
    // plus abandoned. Each connection's final rebind must validate —
    // nothing could have flowed off the quarantine otherwise — and
    // rotations only begin on a validated migration (back-to-back
    // migrations coalesce while a rotation is still in flight).
    let started = (conns * rebinds) as u64;
    assert_eq!(
        ep.path_validations_started, started,
        "one validation per rebind"
    );
    assert_eq!(
        ep.path_validations_validated + ep.path_validations_abandoned,
        started,
        "every validation must resolve"
    );
    assert!(
        ep.path_validations_validated >= conns as u64,
        "each conn's final rebind must validate \
         (validated {} < conns {conns})",
        ep.path_validations_validated
    );
    assert!(
        (conns as u64..=ep.path_validations_validated).contains(&ep.cid_rotations_initiated),
        "rotations ({}) must track validated migrations ({})",
        ep.cid_rotations_initiated,
        ep.path_validations_validated
    );
    assert_eq!(
        ep.cid_rotations_completed, ep.cid_rotations_initiated,
        "every initiated rotation must retire the old CID"
    );
}
