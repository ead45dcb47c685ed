//! Seed plumbing: the seed, and nothing else, decides a run's inputs.

use mpquic_perf::spec::{by_name, catalogue, plan, Plan};

/// Everything a plan feeds the program, rendered to bytes: arrival
/// instants, sizes, and the seeds of the first 1024 connections.
fn rendered(plan: &Plan) -> String {
    let conn_seeds: Vec<u64> = (0..1024).map(|i| plan.conn_seed(i)).collect();
    format!("{:?}\n{:?}\n{conn_seeds:?}", plan.warmup, plan.ops)
}

#[test]
fn same_seed_same_schedule_other_seed_other_schedule() {
    for smoke in [false, true] {
        for workload in catalogue(smoke) {
            let a = rendered(&plan(&workload, 7, 4.0));
            let b = rendered(&plan(&workload, 7, 4.0));
            assert_eq!(a, b, "{}: seed 7 gave two schedules", workload.name);
            let c = rendered(&plan(&workload, 8, 4.0));
            assert_ne!(a, c, "{}: seeds 7 and 8 gave one schedule", workload.name);
        }
    }
}

#[test]
fn rpc_open_and_idle512_share_one_schedule() {
    let open = by_name("rpc-open", false).unwrap();
    let idle = by_name("rpc-open-idle512", false).unwrap();
    assert_ne!(open.parked, idle.parked);
    for seed in [1, 42] {
        assert_eq!(
            rendered(&plan(&open, seed, 4.0)),
            rendered(&plan(&idle, seed, 4.0)),
            "seed {seed}"
        );
    }
}

#[test]
fn open_loop_schedule_covers_the_window_and_is_sorted() {
    let open = by_name("rpc-open", false).unwrap();
    let plan = plan(&open, 3, 4.0);
    assert!(plan.ops.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    assert!(plan.ops.last().unwrap().at_us > 4_000_000);
    // Bimodal requests, uniform responses, as the workload says.
    assert!(plan
        .ops
        .iter()
        .all(|op| op.req_bytes == 256 || op.req_bytes == 4096));
    assert!(plan
        .ops
        .iter()
        .all(|op| (256..=2048).contains(&op.resp_bytes)));
}
