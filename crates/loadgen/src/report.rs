//! JSON reports and SLO verdicts.
//!
//! Reports are flat, hand-formatted JSON, so a consumer can pull any
//! metric out with a key scan and no JSON dependency. Every key is
//! prefixed with its scenario name (`churn_p99_us`,
//! `request_response_achieved_rps`, …) so keys stay unique in the
//! file.

use crate::runner::ScenarioOutcome;

/// Renders the full-suite report: one flat block per scenario plus a
/// suite-level verdict.
pub fn render_report(
    outcomes: &[ScenarioOutcome],
    seed: u64,
    workers: usize,
    smoke: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"loadgen\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    for outcome in outcomes {
        out.push_str(&scenario_block(outcome));
    }
    let pass = outcomes.iter().all(|o| o.slo_pass);
    out.push_str(&format!("  \"slo_pass\": {pass}\n"));
    out.push_str("}\n");
    out
}

/// The flat keys one scenario contributes to the report.
fn scenario_block(o: &ScenarioOutcome) -> String {
    let n = o.name;
    let mut s = String::new();
    s.push_str(&format!("  \"{n}_conns\": {},\n", o.conns));
    s.push_str(&format!("  \"{n}_ops_total\": {},\n", o.ops_total));
    s.push_str(&format!("  \"{n}_ops_ok\": {},\n", o.ops_ok));
    s.push_str(&format!("  \"{n}_errors\": {},\n", o.errors));
    s.push_str(&format!("  \"{n}_timeouts\": {},\n", o.timeouts));
    s.push_str(&format!(
        "  \"{n}_conns_completed\": {},\n",
        o.conns_completed
    ));
    s.push_str(&format!("  \"{n}_conns_failed\": {},\n", o.conns_failed));
    s.push_str(&format!("  \"{n}_offered_rps\": {:.2},\n", o.offered_rps));
    s.push_str(&format!("  \"{n}_achieved_rps\": {:.2},\n", o.achieved_rps));
    s.push_str(&format!(
        "  \"{n}_conns_per_sec\": {:.2},\n",
        o.conns_per_sec
    ));
    s.push_str(&format!("  \"{n}_elapsed_s\": {:.3},\n", o.elapsed_s));
    s.push_str(&format!("  \"{n}_p50_us\": {},\n", o.p50_us));
    s.push_str(&format!("  \"{n}_p99_us\": {},\n", o.p99_us));
    s.push_str(&format!("  \"{n}_p999_us\": {},\n", o.p999_us));
    s.push_str(&format!("  \"{n}_max_us\": {},\n", o.max_us));
    s.push_str(&format!("  \"{n}_mean_us\": {},\n", o.latency.mean()));
    s.push_str(&format!("  \"{n}_slo_p99_us\": {},\n", o.slo_p99_us));
    s.push_str(&format!("  \"{n}_slo_pass\": {},\n", o.slo_pass));
    s.push_str(&format!("  \"{n}_accepted\": {},\n", o.endpoint.accepted));
    s.push_str(&format!("  \"{n}_closed\": {},\n", o.endpoint.closed));
    s.push_str(&format!(
        "  \"{n}_server_completed\": {},\n",
        o.endpoint.completed
    ));
    s.push_str(&format!(
        "  \"{n}_server_failed\": {},\n",
        o.endpoint.failed
    ));
    s.push_str(&format!("  \"{n}_rejected\": {},\n", o.endpoint.rejected));
    s.push_str(&format!(
        "  \"{n}_recv_errors\": {},\n",
        o.endpoint.recv_errors
    ));
    s.push_str(&format!("  \"{n}_malformed\": {},\n", o.endpoint.malformed));
    // What this scenario alone did to the server (after-minus-before
    // snapshot delta) plus the plane's loop telemetry, so an SLO
    // failure in the report carries its own context.
    s.push_str(&format!(
        "  \"{n}_delta_accepted\": {},\n",
        o.delta.accepted
    ));
    s.push_str(&format!("  \"{n}_delta_closed\": {},\n", o.delta.closed));
    s.push_str(&format!(
        "  \"{n}_delta_rejected\": {},\n",
        o.delta.rejected
    ));
    s.push_str(&format!(
        "  \"{n}_delta_recv_errors\": {},\n",
        o.delta.recv_errors
    ));
    s.push_str(&format!(
        "  \"{n}_delta_datagrams_in\": {},\n",
        o.delta.datagrams_in
    ));
    let plane = &o.report.plane;
    s.push_str(&format!("  \"{n}_wakeups\": {},\n", plane.wakeups));
    s.push_str(&format!(
        "  \"{n}_loop_p99_ns\": {},\n",
        plane.loop_ns.quantile(0.99)
    ));
    s.push_str(&format!(
        "  \"{n}_flight_recorded\": {},\n",
        plane.flight_recorded
    ));
    s
}

/// Human console summary for one scenario.
pub fn print_summary(o: &ScenarioOutcome) {
    println!(
        "  {}: {} conns, {} ops ({} ok, {} errors, {} timeouts) in {:.2} s",
        o.name, o.conns, o.ops_total, o.ops_ok, o.errors, o.timeouts, o.elapsed_s
    );
    println!(
        "    offered {:.1} rps, achieved {:.1} rps, {:.1} conns/s closed at the server",
        o.offered_rps, o.achieved_rps, o.conns_per_sec
    );
    println!(
        "    latency p50 {} µs, p99 {} µs, p99.9 {} µs, max {} µs (SLO p99 ≤ {} µs: {})",
        o.p50_us,
        o.p99_us,
        o.p999_us,
        o.max_us,
        o.slo_p99_us,
        if o.slo_pass { "pass" } else { "FAIL" }
    );
    println!(
        "    server: {} accepted, {} closed, {} completed, {} failed, {} rejected, {} recv errors",
        o.endpoint.accepted,
        o.endpoint.closed,
        o.endpoint.completed,
        o.endpoint.failed,
        o.endpoint.rejected,
        o.endpoint.recv_errors
    );
    println!(
        "    plane: Δaccepted {}, Δrejected {}, Δrecv errors {}, {} wakeups, loop p99 {} ns, {} flight events",
        o.delta.accepted,
        o.delta.rejected,
        o.delta.recv_errors,
        o.report.plane.wakeups,
        o.report.plane.loop_ns.quantile(0.99),
        o.report.plane.flight_recorded,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpquic_io::{EndpointReport, EndpointSnapshot};
    use mpquic_telemetry::LogHistogram;

    fn outcome(name: &'static str) -> ScenarioOutcome {
        let mut latency = LogHistogram::default();
        for v in [100, 200, 400, 800] {
            latency.record(v);
        }
        ScenarioOutcome {
            name,
            conns: 4,
            ops_total: 64,
            ops_ok: 64,
            errors: 0,
            timeouts: 0,
            conns_completed: 4,
            conns_failed: 0,
            offered_rps: 100.0,
            achieved_rps: 98.5,
            conns_per_sec: 12.25,
            elapsed_s: 0.65,
            p50_us: 200,
            p99_us: 800,
            p999_us: 800,
            max_us: 800,
            latency,
            slo_p99_us: 100_000,
            slo_pass: true,
            endpoint: EndpointSnapshot {
                accepted: 4,
                closed: 4,
                completed: 4,
                ..EndpointSnapshot::default()
            },
            delta: EndpointSnapshot {
                accepted: 4,
                closed: 4,
                completed: 4,
                ..EndpointSnapshot::default()
            },
            report: EndpointReport::default(),
            flight: String::new(),
        }
    }

    /// `"key": <number>` out of flat JSON text, first occurrence.
    fn parse_flat_key(text: &str, key: &str) -> Option<f64> {
        let (_, rest) = text.split_once(&format!("\"{key}\":"))?;
        let number = rest
            .trim_start()
            .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .next()?;
        number.parse().ok()
    }

    #[test]
    fn report_keys_parse_back_with_a_flat_key_scan() {
        let outcomes = [outcome("churn"), outcome("incast")];
        let text = render_report(&outcomes, 42, 1, true);
        assert_eq!(parse_flat_key(&text, "seed"), Some(42.0));
        assert_eq!(parse_flat_key(&text, "churn_p99_us"), Some(800.0));
        assert_eq!(parse_flat_key(&text, "incast_achieved_rps"), Some(98.5));
        assert_eq!(parse_flat_key(&text, "churn_conns_per_sec"), Some(12.25));
        assert_eq!(parse_flat_key(&text, "churn_errors"), Some(0.0));
        assert_eq!(parse_flat_key(&text, "churn_delta_accepted"), Some(4.0));
        assert_eq!(parse_flat_key(&text, "incast_delta_recv_errors"), Some(0.0));
        assert_eq!(parse_flat_key(&text, "churn_wakeups"), Some(0.0));
        assert!(text.contains("\"slo_pass\": true"));
        // Keys are scenario-prefixed, hence unique.
        assert_eq!(text.matches("\"churn_p99_us\"").count(), 1);
    }

    #[test]
    fn suite_verdict_fails_when_any_scenario_fails() {
        let mut bad = outcome("streaming");
        bad.slo_pass = false;
        let text = render_report(&[outcome("churn"), bad], 1, 1, false);
        assert!(text.contains("\"slo_pass\": false"));
        assert!(text.contains("\"streaming_slo_pass\": false"));
    }
}
