//! The `figures` binary's command line: a bad value exits 1 naming its
//! flag, an unknown flag or a missing value exits 2, and neither panics
//! (exit status 101). Every case is refused while the flags are parsed,
//! before a simulation starts.

use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

/// Runs `figures args`; asserts it exits with `code` and stderr names
/// `flag`.
fn assert_refused(args: &[&str], code: i32, flag: &str) {
    let out = Command::new(FIGURES)
        .args(args)
        .output()
        .expect("figures starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "{args:?}: ran before refusing");
}

#[test]
fn bad_values_name_their_flag() {
    assert_refused(&["--scenarios", "x"], 1, "--scenarios");
    assert_refused(&["--cap", "-1"], 1, "--cap");
    assert_refused(&["--repeats", "0", "--scenarios", "2"], 1, "--repeats");
    assert_refused(&["--scenarios", "0"], 1, "--scenarios");
}

#[test]
fn a_zero_cap_or_size_and_an_unknown_figure_are_refused() {
    let fig9 = ["--figure", "fig9", "--scenarios", "2"];
    assert_refused(&[&fig9[..], &["--cap", "0"]].concat(), 1, "--cap");
    assert_refused(&[&fig9[..], &["--size", "0"]].concat(), 1, "--size");
    assert_refused(&["--figure", "fig12", "--scenarios", "2"], 1, "--figure");
    assert_refused(&[&fig9[..], &["--figure", "fig12"]].concat(), 1, "--figure");
}

#[test]
fn a_flag_no_selected_figure_reads_is_refused() {
    // --size scales Figs. 3-8 only.
    let fig9 = ["--figure", "fig9", "--scenarios", "2"];
    assert_refused(&[&fig9[..], &["--size", "1024"]].concat(), 1, "--size");
    // Table 1 and Fig. 11 read no sweep flag.
    assert_refused(
        &["--figure", "table1", "--scenarios", "2"],
        1,
        "--scenarios",
    );
    assert_refused(&["--figure", "fig11", "--repeats", "1"], 1, "--repeats");
    let both = ["--figure", "table1", "--figure", "fig11"];
    assert_refused(&[&both[..], &["--threads", "1"]].concat(), 1, "--threads");
    assert_refused(&["--figure", "fig11", "--cap", "10"], 1, "--cap");
    // Zero threads is refused like the other zero counts.
    assert_refused(&[&fig9[..], &["--threads", "0"]].concat(), 1, "--threads");
}

#[test]
fn unknown_flags_and_missing_values_exit_2() {
    assert_refused(&["--json"], 2, "unknown flag --json");
    assert_refused(&["--scenarios"], 2, "--scenarios: missing value");
    assert_refused(&["--cap", "--scenarios", "2"], 2, "--cap: missing value");
    assert_refused(&["--figure"], 2, "--figure: missing value");
    assert_refused(&["stray"], 2, "stray");
}
