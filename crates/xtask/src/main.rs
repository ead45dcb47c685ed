//! `cargo xtask lint` — MPQUIC protocol-invariant static analysis.
//!
//! Dependency-free (no syn, no proc-macro stack): the lints in
//! [`lints`] operate on a comment/string-stripped view of the source
//! produced by [`scan`], which preserves byte offsets and line numbers.
//!
//! Exit status is non-zero when any violation survives the allowlist,
//! so CI can gate on it directly.

mod concurrency;
mod lints;
mod qlog_check;
mod scan;

use lints::SourceFile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories whose `.rs` files are scanned by the no-panic lint.
const NO_PANIC_SCOPE: &[&str] = &["crates/wire/src", "crates/io/src", "crates/telemetry/src"];
/// Individual extra files in no-panic scope.
const NO_PANIC_FILES: &[&str] = &[
    "crates/util/src/varint.rs",
    "crates/core/src/buffer.rs",
    "crates/core/src/connection/dispatch.rs",
    "crates/core/src/connection/scratch.rs",
    "crates/core/src/handshake.rs",
    "crates/core/src/path.rs",
    "crates/core/src/stream.rs",
    "crates/crypto/src/aead.rs",
];
/// Directories scanned by the pn-discipline lint (xtask itself excluded —
/// its allowlist/test fixtures legitimately spell the forbidden tokens).
const PN_SCOPE: &[&str] = &[
    "crates/core/src",
    "crates/wire/src",
    "crates/io/src",
    "crates/util/src",
    "crates/cc/src",
    "crates/crypto/src",
    "crates/netsim/src",
];

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// Collects `.rs` files under `dir`, recursively, sorted for stable output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn load(root: &Path, path: &Path) -> Option<SourceFile> {
    let content = std::fs::read_to_string(path).ok()?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Some(SourceFile { path: rel, content })
}

fn run_lint(root: &Path, verbose: bool) -> ExitCode {
    let mut violations = Vec::new();
    let mut scanned = 0usize;

    // Lint 1: frame exhaustiveness.
    let frame_rs = root.join("crates/wire/src/frame.rs");
    match load(root, &frame_rs) {
        Some(frame_file) => {
            let variants = lints::frame_variants(&frame_file);
            if variants.is_empty() {
                eprintln!(
                    "xtask: error: could not read `enum Frame` variants from {}",
                    frame_file.path
                );
                return ExitCode::FAILURE;
            }
            if verbose {
                eprintln!(
                    "xtask: frame-exhaustiveness: {} variants x {} sites",
                    variants.len(),
                    lints::FRAME_SITES.len()
                );
            }
            for &(suffix, impl_ty, fn_name, role) in lints::FRAME_SITES {
                match load(root, &root.join(suffix)) {
                    Some(site) => {
                        violations.extend(lints::check_frame_site(
                            &site, impl_ty, fn_name, role, &variants,
                        ));
                        scanned += 1;
                    }
                    None => {
                        eprintln!("xtask: error: missing match-site file {suffix}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        None => {
            eprintln!("xtask: error: cannot read {}", frame_rs.display());
            return ExitCode::FAILURE;
        }
    }

    // Lint 2: no-panic protocol paths.
    let mut no_panic_targets: Vec<PathBuf> = NO_PANIC_SCOPE
        .iter()
        .flat_map(|d| rust_files(&root.join(d)))
        .collect();
    no_panic_targets.extend(NO_PANIC_FILES.iter().map(|f| root.join(f)));
    for path in &no_panic_targets {
        if let Some(file) = load(root, path) {
            violations.extend(lints::check_no_panic(&file));
            scanned += 1;
        }
    }

    // Lint 3: packet-number discipline.
    for path in PN_SCOPE.iter().flat_map(|d| rust_files(&root.join(d))) {
        if let Some(file) = load(root, &path) {
            violations.extend(lints::check_pn_discipline(&file));
            scanned += 1;
        }
    }

    // Lints 4–5: concurrency (DESIGN.md §14). Scope: every crate's src
    // tree except xtask itself (its fixtures spell the forbidden tokens).
    let concurrency_files: Vec<SourceFile> = rust_files(&root.join("crates"))
        .into_iter()
        .filter_map(|p| load(root, &p))
        .filter(|f| f.path.contains("/src/") && !f.path.starts_with("crates/xtask"))
        .collect();

    // Lint 4: atomic-ordering against the checked registry.
    let atomics_path = root.join("crates/xtask/atomics.toml");
    let atomics = match std::fs::read_to_string(&atomics_path)
        .map_err(|e| format!("cannot read {}: {e}", atomics_path.display()))
        .and_then(|t| concurrency::parse_atomics_registry(&t, "crates/xtask/atomics.toml"))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if verbose {
        eprintln!(
            "xtask: atomic-ordering: {} registered atomics",
            atomics.len()
        );
        for a in &atomics {
            eprintln!(
                "xtask: atomics.toml: {} ({:?}): {}",
                a.name, a.role, a.justification
            );
        }
    }
    for file in &concurrency_files {
        violations.extend(concurrency::check_atomic_ordering(file, &atomics));
        scanned += 1;
    }
    violations.extend(concurrency::check_atomic_registry_live(
        &atomics,
        &concurrency_files,
    ));

    // Lint 5: unsafe-audit.
    for file in &concurrency_files {
        violations.extend(concurrency::check_unsafe_audit(file));
    }

    // Allowlist (no-panic only).
    let allow_path = root.join("crates/xtask/allowlist.txt");
    let allow = std::fs::read_to_string(&allow_path)
        .map(|t| lints::parse_allowlist(&t))
        .unwrap_or_default();
    if verbose {
        for a in &allow {
            eprintln!(
                "xtask: allowlist: {} :: {} ({})",
                a.path_suffix, a.pattern, a.reason
            );
        }
    }
    let before = violations.len();
    let violations = lints::apply_allowlist(violations, &allow);
    let suppressed = before - violations.len();

    if violations.is_empty() {
        println!("xtask lint: clean ({scanned} files scanned, {suppressed} allowlisted site(s))");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("error: {v}");
            if !v.line_text.is_empty() {
                eprintln!("    {}", v.line_text.trim());
            }
        }
        eprintln!(
            "xtask lint: {} violation(s) in {scanned} scanned files \
             ({suppressed} allowlisted)",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

fn run_qlog_check(file: Option<&str>) -> ExitCode {
    let Some(file) = file else {
        eprintln!("usage: cargo xtask qlog-check FILE");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("xtask qlog-check: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match qlog_check::validate_lines(&text) {
        Ok(events) => {
            println!("xtask qlog-check: {file}: {events} event line(s), all valid JSON objects");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask qlog-check: {file}: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "Tasks:\n  lint              run the MPQUIC protocol-invariant lints\n  qlog-check FILE   validate a streaming qlog trace (one JSON object per line)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    let mut positional = args.iter().filter(|a| !a.starts_with('-'));
    match positional.next().map(String::as_str) {
        Some("lint") => run_lint(&workspace_root(), verbose),
        Some("qlog-check") => run_qlog_check(positional.next().map(String::as_str)),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <task>\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod workspace_tests {
    use super::*;

    /// The real workspace must lint clean — this is the acceptance
    /// criterion wired into `cargo test` as well as CI's `cargo xtask lint`.
    #[test]
    fn workspace_is_clean() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists());
        assert_eq!(run_lint(&root, false), ExitCode::SUCCESS);
    }
}
