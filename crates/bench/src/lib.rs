//! Shared helpers for the benchmark targets.
//!
//! The real figure regeneration lives in `mpquic-harness`'s `figN`
//! binaries (full paper scale); the Criterion benches here run scaled
//! sweeps with identical structure so `cargo bench` exercises every
//! experiment end-to-end in bounded time, plus ablations and
//! micro-benches of the hot paths.

#![forbid(unsafe_code)]

use mpquic_expdesign::ExperimentClass;
use mpquic_harness::{Overrides, SweepConfig};
use std::time::Duration;

/// A deliberately small sweep (identical structure to the paper's, far
/// fewer samples) for `cargo bench`.
pub fn bench_sweep(class: ExperimentClass, response_size: usize) -> SweepConfig {
    let mut config = SweepConfig::scaled(class, 2, response_size);
    config.repeats = 1;
    config.time_cap = Duration::from_secs(60);
    config.threads = 1; // stable timing
    config.overrides = Overrides::default();
    config
}

/// Response size for the scaled 20 MB experiments.
pub const SCALED_LARGE: usize = 512 << 10;

/// Response size for the 256 kB experiments (already small; keep as-is).
pub const SHORT: usize = 256 << 10;
