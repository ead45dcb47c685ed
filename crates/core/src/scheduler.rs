//! Packet scheduling: choosing the path for each outgoing packet.
//!
//! The paper's scheduler (§3, *Packet Scheduling*) starts from the Linux
//! MPTCP default — prefer the lowest-smoothed-RTT path whose congestion
//! window has room — with two MPQUIC-specific twists:
//!
//! 1. frames (including control frames) may ride any path, so the
//!    scheduler decides per *packet*, not per byte-stream segment; and
//! 2. while a freshly opened path has **no RTT estimate yet**, traffic
//!    sent on it is **duplicated** onto another (known) path, so the new
//!    path is usable immediately without risking head-of-line blocking if
//!    it turns out slow.
//!
//! Scheduling is a *policy*: the object-safe [`SchedulePolicy`] trait has
//! five implementations — lowest-RTT, no-duplicate, round-robin,
//! redundant and a BLEST/ECF-style head-of-line-aware pick — chosen with
//! the [`SchedulerKind`] enum (and by name via `FromStr`, which is what
//! the `--scheduler` CLI flags parse).

use mpquic_wire::PathId;
use std::time::Duration;

pub use mpquic_telemetry::SchedulerReason;

/// A compact view of one path, extracted by the connection for the
/// scheduling decision.
#[derive(Debug, Clone, Copy)]
pub struct PathView {
    /// Path identifier.
    pub id: PathId,
    /// Smoothed RTT.
    pub srtt: Duration,
    /// True once an RTT sample exists.
    pub rtt_known: bool,
    /// Congestion window bytes still available.
    pub cwnd_available: u64,
    /// Bytes currently in flight (sent, not yet acked or lost) — what a
    /// head-of-line-aware policy weighs against `srtt`.
    pub bytes_in_flight: u64,
    /// True if the path may carry data (active: not quarantined for
    /// validation, not potentially failed).
    pub usable: bool,
}

/// The built-in scheduling policies, by name.
///
/// `Scheduler::new(kind)` builds the matching [`SchedulePolicy`]; this
/// enum is the only way to choose one. Parse a kind from a CLI string
/// with [`std::str::FromStr`] (`"lowest-rtt"`, `"no-duplicate"`,
/// `"round-robin"`, `"redundant"`, `"blest"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The paper's scheduler: lowest RTT with available window, with
    /// duplication while a path's RTT is unknown.
    #[default]
    LowestRtt,
    /// Lowest RTT without the duplication phase (ablation).
    LowestRttNoDuplicate,
    /// Round-robin over paths with available window (ablation; the paper
    /// rejects this because heterogeneous delays cause head-of-line
    /// blocking).
    RoundRobin,
    /// Duplicate every data frame onto every usable path: maximum
    /// reliability for latency-critical traffic at the cost of goodput.
    Redundant,
    /// BLEST/ECF-style head-of-line-aware pick: weighs srtt against the
    /// sender-side queue (bytes in flight vs window headroom) so a fast
    /// but saturated path does not stall a slower idle one.
    Blest,
}

/// All built-in kinds, in `FromStr` name order — the CLI error message
/// and the per-policy test matrix iterate this.
pub const SCHEDULER_KINDS: [SchedulerKind; 5] = [
    SchedulerKind::LowestRtt,
    SchedulerKind::LowestRttNoDuplicate,
    SchedulerKind::RoundRobin,
    SchedulerKind::Redundant,
    SchedulerKind::Blest,
];

impl SchedulerKind {
    /// The kind's CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::LowestRtt => "lowest-rtt",
            SchedulerKind::LowestRttNoDuplicate => "no-duplicate",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::Redundant => "redundant",
            SchedulerKind::Blest => "blest",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Failed `SchedulerKind` parse: carries the offending input; the
/// message lists every valid name so `--scheduler typo` is self-healing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchedulerError {
    input: String,
}

impl std::fmt::Display for ParseSchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheduler \"{}\" (valid: ", self.input)?;
        for (i, kind) in SCHEDULER_KINDS.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(kind.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseSchedulerError {}

impl std::str::FromStr for SchedulerKind {
    type Err = ParseSchedulerError;

    fn from_str(s: &str) -> Result<SchedulerKind, ParseSchedulerError> {
        SCHEDULER_KINDS
            .iter()
            .find(|kind| kind.name() == s)
            .copied()
            .ok_or_else(|| ParseSchedulerError {
                input: s.to_string(),
            })
    }
}

/// The chosen path, plus any paths that data frames should be
/// duplicated onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Path to send the packet on.
    pub path: PathId,
    /// Paths the stream frames in the packet should also be queued on
    /// (the duplicate-while-unknown phase, or the whole path set for the
    /// redundant policy). Empty when nothing is duplicated.
    pub duplicate_on: Vec<PathId>,
    /// Why this path won — recorded in the telemetry
    /// `scheduler_decision` event so traces explain the scheduler.
    pub reason: SchedulerReason,
}

/// An object-safe scheduling policy.
///
/// Implementations decide per packet; the connection extracts a
/// [`PathView`] per path and calls [`SchedulePolicy::select_for_data`]
/// for data-bearing packets, [`SchedulePolicy::select_for_control`] for
/// control traffic not pinned to a path. `Send` because connections are
/// driven from worker threads.
pub trait SchedulePolicy: Send + std::fmt::Debug {
    /// Policy name, for reports and `Debug` output.
    fn name(&self) -> &'static str;

    /// Picks a path for a data-bearing packet, or `None` if no path
    /// (usable or not) has congestion window space.
    fn select_for_data(&mut self, paths: &[PathView], min_space: u64) -> Option<Decision>;

    /// Picks the best path for control traffic (ACKs for other paths,
    /// PATHS frames) when a specific path is not required: the
    /// lowest-RTT usable path, even without congestion window space
    /// (control packets are small and not congestion-controlled here).
    ///
    /// When *no* usable path exists the default falls back to the
    /// lowest-RTT path among everything offered — a potentially-failed
    /// path might still deliver, while refusing to pick one stalls
    /// control traffic (ACKs, PATHS, retransmitted handshake frames)
    /// outright. `None` only when `paths` is empty.
    fn select_for_control(&self, paths: &[PathView]) -> Option<PathId> {
        paths
            .iter()
            .filter(|p| p.usable)
            .min_by_key(|p| p.srtt)
            .or_else(|| paths.iter().min_by_key(|p| p.srtt))
            .map(|p| p.id)
    }
}

/// Filters `paths` down to scheduling candidates: usable paths with at
/// least `min_space` window room, falling back to *any* path with room
/// (potentially-failed paths are only temporarily ignored — if no active
/// path remains, the least-bad option beats stalling outright). Returns
/// the candidates plus whether the fallback (or a degenerate single
/// candidate) made the pick "only available" rather than a real ranking.
fn candidates(paths: &[PathView], min_space: u64) -> (Vec<&PathView>, bool) {
    let mut list: Vec<&PathView> = paths
        .iter()
        .filter(|p| p.usable && p.cwnd_available >= min_space)
        .collect();
    let mut fallback = false;
    if list.is_empty() {
        list = paths
            .iter()
            .filter(|p| p.cwnd_available >= min_space)
            .collect();
        fallback = true;
    }
    let only = fallback || list.len() == 1;
    (list, only)
}

/// The paper's default: lowest smoothed RTT with window space, sending
/// eagerly on unknown-RTT paths with duplication onto the best known
/// path (duplication disabled for the `no-duplicate` ablation).
#[derive(Debug, Clone, Default)]
pub struct LowestRttPolicy {
    /// False for the `no-duplicate` ablation.
    pub duplicate: bool,
}

impl SchedulePolicy for LowestRttPolicy {
    fn name(&self) -> &'static str {
        if self.duplicate {
            "lowest-rtt"
        } else {
            "no-duplicate"
        }
    }

    fn select_for_data(&mut self, paths: &[PathView], min_space: u64) -> Option<Decision> {
        let (candidates, only) = candidates(paths, min_space);
        if candidates.is_empty() {
            return None;
        }
        // Unknown-RTT paths are used eagerly so the connection can start
        // exploiting them without waiting a probe RTT...
        if let Some(unknown) = candidates.iter().find(|p| !p.rtt_known) {
            // ...while the same data is duplicated on the best *known*
            // path to dodge head-of-line blocking.
            let backup = candidates
                .iter()
                .filter(|p| p.rtt_known)
                .min_by_key(|p| p.srtt)
                .map(|p| p.id);
            return Some(Decision {
                path: unknown.id,
                duplicate_on: if self.duplicate {
                    backup.into_iter().collect()
                } else {
                    Vec::new()
                },
                reason: if only {
                    SchedulerReason::OnlyAvailable
                } else {
                    SchedulerReason::RttUnknownDuplicate
                },
            });
        }
        let best = candidates.iter().min_by_key(|p| p.srtt)?;
        Some(Decision {
            path: best.id,
            duplicate_on: Vec::new(),
            reason: if only {
                SchedulerReason::OnlyAvailable
            } else {
                SchedulerReason::LowestRtt
            },
        })
    }
}

/// Round-robin over candidates (ablation).
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl SchedulePolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn select_for_data(&mut self, paths: &[PathView], min_space: u64) -> Option<Decision> {
        let (candidates, only) = candidates(paths, min_space);
        if candidates.is_empty() {
            return None;
        }
        let pick = candidates.get(self.cursor % candidates.len())?;
        self.cursor = self.cursor.wrapping_add(1);
        Some(Decision {
            path: pick.id,
            duplicate_on: Vec::new(),
            reason: if only {
                SchedulerReason::OnlyAvailable
            } else {
                SchedulerReason::RoundRobin
            },
        })
    }
}

/// Duplicate-on-all: the primary pick is the lowest-RTT candidate, and
/// every *other* usable path with window space carries a copy.
#[derive(Debug, Clone, Default)]
pub struct RedundantPolicy;

impl SchedulePolicy for RedundantPolicy {
    fn name(&self) -> &'static str {
        "redundant"
    }

    fn select_for_data(&mut self, paths: &[PathView], min_space: u64) -> Option<Decision> {
        let (candidates, only) = candidates(paths, min_space);
        if candidates.is_empty() {
            return None;
        }
        let best = candidates.iter().min_by_key(|p| p.srtt)?;
        let duplicate_on: Vec<PathId> = candidates
            .iter()
            .filter(|p| p.id != best.id)
            .map(|p| p.id)
            .collect();
        Some(Decision {
            path: best.id,
            duplicate_on,
            reason: if only {
                SchedulerReason::OnlyAvailable
            } else {
                SchedulerReason::Redundant
            },
        })
    }
}

/// BLEST/ECF-style head-of-line-aware policy.
///
/// Ranks each candidate by an estimated delivery cost: the smoothed RTT
/// scaled up by how backed-up the path's sender queue is
/// (`bytes_in_flight` against the remaining window). A fast path that is
/// nearly window-full scores worse than a slightly slower idle path, so
/// a burst does not pile onto one path and block behind it — the
/// blocking-estimation insight of BLEST and the completion-first pick of
/// ECF, in one deterministic integer score.
#[derive(Debug, Clone, Default)]
pub struct BlestPolicy;

impl BlestPolicy {
    /// Estimated cost of sending the next packet on `p`, microseconds
    /// (scaled): srtt × (1 + in_flight / headroom). Unknown-RTT paths
    /// rank by queue alone (srtt treated as the initial default).
    fn cost(p: &PathView) -> u128 {
        let srtt_us = p.srtt.as_micros().max(1);
        let headroom = u128::from(p.cwnd_available).max(1);
        let queued = u128::from(p.bytes_in_flight);
        srtt_us.saturating_mul(headroom + queued) / headroom
    }
}

impl SchedulePolicy for BlestPolicy {
    fn name(&self) -> &'static str {
        "blest"
    }

    fn select_for_data(&mut self, paths: &[PathView], min_space: u64) -> Option<Decision> {
        let (candidates, only) = candidates(paths, min_space);
        if candidates.is_empty() {
            return None;
        }
        let best = candidates.iter().min_by_key(|p| Self::cost(p))?;
        Some(Decision {
            path: best.id,
            duplicate_on: Vec::new(),
            reason: if only {
                SchedulerReason::OnlyAvailable
            } else {
                SchedulerReason::HolAware
            },
        })
    }
}

/// Packet scheduler state: the boxed [`SchedulePolicy`] a
/// [`SchedulerKind`] names.
#[derive(Debug)]
pub struct Scheduler {
    policy: Box<dyn SchedulePolicy>,
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new(SchedulerKind::default())
    }
}

impl Scheduler {
    /// Creates a scheduler running the named built-in policy.
    pub fn new(kind: SchedulerKind) -> Scheduler {
        let policy: Box<dyn SchedulePolicy> = match kind {
            SchedulerKind::LowestRtt => Box::new(LowestRttPolicy { duplicate: true }),
            SchedulerKind::LowestRttNoDuplicate => Box::new(LowestRttPolicy { duplicate: false }),
            SchedulerKind::RoundRobin => Box::new(RoundRobinPolicy::default()),
            SchedulerKind::Redundant => Box::new(RedundantPolicy),
            SchedulerKind::Blest => Box::new(BlestPolicy),
        };
        Scheduler { policy }
    }

    /// The active policy's name.
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    /// Picks a path for a data-bearing packet, or `None` if no usable path
    /// has congestion window space.
    pub fn select_for_data(&mut self, paths: &[PathView], min_space: u64) -> Option<Decision> {
        self.policy.select_for_data(paths, min_space)
    }

    /// Picks the best path for control traffic; see
    /// [`SchedulePolicy::select_for_control`].
    pub fn select_for_control(&self, paths: &[PathView]) -> Option<PathId> {
        self.policy.select_for_control(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn view(id: u32, srtt_ms: u64, known: bool, avail: u64, usable: bool) -> PathView {
        PathView {
            id: PathId(id),
            srtt: Duration::from_millis(srtt_ms),
            rtt_known: known,
            cwnd_available: avail,
            bytes_in_flight: 0,
            usable,
        }
    }

    #[test]
    fn picks_lowest_rtt_with_space() {
        let mut s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [
            view(0, 50, true, 10_000, true),
            view(1, 20, true, 10_000, true),
        ];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(1));
        assert!(d.duplicate_on.is_empty());
    }

    #[test]
    fn full_window_path_skipped() {
        let mut s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [
            view(0, 50, true, 10_000, true),
            view(1, 20, true, 100, true), // fast but window-full
        ];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(0));
    }

    #[test]
    fn nothing_available_returns_none() {
        let mut s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [view(0, 50, true, 100, true), view(1, 20, true, 0, true)];
        assert!(s.select_for_data(&paths, 1350).is_none());
    }

    #[test]
    fn potentially_failed_paths_ignored() {
        let mut s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [
            view(0, 10, true, 10_000, false), // potentially failed
            view(1, 99, true, 10_000, true),
        ];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(1));
    }

    #[test]
    fn unknown_rtt_path_used_with_duplication() {
        let mut s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [
            view(0, 30, true, 10_000, true),
            view(1, 100, false, 10_000, true), // fresh path, no RTT yet
        ];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(1));
        assert_eq!(d.duplicate_on, vec![PathId(0)]);
    }

    #[test]
    fn no_duplicate_variant_still_uses_unknown_path() {
        let mut s = Scheduler::new(SchedulerKind::LowestRttNoDuplicate);
        let paths = [
            view(0, 30, true, 10_000, true),
            view(1, 100, false, 10_000, true),
        ];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(1));
        assert!(d.duplicate_on.is_empty());
    }

    #[test]
    fn unknown_path_without_known_backup_has_no_duplicate() {
        let mut s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [view(0, 100, false, 10_000, true)];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(0));
        assert!(d.duplicate_on.is_empty());
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = Scheduler::new(SchedulerKind::RoundRobin);
        let paths = [
            view(0, 50, true, 10_000, true),
            view(1, 20, true, 10_000, true),
        ];
        let first = s.select_for_data(&paths, 1350).unwrap().path;
        let second = s.select_for_data(&paths, 1350).unwrap().path;
        let third = s.select_for_data(&paths, 1350).unwrap().path;
        assert_ne!(first, second);
        assert_eq!(first, third);
    }

    #[test]
    fn redundant_duplicates_on_every_other_usable_path() {
        let mut s = Scheduler::new(SchedulerKind::Redundant);
        let paths = [
            view(0, 50, true, 10_000, true),
            view(1, 20, true, 10_000, true),
            view(2, 80, true, 10_000, true),
            view(3, 10, true, 100, true), // window-full: not a copy target
            view(4, 10, true, 10_000, false), // failed: not a copy target
        ];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(1), "primary is lowest RTT");
        assert_eq!(d.duplicate_on, vec![PathId(0), PathId(2)]);
        assert_eq!(d.reason, SchedulerReason::Redundant);
    }

    #[test]
    fn redundant_single_path_has_no_copies() {
        let mut s = Scheduler::new(SchedulerKind::Redundant);
        let paths = [view(0, 50, true, 10_000, true)];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(0));
        assert!(d.duplicate_on.is_empty());
        assert_eq!(d.reason, SchedulerReason::OnlyAvailable);
    }

    #[test]
    fn blest_prefers_idle_path_over_saturated_fast_one() {
        let mut s = Scheduler::new(SchedulerKind::Blest);
        // Path 0: 10 ms but nearly window-full (lots in flight, little
        // headroom). Path 1: 30 ms, idle. ECF logic: waiting for the
        // fast path costs more than sending on the slower idle one.
        let fast_saturated = PathView {
            id: PathId(0),
            srtt: Duration::from_millis(10),
            rtt_known: true,
            cwnd_available: 2_000,
            bytes_in_flight: 100_000,
            usable: true,
        };
        let slow_idle = PathView {
            id: PathId(1),
            srtt: Duration::from_millis(30),
            rtt_known: true,
            cwnd_available: 50_000,
            bytes_in_flight: 0,
            usable: true,
        };
        let d = s
            .select_for_data(&[fast_saturated, slow_idle], 1350)
            .unwrap();
        assert_eq!(d.path, PathId(1));
        assert_eq!(d.reason, SchedulerReason::HolAware);
    }

    #[test]
    fn blest_matches_lowest_rtt_when_both_idle() {
        let mut s = Scheduler::new(SchedulerKind::Blest);
        let paths = [
            view(0, 50, true, 10_000, true),
            view(1, 20, true, 10_000, true),
        ];
        let d = s.select_for_data(&paths, 1350).unwrap();
        assert_eq!(d.path, PathId(1));
    }

    #[test]
    fn decision_reasons_explain_the_pick() {
        let mut s = Scheduler::new(SchedulerKind::LowestRtt);
        let two_known = [
            view(0, 50, true, 10_000, true),
            view(1, 20, true, 10_000, true),
        ];
        let d = s.select_for_data(&two_known, 1350).unwrap();
        assert_eq!(d.reason, SchedulerReason::LowestRtt);

        let fresh = [
            view(0, 30, true, 10_000, true),
            view(1, 100, false, 10_000, true),
        ];
        let d = s.select_for_data(&fresh, 1350).unwrap();
        assert_eq!(d.reason, SchedulerReason::RttUnknownDuplicate);

        // All paths potentially failed: the fallback pick is OnlyAvailable.
        let all_failed = [
            view(0, 10, true, 10_000, false),
            view(1, 99, true, 10_000, false),
        ];
        let d = s.select_for_data(&all_failed, 1350).unwrap();
        assert_eq!(d.reason, SchedulerReason::OnlyAvailable);

        // A single remaining candidate is OnlyAvailable, not a ranking.
        let single = [view(0, 50, true, 10_000, true)];
        let d = s.select_for_data(&single, 1350).unwrap();
        assert_eq!(d.reason, SchedulerReason::OnlyAvailable);
    }

    #[test]
    fn control_path_ignores_window() {
        let s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [view(0, 10, true, 0, true), view(1, 99, true, 10_000, true)];
        assert_eq!(s.select_for_control(&paths), Some(PathId(0)));
    }

    #[test]
    fn control_falls_back_to_potentially_failed_path() {
        // Satellite fix: with every path unusable, control traffic still
        // picks the least-bad path instead of stalling outright.
        let s = Scheduler::new(SchedulerKind::LowestRtt);
        let paths = [
            view(0, 40, true, 0, false),
            view(1, 15, true, 0, false), // lowest RTT among the failed
        ];
        assert_eq!(s.select_for_control(&paths), Some(PathId(1)));
        assert_eq!(s.select_for_control(&[]), None);
    }

    #[test]
    fn kind_parses_by_name_and_lists_valid_names_on_error() {
        for kind in SCHEDULER_KINDS {
            assert_eq!(SchedulerKind::from_str(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = SchedulerKind::from_str("fastest").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fastest"), "{msg}");
        for kind in SCHEDULER_KINDS {
            assert!(msg.contains(kind.name()), "{msg} missing {}", kind.name());
        }
    }

    #[test]
    fn every_builtin_schedules_on_a_two_path_set() {
        // The zoo smoke: each kind must produce a decision (and a name
        // that parses back to itself) on a plain two-path set.
        for kind in SCHEDULER_KINDS {
            let mut s = Scheduler::new(kind);
            assert_eq!(s.name(), kind.name());
            let paths = [
                view(0, 50, true, 10_000, true),
                view(1, 20, true, 10_000, true),
            ];
            let d = s.select_for_data(&paths, 1350).unwrap_or_else(|| {
                panic!("{} produced no decision", kind.name());
            });
            assert!(paths.iter().any(|p| p.id == d.path), "{}", kind.name());
            assert!(s.select_for_control(&paths).is_some(), "{}", kind.name());
        }
    }
}
