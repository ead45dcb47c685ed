//! Deadline arithmetic for the event loop.
//!
//! The sans-IO transport exposes one aggregate deadline
//! (`Transport::next_timeout`): the earliest instant at which it needs the
//! clock again — an RTO, a delayed-ACK flush, a path probe, the idle
//! timer. An idle [`crate::Driver`] waits *until* that deadline but no
//! longer, and never longer than its polling granularity either.
//! [`Timer`] centralizes that clamping so the driver's loop body stays
//! trivial. (The endpoint's loops keep one armed deadline per
//! connection instead and park until the earliest, unclamped — see
//! [`crate::shard`].)

use mpquic_util::SimTime;
use std::time::Duration;

/// Polling granularity. On Linux an idle loop's wait is
/// [`crate::SocketRegistry::wait_readable`], which a datagram ends on
/// arrival, so what this constant bounds is:
///
/// * how long [`crate::Driver::run_until`] parks before it looks at its
///   `done` predicate and wall-clock timeout again (both may depend on
///   things no datagram announces);
/// * off Linux, where there is no readiness wait, the sleep that stands
///   in for one — the longest a loop there sleeps while a peer could be
///   sending to it. 500 µs keeps that well under loopback RTO scales
///   while burning negligible CPU.
pub const DEFAULT_GRANULARITY: Duration = Duration::from_micros(500);

/// Computes how long a one-connection event loop may wait.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer;

impl Timer {
    /// A timer polling at [`DEFAULT_GRANULARITY`].
    pub fn new() -> Timer {
        Timer
    }

    /// How long to wait at `now` given the transport's next deadline:
    /// zero if the deadline is due, otherwise the time until the deadline
    /// clamped to [`DEFAULT_GRANULARITY`] (no deadline ⇒ the granularity).
    pub fn sleep_for(&self, now: SimTime, deadline: Option<SimTime>) -> Duration {
        match deadline {
            Some(at) if at <= now => Duration::ZERO,
            Some(at) => at.saturating_duration_since(now).min(DEFAULT_GRANULARITY),
            None => DEFAULT_GRANULARITY,
        }
    }

    /// True if `deadline` has passed at `now`.
    pub fn is_due(&self, now: SimTime, deadline: Option<SimTime>) -> bool {
        deadline.is_some_and(|at| at <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_deadline_means_no_sleep() {
        let timer = Timer::new();
        let now = SimTime::from_millis(10);
        assert_eq!(
            timer.sleep_for(now, Some(SimTime::from_millis(10))),
            Duration::ZERO
        );
        assert_eq!(
            timer.sleep_for(now, Some(SimTime::from_millis(5))),
            Duration::ZERO
        );
        assert!(timer.is_due(now, Some(SimTime::from_millis(10))));
    }

    #[test]
    fn near_deadline_sleeps_exactly_until_it() {
        let timer = Timer::new();
        let now = SimTime::from_millis(10);
        let deadline = SimTime::from_micros(10_200);
        assert_eq!(
            timer.sleep_for(now, Some(deadline)),
            Duration::from_micros(200)
        );
    }

    #[test]
    fn far_or_absent_deadline_clamps_to_granularity() {
        let timer = Timer::new();
        let now = SimTime::from_millis(10);
        assert_eq!(
            timer.sleep_for(now, Some(SimTime::from_secs(10))),
            DEFAULT_GRANULARITY
        );
        assert_eq!(timer.sleep_for(now, None), DEFAULT_GRANULARITY);
        assert!(!timer.is_due(now, None));
    }
}
