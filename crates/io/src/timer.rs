//! Deadline arithmetic for the event loop.
//!
//! The sans-IO transport exposes one aggregate deadline
//! (`Transport::next_timeout`): the earliest instant at which it needs the
//! clock again — an RTO, a delayed-ACK flush, a path probe, the idle
//! timer. The event loop must sleep *until* that deadline but no longer,
//! and, because the sockets are non-blocking and polled, never longer
//! than its polling granularity either. [`Timer`] centralizes that
//! clamping so the driver's loop body stays trivial.

use mpquic_util::SimTime;
use std::time::Duration;

/// Polling granularity: the longest the loop will sleep while a peer
/// could be sending to us. 500 µs keeps worst-case added latency well
/// under loopback RTO scales while burning negligible CPU.
pub const DEFAULT_GRANULARITY: Duration = Duration::from_micros(500);

/// Computes how long the event loop may sleep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer;

impl Timer {
    /// A timer polling at [`DEFAULT_GRANULARITY`].
    pub fn new() -> Timer {
        Timer
    }

    /// How long to sleep at `now` given the transport's next deadline:
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
