//! Graduated waiting for transient socket conditions.
//!
//! The datapath meets two kinds of "not right now": a full send buffer
//! (`WouldBlock` on send) and a dry socket (nothing to receive). Both
//! clear on their own — usually within microseconds under load — so a
//! fixed `thread::sleep` either wastes latency (sleeping through the
//! moment the condition clears) or burns a core (spinning long after
//! it was worth it). [`Backoff`] graduates through the cheap options
//! first: a few busy spins with the CPU's pause hint, then scheduler
//! yields, then exponentially growing sleeps capped at the timer
//! granularity, so a stalled socket costs latency proportional to how
//! stalled it actually is.
//!
//! A send retry really does want the sleep rungs: the buffer drains on
//! the kernel's schedule and nothing announces it. An event loop does
//! not: what it waits for *is* announced, by its sockets becoming
//! readable, so it walks the spin and yield rungs — ACK clocking on
//! loopback turns around inside them — and then blocks on the sockets
//! instead of sleeping ([`Backoff::wait_or_park`]). There is one
//! ladder for every host: a parked loop gives its core up by
//! construction, so a machine where the loop shares its only core with
//! the threads feeding it needs no ladder of its own.
//!
//! The ladder's primitives come from [`mpquic_util::sync`], so under
//! `--cfg loom` every wait is a scheduling point for the interleaving
//! explorer (sleeps become yields — model time does not advance) and
//! the no-lost-wakeup property of loops built on [`Backoff`] can be
//! checked exhaustively.

use mpquic_util::sync;
use std::time::Duration;

/// Busy-spin steps before the first yield.
const SPIN_STEPS: u32 = 4;
/// `yield_now` steps before the first sleep.
const YIELD_STEPS: u32 = 4;
/// First sleep length; doubles per step up to [`MAX_SLEEP`].
const FIRST_SLEEP: Duration = Duration::from_micros(10);
/// Sleep cap — matches the polling granularity
/// ([`crate::timer::DEFAULT_GRANULARITY`]).
const MAX_SLEEP: Duration = Duration::from_micros(500);

/// Spin → yield → capped-sleep waiter for transient `WouldBlock`s.
///
/// Call [`Backoff::wait`] each time the transient condition is observed
/// and [`Backoff::reset`] whenever progress is made; the next stall
/// then starts back at the cheap spinning end of the ladder.
#[derive(Debug, Clone, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// A fresh waiter, starting at the spin stage.
    pub fn new() -> Backoff {
        Backoff::default()
    }

    /// Forgets accumulated steps; the next [`Backoff::wait`] restarts
    /// the ladder at the spin stage.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Number of waits since the last reset.
    pub fn steps(&self) -> u32 {
        self.step
    }

    /// The sleep the next [`Backoff::wait`] would take: `None` during
    /// the spin/yield stages, `Some(duration)` once sleeping.
    pub fn next_sleep(&self) -> Option<Duration> {
        if self.step < SPIN_STEPS + YIELD_STEPS {
            return None;
        }
        let exp = (self.step - SPIN_STEPS - YIELD_STEPS).min(16);
        Some((FIRST_SLEEP * 2u32.saturating_pow(exp)).min(MAX_SLEEP))
    }

    /// Waits one step: spins with the CPU pause hint, yields the
    /// scheduler slot, or sleeps (doubling up to the cap), depending on
    /// how many waits have accumulated since the last reset.
    pub fn wait(&mut self) {
        if self.step < SPIN_STEPS {
            // A short burst of pause-hinted spins: cheapest, and wins
            // when the kernel drains the buffer within microseconds.
            for _ in 0..(1 << self.step.min(6)) {
                sync::hint::spin_loop();
            }
        } else if let Some(sleep) = self.next_sleep() {
            sync::thread::sleep(sleep);
        } else {
            sync::thread::yield_now();
        }
        self.step = self.step.saturating_add(1);
    }

    /// [`Backoff::wait`] for an event loop: the spin and yield rungs as
    /// they are, and `park` — a blocking wait on whatever the loop is
    /// idle for — in place of every sleep rung.
    pub fn wait_or_park(&mut self, park: impl FnOnce()) {
        if self.next_sleep().is_none() {
            self.wait();
        } else {
            park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_spins_then_yields_then_sleeps() {
        let mut b = Backoff::new();
        // Spin and yield stages report no sleep.
        for _ in 0..(SPIN_STEPS + YIELD_STEPS) {
            assert_eq!(b.next_sleep(), None);
            b.wait();
        }
        // First sleep is the base, then doubles.
        assert_eq!(b.next_sleep(), Some(FIRST_SLEEP));
        b.wait();
        assert_eq!(b.next_sleep(), Some(FIRST_SLEEP * 2));
    }

    #[test]
    fn sleep_is_capped() {
        let b = Backoff { step: 64 };
        assert_eq!(b.next_sleep(), Some(MAX_SLEEP));
        // And the exponent is clamped so the doubling cannot overflow.
        let b = Backoff { step: u32::MAX };
        assert_eq!(b.next_sleep(), Some(MAX_SLEEP));
    }

    #[test]
    fn reset_returns_to_spinning() {
        let mut b = Backoff { step: 32 };
        b.reset();
        assert_eq!(b.steps(), 0);
        assert_eq!(b.next_sleep(), None);
    }

    #[test]
    fn an_event_loop_parks_where_a_retry_would_sleep() {
        let mut b = Backoff::new();
        let mut parks = 0;
        for _ in 0..(SPIN_STEPS + YIELD_STEPS) {
            b.wait_or_park(|| parks += 1);
        }
        assert_eq!(parks, 0, "cheap rungs come first");
        for _ in 0..3 {
            b.wait_or_park(|| parks += 1);
        }
        assert_eq!(parks, 3, "every later step parks");
        b.reset();
        b.wait_or_park(|| parks += 1);
        assert_eq!(parks, 3, "progress restarts the ladder");
    }
}
