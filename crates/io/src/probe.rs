//! Sticky feature probe: "tried it once, the kernel said no, stop
//! asking".
//!
//! UDP GSO degrades this way instead of erroring: `UDP_SEGMENT` is
//! refused with `EINVAL`/`EIO`/`EMSGSIZE`/`EOPNOTSUPP` on sockets or
//! devices that cannot segment, and the train goes out by `sendmmsg`
//! from then on. [`ProbeState`] is the sticky `unsupported` bit the
//! first refusal flips, plus a rate-limited warning so a fleet log
//! shows *one* line per fallback, not one per train.
//!
//! The errno set is wide because a refused GSO send costs nothing — the
//! same train is retried one rung down. It is *not* how the registry
//! judges a whole backend: there only `ENOSYS` counts (see
//! [`crate::socket`]).
//!
//! The state is deliberately per-instance (per socket registry): a
//! shard that rebinds onto a device with different offloads re-probes
//! with its own state instead of inheriting a stale verdict.

use std::io;

/// Errnos that mean "this feature does not exist here" rather than
/// "this call was wrong": `EPERM`, `EIO`, `EINVAL`, `ENOSYS`,
/// `EMSGSIZE`, `EOPNOTSUPP`. First refusal with one of these flips the
/// probe to unsupported; anything else stays an ordinary error.
pub const UNSUPPORTED_ERRNOS: [i32; 6] = [1, 5, 22, 38, 90, 95];

/// True when `err` carries an errno from [`UNSUPPORTED_ERRNOS`].
pub fn is_unsupported(err: &io::Error) -> bool {
    err.raw_os_error()
        .is_some_and(|errno| UNSUPPORTED_ERRNOS.contains(&errno))
}

/// One probed feature's sticky verdict.
#[derive(Debug)]
pub struct ProbeState {
    /// What is being probed, for the one-line warning ("UDP GSO").
    feature: &'static str,
    /// Sticky; also rate-limits the warning to once per state, i.e.
    /// once per registry, not once per datagram train.
    unsupported: bool,
}

impl ProbeState {
    /// A fresh probe: optimistic until the kernel refuses.
    pub fn new(feature: &'static str) -> ProbeState {
        ProbeState {
            feature,
            unsupported: false,
        }
    }

    /// True once the feature proved unavailable; callers skip it from
    /// then on.
    pub fn is_unsupported(&self) -> bool {
        self.unsupported
    }

    /// Classifies `err`. An [`UNSUPPORTED_ERRNOS`] errno marks the
    /// feature unsupported (sticky), logs one warning the first time,
    /// and returns `true` — the caller falls back and retries, losing
    /// nothing. Any other error returns `false` and stays the caller's
    /// problem.
    pub fn observe(&mut self, err: &io::Error, fallback: &'static str) -> bool {
        if !is_unsupported(err) {
            return false;
        }
        if !self.unsupported {
            eprintln!(
                "warn: {} unavailable ({err}); falling back to {fallback}",
                self.feature
            );
        }
        self.unsupported = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_errnos_flip_sticky_bit() {
        for errno in UNSUPPORTED_ERRNOS {
            let mut probe = ProbeState::new("test feature");
            let err = io::Error::from_raw_os_error(errno);
            assert!(probe.observe(&err, "next rung"), "errno {errno}");
            assert!(probe.is_unsupported());
        }
    }

    #[test]
    fn ordinary_errors_do_not_flip() {
        let mut probe = ProbeState::new("test feature");
        let err = io::Error::from_raw_os_error(11); // EAGAIN
        assert!(!probe.observe(&err, "next rung"));
        assert!(!probe.is_unsupported());
        let err = io::Error::new(io::ErrorKind::Other, "no errno at all");
        assert!(!probe.observe(&err, "next rung"));
        assert!(!probe.is_unsupported());
    }

    #[test]
    fn verdict_is_sticky() {
        let mut probe = ProbeState::new("test feature");
        let err = io::Error::from_raw_os_error(38); // ENOSYS
        assert!(probe.observe(&err, "next rung"));
        assert!(probe.is_unsupported());
        // A later success path never un-marks; callers simply stop
        // trying the feature.
        assert!(probe.is_unsupported());
    }
}
