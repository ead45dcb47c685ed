//! The link model: serialization rate, propagation delay, droptail queue,
//! random loss.
//!
//! A [`Link`] is unidirectional; a path consists of one link per
//! direction sharing the same parameters. The queue is modelled in *time*
//! units, matching the paper's Table 1 "Queuing Delay" factor directly: a
//! packet is dropped (droptail) if accepting it would make it wait longer
//! than the maximum queuing delay. This is how bufferbloat is dialed in —
//! a 2 s × 100 Mbps queue is a 25 MB buffer.

use mpquic_util::{DetRng, SimTime};
use std::time::Duration;

/// Static parameters of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Serialization rate in bits per second.
    pub rate_bps: f64,
    /// One-way propagation delay.
    pub one_way_delay: Duration,
    /// Maximum time a packet may sit in the queue before droptail kicks
    /// in. (A floor of two full-size packets is always granted so a 0 ms
    /// setting still permits back-to-back transmission.)
    pub max_queue_delay: Duration,
    /// Bernoulli random-loss probability in `[0, 1]`, applied on entry
    /// (models lossy wireless links, not congestion).
    pub loss: f64,
}

impl LinkParams {
    /// Convenience constructor from the paper's units (Mbps, ms, ms, %).
    pub fn from_paper_units(
        capacity_mbps: f64,
        one_way_delay_ms: f64,
        max_queue_delay_ms: f64,
        loss_percent: f64,
    ) -> LinkParams {
        LinkParams {
            rate_bps: capacity_mbps * 1e6,
            one_way_delay: Duration::from_secs_f64(one_way_delay_ms / 1e3),
            max_queue_delay: Duration::from_secs_f64(max_queue_delay_ms / 1e3),
            loss: loss_percent / 100.0,
        }
    }

    /// Serialization time of `bytes` on this link.
    pub fn tx_time(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64((bytes as f64) * 8.0 / self.rate_bps)
    }
}

/// Why a packet was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drop {
    /// Bernoulli random loss.
    Random,
    /// Droptail queue overflow.
    QueueFull,
}

/// One direction of a network path.
#[derive(Debug, Clone)]
pub struct Link {
    /// Current parameters (mutable for mid-simulation link changes).
    pub params: LinkParams,
    /// Time the transmitter finishes the packet currently serializing
    /// (and everything queued behind it).
    busy_until: SimTime,
    /// Delivered packet counter.
    pub delivered: u64,
    /// Packets lost to random loss.
    pub lost_random: u64,
    /// Packets lost to queue overflow.
    pub lost_queue: u64,
}

impl Link {
    /// Creates an idle link.
    pub fn new(params: LinkParams) -> Link {
        Link {
            params,
            busy_until: SimTime::ZERO,
            delivered: 0,
            lost_random: 0,
            lost_queue: 0,
        }
    }

    /// Offers a packet of `bytes` to the link at time `now`.
    ///
    /// Returns the arrival time at the far end, or the drop reason.
    pub fn offer(&mut self, now: SimTime, bytes: usize, rng: &mut DetRng) -> Result<SimTime, Drop> {
        if rng.bool(self.params.loss) {
            self.lost_random += 1;
            return Err(Drop::Random);
        }
        let tx = self.params.tx_time(bytes);
        // Current queueing delay if we join now.
        let wait = self.busy_until.saturating_duration_since(now);
        // Grant at least two full-size packets of buffer so a zero
        // configured queue still allows minimal bursts.
        let floor = self.params.tx_time(2 * 1500);
        let cap = self.params.max_queue_delay.max(floor);
        if wait > cap {
            self.lost_queue += 1;
            return Err(Drop::QueueFull);
        }
        let start = self.busy_until.max(now);
        self.busy_until = start + tx;
        self.delivered += 1;
        Ok(self.busy_until + self.params.one_way_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(mbps: f64, delay_ms: f64, queue_ms: f64, loss_pct: f64) -> LinkParams {
        LinkParams::from_paper_units(mbps, delay_ms, queue_ms, loss_pct)
    }

    #[test]
    fn tx_time_matches_rate() {
        let p = params(8.0, 0.0, 100.0, 0.0); // 8 Mbps = 1 byte/µs
        assert_eq!(p.tx_time(1000), Duration::from_millis(1));
    }

    #[test]
    fn lossless_link_delivers_with_delay() {
        let mut link = Link::new(params(8.0, 10.0, 100.0, 0.0));
        let mut rng = DetRng::new(1);
        let arrival = link.offer(SimTime::ZERO, 1000, &mut rng).unwrap();
        // 1 ms serialization + 10 ms propagation.
        assert_eq!(arrival, SimTime::from_millis(11));
    }

    #[test]
    fn serialization_queues_back_to_back_packets() {
        let mut link = Link::new(params(8.0, 0.0, 1000.0, 0.0));
        let mut rng = DetRng::new(1);
        let a = link.offer(SimTime::ZERO, 1000, &mut rng).unwrap();
        let b = link.offer(SimTime::ZERO, 1000, &mut rng).unwrap();
        assert_eq!(a, SimTime::from_millis(1));
        assert_eq!(b, SimTime::from_millis(2));
        // Two packets' worth of queue ahead of the third.
        let c = link.offer(SimTime::ZERO, 1000, &mut rng).unwrap();
        assert_eq!(c, SimTime::from_millis(3));
    }

    #[test]
    fn droptail_when_queue_exceeds_cap() {
        // 8 Mbps, 5 ms max queue -> 5 packets of 1000 B fill it.
        let mut link = Link::new(params(8.0, 0.0, 5.0, 0.0));
        let mut rng = DetRng::new(1);
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..20 {
            match link.offer(SimTime::ZERO, 1000, &mut rng) {
                Ok(_) => delivered += 1,
                Err(Drop::QueueFull) => dropped += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!((5..=7).contains(&delivered), "delivered {delivered}");
        assert_eq!(delivered + dropped, 20);
        assert_eq!(link.lost_queue, dropped as u64);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = Link::new(params(8.0, 0.0, 5.0, 0.0));
        let mut rng = DetRng::new(1);
        while link.offer(SimTime::ZERO, 1000, &mut rng).is_ok() {}
        // After the queue has drained, offers succeed again.
        assert!(link
            .offer(SimTime::from_millis(100), 1000, &mut rng)
            .is_ok());
    }

    #[test]
    fn random_loss_statistics() {
        let mut link = Link::new(params(1000.0, 0.0, 10_000.0, 10.0));
        let mut rng = DetRng::new(7);
        let n = 20_000;
        let mut lost = 0;
        for i in 0..n {
            // Offer spaced out so the queue never fills.
            let t = SimTime::from_micros(i * 100);
            if link.offer(t, 100, &mut rng).is_err() {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "loss rate {rate}");
        assert_eq!(link.lost_random, lost as u64);
    }

    #[test]
    fn zero_queue_still_allows_two_packets() {
        let mut link = Link::new(params(8.0, 0.0, 0.0, 0.0));
        let mut rng = DetRng::new(1);
        assert!(link.offer(SimTime::ZERO, 1500, &mut rng).is_ok());
        assert!(link.offer(SimTime::ZERO, 1500, &mut rng).is_ok());
    }

    #[test]
    fn an_unbounded_rate_is_pure_delay() {
        let delay = Duration::from_millis(20);
        let mut link = Link::new(LinkParams {
            rate_bps: f64::INFINITY,
            one_way_delay: delay,
            max_queue_delay: Duration::ZERO,
            loss: 0.0,
        });
        let mut rng = DetRng::new(1);
        for at in [
            SimTime::ZERO,
            SimTime::from_micros(1),
            SimTime::from_secs(3),
        ] {
            for _ in 0..10_000 {
                assert_eq!(link.offer(at, 1500, &mut rng), Ok(at + delay));
            }
        }
        assert_eq!((link.delivered, link.lost_queue), (30_000, 0));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut link = Link::new(params(10.0, 5.0, 20.0, 5.0));
            let mut rng = DetRng::new(seed);
            (0..100)
                .map(|i| link.offer(SimTime::from_millis(i), 1200, &mut rng).is_ok())
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
