//! IP ID counters: the side channel of §3.1.3.
//!
//! "Every packet must include an IP ID value, and many routers source the
//! IP ID values from an incrementing counter. … We have observed that the
//! IP ID values of most routers display diurnal patterns, suggesting that
//! the rate at which the routers source packets may be proportional to the
//! rate at which they forward traffic … We propose measuring IP ID
//! velocity over time (e.g., at peak time) to estimate the rate at which
//! routers forward user traffic."
//!
//! [`IpidCounter`] models a router's 16-bit shared counter: it advances at
//! `base_rate + coupling × forwarded_traffic(t)` packets per second plus
//! noise, and wraps at 2^16. The measurement side (in `itm-measure`)
//! samples it by "pinging" and must handle wraparound — including the
//! aliasing failure when the counter wraps more than once between samples,
//! which is a real limitation the velocity estimator has to manage by
//! sampling fast enough.

use itm_types::SimTime;
use serde::{Deserialize, Serialize};

/// A router's 16-bit IP ID counter with traffic-coupled velocity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IpidCounter {
    /// Counter value at `last_update` (full-precision internal phase; the
    /// wire value is `value % 65536`).
    phase: f64,
    /// Time of the last advance.
    last_update: SimTime,
    /// Packets/second the router sources regardless of load (control
    /// plane chatter, ICMP, etc.).
    pub base_rate: f64,
    /// Additional counter increments per forwarded megabit (flow-export
    /// and sampled-packet machinery — the coupling §3.1.3 hypothesizes).
    pub per_mbit: f64,
}

impl IpidCounter {
    /// A counter starting from an arbitrary phase at time zero.
    pub fn new(initial: u16, base_rate: f64, per_mbit: f64) -> IpidCounter {
        IpidCounter {
            phase: initial as f64,
            last_update: SimTime::ZERO,
            base_rate,
            per_mbit,
        }
    }

    /// Advance the counter to `now`, given the mean forwarded traffic over
    /// the elapsed window in Mbps. Call with monotonically nondecreasing
    /// times; earlier times are ignored.
    pub fn advance(&mut self, now: SimTime, forwarded_mbps: f64) {
        if now <= self.last_update {
            return;
        }
        let dt = (now - self.last_update).as_secs() as f64;
        let rate = self.base_rate + self.per_mbit * forwarded_mbps.max(0.0);
        self.phase += rate * dt;
        self.last_update = now;
    }

    /// The 16-bit value a probe packet would observe right now.
    pub fn sample(&self) -> u16 {
        (self.phase as u64 % 65_536) as u16
    }

    /// Estimate velocity from two wire samples, assuming at most one wrap
    /// between them (the estimator the paper's proposal implies). Returns
    /// counts/second; `None` on a zero-length interval.
    pub fn estimate_velocity(s0: u16, t0: SimTime, s1: u16, t1: SimTime) -> Option<f64> {
        if t1 <= t0 {
            return None;
        }
        let dt = (t1 - t0).as_secs() as f64;
        let delta = (s1 as i64 - s0 as i64).rem_euclid(65_536) as f64;
        Some(delta / dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_time_and_load() {
        let mut c = IpidCounter::new(0, 10.0, 2.0);
        c.advance(SimTime(10), 5.0); // rate = 10 + 10 = 20/s over 10s
        assert_eq!(c.sample(), 200);
        c.advance(SimTime(20), 0.0); // rate = 10/s over 10s
        assert_eq!(c.sample(), 300);
    }

    #[test]
    fn wraps_at_16_bits() {
        let mut c = IpidCounter::new(65_530, 1.0, 0.0);
        c.advance(SimTime(10), 0.0);
        assert_eq!(c.sample(), ((65_530u32 + 10) % 65_536) as u16);
    }

    #[test]
    fn ignores_time_travel() {
        let mut c = IpidCounter::new(0, 100.0, 0.0);
        c.advance(SimTime(10), 0.0);
        let v = c.sample();
        c.advance(SimTime(5), 0.0);
        assert_eq!(c.sample(), v);
    }

    #[test]
    fn velocity_estimation_round_trips() {
        let mut c = IpidCounter::new(1234, 40.0, 1.0);
        let t0 = SimTime(0);
        let s0 = c.sample();
        c.advance(SimTime(100), 10.0); // velocity 50/s
        let s1 = c.sample();
        let v = IpidCounter::estimate_velocity(s0, t0, s1, SimTime(100)).unwrap();
        assert!((v - 50.0).abs() < 0.02, "estimated {v}");
    }

    #[test]
    fn velocity_estimation_handles_single_wrap() {
        let mut c = IpidCounter::new(60_000, 100.0, 0.0);
        let s0 = c.sample();
        c.advance(SimTime(100), 0.0); // +10_000 counts → wraps past 65536
        let s1 = c.sample();
        let v = IpidCounter::estimate_velocity(s0, SimTime(0), s1, SimTime(100)).unwrap();
        assert!((v - 100.0).abs() < 0.01, "estimated {v}");
    }

    #[test]
    fn velocity_estimation_aliases_on_double_wrap() {
        // Sampling too slowly under-estimates: this is the documented
        // failure mode the measurement campaign must avoid.
        let mut c = IpidCounter::new(0, 1000.0, 0.0);
        let s0 = c.sample();
        c.advance(SimTime(100), 0.0); // 100k counts ≈ 1.5 wraps
        let s1 = c.sample();
        let v = IpidCounter::estimate_velocity(s0, SimTime(0), s1, SimTime(100)).unwrap();
        assert!(v < 1000.0, "aliased estimate should undershoot, got {v}");
    }

    #[test]
    fn unaliased_interval_bound() {
        // Sampling just inside one wrap (655 s at 100/s) keeps the
        // estimator accurate.
        let mut c = IpidCounter::new(7, 100.0, 0.0);
        let s0 = c.sample();
        c.advance(SimTime(655), 0.0);
        let v = IpidCounter::estimate_velocity(s0, SimTime(0), c.sample(), SimTime(655)).unwrap();
        assert!((v - 100.0).abs() < 0.2);
    }

    #[test]
    fn zero_interval_is_none() {
        assert!(IpidCounter::estimate_velocity(1, SimTime(5), 2, SimTime(5)).is_none());
    }
}
