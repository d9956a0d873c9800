//! Simulated time and diurnal activity.
//!
//! The paper cares about time at two scales: Table 1's *temporal precision*
//! column (hourly/daily/weekly component updates) and §3.1.3's diurnal
//! signal ("the IP ID values of most routers display diurnal patterns").
//! [`SimTime`] is seconds since the simulation epoch; [`DiurnalCurve`]
//! models the canonical day/night activity swing, phase-shifted per
//! longitude so that peaks follow the sun around the globe.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds since the simulation epoch (which is 00:00 UTC of day 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(pub u64);

/// A span of simulated time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// A duration of `n` seconds.
    pub const fn secs(n: u64) -> Self {
        SimDuration(n)
    }
    /// A duration of `n` minutes.
    pub const fn mins(n: u64) -> Self {
        SimDuration(n * 60)
    }
    /// A duration of `n` hours.
    pub const fn hours(n: u64) -> Self {
        SimDuration(n * 3600)
    }
    /// A duration of `n` days.
    pub const fn days(n: u64) -> Self {
        SimDuration(n * 86_400)
    }
    /// The duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }
}

impl SimTime {
    /// The epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Time at `d` days, `h` hours, `m` minutes after the epoch.
    pub const fn at(d: u64, h: u64, m: u64) -> Self {
        SimTime(d * 86_400 + h * 3600 + m * 60)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// UTC hour-of-day in `[0, 24)`, fractional.
    pub fn utc_hour(self) -> f64 {
        (self.0 % 86_400) as f64 / 3600.0
    }

    /// Day number since epoch.
    pub const fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Local solar hour-of-day for a point with the given UTC offset
    /// in hours (see [`crate::geo::GeoPoint::solar_offset_hours`]).
    pub fn local_hour(self, offset_hours: f64) -> f64 {
        (self.utc_hour() + offset_hours).rem_euclid(24.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day();
        let rem = self.0 % 86_400;
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            d,
            rem / 3600,
            (rem % 3600) / 60,
            rem % 60
        )
    }
}

/// A smooth diurnal activity curve.
///
/// Activity is modelled as
/// `base + amplitude * max(0, cos(2π (h - peak_hour)/24))^sharpness`,
/// a shape that matches measured eyeball-network curves: a broad evening
/// peak, a deep overnight trough, never negative, mean-normalizable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalCurve {
    /// Floor activity level (overnight trough), >= 0.
    pub base: f64,
    /// Peak height above the floor.
    pub amplitude: f64,
    /// Local hour of the activity peak (typically ~20-21h for eyeballs).
    pub peak_hour: f64,
    /// Peak sharpness; 1.0 = plain cosine half-wave, larger = narrower peak.
    pub sharpness: f64,
}

impl Default for DiurnalCurve {
    fn default() -> Self {
        // Defaults match the shape of published eyeball traffic curves:
        // trough ≈ 25% of peak, peak at 20:30 local, moderately broad.
        DiurnalCurve {
            base: 0.25,
            amplitude: 0.75,
            peak_hour: 20.5,
            sharpness: 1.4,
        }
    }
}

impl DiurnalCurve {
    /// Activity multiplier at a given *local* hour-of-day.
    pub fn at_local_hour(&self, h: f64) -> f64 {
        let phase = (h - self.peak_hour) * std::f64::consts::TAU / 24.0;
        let c = phase.cos().max(0.0);
        self.base + self.amplitude * c.powf(self.sharpness)
    }

    /// Activity multiplier at simulated time `t` for a location with the
    /// given solar UTC offset.
    pub fn at(&self, t: SimTime, solar_offset_hours: f64) -> f64 {
        self.at_local_hour(t.local_hour(solar_offset_hours))
    }

    /// Mean of the curve over a full day (by 1-minute quadrature), used to
    /// normalize so that configured daily volumes are preserved.
    pub fn daily_mean(&self) -> f64 {
        let n = 1440;
        (0..n)
            .map(|i| self.at_local_hour(i as f64 * 24.0 / n as f64))
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_and_display() {
        let t = SimTime::at(1, 2, 30);
        assert_eq!(t.as_secs(), 86_400 + 2 * 3600 + 30 * 60);
        assert_eq!(t.to_string(), "d1+02:30:00");
        let t2 = t + SimDuration::hours(2);
        assert_eq!(t2.utc_hour(), 4.5);
        assert_eq!((t2 - t).as_secs(), 7200);
        assert_eq!(t2.day(), 1);
    }

    #[test]
    fn local_hour_wraps() {
        let t = SimTime::at(0, 23, 0);
        assert_eq!(t.local_hour(2.0), 1.0);
        assert_eq!(t.local_hour(-25.0), 22.0);
    }

    #[test]
    fn diurnal_peaks_at_peak_hour() {
        let c = DiurnalCurve::default();
        let peak = c.at_local_hour(c.peak_hour);
        for h in 0..24 {
            assert!(c.at_local_hour(h as f64) <= peak + 1e-12);
        }
        assert!((peak - (c.base + c.amplitude)).abs() < 1e-12);
    }

    #[test]
    fn diurnal_trough_is_base() {
        let c = DiurnalCurve::default();
        // 12h opposite the peak the cosine is clamped to zero.
        let trough = c.at_local_hour((c.peak_hour + 12.0) % 24.0);
        assert!((trough - c.base).abs() < 1e-12);
        assert!(trough > 0.0, "activity never reaches zero");
    }

    #[test]
    fn diurnal_follows_the_sun() {
        let c = DiurnalCurve::default();
        // At the time it is peak hour in the east (+6h), the west (-6h)
        // should be far from peak.
        let t = SimTime::at(0, (c.peak_hour - 6.0) as u64, 30);
        let east = c.at(t, 6.0);
        let west = c.at(t, -6.0);
        assert!(east > west * 1.5, "east {east} west {west}");
    }

    #[test]
    fn daily_mean_between_base_and_peak() {
        let c = DiurnalCurve::default();
        let m = c.daily_mean();
        assert!(m > c.base && m < c.base + c.amplitude);
    }
}
