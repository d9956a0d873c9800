//! Traffic-volume units.
//!
//! The map's central quantity is *relative activity* (§2: "relative levels
//! of activity … suffice and are easier to estimate"), but the substrate's
//! ground truth is denominated in absolute bits per second so that shares,
//! ratios, and diurnal scaling compose correctly.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

/// A traffic rate in bits per second.
///
/// A thin `f64` wrapper: rates are estimates, not counters, so floating
/// point is the honest representation. Display renders human units.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Bps(pub f64);

impl Bps {
    /// Zero rate.
    pub const ZERO: Bps = Bps(0.0);

    /// The raw value in bits per second.
    pub fn raw(self) -> f64 {
        self.0
    }
}

impl Add for Bps {
    type Output = Bps;
    fn add(self, rhs: Bps) -> Bps {
        Bps(self.0 + rhs.0)
    }
}

impl AddAssign for Bps {
    fn add_assign(&mut self, rhs: Bps) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Bps {
    type Output = Bps;
    fn mul(self, rhs: f64) -> Bps {
        Bps(self.0 * rhs)
    }
}

impl Div<f64> for Bps {
    type Output = Bps;
    fn div(self, rhs: f64) -> Bps {
        Bps(self.0 / rhs)
    }
}

impl Sum for Bps {
    fn sum<I: Iterator<Item = Bps>>(iter: I) -> Bps {
        Bps(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v >= 1e12 {
            write!(f, "{:.2} Tbps", v / 1e12)
        } else if v >= 1e9 {
            write!(f, "{:.2} Gbps", v / 1e9)
        } else if v >= 1e6 {
            write!(f, "{:.2} Mbps", v / 1e6)
        } else if v >= 1e3 {
            write!(f, "{:.2} Kbps", v / 1e3)
        } else {
            write!(f, "{:.2} bps", v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_picks_unit() {
        assert_eq!(Bps(500.0).to_string(), "500.00 bps");
        assert_eq!(Bps(1.5e3).to_string(), "1.50 Kbps");
        assert_eq!(Bps(12e6).to_string(), "12.00 Mbps");
        assert_eq!(Bps(3.25e9).to_string(), "3.25 Gbps");
        assert_eq!(Bps(2.5e12).to_string(), "2.50 Tbps");
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: Bps = [Bps(1e6), Bps(3e6)].into_iter().sum();
        assert_eq!(total, Bps(4e6));
        assert_eq!((Bps(2e6) * 2.0).raw(), 4e6);
        assert_eq!((Bps(2e6) / 2.0).raw(), 1e6);
        let mut x = Bps::ZERO;
        x += Bps(1.0);
        assert_eq!(x.raw(), 1.0);
    }
}
