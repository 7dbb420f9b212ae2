//! Virtual time: a nanosecond-resolution monotone clock.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Simulation (virtual) time or duration, in nanoseconds.
///
/// A single type serves for both instants and durations, as is usual in
/// discrete-event kernels; arithmetic saturates nowhere — overflow of a
/// `u64` nanosecond clock takes ~584 years of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

#[expect(
    clippy::float_arithmetic,
    reason = "the `*_f64` unit conversions: one value each, no accumulation, so no order to fix"
)]
impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// From fractional milliseconds (rounds to nearest nanosecond).
    /// Negative inputs clamp to zero.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-int `as` saturates, and the input is clamped non-negative"
    )]
    pub fn from_ms_f64(ms: f64) -> Self {
        SimTime((ms.max(0.0) * 1e6).round() as u64)
    }

    /// From fractional seconds (rounds to nearest nanosecond).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-int `as` saturates, and the input is clamped non-negative"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

#[expect(clippy::float_arithmetic, reason = "display only")]
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
        assert_eq!(SimTime::from_ms_f64(1.5), SimTime::from_us(1_500));
        assert_eq!(SimTime::from_secs_f64(0.25), SimTime::from_ms(250));
    }

    #[test]
    fn negative_float_clamps() {
        assert_eq!(SimTime::from_ms_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(3);
        let b = SimTime::from_ms(1);
        assert_eq!(a + b, SimTime::from_ms(4));
        assert_eq!(a - b, SimTime::from_ms(2));
        assert_eq!(b * 5, SimTime::from_ms(5));
        assert_eq!(a / 3, SimTime::from_ms(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn roundtrip_float() {
        let t = SimTime::from_ms_f64(2.75);
        assert!((t.as_ms_f64() - 2.75).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.00275).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_ms(1);
        let b = SimTime::from_ms(2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5ns");
        assert_eq!(format!("{}", SimTime::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5)), "5.000s");
    }
}
