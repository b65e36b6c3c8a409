//! Virtual time for the discrete-event models.
//!
//! Every analytic model in this workspace — cost models, schedulers,
//! the serving queue, the trainer's phase breakdown and `msa-obs` —
//! keeps time as one type, [`SimTime`]: an integer count of
//! picoseconds. Integer addition is exact and associative, so a sum of
//! spans is the same whatever order it is taken in, and per-phase totals
//! add up to the wall total exactly. `u64` picoseconds reach ≈ 213 days
//! of virtual time; [`SimTime::NEVER`] stands for "does not happen".

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Picoseconds per second, as f64 (exact: 1e12 < 2^53).
const PS_PER_SEC: f64 = 1e12;

/// A point (or span) of virtual time, in integer picoseconds.
///
/// Seconds-valued constructors and `f64` scaling round to the nearest
/// picosecond once; integer addition and subtraction are checked and
/// panic on overflow or on a negative result.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant that never arrives: later than every reachable time.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Creates a time point from integer picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Rounds a picosecond value to the nearest integer. Panics on
    /// NaN/inf, on negative values and on overflow.
    fn round_ps(ps: f64) -> Self {
        assert!(ps.is_finite(), "SimTime must be finite, got {ps}ps");
        assert!(ps >= 0.0, "SimTime must be non-negative, got {ps}ps");
        let ps = ps.round();
        assert!(
            ps < u64::MAX as f64,
            "{ps}ps overflows the picosecond clock"
        );
        SimTime(ps as u64)
    }

    /// Creates a time point from seconds, rounded to the picosecond.
    pub fn from_secs(secs: f64) -> Self {
        Self::round_ps(secs * PS_PER_SEC)
    }

    /// Creates a time point from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Creates a time point from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// The value in integer picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_SEC
    }

    /// The value in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        match self.0.checked_add(rhs.0) {
            Some(ps) => SimTime(ps),
            None => panic!("{self:?} + {rhs:?} overflows the picosecond clock"),
        }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        match self.0.checked_sub(rhs.0) {
            Some(ps) => SimTime(ps),
            None => panic!("{self:?} - {rhs:?} is negative"),
        }
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::round_ps(self.0 as f64 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::round_ps(self.0 as f64 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    fn div(self, rhs: SimTime) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs();
        if s >= 3600.0 {
            write!(f, "{:.2}h", s / 3600.0)
        } else if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.3}us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let a = SimTime::from_secs(1.5);
        let b = SimTime::from_millis(500.0);
        assert_eq!((a + b).as_secs(), 2.0);
        assert_eq!((a - b).as_secs(), 1.0);
        assert_eq!((a * 2.0).as_secs(), 3.0);
        assert_eq!((a / 3.0).as_secs(), 0.5);
        assert!((a / b - 3.0).abs() < 1e-12);
        assert_eq!(SimTime::from_micros(1.0).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ps(a.as_ps()), a);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_micros(1.0)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2].as_secs(), 3.0);
        assert!(v[2] < SimTime::NEVER);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs(), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(7200.0)), "2.00h");
        assert_eq!(format!("{}", SimTime::from_secs(2.5)), "2.500s");
        assert_eq!(format!("{}", SimTime::from_millis(2.5)), "2.500ms");
        assert_eq!(format!("{}", SimTime::from_micros(2.5)), "2.500us");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
