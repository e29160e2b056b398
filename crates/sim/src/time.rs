//! Virtual-clock instants and durations.
//!
//! Simulated time is a non-negative, finite `f64` number of seconds. The
//! newtypes keep instants and intervals from being mixed up and provide a
//! total order (NaN is rejected at construction), which the event queue
//! requires.

use std::cmp::Ordering;
use std::ops::Add;

/// An instant on the simulation clock (seconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

/// A non-negative span of simulated time in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `seconds ≥ 0`.
    ///
    /// # Panics
    /// Panics on negative, NaN or infinite input — simulation timestamps
    /// are always produced by adding durations to the clock, so an invalid
    /// value is a logic bug worth failing loudly on.
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid simulation timestamp: {seconds}"
        );
        SimTime(seconds)
    }

    /// Seconds since the simulation epoch.
    #[inline]
    pub fn as_secs(&self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction guarantees no NaN, so partial_cmp cannot fail.
        self.0.partial_cmp(&other.0).expect("SimTime is NaN-free")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl SimDuration {
    /// Creates a duration of `seconds ≥ 0`.
    ///
    /// # Panics
    /// Panics on negative, NaN or infinite input (same rationale as
    /// [`SimTime::from_secs`]).
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid simulation duration: {seconds}"
        );
        SimDuration(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_secs(5.5);
        assert_eq!(t.as_secs(), 5.5);
        let d = SimDuration::from_secs(2.0);
        assert_eq!((t + d).as_secs(), 7.5);
    }

    #[test]
    #[should_panic(expected = "invalid simulation timestamp")]
    fn rejects_negative_time() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid simulation timestamp")]
    fn rejects_nan_time() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid simulation duration")]
    fn rejects_infinite_duration() {
        let _ = SimDuration::from_secs(f64::INFINITY);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t.as_secs(), 15.0);
        assert_eq!((SimTime::ZERO + SimDuration::from_secs(3.0)).as_secs(), 3.0);
    }

    #[test]
    fn total_order() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
