//! A wall clock with time compression.

use std::time::{Duration, Instant};

/// Maps wall-clock time to "crowd seconds": `crowd = wall × scale`.
///
/// A scale of 60 runs one simulated minute per wall second, letting the
/// live demo replay the paper's 60–120 s deadlines in seconds.
#[derive(Debug, Clone, Copy)]
pub struct ScaledClock {
    start: Instant,
    scale: f64,
}

impl ScaledClock {
    /// Starts the clock now.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite scale (static config).
    pub fn start(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "time scale must be positive and finite, got {scale}"
        );
        ScaledClock {
            start: Instant::now(),
            scale,
        }
    }

    /// The compression factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Crowd seconds elapsed since [`ScaledClock::start`].
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * self.scale
    }

    /// Converts a crowd-seconds duration into the wall [`Duration`] to
    /// actually sleep/wait.
    pub fn to_wall(&self, crowd_secs: f64) -> Duration {
        Duration::from_secs_f64((crowd_secs / self.scale).max(0.0))
    }

    /// The wall-clock [`Instant`] lying `crowd_secs` crowd seconds in
    /// the future — the deadline to hand to `recv_deadline`-style waits.
    ///
    /// This is the sanctioned way for runtime code to obtain an
    /// `Instant`; reading `Instant::now()` directly elsewhere trips the
    /// `no-wall-clock` lint (see `react-analyze`).
    pub fn deadline_after(&self, crowd_secs: f64) -> Instant {
        Instant::now() + self.to_wall(crowd_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_advances_scaled() {
        let clock = ScaledClock::start(100.0);
        // analyze: allow(no-sleep-in-tests) this test measures the wall→crowd scaling itself
        std::thread::sleep(Duration::from_millis(30));
        let t = clock.now();
        // 30 ms wall × 100 = 3 crowd-seconds, with generous slack for CI.
        assert!(t >= 2.0, "crowd time {t} too small");
        assert!(t < 60.0, "crowd time {t} far too large");
    }

    #[test]
    fn wall_conversion_inverts_scale() {
        let clock = ScaledClock::start(50.0);
        assert_eq!(clock.to_wall(100.0), Duration::from_secs(2));
        assert_eq!(clock.to_wall(-5.0), Duration::ZERO);
        assert_eq!(clock.scale(), 50.0);
    }

    #[test]
    #[should_panic(expected = "time scale")]
    fn rejects_zero_scale() {
        let _ = ScaledClock::start(0.0);
    }
}
