//! A wall clock with time compression.
//!
//! The one sanctioned home of wall-clock reads and sleeps in the
//! scheduling stack: the root `clippy.toml` disallows `Instant::now()`,
//! `Instant::elapsed()` and `std::thread::sleep` everywhere else.

// Sanctioned: this is the clock the live path reads crowd time from.
#![allow(clippy::disallowed_methods)]

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

    /// Blocks the calling thread for `crowd_secs` crowd seconds — the one
    /// sanctioned sleep in the workspace, so every wait shrinks with the
    /// time scale.
    pub fn sleep(&self, crowd_secs: f64) {
        std::thread::sleep(self.to_wall(crowd_secs));
    }

    /// The wall-clock [`Instant`] at crowd time `crowd_secs` — the
    /// deadline to hand to `recv_deadline`-style waits.
    ///
    /// This is the sanctioned way for runtime code to obtain an
    /// `Instant`; `clippy.toml` disallows reading `Instant::now()`
    /// directly elsewhere.
    pub fn instant_at(&self, crowd_secs: f64) -> Instant {
        self.start + self.to_wall(crowd_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_advances_scaled() {
        let clock = ScaledClock::start(100.0);
        clock.sleep(3.0);
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
