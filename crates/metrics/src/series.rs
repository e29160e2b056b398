//! Append-only `(x, y)` series for the paper's cumulative curves.

/// A named series of `(x, y)` points with non-decreasing `x`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics when `x` goes backwards — series record simulated time or
    /// sweep parameters, both of which only move forward.
    pub fn push(&mut self, x: f64, y: f64) {
        if let Some(&(last_x, _)) = self.points.last() {
            assert!(
                x >= last_x,
                "series '{}': x must be non-decreasing ({x} after {last_x})",
                self.name
            );
        }
        self.points.push((x, y));
    }

    /// Downsamples to at most `n` evenly spaced points (keeps endpoints).
    /// Useful when a per-event series is printed as a table.
    pub fn thin(&self, n: usize) -> Vec<(f64, f64)> {
        if n == 0 || self.points.is_empty() {
            return Vec::new();
        }
        if self.points.len() <= n {
            return self.points.clone();
        }
        let mut out = Vec::with_capacity(n);
        let last = self.points.len() - 1;
        for k in 0..n {
            let idx = k * last / (n - 1).max(1);
            out.push(self.points[idx]);
        }
        out.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("deadline_met");
        assert!(s.thin(10).is_empty());
        s.push(0.0, 0.0);
        s.push(1.0, 2.0);
        s.push(1.0, 3.0); // equal x allowed
        assert_eq!(s.thin(10), [(0.0, 0.0), (1.0, 2.0), (1.0, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_backwards_x() {
        let mut s = TimeSeries::new("t");
        s.push(2.0, 1.0);
        s.push(1.0, 1.0);
    }

    #[test]
    fn thin_keeps_endpoints() {
        let mut s = TimeSeries::new("t");
        for i in 0..100 {
            s.push(i as f64, (i * i) as f64);
        }
        let t = s.thin(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t[0], (0.0, 0.0));
        assert_eq!(t[4], (99.0, 9801.0));
        // Short series returned as-is.
        assert_eq!(s.thin(1000).len(), 100);
        assert!(s.thin(0).is_empty());
    }
}
