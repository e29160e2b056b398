//! The percentile of a sorted sample, as the case study and the examples
//! read it.

/// Linear-interpolation percentile over an already-sorted slice.
///
/// # Panics
/// Panics on an empty slice (callers always check).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let idx = pos.floor() as usize;
    let frac = pos - idx as f64;
    if idx + 1 < sorted.len() {
        sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac
    } else {
        sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_boundaries() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 4.0);
        assert!((percentile_sorted(&sorted, 0.5) - 2.5).abs() < 1e-12);
        // Out-of-range q is clamped.
        assert_eq!(percentile_sorted(&sorted, 2.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile_sorted(&[], 0.5);
    }
}
