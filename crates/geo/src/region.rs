//! Rectangular latitude/longitude regions.

use crate::coords::GeoPoint;
use rand::Rng;

/// An axis-aligned latitude/longitude rectangle,
/// `[lat_min, lat_max) × [lon_min, lon_max)`.
///
/// Half-open bounds guarantee that a grid of adjacent boxes partitions the
/// plane with no point belonging to two regions — the paper's
/// "non-overlapping regions" requirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    lat_min: f64,
    lat_max: f64,
    lon_min: f64,
    lon_max: f64,
}

impl BoundingBox {
    /// Creates a box; returns `None` when the rectangle is empty or any
    /// bound is not finite.
    pub fn new(lat_min: f64, lat_max: f64, lon_min: f64, lon_max: f64) -> Option<Self> {
        let finite = [lat_min, lat_max, lon_min, lon_max]
            .iter()
            .all(|v| v.is_finite());
        if !finite || lat_min >= lat_max || lon_min >= lon_max {
            return None;
        }
        Some(BoundingBox {
            lat_min,
            lat_max,
            lon_min,
            lon_max,
        })
    }

    /// Minimum latitude (inclusive).
    pub fn lat_min(&self) -> f64 {
        self.lat_min
    }

    /// Maximum latitude (exclusive).
    pub fn lat_max(&self) -> f64 {
        self.lat_max
    }

    /// Minimum longitude (inclusive).
    pub fn lon_min(&self) -> f64 {
        self.lon_min
    }

    /// Maximum longitude (exclusive).
    pub fn lon_max(&self) -> f64 {
        self.lon_max
    }

    /// True when the point lies inside the half-open rectangle.
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat() >= self.lat_min
            && p.lat() < self.lat_max
            && p.lon() >= self.lon_min
            && p.lon() < self.lon_max
    }

    /// The centre of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            0.5 * (self.lat_min + self.lat_max),
            0.5 * (self.lon_min + self.lon_max),
        )
    }

    /// Latitude extent in degrees.
    pub fn lat_span(&self) -> f64 {
        self.lat_max - self.lat_min
    }

    /// Longitude extent in degrees.
    pub fn lon_span(&self) -> f64 {
        self.lon_max - self.lon_min
    }

    /// Splits the box into four half-open quadrants (NW, NE, SW, SE order
    /// is: [lat-low/lon-low, lat-low/lon-high, lat-high/lon-low,
    /// lat-high/lon-high]). Used when an overloaded region is subdivided.
    pub fn split4(&self) -> [BoundingBox; 4] {
        let lat_mid = 0.5 * (self.lat_min + self.lat_max);
        let lon_mid = 0.5 * (self.lon_min + self.lon_max);
        [
            BoundingBox::new(self.lat_min, lat_mid, self.lon_min, lon_mid)
                .expect("non-empty parent quadrant"),
            BoundingBox::new(self.lat_min, lat_mid, lon_mid, self.lon_max)
                .expect("non-empty parent quadrant"),
            BoundingBox::new(lat_mid, self.lat_max, self.lon_min, lon_mid)
                .expect("non-empty parent quadrant"),
            BoundingBox::new(lat_mid, self.lat_max, lon_mid, self.lon_max)
                .expect("non-empty parent quadrant"),
        ]
    }

    /// Draws a point uniformly inside this box.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> GeoPoint {
        GeoPoint::new(
            rng.gen_range(self.lat_min..self.lat_max),
            rng.gen_range(self.lon_min..self.lon_max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn athens_box() -> BoundingBox {
        BoundingBox::new(37.8, 38.2, 23.5, 24.0).unwrap()
    }

    #[test]
    fn rejects_empty_or_invalid() {
        assert!(BoundingBox::new(1.0, 1.0, 0.0, 1.0).is_none());
        assert!(BoundingBox::new(2.0, 1.0, 0.0, 1.0).is_none());
        assert!(BoundingBox::new(0.0, 1.0, 1.0, 1.0).is_none());
        assert!(BoundingBox::new(f64::NAN, 1.0, 0.0, 1.0).is_none());
    }

    #[test]
    fn half_open_semantics() {
        let b = athens_box();
        assert!(b.contains(&GeoPoint::new(37.8, 23.5)), "min corner inside");
        assert!(!b.contains(&GeoPoint::new(38.2, 23.7)), "lat_max outside");
        assert!(!b.contains(&GeoPoint::new(37.9, 24.0)), "lon_max outside");
        assert!(b.contains(&b.center()));
    }

    #[test]
    fn split4_partitions_exactly() {
        let b = athens_box();
        let quads = b.split4();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..2000 {
            let p = b.random_point(&mut rng);
            let owners = quads.iter().filter(|q| q.contains(&p)).count();
            assert_eq!(owners, 1, "every point owned by exactly one quadrant");
        }
        // Quadrant spans halve the parent spans.
        for q in &quads {
            assert!((q.lat_span() - b.lat_span() / 2.0).abs() < 1e-12);
            assert!((q.lon_span() - b.lon_span() / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn random_points_inside() {
        let b = athens_box();
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..1000 {
            assert!(b.contains(&b.random_point(&mut rng)));
        }
    }
}
