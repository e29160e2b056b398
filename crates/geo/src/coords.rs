//! WGS-84 coordinates and great-circle distance.

use std::fmt;

/// Mean Earth radius in kilometres, used by the haversine formula.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A geographic point: latitude/longitude in decimal degrees.
///
/// Every REACT task carries `latitude_j, longitude_j` and every worker a
/// `geographical_location`; both map onto this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude to `[-90, 90]` and wrapping
    /// longitude into `[-180, 180)`.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        GeoPoint {
            lat,
            lon: lon - 180.0,
        }
    }

    /// Latitude in decimal degrees.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in decimal degrees.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Great-circle (haversine) distance to `other`, in kilometres.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        haversine_km(self, other)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.5}, {:.5})", self.lat, self.lon)
    }
}

/// Haversine great-circle distance between two points, in kilometres.
pub fn haversine_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clamps_latitude_and_wraps_longitude() {
        let p = GeoPoint::new(95.0, 0.0);
        assert_eq!(p.lat(), 90.0);
        let p = GeoPoint::new(-100.0, 0.0);
        assert_eq!(p.lat(), -90.0);
        let p = GeoPoint::new(0.0, 190.0);
        assert!((p.lon() - (-170.0)).abs() < 1e-9, "lon = {}", p.lon());
        let p = GeoPoint::new(0.0, -190.0);
        assert!((p.lon() - 170.0).abs() < 1e-9, "lon = {}", p.lon());
    }

    #[test]
    fn distance_to_self_is_zero() {
        let athens = GeoPoint::new(37.9838, 23.7275);
        assert_eq!(athens.distance_km(&athens), 0.0);
    }

    #[test]
    fn known_city_distance() {
        // Athens ↔ Thessaloniki ≈ 300 km great-circle.
        let athens = GeoPoint::new(37.9838, 23.7275);
        let thessaloniki = GeoPoint::new(40.6401, 22.9444);
        let d = athens.distance_km(&thessaloniki);
        assert!((d - 300.0).abs() < 10.0, "distance {d} km");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(10.0, 20.0);
        let b = GeoPoint::new(-33.0, 151.0);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        // b wraps to exactly -180 which is the same meridian.
        assert!((a.distance_km(&b) - half).abs() < 1.0);
    }

    #[test]
    fn one_degree_longitude_at_equator() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0);
        let d = a.distance_km(&b);
        assert!((d - 111.19).abs() < 0.5, "distance {d}");
    }

    #[test]
    fn triangle_inequality_samples() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut point = || GeoPoint::new(rng.gen_range(-60.0..60.0), rng.gen_range(-170.0..170.0));
        for _ in 0..200 {
            let (p1, p2, p3) = (point(), point(), point());
            let d12 = p1.distance_km(&p2);
            let d23 = p2.distance_km(&p3);
            let d13 = p1.distance_km(&p3);
            assert!(d13 <= d12 + d23 + 1e-6);
        }
    }

    #[test]
    fn display_formats_coordinates() {
        let p = GeoPoint::new(37.9838, 23.7275);
        assert_eq!(p.to_string(), "(37.98380, 23.72750)");
    }
}
