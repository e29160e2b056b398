//! Spatial substrate for the REACT middleware.
//!
//! The paper assumes *"a spatial decomposition of the geographic area into
//! a number of non-overlapping regions"*, each owned by one REACT server,
//! with tasks and workers registered to the server of the region that
//! contains them. The paper's future-work section also proposes
//! *splitting* overloaded regions. (Its *"several tiers at different
//! levels of granularity"* are not modelled: the router splits cells
//! itself and nothing aggregates across tiers.)
//!
//! This crate implements that:
//!
//! * [`GeoPoint`] — WGS-84 coordinates with haversine great-circle
//!   distance (used by the optional distance-based weight function).
//! * [`BoundingBox`] — rectangular lat/lon regions.
//! * [`RegionGrid`] — a non-overlapping `rows × cols` decomposition of a
//!   bounding box with O(1) point→region lookup.
//! * [`RegionRouter`] — point→server routing with per-region load counts
//!   and overload-driven region splitting.

#![warn(missing_docs)]

pub mod coords;
pub mod grid;
pub mod region;
pub mod router;

pub use coords::{haversine_km, GeoPoint, EARTH_RADIUS_KM};
pub use grid::{RegionGrid, RegionId};
pub use region::BoundingBox;
pub use router::{RegionRouter, ServerId};
