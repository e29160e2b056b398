//! Non-overlapping grid decomposition of a bounding box.

use crate::region::BoundingBox;

/// Identifier of a region within a [`RegionGrid`] (row-major index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// A `rows × cols` partition of a bounding box into equal half-open cells.
///
/// This is the paper's Sec. III-A decomposition: each cell is the
/// responsibility of one REACT server ([`crate::RegionRouter`] maps a
/// point to it).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionGrid {
    area: BoundingBox,
    rows: u32,
    cols: u32,
}

impl RegionGrid {
    /// Creates the grid. Returns `None` when `rows` or `cols` is zero.
    pub fn new(area: BoundingBox, rows: u32, cols: u32) -> Option<Self> {
        if rows == 0 || cols == 0 {
            return None;
        }
        Some(RegionGrid { area, rows, cols })
    }

    /// Total number of regions.
    pub fn len(&self) -> usize {
        (self.rows * self.cols) as usize
    }

    /// Always false — a grid has ≥ 1 cell by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The bounding box of a region id; `None` for out-of-range ids.
    pub fn cell(&self, id: RegionId) -> Option<BoundingBox> {
        if id.0 >= self.rows * self.cols {
            return None;
        }
        let row = id.0 / self.cols;
        let col = id.0 % self.cols;
        let lat_w = self.area.lat_span() / self.rows as f64;
        let lon_w = self.area.lon_span() / self.cols as f64;
        BoundingBox::new(
            self.area.lat_min() + row as f64 * lat_w,
            self.area.lat_min() + (row + 1) as f64 * lat_w,
            self.area.lon_min() + col as f64 * lon_w,
            self.area.lon_min() + (col + 1) as f64 * lon_w,
        )
    }

    /// Iterates over all region ids in row-major order.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> {
        (0..self.rows * self.cols).map(RegionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid() -> RegionGrid {
        let area = BoundingBox::new(0.0, 4.0, 0.0, 8.0).unwrap();
        RegionGrid::new(area, 2, 4).unwrap()
    }

    #[test]
    fn rejects_zero_dimensions() {
        let area = BoundingBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
        assert!(RegionGrid::new(area, 0, 3).is_none());
        assert!(RegionGrid::new(area, 3, 0).is_none());
    }

    #[test]
    fn cells_are_row_major() {
        let g = grid();
        assert_eq!(g.len(), 8);
        let corner = |id| {
            let c = g.cell(RegionId(id)).unwrap();
            (c.lat_min(), c.lon_min())
        };
        // Bottom-left, bottom-right (col 3), top-left (row 1 → id 4).
        assert_eq!(corner(0), (0.0, 0.0));
        assert_eq!(corner(3), (0.0, 6.0));
        assert_eq!(corner(4), (2.0, 0.0));
    }

    #[test]
    fn cells_partition_area() {
        let g = grid();
        let area = BoundingBox::new(0.0, 4.0, 0.0, 8.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..2000 {
            let p = area.random_point(&mut rng);
            let owners = g
                .region_ids()
                .filter(|&id| g.cell(id).unwrap().contains(&p))
                .count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn cell_out_of_range() {
        let g = grid();
        assert!(g.cell(RegionId(8)).is_none());
        assert!(g.cell(RegionId(0)).is_some());
    }

    #[test]
    fn single_cell_grid() {
        let area = BoundingBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
        let g = RegionGrid::new(area, 1, 1).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.cell(RegionId(0)), Some(area));
    }

    #[test]
    fn region_id_display() {
        assert_eq!(RegionId(3).to_string(), "region#3");
    }
}
