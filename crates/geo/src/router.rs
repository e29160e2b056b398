//! Point→server routing with overload-driven region splitting.
//!
//! Each region of the finest grid is assigned to a REACT server. The
//! router counts the registrations routed into each region (projected
//! members: workers and open tasks) and, mirroring the paper's
//! conclusion that *"one possible solution ... is to split the regions
//! so that each of the servers would contain sufficient workers and
//! tasks without being overloaded"*, can split a hot region's cell into
//! four sub-cells served by new servers.

use crate::coords::GeoPoint;
use crate::grid::RegionGrid;
use crate::region::BoundingBox;

/// Identifier of a REACT server.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server#{}", self.0)
    }
}

/// One routable cell: a bounding box owned by a server, with a
/// registration count.
#[derive(Debug, Clone)]
struct Cell {
    bounds: BoundingBox,
    server: ServerId,
    load: u64,
    /// Indices of child cells after a split (empty while this cell is a
    /// leaf). A split cell stops routing and delegates to its children.
    children: Vec<usize>,
}

/// Routes points to servers over a (possibly split) region decomposition.
#[derive(Debug, Clone)]
pub struct RegionRouter {
    cells: Vec<Cell>,
    /// Root cells, one per finest-grid region.
    roots: Vec<usize>,
    next_server: u32,
    /// Load at which [`RegionRouter::split_overloaded`] subdivides a cell.
    split_threshold: u64,
}

impl RegionRouter {
    /// Builds a router over the finest tier of `grid`, assigning servers
    /// `0..n_regions` to its cells. `split_threshold` is the registration
    /// count that marks a region as overloaded.
    pub fn new(grid: &RegionGrid, split_threshold: u64) -> Self {
        let mut cells = Vec::with_capacity(grid.len());
        let mut roots = Vec::with_capacity(grid.len());
        for (i, id) in grid.region_ids().enumerate() {
            let bounds = grid.cell(id).expect("id from region_ids is valid");
            cells.push(Cell {
                bounds,
                server: ServerId(i as u32),
                load: 0,
                children: Vec::new(),
            });
            roots.push(i);
        }
        let next_server = cells.len() as u32;
        RegionRouter {
            cells,
            roots,
            next_server,
            split_threshold,
        }
    }

    /// Total number of leaf cells (= active servers).
    pub fn server_count(&self) -> usize {
        self.cells.iter().filter(|c| c.children.is_empty()).count()
    }

    /// Routes a point to the leaf cell containing it and returns the
    /// owning server without mutating load. `None` outside the area.
    pub fn route(&self, p: &GeoPoint) -> Option<ServerId> {
        let mut idx = *self
            .roots
            .iter()
            .find(|&&i| self.cells[i].bounds.contains(p))?;
        loop {
            let cell = &self.cells[idx];
            if cell.children.is_empty() {
                return Some(cell.server);
            }
            idx = *cell
                .children
                .iter()
                .find(|&&c| self.cells[c].bounds.contains(p))
                .expect("children partition the parent cell");
        }
    }

    /// Routes a point and records one registration against the chosen
    /// cell's load.
    pub fn register(&mut self, p: &GeoPoint) -> Option<ServerId> {
        let server = self.route(p)?;
        if let Some(cell) = self
            .cells
            .iter_mut()
            .find(|c| c.children.is_empty() && c.server == server)
        {
            cell.load += 1;
        }
        Some(server)
    }

    /// Current load of a server's cell (0 for unknown servers).
    pub fn load(&self, server: ServerId) -> u64 {
        self.cells
            .iter()
            .find(|c| c.children.is_empty() && c.server == server)
            .map_or(0, |c| c.load)
    }

    /// All leaf servers (= active shards), in cell-creation order. Roots
    /// come first in row-major grid order, then split children in the
    /// order the splits happened — a deterministic enumeration.
    pub fn leaves(&self) -> Vec<ServerId> {
        self.cells
            .iter()
            .filter(|c| c.children.is_empty())
            .map(|c| c.server)
            .collect()
    }

    /// The bounding box owned by `server`, if it is a live leaf.
    pub fn bounds(&self, server: ServerId) -> Option<BoundingBox> {
        self.cells
            .iter()
            .find(|c| c.children.is_empty() && c.server == server)
            .map(|c| c.bounds)
    }

    /// Leaf cells edge-adjacent to `server`'s cell, in leaf enumeration
    /// order (none for an unknown server). Two cells are neighbours when
    /// they share a boundary edge of positive length (corner contact does
    /// not count). Works across split levels: a root cell can neighbour
    /// the child of a split cell.
    pub fn neighbors(&self, server: ServerId) -> impl Iterator<Item = ServerId> + '_ {
        let own = self.bounds(server);
        self.cells
            .iter()
            .filter(move |c| c.children.is_empty() && c.server != server)
            .filter(move |c| own.is_some_and(|own| boxes_edge_adjacent(&own, &c.bounds)))
            .map(|c| c.server)
    }

    /// Splits every leaf cell whose load is at/above the threshold into
    /// four quadrants served by fresh servers (the parent's load is
    /// spread evenly as an estimate until members re-register). Returns
    /// the list of `(old_server, new_servers)` splits performed.
    pub fn split_overloaded(&mut self) -> Vec<(ServerId, [ServerId; 4])> {
        let mut result = Vec::new();
        let overloaded: Vec<usize> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.children.is_empty() && c.load >= self.split_threshold)
            .map(|(i, _)| i)
            .collect();
        for idx in overloaded {
            let quads = self.cells[idx].bounds.split4();
            let share = self.cells[idx].load / 4;
            let mut new_servers = [ServerId(0); 4];
            let mut children = Vec::with_capacity(4);
            for (q, bounds) in quads.into_iter().enumerate() {
                let server = ServerId(self.next_server);
                self.next_server += 1;
                new_servers[q] = server;
                children.push(self.cells.len());
                self.cells.push(Cell {
                    bounds,
                    server,
                    load: share,
                    children: Vec::new(),
                });
            }
            let old = self.cells[idx].server;
            self.cells[idx].children = children;
            self.cells[idx].load = 0;
            result.push((old, new_servers));
        }
        result
    }
}

/// True when `a` and `b` share a boundary edge of positive length.
///
/// Cells come from recursive binary midpoint splits of grid cells, so
/// matching edges are computed from the same arithmetic — but we still
/// compare with a span-scaled tolerance rather than exact equality to be
/// robust against the one-ulp drift the midpoint computation can
/// introduce at deep split levels.
fn boxes_edge_adjacent(a: &BoundingBox, b: &BoundingBox) -> bool {
    let eps = 1e-9 * (a.lat_span() + a.lon_span() + b.lat_span() + b.lon_span());
    let lat_overlap = a.lat_min() < b.lat_max() - eps && b.lat_min() < a.lat_max() - eps;
    let lon_overlap = a.lon_min() < b.lon_max() - eps && b.lon_min() < a.lon_max() - eps;
    let lat_touch =
        (a.lat_max() - b.lat_min()).abs() <= eps || (b.lat_max() - a.lat_min()).abs() <= eps;
    let lon_touch =
        (a.lon_max() - b.lon_min()).abs() <= eps || (b.lon_max() - a.lon_min()).abs() <= eps;
    (lat_touch && lon_overlap) || (lon_touch && lat_overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn router() -> RegionRouter {
        let area = BoundingBox::new(0.0, 4.0, 0.0, 4.0).unwrap();
        let grid = RegionGrid::new(area, 2, 2).unwrap();
        RegionRouter::new(&grid, 10)
    }

    #[test]
    fn routes_each_region_to_distinct_server() {
        let r = router();
        assert_eq!(r.server_count(), 4);
        let s00 = r.route(&GeoPoint::new(0.5, 0.5)).unwrap();
        let s01 = r.route(&GeoPoint::new(0.5, 2.5)).unwrap();
        let s10 = r.route(&GeoPoint::new(2.5, 0.5)).unwrap();
        let s11 = r.route(&GeoPoint::new(2.5, 2.5)).unwrap();
        let mut all = vec![s00, s01, s10, s11];
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4);
        assert_eq!(r.route(&GeoPoint::new(9.0, 9.0)), None);
    }

    #[test]
    fn register_counts_load() {
        let mut r = router();
        let p = GeoPoint::new(0.5, 0.5);
        let s = r.register(&p).unwrap();
        r.register(&p).unwrap();
        assert_eq!(r.load(s), 2);
        assert_eq!(r.load(ServerId(3)), 0);
        assert_eq!(r.load(ServerId(99)), 0, "unknown server");
    }

    #[test]
    fn split_overloaded_subdivides() {
        let mut r = router();
        let p = GeoPoint::new(0.5, 0.5);
        let hot = r.register(&p).unwrap();
        for _ in 0..11 {
            r.register(&p).unwrap();
        }
        let splits = r.split_overloaded();
        assert_eq!(splits.len(), 1);
        assert_eq!(splits[0].0, hot);
        // 4 original leaves − 1 split + 4 children = 7 leaves.
        assert_eq!(r.server_count(), 7);
        // The point now routes to one of the new child servers.
        let new = r.route(&p).unwrap();
        assert!(splits[0].1.contains(&new));
        assert_ne!(new, hot);
        // Other regions unaffected.
        let other = r.route(&GeoPoint::new(2.5, 2.5)).unwrap();
        assert_eq!(other, ServerId(3));
    }

    #[test]
    fn split_spreads_load_estimate() {
        let mut r = router();
        let p = GeoPoint::new(0.5, 0.5);
        for _ in 0..12 {
            r.register(&p).unwrap();
        }
        let splits = r.split_overloaded();
        for s in &splits[0].1 {
            assert_eq!(r.load(*s), 3);
        }
    }

    #[test]
    fn no_split_below_threshold() {
        let mut r = router();
        r.register(&GeoPoint::new(0.5, 0.5)).unwrap();
        assert!(r.split_overloaded().is_empty());
        assert_eq!(r.server_count(), 4);
    }

    #[test]
    fn children_partition_split_cell() {
        let mut r = router();
        let p = GeoPoint::new(0.5, 0.5);
        for _ in 0..10 {
            r.register(&p).unwrap();
        }
        r.split_overloaded();
        // All points in the original cell still route somewhere.
        let mut rng = SmallRng::seed_from_u64(5);
        let cell = BoundingBox::new(0.0, 2.0, 0.0, 2.0).unwrap();
        for _ in 0..1000 {
            let q = cell.random_point(&mut rng);
            assert!(r.route(&q).is_some());
        }
    }

    #[test]
    fn recursive_split() {
        let mut r = router();
        let p = GeoPoint::new(0.5, 0.5);
        for _ in 0..10 {
            r.register(&p).unwrap();
        }
        r.split_overloaded();
        // Overload one of the children and split again.
        let child = r.route(&p).unwrap();
        for _ in 0..10 {
            r.register(&p).unwrap();
        }
        assert!(r.load(child) >= 10);
        let splits = r.split_overloaded();
        assert!(splits.iter().any(|(old, _)| *old == child));
        assert!(r.route(&p).is_some());
    }

    #[test]
    fn server_id_display() {
        assert_eq!(ServerId(7).to_string(), "server#7");
    }

    #[test]
    fn leaves_and_bounds_enumerate_live_cells() {
        let mut r = router();
        assert_eq!(
            r.leaves(),
            vec![ServerId(0), ServerId(1), ServerId(2), ServerId(3)]
        );
        let b0 = r.bounds(ServerId(0)).unwrap();
        assert!(b0.contains(&GeoPoint::new(0.5, 0.5)));
        // Split server 0; its bounds disappear and four children appear.
        let p = GeoPoint::new(0.5, 0.5);
        for _ in 0..10 {
            r.register(&p).unwrap();
        }
        let splits = r.split_overloaded();
        assert!(r.bounds(ServerId(0)).is_none());
        let leaves = r.leaves();
        assert_eq!(leaves.len(), 7);
        assert!(!leaves.contains(&ServerId(0)));
        for child in &splits[0].1 {
            assert!(leaves.contains(child));
        }
    }

    #[test]
    fn neighbors_on_uniform_grid() {
        // 2×2 grid: each cell neighbours the two orthogonally adjacent
        // cells, never the diagonal one (corner contact only).
        let r = router();
        let neighbors = |s| {
            let mut n: Vec<ServerId> = r.neighbors(s).collect();
            n.sort();
            n
        };
        assert_eq!(neighbors(ServerId(0)), vec![ServerId(1), ServerId(2)]);
        assert_eq!(neighbors(ServerId(3)), vec![ServerId(1), ServerId(2)]);
        assert!(neighbors(ServerId(99)).is_empty());
    }

    #[test]
    fn neighbors_cross_split_levels() {
        let mut r = router();
        let p = GeoPoint::new(0.5, 0.5);
        for _ in 0..10 {
            r.register(&p).unwrap();
        }
        let splits = r.split_overloaded();
        let children = splits[0].1; // [lat-low/lon-low, lat-low/lon-high,
                                    //  lat-high/lon-low, lat-high/lon-high]
                                    // The lat-high/lon-high child touches both unsplit root cells 1
                                    // (lon-high) and 2 (lat-high), plus its two sibling quadrants.
        let mut n: Vec<ServerId> = r.neighbors(children[3]).collect();
        n.sort();
        assert_eq!(n, vec![ServerId(1), ServerId(2), children[1], children[2]]);
        // Root cell 1 now sees the two lon-high children instead of the
        // split parent, and still sees the diagonal-free root 3.
        let n: Vec<ServerId> = r.neighbors(ServerId(1)).collect();
        assert!(n.contains(&children[1]) && n.contains(&children[3]));
        assert!(n.contains(&ServerId(3)));
        assert!(!n.contains(&ServerId(0)), "split parent no longer routes");
        assert!(!n.contains(&children[0]), "corner contact only");
    }
}
