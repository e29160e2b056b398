//! Property tests for the event queue, the RNG streams and the spatial
//! substrate.

use proptest::prelude::*;
use react::geo::{BoundingBox, GeoPoint, RegionGrid, RegionId, RegionRouter};
use react::sim::{EventQueue, RngStreams, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events pushed at arbitrary instants pop in time order, every one
    /// of them, and `peek_time` names the instant the next `pop` returns.
    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(
        times in proptest::collection::vec(0.0f64..1e6, 1..200)
    ) {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(SimTime::from_secs(t), i);
        }
        let mut last = 0.0;
        let mut popped = 0;
        while let Some(peeked) = queue.peek_time() {
            let (at, _) = queue.pop().expect("a peeked event pops");
            prop_assert_eq!(at, peeked);
            prop_assert!(at.as_secs() >= last);
            last = at.as_secs();
            popped += 1;
        }
        prop_assert!(queue.pop().is_none());
        prop_assert_eq!(popped, times.len());
    }

    /// Events at one instant pop in the order they were pushed, however
    /// pushes at other instants and pops interleave with them.
    #[test]
    fn simultaneous_events_preserve_fifo(
        ops in proptest::collection::vec((0u8..4, any::<bool>()), 1..200)
    ) {
        let mut queue = EventQueue::new();
        let mut popped: Vec<(u8, usize)> = Vec::new();
        for (i, &(slot, pop)) in ops.iter().enumerate() {
            queue.push(SimTime::from_secs(f64::from(slot)), (slot, i));
            if pop {
                let peeked = queue.peek().map(|(at, &e)| (at, e));
                let (at, e) = queue.pop().expect("just pushed");
                prop_assert_eq!(peeked, Some((at, e)));
                popped.push(e);
            }
        }
        while let Some((_, e)) = queue.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), ops.len());
        for slot in 0..4u8 {
            let order: Vec<usize> =
                popped.iter().filter(|e| e.0 == slot).map(|e| e.1).collect();
            prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "slot {}: {:?}", slot, order);
        }
    }

    #[test]
    fn rng_streams_reproducible_and_label_sensitive(seed in any::<u64>()) {
        use rand::Rng;
        let streams = RngStreams::new(seed);
        let a: Vec<u64> = {
            let mut r = streams.stream("alpha");
            (0..8).map(|_| r.gen()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = streams.stream("alpha");
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = streams.stream("beta");
            (0..8).map(|_| r.gen()).collect()
        };
        prop_assert_eq!(&a, &a2);
        prop_assert_ne!(&a, &b);
    }

    #[test]
    fn grid_locate_is_the_inverse_of_cell(
        rows in 1u32..12, cols in 1u32..12,
        lat in 0.0f64..0.999, lon in 0.0f64..0.999,
    ) {
        let area = BoundingBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
        let grid = RegionGrid::new(area, rows, cols).unwrap();
        let p = GeoPoint::new(lat, lon);
        // Before any split, server `i` owns region `i`.
        let server = RegionRouter::new(&grid, u64::MAX).route(&p).expect("inside the area");
        let cell = grid.cell(RegionId(server.0)).expect("valid id");
        prop_assert!(cell.contains(&p));
        // And the point belongs to exactly one cell.
        let owners = grid
            .region_ids()
            .filter(|&r| grid.cell(r).unwrap().contains(&p))
            .count();
        prop_assert_eq!(owners, 1);
    }

    #[test]
    fn router_always_routes_interior_points(
        rows in 1u32..6, cols in 1u32..6,
        points in proptest::collection::vec((0.0f64..0.999, 0.0f64..0.999), 1..50),
    ) {
        let area = BoundingBox::new(0.0, 1.0, 0.0, 1.0).unwrap();
        let grid = RegionGrid::new(area, rows, cols).unwrap();
        let mut router = RegionRouter::new(&grid, 10);
        for &(lat, lon) in &points {
            let p = GeoPoint::new(lat, lon);
            prop_assert!(router.register(&p).is_some());
        }
        // Splitting never loses coverage.
        router.split_overloaded();
        for &(lat, lon) in &points {
            let p = GeoPoint::new(lat, lon);
            prop_assert!(router.route(&p).is_some());
        }
    }

    #[test]
    fn haversine_is_a_metric_sample(
        lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let d = a.distance_km(&b);
        prop_assert!(d >= 0.0);
        prop_assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
        prop_assert!(a.distance_km(&a) < 1e-9);
        // Never more than half the Earth's circumference.
        prop_assert!(d <= std::f64::consts::PI * react::geo::EARTH_RADIUS_KM + 1.0);
    }
}
