//! Braid routing for surface-code (FT) machines.
//!
//! On a braided surface-code architecture, a two-qubit gate is realized
//! by a braid: a path through the routing channels between the two
//! logical qubits. A braid of *any length* completes in constant time,
//! but two braids may not cross (Section II-C1). When a requested braid
//! conflicts with ongoing braids, it queues until its route clears —
//! this queuing is the FT communication cost, and the average number of
//! conflicts per gate is the `S` factor CER uses on FT machines
//! (Section IV-D).
//!
//! Model: logical qubits sit on integer grid points; a braid occupies
//! every tile (lattice point) along an L-shaped route between its
//! endpoints. Two braids whose time windows overlap conflict iff their
//! routes share a tile — this captures both channel contention and
//! perpendicular crossings, abstracting the braid-spacing rules of
//! \[37\] at one-tile granularity. Both L-orientations are tried and the
//! one that starts earlier (fewest conflicts on a tie) wins.
//!
//! A route is stored as its two straight legs, each an inclusive
//! axis-aligned tile box meeting the other at the corner. The tiles of
//! an axis-aligned lattice segment are exactly the lattice points of
//! its bounding box, so two legs share a tile iff their boxes overlap
//! in both x and y: the conflict test is four comparisons per leg
//! pair, with no tile set built.

/// A tile (lattice point) on the braid routing plane.
pub type Tile = (i32, i32);

/// One straight leg of an L-route: the inclusive tile box
/// `x0..=x1 × y0..=y1`, degenerate in at least one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leg {
    x0: i32,
    x1: i32,
    y0: i32,
    y1: i32,
}

impl Leg {
    /// The leg between two tiles on a common row or column.
    fn between(a: Tile, b: Tile) -> Leg {
        Leg {
            x0: a.0.min(b.0),
            x1: a.0.max(b.0),
            y0: a.1.min(b.1),
            y1: a.1.max(b.1),
        }
    }

    /// Whether the two legs share a tile.
    fn meets(&self, other: &Leg) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }
}

/// The two legs of an L-shaped route from `a` to `b`. `x_first`
/// selects the orientation: walk x then y (corner `(b.x, a.y)`), or y
/// then x (corner `(a.x, b.y)`).
fn l_route(a: Tile, b: Tile, x_first: bool) -> [Leg; 2] {
    let corner = if x_first { (b.0, a.1) } else { (a.0, b.1) };
    [Leg::between(a, corner), Leg::between(corner, b)]
}

/// Whether two L-routes share a tile.
fn routes_cross(r: &[Leg; 2], s: &[Leg; 2]) -> bool {
    r.iter().any(|leg| s.iter().any(|other| leg.meets(other)))
}

#[derive(Debug, Clone)]
struct ActiveBraid {
    start: u64,
    end: u64,
    legs: [Leg; 2],
}

/// Tracks braids in flight and finds conflict-free start slots.
#[derive(Debug, Clone, Default)]
pub struct BraidField {
    active: Vec<ActiveBraid>,
    braids: u64,
    conflicts: u64,
}

impl BraidField {
    /// Creates an empty braid field.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total conflicts encountered (each ongoing braid that forced a
    /// delay counts once per attempt).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Average conflicts per braid — the FT communication factor `S`.
    pub fn avg_conflicts(&self) -> f64 {
        if self.braids == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.braids as f64
        }
    }

    /// Finds the earliest start ≥ `ready` at which a braid over `legs`
    /// can run for `dur` cycles without crossing any ongoing braid,
    /// counting the conflicts that forced delays.
    fn earliest_slot(&self, ready: u64, legs: &[Leg; 2], dur: u64) -> (u64, u64) {
        let mut start = ready;
        let mut conflicts = 0u64;
        loop {
            let window_end = start + dur;
            let mut blocker_end: Option<u64> = None;
            for b in &self.active {
                if b.start < window_end && start < b.end && routes_cross(&b.legs, legs) {
                    blocker_end = Some(match blocker_end {
                        None => b.end,
                        Some(e) => e.min(b.end),
                    });
                    conflicts += 1;
                }
            }
            match blocker_end {
                None => return (start, conflicts),
                Some(e) => start = e.max(start + 1),
            }
        }
    }

    /// Routes a braid between tiles `a` and `b`, trying both
    /// L-orientations, starting no earlier than `ready`, lasting `dur`
    /// cycles. Commits the braid and returns its start time.
    ///
    /// Known defect: braids that ended by *this* call's `ready` are
    /// pruned, but `ready` is the operands' ASAP time and is not
    /// monotone across calls. A later braid with an earlier `ready`
    /// can therefore be scheduled across a pruned braid that was still
    /// running then. `SHA2/square/ft` commits 8,172 of its 19,712
    /// braids across such a time-overlapping braid; without pruning its
    /// `comm_factor` would be 2.146 instead of 0.028. ROADMAP tracks
    /// the fix, which moves every FT fingerprint.
    pub fn route(&mut self, a: Tile, b: Tile, ready: u64, dur: u64) -> u64 {
        // Braids that ended by `ready` can never conflict again.
        self.active.retain(|br| br.end > ready);

        let mut best: Option<(u64, u64, [Leg; 2])> = None;
        for x_first in [true, false] {
            let legs = l_route(a, b, x_first);
            let (start, conflicts) = self.earliest_slot(ready, &legs, dur);
            let better = match &best {
                None => true,
                Some((bs, bc, _)) => start < *bs || (start == *bs && conflicts < *bc),
            };
            if better {
                best = Some((start, conflicts, legs));
            }
        }
        let (start, conflicts, legs) = best.expect("at least one orientation");
        self.braids += 1;
        self.conflicts += conflicts;
        self.active.push(ActiveBraid {
            start,
            end: start + dur,
            legs,
        });
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix;
    use std::collections::HashSet;

    /// The tiles of an L-shaped route from `a` to `b`, inclusive,
    /// walked one step at a time: the reference for the leg boxes.
    fn l_path_tiles(a: Tile, b: Tile, x_first: bool) -> Vec<Tile> {
        let mut tiles = vec![a];
        let (mut x, mut y) = a;
        if x_first {
            while x != b.0 {
                x += (b.0 - x).signum();
                tiles.push((x, y));
            }
            while y != b.1 {
                y += (b.1 - y).signum();
                tiles.push((x, y));
            }
        } else {
            while y != b.1 {
                y += (b.1 - y).signum();
                tiles.push((x, y));
            }
            while x != b.0 {
                x += (b.0 - x).signum();
                tiles.push((x, y));
            }
        }
        tiles
    }

    /// Reference model for [`BraidField`]: the same field with each
    /// route held as its walked tile set and crossings tested with
    /// `is_disjoint`.
    #[derive(Default)]
    struct TileSetField {
        active: Vec<(u64, u64, HashSet<Tile>)>,
        braids: u64,
        conflicts: u64,
    }

    impl TileSetField {
        fn earliest_slot(&self, ready: u64, tiles: &HashSet<Tile>, dur: u64) -> (u64, u64) {
            let mut start = ready;
            let mut conflicts = 0u64;
            loop {
                let window_end = start + dur;
                let mut blocker_end: Option<u64> = None;
                for (bs, be, bt) in &self.active {
                    if *bs < window_end && start < *be && !bt.is_disjoint(tiles) {
                        blocker_end = Some(blocker_end.map_or(*be, |e| e.min(*be)));
                        conflicts += 1;
                    }
                }
                match blocker_end {
                    None => return (start, conflicts),
                    Some(e) => start = e.max(start + 1),
                }
            }
        }

        fn route(&mut self, a: Tile, b: Tile, ready: u64, dur: u64) -> (u64, u64) {
            self.active.retain(|(_, end, _)| *end > ready);
            let mut best: Option<(u64, u64, HashSet<Tile>)> = None;
            for x_first in [true, false] {
                let set: HashSet<Tile> = l_path_tiles(a, b, x_first).into_iter().collect();
                let (start, conflicts) = self.earliest_slot(ready, &set, dur);
                let better = match &best {
                    None => true,
                    Some((bs, bc, _)) => start < *bs || (start == *bs && conflicts < *bc),
                };
                if better {
                    best = Some((start, conflicts, set));
                }
            }
            let (start, conflicts, set) = best.expect("at least one orientation");
            self.braids += 1;
            self.conflicts += conflicts;
            self.active.push((start, start + dur, set));
            (start, conflicts)
        }

        fn avg_conflicts(&self) -> f64 {
            if self.braids == 0 {
                0.0
            } else {
                self.conflicts as f64 / self.braids as f64
            }
        }
    }

    #[test]
    fn l_path_has_manhattan_tile_count() {
        let t = l_path_tiles((0, 0), (3, 2), true);
        assert_eq!(t.len(), 6, "5 steps + origin");
        let t2 = l_path_tiles((0, 0), (3, 2), false);
        assert_eq!(t2.len(), 6);
        assert_ne!(
            t.iter().collect::<HashSet<_>>(),
            t2.iter().collect::<HashSet<_>>(),
            "orientations differ"
        );
    }

    #[test]
    fn zero_length_braid_for_same_point() {
        assert_eq!(l_path_tiles((2, 2), (2, 2), true), vec![(2, 2)]);
        assert_eq!(
            l_route((2, 2), (2, 2), true),
            [Leg::between((2, 2), (2, 2)); 2]
        );
    }

    /// Every L-route with endpoints in a 5×5 box, both orientations,
    /// against every other: the leg test agrees with intersecting the
    /// walked tile sets. Covers `a == b`, shared rows and columns, and
    /// routes that touch only at a corner.
    #[test]
    fn leg_test_equals_tile_set_intersection_exhaustively() {
        const SIDE: i32 = 5;
        let mask = |tiles: Vec<Tile>| -> u32 {
            tiles.iter().fold(0, |m, &(x, y)| m | 1 << (y * SIDE + x))
        };
        let points: Vec<Tile> = (0..SIDE)
            .flat_map(|y| (0..SIDE).map(move |x| (x, y)))
            .collect();
        let mut routes = Vec::new();
        for &a in &points {
            for &b in &points {
                for x_first in [true, false] {
                    routes.push((l_route(a, b, x_first), mask(l_path_tiles(a, b, x_first))));
                }
            }
        }
        assert_eq!(routes.len(), 25 * 25 * 2);
        let mut crossing = 0u64;
        for (legs, tiles) in &routes {
            for (other_legs, other_tiles) in &routes {
                let by_tiles = tiles & other_tiles != 0;
                assert_eq!(routes_cross(legs, other_legs), by_tiles);
                crossing += u64::from(by_tiles);
            }
        }
        assert!(crossing > 0 && crossing < (routes.len() * routes.len()) as u64);
    }

    /// A seeded stream of braids with random endpoints on a 16×16
    /// plane, non-monotone `ready` and `dur ∈ {1, 2, 3}` commits the
    /// same `(start, conflicts)` per braid in the leg field as in the
    /// tile-set reference.
    #[test]
    fn leg_field_matches_tile_set_reference_on_a_seeded_stream() {
        let mut rng = SplitMix(0x5eed_b4a1d);
        let mut field = BraidField::new();
        let mut reference = TileSetField::default();
        let mut clock = 0u64;
        let mut delayed = 0;
        for i in 0..20_000 {
            let mut tile = || (rng.below(16) as i32, rng.below(16) as i32);
            let (a, b) = (tile(), tile());
            // Drift forward, but let a quarter of the braids be ready
            // before braids already committed.
            clock += rng.below(3);
            let ready = if rng.below(4) == 0 {
                clock.saturating_sub(rng.below(8))
            } else {
                clock
            };
            let dur = 1 + rng.below(3);
            let before = field.conflicts();
            let start = field.route(a, b, ready, dur);
            let want = reference.route(a, b, ready, dur);
            assert_eq!(
                (start, field.conflicts() - before),
                want,
                "braid {i}: {a:?} -> {b:?} ready {ready} dur {dur}"
            );
            delayed += usize::from(start > ready);
        }
        assert!(delayed > 1_000, "the stream exercises queuing");
        assert_eq!(field.avg_conflicts(), reference.avg_conflicts());
    }

    #[test]
    fn disjoint_braids_run_concurrently() {
        let mut f = BraidField::new();
        let s1 = f.route((0, 0), (0, 3), 0, 1);
        let s2 = f.route((5, 0), (5, 3), 0, 1);
        assert_eq!(s1, 0);
        assert_eq!(s2, 0, "no shared tiles, no queuing");
        assert_eq!(f.conflicts(), 0);
    }

    #[test]
    fn crossing_braids_serialize() {
        let mut f = BraidField::new();
        // Horizontal braid across x = 0..4 at y = 1.
        let s1 = f.route((0, 1), (4, 1), 0, 1);
        // Vertical braid across y = 0..3 at x = 2 crosses it at (2,1)
        // in either orientation.
        let s2 = f.route((2, 0), (2, 3), 0, 1);
        assert_eq!(s1, 0);
        assert!(s2 >= 1, "queued behind the crossing braid");
        assert!(f.conflicts() >= 1);
    }

    #[test]
    fn alternative_orientation_avoids_conflict() {
        let mut f = BraidField::new();
        // Long-lived horizontal braid over (1,0)..(3,0).
        f.route((1, 0), (3, 0), 0, 8);
        // (0,0) -> (3,3): x-first runs straight through the busy row;
        // y-first goes up column x=0 then across y=3, conflict-free.
        let s = f.route((0, 0), (3, 3), 0, 1);
        assert_eq!(s, 0, "y-first orientation is free");
    }

    #[test]
    fn conflicts_accumulate_into_average() {
        let mut f = BraidField::new();
        f.route((0, 1), (4, 1), 0, 10);
        let s = f.route((2, 0), (2, 3), 0, 1); // crosses; queues to t=10
        assert_eq!(s, 10);
        assert!(f.avg_conflicts() > 0.0);
    }

    #[test]
    fn braids_after_expiry_do_not_conflict() {
        let mut f = BraidField::new();
        f.route((0, 1), (4, 1), 0, 2);
        // Ready at t=5: the old braid expired, no queuing.
        let s = f.route((2, 0), (2, 3), 5, 1);
        assert_eq!(s, 5);
        assert_eq!(f.conflicts(), 0);
    }
}
