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
//! tile sets intersect — this captures both channel contention and
//! perpendicular crossings, abstracting the braid-spacing rules of
//! \[37\] at one-tile granularity. Both L-orientations are tried and the
//! one that starts earlier (fewest conflicts on a tie) wins.

use std::collections::HashSet;

/// A tile (lattice point) on the braid routing plane.
pub type Tile = (i32, i32);

/// The tiles of an L-shaped route from `a` to `b`, inclusive.
/// `x_first` selects the orientation (walk x then y, or y then x).
pub fn l_path_tiles(a: Tile, b: Tile, x_first: bool) -> Vec<Tile> {
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

#[derive(Debug, Clone)]
struct ActiveBraid {
    start: u64,
    end: u64,
    tiles: HashSet<Tile>,
}

/// Tracks braids in flight and finds conflict-free start slots.
#[derive(Debug, Clone, Default)]
pub struct BraidField {
    active: Vec<ActiveBraid>,
    braids: u64,
    conflicts: u64,
    length_sum: u64,
}

impl BraidField {
    /// Creates an empty braid field.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of braids committed so far.
    pub fn braids(&self) -> u64 {
        self.braids
    }

    /// Total conflicts encountered (each ongoing braid that forced a
    /// delay counts once per attempt).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Average braid length in tiles traversed.
    pub fn avg_length(&self) -> f64 {
        if self.braids == 0 {
            0.0
        } else {
            self.length_sum as f64 / self.braids as f64
        }
    }

    /// Average conflicts per braid — the FT communication factor `S`.
    pub fn avg_conflicts(&self) -> f64 {
        if self.braids == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.braids as f64
        }
    }

    /// Finds the earliest start ≥ `ready` at which a braid over
    /// `tiles` can run for `dur` cycles without crossing any ongoing
    /// braid, counting the conflicts that forced delays.
    fn earliest_slot(&self, ready: u64, tiles: &HashSet<Tile>, dur: u64) -> (u64, u64) {
        let mut start = ready;
        let mut conflicts = 0u64;
        loop {
            let window_end = start + dur;
            let mut blocker_end: Option<u64> = None;
            for b in &self.active {
                if b.start < window_end && start < b.end && !b.tiles.is_disjoint(tiles) {
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
    pub fn route(&mut self, a: Tile, b: Tile, ready: u64, dur: u64) -> u64 {
        // Braids that ended by `ready` can never conflict again.
        self.active.retain(|br| br.end > ready);

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
        self.length_sum += set.len().saturating_sub(1) as u64;
        self.active.push(ActiveBraid {
            start,
            end: start + dur,
            tiles: set,
        });
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(f.avg_length() > 0.0);
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
