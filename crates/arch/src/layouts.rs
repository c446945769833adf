//! Graph-backed layouts: IBM-style heavy-hex and a 1-D ring.
//!
//! Unlike the closed-form layouts in [`crate::topology`] (grid, full,
//! line), heavy-hex has no analytic distance formula, so it derives
//! its geometry from a [`CouplingGraph`]: per-target BFS distance rows
//! built on demand, next hops read off those rows, and a BFS level
//! walk for ring queries. The ring keeps a graph for its adjacency and
//! embedding but answers every query in closed form.

use crate::coupling::{CouplingGraph, FlatTables};
use crate::topology::{has, PhysId, Topology};

/// IBM-style heavy-hex lattice of distance `d`.
///
/// The construction follows the heavy-hexagon code layout used by
/// IBM's superconducting devices: a `d × d` array of *data* qubits
/// whose rows are chains joined through *flag* qubits (one per
/// horizontal edge — the "heavy" edges), with *syndrome* qubits
/// bridging adjacent rows at alternating columns so the cells tile as
/// hexagons. Every qubit has degree ≤ 3, the defining property that
/// makes heavy-hex routing so much harder than lattice routing.
///
/// Index layout (deterministic): data qubits row-major first, then
/// flag qubits row-major, then syndrome qubits row-major.
#[derive(Debug)]
pub struct HeavyHexTopology {
    d: u32,
    graph: CouplingGraph,
}

impl HeavyHexTopology {
    /// Creates the distance-`d` heavy-hex lattice.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: u32) -> Self {
        assert!(d > 0, "heavy-hex distance must be positive");
        let mut coords: Vec<(i32, i32)> = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let data = |r: u32, c: u32| r * d + c;
        // Data qubits: (r, c) at geometric (2c, 2r).
        for r in 0..d {
            for c in 0..d {
                coords.push((2 * c as i32, 2 * r as i32));
            }
        }
        // Flag qubits: one per horizontal data-data edge ("heavy").
        for r in 0..d {
            for c in 0..d.saturating_sub(1) {
                let flag = coords.len() as u32;
                coords.push((2 * c as i32 + 1, 2 * r as i32));
                edges.push((flag, data(r, c)));
                edges.push((flag, data(r, c + 1)));
            }
        }
        // Syndrome qubits: vertical bridges at alternating columns
        // (column parity tracks row parity, which is what turns the
        // square cells into hexagons).
        for r in 0..d.saturating_sub(1) {
            for c in 0..d {
                if c % 2 != r % 2 {
                    continue;
                }
                let syn = coords.len() as u32;
                coords.push((2 * c as i32, 2 * r as i32 + 1));
                edges.push((syn, data(r, c)));
                edges.push((syn, data(r + 1, c)));
            }
        }
        HeavyHexTopology {
            d,
            graph: CouplingGraph::new(coords, &edges),
        }
    }

    /// The smallest heavy-hex lattice (odd `d`, the code-distance
    /// convention) holding at least `n` qubits.
    pub fn with_capacity(n: usize) -> Self {
        let mut d = 1;
        while Self::qubits_at(d) < n {
            d += 2;
        }
        HeavyHexTopology::new(d)
    }

    /// Qubits in the distance-`d` lattice, counted without building
    /// it: `d²` data qubits, `d(d − 1)` flags, and on each of the
    /// `d − 1` bridge rows one syndrome per column of the row's parity.
    fn qubits_at(d: u32) -> usize {
        let d = d as usize;
        let syndromes: usize = (0..d.saturating_sub(1)).map(|r| (d + 1 - r % 2) / 2).sum();
        d * d + d * d.saturating_sub(1) + syndromes
    }

    /// The lattice distance parameter.
    pub fn distance_param(&self) -> u32 {
        self.d
    }

    /// The backing coupling graph.
    pub fn coupling(&self) -> &CouplingGraph {
        &self.graph
    }
}

impl Topology for HeavyHexTopology {
    fn name(&self) -> &str {
        "heavyhex"
    }

    fn qubit_count(&self) -> usize {
        self.graph.len()
    }

    fn coord(&self, q: PhysId) -> (i32, i32) {
        self.graph.coord(q)
    }

    fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        self.graph.distance(a, b)
    }

    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        for &nb in self.graph.neighbors(q) {
            f(nb);
        }
    }

    fn flat_tables(&self) -> Option<FlatTables> {
        Some(self.graph.shared_tables())
    }

    fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        self.graph.next_hop(a, b)
    }

    fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId> {
        self.graph.nearest_in(center, cells)
    }
}

/// A 1-D ring (cycle) of `n` qubits: like [`crate::LineTopology`] but
/// with wrap-around coupling, so the worst-case distance halves. The
/// geometric embedding walks the perimeter of a square so centroids
/// and braid paths stay two-dimensional.
#[derive(Debug)]
pub struct RingTopology {
    n: u32,
    graph: CouplingGraph,
}

impl RingTopology {
    /// Creates an `n`-qubit ring.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "machine must have at least one qubit");
        let coords = perimeter_coords(n);
        let mut edges = Vec::with_capacity(n as usize);
        if n > 1 {
            for i in 0..n {
                edges.push((i, (i + 1) % n));
            }
        }
        RingTopology {
            n,
            graph: CouplingGraph::new(coords, &edges),
        }
    }

    /// A ring holding at least `n` qubits (exactly `n`: rings come in
    /// every size).
    pub fn with_capacity(n: usize) -> Self {
        RingTopology::new(n.max(1) as u32)
    }

    /// The backing coupling graph.
    pub fn coupling(&self) -> &CouplingGraph {
        &self.graph
    }
}

/// `n` distinct integer points walking the perimeter of the smallest
/// square that fits them, clockwise from the origin.
fn perimeter_coords(n: u32) -> Vec<(i32, i32)> {
    if n == 1 {
        return vec![(0, 0)];
    }
    let side = (n as i32 + 3) / 4 + 1;
    let mut coords = Vec::with_capacity(n as usize);
    let (mut x, mut y) = (0, 0);
    let legs = [(1, 0), (0, 1), (-1, 0), (0, -1)];
    let mut leg = 0;
    loop {
        coords.push((x, y));
        if coords.len() == n as usize {
            break;
        }
        let (dx, dy) = legs[leg];
        let (nx, ny) = (x + dx, y + dy);
        if nx < 0 || ny < 0 || nx >= side || ny >= side || (leg == 3 && ny == 0) {
            leg += 1;
            let (dx, dy) = legs[leg];
            x += dx;
            y += dy;
        } else {
            x = nx;
            y = ny;
        }
    }
    coords
}

impl Topology for RingTopology {
    fn name(&self) -> &str {
        "ring"
    }

    fn qubit_count(&self) -> usize {
        self.n as usize
    }

    fn coord(&self, q: PhysId) -> (i32, i32) {
        self.graph.coord(q)
    }

    fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        // Closed form: the shorter way around the cycle.
        let d = a.0.abs_diff(b.0);
        d.min(self.n - d)
    }

    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        for &nb in self.graph.neighbors(q) {
            f(nb);
        }
    }

    fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        // Closed form, so a ring never builds distance rows: step the
        // shorter way around, and on an exact tie step toward `a`'s
        // lower-indexed neighbour, matching `CouplingGraph::next_hop`.
        if a == b {
            return None;
        }
        let forward = (b.0 + self.n - a.0) % self.n;
        let backward = self.n - forward;
        let fwd = PhysId((a.0 + 1) % self.n);
        let bwd = PhysId((a.0 + self.n - 1) % self.n);
        Some(match forward.cmp(&backward) {
            std::cmp::Ordering::Less => fwd,
            std::cmp::Ordering::Greater => bwd,
            std::cmp::Ordering::Equal => {
                if fwd.0 < bwd.0 {
                    fwd
                } else {
                    bwd
                }
            }
        })
    }

    fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId> {
        // Closed-form `(distance(anchor, q), q)` order: the qubit
        // nearest the center, then the two cells at each cycle
        // distance r in index order (one cell at r = n/2 on even n).
        let (a, n) = (self.graph.nearest_to(center).0, self.n);
        (0..=n / 2)
            .flat_map(|r| {
                let (fwd, bwd) = ((a + r) % n, (a + n - r) % n);
                [fwd.min(bwd)]
                    .into_iter()
                    .chain((fwd != bwd).then_some(fwd.max(bwd)))
            })
            .map(PhysId)
            .find(|&p| has(cells, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::tests::ring_order;

    #[test]
    fn heavy_hex_counts_and_degree() {
        for d in [1u32, 2, 3, 5] {
            let hex = HeavyHexTopology::new(d);
            let n = hex.qubit_count();
            // data d², flags d(d−1), syndromes per alternating column.
            assert!(n >= (d * d) as usize, "d={d}");
            for q in 0..n as u32 {
                let deg = hex.graph.neighbors(PhysId(q)).len();
                assert!(deg <= 3, "d={d}: {q} has degree {deg}");
                if n > 1 {
                    assert!(deg >= 1, "d={d}: {q} disconnected");
                }
            }
        }
    }

    #[test]
    fn heavy_hex_is_connected() {
        let hex = HeavyHexTopology::new(3);
        let n = hex.qubit_count();
        for q in 1..n as u32 {
            assert!(
                hex.distance(PhysId(0), PhysId(q)) < u32::MAX,
                "qubit {q} unreachable"
            );
        }
    }

    #[test]
    fn heavy_hex_with_capacity_fits() {
        for n in [1usize, 5, 20, 57, 100] {
            let hex = HeavyHexTopology::with_capacity(n);
            assert!(hex.qubit_count() >= n);
            assert_eq!(hex.distance_param() % 2, 1, "odd code distance");
        }
        for d in 1..=25 {
            let n = HeavyHexTopology::new(d).qubit_count();
            assert_eq!(HeavyHexTopology::qubits_at(d), n, "d={d}");
            // The smallest odd distance holding `n` qubits is `d` itself
            // (for odd `d`) and holding one more is the next odd one.
            let odd = d | 1;
            assert_eq!(HeavyHexTopology::with_capacity(n).distance_param(), odd);
            if d % 2 == 1 {
                let next = HeavyHexTopology::with_capacity(n + 1).distance_param();
                assert_eq!(next, d + 2, "d={d}");
            }
        }
    }

    #[test]
    fn ring_distance_wraps() {
        let ring = RingTopology::new(10);
        assert_eq!(ring.distance(PhysId(0), PhysId(9)), 1);
        assert_eq!(ring.distance(PhysId(0), PhysId(5)), 5);
        assert_eq!(ring.distance(PhysId(2), PhysId(8)), 4);
        // Graph distance rows agree with the closed form.
        for a in 0..10u32 {
            for b in 0..10u32 {
                assert_eq!(
                    ring.coupling().distance(PhysId(a), PhysId(b)),
                    ring.distance(PhysId(a), PhysId(b)),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn ring_next_hop_matches_graph_rows_including_ties() {
        // Even ring: antipodal pairs tie both ways; the closed form
        // must pick exactly what the graph's distance rows pick.
        for n in [2u32, 4, 8, 9, 10] {
            let ring = RingTopology::new(n);
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        ring.next_hop(PhysId(a), PhysId(b)),
                        ring.coupling().next_hop(PhysId(a), PhysId(b)),
                        "n={n}: {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_paths_may_wrap_around() {
        let ring = RingTopology::new(8);
        assert_eq!(ring.distance(PhysId(1), PhysId(7)), 2);
        assert_eq!(
            ring.next_hop(PhysId(1), PhysId(7)),
            Some(PhysId(0)),
            "wraps through 0"
        );
        assert_eq!(ring.next_hop(PhysId(0), PhysId(7)), Some(PhysId(7)));
    }

    #[test]
    fn ring_coords_are_distinct() {
        for n in [1u32, 2, 3, 4, 7, 12, 17] {
            let ring = RingTopology::new(n);
            let mut coords: Vec<_> = (0..n).map(|q| ring.coord(PhysId(q))).collect();
            coords.sort_unstable();
            coords.dedup();
            assert_eq!(coords.len(), n as usize, "n={n}");
        }
    }

    #[test]
    fn ring_order_is_graph_distance_then_index() {
        // Odd n: two cells per distance. Even n: one antipode (9).
        for (n, want) in [
            (9u32, &[4u32, 3, 5, 2, 6, 1, 7, 0, 8][..]),
            (10, &[4, 3, 5, 2, 6, 1, 7, 0, 8, 9]),
        ] {
            let ring = RingTopology::new(n);
            let order: Vec<u32> = ring_order(&ring, ring.coord(PhysId(4)))
                .into_iter()
                .map(|q| q.0)
                .collect();
            assert_eq!(order, want, "n={n}");
        }
    }
}
