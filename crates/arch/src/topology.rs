//! Qubit topologies: coupling graphs with geometric locality.
//!
//! The allocation heuristics need three things from a machine layout:
//! pairwise distance (communication cost), the next hop on a shortest
//! path (swap-chain routing), and "qubits near a point, nearest first" (locality-aware
//! allocation). [`Topology`] provides all three; the concrete layouts
//! are [`GridTopology`] (2-D lattice), [`FullTopology`] (all-to-all)
//! and [`LineTopology`] (1-D chain).

use std::fmt;

use crate::coupling::FlatTables;

/// A physical qubit slot on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysId(pub u32);

impl PhysId {
    /// Raw index into the machine's qubit array.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<PhysId> for usize {
    fn from(p: PhysId) -> usize {
        p.index()
    }
}

impl fmt::Display for PhysId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// A coupling graph with 2-D geometry.
///
/// Distances are hop counts on the coupling graph; coordinates give
/// the geometric embedding used by locality scores and braid routing.
///
/// `Send + Sync` is a supertrait so built topologies — including the
/// graph-backed layouts whose per-target BFS distance rows build
/// lazily behind `OnceLock` — can be shared across threads via
/// `Arc<dyn Topology>`: a compile server builds each machine once and
/// every concurrent request reuses (and fills) the same rows.
pub trait Topology: Send + Sync {
    /// Short name for reports ("lattice", "full", "line").
    fn name(&self) -> &str;

    /// Number of physical qubits on the machine.
    fn qubit_count(&self) -> usize;

    /// Geometric position of a qubit.
    fn coord(&self, q: PhysId) -> (i32, i32);

    /// Coupling-graph distance in hops (0 for `a == b`, 1 for coupled
    /// qubits). A swap chain between `a` and `b` needs
    /// `distance(a, b) − 1` swaps.
    fn distance(&self, a: PhysId, b: PhysId) -> u32;

    /// True if a two-qubit gate can act directly on `a` and `b`.
    fn are_coupled(&self, a: PhysId, b: PhysId) -> bool {
        self.distance(a, b) == 1
    }

    /// Qubits directly coupled to `q`.
    fn neighbors(&self, q: PhysId) -> Vec<PhysId>;

    /// Calls `f` for every neighbour of `q`, in exactly the order
    /// [`Topology::neighbors`] lists them — the allocation-free form
    /// the routing hot path iterates with. The default delegates to
    /// `neighbors`; every shipped layout overrides it to avoid the
    /// per-call `Vec`.
    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        for nb in self.neighbors(q) {
            f(nb);
        }
    }

    /// True when [`Topology::distance`] equals the Manhattan distance
    /// between [`Topology::coord`] embeddings (grid, line). Routing
    /// caches the coordinate array and answers such distances with
    /// two array reads instead of a virtual call.
    fn manhattan_distance(&self) -> bool {
        false
    }

    /// A shared handle to the layout's per-target distance rows (each
    /// built by one BFS the first time a query targets that cell),
    /// when distances have no closed form (heavy-hex). `None` for
    /// layouts that answer in closed form — grid, full, line and ring.
    fn flat_tables(&self) -> Option<FlatTables> {
        None
    }

    /// The neighbour of `a` that is first on a shortest path toward
    /// `b` (`None` when `a == b`); walking it from `a` reaches `b` in
    /// exactly `distance(a, b)` hops. The closed-form layouts answer in
    /// O(1); graph-backed layouts read their cached next-hop table.
    /// Routers walk swap chains with it, one hop at a time.
    fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId>;

    /// The first qubit accepted by `pred` when qubits are visited in
    /// nondecreasing *graph* distance from `center` — the
    /// locality-aware allocator's "nearest matching cell" query, which
    /// relies on that order to stop at the first free cell. `pred`
    /// sees each qubit at most once and nothing past the first
    /// accepted one. For the closed-form layouts (grid, full, line)
    /// geometric and graph distance coincide; graph-backed layouts
    /// (heavy-hex, ring) walk hop counts from the qubit nearest
    /// `center`, ties by index, which can diverge from the embedding.
    fn ring_find(&self, center: (i32, i32), pred: &mut dyn FnMut(PhysId) -> bool)
        -> Option<PhysId>;
}

/// 2-D lattice with nearest-neighbour coupling (row-major indexing),
/// the NISQ layout of the paper's Section V-C experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridTopology {
    width: u32,
    height: u32,
}

impl GridTopology {
    /// Creates a `width × height` lattice.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        GridTopology { width, height }
    }

    /// The smallest near-square grid holding at least `n` qubits.
    pub fn with_capacity(n: usize) -> Self {
        let side = (n as f64).sqrt().ceil() as u32;
        let side = side.max(1);
        let height = ((n as u32) + side - 1) / side.max(1);
        GridTopology::new(side, height.max(1))
    }

    /// Grid width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> u32 {
        self.height
    }

    fn xy(&self, q: PhysId) -> (i32, i32) {
        let x = q.0 % self.width;
        let y = q.0 / self.width;
        (x as i32, y as i32)
    }

    fn id_at(&self, x: i32, y: i32) -> Option<PhysId> {
        if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
            None
        } else {
            Some(PhysId(y as u32 * self.width + x as u32))
        }
    }
}

impl Topology for GridTopology {
    fn name(&self) -> &str {
        "lattice"
    }

    fn qubit_count(&self) -> usize {
        (self.width * self.height) as usize
    }

    fn coord(&self, q: PhysId) -> (i32, i32) {
        self.xy(q)
    }

    fn neighbors(&self, q: PhysId) -> Vec<PhysId> {
        let (x, y) = self.xy(q);
        [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
            .into_iter()
            .filter_map(|(nx, ny)| self.id_at(nx, ny))
            .collect()
    }

    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        // Same order as `neighbors`: +x, −x, +y, −y.
        let (x, y) = self.xy(q);
        for (nx, ny) in [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)] {
            if let Some(nb) = self.id_at(nx, ny) {
                f(nb);
            }
        }
    }

    fn manhattan_distance(&self) -> bool {
        true
    }

    fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        let (ax, ay) = self.xy(a);
        let (bx, by) = self.xy(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        // First step of the L-shaped route: x first, then y.
        if a == b {
            return None;
        }
        let (ax, ay) = self.xy(a);
        let (bx, by) = self.xy(b);
        if ax != bx {
            self.id_at(ax + (bx - ax).signum(), ay)
        } else {
            self.id_at(ax, ay + (by - ay).signum())
        }
    }

    fn ring_find(
        &self,
        center: (i32, i32),
        pred: &mut dyn FnMut(PhysId) -> bool,
    ) -> Option<PhysId> {
        // Lattice points by Manhattan radius from `center`; within a
        // radius by ascending dx, the +dy point before the −dy one.
        let (cx, cy) = center;
        let max_radius = (self.width + self.height) as i32;
        for r in 0..=max_radius {
            for dx in -r..=r {
                let dy = r - dx.abs();
                if let Some(q) = self.id_at(cx + dx, cy + dy) {
                    if pred(q) {
                        return Some(q);
                    }
                }
                if dy != 0 {
                    if let Some(q) = self.id_at(cx + dx, cy - dy) {
                        if pred(q) {
                            return Some(q);
                        }
                    }
                }
            }
        }
        None
    }
}

/// All-to-all coupling (trapped-ion style): every pair is distance 1,
/// so no swap chains are ever needed. This is the "fully-connected"
/// machine of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullTopology {
    n: u32,
}

impl FullTopology {
    /// Creates an `n`-qubit fully-connected machine.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "machine must have at least one qubit");
        FullTopology { n }
    }
}

impl Topology for FullTopology {
    fn name(&self) -> &str {
        "full"
    }

    fn qubit_count(&self) -> usize {
        self.n as usize
    }

    fn coord(&self, q: PhysId) -> (i32, i32) {
        // Geometry is irrelevant for all-to-all machines; a line
        // embedding keeps coordinates well-defined for reports.
        (q.0 as i32, 0)
    }

    fn neighbors(&self, q: PhysId) -> Vec<PhysId> {
        (0..self.n).map(PhysId).filter(|&p| p != q).collect()
    }

    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        for p in (0..self.n).map(PhysId) {
            if p != q {
                f(p);
            }
        }
    }

    fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        u32::from(a != b)
    }

    fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        (a != b).then_some(b)
    }

    fn ring_find(
        &self,
        center: (i32, i32),
        pred: &mut dyn FnMut(PhysId) -> bool,
    ) -> Option<PhysId> {
        // All qubits are equally close; visit them in index order
        // starting from the center's embedding for determinism.
        let n = self.n;
        let start = center.0.clamp(0, n as i32 - 1) as u32;
        (0..n).map(|i| PhysId((start + i) % n)).find(|&p| pred(p))
    }
}

/// 1-D chain coupling, the most locality-constrained layout; useful
/// for stress-testing allocation policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineTopology {
    n: u32,
}

impl LineTopology {
    /// Creates an `n`-qubit chain.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "machine must have at least one qubit");
        LineTopology { n }
    }
}

impl Topology for LineTopology {
    fn name(&self) -> &str {
        "line"
    }

    fn qubit_count(&self) -> usize {
        self.n as usize
    }

    fn coord(&self, q: PhysId) -> (i32, i32) {
        (q.0 as i32, 0)
    }

    fn neighbors(&self, q: PhysId) -> Vec<PhysId> {
        let mut v = Vec::with_capacity(2);
        if q.0 + 1 < self.n {
            v.push(PhysId(q.0 + 1));
        }
        if q.0 > 0 {
            v.push(PhysId(q.0 - 1));
        }
        v
    }

    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        // Same order as `neighbors`: +1 then −1.
        if q.0 + 1 < self.n {
            f(PhysId(q.0 + 1));
        }
        if q.0 > 0 {
            f(PhysId(q.0 - 1));
        }
    }

    fn manhattan_distance(&self) -> bool {
        true
    }

    fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        a.0.abs_diff(b.0)
    }

    fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        match b.0.cmp(&a.0) {
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(PhysId(a.0 + 1)),
            std::cmp::Ordering::Less => Some(PhysId(a.0 - 1)),
        }
    }

    fn ring_find(
        &self,
        center: (i32, i32),
        pred: &mut dyn FnMut(PhysId) -> bool,
    ) -> Option<PhysId> {
        // The center cell, then c + r before c − r for each radius.
        let n = self.n as i32;
        let c = center.0.clamp(0, n - 1);
        std::iter::once(c)
            .chain((1..n).flat_map(|r| [c + r, c - r]))
            .filter(|q| (0..n).contains(q))
            .map(|q| PhysId(q as u32))
            .find(|&p| pred(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every qubit `ring_find` offers, in visit order.
    fn ring_order(t: &dyn Topology, center: (i32, i32)) -> Vec<PhysId> {
        let mut order = Vec::new();
        t.ring_find(center, &mut |q| {
            order.push(q);
            false
        });
        order
    }

    /// The cells visited walking `next_hop` from `a` to `b`, both ends
    /// included.
    fn walk(t: &dyn Topology, a: PhysId, b: PhysId) -> Vec<PhysId> {
        let mut path = vec![a];
        while let Some(hop) = t.next_hop(*path.last().unwrap(), b) {
            path.push(hop);
        }
        path
    }

    #[test]
    fn grid_distance_is_manhattan() {
        let g = GridTopology::new(4, 4);
        // (0,0) -> (3,2): |3| + |2| = 5
        assert_eq!(g.distance(PhysId(0), PhysId(11)), 5);
        assert_eq!(g.distance(PhysId(5), PhysId(5)), 0);
    }

    #[test]
    fn grid_path_endpoints_and_adjacency() {
        let g = GridTopology::new(5, 5);
        let path = walk(&g, PhysId(0), PhysId(24));
        assert_eq!(path.first(), Some(&PhysId(0)));
        assert_eq!(path.last(), Some(&PhysId(24)));
        assert_eq!(path.len() as u32, g.distance(PhysId(0), PhysId(24)) + 1);
        for w in path.windows(2) {
            assert!(g.are_coupled(w[0], w[1]), "{:?} {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn grid_ring_find_visits_all_in_distance_order() {
        let g = GridTopology::new(4, 3);
        let seen = ring_order(&g, (1, 1));
        assert_eq!(seen.len(), 12, "every qubit visited exactly once");
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        let center = PhysId(1 + 4);
        let dists: Vec<u32> = seen.iter().map(|&q| g.distance(center, q)).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
    }

    #[test]
    fn with_capacity_fits() {
        for n in [1usize, 2, 5, 16, 17, 100, 101] {
            let g = GridTopology::with_capacity(n);
            assert!(g.qubit_count() >= n, "n={n} got {}", g.qubit_count());
        }
    }

    #[test]
    fn full_topology_is_distance_one() {
        let t = FullTopology::new(8);
        assert_eq!(t.distance(PhysId(0), PhysId(7)), 1);
        assert_eq!(t.distance(PhysId(3), PhysId(3)), 0);
        assert_eq!(walk(&t, PhysId(0), PhysId(7)).len(), 2);
        assert_eq!(ring_order(&t, (0, 0)).len(), 8);
    }

    #[test]
    fn line_paths_walk_the_chain() {
        let t = LineTopology::new(10);
        let p = walk(&t, PhysId(7), PhysId(2));
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], PhysId(7));
        assert_eq!(p[5], PhysId(2));
        let ring = ring_order(&t, (5, 0));
        assert_eq!(ring.len(), 10);
        assert_eq!(ring[0], PhysId(5));
    }
}
