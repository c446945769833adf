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

/// True when `q`'s bit is set in the cell bitset `cells` (see
/// [`Topology::nearest_in`]).
#[inline]
pub(crate) fn has(cells: &[u64], q: PhysId) -> bool {
    (cells[q.index() / 64] >> (q.index() % 64)) & 1 != 0
}

/// The highest set bit of `cells` in `lo..=hi`.
fn last_set(cells: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let mut w = hi / 64;
    let mut word = cells[w] & (u64::MAX >> (63 - hi % 64));
    loop {
        if word != 0 {
            let i = w * 64 + 63 - word.leading_zeros() as usize;
            return (i >= lo).then_some(i);
        }
        if w == lo / 64 {
            return None;
        }
        w -= 1;
        word = cells[w];
    }
}

/// The lowest set bit of `cells` in `lo..=hi`.
fn first_set(cells: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let mut w = lo / 64;
    let mut word = cells[w] & (u64::MAX << (lo % 64));
    loop {
        if word != 0 {
            let i = w * 64 + word.trailing_zeros() as usize;
            return (i <= hi).then_some(i);
        }
        if w == hi / 64 {
            return None;
        }
        w += 1;
        word = cells[w];
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

    /// Calls `f` for every qubit directly coupled to `q`, in the
    /// layout's fixed neighbour order (routing tie-breaks depend on
    /// it).
    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId));

    /// True when [`Topology::distance`] equals the Manhattan distance
    /// between [`Topology::coord`] embeddings (grid, line). Routing
    /// caches the coordinate array and answers such distances with
    /// two array reads instead of a virtual call. Such a layout's
    /// [`Topology::next_hop`] steps along x first, then along y, and
    /// routing relies on that order: on cells that fill a lattice
    /// row-major it lays out swap-chain paths from the cached
    /// coordinates in that order, as its lattice gather walk tries x
    /// steps before y steps.
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

    /// The first cell of `cells`, in this layout's ring order around
    /// `center` — the locality-aware allocator's "nearest free cell"
    /// query. `cells` is a bitset indexed by [`PhysId`] (bit `q % 64`
    /// of word `q / 64` holds `PhysId(q)`) covering at least
    /// [`Topology::qubit_count`] bits; bits past the last cell are
    /// ignored. Ring order visits cells in nondecreasing *graph*
    /// distance from `center`, and each layout fixes its own ties: the
    /// grid by ascending dx, the +dy cell before the −dy one; the line
    /// `c + r` before `c − r`; the full machine by index, rotated to
    /// start at the centre's column. For those closed-form layouts
    /// geometric and graph distance coincide; graph-backed layouts
    /// (heavy-hex, ring) order by hop count from the qubit nearest
    /// `center`, ties by index, which can diverge from the embedding.
    fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId>;
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

    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        // Order: +x, −x, +y, −y.
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

    fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId> {
        // Ring order is the least key (Manhattan radius, dx, cell below
        // the centre row). Rows are scanned outward from the centre
        // row: a row `k` rows away holds nothing nearer than radius
        // `k`, so the scan stops once `k` passes the best radius, and
        // each row is searched only as far as that radius reaches. In
        // a row only the nearest set cell on either side of the centre
        // column can win.
        let (w, h) = (i64::from(self.width), i64::from(self.height));
        let (cx, cy) = (i64::from(center.0), i64::from(center.1));
        let mut best: Option<((i64, i64, bool), i64)> = None;
        let mut k = (-cy).max(cy - (h - 1)).max(0);
        while cy - k >= 0 || cy + k < h {
            let reach = match best {
                Some(((r, _, _), _)) if k > r => break,
                Some(((r, _, _), _)) => r - k,
                None => i64::MAX,
            };
            let (lo, hi) = (
                cx.saturating_sub(reach).max(0),
                cx.saturating_add(reach).min(w - 1),
            );
            for y in std::iter::once(cy + k).chain((k > 0).then_some(cy - k)) {
                if !(0..h).contains(&y) {
                    continue;
                }
                let row = y * w;
                let bit = |x: i64| (row + x) as usize;
                let left = (lo <= cx.min(hi)).then(|| last_set(cells, bit(lo), bit(cx.min(hi))));
                let right = (cx.max(lo) <= hi).then(|| first_set(cells, bit(cx.max(lo)), bit(hi)));
                for i in [left, right].into_iter().flatten().flatten() {
                    let dx = i as i64 - row - cx;
                    let key = (k + dx.abs(), dx, y < cy);
                    if best.is_none_or(|(b, _)| key < b) {
                        best = Some((key, i as i64));
                    }
                }
            }
            k += 1;
        }
        best.map(|(_, i)| PhysId(i as u32))
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

    fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId> {
        // All qubits are equally close; visit them in index order
        // starting from the center's embedding for determinism.
        let n = self.n;
        let start = center.0.clamp(0, n as i32 - 1) as u32;
        (0..n)
            .map(|i| PhysId((start + i) % n))
            .find(|&p| has(cells, p))
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

    fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
        // Order: +1 then −1.
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

    fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId> {
        // The center cell, then c + r before c − r for each radius.
        let n = self.n as i32;
        let c = center.0.clamp(0, n - 1);
        std::iter::once(c)
            .chain((1..n).flat_map(|r| [c + r, c - r]))
            .filter(|q| (0..n).contains(q))
            .map(|q| PhysId(q as u32))
            .find(|&p| has(cells, p))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every qubit in ring order from `center`: `nearest_in` over all
    /// cells, then over the cells not yet offered, until none is left.
    pub(crate) fn ring_order(t: &dyn Topology, center: (i32, i32)) -> Vec<PhysId> {
        let n = t.qubit_count();
        let mut cells = vec![0u64; n.div_ceil(64)];
        for i in 0..n {
            cells[i / 64] |= 1 << (i % 64);
        }
        let mut order = Vec::new();
        while let Some(q) = t.nearest_in(center, &cells) {
            cells[q.index() / 64] &= !(1 << (q.index() % 64));
            order.push(q);
        }
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
    fn grid_ring_order_visits_all_in_distance_order() {
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
