//! Graph-backed coupling store: adjacency lists plus per-target BFS
//! distance rows built on demand.
//!
//! Heavy-hex has no closed-form distance, so [`CouplingGraph`] keeps
//! one lazily-built row per qubit: row `b` holds every cell's hop
//! count to `b`, filled by one BFS from `b` the first time a query
//! targets `b`. A compile routes toward the cells its program touches,
//! so its rows scale with that region, not with n².
//!
//! Next hops are read off the target's row: the first neighbour of
//! `a`, in ascending index order, one hop closer to `b`. A BFS from
//! `a` over index-sorted adjacency dequeues each level grouped by
//! first hop in ascending order, so this is exactly the hop such a
//! BFS records — routed swap chains stay deterministic.

use std::sync::{Arc, OnceLock};

use crate::topology::{has, PhysId};

/// Adjacency plus the per-target distance rows it generates.
#[derive(Debug)]
struct Rows {
    /// Neighbour lists, each sorted by index.
    adj: Vec<Vec<PhysId>>,
    /// `rows[b][a]` = hop count from `a` to `b` (`u32::MAX` when
    /// unreachable), each row built on first use.
    rows: Box<[OnceLock<Box<[u32]>>]>,
}

/// Shared handle to a graph's adjacency and distance rows. `Arc`-backed
/// so a routing machine can hold it without borrowing the topology —
/// the cheap, clonable handle it answers distance and next-hop queries
/// from. Rows are built on first use and shared by every handle (and
/// every thread).
#[derive(Debug, Clone)]
pub struct FlatTables(Arc<Rows>);

impl FlatTables {
    /// Row `b`, built by one BFS from `b` on first use. Concurrent
    /// first uses block on the one build.
    fn row(&self, b: PhysId) -> &[u32] {
        let Rows { adj, rows } = self.0.as_ref();
        rows[b.index()].get_or_init(|| {
            let mut dist = vec![u32::MAX; adj.len()];
            dist[b.index()] = 0;
            let mut queue = vec![b];
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &nb in &adj[u.index()] {
                    if dist[nb.index()] == u32::MAX {
                        dist[nb.index()] = dist[u.index()] + 1;
                        queue.push(nb);
                    }
                }
            }
            dist.into_boxed_slice()
        })
    }

    /// Hop-count distance: `row(b)[a]` (`u32::MAX` between
    /// disconnected qubits — the shipped layouts are all connected).
    #[inline]
    pub fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        if a == b {
            return 0;
        }
        self.row(b)[a.index()]
    }

    /// First hop of a shortest `a → b` path: the lowest-indexed
    /// neighbour of `a` one hop closer to `b` (`None` when `a == b` or
    /// unreachable).
    #[inline]
    pub fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        let d = self.distance(a, b);
        if d == 0 || d == u32::MAX {
            return None;
        }
        let row = self.row(b);
        self.0.adj[a.index()]
            .iter()
            .copied()
            .find(|nb| row[nb.index()] == d - 1)
    }
}

/// An undirected coupling graph with a 2-D geometric embedding and
/// per-target shortest-path distance rows built on demand.
#[derive(Debug)]
pub struct CouplingGraph {
    coords: Vec<(i32, i32)>,
    cells: CellIndex,
    tables: FlatTables,
}

/// The embedding indexed by row for [`CouplingGraph::nearest_to`]:
/// each occupied coordinate once, with the lowest qubit placed there,
/// sorted by `(y, x)`. Memory is linear in the qubit count however
/// sparse the layout (a ring's perimeter leaves its bounding box
/// mostly empty).
#[derive(Debug)]
struct CellIndex {
    /// `((x, y), qubit)`, sorted by `(y, x)`.
    cells: Vec<((i32, i32), PhysId)>,
    /// `(y, first)`: row `y` is `cells[first..]` up to the next row's
    /// `first`, sorted by `y`.
    rows: Vec<(i32, usize)>,
}

impl CellIndex {
    fn new(coords: &[(i32, i32)]) -> Self {
        let mut cells: Vec<_> = (0..coords.len())
            .map(|i| (coords[i], PhysId(i as u32)))
            .collect();
        // Stable, so the lowest qubit leads each coordinate; layouts
        // list their cells in a few row-major runs, which the merge
        // sort takes in near-linear time.
        cells.sort_by_key(|&((x, y), _)| (y, x));
        cells.dedup_by_key(|&mut (c, _)| c);
        let mut rows: Vec<(i32, usize)> = Vec::new();
        for (i, &((_, y), _)) in cells.iter().enumerate() {
            if rows.last().is_none_or(|&(last, _)| last != y) {
                rows.push((y, i));
            }
        }
        CellIndex { cells, rows }
    }

    /// Row `r`'s cells.
    fn row(&self, r: usize) -> &[((i32, i32), PhysId)] {
        let end = self.rows.get(r + 1).map_or(self.cells.len(), |&(_, e)| e);
        &self.cells[self.rows[r].1..end]
    }

    /// The lowest qubit at the least Manhattan distance from `(cx,
    /// cy)`. Rows are visited outward from `cy`, nearer first, until a
    /// row lies farther than the best hit; in each row only the
    /// nearest cell on either side of `cx` can win.
    fn nearest(&self, (cx, cy): (i32, i32)) -> PhysId {
        let (cx, cy) = (i64::from(cx), i64::from(cy));
        let mut best = (i64::MAX, PhysId(0));
        let split = self.rows.partition_point(|&(y, _)| i64::from(y) < cy);
        // Rows `above..` lie at or beyond `cy`, rows `..below` before it.
        let (mut below, mut above) = (split, split);
        loop {
            let dy = |r: usize| (i64::from(self.rows[r].0) - cy).abs();
            let r = match (
                below.checked_sub(1),
                (above < self.rows.len()).then_some(above),
            ) {
                (Some(b), Some(a)) if dy(b) < dy(a) => b,
                (_, Some(a)) => a,
                (Some(b), None) => b,
                (None, None) => break,
            };
            if dy(r) > best.0 {
                break;
            }
            if r == above {
                above += 1;
            } else {
                below -= 1;
            }
            let row = self.row(r);
            let i = row.partition_point(|&((x, _), _)| i64::from(x) < cx);
            for &((x, _), q) in row[i.saturating_sub(1)..].iter().take(2) {
                best = best.min((dy(r) + (i64::from(x) - cx).abs(), q));
            }
        }
        best.1
    }
}

impl CouplingGraph {
    /// Builds the graph from per-qubit coordinates and undirected
    /// edges. Neighbour lists are kept sorted by index so next-hop
    /// choices, ring orders and routed swap chains are deterministic.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph or an out-of-range edge endpoint.
    pub fn new(coords: Vec<(i32, i32)>, edges: &[(u32, u32)]) -> Self {
        let n = coords.len();
        assert!(n > 0, "coupling graph must have at least one qubit");
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!((a as usize) < n && (b as usize) < n, "edge out of range");
            assert_ne!(a, b, "self-coupling");
            adj[a as usize].push(PhysId(b));
            adj[b as usize].push(PhysId(a));
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        CouplingGraph {
            cells: CellIndex::new(&coords),
            coords,
            tables: FlatTables(Arc::new(Rows {
                adj,
                rows: (0..n).map(|_| OnceLock::new()).collect(),
            })),
        }
    }

    /// Number of qubits.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True for the (disallowed) empty graph — present for clippy's
    /// `len_without_is_empty`; construction guarantees `false`.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Geometric position of a qubit.
    pub fn coord(&self, q: PhysId) -> (i32, i32) {
        self.coords[q.index()]
    }

    /// Neighbours of `q`, sorted by index.
    pub fn neighbors(&self, q: PhysId) -> &[PhysId] {
        &self.tables.0.adj[q.index()]
    }

    /// True if `a` and `b` share an edge.
    pub fn are_coupled(&self, a: PhysId, b: PhysId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// A shared handle to the distance rows.
    pub fn shared_tables(&self) -> FlatTables {
        self.tables.clone()
    }

    /// Hop-count distance; see [`FlatTables::distance`].
    pub fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        self.tables.distance(a, b)
    }

    /// First hop toward `b`; see [`FlatTables::next_hop`].
    pub fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
        self.tables.next_hop(a, b)
    }

    /// The qubit whose embedding is geometrically nearest `center`
    /// (Manhattan; ties broken by lowest index), read off the row index
    /// built with the graph.
    pub fn nearest_to(&self, center: (i32, i32)) -> PhysId {
        self.cells.nearest(center)
    }

    /// The first cell of the bitset `cells` in `(distance(anchor, q),
    /// q)` order, where `anchor` is the qubit nearest `center` — the
    /// locality-aware allocator's "nearest free cell" query (see
    /// [`Topology::nearest_in`](crate::Topology::nearest_in)). A BFS
    /// level walk from the anchor that sorts each level by index and
    /// stops at the first hit, so its cost is proportional to the
    /// region visited, not to the device. Cells outside the anchor's
    /// component are never offered (every shipped layout is connected).
    pub fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId> {
        let anchor = self.nearest_to(center);
        let mut seen = vec![0u64; self.len().div_ceil(64)];
        let mut mark = |q: PhysId| {
            let (word, bit) = (q.index() / 64, 1u64 << (q.index() % 64));
            let fresh = seen[word] & bit == 0;
            seen[word] |= bit;
            fresh
        };
        mark(anchor);
        let mut level = vec![anchor];
        let mut next = Vec::new();
        while !level.is_empty() {
            level.sort_unstable();
            if let Some(&q) = level.iter().find(|&&q| has(cells, q)) {
                return Some(q);
            }
            next.clear();
            for &q in &level {
                next.extend(self.neighbors(q).iter().copied().filter(|&nb| mark(nb)));
            }
            std::mem::swap(&mut level, &mut next);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-cycle with a tail: 0-1-2-3-0, 3-4.
    fn cycle_with_tail() -> CouplingGraph {
        CouplingGraph::new(
            vec![(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)],
        )
    }

    #[test]
    fn distances_are_bfs_hops() {
        let g = cycle_with_tail();
        assert_eq!(g.distance(PhysId(0), PhysId(0)), 0);
        assert_eq!(g.distance(PhysId(0), PhysId(2)), 2);
        assert_eq!(g.distance(PhysId(1), PhysId(4)), 3);
        assert_eq!(g.distance(PhysId(4), PhysId(1)), 3, "symmetry");
    }

    #[test]
    fn next_hop_walks_a_shortest_path() {
        let g = cycle_with_tail();
        let mut path = vec![PhysId(1)];
        while let Some(hop) = g.next_hop(*path.last().unwrap(), PhysId(4)) {
            path.push(hop);
        }
        assert_eq!(path.len() as u32, g.distance(PhysId(1), PhysId(4)) + 1);
        assert_eq!(path.last(), Some(&PhysId(4)));
        for w in path.windows(2) {
            assert!(g.are_coupled(w[0], w[1]));
        }
        assert_eq!(g.next_hop(PhysId(2), PhysId(2)), None);
        // Deterministic tie-break: 0→2 via the lower-indexed branch.
        assert_eq!(g.next_hop(PhysId(0), PhysId(2)), Some(PhysId(1)));
    }

    #[test]
    fn rows_build_only_for_queried_targets() {
        let g = cycle_with_tail();
        let tables = g.shared_tables();
        assert_eq!(tables.distance(PhysId(4), PhysId(1)), 3);
        assert_eq!(tables.next_hop(PhysId(4), PhysId(1)), Some(PhysId(3)));
        let built: Vec<bool> = g.tables.0.rows.iter().map(|r| r.get().is_some()).collect();
        assert_eq!(built, [false, true, false, false, false]);
    }

    #[test]
    fn nearest_in_walks_levels_in_index_order() {
        let g = cycle_with_tail();
        // Levels from 0: {0}, {1, 3}, {2, 4}.
        let want = [0, 1, 3, 2, 4];
        let mut cells = 0b11111u64;
        for q in want {
            assert_eq!(g.nearest_in((0, 0), &[cells]), Some(PhysId(q)));
            cells &= !(1 << q);
        }
        assert_eq!(g.nearest_in((0, 0), &[cells]), None);
        assert_eq!(g.nearest_in((0, 0), &[0b11100]), Some(PhysId(3)));
    }

    /// The O(n) scan `nearest_to` used before the row index, kept as
    /// the reference.
    fn nearest_by_scan(g: &CouplingGraph, center: (i32, i32)) -> PhysId {
        let mut best = PhysId(0);
        let mut best_d = i64::MAX;
        for (i, &(x, y)) in g.coords.iter().enumerate() {
            let d = (x as i64 - center.0 as i64).abs() + (y as i64 - center.1 as i64).abs();
            if d < best_d {
                best_d = d;
                best = PhysId(i as u32);
            }
        }
        best
    }

    /// Every integer center in the layout's bounding box grown by 3 on
    /// each side, on heavy-hex `d = 1..=15` and rings of 3..=64 qubits
    /// (a sparse perimeter with a hollow middle), plus a graph whose
    /// qubits share coordinates.
    #[test]
    fn nearest_to_matches_the_linear_scan() {
        use crate::layouts::{HeavyHexTopology, RingTopology};
        let hexes: Vec<_> = (1..=15).map(HeavyHexTopology::new).collect();
        let rings: Vec<_> = (3..=64).map(RingTopology::new).collect();
        let stacked = CouplingGraph::new(vec![(2, 0), (0, 0), (2, 0), (0, 0), (1, 3)], &[]);
        let graphs = hexes.iter().map(HeavyHexTopology::coupling);
        let graphs = graphs.chain(rings.iter().map(RingTopology::coupling));
        let mut centers = 0usize;
        for g in graphs.chain([&stacked]) {
            let xs = g.coords.iter().map(|c| c.0);
            let ys = g.coords.iter().map(|c| c.1);
            let (x0, x1) = (xs.clone().min().unwrap() - 3, xs.max().unwrap() + 3);
            let (y0, y1) = (ys.clone().min().unwrap() - 3, ys.max().unwrap() + 3);
            for y in y0..=y1 {
                for x in x0..=x1 {
                    assert_eq!(
                        g.nearest_to((x, y)),
                        nearest_by_scan(g, (x, y)),
                        "({x}, {y})"
                    );
                    centers += 1;
                }
            }
        }
        assert!(centers > 20_000, "only {centers} centers checked");
    }

    #[test]
    fn neighbors_sorted_and_deduped() {
        let g = CouplingGraph::new(vec![(0, 0), (1, 0), (2, 0)], &[(1, 0), (2, 1), (0, 1)]);
        assert_eq!(g.neighbors(PhysId(1)), &[PhysId(0), PhysId(2)]);
        assert!(g.are_coupled(PhysId(0), PhysId(1)));
        assert!(!g.are_coupled(PhysId(0), PhysId(2)));
    }
}
