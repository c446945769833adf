//! Property tests over all five topologies (grid, full, line,
//! heavy-hex, ring): metric axioms, next-hop walks (coupled, of BFS
//! length), next-hop/BFS agreement (against a port of the eager all-pairs builder),
//! neighbour/coupling consistency, ring-order ordering, and the bitset
//! nearest-cell query against ports of the per-cell ring walks it
//! replaced. These are the invariants every router and the
//! locality-aware allocator silently assume.

use std::collections::VecDeque;

use proptest::prelude::*;
use square_arch::{
    FullTopology, GridTopology, HeavyHexTopology, LineTopology, PhysId, RingTopology, Topology,
};

/// Deterministically builds one of the five topologies from a fuzzed
/// selector + two size knobs (all sizes kept small enough that the
/// quadratic pair checks stay fast).
fn build_topology(kind: u8, a: u32, b: u32) -> Box<dyn Topology> {
    match kind % 5 {
        0 => Box::new(GridTopology::new(1 + a % 7, 1 + b % 7)),
        1 => Box::new(FullTopology::new(1 + a % 20)),
        2 => Box::new(LineTopology::new(1 + a % 28)),
        3 => Box::new(HeavyHexTopology::new(1 + a % 5)),
        _ => Box::new(RingTopology::new(1 + a % 22)),
    }
}

/// The neighbours of `q`, in [`Topology::for_each_neighbor`] order.
fn neighbors(topo: &dyn Topology, q: PhysId) -> Vec<PhysId> {
    let mut out = Vec::new();
    topo.for_each_neighbor(q, &mut |nb| out.push(nb));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distance is a metric: identity, positivity, symmetry, and the
    /// triangle inequality over sampled triples.
    #[test]
    fn distance_is_a_metric(kind in 0u8..5, a in 0u32..100, b in 0u32..100,
                            triples in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..24)) {
        let topo = build_topology(kind, a, b);
        let n = topo.qubit_count() as u32;
        for (x, y, z) in triples {
            let (x, y, z) = (PhysId(x % n), PhysId(y % n), PhysId(z % n));
            prop_assert_eq!(topo.distance(x, x), 0, "identity ({})", topo.name());
            if x != y {
                prop_assert!(topo.distance(x, y) > 0, "positivity ({})", topo.name());
            }
            prop_assert_eq!(topo.distance(x, y), topo.distance(y, x), "symmetry ({})", topo.name());
            prop_assert!(
                topo.distance(x, z) <= topo.distance(x, y) + topo.distance(y, z),
                "triangle inequality ({}): d({x},{z}) > d({x},{y}) + d({y},{z})",
                topo.name()
            );
        }
    }

    /// Walking `next_hop` from `a` to `b` takes exactly
    /// `distance(a, b)` hops — the cached tables and the closed forms
    /// agree with BFS on path length.
    #[test]
    fn next_hop_walks_match_bfs_distance(kind in 0u8..5, a in 0u32..100, b in 0u32..100,
                                         pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..16)) {
        let topo = build_topology(kind, a, b);
        let n = topo.qubit_count() as u32;
        for (x, y) in pairs {
            let (x, y) = (PhysId(x % n), PhysId(y % n));
            prop_assert_eq!(topo.next_hop(x, x), None, "{}", topo.name());
            let mut cur = x;
            let mut hops = 0u32;
            while cur != y {
                let hop = topo.next_hop(cur, y).expect("connected fabric");
                prop_assert!(topo.are_coupled(cur, hop),
                    "{}: next_hop {} -> {} not an edge", topo.name(), cur, hop);
                prop_assert_eq!(topo.distance(hop, y), topo.distance(cur, y) - 1,
                    "{}: hop does not make progress", topo.name());
                cur = hop;
                hops += 1;
            }
            prop_assert_eq!(hops, topo.distance(x, y), "{}", topo.name());
        }
    }

    /// `for_each_neighbor` and `are_coupled` agree exactly, coupling is
    /// symmetric and irreflexive, and every neighbour is at distance 1.
    #[test]
    fn neighbors_agree_with_coupling(kind in 0u8..5, a in 0u32..100, b in 0u32..100) {
        let topo = build_topology(kind, a, b);
        let n = topo.qubit_count() as u32;
        for x in 0..n {
            let x = PhysId(x);
            let nbs = neighbors(topo.as_ref(), x);
            for &nb in &nbs {
                prop_assert!(topo.are_coupled(x, nb), "{}", topo.name());
                prop_assert!(topo.are_coupled(nb, x), "{}: coupling asymmetric", topo.name());
                prop_assert_eq!(topo.distance(x, nb), 1, "{}", topo.name());
            }
            prop_assert!(!topo.are_coupled(x, x), "{}: self-coupled", topo.name());
            for y in 0..n {
                let y = PhysId(y);
                prop_assert_eq!(
                    topo.are_coupled(x, y),
                    nbs.contains(&y),
                    "{}: for_each_neighbor/are_coupled disagree on ({x}, {y})",
                    topo.name()
                );
            }
        }
    }

    /// The ring order from any qubit's own coordinate holds every
    /// qubit exactly once, in the order the layout promises (see
    /// `reference_ring_order`), and `nearest_in` returns the first cell
    /// of the set in that order — the contract the locality-aware
    /// allocator relies on to stop at the nearest free cell.
    #[test]
    fn nearest_in_follows_the_reference_order(kind in 0u8..5, a in 0u32..100, b in 0u32..100,
                                              center in any::<u32>(), accept in any::<u64>()) {
        let topo = build_topology(kind, a, b);
        let n = topo.qubit_count() as u32;
        let c = PhysId(center % n);
        let want = reference_ring_order(kind, topo.as_ref(), c);
        prop_assert_eq!(ring_order(topo.as_ref(), topo.coord(c)), want.clone(), "{}", topo.name());
        let accepted = |q: PhysId| accept.rotate_left(q.0) & 1 == 1;
        let mut cells = vec![0u64; topo.qubit_count().div_ceil(64)];
        for q in (0..n).map(PhysId).filter(|&q| accepted(q)) {
            cells[q.index() / 64] |= 1 << (q.index() % 64);
        }
        prop_assert_eq!(
            topo.nearest_in(topo.coord(c), &cells),
            want.into_iter().find(|&q| accepted(q)),
            "{}: first accepted cell", topo.name()
        );
    }

    /// From an arbitrary point (an interaction centroid need not sit on
    /// a cell), the graph-backed layouts walk `(distance(anchor, q), q)`
    /// order from the qubit nearest that point.
    #[test]
    fn graph_ring_order_starts_at_the_nearest_qubit(d in 1u32..6, n in 3u32..30,
                                                     x in -4i32..24, y in -4i32..24) {
        let hex = HeavyHexTopology::new(d);
        let anchor = hex.coupling().nearest_to((x, y));
        prop_assert_eq!(ring_order(&hex, (x, y)), reference_ring_order(3, &hex, anchor));
        let ring = RingTopology::new(n);
        let anchor = ring.coupling().nearest_to((x, y));
        prop_assert_eq!(ring_order(&ring, (x, y)), reference_ring_order(4, &ring, anchor));
    }
}

/// Every qubit in ring order from `center`: `nearest_in` over all
/// cells, then over the cells not yet offered, until none is left.
fn ring_order(topo: &dyn Topology, center: (i32, i32)) -> Vec<PhysId> {
    let n = topo.qubit_count();
    let mut cells = vec![0u64; n.div_ceil(64)];
    for i in 0..n {
        cells[i / 64] |= 1 << (i % 64);
    }
    let mut order = Vec::new();
    while let Some(q) = topo.nearest_in(center, &cells) {
        cells[q.index() / 64] &= !(1 << (q.index() % 64));
        order.push(q);
    }
    order
}

/// The visit order each layout promises from the coordinate of
/// `anchor`: every qubit sorted by graph distance from `anchor`, then
/// by the layout's tie rule. Heavy-hex and ring break ties by index.
/// The closed-form layouts keep the enumeration their compiled
/// circuits were pinned with: grid by ascending dx, the +dy cell before
/// the −dy one; line `c + r` before `c − r`; full by index, rotated to
/// start at the anchor.
fn reference_ring_order(kind: u8, topo: &dyn Topology, anchor: PhysId) -> Vec<PhysId> {
    let n = topo.qubit_count() as u32;
    let (ax, ay) = topo.coord(anchor);
    let mut cells: Vec<PhysId> = (0..n).map(PhysId).collect();
    cells.sort_by_key(|&q| {
        let (x, y) = topo.coord(q);
        let tie = match kind % 5 {
            0 => (i64::from(x - ax), i64::from(y < ay)),
            1 => (i64::from((q.0 + n - anchor.0) % n), 0),
            2 => (i64::from(q.0 < anchor.0), 0),
            _ => (i64::from(q.0), 0),
        };
        (topo.distance(anchor, q), tie)
    });
    cells
}

/// Test-local port of the eager next-hop builder the graph layouts
/// used before per-target distance rows: one BFS from `s` over
/// index-sorted adjacency, each cell inheriting the first hop of the
/// cell that discovered it.
fn eager_next_hops(topo: &dyn Topology, s: PhysId) -> Vec<Option<PhysId>> {
    let n = topo.qubit_count();
    let mut dist = vec![u32::MAX; n];
    let mut next = vec![None; n];
    let mut queue = VecDeque::from([s]);
    dist[s.index()] = 0;
    while let Some(u) = queue.pop_front() {
        let mut nbs = neighbors(topo, u);
        nbs.sort_unstable();
        for nb in nbs {
            if dist[nb.index()] != u32::MAX {
                continue;
            }
            dist[nb.index()] = dist[u.index()] + 1;
            next[nb.index()] = if u == s { Some(nb) } else { next[u.index()] };
            queue.push_back(nb);
        }
    }
    next
}

/// Every pair's `next_hop` — through the topology and, where the
/// layout has them, through its shared distance rows — equals the hop
/// the eager all-pairs BFS builder recorded, ties included.
#[test]
fn next_hop_matches_the_eager_bfs_builder() {
    let hexes = (1..=7).map(|d| Box::new(HeavyHexTopology::new(d)) as Box<dyn Topology>);
    let rings = [3u32, 4, 8, 9, 10]
        .into_iter()
        .map(|n| Box::new(RingTopology::new(n)) as Box<dyn Topology>);
    for topo in hexes.chain(rings) {
        let n = topo.qubit_count() as u32;
        let rows = topo.flat_tables();
        for a in (0..n).map(PhysId) {
            let want = eager_next_hops(topo.as_ref(), a);
            for b in (0..n).map(PhysId) {
                assert_eq!(
                    topo.next_hop(a, b),
                    want[b.index()],
                    "{} ({n} qubits): {a} -> {b}",
                    topo.name()
                );
                if let Some(rows) = &rows {
                    assert_eq!(rows.next_hop(a, b), want[b.index()], "rows: {a} -> {b}");
                    assert_eq!(
                        rows.distance(a, b),
                        topo.distance(a, b),
                        "rows: d({a}, {b})"
                    );
                }
            }
        }
    }
}

/// Test-local ports of the per-cell ring walks the layouts answered
/// the nearest-cell query with before it read bitsets: each returns
/// every cell the walk from `center` visits, in visit order (the walks
/// stopped at the first cell their predicate accepted).
mod ring_walks {
    use super::*;

    /// Manhattan radius `0..=w + h` from `center`; within a radius by
    /// ascending dx, the +dy point before the −dy one.
    pub fn grid(topo: &GridTopology, (cx, cy): (i32, i32)) -> Vec<PhysId> {
        let (w, h) = (topo.width() as i32, topo.height() as i32);
        let id = |x: i32, y: i32| {
            ((0..w).contains(&x) && (0..h).contains(&y)).then(|| PhysId((y * w + x) as u32))
        };
        let mut order = Vec::new();
        for r in 0..=w + h {
            for dx in -r..=r {
                let dy = r - dx.abs();
                order.extend(id(cx + dx, cy + dy));
                if dy != 0 {
                    order.extend(id(cx + dx, cy - dy));
                }
            }
        }
        order
    }

    /// Every index from the centre's (clamped) column, wrapping.
    pub fn full(n: u32, center: (i32, i32)) -> Vec<PhysId> {
        let start = center.0.clamp(0, n as i32 - 1) as u32;
        (0..n).map(|i| PhysId((start + i) % n)).collect()
    }

    /// The (clamped) centre cell, then `c + r` before `c − r`.
    pub fn line(n: u32, center: (i32, i32)) -> Vec<PhysId> {
        let n = n as i32;
        let c = center.0.clamp(0, n - 1);
        std::iter::once(c)
            .chain((1..n).flat_map(|r| [c + r, c - r]))
            .filter(|q| (0..n).contains(q))
            .map(|q| PhysId(q as u32))
            .collect()
    }

    /// BFS levels from the qubit nearest `center`, each sorted by index.
    pub fn graph(topo: &HeavyHexTopology, center: (i32, i32)) -> Vec<PhysId> {
        let graph = topo.coupling();
        let anchor = graph.nearest_to(center);
        let mut seen = vec![false; graph.len()];
        seen[anchor.index()] = true;
        let (mut order, mut level) = (Vec::new(), vec![anchor]);
        while !level.is_empty() {
            level.sort_unstable();
            order.extend_from_slice(&level);
            let mut next = Vec::new();
            for &q in &level {
                for &nb in graph.neighbors(q) {
                    if !std::mem::replace(&mut seen[nb.index()], true) {
                        next.push(nb);
                    }
                }
            }
            level = next;
        }
        order
    }

    /// The qubit nearest `center`, then the two cells at each cycle
    /// distance in index order (one at `n / 2` on even `n`).
    pub fn ring(topo: &RingTopology, n: u32, center: (i32, i32)) -> Vec<PhysId> {
        let a = topo.coupling().nearest_to(center).0;
        (0..=n / 2)
            .flat_map(|r| {
                let (fwd, bwd) = ((a + r) % n, (a + n - r) % n);
                [fwd.min(bwd)]
                    .into_iter()
                    .chain((fwd != bwd).then_some(fwd.max(bwd)))
            })
            .map(PhysId)
            .collect()
    }
}

/// The bitset query equals the first set cell of the ring walk it
/// replaced: every grid up to 12 × 12 (rows and columns included) and
/// three grids whose rows span whole words, lines and full machines up
/// to 130 cells, heavy-hex `d ≤ 4` and rings up to 40 qubits; from
/// every integer centre in each layout's coordinate bounding box
/// (an allocator centroid always lies inside it); over the empty set,
/// the full set, every singleton and seeded random sets at densities
/// 1/64, 1/8, 1/2 and 7/8 (random and full sets also set the bits past
/// the last cell, which the query must ignore).
#[test]
fn nearest_in_matches_the_ring_walks() {
    type Walk = Box<dyn Fn((i32, i32)) -> Vec<PhysId>>;
    let mut layouts: Vec<(Box<dyn Topology>, Walk)> = Vec::new();
    let small = (1..=12).flat_map(|w| (1..=12).map(move |h| (w, h)));
    for (w, h) in small.chain([(65, 3), (130, 2), (200, 1)]) {
        let g = GridTopology::new(w, h);
        layouts.push((Box::new(g), Box::new(move |c| ring_walks::grid(&g, c))));
    }
    for n in [1u32, 2, 7, 64, 65, 130] {
        layouts.push((
            Box::new(LineTopology::new(n)),
            Box::new(move |c| ring_walks::line(n, c)),
        ));
        layouts.push((
            Box::new(FullTopology::new(n)),
            Box::new(move |c| ring_walks::full(n, c)),
        ));
    }
    for d in 1..=4 {
        let hex = HeavyHexTopology::new(d);
        layouts.push((
            Box::new(HeavyHexTopology::new(d)),
            Box::new(move |c| ring_walks::graph(&hex, c)),
        ));
    }
    for n in 1..=40 {
        let ring = RingTopology::new(n);
        layouts.push((
            Box::new(RingTopology::new(n)),
            Box::new(move |c| ring_walks::ring(&ring, n, c)),
        ));
    }
    let mut seed = 0x5EED_u64;
    let mut next = move || {
        // splitmix64
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut queries = 0usize;
    for (topo, walk) in &layouts {
        let n = topo.qubit_count();
        let words = n.div_ceil(64);
        let mut sets = vec![vec![0u64; words], vec![u64::MAX; words]];
        for q in 0..n {
            let mut set = vec![0u64; words];
            set[q / 64] |= 1 << (q % 64);
            sets.push(set);
        }
        for per_64 in [1u64, 8, 32, 56] {
            for _ in 0..4 {
                let set = (0..words)
                    .map(|_| {
                        (0..64).fold(0u64, |acc, b| acc | u64::from(next() % 64 < per_64) << b)
                    })
                    .collect();
                sets.push(set);
            }
        }
        let coords: Vec<_> = (0..n as u32).map(|q| topo.coord(PhysId(q))).collect();
        let (x0, x1) = (
            coords.iter().map(|c| c.0).min().unwrap(),
            coords.iter().map(|c| c.0).max().unwrap(),
        );
        let (y0, y1) = (
            coords.iter().map(|c| c.1).min().unwrap(),
            coords.iter().map(|c| c.1).max().unwrap(),
        );
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let order = walk((cx, cy));
                for set in &sets {
                    let has = |q: PhysId| (set[q.index() / 64] >> (q.index() % 64)) & 1 != 0;
                    assert_eq!(
                        topo.nearest_in((cx, cy), set),
                        order.iter().copied().find(|&q| has(q)),
                        "{} ({n} qubits) from ({cx}, {cy})",
                        topo.name()
                    );
                    queries += 1;
                }
            }
        }
    }
    assert!(queries > 600_000, "only {queries} queries checked");
}
