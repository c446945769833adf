//! Property tests over all five topologies (grid, full, line,
//! heavy-hex, ring): metric axioms, next-hop walks (coupled, of BFS
//! length), next-hop/BFS agreement (against a port of the eager all-pairs builder),
//! neighbour/coupling consistency, and ring-query ordering. These are
//! the invariants every router — greedy or lookahead — silently
//! assumes.

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

    /// `neighbors` and `are_coupled` agree exactly, coupling is
    /// symmetric and irreflexive, and every neighbour is at distance 1.
    #[test]
    fn neighbors_agree_with_coupling(kind in 0u8..5, a in 0u32..100, b in 0u32..100) {
        let topo = build_topology(kind, a, b);
        let n = topo.qubit_count() as u32;
        for x in 0..n {
            let x = PhysId(x);
            let nbs = topo.neighbors(x);
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
                    "{}: neighbors/are_coupled disagree on ({x}, {y})",
                    topo.name()
                );
            }
        }
    }

    /// `ring_find` from any qubit's own coordinate offers every qubit
    /// exactly once, in the order the layout promises (see
    /// `reference_ring_order`), and returns the first cell its
    /// predicate accepts — the contract the locality-aware allocator
    /// relies on to stop at the nearest free cell.
    #[test]
    fn ring_find_visits_in_reference_order(kind in 0u8..5, a in 0u32..100, b in 0u32..100,
                                           center in any::<u32>(), accept in any::<u64>()) {
        let topo = build_topology(kind, a, b);
        let n = topo.qubit_count() as u32;
        let c = PhysId(center % n);
        let want = reference_ring_order(kind, topo.as_ref(), c);
        prop_assert_eq!(ring_order(topo.as_ref(), topo.coord(c)), want.clone(), "{}", topo.name());
        let accepted = |q: PhysId| accept.rotate_left(q.0) & 1 == 1;
        prop_assert_eq!(
            topo.ring_find(topo.coord(c), &mut |q| accepted(q)),
            want.into_iter().find(|&q| accepted(q)),
            "{}: first accepted cell", topo.name()
        );
    }

    /// From an arbitrary point (an interaction centroid need not sit on
    /// a cell), the graph-backed layouts walk `(distance(anchor, q), q)`
    /// order from the qubit nearest that point.
    #[test]
    fn graph_ring_find_starts_at_the_nearest_qubit(d in 1u32..6, n in 3u32..30,
                                                    x in -4i32..24, y in -4i32..24) {
        let hex = HeavyHexTopology::new(d);
        let anchor = hex.coupling().nearest_to((x, y));
        prop_assert_eq!(ring_order(&hex, (x, y)), reference_ring_order(3, &hex, anchor));
        let ring = RingTopology::new(n);
        let anchor = ring.coupling().nearest_to((x, y));
        prop_assert_eq!(ring_order(&ring, (x, y)), reference_ring_order(4, &ring, anchor));
    }
}

/// Every qubit `ring_find` offers from `center`, in visit order (the
/// predicate records each cell and never accepts).
fn ring_order(topo: &dyn Topology, center: (i32, i32)) -> Vec<PhysId> {
    let mut order = Vec::new();
    topo.ring_find(center, &mut |q| {
        order.push(q);
        false
    });
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
        let mut nbs = topo.neighbors(u);
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
