//! The Toffoli gather search and its scratch arrays.
//!
//! Both routers bring a Toffoli's second control next to the target
//! along a shortest path that avoids the target's and the first
//! control's cells: [`BfsScratch::gather_to`] answers it, in closed
//! form on a filled lattice ([`lattice_gather`]) and by a bounded
//! breadth-first search over a flat [`NeighborTable`] elsewhere. The
//! search arrays live in the machine's router scratch and are reused
//! across gates, so the steady-state hot path allocates nothing.

use square_arch::{PhysId, Topology};

use crate::machine::Machine;

/// The coupling graph as a flat CSR table: each cell's neighbours in
/// exactly [`Topology::for_each_neighbor`] order, so the gather search
/// reads rows with no virtual call. Built once per machine, on the
/// first gather.
#[derive(Debug)]
pub(crate) struct NeighborTable {
    /// Row `p` is `cells[start[p]..start[p + 1]]`.
    start: Vec<usize>,
    cells: Vec<PhysId>,
}

impl NeighborTable {
    pub(crate) fn new(topo: &dyn Topology) -> Self {
        let n = topo.qubit_count();
        let mut start = Vec::with_capacity(n + 1);
        let mut cells = Vec::new();
        start.push(0);
        for q in 0..n {
            topo.for_each_neighbor(PhysId(q as u32), &mut |nb| cells.push(nb));
            start.push(cells.len());
        }
        NeighborTable { start, cells }
    }

    #[inline]
    fn row(&self, p: PhysId) -> &[PhysId] {
        &self.cells[self.start[p.index()]..self.start[p.index() + 1]]
    }
}

/// Flat, epoch-stamped gather-search state. Arrays are sized on first
/// use and never cleared: a bumped epoch invalidates all stamps in
/// O(1), so repeated gathers reuse the same memory.
#[derive(Debug, Default)]
pub(crate) struct BfsScratch {
    /// Predecessor cell index, valid only where the cell is stamped
    /// visited this search.
    prev: Vec<u32>,
    /// `epoch` = visited (or blocked), `epoch + 1` = goal cell; any
    /// older value = untouched this search.
    stamp: Vec<u32>,
    epoch: u32,
    /// FIFO queue (head index instead of pop_front).
    queue: Vec<PhysId>,
}

impl BfsScratch {
    fn ensure(&mut self, n: usize) {
        if self.prev.len() < n {
            self.prev.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        if self.epoch >= u32::MAX - 2 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 2;
    }

    /// The Toffoli gather search: a shortest path from `from` to any
    /// neighbour of `pt` other than `p0`, never entering `pt` or `p0`,
    /// giving up after `cap` dequeued cells. Its answer is exactly the
    /// historical `HashMap`-based search's (FIFO, neighbours in
    /// topology order, goal tested at discovery). On success writes the
    /// path — inclusive of both ends — into `path` and returns true.
    ///
    /// On a machine whose cells fill a `W × H` lattice the answer is
    /// first sought in closed form ([`lattice_gather`]); only the
    /// queries it leaves open run the bounded search.
    pub(crate) fn gather_to(
        &mut self,
        m: &Machine,
        from: PhysId,
        pt: PhysId,
        p0: PhysId,
        cap: usize,
        path: &mut Vec<PhysId>,
    ) -> bool {
        path.clear();
        if let Some(rect) = m.lattice() {
            let xy = |p| m.placement().coord(p);
            if let Some(found) = lattice_gather(rect, xy(from), xy(pt), xy(p0), cap, path) {
                return found;
            }
        }
        let nbrs = m.neighbor_table();
        self.ensure(m.qubit_count());
        let (visited, goal) = (self.epoch, self.epoch + 1);
        let mut goals = 0usize;
        for &g in nbrs.row(pt) {
            if g != p0 {
                self.stamp[g.index()] = goal;
                goals += 1;
            }
        }
        if self.stamp[from.index()] == goal {
            path.push(from);
            return true;
        }
        if goals == 0 {
            return false;
        }
        self.stamp[pt.index()] = visited;
        self.stamp[p0.index()] = visited;
        self.stamp[from.index()] = visited;
        self.prev[from.index()] = from.0;
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0usize;
        let found = 'search: loop {
            let Some(&cur) = self.queue.get(head) else {
                return false;
            };
            head += 1;
            if head > cap {
                return false;
            }
            for &nb in nbrs.row(cur) {
                let s = &mut self.stamp[nb.index()];
                if *s == visited {
                    continue;
                }
                let is_goal = *s == goal;
                *s = visited;
                self.prev[nb.index()] = cur.0;
                if is_goal {
                    break 'search nb;
                }
                self.queue.push(nb);
            }
        };
        path.push(found);
        let mut c = found;
        while c != from {
            c = PhysId(self.prev[c.index()]);
            path.push(c);
        }
        path.reverse();
        true
    }
}

/// Lattice steps in the order grid and line rows list neighbours
/// (`+x, −x, +y, −y`); the gather walk's tie-break depends on it.
const STEPS: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// The gather query on a `w × h` lattice whose cell `(x, y)` is
/// `PhysId(y · w + x)`, answered from geometry: `Some(found)` when the
/// answer (and, if found, the path) is exact without a search, `None`
/// when the bounded search must run — for a degenerate query (`from`
/// blocked, or `p0` not next to `pt`) or when neither bound below
/// decides it.
///
/// **What the search returns.** A FIFO search that reads neighbours in
/// the fixed order `+x, −x, +y, −y` dequeues each level in
/// lexicographic order of its tree paths (spelled as step sequences),
/// so every tree path is the lexicographically least shortest path to
/// its cell, and the first goal discovered ends the least shortest
/// path to the goal set. That path is built greedily from the exact
/// distance field: from each cell take the first step, in that order,
/// to a cell one hop closer.
///
/// **The field.** The graph is the lattice minus `{pt, p0}`, the goals
/// are `N(pt) \ {p0}`, and `p0 = pt + e` for a unit step `e`. Every
/// goal is adjacent to `pt`, so `dist(c) ≥ |c − pt|₁ − 1`. If `c − pt`
/// has a positive component along a unit step `u ≠ e`, the goal
/// `pt + u` lies `|c − pt|₁ − 1` away and every monotone path to it
/// stays on `c`'s side of `pt` along `u`, clear of both blocked cells:
/// the bound is met. Otherwise `c = pt + k·e` with `k ≥ 2`, on the ray
/// beyond `p0`: every goal is `k + 1` away, reached round `p0` when the
/// lattice is at least 2 cells wide across `e`; in a 1-wide strip no
/// path passes `p0` and the goals are unreachable.
///
/// **When to walk.** A search that finds its goal at depth `D` has
/// dequeued only cells at depth ≤ `D − 1`, all inside the Manhattan
/// diamond of radius `D − 1` around `from`. When that diamond, clipped
/// to the lattice, holds at most `cap` cells the search cannot hit its
/// cap, so the walk's answer is the search's. When instead the cells
/// within radius `D − 6`, less the two blocked ones, outnumber `cap`
/// the search must give up first: routing round the two adjacent
/// blocked cells costs at most 4 extra hops, so each such cell lies at
/// depth ≤ `D − 2` and is dequeued before any goal is discovered. Such
/// queries are skipped. (`D` is also the Manhattan distance to the
/// nearest goal, the radius the skip was first proved for.) The band
/// between the two bounds runs the search.
fn lattice_gather(
    (w, h): (u32, u32),
    from: (i32, i32),
    pt: (i32, i32),
    p0: (i32, i32),
    cap: usize,
    path: &mut Vec<PhysId>,
) -> Option<bool> {
    let e = (p0.0 - pt.0, p0.1 - pt.1);
    if from == pt || from == p0 || e.0.abs() + e.1.abs() != 1 {
        return None;
    }
    // The lattice's width across `e`.
    let across = if e.1 == 0 { h } else { w };
    let dist = |(x, y): (i32, i32)| {
        let (dx, dy) = (x - pt.0, y - pt.1);
        let m = dx.unsigned_abs() + dy.unsigned_abs();
        let beyond_p0 = dx * e.1 == dy * e.0 && dx * e.0 + dy * e.1 >= 2;
        match (beyond_p0, across > 1) {
            (false, _) => Some(m - 1),
            (true, true) => Some(m + 1),
            (true, false) => None,
        }
    };
    let Some(d) = dist(from) else {
        return Some(false);
    };
    let (wi, hi) = (w as i32, h as i32);
    if diamond_cells((w, h), from, i64::from(d) - 1, cap) <= cap {
        let id = |(x, y): (i32, i32)| PhysId((y * wi + x) as u32);
        path.push(id(from));
        let mut cur = from;
        for k in (0..d).rev() {
            cur = STEPS
                .iter()
                .map(|&(sx, sy)| (cur.0 + sx, cur.1 + sy))
                .find(|&c| {
                    (0..wi).contains(&c.0)
                        && (0..hi).contains(&c.1)
                        && c != pt
                        && c != p0
                        && dist(c) == Some(k)
                })
                .expect("a cell at distance k + 1 has a neighbour at k");
            path.push(id(cur));
        }
        return Some(true);
    }
    lattice_search_capped((w, h), from, d, cap).then_some(false)
}

/// The cells of the `w × h` lattice within Manhattan radius `r` of
/// `(x, y)`, counted row by row until the count passes `limit`.
fn diamond_cells((w, h): (u32, u32), (x, y): (i32, i32), r: i64, limit: usize) -> usize {
    let (x, y, w, h) = (x as i64, y as i64, w as i64, h as i64);
    let mut cells = 0usize;
    for yy in (y - r).max(0)..=(y + r).min(h - 1) {
        let k = r - (yy - y).abs();
        cells += ((x + k).min(w - 1) - (x - k).max(0) + 1) as usize;
        if cells > limit {
            break;
        }
    }
    cells
}

/// True when the cells of the `w × h` lattice within Manhattan radius
/// `dm − 6` of `from`, less the two blocked cells, outnumber `cap`: a
/// gather search whose nearest goal lies `dm` away must then exhaust
/// its visit cap first (see [`lattice_gather`]).
pub(crate) fn lattice_search_capped(
    rect: (u32, u32),
    from: (i32, i32),
    dm: u32,
    cap: usize,
) -> bool {
    dm.checked_sub(6).is_some_and(|r| {
        diamond_cells(rect, from, i64::from(r), cap.saturating_add(2)).saturating_sub(2) > cap
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::router::GATHER_VISIT_CAP;
    use crate::SplitMix;
    use square_arch::{GridTopology, HeavyHexTopology, LineTopology, RingTopology};

    fn machine(topo: Box<dyn Topology>) -> Machine {
        Machine::new(topo, MachineConfig::nisq())
    }

    /// The generic bounded BFS the gather search replaced, kept as the
    /// reference: any goal predicate, any blocked slice, FIFO order,
    /// neighbours in topology order, goal tested at discovery, at most
    /// `max_visits` dequeued cells.
    fn reference_bfs(
        topo: &dyn Topology,
        from: PhysId,
        goal: &dyn Fn(PhysId) -> bool,
        blocked: &[PhysId],
        max_visits: usize,
    ) -> Option<Vec<PhysId>> {
        if goal(from) {
            return Some(vec![from]);
        }
        let mut prev: Vec<Option<PhysId>> = vec![None; topo.qubit_count()];
        prev[from.index()] = Some(from);
        let mut queue = vec![from];
        let mut head = 0;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            if head > max_visits {
                return None;
            }
            let mut found = None;
            topo.for_each_neighbor(cur, &mut |nb| {
                if found.is_some() || prev[nb.index()].is_some() || blocked.contains(&nb) {
                    return;
                }
                prev[nb.index()] = Some(cur);
                if goal(nb) {
                    found = Some(nb);
                } else {
                    queue.push(nb);
                }
            });
            if let Some(nb) = found {
                let mut path = vec![nb];
                while *path.last().unwrap() != from {
                    path.push(prev[path.last().unwrap().index()].unwrap());
                }
                path.reverse();
                return Some(path);
            }
        }
        None
    }

    /// The gather query through the reference search.
    fn reference_gather(
        topo: &dyn Topology,
        from: PhysId,
        pt: PhysId,
        p0: PhysId,
        cap: usize,
    ) -> Option<Vec<PhysId>> {
        let goal = |c: PhysId| topo.are_coupled(c, pt) && c != p0;
        reference_bfs(topo, from, &goal, &[pt, p0], cap)
    }

    /// Caps small enough that the lattice bound fires on 11 × 11 grids.
    const CAPS: [usize; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

    /// The neighbours of `q`, in [`Topology::for_each_neighbor`] order.
    fn neighbors(topo: &dyn Topology, q: PhysId) -> Vec<PhysId> {
        let mut out = Vec::new();
        topo.for_each_neighbor(q, &mut |nb| out.push(nb));
        out
    }

    /// Every `(from, pt, p0)` gather query on `topo`, `p0` a neighbour
    /// of `pt` (the gather only searches once `c0` sits next to `t`).
    fn queries(topo: &dyn Topology) -> Vec<(PhysId, PhysId, PhysId)> {
        let n = topo.qubit_count() as u32;
        let mut out = Vec::new();
        for pt in (0..n).map(PhysId) {
            for p0 in neighbors(topo, pt) {
                for from in (0..n).map(PhysId) {
                    out.push((from, pt, p0));
                }
            }
        }
        out
    }

    #[test]
    fn gather_routes_around_blocked_cells() {
        let m = machine(Box::new(GridTopology::new(3, 3)));
        let mut bfs = BfsScratch::default();
        let mut path = Vec::new();
        // From (0,0) to a neighbour of (2,0)=PhysId(2) other than
        // (1,0)=PhysId(1), which blocks the direct row.
        let (pt, p0) = (PhysId(2), PhysId(1));
        assert!(bfs.gather_to(&m, PhysId(0), pt, p0, GATHER_VISIT_CAP, &mut path));
        assert_eq!(path.first(), Some(&PhysId(0)));
        assert_eq!(path.last(), Some(&PhysId(5)), "(2,1) is the only goal");
        assert!(!path.contains(&p0), "blocked cell avoided");
        for w in path.windows(2) {
            assert!(m.topo().are_coupled(w[0], w[1]));
        }
        // Scratch reuse: a second query whose start is already a goal.
        assert!(bfs.gather_to(&m, PhysId(5), pt, p0, GATHER_VISIT_CAP, &mut path));
        assert_eq!(path, vec![PhysId(5)]);
    }

    #[test]
    fn gather_respects_visit_budget() {
        let m = machine(Box::new(GridTopology::new(10, 10)));
        let mut bfs = BfsScratch::default();
        let mut path = Vec::new();
        let (from, pt, p0) = (PhysId(0), PhysId(99), PhysId(98));
        assert!(!bfs.gather_to(&m, from, pt, p0, 3, &mut path));
        assert!(bfs.gather_to(&m, from, pt, p0, GATHER_VISIT_CAP, &mut path));
        assert_eq!(path.len(), 18, "(0,0) to (9,8) is 17 hops");
    }

    #[test]
    fn lattice_bound_fires_only_on_capped_searches() {
        let mut fired = 0usize;
        for w in 1..=11u32 {
            for h in 1..=11u32 {
                let topo = GridTopology::new(w, h);
                let xy = |p: PhysId| topo.coord(p);
                for (from, pt, p0) in queries(&topo) {
                    let Some(dm) = neighbors(&topo, pt)
                        .into_iter()
                        .filter(|&g| g != p0)
                        .map(|g| topo.distance(from, g))
                        .min()
                    else {
                        continue;
                    };
                    for cap in CAPS {
                        if lattice_search_capped((w, h), xy(from), dm, cap) {
                            fired += 1;
                            assert_eq!(
                                reference_gather(&topo, from, pt, p0, cap),
                                None,
                                "{w}x{h} from {from} pt {pt} p0 {p0} cap {cap}"
                            );
                        }
                    }
                }
            }
        }
        assert!(fired > 1_000_000, "the bound fired only {fired} times");
    }

    #[test]
    fn gather_matches_the_reference_search() {
        let mut fabrics: Vec<Box<dyn Topology>> = vec![
            Box::new(LineTopology::new(12)),
            Box::new(RingTopology::new(12)),
            Box::new(HeavyHexTopology::new(2)),
        ];
        // Thin strips (where the blocked pair can cut the fabric), a
        // square and the largest exhaustively bounded lattices.
        for (w, h) in [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 9),
            (9, 2),
            (3, 4),
            (6, 6),
            (11, 8),
            (11, 11),
        ] {
            fabrics.push(Box::new(GridTopology::new(w, h)));
        }
        let mut bfs = BfsScratch::default();
        let mut path = Vec::new();
        for topo in fabrics {
            let m = machine(topo);
            let topo = m.topo();
            for (from, pt, p0) in queries(topo) {
                for cap in CAPS.into_iter().chain([GATHER_VISIT_CAP]) {
                    let want = reference_gather(topo, from, pt, p0, cap);
                    let got = bfs.gather_to(&m, from, pt, p0, cap, &mut path);
                    assert_eq!(
                        got.then(|| path.clone()),
                        want,
                        "{} from {from} pt {pt} p0 {p0} cap {cap}",
                        topo.name()
                    );
                }
            }
        }
    }

    /// The walk's tie-break reproduces the search only because grid and
    /// line rows list neighbours `+x, −x, +y, −y` ([`STEPS`]).
    #[test]
    fn lattice_neighbor_rows_follow_the_walk_order() {
        let mut fabrics: Vec<Box<dyn Topology>> = vec![Box::new(LineTopology::new(7))];
        for (w, h) in [(1, 1), (1, 5), (5, 1), (2, 2), (4, 3), (6, 6)] {
            fabrics.push(Box::new(GridTopology::new(w, h)));
        }
        for topo in fabrics {
            let m = machine(topo);
            let (w, h) = m.lattice().expect("a filled lattice");
            for p in (0..m.qubit_count() as u32).map(PhysId) {
                let (x, y) = m.placement().coord(p);
                let want: Vec<PhysId> = STEPS
                    .iter()
                    .map(|&(sx, sy)| (x + sx, y + sy))
                    .filter(|&(x, y)| x >= 0 && y >= 0 && x < w as i32 && y < h as i32)
                    .map(|(x, y)| PhysId(y as u32 * w + x as u32))
                    .collect();
                assert_eq!(m.neighbor_table().row(p), want, "{w}x{h} row {p}");
            }
        }
    }

    /// 200,000 seeded queries at the production cap on lattices large
    /// enough that all three outcomes of [`lattice_gather`] occur:
    /// walked, decided without a search (skipped or unreachable), and
    /// left to the bounded search. Starts cluster within Manhattan
    /// radius 64 of the target, where the walk/search/skip boundaries
    /// of a 4,096-cell cap lie. The reference search dequeues up to
    /// 4,096 cells per query, so this runs in release builds only (CI's
    /// `routing` job runs it).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "200k capped searches; run in release")]
    fn gather_matches_the_reference_search_at_the_production_cap() {
        let mut rng = SplitMix(0x6a7e_5eed);
        let fabrics: [Box<dyn Topology>; 4] = [
            Box::new(GridTopology::new(96, 96)),
            Box::new(GridTopology::new(128, 40)),
            Box::new(GridTopology::new(2, 300)),
            Box::new(LineTopology::new(600)),
        ];
        let mut bfs = BfsScratch::default();
        let mut path = Vec::new();
        let mut outcomes = [0usize; 3];
        for topo in fabrics {
            let m = machine(topo);
            let topo = m.topo();
            let (w, h) = m.lattice().expect("a filled lattice");
            let xy = |p: PhysId| m.placement().coord(p);
            let n = topo.qubit_count() as u64;
            for _ in 0..50_000 {
                let pt = PhysId(rng.below(n) as u32);
                let nbrs = neighbors(topo, pt);
                let p0 = nbrs[rng.below(nbrs.len() as u64) as usize];
                let from = loop {
                    if rng.below(8) == 0 {
                        break PhysId(rng.below(n) as u32);
                    }
                    let (x, y) = xy(pt);
                    let x = x + rng.below(129) as i32 - 64;
                    let y = y + rng.below(129) as i32 - 64;
                    if (0..w as i32).contains(&x) && (0..h as i32).contains(&y) {
                        break PhysId(y as u32 * w + x as u32);
                    }
                };
                let cap = GATHER_VISIT_CAP;
                let outcome = lattice_gather((w, h), xy(from), xy(pt), xy(p0), cap, &mut path);
                outcomes[match outcome {
                    Some(true) => 0,
                    Some(false) => 1,
                    None => 2,
                }] += 1;
                let want = reference_gather(topo, from, pt, p0, cap);
                let got = bfs.gather_to(&m, from, pt, p0, cap, &mut path);
                assert_eq!(
                    got.then(|| path.clone()),
                    want,
                    "{w}x{h} from {from} pt {pt} p0 {p0}"
                );
            }
        }
        let [walked, decided, searched] = outcomes;
        assert!(
            walked > 100_000 && decided > 1_000 && searched > 1_000,
            "walked {walked}, decided {decided}, searched {searched}"
        );
    }
}
