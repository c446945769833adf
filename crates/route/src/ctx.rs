//! The Toffoli gather search and its scratch arrays.
//!
//! Both routers bring a Toffoli's second control next to the target
//! along a shortest path that avoids the target's and the first
//! control's cells: [`BfsScratch::gather_to`] answers it, from
//! geometry on a filled lattice ([`lattice_gather`], which reproduces
//! the bounded search's answer, give-ups included, without running it)
//! and by a bounded breadth-first search over a flat [`NeighborTable`]
//! elsewhere. The search arrays live in the machine's router scratch
//! and are reused across gates, so the steady-state hot path allocates
//! nothing.

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
    /// decided from geometry ([`lattice_gather`]): the cap there is the
    /// point at which the search *would* give up, which the rule
    /// reproduces, and no search runs. Only coupling-graph fabrics
    /// (heavy-hex, ring) and degenerate queries (`from` blocked, or
    /// `p0` not next to `pt`, which the routers never issue) run the
    /// bounded search.
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
/// `PhysId(y · w + x)`, decided from geometry: `Some(found)` is the
/// bounded search's exact answer (and, if found, its path), `None`
/// means the query is degenerate (`from` blocked, or `p0` not next to
/// `pt`) and the search must run. Every query the routers issue is
/// decided here, so on a lattice the search never runs.
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
/// **Whether the cap stops it.** Let `m = |from − pt|₁` and `D =
/// dist(from)`. Off the ray, `D = m − 1`, `pt` is `D + 1` away from
/// `from` and `p0` at least `D`. On the ray, `D = m + 1`, `p0` is
/// `D − 2` away and `pt` is `D − 1`. A Manhattan-shortest path to a
/// cell passes only cells strictly nearer `from`, and in a rectangle it
/// stays inside the lattice, so:
///
/// 1. The cells at search depth ≤ `D − 2` are exactly the clipped
///    Manhattan diamond of radius `D − 2` round `from`, less `p0` on
///    the ray: `N` cells, all dequeued before any cell of depth `D − 1`.
/// 2. Depth `D − 1` is the clipped ring at Manhattan distance `D − 1`,
///    less `pt`, dequeued in lexicographic order of each cell's x run
///    then y run. The one exception is a ray along x: the two cells
///    beside `p0` are reached by stepping aside one move before it,
///    `s^(D−3) (±y) s` with `s` the x step toward `p0`, and so sort
///    just before the cell 2 rows away on the same side in the column
///    one step nearer `from`.
/// 3. No goal lies nearer than `D`, so the goal is discovered while
///    the search expands `q*`, the first cell of depth `D − 1` next to
///    a goal: dequeue number `N + rank(q*)`.
///
/// So the search finds its goal exactly when `N + rank(q*) ≤ cap`, and
/// then its path is the walk. (`D = 0` means `from` is itself a goal,
/// found before any dequeue.)
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
    if d > 0 && !lattice_found_within((w, h), from, pt, e, d, cap) {
        return Some(false);
    }
    let (wi, hi) = (w as i32, h as i32);
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
    Some(true)
}

/// True when the gather search from `from`, whose nearest goal lies
/// `d ≥ 1` hops away, discovers it within `cap` dequeues: facts 1–3 of
/// [`lattice_gather`], with the ring walked in dequeue order until its
/// first cell next to a goal, or until the count passes `cap`.
fn lattice_found_within(
    (w, h): (u32, u32),
    from: (i32, i32),
    pt: (i32, i32),
    e: (i32, i32),
    d: u32,
    cap: usize,
) -> bool {
    let r = d as i32 - 1;
    // The rule implies this shortcut: `N + rank(q*)` is at most the
    // diamond of radius `D − 1`, so a diamond within the cap is found.
    // Most gathers are short, and it spares them the ring walk.
    if diamond_cells((w, h), from, i64::from(r)) <= cap as u64 {
        return true;
    }
    // Off the ray `D = m − 1`, on it `D = m + 1`.
    let on_ray = r >= (from.0 - pt.0).abs() + (from.1 - pt.1).abs();
    let shallower = diamond_cells((w, h), from, i64::from(r) - 1) - u64::from(on_ray);
    let Some(mut budget) = (cap as u64).checked_sub(shallower) else {
        return false;
    };
    // Each ring cell counts one dequeue; `Some(found)` ends the walk.
    let mut visit = |(dx, dy): (i32, i32)| {
        let c = (from.0 + dx, from.1 + dy);
        let inside = (0..w as i32).contains(&c.0) && (0..h as i32).contains(&c.1);
        if !inside || c == pt {
            return None;
        }
        if budget == 0 {
            return Some(false);
        }
        budget -= 1;
        let (a, b) = (c.0 - pt.0, c.1 - pt.1);
        // Next to a goal: two steps from `pt`, other than through `p0`.
        (a.abs() + b.abs() == 2 && (a, b) != (2 * e.0, 2 * e.1)).then_some(true)
    };
    // On a ray along x, the cells beside `p0` move from the column
    // `(r − 1)·s` to just before the 2-row cells of column `(r − 2)·s`.
    let s = if on_ray && e.1 == 0 { -e.0 } else { 0 };
    for g in 0..=2 * r {
        let dx = if g < r { r - g } else { g - 2 * r };
        let k = r - dx.abs();
        let moved = s != 0 && dx == (r - 1) * s;
        let takes_moved = s != 0 && dx == (r - 2) * s;
        let cells = [
            (takes_moved, ((r - 1) * s, 1)),
            (!moved, (dx, k)),
            (takes_moved, ((r - 1) * s, -1)),
            (!moved && k > 0, (dx, -k)),
        ];
        for (present, c) in cells {
            if let Some(found) = present.then(|| visit(c)).flatten() {
                return found;
            }
        }
    }
    unreachable!("a cell of depth d − 1 lies next to a goal at depth d")
}

/// The cells of the `w × h` lattice within Manhattan radius `r` of
/// `(x, y)`, in closed form: the full diamond, less the part beyond
/// each side (a cut `t` cells out holds `(r − t + 1)²` cells), plus the
/// part beyond two adjacent sides, counted twice (a triangle).
fn diamond_cells((w, h): (u32, u32), (x, y): (i32, i32), r: i64) -> u64 {
    if r < 0 {
        return 0;
    }
    let beyond = |t: i64| (r - t + 1).max(0).pow(2);
    let corner = |t: i64, u: i64| {
        let s = (r - t - u).max(-1);
        (s + 1) * (s + 2) / 2
    };
    let (x, y) = (i64::from(x), i64::from(y));
    let (left, right, below, above) = (x + 1, i64::from(w) - x, y + 1, i64::from(h) - y);
    let cells =
        2 * r * r + 2 * r + 1 - beyond(left) - beyond(right) - beyond(below) - beyond(above)
            + corner(left, below)
            + corner(left, above)
            + corner(right, below)
            + corner(right, above);
    cells as u64
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
        reference_search(topo, from, goal, blocked, max_visits).map(|(path, _)| path)
    }

    /// [`reference_bfs`], also returning how many cells it dequeued
    /// before it discovered the goal.
    fn reference_search(
        topo: &dyn Topology,
        from: PhysId,
        goal: &dyn Fn(PhysId) -> bool,
        blocked: &[PhysId],
        max_visits: usize,
    ) -> Option<(Vec<PhysId>, usize)> {
        if goal(from) {
            return Some((vec![from], 0));
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
                return Some((path, head));
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

    /// Caps small enough that the search gives up on 11 × 11 grids.
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
    /// enough that the search both finds its goal and gives up. Starts
    /// cluster within Manhattan radius 64 of the target, where a
    /// 4,096-cell cap starts to bind. Every query whose `from` is not
    /// blocked is decided by [`lattice_gather`], without a search. The
    /// reference search dequeues up to 4,096 cells per query, so this
    /// runs in release builds only (CI's `routing` job runs it).
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
        let (mut found, mut gave_up) = (0usize, 0usize);
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
                let want = reference_gather(topo, from, pt, p0, cap);
                let got = bfs.gather_to(&m, from, pt, p0, cap, &mut path);
                assert_eq!(
                    got.then(|| path.clone()),
                    want,
                    "{w}x{h} from {from} pt {pt} p0 {p0}"
                );
                if from == pt || from == p0 {
                    continue;
                }
                path.clear();
                let decided = lattice_gather((w, h), xy(from), xy(pt), xy(p0), cap, &mut path);
                assert_eq!(decided, Some(got), "{w}x{h} from {from} pt {pt} p0 {p0}");
                *if got { &mut found } else { &mut gave_up } += 1;
            }
        }
        assert!(
            found > 100_000 && gave_up > 1_000,
            "found {found}, gave up {gave_up}"
        );
    }

    /// The rule of [`lattice_gather`] against the reference search on
    /// every grid up to 9 × 9, every `1 × n`, `2 × n`, `n × 1` and
    /// `n × 2` strip up to 16, and every line up to 40: every query with
    /// `from` unblocked and `p0` next to `pt`, at every cap from 1 to
    /// `w · h + 1`. A capped search is a prefix of the uncapped one, so
    /// the reference runs once per query, uncapped, and is checked
    /// capped on both sides of the dequeue count at which it finds its
    /// goal. That is 15.8 M gathers over 329,504 queries, so this runs
    /// in release builds only (about 1 s; 18 s in the dev profile).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "15.8 M gathers; run in release")]
    fn lattice_rule_matches_the_reference_search_at_every_cap() {
        let mut fabrics: Vec<Box<dyn Topology>> = Vec::new();
        for w in 1..=9 {
            for h in 1..=9 {
                fabrics.push(Box::new(GridTopology::new(w, h)));
            }
        }
        for n in 10..=16 {
            for k in 1..=2 {
                fabrics.push(Box::new(GridTopology::new(k, n)));
                fabrics.push(Box::new(GridTopology::new(n, k)));
            }
        }
        for n in 1..=40 {
            fabrics.push(Box::new(LineTopology::new(n)));
        }
        let mut path = Vec::new();
        for topo in fabrics {
            let m = machine(topo);
            let topo = m.topo();
            let (w, h) = m.lattice().expect("a filled lattice");
            let xy = |p: PhysId| m.placement().coord(p);
            for (from, pt, p0) in queries(topo) {
                if from == pt || from == p0 {
                    continue;
                }
                let goal = |c: PhysId| topo.are_coupled(c, pt) && c != p0;
                let blocked = [pt, p0];
                let want = reference_search(topo, from, &goal, &blocked, usize::MAX);
                let at = |cap| reference_bfs(topo, from, &goal, &blocked, cap);
                if let Some((found, need)) = &want {
                    assert_eq!(at(*need).as_ref(), Some(found));
                    assert!(*need == 0 || at(need - 1).is_none());
                }
                for cap in 1..=topo.qubit_count() + 1 {
                    let want = want.as_ref().filter(|&&(_, need)| need <= cap);
                    path.clear();
                    let got = lattice_gather((w, h), xy(from), xy(pt), xy(p0), cap, &mut path);
                    assert_eq!(
                        got,
                        Some(want.is_some()),
                        "{w}x{h} from {from} pt {pt} p0 {p0} cap {cap}"
                    );
                    if let Some((found, _)) = want {
                        assert_eq!(&path, found, "{w}x{h} from {from} pt {pt} p0 {p0}");
                    }
                }
            }
        }
    }

    /// The row-by-row count [`diamond_cells`] replaced, kept as its
    /// reference.
    fn diamond_rows((w, h): (u32, u32), (x, y): (i32, i32), r: i64) -> u64 {
        let (x, y, w, h) = (x as i64, y as i64, w as i64, h as i64);
        let mut cells = 0;
        for yy in (y - r).max(0)..=(y + r).min(h - 1) {
            let k = r - (yy - y).abs();
            cells += ((x + k).min(w - 1) - (x - k).max(0) + 1) as u64;
        }
        cells
    }

    #[test]
    fn diamond_count_matches_the_row_loop() {
        for w in 1..=13u32 {
            for h in 1..=13u32 {
                for (x, y) in (0..w as i32).flat_map(|x| (0..h as i32).map(move |y| (x, y))) {
                    for r in -1..=i64::from(w + h) {
                        assert_eq!(
                            diamond_cells((w, h), (x, y), r),
                            diamond_rows((w, h), (x, y), r),
                            "{w}x{h} centre ({x}, {y}) radius {r}"
                        );
                    }
                }
            }
        }
        // The largest lattices a machine may have (`ArchSpec::MAX_QUBITS`
        // in `square-core`, 2^20 cells): no intermediate overflows.
        let n = 1u32 << 20;
        for (w, h) in [(n, 1), (1, n), (1024, 1024)] {
            let (wi, hi) = (w as i32, h as i32);
            for centre in [(0, 0), (wi - 1, hi - 1), (wi / 2, hi / 3), (wi - 1, 0)] {
                for r in [0, 1, 1023, 1024, 4096, i64::from(n) - 1, i64::from(w + h)] {
                    assert_eq!(
                        diamond_cells((w, h), centre, r),
                        diamond_rows((w, h), centre, r),
                        "{w}x{h} centre {centre:?} radius {r}"
                    );
                }
            }
            assert_eq!(
                diamond_cells((w, h), (0, 0), i64::from(w + h)),
                u64::from(n)
            );
        }
    }
}
