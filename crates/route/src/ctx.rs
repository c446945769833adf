//! Per-route context and scratch arenas.
//!
//! The router redesign makes [`Router`](crate::Router) impls stateless
//! strategy objects: all mutable routing state lives in a
//! [`RouterScratch`] owned by the machine and lent to the router for
//! the duration of one `route()` call, bundled with the machine and
//! the lookahead window into a [`RoutingCtx`]. Scratch buffers (decay
//! table, BFS arrays, planned swap chains) are reused across gates, so
//! the steady-state hot path performs no allocation at all.

use square_arch::{PhysId, Topology};
use square_qir::{Gate, VirtId};

use crate::machine::Machine;

/// Reusable per-machine routing scratch: the arenas behind both
/// routers. Parked in the machine and `take`n around each route call.
#[derive(Debug, Default)]
pub struct RouterScratch {
    /// Lookahead: per-cell decay factors (≥ 1.0), reset between gates
    /// via `touched` so the cost stays proportional to swaps inserted.
    pub(crate) decay: Vec<f64>,
    /// Lookahead: cells whose decay is currently above 1.0.
    pub(crate) touched: Vec<PhysId>,
    /// Lookahead: virtual operand pairs of the window gates.
    pub(crate) pairs: Vec<(VirtId, VirtId)>,
    /// Toffoli gather-search arrays.
    pub(crate) bfs: BfsScratch,
    /// Path / swap-chain cell buffer.
    pub(crate) chain: Vec<PhysId>,
    /// Planned swaps for the greedy plan-then-apply path.
    pub(crate) swaps: Vec<(PhysId, PhysId)>,
    /// Tracked operand positions while planning.
    pub(crate) tracked: Vec<(VirtId, PhysId)>,
}

/// Everything a stateless router needs to route one gate: the machine
/// (topology, placement, clock, sink), its scratch arenas, and the
/// upcoming-gate hint window.
pub struct RoutingCtx<'m> {
    /// The machine being routed onto.
    pub(crate) machine: &'m mut Machine,
    /// Scratch arenas, reused across gates.
    pub(crate) scratch: &'m mut RouterScratch,
    /// Upcoming-gate hints (empty unless the executor knows the
    /// router wants them).
    pub(crate) window: &'m [Gate<VirtId>],
}

impl<'m> RoutingCtx<'m> {
    /// The machine being routed onto.
    pub fn machine(&mut self) -> &mut Machine {
        self.machine
    }

    /// The upcoming-gate hint window.
    pub fn window(&self) -> &[Gate<VirtId>] {
        self.window
    }
}

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
pub struct BfsScratch {
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
    /// giving up after `cap` dequeued cells. It visits the graph in
    /// exactly the order the historical `HashMap`-based search did
    /// (FIFO, neighbours in topology order, goal tested at discovery).
    /// On success writes the path — inclusive of both ends — into
    /// `path` and returns true.
    ///
    /// On a machine whose cells fill a `W × H` lattice it first tries
    /// an exact early out. Let `Dm` be the smallest Manhattan distance
    /// from `from` to a goal cell. Routing around the two blocked
    /// (adjacent) cells costs at most 4 extra hops, so every other cell
    /// within Manhattan radius `Dm − 6` of `from` lies at search depth
    /// ≤ `Dm − 2` and is dequeued before any goal can be discovered.
    /// When those cells outnumber `cap` the search would hit its cap,
    /// and it is skipped.
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
        let nbrs = m.neighbor_table();
        self.ensure(m.qubit_count());
        let (visited, goal) = (self.epoch, self.epoch + 1);
        let lattice = m.lattice();
        let mut goals = 0usize;
        let mut dm = u32::MAX;
        for &g in nbrs.row(pt) {
            if g != p0 {
                self.stamp[g.index()] = goal;
                goals += 1;
                if lattice.is_some() {
                    dm = dm.min(m.distance(from, g));
                }
            }
        }
        if self.stamp[from.index()] == goal {
            path.push(from);
            return true;
        }
        if goals == 0 {
            return false;
        }
        if let Some(rect) = lattice {
            if lattice_search_capped(rect, m.placement().coord(from), dm, cap) {
                return false;
            }
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

/// True when the cells of the `w × h` lattice within Manhattan radius
/// `dm − 6` of `from`, less the two blocked cells, outnumber `cap`: a
/// gather search whose nearest goal lies `dm` away must then exhaust
/// its visit cap first (see [`BfsScratch::gather_to`]).
pub(crate) fn lattice_search_capped(
    (w, h): (u32, u32),
    (x, y): (i32, i32),
    dm: u32,
    cap: usize,
) -> bool {
    let Some(r) = dm.checked_sub(6) else {
        return false;
    };
    let (r, x, y, w, h) = (r as i64, x as i64, y as i64, w as i64, h as i64);
    let mut cells = 0usize;
    for yy in (y - r).max(0)..=(y + r).min(h - 1) {
        let k = r - (yy - y).abs();
        cells += ((x + k).min(w - 1) - (x - k).max(0) + 1) as usize;
        if cells.saturating_sub(2) > cap {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::router::GATHER_VISIT_CAP;
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

    /// Every `(from, pt, p0)` gather query on `topo`, `p0` a neighbour
    /// of `pt` (the gather only searches once `c0` sits next to `t`).
    fn queries(topo: &dyn Topology) -> Vec<(PhysId, PhysId, PhysId)> {
        let n = topo.qubit_count() as u32;
        let mut out = Vec::new();
        for pt in (0..n).map(PhysId) {
            for p0 in topo.neighbors(pt) {
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
                    let Some(dm) = topo
                        .neighbors(pt)
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
}
