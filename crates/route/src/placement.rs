//! Flat placement state: who sits where, tracked without hashing.
//!
//! [`Placement`] is the space half of the machine's
//! `Placement`/`Clock`/`ScheduleSink` split. Every map the old machine
//! kept in `HashMap`s or `Vec<Option<_>>`s is a dense array here:
//! occupancy and the virtual→physical binding are `u32` arrays with a
//! `u32::MAX` sentinel, and the free / fresh / ever-placed cell
//! sets are `u64`-word bitsets indexed by `PhysId`. The routing hot
//! loop touches nothing but these arrays, so a swap costs a handful of
//! indexed reads and writes — no hashing, no per-gate allocation.
//!
//! The placement also owns the reuse pool the allocator draws from
//! (the paper's reclaimed-ancilla "heap", Algorithm 1): released cells
//! in pool order, kept by three rules — a release appends its cell, a
//! bind of a pooled cell swap-removes it, and a routing swap that
//! carries a data qubit into a pooled free cell renames that entry in
//! place to the cell the data qubit left (the |0⟩ moved there). The
//! order is what LAA scans and breaks ties in, so it is part of the
//! compiled output. A cell can only be released while occupied, and
//! binding it drops it from the pool, so a pooled cell is always free
//! and pooled at most once.

use std::collections::HashMap;

use square_arch::{PhysId, Topology};
use square_qir::VirtId;

use crate::error::RouteError;

/// Sentinel for "no binding" in the flat occupancy/placement arrays.
const NONE: u32 = u32::MAX;

/// A dense bitset over physical cell indices.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct CellSet {
    words: Vec<u64>,
}

impl CellSet {
    /// An empty set sized for `n` cells.
    pub fn empty(n: usize) -> Self {
        CellSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// A set containing every cell in `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Adds cell `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Removes cell `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// Number of cells in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no cell is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest cell in the set.
    pub fn first(&self) -> Option<usize> {
        let (i, w) = self.words.iter().enumerate().find(|(_, &w)| w != 0)?;
        Some(i * 64 + w.trailing_zeros() as usize)
    }

    /// The set's words: bit `i % 64` of word `i / 64` holds cell `i`
    /// (the layout [`Topology::nearest_in`] reads).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The virtual→physical binding state of a machine: occupancy, the
/// free set, the reuse pool, reuse tracking, and the incremental
/// centroid — all as flat arrays and bitsets.
///
/// Obtained read-only from [`Machine::placement`](crate::Machine::placement);
/// mutation goes through the machine so liveness and history stay
/// consistent.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Placement {
    /// `occupant[p]` = virtual qubit held by cell `p` (`NONE` if free).
    occupant: Vec<u32>,
    /// `place[v]` = cell holding virtual qubit `v` (`NONE` if
    /// unplaced); grows as higher `VirtId`s appear.
    place: Vec<u32>,
    /// Free cells (cells with `occupant == NONE`), as a bitset.
    free: CellSet,
    /// Cells that never held *nor were traversed by* a program qubit —
    /// the allocator's "fresh" candidates (always free).
    fresh: CellSet,
    /// Cells that ever held a program qubit (the footprint).
    ever_placed: CellSet,
    /// Cached geometric embedding (`topo.coord` per cell).
    coords: Vec<(i32, i32)>,
    active: usize,
    peak_active: usize,
    /// Cells in `fresh`. Maintained so `nearest_free(_, fresh)` can
    /// skip the query entirely once the fabric's fresh supply is
    /// exhausted (which is most of a large compile).
    fresh_count: usize,
    coord_sum: (i64, i64),
    /// Released cells awaiting reuse, in pool order (see the module
    /// docs for the three rules that maintain it).
    pool: Vec<PhysId>,
    /// `pool_pos[p]` = index of cell `p` in `pool` (`NONE` if not
    /// pooled), so a bind or a rename finds its entry in O(1).
    pool_pos: Vec<u32>,
}

impl Placement {
    /// Empty placement over every cell of `topo`.
    pub fn new(topo: &dyn Topology) -> Self {
        let n = topo.qubit_count();
        let coords = (0..n).map(|i| topo.coord(PhysId(i as u32))).collect();
        Placement {
            occupant: vec![NONE; n],
            place: Vec::new(),
            free: CellSet::full(n),
            fresh: CellSet::full(n),
            ever_placed: CellSet::empty(n),
            coords,
            active: 0,
            peak_active: 0,
            fresh_count: n,
            coord_sum: (0, 0),
            pool: Vec::new(),
            pool_pos: vec![NONE; n],
        }
    }

    /// Total physical cells.
    #[inline]
    pub fn qubit_count(&self) -> usize {
        self.occupant.len()
    }

    /// Currently placed virtual qubits.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Peak number of simultaneously placed qubits so far.
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Free physical cells.
    #[inline]
    pub fn free_count(&self) -> usize {
        self.qubit_count() - self.active
    }

    /// True if the cell holds no virtual qubit.
    #[inline]
    pub fn is_free(&self, p: PhysId) -> bool {
        self.free.contains(p.index())
    }

    /// True if the cell has ever held a qubit (so it is "reused"
    /// rather than "fresh" from the allocator's perspective).
    #[inline]
    pub fn was_ever_used(&self, p: PhysId) -> bool {
        !self.fresh.contains(p.index())
    }

    /// Number of cells never used by any qubit (never held one and
    /// never traversed by a swap). O(1).
    #[inline]
    pub fn fresh_count(&self) -> usize {
        self.fresh_count
    }

    /// The free cells.
    #[inline]
    pub fn free_cells(&self) -> &CellSet {
        &self.free
    }

    /// The fresh cells: never held or traversed by a qubit.
    #[inline]
    pub(crate) fn fresh_cells(&self) -> &CellSet {
        &self.fresh
    }

    /// The reuse pool: released cells awaiting reuse, in pool order.
    /// Every pooled cell is free and appears once. LAA scores them in
    /// this order and keeps the first minimum; the locality-blind
    /// baselines take the last (most recently released) one.
    #[inline]
    pub fn pooled(&self) -> &[PhysId] {
        &self.pool
    }

    /// Marks a cell used, keeping the fresh counter in sync.
    #[inline]
    fn mark_used(&mut self, pi: usize) {
        if self.fresh.contains(pi) {
            self.fresh.remove(pi);
            self.fresh_count -= 1;
        }
    }

    /// Current placement of a virtual qubit.
    #[inline]
    pub fn phys_of(&self, v: VirtId) -> Option<PhysId> {
        match self.place.get(v.index()) {
            Some(&p) if p != NONE => Some(PhysId(p)),
            _ => None,
        }
    }

    /// The virtual qubit held by a cell, if any.
    #[inline]
    pub fn occupant_of(&self, p: PhysId) -> Option<VirtId> {
        match self.occupant[p.index()] {
            NONE => None,
            v => Some(VirtId(v)),
        }
    }

    /// Cached geometric position of a cell (same values as
    /// `topo.coord`, without the virtual call).
    #[inline]
    pub fn coord(&self, p: PhysId) -> (i32, i32) {
        self.coords[p.index()]
    }

    /// Geometric centroid of the given (placed) virtual qubits; `None`
    /// if none are placed yet.
    pub fn centroid_of(&self, virts: &[VirtId]) -> Option<(i32, i32)> {
        let mut n = 0i64;
        let (mut sx, mut sy) = (0i64, 0i64);
        for v in virts {
            if let Some(p) = self.phys_of(*v) {
                let (x, y) = self.coord(p);
                sx += x as i64;
                sy += y as i64;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        Some(((sx / n) as i32, (sy / n) as i32))
    }

    /// Centroid of all currently placed qubits (maintained
    /// incrementally; O(1)). `None` when nothing is placed.
    pub fn active_centroid(&self) -> Option<(i32, i32)> {
        if self.active == 0 {
            return None;
        }
        let n = self.active as i64;
        Some(((self.coord_sum.0 / n) as i32, (self.coord_sum.1 / n) as i32))
    }

    /// Binds `v` to cell `p`, taking `p` out of the reuse pool if it
    /// was pooled.
    pub(crate) fn bind(&mut self, v: VirtId, p: PhysId) -> Result<(), RouteError> {
        if self.phys_of(v).is_some() {
            return Err(RouteError::AlreadyPlaced { virt: v });
        }
        if !self.is_free(p) {
            return Err(RouteError::SlotOccupied { phys: p });
        }
        if self.place.len() <= v.index() {
            self.place.resize(v.index() + 1, NONE);
        }
        self.place[v.index()] = p.0;
        let pi = p.index();
        let pos = self.pool_pos[pi];
        if pos != NONE {
            self.pool.swap_remove(pos as usize);
            if let Some(&moved) = self.pool.get(pos as usize) {
                self.pool_pos[moved.index()] = pos;
            }
            self.pool_pos[pi] = NONE;
        }
        self.occupant[pi] = v.0;
        self.free.remove(pi);
        self.mark_used(pi);
        self.ever_placed.insert(pi);
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        let (x, y) = self.coords[pi];
        self.coord_sum.0 += x as i64;
        self.coord_sum.1 += y as i64;
        Ok(())
    }

    /// Unbinds `v`, returning the cell it held, which joins the end of
    /// the reuse pool.
    pub(crate) fn unbind(&mut self, v: VirtId) -> Result<PhysId, RouteError> {
        let p = self
            .phys_of(v)
            .ok_or(RouteError::UnplacedQubit { virt: v })?;
        self.place[v.index()] = NONE;
        let pi = p.index();
        self.occupant[pi] = NONE;
        self.free.insert(pi);
        self.pool_pos[pi] = self.pool.len() as u32;
        self.pool.push(p);
        self.active -= 1;
        let (x, y) = self.coords[pi];
        self.coord_sum.0 -= x as i64;
        self.coord_sum.1 -= y as i64;
        Ok(p)
    }

    /// Moves the qubit on `path[0]` along `path` (a routing swap chain's
    /// effect on placement state): at each step `from → to` the
    /// occupant of `to` — or, for a free cell, its |0⟩ with its pool
    /// entry — moves back into `from`, and `step(from, to, displaced)`
    /// runs. The free set, reuse marks and centroid sum follow every
    /// step; the mover's own binding is written once, at the end.
    pub(crate) fn shift_along(
        &mut self,
        path: &[PhysId],
        mut step: impl FnMut(PhysId, PhysId, Option<VirtId>),
    ) {
        let Some((&first, rest)) = path.split_first() else {
            return;
        };
        let mover = self.occupant[first.index()];
        debug_assert!(mover != NONE, "a swap chain starts at a placed qubit");
        // An occupied cell is never fresh, and every `to` is marked as
        // the chain reaches it, so each `from` is already used.
        debug_assert!(!self.fresh.contains(first.index()));
        let mut from = first;
        for &to in rest {
            let (fi, ti) = (from.index(), to.index());
            let displaced = self.occupant[ti];
            self.occupant[fi] = displaced;
            if displaced != NONE {
                self.place[displaced as usize] = from.0;
            } else {
                self.free.remove(ti);
                self.free.insert(fi);
                let pos = std::mem::replace(&mut self.pool_pos[ti], NONE);
                if pos != NONE {
                    self.pool_pos[fi] = pos;
                    self.pool[pos as usize] = from;
                }
                let ((fx, fy), (tx, ty)) = (self.coords[fi], self.coords[ti]);
                self.coord_sum.0 += tx as i64 - fx as i64;
                self.coord_sum.1 += ty as i64 - fy as i64;
            }
            self.mark_used(ti);
            step(from, to, (displaced != NONE).then_some(VirtId(displaced)));
            from = to;
        }
        self.occupant[from.index()] = mover;
        self.place[mover as usize] = from.0;
    }

    /// Number of cells that ever held a program qubit.
    pub(crate) fn footprint(&self) -> usize {
        self.ever_placed.len()
    }

    /// The current binding as a map (ascending `VirtId` insertion).
    pub(crate) fn final_placement(&self) -> HashMap<VirtId, PhysId> {
        let mut map = HashMap::new();
        for (v, &p) in self.place.iter().enumerate() {
            if p != NONE {
                map.insert(VirtId(v as u32), PhysId(p));
            }
        }
        map
    }
}

/// The one-swap placement update routing ran per hop before swap
/// chains moved in one pass, kept as the reference
/// [`Placement::shift_along`] is tested against: exchanges the
/// occupants of two cells and returns them, `(of p, of q)`.
#[cfg(test)]
impl Placement {
    pub(crate) fn swap_occupants_reference(
        &mut self,
        p: PhysId,
        q: PhysId,
    ) -> (Option<VirtId>, Option<VirtId>) {
        let pi = p.index();
        let qi = q.index();
        let vp = self.occupant[pi];
        let vq = self.occupant[qi];
        self.occupant[pi] = vq;
        self.occupant[qi] = vp;
        if (vp == NONE) != (vq == NONE) {
            let (px, py) = self.coords[pi];
            let (qx, qy) = self.coords[qi];
            let sign = if vp != NONE { 1 } else { -1 };
            self.coord_sum.0 += sign * (qx as i64 - px as i64);
            self.coord_sum.1 += sign * (qy as i64 - py as i64);
            let (was_free, now_free) = if vp != NONE { (qi, pi) } else { (pi, qi) };
            self.free.remove(was_free);
            self.free.insert(now_free);
            let pos = std::mem::replace(&mut self.pool_pos[was_free], NONE);
            if pos != NONE {
                self.pool_pos[now_free] = pos;
                self.pool[pos as usize] = PhysId(now_free as u32);
            }
        }
        if vp != NONE {
            self.place[vp as usize] = q.0;
        }
        if vq != NONE {
            self.place[vq as usize] = p.0;
        }
        self.mark_used(pi);
        self.mark_used(qi);
        (
            (vp != NONE).then_some(VirtId(vp)),
            (vq != NONE).then_some(VirtId(vq)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_arch::GridTopology;

    #[test]
    fn cellset_round_trips() {
        let mut s = CellSet::empty(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(63) && !s.contains(128));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert_eq!(CellSet::full(130).len(), 130);
        assert_eq!(s.first(), Some(0));
        s.remove(0);
        assert_eq!(s.first(), Some(129));
        assert_eq!(CellSet::empty(130).first(), None);
    }

    #[test]
    fn bind_swap_unbind_keep_state_consistent() {
        let topo = GridTopology::new(3, 1);
        let mut pl = Placement::new(&topo);
        pl.bind(VirtId(7), PhysId(0)).unwrap();
        assert_eq!(pl.phys_of(VirtId(7)), Some(PhysId(0)));
        assert_eq!(pl.occupant_of(PhysId(0)), Some(VirtId(7)));
        assert_eq!(pl.active_count(), 1);
        assert_eq!(pl.free_count(), 2);
        assert!(!pl.is_free(PhysId(0)));
        // Shift into the free, never-pooled middle cell: no pool entry.
        let mut steps = Vec::new();
        pl.shift_along(&[PhysId(0), PhysId(1)], |from, to, displaced| {
            steps.push((from, to, displaced))
        });
        assert_eq!(steps, [(PhysId(0), PhysId(1), None)]);
        assert_eq!(pl.phys_of(VirtId(7)), Some(PhysId(1)));
        assert!(pl.is_free(PhysId(0)) && !pl.is_free(PhysId(1)));
        assert!(pl.pooled().is_empty());
        assert!(pl.was_ever_used(PhysId(0)) && pl.was_ever_used(PhysId(1)));
        let p = pl.unbind(VirtId(7)).unwrap();
        assert_eq!(p, PhysId(1));
        assert_eq!(pl.pooled(), &[PhysId(1)]);
        assert_eq!(pl.active_count(), 0);
        assert_eq!(pl.footprint(), 1, "only cell 0 ever *held* a qubit");
        assert_eq!(pl.peak_active(), 1);
    }

    #[test]
    fn centroids_track_placements() {
        let topo = GridTopology::new(3, 3);
        let mut pl = Placement::new(&topo);
        assert_eq!(pl.active_centroid(), None);
        assert_eq!(pl.centroid_of(&[VirtId(0)]), None);
        pl.bind(VirtId(0), PhysId(0)).unwrap(); // (0,0)
        pl.bind(VirtId(1), PhysId(8)).unwrap(); // (2,2)
        assert_eq!(pl.active_centroid(), Some((1, 1)));
        assert_eq!(pl.centroid_of(&[VirtId(0), VirtId(1)]), Some((1, 1)));
        assert_eq!(pl.centroid_of(&[VirtId(1)]), Some((2, 2)));
    }

    #[test]
    fn bind_errors_match_machine_contract() {
        let topo = GridTopology::new(2, 1);
        let mut pl = Placement::new(&topo);
        pl.bind(VirtId(0), PhysId(0)).unwrap();
        assert!(matches!(
            pl.bind(VirtId(0), PhysId(1)),
            Err(RouteError::AlreadyPlaced { .. })
        ));
        assert!(matches!(
            pl.bind(VirtId(1), PhysId(0)),
            Err(RouteError::SlotOccupied { .. })
        ));
        assert!(matches!(
            pl.unbind(VirtId(9)),
            Err(RouteError::UnplacedQubit { .. })
        ));
    }

    /// A line of `n` cells with `v_i` bound to cell `i`, then released
    /// in the order given: the pool starts as exactly that order.
    fn pooled_line(n: u32, released: &[u32]) -> Placement {
        let topo = GridTopology::new(n, 1);
        let mut pl = Placement::new(&topo);
        for i in 0..n {
            pl.bind(VirtId(i), PhysId(i)).unwrap();
        }
        for &i in released {
            assert_eq!(pl.unbind(VirtId(i)).unwrap(), PhysId(i));
        }
        pl
    }

    fn pool_ids(pl: &Placement) -> Vec<u32> {
        pl.pooled().iter().map(|p| p.0).collect()
    }

    #[test]
    fn releases_append_and_the_last_is_the_newest() {
        let mut pl = pooled_line(4, &[1, 2, 3]);
        assert_eq!(pool_ids(&pl), vec![1, 2, 3]);
        assert_eq!(pl.pooled().last(), Some(&PhysId(3)));
        // Taking the newest (the baselines' LIFO discipline) exposes
        // the one released before it.
        pl.bind(VirtId(10), PhysId(3)).unwrap();
        assert_eq!(pl.pooled().last(), Some(&PhysId(2)));
        pl.bind(VirtId(11), PhysId(2)).unwrap();
        assert_eq!(pool_ids(&pl), vec![1]);
    }

    #[test]
    fn binding_a_pooled_cell_swap_removes_it() {
        let mut pl = pooled_line(5, &[0, 1, 2, 3, 4]);
        assert_eq!(pool_ids(&pl), vec![0, 1, 2, 3, 4]);
        // The last entry takes the vacated position: LAA's first-minimum
        // tie-break now reaches 4 before 2 and 3.
        pl.bind(VirtId(10), PhysId(1)).unwrap();
        assert_eq!(pool_ids(&pl), vec![0, 4, 2, 3]);
        pl.bind(VirtId(11), PhysId(3)).unwrap();
        assert_eq!(pool_ids(&pl), vec![0, 4, 2]);
        pl.bind(VirtId(12), PhysId(0)).unwrap();
        assert_eq!(pool_ids(&pl), vec![2, 4]);
        // Re-releasing appends again, once.
        pl.unbind(VirtId(10)).unwrap();
        assert_eq!(pool_ids(&pl), vec![2, 4, 1]);
    }

    #[test]
    fn chains_rename_pooled_cells_in_place() {
        // Cells 0..5 hold v0..v4; 1 and 3 released, so the pool is [1, 3].
        let mut pl = pooled_line(5, &[1, 3]);
        // v0 walks to cell 3: each pooled cell's |0⟩ steps back one
        // cell and its entry keeps its position; v2 steps back too.
        let mut displaced = Vec::new();
        let path = [PhysId(0), PhysId(1), PhysId(2), PhysId(3)];
        pl.shift_along(&path, |_, _, d| displaced.push(d));
        assert_eq!(displaced, [None, Some(VirtId(2)), None]);
        assert_eq!(pool_ids(&pl), vec![0, 2]);
        assert!(pl.pooled().iter().all(|&p| pl.is_free(p)));
        assert_eq!(pl.phys_of(VirtId(0)), Some(PhysId(3)));
        assert_eq!(pl.phys_of(VirtId(2)), Some(PhysId(1)));
        assert_eq!(pl.occupant_of(PhysId(3)), Some(VirtId(0)));
        assert_eq!(pl.active_centroid(), Some((2, 0)), "(1 + 3 + 4) / 3");
        // A chain over occupied cells only leaves the pool alone.
        pl.shift_along(&[PhysId(4), PhysId(3)], |_, _, _| {});
        assert_eq!(pool_ids(&pl), vec![0, 2]);
        assert_eq!(pl.phys_of(VirtId(0)), Some(PhysId(4)));
        assert_eq!(pl.phys_of(VirtId(4)), Some(PhysId(3)));
    }

    #[test]
    fn unpooled_free_cells_never_join_the_pool() {
        // Cell 1 is fresh; a swap through it leaves cell 0 free but
        // unpooled, and binding either leaves the pool alone.
        let topo = GridTopology::new(3, 1);
        let mut pl = Placement::new(&topo);
        pl.bind(VirtId(0), PhysId(0)).unwrap();
        pl.bind(VirtId(1), PhysId(2)).unwrap();
        pl.unbind(VirtId(1)).unwrap();
        pl.shift_along(&[PhysId(0), PhysId(1)], |_, _, _| {});
        assert!(pl.is_free(PhysId(0)));
        assert_eq!(pool_ids(&pl), vec![2]);
        pl.bind(VirtId(2), PhysId(0)).unwrap();
        assert_eq!(pool_ids(&pl), vec![2]);
    }
}
