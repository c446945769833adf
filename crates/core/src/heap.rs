//! The ancilla heap: an arena-backed free list of reclaimed physical
//! qubits.
//!
//! Prior work (and our Eager/Lazy baselines) treats all qubits as
//! identical and keeps a LIFO pool (Section III-A). SQUARE instead
//! scans the pool for the best-scoring qubit under the LAA metric; the
//! heap therefore supports both disciplines.
//!
//! # Representation
//!
//! The heap is two structures that stay in lock-step:
//!
//! * an **arena** of per-qubit cells, indexed directly by [`PhysId`],
//!   holding each slot's pool position and a monotonically increasing
//!   *generation* counter; and
//! * a dense **free list** (`pool`) of the currently pooled qubits, in
//!   exactly the order the historical `Vec`-scan heap maintained
//!   (push appends, removal is `swap_remove`), so the LAA tie-breaking
//!   behaviour — and therefore compiled circuits — are bit-identical
//!   to the pre-arena implementation.
//!
//! The arena makes every bookkeeping operation O(1): release into the
//! pool, LIFO allocation, membership queries, handle-based removal,
//! and routing relocation (all previously linear scans). Only the LAA
//! best-candidate *scoring* walk remains linear in pool size — it
//! evaluates an arbitrary caller-supplied metric per candidate — and
//! it now runs over a dense cache-friendly vector.
//!
//! # Generation-tagged handles
//!
//! [`AncillaHeap::push`] mints a [`HeapHandle`] stamped with the
//! slot's current generation; taking the slot (by handle or by scan)
//! bumps the generation, so a stale handle can never alias a later
//! resident of the same slot. Double releases and stale takes are
//! caught in O(1) and reported as [`HeapError`]s in every build
//! profile (the historical heap only `debug_assert`ed).

use std::fmt;

use square_arch::PhysId;

/// Pool position marker for a slot that is not currently pooled.
const NOT_POOLED: u32 = u32::MAX;

/// One arena cell: where the qubit sits in the free list (if pooled)
/// and how many times the slot has been vacated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    /// Index into `pool`, or [`NOT_POOLED`].
    pos: u32,
    /// Bumped every time the slot leaves the pool; stale handles from
    /// earlier residencies fail their generation check.
    generation: u32,
}

impl Cell {
    fn vacant() -> Self {
        Cell {
            pos: NOT_POOLED,
            generation: 0,
        }
    }
}

/// A generation-tagged reference to one pooled qubit, minted by
/// [`AncillaHeap::push`] and redeemed by [`AncillaHeap::take`].
///
/// A handle is invalidated the moment its slot leaves the pool (by
/// any path: [`AncillaHeap::take`] or [`AncillaHeap::pop_lifo`]);
/// redeeming it afterwards fails with [`HeapError::StaleHandle`]
/// instead of silently aliasing whatever occupies the slot next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeapHandle {
    /// The physical slot this handle refers to.
    pub phys: PhysId,
    generation: u32,
}

impl HeapHandle {
    /// The generation this handle was minted under (diagnostics).
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// Misuse of the heap caught by the arena bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The qubit is already pooled: a double release.
    DoubleRelease(PhysId),
    /// The handle's slot was re-allocated (or never pooled) since the
    /// handle was minted.
    StaleHandle(PhysId),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::DoubleRelease(p) => write!(f, "double release of pooled qubit {p}"),
            HeapError::StaleHandle(p) => write!(f, "stale heap handle for qubit {p}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Pool of reclaimed physical qubits awaiting reuse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AncillaHeap {
    cells: Vec<Cell>,
    pool: Vec<PhysId>,
}

impl AncillaHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty heap with arena cells pre-sized for a machine of
    /// `capacity` qubits (avoids growth reallocation mid-compile).
    pub fn with_capacity(capacity: usize) -> Self {
        AncillaHeap {
            cells: vec![Cell::vacant(); capacity],
            pool: Vec::with_capacity(capacity),
        }
    }

    /// Number of pooled qubits.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when no reclaimed qubits are pooled.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// True when `p` is currently pooled. O(1).
    pub fn contains(&self, p: PhysId) -> bool {
        self.cells
            .get(p.0 as usize)
            .is_some_and(|c| c.pos != NOT_POOLED)
    }

    fn cell_mut(&mut self, p: PhysId) -> &mut Cell {
        let idx = p.0 as usize;
        if idx >= self.cells.len() {
            self.cells.resize(idx + 1, Cell::vacant());
        }
        &mut self.cells[idx]
    }

    /// Removes `pool[pos]` in O(1) (`swap_remove`), fixing the moved
    /// element's arena back-pointer and bumping the vacated slot's
    /// generation. Preserves exactly the pool-order evolution of the
    /// historical `Vec::swap_remove` heap.
    fn remove_at(&mut self, pos: u32) -> PhysId {
        let p = self.pool.swap_remove(pos as usize);
        if let Some(&moved) = self.pool.get(pos as usize) {
            self.cells[moved.0 as usize].pos = pos;
        }
        let cell = &mut self.cells[p.0 as usize];
        cell.pos = NOT_POOLED;
        cell.generation = cell.generation.wrapping_add(1);
        p
    }

    /// Returns a reclaimed qubit to the pool, minting a handle for it.
    ///
    /// # Errors
    ///
    /// [`HeapError::DoubleRelease`] when `p` is already pooled.
    pub fn try_push(&mut self, p: PhysId) -> Result<HeapHandle, HeapError> {
        let pos = self.pool.len() as u32;
        let cell = self.cell_mut(p);
        if cell.pos != NOT_POOLED {
            return Err(HeapError::DoubleRelease(p));
        }
        cell.pos = pos;
        let generation = cell.generation;
        self.pool.push(p);
        Ok(HeapHandle {
            phys: p,
            generation,
        })
    }

    /// Returns a reclaimed qubit to the pool.
    ///
    /// # Panics
    ///
    /// On a double release — a compiler-internal invariant violation
    /// (the historical heap only caught this in debug builds).
    pub fn push(&mut self, p: PhysId) -> HeapHandle {
        self.try_push(p).expect("ancilla heap")
    }

    /// Redeems a handle: removes its qubit from the pool in O(1).
    ///
    /// # Errors
    ///
    /// [`HeapError::StaleHandle`] when the slot left the pool since
    /// the handle was minted (generation mismatch) or was never
    /// pooled.
    pub fn take(&mut self, handle: HeapHandle) -> Result<PhysId, HeapError> {
        let cell = self
            .cells
            .get(handle.phys.0 as usize)
            .copied()
            .unwrap_or_else(Cell::vacant);
        if cell.pos == NOT_POOLED || cell.generation != handle.generation {
            return Err(HeapError::StaleHandle(handle.phys));
        }
        Ok(self.remove_at(cell.pos))
    }

    /// The current handle for a pooled qubit, if pooled.
    pub fn handle_of(&self, p: PhysId) -> Option<HeapHandle> {
        let cell = self.cells.get(p.0 as usize)?;
        (cell.pos != NOT_POOLED).then_some(HeapHandle {
            phys: p,
            generation: cell.generation,
        })
    }

    /// Pops the most recently reclaimed qubit (the LIFO discipline of
    /// locality-blind allocators). O(1).
    pub fn pop_lifo(&mut self) -> Option<PhysId> {
        let last = self.pool.len().checked_sub(1)?;
        Some(self.remove_at(last as u32))
    }

    /// Peeks the qubit minimizing `score` without removing it,
    /// returning a handle redeemable in O(1) via [`AncillaHeap::take`];
    /// `None` on an empty heap. Ties break toward the earliest pool
    /// position (the first minimum in [`AncillaHeap::iter`] order).
    pub fn peek_best(&self, mut score: impl FnMut(PhysId) -> f64) -> Option<(HeapHandle, f64)> {
        self.pool
            .iter()
            .map(|&p| (p, score(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(p, s)| {
                let handle = self.handle_of(p).expect("pooled qubit has a handle");
                (handle, s)
            })
    }

    /// Iterates the pooled qubits in pool order (the order
    /// [`AncillaHeap::peek_best`] scans and breaks ties in).
    pub fn iter(&self) -> impl Iterator<Item = PhysId> + '_ {
        self.pool.iter().copied()
    }

    /// Renames a pooled slot after a routing swap relocated its |0⟩
    /// (see `Machine::drain_relocations`). No-op if `from` is not
    /// pooled (the free cell was not ours — e.g. a never-used slot).
    /// O(1); the renamed qubit keeps its pool position, so scan order
    /// matches the historical in-place rename.
    pub fn relocate(&mut self, from: PhysId, to: PhysId) {
        let Some(from_cell) = self.cells.get(from.0 as usize).copied() else {
            return;
        };
        if from_cell.pos == NOT_POOLED {
            return;
        }
        debug_assert!(!self.contains(to), "relocation target {to} already pooled");
        let pos = from_cell.pos;
        // Vacate `from` (bumping its generation: handles to the old
        // name must not resolve) and seat `to` at the same position.
        let cell = &mut self.cells[from.0 as usize];
        cell.pos = NOT_POOLED;
        cell.generation = cell.generation.wrapping_add(1);
        self.cell_mut(to).pos = pos;
        self.pool[pos as usize] = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut h = AncillaHeap::new();
        h.push(PhysId(1));
        h.push(PhysId(2));
        h.push(PhysId(3));
        assert_eq!(h.pop_lifo(), Some(PhysId(3)));
        assert_eq!(h.pop_lifo(), Some(PhysId(2)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = AncillaHeap::new();
        h.push(PhysId(7));
        let (handle, s) = h.peek_best(|p| p.0 as f64).unwrap();
        assert_eq!(handle.phys, PhysId(7));
        assert_eq!(s, 7.0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn peek_handle_redeems_in_o1() {
        let mut h = AncillaHeap::new();
        for i in 0..4 {
            h.push(PhysId(i));
        }
        let (handle, _) = h.peek_best(|p| (p.0 as f64 - 2.0).abs()).unwrap();
        assert_eq!(h.take(handle), Ok(PhysId(2)));
        assert_eq!(h.len(), 3);
        assert!(!h.iter().any(|p| p == PhysId(2)));
        assert!(!h.contains(PhysId(2)));
        // Second redemption of the same handle is stale.
        assert_eq!(h.take(handle), Err(HeapError::StaleHandle(PhysId(2))));
    }

    #[test]
    fn double_release_is_caught() {
        let mut h = AncillaHeap::new();
        h.push(PhysId(5));
        assert_eq!(
            h.try_push(PhysId(5)),
            Err(HeapError::DoubleRelease(PhysId(5)))
        );
        // Release → take → release is fine.
        assert_eq!(h.pop_lifo(), Some(PhysId(5)));
        assert!(h.try_push(PhysId(5)).is_ok());
    }

    #[test]
    fn generations_prevent_cross_residency_aliasing() {
        let mut h = AncillaHeap::new();
        let first = h.push(PhysId(9));
        assert_eq!(h.pop_lifo(), Some(PhysId(9)));
        // Same slot, next residency: the old handle must not alias it.
        let second = h.push(PhysId(9));
        assert_ne!(first.generation(), second.generation());
        assert_eq!(h.take(first), Err(HeapError::StaleHandle(PhysId(9))));
        assert_eq!(h.take(second), Ok(PhysId(9)));
    }

    #[test]
    fn relocate_renames_pooled_slot() {
        let mut h = AncillaHeap::new();
        h.push(PhysId(3));
        h.relocate(PhysId(3), PhysId(9));
        assert!(h.contains(PhysId(9)));
        assert!(!h.contains(PhysId(3)));
        assert_eq!(h.pop_lifo(), Some(PhysId(9)));
        // Unknown source is a no-op.
        h.push(PhysId(1));
        h.relocate(PhysId(5), PhysId(6));
        assert_eq!(h.pop_lifo(), Some(PhysId(1)));
    }

    #[test]
    fn relocate_invalidates_old_name_handles() {
        let mut h = AncillaHeap::new();
        let handle = h.push(PhysId(3));
        h.relocate(PhysId(3), PhysId(9));
        assert_eq!(h.take(handle), Err(HeapError::StaleHandle(PhysId(3))));
        let renamed = h.handle_of(PhysId(9)).unwrap();
        assert_eq!(h.take(renamed), Ok(PhysId(9)));
        assert!(h.is_empty());
    }

    #[test]
    fn empty_heap_yields_none() {
        let mut h = AncillaHeap::new();
        assert!(h.pop_lifo().is_none());
        assert!(h.peek_best(|_| 0.0).is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn pool_order_matches_historical_swap_remove_evolution() {
        // Reference model: the pre-arena Vec heap. After removing an
        // interior element, the last element takes its place; scan
        // order (and thus LAA tie-breaking) must match.
        let mut h = AncillaHeap::new();
        for i in 0..5 {
            h.push(PhysId(i));
        }
        // Remove PhysId(1): historical swap_remove puts 4 at index 1.
        let (best, _) = h.peek_best(|p| if p.0 == 1 { 0.0 } else { 1.0 }).unwrap();
        assert_eq!(h.take(best), Ok(PhysId(1)));
        let order: Vec<u32> = h.iter().map(|p| p.0).collect();
        assert_eq!(order, vec![0, 4, 2, 3]);
        // Ties break toward the earlier scan position: 4 now sits
        // ahead of 2 and 3.
        let (tied, _) = h.peek_best(|p| if p.0 == 0 { 9.0 } else { 7.0 }).unwrap();
        assert_eq!(tied.phys, PhysId(4));
    }

    #[test]
    fn with_capacity_presizes_arena() {
        let mut h = AncillaHeap::with_capacity(16);
        assert!(h.is_empty());
        h.push(PhysId(15));
        assert!(h.contains(PhysId(15)));
        // Beyond the pre-sized arena still works (grows on demand).
        h.push(PhysId(40));
        assert!(h.contains(PhysId(40)));
    }
}
