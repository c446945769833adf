//! Budget-driven early uncomputation (`budget:N`).
//!
//! Grounded in *Reqomp: Space-constrained Uncomputation* — width as a
//! hard constraint rather than an outcome. When an allocation would
//! push the live-qubit count past the cap, the executor early-
//! uncomputes a completed garbage frame (the Pebble-game "remove a
//! pebble" move): its recorded compute slice is replayed inverted at
//! the current trace position, rolling its ancilla back to |0⟩ so the
//! slots can be freed. Recomputation then falls out of the existing
//! mechanical-inversion machinery for free: the early uncompute `U(F)`
//! lands inside every still-open ancestor's recorded region, so an
//! ancestor that later sweeps its own region replays `U(F)` inverted —
//! which *is* `F` forward (on remapped fresh ids), recomputing the
//! frame exactly where a reader inside the inverted slice needs it.
//!
//! Candidate frames must satisfy four rules that keep the move sound
//! and externally invisible (reference semantics see no difference, so
//! `sem::run` replay and the decision log are untouched):
//!
//! 1. **Flat region** — no interior `Free`s, so the inverse contains
//!    no `Alloc`s: replaying it monotonically *decreases* width and
//!    can never recurse into the budget engine at the brink.
//! 2. **No external writes** — every gate write target inside the
//!    region is one of the frame's own ancillas or an interior alloc.
//!    The inverse then perturbs no state the rest of the program
//!    observes.
//! 3. **Fresh** — no qubit the region touches has been written since
//!    the frame's compute ended (tracked by per-qubit write stamps;
//!    a `Free` counts as a write). External *reads* still hold the
//!    values the forward pass saw, so the inverse uncomputes exactly.
//! 4. **Unfrozen** — the frame is not inside the recorded region of a
//!    frame currently in its store/decision/sweep phase, whose pending
//!    mechanical sweep would otherwise free the same qubits twice.

use square_qir::{TraceOp, VirtId};

use crate::report::RecomputeStats;

/// Regions longer than this are never registered as candidates: the
/// registration scan is O(region) and a frame this large frees so few
/// qubits per gate that eviction would never pick it anyway.
pub const MAX_CANDIDATE_REGION: usize = 4096;

/// A completed garbage frame eligible for early uncomputation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Call depth of the frame (recompute amplification grows with
    /// depth, so deep frames score worse).
    pub level: usize,
    /// Recorded compute region `[start..end)` in trace coordinates.
    pub start: usize,
    /// Exclusive end of the compute region; also the freshness stamp —
    /// a write at position ≥ `end` to any touched qubit invalidates
    /// the candidate.
    pub end: usize,
    /// The frame's own (still-live, garbage) ancillas, freed after the
    /// inverse replay.
    pub anc: Vec<VirtId>,
    /// Every qubit the region references (args read, own ancillas,
    /// interior allocs) — the freshness check's footprint.
    pub touched: Vec<VirtId>,
    /// Live qubits an early uncompute frees: own ancillas plus
    /// interior allocs (garbage children swept along by the inverse).
    pub freed: usize,
    /// Measured gates of the recorded region (≈ the cost of one
    /// uncompute or recompute of this frame).
    pub gates: u64,
}

/// Mutable budget-engine state carried by the executor when
/// `budget:N` is active. Absent (`None`) on unbudgeted compiles, so
/// every hook is behind one `Option` check and `budget:∞` stays
/// bit-identical to the base policy.
#[derive(Debug)]
pub struct BudgetState {
    /// The hard cap N on simultaneously live qubits.
    pub cap: usize,
    /// Eager-floor stack need of the entry module (see
    /// [`square_qir::ModuleStats::stack_need`]): the headroom the
    /// anticipatory clamp keeps clear of garbage.
    pub stack_need: usize,
    /// `last_write[v]` = trace position of the latest state-changing
    /// op (gate write, alloc, free) on `VirtId(v)`; grown on demand.
    last_write: Vec<usize>,
    /// Registered early-uncompute candidates (pruned lazily on pick).
    pub candidates: Vec<Candidate>,
    /// `(trace position, gates)` of every early uncompute emitted —
    /// an ancestor sweep whose region covers the position recomputes
    /// that frame, which is how recompute work is counted.
    events: Vec<(usize, u64)>,
    /// Counters reported in [`crate::BudgetOutcome::recompute`].
    pub stats: RecomputeStats,
}

impl BudgetState {
    /// Fresh state for a compile under cap `cap` whose entry module
    /// needs `stack_need` qubits of call-stack headroom.
    pub fn new(cap: usize, stack_need: usize) -> Self {
        BudgetState {
            cap,
            stack_need,
            last_write: Vec::new(),
            candidates: Vec::new(),
            events: Vec::new(),
            stats: RecomputeStats::default(),
        }
    }

    /// Records a state-changing op on `v` at trace position `pos`.
    pub fn note_write(&mut self, v: VirtId, pos: usize) {
        let i = v.0 as usize;
        if i >= self.last_write.len() {
            self.last_write.resize(i + 1, 0);
        }
        self.last_write[i] = pos;
    }

    /// Latest write position of `v` (0 when never written).
    pub fn last_write(&self, v: VirtId) -> usize {
        self.last_write.get(v.0 as usize).copied().unwrap_or(0)
    }

    /// True if every qubit `cand` touches is unwritten since its
    /// compute ended (rule 3).
    pub fn is_fresh(&self, cand: &Candidate) -> bool {
        cand.touched.iter().all(|q| self.last_write(*q) < cand.end)
    }

    /// Drops candidates that can no longer be uncomputed (stale), then
    /// returns the index of the best evictable candidate — lowest
    /// `score` among the unfrozen — or `None` when nothing is
    /// evictable.
    ///
    /// `settling` yields the recorded `[start, end)` compute regions of
    /// the frames in their store/decision/sweep phase (rule 4). A
    /// candidate inside any such region may be freed by that frame's
    /// pending mechanical sweep, so it is frozen: kept, but not picked
    /// until the covering frame's sweep completes without touching it.
    /// Candidates *outside* every region (e.g. frames completed during
    /// a settling frame's store block) stay evictable.
    pub fn pick(
        &mut self,
        settling: impl Iterator<Item = (usize, usize)> + Clone,
        mut score: impl FnMut(&Candidate) -> f64,
    ) -> Option<usize> {
        let mut i = 0;
        while i < self.candidates.len() {
            if self.is_fresh(&self.candidates[i]) {
                i += 1;
            } else {
                self.candidates.swap_remove(i);
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in self.candidates.iter().enumerate() {
            let start = cand.start;
            if settling.clone().any(|(s, e)| s <= start && start < e) {
                continue;
            }
            let s = score(cand);
            if best.is_none_or(|(_, b)| s < b) {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Records an early uncompute of `gates` gates emitted at trace
    /// position `pos`.
    pub fn note_early_uncompute(&mut self, pos: usize, gates: u64) {
        self.stats.early_uncomputed_frames += 1;
        self.stats.early_uncompute_gates += gates;
        self.events.push((pos, gates));
    }

    /// Counts recomputes implied by a mechanical sweep of
    /// `[start..end)`: every early uncompute emitted inside the region
    /// is replayed forward by the sweep's inversion. Events stay
    /// recorded — an outer ancestor that later sweeps a covering
    /// region recomputes the frame again.
    pub fn note_sweep(&mut self, start: usize, end: usize) {
        // `events` positions are strictly increasing (each append is
        // at the then-current trace end).
        let lo = self.events.partition_point(|&(p, _)| p < start);
        let hi = self.events.partition_point(|&(p, _)| p < end);
        for &(_, gates) in &self.events[lo..hi] {
            self.stats.recomputed_frames += 1;
            self.stats.recompute_gates += gates;
        }
    }
}

/// Scans a recorded compute region and builds a [`Candidate`] when the
/// frame satisfies rules 1–3 at registration time (rule 4 is dynamic).
/// `last_write` is the engine's stamp lookup; `anc` the frame's own
/// ancillas.
pub fn scan_candidate(
    region: &[TraceOp],
    start: usize,
    level: usize,
    anc: &[VirtId],
    gates: u64,
    last_write: impl Fn(VirtId) -> usize,
) -> Option<Candidate> {
    if region.len() > MAX_CANDIDATE_REGION {
        return None;
    }
    let end = start + region.len();
    let mut interior: Vec<VirtId> = Vec::new();
    let mut touched: Vec<VirtId> = anc.to_vec();
    let touch = |touched: &mut Vec<VirtId>, v: VirtId| {
        if !touched.contains(&v) {
            touched.push(v);
        }
    };
    for op in region {
        match op {
            TraceOp::Alloc(v) => {
                interior.push(*v);
                touch(&mut touched, *v);
            }
            // Rule 1: an interior free means the inverse would
            // allocate — rejected so replay monotonically shrinks.
            TraceOp::Free(_) => return None,
            // Rule 2: writes must stay inside the frame. A classically
            // controlled gate writes whatever its inner gate writes.
            TraceOp::Gate(g) | TraceOp::CondGate { gate: g, .. } => {
                g.for_each_qubit(|q| touch(&mut touched, *q));
                let mut external_write = false;
                g.for_each_write(|w| {
                    if !interior.contains(w) && !anc.contains(w) {
                        external_write = true;
                    }
                });
                if external_write {
                    return None;
                }
            }
            // Measurement reads only: it touches its qubit (the
            // region's inverse re-measures it) but writes nothing.
            TraceOp::Measure { qubit, .. } => touch(&mut touched, *qubit),
        }
    }
    // Rule 3 at registration: the store block (already executed) must
    // not have written anything the region touches.
    if touched.iter().any(|q| last_write(*q) >= end) {
        return None;
    }
    let freed = anc.len() + interior.len();
    Some(Candidate {
        level,
        start,
        end,
        anc: anc.to_vec(),
        touched,
        freed,
        gates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_qir::Gate;

    fn v(n: u32) -> VirtId {
        VirtId(n)
    }

    #[test]
    fn scan_accepts_a_flat_self_contained_region() {
        // CX(arg0 → anc0): reads external, writes own ancilla.
        let region = [TraceOp::Gate(Gate::Cx {
            control: v(0),
            target: v(1),
        })];
        let cand = scan_candidate(&region, 10, 1, &[v(1)], 1, |_| 0).unwrap();
        assert_eq!(cand.end, 11);
        assert_eq!(cand.freed, 1);
        assert!(cand.touched.contains(&v(0)) && cand.touched.contains(&v(1)));
    }

    #[test]
    fn scan_rejects_interior_frees_and_external_writes() {
        let freeing = [TraceOp::Free(v(5))];
        assert!(scan_candidate(&freeing, 0, 1, &[v(1)], 1, |_| 0).is_none());
        // Writes arg0: inverting it would corrupt live state.
        let writing = [TraceOp::Gate(Gate::Cx {
            control: v(1),
            target: v(0),
        })];
        assert!(scan_candidate(&writing, 0, 1, &[v(1)], 1, |_| 0).is_none());
    }

    #[test]
    fn scan_rejects_store_clobbered_regions() {
        let region = [TraceOp::Gate(Gate::X { target: v(1) })];
        // A write to the touched qubit after the region (position ≥ 1).
        assert!(scan_candidate(&region, 0, 1, &[v(1)], 1, |_| 7).is_none());
    }

    #[test]
    fn interior_allocs_count_toward_freed_and_may_be_written() {
        let region = [
            TraceOp::Alloc(v(3)),
            TraceOp::Gate(Gate::Cx {
                control: v(1),
                target: v(3),
            }),
        ];
        let cand = scan_candidate(&region, 0, 2, &[v(1)], 1, |_| 0).unwrap();
        assert_eq!(cand.freed, 2);
    }

    #[test]
    fn staleness_and_freeze_gate_the_pick() {
        let mut b = BudgetState::new(8, 0);
        let cand = Candidate {
            level: 1,
            start: 4,
            end: 6,
            anc: vec![v(2)],
            touched: vec![v(1), v(2)],
            freed: 1,
            gates: 3,
        };
        b.candidates.push(cand.clone());
        let gates = |c: &Candidate| c.gates as f64;
        assert_eq!(b.pick([].into_iter(), gates), Some(0));
        // Frozen: a frame whose recorded region covers ours is in its
        // sweep phase.
        assert_eq!(b.pick([(2, 8)].into_iter(), gates), None);
        assert_eq!(b.candidates.len(), 1, "frozen candidates are kept");
        // A settling region that *ends* before our frame began (we
        // completed during its store phase) does not block eviction.
        assert_eq!(b.pick([(0, 3)].into_iter(), gates), Some(0));
        // Stale: a later write to a touched qubit drops it.
        b.note_write(v(1), 9);
        assert_eq!(b.pick([].into_iter(), gates), None);
        assert!(b.candidates.is_empty());
    }

    #[test]
    fn sweep_accounting_counts_covered_events() {
        let mut b = BudgetState::new(8, 0);
        b.note_early_uncompute(10, 5);
        b.note_early_uncompute(20, 7);
        b.note_sweep(0, 15);
        assert_eq!(b.stats.recomputed_frames, 1);
        assert_eq!(b.stats.recompute_gates, 5);
        b.note_sweep(0, 30);
        assert_eq!(b.stats.recomputed_frames, 3);
        assert_eq!(b.stats.recompute_gates, 17);
    }
}
