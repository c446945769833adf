//! ASAP clock: per-qubit availability tracking.
//!
//! The paper's gate scheduler places each gate "to the earliest time
//! step possible" (Section III-C). With data dependencies carried by
//! the qubits themselves, that is exactly per-qubit availability: a
//! gate starts at the max availability of its operands and occupies
//! them for its duration.

use square_arch::PhysId;

/// Per-physical-qubit busy-until times plus the overall makespan —
/// the time half of the machine's `Placement`/`Clock`/`ScheduleSink`
/// split. Read it through [`Machine::clock`](crate::Machine::clock).
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Clock {
    avail: Vec<u64>,
    depth: u64,
}

impl Clock {
    /// A clock for `n` physical qubits, all available at time 0.
    pub fn new(n: usize) -> Self {
        Clock {
            avail: vec![0; n],
            depth: 0,
        }
    }

    /// Earliest time a gate over `qs` can start.
    pub fn ready_at(&self, qs: &[PhysId]) -> u64 {
        qs.iter().map(|q| self.avail[q.index()]).max().unwrap_or(0)
    }

    /// Availability of a single qubit.
    #[inline]
    pub fn avail(&self, q: PhysId) -> u64 {
        self.avail[q.index()]
    }

    /// Schedules an operation over `qs` starting at `start` for `dur`
    /// cycles; returns the start time. `start` must be ≥
    /// [`Clock::ready_at`] for the same operands (callers pick the
    /// slot; braid routing may delay past readiness).
    pub fn occupy(&mut self, qs: &[PhysId], start: u64, dur: u64) -> u64 {
        debug_assert!(start >= self.ready_at(qs), "scheduling before readiness");
        let end = start + dur;
        for q in qs {
            self.avail[q.index()] = end;
        }
        self.depth = self.depth.max(end);
        start
    }

    /// Schedules ASAP: starts at readiness.
    pub fn occupy_asap(&mut self, qs: &[PhysId], dur: u64) -> u64 {
        let start = self.ready_at(qs);
        self.occupy(qs, start, dur)
    }

    /// Marks `q` busy until `end`, the routing swap chain's per-cell
    /// write (`Machine::shift_along` picks each swap's slot itself).
    #[inline]
    pub(crate) fn hold(&mut self, q: PhysId, end: u64) {
        self.avail[q.index()] = end;
        self.depth = self.depth.max(end);
    }

    /// Overall makespan (circuit depth in cycles).
    #[inline]
    pub fn depth(&self) -> u64 {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_gates_run_in_parallel() {
        let mut t = Clock::new(4);
        let s0 = t.occupy_asap(&[PhysId(0), PhysId(1)], 1);
        let s1 = t.occupy_asap(&[PhysId(2), PhysId(3)], 1);
        assert_eq!(s0, 0);
        assert_eq!(s1, 0);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn dependent_gates_serialize() {
        let mut t = Clock::new(3);
        t.occupy_asap(&[PhysId(0), PhysId(1)], 3); // a SWAP
        let s = t.occupy_asap(&[PhysId(1), PhysId(2)], 1);
        assert_eq!(s, 3, "waits for qubit 1");
        assert_eq!(t.depth(), 4);
    }

    #[test]
    fn explicit_start_after_ready_is_honored() {
        let mut t = Clock::new(2);
        let s = t.occupy(&[PhysId(0)], 5, 2);
        assert_eq!(s, 5);
        assert_eq!(t.avail(PhysId(0)), 7);
        assert_eq!(t.avail(PhysId(1)), 0);
        assert_eq!(t.depth(), 7);
    }

    #[test]
    fn hold_sets_one_cell_and_the_makespan() {
        let mut t = Clock::new(3);
        t.occupy_asap(&[PhysId(0), PhysId(1)], 3);
        t.hold(PhysId(2), 2);
        assert_eq!((t.avail(PhysId(2)), t.depth()), (2, 3));
        t.hold(PhysId(0), 6);
        assert_eq!((t.avail(PhysId(0)), t.avail(PhysId(1))), (6, 3));
        assert_eq!(t.depth(), 6);
    }
}
