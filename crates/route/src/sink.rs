//! The schedule sink: everything a machine run *emits*.
//!
//! [`ScheduleSink`] is the output half of the machine's
//! `Placement`/`Clock`/`ScheduleSink` split: communication statistics,
//! the optional recorded physical circuit and placement history, and
//! per-qubit liveness. Liveness intervals are a flat `Vec` indexed by
//! `VirtId` (sentinel-tagged) instead of the old `HashMap`, so the
//! per-gate `note_usage` on the routing hot path is two array writes.

use square_arch::PhysId;
use square_qir::{ClbitId, VirtId};

use crate::machine::{CommStats, LivenessSegment, PlacementEvent};
use crate::schedule::ScheduledGate;

/// Sentinel `(first, last)` for a qubit with no recorded usage.
const UNUSED: (u64, u64) = (u64::MAX, 0);

/// Collects the outputs of a machine run: stats, recorded schedule and
/// placement history (when enabled), liveness segments, and the open
/// per-qubit usage intervals that become segments on release/finish.
#[derive(Debug, Clone)]
pub struct ScheduleSink {
    pub(crate) stats: CommStats,
    schedule: Option<Vec<ScheduledGate>>,
    history: Option<Vec<PlacementEvent>>,
    segments: Vec<LivenessSegment>,
    /// `usage[v]` = (first cycle touched, cycle after last gate), or
    /// [`UNUSED`]; grows as higher `VirtId`s appear.
    usage: Vec<(u64, u64)>,
}

impl ScheduleSink {
    /// A fresh sink; `record` enables schedule + history capture.
    pub fn new(record: bool) -> Self {
        ScheduleSink {
            stats: CommStats::default(),
            schedule: record.then(Vec::new),
            history: record.then(Vec::new),
            segments: Vec::new(),
            usage: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// True when the sink captures the physical schedule (and the
    /// placement history — same knob, same memory rationale).
    #[inline]
    pub fn records_schedule(&self) -> bool {
        self.schedule.is_some()
    }

    /// Widens `v`'s liveness interval to cover `[start, end)`.
    #[inline]
    pub(crate) fn note_usage(&mut self, v: VirtId, start: u64, end: u64) {
        if self.usage.len() <= v.index() {
            self.usage.resize(v.index() + 1, UNUSED);
        }
        let e = &mut self.usage[v.index()];
        e.0 = e.0.min(start);
        e.1 = e.1.max(end);
    }

    /// Takes `v`'s open usage interval (if any), resetting it.
    pub(crate) fn take_usage(&mut self, v: VirtId) -> Option<(u64, u64)> {
        let e = self.usage.get_mut(v.index())?;
        if e.0 == u64::MAX {
            return None;
        }
        Some(std::mem::replace(e, UNUSED))
    }

    /// Appends a closed liveness segment.
    pub(crate) fn push_segment(&mut self, seg: LivenessSegment) {
        self.segments.push(seg);
    }

    /// Records a placement event (no-op unless recording).
    #[inline]
    pub(crate) fn event(&mut self, ev: PlacementEvent) {
        if let Some(h) = &mut self.history {
            h.push(ev);
        }
    }

    /// Records a scheduled gate (no-op unless recording).
    #[inline]
    pub(crate) fn record(
        &mut self,
        gate: square_qir::Gate<PhysId>,
        start: u64,
        dur: u64,
        is_comm: bool,
    ) {
        self.record_classical(gate, start, dur, is_comm, None, None);
    }

    /// Records a scheduled gate carrying classical-bit annotations: a
    /// guard (classically controlled gate) or a measurement target
    /// (no-op unless recording).
    #[inline]
    pub(crate) fn record_classical(
        &mut self,
        gate: square_qir::Gate<PhysId>,
        start: u64,
        dur: u64,
        is_comm: bool,
        guard: Option<ClbitId>,
        measure: Option<ClbitId>,
    ) {
        if let Some(s) = &mut self.schedule {
            s.push(ScheduledGate {
                gate,
                start,
                dur: u32::try_from(dur).expect("gate duration fits in u32"),
                is_comm,
                guard,
                measure,
            });
        }
    }

    /// Decomposes the sink for `Machine::finish`: stats, recorded
    /// outputs, closed segments, and the still-open usage intervals in
    /// ascending `VirtId` order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        CommStats,
        Option<Vec<ScheduledGate>>,
        Option<Vec<PlacementEvent>>,
        Vec<LivenessSegment>,
        Vec<(VirtId, (u64, u64))>,
    ) {
        let open = self
            .usage
            .into_iter()
            .enumerate()
            .filter(|&(_, e)| e.0 != u64::MAX)
            .map(|(v, e)| (VirtId(v as u32), e))
            .collect();
        (self.stats, self.schedule, self.history, self.segments, open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_merges_and_takes() {
        let mut s = ScheduleSink::new(false);
        assert!(!s.records_schedule());
        s.note_usage(VirtId(3), 5, 8);
        s.note_usage(VirtId(3), 2, 6);
        assert_eq!(s.take_usage(VirtId(3)), Some((2, 8)));
        assert_eq!(s.take_usage(VirtId(3)), None, "taken entries reset");
        assert_eq!(s.take_usage(VirtId(99)), None, "never-used entries");
    }

    #[test]
    fn into_parts_lists_open_usage_in_virt_order() {
        let mut s = ScheduleSink::new(true);
        assert!(s.records_schedule());
        s.note_usage(VirtId(4), 1, 2);
        s.note_usage(VirtId(1), 0, 3);
        let (_, schedule, history, segments, open) = s.into_parts();
        assert!(schedule.is_some() && history.is_some());
        assert!(segments.is_empty());
        assert_eq!(open, vec![(VirtId(1), (0, 3)), (VirtId(4), (1, 2))]);
    }
}
