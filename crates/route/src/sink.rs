//! The schedule sink: everything a machine run *emits*.
//!
//! [`ScheduleSink`] is the output half of the machine's
//! `Placement`/`Clock`/`ScheduleSink` split: communication statistics,
//! the physical gates (dropped, recorded with the placement history,
//! or streamed through a [`PhysicalCheck`]), and per-qubit liveness.
//! Liveness intervals are a flat `Vec` indexed by
//! `VirtId` (sentinel-tagged) instead of the old `HashMap`, so the
//! per-gate `note_usage` on the routing hot path is two array writes.

use square_arch::PhysId;
use square_qir::{ClbitId, VirtId};

use crate::machine::{CommStats, LivenessSegment, PlacementEvent};
use crate::schedule::{PhysicalCheck, ScheduledGate};

/// Sentinel `(first, last)` for a qubit with no recorded usage.
const UNUSED: (u64, u64) = (u64::MAX, 0);

/// Where the physical gates of a machine run go.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
enum Emit {
    /// Nowhere: only statistics and liveness are kept.
    Off,
    /// Kept whole, with the placement history: O(gates) memory.
    Record {
        schedule: Vec<ScheduledGate>,
        history: Vec<PlacementEvent>,
    },
    /// Stepped through the physical check as emitted, then dropped:
    /// O(machine qubits) memory.
    Check(PhysicalCheck),
}

/// Collects the outputs of a machine run: stats, the emitted physical
/// gates (recorded with the placement history, or streamed through a
/// [`PhysicalCheck`]), liveness segments, and the open per-qubit usage
/// intervals that become segments on release/finish.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct ScheduleSink {
    pub(crate) stats: CommStats,
    emit: Emit,
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
            emit: if record {
                Emit::Record {
                    schedule: Vec::new(),
                    history: Vec::new(),
                }
            } else {
                Emit::Off
            },
            segments: Vec::new(),
            usage: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// True when emitted gates go anywhere (recorded or checked), so
    /// callers must build their physical form.
    #[inline]
    pub(crate) fn emits_gates(&self) -> bool {
        !matches!(self.emit, Emit::Off)
    }

    /// Streams every gate emitted from now on through `check` instead
    /// of recording or dropping it.
    pub(crate) fn check_with(&mut self, check: PhysicalCheck) {
        self.emit = Emit::Check(check);
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
        if let Emit::Record { history, .. } = &mut self.emit {
            history.push(ev);
        }
    }

    /// Emits a scheduled gate (no-op when emission is off).
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

    /// Emits a scheduled gate carrying classical-bit annotations: a
    /// guard (classically controlled gate) or a measurement target
    /// (no-op when emission is off). The gate is built once, then
    /// recorded or stepped.
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
        // The hot unrecorded path builds nothing.
        if let Emit::Off = self.emit {
            return;
        }
        let g = ScheduledGate {
            gate,
            start,
            dur: u32::try_from(dur).expect("gate duration fits in u32"),
            is_comm,
            guard,
            measure,
        };
        match &mut self.emit {
            Emit::Off => {}
            Emit::Record { schedule, .. } => schedule.push(g),
            Emit::Check(check) => {
                check.step(&g);
            }
        }
    }

    /// Decomposes the sink for `Machine::finish`: stats, recorded
    /// schedule and history, the streamed check, closed segments, and
    /// the still-open usage intervals in ascending `VirtId` order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        CommStats,
        Option<Vec<ScheduledGate>>,
        Option<Vec<PlacementEvent>>,
        Option<PhysicalCheck>,
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
        let (schedule, history, check) = match self.emit {
            Emit::Off => (None, None, None),
            Emit::Record { schedule, history } => (Some(schedule), Some(history), None),
            Emit::Check(check) => (None, None, Some(check)),
        };
        (self.stats, schedule, history, check, self.segments, open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_merges_and_takes() {
        let mut s = ScheduleSink::new(false);
        assert!(!s.emits_gates());
        s.note_usage(VirtId(3), 5, 8);
        s.note_usage(VirtId(3), 2, 6);
        assert_eq!(s.take_usage(VirtId(3)), Some((2, 8)));
        assert_eq!(s.take_usage(VirtId(3)), None, "taken entries reset");
        assert_eq!(s.take_usage(VirtId(99)), None, "never-used entries");
    }

    #[test]
    fn into_parts_lists_open_usage_in_virt_order() {
        let mut s = ScheduleSink::new(true);
        assert!(s.emits_gates());
        s.note_usage(VirtId(4), 1, 2);
        s.note_usage(VirtId(1), 0, 3);
        let (_, schedule, history, check, segments, open) = s.into_parts();
        assert!(schedule.is_some() && history.is_some() && check.is_none());
        assert!(segments.is_empty());
        assert_eq!(open, vec![(VirtId(1), (0, 3)), (VirtId(4), (1, 2))]);
    }
}
