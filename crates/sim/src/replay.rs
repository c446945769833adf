//! Record-order replay of routed physical schedules — the physical
//! half of translation validation.
//!
//! The compile-time executor applies operations to the machine one at
//! a time; the recorded schedule is exactly that emission order, with
//! routing SWAPs interleaved at the points they actually happened. On
//! a computational-basis state, replaying the stream **in record
//! order** therefore reproduces the machine's semantics by
//! construction: every physical gate mirrors the virtual gate applied
//! at that point, and SWAPs move data and pooled |0⟩ cells exactly as
//! routing did.
//!
//! Record order is deliberately *not* start-cycle order. On swap-chain
//! (NISQ) machines the two coincide per qubit — the ASAP timeline
//! makes start cycles monotone along every qubit's gate sequence, an
//! invariant [`check_swapchain_schedule`] verifies. On braided (FT)
//! machines they can differ: a composite Toffoli is recorded at the
//! start of its *earliest* pairwise braid, which may precede an
//! earlier-recorded gate on an operand that only joins a *later*
//! braid, so sorting by start cycle can illegally reorder same-qubit
//! gates. Replay through this module stays correct for both targets.

use std::fmt;

use square_arch::PhysId;
use square_qir::Clbits;
use square_route::ScheduledGate;

/// Applies one scheduled event to the state and the classical-bit
/// side channel: a measurement records its cell's bit into the
/// destination clbit (and applies no gate — the carrier gate merely
/// names the cell), a guarded gate fires only when its clbit was
/// recorded 1, and everything else applies directly. Returns whether
/// the gate fired.
pub fn step_gate(g: &ScheduledGate, bits: &mut [bool], clbits: &mut Clbits) -> bool {
    if let Some(c) = g.measure {
        let mut cell = PhysId(0);
        g.gate.for_each_qubit(|p| cell = *p);
        clbits.record(c, bits[cell.index()]);
        return false;
    }
    if g.guard.is_some_and(|c| clbits.get(c) != Some(true)) {
        return false;
    }
    g.gate.apply_bits(bits);
    true
}

/// Outcome of a record-order replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Final basis state over all physical qubits.
    pub bits: Vec<bool>,
    /// Final values of every classical bit written by mid-circuit
    /// measurements (empty for fully unitary schedules).
    pub clbits: Clbits,
    /// Program gates applied.
    pub program_gates: u64,
    /// Communication gates (routing swaps) applied.
    pub comm_gates: u64,
}

impl Replay {
    /// Reads the listed physical qubits out of the final state (e.g.
    /// a `CompileReport::measure_map`), in order.
    pub fn read(&self, measure: &[PhysId]) -> Vec<bool> {
        measure.iter().map(|q| self.bits[q.index()]).collect()
    }
}

/// Replays `schedule` in record order from |0…0⟩ over `n_qubits`
/// physical qubits.
pub fn replay_schedule(schedule: &[ScheduledGate], n_qubits: usize) -> Replay {
    let mut bits = vec![false; n_qubits];
    let mut clbits = Clbits::new();
    let mut program_gates = 0u64;
    let mut comm_gates = 0u64;
    for g in schedule {
        step_gate(g, &mut bits, &mut clbits);
        if g.is_comm {
            comm_gates += 1;
        } else {
            program_gates += 1;
        }
    }
    Replay {
        bits,
        clbits,
        program_gates,
        comm_gates,
    }
}

/// A per-qubit scheduling violation found by
/// [`check_swapchain_schedule`]: in record order, some qubit's next
/// gate starts before its previous gate ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleViolation {
    /// The qubit whose gate sequence is inconsistent.
    pub qubit: PhysId,
    /// Index (into the schedule) of the offending gate.
    pub gate_index: usize,
    /// Its start cycle.
    pub start: u64,
    /// End cycle of the qubit's previous gate.
    pub prev_end: u64,
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate #{} on {} starts at cycle {} before the qubit's previous gate ends at {}",
            self.gate_index, self.qubit, self.start, self.prev_end
        )
    }
}

/// Checks the ASAP invariant of swap-chain schedules: along every
/// physical qubit, gates appear in record order with disjoint,
/// non-decreasing time intervals (`start ≥` previous `end`). Braided
/// schedules intentionally violate this for composite gates (see the
/// module docs), so the check only applies to swap-chain targets.
pub fn check_swapchain_schedule(schedule: &[ScheduledGate]) -> Result<(), ScheduleViolation> {
    let mut busy_until: Vec<u64> = Vec::new();
    for (i, g) in schedule.iter().enumerate() {
        let mut violation = None;
        g.gate.for_each_qubit(|q| {
            if q.index() >= busy_until.len() {
                busy_until.resize(q.index() + 1, 0);
            }
            if g.start < busy_until[q.index()] && violation.is_none() {
                violation = Some(ScheduleViolation {
                    qubit: *q,
                    gate_index: i,
                    start: g.start,
                    prev_end: busy_until[q.index()],
                });
            }
            busy_until[q.index()] = g.end();
        });
        if let Some(v) = violation {
            return Err(v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_qir::{ClbitId, Gate};

    fn sg(gate: Gate<PhysId>, start: u64, dur: u32, is_comm: bool) -> ScheduledGate {
        ScheduledGate {
            gate,
            start,
            dur,
            is_comm,
            guard: None,
            measure: None,
        }
    }

    #[test]
    fn measurement_feedback_resets_through_the_side_channel() {
        // X q0; measure q0 -> c0; [c0] X q0 — the MBU cell: whatever
        // the pre-measurement bit, the guarded correction returns the
        // qubit to |0⟩, and the outcome survives in the clbit.
        let s = vec![
            sg(Gate::X { target: PhysId(0) }, 0, 1, false),
            ScheduledGate {
                gate: Gate::X { target: PhysId(0) },
                start: 1,
                dur: 1,
                is_comm: false,
                guard: None,
                measure: Some(ClbitId(0)),
            },
            ScheduledGate {
                gate: Gate::X { target: PhysId(0) },
                start: 2,
                dur: 1,
                is_comm: false,
                guard: Some(ClbitId(0)),
                measure: None,
            },
        ];
        let r = replay_schedule(&s, 1);
        assert_eq!(r.bits, vec![false], "corrected back to |0⟩");
        assert_eq!(r.clbits.get(ClbitId(0)), Some(true));
        assert_eq!(r.program_gates, 3);
        // An unfired guard leaves the state alone: without the X prep,
        // the measurement reads 0 and the correction must not apply.
        let r0 = replay_schedule(&s[1..], 1);
        assert_eq!(r0.bits, vec![false]);
        assert_eq!(r0.clbits.get(ClbitId(0)), Some(false));
    }

    #[test]
    fn replay_applies_in_record_order() {
        // Record order computes X q0; CX q0→q1 even though the
        // recorded starts are deliberately shuffled (as a braided
        // composite could produce): start-sorted order would run the
        // CX first and leave q1 at 0.
        let s = vec![
            sg(Gate::X { target: PhysId(0) }, 5, 1, false),
            sg(
                Gate::Cx {
                    control: PhysId(0),
                    target: PhysId(1),
                },
                0,
                1,
                false,
            ),
        ];
        let r = replay_schedule(&s, 2);
        assert_eq!(r.bits, vec![true, true]);
        assert_eq!(r.program_gates, 2);
        assert_eq!(r.comm_gates, 0);
        assert_eq!(r.read(&[PhysId(1), PhysId(0)]), vec![true, true]);
    }

    #[test]
    fn swaps_relocate_data_and_count_as_comm() {
        let s = vec![
            sg(Gate::X { target: PhysId(0) }, 0, 1, false),
            sg(
                Gate::Swap {
                    a: PhysId(0),
                    b: PhysId(1),
                },
                1,
                3,
                true,
            ),
        ];
        let r = replay_schedule(&s, 3);
        assert_eq!(r.bits, vec![false, true, false]);
        assert_eq!(r.comm_gates, 1);
    }

    #[test]
    fn consistency_check_accepts_asap_sequences() {
        let s = vec![
            sg(Gate::X { target: PhysId(0) }, 0, 1, false),
            sg(
                Gate::Cx {
                    control: PhysId(0),
                    target: PhysId(1),
                },
                1,
                1,
                false,
            ),
            sg(Gate::X { target: PhysId(1) }, 2, 1, false),
        ];
        assert_eq!(check_swapchain_schedule(&s), Ok(()));
    }

    #[test]
    fn consistency_check_rejects_time_travel() {
        let s = vec![
            sg(Gate::X { target: PhysId(3) }, 4, 1, false),
            sg(Gate::X { target: PhysId(3) }, 2, 1, false),
        ];
        let err = check_swapchain_schedule(&s).unwrap_err();
        assert_eq!(err.qubit, PhysId(3));
        assert_eq!(err.gate_index, 1);
        assert_eq!((err.start, err.prev_end), (2, 5));
        assert!(err.to_string().contains("gate #1"));
    }
}
