//! Scheduled physical gates — the compiler's final output, and the
//! input to the Monte-Carlo noise simulator — plus [`PhysicalCheck`],
//! the one record-order semantics of a physical gate stream.
//!
//! The compile-time executor applies operations to the machine one at
//! a time; the schedule is exactly that emission order, with routing
//! SWAPs interleaved at the points they actually happened. On a
//! computational-basis state, stepping the stream **in record order**
//! therefore reproduces the machine's semantics by construction:
//! every physical gate mirrors the virtual gate applied at that point,
//! and SWAPs move data and pooled |0⟩ cells exactly as routing did.
//!
//! Record order is deliberately *not* start-cycle order. On swap-chain
//! (NISQ) machines the two coincide per qubit — the ASAP timeline
//! makes start cycles monotone along every qubit's gate sequence, an
//! invariant [`PhysicalCheck`] verifies. On braided (FT) machines they
//! can differ: a composite Toffoli is recorded at the start of its
//! *earliest* pairwise braid, which may precede an earlier-recorded
//! gate on an operand that only joins a *later* braid, so sorting by
//! start cycle can illegally reorder same-qubit gates.
//!
//! Because the check needs nothing but the next gate, it runs equally
//! over a recorded schedule or streamed from the machine as gates are
//! emitted (see [`Machine::enable_physical_check`]), in memory
//! proportional to the machine, not the schedule.
//!
//! [`Machine::enable_physical_check`]: crate::Machine::enable_physical_check

use std::fmt;

use square_arch::{CommModel, PhysId};
use square_qir::{ClbitId, Clbits, Gate};

/// A gate placed in time on physical qubits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledGate {
    /// The gate, over physical qubits.
    pub gate: Gate<PhysId>,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles (1 for 1q/CNOT, 3 for SWAP, 6 for Toffoli).
    /// `u32` keeps the struct at 64 bytes; recorded MUL64 schedules
    /// hold millions of these.
    pub dur: u32,
    /// True for communication gates inserted by routing (swap chains /
    /// braid bookkeeping), false for program gates.
    pub is_comm: bool,
    /// Classical guard: the gate applies only when this bit is set
    /// (measurement-based uncomputation corrections). `None` for
    /// ordinary unconditional gates.
    pub guard: Option<ClbitId>,
    /// Mid-circuit measurement: the cell's bit is *recorded* into this
    /// classical bit and the carrier gate is **not** applied (the
    /// `gate` field merely names the measured cell). `None` for
    /// ordinary gates.
    pub measure: Option<ClbitId>,
}

impl ScheduledGate {
    /// End cycle (exclusive).
    pub fn end(&self) -> u64 {
        self.start + u64::from(self.dur)
    }
}

impl fmt::Display for ScheduledGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.measure {
            let mut cell = PhysId(0);
            self.gate.for_each_qubit(|p| cell = *p);
            return write!(f, "{:>8}  measure {cell} -> {c}", self.start);
        }
        let tag = if self.is_comm { " [comm]" } else { "" };
        match self.guard {
            Some(c) => write!(f, "{:>8}  [{c}] {}{tag}", self.start, self.gate),
            None => write!(f, "{:>8}  {}{tag}", self.start, self.gate),
        }
    }
}

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

/// A per-qubit scheduling violation found by [`PhysicalCheck`]: in
/// record order, some qubit's next gate starts before its previous
/// gate ended.
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

/// The physical half of translation validation, one gate at a time:
/// a basis state over every machine qubit, the classical side channel,
/// and — on swap-chain machines — each qubit's busy-until cycle for
/// the ASAP consistency test (along every qubit, gates appear in
/// record order with disjoint, non-decreasing time intervals). Braided
/// schedules intentionally violate that test for composite gates (see
/// the module docs), so it only runs under [`CommModel::SwapChains`].
///
/// Memory is O(machine qubits + classical bits), whatever the length
/// of the gate stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalCheck {
    bits: Vec<bool>,
    clbits: Clbits,
    /// `busy_until[q]` = end cycle of qubit `q`'s last gate; empty when
    /// the interval test does not apply (braiding).
    busy_until: Vec<u64>,
    gates: u64,
    comm_gates: u64,
    violation: Option<ScheduleViolation>,
}

impl PhysicalCheck {
    /// A check from |0…0⟩ over `n_qubits` physical qubits; `comm`
    /// selects whether the swap-chain interval test runs.
    pub fn new(n_qubits: usize, comm: CommModel) -> Self {
        let intervals = comm == CommModel::SwapChains;
        PhysicalCheck {
            bits: vec![false; n_qubits],
            clbits: Clbits::new(),
            busy_until: if intervals {
                vec![0; n_qubits]
            } else {
                Vec::new()
            },
            gates: 0,
            comm_gates: 0,
            violation: None,
        }
    }

    /// Steps every gate of a recorded `schedule`, in record order.
    pub fn run(schedule: &[ScheduledGate], n_qubits: usize, comm: CommModel) -> Self {
        let mut check = Self::new(n_qubits, comm);
        for g in schedule {
            check.step(g);
        }
        check
    }

    /// Steps one gate: the interval test (until the first violation),
    /// then [`step_gate`]. Returns whether the gate fired.
    pub fn step(&mut self, g: &ScheduledGate) -> bool {
        if !self.busy_until.is_empty() && self.violation.is_none() {
            let (busy, violation) = (&mut self.busy_until, &mut self.violation);
            let gate_index = self.gates as usize;
            g.gate.for_each_qubit(|q| {
                let until = &mut busy[q.index()];
                if g.start < *until && violation.is_none() {
                    *violation = Some(ScheduleViolation {
                        qubit: *q,
                        gate_index,
                        start: g.start,
                        prev_end: *until,
                    });
                }
                *until = g.end();
            });
        }
        self.gates += 1;
        self.comm_gates += u64::from(g.is_comm);
        step_gate(g, &mut self.bits, &mut self.clbits)
    }

    /// The basis state over all physical qubits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Reads the listed physical qubits out of the state (e.g. a
    /// `CompileReport::measure_map`), in order.
    pub fn read(&self, measure: &[PhysId]) -> Vec<bool> {
        measure.iter().map(|q| self.bits[q.index()]).collect()
    }

    /// Every classical bit written by a mid-circuit measurement so far.
    pub fn clbits(&self) -> &Clbits {
        &self.clbits
    }

    /// Gates stepped (program and communication).
    pub fn gates(&self) -> u64 {
        self.gates
    }

    /// Communication gates (routing swaps) stepped.
    pub fn comm_gates(&self) -> u64 {
        self.comm_gates
    }

    /// The first swap-chain interval violation, if any.
    pub fn violation(&self) -> Option<ScheduleViolation> {
        self.violation
    }

    /// The final basis state and classical side channel.
    pub fn into_state(self) -> (Vec<bool>, Clbits) {
        (self.bits, self.clbits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn scheduled_gate_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<ScheduledGate>(), 64);
    }

    #[test]
    fn end_is_start_plus_duration() {
        let g = ScheduledGate {
            gate: Gate::X { target: PhysId(3) },
            start: 10,
            dur: 1,
            is_comm: false,
            guard: None,
            measure: None,
        };
        assert_eq!(g.end(), 11);
        assert!(g.to_string().contains("X Q3"));
    }

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
        let s = [
            sg(Gate::X { target: PhysId(0) }, 0, 1, false),
            ScheduledGate {
                measure: Some(ClbitId(0)),
                ..sg(Gate::X { target: PhysId(0) }, 1, 1, false)
            },
            ScheduledGate {
                guard: Some(ClbitId(0)),
                ..sg(Gate::X { target: PhysId(0) }, 2, 1, false)
            },
        ];
        let mut c = PhysicalCheck::new(1, CommModel::SwapChains);
        assert!(c.step(&s[0]));
        assert!(!c.step(&s[1]), "a measurement applies no gate");
        assert!(c.step(&s[2]), "the guard fired");
        assert_eq!(c.bits(), [false], "corrected back to |0⟩");
        assert_eq!(c.clbits().get(ClbitId(0)), Some(true));
        assert_eq!((c.gates(), c.comm_gates(), c.violation()), (3, 0, None));
        // An unfired guard leaves the state alone: without the X prep,
        // the measurement reads 0 and the correction must not apply.
        let c0 = PhysicalCheck::run(&s[1..], 1, CommModel::SwapChains);
        assert_eq!(c0.bits(), [false]);
        assert_eq!(c0.clbits().get(ClbitId(0)), Some(false));
    }

    #[test]
    fn steps_apply_in_record_order() {
        // Record order computes X q0; CX q0→q1 even though the
        // recorded starts are deliberately shuffled (as a braided
        // composite could produce): start-sorted order would run the
        // CX first and leave q1 at 0.
        let cx = Gate::Cx {
            control: PhysId(0),
            target: PhysId(1),
        };
        let s = [
            sg(Gate::X { target: PhysId(0) }, 5, 1, false),
            sg(cx, 0, 1, false),
        ];
        let c = PhysicalCheck::run(&s, 2, CommModel::Braiding);
        assert_eq!(c.bits(), [true, true]);
        assert_eq!((c.gates(), c.comm_gates()), (2, 0));
        assert_eq!(c.read(&[PhysId(1), PhysId(0)]), vec![true, true]);
        assert_eq!(c.violation(), None, "braiding runs no interval test");
    }

    #[test]
    fn swaps_relocate_data_and_count_as_comm() {
        let s = [
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
        let c = PhysicalCheck::run(&s, 3, CommModel::SwapChains);
        assert_eq!(c.bits(), [false, true, false]);
        assert_eq!((c.gates(), c.comm_gates()), (2, 1));
    }

    #[test]
    fn interval_test_accepts_asap_sequences() {
        let cx = Gate::Cx {
            control: PhysId(0),
            target: PhysId(1),
        };
        let s = [
            sg(Gate::X { target: PhysId(0) }, 0, 1, false),
            sg(cx, 1, 1, false),
            sg(Gate::X { target: PhysId(1) }, 2, 1, false),
        ];
        assert_eq!(
            PhysicalCheck::run(&s, 2, CommModel::SwapChains).violation(),
            None
        );
    }

    #[test]
    fn interval_test_rejects_time_travel() {
        let s = [
            sg(Gate::X { target: PhysId(3) }, 4, 1, false),
            sg(Gate::X { target: PhysId(3) }, 2, 1, false),
            sg(Gate::X { target: PhysId(3) }, 0, 1, false),
        ];
        let c = PhysicalCheck::run(&s, 4, CommModel::SwapChains);
        let err = c.violation().expect("the second gate travels back in time");
        assert_eq!(err.qubit, PhysId(3));
        assert_eq!(err.gate_index, 1, "the first violation is kept");
        assert_eq!((err.start, err.prev_end), (2, 5));
        assert!(err.to_string().contains("gate #1"));
        assert_eq!(c.gates(), 3, "stepping continues past the violation");
        assert!(c.bits()[3], "three X gates on q3");
        let braided = PhysicalCheck::run(&s, 4, CommModel::Braiding);
        assert_eq!(braided.violation(), None);
        assert_eq!(braided.bits(), c.bits());
    }

    #[test]
    fn classical_events_render_their_clbit() {
        let m = ScheduledGate {
            gate: Gate::X { target: PhysId(7) },
            start: 4,
            dur: 1,
            is_comm: false,
            guard: None,
            measure: Some(ClbitId(2)),
        };
        assert!(m.to_string().contains("measure Q7 -> c2"));
        let g = ScheduledGate {
            gate: Gate::X { target: PhysId(7) },
            start: 5,
            dur: 1,
            is_comm: false,
            guard: Some(ClbitId(2)),
            measure: None,
        };
        assert!(g.to_string().contains("[c2] X Q7"));
    }
}
