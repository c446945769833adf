//! Record-order replay of routed physical schedules.
//!
//! Both functions here are thin drivers of
//! [`PhysicalCheck::step`](square_route::PhysicalCheck::step), the one
//! record-order semantics of a physical gate stream (see the
//! `square_route::schedule` module docs for why record order, not
//! start-cycle order, is the semantics). Translation validation runs
//! the same step streamed from the machine, so the noise simulator,
//! these helpers and the validator cannot drift apart.

use square_arch::{CommModel, PhysId};
use square_qir::Clbits;
use square_route::{PhysicalCheck, ScheduledGate};

pub use square_route::{step_gate, ScheduleViolation};

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
    let check = PhysicalCheck::run(schedule, n_qubits, CommModel::Braiding);
    let (program_gates, comm_gates) = (check.gates() - check.comm_gates(), check.comm_gates());
    let (bits, clbits) = check.into_state();
    Replay {
        bits,
        clbits,
        program_gates,
        comm_gates,
    }
}

/// Checks the ASAP invariant of swap-chain schedules: along every
/// physical qubit, gates appear in record order with disjoint,
/// non-decreasing time intervals (`start ≥` previous `end`). Braided
/// schedules intentionally violate this for composite gates, so the
/// check only applies to swap-chain targets.
pub fn check_swapchain_schedule(schedule: &[ScheduledGate]) -> Result<(), ScheduleViolation> {
    let mut n_qubits = 0;
    for g in schedule {
        g.gate
            .for_each_qubit(|q| n_qubits = n_qubits.max(q.index() + 1));
    }
    match PhysicalCheck::run(schedule, n_qubits, CommModel::SwapChains).violation() {
        Some(v) => Err(v),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_qir::Gate;

    fn x(q: u32, start: u64) -> ScheduledGate {
        ScheduledGate {
            gate: Gate::X { target: PhysId(q) },
            start,
            dur: 1,
            is_comm: false,
            guard: None,
            measure: None,
        }
    }

    #[test]
    fn replay_reports_state_and_gate_counts() {
        let swap = ScheduledGate {
            gate: Gate::Swap {
                a: PhysId(0),
                b: PhysId(1),
            },
            dur: 3,
            is_comm: true,
            ..x(0, 1)
        };
        let r = replay_schedule(&[x(0, 0), swap], 3);
        assert_eq!(r.bits, vec![false, true, false]);
        assert_eq!((r.program_gates, r.comm_gates), (1, 1));
        assert_eq!(r.read(&[PhysId(1)]), vec![true]);
    }

    #[test]
    fn consistency_check_sizes_itself_from_the_schedule() {
        assert_eq!(check_swapchain_schedule(&[]), Ok(()));
        assert_eq!(check_swapchain_schedule(&[x(0, 0), x(7, 0)]), Ok(()));
        let err = check_swapchain_schedule(&[x(3, 4), x(3, 2)]).unwrap_err();
        assert_eq!((err.qubit, err.gate_index), (PhysId(3), 1));
        assert_eq!((err.start, err.prev_end), (2, 5));
    }
}
