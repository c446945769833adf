//! Scheduled physical gates — the compiler's final output, and the
//! input to the Monte-Carlo noise simulator.

use std::fmt;

use square_arch::PhysId;
use square_qir::{ClbitId, Gate};

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

/// Standard durations, in scheduler cycles, of each gate kind. SWAP is
/// three back-to-back CNOTs; Toffoli is its depth in the standard
/// Clifford+T decomposition. Generic over the qubit naming: durations
/// depend only on the gate shape, so virtual and physical gates agree.
pub fn gate_duration<T>(gate: &Gate<T>) -> u64 {
    match gate {
        Gate::X { .. } => 1,
        Gate::Cx { .. } => 1,
        Gate::Swap { .. } => 3,
        Gate::Ccx { .. } => 6,
        Gate::Mcx { controls, .. } => match controls.len() {
            0 | 1 => 1,
            2 => 6,
            n => 6 * (2 * n as u64 - 3),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations() {
        assert_eq!(gate_duration(&Gate::X { target: PhysId(0) }), 1);
        assert_eq!(
            gate_duration(&Gate::Swap {
                a: PhysId(0),
                b: PhysId(1)
            }),
            3
        );
        assert_eq!(
            gate_duration(&Gate::Ccx {
                c0: PhysId(0),
                c1: PhysId(1),
                target: PhysId(2)
            }),
            6
        );
    }

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
