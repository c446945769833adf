//! # square-route — gate scheduling and communication
//!
//! The machine-facing half of the SQUARE compiler: an ASAP gate
//! scheduler with per-qubit availability tracking, a swap-chain router
//! for NISQ lattices (each SWAP costs three CNOT cycles; chain latency
//! grows with distance), and a braid router for fault-tolerant surface
//! code machines (braids complete in constant time but may not cross —
//! conflicting braids queue, Section IV-D of the paper).
//!
//! The central type is [`Machine`]: it owns the virtual→physical
//! placement ([`Placement`]), schedules every gate the compile-time
//! executor emits ([`Clock`]), accumulates communication statistics
//! (the running `S` factors the CER heuristic consumes), and records
//! per-qubit liveness segments from which `square-metrics` computes
//! the active quantum volume. Routing strategy is pluggable behind the
//! stateless [`Router`] trait, configured with a [`RouterConfig`] and
//! driven through a per-call [`RoutingCtx`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod braid;
pub mod config;
pub mod ctx;
pub mod machine;
pub mod placement;
pub mod router;
pub mod schedule;
pub mod sink;
pub mod timeline;

mod error;

pub use braid::BraidField;
pub use config::{RouterConfig, DEFAULT_LOOKAHEAD_WINDOW};
pub use ctx::{BfsScratch, RouterScratch, RoutingCtx};
pub use error::RouteError;
pub use machine::{
    journey_of, CommStats, LivenessSegment, Machine, MachineConfig, PlacementEvent, RouteReport,
};
pub use placement::{CellSet, Placement};
pub use router::{GreedyRouter, LookaheadRouter, Router, RouterKind};
pub use schedule::{gate_duration, step_gate, PhysicalCheck, ScheduleViolation, ScheduledGate};
pub use sink::ScheduleSink;
pub use timeline::Clock;

/// SplitMix64: a small deterministic stream for the seeded
/// differential tests.
#[cfg(test)]
pub(crate) struct SplitMix(pub(crate) u64);

#[cfg(test)]
impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
