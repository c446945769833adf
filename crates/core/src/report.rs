//! Compile reports: everything the evaluation section consumes.

use std::collections::HashMap;
use std::ops::AddAssign;

use serde::{Serialize, Value};
use square_arch::{CommModel, PhysId};
use square_metrics::{aqv, UsageCurve};
use square_qir::{ModuleId, TraceOp, VirtId};
use square_route::{CommStats, LivenessSegment, PlacementEvent, RouterKind, ScheduledGate};

use crate::error::CompileError;
use crate::policy::Policy;

/// One recorded reclamation decision, in frame-completion (post-)
/// order. The sequence of `reclaim` bits drives
/// `square_qir::sem::RecordedDecisions`, letting the reference
/// semantics replay exactly the choices this compile made — the oracle
/// side of translation validation for state-dependent policies (CER).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimDecision {
    /// Module whose frame decided (an id in the *lowered* program).
    pub module: ModuleId,
    /// Call depth of the frame (entry = 0).
    pub depth: u32,
    /// True = uncomputed and reclaimed; false = left garbage.
    pub reclaim: bool,
    /// How the reclaim was lowered (meaningful only when `reclaim`;
    /// always [`ReclaimLowering::Unitary`] with MBU disabled, so
    /// decision logs compare equal across pre-MBU runs).
    pub lowering: ReclaimLowering,
}

/// How a reclaiming frame released its ancilla.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReclaimLowering {
    /// Mechanical inverse of the compute slice (Bennett uncompute).
    #[default]
    Unitary,
    /// Measurement-based uncompute: one measurement plus one
    /// classically controlled NOT per written ancilla.
    Mbu,
}

/// Per-frame reclamation decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Frames that uncomputed and reclaimed.
    pub reclaimed: u64,
    /// Frames that left garbage.
    pub garbage: u64,
    /// Reclamations forced by capacity pressure.
    pub forced: u64,
}

/// The compiler's output: the optimized schedule plus every resource
/// number the paper's tables and figures report.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Policy that produced this schedule.
    pub policy: Policy,
    /// Communication model of the target.
    pub comm: CommModel,
    /// Swap-chain router that produced this schedule (greedy under
    /// braiding, where no swap chains exist).
    pub router: RouterKind,
    /// Program gates executed (uncomputation included, routing swaps
    /// excluded — Table III's "# Gates").
    pub gates: u64,
    /// Routing SWAPs inserted (Table III's "# Swaps").
    pub swaps: u64,
    /// Circuit depth in scheduler cycles.
    pub depth: u64,
    /// Distinct physical qubits ever used (Table III's "# Qubits").
    pub qubits: usize,
    /// Peak simultaneously live qubits.
    pub peak_active: usize,
    /// Active quantum volume in qubit·cycles (Section III-B).
    pub aqv: u64,
    /// Final communication factor `S`.
    pub comm_factor: f64,
    /// Full scheduler statistics.
    pub stats: CommStats,
    /// Per-qubit liveness segments (for usage curves, Fig. 1).
    pub segments: Vec<LivenessSegment>,
    /// Scheduled physical circuit, if recording was requested.
    pub schedule: Option<Vec<ScheduledGate>>,
    /// The entry module's register (program I/O), in declaration order.
    pub entry_register: Vec<VirtId>,
    /// Final placement of still-live virtual qubits (measurement map).
    pub final_placement: HashMap<VirtId, PhysId>,
    /// Reclamation decisions taken.
    pub decisions: DecisionStats,
    /// Every reclamation decision in frame-completion order (the
    /// replayable form of [`CompileReport::decisions`]).
    pub decision_log: Vec<ReclaimDecision>,
    /// Placement history (binds, routing moves, releases), if schedule
    /// recording was requested — diagnostic input for the validator.
    pub placement_history: Option<Vec<PlacementEvent>>,
    /// Always [`CerCacheStats::default`]: never serialized, kept only
    /// for the benchmark harness's read.
    pub cer_cache: CerCacheStats,
    /// Machine capacity used for this run.
    pub machine_qubits: usize,
    /// Wall-clock nanoseconds spent in the route/schedule phase (the
    /// executor run: allocation, routing, scheduling). Diagnostic
    /// only — never serialized, so cached service reports stay
    /// byte-identical to fresh compiles.
    pub route_ns: u64,
    /// The executed virtual trace (alloc/gate/free events).
    pub trace: Vec<TraceOp>,
    /// The `budget:N` cap and its early-uncompute activity, present
    /// only on budgeted compiles. `None` (no cap) leaves every other
    /// field bit-identical to an unbudgeted compile of the same base
    /// policy.
    pub budget: Option<BudgetOutcome>,
    /// Measurement-based-uncompute activity, present only when MBU was
    /// enabled. `None` leaves every other field bit-identical to a
    /// pre-MBU compile.
    pub mbu: Option<MbuStats>,
}

/// Always zero: CER decisions have no memo to count. Kept only
/// because the benchmark harness still reads
/// `CompileReport::cer_cache.{hits, misses}` for its
/// `core.cer_memo_hit_ratio` reading, which stays 0.0; the benchmark's
/// next change deletes the read and this struct with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CerCacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// What a `budget:N` compile reports: the cap it ran under and what
/// holding it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetOutcome {
    /// The hard cap N on simultaneously live qubits.
    pub cap: usize,
    /// Early-uncompute/recompute activity under the cap.
    pub recompute: RecomputeStats,
}

/// Counters for budget-driven early uncomputation and the recompute
/// work it later costs (ISSUE 8 tentpole; Reqomp-style accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Frames uncomputed early to free width under the cap.
    pub early_uncomputed_frames: u64,
    /// Gates spent performing those early uncomputations.
    pub early_uncompute_gates: u64,
    /// Frames recomputed by a later ancestor sweep (an early-uncomputed
    /// frame whose region a mechanical inversion subsequently replayed).
    pub recomputed_frames: u64,
    /// Gates spent recomputing those frames inside ancestor sweeps.
    pub recompute_gates: u64,
}

impl AddAssign for RecomputeStats {
    fn add_assign(&mut self, other: Self) {
        self.early_uncomputed_frames += other.early_uncomputed_frames;
        self.early_uncompute_gates += other.early_uncompute_gates;
        self.recomputed_frames += other.recomputed_frames;
        self.recompute_gates += other.recompute_gates;
    }
}

impl Serialize for RecomputeStats {
    fn serialize(&self) -> Value {
        Value::map([
            (
                "early_uncomputed_frames",
                Value::UInt(self.early_uncomputed_frames),
            ),
            (
                "early_uncompute_gates",
                Value::UInt(self.early_uncompute_gates),
            ),
            ("recomputed_frames", Value::UInt(self.recomputed_frames)),
            ("recompute_gates", Value::UInt(self.recompute_gates)),
        ])
    }
}

/// Counters for measurement-based uncomputation (ISSUE 9 tentpole).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MbuStats {
    /// Frames that reclaimed via measure-and-correct instead of the
    /// unitary inverse.
    pub mbu_frames: u64,
    /// Mid-circuit measurements emitted.
    pub measurements: u64,
    /// Classically controlled corrections emitted.
    pub cond_corrections: u64,
    /// Duration-weighted price of the chosen MBU lowerings
    /// (`MbuPlan::mbu_cost` summed over MBU frames; a price, not a
    /// gate count), against…
    pub mbu_cost: u64,
    /// …the weighted price of the unitary inverse slices those frames
    /// skipped (`MbuPlan::unitary_cost` summed; always larger, since
    /// MBU is only chosen when strictly cheaper).
    pub unitary_cost: u64,
}

impl Serialize for MbuStats {
    fn serialize(&self) -> Value {
        Value::map([
            ("mbu_frames", Value::UInt(self.mbu_frames)),
            ("measurements", Value::UInt(self.measurements)),
            ("cond_corrections", Value::UInt(self.cond_corrections)),
            ("mbu_cost", Value::UInt(self.mbu_cost)),
            ("unitary_cost", Value::UInt(self.unitary_cost)),
        ])
    }
}

impl CompileReport {
    /// Recomputes AQV from the segments (equals [`CompileReport::aqv`];
    /// exposed for cross-checking in tests).
    pub fn aqv_from_segments(&self) -> u64 {
        aqv(self.segments.iter().map(|s| (s.start, s.end)))
    }

    /// The qubits-in-use vs. time curve (Fig. 1).
    pub fn usage_curve(&self) -> UsageCurve {
        UsageCurve::from_segments(self.segments.iter().map(|s| (s.start, s.end)))
    }

    /// The reclaim bits of [`CompileReport::decision_log`], in oracle
    /// consumption order.
    pub fn decision_bools(&self) -> Vec<bool> {
        self.decision_log.iter().map(|d| d.reclaim).collect()
    }

    /// Physical qubits to measure for the entry register, in register
    /// order. Only meaningful when the register is still placed (it
    /// always is — entry qubits are never freed).
    pub fn measure_map(&self) -> Vec<PhysId> {
        self.entry_register
            .iter()
            .filter_map(|v| self.final_placement.get(v).copied())
            .collect()
    }
}

/// The JSON encoding of a [`CompileReport`], shared by the sweep
/// matrix serializer, the `squarec` driver's `--json` mode and the
/// compile service so all three emit field-identical report objects.
pub fn report_json(r: &CompileReport) -> Value {
    let mut fields = vec![
        ("router", Value::String(r.router.cli_name().to_string())),
        ("gates", Value::UInt(r.gates)),
        ("swaps", Value::UInt(r.swaps)),
        ("depth", Value::UInt(r.depth)),
        ("qubits", Value::UInt(r.qubits as u64)),
        ("peak_active", Value::UInt(r.peak_active as u64)),
        ("aqv", Value::UInt(r.aqv)),
        ("comm_factor", Value::Float(r.comm_factor)),
        ("machine_qubits", Value::UInt(r.machine_qubits as u64)),
        (
            "decisions",
            Value::map([
                ("reclaimed", Value::UInt(r.decisions.reclaimed)),
                ("garbage", Value::UInt(r.decisions.garbage)),
                ("forced", Value::UInt(r.decisions.forced)),
            ]),
        ),
    ];
    // Budget and MBU keys appear only on compiles that enabled them, so
    // every other report's JSON (and therefore every pre-budget,
    // pre-MBU bench fingerprint) stays byte-identical.
    if let Some(b) = &r.budget {
        fields.push(("budget", Value::UInt(b.cap as u64)));
        fields.push(("recompute", b.recompute.serialize()));
    }
    if let Some(m) = &r.mbu {
        fields.push(("mbu", m.serialize()));
    }
    Value::map(fields)
}

/// The structured JSON encoding of a capacity-exhaustion failure:
/// machine-readable fields alongside the rendered message, so sweep
/// consumers can retry with `min_feasible` instead of grepping text.
pub fn error_json(e: &CompileError) -> Value {
    match e {
        CompileError::OutOfQubits {
            requested,
            capacity,
            live,
            policy,
            budget,
            module,
            min_feasible,
        } => Value::map(vec![
            ("kind", Value::String("out_of_qubits".to_string())),
            ("message", Value::String(e.to_string())),
            ("requested", Value::UInt(*requested as u64)),
            ("capacity", Value::UInt(*capacity as u64)),
            ("live", Value::UInt(*live as u64)),
            ("policy", Value::String(policy.cli_name().to_string())),
            (
                "budget",
                budget.map_or(Value::Null, |n| Value::UInt(n as u64)),
            ),
            (
                "module",
                module
                    .as_ref()
                    .map_or(Value::Null, |m| Value::String(m.clone())),
            ),
            (
                "min_feasible",
                min_feasible.map_or(Value::Null, |n| Value::UInt(n as u64)),
            ),
        ]),
        other => Value::map(vec![
            ("kind", Value::String("compile_error".to_string())),
            ("message", Value::String(other.to_string())),
        ]),
    }
}
