//! The instrumentation-driven compile-time executor (Section III-C).
//!
//! Quantum programs in SQUARE's domain have compile-time-known control
//! flow, so the compiler *executes* the program: every `Allocate` runs
//! the allocation heuristic, every gate is routed and scheduled on the
//! machine model, and every `Free` runs the reclamation heuristic.
//! Uncomputation is performed mechanically by replaying the frame's
//! recorded compute slice inverted (see `square_qir::trace`), which
//! reproduces both recursive recomputation (for reclaimed children)
//! and garbage sweeping (for lazy children) without any special
//! casing.

use std::sync::Arc;

use square_arch::{CommModel, Topology};
use square_qir::{
    analysis::ProgramStats, lower_mcx, scan_mbu_slice, trace::invert_slice_into, ClbitId, Gate,
    ModuleId, Operand, Program, Stmt, TraceOp, VirtId,
};
use square_route::{Machine, MachineConfig, PhysicalCheck, RouterKind};

use crate::budget::{scan_candidate, BudgetState};
use crate::cer::{self, early_reclaim_score, CerInputs, ModuleCostTable};
use crate::config::{ArchSpec, CompilerConfig};
use crate::error::CompileError;
use crate::laa;
use crate::policy::Policy;
use crate::report::{
    BudgetOutcome, CompileReport, DecisionStats, MbuStats, ReclaimDecision, ReclaimLowering,
};

/// Deepest call nesting below the entry that a compile accepts
/// ([`CompileError::CallsTooDeep`] past it). The executor and the
/// reference semantics recurse once per level, so a deeper chain would
/// overflow the native stack: a debug-build thread with a 2 MiB stack
/// compiles and validates a 424-level chain under every policy, with
/// and without MBU, and overflows at 425. This bound leaves 4× of that
/// headroom; the deepest catalog program nests 8 levels.
pub const MAX_CALL_DEPTH: usize = 100;

/// Upcoming multi-qubit gates the executor hands a lookahead router
/// with each gate (SABRE's extended set).
const LOOKAHEAD_WINDOW: usize = 16;

/// Compiles `program` with all entry-register inputs |0⟩.
///
/// # Errors
///
/// Routing failures or capacity exhaustion
/// ([`CompileError::OutOfQubits`]).
pub fn compile(program: &Program, config: &CompilerConfig) -> Result<CompileReport, CompileError> {
    compile_with_inputs(program, &[], config)
}

/// Compiles `program`, preparing the entry register's first
/// `inputs.len()` qubits with X gates (computational-basis input) —
/// needed when the schedule will be noise-simulated.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with_inputs(
    program: &Program,
    inputs: &[bool],
    config: &CompilerConfig,
) -> Result<CompileReport, CompileError> {
    let prepared = PreparedProgram::new(program)?;
    compile_prepared(&prepared, inputs, config)
}

/// The reusable compile prefix of one program: MCX-lowered, analyzed,
/// and cost-tabled.
///
/// Every field is a pure, deterministic function of the input program,
/// so the artifacts can be computed once and shared across any number
/// of compiles — this is what a long-running compile service lifts
/// into a content-hash-keyed cross-request cache (the
/// [`ModuleCostTable`] build in particular kills the dominant
/// per-request analysis cost on repeated programs).
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    lowered: Program,
    pstats: ProgramStats,
    costs: ModuleCostTable,
    capacity_hint: usize,
}

impl PreparedProgram {
    /// Builds every compile-prefix artifact of `program`, which is
    /// valid by construction (see [`Program`]).
    ///
    /// # Errors
    ///
    /// None today; the `Result` is kept for existing callers.
    pub fn new(program: &Program) -> Result<Self, CompileError> {
        let lowered = lower_mcx(program);
        let pstats = ProgramStats::analyze(&lowered);
        // Per-module cost terms (custom-uncompute totals, block suffix
        // sums) memoized up front — the per-frame hot path never
        // re-walks statement lists.
        let costs = ModuleCostTable::build(&lowered, &pstats);
        let capacity_hint = pstats.module(lowered.entry()).ancilla_transitive as usize;
        Ok(PreparedProgram {
            lowered,
            pstats,
            costs,
            capacity_hint,
        })
    }

    /// The MCX-lowered program the executor runs.
    pub fn lowered(&self) -> &Program {
        &self.lowered
    }

    /// Worst-case simultaneous ancilla footprint of the entry module —
    /// the hint `Auto*` architectures size machines from.
    pub fn capacity_hint(&self) -> usize {
        self.capacity_hint
    }

    /// Per-module static analysis of the lowered program.
    pub fn stats(&self) -> &ProgramStats {
        &self.pstats
    }
}

/// Builds the machine `config.arch` names for `prepared`, sizing an
/// `Auto*` layout from the program's capacity hint.
///
/// # Errors
///
/// [`CompileError::MachineTooLarge`] when an auto-sized layout would
/// hold more than [`ArchSpec::MAX_QUBITS`] qubits, checked before
/// anything is allocated.
pub fn build_topology(
    config: &CompilerConfig,
    prepared: &PreparedProgram,
) -> Result<Arc<dyn Topology>, CompileError> {
    let limit = ArchSpec::MAX_QUBITS as usize;
    match config.arch.auto_size(prepared.capacity_hint) {
        Some(qubits) if qubits > limit => Err(CompileError::MachineTooLarge { qubits, limit }),
        _ => Ok(Arc::from(config.arch.build(prepared.capacity_hint))),
    }
}

/// Compiles from pre-built prefix artifacts, constructing a fresh
/// topology from `config.arch`.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_prepared(
    prepared: &PreparedProgram,
    inputs: &[bool],
    config: &CompilerConfig,
) -> Result<CompileReport, CompileError> {
    compile_prepared_on(prepared, inputs, config, build_topology(config, prepared)?)
}

/// Compiles from pre-built prefix artifacts onto a *shared* topology.
/// The topology must match `config.arch` (callers that cache
/// topologies key them by the arch spec plus the capacity hint); it is
/// never mutated, so any number of concurrent compiles may hold the
/// same `Arc` and reuse its lazily-built distance/next-hop tables.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_prepared_on(
    prepared: &PreparedProgram,
    inputs: &[bool],
    config: &CompilerConfig,
    topo: Arc<dyn Topology>,
) -> Result<CompileReport, CompileError> {
    Ok(compile_on(prepared, inputs, config, topo, false)?.0)
}

/// Compiles from pre-built prefix artifacts and runs the physical
/// check of translation validation over every routed gate.
///
/// With `config.record_schedule` off, the machine streams its gates
/// through the check as it emits them: the report carries no schedule
/// or placement history, and memory stays proportional to the machine,
/// not the schedule. With it on, the schedule and history are recorded
/// and the check then runs over the recorded slice. Either way it is
/// the same [`PhysicalCheck::step`] over the same gates, in the same
/// order.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_checked(
    prepared: &PreparedProgram,
    inputs: &[bool],
    config: &CompilerConfig,
) -> Result<(CompileReport, PhysicalCheck), CompileError> {
    let topo = build_topology(config, prepared)?;
    let (report, streamed) = compile_on(prepared, inputs, config, topo, !config.record_schedule)?;
    let check = match streamed {
        Some(check) => check,
        None => PhysicalCheck::run(
            report.schedule.as_deref().expect("recording on"),
            report.machine_qubits,
            report.comm,
        ),
    };
    Ok((report, check))
}

/// The executor proper; `check` streams the machine's gates through a
/// [`PhysicalCheck`], handed back next to the report.
fn compile_on(
    prepared: &PreparedProgram,
    inputs: &[bool],
    config: &CompilerConfig,
    topo: Arc<dyn Topology>,
    check: bool,
) -> Result<(CompileReport, Option<PhysicalCheck>), CompileError> {
    let lowered = &prepared.lowered;
    let depth = prepared.pstats.module(lowered.entry()).height;
    if depth > MAX_CALL_DEPTH {
        return Err(CompileError::CallsTooDeep {
            depth,
            limit: MAX_CALL_DEPTH,
        });
    }
    // Braiding never consults the swap-chain router: normalize the
    // recorded selection to greedy so reports cannot claim a lookahead
    // router that never ran.
    let router = match config.comm {
        CommModel::SwapChains => config.router,
        CommModel::Braiding => RouterKind::Greedy.into(),
    };
    let mut machine = Machine::with_shared(
        topo,
        MachineConfig {
            comm: config.comm,
            record_schedule: config.record_schedule,
            router,
        },
    );
    if check {
        machine.enable_physical_check();
    }
    let mut exec = Exec {
        program: lowered,
        pstats: &prepared.pstats,
        costs: &prepared.costs,
        config,
        machine,
        trace: Vec::new(),
        inverse_scratch: Vec::new(),
        next_virt: 0,
        next_clbit: 0,
        decisions: DecisionStats::default(),
        decision_log: Vec::new(),
        mbu: config.mbu.then(MbuStats::default),
        lookahead: false,
        budget: config
            .budget
            .map(|cap| BudgetState::new(cap, prepared.pstats.module(lowered.entry()).stack_need)),
        stack: Vec::new(),
    };
    let lookahead = exec.machine.wants_lookahead();
    exec.lookahead = lookahead;
    let route_start = std::time::Instant::now();
    let entry_register = exec.run_frame(lowered.entry(), &[], 0, 0, inputs)?;
    let route_ns = route_start.elapsed().as_nanos() as u64;
    let decisions = exec.decisions;
    let decision_log = std::mem::take(&mut exec.decision_log);
    let mbu = exec.mbu;
    let budget = exec.budget.as_ref().map(|b| BudgetOutcome {
        cap: b.cap,
        recompute: b.stats,
    });
    let policy = config.policy;
    let comm = config.comm;
    let comm_factor = exec.machine.comm_factor();
    let machine_qubits = exec.machine.qubit_count();
    let trace = exec.trace;
    let route_report = exec.machine.finish();
    let router = router.kind;
    let aqv_value = square_metrics::aqv(route_report.segments.iter().map(|s| (s.start, s.end)));
    let report = CompileReport {
        policy,
        comm,
        router,
        gates: route_report.stats.program_gates,
        swaps: route_report.stats.swaps,
        depth: route_report.depth,
        qubits: route_report.footprint,
        peak_active: route_report.peak_active,
        aqv: aqv_value,
        comm_factor,
        stats: route_report.stats,
        segments: route_report.segments,
        schedule: route_report.schedule,
        entry_register,
        final_placement: route_report.final_placement,
        decisions,
        decision_log,
        placement_history: route_report.placement_history,
        cer_cache: Default::default(),
        machine_qubits,
        route_ns,
        trace,
        budget,
        mbu,
    };
    Ok((report, route_report.check))
}

/// Which block of a module [`Exec::run_block`] is executing (selects
/// the matching suffix-sum table for O(1) tail-gate look-ahead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Compute,
    Store,
    CustomUncompute,
}

struct Exec<'p> {
    program: &'p Program,
    pstats: &'p ProgramStats,
    /// Memoized per-module static cost terms (see [`ModuleCostTable`]),
    /// borrowed so a service can share one table across requests.
    costs: &'p ModuleCostTable,
    config: &'p CompilerConfig,
    machine: Machine,
    trace: Vec<TraceOp>,
    /// Reused buffer for mechanical uncompute slices (avoids two Vec
    /// allocations per reclaimed frame).
    inverse_scratch: Vec<TraceOp>,
    next_virt: u32,
    /// Classical-bit id supply: fresh per measurement event, never
    /// reused (MBU lowerings and module-declared clbits alike).
    next_clbit: u32,
    decisions: DecisionStats,
    /// Per-frame decisions in completion order (see [`ReclaimDecision`]).
    decision_log: Vec<ReclaimDecision>,
    /// Measurement-based-uncompute activity, present only with MBU on —
    /// the executor's one source for whether MBU is enabled.
    mbu: Option<MbuStats>,
    /// True when the machine's router consumes upcoming-gate windows
    /// (gates the per-gate window construction off the hot path
    /// otherwise).
    lookahead: bool,
    /// Early-uncompute engine, present only under `budget:N` — every
    /// budget hook is behind this `Option` (the executor's one source
    /// for the cap and the stack need), keeping unbudgeted compiles
    /// bit-identical to their pre-budget behavior.
    budget: Option<BudgetState>,
    /// The open call stack, innermost frame last.
    stack: Vec<OpenFrame>,
}

/// One open call frame: pushed before its ancillas are allocated,
/// popped once it settles.
struct OpenFrame {
    /// Names the frame in [`CompileError::OutOfQubits`].
    module: ModuleId,
    /// Declared ancilla count. Open-frame qubits are call stack, not
    /// garbage: live − Σ ancillas = settled garbage, the quantity the
    /// budget clamp polices.
    ancillas: usize,
    /// The recorded compute region `[start, end)` once the frame is in
    /// its store/decision/sweep phase (budget rule 4).
    settling: Option<(usize, usize)>,
}

/// The facts of one running frame, borrowed by every step that runs
/// its statements or settles it.
struct Frame<'a> {
    id: ModuleId,
    args: &'a [VirtId],
    anc: &'a [VirtId],
    clbits: &'a [ClbitId],
    depth: usize,
    /// Estimated gates remaining between this frame's end and its
    /// parent's uncompute block.
    g_p: u64,
}

impl Frame<'_> {
    /// Binds a frame-relative operand to the frame's virtual qubits.
    fn resolve(&self, op: &Operand) -> VirtId {
        match op {
            Operand::Param(i) => self.args[*i],
            Operand::Ancilla(i) => self.anc[*i],
        }
    }
}

impl Exec<'_> {
    fn fresh(&mut self) -> VirtId {
        let v = VirtId(self.next_virt);
        self.next_virt += 1;
        v
    }

    fn fresh_clbit(&mut self) -> ClbitId {
        let c = ClbitId(self.next_clbit);
        self.next_clbit += 1;
        c
    }

    /// Applies one trace op to the machine and appends it to the
    /// virtual trace. `interact` guides placement of `Alloc` ops.
    fn emit(&mut self, op: TraceOp, interact: &[VirtId]) -> Result<(), CompileError> {
        match &op {
            TraceOp::Alloc(v) => {
                // Under `budget:N`, evict (early-uncompute) garbage
                // frames until this allocation fits under the cap.
                if let Some(cap) = self.budget.as_ref().map(|b| b.cap) {
                    self.ensure_headroom(cap)?;
                }
                let slot = if self.config.policy.uses_laa() {
                    laa::choose_slot(&self.machine, interact)
                } else {
                    laa::choose_slot_naive(&self.machine, self.next_virt as u64)
                };
                let Some(slot) = slot else {
                    return Err(self.out_of_qubits(1, None));
                };
                self.machine.place_at(*v, slot)?;
            }
            TraceOp::Free(v) => {
                self.machine.release(*v)?;
            }
            TraceOp::Gate(g) => {
                self.machine.apply(g)?;
            }
            TraceOp::CondGate { clbit, gate } => {
                self.machine.apply_guarded(gate, *clbit)?;
            }
            TraceOp::Measure { qubit, clbit } => {
                self.machine.measure(*qubit, *clbit)?;
            }
        }
        if let Some(b) = &mut self.budget {
            // Freshness stamps (budget rule 3): allocs and frees
            // change state; gates stamp only their write targets, so
            // later *reads* of a candidate's inputs don't stale it.
            // Measurements read without writing; a guarded gate stamps
            // its inner gate's targets (it may fire at runtime).
            let pos = self.trace.len();
            match &op {
                TraceOp::Alloc(v) | TraceOp::Free(v) => b.note_write(*v, pos),
                TraceOp::Gate(g) | TraceOp::CondGate { gate: g, .. } => {
                    g.for_each_write(|w| b.note_write(*w, pos));
                }
                TraceOp::Measure { .. } => {}
            }
        }
        self.trace.push(op);
        Ok(())
    }

    /// Builds the structured capacity-exhaustion diagnostic at the
    /// failure point, attributed to the innermost open frame.
    fn out_of_qubits(&self, requested: usize, min_feasible: Option<usize>) -> CompileError {
        let module = self.stack.last();
        CompileError::OutOfQubits {
            requested,
            capacity: self.machine.qubit_count(),
            live: self.machine.placement().active_count(),
            policy: self.config.policy,
            budget: self.budget.as_ref().map(|b| b.cap),
            module: module.map(|f| self.program.module(f.module).name().to_owned()),
            min_feasible,
        }
    }

    /// Laplace-smoothed running reclaim rate ρ over the decisions so
    /// far.
    fn reclaim_rate(&self) -> f64 {
        let d = &self.decisions;
        (d.reclaimed as f64 + 1.0) / ((d.reclaimed + d.garbage) as f64 + 2.0)
    }

    /// The cheapest evictable budget candidate (CER-scored: uncompute-
    /// now + recompute-later per qubit freed), after pruning stale
    /// ones; `None` when nothing is evictable or the compile is
    /// unbudgeted.
    fn pick_eviction(&mut self) -> Option<usize> {
        let rate = self.reclaim_rate();
        let params = self.config.cer;
        let settling = self.stack.iter().filter_map(|f| f.settling);
        self.budget.as_mut()?.pick(settling, |c| {
            early_reclaim_score(&params, c.gates, c.freed, rate, c.level)
        })
    }

    /// Budget rule engine: while the next allocation would exceed
    /// `cap`, early-uncompute the cheapest evictable garbage frame.
    /// Errors with the minimum feasible budget when the candidate pool
    /// runs dry first.
    fn ensure_headroom(&mut self, cap: usize) -> Result<(), CompileError> {
        loop {
            let live = self.machine.placement().active_count();
            if live < cap {
                return Ok(());
            }
            let Some(idx) = self.pick_eviction() else {
                // Nothing evictable: even perfect reclamation cannot
                // fit this allocation — report the honest lower bound
                // on a workable budget.
                return Err(self.out_of_qubits(1, Some(live + 1)));
            };
            self.early_uncompute(idx)?;
        }
    }

    /// Evicts candidate `idx`: replays its recorded compute slice
    /// inverted at the current trace position (rolling its ancillas
    /// back to |0⟩, freeing any interior garbage allocs along the
    /// way), then frees the ancillas. The frame's region stays in the
    /// trace, so a covering ancestor sweep recomputes it mechanically.
    fn early_uncompute(&mut self, idx: usize) -> Result<(), CompileError> {
        let budget = self.budget.as_mut().expect("caller checked budget");
        let cand = budget.candidates.swap_remove(idx);
        let u_start = self.trace.len();
        // Flat regions (rule 1) invert to gates + frees only, so this
        // replay never allocates and never re-enters ensure_headroom.
        self.sweep(cand.start, cand.end)?;
        for a in cand.anc.iter().rev() {
            self.emit(TraceOp::Free(*a), &[])?;
        }
        self.budget
            .as_mut()
            .expect("still budgeted")
            .note_early_uncompute(u_start, cand.gates);
        Ok(())
    }

    /// Runs one call frame from push to pop: allocates the ancillas
    /// `id` declares near the qubits bound to `args` (Algorithm 1),
    /// prepares the first `inputs.len()` of them with X gates (the
    /// entry frame's computational-basis input), runs the compute and
    /// store blocks, and settles the frame. Returns its ancillas — for
    /// the entry frame, the program's register.
    fn run_frame(
        &mut self,
        id: ModuleId,
        args: &[VirtId],
        depth: usize,
        g_p: u64,
        inputs: &[bool],
    ) -> Result<Vec<VirtId>, CompileError> {
        let module = self.program.module(id);
        let (count, clbit_count) = (module.ancillas(), module.clbits());
        // Pushed before anything is allocated, so running out of qubits
        // names this frame, not its caller.
        self.stack.push(OpenFrame {
            module: id,
            ancillas: count,
            settling: None,
        });
        // A frame that declares more ancillas than the machine has
        // qubits can never be live at once, so it is refused before a
        // single id is minted: the declared count is untrusted input
        // and may be near `usize::MAX`.
        if count > self.machine.qubit_count() {
            return Err(self.out_of_qubits(count, None));
        }
        let anc: Vec<VirtId> = (0..count).map(|_| self.fresh()).collect();
        for v in &anc {
            self.emit(TraceOp::Alloc(*v), args)?;
        }
        for (v, _) in anc.iter().zip(inputs).filter(|(_, bit)| **bit) {
            self.emit(TraceOp::Gate(Gate::X { target: *v }), &[])?;
        }
        // Fresh classical bits for this activation's declared clbits
        // (mirrors the reference semantics: each call measures into
        // its own bits, never a sibling's).
        let clbits: Vec<ClbitId> = (0..clbit_count).map(|_| self.fresh_clbit()).collect();
        let frame = Frame {
            id,
            args,
            anc: &anc,
            clbits: &clbits,
            depth,
            g_p,
        };
        // The machine counts every gate event (unitary gates,
        // measurements and guarded corrections) as a program gate, so
        // `G_uncomp` is a difference of two reads, not a re-walk of
        // the recorded slice.
        let gates_before = self.machine.stats().program_gates;
        let start = self.trace.len();
        self.run_block(BlockKind::Compute, &frame)?;
        let compute = (start, self.trace.len());
        let measured_gates = self.machine.stats().program_gates - gates_before;
        // Budget rule 4: from here until this frame's fate is settled,
        // a mechanical sweep of the compute region may be pending —
        // freeze every candidate inside it so an eviction cannot free
        // qubits the sweep will free again.
        self.stack.last_mut().expect("pushed above").settling = Some(compute);
        self.run_block(BlockKind::Store, &frame)?;
        // Frames without ancilla have nothing to reclaim: skip the
        // decision (and the pointless uncompute) entirely.
        if depth == 0 || !anc.is_empty() {
            self.settle(&frame, compute, measured_gates)?;
        }
        self.stack.pop();
        Ok(anc)
    }

    /// The settle step (Algorithm 2 at the frame's `Free`): prices the
    /// frame's uncompute, decides, and then either uncomputes it or
    /// keeps it as garbage. `(start, end)` is the recorded compute
    /// region and `measured_gates` the gate events inside it.
    fn settle(
        &mut self,
        frame: &Frame,
        (start, end): (usize, usize),
        measured_gates: u64,
    ) -> Result<(), CompileError> {
        let custom_uncompute = self.program.module(frame.id).custom_uncompute().is_some();
        // Measurement-based uncompute: when enabled, scan the recorded
        // compute slice for eligibility (Toffoli-class writes to this
        // frame's ancillas only, interior activity balanced) and price
        // both lowerings in gate durations (`MbuPlan`). The entry
        // frame never qualifies — its "ancillas" are the program's I/O
        // register, which a reset would destroy.
        let mbu_plan = if self.mbu.is_some() && frame.depth > 0 && !custom_uncompute {
            scan_mbu_slice(&self.trace[start..end], |q| frame.anc.contains(&q))
                .filter(|plan| plan.mbu_cost() < plan.unitary_cost)
        } else {
            None
        };
        // G_uncomp: gate events of the lowering this frame would
        // actually use — two per written ancilla under MBU, else the
        // measured size of the compute slice (running gate counter,
        // O(1)), or the memoized static size of an explicit uncompute
        // block when the author supplied one (e.g. operand unloading
        // for in-place adders).
        let g_uncomp = match &mbu_plan {
            Some(plan) => 2 * plan.written.len() as u64,
            None => self
                .costs
                .custom_uncompute_gates(frame.id)
                .unwrap_or(measured_gates),
        };
        let reclaim = self.decide(frame, g_uncomp)?;
        self.decision_log.push(ReclaimDecision {
            module: frame.id,
            depth: frame.depth as u32,
            reclaim,
            lowering: match mbu_plan {
                Some(_) if reclaim => ReclaimLowering::Mbu,
                _ => ReclaimLowering::Unitary,
            },
        });
        if !reclaim {
            self.decisions.garbage += 1;
            // Budget engine: a garbage frame is exactly what early
            // uncomputation evicts later — register it if its region
            // satisfies the static eligibility rules. The entry frame
            // (depth 0) is excluded: its "ancillas" are the program's
            // I/O register.
            if let Some(b) = self.budget.as_mut().filter(|_| frame.depth > 0) {
                b.candidates.extend(scan_candidate(
                    &self.trace[start..end],
                    start,
                    frame.depth,
                    frame.anc,
                    measured_gates,
                    |q| b.last_write(q),
                ));
            }
            return Ok(());
        }
        self.decisions.reclaimed += 1;
        if custom_uncompute {
            self.run_block(BlockKind::CustomUncompute, frame)?;
        } else if let Some(plan) = mbu_plan {
            // Measure-and-correct: each written ancilla is read into a
            // fresh classical bit and flipped back to |0⟩ exactly when
            // the outcome was 1. Untouched ancillas are already |0⟩
            // and need no events at all.
            let stats = self.mbu.as_mut().expect("a plan implies MBU on");
            stats.mbu_frames += 1;
            stats.measurements += plan.written.len() as u64;
            stats.cond_corrections += plan.written.len() as u64;
            stats.mbu_cost += plan.mbu_cost();
            stats.unitary_cost += plan.unitary_cost;
            for q in plan.written {
                let clbit = self.fresh_clbit();
                self.emit(TraceOp::Measure { qubit: q, clbit }, &[])?;
                let gate = Gate::X { target: q };
                self.emit(TraceOp::CondGate { clbit, gate }, &[])?;
            }
        } else {
            // An early uncompute emitted inside this region is replayed
            // forward by the inversion below — count it as recompute
            // work before sweeping.
            if let Some(b) = &mut self.budget {
                b.note_sweep(start, end);
            }
            self.sweep(start, end)?;
        }
        if frame.depth > 0 {
            for a in frame.anc.iter().rev() {
                self.emit(TraceOp::Free(*a), &[])?;
            }
        }
        Ok(())
    }

    /// Replays the recorded slice `[start..end)` inverted at the
    /// current trace position, with the same lookahead-window handling
    /// as [`Exec::run_block`]: the one invert-and-replay path, shared
    /// by frame sweeps and budget-driven early uncomputes. The inverse
    /// goes through a reused scratch buffer (no per-frame slice copy).
    fn sweep(&mut self, start: usize, end: usize) -> Result<(), CompileError> {
        let mut scratch = std::mem::take(&mut self.inverse_scratch);
        let mut next = self.next_virt;
        invert_slice_into(&self.trace[start..end], &mut scratch, || {
            let v = VirtId(next);
            next += 1;
            v
        });
        self.next_virt = next;
        for (j, op) in scratch.iter().enumerate() {
            if self.lookahead && matches!(op, TraceOp::Gate(g) if g.arity() >= 2) {
                self.fill_window(scratch[j + 1..].iter().filter_map(|op| match op {
                    TraceOp::Gate(g) if g.arity() >= 2 => Some(g.clone()),
                    _ => None,
                }));
            }
            self.emit(op.clone(), &[])?;
        }
        self.inverse_scratch = scratch;
        Ok(())
    }

    fn run_block(&mut self, block: BlockKind, frame: &Frame) -> Result<(), CompileError> {
        // Copy the shared program reference out of `self` so the
        // statement slice borrows the program's lifetime, not `self`
        // (the historical code cloned every block to satisfy the
        // borrow checker).
        let program = self.program;
        let module = program.module(frame.id);
        let stmts = match block {
            BlockKind::Compute => module.compute(),
            BlockKind::Store => module.store(),
            BlockKind::CustomUncompute => module
                .custom_uncompute()
                .expect("caller checked the block exists"),
        };
        for (i, stmt) in stmts.iter().enumerate() {
            // O(1) memoized look-ahead: gates left in this block after
            // the current statement.
            let rest = match block {
                BlockKind::Compute => self.costs.compute_tail(frame.id, i),
                BlockKind::Store => self.costs.store_tail(frame.id, i),
                BlockKind::CustomUncompute => self.costs.custom_tail(frame.id, i),
            };
            // Only multi-qubit gates route, so only they read the
            // window — skip the O(block) rebuild for 1-qubit gates. The
            // window ends at the first call statement: callee gate
            // streams are not statically visible at this altitude.
            // Measurements and guarded corrections are local
            // single-cell events: nothing for a router to score.
            if self.lookahead && matches!(stmt, Stmt::Gate(g) if g.arity() >= 2) {
                self.fill_window(
                    stmts[i + 1..]
                        .iter()
                        .take_while(|s| !matches!(s, Stmt::Call { .. }))
                        .filter_map(|s| match s {
                            Stmt::Gate(g) if g.arity() >= 2 => Some(g.map(|op| frame.resolve(op))),
                            _ => None,
                        }),
                );
            }
            self.exec_stmt(stmt, frame, rest)?;
        }
        Ok(())
    }

    /// Refills the machine's lookahead window with the first
    /// [`LOOKAHEAD_WINDOW`] of the `upcoming` multi-qubit gates,
    /// resolved to virtual qubits — the front/extended set a
    /// SABRE-style router scores swaps against.
    fn fill_window(&mut self, upcoming: impl Iterator<Item = Gate<VirtId>>) {
        let window = self.machine.lookahead_mut();
        window.clear();
        window.extend(upcoming.take(LOOKAHEAD_WINDOW));
    }

    /// Runs one statement of `frame`; `gates_after_stmt` is the
    /// statically known gate count left in its block after it.
    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        frame: &Frame,
        gates_after_stmt: u64,
    ) -> Result<(), CompileError> {
        let resolve = |op: &Operand| frame.resolve(op);
        match stmt {
            Stmt::Gate(g) => self.emit(TraceOp::Gate(g.map(resolve)), &[]),
            Stmt::Measure { qubit, clbit } => {
                let qubit = resolve(qubit);
                let clbit = frame.clbits[*clbit];
                self.emit(TraceOp::Measure { qubit, clbit }, &[])
            }
            Stmt::CondGate { clbit, gate } => {
                let gate = gate.map(resolve);
                let clbit = frame.clbits[*clbit];
                self.emit(TraceOp::CondGate { clbit, gate }, &[])
            }
            Stmt::Call { callee, args } => {
                let args: Vec<VirtId> = args.iter().map(resolve).collect();
                // G_p for the child: gates left in this frame after the
                // call, plus this frame's own uncompute estimate
                // (static compute size) — the distance to the point
                // where the child's garbage would be swept. If this
                // frame itself is unlikely to uncompute (running rate
                // ρ), the sweep horizon extends toward *our* parent's:
                // add the expected remainder (1−ρ)·g_p.
                let own_uncomp = self.pstats.module(frame.id).gates_compute;
                let rate = self.reclaim_rate();
                let g_p = gates_after_stmt
                    .saturating_add(own_uncomp)
                    .saturating_add(((1.0 - rate) * frame.g_p as f64) as u64);
                self.run_frame(*callee, &args, frame.depth + 1, g_p, &[])?;
                Ok(())
            }
        }
    }

    /// How many garbage qubits past the line the program would be if
    /// this frame's `incoming` qubits joined the garbage pool now: the
    /// anticipatory clamp invariant is `garbage + stack_need ≤ eff`,
    /// which guarantees the deepest remaining call chain (and every
    /// sweep transient, whose width mirrors the forward width) always
    /// fits under the cap. Returns 0 when the frame can safely go
    /// garbage.
    fn budget_excess(&self, incoming: usize) -> usize {
        let Some(b) = &self.budget else {
            return 0;
        };
        let eff = b.cap.min(self.machine.qubit_count());
        let active = self.machine.placement().active_count();
        // Open-frame qubits are stack, not garbage; everything else
        // live is garbage from settled frames.
        let stack: usize = self.stack.iter().map(|f| f.ancillas).sum();
        let garbage = active.saturating_sub(stack);
        (garbage + incoming + b.stack_need).saturating_sub(eff)
    }

    /// Tries to clear `excess` overcommitted garbage qubits by early-
    /// uncomputing pool candidates, cheapest (CER-scored) first. Only
    /// trades while the candidate's uncompute is no dearer than the
    /// `g_uncomp` the deciding frame would pay — evicting old cheap
    /// garbage to admit new expensive garbage is the profitable move;
    /// the reverse is what forced reclamation is for. Returns the
    /// excess still uncovered.
    fn try_evict(&mut self, mut excess: usize, g_uncomp: u64) -> Result<usize, CompileError> {
        while excess > 0 {
            let Some(idx) = self.pick_eviction() else {
                break;
            };
            let cand = &self
                .budget
                .as_ref()
                .expect("caller checked budget")
                .candidates[idx];
            if cand.gates > g_uncomp {
                break;
            }
            let freed = cand.freed;
            self.early_uncompute(idx)?;
            excess = excess.saturating_sub(freed);
        }
        Ok(excess)
    }

    /// Reclaim `frame` (true) or leave it as garbage, given the gate
    /// events its uncompute would cost.
    fn decide(&mut self, frame: &Frame, g_uncomp: u64) -> Result<bool, CompileError> {
        let n_anc = frame.anc.len();
        let base = match self.config.policy {
            Policy::Eager | Policy::SquareLaaOnly => true,
            Policy::Lazy => frame.depth == 0,
            Policy::Square => {
                // Under `budget:N` CER sees the capped machine: the cap
                // is the capacity and the headroom under it the free
                // pool, so the paper's own pressure rule engages as the
                // live width nears the budget.
                let n_active = self.machine.placement().active_count();
                let (capacity, free_qubits) = match &self.budget {
                    Some(b) => {
                        let eff = b.cap.min(self.machine.qubit_count());
                        (eff, eff.saturating_sub(n_active))
                    }
                    None => (
                        self.machine.qubit_count(),
                        self.machine.placement().free_count(),
                    ),
                };
                let inputs = CerInputs {
                    n_active,
                    n_anc,
                    g_uncomp,
                    g_p: frame.g_p,
                    level: frame.depth,
                    comm_factor: self.machine.comm_factor(),
                    free_qubits,
                    capacity,
                    reclaim_rate: self.reclaim_rate(),
                    frame_qubits: frame.args.len() + n_anc,
                };
                let d = cer::decide(&inputs, &self.config.cer);
                if d.forced {
                    self.decisions.forced += 1;
                }
                d.reclaim
            }
        };
        // Anticipatory budget clamp: a frame may only go garbage while
        // the invariant `garbage + stack_need ≤ eff` survives it. When
        // it would not, first try to restore headroom by evicting
        // settled garbage (the Reqomp move — the base decision and the
        // decision log are untouched); only when the pool cannot cover
        // the excess is the frame force-reclaimed.
        if !base && frame.depth > 0 && self.budget.is_some() {
            let excess = self.budget_excess(n_anc);
            if excess > 0 && self.try_evict(excess, g_uncomp)? > 0 {
                self.decisions.forced += 1;
                return Ok(true);
            }
        }
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchSpec;
    use square_qir::ProgramBuilder;

    /// Two-level program: child computes into an ancilla, parent
    /// stores the result, entry copies to output.
    fn nested_program() -> Program {
        let mut b = ProgramBuilder::new();
        let child = b
            .module("child", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let a = m.ancilla(0);
                m.cx(x, a);
                m.store();
                m.cx(a, out);
            })
            .unwrap();
        let parent = b
            .module("parent", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let t = m.ancilla(0);
                m.call(child, &[x, t]);
                m.store();
                m.cx(t, out);
            })
            .unwrap();
        let main = b
            .module("main", 0, 3, |m| {
                let (x, po, fo) = (m.ancilla(0), m.ancilla(1), m.ancilla(2));
                m.x(x);
                m.call(parent, &[x, po]);
                m.store();
                m.cx(po, fo);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    fn grid(policy: Policy) -> CompilerConfig {
        CompilerConfig::nisq(policy).with_arch(ArchSpec::Grid {
            width: 4,
            height: 4,
        })
    }

    #[test]
    fn all_policies_compile_nested_program() {
        let p = nested_program();
        for policy in Policy::ALL {
            let r = compile(&p, &grid(policy)).unwrap();
            assert!(r.gates > 0, "{policy}");
            assert!(r.aqv > 0, "{policy}");
            assert_eq!(r.aqv, r.aqv_from_segments(), "{policy}");
            assert_eq!(r.entry_register.len(), 3);
        }
    }

    #[test]
    fn eager_recomputes_lazy_reserves() {
        let p = nested_program();
        let eager = compile(&p, &grid(Policy::Eager)).unwrap();
        let lazy = compile(&p, &grid(Policy::Lazy)).unwrap();
        assert!(
            eager.gates > lazy.gates,
            "recursive recomputation: {} vs {}",
            eager.gates,
            lazy.gates
        );
        // On this tiny program routing swaps can scatter the reuse
        // pool, so compare concurrency (peak) rather than footprint;
        // the footprint contrast shows on the real benchmarks.
        assert!(
            eager.peak_active <= lazy.peak_active,
            "qubit reservation: {} vs {}",
            eager.peak_active,
            lazy.peak_active
        );
        assert!(eager.decisions.reclaimed > 0);
        assert!(lazy.decisions.garbage > 0);
    }

    #[test]
    fn trace_replay_on_bits_matches_reference_semantics() {
        let p = nested_program();
        for policy in Policy::ALL {
            let r = compile(&p, &grid(policy)).unwrap();
            // Final out = 1 (x=1 propagated through child and parent;
            // the store block shields it from the entry's uncompute,
            // which rolls the X prep itself back to |0⟩ under policies
            // that reclaim at top level).
            let vals = replay_bits(&r.trace, &r.entry_register);
            assert!(vals[2], "{policy}: output stored");
            // Reference semantics agree.
            let mut oracle = |_m: ModuleId, d: usize| match policy {
                Policy::Eager | Policy::SquareLaaOnly => true,
                Policy::Lazy => d == 0,
                Policy::Square => unreachable!("compared separately"),
            };
            if policy != Policy::Square {
                let sem = square_qir::sem::run(&p, &[], &mut oracle).unwrap();
                assert_eq!(sem.outputs, vals, "{policy}");
            }
        }
    }

    #[test]
    fn decision_log_replays_through_reference_semantics() {
        let p = nested_program();
        for policy in Policy::ALL {
            let r = compile(&p, &grid(policy)).unwrap();
            assert_eq!(
                r.decision_log.len() as u64,
                r.decisions.reclaimed + r.decisions.garbage,
                "{policy}: log covers every decision"
            );
            // The reference semantics, fed the recorded decisions,
            // visit exactly the same reclamation points.
            let lowered = square_qir::lower_mcx(&p);
            let mut oracle = square_qir::RecordedDecisions::new(r.decision_bools());
            let sem = square_qir::sem::run(&lowered, &[], &mut oracle).unwrap();
            assert!(oracle.in_sync(), "{policy}: decision sequence drift");
            assert_eq!(sem.outputs.len(), r.entry_register.len(), "{policy}");
        }
    }

    #[test]
    fn schedule_recording_also_records_placement_history() {
        let p = nested_program();
        let r = compile(&p, &grid(Policy::Square).with_schedule()).unwrap();
        let history = r.placement_history.as_ref().expect("recorded");
        assert!(!history.is_empty());
        // Every entry-register qubit's journey ends at its final
        // placement.
        for v in &r.entry_register {
            let journey = square_route::journey_of(history, *v);
            assert_eq!(journey.last(), r.final_placement.get(v), "{v}");
        }
        let bare = compile(&p, &grid(Policy::Square)).unwrap();
        assert!(bare.placement_history.is_none());
    }

    #[test]
    fn out_of_qubits_is_reported() {
        let p = nested_program();
        let cfg = CompilerConfig::nisq(Policy::Lazy).with_arch(ArchSpec::Grid {
            width: 2,
            height: 1,
        });
        let err = compile(&p, &cfg).unwrap_err();
        match err {
            CompileError::OutOfQubits {
                policy,
                budget,
                module,
                min_feasible,
                ..
            } => {
                assert_eq!(policy, Policy::Lazy);
                assert_eq!(budget, None);
                assert!(module.is_some(), "failure attributed to a module");
                assert_eq!(min_feasible, None, "unbudgeted failures have no min-N");
            }
            other => panic!("expected OutOfQubits, got {other}"),
        }
    }

    /// `main` holds three ancillas and calls `child`, which declares
    /// two: on four qubits (or under `budget:3`) the child's second
    /// allocation is the one that fails.
    fn callee_overflow_program() -> Program {
        let mut b = ProgramBuilder::new();
        let child = b
            .module("child", 1, 2, |m| {
                let (p, a0, a1) = (m.param(0), m.ancilla(0), m.ancilla(1));
                m.cx(p, a0);
                m.cx(a0, a1);
            })
            .unwrap();
        let main = b
            .module("main", 0, 3, |m| {
                let a0 = m.ancilla(0);
                m.x(a0);
                m.call(child, &[a0]);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    #[test]
    fn out_of_qubits_names_the_callee_whose_allocation_failed() {
        let p = callee_overflow_program();
        let plain = CompilerConfig::nisq(Policy::Lazy).with_arch(ArchSpec::Grid {
            width: 2,
            height: 2,
        });
        let budgeted = grid(Policy::Lazy).with_budget(Some(3));
        for (cfg, min) in [(plain, None), (budgeted, Some(4))] {
            match compile(&p, &cfg).unwrap_err() {
                CompileError::OutOfQubits {
                    module,
                    min_feasible,
                    ..
                } => {
                    assert_eq!(module.as_deref(), Some("child"));
                    assert_eq!(min_feasible, min);
                }
                other => panic!("expected OutOfQubits, got {other}"),
            }
        }
    }

    /// Three sequential garbage-producing calls: under Lazy all three
    /// frames stay live (peak 5: x, out + three garbage ancillas), but
    /// every frame is a textbook early-uncompute candidate, so
    /// `budget:4` must fit by evicting each settled frame before the
    /// next one's garbage would break the clamp invariant.
    fn sequential_garbage_program() -> Program {
        let mut b = ProgramBuilder::new();
        let child = b
            .module("child", 1, 1, |m| {
                let x = m.param(0);
                let a = m.ancilla(0);
                m.cx(x, a);
                m.store();
            })
            .unwrap();
        let main = b
            .module("main", 0, 2, |m| {
                let (x, out) = (m.ancilla(0), m.ancilla(1));
                m.x(x);
                m.call(child, &[x]);
                m.call(child, &[x]);
                m.call(child, &[x]);
                m.store();
                m.cx(x, out);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    /// Replays a virtual trace on booleans, panicking on any hygiene
    /// fault (double alloc, use after free, dirty free, unmeasured
    /// guard), and returns the final values of `outputs`.
    fn replay_bits(trace: &[TraceOp], outputs: &[VirtId]) -> Vec<bool> {
        square_qir::sem::replay(trace, outputs)
            .unwrap_or_else(|fault| panic!("trace replay: {fault}"))
            .0
    }

    #[test]
    fn budget_evicts_garbage_to_fit_under_the_cap() {
        let p = sequential_garbage_program();
        let base = CompilerConfig::nisq(Policy::Lazy).with_arch(ArchSpec::Grid {
            width: 4,
            height: 4,
        });
        let unbudgeted = compile(&p, &base).unwrap();
        assert!(
            unbudgeted.peak_active >= 5,
            "lazy keeps all three garbage frames live (peak {})",
            unbudgeted.peak_active
        );
        let capped = compile(&p, &base.clone().with_budget(Some(4))).unwrap();
        assert!(
            capped.peak_active <= 4,
            "cap enforced: peak {} > 4",
            capped.peak_active
        );
        let outcome = capped.budget.expect("budgeted");
        assert_eq!(outcome.cap, 4);
        assert!(outcome.recompute.early_uncomputed_frames >= 1);
        assert!(outcome.recompute.early_uncompute_gates >= 1);
        // The entry's final sweep covers the early uncompute, so the
        // frame is recomputed (and recounted) mechanically.
        assert!(outcome.recompute.recomputed_frames >= 1);
        // Early uncomputation is externally invisible: the decision
        // log is unchanged and the trace still replays cleanly to the
        // same outputs.
        assert_eq!(capped.decision_log, unbudgeted.decision_log);
        let vals = replay_bits(&capped.trace, &capped.entry_register);
        assert_eq!(
            vals,
            replay_bits(&unbudgeted.trace, &unbudgeted.entry_register)
        );
        let lowered = square_qir::lower_mcx(&p);
        let mut oracle = square_qir::RecordedDecisions::new(capped.decision_bools());
        let sem = square_qir::sem::run(&lowered, &[], &mut oracle).unwrap();
        assert!(oracle.in_sync());
        assert_eq!(sem.outputs, vals);
    }

    #[test]
    fn budget_reports_min_feasible_when_unsatisfiable() {
        let p = sequential_garbage_program();
        // Budget 2 cannot even hold the entry register plus one call.
        let cfg = CompilerConfig::nisq(Policy::Lazy)
            .with_arch(ArchSpec::Grid {
                width: 4,
                height: 4,
            })
            .with_budget(Some(2));
        match compile(&p, &cfg).unwrap_err() {
            CompileError::OutOfQubits {
                budget,
                min_feasible,
                ..
            } => {
                assert_eq!(budget, Some(2));
                let min = min_feasible.expect("budgeted failure reports min-N");
                assert!(min == 3, "min feasible should be 3, got {min}");
            }
            other => panic!("expected OutOfQubits, got {other}"),
        }
    }

    #[test]
    fn non_binding_budget_is_field_identical_to_base() {
        // A cap at machine capacity can never bind, and the CER clamp
        // resolves to the same (capacity, free) pair — so every field
        // except `budget` itself must be bit-identical to the base
        // policy, for all four bases.
        for p in [nested_program(), sequential_garbage_program()] {
            for policy in Policy::ALL {
                let cfg = grid(policy);
                let base = compile(&p, &cfg).unwrap();
                let capped = compile(&p, &cfg.clone().with_budget(Some(16))).unwrap();
                assert_eq!(base.gates, capped.gates, "{policy}");
                assert_eq!(base.swaps, capped.swaps, "{policy}");
                assert_eq!(base.depth, capped.depth, "{policy}");
                assert_eq!(base.qubits, capped.qubits, "{policy}");
                assert_eq!(base.peak_active, capped.peak_active, "{policy}");
                assert_eq!(base.aqv, capped.aqv, "{policy}");
                assert_eq!(base.decisions, capped.decisions, "{policy}");
                assert_eq!(base.decision_log, capped.decision_log, "{policy}");
                assert_eq!(base.trace, capped.trace, "{policy}");
                assert!(base.budget.is_none(), "{policy}");
                assert_eq!(
                    capped.budget,
                    Some(BudgetOutcome {
                        cap: 16,
                        recompute: Default::default(),
                    }),
                    "{policy}: all zero"
                );
            }
        }
    }

    /// A Toffoli-built AND tree: the child writes both ancillas with
    /// Ccx only, so its compute slice is MBU-eligible and the weighted
    /// cost model (Ccx = 6, measure + correction = 2) picks
    /// measure-and-correct over the unitary inverse.
    fn toffoli_program() -> Program {
        let mut b = ProgramBuilder::new();
        let child = b
            .module("and2", 3, 2, |m| {
                let (x, y, out) = (m.param(0), m.param(1), m.param(2));
                let (a, t) = (m.ancilla(0), m.ancilla(1));
                m.ccx(x, y, a);
                m.ccx(x, a, t);
                m.store();
                m.cx(t, out);
            })
            .unwrap();
        let main = b
            .module("main", 0, 4, |m| {
                let (x, y, t, out) = (m.ancilla(0), m.ancilla(1), m.ancilla(2), m.ancilla(3));
                m.x(x);
                m.x(y);
                m.call(child, &[x, y, t]);
                m.store();
                m.cx(t, out);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    #[test]
    fn mbu_reclaims_toffoli_built_frames_cheaper() {
        let p = toffoli_program();
        let off = compile(&p, &grid(Policy::Eager)).unwrap();
        let on = compile(&p, &grid(Policy::Eager).with_mbu(true)).unwrap();
        assert_eq!(off.mbu, None);
        let stats = on.mbu.expect("MBU on");
        assert!(stats.mbu_frames >= 1);
        assert_eq!(stats.measurements, 2, "both written ancillas");
        assert_eq!(stats.cond_corrections, 2);
        assert!(
            stats.unitary_cost > stats.mbu_cost,
            "MBU only chosen when strictly cheaper: {} vs {}",
            stats.unitary_cost,
            stats.mbu_cost
        );
        assert!(on
            .decision_log
            .iter()
            .any(|d| d.lowering == ReclaimLowering::Mbu));
        assert!(
            on.depth < off.depth,
            "measure-and-correct beats Toffoli inverses: {} vs {}",
            on.depth,
            off.depth
        );
        // Both compiles land the same outputs, and the reference
        // semantics (which always uncomputes unitarily) agrees when
        // fed the MBU run's decision log — the lowering is
        // output-invisible.
        let vals_on = replay_bits(&on.trace, &on.entry_register);
        let vals_off = replay_bits(&off.trace, &off.entry_register);
        assert_eq!(vals_on, vals_off);
        assert!(vals_on[3], "AND(1,1) stored");
        let lowered = square_qir::lower_mcx(&p);
        let mut oracle = square_qir::RecordedDecisions::new(on.decision_bools());
        let sem = square_qir::sem::run(&lowered, &[], &mut oracle).unwrap();
        assert!(oracle.in_sync());
        assert_eq!(sem.outputs, vals_on);
    }

    #[test]
    fn mbu_never_engages_without_inner_reclaims() {
        // Lazy reclaims only the entry frame, and MBU is gated to
        // depth > 0 (the entry "ancillas" are the I/O register) — so
        // an MBU-enabled Lazy compile must be field-identical to the
        // baseline apart from the report flag.
        let p = nested_program();
        let base = compile(&p, &grid(Policy::Lazy)).unwrap();
        let on = compile(&p, &grid(Policy::Lazy).with_mbu(true)).unwrap();
        assert_eq!(base.gates, on.gates);
        assert_eq!(base.swaps, on.swaps);
        assert_eq!(base.depth, on.depth);
        assert_eq!(base.qubits, on.qubits);
        assert_eq!(base.aqv, on.aqv);
        assert_eq!(base.decisions, on.decisions);
        assert_eq!(base.decision_log, on.decision_log);
        assert_eq!(base.trace, on.trace);
        assert_eq!(base.mbu, None);
        assert_eq!(on.mbu, Some(MbuStats::default()));
    }

    #[test]
    fn mbu_weighted_compare_keeps_cheap_frames_unitary() {
        // Under Eager, the innermost child's compute slice is a single
        // CNOT (cx = 1 beats measure + correction = 2: stays unitary),
        // while the parent's slice contains the child's whole
        // compute/uncompute round trip (three CNOTs) — there MBU's two
        // events win, flattening the recursive uncompute.
        let p = nested_program();
        let on = compile(&p, &grid(Policy::Eager).with_mbu(true)).unwrap();
        let child = on.decision_log.iter().find(|d| d.depth == 2).unwrap();
        assert_eq!(child.lowering, ReclaimLowering::Unitary);
        let parent = on.decision_log.iter().find(|d| d.depth == 1).unwrap();
        assert_eq!(parent.lowering, ReclaimLowering::Mbu);
        let off = compile(&p, &grid(Policy::Eager)).unwrap();
        assert!(on.gates < off.gates, "{} vs {}", on.gates, off.gates);
        assert_eq!(
            replay_bits(&on.trace, &on.entry_register),
            replay_bits(&off.trace, &off.entry_register)
        );
    }

    #[test]
    fn inputs_prepend_x_gates() {
        let p = nested_program();
        for policy in Policy::ALL {
            let r0 = compile(&p, &grid(policy)).unwrap();
            let r1 = compile_with_inputs(&p, &[true, true], &grid(policy)).unwrap();
            assert_eq!(r1.gates, r0.gates + 2);
            // The X gates follow the entry frame's allocations, and
            // nothing after them changes: the executor never reads bit
            // values, so one input-free compile serves every input.
            let allocs = r0.entry_register.len();
            let (head, rest) = r1.trace.split_at(allocs);
            let (prefix, tail) = rest.split_at(2);
            assert_eq!(head, &r0.trace[..allocs], "{policy}");
            assert!(
                prefix
                    .iter()
                    .all(|op| matches!(op, TraceOp::Gate(Gate::X { .. }))),
                "{policy}: {prefix:?}"
            );
            assert_eq!(tail, &r0.trace[allocs..], "{policy}");
            assert_eq!(r1.decision_log, r0.decision_log, "{policy}");
            assert_eq!(r1.swaps, r0.swaps, "{policy}");
        }
    }

    #[test]
    fn square_policy_reclaims_under_pressure() {
        // A machine barely large enough forces CER's pressure path.
        let p = nested_program();
        let cfg = CompilerConfig::nisq(Policy::Square).with_arch(ArchSpec::Grid {
            width: 3,
            height: 2,
        });
        let r = compile(&p, &cfg).unwrap();
        assert!(r.decisions.forced > 0 || r.decisions.reclaimed > 0);
    }

    #[test]
    fn ft_target_uses_braids_not_swaps() {
        let p = nested_program();
        let cfg = CompilerConfig::ft(Policy::Square).with_arch(ArchSpec::Grid {
            width: 4,
            height: 4,
        });
        let r = compile(&p, &cfg).unwrap();
        assert_eq!(r.swaps, 0);
        assert!(r.stats.braids > 0);
    }

    /// A 70-level tree in which each module calls the one below it
    /// twice has 2^70 forward gates: its static gate sums saturate at
    /// `u64::MAX` instead of wrapping (or panicking on overflow in a
    /// debug build). Preparing it is cheap; compiling it is not.
    #[test]
    fn gate_sums_of_a_doubling_tree_saturate() {
        let mut b = ProgramBuilder::new();
        let mut below = b.module("m0", 1, 0, |m| m.x(m.param(0))).unwrap();
        for level in 1..70 {
            below = b
                .module(format!("m{level}"), 1, 0, |m| {
                    m.call(below, &[m.param(0)]);
                    m.call(below, &[m.param(0)]);
                })
                .unwrap();
        }
        let main = b
            .module("main", 0, 1, |m| {
                m.call(below, &[m.ancilla(0)]);
                m.call(below, &[m.ancilla(0)]);
            })
            .unwrap();
        let prepared = PreparedProgram::new(&b.finish(main).unwrap()).unwrap();
        let entry = prepared.lowered.entry();
        assert_eq!(prepared.pstats.module(entry).gates_compute, u64::MAX);
        assert_eq!(prepared.costs.compute_tail(entry, 0), u64::MAX);
    }
}
