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
use square_route::{Machine, MachineConfig, RouterConfig, RouterKind};

use crate::budget::{scan_candidate, BudgetState};
use crate::cer::{early_reclaim_score, CerEngine, CerInputs, ModuleCostTable};
use crate::config::CompilerConfig;
use crate::error::CompileError;
use crate::heap::AncillaHeap;
use crate::laa;
use crate::policy::Policy;
use crate::report::{CompileReport, DecisionStats, MbuStats, ReclaimDecision, ReclaimLowering};

/// Compiles `program` with all entry-register inputs |0⟩.
///
/// # Errors
///
/// Program validation errors, routing failures, or capacity
/// exhaustion ([`CompileError::OutOfQubits`]).
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

/// The reusable compile prefix of one program: validated, MCX-lowered,
/// analyzed, and cost-tabled.
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
    /// Validates `program` and builds every compile-prefix artifact.
    ///
    /// # Errors
    ///
    /// Program validation errors ([`CompileError::Qir`]).
    pub fn new(program: &Program) -> Result<Self, CompileError> {
        square_qir::validate::validate_program(program)?;
        let lowered = lower_mcx(program);
        let pstats = ProgramStats::analyze(&lowered);
        // Per-module cost terms (custom-uncompute totals, block suffix
        // sums) memoized up front — the per-frame hot path never
        // re-walks statement lists. Modules are mutually independent,
        // so the table is built in parallel.
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
    let topo: Arc<dyn Topology> = Arc::from(config.arch.build(prepared.capacity_hint));
    compile_prepared_on(prepared, inputs, config, topo)
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
    let lowered = &prepared.lowered;
    // Braiding never consults the swap-chain router: normalize the
    // recorded selection to greedy so reports cannot claim a lookahead
    // router that never ran.
    let router = match config.comm {
        CommModel::SwapChains => config.router,
        CommModel::Braiding => RouterConfig {
            kind: RouterKind::Greedy,
            ..config.router
        },
    };
    let machine = Machine::with_shared(
        topo,
        MachineConfig {
            comm: config.comm,
            record_schedule: config.record_schedule,
            router,
        },
    );
    let heap = AncillaHeap::with_capacity(machine.qubit_count());
    let mut exec = Exec {
        program: lowered,
        pstats: &prepared.pstats,
        costs: &prepared.costs,
        cer: CerEngine::new(config.cer),
        config,
        machine,
        heap,
        trace: Vec::new(),
        inverse_scratch: Vec::new(),
        next_virt: 0,
        next_clbit: 0,
        gates_emitted: 0,
        decisions: DecisionStats::default(),
        decision_log: Vec::new(),
        mbu_stats: MbuStats::default(),
        lookahead: false,
        layer_scratch: Vec::new(),
        budget: config.budget.map(BudgetState::new),
        stack_need: if config.budget.is_some() {
            crate::budget::stack_need(lowered)
        } else {
            0
        },
        stack_width: 0,
        module_stack: Vec::new(),
    };
    let lookahead = exec.machine.wants_lookahead();
    exec.lookahead = lookahead;
    let route_start = std::time::Instant::now();
    let entry_register = exec.run_entry(inputs)?;
    let route_ns = route_start.elapsed().as_nanos() as u64;
    let decisions = exec.decisions;
    let decision_log = std::mem::take(&mut exec.decision_log);
    let mbu_stats = exec.mbu_stats;
    let cer_cache = exec.cer.stats();
    let recompute = exec.budget.as_ref().map(|b| b.stats).unwrap_or_default();
    let policy = config.policy;
    let comm = config.comm;
    let comm_factor = exec.machine.comm_factor();
    let machine_qubits = exec.machine.qubit_count();
    let trace = exec.trace;
    let route_report = exec.machine.finish();
    let router = router.kind;
    let aqv_value = square_metrics::aqv(route_report.segments.iter().map(|s| (s.start, s.end)));
    Ok(CompileReport {
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
        cer_cache,
        machine_qubits,
        route_ns,
        trace,
        budget: config.budget,
        recompute,
        mbu: config.mbu,
        mbu_stats,
    })
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
    /// Incremental CER evaluator (decision memo, invalidated only at
    /// allocation events).
    cer: CerEngine,
    config: &'p CompilerConfig,
    machine: Machine,
    heap: AncillaHeap,
    trace: Vec<TraceOp>,
    /// Reused buffer for mechanical uncompute slices (avoids two Vec
    /// allocations per reclaimed frame).
    inverse_scratch: Vec<TraceOp>,
    next_virt: u32,
    /// Classical-bit id supply: fresh per measurement event, never
    /// reused (MBU lowerings and module-declared clbits alike).
    next_clbit: u32,
    /// Running count of gate events emitted (unitary gates,
    /// measurements, and classically controlled corrections),
    /// snapshotted around compute blocks so `G_uncomp` is O(1) instead
    /// of a re-walk of the recorded slice.
    gates_emitted: u64,
    decisions: DecisionStats,
    /// Per-frame decisions in completion order (see [`ReclaimDecision`]).
    decision_log: Vec<ReclaimDecision>,
    /// Measurement-based-uncompute activity (stays default with MBU
    /// off).
    mbu_stats: MbuStats,
    /// True when the machine's router consumes upcoming-gate windows
    /// (gates the per-gate window construction off the hot path
    /// otherwise).
    lookahead: bool,
    /// Reused buffer for batching runs of consecutive gate statements
    /// into one [`Machine::apply_layer`] call.
    layer_scratch: Vec<Gate<VirtId>>,
    /// Early-uncompute engine, present only under `budget:N` — every
    /// budget hook is behind this `Option`, keeping unbudgeted
    /// compiles bit-identical to their pre-budget behavior.
    budget: Option<BudgetState>,
    /// Eager-floor stack need of the entry module (see
    /// [`crate::budget::stack_need`]); 0 when unbudgeted.
    stack_need: usize,
    /// Ancilla qubits belonging to currently open frames (the live
    /// call stack's width); live − stack = settled garbage, the
    /// quantity the budget clamp polices.
    stack_width: usize,
    /// Call stack of module ids, for attributing [`CompileError::
    /// OutOfQubits`] to the module whose allocation failed.
    module_stack: Vec<ModuleId>,
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

    /// Routes and schedules a batched run of consecutive gates through
    /// [`Machine::apply_layer`] (which plans wide layers' swap chains
    /// in parallel, bit-identically to serial routing), then performs
    /// the same per-gate bookkeeping as [`Exec::emit`]: the layer's
    /// relocations are drained once — they accumulate in machine
    /// order, and no `Alloc`/`Free` can interleave within a gate run —
    /// and the gates are appended to the virtual trace. Drains `gates`.
    fn emit_gate_layer(&mut self, gates: &mut Vec<Gate<VirtId>>) -> Result<(), CompileError> {
        self.machine.apply_layer(gates)?;
        self.gates_emitted += gates.len() as u64;
        for (from, to) in self.machine.drain_relocations() {
            self.heap.relocate(from, to);
        }
        for g in gates.drain(..) {
            if let Some(b) = &mut self.budget {
                let pos = self.trace.len();
                crate::budget::for_each_write(&g, |w| b.note_write(w, pos));
            }
            self.trace.push(TraceOp::Gate(g));
        }
        Ok(())
    }

    /// Applies one trace op to the machine and appends it to the
    /// virtual trace. `interact` guides placement of `Alloc` ops.
    fn emit(&mut self, op: TraceOp, interact: &[VirtId]) -> Result<(), CompileError> {
        match &op {
            TraceOp::Alloc(v) => {
                // Under `budget:N`, evict (early-uncompute) garbage
                // frames until this allocation fits under the cap.
                if self.budget.is_some() {
                    self.ensure_headroom()?;
                }
                let choice = if self.config.policy.uses_laa() {
                    laa::choose_slot(&self.machine, &mut self.heap, interact, &self.config.laa)
                } else {
                    laa::choose_slot_naive(&self.machine, &mut self.heap, self.next_virt as u64)
                };
                let choice = match choice {
                    Some(c) => c,
                    None => return Err(self.out_of_qubits(1, None)),
                };
                self.machine.place_at(*v, choice.phys)?;
                self.cer.note_allocation_event();
            }
            TraceOp::Free(v) => {
                let phys = self.machine.release(*v)?;
                self.heap.push(phys);
                self.cer.note_allocation_event();
            }
            TraceOp::Gate(g) => {
                self.machine.apply(g)?;
                self.gates_emitted += 1;
                // Routing swaps may have moved pooled |0⟩ cells.
                for (from, to) in self.machine.drain_relocations() {
                    self.heap.relocate(from, to);
                }
            }
            TraceOp::Measure { qubit, clbit } => {
                self.machine.measure(*qubit, *clbit)?;
                self.gates_emitted += 1;
            }
            TraceOp::CondGate { clbit, gate } => {
                self.machine.apply_guarded(gate, *clbit)?;
                self.gates_emitted += 1;
                for (from, to) in self.machine.drain_relocations() {
                    self.heap.relocate(from, to);
                }
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
                TraceOp::Gate(g) => crate::budget::for_each_write(g, |w| b.note_write(w, pos)),
                TraceOp::Measure { .. } => {}
                TraceOp::CondGate { gate, .. } => {
                    crate::budget::for_each_write(gate, |w| b.note_write(w, pos));
                }
            }
        }
        self.trace.push(op);
        Ok(())
    }

    /// Builds the structured capacity-exhaustion diagnostic at the
    /// failure point.
    fn out_of_qubits(&self, requested: usize, min_feasible: Option<usize>) -> CompileError {
        let module = self
            .module_stack
            .last()
            .map(|id| self.program.module(*id).name().to_string());
        CompileError::OutOfQubits {
            requested,
            capacity: self.machine.qubit_count(),
            live: self.machine.placement().active_count(),
            policy: self.config.policy,
            budget: self.config.budget,
            module,
            min_feasible,
        }
    }

    /// Budget rule engine: while the next allocation would exceed the
    /// cap, early-uncompute the cheapest evictable garbage frame
    /// (CER-scored: uncompute-now + recompute-later per qubit freed).
    /// Errors with the minimum feasible budget when the candidate pool
    /// runs dry first.
    fn ensure_headroom(&mut self) -> Result<(), CompileError> {
        loop {
            let live = self.machine.placement().active_count();
            let budget = self.budget.as_mut().expect("caller checked budget");
            if live < budget.cap {
                return Ok(());
            }
            let total = self.decisions.reclaimed + self.decisions.garbage;
            let rate = (self.decisions.reclaimed as f64 + 1.0) / (total as f64 + 2.0);
            let params = self.config.cer;
            let Some(idx) =
                budget.pick(|c| early_reclaim_score(&params, c.gates, c.freed, rate, c.level))
            else {
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
        let mut scratch = std::mem::take(&mut self.inverse_scratch);
        let mut next = self.next_virt;
        invert_slice_into(&self.trace[cand.start..cand.end], &mut scratch, || {
            let v = VirtId(next);
            next += 1;
            v
        });
        self.next_virt = next;
        // Flat regions (rule 1) invert to gates + frees only, so this
        // replay never allocates and never re-enters ensure_headroom.
        let replayed = self.replay_ops(&mut scratch);
        self.inverse_scratch = scratch;
        replayed?;
        for a in cand.anc.iter().rev() {
            self.emit(TraceOp::Free(*a), &[])?;
        }
        self.budget
            .as_mut()
            .expect("still budgeted")
            .note_early_uncompute(u_start, cand.gates);
        Ok(())
    }

    fn run_entry(&mut self, inputs: &[bool]) -> Result<Vec<VirtId>, CompileError> {
        let entry_id = self.program.entry();
        self.module_stack.push(entry_id);
        let entry = self.program.module(entry_id);
        let anc: Vec<VirtId> = (0..entry.ancillas()).map(|_| self.fresh()).collect();
        for v in &anc {
            self.emit(TraceOp::Alloc(*v), &[])?;
        }
        for (i, bit) in inputs.iter().enumerate() {
            if *bit && i < anc.len() {
                self.emit(TraceOp::Gate(Gate::X { target: anc[i] }), &[])?;
            }
        }
        self.run_body(entry_id, &[], &anc, 0, 0)?;
        Ok(anc)
    }

    /// Executes a frame's compute + store blocks and applies the
    /// reclamation decision. `g_p` is the estimated gates remaining
    /// between this frame's end and its parent's uncompute block.
    fn run_body(
        &mut self,
        id: ModuleId,
        args: &[VirtId],
        anc: &[VirtId],
        depth: usize,
        g_p: u64,
    ) -> Result<(), CompileError> {
        self.module_stack.push(id);
        self.stack_width += anc.len();
        let result = self.run_body_inner(id, args, anc, depth, g_p);
        self.stack_width -= anc.len();
        self.module_stack.pop();
        result
    }

    fn run_body_inner(
        &mut self,
        id: ModuleId,
        args: &[VirtId],
        anc: &[VirtId],
        depth: usize,
        g_p: u64,
    ) -> Result<(), CompileError> {
        // Fresh classical bits for this activation's declared clbits
        // (mirrors the reference semantics: each call measures into
        // its own bits, never a sibling's).
        let clbits: Vec<ClbitId> = (0..self.program.module(id).clbits())
            .map(|_| self.fresh_clbit())
            .collect();
        let compute_start = self.trace.len();
        let gates_before_compute = self.gates_emitted;
        self.run_block(BlockKind::Compute, id, args, anc, &clbits, depth, g_p)?;
        let compute_end = self.trace.len();
        let gates_after_compute = self.gates_emitted;
        // Budget rule 4: from here until this frame's fate is settled,
        // a mechanical sweep of `[compute_start..compute_end)` may be
        // pending — freeze every candidate inside it so an eviction
        // cannot free qubits the sweep will free again.
        if let Some(b) = &mut self.budget {
            b.frozen.push((compute_start, compute_end));
        }
        let result = self.run_settle(
            id,
            args,
            anc,
            &clbits,
            depth,
            g_p,
            compute_start,
            compute_end,
            gates_after_compute - gates_before_compute,
        );
        if let Some(b) = &mut self.budget {
            b.frozen.pop();
        }
        result
    }

    /// The post-compute tail of a frame: store block, reclamation
    /// decision, and the uncompute or garbage bookkeeping. Split from
    /// [`Exec::run_body_inner`] so the budget freeze bracket covers
    /// every exit path.
    #[allow(clippy::too_many_arguments)]
    fn run_settle(
        &mut self,
        id: ModuleId,
        args: &[VirtId],
        anc: &[VirtId],
        clbits: &[ClbitId],
        depth: usize,
        g_p: u64,
        compute_start: usize,
        compute_end: usize,
        measured_gates: u64,
    ) -> Result<(), CompileError> {
        self.run_block(BlockKind::Store, id, args, anc, clbits, depth, g_p)?;

        // Frames without ancilla have nothing to reclaim: skip the
        // decision (and the pointless uncompute) entirely.
        if depth > 0 && anc.is_empty() {
            return Ok(());
        }
        // Measurement-based uncompute: when enabled, scan the recorded
        // compute slice for eligibility (Toffoli-class writes to this
        // frame's ancillas only, interior activity balanced) and price
        // both lowerings under the per-gate-class cost model. The
        // entry frame never qualifies — its "ancillas" are the
        // program's I/O register, which a reset would destroy.
        let mbu_plan =
            if self.config.mbu && depth > 0 && self.program.module(id).custom_uncompute().is_none()
            {
                scan_mbu_slice(&self.trace[compute_start..compute_end], |q| {
                    anc.contains(&q)
                })
            } else {
                None
            };
        let use_mbu = match &mbu_plan {
            Some(plan) => {
                let costs = self.costs.gate_class_costs();
                costs.mbu_cost(plan.written.len()) < costs.slice_cost(&plan.counts)
            }
            None => false,
        };
        // G_uncomp: gate events of the lowering this frame would
        // actually use — two per written ancilla under MBU, else the
        // measured size of the compute slice (running gate counter,
        // O(1)), or the memoized static size of an explicit uncompute
        // block when the author supplied one (e.g. operand unloading
        // for in-place adders).
        let g_uncomp = if use_mbu {
            2 * mbu_plan.as_ref().map_or(0, |p| p.written.len()) as u64
        } else {
            match self.costs.custom_uncompute_gates(id) {
                Some(gates) => gates,
                None => measured_gates,
            }
        };
        let n_anc = anc.len();
        let frame_qubits = args.len() + anc.len();
        let reclaim = self.decide(id, depth, g_uncomp, n_anc, g_p, frame_qubits)?;
        let lowering = if reclaim && use_mbu {
            ReclaimLowering::Mbu
        } else {
            ReclaimLowering::Unitary
        };
        self.decision_log.push(ReclaimDecision {
            module: id,
            depth: depth as u32,
            reclaim,
            lowering,
        });
        if reclaim {
            self.decisions.reclaimed += 1;
            if self.program.module(id).custom_uncompute().is_some() {
                self.run_block(
                    BlockKind::CustomUncompute,
                    id,
                    args,
                    anc,
                    clbits,
                    depth,
                    g_p,
                )?;
            } else if use_mbu {
                // Measure-and-correct: each written ancilla is read
                // into a fresh classical bit and flipped back to |0⟩
                // exactly when the outcome was 1. Untouched ancillas
                // are already |0⟩ and need no events at all.
                let plan = mbu_plan.expect("use_mbu implies a plan");
                let costs = self.costs.gate_class_costs();
                self.mbu_stats.mbu_frames += 1;
                self.mbu_stats.measurements += plan.written.len() as u64;
                self.mbu_stats.cond_corrections += plan.written.len() as u64;
                self.mbu_stats.mbu_gates += costs.mbu_cost(plan.written.len());
                self.mbu_stats.unitary_gates_avoided += costs.slice_cost(&plan.counts);
                for q in plan.written {
                    let clbit = self.fresh_clbit();
                    self.emit(TraceOp::Measure { qubit: q, clbit }, &[])?;
                    self.emit(
                        TraceOp::CondGate {
                            clbit,
                            gate: Gate::X { target: q },
                        },
                        &[],
                    )?;
                }
            } else {
                // An early uncompute emitted inside this region is
                // replayed forward by the inversion below — count it
                // as recompute work before sweeping.
                if let Some(b) = &mut self.budget {
                    b.note_sweep(compute_start, compute_end);
                }
                // Invert the recorded compute slice into the reused
                // scratch buffer (no per-frame slice copy).
                let mut scratch = std::mem::take(&mut self.inverse_scratch);
                let mut next = self.next_virt;
                invert_slice_into(
                    &self.trace[compute_start..compute_end],
                    &mut scratch,
                    || {
                        let v = VirtId(next);
                        next += 1;
                        v
                    },
                );
                self.next_virt = next;
                let replayed = self.replay_ops(&mut scratch);
                self.inverse_scratch = scratch;
                replayed?;
            }
            if depth > 0 {
                for a in anc.iter().rev() {
                    self.emit(TraceOp::Free(*a), &[])?;
                }
            }
        } else {
            self.decisions.garbage += 1;
            // Budget engine: a garbage frame is exactly what early
            // uncomputation evicts later — register it if its region
            // satisfies the static eligibility rules. The entry frame
            // (depth 0) is excluded: its "ancillas" are the program's
            // I/O register.
            if depth > 0 {
                if let Some(b) = &mut self.budget {
                    let cand = scan_candidate(
                        &self.trace[compute_start..compute_end],
                        compute_start,
                        id,
                        depth,
                        anc,
                        measured_gates,
                        |q| b.last_write(q),
                    );
                    if let Some(cand) = cand {
                        b.candidates.push(cand);
                    }
                }
            }
        }
        Ok(())
    }

    /// Replays a mechanically inverted slice onto the machine, with
    /// the same layer batching and lookahead-window handling as
    /// [`Exec::run_block`]. Shared by frame sweeps and budget-driven
    /// early uncomputes. Leaves `scratch`'s contents in place (the
    /// caller returns the buffer to `inverse_scratch` for reuse).
    fn replay_ops(&mut self, scratch: &mut [TraceOp]) -> Result<(), CompileError> {
        let mut j = 0;
        while j < scratch.len() {
            // Same layer batching as run_block: uncompute replays are
            // gate-dense, so whole inverse slices usually route as a
            // single layer.
            if !self.lookahead && matches!(&scratch[j], TraceOp::Gate(_)) {
                let mut layer = std::mem::take(&mut self.layer_scratch);
                layer.clear();
                while let Some(TraceOp::Gate(g)) = scratch.get(j) {
                    layer.push(g.clone());
                    j += 1;
                }
                let routed = self.emit_gate_layer(&mut layer);
                self.layer_scratch = layer;
                routed?;
                continue;
            }
            if self.lookahead && matches!(&scratch[j], TraceOp::Gate(g) if g.arity() >= 2) {
                let depth = self.config.router.lookahead_window;
                let window = self.machine.lookahead_mut();
                window.clear();
                for op in &scratch[j + 1..] {
                    if let TraceOp::Gate(g) = op {
                        if g.arity() >= 2 {
                            window.push(g.clone());
                            if window.len() >= depth {
                                break;
                            }
                        }
                    }
                }
            }
            self.emit(scratch[j].clone(), &[])?;
            j += 1;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn run_block(
        &mut self,
        block: BlockKind,
        id: ModuleId,
        args: &[VirtId],
        anc: &[VirtId],
        clbits: &[ClbitId],
        depth: usize,
        frame_g_p: u64,
    ) -> Result<(), CompileError> {
        // Copy the shared program reference out of `self` so the
        // statement slice borrows the program's lifetime, not `self`
        // (the historical code cloned every block to satisfy the
        // borrow checker).
        let program = self.program;
        let module = program.module(id);
        let stmts = match block {
            BlockKind::Compute => module.compute(),
            BlockKind::Store => module.store(),
            BlockKind::CustomUncompute => module
                .custom_uncompute()
                .expect("caller checked the block exists"),
        };
        let resolve = |op: &Operand| -> VirtId {
            match op {
                Operand::Param(i) => args[*i],
                Operand::Ancilla(i) => anc[*i],
            }
        };
        let mut i = 0;
        while i < stmts.len() {
            // Without a lookahead window to refill per gate, a maximal
            // run of consecutive gate statements routes as one layer —
            // the batched path that lets wide layers plan their swap
            // chains in parallel.
            if !self.lookahead && matches!(&stmts[i], Stmt::Gate(_)) {
                let mut layer = std::mem::take(&mut self.layer_scratch);
                layer.clear();
                while let Some(Stmt::Gate(g)) = stmts.get(i) {
                    layer.push(g.map(resolve));
                    i += 1;
                }
                let routed = self.emit_gate_layer(&mut layer);
                self.layer_scratch = layer;
                routed?;
                continue;
            }
            let stmt = &stmts[i];
            // O(1) memoized look-ahead: gates left in this block after
            // the current statement.
            let rest = match block {
                BlockKind::Compute => self.costs.compute_tail(id, i),
                BlockKind::Store => self.costs.store_tail(id, i),
                BlockKind::CustomUncompute => self.costs.custom_tail(id, i),
            };
            // Only multi-qubit gates route, so only they read the
            // window — skip the O(block) rebuild for 1-qubit gates.
            if self.lookahead && matches!(stmt, Stmt::Gate(g) if g.arity() >= 2) {
                self.fill_window(&stmts[i + 1..], args, anc);
            }
            self.exec_stmt(stmt, id, args, anc, clbits, depth, rest, frame_g_p)?;
            i += 1;
        }
        Ok(())
    }

    /// Refills the machine's lookahead window with the next
    /// [`RouterConfig::lookahead_window`] multi-qubit gates of the
    /// current block, resolved to virtual qubits — the front/extended
    /// set a SABRE-style router scores swaps against. The window ends
    /// at the first call statement: callee gate streams are not
    /// statically visible at this altitude.
    fn fill_window(&mut self, upcoming: &[Stmt], args: &[VirtId], anc: &[VirtId]) {
        let resolve = |op: &Operand| -> VirtId {
            match op {
                Operand::Param(i) => args[*i],
                Operand::Ancilla(i) => anc[*i],
            }
        };
        let depth = self.config.router.lookahead_window;
        let window = self.machine.lookahead_mut();
        window.clear();
        for stmt in upcoming {
            match stmt {
                Stmt::Gate(g) if g.arity() >= 2 => {
                    window.push(g.map(resolve));
                    if window.len() >= depth {
                        break;
                    }
                }
                Stmt::Gate(_) => {}
                // Measurements and guarded corrections are local
                // single-cell events: nothing for a router to score.
                Stmt::Measure { .. } | Stmt::CondGate { .. } => {}
                Stmt::Call { .. } => break,
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        caller: ModuleId,
        args: &[VirtId],
        anc: &[VirtId],
        clbits: &[ClbitId],
        depth: usize,
        gates_after_stmt: u64,
        frame_g_p: u64,
    ) -> Result<(), CompileError> {
        let resolve = |op: &Operand| -> VirtId {
            match op {
                Operand::Param(i) => args[*i],
                Operand::Ancilla(i) => anc[*i],
            }
        };
        match stmt {
            Stmt::Gate(g) => {
                let g = g.map(resolve);
                self.emit(TraceOp::Gate(g), &[])
            }
            Stmt::Measure { qubit, clbit } => {
                let qubit = resolve(qubit);
                self.emit(
                    TraceOp::Measure {
                        qubit,
                        clbit: clbits[*clbit],
                    },
                    &[],
                )
            }
            Stmt::CondGate { clbit, gate } => {
                let gate = gate.map(resolve);
                self.emit(
                    TraceOp::CondGate {
                        clbit: clbits[*clbit],
                        gate,
                    },
                    &[],
                )
            }
            Stmt::Call { callee, args: a } => {
                let resolved: Vec<VirtId> = a.iter().map(resolve).collect();
                let callee_mod = self.program.module(*callee);
                // Look-ahead interaction set for the child's ancilla:
                // the qubits bound to its parameters.
                let child_anc: Vec<VirtId> =
                    (0..callee_mod.ancillas()).map(|_| self.fresh()).collect();
                for v in &child_anc {
                    self.emit(TraceOp::Alloc(*v), &resolved)?;
                }
                // G_p for the child: gates left in this frame after the
                // call, plus this frame's own uncompute estimate
                // (static compute size) — the distance to the point
                // where the child's garbage would be swept. If this
                // frame itself is unlikely to uncompute (running rate
                // ρ), the sweep horizon extends toward *our* parent's:
                // add the expected remainder (1−ρ)·g_p.
                let own_uncomp = self.pstats.module(caller).gates_compute;
                let total = self.decisions.reclaimed + self.decisions.garbage;
                let rate = (self.decisions.reclaimed as f64 + 1.0) / (total as f64 + 2.0);
                let g_p_child =
                    gates_after_stmt + own_uncomp + ((1.0 - rate) * frame_g_p as f64) as u64;
                self.run_body(*callee, &resolved, &child_anc, depth + 1, g_p_child)
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
        let Some(cap) = self.config.budget else {
            return 0;
        };
        let eff = cap.min(self.machine.qubit_count());
        let active = self.machine.placement().active_count();
        // Open-frame qubits are stack, not garbage; everything else
        // live is garbage from settled frames.
        let garbage = active.saturating_sub(self.stack_width);
        (garbage + incoming + self.stack_need).saturating_sub(eff)
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
            let total = self.decisions.reclaimed + self.decisions.garbage;
            let rate = (self.decisions.reclaimed as f64 + 1.0) / (total as f64 + 2.0);
            let params = self.config.cer;
            let budget = self.budget.as_mut().expect("caller checked budget");
            let Some(idx) =
                budget.pick(|c| early_reclaim_score(&params, c.gates, c.freed, rate, c.level))
            else {
                break;
            };
            if budget.candidates[idx].gates > g_uncomp {
                break;
            }
            let freed = budget.candidates[idx].freed;
            self.early_uncompute(idx)?;
            excess = excess.saturating_sub(freed);
        }
        Ok(excess)
    }

    fn decide(
        &mut self,
        id: ModuleId,
        depth: usize,
        g_uncomp: u64,
        n_anc: usize,
        g_p: u64,
        frame_qubits: usize,
    ) -> Result<bool, CompileError> {
        let base = match self.config.policy {
            Policy::Eager | Policy::SquareLaaOnly => true,
            Policy::Lazy => depth == 0,
            Policy::Square => {
                let total = self.decisions.reclaimed + self.decisions.garbage;
                // Under `budget:N` CER sees the capped machine: the cap
                // is the capacity and the headroom under it the free
                // pool, so the paper's own pressure rule engages as the
                // live width nears the budget. Both values are part of
                // the memo key, so budgeted decisions memoize apart
                // from unbudgeted ones.
                let n_active = self.machine.placement().active_count();
                let (capacity, free_qubits) = match self.config.budget {
                    Some(cap) => {
                        let eff = cap.min(self.machine.qubit_count());
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
                    g_p,
                    level: depth,
                    comm_factor: self.machine.comm_factor(),
                    free_qubits,
                    capacity,
                    // Laplace-smoothed running reclaim rate.
                    reclaim_rate: (self.decisions.reclaimed as f64 + 1.0) / (total as f64 + 2.0),
                    frame_qubits,
                };
                let d = self.cer.decide(id, &inputs);
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
        if !base && depth > 0 && self.config.budget.is_some() {
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
        // On this tiny program routing relocations can scatter the
        // heap, so compare concurrency (peak) rather than footprint;
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
        assert_eq!(capped.budget, Some(4));
        assert!(capped.recompute.early_uncomputed_frames >= 1);
        assert!(capped.recompute.early_uncompute_gates >= 1);
        // The entry's final sweep covers the early uncompute, so the
        // frame is recomputed (and recounted) mechanically.
        assert!(capped.recompute.recomputed_frames >= 1);
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
                assert_eq!(capped.budget, Some(16));
                assert_eq!(base.recompute, capped.recompute, "{policy}: all zero");
                assert_eq!(capped.recompute.early_uncomputed_frames, 0);
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
        assert!(!off.mbu && on.mbu);
        assert_eq!(off.mbu_stats, MbuStats::default());
        assert!(on.mbu_stats.mbu_frames >= 1);
        assert_eq!(on.mbu_stats.measurements, 2, "both written ancillas");
        assert_eq!(on.mbu_stats.cond_corrections, 2);
        assert!(
            on.mbu_stats.unitary_gates_avoided > on.mbu_stats.mbu_gates,
            "MBU only chosen when strictly cheaper: {} vs {}",
            on.mbu_stats.unitary_gates_avoided,
            on.mbu_stats.mbu_gates
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
        assert!(!base.mbu && on.mbu);
        assert_eq!(on.mbu_stats, MbuStats::default());
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
        let r0 = compile(&p, &grid(Policy::Eager)).unwrap();
        let r1 = compile_with_inputs(&p, &[true, true], &grid(Policy::Eager)).unwrap();
        assert_eq!(r1.gates, r0.gates + 2);
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
}
