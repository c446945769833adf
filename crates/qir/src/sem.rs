//! Reference bit-level semantics for modular reversible programs.
//!
//! Because every gate in the IR is classical and reversible, a program
//! acting on a computational-basis state is fully described by boolean
//! evolution. This module executes programs exactly (no machine model,
//! no heuristics) under a pluggable [`ReclaimOracle`] deciding, per
//! call frame, whether to uncompute — the semantic core that the SQUARE
//! compiler's instrumented executor must agree with.
//!
//! The executor doubles as the test oracle for the whole repository:
//!
//! * workload correctness (adders really add, SHA-2 rounds match a
//!   classical implementation, …) is checked against [`run`];
//! * the *ancilla hygiene* invariant — every reclaimed qubit is |0⟩ —
//!   is checked dynamically on every `Free`;
//! * all reclamation policies must compute the same outputs.

use std::fmt;

use crate::gate::Gate;
use crate::module::{ModuleId, Operand, Program, Stmt};
use crate::trace::{invert_slice, ClbitId, Clbits, TraceOp, VirtId};

/// Decides, at each potential reclamation point, whether the frame
/// should uncompute and reclaim its ancilla. Mirrors the compiler
/// policies of Table I at the semantic level.
pub trait ReclaimOracle {
    /// Returns `true` to uncompute the frame for `module` at call
    /// `depth` (entry = 0), `false` to leave its ancilla as garbage.
    fn reclaim(&mut self, module: ModuleId, depth: usize) -> bool;
}

/// Uncomputes every frame (the paper's *Eager* baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysReclaim;

impl ReclaimOracle for AlwaysReclaim {
    fn reclaim(&mut self, _module: ModuleId, _depth: usize) -> bool {
        true
    }
}

/// Never uncomputes, not even at top level; every ancilla becomes
/// garbage. Useful for measuring raw forward footprints.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverReclaim;

impl ReclaimOracle for NeverReclaim {
    fn reclaim(&mut self, _module: ModuleId, _depth: usize) -> bool {
        false
    }
}

/// Uncomputes only the entry frame (the paper's *Lazy* baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopLevelOnly;

impl ReclaimOracle for TopLevelOnly {
    fn reclaim(&mut self, _module: ModuleId, depth: usize) -> bool {
        depth == 0
    }
}

impl<F: FnMut(ModuleId, usize) -> bool> ReclaimOracle for F {
    fn reclaim(&mut self, module: ModuleId, depth: usize) -> bool {
        self(module, depth)
    }
}

/// Replays a pre-recorded sequence of reclamation decisions in call
/// order — the compiler executor's *actual* choices — so the reference
/// semantics can run in lock-step with any policy, including the CER
/// heuristic whose decisions depend on machine state the semantics do
/// not model. The i-th `reclaim` call returns the i-th recorded bool.
///
/// Both executors visit frames in the same (post-)order, so after a
/// run the oracle must be exactly exhausted; [`RecordedDecisions::in_sync`]
/// is the translation validator's drift check.
#[derive(Debug, Clone)]
pub struct RecordedDecisions {
    decisions: Vec<bool>,
    next: usize,
    overrun: bool,
}

impl RecordedDecisions {
    /// An oracle replaying `decisions` in order.
    pub fn new(decisions: Vec<bool>) -> Self {
        RecordedDecisions {
            decisions,
            next: 0,
            overrun: false,
        }
    }

    /// Decisions consumed so far.
    pub fn consumed(&self) -> usize {
        self.next
    }

    /// Recorded decisions not yet consumed.
    pub fn remaining(&self) -> usize {
        self.decisions.len() - self.next
    }

    /// True once more decisions were demanded than were recorded
    /// (every overrun answers `false`, i.e. "leave garbage").
    pub fn overrun(&self) -> bool {
        self.overrun
    }

    /// True iff the run consumed exactly the recorded sequence — the
    /// reference execution visited the same reclamation points as the
    /// recording executor.
    pub fn in_sync(&self) -> bool {
        !self.overrun && self.remaining() == 0
    }
}

impl ReclaimOracle for RecordedDecisions {
    fn reclaim(&mut self, _module: ModuleId, _depth: usize) -> bool {
        match self.decisions.get(self.next) {
            Some(&d) => {
                self.next += 1;
                d
            }
            None => {
                self.overrun = true;
                false
            }
        }
    }
}

/// Errors surfaced by the reference executor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SemError {
    /// A qubit was freed while holding |1⟩ — the uncompute block failed
    /// to restore it (broken custom uncompute, or an IR bug).
    DirtyAncilla {
        /// The virtual qubit that was dirty.
        qubit: VirtId,
        /// Module whose frame freed it.
        module: String,
    },
    /// Fewer input bits were supplied than the entry module's ancilla
    /// can hold is fine, but more is an error.
    TooManyInputs {
        /// Inputs supplied.
        supplied: usize,
        /// Entry qubits available.
        capacity: usize,
    },
    /// A classically controlled gate read a classical bit before any
    /// measurement wrote it — classical feedback must be causally
    /// ordered.
    UnmeasuredClbit {
        /// The classical bit read before being written.
        clbit: ClbitId,
        /// Module whose frame read it.
        module: String,
    },
}

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemError::DirtyAncilla { qubit, module } => {
                write!(f, "qubit {qubit} freed dirty in module `{module}`")
            }
            SemError::TooManyInputs { supplied, capacity } => {
                write!(f, "{supplied} input bits supplied, entry holds {capacity}")
            }
            SemError::UnmeasuredClbit { clbit, module } => {
                write!(
                    f,
                    "classical bit {clbit} read before measurement in module `{module}`"
                )
            }
        }
    }
}

impl std::error::Error for SemError {}

/// A computational-basis state over virtual qubits, plus the classical
/// bits written by mid-circuit measurements.
///
/// Indexed by [`VirtId`]; dead qubits keep their slot (ids are never
/// reused) but are flagged not-live.
#[derive(Debug, Clone, Default)]
pub struct BitState {
    bits: Vec<bool>,
    live: Vec<bool>,
    clbits: Clbits,
}

impl BitState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Value of a qubit (dead qubits read as their last value).
    pub fn get(&self, v: VirtId) -> bool {
        self.bits[v.index()]
    }

    /// True if the qubit is currently allocated.
    pub fn is_live(&self, v: VirtId) -> bool {
        self.live.get(v.index()).copied().unwrap_or(false)
    }

    /// Every classical bit written by a measurement so far.
    pub fn clbits(&self) -> &Clbits {
        &self.clbits
    }

    /// Executes one trace op at trace position `at`, checking ancilla
    /// hygiene first; on a fault the state is left unchanged.
    ///
    /// # Errors
    ///
    /// The op's [`TraceFault`], if any.
    pub fn step(&mut self, op: &TraceOp, at: usize) -> Result<(), TraceFault> {
        let dead = |qubit: VirtId| Err(TraceFault::UseAfterFree { qubit, at });
        match op {
            TraceOp::Alloc(v) => {
                if self.is_live(*v) {
                    return Err(TraceFault::DoubleAlloc { qubit: *v, at });
                }
                let i = v.index();
                if i >= self.bits.len() {
                    self.bits.resize(i + 1, false);
                    self.live.resize(i + 1, false);
                }
                self.bits[i] = false;
                self.live[i] = true;
            }
            TraceOp::Free(v) => {
                if !self.is_live(*v) {
                    return dead(*v);
                }
                if self.get(*v) {
                    return Err(TraceFault::DirtyFree { qubit: *v, at });
                }
                self.live[v.index()] = false;
            }
            TraceOp::Measure { qubit, clbit } => {
                if !self.is_live(*qubit) {
                    return dead(*qubit);
                }
                self.clbits.record(*clbit, self.get(*qubit));
            }
            TraceOp::Gate(gate) | TraceOp::CondGate { gate, .. } => {
                let mut first_dead = None;
                gate.for_each_qubit(|q| {
                    if first_dead.is_none() && !self.is_live(*q) {
                        first_dead = Some(*q);
                    }
                });
                if let Some(q) = first_dead {
                    return dead(q);
                }
                let fires = match op {
                    TraceOp::CondGate { clbit, .. } => self
                        .clbits
                        .get(*clbit)
                        .ok_or(TraceFault::UnmeasuredGuard { clbit: *clbit, at })?,
                    _ => true,
                };
                if fires {
                    gate.apply_bits(&mut self.bits);
                }
            }
        }
        Ok(())
    }
}

/// A hygiene violation found by [`BitState::step`]. `at` is the trace
/// position of the offending op; a register read after the last op
/// reports `trace.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFault {
    /// A live qubit was allocated again.
    DoubleAlloc {
        /// The qubit.
        qubit: VirtId,
        /// Trace position of the second alloc.
        at: usize,
    },
    /// A gate, measurement, free or register read touched a dead qubit.
    UseAfterFree {
        /// The qubit.
        qubit: VirtId,
        /// Trace position of the offending op.
        at: usize,
    },
    /// A qubit was freed while holding |1⟩.
    DirtyFree {
        /// The qubit.
        qubit: VirtId,
        /// Trace position of the free.
        at: usize,
    },
    /// A guarded gate read a classical bit no measurement had written.
    UnmeasuredGuard {
        /// The guard bit.
        clbit: ClbitId,
        /// Trace position of the guarded gate.
        at: usize,
    },
}

impl fmt::Display for TraceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFault::DoubleAlloc { qubit, at } => {
                write!(f, "op #{at} allocates live qubit {qubit}")
            }
            TraceFault::UseAfterFree { qubit, at } => {
                write!(f, "op #{at} touches dead qubit {qubit}")
            }
            TraceFault::DirtyFree { qubit, at } => {
                write!(f, "op #{at} frees {qubit} holding |1⟩ (uncompute failed)")
            }
            TraceFault::UnmeasuredGuard { clbit, at } => write!(
                f,
                "op #{at} is guarded by {clbit} before any measurement wrote it"
            ),
        }
    }
}

/// Replays a trace on booleans from the empty state, checking ancilla
/// hygiene on every op, and returns the values of `register` read
/// after the last op, with the final state.
///
/// Translation validation replays the compiler's trace through this;
/// the trace tests replay slices followed by their inverses.
///
/// # Errors
///
/// The first [`TraceFault`] in trace order.
pub fn replay(trace: &[TraceOp], register: &[VirtId]) -> Result<(Vec<bool>, BitState), TraceFault> {
    let mut state = BitState::new();
    for (at, op) in trace.iter().enumerate() {
        state.step(op, at)?;
    }
    let at = trace.len();
    let values = register
        .iter()
        .map(|&qubit| {
            if state.is_live(qubit) {
                Ok(state.get(qubit))
            } else {
                Err(TraceFault::UseAfterFree { qubit, at })
            }
        })
        .collect::<Result<_, _>>()?;
    Ok((values, state))
}

/// Result of a reference execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final values of the entry module's ancilla (the program's I/O
    /// register), in declaration order.
    pub outputs: Vec<bool>,
    /// The executed trace, including all uncomputation.
    pub trace: Vec<TraceOp>,
    /// Peak number of simultaneously live qubits.
    pub peak_live: usize,
    /// Qubits still live at program end (entry register + garbage).
    pub final_live: usize,
    /// Total primitive gates executed (incl. uncomputation).
    pub gate_count: u64,
}

struct SemCtx<'p> {
    program: &'p Program,
    state: BitState,
    trace: Vec<TraceOp>,
    next_id: u32,
    /// Next program-wide classical-bit id (fresh ids are minted per
    /// frame activation, mirroring ancilla virtual ids).
    next_clbit: u32,
    live: usize,
    peak: usize,
    gates: u64,
}

impl SemCtx<'_> {
    fn fresh_id(&mut self) -> VirtId {
        let v = VirtId(self.next_id);
        self.next_id += 1;
        v
    }

    fn fresh_clbit(&mut self) -> ClbitId {
        let c = ClbitId(self.next_clbit);
        self.next_clbit += 1;
        c
    }

    fn emit(&mut self, op: TraceOp, module_name: &str) -> Result<(), SemError> {
        let module = || module_name.to_string();
        self.state
            .step(&op, self.trace.len())
            .map_err(|fault| match fault {
                TraceFault::DirtyFree { qubit, .. } => SemError::DirtyAncilla {
                    qubit,
                    module: module(),
                },
                TraceFault::UnmeasuredGuard { clbit, .. } => SemError::UnmeasuredClbit {
                    clbit,
                    module: module(),
                },
                // Ids are minted fresh and every operand resolves to a
                // live frame qubit, so these cannot occur.
                fault => unreachable!("reference semantics emitted a malformed op: {fault}"),
            })?;
        match &op {
            TraceOp::Alloc(_) => {
                self.live += 1;
                self.peak = self.peak.max(self.live);
            }
            TraceOp::Free(_) => self.live -= 1,
            _ => self.gates += 1,
        }
        self.trace.push(op);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        args: &[VirtId],
        anc: &[VirtId],
        clbits: &[ClbitId],
        depth: usize,
        oracle: &mut dyn ReclaimOracle,
        module_name: &str,
    ) -> Result<(), SemError> {
        let resolve = |op: &Operand| -> VirtId {
            match op {
                Operand::Param(i) => args[*i],
                Operand::Ancilla(i) => anc[*i],
            }
        };
        match stmt {
            Stmt::Gate(g) => {
                let g = g.map(resolve);
                self.emit(TraceOp::Gate(g), module_name)
            }
            Stmt::Call { callee, args: a } => {
                let resolved: Vec<VirtId> = a.iter().map(resolve).collect();
                self.exec_module(*callee, &resolved, depth + 1, oracle)
            }
            Stmt::Measure { qubit, clbit } => {
                let op = TraceOp::Measure {
                    qubit: resolve(qubit),
                    clbit: clbits[*clbit],
                };
                self.emit(op, module_name)
            }
            Stmt::CondGate { clbit, gate } => {
                let op = TraceOp::CondGate {
                    clbit: clbits[*clbit],
                    gate: gate.map(resolve),
                };
                self.emit(op, module_name)
            }
        }
    }

    fn exec_module(
        &mut self,
        id: ModuleId,
        args: &[VirtId],
        depth: usize,
        oracle: &mut dyn ReclaimOracle,
    ) -> Result<(), SemError> {
        let module = self.program.module(id);
        let name = module.name().to_string();
        let anc: Vec<VirtId> = (0..module.ancillas())
            .map(|_| {
                let v = self.fresh_id();
                self.emit(TraceOp::Alloc(v), &name).expect("alloc");
                v
            })
            .collect();
        // Fresh classical bits per activation, mirroring ancilla ids.
        let clbits: Vec<ClbitId> = (0..module.clbits()).map(|_| self.fresh_clbit()).collect();
        let compute_start = self.trace.len();
        for stmt in module.compute() {
            self.exec_stmt(stmt, args, &anc, &clbits, depth, oracle, &name)?;
        }
        let compute_end = self.trace.len();
        for stmt in module.store() {
            self.exec_stmt(stmt, args, &anc, &clbits, depth, oracle, &name)?;
        }
        // Nothing to reclaim in ancilla-less frames (matches the
        // compiler executor's behaviour).
        if anc.is_empty() {
            return Ok(());
        }
        if oracle.reclaim(id, depth) {
            if let Some(custom) = self.program.module(id).custom_uncompute() {
                let custom: Vec<Stmt> = custom.to_vec();
                for stmt in &custom {
                    self.exec_stmt(stmt, args, &anc, &clbits, depth, oracle, &name)?;
                }
            } else {
                let slice: Vec<TraceOp> = self.trace[compute_start..compute_end].to_vec();
                let mut next = self.next_id;
                let inv = invert_slice(&slice, || {
                    let v = VirtId(next);
                    next += 1;
                    v
                });
                self.next_id = next;
                for op in inv {
                    self.emit(op, &name)?;
                }
            }
            // The entry frame's ancilla are the program I/O register and
            // are never freed; every other frame reclaims with a |0⟩ check.
            if depth > 0 {
                for a in anc.iter().rev() {
                    self.emit(TraceOp::Free(*a), &name)?;
                }
            }
        }
        Ok(())
    }
}

/// Executes `program` on the computational-basis input `inputs`
/// (bound to the entry module's first ancilla; missing bits default to
/// 0), reclaiming frames as directed by `oracle`.
///
/// Returns the final entry-register values, the full executed trace,
/// and resource counters.
///
/// # Errors
///
/// * [`SemError::TooManyInputs`] if `inputs` exceeds the entry register.
/// * [`SemError::DirtyAncilla`] if any frame frees a non-|0⟩ qubit —
///   i.e. an uncompute block failed to undo its compute block.
pub fn run(
    program: &Program,
    inputs: &[bool],
    oracle: &mut dyn ReclaimOracle,
) -> Result<RunResult, SemError> {
    let entry = program.module(program.entry());
    if inputs.len() > entry.ancillas() {
        return Err(SemError::TooManyInputs {
            supplied: inputs.len(),
            capacity: entry.ancillas(),
        });
    }
    let mut ctx = SemCtx {
        program,
        state: BitState::new(),
        trace: Vec::new(),
        next_id: 0,
        next_clbit: 0,
        live: 0,
        peak: 0,
        gates: 0,
    };
    let name = entry.name().to_string();
    // Allocate the entry register and prepare inputs with X gates.
    let anc: Vec<VirtId> = (0..entry.ancillas())
        .map(|_| {
            let v = ctx.fresh_id();
            ctx.emit(TraceOp::Alloc(v), &name).expect("alloc");
            v
        })
        .collect();
    let clbits: Vec<ClbitId> = (0..entry.clbits()).map(|_| ctx.fresh_clbit()).collect();
    for (i, bit) in inputs.iter().enumerate() {
        if *bit {
            ctx.emit(TraceOp::Gate(Gate::X { target: anc[i] }), &name)
                .expect("prep");
        }
    }
    let compute_start = ctx.trace.len();
    for stmt in entry.compute() {
        ctx.exec_stmt(stmt, &[], &anc, &clbits, 0, oracle, &name)?;
    }
    let compute_end = ctx.trace.len();
    for stmt in entry.store() {
        ctx.exec_stmt(stmt, &[], &anc, &clbits, 0, oracle, &name)?;
    }
    if oracle.reclaim(program.entry(), 0) {
        // Same block selection as the child frames (and the compiler
        // executor): an author-supplied uncompute block wins over
        // mechanical inversion of the recorded compute slice.
        if let Some(custom) = entry.custom_uncompute() {
            let custom: Vec<Stmt> = custom.to_vec();
            for stmt in &custom {
                ctx.exec_stmt(stmt, &[], &anc, &clbits, 0, oracle, &name)?;
            }
        } else {
            let slice: Vec<TraceOp> = ctx.trace[compute_start..compute_end].to_vec();
            let mut next = ctx.next_id;
            let inv = invert_slice(&slice, || {
                let v = VirtId(next);
                next += 1;
                v
            });
            ctx.next_id = next;
            for op in inv {
                ctx.emit(op, &name)?;
            }
        }
    }
    let outputs = anc.iter().map(|v| ctx.state.get(*v)).collect();
    Ok(RunResult {
        outputs,
        peak_live: ctx.peak,
        final_live: ctx.live,
        gate_count: ctx.gates,
        trace: ctx.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    /// fun1 of Fig. 6 wrapped in a compute–store main: the entry's
    /// compute block calls fun1 writing into a scratch output, and the
    /// entry's store block copies the result to a final output qubit
    /// that survives the top-level uncompute.
    fn fig6_program() -> Program {
        let mut b = ProgramBuilder::new();
        let fun1 = b
            .module("fun1", 4, 1, |m| {
                let (i0, i1, i2, out) = (m.param(0), m.param(1), m.param(2), m.param(3));
                let a = m.ancilla(0);
                m.ccx(i0, i1, i2);
                m.cx(i2, a);
                m.ccx(i1, i0, a);
                m.store();
                m.cx(a, out);
            })
            .unwrap();
        let main = b
            .module("main", 0, 5, |m| {
                let q: Vec<_> = (0..4).map(|i| m.ancilla(i)).collect();
                let final_out = m.ancilla(4);
                m.call(fun1, &q);
                m.store();
                m.cx(q[3], final_out);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    fn fig6_reference(i0: bool, i1: bool, i2: bool) -> bool {
        // After CCX: i2' = i2 ⊕ (i0∧i1); CX(i2',a): a = i2';
        // CCX(i1,i0,a): a = i2' ⊕ (i0∧i1) = i2. Store copies a to out.
        let i2p = i2 ^ (i0 && i1);
        i2p ^ (i0 && i1)
    }

    #[test]
    fn all_policies_compute_same_outputs() {
        let p = fig6_program();
        for bits in 0..8u8 {
            let inputs: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expected = fig6_reference(inputs[0], inputs[1], inputs[2]);
            let eager = run(&p, &inputs, &mut AlwaysReclaim).unwrap();
            let lazy = run(&p, &inputs, &mut TopLevelOnly).unwrap();
            let never = run(&p, &inputs, &mut NeverReclaim).unwrap();
            assert_eq!(eager.outputs[4], expected, "eager, input {bits:03b}");
            assert_eq!(lazy.outputs[4], expected, "lazy, input {bits:03b}");
            assert_eq!(never.outputs[4], expected, "never, input {bits:03b}");
        }
    }

    #[test]
    fn eager_uses_fewer_live_qubits_than_never() {
        let p = fig6_program();
        let eager = run(&p, &[true, true, false], &mut AlwaysReclaim).unwrap();
        let never = run(&p, &[true, true, false], &mut NeverReclaim).unwrap();
        assert!(eager.final_live < never.final_live);
        // fun1's ancilla is garbage under NeverReclaim:
        assert_eq!(never.final_live, 6);
        assert_eq!(eager.final_live, 5);
    }

    #[test]
    fn lazy_top_level_sweeps_garbage() {
        let p = fig6_program();
        let lazy = run(&p, &[true, true, true], &mut TopLevelOnly).unwrap();
        // After the top-level uncompute, only the entry register lives:
        // fun1's garbage ancilla was swept by the entry's inverse slice.
        assert_eq!(lazy.final_live, 5);
        // Inputs are preserved (uncompute undoes compute, not the prep).
        assert_eq!(&lazy.outputs[..3], &[true, true, true]);
        // The scratch output q[3] is restored to |0⟩ by the uncompute.
        assert!(!lazy.outputs[3]);
    }

    #[test]
    fn eager_costs_more_gates_than_lazy_per_level() {
        // Two-level nesting: eager recomputes the child inside the
        // parent's uncompute; lazy replays everything exactly once.
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
        let p = b.finish(main).unwrap();
        let eager = run(&p, &[], &mut AlwaysReclaim).unwrap();
        let lazy = run(&p, &[], &mut TopLevelOnly).unwrap();
        assert_eq!(eager.outputs, lazy.outputs);
        assert!(eager.outputs[2], "x=1 propagates to final out");
        assert!(
            eager.gate_count > lazy.gate_count,
            "recursive recomputation: eager {} vs lazy {}",
            eager.gate_count,
            lazy.gate_count
        );
    }

    #[test]
    fn dirty_custom_uncompute_detected() {
        let mut b = ProgramBuilder::new();
        let bad = b
            .module("bad", 1, 1, |m| {
                let x = m.param(0);
                let a = m.ancilla(0);
                m.cx(x, a);
                m.store();
                m.uncompute();
                // wrong: empty uncompute block leaves `a` holding x
            })
            .unwrap();
        let main = b
            .module("main", 0, 1, |m| {
                let x = m.ancilla(0);
                m.x(x);
                m.call(bad, &[x]);
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let err = run(&p, &[], &mut AlwaysReclaim).unwrap_err();
        assert!(matches!(err, SemError::DirtyAncilla { .. }));
    }

    #[test]
    fn recorded_decisions_replay_in_order() {
        let p = fig6_program();
        // Frame order is post-order: fun1 first, entry last. Reclaim
        // fun1, skip the entry → fun1's ancilla is freed, the entry's
        // compute survives (q[3] still holds the stored value).
        let mut oracle = RecordedDecisions::new(vec![true, false]);
        let r = run(&p, &[true, true, false], &mut oracle).unwrap();
        assert!(oracle.in_sync());
        assert_eq!(oracle.consumed(), 2);
        assert_eq!(r.final_live, 5, "fun1's ancilla reclaimed");
        // Same input through the always-reclaim path for the output.
        let expected = run(&p, &[true, true, false], &mut AlwaysReclaim)
            .unwrap()
            .outputs[4];
        assert_eq!(r.outputs[4], expected);
    }

    #[test]
    fn recorded_decisions_flag_drift() {
        let p = fig6_program();
        // Too few: the run demands 2 decisions.
        let mut short = RecordedDecisions::new(vec![true]);
        run(&p, &[], &mut short).unwrap();
        assert!(short.overrun());
        assert!(!short.in_sync());
        // Too many: one left over.
        let mut long = RecordedDecisions::new(vec![true, false, true]);
        run(&p, &[], &mut long).unwrap();
        assert!(!long.overrun());
        assert_eq!(long.remaining(), 1);
        assert!(!long.in_sync());
    }

    #[test]
    fn entry_custom_uncompute_is_used() {
        // An entry whose author wrote the uncompute by hand (undo the
        // compute CX explicitly). The final X on `flag` inside the
        // custom block proves the block ran: mechanical inversion
        // would leave flag at 0.
        let mut b = ProgramBuilder::new();
        let main = b
            .module("main", 0, 3, |m| {
                let (x, t, flag) = (m.ancilla(0), m.ancilla(1), m.ancilla(2));
                m.x(x);
                m.cx(x, t);
                m.store();
                m.uncompute();
                m.cx(x, t);
                m.x(x);
                m.x(flag);
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let r = run(&p, &[], &mut AlwaysReclaim).unwrap();
        assert_eq!(r.outputs, vec![false, false, true]);
        let skipped = run(&p, &[], &mut NeverReclaim).unwrap();
        assert_eq!(skipped.outputs, vec![true, true, false]);
    }

    #[test]
    fn too_many_inputs_rejected() {
        let p = fig6_program();
        let err = run(&p, &[false; 9], &mut AlwaysReclaim).unwrap_err();
        assert!(matches!(err, SemError::TooManyInputs { .. }));
    }

    /// A child that computes into its ancilla, stores, then resets the
    /// ancilla with the source-level MBU idiom (measure + cond-X) in
    /// its compute block — mechanical inversion must replay the idiom
    /// soundly under every policy.
    fn mbu_program() -> Program {
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
        let main = b
            .module("main", 0, 2, |m| {
                let (x, out) = (m.ancilla(0), m.ancilla(1));
                m.x(x);
                m.call(child, &[x, out]);
                m.measure(x, 0);
                m.cond_x(0, x);
                m.cond_x(0, x);
                m.store();
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    #[test]
    fn measurement_feedback_runs_under_all_policies() {
        let p = mbu_program();
        for (label, oracle) in [
            ("eager", &mut AlwaysReclaim as &mut dyn ReclaimOracle),
            ("lazy", &mut TopLevelOnly),
            ("never", &mut NeverReclaim),
        ] {
            let r = run(&p, &[], oracle).unwrap();
            // The paired cond-X cancels itself, so outputs match the
            // plain child program: out = 1 under garbage policies; the
            // entry uncompute rolls everything back under reclaim.
            assert_eq!(r.outputs.len(), 2, "{label}");
            assert!(
                r.trace
                    .iter()
                    .any(|op| matches!(op, TraceOp::Measure { .. })),
                "{label}: measurement recorded in trace"
            );
        }
        // Gate counts include measure + both cond gates.
        let never = run(&p, &[], &mut NeverReclaim).unwrap();
        let counted = crate::trace::gate_count(&never.trace);
        assert_eq!(never.gate_count, counted, "counters agree with trace");
    }

    #[test]
    fn mechanical_inversion_of_measured_compute_restores_state() {
        // Under AlwaysReclaim the entry sweeps its compute slice —
        // including the measure/cond ops — and every ancilla must
        // return to |0⟩ (a DirtyAncilla error otherwise).
        let p = mbu_program();
        let eager = run(&p, &[], &mut AlwaysReclaim).unwrap();
        assert_eq!(eager.outputs, vec![false, false]);
        let lazy = run(&p, &[], &mut TopLevelOnly).unwrap();
        assert_eq!(lazy.outputs, eager.outputs);
    }

    #[test]
    fn cond_gate_before_measure_is_an_error() {
        let mut b = ProgramBuilder::new();
        let main = b
            .module("main", 0, 1, |m| {
                let x = m.ancilla(0);
                m.declare_clbits(1);
                m.cond_x(0, x);
                m.store();
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let err = run(&p, &[], &mut NeverReclaim).unwrap_err();
        assert!(matches!(
            err,
            SemError::UnmeasuredClbit {
                clbit: ClbitId(0),
                ..
            }
        ));
    }

    #[test]
    fn clbit_ids_are_fresh_per_activation() {
        // Two calls to a measuring child must not share classical bits.
        let mut b = ProgramBuilder::new();
        let child = b
            .module("child", 1, 1, |m| {
                let x = m.param(0);
                let a = m.ancilla(0);
                m.cx(x, a);
                m.measure(a, 0);
                m.cond_x(0, a);
                m.store();
            })
            .unwrap();
        let main = b
            .module("main", 0, 1, |m| {
                let x = m.ancilla(0);
                m.x(x);
                m.call(child, &[x]);
                m.call(child, &[x]);
                m.store();
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let r = run(&p, &[], &mut NeverReclaim).unwrap();
        let measured: Vec<ClbitId> = r
            .trace
            .iter()
            .filter_map(|op| match op {
                TraceOp::Measure { clbit, .. } => Some(*clbit),
                _ => None,
            })
            .collect();
        assert_eq!(measured.len(), 2);
        assert_ne!(measured[0], measured[1], "fresh clbit per activation");
    }
}
