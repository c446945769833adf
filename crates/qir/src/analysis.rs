//! Static program analysis: flattened gate counts, ancilla footprints,
//! and call-graph shape.
//!
//! The CER heuristic (Eq. 2 of the paper) needs `G_p`, an estimate of
//! the gates remaining between a reclamation point and the parent's
//! uncompute block. These per-module *forward* costs (compute + store,
//! calls fully expanded, no uncomputation) provide that estimate; the
//! paper computes the same quantity from its instrumented LLVM IR.
//!
//! Every figure composes bottom-up over the call DAG, and a
//! [`Program`] lists callees before callers, so one forward pass over
//! the modules computes them all.

use std::collections::HashSet;

use crate::gate::Gate;
use crate::module::{ModuleId, Operand, Program, Stmt};
use crate::trace::{TraceOp, VirtId};

/// Flattened static costs of one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleStats {
    /// Primitive gates in the compute block, calls fully expanded
    /// (forward execution only — no uncompute blocks).
    pub gates_compute: u64,
    /// Primitive gates in the store block, calls fully expanded.
    pub gates_store: u64,
    /// Total ancilla allocations across a full forward execution
    /// (own + every callee's, counted per call site).
    pub ancilla_transitive: u64,
    /// Maximum call-nesting depth below this module (leaf = 0), over
    /// every block: the call frames one execution of the module nests
    /// below its own.
    pub height: usize,
    /// Worst-case simultaneous open-frame ancilla width of one call:
    /// the module's own ancillas plus the deepest single call chain
    /// below it, over every block (frames stack along one path at a
    /// time). This is the eager-reclamation width floor, and under
    /// `budget:N` the entry's value is the stack headroom the
    /// anticipatory pressure clamp keeps clear of garbage. Unlike
    /// `ancilla_transitive` (the machine-sizing hint, which counts
    /// *total* forward allocations), it does not grow with call count.
    pub stack_need: usize,
}

impl ModuleStats {
    /// Forward gate cost of one full execution of the module.
    pub fn gates_forward(&self) -> u64 {
        self.gates_compute + self.gates_store
    }
}

/// Per-program analysis results, indexed by [`ModuleId`].
#[derive(Debug, Clone)]
pub struct ProgramStats {
    modules: Vec<ModuleStats>,
}

impl ProgramStats {
    /// Analyzes `program` in one forward pass over its modules (linear
    /// in program size): each callee's stats are final before any
    /// caller reads them.
    pub fn analyze(program: &Program) -> Self {
        let mut this = ProgramStats {
            modules: Vec::with_capacity(program.len()),
        };
        for module in program.modules() {
            let mut stats = ModuleStats {
                ancilla_transitive: module.ancillas() as u64,
                ..ModuleStats::default()
            };
            let block_cost = |stmts: &[Stmt], stats: &mut ModuleStats| -> u64 {
                let mut gates = 0;
                for stmt in stmts {
                    if let Stmt::Call { callee, .. } = stmt {
                        let sub = &this.modules[callee.index()];
                        stats.ancilla_transitive = stats
                            .ancilla_transitive
                            .saturating_add(sub.ancilla_transitive);
                    }
                    gates += this.stmt_forward_gates(stmt);
                }
                gates
            };
            stats.gates_compute = block_cost(module.compute(), &mut stats);
            stats.gates_store = block_cost(module.store(), &mut stats);
            let mut deepest = 0;
            for stmt in module.all_stmts() {
                if let Stmt::Call { callee, .. } = stmt {
                    let sub = &this.modules[callee.index()];
                    deepest = deepest.max(sub.stack_need);
                    stats.height = stats.height.max(sub.height + 1);
                }
            }
            stats.stack_need = module.ancillas().saturating_add(deepest);
            this.modules.push(stats);
        }
        this
    }

    /// Stats for one module.
    pub fn module(&self, id: ModuleId) -> &ModuleStats {
        &self.modules[id.index()]
    }

    /// Forward gate cost of a single statement (1 per primitive gate;
    /// multi-controlled gates and calls expand).
    pub fn stmt_forward_gates(&self, stmt: &Stmt) -> u64 {
        match stmt {
            Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => primitive_count(g),
            Stmt::Call { callee, .. } => self.modules[callee.index()].gates_forward(),
            Stmt::Measure { .. } => 1,
        }
    }
}

/// Primitive gate count of a single IR gate: standard gates count 1;
/// a k-control MCX (k ≥ 3) expands to `2k − 3` Toffolis.
pub fn primitive_count(gate: &Gate<Operand>) -> u64 {
    match gate {
        Gate::Mcx { controls, .. } if controls.len() >= 3 => 2 * controls.len() as u64 - 3,
        _ => 1,
    }
}

/// Measurement-based-uncompute eligibility report for one frame's
/// compute slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MbuPlan {
    /// Frame ancillas the slice actually writes, in first-write order.
    /// Each needs one measurement plus one conditional correction; any
    /// remaining frame ancillas are still |0⟩ and are simply freed.
    pub written: Vec<VirtId>,
    /// Price of the unitary inverse: the [`Gate::duration`] sum of the
    /// slice's gates (the inverse replays the same gates), plus 1 per
    /// `Measure` and per `CondGate` event from already-lowered child
    /// frames.
    pub unitary_cost: u64,
}

impl MbuPlan {
    /// Price of measure-and-correct: one measurement plus one guarded X
    /// per written ancilla, each costing 1 like the events counted in
    /// [`MbuPlan::unitary_cost`]. MBU pays off when this is strictly
    /// smaller.
    pub fn mbu_cost(&self) -> u64 {
        2 * self.written.len() as u64
    }
}

/// Scans a frame's recorded compute slice for measurement-based
/// uncomputation (MBU) eligibility.
///
/// MBU replaces the mechanical inverse of the compute block with one
/// measurement and one classically controlled NOT per written ancilla.
/// That is only sound (the physical analog: the X-basis measurement's
/// phase fix-up is classically computable) when the ancillas were
/// built by classical-logic gates, so the scan demands:
///
/// - every gate *write* in the slice targets a frame ancilla or an
///   interior allocation — never a parameter or other external qubit;
/// - writes to frame ancillas use the Toffoli class only (X / CNOT /
///   Toffoli; SWAP and un-lowered k ≥ 3 MCX disqualify);
/// - every interior allocation is freed within the slice (a child that
///   left garbage needs the unitary sweep — MBU cannot reset qubits it
///   would strand live).
///
/// Measurements read only; classically controlled gates are classified
/// by their inner gate — so a child frame that itself reclaimed via
/// MBU leaves a slice that stays eligible (MBU composes up the call
/// tree).
///
/// Returns `None` when ineligible. The caller decides *whether* to use
/// the plan by comparing [`MbuPlan::mbu_cost`] with
/// [`MbuPlan::unitary_cost`]; this scan only answers whether MBU would
/// be correct.
pub fn scan_mbu_slice(
    slice: &[TraceOp],
    mut is_frame_ancilla: impl FnMut(VirtId) -> bool,
) -> Option<MbuPlan> {
    let mut interior: HashSet<VirtId> = HashSet::new();
    let mut open: HashSet<VirtId> = HashSet::new();
    let mut written: Vec<VirtId> = Vec::new();
    let mut unitary_cost = 0u64;
    let mut note_writes =
        |gate: &Gate<VirtId>, interior: &HashSet<VirtId>, written: &mut Vec<VirtId>| -> bool {
            for w in gate.written_qubits() {
                if interior.contains(&w) {
                    continue;
                }
                if !is_frame_ancilla(w) || !toffoli_class(gate) {
                    return false;
                }
                if !written.contains(&w) {
                    written.push(w);
                }
            }
            true
        };
    for op in slice {
        match op {
            TraceOp::Alloc(q) => {
                interior.insert(*q);
                open.insert(*q);
            }
            TraceOp::Free(q) => {
                if !open.remove(q) {
                    // Frees a qubit the slice did not allocate: the
                    // slice is not a self-contained compute block.
                    return None;
                }
            }
            TraceOp::Gate(g) => {
                unitary_cost += g.duration();
                if !note_writes(g, &interior, &mut written) {
                    return None;
                }
            }
            TraceOp::Measure { .. } => unitary_cost += 1,
            TraceOp::CondGate { gate, .. } => {
                unitary_cost += 1;
                if !note_writes(gate, &interior, &mut written) {
                    return None;
                }
            }
        }
    }
    if !open.is_empty() {
        // A child frame left garbage alive: only unitary inversion can
        // sweep it.
        return None;
    }
    Some(MbuPlan {
        written,
        unitary_cost,
    })
}

/// True for gates whose action is classical logic with a classically
/// computable measurement fix-up: X, CNOT, Toffoli (and MCX up to two
/// controls, which is the same set).
fn toffoli_class(gate: &Gate<VirtId>) -> bool {
    match gate {
        Gate::X { .. } | Gate::Cx { .. } | Gate::Ccx { .. } => true,
        Gate::Swap { .. } => false,
        Gate::Mcx { controls, .. } => controls.len() <= 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn two_level_program() -> (Program, ModuleId, ModuleId) {
        let mut b = ProgramBuilder::new();
        let leaf = b
            .module("leaf", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let a = m.ancilla(0);
                m.cx(x, a);
                m.ccx(x, a, out); // compute touches out? it's fine: store empty
            })
            .unwrap();
        let main = b
            .module("main", 0, 2, |m| {
                let (x, out) = (m.ancilla(0), m.ancilla(1));
                m.x(x);
                m.call(leaf, &[x, out]);
                m.call(leaf, &[x, out]);
            })
            .unwrap();
        (b.finish(main).unwrap(), leaf, main)
    }

    #[test]
    fn counts_flatten_calls() {
        let (p, leaf, main) = two_level_program();
        let stats = ProgramStats::analyze(&p);
        assert_eq!(stats.module(leaf).gates_forward(), 2);
        // main: 1 X + 2 calls × 2 gates
        assert_eq!(stats.module(main).gates_forward(), 5);
        assert_eq!(stats.module(main).ancilla_transitive, 2 + 2);
        assert_eq!(stats.module(main).height, 1);
        assert_eq!(stats.module(leaf).height, 0);
    }

    #[test]
    fn ancilla_transitive_saturates() {
        // Four calls to a 2^62-ancilla callee sum past `u64::MAX`; a
        // wrapped sum would size a tiny machine for a huge program.
        let mut b = ProgramBuilder::new();
        let big = b
            .module("big", 1, 1 << 62, |m| {
                let (p, a) = (m.param(0), m.ancilla(0));
                m.cx(p, a);
            })
            .unwrap();
        let main = b
            .module("main", 0, 1, |m| {
                let x = m.ancilla(0);
                for _ in 0..4 {
                    m.call(big, &[x]);
                }
            })
            .unwrap();
        let stats = ProgramStats::analyze(&b.finish(main).unwrap());
        assert_eq!(stats.module(main).ancilla_transitive, u64::MAX);
    }

    #[test]
    fn stmt_cost_of_call_is_callee_forward() {
        let (p, leaf, main) = two_level_program();
        let stats = ProgramStats::analyze(&p);
        let call = p.module(main).compute().get(1).unwrap();
        assert_eq!(stats.stmt_forward_gates(call), 2);
        let _ = leaf;
    }

    #[test]
    fn mbu_scan_accepts_toffoli_built_slice() {
        use crate::trace::{ClbitId, TraceOp, VirtId};
        // Frame ancillas a4, a5; param p0 read-only; interior i9
        // allocated and freed inside the slice.
        let anc = |q: VirtId| q == VirtId(4) || q == VirtId(5);
        let slice = vec![
            TraceOp::Gate(Gate::Cx {
                control: VirtId(0),
                target: VirtId(4),
            }),
            TraceOp::Alloc(VirtId(9)),
            TraceOp::Gate(Gate::Ccx {
                c0: VirtId(0),
                c1: VirtId(4),
                target: VirtId(9),
            }),
            // Interior qubits may be written by any class (here SWAP)
            // and carry child MBU events without disqualifying.
            TraceOp::Measure {
                qubit: VirtId(9),
                clbit: ClbitId(0),
            },
            TraceOp::CondGate {
                clbit: ClbitId(0),
                gate: Gate::X { target: VirtId(9) },
            },
            TraceOp::Free(VirtId(9)),
            TraceOp::Gate(Gate::Ccx {
                c0: VirtId(0),
                c1: VirtId(4),
                target: VirtId(5),
            }),
        ];
        let plan = scan_mbu_slice(&slice, anc).expect("eligible");
        assert_eq!(plan.written, vec![VirtId(4), VirtId(5)]);
        // CX 1 + CCX 6 + measure 1 + guarded X 1 + CCX 6.
        assert_eq!(plan.unitary_cost, 1 + 6 + 1 + 1 + 6);
        assert_eq!(plan.mbu_cost(), 4);
    }

    #[test]
    fn mbu_scan_rejects_swaps_external_writes_and_garbage() {
        use crate::trace::{TraceOp, VirtId};
        let anc = |q: VirtId| q == VirtId(4);
        // SWAP writes a frame ancilla: wrong gate class.
        let swapped = vec![TraceOp::Gate(Gate::Swap {
            a: VirtId(4),
            b: VirtId(0),
        })];
        assert_eq!(scan_mbu_slice(&swapped, anc), None);
        // Write to a parameter (not ancilla, not interior).
        let external = vec![TraceOp::Gate(Gate::Cx {
            control: VirtId(4),
            target: VirtId(0),
        })];
        assert_eq!(scan_mbu_slice(&external, anc), None);
        // Interior allocation never freed: a garbage child frame.
        let garbage = vec![
            TraceOp::Alloc(VirtId(9)),
            TraceOp::Gate(Gate::Cx {
                control: VirtId(0),
                target: VirtId(9),
            }),
        ];
        assert_eq!(scan_mbu_slice(&garbage, anc), None);
        // An untouched-ancilla slice is eligible with nothing to fix.
        let silent = vec![TraceOp::Gate(Gate::X { target: VirtId(4) })];
        let plan = scan_mbu_slice(&silent, anc).expect("eligible");
        assert_eq!(plan.written, vec![VirtId(4)]);
        assert_eq!(plan.unitary_cost, 1);
        // A one-gate inverse beats measure-and-correct: MBU is not a
        // free lunch.
        assert!(plan.unitary_cost < plan.mbu_cost());
    }

    #[test]
    fn mcx_counts_as_vchain() {
        use crate::gate::Gate;
        use crate::module::Operand;
        let g = Gate::Mcx {
            controls: vec![
                Operand::Param(0),
                Operand::Param(1),
                Operand::Param(2),
                Operand::Param(3),
                Operand::Param(4),
            ],
            target: Operand::Param(5),
        };
        assert_eq!(primitive_count(&g), 7);
    }
}
