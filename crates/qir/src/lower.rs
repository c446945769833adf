//! Lowering of multi-controlled gates to the executable gate set.
//!
//! The SQUARE executor (and real NISQ/FT hardware) handles at most
//! 3-qubit primitives. A `k`-control MCX with `k ≥ 3` is lowered into a
//! *generated module* implementing the textbook clean-ancilla V-chain:
//! `k − 2` ancilla accumulate prefix ANDs of the controls in the
//! compute block, a single Toffoli writes the target in the store
//! block, and the mechanical uncompute releases the chain — `2k − 3`
//! Toffolis total.
//!
//! Lowering through a *module* (rather than inline gates) matters: the
//! chain's ancilla flow through the same Allocate/Free discipline as
//! every other ancilla in the program, so SQUARE's LAA/CER heuristics
//! manage them too. This mirrors how reversible-logic synthesis
//! generates ancilla pressure in the first place (Section II-B).

use std::collections::HashMap;

use crate::gate::Gate;
use crate::module::{Module, ModuleId, Operand, Program, Stmt};

/// Rewrites every MCX, guarded or not, into the lowered gate set: an
/// MCX with ≤ 2 controls is normalized to `X`/`Cx`/`Ccx`, and an
/// unguarded one with 3+ controls becomes a call to a generated
/// `__mcx{k}` module. A guarded MCX with 3+ controls cannot become a
/// call (classical bits are module-local); validation rejects it
/// ([`crate::QirError::GuardedWideMcx`]), and lowering leaves it as is
/// for the router to refuse. Returns a new program; the input is
/// unchanged.
///
/// The generated modules are shared across call sites (one per control
/// count, numbered in first-encounter order) and placed *first*, since
/// every caller must come after its callees (see [`Program`]); every
/// existing [`ModuleId`], the entry's included, shifts up by their
/// count.
pub fn lower_mcx(program: &Program) -> Program {
    // Phase 1: discovery. Walk statements in program order and give
    // each required chain width its module id.
    let mut generated: HashMap<usize, ModuleId> = HashMap::new();
    let mut modules: Vec<Module> = Vec::new();
    let mut any_mcx = false;
    for stmt in program.modules().iter().flat_map(Module::all_stmts) {
        match stmt {
            Stmt::Gate(Gate::Mcx { controls, .. }) => {
                any_mcx = true;
                let k = controls.len();
                if k >= 3 && !generated.contains_key(&k) {
                    generated.insert(k, ModuleId::from_index(modules.len()));
                    modules.push(build_mcx_module(k));
                }
            }
            Stmt::CondGate {
                gate: Gate::Mcx { .. },
                ..
            } => any_mcx = true,
            _ => {}
        }
    }
    if !any_mcx {
        return program.clone();
    }
    // Phase 2: rewrite every body after the generated modules, against
    // the now-read-only id map.
    let shift = modules.len();
    modules.extend(program.modules().iter().map(|module| {
        let mut m = module.clone();
        m.compute = lower_block(m.compute, &generated, shift);
        m.store = lower_block(m.store, &generated, shift);
        m.custom_uncompute = m
            .custom_uncompute
            .map(|b| lower_block(b, &generated, shift));
        m
    }));
    Program {
        modules,
        entry: ModuleId::from_index(program.entry().index() + shift),
    }
}

fn lower_block(stmts: Vec<Stmt>, generated: &HashMap<usize, ModuleId>, shift: usize) -> Vec<Stmt> {
    stmts
        .into_iter()
        .map(|stmt| match stmt {
            Stmt::Gate(Gate::Mcx { controls, target }) => match narrow(&controls, target) {
                Some(gate) => Stmt::Gate(gate),
                None => {
                    let callee = generated[&controls.len()];
                    let mut args = controls;
                    args.push(target);
                    Stmt::Call { callee, args }
                }
            },
            Stmt::CondGate {
                clbit,
                gate: Gate::Mcx { controls, target },
            } => Stmt::CondGate {
                clbit,
                gate: narrow(&controls, target).unwrap_or(Gate::Mcx { controls, target }),
            },
            Stmt::Call { callee, args } => Stmt::Call {
                callee: ModuleId::from_index(callee.index() + shift),
                args,
            },
            other => other,
        })
        .collect()
}

/// The `X`/`Cx`/`Ccx` equal to an MCX with at most two controls.
fn narrow(controls: &[Operand], target: Operand) -> Option<Gate<Operand>> {
    match *controls {
        [] => Some(Gate::X { target }),
        [control] => Some(Gate::Cx { control, target }),
        [c0, c1] => Some(Gate::Ccx { c0, c1, target }),
        _ => None,
    }
}

/// Builds `__mcx{k}`: params = k controls then the target; k − 2
/// ancilla form the prefix-AND chain.
fn build_mcx_module(k: usize) -> Module {
    debug_assert!(k >= 3);
    let controls: Vec<Operand> = (0..k).map(Operand::Param).collect();
    let target = Operand::Param(k);
    let anc: Vec<Operand> = (0..k - 2).map(Operand::Ancilla).collect();
    let mut compute = Vec::with_capacity(k - 2);
    compute.push(Stmt::Gate(Gate::Ccx {
        c0: controls[0],
        c1: controls[1],
        target: anc[0],
    }));
    for i in 1..k - 2 {
        compute.push(Stmt::Gate(Gate::Ccx {
            c0: controls[i + 1],
            c1: anc[i - 1],
            target: anc[i],
        }));
    }
    let store = vec![Stmt::Gate(Gate::Ccx {
        c0: controls[k - 1],
        c1: anc[k - 3],
        target,
    })];
    Module {
        name: format!("__mcx{k}"),
        params: k + 1,
        ancillas: k - 2,
        clbits: 0,
        compute,
        store,
        custom_uncompute: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::sem::{run, AlwaysReclaim, TopLevelOnly};
    use crate::validate::validate_program;

    fn mcx_program(k: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b
            .module("main", 0, k + 2, |m| {
                let controls: Vec<_> = (0..k).map(|i| m.ancilla(i)).collect();
                let scratch = m.ancilla(k);
                let out = m.ancilla(k + 1);
                m.mcx(&controls, scratch);
                m.store();
                m.cx(scratch, out);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    #[test]
    fn lowered_program_validates_and_matches_semantics() {
        for k in 3..=6 {
            let p = mcx_program(k);
            let lowered = lower_mcx(&p);
            validate_program(&lowered).unwrap();
            // Exhaustive over control patterns.
            for bits in 0u32..(1 << k) {
                let inputs: Vec<bool> = (0..k).map(|i| bits >> i & 1 == 1).collect();
                let expect = inputs.iter().all(|&b| b);
                let orig = run(&p, &inputs, &mut AlwaysReclaim).unwrap();
                let low = run(&lowered, &inputs, &mut AlwaysReclaim).unwrap();
                let low_lazy = run(&lowered, &inputs, &mut TopLevelOnly).unwrap();
                assert_eq!(orig.outputs[k + 1], expect, "orig k={k} bits={bits:b}");
                assert_eq!(low.outputs[k + 1], expect, "lowered k={k} bits={bits:b}");
                assert_eq!(low_lazy.outputs[k + 1], expect, "lazy k={k} bits={bits:b}");
            }
        }
    }

    #[test]
    fn lowering_shares_generated_modules() {
        let mut b = ProgramBuilder::new();
        let main = b
            .module("main", 0, 8, |m| {
                let q: Vec<_> = (0..8).map(|i| m.ancilla(i)).collect();
                m.mcx(&q[0..4], q[6]);
                m.mcx(&[q[1], q[2], q[3], q[4]], q[5]);
                m.store();
                m.cx(q[6], q[7]);
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let lowered = lower_mcx(&p);
        // One shared __mcx4 module, not two.
        assert_eq!(lowered.len(), 2);
        assert!(lowered.module_by_name("__mcx4").is_some());
    }

    #[test]
    fn small_mcx_normalized_inline() {
        let mut b = ProgramBuilder::new();
        let main = b
            .module("main", 0, 3, |m| {
                let q: Vec<_> = (0..3).map(|i| m.ancilla(i)).collect();
                m.mcx(&[], q[0]);
                m.mcx(&[q[0]], q[1]);
                m.store();
                m.mcx(&[q[0], q[1]], q[2]);
                let guarded = |controls: Vec<Operand>| Gate::Mcx {
                    controls,
                    target: q[2],
                };
                m.cond_gate(0, guarded(vec![]));
                m.cond_gate(0, guarded(vec![q[0]]));
                m.cond_gate(0, guarded(vec![q[0], q[1]]));
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let lowered = lower_mcx(&p);
        assert_eq!(lowered.len(), 1, "no generated modules");
        let m = lowered.module(lowered.entry());
        assert!(matches!(m.compute()[0], Stmt::Gate(Gate::X { .. })));
        assert!(matches!(m.compute()[1], Stmt::Gate(Gate::Cx { .. })));
        assert!(matches!(m.store()[0], Stmt::Gate(Gate::Ccx { .. })));
        let guarded: Vec<&Gate<Operand>> = m.store()[1..]
            .iter()
            .map(|s| match s {
                Stmt::CondGate { clbit: 0, gate } => gate,
                other => panic!("expected a guarded gate, got {other:?}"),
            })
            .collect();
        assert!(
            matches!(
                guarded[..],
                [Gate::X { .. }, Gate::Cx { .. }, Gate::Ccx { .. }]
            ),
            "{guarded:?}"
        );
    }
}
