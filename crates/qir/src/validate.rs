//! Program well-formedness checks.
//!
//! A [`Program`] lists callees before callers: a call may only target a
//! module with a smaller id, which makes the call graph a DAG without a
//! cycle search (the paper requires modular, non-recursive reversible
//! programs), and every check composes in one forward pass over the
//! modules. [`validate_module`] checks one module against the modules
//! before it (operand ranges, gate well-formedness, call targets and
//! arity) as [`crate::ProgramBuilder::module`] registers it;
//! [`crate::ProgramBuilder::finish`] then checks the entry signature and
//! the Bennett *store discipline*. [`validate_program`] replays both on
//! a finished program.
//!
//! ## Store discipline
//!
//! A module executes as `compute ; store ; compute⁻¹` when it reclaims
//! its ancilla. The mechanical inverse restores every qubit the compute
//! block touched **provided the store block did not modify any qubit
//! the compute block touches**: an op replayed in `compute⁻¹` reads its
//! control qubits, and a store-block write to one of them would make
//! the inverse diverge, leaving ancilla dirty. We therefore require:
//!
//! 1. the *may-write set* of the store block is disjoint from the
//!    *touch set* of the compute block, and
//! 2. the store block does not write the module's own ancilla (they
//!    must be |0⟩ after uncomputation).
//!
//! For calls, the may-write set is computed transitively: a call may
//! write precisely the arguments bound to parameters in the callee's
//! transitive may-write set; it touches all its arguments.

use std::collections::HashSet;

use crate::error::QirError;
use crate::gate::Gate;
use crate::module::{Module, ModuleId, Operand, Program, Stmt};

/// Validates a single module against the modules registered before it.
///
/// # Errors
///
/// Returns operand-range, arity, duplicate-operand, guarded-wide-MCX
/// or unknown-callee errors; a call to a module outside `existing`
/// (itself or one registered later) is an unknown callee. The entry
/// signature and the store discipline are checked once the program is
/// complete (see [`validate_program`]).
pub fn validate_module(module: &Module, existing: &[Module]) -> Result<(), QirError> {
    let check_operand = |op: &Operand| -> Result<(), QirError> {
        let ok = match op {
            Operand::Param(i) => *i < module.params,
            Operand::Ancilla(i) => *i < module.ancillas,
        };
        if ok {
            Ok(())
        } else {
            Err(QirError::OperandOutOfRange {
                module: module.name.clone(),
                operand: op.to_string(),
            })
        }
    };
    for stmt in module.all_stmts() {
        match stmt {
            Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => {
                if let Stmt::CondGate { clbit, .. } = stmt {
                    check_clbit(module, *clbit)?;
                    if let Gate::Mcx { controls, .. } = g {
                        if controls.len() >= 3 {
                            return Err(QirError::GuardedWideMcx {
                                module: module.name.clone(),
                                controls: controls.len(),
                            });
                        }
                    }
                }
                let mut first_err = None;
                g.for_each_qubit(|q| {
                    if first_err.is_none() {
                        first_err = check_operand(q).err();
                    }
                });
                if let Some(e) = first_err {
                    return Err(e);
                }
                if g.has_duplicate_operand() {
                    return Err(QirError::DuplicatedQubit {
                        module: module.name.clone(),
                    });
                }
            }
            Stmt::Call { callee, args } => {
                for a in args {
                    check_operand(a)?;
                }
                let target = existing
                    .get(callee.index())
                    .ok_or(QirError::UnknownModule(*callee))?;
                if target.params != args.len() {
                    return Err(QirError::ArityMismatch {
                        caller: module.name.clone(),
                        callee: target.name.clone(),
                        expected: target.params,
                        found: args.len(),
                    });
                }
                for (i, a) in args.iter().enumerate() {
                    if args[i + 1..].contains(a) {
                        return Err(QirError::AliasedArguments {
                            caller: module.name.clone(),
                            callee: target.name.clone(),
                        });
                    }
                }
            }
            Stmt::Measure { qubit, clbit } => {
                check_operand(qubit)?;
                check_clbit(module, *clbit)?;
            }
        }
    }
    Ok(())
}

fn check_clbit(module: &Module, clbit: usize) -> Result<(), QirError> {
    if clbit < module.clbits {
        Ok(())
    } else {
        Err(QirError::ClbitOutOfRange {
            module: module.name.clone(),
            clbit,
            declared: module.clbits,
        })
    }
}

/// Validates a finished program: the per-module checks, each module
/// against the modules before it, then the entry signature and the
/// store discipline, exactly as [`crate::ProgramBuilder`] ran them.
///
/// # Errors
///
/// Returns the first violation found; see [`QirError`].
pub fn validate_program(program: &Program) -> Result<(), QirError> {
    for (i, m) in program.modules.iter().enumerate() {
        validate_module(m, &program.modules[..i])?;
    }
    validate_finish(&program.modules, program.entry)
}

/// The whole-program checks of [`crate::ProgramBuilder::finish`] on
/// modules that each passed [`validate_module`]: the entry signature,
/// then the store discipline in one forward pass. Every callee precedes
/// its caller, so its may-write set is complete when a call reads it.
pub(crate) fn validate_finish(modules: &[Module], entry: ModuleId) -> Result<(), QirError> {
    let entry_module = modules
        .get(entry.index())
        .ok_or(QirError::UnknownModule(entry))?;
    if entry_module.params != 0 {
        return Err(QirError::EntryHasParams {
            module: entry_module.name.clone(),
        });
    }
    // `may_write[i]`: the parameters module `i` may write, directly or
    // through calls, in any of its blocks (sorted, without repeats).
    let mut may_write: Vec<Vec<usize>> = Vec::with_capacity(modules.len());
    for (i, module) in modules.iter().enumerate() {
        check_store_discipline(module, &may_write, i == entry.index())?;
        let mut writes = Vec::new();
        for stmt in module.all_stmts() {
            for_each_write(stmt, &may_write, |w| {
                if let Operand::Param(p) = w {
                    writes.push(p);
                }
            });
        }
        writes.sort_unstable();
        writes.dedup();
        may_write.push(writes);
    }
    Ok(())
}

/// Visits the caller-frame operands `stmt` may write: a gate's targets,
/// and for a call the arguments bound to parameters the callee may
/// write. A measurement writes only its classical bit.
fn for_each_write(stmt: &Stmt, may_write: &[Vec<usize>], mut f: impl FnMut(Operand)) {
    match stmt {
        Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => g.for_each_write(|q| f(*q)),
        Stmt::Call { callee, args } => {
            for &p in &may_write[callee.index()] {
                f(args[p]);
            }
        }
        Stmt::Measure { .. } => {}
    }
}

fn check_store_discipline(
    module: &Module,
    may_write: &[Vec<usize>],
    is_entry: bool,
) -> Result<(), QirError> {
    // Touch set of the compute block (everything any compute statement
    // can read or write).
    let mut touched: HashSet<Operand> = HashSet::new();
    for stmt in &module.compute {
        match stmt {
            Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => g.for_each_qubit(|q| {
                touched.insert(*q);
            }),
            Stmt::Call { args, .. } => touched.extend(args.iter().copied()),
            Stmt::Measure { qubit, .. } => {
                touched.insert(*qubit);
            }
        }
    }
    let mut detail = None;
    for stmt in &module.store {
        for_each_write(stmt, may_write, |w| {
            if detail.is_some() {
                return;
            }
            // The entry module's ancilla are the program I/O register
            // (never freed), so storing into its own compute-untouched
            // ancilla is the normal way to produce final outputs.
            if let (Operand::Ancilla(i), false) = (w, is_entry) {
                detail = Some(format!("store block writes own ancilla a{i}"));
            } else if touched.contains(&w) {
                detail = Some(format!(
                    "store block writes {w}, which the compute block touches"
                ));
            }
        });
    }
    match detail {
        Some(detail) => Err(QirError::StoreDiscipline {
            module: module.name.clone(),
            detail,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::error::QirError;

    #[test]
    fn accepts_disciplined_store() {
        let mut b = ProgramBuilder::new();
        let f = b
            .module("f", 2, 1, |m| {
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
                m.call(f, &[x, out]);
            })
            .unwrap();
        assert!(b.finish(main).is_ok());
    }

    #[test]
    fn rejects_store_writing_computed_qubit() {
        let mut b = ProgramBuilder::new();
        // Per-module checks pass; the violation needs the store check.
        let bad = b
            .module("bad", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let a = m.ancilla(0);
                m.cx(x, a);
                m.cx(x, out); // compute touches `out`
                m.store();
                m.cx(a, out); // store writes `out` => diverging inverse
            })
            .unwrap();
        let main = b
            .module("main", 0, 2, |m| {
                let (x, out) = (m.ancilla(0), m.ancilla(1));
                m.call(bad, &[x, out]);
            })
            .unwrap();
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, QirError::StoreDiscipline { .. }));
    }

    #[test]
    fn rejects_store_writing_ancilla() {
        let mut b = ProgramBuilder::new();
        let bad = b
            .module("bad", 1, 1, |m| {
                let x = m.param(0);
                let a = m.ancilla(0);
                let _ = x;
                m.store();
                m.x(a);
            })
            .unwrap();
        let main = b
            .module("main", 0, 1, |m| {
                let x = m.ancilla(0);
                m.call(bad, &[x]);
            })
            .unwrap();
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, QirError::StoreDiscipline { .. }));
    }

    #[test]
    fn transitive_store_write_through_call_is_checked() {
        let mut b = ProgramBuilder::new();
        // copy(src, dst): writes dst only.
        let copy = b
            .module("copy", 2, 0, |m| {
                let (src, dst) = (m.param(0), m.param(1));
                m.store();
                m.cx(src, dst);
            })
            .unwrap();
        // ok: store-calls copy writing an untouched param.
        let ok = b
            .module("ok", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let a = m.ancilla(0);
                m.cx(x, a);
                m.store();
                m.call(copy, &[a, out]);
            })
            .unwrap();
        let main = b
            .module("main", 0, 2, |m| {
                let (x, out) = (m.ancilla(0), m.ancilla(1));
                m.call(ok, &[x, out]);
            })
            .unwrap();
        assert!(b.finish(main).is_ok());

        // bad: store-calls copy writing a qubit compute touched.
        let mut b = ProgramBuilder::new();
        let copy = b
            .module("copy", 2, 0, |m| {
                let (src, dst) = (m.param(0), m.param(1));
                m.store();
                m.cx(src, dst);
            })
            .unwrap();
        let bad = b
            .module("bad", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let a = m.ancilla(0);
                m.cx(x, a);
                m.cx(x, out);
                m.store();
                m.call(copy, &[a, out]);
            })
            .unwrap();
        let main = b
            .module("main", 0, 2, |m| {
                let (x, out) = (m.ancilla(0), m.ancilla(1));
                m.call(bad, &[x, out]);
            })
            .unwrap();
        let err = b.finish(main).unwrap_err();
        assert!(matches!(err, QirError::StoreDiscipline { .. }));
    }

    #[test]
    fn store_violation_names_the_lowest_written_parameter() {
        // `w2` writes both of its targets; the error must not depend on
        // set iteration order.
        let mut b = ProgramBuilder::new();
        let w2 = b
            .module("w2", 3, 0, |m| {
                let (c, t0, t1) = (m.param(0), m.param(1), m.param(2));
                m.cx(c, t1);
                m.cx(c, t0);
            })
            .unwrap();
        let bad = b
            .module("bad", 3, 0, |m| {
                let q = [m.param(0), m.param(1), m.param(2)];
                m.x(q[2]);
                m.x(q[1]);
                m.store();
                m.call(w2, &q);
            })
            .unwrap();
        let main = b
            .module("main", 0, 3, |m| {
                let q = [m.ancilla(0), m.ancilla(1), m.ancilla(2)];
                m.call(bad, &q);
            })
            .unwrap();
        assert_eq!(
            b.finish(main).unwrap_err(),
            QirError::StoreDiscipline {
                module: "bad".into(),
                detail: "store block writes p1, which the compute block touches".into(),
            }
        );
    }

    #[test]
    fn rejects_out_of_range_clbit() {
        use crate::module::{Module, Operand, Stmt};
        let module = Module {
            name: "bad".into(),
            params: 0,
            ancillas: 1,
            clbits: 1,
            compute: vec![Stmt::Measure {
                qubit: Operand::Ancilla(0),
                clbit: 3,
            }],
            store: vec![],
            custom_uncompute: None,
        };
        let err = super::validate_module(&module, &[]).unwrap_err();
        assert!(matches!(
            err,
            QirError::ClbitOutOfRange {
                clbit: 3,
                declared: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_calls_that_do_not_target_an_earlier_module() {
        use crate::module::{Module, ModuleId, Operand, Program, Stmt};
        let module = |name: &str, params: usize, callee: usize| Module {
            name: name.into(),
            params,
            ancillas: 1,
            clbits: 0,
            compute: vec![Stmt::Call {
                callee: ModuleId::from_index(callee),
                args: vec![Operand::Ancilla(0)],
            }],
            store: vec![],
            custom_uncompute: None,
        };
        let leaf = Module {
            compute: vec![],
            ..module("leaf", 1, 0)
        };
        // A self-call, and a call to a module listed after the caller:
        // both would be cycles or forward edges in the call graph.
        let recursive = Program {
            modules: vec![leaf.clone(), module("main", 0, 1)],
            entry: ModuleId::from_index(1),
        };
        let forward = Program {
            modules: vec![module("main", 0, 1), leaf],
            entry: ModuleId::from_index(0),
        };
        for program in [recursive, forward] {
            assert_eq!(
                super::validate_program(&program),
                Err(QirError::UnknownModule(ModuleId::from_index(1)))
            );
        }
    }

    #[test]
    fn rejects_entry_with_params() {
        let mut b = ProgramBuilder::new();
        let f = b
            .module("f", 1, 0, |m| {
                let x = m.param(0);
                m.x(x);
            })
            .unwrap();
        let err = b.finish(f).unwrap_err();
        assert!(matches!(err, QirError::EntryHasParams { .. }));
    }
}
