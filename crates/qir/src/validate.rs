//! Program well-formedness checks.
//!
//! A [`Program`] lists callees before callers: a call may only target a
//! module with a smaller id, which makes the call graph a DAG without a
//! cycle search (the paper requires modular, non-recursive reversible
//! programs), and every check composes in one forward pass over the
//! modules.
//!
//! Every per-statement rule lives in [`check_stmt`], which walks a
//! statement against its module's [`Shape`] and a callee-params lookup
//! and reports each violation with its [`Site`]; [`check_entry`] is the
//! entry-signature rule. [`validate_module`] runs the checker over one
//! module as [`crate::ProgramBuilder::module`] registers it (the `.sq`
//! frontend runs it over source statements, anchoring each site on a
//! span); [`crate::ProgramBuilder::finish`] then checks the entry
//! signature and the Bennett *store discipline*. [`validate_program`]
//! replays both on a finished program.
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

/// What a statement is checked against: its module's name and declared
/// sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape<'a> {
    /// Module name, for the error text.
    pub name: &'a str,
    /// Declared parameters (`p0 …`).
    pub params: usize,
    /// Declared ancillas (`a0 …`).
    pub ancillas: usize,
    /// Declared classical bits (`c0 …`).
    pub clbits: usize,
}

impl<'a> From<&'a Module> for Shape<'a> {
    fn from(m: &'a Module) -> Self {
        Shape {
            name: &m.name,
            params: m.params,
            ancillas: m.ancillas,
            clbits: m.clbits,
        }
    }
}

/// Where in a statement a violation reported by [`check_stmt`] sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// The statement as a whole.
    Stmt,
    /// Its k-th qubit: a gate's k-th operand in [`Gate::qubits`]
    /// order, a call's k-th argument, or a
    /// measurement's qubit (k = 0).
    Qubit(usize),
    /// Its classical bit (a measurement's or a guard's).
    Clbit,
}

/// Checks one statement of the module shaped `shape`, reporting every
/// violation with its site, in order: each out-of-range qubit, then a
/// gate's duplicated operand and a guarded gate's width, or a call's
/// callee, arity and aliased arguments, then the clbit. `callee` maps a
/// call target to its name and declared parameter count, or `None`
/// when the target is unknown; an unknown callee ends the statement's
/// checks.
pub fn check_stmt<'c>(
    shape: &Shape<'_>,
    stmt: &Stmt,
    callee: impl Fn(ModuleId) -> Option<(&'c str, usize)>,
    mut report: impl FnMut(Site, QirError),
) {
    let module = || shape.name.to_string();
    let mut check_qubit = |k: usize, &operand: &Operand| {
        let (i, declared) = match operand {
            Operand::Param(i) => (i, shape.params),
            Operand::Ancilla(i) => (i, shape.ancillas),
        };
        if i >= declared {
            let e = QirError::OperandOutOfRange {
                module: module(),
                operand,
                declared,
            };
            report(Site::Qubit(k), e);
        }
    };
    let clbit = match stmt {
        Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => {
            // A gate of up to `FEW` qubits collects them on the stack.
            let mut few = [Operand::Param(0); FEW];
            let many;
            let qubits: &[Operand] = if g.arity() <= few.len() {
                let mut n = 0;
                g.for_each_qubit(|&q| {
                    few[n] = q;
                    n += 1;
                });
                &few[..n]
            } else {
                many = g.qubits();
                &many
            };
            for (k, q) in qubits.iter().enumerate() {
                check_qubit(k, q);
            }
            if first_repeat(qubits).is_some() {
                report(Site::Stmt, QirError::DuplicatedQubit { module: module() });
            }
            let Stmt::CondGate { clbit, .. } = stmt else {
                return;
            };
            if let Gate::Mcx { controls, .. } = g {
                if controls.len() >= 3 {
                    let controls = controls.len();
                    let module = module();
                    report(Site::Stmt, QirError::GuardedWideMcx { module, controls });
                }
            }
            *clbit
        }
        Stmt::Measure { qubit, clbit } => {
            check_qubit(0, qubit);
            *clbit
        }
        Stmt::Call { callee: id, args } => {
            for (k, a) in args.iter().enumerate() {
                check_qubit(k, a);
            }
            let Some((name, params)) = callee(*id) else {
                return report(Site::Stmt, QirError::UnknownModule(*id));
            };
            if params != args.len() {
                let e = QirError::ArityMismatch {
                    caller: module(),
                    callee: name.to_string(),
                    expected: params,
                    found: args.len(),
                };
                report(Site::Stmt, e);
            }
            if let Some(operand) = first_repeat(args) {
                let e = QirError::AliasedArguments {
                    caller: module(),
                    callee: name.to_string(),
                    operand,
                };
                report(Site::Stmt, e);
            }
            return;
        }
    };
    if clbit >= shape.clbits {
        let e = QirError::ClbitOutOfRange {
            module: module(),
            clbit,
            declared: shape.clbits,
        };
        report(Site::Clbit, e);
    }
}

/// The entry-signature rule: the entry module takes no caller qubits.
///
/// # Errors
///
/// [`QirError::EntryHasParams`] when `entry` declares parameters.
pub fn check_entry(entry: &Shape<'_>) -> Result<(), QirError> {
    match entry.params {
        0 => Ok(()),
        params => Err(QirError::EntryHasParams {
            module: entry.name.to_string(),
            params,
        }),
    }
}

/// Operand lists up to this long (every gate but a wide `mcx`, most
/// calls) are scanned pairwise, on the stack.
const FEW: usize = 8;

/// The earliest item of `items` that occurs again later in it (a
/// gate's duplicated operand, a call's aliased argument), in time
/// linear in `items.len()`.
fn first_repeat(items: &[Operand]) -> Option<Operand> {
    // For a few items, comparing each with the ones after it is
    // quicker than hashing and allocates nothing.
    if items.len() <= FEW {
        return (0..items.len())
            .find(|&i| items[i + 1..].contains(&items[i]))
            .map(|i| items[i]);
    }
    // Scanning from the end, the last item already seen is the earliest
    // one that repeats.
    let mut later = HashSet::with_capacity(items.len());
    items
        .iter()
        .rev()
        .filter(|&&a| !later.insert(a))
        .last()
        .copied()
}

/// Validates a single module against the modules registered before it:
/// [`check_stmt`] over every statement, in block order.
///
/// # Errors
///
/// The first violation [`check_stmt`] reports; a call to a module
/// outside `existing` (itself or one registered later) is an unknown
/// callee. The entry signature and the store discipline are checked
/// once the program is complete (see [`validate_program`]).
pub fn validate_module(module: &Module, existing: &[Module]) -> Result<(), QirError> {
    let shape = Shape::from(module);
    let callee = |id: ModuleId| {
        existing
            .get(id.index())
            .map(|m| (m.name.as_str(), m.params))
    };
    for stmt in module.all_stmts() {
        let mut first = None;
        check_stmt(&shape, stmt, callee, |_, e| {
            first.get_or_insert(e);
        });
        if let Some(e) = first {
            return Err(e);
        }
    }
    Ok(())
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
    check_entry(&Shape::from(entry_module))?;
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
    // The store block's writes, in order; most modules have none.
    let mut writes = Vec::new();
    for stmt in &module.store {
        for_each_write(stmt, may_write, |w| writes.push(w));
    }
    if writes.is_empty() {
        return Ok(());
    }
    // Which of them the compute block touches (reads or writes).
    let mut written = writes.clone();
    written.sort_unstable();
    written.dedup();
    let mut touched = vec![false; written.len()];
    let mut touch = |q: &Operand| {
        if let Ok(i) = written.binary_search(q) {
            touched[i] = true;
        }
    };
    for stmt in &module.compute {
        match stmt {
            Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => g.for_each_qubit(&mut touch),
            Stmt::Call { args, .. } => args.iter().for_each(&mut touch),
            Stmt::Measure { qubit, .. } => touch(qubit),
        }
    }
    let detail = writes.iter().find_map(|&w| {
        // The entry module's ancilla are the program I/O register
        // (never freed), so storing into its own compute-untouched
        // ancilla is the normal way to produce final outputs.
        if let (Operand::Ancilla(i), false) = (w, is_entry) {
            Some(format!("store block writes own ancilla a{i}"))
        } else if written.binary_search(&w).is_ok_and(|i| touched[i]) {
            Some(format!(
                "store block writes {w}, which the compute block touches"
            ))
        } else {
            None
        }
    });
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

    /// The store check sees every way a compute statement touches a
    /// qubit (gate operand, call argument, measured qubit) and reports
    /// the first store write, in block order, that it touched.
    #[test]
    fn store_check_reports_the_first_touched_write() {
        use crate::module::{Module, ModuleId, Operand, Stmt};
        use crate::Gate;
        let p = Operand::Param;
        let x = |q| Stmt::Gate(Gate::X { target: q });
        let empty = |name: &str, params| Module {
            name: name.into(),
            params,
            ancillas: 0,
            clbits: 0,
            compute: vec![],
            store: vec![],
            custom_uncompute: None,
        };
        let module = |store: Vec<Stmt>| Module {
            name: "m".into(),
            params: 5,
            ancillas: 0,
            clbits: 1,
            compute: vec![
                Stmt::Measure {
                    qubit: p(0),
                    clbit: 0,
                },
                Stmt::Call {
                    callee: ModuleId::from_index(0),
                    args: vec![p(1)],
                },
                x(p(2)),
            ],
            store,
            custom_uncompute: None,
        };
        let detail = |store| {
            let modules = [empty("leaf", 1), module(store), empty("main", 0)];
            match super::validate_finish(&modules, ModuleId::from_index(2)) {
                Err(QirError::StoreDiscipline { detail, .. }) => Some(detail),
                Ok(()) => None,
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(detail(vec![x(p(3)), x(p(4))]), None);
        for (touched, name) in [(0, "p0"), (1, "p1"), (2, "p2")] {
            let got = detail(vec![x(p(3)), x(p(touched)), x(p(2))]);
            let want = format!("store block writes {name}, which the compute block touches");
            assert_eq!(got, Some(want));
        }
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
    fn check_stmt_reports_every_violation_at_its_site() {
        use super::{check_stmt, Shape, Site};
        use crate::gate::Gate;
        use crate::module::{ModuleId, Operand, Stmt};
        use Operand::{Ancilla as A, Param as P};
        let shape = Shape {
            name: "m",
            params: 2,
            ancillas: 1,
            clbits: 1,
        };
        let sites = |stmt: Stmt| {
            let mut out = Vec::new();
            let signature = |id: ModuleId| (id.index() == 0).then_some(("f", 2));
            check_stmt(&shape, &stmt, signature, |site, e| out.push((site, e)));
            out.into_iter().map(|(site, _)| site).collect::<Vec<_>>()
        };
        let guarded = Stmt::CondGate {
            clbit: 2,
            gate: Gate::Mcx {
                controls: vec![P(0), P(0), P(1)],
                target: P(3),
            },
        };
        assert_eq!(
            sites(guarded),
            [Site::Qubit(3), Site::Stmt, Site::Stmt, Site::Clbit]
        );
        let call = |callee| Stmt::Call {
            callee: ModuleId::from_index(callee),
            args: vec![A(9), A(9), A(0)],
        };
        // Both out-of-range arguments, the arity, then the alias.
        assert_eq!(
            sites(call(0)),
            [Site::Qubit(0), Site::Qubit(1), Site::Stmt, Site::Stmt]
        );
        // An unknown callee ends the statement's checks.
        assert_eq!(sites(call(1)), [Site::Qubit(0), Site::Qubit(1), Site::Stmt]);
        let measure = Stmt::Measure {
            qubit: A(0),
            clbit: 0,
        };
        assert_eq!(sites(measure), []);
    }

    #[test]
    fn repeat_scan_names_the_earliest_repeated_operand_at_any_length() {
        use super::first_repeat;
        use crate::module::Operand;
        // `FEW` and `FEW + 1` straddle the pairwise scan's limit.
        for n in [4, super::FEW, super::FEW + 1, 40, 100_000] {
            let mut args: Vec<Operand> = (0..n).map(Operand::Ancilla).collect();
            assert_eq!(first_repeat(&args), None, "{n}");
            // `a2` repeats before `a1` does, but `a1` comes first.
            args[n - 2] = args[2];
            args[n - 1] = args[1];
            assert_eq!(first_repeat(&args), Some(Operand::Ancilla(1)), "{n}");
        }
        let (p3, a3) = (Operand::Param(3), Operand::Ancilla(3));
        assert_eq!(first_repeat(&[p3, p3]), Some(p3));
        assert_eq!(first_repeat(&[p3, a3]), None);
    }

    #[test]
    fn a_module_reports_its_first_violation_in_statement_order() {
        let mut b = ProgramBuilder::new();
        let leaf = b
            .module("leaf", 2, 0, |m| {
                let (p, q) = (m.param(0), m.param(1));
                m.cx(p, q);
            })
            .unwrap();
        // A handle no statement uses is harmless.
        let unused = b.module("unused", 1, 1, |m| {
            let _ = m.param(7);
            let _ = m.ancilla(7);
        });
        assert!(unused.is_ok());
        let err = b.module("caller", 0, 2, |m| {
            let (x, y) = (m.ancilla(0), m.ancilla(1));
            m.cx(x, x);
            m.call(leaf, &[y, y, y]);
        });
        assert_eq!(
            err,
            Err(QirError::DuplicatedQubit {
                module: "caller".into()
            })
        );
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
