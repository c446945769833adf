//! Program well-formedness checks.
//!
//! Two layers: per-module checks (operand ranges, gate well-formedness,
//! call arity — run at build time) and whole-program checks (call-graph
//! acyclicity, entry signature, and the Bennett *store discipline*).
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
use crate::module::{Module, Operand, Program, Stmt};

/// Validates a single module against the modules registered before it.
///
/// # Errors
///
/// Returns operand-range, arity, duplicate-operand, guarded-wide-MCX
/// or unknown-callee errors. Call-graph and store-discipline checks
/// happen in [`validate_program`].
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

/// Validates the whole program: entry signature, call-graph acyclicity,
/// per-module checks, and the store discipline.
///
/// # Errors
///
/// Returns the first violation found; see [`QirError`].
pub fn validate_program(program: &Program) -> Result<(), QirError> {
    let entry = program.module(program.entry());
    if entry.params != 0 {
        return Err(QirError::EntryHasParams {
            module: entry.name.clone(),
        });
    }
    for m in &program.modules {
        // Re-run per-module checks treating every module as visible
        // (ids may point anywhere as long as the graph is acyclic).
        validate_module(m, &program.modules)?;
    }
    check_acyclic(program)?;
    let may_write = compute_may_write_sets(program);
    for (i, m) in program.modules.iter().enumerate() {
        let is_entry = i == program.entry().index();
        check_store_discipline(m, &may_write, is_entry)?;
    }
    Ok(())
}

fn check_acyclic(program: &Program) -> Result<(), QirError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let n = program.modules.len();
    let mut color = vec![Color::White; n];
    // Iterative DFS to avoid stack overflow on deep call graphs.
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Grey;
        while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
            let callees: Vec<usize> = program.modules[node]
                .all_stmts()
                .filter_map(|s| match s {
                    Stmt::Call { callee, .. } => Some(callee.index()),
                    _ => None,
                })
                .collect();
            if *edge < callees.len() {
                let next = callees[*edge];
                *edge += 1;
                match color[next] {
                    Color::Grey => {
                        return Err(QirError::RecursiveCall {
                            module: program.modules[next].name.clone(),
                        });
                    }
                    Color::White => {
                        color[next] = Color::Grey;
                        stack.push((next, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// For each module, the set of *parameter indices* it may write
/// (directly or through calls), considering compute and store blocks.
fn compute_may_write_sets(program: &Program) -> Vec<HashSet<usize>> {
    let n = program.modules.len();
    let mut sets: Vec<Option<HashSet<usize>>> = vec![None; n];
    for i in 0..n {
        may_write_of(program, i, &mut sets);
    }
    sets.into_iter().map(|s| s.unwrap_or_default()).collect()
}

fn may_write_of(
    program: &Program,
    idx: usize,
    memo: &mut Vec<Option<HashSet<usize>>>,
) -> HashSet<usize> {
    if let Some(s) = &memo[idx] {
        return s.clone();
    }
    // Mark in-progress with an empty set; cycles are rejected separately
    // by `check_acyclic`, so this is only a guard against runaway
    // recursion on malformed inputs.
    memo[idx] = Some(HashSet::new());
    let module = &program.modules[idx];
    let mut out = HashSet::new();
    for stmt in module.all_stmts() {
        for op in stmt_written_operands(program, stmt, memo) {
            if let Operand::Param(p) = op {
                out.insert(p);
            }
        }
    }
    memo[idx] = Some(out.clone());
    out
}

/// Operands (caller frame) that a statement may write.
fn stmt_written_operands(
    program: &Program,
    stmt: &Stmt,
    memo: &mut Vec<Option<HashSet<usize>>>,
) -> Vec<Operand> {
    match stmt {
        Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => g.written_qubits(),
        Stmt::Call { callee, args } => {
            let w = may_write_of(program, callee.index(), memo);
            w.into_iter().filter_map(|p| args.get(p).copied()).collect()
        }
        // Measurement is non-destructive in the basis-state model: it
        // reads the qubit and writes only the classical bit.
        Stmt::Measure { .. } => Vec::new(),
    }
}

fn check_store_discipline(
    module: &Module,
    may_write: &[HashSet<usize>],
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
    // May-write set of each store statement.
    for stmt in &module.store {
        let written: Vec<Operand> = match stmt {
            Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => g.written_qubits(),
            Stmt::Call { callee, args } => may_write[callee.index()]
                .iter()
                .filter_map(|p| args.get(*p).copied())
                .collect(),
            Stmt::Measure { .. } => Vec::new(),
        };
        for w in written {
            // The entry module's ancilla are the program I/O register
            // (never freed), so storing into its own compute-untouched
            // ancilla is the normal way to produce final outputs.
            if let Operand::Ancilla(i) = w {
                if !is_entry {
                    return Err(QirError::StoreDiscipline {
                        module: module.name.clone(),
                        detail: format!("store block writes own ancilla a{i}"),
                    });
                }
            }
            if touched.contains(&w) {
                return Err(QirError::StoreDiscipline {
                    module: module.name.clone(),
                    detail: format!("store block writes {w}, which the compute block touches"),
                });
            }
        }
    }
    Ok(())
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
        let r = b.module("bad", 2, 1, |m| {
            let (x, out) = (m.param(0), m.param(1));
            let a = m.ancilla(0);
            m.cx(x, a);
            m.cx(x, out); // compute touches `out`
            m.store();
            m.cx(a, out); // store writes `out` => diverging inverse
        });
        let id = r.unwrap(); // per-module checks pass
        let err = {
            let mut b2 = ProgramBuilder::new();
            // rebuild under a main that wraps it
            let bad = b2
                .module("bad", 2, 1, |m| {
                    let (x, out) = (m.param(0), m.param(1));
                    let a = m.ancilla(0);
                    m.cx(x, a);
                    m.cx(x, out);
                    m.store();
                    m.cx(a, out);
                })
                .unwrap();
            let main = b2
                .module("main", 0, 2, |m| {
                    let (x, out) = (m.ancilla(0), m.ancilla(1));
                    m.call(bad, &[x, out]);
                })
                .unwrap();
            b2.finish(main).unwrap_err()
        };
        assert!(matches!(err, QirError::StoreDiscipline { .. }));
        let _ = id;
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
