//! Resolution and lowering: spanned surface AST → [`square_qir::Program`].
//!
//! Resolution binds callee names to module indices (with "did you
//! mean" hints) and orders modules topologically when the source uses
//! forward references (the canonical listing never does, so lowering
//! a pretty-printed program preserves module ids exactly — the
//! round-trip guarantee); the dependency sort reports call cycles and
//! hands the builder callees before callers, as
//! [`square_qir::Program`] requires. The per-module rules (operand
//! bounds, duplicated gate operands, guarded wide MCX, clbit bounds,
//! call arity, aliased arguments, the entry signature) are
//! `square_qir::validate`'s own: each statement is lowered with its
//! callee's source index and handed to
//! [`square_qir::validate::check_stmt`], and every violation is
//! anchored on the operand, clbit or statement span it names, in
//! source order. The one whole-program rule, the store discipline,
//! runs inside [`square_qir::ProgramBuilder::finish`] and is mapped
//! back onto the offending module's span.

use std::collections::HashMap;

use square_qir::validate::{self, Shape, Site};
use square_qir::{Gate, ModuleId, Program, ProgramBuilder, QirError, Stmt};

use crate::ast::{SourceModule, SourceOperand, SourceProgram, SourceStmt};
use crate::diag::{suggest, Diagnostic, Span};

/// Resolves and lowers a parsed program onto the IR builder.
///
/// # Errors
///
/// Every resolution failure found, each with a source span; the vector
/// is non-empty on failure.
pub fn lower(ast: &SourceProgram) -> Result<Program, Vec<Diagnostic>> {
    let mut diags = Vec::new();

    if ast.modules.is_empty() {
        diags.push(Diagnostic::new(
            Span::default(),
            "empty program: expected at least one `entry module`",
        ));
        return Err(diags);
    }

    // Exactly one entry module.
    let entries: Vec<usize> = ast
        .modules
        .iter()
        .enumerate()
        .filter(|(_, m)| m.is_entry())
        .map(|(i, _)| i)
        .collect();
    match entries.as_slice() {
        [] => diags.push(
            Diagnostic::new(ast.modules[0].name_span, "no module is marked `entry`")
                .with_help("mark the top-level module: `entry module …`"),
        ),
        [_one] => {}
        [_first, rest @ ..] => {
            for &i in rest {
                let m = &ast.modules[i];
                diags.push(
                    Diagnostic::new(
                        m.entry_span.unwrap_or(m.name_span),
                        format!("duplicate `entry` marker on module `{}`", m.name),
                    )
                    .with_help(format!(
                        "module `{}` is already the entry",
                        ast.modules[entries[0]].name
                    )),
                );
            }
        }
    }

    // Unique names; build the name → index map.
    let mut by_name: HashMap<&str, usize> = HashMap::new();
    for (i, m) in ast.modules.iter().enumerate() {
        if let Some(&first) = by_name.get(m.name.as_str()) {
            diags.push(
                Diagnostic::new(m.name_span, format!("duplicate module name `{}`", m.name))
                    .with_help(format!("first defined as module #{}", first + 1)),
            );
        } else {
            by_name.insert(m.name.as_str(), i);
        }
    }

    // Resolve call targets and run the spanned per-module checks.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ast.modules.len()];
    for (i, m) in ast.modules.iter().enumerate() {
        check_module(m, &by_name, ast, &mut diags, &mut edges[i]);
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // Dependency order: keep source order when it is already
    // topological (it always is for canonical listings); otherwise
    // sort stably, and report cycles on a participating module.
    let order = match dependency_order(ast, &edges) {
        Ok(order) => order,
        Err(cycle_idx) => {
            let m = &ast.modules[cycle_idx];
            return Err(vec![Diagnostic::new(
                m.name_span,
                format!(
                    "recursive call cycle involving module `{}` \
                     (reversible programs must form a DAG)",
                    m.name
                ),
            )]);
        }
    };

    // Lower in dependency order.
    let mut b = ProgramBuilder::new();
    let mut ids: Vec<Option<ModuleId>> = vec![None; ast.modules.len()];
    for &idx in &order {
        let m = &ast.modules[idx];
        let built = b.module(m.name.clone(), m.params, m.ancillas, |mb| {
            mb.declare_clbits(m.clbits);
            let emit = |mb: &mut square_qir::ModuleBuilder, stmts: &[SourceStmt]| {
                for stmt in stmts {
                    mb.stmt(to_stmt(stmt, |name| {
                        ids[by_name[name]].expect("callees lower before callers")
                    }));
                }
            };
            emit(mb, &m.compute);
            if !m.store.is_empty() {
                mb.store();
                emit(mb, &m.store);
            }
            if let Some(unc) = &m.uncompute {
                mb.uncompute();
                emit(mb, unc);
            }
        });
        // `check_module` ran the builder's own per-statement checker on
        // every statement, against the same shape and callee signatures.
        ids[idx] = Some(built.expect("every statement passed the shared checker"));
    }
    let entry_id = ids[entries[0]].expect("entry was lowered");
    // The store discipline, which needs every callee's may-write set,
    // is the one rule left to `finish`; it anchors on the module's name.
    b.finish(entry_id).map_err(|e| {
        let span = match &e {
            QirError::StoreDiscipline { module, .. } => {
                ast.modules[by_name[module.as_str()]].name_span
            }
            _ => Span::default(),
        };
        vec![Diagnostic::new(span, e.to_string())]
    })
}

/// Resolves `m`'s callees, pushing the dependency-sort edges onto
/// `callees`, and checks its entry signature and every statement with
/// the shared `square_qir::validate` rules, anchoring each violation on
/// the operand, clbit or statement span it names.
fn check_module(
    m: &SourceModule,
    by_name: &HashMap<&str, usize>,
    ast: &SourceProgram,
    diags: &mut Vec<Diagnostic>,
    callees: &mut Vec<usize>,
) {
    let shape = Shape {
        name: &m.name,
        params: m.params,
        ancillas: m.ancillas,
        // A written `N clbits` clause is a declared bound: statements
        // may not reach past it. An absent clause keeps on-demand
        // growth, which covers every index but the last.
        clbits: m.clbits_span.map_or(usize::MAX, |_| m.clbits),
    };
    if m.is_entry() {
        if let Err(e) = validate::check_entry(&shape) {
            diags.push(
                Diagnostic::new(m.name_span, e.to_string())
                    .with_help("model program inputs as entry ancilla"),
            );
        }
    }
    // A callee is named by its AST index; an unresolved name gets one
    // past the last, which the lookup reports as unknown.
    let signature = |id: ModuleId| {
        ast.modules
            .get(id.index())
            .map(|t| (t.name.as_str(), t.params))
    };
    for stmt in m
        .compute
        .iter()
        .chain(&m.store)
        .chain(m.uncompute.iter().flatten())
    {
        let lowered = to_stmt(stmt, |name| {
            let index = by_name.get(name).copied();
            callees.extend(index);
            ModuleId::from_index(index.unwrap_or(ast.modules.len()))
        });
        validate::check_stmt(&shape, &lowered, signature, |site, e| {
            diags.push(anchor(stmt, site, &e, by_name));
        });
    }
}

/// `stmt` as an IR statement; a call's callee is `callee(name)`.
fn to_stmt(stmt: &SourceStmt, callee: impl FnOnce(&str) -> ModuleId) -> Stmt {
    let ops = |gate: &Gate<SourceOperand>| gate.map(|so| so.op);
    match stmt {
        SourceStmt::Gate { gate, .. } => Stmt::Gate(ops(gate)),
        SourceStmt::CondGate { clbit, gate, .. } => Stmt::CondGate {
            clbit: *clbit,
            gate: ops(gate),
        },
        SourceStmt::Measure { qubit, clbit, .. } => Stmt::Measure {
            qubit: qubit.op,
            clbit: *clbit,
        },
        SourceStmt::Call {
            callee: name, args, ..
        } => Stmt::Call {
            callee: callee(name),
            args: args.iter().map(|a| a.op).collect(),
        },
    }
}

/// The diagnostic for a violation `check_stmt` reported at `site` of
/// `stmt`: anchored on the qubit, clbit or statement span, with the
/// frontend's help line for the rule, and an unknown callee resolved
/// by name with a "did you mean" hint.
fn anchor(
    stmt: &SourceStmt,
    site: Site,
    e: &QirError,
    by_name: &HashMap<&str, usize>,
) -> Diagnostic {
    if let (
        QirError::UnknownModule(_),
        SourceStmt::Call {
            callee,
            callee_span,
            ..
        },
    ) = (e, stmt)
    {
        let d = Diagnostic::new(*callee_span, format!("call to unknown module `{callee}`"));
        return match suggest(callee, by_name.keys().copied()) {
            Some(s) => d.with_help(format!("did you mean `{s}`?")),
            None => d,
        };
    }
    let span = match (site, stmt) {
        (Site::Qubit(k), SourceStmt::Gate { gate, .. } | SourceStmt::CondGate { gate, .. }) => {
            match gate {
                // Indexed in place: `qubits()` would copy a wide MCX's
                // operands once per violation.
                Gate::Mcx { controls, target } => controls.get(k).unwrap_or(target).span,
                _ => gate.qubits()[k].span,
            }
        }
        (Site::Qubit(k), SourceStmt::Call { args, .. }) => args[k].span,
        (Site::Qubit(_), SourceStmt::Measure { qubit, .. }) => qubit.span,
        (
            Site::Clbit,
            SourceStmt::Measure { clbit_span, .. } | SourceStmt::CondGate { clbit_span, .. },
        ) => *clbit_span,
        _ => stmt.span(),
    };
    let d = Diagnostic::new(span, e.to_string());
    match e {
        QirError::GuardedWideMcx { .. } => d.with_help(
            "AND the controls into an ancilla with `mcx`, then guard a `cx` on that ancilla",
        ),
        // Without a `clbits` clause only the last index is out of range.
        QirError::ClbitOutOfRange { declared, .. } if *declared < usize::MAX => d.with_help(
            "the `clbits` header is a declared bound; raise it, or drop the clause to size \
             classical storage on demand",
        ),
        _ => d,
    }
}

/// A stable topological sort, callees first: Kahn's algorithm always
/// takes the smallest ready source index, so a source that is already
/// dependency-ordered (every canonical listing) keeps its order. `Err`
/// names a module on a cycle.
fn dependency_order(ast: &SourceProgram, edges: &[Vec<usize>]) -> Result<Vec<usize>, usize> {
    let n = ast.modules.len();
    // A module is ready once every call edge out of it is lowered.
    let mut indegree: Vec<usize> = edges.iter().map(Vec::len).collect();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in edges.iter().enumerate() {
        for &callee in callees {
            callers[callee].push(caller);
        }
    }
    let mut ready: std::collections::BTreeSet<usize> =
        (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(next) = ready.pop_first() {
        order.push(next);
        for &caller in &callers[next] {
            indegree[caller] -= 1;
            if indegree[caller] == 0 {
                ready.insert(caller);
            }
        }
    }
    if order.len() < n {
        // Unordered modules are those whose callee-subtree contains a
        // cycle — which includes innocent callers upstream of one. To
        // anchor the diagnostic on an actual participant, walk callee
        // edges within the unordered set (every unordered module has
        // at least one unordered callee); the first revisited module
        // is on a cycle.
        let mut unordered = vec![true; n];
        for &i in &order {
            unordered[i] = false;
        }
        let start = unordered.iter().position(|&u| u).unwrap_or(0);
        let mut seen = vec![false; n];
        let mut cur = start;
        while !seen[cur] {
            seen[cur] = true;
            match edges[cur].iter().copied().find(|&c| unordered[c]) {
                Some(next) => cur = next,
                None => break, // defensive: cannot happen for unordered nodes
            }
        }
        return Err(cur);
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn lower_src(src: &str) -> Result<Program, Vec<Diagnostic>> {
        let (ast, diags) = parse_source(src);
        assert!(diags.is_empty(), "parse: {diags:?}");
        lower(&ast)
    }

    #[test]
    fn lowers_and_validates_a_program() {
        let p = lower_src(
            "module f(2 params, 1 ancilla) {
               compute { cx p0 a0; }
               store { cx a0 p1; }
             }
             entry module main(0 params, 2 ancilla) {
               compute { x a0; call f(a0, a1); }
             }",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.module(p.entry()).name(), "main");
        square_qir::validate::validate_program(&p).unwrap();
    }

    #[test]
    fn measurement_statements_lower_and_round_trip() {
        let p = lower_src(
            "entry module main(0 params, 1 ancilla, 2 clbits) {
               compute { x a0; measure a0 c0; cond c0 x a0; }
             }",
        )
        .unwrap();
        let m = p.module(p.entry());
        assert_eq!(m.clbits(), 2, "header reserves beyond the used bit");
        assert_eq!(m.compute().len(), 3);
        square_qir::validate::validate_program(&p).unwrap();
        // The canonical listing (which prints the clbits clause) must
        // parse back to the identical program.
        crate::check_roundtrip(&p).unwrap();
    }

    #[test]
    fn forward_references_are_topologically_sorted() {
        let p = lower_src(
            "entry module main(0 params, 2 ancilla) {
               compute { call f(a0, a1); }
             }
             module f(2 params, 0 ancilla) {
               compute { cx p0 p1; }
             }",
        )
        .unwrap();
        // `f` lowers first (id 0), entry is `main`.
        assert_eq!(p.module(ModuleId::from_index(0)).name(), "f");
        assert_eq!(p.module(p.entry()).name(), "main");
    }

    #[test]
    fn unknown_callee_suggests_a_name() {
        let err = lower_src(
            "module fun1(1 params, 0 ancilla) { compute { x p0; } }
             entry module main(0 params, 1 ancilla) {
               compute { call fun2(a0); }
             }",
        )
        .unwrap_err();
        assert!(err[0].message.contains("unknown module `fun2`"));
        assert_eq!(err[0].help.as_deref(), Some("did you mean `fun1`?"));
    }

    #[test]
    fn arity_bounds_alias_and_entry_params_all_diagnose() {
        let err = lower_src(
            "module f(2 params, 0 ancilla) { compute { cx p0 p1; } }
             entry module main(1 params, 3 ancilla) {
               compute {
                 x a7;
                 call f(a0);
                 call f(a1, a1);
               }
             }",
        )
        .unwrap_err();
        let all = err
            .iter()
            .map(|d| d.message.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(all.contains("declares 1 params"), "{all}");
        assert!(all.contains("out of range"), "{all}");
        assert!(all.contains("passes 1 argument"), "{all}");
        assert!(all.contains("for two different parameters"), "{all}");
    }

    #[test]
    fn the_last_clbit_index_is_out_of_range_without_a_clause() {
        // On-demand growth cannot cover `c{usize::MAX}`: the shared
        // checker reports it at the clbit token (no header help, as no
        // header was written) instead of the builder overflowing.
        let src = format!(
            "entry module main(0 params, 1 ancilla) {{ compute {{ measure a0 c{}; }} }}",
            usize::MAX
        );
        let err = lower_src(&src).unwrap_err();
        assert_eq!(err.len(), 1, "{err:?}");
        assert_eq!(
            err[0].message,
            format!(
                "classical bit `c{}` is out of range: module `main` has no `clbits` clause, \
                 and on-demand sizing stops at `c{}`",
                usize::MAX,
                usize::MAX - 1
            )
        );
        assert_eq!(
            &src[err[0].span.start..err[0].span.end],
            format!("c{}", usize::MAX)
        );
        assert_eq!(err[0].help, None);
    }

    #[test]
    fn cycles_are_rejected_and_name_a_participant() {
        let err = lower_src(
            "entry module main(0 params, 1 ancilla) { compute { call a(a0); } }
             module a(1 params, 0 ancilla) { compute { call b(p0); } }
             module b(1 params, 0 ancilla) { compute { call a(p0); } }",
        )
        .unwrap_err();
        assert!(err[0].message.contains("recursive call cycle"), "{err:?}");
        // `main` merely calls into the cycle; the diagnostic must name
        // an actual cycle member (`a` or `b`), not the innocent caller.
        assert!(
            err[0].message.contains("module `a`") || err[0].message.contains("module `b`"),
            "{err:?}"
        );
    }

    #[test]
    fn missing_and_duplicate_entry_diagnose() {
        let err = lower_src("module m(0 params, 1 ancilla) { compute { x a0; } }").unwrap_err();
        assert!(err[0].message.contains("no module is marked `entry`"));

        let err = lower_src(
            "entry module a(0 params, 1 ancilla) { compute { x a0; } }
             entry module b(0 params, 1 ancilla) { compute { x a0; } }",
        )
        .unwrap_err();
        assert!(err[0].message.contains("duplicate `entry`"), "{err:?}");
    }

    #[test]
    fn store_discipline_violations_map_to_the_module() {
        let err = lower_src(
            "module bad(1 params, 1 ancilla) {
               compute { cx p0 a0; }
               store { x a0; }
             }
             entry module main(0 params, 1 ancilla) {
               compute { call bad(a0); }
             }",
        )
        .unwrap_err();
        assert!(err[0].message.contains("store discipline"), "{err:?}");
    }
}
