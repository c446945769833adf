//! Resolution and lowering: spanned surface AST → [`square_qir::Program`].
//!
//! Resolution binds callee names to module indices (with "did you
//! mean" hints), orders modules topologically when the source uses
//! forward references (the canonical listing never does, so lowering
//! a pretty-printed program preserves module ids exactly — the
//! round-trip guarantee), and re-states every `square_qir::validate`
//! per-module rule *with source spans*: operand bounds, call arity,
//! aliased arguments, duplicated gate operands, the entry signature,
//! and call cycles (reported by the dependency sort). The dependency
//! sort also hands the builder callees before callers, as
//! [`square_qir::Program`] requires. The one whole-program rule, the
//! store discipline, runs inside [`square_qir::ProgramBuilder::finish`]
//! and is mapped back onto the offending module's span.

use std::collections::HashMap;

use square_qir::{Gate, ModuleId, Operand, Program, ProgramBuilder, QirError};

use crate::ast::{SourceModule, SourceProgram, SourceStmt};
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
            let emit = |mb: &mut square_qir::ModuleBuilder<'_>, stmts: &[SourceStmt]| {
                for stmt in stmts {
                    match stmt {
                        SourceStmt::Gate { gate, .. } => mb.gate(gate.map(|so| so.op)),
                        SourceStmt::Call { callee, args, .. } => {
                            let callee_id = ids[by_name[callee.as_str()]]
                                .expect("callees lower before callers");
                            let args: Vec<Operand> = args.iter().map(|a| a.op).collect();
                            mb.call(callee_id, &args);
                        }
                        SourceStmt::Measure { qubit, clbit, .. } => mb.measure(qubit.op, *clbit),
                        SourceStmt::CondGate { clbit, gate, .. } => {
                            mb.cond_gate(*clbit, gate.map(|so| so.op));
                        }
                    }
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
        match built {
            Ok(id) => ids[idx] = Some(id),
            // Defensive: the spanned pre-checks mirror the builder's
            // rules, so this only fires if the two drift.
            Err(e) => return Err(vec![qir_error_diag(&e, ast)]),
        }
    }
    let entry_id = ids[entries[0]].expect("entry was lowered");
    b.finish(entry_id)
        .map_err(|e| vec![qir_error_diag(&e, ast)])
}

/// Spanned re-statement of `square_qir::validate`'s per-module rules.
fn check_module(
    m: &SourceModule,
    by_name: &HashMap<&str, usize>,
    ast: &SourceProgram,
    diags: &mut Vec<Diagnostic>,
    callees: &mut Vec<usize>,
) {
    if m.is_entry() && m.params != 0 {
        diags.push(
            Diagnostic::new(
                m.name_span,
                format!(
                    "entry module `{}` declares {} params; the entry takes no caller qubits",
                    m.name, m.params
                ),
            )
            .with_help("model program inputs as entry ancilla"),
        );
    }
    // A written `N clbits` clause is a declared bound: statements may
    // not reach past it. An absent clause keeps on-demand growth.
    let check_clbit = |clbit: usize, clbit_span: Span, diags: &mut Vec<Diagnostic>| {
        if m.clbits_span.is_some() && clbit >= m.clbits {
            diags.push(
                Diagnostic::new(
                    clbit_span,
                    format!(
                        "classical bit `c{clbit}` is out of range: module `{}` declares {} clbit{}",
                        m.name,
                        m.clbits,
                        if m.clbits == 1 { "" } else { "s" }
                    ),
                )
                .with_help(
                    "the `clbits` header is a declared bound; raise it, or drop the \
                     clause to size classical storage on demand",
                ),
            );
        }
    };
    let check_operand = |so: &crate::ast::SourceOperand, diags: &mut Vec<Diagnostic>| {
        let (ok, what, declared) = match so.op {
            Operand::Param(i) => (i < m.params, "param", m.params),
            Operand::Ancilla(i) => (i < m.ancillas, "ancilla", m.ancillas),
        };
        if !ok {
            diags.push(Diagnostic::new(
                so.span,
                format!(
                    "operand `{}` is out of range: module `{}` declares {declared} {what}{}",
                    so.op,
                    m.name,
                    if declared == 1 { "" } else { "s" }
                ),
            ));
        }
    };
    for stmt in m
        .compute
        .iter()
        .chain(&m.store)
        .chain(m.uncompute.iter().flatten())
    {
        match stmt {
            SourceStmt::Gate { gate, span } | SourceStmt::CondGate { gate, span, .. } => {
                gate.for_each_qubit(|so| check_operand(so, diags));
                if gate.map(|so| so.op).has_duplicate_operand() {
                    diags.push(Diagnostic::new(
                        *span,
                        format!("gate uses the same qubit twice in module `{}`", m.name),
                    ));
                }
                if let SourceStmt::CondGate {
                    gate: Gate::Mcx { controls, .. },
                    ..
                } = stmt
                {
                    if controls.len() >= 3 {
                        diags.push(
                            Diagnostic::new(
                                *span,
                                format!(
                                    "guarded `mcx` has {} controls in module `{}`; a guarded \
                                     gate takes at most 2",
                                    controls.len(),
                                    m.name
                                ),
                            )
                            .with_help(
                                "AND the controls into an ancilla with `mcx`, then guard a `cx` \
                                 on that ancilla",
                            ),
                        );
                    }
                }
            }
            SourceStmt::Measure { qubit, .. } => check_operand(qubit, diags),
            SourceStmt::Call {
                callee,
                callee_span,
                args,
                span,
            } => {
                for a in args {
                    check_operand(a, diags);
                }
                let Some(&target_idx) = by_name.get(callee.as_str()) else {
                    let mut d =
                        Diagnostic::new(*callee_span, format!("call to unknown module `{callee}`"));
                    if let Some(s) = suggest(callee, by_name.keys().copied()) {
                        d = d.with_help(format!("did you mean `{s}`?"));
                    }
                    diags.push(d);
                    continue;
                };
                callees.push(target_idx);
                let target = &ast.modules[target_idx];
                if target.params != args.len() {
                    diags.push(Diagnostic::new(
                        *span,
                        format!(
                            "call to `{callee}` passes {} argument{}, but it declares {} param{}",
                            args.len(),
                            if args.len() == 1 { "" } else { "s" },
                            target.params,
                            if target.params == 1 { "" } else { "s" },
                        ),
                    ));
                }
                for (i, a) in args.iter().enumerate() {
                    if args[i + 1..].iter().any(|b| b.op == a.op) {
                        diags.push(Diagnostic::new(
                            *span,
                            format!(
                                "call to `{callee}` passes `{}` for two different parameters",
                                a.op
                            ),
                        ));
                        break;
                    }
                }
            }
        }
        match stmt {
            SourceStmt::Measure {
                clbit, clbit_span, ..
            }
            | SourceStmt::CondGate {
                clbit, clbit_span, ..
            } => check_clbit(*clbit, *clbit_span, diags),
            _ => {}
        }
    }
}

/// Source order when it is already dependency-ordered; otherwise a
/// stable topological sort (smallest source index first). `Err` names
/// a module on a cycle.
fn dependency_order(ast: &SourceProgram, edges: &[Vec<usize>]) -> Result<Vec<usize>, usize> {
    let n = ast.modules.len();
    if edges
        .iter()
        .enumerate()
        .all(|(i, callees)| callees.iter().all(|&c| c < i))
    {
        return Ok((0..n).collect());
    }
    // Kahn's algorithm over caller→callee edges reversed (callees
    // first), always picking the smallest ready source index.
    let mut indegree = vec![0usize; n]; // number of unlowered callees
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in edges.iter().enumerate() {
        let mut uniq = callees.clone();
        uniq.sort_unstable();
        uniq.dedup();
        for &callee in &uniq {
            indegree[caller] += 1;
            callers[callee].push(caller);
        }
    }
    let mut ready: std::collections::BTreeSet<usize> =
        (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&next) = ready.iter().next() {
        ready.remove(&next);
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
        let unordered: Vec<bool> = (0..n).map(|i| !order.contains(&i)).collect();
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

/// Maps a residual builder/validator error onto the offending module's
/// name span (the spanned pre-checks make this a rare fallback, e.g.
/// store-discipline violations that need the whole call graph).
fn qir_error_diag(e: &QirError, ast: &SourceProgram) -> Diagnostic {
    let named = |name: &str| {
        ast.modules
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.name_span)
            .unwrap_or_default()
    };
    let span = match e {
        QirError::OperandOutOfRange { module, .. }
        | QirError::DuplicatedQubit { module }
        | QirError::StoreDiscipline { module, .. }
        | QirError::EntryHasParams { module } => named(module),
        QirError::ArityMismatch { caller, .. } | QirError::AliasedArguments { caller, .. } => {
            named(caller)
        }
        _ => Span::default(),
    };
    Diagnostic::new(span, e.to_string())
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
