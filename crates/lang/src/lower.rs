//! Resolution and lowering: surface AST → [`square_qir::Program`].
//!
//! This is the one resolver for `.sq` programs, for one file
//! ([`lower`], behind [`crate::parse_program`]) and for many
//! ([`crate::parse_files`], which only loads). It takes the loaded
//! units, the root first, each with its file name, the name it is
//! imported as, and its direct imports, and numbers their modules
//! globally. Module names are unique across the units, and the entry
//! module lives in the root. A unit sees its own modules and those of
//! the units it imports directly: a call to a module that exists but
//! is not visible gets an "add `import …;`" hint, and an unknown name a
//! "did you mean" chosen from the visible names in module order. Every
//! root module is kept and an imported one only when a kept module
//! calls it; the rest are pruned unchecked.
//!
//! The parser already stored each statement in IR form; the one thing
//! left to map is a call's callee, an index into its module's callee
//! table, which resolution turns into a global module index here. The
//! resolver owns the parse, so once every check passes each block
//! moves into the builder rather than being copied.
//!
//! The per-module rules (operand bounds, duplicated gate operands,
//! guarded wide MCX, clbit bounds, call arity, aliased arguments, the
//! entry signature) are `square_qir::validate`'s own: each statement of
//! a kept module goes as parsed to
//! [`square_qir::validate::check_stmt`], whose signature lookup maps
//! the callee index, and every violation is anchored on the operand,
//! clbit or statement span it names, in source order. Operands keep no
//! span of their own: a statement's first violation re-lexes the
//! statement's span from the file's text, once, and the grammar fixes
//! which word each operand is.
//!
//! The dependency sort then reports call cycles and hands the builder
//! callees before callers, as [`square_qir::Program`] requires; it
//! keeps source order when the source is already dependency-ordered
//! (the canonical listing always is), so lowering a pretty-printed
//! program preserves module ids exactly — the round-trip guarantee.
//! The one whole-program rule, the store discipline, runs inside
//! [`square_qir::ProgramBuilder::finish`] and is mapped back onto the
//! offending module's span.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem;

use square_qir::validate::{self, Shape, Site};
use square_qir::{ModuleBuilder, ModuleId, Program, ProgramBuilder, QirError, Stmt};

use crate::ast::{Block, SourceModule, SourceProgram};
use crate::diag::{suggest, Diagnostic, Span};
use crate::lexer::words;

/// One parsed file of a program, as the resolver sees it.
pub(crate) struct Unit<'a> {
    /// Display name of the file, for cross-file diagnostics.
    pub file: &'a str,
    /// The name the unit is imported as (`std` for `lib/std.sq`), for
    /// "add `import …;`" hints.
    pub name: String,
    /// The file's modules; their spans are global.
    pub ast: SourceProgram,
    /// Indices (into the resolver's unit list) of the units this one
    /// imports directly.
    pub imports: Vec<usize>,
}

/// Resolves and lowers a parsed single-file program onto the IR
/// builder: the one-unit case of the resolver.
///
/// # Errors
///
/// Every resolution failure found, each with a source span; the vector
/// is non-empty on failure.
pub fn lower(ast: &SourceProgram) -> Result<Program, Vec<Diagnostic>> {
    lower_owned(ast.clone())
}

/// [`lower`] on a parse the caller hands over, so its statements move
/// into the builder instead of being copied.
pub(crate) fn lower_owned(ast: SourceProgram) -> Result<Program, Vec<Diagnostic>> {
    resolve(vec![Unit {
        file: "",
        name: String::new(),
        ast,
        imports: Vec::new(),
    }])
}

/// What the checks leave for the builder, by global module index.
struct Plan {
    /// `edges[g][c]`: the module that row `c` of `g`'s callee table
    /// resolved to.
    edges: Vec<Vec<usize>>,
    /// The kept modules, callees first.
    order: Vec<usize>,
    /// The entry module.
    entry: usize,
}

/// Resolves and lowers loaded units, the root first. Modules are
/// numbered globally, the root's first and then each unit's in order;
/// diagnostics come in stages, and a stage that finds any stops the
/// pass: an imported entry and duplicate names, then callees, then the
/// root's entry and the per-statement rules on the kept modules, then
/// call cycles, then the store discipline.
pub(crate) fn resolve(units: Vec<Unit<'_>>) -> Result<Program, Vec<Diagnostic>> {
    let Plan {
        edges,
        order,
        entry,
    } = plan(&units)?;
    let mut modules: Vec<SourceModule> = units.into_iter().flat_map(|u| u.ast.modules).collect();

    // Lower in dependency order, moving each block into the builder.
    let mut b = ProgramBuilder::new();
    let mut ids: Vec<Option<ModuleId>> = vec![None; modules.len()];
    for &g in &order {
        let m = &mut modules[g];
        let compute = mem::take(&mut m.compute);
        let store = mem::take(&mut m.store);
        let uncompute = m.uncompute.take();
        let built = b.module(m.name.clone(), m.params, m.ancillas, |mb| {
            mb.declare_clbits(m.clbits);
            let emit = |mb: &mut ModuleBuilder, block: Block| {
                for stmt in block.stmts {
                    mb.stmt(match stmt {
                        Stmt::Call { callee, args } => Stmt::Call {
                            callee: ids[edges[g][callee.index()]]
                                .expect("callees lower before callers"),
                            args,
                        },
                        other => other,
                    });
                }
            };
            emit(mb, compute);
            if !store.is_empty() {
                mb.store();
                emit(mb, store);
            }
            if let Some(unc) = uncompute {
                mb.uncompute();
                emit(mb, unc);
            }
        });
        // `check_module` ran the builder's own per-statement checker on
        // every statement, against the same shape and callee signatures.
        ids[g] = Some(built.expect("every statement passed the shared checker"));
    }
    let entry_id = ids[entry].expect("entry was lowered");
    // The store discipline, which needs every callee's may-write set,
    // is the one rule left to `finish`; it anchors on the module's name.
    b.finish(entry_id).map_err(|e| {
        let span = match &e {
            QirError::StoreDiscipline { module, .. } => modules
                .iter()
                .find(|m| m.name == *module)
                .map_or(Span::default(), |m| m.name_span),
            _ => Span::default(),
        };
        vec![Diagnostic::new(span, e.to_string())]
    })
}

/// Every check of [`resolve`] but the store discipline, in its stages.
fn plan(units: &[Unit<'_>]) -> Result<Plan, Vec<Diagnostic>> {
    let modules: Vec<&SourceModule> = units.iter().flat_map(|u| &u.ast.modules).collect();
    let unit_of: Vec<usize> = units
        .iter()
        .enumerate()
        .flat_map(|(u, unit)| std::iter::repeat_n(u, unit.ast.modules.len()))
        .collect();
    let n = modules.len();
    let nroot = units[0].ast.modules.len();
    let mut diags = Vec::new();

    // The entry module must live in the root file.
    for g in nroot..n {
        let m = modules[g];
        if let Some(es) = m.entry_span {
            diags.push(
                Diagnostic::new(
                    es,
                    format!(
                        "imported file {} declares `entry module {}`",
                        units[unit_of[g]].file, m.name
                    ),
                )
                .with_help("the entry module must live in the root file"),
            );
        }
    }
    // Module names are global across the units. Imported units
    // register first so a root-vs-import conflict anchors on the root
    // file, the one the user is editing.
    let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(n);
    for g in (nroot..n).chain(0..nroot) {
        let m = modules[g];
        match by_name.entry(m.name.as_str()) {
            Entry::Vacant(e) => {
                e.insert(g);
            }
            Entry::Occupied(e) if unit_of[*e.get()] == unit_of[g] => diags.push(Diagnostic::new(
                m.name_span,
                format!("duplicate module name `{}`", m.name),
            )),
            Entry::Occupied(e) => diags.push(
                Diagnostic::new(
                    m.name_span,
                    format!(
                        "module `{}` is already defined in {}",
                        m.name,
                        units[unit_of[*e.get()]].file
                    ),
                )
                .with_help("module names are global across imported files"),
            ),
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // A unit sees its own modules plus those of the units it imports
    // directly. `edges[g][c]` is the global index of the callee in row
    // `c` of module `g`'s callee table, so `edges[g]` is `g`'s resolved
    // calls in parse order.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut visible = vec![false; units.len()];
    let mut first = 0;
    for (u, unit) in units.iter().enumerate() {
        let scope = || std::iter::once(u).chain(unit.imports.iter().copied());
        scope().for_each(|v| visible[v] = true);
        for (g, m) in (first..).zip(&unit.ast.modules) {
            for &callee_span in &m.callees {
                let callee = unit.ast.text(callee_span);
                match by_name.get(callee) {
                    Some(&t) if visible[unit_of[t]] => edges[g].push(t),
                    Some(&t) => diags.push(
                        Diagnostic::new(
                            callee_span,
                            format!(
                                "module `{callee}` is defined in {}, which {} does not import",
                                units[unit_of[t]].file, unit.file
                            ),
                        )
                        .with_help(format!(
                            "add `import {};` at the top of {}",
                            units[unit_of[t]].name, unit.file
                        )),
                    ),
                    None => {
                        let d = Diagnostic::new(
                            callee_span,
                            format!("call to unknown module `{callee}`"),
                        );
                        let names = scope()
                            .flat_map(|v| &units[v].ast.modules)
                            .map(|m| m.name.as_str());
                        diags.push(match suggest(callee, names) {
                            Some(s) => d.with_help(format!("did you mean `{s}`?")),
                            None => d,
                        });
                    }
                }
            }
        }
        scope().for_each(|v| visible[v] = false);
        first += unit.ast.modules.len();
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // Every root module is kept (the canonical listing keeps them
    // all); an imported module is kept only when a kept module calls
    // it, so what a program imports, not what the library happens to
    // contain, determines the lowered program.
    let mut keep = vec![false; n];
    let mut queue: Vec<usize> = (0..nroot).collect();
    keep[..nroot].fill(true);
    while let Some(g) = queue.pop() {
        for &t in &edges[g] {
            if !keep[t] {
                keep[t] = true;
                queue.push(t);
            }
        }
    }
    let kept: Vec<usize> = (0..n).filter(|&g| keep[g]).collect();

    let Some(&first_kept) = kept.first() else {
        return Err(vec![Diagnostic::new(
            Span::default(),
            "empty program: expected at least one `entry module`",
        )]);
    };
    // Exactly one entry module.
    let entries: Vec<usize> = kept
        .iter()
        .copied()
        .filter(|&g| modules[g].is_entry())
        .collect();
    match entries.as_slice() {
        [] => diags.push(
            Diagnostic::new(modules[first_kept].name_span, "no module is marked `entry`")
                .with_help("mark the top-level module: `entry module …`"),
        ),
        [_one] => {}
        [first, rest @ ..] => {
            for &g in rest {
                let m = modules[g];
                diags.push(
                    Diagnostic::new(
                        m.entry_span.unwrap_or(m.name_span),
                        format!("duplicate `entry` marker on module `{}`", m.name),
                    )
                    .with_help(format!(
                        "module `{}` is already the entry",
                        modules[*first].name
                    )),
                );
            }
        }
    }
    // The shared per-statement rules, on the kept modules.
    for &g in &kept {
        let ast = &units[unit_of[g]].ast;
        check_module(ast, modules[g], &edges[g], &modules, &mut diags);
    }
    if !diags.is_empty() {
        return Err(diags);
    }

    // Dependency order, callees first; report cycles on a participating
    // module.
    let order = match dependency_order(&edges, &keep) {
        Ok(order) => order,
        Err(g) => {
            let m = modules[g];
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

    Ok(Plan {
        edges,
        order,
        entry: entries[0],
    })
}

/// Checks `m`'s entry signature and every statement with the shared
/// `square_qir::validate` rules, anchoring each violation on the
/// operand, clbit or statement span it names. `callees[c]` is the
/// global index of row `c` of `m`'s callee table (every callee
/// resolves: the caller checked them first); `ast` is `m`'s file.
fn check_module(
    ast: &SourceProgram,
    m: &SourceModule,
    callees: &[usize],
    modules: &[&SourceModule],
    diags: &mut Vec<Diagnostic>,
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
    let signature = |id: ModuleId| {
        let t = modules[callees[id.index()]];
        Some((t.name.as_str(), t.params))
    };
    for (stmt, span) in m.blocks().flat_map(|b| b.iter()) {
        // The statement's words, lexed again at its first violation.
        let mut words_of = None;
        validate::check_stmt(&shape, stmt, signature, |site, e| {
            let words = words_of.get_or_insert_with(|| words(ast.text(span), span.start));
            diags.push(anchor(stmt, span, words, site, &e));
        });
    }
}

/// The diagnostic for a violation `check_stmt` reported at `site` of
/// `stmt`, which spans `span` and whose words span `words`: anchored on
/// the qubit, clbit or statement span, with the frontend's help line
/// for the rule.
fn anchor(stmt: &Stmt, span: Span, words: &[Span], site: Site, e: &QirError) -> Diagnostic {
    // Which word a site is, as the grammar fixes it: `mnemonic ops…`,
    // `cond cK mnemonic ops…`, `measure q cK`, `call name args…`.
    let word = match (site, stmt) {
        (Site::Qubit(k), Stmt::Gate(_)) => Some(1 + k),
        (Site::Qubit(k), Stmt::CondGate { .. }) => Some(3 + k),
        (Site::Qubit(k), Stmt::Call { .. }) => Some(2 + k),
        (Site::Qubit(_), Stmt::Measure { .. }) => Some(1),
        (Site::Clbit, Stmt::Measure { .. }) => Some(2),
        (Site::Clbit, Stmt::CondGate { .. }) => Some(1),
        _ => None,
    };
    let span = word.and_then(|w| words.get(w)).copied().unwrap_or(span);
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

/// A stable topological sort of the kept modules, callees first:
/// Kahn's algorithm always takes the smallest ready index, so a source
/// that is already dependency-ordered (every canonical listing) keeps
/// its order. A kept module only calls kept modules. `Err` names a
/// module on a cycle.
fn dependency_order(edges: &[Vec<usize>], keep: &[bool]) -> Result<Vec<usize>, usize> {
    let n = edges.len();
    // A module is ready once every call edge out of it is lowered.
    let mut indegree: Vec<usize> = edges.iter().map(Vec::len).collect();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in edges.iter().enumerate() {
        if keep[caller] {
            for &callee in callees {
                callers[callee].push(caller);
            }
        }
    }
    let mut ready: std::collections::BTreeSet<usize> =
        (0..n).filter(|&i| keep[i] && indegree[i] == 0).collect();
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
    let mut unordered = keep.to_vec();
    for &i in &order {
        unordered[i] = false;
    }
    if let Some(start) = unordered.iter().position(|&u| u) {
        // Unordered modules are those whose callee-subtree contains a
        // cycle — which includes innocent callers upstream of one. To
        // anchor the diagnostic on an actual participant, walk callee
        // edges within the unordered set (every unordered module has
        // at least one unordered callee); the first revisited module
        // is on a cycle.
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
    fn violations_anchor_on_the_words_the_grammar_places_them() {
        // Each statement's span is lexed again for its operands; a
        // comment inside the statement is no word.
        let src = "module f(2 params, 0 ancilla) { compute { cx p0 p1; } }
             entry module main(0 params, 2 ancilla, 1 clbits) {
               compute {
                 cx a0 a9;
                 cond c0 ccx a0 a1 a8;
                 measure a7 c3;
                 call f(a0, // second argument:
                   a6);
                 CNOT a1 a1;
               }
             }";
        let err = lower_src(src).unwrap_err();
        let anchored: Vec<&str> = err.iter().map(|d| &src[d.span.start..d.span.end]).collect();
        assert_eq!(
            anchored,
            ["a9", "a8", "a7", "c3", "a6", "CNOT a1 a1;"],
            "{err:?}"
        );
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
