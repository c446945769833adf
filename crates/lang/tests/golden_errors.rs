//! Golden snapshots of rendered parse/resolution diagnostics.
//!
//! Each case asserts the *exact* rendered report — file:line:column
//! anchors, caret placement, and "did you mean" hints are all part of
//! the frontend's contract (the acceptance bar for the `.sq` frontend
//! is that errors carry usable spans). If an intentional wording
//! change breaks one of these, update the expected string alongside.

use square_lang::{parse_files, parse_program, render, MapLoader};

fn report(source: &str) -> String {
    let diags = parse_program(source).expect_err("source must not parse");
    render(source, "prog.sq", &diags)
}

/// Multi-file variant: `root.sq` resolved against in-memory units,
/// diagnostics rendered through the source map so each anchors in the
/// file it came from.
fn multi_report(root: &str, files: &[(&str, &str)]) -> String {
    let mut loader = MapLoader::new();
    for (name, source) in files {
        loader.insert(*name, *source);
    }
    let (map, parsed) = parse_files("root.sq", root, &loader);
    let diags = parsed.expect_err("source must not resolve");
    map.render(&diags)
}

#[test]
fn golden_unknown_gate_with_suggestion() {
    let src = "\
entry module main(0 params, 2 ancilla) {
  compute {
    ccz a0 a1;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: unknown gate `ccz`
  --> prog.sq:3:5
   |
 3 |     ccz a0 a1;
   |     ^^^ did you mean `ccx`?
"
    );
}

#[test]
fn golden_call_arity_mismatch() {
    let src = "\
module f(2 params, 0 ancilla) {
  compute {
    cx p0 p1;
  }
}
entry module main(0 params, 3 ancilla) {
  compute {
    call f(a0, a1, a2);
  }
}
";
    assert_eq!(
        report(src),
        "\
error: call to `f` passes 3 arguments, but it declares 2 params
  --> prog.sq:8:5
   |
 8 |     call f(a0, a1, a2);
   |     ^^^^^^^^^^^^^^^^^^^
"
    );
}

#[test]
fn golden_unknown_module_with_suggestion() {
    let src = "\
module fun1(1 params, 0 ancilla) {
  compute {
    x p0;
  }
}
entry module main(0 params, 1 ancilla) {
  compute {
    call fun2(a0);
  }
}
";
    assert_eq!(
        report(src),
        "\
error: call to unknown module `fun2`
  --> prog.sq:8:10
   |
 8 |     call fun2(a0);
   |          ^^^^ did you mean `fun1`?
"
    );
}

#[test]
fn golden_duplicate_entry() {
    let src = "\
entry module a(0 params, 1 ancilla) {
  compute {
    x a0;
  }
}
entry module b(0 params, 1 ancilla) {
  compute {
    x a0;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: duplicate `entry` marker on module `b`
  --> prog.sq:6:1
   |
 6 | entry module b(0 params, 1 ancilla) {
   | ^^^^^ module `a` is already the entry
"
    );
}

#[test]
fn golden_operand_out_of_range() {
    let src = "\
entry module main(0 params, 2 ancilla) {
  compute {
    cx a0 a7;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: operand `a7` is out of range: module `main` declares 2 ancillas
  --> prog.sq:3:11
   |
 3 |     cx a0 a7;
   |           ^^
"
    );
}

#[test]
fn golden_missing_entry() {
    let src = "\
module lonely(0 params, 1 ancilla) {
  compute {
    x a0;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: no module is marked `entry`
  --> prog.sq:1:8
   |
 1 | module lonely(0 params, 1 ancilla) {
   |        ^^^^^^ mark the top-level module: `entry module …`
"
    );
}

#[test]
fn golden_multi_error_report() {
    // One parse collects every problem: an unknown gate, a bad gate
    // arity, and a missing semicolon, each with its own anchor.
    let src = "\
entry module main(0 params, 3 ancilla) {
  compute {
    nott a0;
    cx a0;
    x a1
  }
}
";
    assert_eq!(
        report(src),
        "\
error: unknown gate `nott`
  --> prog.sq:3:5
   |
 3 |     nott a0;
   |     ^^^^ did you mean `not`?

error: `cx` takes 2 operands (control, target), found 1 operand
  --> prog.sq:4:5
   |
 4 |     cx a0;
   |     ^^

error: expected `;` to end the statement, found `}`
  --> prog.sq:6:3
   |
 6 |   }
   |   ^
"
    );
}

#[test]
fn golden_missing_import() {
    let root = "\
import nowhere;
entry module main(0 params, 1 ancilla) {
  compute {
    x a0;
  }
}
";
    assert_eq!(
        multi_report(root, &[]),
        "\
error: cannot resolve import `nowhere`: no in-memory unit named `nowhere`
  --> root.sq:1:8
   |
 1 | import nowhere;
   |        ^^^^^^^
"
    );
}

#[test]
fn golden_import_cycle() {
    let root = "\
import a;
entry module main(0 params, 1 ancilla) {
  compute {
    x a0;
  }
}
";
    let a = "import b;\nmodule fa(1 params, 0 ancilla) {\n  compute {\n    x p0;\n  }\n}\n";
    let b = "import a;\nmodule fb(1 params, 0 ancilla) {\n  compute {\n    x p0;\n  }\n}\n";
    assert_eq!(
        multi_report(root, &[("a", a), ("b", b)]),
        "\
error: import cycle: a.sq → b.sq → a.sq
  --> b.sq:1:1
   |
 1 | import a;
   | ^^^^^^^^^ imports must form a DAG
"
    );
}

#[test]
fn golden_cross_file_duplicate_module() {
    // The conflict anchors on the root file (the one the user is
    // editing) and names the imported file that already owns the name.
    let root = "\
import util;
module inc(1 params, 0 ancilla) {
  compute {
    x p0;
  }
}
entry module main(0 params, 1 ancilla) {
  compute {
    call inc(a0);
  }
}
";
    let util = "module inc(1 params, 0 ancilla) {\n  compute {\n    x p0;\n  }\n}\n";
    assert_eq!(
        multi_report(root, &[("util", util)]),
        "\
error: module `inc` is already defined in util.sq
  --> root.sq:2:8
   |
 2 | module inc(1 params, 0 ancilla) {
   |        ^^^ module names are global across imported files
"
    );
}

#[test]
fn golden_entry_in_imported_file() {
    let root = "\
import dep;
entry module main(0 params, 1 ancilla) {
  compute {
    x a0;
  }
}
";
    let dep = "entry module other(0 params, 1 ancilla) {\n  compute {\n    x a0;\n  }\n}\n";
    assert_eq!(
        multi_report(root, &[("dep", dep)]),
        "\
error: imported file dep.sq declares `entry module other`
  --> dep.sq:1:1
   |
 1 | entry module other(0 params, 1 ancilla) {
   | ^^^^^ the entry module must live in the root file
"
    );
}

#[test]
fn golden_transitive_import_not_visible() {
    let root = "\
import mid;
entry module main(0 params, 1 ancilla) {
  compute {
    call deep(a0);
  }
}
";
    let mid =
        "import base;\nmodule shallow(1 params, 0 ancilla) {\n  compute {\n    call deep(p0);\n  }\n}\n";
    let base = "module deep(1 params, 0 ancilla) {\n  compute {\n    x p0;\n  }\n}\n";
    assert_eq!(
        multi_report(root, &[("mid", mid), ("base", base)]),
        "\
error: module `deep` is defined in base.sq, which root.sq does not import
  --> root.sq:4:10
   |
 4 |     call deep(a0);
   |          ^^^^ add `import base;` at the top of root.sq
"
    );
}

#[test]
fn golden_clbit_over_declared_bound() {
    // A written `N clbits` header is a declared bound; referencing a
    // higher clbit is an error at the clbit token. Dropping the header
    // re-enables on-demand growth (checked in the parser's own tests).
    let src = "\
entry module main(0 params, 1 ancilla, 1 clbits) {
  compute {
    x a0;
    measure a0 c3;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: classical bit `c3` is out of range: module `main` declares 1 clbit
  --> prog.sq:4:16
   |
 4 |     measure a0 c3;
   |                ^^ the `clbits` header is a declared bound; raise it, or drop the clause \
         to size classical storage on demand
"
    );
}

#[test]
fn golden_guarded_wide_mcx() {
    // A guarded MCX cannot lower to a call (clbits are module-local),
    // so three or more guarded controls are refused at the statement.
    let src = "\
module f(4 params, 1 ancilla, 1 clbits) {
  compute {
    cx p0 a0;
    measure a0 c0;
    cond c0 mcx p0 p1 p2 p3;
  }
}
entry module main(0 params, 4 ancilla) {
  compute {
    call f(a0, a1, a2, a3);
  }
}
";
    assert_eq!(
        report(src),
        "\
error: guarded `mcx` has 3 controls in module `f`; a guarded gate takes at most 2
  --> prog.sq:5:5
   |
 5 |     cond c0 mcx p0 p1 p2 p3;
   |     ^^^^^^^^^^^^^^^^^^^^^^^^ AND the controls into an ancilla with `mcx`, then guard \
         a `cx` on that ancilla
"
    );
}

#[test]
fn golden_store_discipline_violation() {
    // The store discipline needs every callee's may-write set, so it
    // is the one rule checked on the whole program; its diagnostic
    // anchors on the offending module's name.
    let src = "\
module bad(2 params, 1 ancilla) {
  compute {
    cx p0 a0;
    cx p0 p1;
  }
  store {
    cx a0 p1;
  }
}
entry module main(0 params, 2 ancilla) {
  compute {
    call bad(a0, a1);
  }
}
";
    assert_eq!(
        report(src),
        "\
error: store discipline violated in module `bad`: store block writes p1, which the compute block touches
  --> prog.sq:1:8
   |
 1 | module bad(2 params, 1 ancilla) {
   |        ^^^
"
    );
}

#[test]
fn golden_store_discipline_violation_through_a_call() {
    // `copy` writes only its second parameter; `bad`'s store block
    // binds that parameter to `p1`, which its compute block touched.
    let src = "\
module copy(2 params, 0 ancilla) {
  store {
    cx p0 p1;
  }
}
module bad(2 params, 1 ancilla) {
  compute {
    cx p0 a0;
    cx p0 p1;
  }
  store {
    call copy(a0, p1);
  }
}
entry module main(0 params, 2 ancilla) {
  compute {
    call bad(a0, a1);
  }
}
";
    assert_eq!(
        report(src),
        "\
error: store discipline violated in module `bad`: store block writes p1, which the compute block touches
  --> prog.sq:6:8
   |
 6 | module bad(2 params, 1 ancilla) {
   |        ^^^
"
    );
}

#[test]
fn golden_caret_alignment_with_tabs_and_wide_characters() {
    // Tab-indented source keeps its tabs in the caret pad (so the
    // carets line up in any tab rendering), and CJK identifiers count
    // as two columns wide.
    let src = "\
entry module main(1 params, 1 ancilla) {
  compute {
\t加法 a0;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: unexpected character `加`
  --> prog.sq:3:2
   |
 3 | \t加法 a0;
   | \t^^

error: unexpected character `法`
  --> prog.sq:3:3
   |
 3 | \t加法 a0;
   | \t  ^^

error: unknown gate `a0`
  --> prog.sq:3:5
   |
 3 | \t加法 a0;
   | \t     ^^
"
    );
}

#[test]
fn recovery_reports_each_problem_once() {
    // Panic-mode recovery resynchronizes on statement boundaries;
    // truncated or garbled input must not repeat the same diagnostic
    // for the same span.
    let sources = [
        // Truncated mid-module: EOF inside the compute block.
        "entry module main(0 params, 2 ancilla) {\n  compute {\n    cx a0",
        // Garbled statement soup.
        "entry module main(0 params, 2 ancilla) {\n  compute {\n    ;;; cx cx ;; a9 x\n  }\n}\n",
        // Header garbage followed by a well-formed module.
        "module (3 oops) {}\nentry module main(0 params, 1 ancilla) {\n  compute {\n    x a0;\n  }\n}\n",
    ];
    for src in sources {
        let diags = parse_program(src).expect_err("source must not parse");
        assert!(!diags.is_empty());
        let mut seen = std::collections::HashSet::new();
        for d in &diags {
            assert!(
                seen.insert((d.span.start, d.span.end, d.message.clone())),
                "duplicate diagnostic for {src:?}: {}",
                d.message
            );
        }
    }
}

#[test]
fn line_columns_survive_crlf_free_sources() {
    // The span machinery reports 1-based lines and columns.
    let src = "entry module m(0 params, 1 ancilla) {\n  compute {\n    swap a0;\n  }\n}\n";
    let diags = parse_program(src).unwrap_err();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line_col(src), (3, 5));
}

#[test]
fn golden_duplicated_gate_operand() {
    let src = "\
entry module main(0 params, 2 ancilla) {
  compute {
    cx a0 a0;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: gate uses the same qubit twice in module `main`
  --> prog.sq:3:5
   |
 3 |     cx a0 a0;
   |     ^^^^^^^^^
"
    );
}

#[test]
fn golden_aliased_call_arguments() {
    let src = "\
module f(2 params, 0 ancilla) {
  compute {
    cx p0 p1;
  }
}
entry module main(0 params, 2 ancilla) {
  compute {
    call f(a0, a0);
  }
}
";
    assert_eq!(
        report(src),
        "\
error: call to `f` passes `a0` for two different parameters
  --> prog.sq:8:5
   |
 8 |     call f(a0, a0);
   |     ^^^^^^^^^^^^^^^
"
    );
}

#[test]
fn golden_entry_declares_params() {
    let src = "\
entry module main(1 params, 1 ancilla) {
  compute {
    cx p0 a0;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: entry module `main` declares 1 params; the entry takes no caller qubits
  --> prog.sq:1:14
   |
 1 | entry module main(1 params, 1 ancilla) {
   |              ^^^^ model program inputs as entry ancilla
"
    );
}

#[test]
fn golden_callers_first_violations_in_source_order() {
    // The caller precedes its callee in the source, so the dependency
    // sort would lower `f` first; diagnostics still follow the source,
    // module by module, and within a statement operand by operand.
    let src = "\
entry module main(0 params, 2 ancilla) {
  compute {
    call f(a9, a9, a0);
    x a5;
  }
}
module f(2 params, 0 ancilla, 1 clbits) {
  compute {
    cond c2 mcx p0 p0 p1 p3;
  }
}
";
    assert_eq!(
        report(src),
        "\
error: operand `a9` is out of range: module `main` declares 2 ancillas
  --> prog.sq:3:12
   |
 3 |     call f(a9, a9, a0);
   |            ^^

error: operand `a9` is out of range: module `main` declares 2 ancillas
  --> prog.sq:3:16
   |
 3 |     call f(a9, a9, a0);
   |                ^^

error: call to `f` passes 3 arguments, but it declares 2 params
  --> prog.sq:3:5
   |
 3 |     call f(a9, a9, a0);
   |     ^^^^^^^^^^^^^^^^^^^

error: call to `f` passes `a9` for two different parameters
  --> prog.sq:3:5
   |
 3 |     call f(a9, a9, a0);
   |     ^^^^^^^^^^^^^^^^^^^

error: operand `a5` is out of range: module `main` declares 2 ancillas
  --> prog.sq:4:7
   |
 4 |     x a5;
   |       ^^

error: operand `p3` is out of range: module `f` declares 2 params
  --> prog.sq:9:26
   |
 9 |     cond c2 mcx p0 p0 p1 p3;
   |                          ^^

error: gate uses the same qubit twice in module `f`
  --> prog.sq:9:5
   |
 9 |     cond c2 mcx p0 p0 p1 p3;
   |     ^^^^^^^^^^^^^^^^^^^^^^^^

error: guarded `mcx` has 3 controls in module `f`; a guarded gate takes at most 2
  --> prog.sq:9:5
   |
 9 |     cond c2 mcx p0 p0 p1 p3;
   |     ^^^^^^^^^^^^^^^^^^^^^^^^ AND the controls into an ancilla with `mcx`, then guard \
         a `cx` on that ancilla

error: classical bit `c2` is out of range: module `f` declares 1 clbit
  --> prog.sq:9:10
   |
 9 |     cond c2 mcx p0 p0 p1 p3;
   |          ^^ the `clbits` header is a declared bound; raise it, or drop the clause \
         to size classical storage on demand
"
    );
}
