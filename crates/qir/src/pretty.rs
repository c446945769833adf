//! Human-readable rendering of programs.
//!
//! [`program_listing`] emits the canonical `.sq` surface syntax of the
//! `square-lang` frontend — the Fig. 6-style module listings of the
//! paper, made machine-parseable. The rendering is *lossless*: for any
//! valid [`Program`] `p`, parsing the listing back reproduces `p`
//! structurally (`square_lang::parse_program(&program_listing(&p)) ==
//! Ok(p)`), which the frontend's round-trip tests and the pipeline
//! fuzzer enforce. Losslessness requires three things the historical
//! renderer got wrong: the entry module is marked deterministically
//! (`entry module …`), an *empty* explicit uncompute block prints as
//! `uncompute {}` (it means "do nothing", which is different from the
//! absent block's "mechanically invert compute"), and every statement
//! is terminated so the grammar needs no newline sensitivity.

use std::fmt::Write as _;

use crate::gate::Gate;
use crate::module::{ModuleId, Operand, Program, Stmt};

/// The canonical lowercase `.sq` mnemonic for a gate kind.
pub fn gate_mnemonic<Q>(gate: &Gate<Q>) -> &'static str {
    match gate {
        Gate::X { .. } => "x",
        Gate::Cx { .. } => "cx",
        Gate::Ccx { .. } => "ccx",
        Gate::Swap { .. } => "swap",
        Gate::Mcx { .. } => "mcx",
    }
}

/// Renders one statement in `.sq` surface syntax, without indentation
/// or the trailing `;` (`ccx p0 p1 a0`, `call fun1(a0, p1)`).
pub fn stmt_listing(stmt: &Stmt, program: &Program) -> String {
    let mut out = String::new();
    match stmt {
        Stmt::Gate(g) => out.push_str(&gate_stmt_listing(g)),
        Stmt::Call { callee, args } => {
            let name = program.module(*callee).name();
            let args: Vec<String> = args.iter().map(Operand::to_string).collect();
            let _ = write!(out, "call {name}({})", args.join(", "));
        }
        Stmt::Measure { qubit, clbit } => {
            let _ = write!(out, "measure {qubit} c{clbit}");
        }
        Stmt::CondGate { clbit, gate } => {
            let _ = write!(out, "cond c{clbit} {}", gate_stmt_listing(gate));
        }
    }
    out
}

fn gate_stmt_listing(gate: &Gate<Operand>) -> String {
    let mut out = String::from(gate_mnemonic(gate));
    gate.for_each_qubit(|q| {
        let _ = write!(out, " {q}");
    });
    out
}

/// Renders a program as canonical `.sq` source: per-module
/// compute/store/uncompute sections in the spirit of the paper's
/// Fig. 6 sample code, parseable by the `square-lang` frontend.
///
/// Empty compute and store blocks are omitted (absence means empty);
/// an explicit uncompute block is always printed — `uncompute {}`
/// when empty — because its *presence* is semantically meaningful.
pub fn program_listing(program: &Program) -> String {
    let mut out = String::new();
    for (i, m) in program.modules().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let marker = if ModuleId::from_index(i) == program.entry() {
            "entry "
        } else {
            ""
        };
        // The clbits clause is printed only when present so programs
        // without measurement render byte-identically to before the
        // clause existed.
        let clbits = if m.clbits() > 0 {
            format!(", {} clbits", m.clbits())
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{marker}module {}({} params, {} ancilla{clbits}) {{",
            m.name(),
            m.params(),
            m.ancillas(),
        );
        let block = |out: &mut String, label: &str, stmts: &[Stmt]| {
            if stmts.is_empty() {
                let _ = writeln!(out, "  {label} {{}}");
                return;
            }
            let _ = writeln!(out, "  {label} {{");
            for s in stmts {
                let _ = writeln!(out, "    {};", stmt_listing(s, program));
            }
            let _ = writeln!(out, "  }}");
        };
        if !m.compute().is_empty() {
            block(&mut out, "compute", m.compute());
        }
        if !m.store().is_empty() {
            block(&mut out, "store", m.store());
        }
        if let Some(u) = m.custom_uncompute() {
            block(&mut out, "uncompute", u);
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn listing_contains_sections_and_calls() {
        let mut b = ProgramBuilder::new();
        let f = b
            .module("f", 1, 1, |m| {
                let (x, a) = (m.param(0), m.ancilla(0));
                m.cx(x, a);
            })
            .unwrap();
        let main = b
            .module("main", 0, 1, |m| {
                let x = m.ancilla(0);
                m.x(x);
                m.call(f, &[x]);
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let listing = program_listing(&p);
        assert!(listing.contains("module f(1 params, 1 ancilla) {"));
        assert!(listing.contains("call f(a0);"));
        assert!(listing.contains("entry module main(0 params, 1 ancilla) {"));
    }

    #[test]
    fn empty_custom_uncompute_is_rendered() {
        // `Some([])` (explicitly do nothing) must stay distinguishable
        // from `None` (mechanically invert compute) in the listing.
        let mut b = ProgramBuilder::new();
        let id = b
            .module("noop_unc", 0, 2, |m| {
                let (a, out) = (m.ancilla(0), m.ancilla(1));
                m.x(a);
                m.store();
                m.cx(a, out);
                m.uncompute();
            })
            .unwrap();
        let p = b.finish(id).unwrap();
        let listing = program_listing(&p);
        assert!(listing.contains("uncompute {}"), "{listing}");
    }

    #[test]
    fn measurement_statements_render_with_clbit_clause() {
        let mut b = ProgramBuilder::new();
        let id = b
            .module("mbu", 0, 1, |m| {
                let a = m.ancilla(0);
                m.x(a);
                m.measure(a, 0);
                m.cond_x(0, a);
            })
            .unwrap();
        let p = b.finish(id).unwrap();
        let listing = program_listing(&p);
        assert!(
            listing.contains("entry module mbu(0 params, 1 ancilla, 1 clbits) {"),
            "{listing}"
        );
        assert!(listing.contains("measure a0 c0;"), "{listing}");
        assert!(listing.contains("cond c0 x a0;"), "{listing}");
    }

    #[test]
    fn mnemonics_are_lowercase_sq_names() {
        use crate::gate::Gate;
        assert_eq!(gate_mnemonic(&Gate::X { target: 0u32 }), "x");
        assert_eq!(
            gate_mnemonic(&Gate::Mcx {
                controls: vec![0u32],
                target: 1
            }),
            "mcx"
        );
    }
}
