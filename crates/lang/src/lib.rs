//! # square-lang — the `.sq` textual frontend
//!
//! A complete frontend for the small textual language whose surface
//! syntax is the Fig. 6-style module listing that
//! [`square_qir::pretty::program_listing`] emits: programs are sets of
//! `module name(P params, A ancilla) { compute { … } store { … }
//! uncompute { … } }` items with exactly one `entry module`. This is
//! the path by which *arbitrary external programs* enter the SQUARE
//! pipeline: `parse_program` takes source text to a validated
//! [`square_qir::Program`], and the `squarec` driver (in
//! `square-service`) takes a `.sq` file end-to-end through compile,
//! route, and the `square-verify` oracle stack.
//!
//! ## Grammar (EBNF)
//!
//! ```text
//! program   = import* module* ;
//! import    = "import" name ";" ;        (* brings every module of `name.sq` into scope *)
//! module    = [ "entry" ] "module" name
//!             "(" number "params" "," number "ancilla"
//!             [ "," number "clbits" ] ")"
//!             "{" block* "}" ;
//! block     = ( "compute" | "store" | "uncompute" ) "{" stmt* "}" ;
//! stmt      = ( gate | call | measure | cond ) ";" ;
//! gate      = "x" operand
//!           | "cx" operand operand
//!           | "ccx" operand operand operand
//!           | "swap" operand operand
//!           | "mcx" operand+ ;              (* controls…, target *)
//! call      = "call" name "(" [ operand { "," operand } ] ")" ;
//! measure   = "measure" operand clbit ;     (* mid-circuit, into a classical bit *)
//! cond      = "cond" clbit gate ;           (* gate fires only when the bit is 1 *)
//! operand   = ( "p" | "a" ) digits ;        (* p3 = param, a0 = ancilla *)
//! clbit     = "c" digits ;                  (* module-local classical bit *)
//! name      = word ;
//! word      = ( letter | digit | "_" )+ ;   (* names may start with a digit: `2of5` *)
//! ```
//!
//! Blocks appear at most once each, in compute–store–uncompute order;
//! an absent block is empty, except `uncompute`, whose *absence* means
//! "mechanically invert the compute block" while an explicit
//! `uncompute {}` means "do nothing". Gate mnemonics are
//! case-insensitive and `not`/`cnot`/`toffoli` are accepted aliases.
//! Comments run from `//` or `#` to end of line. The `clbits` header
//! clause is optional — when absent, `measure`/`cond` statements grow
//! the count on demand; when written, it is a *declared bound* and a
//! statement using a classical bit at or past it is an error. The
//! canonical listing prints the clause only for modules that measure,
//! so measurement-free programs round-trip byte-identically to the
//! pre-clause syntax.
//!
//! ## Imports
//!
//! `import name;` items (which must precede the first module) bring
//! every module of another file into scope — see [`modules`] for
//! loading, the [`modules::ModuleLoader`] abstraction and the
//! search-path rules, and [`mod@lower`] for the one resolver both entry
//! points share. [`parse_program`] itself is single-file (it
//! has no file context) and rejects imports with a pointer at
//! [`modules::parse_files`]; the `squarec` driver resolves them
//! against the importing file's directory, `--search-path`
//! directories, and `lib/`.
//!
//! ## Round trip
//!
//! The listing printer and this parser are inverse bijections on valid
//! programs: `parse_program(&program_listing(&p)) == Ok(p)`
//! structurally, for every `p` the IR accepts (property-tested over
//! the synthetic generator and the full benchmark catalog, and checked
//! by the pipeline fuzzer on every generated program).
//!
//! ```
//! use square_qir::pretty::program_listing;
//!
//! let source = "
//!     module fun1(4 params, 1 ancilla) {
//!       compute {
//!         ccx p0 p1 p2;
//!         cx p2 a0;
//!       }
//!       store {
//!         cx a0 p3;
//!       }
//!     }
//!     entry module main(0 params, 4 ancilla) {
//!       compute {
//!         call fun1(a0, a1, a2, a3);
//!       }
//!     }
//! ";
//! let program = square_lang::parse_program(source).expect("parses");
//! assert_eq!(program.len(), 2);
//! assert_eq!(program.module(program.entry()).name(), "main");
//! // Canonical listing → parse is the identity.
//! let listing = program_listing(&program);
//! assert_eq!(square_lang::parse_program(&listing), Ok(program));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod modules;
pub mod parser;

pub use diag::{line_col, render, suggest, Diagnostic, Span};
pub use lower::lower;
pub use modules::{parse_files, MapLoader, ModuleLoader, SearchPathLoader, SourceMap};
pub use parser::{parse_source, GATE_ALIASES, GATE_MNEMONICS};

use square_qir::Program;

/// Parses, resolves, and lowers `.sq` source into a validated
/// [`Program`], collecting *all* diagnostics (lexical, syntactic, and
/// resolution errors) rather than stopping at the first.
///
/// # Errors
///
/// A non-empty list of spanned diagnostics; render them with
/// [`render`].
pub fn parse_program(source: &str) -> Result<Program, Vec<Diagnostic>> {
    let (ast, mut diags) = parser::parse_source(source);
    // This entry point has no file context to resolve imports against
    // (it serves in-memory sources: the round-trip check, the service
    // wire format). Multi-file programs go through `modules::parse_files`.
    for imp in &ast.imports {
        diags.push(
            Diagnostic::new(
                imp.span,
                format!("`import {}` requires a file context", imp.name),
            )
            .with_help(
                "this entry point is single-file; compile the file with `squarec` \
                 (or `square_lang::parse_files`), or pre-flatten with `squarec --emit listing`",
            ),
        );
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    lower::lower_owned(ast)
}

/// A broken `parse(pretty(p)) == p` round trip (see [`check_roundtrip`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTripError {
    /// The canonical listing that failed to reproduce the program.
    pub listing: String,
    /// One-line description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for RoundTripError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for RoundTripError {}

/// Checks the frontend's central contract on one program: the
/// canonical listing (`square_qir::pretty::program_listing`) must
/// parse back to a structurally identical [`Program`]. Shared by the
/// pipeline fuzzer, the `squarec --roundtrip` flag, the round-trip
/// test suites, and the `sq_frontend` example.
///
/// # Errors
///
/// [`RoundTripError`] carrying the listing and a one-line reason
/// (reparse diagnostics or a structural mismatch).
pub fn check_roundtrip(program: &Program) -> Result<(), RoundTripError> {
    let listing = square_qir::pretty::program_listing(program);
    match parse_program(&listing) {
        Ok(parsed) if &parsed == program => Ok(()),
        Ok(_) => Err(RoundTripError {
            listing,
            detail: "pretty → parse produced a structurally different program".to_string(),
        }),
        Err(diags) => {
            let first = diags
                .first()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "no diagnostics".to_string());
            Err(RoundTripError {
                detail: format!("canonical listing failed to parse: {first}"),
                listing,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_program_aggregates_parse_and_lowering_errors() {
        // Two distinct layers of failure in one source: a syntax error
        // (caught by the parser) aborts before lowering …
        let err = parse_program("module m(1 params 1 ancilla) { }").unwrap_err();
        assert!(err[0].message.contains("expected `,`"), "{err:?}");
        // … while a clean parse with a resolution error surfaces the
        // lowering diagnostics.
        let err =
            parse_program("entry module main(0 params, 1 ancilla) { compute { call ghost(a0); } }")
                .unwrap_err();
        assert!(err[0].message.contains("unknown module `ghost`"), "{err:?}");
    }

    #[test]
    fn diagnostics_carry_line_and_column() {
        let src = "entry module main(0 params, 1 ancilla) {\n  compute {\n    zz a0;\n  }\n}\n";
        let err = parse_program(src).unwrap_err();
        assert_eq!(err[0].line_col(src), (3, 5));
    }
}
