//! Recursive-descent parser for `.sq` source.
//!
//! The parser is *multi-error*: it never stops at the first problem.
//! Statement-level errors recover to the next `;` or `}`; module-level
//! errors skip a balanced brace group and resume at the next `module`
//! item. Every diagnostic carries a byte span (line/column via
//! [`crate::diag::line_col`]) and, where a misspelling is plausible, a
//! "did you mean" hint.

use square_qir::{Gate, Operand};

use crate::ast::{SourceImport, SourceModule, SourceOperand, SourceProgram, SourceStmt};
use crate::diag::{suggest, Diagnostic, Span};
use crate::lexer::{lex_at, Token, TokenKind};

/// Canonical gate mnemonics, in suggestion order.
pub const GATE_MNEMONICS: [&str; 5] = ["x", "cx", "ccx", "swap", "mcx"];

/// Accepted alias mnemonics (also valid "did you mean" suggestions,
/// since the parser accepts them).
pub const GATE_ALIASES: [&str; 3] = ["not", "cnot", "toffoli"];

/// Parses `.sq` source into the spanned surface AST, collecting every
/// diagnostic instead of stopping at the first. The returned AST
/// contains whatever parsed cleanly (useful for tooling); callers that
/// need a valid program must check the diagnostics are empty — or use
/// [`crate::parse_program`], which also resolves and lowers.
pub fn parse_source(source: &str) -> (SourceProgram, Vec<Diagnostic>) {
    parse_at(source, 0)
}

/// [`parse_source`] with every span offset by `base`, so a file of a
/// multi-file program parses straight onto its global offset in the
/// [`crate::modules::SourceMap`].
pub(crate) fn parse_at(source: &str, base: usize) -> (SourceProgram, Vec<Diagnostic>) {
    let (tokens, mut diags) = lex_at(source, base);
    let mut parser = Parser {
        source,
        base,
        tokens,
        pos: 0,
        diags: Vec::new(),
        operands: Vec::new(),
    };
    let program = parser.program();
    diags.append(&mut parser.diags);
    dedupe_by_span(&mut diags);
    (program, diags)
}

/// Keeps the first diagnostic anchored at each span and drops the
/// rest. Panic-mode recovery on a truncated or garbled input (an
/// unbalanced `}`, EOF inside a block) can report the same error site
/// once per enclosing production — e.g. "unclosed block" from the
/// statement loop *and* "expected `}` to close the module body" from
/// the module, both at the EOF token. One site, one error.
fn dedupe_by_span(diags: &mut Vec<Diagnostic>) {
    let mut seen: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    diags.retain(|d| seen.insert((d.span.start, d.span.end)));
}

struct Parser<'s> {
    source: &'s str,
    /// Global offset of `source`'s byte 0; token spans include it.
    base: usize,
    tokens: Vec<Token>,
    pos: usize,
    diags: Vec<Diagnostic>,
    /// Reused operand buffer for gate statements (see `gate_tail`).
    operands: Vec<SourceOperand>,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_text(&self) -> &'s str {
        self.text(self.peek())
    }

    /// A token's text (its span is global; the source is this file's).
    fn text(&self, t: Token) -> &'s str {
        &self.source[t.span.start - self.base..t.span.end - self.base]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_word(&self, text: &str) -> bool {
        self.peek().kind == TokenKind::Word && self.peek_text() == text
    }

    fn error(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic::new(span, message));
    }

    /// How the current token reads in a "found X" message.
    fn describe_found(&self, t: Token) -> String {
        match t.kind {
            TokenKind::Word => format!("`{}`", self.text(t)),
            other => other.describe().to_string(),
        }
    }

    /// Consumes a token of `kind` or reports what was found instead.
    fn expect(&mut self, kind: TokenKind, context: &str) -> Option<Token> {
        let t = self.peek();
        if t.kind == kind {
            return Some(self.bump());
        }
        let found = self.describe_found(t);
        self.error(
            t.span,
            format!("expected {} {context}, found {found}", kind.describe()),
        );
        None
    }

    /// Consumes the exact keyword `word` or diagnoses.
    fn expect_keyword(&mut self, word: &str, context: &str) -> bool {
        if self.at_word(word) {
            self.bump();
            return true;
        }
        let t = self.peek();
        let found = self.describe_found(t);
        self.error(
            t.span,
            format!("expected keyword `{word}` {context}, found {found}"),
        );
        false
    }

    // -- grammar ----------------------------------------------------------

    fn program(&mut self) -> SourceProgram {
        let mut imports = Vec::new();
        let mut modules = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::Eof => break,
                TokenKind::Word if self.at_word("import") => {
                    if let Some(imp) = self.import_item(!modules.is_empty()) {
                        imports.push(imp);
                    }
                }
                TokenKind::Word if self.at_word("module") || self.at_word("entry") => {
                    match self.module() {
                        Some(m) => modules.push(m),
                        None => self.recover_module(),
                    }
                }
                _ => {
                    let t = self.peek();
                    let found = self.describe_found(t);
                    let mut d = Diagnostic::new(
                        t.span,
                        format!("expected `import`, `module`, or `entry module`, found {found}"),
                    );
                    if t.kind == TokenKind::Word {
                        if let Some(s) = suggest(self.text(t), ["import", "module", "entry"]) {
                            d = d.with_help(format!("did you mean `{s}`?"));
                        }
                    }
                    self.diags.push(d);
                    self.recover_module();
                }
            }
        }
        SourceProgram { imports, modules }
    }

    /// `"import" name ";"` — canonical position is before the first
    /// module; later imports still parse (and resolve) but diagnose so
    /// the listing stays canonical.
    fn import_item(&mut self, after_modules: bool) -> Option<SourceImport> {
        let head = self.bump(); // `import`
        if after_modules {
            self.error(
                head.span,
                "`import` items must come before the first module",
            );
        }
        let name_tok = self.expect(TokenKind::Word, "as the imported unit name")?;
        let end = self.expect(TokenKind::Semi, "to end the import")?.span;
        Some(SourceImport {
            name: self.text(name_tok).to_string(),
            name_span: name_tok.span,
            span: head.span.to(end),
        })
    }

    /// `["entry"] "module" name "(" N "params" "," M "ancilla" ")"
    /// "{" block* "}"`. Returns `None` when the header is too broken
    /// to attach blocks to (the caller then recovers).
    fn module(&mut self) -> Option<SourceModule> {
        let entry_span = if self.at_word("entry") {
            Some(self.bump().span)
        } else {
            None
        };
        if !self.expect_keyword("module", "to start a module") {
            return None;
        }
        let name_tok = self.expect(TokenKind::Word, "as the module name")?;
        let name = self.text(name_tok).to_string();
        self.expect(TokenKind::LParen, "after the module name")?;
        let params = self.number("as the parameter count")?;
        self.expect_keyword("params", "after the parameter count");
        self.expect(TokenKind::Comma, "after `params`")?;
        let ancillas = self.number("as the ancilla count")?;
        self.expect_keyword("ancilla", "after the ancilla count");
        // Optional third clause: `, N clbits` (printed only for
        // modules that measure, so most headers omit it). A written
        // clause is a declared bound on the module's classical bits.
        let (clbits, clbits_span) = if self.peek().kind == TokenKind::Comma {
            self.bump();
            let count_span = self.peek().span;
            let n = self.number("as the clbit count")?;
            let clause_end = if self.at_word("clbits") {
                self.bump().span
            } else {
                self.expect_keyword("clbits", "after the clbit count");
                count_span
            };
            (n, Some(count_span.to(clause_end)))
        } else {
            (0, None)
        };
        self.expect(TokenKind::RParen, "to close the signature")?;
        self.expect(TokenKind::LBrace, "to open the module body")?;

        let mut module = SourceModule {
            name,
            name_span: name_tok.span,
            entry_span,
            params,
            ancillas,
            clbits,
            clbits_span,
            compute: Vec::new(),
            store: Vec::new(),
            uncompute: None,
        };
        // Blocks in canonical order, each at most once. Out-of-order
        // or repeated blocks parse (so their statements still get
        // checked) but diagnose.
        let mut seen: Vec<(&'static str, Span)> = Vec::new();
        while self.peek().kind == TokenKind::Word {
            let label_tok = self.peek();
            let label = match self.peek_text() {
                "compute" => "compute",
                "store" => "store",
                "uncompute" => "uncompute",
                other => {
                    let mut d = Diagnostic::new(
                        label_tok.span,
                        format!(
                            "unknown block `{other}` (expected `compute`, `store`, or `uncompute`)"
                        ),
                    );
                    if let Some(s) = suggest(other, ["compute", "store", "uncompute"]) {
                        d = d.with_help(format!("did you mean `{s}`?"));
                    }
                    self.diags.push(d);
                    self.bump();
                    // Skip its braced body, if any, then keep going.
                    if self.peek().kind == TokenKind::LBrace {
                        self.skip_balanced_braces();
                    }
                    continue;
                }
            };
            self.bump();
            let order = |l: &str| match l {
                "compute" => 0,
                "store" => 1,
                _ => 2,
            };
            if let Some((dup, _)) = seen.iter().find(|(l, _)| *l == label) {
                self.error(
                    label_tok.span,
                    format!("duplicate `{dup}` block in module `{}`", module.name),
                );
            } else if let Some((later, _)) =
                seen.iter().find(|(l, _)| order(l) > order(label)).copied()
            {
                self.error(
                    label_tok.span,
                    format!(
                        "`{label}` block must come before `{later}` \
                         (canonical order is compute, store, uncompute)"
                    ),
                );
            }
            seen.push((label, label_tok.span));
            let stmts = self.block();
            match label {
                "compute" => module.compute.extend(stmts),
                "store" => module.store.extend(stmts),
                _ => module.uncompute.get_or_insert_with(Vec::new).extend(stmts),
            }
        }
        self.expect(TokenKind::RBrace, "to close the module body");
        Some(module)
    }

    /// `"{" stmt* "}"` — the label has already been consumed.
    fn block(&mut self) -> Vec<SourceStmt> {
        let mut stmts = Vec::new();
        if self
            .expect(TokenKind::LBrace, "to open the block")
            .is_none()
        {
            return stmts;
        }
        loop {
            match self.peek().kind {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::Eof => {
                    let span = self.peek().span;
                    self.error(span, "unclosed block: expected `}`");
                    break;
                }
                _ => match self.stmt() {
                    Some(s) => stmts.push(s),
                    None => self.recover_stmt(),
                },
            }
        }
        stmts
    }

    /// One `gate …;` or `call name(…);` statement.
    fn stmt(&mut self) -> Option<SourceStmt> {
        let head = self.peek();
        if head.kind != TokenKind::Word {
            self.error(
                head.span,
                format!(
                    "expected a gate or `call` statement, found {}",
                    head.kind.describe()
                ),
            );
            return None;
        }
        let word = self.text(head);
        // Statement heads are case-insensitive throughout — `CALL`
        // reads as `call`, like `CNOT` reads as `cnot`.
        if word.eq_ignore_ascii_case("call") {
            return self.call_stmt();
        }
        if word.eq_ignore_ascii_case("measure") {
            return self.measure_stmt();
        }
        if word.eq_ignore_ascii_case("cond") {
            return self.cond_stmt();
        }
        let Some(kind) = gate_kind(word) else {
            let mut d = Diagnostic::new(head.span, format!("unknown gate `{word}`"));
            let mut candidates: Vec<&str> = GATE_MNEMONICS.to_vec();
            candidates.extend(GATE_ALIASES);
            candidates.extend(["call", "measure", "cond"]);
            if let Some(s) = suggest(word, candidates) {
                d = d.with_help(format!("did you mean `{s}`?"));
            }
            self.diags.push(d);
            return None;
        };
        self.bump();
        let gate = self.gate_tail(kind, word, head.span)?;
        let end = self.expect(TokenKind::Semi, "to end the statement")?.span;
        Some(SourceStmt::Gate {
            gate,
            span: head.span.to(end),
        })
    }

    /// Operands of a gate whose mnemonic (`word`, as written) was just
    /// consumed, built into the gate with arity checking. The `;` is
    /// left for the caller — an arity failure keeps the terminator for
    /// recovery to sync on (otherwise the next statement would be
    /// swallowed). The operands are gathered in the parser's reused
    /// buffer, so a gate of fixed arity allocates nothing.
    fn gate_tail(
        &mut self,
        kind: GateKind,
        word: &str,
        head_span: Span,
    ) -> Option<Gate<SourceOperand>> {
        let mut operands = std::mem::take(&mut self.operands);
        operands.clear();
        let gate = loop {
            if self.peek().kind != TokenKind::Word {
                break self.build_gate(kind, word, head_span, &operands);
            }
            match self.operand() {
                Some(operand) => operands.push(operand),
                None => break None,
            }
        };
        self.operands = operands;
        gate
    }

    /// `"measure" operand clbit ";"`
    fn measure_stmt(&mut self) -> Option<SourceStmt> {
        let head = self.bump(); // `measure`
        let qubit = self.operand()?;
        let (clbit, clbit_span) = self.clbit("as the measurement destination")?;
        let end = self.expect(TokenKind::Semi, "to end the statement")?.span;
        Some(SourceStmt::Measure {
            qubit,
            clbit,
            clbit_span,
            span: head.span.to(end),
        })
    }

    /// `"cond" clbit gate ";"`
    fn cond_stmt(&mut self) -> Option<SourceStmt> {
        let head = self.bump(); // `cond`
        let (clbit, clbit_span) = self.clbit("as the guard")?;
        let gate_tok = self.peek();
        if gate_tok.kind != TokenKind::Word {
            self.error(
                gate_tok.span,
                format!(
                    "expected a gate after the guard, found {}",
                    gate_tok.kind.describe()
                ),
            );
            return None;
        }
        let word = self.text(gate_tok);
        let Some(kind) = gate_kind(word) else {
            let mut d = Diagnostic::new(gate_tok.span, format!("unknown gate `{word}`"));
            let mut candidates: Vec<&str> = GATE_MNEMONICS.to_vec();
            candidates.extend(GATE_ALIASES);
            if let Some(s) = suggest(word, candidates) {
                d = d.with_help(format!("did you mean `{s}`?"));
            }
            self.diags.push(d);
            return None;
        };
        self.bump();
        let gate = self.gate_tail(kind, word, gate_tok.span)?;
        let end = self.expect(TokenKind::Semi, "to end the statement")?.span;
        Some(SourceStmt::CondGate {
            clbit,
            clbit_span,
            gate,
            span: head.span.to(end),
        })
    }

    /// `c<digits>` — a module-local classical bit reference.
    fn clbit(&mut self, context: &str) -> Option<(usize, Span)> {
        let t = self.peek();
        let bad = |p: &mut Self| {
            let found = p.describe_found(t);
            p.error(
                t.span,
                format!("expected a classical bit like `c0` {context}, found {found}"),
            );
            None
        };
        if t.kind != TokenKind::Word {
            return bad(self);
        }
        let text = self.text(t);
        let parsed = text
            .strip_prefix('c')
            .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|d| d.parse::<usize>().ok());
        match parsed {
            Some(i) => {
                self.bump();
                Some((i, t.span))
            }
            None => bad(self),
        }
    }

    fn build_gate(
        &mut self,
        kind: GateKind,
        word: &str,
        span: Span,
        ops: &[SourceOperand],
    ) -> Option<Gate<SourceOperand>> {
        let n = ops.len();
        // The message's parts are built only when the arity is wrong.
        let arity_err = |p: &mut Self, expected: &str| {
            let (mnemonic, found) = (word.to_ascii_lowercase(), ops_len_phrase(n));
            p.error(
                span,
                format!("`{mnemonic}` takes {expected}, found {found}"),
            );
            None
        };
        match kind {
            GateKind::X => match <[SourceOperand; 1]>::try_from(ops) {
                Ok([target]) => Some(Gate::X { target }),
                Err(_) => arity_err(self, "1 operand"),
            },
            GateKind::Cx => match <[SourceOperand; 2]>::try_from(ops) {
                Ok([control, target]) => Some(Gate::Cx { control, target }),
                Err(_) => arity_err(self, "2 operands (control, target)"),
            },
            GateKind::Ccx => match <[SourceOperand; 3]>::try_from(ops) {
                Ok([c0, c1, target]) => Some(Gate::Ccx { c0, c1, target }),
                Err(_) => arity_err(self, "3 operands (two controls, target)"),
            },
            GateKind::Swap => match <[SourceOperand; 2]>::try_from(ops) {
                Ok([a, b]) => Some(Gate::Swap { a, b }),
                Err(_) => arity_err(self, "2 operands"),
            },
            GateKind::Mcx => match ops.split_last() {
                Some((&target, controls)) => Some(Gate::Mcx {
                    controls: controls.to_vec(),
                    target,
                }),
                None => arity_err(self, "at least 1 operand (controls…, target)"),
            },
        }
    }

    /// `"call" name "(" [operand ("," operand)*] ")" ";"`
    fn call_stmt(&mut self) -> Option<SourceStmt> {
        let call_tok = self.bump(); // `call`
        let name_tok = self.expect(TokenKind::Word, "as the callee name")?;
        self.expect(TokenKind::LParen, "after the callee name")?;
        let mut args = Vec::new();
        if self.peek().kind != TokenKind::RParen {
            loop {
                args.push(self.operand()?);
                match self.peek().kind {
                    TokenKind::Comma => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(TokenKind::RParen, "to close the argument list")?;
        let end = self.expect(TokenKind::Semi, "to end the statement")?.span;
        Some(SourceStmt::Call {
            callee: self.text(name_tok).to_string(),
            callee_span: name_tok.span,
            args,
            span: call_tok.span.to(end),
        })
    }

    /// `p<digits>` or `a<digits>`.
    fn operand(&mut self) -> Option<SourceOperand> {
        let t = self.peek();
        if t.kind != TokenKind::Word {
            self.error(
                t.span,
                format!(
                    "expected an operand like `p0` or `a3`, found {}",
                    t.kind.describe()
                ),
            );
            return None;
        }
        let text = self.text(t);
        let parsed = text
            .strip_prefix('p')
            .map(|d| (true, d))
            .or_else(|| text.strip_prefix('a').map(|d| (false, d)))
            .filter(|(_, d)| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|(is_param, d)| Some((is_param, d.parse::<usize>().ok()?)));
        match parsed {
            Some((is_param, i)) => {
                self.bump();
                Some(SourceOperand {
                    op: if is_param {
                        Operand::Param(i)
                    } else {
                        Operand::Ancilla(i)
                    },
                    span: t.span,
                })
            }
            None => {
                self.error(
                    t.span,
                    format!("expected an operand like `p0` or `a3`, found `{text}`"),
                );
                None
            }
        }
    }

    /// A word of digits, as usize.
    fn number(&mut self, context: &str) -> Option<usize> {
        let t = self.expect(TokenKind::Word, context)?;
        let text = self.text(t);
        match text.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                self.error(
                    t.span,
                    format!("expected a number {context}, found `{text}`"),
                );
                None
            }
        }
    }

    // -- recovery ---------------------------------------------------------

    /// Skips to just after the next `;`, or to the next `}` / end of
    /// input (not consumed), whichever comes first.
    fn recover_stmt(&mut self) {
        loop {
            match self.peek().kind {
                TokenKind::Semi => {
                    self.bump();
                    return;
                }
                TokenKind::RBrace | TokenKind::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips forward to the next top-level `module` / `entry` item,
    /// balancing braces on the way.
    fn recover_module(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    depth = depth.saturating_sub(1);
                    self.bump();
                }
                TokenKind::Word
                    if depth == 0 && (self.at_word("module") || self.at_word("entry")) =>
                {
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Consumes one balanced `{ … }` group (current token must be `{`).
    fn skip_balanced_braces(&mut self) {
        debug_assert_eq!(self.peek().kind, TokenKind::LBrace);
        let mut depth = 0usize;
        loop {
            match self.peek().kind {
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                TokenKind::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum GateKind {
    X,
    Cx,
    Ccx,
    Swap,
    Mcx,
}

/// Maps a statement head, in any case, to its gate kind, if it is one
/// (aliases included).
fn gate_kind(word: &str) -> Option<GateKind> {
    const KINDS: [(&str, GateKind); 8] = [
        ("x", GateKind::X),
        ("not", GateKind::X),
        ("cx", GateKind::Cx),
        ("cnot", GateKind::Cx),
        ("ccx", GateKind::Ccx),
        ("toffoli", GateKind::Ccx),
        ("swap", GateKind::Swap),
        ("mcx", GateKind::Mcx),
    ];
    KINDS
        .iter()
        .find(|(name, _)| word.eq_ignore_ascii_case(name))
        .map(|&(_, kind)| kind)
}

fn ops_len_phrase(n: usize) -> String {
    match n {
        1 => "1 operand".to_string(),
        n => format!("{n} operands"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_two_module_program() {
        let src = "\
module fun1(4 params, 1 ancilla) {
  compute {
    ccx p0 p1 p2;
    cx p2 a0;
  }
  store {
    cx a0 p3;
  }
}

entry module main(0 params, 4 ancilla) {
  compute {
    call fun1(a0, a1, a2, a3);
  }
}
";
        let (program, diags) = parse_source(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(program.modules.len(), 2);
        let fun1 = &program.modules[0];
        assert_eq!(fun1.name, "fun1");
        assert_eq!((fun1.params, fun1.ancillas), (4, 1));
        assert_eq!(fun1.compute.len(), 2);
        assert_eq!(fun1.store.len(), 1);
        assert!(fun1.uncompute.is_none());
        assert!(!fun1.is_entry());
        assert!(program.modules[1].is_entry());
        match &program.modules[1].compute[0] {
            SourceStmt::Call { callee, args, .. } => {
                assert_eq!(callee, "fun1");
                assert_eq!(args.len(), 4);
                assert_eq!(args[0].op, Operand::Ancilla(0));
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn empty_uncompute_is_some_empty() {
        let src = "module m(1 params, 1 ancilla) { compute { cx p0 a0; } uncompute {} }";
        let (program, diags) = parse_source(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(program.modules[0].uncompute, Some(vec![]));
    }

    #[test]
    fn gate_aliases_and_case_are_accepted() {
        let src =
            "module m(3 params, 0 ancilla) { compute { NOT p0; CNOT p0 p1; Toffoli p0 p1 p2; } }";
        let (program, diags) = parse_source(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(program.modules[0].compute.len(), 3);
    }

    #[test]
    fn multiple_errors_are_all_reported() {
        let src = "\
module m(2 params, 1 ancilla) {
  compute {
    ccz p0 p1 a0;
    cx p0;
    call f(p0, p1)
  }
}
";
        let (_, diags) = parse_source(src);
        // Unknown gate, bad arity, missing semicolon: three errors from
        // one parse.
        assert!(diags.len() >= 3, "{diags:?}");
        assert!(diags[0].message.contains("unknown gate `ccz`"));
        assert_eq!(diags[0].help.as_deref(), Some("did you mean `ccx`?"));
        assert!(diags.iter().any(|d| d.message.contains("`cx` takes 2")));
    }

    #[test]
    fn recovery_reaches_the_next_module() {
        let src = "\
module broken(1 params oops
module fine(1 params, 0 ancilla) {
  compute { x p0; }
}
";
        let (program, diags) = parse_source(src);
        assert!(!diags.is_empty());
        assert!(program.modules.iter().any(|m| m.name == "fine"));
    }

    #[test]
    fn duplicate_and_out_of_order_blocks_diagnose() {
        let src = "module m(1 params, 0 ancilla) { store { } compute { x p0; } compute { } }";
        let (_, diags) = parse_source(src);
        assert!(diags
            .iter()
            .any(|d| d.message.contains("must come before `store`")));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("duplicate `compute`")));
    }

    #[test]
    fn measurement_statements_and_clbits_clause_parse() {
        let src = "\
entry module mbu(0 params, 1 ancilla, 2 clbits) {
  compute {
    x a0;
    measure a0 c1;
    cond c1 x a0;
  }
}
";
        let (program, diags) = parse_source(src);
        assert!(diags.is_empty(), "{diags:?}");
        let m = &program.modules[0];
        assert_eq!(m.clbits, 2);
        assert_eq!(m.compute.len(), 3);
        match &m.compute[1] {
            SourceStmt::Measure { qubit, clbit, .. } => {
                assert_eq!(qubit.op, Operand::Ancilla(0));
                assert_eq!(*clbit, 1);
            }
            other => panic!("expected measure, got {other:?}"),
        }
        match &m.compute[2] {
            SourceStmt::CondGate { clbit, gate, .. } => {
                assert_eq!(*clbit, 1);
                assert!(matches!(gate, Gate::X { .. }));
            }
            other => panic!("expected cond, got {other:?}"),
        }
    }

    #[test]
    fn malformed_classical_statements_diagnose() {
        let src = "module m(0 params, 1 ancilla) { compute { measure a0 q1; cond x a0; } }";
        let (_, diags) = parse_source(src);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("expected a classical bit like `c0`")),
            "{diags:?}"
        );
        assert_eq!(diags.len(), 2, "both statements diagnose: {diags:?}");
    }

    #[test]
    fn mcx_with_many_controls_parses() {
        let src = "module m(5 params, 0 ancilla) { compute { mcx p0 p1 p2 p3 p4; } }";
        let (program, diags) = parse_source(src);
        assert!(diags.is_empty(), "{diags:?}");
        match &program.modules[0].compute[0] {
            SourceStmt::Gate {
                gate: Gate::Mcx { controls, target },
                ..
            } => {
                assert_eq!(controls.len(), 4);
                assert_eq!(target.op, Operand::Param(4));
            }
            other => panic!("expected mcx, got {other:?}"),
        }
    }
}
