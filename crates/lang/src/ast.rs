//! Surface AST for `.sq` programs, its statements already in IR form.
//!
//! A module's blocks hold the [`square_qir::Stmt`]s lowering hands to
//! the builder, each with one span (head word through `;`): the parser
//! reads each statement once and stores it once. The tree differs from
//! [`square_qir::Module`] in two ways. Module references are by name:
//! a [`Stmt::Call`]'s `callee` is an index into its module's
//! [`SourceModule::callees`] table of callee-name spans, which
//! resolution in [`mod@crate::lower`] maps to the real
//! [`square_qir::ModuleId`]. And an operand or classical bit has no
//! span of its own: when a diagnostic needs one, lowering re-lexes its
//! statement's span from the file's text, which the
//! [`SourceProgram`] keeps (shared with the
//! [`crate::modules::SourceMap`]).

use std::sync::Arc;

use square_qir::Stmt;

use crate::diag::Span;

/// A parsed `.sq` compilation unit: imports and modules in source
/// order, and the text they were parsed from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceProgram {
    /// `import name;` items, in the order they appear in the file.
    pub imports: Vec<SourceImport>,
    /// Modules in the order they appear in the file.
    pub modules: Vec<SourceModule>,
    /// The file's text: the names of callees, and the operands of a
    /// statement a diagnostic anchors on, are read back from it.
    pub source: Arc<str>,
    /// Global offset of the text's byte 0; every span above includes
    /// it.
    pub base: usize,
}

impl SourceProgram {
    /// The text under the global `span` (which must lie in this file).
    pub fn text(&self, span: Span) -> &str {
        &self.source[span.start - self.base..span.end - self.base]
    }
}

/// One `import name;` item: a request to bring every module of the
/// file `name.sq` (resolved against the importing file's directory,
/// then the search path) into this file's scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceImport {
    /// Imported unit name as written (`std` resolves to `std.sq`).
    pub name: String,
    /// Span of the name token.
    pub name_span: Span,
    /// Span of the whole `import name;` item.
    pub span: Span,
}

/// One `module name(P params, A ancilla) { … }` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceModule {
    /// Module name.
    pub name: String,
    /// Span of the name token.
    pub name_span: Span,
    /// Span of the `entry` marker, when present.
    pub entry_span: Option<Span>,
    /// Declared parameter count.
    pub params: usize,
    /// Declared ancilla count.
    pub ancillas: usize,
    /// Declared classical-bit count (0 when the header has no
    /// `clbits` clause; `measure`/`cond` statements grow the count on
    /// demand during lowering, exactly as the builder does).
    pub clbits: usize,
    /// Span of the `N clbits` header clause, when one was written. A
    /// present clause is a *declared bound*: statements may not use
    /// classical bits at or beyond it. An absent clause (`None`) keeps
    /// the historical on-demand growth.
    pub clbits_span: Option<Span>,
    /// Statements of the `compute { … }` block (empty when absent).
    pub compute: Block,
    /// Statements of the `store { … }` block (empty when absent).
    pub store: Block,
    /// The explicit `uncompute { … }` block. `None` means the block is
    /// absent (mechanical inversion); `Some` of an empty block means an
    /// explicit empty block (uncomputation is a no-op) — the
    /// distinction the lossless listing preserves.
    pub uncompute: Option<Block>,
    /// The span of each `call` statement's callee name, in parse order:
    /// the `callee` of a [`Stmt::Call`] in this module's blocks is an
    /// index into this table, and the name is the span's text.
    pub callees: Vec<Span>,
}

impl SourceModule {
    /// True when this module carries the `entry` marker.
    pub fn is_entry(&self) -> bool {
        self.entry_span.is_some()
    }

    /// The module's blocks in canonical order: compute, store, then
    /// an explicit uncompute.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        [&self.compute, &self.store]
            .into_iter()
            .chain(self.uncompute.as_ref())
    }
}

/// The statements of one block, in IR form, and the span of each.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// The statements; a call's callee indexes its module's
    /// [`SourceModule::callees`].
    pub stmts: Vec<Stmt>,
    /// `spans[i]` covers `stmts[i]` from its first word through its
    /// `;`.
    pub spans: Vec<Span>,
}

impl Block {
    /// Appends `stmt`, spanning `span`.
    pub fn push(&mut self, stmt: Stmt, span: Span) {
        self.stmts.push(stmt);
        self.spans.push(span);
    }

    /// True when the block has no statement.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Each statement with its span.
    pub fn iter(&self) -> impl Iterator<Item = (&Stmt, Span)> {
        self.stmts.iter().zip(self.spans.iter().copied())
    }
}
