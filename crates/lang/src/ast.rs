//! Spanned surface AST for `.sq` programs.
//!
//! The surface tree mirrors [`square_qir::Module`] one-to-one but
//! keeps module references *by name* and attaches a [`Span`] to every
//! construct a later pass might need to report on. Resolution (name →
//! [`square_qir::ModuleId`], arity and bounds checks) and lowering to
//! the builder live in [`mod@crate::lower`].

use square_qir::{Gate, Operand};

use crate::diag::Span;

/// A parsed `.sq` compilation unit: imports and modules in source
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SourceProgram {
    /// `import name;` items, in the order they appear in the file.
    pub imports: Vec<SourceImport>,
    /// Modules in the order they appear in the file.
    pub modules: Vec<SourceModule>,
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
    pub compute: Vec<SourceStmt>,
    /// Statements of the `store { … }` block (empty when absent).
    pub store: Vec<SourceStmt>,
    /// The explicit `uncompute { … }` block. `None` means the block is
    /// absent (mechanical inversion); `Some(vec![])` means an explicit
    /// empty block (uncomputation is a no-op) — the distinction the
    /// lossless listing preserves.
    pub uncompute: Option<Vec<SourceStmt>>,
}

impl SourceModule {
    /// True when this module carries the `entry` marker.
    pub fn is_entry(&self) -> bool {
        self.entry_span.is_some()
    }
}

/// One statement inside a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceStmt {
    /// A gate over spanned operands, e.g. `ccx p0 p1 a0;`.
    Gate {
        /// The gate, operands carrying their individual spans.
        gate: Gate<SourceOperand>,
        /// Span of the whole statement (mnemonic through last operand).
        span: Span,
    },
    /// A call by module name, e.g. `call fun1(a0, p1);`.
    Call {
        /// Callee name as written.
        callee: String,
        /// Span of the callee name token.
        callee_span: Span,
        /// Arguments with their spans.
        args: Vec<SourceOperand>,
        /// Span of the whole statement.
        span: Span,
    },
    /// A mid-circuit measurement, e.g. `measure a0 c0;`.
    Measure {
        /// The measured qubit.
        qubit: SourceOperand,
        /// Destination classical bit (module-local index).
        clbit: usize,
        /// Span of the destination clbit token.
        clbit_span: Span,
        /// Span of the whole statement.
        span: Span,
    },
    /// A classically guarded gate, e.g. `cond c0 x a0;`.
    CondGate {
        /// Guarding classical bit (module-local index).
        clbit: usize,
        /// Span of the guard clbit token.
        clbit_span: Span,
        /// The guarded gate.
        gate: Gate<SourceOperand>,
        /// Span of the whole statement.
        span: Span,
    },
}

impl SourceStmt {
    /// The statement's full span.
    pub fn span(&self) -> Span {
        match self {
            SourceStmt::Gate { span, .. }
            | SourceStmt::Call { span, .. }
            | SourceStmt::Measure { span, .. }
            | SourceStmt::CondGate { span, .. } => *span,
        }
    }
}

/// A module-frame qubit reference (`p3` / `a0`) with its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceOperand {
    /// The operand.
    pub op: Operand,
    /// Span of the operand token.
    pub span: Span,
}
