//! Ergonomic construction of programs, mirroring the paper's Scaffold
//! `Compute { … } Store { … } Uncompute { … }` construct.
//!
//! Modules are registered in dependency order: a call site may only
//! reference a module that has already been built, so every call
//! targets a module with a smaller id and the call graph is a DAG by
//! construction (the paper requires modular, non-recursive reversible
//! programs). Each module is checked as it is registered;
//! [`ProgramBuilder::finish`] adds only the checks that need the whole
//! program (see [`crate::validate`]).

use crate::error::QirError;
use crate::gate::Gate;
use crate::module::{Module, ModuleId, Operand, Program, Stmt};
use crate::validate;

/// Builds a [`Program`] module by module.
///
/// ```
/// use square_qir::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// let inner = b.module("inner", 2, 1, |m| {
///     let (x, out) = (m.param(0), m.param(1));
///     let a = m.ancilla(0);
///     m.cx(x, a);
///     m.store();
///     m.cx(a, out);
/// })?;
/// let main = b.module("main", 0, 2, |m| {
///     let (x, out) = (m.ancilla(0), m.ancilla(1));
///     m.x(x);
///     m.call(inner, &[x, out]);
/// })?;
/// let program = b.finish(main)?;
/// assert_eq!(program.len(), 2);
/// # Ok::<(), square_qir::QirError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    modules: Vec<Module>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of modules registered so far.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when no modules have been registered yet.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Registers a module with `params` caller-provided qubits and
    /// `ancillas` local scratch qubits. The closure receives a
    /// [`ModuleBuilder`] positioned in the compute block; call
    /// [`ModuleBuilder::store`] to switch to the store block.
    ///
    /// # Errors
    ///
    /// Returns an error if the module body references out-of-range
    /// operands, calls unknown/not-yet-registered modules, or violates
    /// gate well-formedness (duplicate operands).
    pub fn module(
        &mut self,
        name: impl Into<String>,
        params: usize,
        ancillas: usize,
        f: impl FnOnce(&mut ModuleBuilder<'_>),
    ) -> Result<ModuleId, QirError> {
        let mut mb = ModuleBuilder {
            existing: &self.modules,
            name: name.into(),
            params,
            ancillas,
            clbits: 0,
            section: Section::Compute,
            compute: Vec::new(),
            store: Vec::new(),
            custom_uncompute: None,
            error: None,
        };
        f(&mut mb);
        if let Some(e) = mb.error {
            return Err(e);
        }
        let module = Module {
            name: mb.name,
            params,
            ancillas,
            clbits: mb.clbits,
            compute: mb.compute,
            store: mb.store,
            custom_uncompute: mb.custom_uncompute,
        };
        validate::validate_module(&module, &self.modules)?;
        let id = ModuleId(self.modules.len() as u32);
        self.modules.push(module);
        Ok(id)
    }

    /// Finalizes the program with `entry` as the top-level module,
    /// checking the entry signature and the store discipline (every
    /// module already passed its own checks in
    /// [`ProgramBuilder::module`]).
    ///
    /// The entry module must declare zero parameters: its inputs are
    /// modeled as entry-level ancilla, matching the paper's `main`
    /// which `Allocate`s all program qubits (Fig. 6).
    ///
    /// # Errors
    ///
    /// Returns [`QirError::EntryHasParams`], a store-block discipline
    /// violation (see [`crate::validate`]), or
    /// [`QirError::UnknownModule`] when `entry` is not a registered id.
    pub fn finish(self, entry: ModuleId) -> Result<Program, QirError> {
        validate::validate_finish(&self.modules, entry)?;
        Ok(Program {
            modules: self.modules,
            entry,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Compute,
    Store,
    Uncompute,
}

/// Builder for a single module body. Obtained through
/// [`ProgramBuilder::module`].
#[derive(Debug)]
pub struct ModuleBuilder<'a> {
    existing: &'a [Module],
    name: String,
    params: usize,
    ancillas: usize,
    clbits: usize,
    section: Section,
    compute: Vec<Stmt>,
    store: Vec<Stmt>,
    custom_uncompute: Option<Vec<Stmt>>,
    error: Option<QirError>,
}

impl ModuleBuilder<'_> {
    /// The i-th caller-provided qubit.
    ///
    /// Range errors are deferred: they surface from
    /// [`ProgramBuilder::module`] rather than panicking here.
    pub fn param(&mut self, i: usize) -> Operand {
        if i >= self.params && self.error.is_none() {
            self.error = Some(QirError::OperandOutOfRange {
                module: self.name.clone(),
                operand: format!("p{i}"),
            });
        }
        Operand::Param(i)
    }

    /// The i-th local ancilla qubit.
    pub fn ancilla(&mut self, i: usize) -> Operand {
        if i >= self.ancillas && self.error.is_none() {
            self.error = Some(QirError::OperandOutOfRange {
                module: self.name.clone(),
                operand: format!("a{i}"),
            });
        }
        Operand::Ancilla(i)
    }

    /// Switches emission from the compute block to the store block.
    pub fn store(&mut self) {
        self.section = Section::Store;
    }

    /// Switches emission to an explicit uncompute block, overriding the
    /// mechanical `Inverse()` of the compute block. Rarely needed; the
    /// paper's example writes it out for illustration only.
    pub fn uncompute(&mut self) {
        self.section = Section::Uncompute;
        if self.custom_uncompute.is_none() {
            self.custom_uncompute = Some(Vec::new());
        }
    }

    fn push(&mut self, stmt: Stmt) {
        match self.section {
            Section::Compute => self.compute.push(stmt),
            Section::Store => self.store.push(stmt),
            Section::Uncompute => self
                .custom_uncompute
                .get_or_insert_with(Vec::new)
                .push(stmt),
        }
    }

    /// Emits a NOT gate.
    pub fn x(&mut self, target: Operand) {
        self.push(Stmt::Gate(Gate::X { target }));
    }

    /// Emits a CNOT gate.
    pub fn cx(&mut self, control: Operand, target: Operand) {
        self.push(Stmt::Gate(Gate::Cx { control, target }));
    }

    /// Emits a Toffoli gate.
    pub fn ccx(&mut self, c0: Operand, c1: Operand, target: Operand) {
        self.push(Stmt::Gate(Gate::Ccx { c0, c1, target }));
    }

    /// Emits a SWAP gate.
    pub fn swap(&mut self, a: Operand, b: Operand) {
        self.push(Stmt::Gate(Gate::Swap { a, b }));
    }

    /// Emits a multi-controlled NOT gate.
    pub fn mcx(&mut self, controls: &[Operand], target: Operand) {
        self.push(Stmt::Gate(Gate::Mcx {
            controls: controls.to_vec(),
            target,
        }));
    }

    /// Emits an arbitrary gate.
    pub fn gate(&mut self, gate: Gate<Operand>) {
        self.push(Stmt::Gate(gate));
    }

    /// Declares (at least) `n` module-local classical bits. Optional:
    /// [`ModuleBuilder::measure`] and [`ModuleBuilder::cond_x`] grow
    /// the count on demand; use this to reserve bits up front.
    pub fn declare_clbits(&mut self, n: usize) {
        self.clbits = self.clbits.max(n);
    }

    /// Emits a mid-circuit measurement of `qubit` into classical bit
    /// `clbit`, growing the module's clbit count to cover it.
    pub fn measure(&mut self, qubit: Operand, clbit: usize) {
        self.clbits = self.clbits.max(clbit + 1);
        self.push(Stmt::Measure { qubit, clbit });
    }

    /// Emits an X gate on `target` guarded by classical bit `clbit`
    /// (the measurement-based-uncompute correction), growing the
    /// module's clbit count to cover it.
    pub fn cond_x(&mut self, clbit: usize, target: Operand) {
        self.cond_gate(clbit, Gate::X { target });
    }

    /// Emits an arbitrary gate guarded by classical bit `clbit`.
    pub fn cond_gate(&mut self, clbit: usize, gate: Gate<Operand>) {
        self.clbits = self.clbits.max(clbit + 1);
        self.push(Stmt::CondGate { clbit, gate });
    }

    /// Emits a call to a previously registered module, binding `args`
    /// positionally to the callee's parameters.
    pub fn call(&mut self, callee: ModuleId, args: &[Operand]) {
        if self.error.is_none() {
            match self.existing.get(callee.index()) {
                None => self.error = Some(QirError::UnknownModule(callee)),
                Some(m) if m.params != args.len() => {
                    self.error = Some(QirError::ArityMismatch {
                        caller: self.name.clone(),
                        callee: m.name.clone(),
                        expected: m.params,
                        found: args.len(),
                    });
                }
                Some(m) => {
                    for (i, a) in args.iter().enumerate() {
                        if args[i + 1..].contains(a) {
                            self.error = Some(QirError::AliasedArguments {
                                caller: self.name.clone(),
                                callee: m.name.clone(),
                            });
                            break;
                        }
                    }
                }
            }
        }
        self.push(Stmt::Call {
            callee,
            args: args.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_fig6_program() {
        let mut b = ProgramBuilder::new();
        let fun1 = b
            .module("fun1", 4, 1, |m| {
                let (i0, i1, i2, out) = (m.param(0), m.param(1), m.param(2), m.param(3));
                let a = m.ancilla(0);
                m.ccx(i0, i1, i2);
                m.cx(i2, a);
                m.ccx(i1, i0, a);
                m.store();
                m.cx(a, out);
            })
            .unwrap();
        let main = b
            .module("main", 0, 4, |m| {
                let q: Vec<_> = (0..4).map(|i| m.ancilla(i)).collect();
                m.call(fun1, &q);
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        assert_eq!(p.module(fun1).compute().len(), 3);
        assert_eq!(p.module(fun1).store().len(), 1);
        assert_eq!(p.entry(), main);
    }

    #[test]
    fn rejects_out_of_range_param() {
        let mut b = ProgramBuilder::new();
        let err = b.module("bad", 1, 0, |m| {
            let p9 = m.param(9);
            m.x(p9);
        });
        assert!(matches!(err, Err(QirError::OperandOutOfRange { .. })));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut b = ProgramBuilder::new();
        let leaf = b
            .module("leaf", 2, 0, |m| {
                let (a, bq) = (m.param(0), m.param(1));
                m.cx(a, bq);
            })
            .unwrap();
        let err = b.module("caller", 3, 0, |m| {
            let a = m.param(0);
            m.call(leaf, &[a]);
        });
        assert!(matches!(err, Err(QirError::ArityMismatch { .. })));
    }

    #[test]
    fn rejects_aliased_call_args() {
        let mut b = ProgramBuilder::new();
        let leaf = b
            .module("leaf", 2, 0, |m| {
                let (a, bq) = (m.param(0), m.param(1));
                m.cx(a, bq);
            })
            .unwrap();
        let err = b.module("caller", 1, 0, |m| {
            let a = m.param(0);
            m.call(leaf, &[a, a]);
        });
        assert!(matches!(err, Err(QirError::AliasedArguments { .. })));
    }

    #[test]
    fn rejects_forward_call() {
        let mut b = ProgramBuilder::new();
        let err = b.module("caller", 1, 0, |m| {
            let a = m.param(0);
            m.call(ModuleId::from_index(5), &[a]);
        });
        assert!(matches!(err, Err(QirError::UnknownModule(_))));
    }

    #[test]
    fn explicit_uncompute_block() {
        let mut b = ProgramBuilder::new();
        let id = b
            .module("explicit", 1, 1, |m| {
                let (p, a) = (m.param(0), m.ancilla(0));
                m.cx(p, a);
                m.store();
                m.uncompute();
                m.cx(p, a);
            })
            .unwrap();
        let p = b.finish(id).unwrap_err();
        // entry with params is rejected
        assert!(matches!(p, QirError::EntryHasParams { .. }));
    }

    #[test]
    fn measure_and_cond_grow_clbits() {
        let mut b = ProgramBuilder::new();
        let main = b
            .module("main", 0, 2, |m| {
                let (x, a) = (m.ancilla(0), m.ancilla(1));
                m.x(x);
                m.cx(x, a);
                m.measure(a, 1);
                m.cond_x(1, a);
                m.store();
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        assert_eq!(p.module(main).clbits(), 2);
        assert_eq!(p.module(main).compute().len(), 4);
    }

    #[test]
    fn rejects_guarded_mcx_with_three_controls() {
        let mut b = ProgramBuilder::new();
        let err = b.module("wide", 4, 0, |m| {
            let controls = vec![m.param(0), m.param(1), m.param(2)];
            let target = m.param(3);
            m.cond_gate(0, Gate::Mcx { controls, target });
        });
        assert_eq!(
            err,
            Err(QirError::GuardedWideMcx {
                module: "wide".into(),
                controls: 3,
            })
        );
        // Two guarded controls stay legal: lowering makes them a CCX.
        let two = b.module("narrow", 3, 0, |m| {
            let controls = vec![m.param(0), m.param(1)];
            let target = m.param(2);
            m.cond_gate(0, Gate::Mcx { controls, target });
        });
        assert!(two.is_ok());
    }
}
