//! Programs, modules, and statements.
//!
//! A [`Program`] owns a set of [`Module`]s and designates one as the
//! entry point. Modules reference each other through [`Stmt::Call`],
//! always calling a module listed earlier, so the call graph is a DAG
//! whose topological order is the module order. Each module
//! follows the paper's compute–store–uncompute structure: the compute
//! block may scribble on parameters and ancilla, the store block copies
//! results onto fresh output qubits, and the uncompute block — derived
//! mechanically unless overridden — undoes the compute block.

use crate::gate::Gate;

/// Index of a module within its [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub(crate) u32);

impl ModuleId {
    /// The raw index into [`Program::modules`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a module id from a raw index.
    ///
    /// Only meaningful for ids obtained from the owning program; using
    /// an arbitrary index with a different program yields panics or
    /// `QirError::UnknownModule` at validation time.
    pub fn from_index(i: usize) -> Self {
        ModuleId(i as u32)
    }
}

/// A qubit name local to a module frame.
///
/// `Param(i)` is the i-th caller-provided qubit; `Ancilla(i)` is the
/// i-th locally allocated scratch qubit. The executor resolves both to
/// program-wide virtual qubits at call time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operand {
    /// Caller-provided qubit (by position).
    Param(usize),
    /// Locally allocated ancilla qubit (by position).
    Ancilla(usize),
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Param(i) => write!(f, "p{i}"),
            Operand::Ancilla(i) => write!(f, "a{i}"),
        }
    }
}

/// One statement in a module block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Apply a gate to module-frame qubits.
    Gate(Gate<Operand>),
    /// Invoke another module, binding `args` (caller-frame qubits) to
    /// the callee's parameters positionally.
    Call {
        /// The called module.
        callee: ModuleId,
        /// Caller-frame qubits bound to the callee's parameters.
        args: Vec<Operand>,
    },
    /// Mid-circuit measurement: record `qubit`'s value into the
    /// module-local classical bit `clbit`. Non-destructive in this
    /// IR's basis-state model.
    Measure {
        /// Qubit being read.
        qubit: Operand,
        /// Module-local classical-bit index (see [`Module::clbits`]).
        clbit: usize,
    },
    /// Classically controlled gate: `gate` fires iff the module-local
    /// classical bit `clbit` holds 1. Using a clbit before any
    /// `Measure` wrote it is a semantic error.
    CondGate {
        /// Module-local classical-bit index guarding the gate.
        clbit: usize,
        /// The guarded gate.
        gate: Gate<Operand>,
    },
}

/// A reversible function with the compute–store–uncompute structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) params: usize,
    pub(crate) ancillas: usize,
    /// Module-local classical bits (measurement targets / gate
    /// guards). 0 for the overwhelmingly common purely unitary module.
    pub(crate) clbits: usize,
    pub(crate) compute: Vec<Stmt>,
    pub(crate) store: Vec<Stmt>,
    /// Explicit uncompute block. `None` means "mechanically invert the
    /// executed compute block", which is what the paper's `Inverse()`
    /// helper produces and what almost every module uses.
    pub(crate) custom_uncompute: Option<Vec<Stmt>>,
}

impl Module {
    /// The module's name (for diagnostics and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of caller-provided qubits.
    pub fn params(&self) -> usize {
        self.params
    }

    /// Number of locally allocated ancilla qubits.
    pub fn ancillas(&self) -> usize {
        self.ancillas
    }

    /// Number of module-local classical bits (0 for purely unitary
    /// modules). Fresh program-wide [`crate::ClbitId`]s are minted for
    /// them at every frame activation.
    pub fn clbits(&self) -> usize {
        self.clbits
    }

    /// Statements of the compute block.
    pub fn compute(&self) -> &[Stmt] {
        &self.compute
    }

    /// Statements of the store block.
    pub fn store(&self) -> &[Stmt] {
        &self.store
    }

    /// Explicit uncompute block, if the author wrote one instead of
    /// relying on mechanical inversion.
    pub fn custom_uncompute(&self) -> Option<&[Stmt]> {
        self.custom_uncompute.as_deref()
    }

    /// Iterates over all statements in compute, store, and any custom
    /// uncompute block.
    pub fn all_stmts(&self) -> impl Iterator<Item = &Stmt> {
        self.compute
            .iter()
            .chain(self.store.iter())
            .chain(self.custom_uncompute.iter().flatten())
    }
}

/// A complete modular reversible program.
///
/// A `Program` is valid by construction: its fields are crate-private,
/// and the only ways to build one are [`crate::ProgramBuilder`], whose
/// checks [`crate::validate::validate_program`] replays, and
/// [`crate::lower_mcx`], which maps a valid program to a valid one.
/// Consumers need not validate it again.
///
/// **Callees before callers:** every [`Stmt::Call`] in a module targets
/// a module with a smaller id. The call graph is therefore acyclic, and
/// any fact that composes bottom-up over it (gate counts, ancilla
/// footprints, may-write sets) is one forward pass over
/// [`Program::modules`].
///
/// Equality is structural (same modules in the same order, same entry),
/// which is what the `.sq` round-trip guarantee in `square-lang` is
/// stated in terms of: `parse(pretty(p)) == p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) modules: Vec<Module>,
    pub(crate) entry: ModuleId,
}

impl Program {
    /// The entry module id.
    pub fn entry(&self) -> ModuleId {
        self.entry
    }

    /// Access a module by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// All modules, indexable by [`ModuleId::index`].
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Number of modules in the program.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when the program has no modules (never produced by the
    /// builder, which requires an entry module).
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Finds a module by name, if present.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name == name)
            .map(ModuleId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_display() {
        assert_eq!(Operand::Param(2).to_string(), "p2");
        assert_eq!(Operand::Ancilla(0).to_string(), "a0");
    }

    #[test]
    fn module_id_round_trip() {
        let id = ModuleId::from_index(7);
        assert_eq!(id.index(), 7);
    }
}
