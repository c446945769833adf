use std::fmt;

use crate::module::ModuleId;

/// Errors produced while building or validating a [`crate::Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QirError {
    /// An operand index was out of range for the module that used it.
    OperandOutOfRange {
        /// Module in which the bad operand appeared.
        module: String,
        /// Human-readable description of the offending operand.
        operand: String,
    },
    /// A call referenced a module id that is not listed before the
    /// caller (callees precede their callers, so this also rejects a
    /// recursive call), or the entry id is not in the program.
    UnknownModule(ModuleId),
    /// A call passed the wrong number of arguments to its callee.
    ArityMismatch {
        /// Calling module name.
        caller: String,
        /// Called module name.
        callee: String,
        /// Number of parameters the callee declares.
        expected: usize,
        /// Number of arguments the call site passed.
        found: usize,
    },
    /// A call passed the same qubit for two different callee parameters.
    AliasedArguments {
        /// Calling module name.
        caller: String,
        /// Called module name.
        callee: String,
    },
    /// A gate used the same qubit twice (e.g. CNOT with control == target).
    DuplicatedQubit {
        /// Module in which the gate appeared.
        module: String,
    },
    /// The store block wrote a qubit that the compute block also writes,
    /// or wrote one of the module's own ancilla, breaking the Bennett
    /// compute–store–uncompute discipline (ancilla would not return to
    /// |0⟩ after uncomputation).
    StoreDiscipline {
        /// Module violating the discipline.
        module: String,
        /// Description of the offending qubit.
        detail: String,
    },
    /// The program's entry module must take no parameters from a caller;
    /// entry inputs are modeled as entry-module ancilla.
    EntryHasParams {
        /// Name of the entry module.
        module: String,
    },
    /// A measurement or classically controlled gate referenced a
    /// classical bit the module does not declare.
    ClbitOutOfRange {
        /// Module in which the bad clbit appeared.
        module: String,
        /// The referenced classical-bit index.
        clbit: usize,
        /// How many classical bits the module declares.
        declared: usize,
    },
    /// A classically controlled MCX had 3 or more controls. Lowering
    /// turns a wide MCX into a call, and a call cannot be guarded
    /// (classical bits are module-local), so the guarded form is
    /// limited to the X/CX/CCX widths.
    GuardedWideMcx {
        /// Module in which the gate appeared.
        module: String,
        /// Number of controls the guarded gate has.
        controls: usize,
    },
}

impl fmt::Display for QirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QirError::OperandOutOfRange { module, operand } => {
                write!(f, "operand {operand} out of range in module `{module}`")
            }
            QirError::UnknownModule(id) => write!(f, "unknown module id {id:?}"),
            QirError::ArityMismatch {
                caller,
                callee,
                expected,
                found,
            } => write!(
                f,
                "call from `{caller}` to `{callee}` passes {found} arguments, expected {expected}"
            ),
            QirError::AliasedArguments { caller, callee } => write!(
                f,
                "call from `{caller}` to `{callee}` passes the same qubit twice"
            ),
            QirError::DuplicatedQubit { module } => {
                write!(f, "gate uses the same qubit twice in module `{module}`")
            }
            QirError::StoreDiscipline { module, detail } => {
                write!(
                    f,
                    "store discipline violated in module `{module}`: {detail}"
                )
            }
            QirError::EntryHasParams { module } => {
                write!(f, "entry module `{module}` must not declare parameters")
            }
            QirError::ClbitOutOfRange {
                module,
                clbit,
                declared,
            } => {
                write!(
                    f,
                    "classical bit c{clbit} out of range in module `{module}` ({declared} declared)"
                )
            }
            QirError::GuardedWideMcx { module, controls } => write!(
                f,
                "guarded mcx with {controls} controls in module `{module}`: a guarded gate takes \
                 at most 2 controls (AND the controls into an ancilla with `mcx`, then guard a `cx`)"
            ),
        }
    }
}

impl std::error::Error for QirError {}
