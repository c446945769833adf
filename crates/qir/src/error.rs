use std::fmt;

use crate::module::{ModuleId, Operand};

/// Errors produced while building or validating a [`crate::Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QirError {
    /// An operand index was out of range for the module that used it.
    OperandOutOfRange {
        /// Module in which the bad operand appeared.
        module: String,
        /// The offending operand.
        operand: Operand,
        /// How many qubits of the operand's kind the module declares.
        declared: usize,
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
        /// The earliest argument that is passed again later.
        operand: Operand,
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
        /// Number of parameters it declares.
        params: usize,
    },
    /// A measurement or classically controlled gate referenced a
    /// classical bit the module does not declare.
    ClbitOutOfRange {
        /// Module in which the bad clbit appeared.
        module: String,
        /// The referenced classical-bit index.
        clbit: usize,
        /// How many classical bits the module declares; `usize::MAX`
        /// when it sizes them on demand.
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
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        match self {
            QirError::OperandOutOfRange {
                module,
                operand,
                declared,
            } => {
                let kind = match operand {
                    Operand::Param(_) => "param",
                    Operand::Ancilla(_) => "ancilla",
                };
                write!(
                    f,
                    "operand `{operand}` is out of range: module `{module}` declares {declared} \
                     {kind}{}",
                    plural(*declared)
                )
            }
            QirError::UnknownModule(id) => write!(f, "unknown module id {id:?}"),
            QirError::ArityMismatch {
                callee,
                expected,
                found,
                ..
            } => write!(
                f,
                "call to `{callee}` passes {found} argument{}, but it declares {expected} param{}",
                plural(*found),
                plural(*expected)
            ),
            QirError::AliasedArguments {
                callee, operand, ..
            } => write!(
                f,
                "call to `{callee}` passes `{operand}` for two different parameters"
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
            QirError::EntryHasParams { module, params } => write!(
                f,
                "entry module `{module}` declares {params} params; the entry takes no caller qubits"
            ),
            QirError::ClbitOutOfRange {
                module,
                clbit,
                declared,
            } => {
                write!(
                    f,
                    "classical bit `c{clbit}` is out of range: module `{module}` "
                )?;
                match *declared {
                    // On-demand sizing covers every index but the last.
                    usize::MAX => write!(
                        f,
                        "has no `clbits` clause, and on-demand sizing stops at `c{}`",
                        usize::MAX - 1
                    ),
                    n => write!(f, "declares {n} clbit{}", plural(n)),
                }
            }
            QirError::GuardedWideMcx { module, controls } => write!(
                f,
                "guarded `mcx` has {controls} controls in module `{module}`; a guarded gate takes \
                 at most 2"
            ),
        }
    }
}

impl std::error::Error for QirError {}
