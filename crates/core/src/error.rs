use std::fmt;

use square_qir::QirError;
use square_route::RouteError;

use crate::policy::Policy;

/// Errors surfaced by the SQUARE compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The input program failed validation.
    Qir(QirError),
    /// Placement/routing failed (an internal invariant, or a machine
    /// misconfiguration such as placing two qubits on one slot).
    Route(RouteError),
    /// The machine ran out of physical qubits. The paper's Fig. 1
    /// "too many qubits" failure mode: the policy reserved more
    /// qubits than the machine has (or than the `budget:N` cap
    /// allows). Retry with a larger machine, a larger budget, or a
    /// more eager policy.
    OutOfQubits {
        /// Qubits the failing allocation requested.
        requested: usize,
        /// Machine capacity (physical qubits, before any budget cap).
        capacity: usize,
        /// Qubits live at the failure point.
        live: usize,
        /// The policy that was running when allocation failed.
        policy: Policy,
        /// The `budget:N` cap in effect, if any.
        budget: Option<usize>,
        /// Name of the module whose allocation failed, when known.
        module: Option<String>,
        /// For budgeted failures: a lower bound on the smallest budget
        /// that could have satisfied this allocation (live + requested
        /// after exhausting every early-uncompute candidate).
        min_feasible: Option<usize>,
    },
    /// The program would auto-size its machine past
    /// [`ArchSpec::MAX_QUBITS`](crate::ArchSpec::MAX_QUBITS): refused
    /// before any per-qubit state is allocated, because an allocation
    /// failure aborts the process instead of unwinding.
    MachineTooLarge {
        /// Qubits the auto-sized layout would have to hold.
        qubits: usize,
        /// The limit, [`ArchSpec::MAX_QUBITS`](crate::ArchSpec::MAX_QUBITS).
        limit: usize,
    },
    /// The entry nests calls deeper than
    /// [`MAX_CALL_DEPTH`](crate::executor::MAX_CALL_DEPTH): refused
    /// before the first frame, because the executor (and the reference
    /// semantics that validation runs) recurse once per call level, and
    /// a native stack overflow aborts the process.
    CallsTooDeep {
        /// Call levels below the entry
        /// ([`ModuleStats::height`](square_qir::analysis::ModuleStats::height)).
        depth: usize,
        /// The limit, [`MAX_CALL_DEPTH`](crate::executor::MAX_CALL_DEPTH).
        limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Qir(e) => write!(f, "invalid program: {e}"),
            CompileError::Route(e) => write!(f, "routing failure: {e}"),
            CompileError::OutOfQubits {
                requested,
                capacity,
                live,
                policy,
                budget,
                module,
                min_feasible,
            } => {
                write!(
                    f,
                    "out of qubits: requested {requested} with {live}/{capacity} in use ({policy}"
                )?;
                if let Some(n) = budget {
                    write!(f, ", budget:{n}")?;
                }
                write!(f, ")")?;
                if let Some(m) = module {
                    write!(f, " in module `{m}`")?;
                }
                if let Some(n) = min_feasible {
                    write!(f, "; minimum feasible budget ≥ {n}")?;
                }
                Ok(())
            }
            CompileError::MachineTooLarge { qubits, limit } => write!(
                f,
                "machine too large: the program needs an auto-sized machine of \
                 {qubits} qubits, over the {limit} (2^20) qubit limit"
            ),
            CompileError::CallsTooDeep { depth, limit } => write!(
                f,
                "calls too deep: the entry module nests calls {depth} levels deep, \
                 over the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Qir(e) => Some(e),
            CompileError::Route(e) => Some(e),
            CompileError::OutOfQubits { .. }
            | CompileError::MachineTooLarge { .. }
            | CompileError::CallsTooDeep { .. } => None,
        }
    }
}

impl From<QirError> for CompileError {
    fn from(e: QirError) -> Self {
        CompileError::Qir(e)
    }
}

impl From<RouteError> for CompileError {
    fn from(e: RouteError) -> Self {
        CompileError::Route(e)
    }
}
