use std::fmt;

use square_arch::PhysId;
use square_qir::VirtId;

/// Errors from placement and routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// Attempted to place a virtual qubit on an occupied physical slot.
    SlotOccupied {
        /// The contested physical qubit.
        phys: PhysId,
    },
    /// A gate or release referenced a virtual qubit with no placement.
    UnplacedQubit {
        /// The unknown virtual qubit.
        virt: VirtId,
    },
    /// Attempted to place a virtual qubit that already has a slot.
    AlreadyPlaced {
        /// The doubly placed virtual qubit.
        virt: VirtId,
    },
    /// The machine has no free physical qubit left.
    MachineFull,
    /// A multi-controlled X reached the machine. The back end takes
    /// only the lowered gate set (X, CX, CCX, SWAP, guarded or not);
    /// `square_qir::lower_mcx` rewrites every MCX into it.
    UnloweredMcx {
        /// Number of controls the gate had.
        controls: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::SlotOccupied { phys } => write!(f, "physical slot {phys} is occupied"),
            RouteError::UnplacedQubit { virt } => {
                write!(f, "virtual qubit {virt} has no placement")
            }
            RouteError::AlreadyPlaced { virt } => {
                write!(f, "virtual qubit {virt} is already placed")
            }
            RouteError::MachineFull => write!(f, "no free physical qubits"),
            RouteError::UnloweredMcx { controls } => write!(
                f,
                "mcx with {controls} controls reached the router; only lowered X/CX/CCX/SWAP gates \
                 can be routed"
            ),
        }
    }
}

impl std::error::Error for RouteError {}
