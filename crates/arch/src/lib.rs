//! # square-arch — machine models for the SQUARE compiler
//!
//! Describes the target architectures of the paper's evaluation:
//!
//! * **NISQ**: a 2-D lattice of physical qubits with nearest-neighbour
//!   coupling (the layout used by IBM/Google-style superconducting
//!   devices), a fully-connected model (trapped ions, IonQ), and a
//!   linear chain for stress tests. Long-distance two-qubit gates are
//!   resolved with *swap chains* whose latency grows with distance.
//! * **FT**: surface-code logical qubits laid out on a 2-D tile grid
//!   with routing channels; two-qubit gates are resolved by *braiding*
//!   — constant-time paths that may not cross (see `square-route`).
//!
//! The crate also carries the device noise parameters of Table IV,
//! consumed by the analytical success-rate model and the Monte-Carlo
//! noise simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coupling;
pub mod device;
pub mod layouts;
pub mod topology;

pub use coupling::{CouplingGraph, FlatTables};
pub use device::{CommModel, NoiseParams};
pub use layouts::{HeavyHexTopology, RingTopology};
pub use topology::{FullTopology, GridTopology, LineTopology, PhysId, Topology};
