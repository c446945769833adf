//! # square-repro — SQUARE (ISCA 2020) reproduction facade
//!
//! Re-exports the public API of the whole workspace so examples,
//! integration tests, and downstream users can depend on one crate.
//!
//! The system reproduces *SQUARE: Strategic Quantum Ancilla Reuse for
//! Modular Quantum Programs via Cost-Effective Uncomputation* (Ding et
//! al., ISCA 2020): a compiler that decides, per reversible-function
//! call, whether to uncompute ancilla qubits (reclaiming them at a gate
//! cost) or leave them as garbage (reserving qubits), optimizing the
//! *active quantum volume* of the program on NISQ and fault-tolerant
//! machines.
//!
//! See `README.md` for the workspace map, the paper → module table and
//! the `experiments` commands that regenerate every table and figure.

pub use square_arch as arch;
pub use square_bench as bench;
pub use square_core as core;
pub use square_lang as lang;
pub use square_metrics as metrics;
pub use square_qir as qir;
pub use square_route as route;
pub use square_sim as sim;
pub use square_verify as verify;
pub use square_workloads as workloads;
