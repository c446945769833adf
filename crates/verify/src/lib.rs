//! # square-verify — translation validation for the SQUARE compiler
//!
//! SQUARE's entire value proposition rests on uncomputation and
//! ancilla reuse being *semantics-preserving*. This crate closes the
//! loop end to end: the fully routed and scheduled physical gate
//! stream — inserted SWAP chains, relocated pooled |0⟩ cells,
//! mid-circuit qubit recycling — is replayed on a basis-state vector,
//! read back through the placement history, and diff-checked against
//! the reference bit-level semantics (`square_qir::sem`) running under
//! the compiler's own recorded reclamation decisions.
//!
//! Three oracle layers (see [`validate()`]):
//!
//! 1. virtual-trace replay with ancilla-hygiene checking,
//! 2. reference semantics under the recorded decision log,
//! 3. physical schedule replay + per-qubit ASAP consistency, streamed
//!    from the machine as gates are emitted (no recorded schedule).
//!
//! On top sits the seeded **pipeline fuzzer** ([`fuzz`]): one
//! meta-seed derives a random modular program and input pattern;
//! every `policy × machine × router` cell — lattice, FT, heavy-hex,
//! and ring targets, greedy and lookahead routers — must validate and
//! agree on the observable output. Failing cases shrink greedily to a one-line
//! reproducer (driven by the `fuzz_pipeline` binary in
//! `square-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod validate;

pub use fuzz::{run_case, shrink, CaseStats, FuzzCase, FuzzFailure};
pub use validate::{
    check_physical, check_reference, default_inputs, replay_virtual, validate, validate_benchmark,
    validate_benchmark_with, Mismatch, Stage, Validated, ValidationError,
};
