//! # square-core — the SQUARE compiler
//!
//! The paper's primary contribution: an instrumentation-driven compiler
//! that executes a modular reversible program's (fully known) control
//! flow at compile time, deciding at every `Allocate` which physical
//! qubit to use (**LAA** — locality-aware allocation, Algorithm 1) and
//! at every `Free` whether to uncompute and reclaim or leave garbage
//! (**CER** — cost-effective reclamation, Algorithm 2), while an ASAP
//! scheduler with swap-chain / braid routing tracks the machine-level
//! consequences of every decision online.
//!
//! Four policies are provided (Table I): `Eager`, `Lazy`, `Square`
//! (LAA + CER) and `SquareLaaOnly` (LAA with Eager reclamation —
//! the "SQUARE (LAA only)" bars of Figs. 8a/9/10).
//!
//! ```
//! use square_core::{compile, CompilerConfig, Policy};
//! use square_qir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.module("main", 0, 3, |m| {
//!     let (x, s, out) = (m.ancilla(0), m.ancilla(1), m.ancilla(2));
//!     m.x(x);
//!     m.cx(x, s);
//!     m.store();
//!     m.cx(s, out);
//! })?;
//! let program = b.finish(main)?;
//! let report = compile(&program, &CompilerConfig::nisq(Policy::Square)).unwrap();
//! assert!(report.aqv > 0);
//! # Ok::<(), square_qir::QirError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cer;
pub mod config;
pub mod executor;
pub mod laa;
pub mod policy;
pub mod report;

mod error;

pub use cer::ModuleCostTable;
pub use config::{ArchSpec, ArchSpecParseError, CerParams, CompilerConfig, SweepArch};
pub use error::CompileError;
pub use executor::{
    build_topology, compile, compile_checked, compile_prepared, compile_prepared_on,
    compile_with_inputs, PreparedProgram, MAX_CALL_DEPTH,
};
pub use policy::{BudgetPolicy, Policy};
pub use report::{
    error_json, report_json, BudgetOutcome, CerCacheStats, CompileReport, MbuStats,
    ReclaimDecision, RecomputeStats,
};
// Router selection is part of the compiler configuration; re-export
// the kind so downstream crates need not depend on square-route.
pub use square_route::RouterKind;
