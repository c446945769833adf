//! # square-qir — reversible-program intermediate representation
//!
//! The IR for modular reversible quantum programs used by the SQUARE
//! compiler (Ding et al., ISCA 2020). A [`Program`] is a collection of
//! [`Module`]s forming a call DAG; each module follows the paper's
//! *Compute–Store–Uncompute* construct (Fig. 6 of the paper): ancilla
//! qubits are allocated on entry, a `compute` block builds intermediate
//! results on them, a `store` block copies results out, and an
//! (implicit, mechanically derived) `uncompute` block can undo the
//! compute block so the ancilla return to |0⟩ and may be reclaimed.
//!
//! Only classical reversible gates appear here (X, CNOT, Toffoli, SWAP
//! and multi-controlled X): the paper's optimization targets the
//! classical-arithmetic portions of quantum algorithms, which these
//! gates express. All of them are self-inverse, which the mechanical
//! uncomputation in [`trace`] exploits.
//!
//! ```
//! use square_qir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! // fun1 from Fig. 6 of the paper: 4 params, 1 ancilla.
//! let fun1 = b.module("fun1", 4, 1, |m| {
//!     let (i0, i1, i2, out) = (m.param(0), m.param(1), m.param(2), m.param(3));
//!     let a = m.ancilla(0);
//!     m.ccx(i0, i1, i2);
//!     m.cx(i2, a);
//!     m.ccx(i1, i0, a);
//!     m.store();
//!     m.cx(a, out);
//! })?;
//! let main = b.module("main", 0, 4, |m| {
//!     let q: Vec<_> = (0..4).map(|i| m.ancilla(i)).collect();
//!     m.call(fun1, &q);
//! })?;
//! let program = b.finish(main)?;
//! assert_eq!(program.module(fun1).name(), "fun1");
//! # Ok::<(), square_qir::QirError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod gate;
pub mod lower;
pub mod module;
pub mod pretty;
pub mod sem;
pub mod trace;
pub mod validate;

mod error;

pub use analysis::{scan_mbu_slice, MbuPlan, ModuleStats, ProgramStats, SliceClassCounts};
pub use builder::{ModuleBuilder, ProgramBuilder};
pub use error::QirError;
pub use gate::Gate;
pub use lower::lower_mcx;
pub use module::{Module, ModuleId, Operand, Program, Stmt};
pub use sem::{BitState, ReclaimOracle, RecordedDecisions};
pub use trace::{invert_slice, invert_slice_into, ClbitId, Clbits, TraceOp, VirtId};
