//! # square-metrics — resource metrics for SQUARE
//!
//! Implements the paper's figure of merit, **active quantum volume**
//! (Section III-B): the sum over qubits of their live-interval
//! durations, i.e. the area under the qubits-in-use vs. time curve of
//! Fig. 1. Heap time (after reclamation, before reuse) is excluded —
//! a reclaimed qubit rests in |0⟩ and is not exposed to decoherence.
//!
//! Also provides the worst-case analytical success-rate model used in
//! Fig. 8b (product of scheduled-gate success probabilities and qubit
//! coherence over the circuit depth)
//! and the total-variation distance used to score noisy-simulation
//! outcomes in Fig. 8c.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aqv;
pub mod success;
pub mod tvd;

pub use aqv::{aqv, UsageCurve};
pub use success::worst_case_success;
pub use tvd::{total_variation_distance, Histogram};
