//! # square-sim — Monte-Carlo noisy execution of scheduled circuits
//!
//! Substitutes for the paper's IBM Qiskit Aer noise simulations
//! (Section V-C3). Every circuit SQUARE compiles is *classical
//! reversible* (X / CNOT / Toffoli / SWAP), so a computational-basis
//! input remains a basis state throughout execution. Under the
//! paper's noise channels this admits an exact trajectory treatment:
//!
//! * **Depolarizing gate noise** applies a uniformly random non-identity
//!   Pauli with probability `p`; `Z`-type errors only contribute a
//!   global phase to a basis state, while `X`/`Y`-type errors flip the
//!   bit. Sampling the Pauli exactly reproduces the measurement
//!   distribution a density-matrix simulation would produce.
//! * **Thermal relaxation** (`T1`) sends |1⟩ → |0⟩ with probability
//!   `1 − exp(−t/T1)` over an interval `t`; pure dephasing (`T2`) has
//!   no observable effect on basis states.
//!
//! A trajectory therefore tracks one boolean state vector, injecting
//! stochastic flips per gate (in the gate's Clifford+T decomposition,
//! matching the analytical model's accounting) and per idle interval.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod noise;
pub mod trajectory;

pub use noise::NoiseModel;
pub use trajectory::{run_ideal, run_noisy, sample_histogram, TrajectoryConfig};
