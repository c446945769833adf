//! # square-bench — the experiment harness
//!
//! One module per artifact of the paper's evaluation section; the
//! `experiments` binary regenerates any of them (`-- all` for the full
//! set; README.md lists the commands). [`baseline`] is the one
//! benchmark gate (`bench_gate`) over compile, executor and
//! compile-service cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod baseline;
pub mod fig1;
pub mod fig10;
pub mod fig5;
pub mod fig8;
pub mod fig9;
pub mod runner;
pub mod sweep;
pub mod table3;
pub mod table4;

pub use baseline::{Baseline, BenchSet, GateReport, Layer, MeasuredCell};
pub use runner::{lattice_for, run_policies, ExperimentResult};
pub use square_core::{error_json, report_json, SweepArch};
pub use sweep::{run_sweep, run_sweep_with_progress, SweepCell, SweepMatrix, SweepSpec};
