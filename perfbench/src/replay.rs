//! Route replay: re-drives a compile's own virtual trace through a fresh
//! `square_route::Machine`, so routing and scheduling can be timed apart
//! from the executor's allocation and reclamation decisions
//! (`CompileReport::route_ns` spans the whole executor and cannot).
//!
//! Every `Alloc` is placed at the cell the compile recorded in its
//! placement history, so the replay makes no allocation decisions. The
//! timing is trusted only when the replay reproduces the report's
//! swaps, depth and AQV exactly.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use square_arch::{CommModel, PhysId, Topology};
use square_core::{CompileReport, CompilerConfig, RouterKind};
use square_qir::{Gate, TraceOp, VirtId};
use square_route::{Machine, MachineConfig, PlacementEvent, RouteError, RouterConfig};

/// Why a cell's route replay was not used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skip {
    /// The lookahead router reads a window the executor fills from the
    /// program's block structure; a flat trace cannot rebuild it.
    Lookahead,
    /// The report was compiled without schedule recording, so it has no
    /// placement history.
    NoHistory,
    /// An `Alloc` with no recorded placement.
    Unplaced(VirtId),
    /// The machine rejected an operation.
    Route(String),
    /// The replay ran but did not reproduce the report.
    Diverged {
        /// `(swaps, depth, aqv)` of the report.
        expected: (u64, u64, u64),
        /// `(swaps, depth, aqv)` of the replay.
        got: (u64, u64, u64),
    },
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skip::Lookahead => f.write_str("lookahead router (window not replayable)"),
            Skip::NoHistory => f.write_str("no placement history (recording off)"),
            Skip::Unplaced(v) => write!(f, "{v} has no recorded placement"),
            Skip::Route(e) => write!(f, "machine rejected the replay: {e}"),
            Skip::Diverged { expected, got } => write!(
                f,
                "replay diverged: (swaps, depth, aqv) {got:?} vs report {expected:?}"
            ),
        }
    }
}

impl From<RouteError> for Skip {
    fn from(e: RouteError) -> Self {
        Skip::Route(e.to_string())
    }
}

/// The machine configuration the executor used for `config`: braiding
/// never consults the swap-chain router, so it is normalised to greedy
/// exactly as the executor does.
fn machine_config(config: &CompilerConfig) -> MachineConfig {
    let router = match config.comm {
        CommModel::SwapChains => config.router,
        CommModel::Braiding => RouterConfig {
            kind: RouterKind::Greedy,
            ..config.router
        },
    };
    MachineConfig {
        comm: config.comm,
        record_schedule: false,
        router,
    }
}

/// Replays `report` (compiled under `config` with schedule recording
/// on) on `topo` and returns the time spent driving the machine, from
/// the first placement through `finish`.
///
/// # Errors
///
/// A [`Skip`] saying why the cell has no trustworthy replay time.
pub fn replay(
    report: &CompileReport,
    config: &CompilerConfig,
    topo: Arc<dyn Topology>,
) -> Result<Duration, Skip> {
    let machine_config = machine_config(config);
    if machine_config.comm == CommModel::SwapChains
        && machine_config.router.kind != RouterKind::Greedy
    {
        return Err(Skip::Lookahead);
    }
    let history = report.placement_history.as_deref().ok_or(Skip::NoHistory)?;
    let placed: HashMap<VirtId, PhysId> = history
        .iter()
        .filter_map(|e| match *e {
            PlacementEvent::Place { virt, phys } => Some((virt, phys)),
            _ => None,
        })
        .collect();

    let start = Instant::now();
    let mut machine = Machine::with_shared(topo, machine_config);
    let mut layer: Vec<Gate<VirtId>> = Vec::new();
    let trace = &report.trace;
    let mut i = 0;
    while i < trace.len() {
        // A maximal run of gates routes as one layer, as the executor
        // batches it (bit-identical to gate-at-a-time routing).
        if let TraceOp::Gate(_) = &trace[i] {
            layer.clear();
            while let Some(TraceOp::Gate(g)) = trace.get(i) {
                layer.push(g.clone());
                i += 1;
            }
            machine.apply_layer(&layer)?;
            machine.drain_relocations();
            continue;
        }
        match &trace[i] {
            TraceOp::Alloc(v) => {
                let phys = *placed.get(v).ok_or(Skip::Unplaced(*v))?;
                machine.place_at(*v, phys)?;
            }
            TraceOp::Free(v) => {
                machine.release(*v)?;
            }
            TraceOp::Measure { qubit, clbit } => {
                machine.measure(*qubit, *clbit)?;
            }
            TraceOp::CondGate { clbit, gate } => {
                machine.apply_guarded(gate, *clbit)?;
                machine.drain_relocations();
            }
            TraceOp::Gate(_) => unreachable!("gate runs are handled above"),
        }
        i += 1;
    }
    let finished = machine.finish();
    let elapsed = start.elapsed();

    let aqv = square_metrics::aqv(finished.segments.iter().map(|s| (s.start, s.end)));
    let got = (finished.stats.swaps, finished.depth, aqv);
    let expected = (report.swaps, report.depth, report.aqv);
    if got == expected {
        Ok(elapsed)
    } else {
        Err(Skip::Diverged { expected, got })
    }
}
