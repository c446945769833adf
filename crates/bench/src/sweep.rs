//! Policy sweeps, two kinds:
//!
//! 1. **Product sweep** ([`SweepSpec`] → [`run_sweep`] → [`SweepMatrix`]):
//!    the general `benchmarks × policies × architectures` executor.
//!    Every cell compiles independently, so the matrix is evaluated in
//!    parallel with rayon; the result keeps the full [`CompileReport`]
//!    per cell and serializes to JSON for downstream tooling (the
//!    `experiments` binary's `--json` mode). This is the harness for
//!    Reqomp-style space/gate trade-off frontiers: wide, cheap
//!    coverage of the configuration space.
//!
//! 2. **Machine-size sweep** ([`compute`] / [`render`], Section V
//!    intro: "experiments that sweep a large range of system sizes"):
//!    for one benchmark, compile each policy across machine sizes from
//!    "barely fits Eager" to "comfortably fits Lazy" — the
//!    quantitative version of Fig. 1's capacity lines.

use std::time::Instant;

use rayon::prelude::*;
use serde::{Serialize, Value};
use square_core::{
    compile, error_json, report_json, ArchSpec, CompileError, CompileReport, CompilerConfig,
    Policy, RouterKind, SweepArch,
};
use square_workloads::{build, Benchmark};

// ---------------------------------------------------------------------------
// Product sweep: SweepSpec × rayon → SweepMatrix
// ---------------------------------------------------------------------------

/// The product to evaluate: every `(benchmark, policy, arch)` cell.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Benchmarks (rows).
    pub benchmarks: Vec<Benchmark>,
    /// Policies (columns).
    pub policies: Vec<Policy>,
    /// Architectures (planes).
    pub archs: Vec<SweepArch>,
    /// Swap-chain routers (hyper-planes; `Greedy` alone reproduces
    /// the historical single-router sweeps cell for cell).
    pub routers: Vec<RouterKind>,
    /// Qubit-budget caps (the fifth axis). `None` is the unbudgeted
    /// base policy; `Some(n)` compiles the same cell under a hard
    /// width cap of `n` machine qubits (`--policy square,budget:n`).
    pub budgets: Vec<Option<usize>>,
}

impl SweepSpec {
    /// The default sweep: the paper's NISQ benchmark set under every
    /// policy on the auto-sized NISQ lattice.
    pub fn nisq_default() -> Self {
        SweepSpec {
            benchmarks: Benchmark::NISQ.to_vec(),
            policies: Policy::ALL.to_vec(),
            archs: vec![SweepArch::NisqAuto],
            routers: vec![RouterKind::Greedy],
            budgets: vec![None],
        }
    }

    /// Number of cells in the product. Braided architectures
    /// contribute one cell regardless of the router axis (see
    /// [`SweepSpec::cells`]).
    pub fn len(&self) -> usize {
        let per_arch: usize = self
            .archs
            .iter()
            .map(|a| {
                if a.is_braided() {
                    1
                } else {
                    self.routers.len()
                }
            })
            .sum();
        self.benchmarks.len() * self.policies.len() * per_arch * self.budgets.len().max(1)
    }

    /// True when any axis is empty (nothing to run).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All cells of the product, benchmark-major (router innermost).
    /// Braided architectures never consult the swap-chain router, so
    /// they emit a single greedy-labelled cell instead of one
    /// byte-identical cell per requested router.
    pub fn cells(&self) -> Vec<(Benchmark, Policy, SweepArch, RouterKind, Option<usize>)> {
        // An unset budget axis means the classic unbudgeted product.
        let budgets: &[Option<usize>] = if self.budgets.is_empty() {
            &[None]
        } else {
            &self.budgets
        };
        let mut cells = Vec::with_capacity(self.len());
        for &bench in &self.benchmarks {
            for &arch in &self.archs {
                let routers: &[RouterKind] = if arch.is_braided() {
                    &[RouterKind::Greedy]
                } else {
                    &self.routers
                };
                for &policy in &self.policies {
                    for &router in routers {
                        for &budget in budgets {
                            cells.push((bench, policy, arch, router, budget));
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One evaluated cell of the sweep matrix.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Benchmark compiled.
    pub benchmark: Benchmark,
    /// Policy used.
    pub policy: Policy,
    /// Architecture targeted.
    pub arch: SweepArch,
    /// Swap-chain router used.
    pub router: RouterKind,
    /// Qubit-budget cap the cell compiled under (`None` = unbudgeted).
    pub budget: Option<usize>,
    /// The compile outcome: a full report, or the failure (e.g.
    /// [`CompileError::OutOfQubits`] when the policy does not fit).
    pub report: Result<CompileReport, CompileError>,
    /// Wall-clock compile time for this cell, milliseconds.
    pub compile_ms: f64,
}

/// The evaluated matrix: every cell of the [`SweepSpec`] product, in
/// benchmark-major order, plus end-to-end wall time.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    /// Evaluated cells (same order as [`SweepSpec::cells`]).
    pub cells: Vec<SweepCell>,
    /// End-to-end wall time of the parallel run, milliseconds.
    pub wall_ms: f64,
}

impl SweepMatrix {
    /// Looks up one cell (the first matching one when the sweep ran
    /// several routers; use [`SweepMatrix::get_router`] to pin one).
    pub fn get(&self, bench: Benchmark, policy: Policy, arch: SweepArch) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == bench && c.policy == policy && c.arch == arch)
    }

    /// Looks up one cell of a specific router.
    pub fn get_router(
        &self,
        bench: Benchmark,
        policy: Policy,
        arch: SweepArch,
        router: RouterKind,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.benchmark == bench && c.policy == policy && c.arch == arch && c.router == router
        })
    }

    /// Renders the matrix as an aligned text table (AQV per cell;
    /// `-` marks fit failures).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:<10} {:<18} {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
            "benchmark",
            "arch",
            "policy",
            "router",
            "aqv",
            "gates",
            "swaps",
            "depth",
            "qubits",
            "time"
        ));
        for cell in &self.cells {
            let policy_label = match cell.budget {
                Some(n) => format!("{} b:{n}", cell.policy.label()),
                None => cell.policy.label().to_string(),
            };
            match &cell.report {
                Ok(r) => out.push_str(&format!(
                    "{:<12} {:<10} {:<18} {:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7.0}ms\n",
                    cell.benchmark.name(),
                    cell.arch.to_string(),
                    policy_label,
                    cell.router.cli_name(),
                    r.aqv,
                    r.gates,
                    r.swaps,
                    r.depth,
                    r.qubits,
                    cell.compile_ms,
                )),
                Err(e) => out.push_str(&format!(
                    "{:<12} {:<10} {:<18} {:<10} {:>10} ({e})\n",
                    cell.benchmark.name(),
                    cell.arch.to_string(),
                    policy_label,
                    cell.router.cli_name(),
                    "-",
                )),
            }
        }
        out.push_str(&format!(
            "\n{} cells in {:.0}ms wall\n",
            self.cells.len(),
            self.wall_ms
        ));
        out
    }
}

impl Serialize for SweepCell {
    fn serialize(&self) -> Value {
        let (ok, err) = match &self.report {
            Ok(r) => (report_json(r), Value::Null),
            Err(e) => (Value::Null, Value::String(e.to_string())),
        };
        let mut fields = vec![
            (
                "benchmark",
                Value::String(self.benchmark.name().to_string()),
            ),
            ("policy", Value::String(self.policy.cli_name().to_string())),
            ("arch", Value::String(self.arch.to_string())),
            ("router", Value::String(self.router.cli_name().to_string())),
        ];
        if let Some(n) = self.budget {
            fields.push(("budget", Value::UInt(n as u64)));
        }
        fields.push(("report", ok));
        fields.push(("error", err));
        if let Err(e) = &self.report {
            fields.push(("error_detail", error_json(e)));
        }
        fields.push(("compile_ms", Value::Float(self.compile_ms)));
        Value::map(fields)
    }
}

impl Serialize for SweepMatrix {
    fn serialize(&self) -> Value {
        Value::map([
            ("cells", Value::seq(&self.cells)),
            ("wall_ms", Value::Float(self.wall_ms)),
        ])
    }
}

/// Evaluates every cell of `spec` concurrently (rayon over the full
/// `benchmark × policy × arch` product; each worker builds its own
/// program instance, so cells share nothing and scale with cores).
pub fn run_sweep(spec: &SweepSpec) -> SweepMatrix {
    run_sweep_with_progress(spec, |_| {})
}

/// [`run_sweep`] with a per-completed-cell callback, invoked from the
/// worker threads as cells finish. Callers that print progress must
/// route it to **stderr** — stdout is reserved for the machine-
/// readable matrix (`experiments --json | jq` must stay valid JSON).
pub fn run_sweep_with_progress(
    spec: &SweepSpec,
    progress: impl Fn(&SweepCell) + Sync,
) -> SweepMatrix {
    let start = Instant::now();
    let cells: Vec<SweepCell> = spec
        .cells()
        .into_par_iter()
        .map(|(benchmark, policy, arch, router, budget)| {
            let cell_start = Instant::now();
            let report = build(benchmark)
                .map_err(CompileError::from)
                .and_then(|program| {
                    compile(
                        &program,
                        &arch.config(policy).with_router(router).with_budget(budget),
                    )
                });
            let cell = SweepCell {
                benchmark,
                policy,
                arch,
                router,
                budget,
                report,
                compile_ms: cell_start.elapsed().as_secs_f64() * 1e3,
            };
            progress(&cell);
            cell
        })
        .collect();
    SweepMatrix {
        cells,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

// ---------------------------------------------------------------------------
// Machine-size sweep (the quantitative Fig. 1)
// ---------------------------------------------------------------------------

/// One (machine size, policy) point.
#[derive(Debug)]
pub struct SweepPoint {
    /// Machine qubit count (side²).
    pub machine: usize,
    /// Policy.
    pub policy: Policy,
    /// AQV if the program fit, `None` if it ran out of qubits.
    pub aqv: Option<u64>,
}

/// Sweeps machine sizes for `bench` between the Eager peak and ~1.3×
/// the Lazy peak, in `steps` geometric steps.
pub fn compute(bench: Benchmark, steps: usize) -> Vec<SweepPoint> {
    let program = build(bench).expect("benchmark builds");
    let lazy_probe =
        compile(&program, &CompilerConfig::nisq(Policy::Lazy)).expect("auto-grid probe");
    let eager_probe =
        compile(&program, &CompilerConfig::nisq(Policy::Eager)).expect("auto-grid probe");
    let lo = (eager_probe.peak_active as f64 * 0.9).max(4.0);
    let hi = lazy_probe.peak_active as f64 * 1.3;
    let mut points = Vec::new();
    for i in 0..steps {
        let f = i as f64 / (steps.max(2) - 1) as f64;
        let cap = lo * (hi / lo).powf(f);
        let side = (cap.sqrt().ceil() as u32).max(2);
        let arch = ArchSpec::Grid {
            width: side,
            height: side,
        };
        for policy in Policy::BASELINE_THREE {
            let report = compile(&program, &CompilerConfig::nisq(policy).with_arch(arch));
            points.push(SweepPoint {
                machine: (side * side) as usize,
                policy,
                aqv: report.ok().map(|r| r.aqv),
            });
        }
    }
    points
}

/// Renders the machine-size sweep for MODEXP.
pub fn render() -> String {
    let bench = Benchmark::Modexp;
    let mut out = String::new();
    out.push_str("Machine-size sweep — MODEXP (AQV per policy; '-' = does not fit)\n\n");
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>12}\n",
        "Machine", "LAZY", "EAGER", "SQUARE"
    ));
    let points = compute(bench, 8);
    let mut machines: Vec<usize> = points.iter().map(|p| p.machine).collect();
    machines.sort_unstable();
    machines.dedup();
    for m in machines {
        out.push_str(&format!("{m:>8}"));
        for policy in Policy::BASELINE_THREE {
            let p = points
                .iter()
                .find(|p| p.machine == m && p.policy == policy)
                .unwrap();
            match p.aqv {
                Some(a) => out.push_str(&format!(" {a:>12}")),
                None => out.push_str(&format!(" {:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str(
        "\nLazy needs the largest machine; SQUARE fits everywhere Eager does\n\
         (forced reclamation under pressure) with less volume.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_fits_wherever_eager_fits() {
        let points = compute(Benchmark::Modexp, 5);
        for m in points
            .iter()
            .map(|p| p.machine)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let get = |policy: Policy| {
                points
                    .iter()
                    .find(|p| p.machine == m && p.policy == policy)
                    .unwrap()
            };
            if get(Policy::Eager).aqv.is_some() {
                assert!(
                    get(Policy::Square).aqv.is_some(),
                    "machine {m}: SQUARE failed where Eager fit"
                );
            }
        }
    }

    #[test]
    fn lazy_fails_on_small_machines() {
        let points = compute(Benchmark::Modexp, 5);
        let smallest = points.iter().map(|p| p.machine).min().unwrap();
        let lazy_small = points
            .iter()
            .find(|p| p.machine == smallest && p.policy == Policy::Lazy)
            .unwrap();
        assert!(
            lazy_small.aqv.is_none(),
            "Lazy unexpectedly fit the Eager-sized machine"
        );
    }

    #[test]
    fn product_sweep_fills_every_cell() {
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Rd53, Benchmark::Adder4],
            policies: vec![Policy::Lazy, Policy::Square],
            archs: vec![SweepArch::NisqAuto],
            routers: vec![RouterKind::Greedy],
            budgets: vec![None],
        };
        let matrix = run_sweep(&spec);
        assert_eq!(matrix.cells.len(), spec.len());
        for cell in &matrix.cells {
            let report = cell.report.as_ref().expect("auto-sized cells fit");
            assert!(report.aqv > 0, "{}: zero AQV", cell.benchmark);
        }
        assert!(matrix
            .get(Benchmark::Rd53, Policy::Square, SweepArch::NisqAuto)
            .is_some());
    }

    #[test]
    fn sweep_matrix_serializes_to_json() {
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Rd53],
            policies: vec![Policy::Square],
            archs: vec![SweepArch::NisqAuto, SweepArch::FtAuto],
            routers: vec![RouterKind::Greedy],
            budgets: vec![None],
        };
        let matrix = run_sweep(&spec);
        let json = serde_json::to_string(&matrix).expect("serializes");
        assert!(json.contains("\"benchmark\":\"RD53\""));
        assert!(json.contains("\"arch\":\"ft\""));
        assert!(json.contains("\"aqv\":"));
    }

    #[test]
    fn budget_axis_multiplies_cells_and_keys_json() {
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Rd53],
            policies: vec![Policy::Square],
            archs: vec![SweepArch::NisqAuto],
            routers: vec![RouterKind::Greedy],
            budgets: vec![None, Some(64)],
        };
        assert_eq!(spec.len(), 2);
        let matrix = run_sweep(&spec);
        let json = serde_json::to_string(&matrix).unwrap();
        // The budgeted cell carries the budget + recompute keys; the
        // unbudgeted cell's JSON stays on the pre-budget schema.
        assert!(json.contains("\"budget\":64"), "{json}");
        assert!(json.contains("\"recompute\":"), "{json}");
        let unbudgeted = &matrix.cells[0];
        assert!(unbudgeted.budget.is_none());
        let cell_json = serde_json::to_string(unbudgeted).unwrap();
        assert!(!cell_json.contains("\"budget\""), "{cell_json}");
        assert!(!cell_json.contains("\"recompute\""), "{cell_json}");
    }

    #[test]
    fn out_of_qubits_errors_serialize_structured_detail() {
        // RD53 under lazy,budget:4 is unsatisfiable: the error detail
        // must carry the typed kind and the minimum feasible budget.
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Rd53],
            policies: vec![Policy::Lazy],
            archs: vec![SweepArch::NisqAuto],
            routers: vec![RouterKind::Greedy],
            budgets: vec![Some(4)],
        };
        let matrix = run_sweep(&spec);
        assert!(matrix.cells[0].report.is_err());
        let json = serde_json::to_string(&matrix).unwrap();
        assert!(json.contains("\"kind\":\"out_of_qubits\""), "{json}");
        assert!(json.contains("\"min_feasible\":"), "{json}");
    }

    #[test]
    fn failed_cells_report_the_error() {
        // A 2×2 machine cannot fit RD53 under any policy.
        let spec = SweepSpec {
            benchmarks: vec![Benchmark::Rd53],
            policies: vec![Policy::Lazy],
            archs: vec![SweepArch::Grid {
                width: 2,
                height: 2,
            }],
            routers: vec![RouterKind::Greedy],
            budgets: vec![None],
        };
        let matrix = run_sweep(&spec);
        assert_eq!(matrix.cells.len(), 1);
        assert!(matrix.cells[0].report.is_err());
        let json = serde_json::to_string(&matrix).unwrap();
        assert!(json.contains("\"report\":null"));
        assert!(json.contains("out of qubits"));
    }
}
