//! Ablation study of SQUARE's design choices.
//!
//! Three knobs are swept against the defaults:
//!
//! * the recursive-recomputation base of Eq. 1 — the paper's literal
//!   worst case `2^ℓ` vs. our adaptive `(1+ρ)^ℓ`;
//! * the scope of Eq. 1's `N_active` — machine-wide (literal) vs. the
//!   frame's working set;
//! * the capacity-pressure threshold that forces reclamation.
//!
//! The output quantifies why the defaults were chosen: with the
//! literal readings, CER under-reclaims on deep module towers (MCX
//! lowering adds call levels), inflating AQV back toward Lazy.

use serde::{Serialize, Value};
use square_core::{compile, CerParams, CompilerConfig, Policy, RouterKind, SweepArch};
use square_workloads::{build, Benchmark};

use crate::runner::lattice_for;
use crate::sweep::{run_sweep, SweepSpec};

/// One ablation variant.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Display label.
    pub label: &'static str,
    /// CER parameters for the variant.
    pub cer: CerParams,
}

/// The variants under study.
pub fn variants() -> Vec<Variant> {
    let default = CerParams::default();
    vec![
        Variant {
            label: "default (adaptive, frame-scope)",
            cer: default,
        },
        Variant {
            label: "literal 2^l recompute",
            cer: CerParams {
                recompute_base: 2.0,
                ..default
            },
        },
        Variant {
            label: "machine-scope C1",
            cer: CerParams {
                c1_frame_scope: false,
                ..default
            },
        },
        Variant {
            label: "literal 2^l + machine-scope",
            cer: CerParams {
                recompute_base: 2.0,
                c1_frame_scope: false,
                ..default
            },
        },
        Variant {
            label: "no pressure forcing",
            cer: CerParams {
                pressure_reserve: 0,
                pressure_fraction: 0.0,
                ..default
            },
        },
    ]
}

/// AQV of each variant on the given benchmark, plus the Lazy baseline.
pub fn compute(bench: Benchmark) -> (u64, Vec<(Variant, u64, u64)>) {
    let program = build(bench).expect("benchmark builds");
    let arch = lattice_for(&program, square_arch::CommModel::SwapChains);
    let lazy = compile(
        &program,
        &CompilerConfig::nisq(Policy::Lazy).with_arch(arch),
    )
    .expect("lazy compiles")
    .aqv;
    let rows = variants()
        .into_iter()
        .map(|v| {
            let mut cfg = CompilerConfig::nisq(Policy::Square).with_arch(arch);
            cfg.cer = v.cer;
            let rep = compile(&program, &cfg).expect("square compiles");
            (v, rep.aqv, rep.decisions.reclaimed)
        })
        .collect();
    (lazy, rows)
}

/// Renders the ablation table.
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("Ablation — CER design choices (AQV normalized to LAZY; lower is better)\n\n");
    for bench in [Benchmark::Modexp, Benchmark::Mul32, Benchmark::Belle] {
        let (lazy, rows) = compute(bench);
        out.push_str(&format!("{}  (LAZY AQV = {lazy})\n", bench.name()));
        for (v, aqv, reclaimed) in rows {
            out.push_str(&format!(
                "  {:<34} norm={:<8.3} reclaimed_frames={}\n",
                v.label,
                aqv as f64 / lazy.max(1) as f64,
                reclaimed
            ));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Budget ablation: the width/gate Pareto frontier of `budget:N`
// ---------------------------------------------------------------------------

/// One point of the budget Pareto frontier: a benchmark compiled
/// under `square,budget:N` (or unbudgeted when `budget` is `None`).
#[derive(Debug, Clone)]
pub struct BudgetCell {
    /// Benchmark compiled.
    pub benchmark: Benchmark,
    /// Width cap, `None` for the unbudgeted SQUARE anchor row.
    pub budget: Option<usize>,
    /// Peak simultaneously-live qubits (must be ≤ the cap).
    pub peak_active: usize,
    /// Routed program gates.
    pub gates: u64,
    /// Active-qubit volume.
    pub aqv: u64,
    /// Reclamations the budget clamp forced.
    pub forced: u64,
    /// Frames early-uncomputed (evicted) by the budget engine.
    pub early_uncomputed: u64,
    /// Frames recomputed by a covering ancestor sweep.
    pub recomputed: u64,
}

impl Serialize for BudgetCell {
    fn serialize(&self) -> Value {
        Value::map(vec![
            (
                "benchmark",
                Value::String(self.benchmark.name().to_string()),
            ),
            (
                "budget",
                self.budget.map_or(Value::Null, |n| Value::UInt(n as u64)),
            ),
            ("peak_active", Value::UInt(self.peak_active as u64)),
            ("gates", Value::UInt(self.gates)),
            ("aqv", Value::UInt(self.aqv)),
            ("forced", Value::UInt(self.forced)),
            ("early_uncomputed", Value::UInt(self.early_uncomputed)),
            ("recomputed", Value::UInt(self.recomputed)),
        ])
    }
}

/// Sweeps `square,budget:N` from each benchmark's eager width floor
/// (the smallest satisfiable cap) up to its unbudgeted SQUARE peak in
/// `steps` geometric budgets, plus the unbudgeted anchor row. Every
/// budget in the range is satisfiable, so a missing point is a bug
/// (the row panics rather than silently dropping it).
pub fn budget_pareto(benchmarks: &[Benchmark], steps: usize) -> Vec<BudgetCell> {
    let mut cells = Vec::new();
    for &bench in benchmarks {
        let program = build(bench).expect("benchmark builds");
        let floor = compile(&program, &CompilerConfig::nisq(Policy::Eager))
            .expect("eager probe")
            .peak_active;
        let base = compile(&program, &CompilerConfig::nisq(Policy::Square)).expect("square probe");
        let ceiling = base.peak_active.max(floor);
        let mut budgets: Vec<usize> = (0..steps.max(2))
            .map(|i| {
                let f = i as f64 / (steps.max(2) - 1) as f64;
                ((floor as f64) * ((ceiling as f64) / (floor as f64)).powf(f)).round() as usize
            })
            .collect();
        budgets.sort_unstable();
        budgets.dedup();
        for n in budgets {
            let cfg = CompilerConfig::nisq(Policy::Square).with_budget(Some(n));
            let r = compile(&program, &cfg)
                .unwrap_or_else(|e| panic!("{bench}/square,budget:{n} in [floor, peak]: {e}"));
            let recompute = r.budget.expect("budgeted").recompute;
            cells.push(BudgetCell {
                benchmark: bench,
                budget: Some(n),
                peak_active: r.peak_active,
                gates: r.gates,
                aqv: r.aqv,
                forced: r.decisions.forced,
                early_uncomputed: recompute.early_uncomputed_frames,
                recomputed: recompute.recomputed_frames,
            });
        }
        cells.push(BudgetCell {
            benchmark: bench,
            budget: None,
            peak_active: base.peak_active,
            gates: base.gates,
            aqv: base.aqv,
            forced: base.decisions.forced,
            early_uncomputed: 0,
            recomputed: 0,
        });
    }
    cells
}

/// Renders the budget Pareto table (one block per benchmark; the
/// unbudgeted SQUARE row anchors the right end of the frontier).
pub fn render_budget_table(cells: &[BudgetCell]) -> String {
    let mut out = String::new();
    out.push_str(
        "Budget ablation — square,budget:N width/gate frontier\n\
         (peak ≤ N enforced; gates fall as N rises toward the unbudgeted peak)\n\n",
    );
    out.push_str(&format!(
        "{:<12} {:>10} {:>8} {:>10} {:>12} {:>8} {:>8} {:>8}\n",
        "benchmark", "budget", "peak", "gates", "aqv", "forced", "early", "recomp"
    ));
    for c in cells {
        let budget = c.budget.map_or("\u{221e}".to_string(), |n| n.to_string());
        out.push_str(&format!(
            "{:<12} {:>10} {:>8} {:>10} {:>12} {:>8} {:>8} {:>8}\n",
            c.benchmark.name(),
            budget,
            c.peak_active,
            c.gates,
            c.aqv,
            c.forced,
            c.early_uncomputed,
            c.recomputed,
        ));
    }
    out
}

/// The default budget-ablation scene: the overflow-prone catalog
/// benchmarks across five geometric budgets each.
pub fn render_budget() -> String {
    let cells = budget_pareto(&[Benchmark::Belle, Benchmark::Modexp, Benchmark::Mul32], 5);
    render_budget_table(&cells)
}

// ---------------------------------------------------------------------------
// MBU ablation: measurement-based uncompute on/off across the catalog
// ---------------------------------------------------------------------------

/// One row of the MBU ablation: a benchmark compiled under one policy
/// with measurement-based uncomputation off and on, side by side.
#[derive(Debug, Clone)]
pub struct MbuCell {
    /// Benchmark compiled.
    pub benchmark: Benchmark,
    /// Reclaiming policy under study.
    pub policy: Policy,
    /// Routed program gates with MBU off (the pre-MBU baseline).
    pub gates_off: u64,
    /// Routed program gates with MBU on.
    pub gates_on: u64,
    /// Active-qubit volume with MBU off.
    pub aqv_off: u64,
    /// Active-qubit volume with MBU on.
    pub aqv_on: u64,
    /// Frames that took the measure-and-correct lowering.
    pub mbu_frames: u64,
    /// Mid-circuit measurements emitted.
    pub measurements: u64,
    /// Cost-model-weighted price of the chosen MBU lowerings.
    pub mbu_cost: u64,
    /// Weighted price of the unitary inverse slices those frames
    /// skipped (always ≥ `mbu_cost`: MBU is only chosen when
    /// strictly cheaper).
    pub unitary_cost: u64,
}

impl MbuCell {
    /// The measured uncompute-gate reduction: routed gates the MBU
    /// lowering removed from the schedule (0 when MBU never engaged).
    pub fn gate_delta(&self) -> i64 {
        self.gates_off as i64 - self.gates_on as i64
    }
}

impl Serialize for MbuCell {
    fn serialize(&self) -> Value {
        Value::map(vec![
            (
                "benchmark",
                Value::String(self.benchmark.name().to_string()),
            ),
            ("policy", Value::String(self.policy.cli_name().to_string())),
            ("gates_off", Value::UInt(self.gates_off)),
            ("gates_on", Value::UInt(self.gates_on)),
            ("aqv_off", Value::UInt(self.aqv_off)),
            ("aqv_on", Value::UInt(self.aqv_on)),
            ("mbu_frames", Value::UInt(self.mbu_frames)),
            ("measurements", Value::UInt(self.measurements)),
            ("mbu_cost", Value::UInt(self.mbu_cost)),
            ("unitary_cost", Value::UInt(self.unitary_cost)),
        ])
    }
}

/// Compiles each benchmark with MBU off and on under the reclaiming
/// policies (Eager reclaims every frame, so it is the upper bound on
/// MBU engagement; SQUARE shows the interaction with CER-gated
/// reclamation). Both compiles share the benchmark's own auto-sized
/// machine, so gate/AQV deltas are attributable to the lowering alone.
pub fn ablation_mbu(benchmarks: &[Benchmark]) -> Vec<MbuCell> {
    let mut cells = Vec::new();
    for &bench in benchmarks {
        let program = build(bench).expect("benchmark builds");
        let arch = lattice_for(&program, square_arch::CommModel::SwapChains);
        for policy in [Policy::Eager, Policy::Square] {
            let cfg = CompilerConfig::nisq(policy).with_arch(arch);
            let off = compile(&program, &cfg.clone().with_mbu(false)).expect("mbu-off compiles");
            let on = compile(&program, &cfg.with_mbu(true)).expect("mbu-on compiles");
            let stats = on.mbu.expect("MBU on");
            cells.push(MbuCell {
                benchmark: bench,
                policy,
                gates_off: off.gates,
                gates_on: on.gates,
                aqv_off: off.aqv,
                aqv_on: on.aqv,
                mbu_frames: stats.mbu_frames,
                measurements: stats.measurements,
                mbu_cost: stats.mbu_cost,
                unitary_cost: stats.unitary_cost,
            });
        }
    }
    cells
}

/// Renders the MBU ablation table (one row per benchmark × policy;
/// Δgates = gates removed by the measure-and-correct lowering).
pub fn render_mbu_table(cells: &[MbuCell]) -> String {
    let mut out = String::new();
    out.push_str(
        "MBU ablation — measurement-based uncompute on/off\n\
         (\u{0394}gates = gates_off - gates_on; frames = reclaims lowered as measure-and-correct)\n\n",
    );
    out.push_str(&format!(
        "{:<12} {:<10} {:>10} {:>10} {:>8} {:>12} {:>12} {:>8} {:>8}\n",
        "benchmark",
        "policy",
        "gates off",
        "gates on",
        "\u{0394}gates",
        "aqv off",
        "aqv on",
        "frames",
        "meas"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<12} {:<10} {:>10} {:>10} {:>8} {:>12} {:>12} {:>8} {:>8}\n",
            c.benchmark.name(),
            c.policy.label(),
            c.gates_off,
            c.gates_on,
            c.gate_delta(),
            c.aqv_off,
            c.aqv_on,
            c.mbu_frames,
            c.measurements,
        ));
    }
    let engaged: Vec<&MbuCell> = cells.iter().filter(|c| c.mbu_frames > 0).collect();
    if engaged.is_empty() {
        out.push_str("\nMBU never engaged: no frame's inverse slice lost the weighted compare.\n");
    } else {
        let total: i64 = engaged.iter().map(|c| c.gate_delta()).sum();
        out.push_str(&format!(
            "\n{} engaged cells, net {total} routed gates removed; every engaged frame's \
             weighted MBU price beat its unitary inverse. A negative \u{0394}gates row is \
             CER reclaiming *more* frames once reclaim is cheap — gates traded for AQV.\n",
            engaged.len()
        ));
    }
    out
}

/// The default MBU-ablation scene: the NISQ catalog (the arithmetic
/// benchmarks are the Toffoli-heavy rows where MBU engages).
pub fn render_mbu() -> String {
    render_mbu_table(&ablation_mbu(&Benchmark::NISQ))
}

// ---------------------------------------------------------------------------
// Router ablation: swap counts + compile time per benchmark × router
// × topology
// ---------------------------------------------------------------------------

/// One cell of the router ablation: a benchmark compiled under the
/// SQUARE policy with one router on one topology.
#[derive(Debug, Clone)]
pub struct RouterCell {
    /// Benchmark compiled.
    pub benchmark: Benchmark,
    /// Topology targeted.
    pub arch: SweepArch,
    /// Router used.
    pub router: RouterKind,
    /// Routing swaps inserted.
    pub swaps: u64,
    /// Program gates (router-invariant; sanity anchor).
    pub gates: u64,
    /// Schedule depth in cycles.
    pub depth: u64,
    /// Compile wall time, nanoseconds.
    pub compile_ns: u64,
}

impl Serialize for RouterCell {
    fn serialize(&self) -> Value {
        Value::map([
            (
                "benchmark",
                Value::String(self.benchmark.name().to_string()),
            ),
            ("arch", Value::String(self.arch.to_string())),
            ("router", Value::String(self.router.cli_name().to_string())),
            ("swaps", Value::UInt(self.swaps)),
            ("gates", Value::UInt(self.gates)),
            ("depth", Value::UInt(self.depth)),
            ("compile_ns", Value::UInt(self.compile_ns)),
        ])
    }
}

/// Compiles `benchmarks × archs × both routers` under the SQUARE
/// policy (the paper's headline configuration) and returns every cell
/// that fit the machine.
pub fn router_compare(benchmarks: &[Benchmark], archs: &[SweepArch]) -> Vec<RouterCell> {
    let spec = SweepSpec {
        benchmarks: benchmarks.to_vec(),
        policies: vec![Policy::Square],
        archs: archs.to_vec(),
        routers: RouterKind::ALL.to_vec(),
        budgets: vec![None],
    };
    run_sweep(&spec)
        .cells
        .iter()
        .filter_map(|cell| {
            let r = cell.report.as_ref().ok()?;
            Some(RouterCell {
                benchmark: cell.benchmark,
                arch: cell.arch,
                router: cell.router,
                swaps: r.swaps,
                gates: r.gates,
                depth: r.depth,
                compile_ns: (cell.compile_ms * 1e6) as u64,
            })
        })
        .collect()
}

/// Geometric mean of per-`(benchmark, arch)` lookahead/greedy swap
/// ratios (< 1 means the lookahead router inserts fewer swaps).
/// `None` when no pair has nonzero greedy swaps.
pub fn swap_ratio_geomean(cells: &[RouterCell]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for g in cells.iter().filter(|c| c.router == RouterKind::Greedy) {
        let Some(l) = cells.iter().find(|c| {
            c.router == RouterKind::Lookahead && c.benchmark == g.benchmark && c.arch == g.arch
        }) else {
            continue;
        };
        if g.swaps == 0 {
            continue; // all-to-all cell: nothing to route
        }
        log_sum += ((l.swaps.max(1) as f64) / (g.swaps as f64)).ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Renders the router-comparison table (one row per
/// `benchmark × topology`, greedy and lookahead side by side).
pub fn render_router_table(cells: &[RouterCell]) -> String {
    let mut out = String::new();
    out.push_str(
        "Router ablation — SQUARE policy (swaps: lower is better; ratio = lookahead/greedy)\n\n",
    );
    out.push_str(&format!(
        "{:<12} {:<12} {:>12} {:>12} {:>7} {:>12} {:>12}\n",
        "benchmark", "arch", "greedy", "lookahead", "ratio", "greedy ms", "lookahead ms"
    ));
    for g in cells.iter().filter(|c| c.router == RouterKind::Greedy) {
        let l = cells.iter().find(|c| {
            c.router == RouterKind::Lookahead && c.benchmark == g.benchmark && c.arch == g.arch
        });
        let (l_swaps, ratio, l_ms) = match l {
            Some(l) => (
                l.swaps.to_string(),
                if g.swaps > 0 {
                    format!("{:.3}", l.swaps as f64 / g.swaps as f64)
                } else {
                    "-".to_string()
                },
                format!("{:.1}", l.compile_ns as f64 / 1e6),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{:<12} {:<12} {:>12} {:>12} {:>7} {:>12.1} {:>12}\n",
            g.benchmark.name(),
            g.arch.to_string(),
            g.swaps,
            l_swaps,
            ratio,
            g.compile_ns as f64 / 1e6,
            l_ms,
        ));
    }
    if let Some(geo) = swap_ratio_geomean(cells) {
        out.push_str(&format!(
            "\ngeomean swap ratio (lookahead/greedy): {geo:.3}\n"
        ));
    }
    out
}

/// The default router-ablation scene: the NISQ catalog on the three
/// swap-routed topologies (auto lattice, auto heavy-hex, auto ring).
pub fn render_router() -> String {
    let archs = [
        SweepArch::NisqAuto,
        SweepArch::HeavyHexAuto,
        SweepArch::RingAuto,
    ];
    let cells = router_compare(&Benchmark::NISQ, &archs);
    render_router_table(&cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_variant_is_best_or_tied_on_modexp() {
        let (_, rows) = compute(Benchmark::Modexp);
        let default_aqv = rows[0].1;
        for (v, aqv, _) in &rows[1..] {
            assert!(
                default_aqv <= aqv + aqv / 5,
                "default {default_aqv} much worse than {}: {aqv}",
                v.label
            );
        }
    }

    #[test]
    fn literal_settings_reclaim_less() {
        let (_, rows) = compute(Benchmark::Mul32);
        let default_reclaims = rows[0].2;
        let literal_both = rows
            .iter()
            .find(|(v, _, _)| v.label.contains("literal 2^l + machine"))
            .unwrap()
            .2;
        assert!(
            literal_both < default_reclaims,
            "literal {literal_both} vs default {default_reclaims}"
        );
    }

    #[test]
    fn budget_pareto_caps_width_and_serializes() {
        let cells = budget_pareto(&[Benchmark::Rd53], 3);
        // Every budgeted point respects its cap; the unbudgeted anchor
        // row closes the frontier.
        assert!(cells.len() >= 2);
        for c in &cells {
            if let Some(n) = c.budget {
                assert!(
                    c.peak_active <= n,
                    "{}: peak {} over budget {n}",
                    c.benchmark,
                    c.peak_active
                );
            }
        }
        assert!(cells.last().unwrap().budget.is_none());
        let json = serde_json::to_string(&Value::seq(&cells)).unwrap();
        assert!(json.contains("\"budget\":null"), "{json}");
        let table = render_budget_table(&cells);
        assert!(table.contains("Budget ablation"), "{table}");
    }

    #[test]
    fn mbu_ablation_reduces_uncompute_gates_on_arithmetic() {
        let cells = ablation_mbu(&[Benchmark::Adder4]);
        assert_eq!(cells.len(), 2, "eager + square");
        let eager = cells.iter().find(|c| c.policy == Policy::Eager).unwrap();
        // Adder4 is Toffoli-built: Eager reclaims every frame, so MBU
        // engages and the weighted compare guarantees a net win.
        assert!(eager.mbu_frames > 0, "{eager:?}");
        assert!(eager.measurements > 0, "{eager:?}");
        assert!(
            eager.unitary_cost > eager.mbu_cost,
            "MBU only fires when strictly cheaper: {eager:?}"
        );
        assert!(
            eager.gates_on < eager.gates_off,
            "measured uncompute-gate reduction: {eager:?}"
        );
        let json = serde_json::to_string(&Value::seq(&cells)).unwrap();
        assert!(json.contains("\"unitary_cost\""), "{json}");
        let table = render_mbu_table(&cells);
        assert!(table.contains("MBU ablation"), "{table}");
        assert!(table.contains("routed gates removed"), "{table}");
    }

    #[test]
    fn router_compare_fills_both_routers_and_serializes() {
        let cells = router_compare(&[Benchmark::Rd53], &[SweepArch::NisqAuto]);
        assert_eq!(cells.len(), 2, "greedy + lookahead");
        let greedy = cells
            .iter()
            .find(|c| c.router == RouterKind::Greedy)
            .unwrap();
        let look = cells
            .iter()
            .find(|c| c.router == RouterKind::Lookahead)
            .unwrap();
        // The router only changes communication, never program gates.
        assert_eq!(greedy.gates, look.gates);
        assert!(swap_ratio_geomean(&cells).is_some());
        let json = serde_json::to_string(&Value::seq(&cells)).unwrap();
        assert!(json.contains("\"router\":\"lookahead\""), "{json}");
        let table = render_router_table(&cells);
        assert!(table.contains("geomean swap ratio"), "{table}");
    }
}
