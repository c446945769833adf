//! Property-based invariants across the whole pipeline, driven by the
//! synthetic program generator: for arbitrary modular programs and
//! any policy, compilation preserves semantics, keeps ancilla hygiene,
//! and reports self-consistent metrics.

use proptest::prelude::*;
use square_repro::core::{compile, CompilerConfig, Policy};
use square_repro::metrics::UsageCurve;
use square_repro::qir::analysis::primitive_count;
use square_repro::qir::{lower_mcx, ModuleId, ModuleStats, Program, ProgramStats, Stmt};
use square_repro::verify::FuzzCase;
use square_repro::workloads::synthetic::{synthesize, synthesize_disciplined, SynthParams};
use square_repro::workloads::{build, Benchmark};

fn arb_params() -> impl Strategy<Value = SynthParams> {
    (
        1usize..4,
        1usize..4,
        2usize..6,
        2usize..5,
        2usize..12,
        0u64..1000,
    )
        .prop_map(|(levels, callees, inputs, anc, gates, seed)| SynthParams {
            levels,
            max_callees: callees,
            inputs_per_fn: inputs,
            max_ancilla: anc,
            max_gates: gates,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated program compiles under every policy with
    /// internally consistent reports.
    #[test]
    fn reports_are_self_consistent(params in arb_params()) {
        let program = synthesize(&params).unwrap();
        for policy in Policy::ALL {
            let report = compile(&program, &CompilerConfig::nisq(policy)).unwrap();
            prop_assert_eq!(report.aqv, report.aqv_from_segments());
            let curve = UsageCurve::from_segments(
                report.segments.iter().map(|s| (s.start, s.end)),
            );
            prop_assert_eq!(report.aqv, curve.area());
            // Note: the schedule-time liveness peak can exceed the
            // program-order placement peak (ASAP reorders gates), so
            // only machine capacity bounds both.
            prop_assert!(report.peak_active <= report.machine_qubits);
            prop_assert!(curve.peak() as usize <= report.machine_qubits);
            prop_assert!(report.qubits <= report.machine_qubits);
            prop_assert!(report.depth > 0);
        }
    }

    /// Gate-count ordering of the paper's baselines: Eager performs at
    /// least as many program gates as Lazy (recursive recomputation),
    /// and both bound SQUARE's total from above/below sensibly.
    #[test]
    fn gate_count_orderings(params in arb_params()) {
        let program = synthesize(&params).unwrap();
        let gates = |p: Policy| {
            compile(&program, &CompilerConfig::nisq(p)).unwrap().gates
        };
        let (eager, lazy, square) = (gates(Policy::Eager), gates(Policy::Lazy), gates(Policy::Square));
        prop_assert!(eager >= lazy, "eager {eager} < lazy {lazy}");
        // SQUARE never does more gate work than Eager (it can always
        // decline an uncompute Eager would perform).
        prop_assert!(square <= eager, "square {square} > eager {eager}");
    }

    /// FT compilation never inserts swaps; NISQ never braids.
    #[test]
    fn comm_models_are_disjoint(params in arb_params()) {
        let program = synthesize(&params).unwrap();
        let nisq = compile(&program, &CompilerConfig::nisq(Policy::Square)).unwrap();
        prop_assert_eq!(nisq.stats.braids, 0);
        let ft = compile(&program, &CompilerConfig::ft(Policy::Square)).unwrap();
        prop_assert_eq!(ft.swaps, 0);
    }
}

/// Reference port of the memoized call-graph recursions that computed
/// the per-module stats (and `budget:N`'s stack floor) before modules
/// were ordered callees first. It visits modules in any order, so it
/// checks the forward pass of `ProgramStats::analyze` independently.
fn recursive_stats(program: &Program) -> Vec<ModuleStats> {
    fn block_cost(
        program: &Program,
        stmts: &[Stmt],
        stats: &mut ModuleStats,
        memo: &mut [Option<ModuleStats>],
    ) -> u64 {
        let mut gates = 0;
        for stmt in stmts {
            match stmt {
                Stmt::Gate(g) | Stmt::CondGate { gate: g, .. } => gates += primitive_count(g),
                Stmt::Call { callee, .. } => {
                    let sub = analyze(program, callee.index(), memo);
                    gates += sub.gates_forward();
                    stats.ancilla_transitive += sub.ancilla_transitive;
                }
                Stmt::Measure { .. } => gates += 1,
            }
        }
        gates
    }
    fn analyze(program: &Program, idx: usize, memo: &mut [Option<ModuleStats>]) -> ModuleStats {
        if let Some(s) = memo[idx] {
            return s;
        }
        let module = &program.modules()[idx];
        let mut stats = ModuleStats {
            ancilla_transitive: module.ancillas() as u64,
            ..ModuleStats::default()
        };
        stats.gates_compute = block_cost(program, module.compute(), &mut stats, memo);
        stats.gates_store = block_cost(program, module.store(), &mut stats, memo);
        // Every block nests frames, custom uncompute included.
        let subs: Vec<ModuleStats> = module
            .all_stmts()
            .filter_map(|stmt| match stmt {
                Stmt::Call { callee, .. } => Some(analyze(program, callee.index(), memo)),
                _ => None,
            })
            .collect();
        stats.height = subs.iter().map(|sub| sub.height + 1).max().unwrap_or(0);
        stats.stack_need =
            module.ancillas() + subs.iter().map(|sub| sub.stack_need).max().unwrap_or(0);
        memo[idx] = Some(stats);
        stats
    }
    let mut memo = vec![None; program.len()];
    (0..program.len())
        .map(|i| analyze(program, i, &mut memo))
        .collect()
}

/// `ProgramStats::analyze`'s one forward pass agrees with the memoized
/// recursion on every field of every module, before and after MCX
/// lowering (which prepends its generated modules) and on generated
/// programs of both store disciplines.
#[test]
fn forward_stats_match_the_recursive_reference() {
    let check = |label: &str, program: &Program| {
        for p in [program.clone(), lower_mcx(program)] {
            let stats = ProgramStats::analyze(&p);
            for (i, expected) in recursive_stats(&p).iter().enumerate() {
                let name = p.modules()[i].name();
                assert_eq!(
                    stats.module(ModuleId::from_index(i)),
                    expected,
                    "{label}: module `{name}`"
                );
            }
        }
    };
    for bench in Benchmark::ALL {
        check(&bench.to_string(), &build(bench).expect("benchmark builds"));
    }
    for seed in 0..200 {
        let case = FuzzCase::from_seed(seed);
        for program in [
            synthesize(&case.params),
            synthesize_disciplined(&case.params),
        ] {
            check(&case.spec(), &program.expect("fuzz program builds"));
        }
    }
}
