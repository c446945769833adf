//! Translation-validation integration tests: the routed, scheduled
//! physical circuit of every benchmark cell must compute exactly what
//! the reference bit-level semantics say it should, under the
//! compiler's own recorded reclamation decisions.
//!
//! The quick test covers the NISQ set on both machine targets in
//! debug builds. The full 17-benchmark × 4-policy × {nisq, ft} matrix
//! per router (204 cells — greedy + lookahead on swap-chain targets,
//! some with multi-million-gate schedules) is `#[ignore]`d
//! here and run in release by CI's translation-validation job:
//!
//! ```sh
//! cargo test --release --test validate -- --ignored
//! ```

use rayon::prelude::*;
use square_repro::core::{Policy, RouterKind, SweepArch};
use square_repro::verify::{
    validate_benchmark, validate_benchmark_with, Mismatch, ValidationError,
};
use square_repro::workloads::Benchmark;

/// The two paper targets: the NISQ lattice and the FT tile grid.
const NISQ_AND_FT: [SweepArch; 2] = [SweepArch::NisqAuto, SweepArch::FtAuto];

fn cells(
    benchmarks: &[Benchmark],
    machines: &[SweepArch],
) -> Vec<(Benchmark, Policy, SweepArch, RouterKind)> {
    let mut out = Vec::new();
    for &bench in benchmarks {
        for &machine in machines {
            for policy in Policy::ALL {
                for &router in machine.routers() {
                    out.push((bench, policy, machine, router));
                }
            }
        }
    }
    out
}

fn validate_cells(benchmarks: &[Benchmark], machines: &[SweepArch]) {
    let failures: Vec<String> = cells(benchmarks, machines)
        .into_par_iter()
        .map(|(bench, policy, machine, router)| {
            validate_benchmark_with(bench, policy, machine, router)
                .err()
                .map(|e| {
                    format!(
                        "{bench}/{}/{machine}/{}: {e}",
                        policy.cli_name(),
                        router.cli_name()
                    )
                })
        })
        .collect::<Vec<Option<String>>>()
        .into_iter()
        .flatten()
        .collect();
    assert!(
        failures.is_empty(),
        "{} cells failed translation validation:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn nisq_benchmark_cells_validate() {
    // The historical PR 3 matrix: both auto targets, greedy-routed
    // cells plus the lookahead cells the router axis added.
    validate_cells(&Benchmark::NISQ, &NISQ_AND_FT);
}

#[test]
fn new_topology_cells_validate_quick() {
    // Heavy-hex and ring through the full three-layer oracle stack,
    // both routers, on a fast benchmark subset (kept small so the
    // debug-mode tier-1 run stays quick; the full NISQ set runs in
    // release below).
    validate_cells(
        &[Benchmark::Rd53, Benchmark::Adder4, Benchmark::BelleS],
        &[SweepArch::HeavyHexAuto, SweepArch::RingAuto],
    );
}

#[test]
#[ignore = "full NISQ set × {heavyhex, ring} × routers; run in release (CI routing job)"]
fn new_topology_nisq_set_validates() {
    validate_cells(
        &Benchmark::NISQ,
        &[SweepArch::HeavyHexAuto, SweepArch::RingAuto],
    );
}

#[test]
#[ignore = "full 204-cell matrix; run in release (CI translation-validation job)"]
fn full_sweep_matrix_validates() {
    validate_cells(&Benchmark::ALL, &NISQ_AND_FT);
}

#[test]
fn budget_cells_validate_quick() {
    // Quick budgeted slice through the full oracle stack: cap each
    // cell at its eager-probe peak (the frame-granularity width
    // floor, always satisfiable) and check the cap actually held.
    use square_repro::core::{compile, CompilerConfig};
    use square_repro::verify::validate;
    use square_repro::workloads::build;

    for bench in [Benchmark::Rd53, Benchmark::Adder4] {
        let program = build(bench).unwrap();
        let floor = compile(&program, &CompilerConfig::nisq(Policy::Eager))
            .unwrap()
            .peak_active;
        for base in [Policy::Lazy, Policy::Square] {
            let cfg = CompilerConfig::nisq(base).with_budget(Some(floor));
            let v = validate(&program, &[], &cfg)
                .unwrap_or_else(|e| panic!("{bench}/{}/budget:{floor}: {e}", base.cli_name()));
            assert!(
                v.report.peak_active <= floor,
                "{bench}/{}: peak {} over budget {floor}",
                base.cli_name(),
                v.report.peak_active
            );
            assert_eq!(v.report.budget.map(|b| b.cap), Some(floor));
        }
    }
}

#[test]
fn budget_fits_a_machine_the_existing_policies_overflow() {
    // The tentpole payoff (ISSUE 8): Belle on heavyhex:5 (55 qubits).
    // Lazy (peak 255) and unbudgeted Square (peak 132) both overflow;
    // square,budget:55 must compile AND validate through the full
    // oracle stack while staying under the machine.
    use square_repro::core::{compile, ArchSpec, CompileError, CompilerConfig};
    use square_repro::verify::validate;
    use square_repro::workloads::build;

    let program = build(Benchmark::Belle).unwrap();
    let arch = ArchSpec::HeavyHex { d: 5 };
    for overflowing in [Policy::Lazy, Policy::Square] {
        let cfg = CompilerConfig::nisq(overflowing).with_arch(arch);
        let err = compile(&program, &cfg).unwrap_err();
        assert!(
            matches!(err, CompileError::OutOfQubits { .. }),
            "{overflowing} unexpectedly fits heavyhex:5: {err}"
        );
    }
    let cfg = CompilerConfig::nisq(Policy::Square)
        .with_arch(arch)
        .with_budget(Some(55));
    let v = validate(&program, &[], &cfg).expect("budgeted square fits and validates");
    assert!(v.report.peak_active <= 55, "peak {}", v.report.peak_active);
    // The cap was binding: the budget clamp had to force reclamations
    // the unbudgeted policy would have skipped.
    assert!(v.report.decisions.forced > 0);
}

#[test]
fn validation_survives_the_facade_round_trip() {
    // One cell end-to-end through the public facade, checking the
    // report really carries the new artifacts. A default validation
    // streams the physical check and records no schedule or history;
    // asking for the schedule records both.
    use square_repro::verify::{default_inputs, validate};
    use square_repro::workloads::build;

    let v = validate_benchmark(Benchmark::Rd53, Policy::Square, SweepArch::NisqAuto).unwrap();
    assert!(v.report.schedule.is_none());
    assert!(v.report.placement_history.is_none());
    let recorded = validate(
        &build(Benchmark::Rd53).unwrap(),
        &default_inputs(Benchmark::Rd53),
        &SweepArch::NisqAuto.config(Policy::Square).with_schedule(),
    )
    .unwrap();
    assert!(recorded.report.schedule.is_some());
    assert!(recorded.report.placement_history.is_some());
    assert_eq!(recorded.outputs, v.outputs);
    assert!(!v.report.decision_log.is_empty());
    assert_eq!(
        v.report.decision_log.iter().filter(|d| d.reclaim).count() as u64,
        v.report.decisions.reclaimed
    );
    assert_eq!(v.outputs.len(), v.report.entry_register.len());
}

#[test]
fn streamed_physical_check_equals_the_recorded_replay() {
    // The physical check streamed from the machine must end in exactly
    // the state a check over the recorded schedule reaches: same bits,
    // classical bits and gate count, and no interval violation.
    use square_repro::core::{compile_checked, compile_prepared, PreparedProgram};
    use square_repro::qir::Clbits;
    use square_repro::route::PhysicalCheck;
    use square_repro::verify::default_inputs;
    use square_repro::workloads::build;

    let machines = [
        SweepArch::NisqAuto,
        SweepArch::FtAuto,
        SweepArch::HeavyHexAuto,
    ];
    let mut cells = Vec::new();
    for bench in Benchmark::NISQ {
        for machine in machines {
            for policy in Policy::ALL {
                cells.push((bench, machine, machine.config(policy)));
            }
            cells.push((bench, machine, machine.config(Policy::Eager).with_mbu(true)));
        }
    }
    let measured: Vec<bool> = cells
        .into_par_iter()
        .map(|(bench, machine, cfg)| {
            let label = format!(
                "{bench}/{}/{machine}/mbu={}",
                cfg.policy.cli_name(),
                cfg.mbu
            );
            let prepared = PreparedProgram::new(&build(bench).unwrap()).unwrap();
            let inputs = default_inputs(bench);
            let recorded =
                compile_prepared(&prepared, &inputs, &cfg.clone().with_schedule()).unwrap();
            let schedule = recorded.schedule.as_deref().expect("recorded");
            let replayed = PhysicalCheck::run(schedule, recorded.machine_qubits, recorded.comm);
            let (report, streamed) = compile_checked(&prepared, &inputs, &cfg).unwrap();
            assert!(report.schedule.is_none(), "{label}: streamed, not recorded");
            assert!(report.placement_history.is_none(), "{label}");
            assert_eq!(streamed.violation(), None, "{label}");
            assert_eq!(streamed.gates(), schedule.len() as u64, "{label}");
            assert_eq!(streamed.gates(), report.gates + report.swaps, "{label}");
            assert_eq!(streamed.bits(), replayed.bits(), "{label}");
            assert_eq!(streamed.clbits(), replayed.clbits(), "{label}");
            assert_eq!(streamed, replayed, "{label}");
            streamed.clbits().first_difference(&Clbits::new()).is_some()
        })
        .collect();
    assert!(
        measured.contains(&true),
        "some MBU cell measured through the side channel"
    );
}

#[test]
fn validation_detects_a_sabotaged_schedule() {
    use square_repro::core::{compile_with_inputs, CompilerConfig};
    use square_repro::qir::Gate;
    use square_repro::route::ScheduledGate;
    use square_repro::verify::{check_physical, replay_virtual};
    use square_repro::workloads::build;

    let program = build(Benchmark::TwoOf5).unwrap();
    let cfg = CompilerConfig::nisq(Policy::Lazy).with_schedule();
    let mut report = compile_with_inputs(&program, &[], &cfg).unwrap();
    let virt_vals = replay_virtual(&report.trace, &report.entry_register).unwrap();
    check_physical(&report, &virt_vals).expect("honest schedule validates");

    // Inject a stray X on a measured cell — the kind of off-by-one a
    // routing bug would produce. The oracle stack must notice.
    let target = report.measure_map()[0];
    let schedule = report.schedule.as_mut().unwrap();
    let end = schedule.last().unwrap().end();
    schedule.push(ScheduledGate {
        gate: Gate::X { target },
        start: end,
        dur: 1,
        is_comm: false,
        guard: None,
        measure: None,
    });
    let err = check_physical(&report, &virt_vals).unwrap_err();
    match err {
        Mismatch::OutputDiff { index, journey, .. } => {
            assert_eq!(index, 0);
            assert!(!journey.is_empty(), "diagnostics carry the journey");
        }
        other => panic!("expected an output diff, got: {other}"),
    }
}

#[test]
fn compile_failures_surface_as_compile_errors() {
    use square_repro::core::{ArchSpec, CompilerConfig};
    use square_repro::verify::validate;
    use square_repro::workloads::build;

    let program = build(Benchmark::Rd53).unwrap();
    let cfg = CompilerConfig::nisq(Policy::Lazy).with_arch(ArchSpec::Grid {
        width: 2,
        height: 2,
    });
    let err = validate(&program, &[], &cfg).unwrap_err();
    assert!(matches!(err, ValidationError::Compile(_)), "got: {err}");
}
