//! End-to-end pipeline tests: every benchmark × policy compiles, and
//! the *scheduled physical circuit* computes exactly what the
//! reference bit-level semantics say it should — i.e. swap-chain
//! routing, placement relocation, and mechanical uncomputation all
//! preserve program meaning.

use std::path::{Path, PathBuf};

use square_repro::core::{compile, compile_with_inputs, CompilerConfig, Policy};
use square_repro::lang::{parse_files, SearchPathLoader};
use square_repro::qir::validate::validate_program;
use square_repro::qir::{lower_mcx, Gate, Program, Stmt, TraceOp};
use square_repro::sim::run_ideal;
use square_repro::verify::{default_inputs, replay_virtual, FuzzCase};
use square_repro::workloads::synthetic::{synthesize, synthesize_disciplined};
use square_repro::workloads::{build, Benchmark};

#[test]
fn physical_schedule_matches_virtual_trace_on_all_nisq_benchmarks() {
    for bench in Benchmark::NISQ {
        let program = build(bench).expect("benchmark builds");
        let inputs: Vec<bool> = (0..bench.input_qubits()).map(|i| i % 2 == 0).collect();
        for policy in Policy::ALL {
            let cfg = CompilerConfig::nisq(policy).with_schedule();
            let report =
                compile_with_inputs(&program, &inputs, &cfg).expect("compiles on auto grid");
            let label = format!("{bench}/{policy}");
            // Virtual trace replay (with hygiene checks).
            let virt_vals = replay_virtual(&report.trace, &report.entry_register)
                .unwrap_or_else(|m| panic!("{label}: {m}"));
            // Physical schedule replay.
            let schedule = report.schedule.as_deref().expect("recorded");
            let phys_bits = run_ideal(schedule, report.machine_qubits);
            let phys_vals: Vec<bool> = report
                .measure_map()
                .iter()
                .map(|q| phys_bits[q.index()])
                .collect();
            assert_eq!(
                virt_vals, phys_vals,
                "{label}: physical routing changed program semantics"
            );
        }
    }
}

#[test]
fn medium_benchmarks_compile_under_square() {
    for bench in [Benchmark::Adder32, Benchmark::Modexp, Benchmark::Sha2] {
        let program = build(bench).expect("benchmark builds");
        let report = square_repro::core::compile(&program, &CompilerConfig::nisq(Policy::Square))
            .expect("compiles");
        assert!(report.gates > 0, "{bench}");
        assert_eq!(report.aqv, report.aqv_from_segments(), "{bench}");
        assert_eq!(
            report.aqv,
            report.usage_curve().area(),
            "{bench}: curve area cross-check"
        );
    }
}

#[test]
fn ft_braided_compilation_is_swap_free() {
    for bench in Benchmark::NISQ {
        let program = build(bench).expect("benchmark builds");
        let report = square_repro::core::compile(&program, &CompilerConfig::ft(Policy::Square))
            .expect("compiles");
        assert_eq!(report.swaps, 0, "{bench}: braiding must not insert swaps");
        assert!(report.stats.braids > 0, "{bench}: multi-qubit gates braid");
    }
}

#[test]
fn policies_agree_on_program_outputs() {
    // All policies are semantics-preserving: identical entry-register
    // values after full execution.
    for bench in [Benchmark::Rd53, Benchmark::TwoOf5, Benchmark::BelleS] {
        let program = build(bench).expect("benchmark builds");
        let inputs: Vec<bool> = (0..bench.input_qubits()).map(|i| i % 2 == 1).collect();
        let mut reference: Option<Vec<bool>> = None;
        // Eager and Lazy both uncompute the top level, so they agree
        // bit-for-bit; Square leaves the entry frame forward, so only
        // the store-protected output register is comparable.
        for policy in [Policy::Eager, Policy::Lazy] {
            let cfg = CompilerConfig::nisq(policy);
            let report = compile_with_inputs(&program, &inputs, &cfg).expect("compiles");
            let vals = replay_virtual(&report.trace, &report.entry_register)
                .unwrap_or_else(|m| panic!("{bench}/{policy}: {m}"));
            match &reference {
                None => reference = Some(vals),
                Some(r) => assert_eq!(r, &vals, "{bench}/{policy}"),
            }
        }
    }
}

/// Compiles `bench` under every policy on nisq and ft, once with
/// `default_inputs` and once with no inputs, and checks that the inputs
/// only prepend X gates after the entry frame's allocations: the rest
/// of the virtual trace, the decision log and the swap count agree.
/// The executor never reads bit values, so one input-free compile
/// yields the gate stream for every input.
fn assert_inputs_only_prepend_x(bench: Benchmark) {
    let program = build(bench).expect("benchmark builds");
    let inputs = default_inputs(bench);
    let ones = inputs.iter().filter(|&&b| b).count();
    for policy in Policy::ALL {
        for (arch, cfg) in [
            ("nisq", CompilerConfig::nisq(policy)),
            ("ft", CompilerConfig::ft(policy)),
        ] {
            let label = format!("{bench}/{policy}/{arch}");
            let bare = compile(&program, &cfg).expect("compiles");
            let with = compile_with_inputs(&program, &inputs, &cfg).expect("compiles");
            let allocs = bare.entry_register.len();
            let (head, rest) = with.trace.split_at(allocs);
            let (prefix, tail) = rest.split_at(ones);
            assert_eq!(head, &bare.trace[..allocs], "{label}: entry allocations");
            assert!(
                prefix
                    .iter()
                    .all(|op| matches!(op, TraceOp::Gate(Gate::X { .. }))),
                "{label}: the input prefix is {ones} X gates"
            );
            assert!(
                tail == &bare.trace[allocs..],
                "{label}: trace after the prefix"
            );
            assert_eq!(with.decision_log, bare.decision_log, "{label}: decisions");
            assert_eq!(with.swaps, bare.swaps, "{label}: swaps");
        }
    }
}

#[test]
fn inputs_only_prepend_x_gates_on_nisq_benchmarks() {
    for bench in Benchmark::NISQ {
        assert_inputs_only_prepend_x(bench);
    }
}

/// The whole catalog (MUL64 included); run in release with
/// `cargo test --release --test pipeline -- --ignored`.
#[test]
#[ignore = "full catalog; run in release"]
fn inputs_only_prepend_x_gates_on_the_catalog() {
    for bench in Benchmark::ALL {
        assert_inputs_only_prepend_x(bench);
    }
}

/// The back end routes only the lowered gate set: after `lower_mcx`, no
/// `Gate` or `CondGate` statement of any module holds an `Mcx`. The
/// lowered program is still a valid `Program`: every call targets a
/// module with a smaller id (the generated `__mcx{k}` modules come
/// first), and it passes `validate_program`.
#[test]
fn lowering_leaves_no_mcx_for_the_router() {
    let assert_lowered = |label: &str, program: &Program| {
        let lowered = lower_mcx(program);
        for (i, module) in lowered.modules().iter().enumerate() {
            for stmt in module.all_stmts() {
                match stmt {
                    Stmt::Gate(g @ Gate::Mcx { .. })
                    | Stmt::CondGate {
                        gate: g @ Gate::Mcx { .. },
                        ..
                    } => panic!("{label}: `{}` keeps {g}", module.name()),
                    Stmt::Call { callee, .. } => assert!(
                        callee.index() < i,
                        "{label}: `{}` (id {i}) calls id {}",
                        module.name(),
                        callee.index()
                    ),
                    _ => {}
                }
            }
        }
        validate_program(&lowered).unwrap_or_else(|e| panic!("{label}: {e}"));
    };
    for bench in Benchmark::ALL {
        assert_lowered(&bench.to_string(), &build(bench).expect("benchmark builds"));
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let loader = SearchPathLoader::new(vec![root.join("lib")]);
    let mut examples: Vec<PathBuf> = std::fs::read_dir(root.join("examples/sq"))
        .expect("examples/sq exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sq"))
        .collect();
    examples.sort();
    assert!(!examples.is_empty());
    for path in &examples {
        let label = path.display().to_string();
        let source = std::fs::read_to_string(path).expect("example reads");
        let (map, parsed) = parse_files(&label, &source, &loader);
        let program = parsed.unwrap_or_else(|d| panic!("{}", map.render(&d)));
        assert_lowered(&label, &program);
    }
    for seed in 0..200 {
        let case = FuzzCase::from_seed(seed);
        for program in [
            synthesize(&case.params),
            synthesize_disciplined(&case.params),
        ] {
            assert_lowered(&case.spec(), &program.expect("fuzz program builds"));
        }
    }
}
