//! End-to-end pipeline tests: every benchmark × policy compiles, and
//! the *scheduled physical circuit* computes exactly what the
//! reference bit-level semantics say it should — i.e. swap-chain
//! routing, placement relocation, and mechanical uncomputation all
//! preserve program meaning.

use square_repro::core::{compile_with_inputs, CompilerConfig, Policy};
use square_repro::sim::run_ideal;
use square_repro::verify::replay_virtual;
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
