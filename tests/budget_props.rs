//! Property-based invariants of the `budget:N` policy dimension,
//! driven by the synthetic program generator:
//!
//! * every *satisfiable* budget (≥ the eager-probe width floor) holds
//!   as a hard cap — the compile succeeds and `peak_active ≤ N`;
//! * `budget:inf` (the CLI spelling of "no cap") is field-identical
//!   to the bare base policy — the budget machinery is provably inert
//!   when no cap is set;
//! * shrinking the cap never *increases* width: the peak is monotone
//!   non-decreasing in N over a ladder of satisfiable budgets.

use proptest::prelude::*;
use square_repro::core::{compile, BudgetPolicy, CompilerConfig, Policy};
use square_repro::workloads::synthetic::{synthesize, SynthParams};

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

/// An ascending ladder of budgets from the satisfiable floor up to
/// (just past) the unbudgeted peak, deduplicated.
fn budget_ladder(floor: usize, peak: usize) -> Vec<usize> {
    let top = peak.max(floor);
    let mut ladder: Vec<usize> = vec![
        floor,
        floor + (top - floor) / 3,
        floor + 2 * (top - floor) / 3,
        top,
        top + 2,
    ];
    ladder.dedup();
    ladder
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Hard cap: for every satisfiable budget N, both
    /// garbage-leaving base policies compile with peak width ≤ N, and
    /// the report names the cap it ran under.
    #[test]
    fn satisfiable_budgets_hold_the_cap(params in arb_params()) {
        let program = synthesize(&params).unwrap();
        let floor = compile(&program, &CompilerConfig::nisq(Policy::Eager))
            .unwrap()
            .peak_active;
        for base in [Policy::Lazy, Policy::Square] {
            let unbudgeted = compile(&program, &CompilerConfig::nisq(base))
                .unwrap()
                .peak_active;
            for n in budget_ladder(floor, unbudgeted) {
                let config = CompilerConfig::nisq(base).with_budget(Some(n));
                let report = compile(&program, &config).unwrap_or_else(|e| {
                    panic!("{}/budget:{n} (floor {floor}): {e}", base.cli_name())
                });
                prop_assert!(
                    report.peak_active <= n,
                    "{}: peak {} over budget {n}",
                    base.cli_name(),
                    report.peak_active
                );
                prop_assert_eq!(report.budget.map(|b| b.cap), Some(n));
            }
        }
    }

    /// (b) `budget:inf` is the base policy: parsing the explicit
    /// infinite-cap spec and compiling under it is field-identical to
    /// the bare base policy, decision log included, with no budget
    /// outcome (and so no recompute counters).
    #[test]
    fn infinite_budget_is_field_identical_to_base(params in arb_params()) {
        let program = synthesize(&params).unwrap();
        for base in Policy::ALL {
            let spec = BudgetPolicy::parse(&format!("{},budget:inf", base.cli_name())).unwrap();
            prop_assert_eq!(spec.base, base);
            prop_assert_eq!(spec.budget, None);
            let capped = compile(
                &program,
                &CompilerConfig::nisq(spec.base).with_budget(spec.budget),
            )
            .unwrap();
            let bare = compile(&program, &CompilerConfig::nisq(base)).unwrap();
            prop_assert_eq!(capped.gates, bare.gates);
            prop_assert_eq!(capped.swaps, bare.swaps);
            prop_assert_eq!(capped.depth, bare.depth);
            prop_assert_eq!(capped.qubits, bare.qubits);
            prop_assert_eq!(capped.peak_active, bare.peak_active);
            prop_assert_eq!(capped.aqv, bare.aqv);
            prop_assert_eq!(capped.decisions, bare.decisions);
            prop_assert_eq!(&capped.decision_log, &bare.decision_log);
            prop_assert_eq!(capped.budget, None);
        }
    }

    /// (c) Shrinking the cap never increases width: over an ascending
    /// budget ladder the reported peak is monotone non-decreasing (a
    /// tighter cap forces reclamation earlier, never later).
    #[test]
    fn peak_width_is_monotone_in_the_cap(params in arb_params()) {
        let program = synthesize(&params).unwrap();
        let floor = compile(&program, &CompilerConfig::nisq(Policy::Eager))
            .unwrap()
            .peak_active;
        for base in [Policy::Lazy, Policy::Square] {
            let unbudgeted = compile(&program, &CompilerConfig::nisq(base))
                .unwrap()
                .peak_active;
            let mut previous = 0usize;
            for n in budget_ladder(floor, unbudgeted) {
                let config = CompilerConfig::nisq(base).with_budget(Some(n));
                let peak = compile(&program, &config).unwrap().peak_active;
                prop_assert!(
                    peak >= previous,
                    "{}: peak shrank from {previous} to {peak} when the cap \
                     grew to {n}",
                    base.cli_name()
                );
                previous = peak;
            }
            // And the ladder tops out at the unbudgeted width.
            prop_assert!(previous <= unbudgeted);
        }
    }
}
