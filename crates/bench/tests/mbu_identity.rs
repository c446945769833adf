//! MBU-off identity: with measurement-based uncomputation disabled
//! (the default), the compiler's output is field-identical to the
//! pre-MBU pipeline — same report JSON byte for byte, no classical
//! bits, no `Measure`/`CondGate` ops anywhere in the trace. This is
//! the contract that keeps committed bench/service fingerprints valid
//! across the MBU rollout.

use proptest::prelude::*;
use square_bench::report_json;
use square_core::{compile, CompilerConfig, Policy};
use square_qir::TraceOp;
use square_workloads::synthetic::{synthesize, SynthParams};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn mbu_off_compiles_are_field_identical(
        seed in any::<u64>(),
        levels in 1usize..=2,
        max_callees in 1usize..=3,
        inputs_per_fn in 2usize..=5,
        max_ancilla in 1usize..=4,
        max_gates in 3usize..=12,
    ) {
        let params = SynthParams {
            levels,
            max_callees,
            inputs_per_fn,
            max_ancilla,
            max_gates,
            seed,
        };
        let program = synthesize(&params).expect("synthetic program builds");
        for policy in [Policy::Eager, Policy::Square] {
            let implicit = compile(&program, &CompilerConfig::nisq(policy))
                .expect("default compile");
            let explicit = compile(
                &program,
                &CompilerConfig::nisq(policy).with_mbu(false),
            )
            .expect("mbu-off compile");
            // Byte-identical wire format: the gated `mbu` block never
            // appears, so pre-MBU fingerprints still match.
            let implicit_json = serde_json::to_string(&report_json(&implicit)).unwrap();
            let explicit_json = serde_json::to_string(&report_json(&explicit)).unwrap();
            prop_assert_eq!(&implicit_json, &explicit_json);
            prop_assert!(!implicit_json.contains("\"mbu\""), "{}", implicit_json);
            // And no classical machinery leaks into the trace.
            prop_assert_eq!(implicit.mbu, None);
            prop_assert!(implicit.trace.iter().all(|op| !matches!(
                op,
                TraceOp::Measure { .. } | TraceOp::CondGate { .. }
            )));
        }
    }
}
