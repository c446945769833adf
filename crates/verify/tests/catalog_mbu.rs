//! Full-catalog translation validation with measurement-based
//! uncomputation enabled: every NISQ benchmark compiles under the
//! Eager policy (the upper bound on MBU engagement) with `mbu` on,
//! and the result passes all three oracle layers — virtual-trace
//! hygiene, the reference semantics, and the physical replay with its
//! classical-bit side channel — on both the NISQ lattice and the FT
//! tile grid.

use square_verify::{default_inputs, validate};

use square_core::{Policy, SweepArch};
use square_workloads::{build, Benchmark};

fn validate_catalog(machine: SweepArch) {
    let mut engaged = 0u64;
    for bench in Benchmark::NISQ {
        let program = build(bench).expect("benchmark builds");
        let config = machine.config(Policy::Eager).with_mbu(true);
        let validated = validate(&program, &default_inputs(bench), &config)
            .unwrap_or_else(|e| panic!("{bench} on {machine}: {e}"));
        let stats = validated
            .report
            .mbu
            .unwrap_or_else(|| panic!("{bench} on {machine}: MBU stats present"));
        engaged += stats.mbu_frames;
    }
    // The catalog is Toffoli-heavy: across the set, MBU must actually
    // fire somewhere, or this test would only certify the off-path.
    assert!(
        engaged > 0,
        "{machine}: MBU never engaged across the catalog"
    );
}

#[test]
fn nisq_catalog_validates_with_mbu_on_the_nisq_lattice() {
    validate_catalog(SweepArch::NisqAuto);
}

#[test]
fn nisq_catalog_validates_with_mbu_on_the_ft_grid() {
    validate_catalog(SweepArch::FtAuto);
}
