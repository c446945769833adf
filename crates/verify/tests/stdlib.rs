//! Functional correctness of `lib/std.sq` — every routine checked
//! against its integer/boolean specification through the reference
//! semantics — plus the validation matrix: each routine compiling and
//! translation-validating across the full policy × machine × router
//! product (the exhaustive product is `#[ignore]`d for the CI stdlib
//! job; a quick subset always runs).

use square_core::{Policy, SweepArch};
use square_lang::{parse_files, MapLoader};
use square_qir::sem::{self, ReclaimOracle};
use square_qir::{lower_mcx, ModuleId, Program};
use square_verify::fuzz::STDLIB_SOURCE;
use square_verify::validate::validate;

/// Every stdlib routine with its arity, for driver generation.
const ROUTINES: &[(&str, usize)] = &[
    ("add4", 13),
    ("add8", 25),
    ("cla4", 13),
    ("eq4", 9),
    ("lt4", 9),
    ("mul4", 16),
    ("fpmul4", 12),
    ("and4", 5),
    ("or4", 5),
    ("parity4", 5),
    ("mark5", 5),
];

/// Resolves an `import std;` root against the compiled-in stdlib.
fn program_with(entry: &str) -> Program {
    let mut loader = MapLoader::new();
    loader.insert("std", STDLIB_SOURCE);
    let (map, parsed) = parse_files("test.sq", entry, &loader);
    match parsed {
        Ok(p) => p,
        Err(diags) => panic!("driver failed to parse:\n{}", map.render(&diags)),
    }
}

/// An entry module that forwards its whole register to one routine.
fn driver(name: &str, arity: usize) -> Program {
    let args: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
    program_with(&format!(
        "import std;\nentry module main(0 params, {arity} ancilla) {{\n  compute {{\n    \
         call {name}({});\n  }}\n}}\n",
        args.join(", ")
    ))
}

/// Reclaims every routine frame (so params conjugated during a
/// routine's compute are restored and scratch is freed) but keeps the
/// driver's top-level frame intact — its results land on entry
/// ancillas during the entry's compute block, and reclaiming the
/// entry would mechanically undo them.
struct ChildFramesOnly;

impl ReclaimOracle for ChildFramesOnly {
    fn reclaim(&mut self, _module: ModuleId, depth: usize) -> bool {
        depth > 0
    }
}

/// Reference-semantics run: prep `inputs` on the leading ancillas,
/// read back the final entry register.
fn run(program: &Program, inputs: &[bool]) -> Vec<bool> {
    let lowered = lower_mcx(program);
    sem::run(&lowered, inputs, &mut ChildFramesOnly)
        .expect("reference semantics run")
        .outputs
}

/// `value` as `n` little-endian bits.
fn bits(value: u32, n: usize) -> Vec<bool> {
    (0..n).map(|i| value >> i & 1 == 1).collect()
}

/// Little-endian bits back to an integer.
fn value(bits: &[bool]) -> u32 {
    bits.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum()
}

fn two_operand_inputs(a: u32, b: u32, n: usize) -> Vec<bool> {
    let mut v = bits(a, n);
    v.extend(bits(b, n));
    v
}

#[test]
fn adders_match_integer_addition() {
    for name in ["add4", "cla4"] {
        let program = driver(name, 13);
        for a in 0..16u32 {
            for b in 0..16u32 {
                let out = run(&program, &two_operand_inputs(a, b, 4));
                assert_eq!(value(&out[8..13]), a + b, "{name}({a}, {b})");
                assert_eq!(value(&out[..8]), a | b << 4, "{name}: operands clobbered");
            }
        }
    }
}

#[test]
fn add8_matches_integer_addition_on_a_sample() {
    let program = driver("add8", 25);
    for i in 0..256u32 {
        let (a, b) = (i, i.wrapping_mul(37) % 256);
        let out = run(&program, &two_operand_inputs(a, b, 8));
        assert_eq!(value(&out[16..25]), a + b, "add8({a}, {b})");
    }
}

#[test]
fn comparators_match_integer_comparison() {
    let eq = driver("eq4", 9);
    let lt = driver("lt4", 9);
    for a in 0..16u32 {
        for b in 0..16u32 {
            let inputs = two_operand_inputs(a, b, 4);
            assert_eq!(run(&eq, &inputs)[8], a == b, "eq4({a}, {b})");
            assert_eq!(run(&lt, &inputs)[8], a < b, "lt4({a}, {b})");
        }
    }
}

#[test]
fn mul4_matches_integer_multiplication() {
    let program = driver("mul4", 16);
    for a in 0..16u32 {
        for b in 0..16u32 {
            let out = run(&program, &two_operand_inputs(a, b, 4));
            assert_eq!(value(&out[8..16]), a * b, "mul4({a}, {b})");
        }
    }
}

#[test]
fn fpmul4_truncates_the_q44_product() {
    // Q2.2 × Q2.2: the full product is Q4.4; fpmul4 stores bits 2..6
    // of the integer product — the Q2.2 window, truncating toward
    // zero. 1.5 × 2.5 = 3.75 is exact: 0110 × 1010 → 1111.
    let program = driver("fpmul4", 12);
    for a in 0..16u32 {
        for b in 0..16u32 {
            let out = run(&program, &two_operand_inputs(a, b, 4));
            assert_eq!(value(&out[8..12]), ((a * b) >> 2) & 0xF, "fpmul4({a}, {b})");
        }
    }
    let out = run(&program, &two_operand_inputs(0b0110, 0b1010, 4));
    assert_eq!(value(&out[8..12]), 0b1111);
}

#[test]
fn oracles_match_their_boolean_functions() {
    type Oracle = (&'static str, fn(u32) -> bool);
    let cases: &[Oracle] = &[
        ("and4", |q| q == 0xF),
        ("or4", |q| q != 0),
        ("parity4", |q| q.count_ones() % 2 == 1),
        ("mark5", |q| q == 5),
    ];
    for &(name, spec) in cases {
        let program = driver(name, 5);
        for q in 0..16u32 {
            let out = run(&program, &bits(q, 4));
            assert_eq!(out[4], spec(q), "{name}({q:04b})");
            assert_eq!(value(&out[..4]), q, "{name}: query clobbered");
        }
    }
}

#[test]
fn every_routine_validates_on_the_quick_subset() {
    // Always-on smoke: every routine's driver translation-validates
    // under every policy on the auto-sized NISQ lattice.
    for &(name, arity) in ROUTINES {
        let program = driver(name, arity);
        for policy in Policy::ALL {
            validate(&program, &[], &SweepArch::NisqAuto.config(policy))
                .unwrap_or_else(|e| panic!("{name}/{policy:?}/nisq: {e}"));
        }
    }
}

#[test]
#[ignore = "exhaustive matrix — run by the CI stdlib job"]
fn every_routine_validates_on_the_full_matrix() {
    // The acceptance matrix: policy × {nisq, ft, heavyhex, ring} ×
    // router for every stdlib routine.
    for &(name, arity) in ROUTINES {
        let program = driver(name, arity);
        for machine in SweepArch::AUTO {
            for policy in Policy::ALL {
                for &router in machine.routers() {
                    validate(&program, &[], &machine.config(policy).with_router(router))
                        .unwrap_or_else(|e| {
                            panic!("{name}/{policy:?}/{machine:?}/{router:?}: {e}")
                        });
                }
            }
        }
    }
}
