//! Seeded pipeline fuzzing: random modular programs through
//! compile → route → replay, across every policy and both machine
//! targets, with greedy shrinking of failing cases.
//!
//! One meta-seed deterministically derives a [`SynthParams`] draw plus
//! an input pattern ([`FuzzCase::from_seed`]); [`run_case`] validates
//! the generated program over the full `policy × machine` product and
//! additionally cross-checks that every cell agrees on the observable
//! outputs (inputs echoed back plus the store-protected result). A
//! failing case greedily [`shrink`]s toward the smallest program
//! structure that still fails and prints as a one-line reproducer
//! ([`FuzzCase::spec`] / [`FuzzCase::parse_spec`]).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use square_core::{Policy, RouterKind, SweepArch};
use square_qir::sem::TraceFault;
use square_qir::Program;
use square_workloads::synthetic::{synthesize, synthesize_disciplined, SynthParams};

use crate::validate::{validate, Mismatch, Stage, ValidationError};

/// Domain separator so case derivation is independent of any other
/// consumer of the same seed.
const META_SEED_SALT: u64 = 0x5147_5541_5245_F22E;

/// One fuzz case: the derived program knobs plus an input pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Meta-seed this case was derived from (0 for hand-built cases).
    pub seed: u64,
    /// Synthetic-program knobs.
    pub params: SynthParams,
    /// Computational-basis input bits for the entry register.
    pub inputs: Vec<bool>,
}

impl FuzzCase {
    /// Derives the case for a meta-seed. Knob ranges are chosen so a
    /// single case compiles in milliseconds while still exercising
    /// nesting, fan-out, Toffoli lowering, and forced reclamation.
    pub fn from_seed(seed: u64) -> FuzzCase {
        let mut rng = StdRng::seed_from_u64(seed ^ META_SEED_SALT);
        let params = SynthParams {
            levels: rng.gen_range(1..=4usize),
            max_callees: rng.gen_range(1..=3usize),
            inputs_per_fn: rng.gen_range(2..=6usize),
            max_ancilla: rng.gen_range(1..=4usize),
            max_gates: rng.gen_range(2..=14usize),
            seed: rng.gen::<u64>(),
        };
        let inputs = (0..params.inputs_per_fn.max(2))
            .map(|_| rng.gen::<bool>())
            .collect();
        FuzzCase {
            seed,
            params,
            inputs,
        }
    }

    /// One-token reproducer spec:
    /// `levels=2,callees=1,inputs=3,anc=2,gates=6,seed=123,bits=101`.
    pub fn spec(&self) -> String {
        let bits: String = self
            .inputs
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        format!(
            "levels={},callees={},inputs={},anc={},gates={},seed={},bits={}",
            self.params.levels,
            self.params.max_callees,
            self.params.inputs_per_fn,
            self.params.max_ancilla,
            self.params.max_gates,
            self.params.seed,
            bits
        )
    }

    /// Parses a [`FuzzCase::spec`] line back into a case.
    pub fn parse_spec(spec: &str) -> Option<FuzzCase> {
        let mut params = SynthParams {
            levels: 0,
            max_callees: 0,
            inputs_per_fn: 0,
            max_ancilla: 0,
            max_gates: 0,
            seed: 0,
        };
        let mut inputs = Vec::new();
        for field in spec.split(',') {
            let (key, value) = field.split_once('=')?;
            match key.trim() {
                "levels" => params.levels = value.parse().ok()?,
                "callees" => params.max_callees = value.parse().ok()?,
                "inputs" => params.inputs_per_fn = value.parse().ok()?,
                "anc" => params.max_ancilla = value.parse().ok()?,
                "gates" => params.max_gates = value.parse().ok()?,
                "seed" => params.seed = value.parse().ok()?,
                "bits" => {
                    inputs = value
                        .chars()
                        .map(|c| match c {
                            '0' => Some(false),
                            '1' => Some(true),
                            _ => None,
                        })
                        .collect::<Option<Vec<bool>>>()?;
                }
                _ => return None,
            }
        }
        (params.levels > 0).then_some(FuzzCase {
            seed: 0,
            params,
            inputs,
        })
    }
}

/// Statistics from one passing case.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// `policy × machine` cells validated.
    pub cells: usize,
    /// Total program gates across all cells.
    pub gates: u64,
    /// Total routing swaps across all cells.
    pub swaps: u64,
}

/// One failing cell of a case.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The case that failed.
    pub case: FuzzCase,
    /// Policy of the failing cell.
    pub policy: Policy,
    /// Machine target of the failing cell.
    pub machine: SweepArch,
    /// Swap-chain router of the failing cell.
    pub router: RouterKind,
    /// True if the failing program came from the disciplined
    /// generator (the cross-policy differential half of the case).
    pub disciplined: bool,
    /// What went wrong.
    pub error: ValidationError,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {} [{}] {}/{}/{} ({}): {}",
            self.case.seed,
            self.case.spec(),
            self.policy.cli_name(),
            self.machine,
            self.router.cli_name(),
            if self.disciplined { "clean" } else { "free" },
            self.error
        )
    }
}

/// Validates one program over the full `policy × machine × router`
/// product — every machine target ([`SweepArch::AUTO`], heavy-hex
/// and ring included) under every router the target routes with —
/// plus one *budgeted* cell: Square capped at the program's own
/// eager-probe width floor (the tightest always-satisfiable
/// `budget:N`), which must validate through the full oracle stack
/// AND stay under its cap — and one *MBU* cell (Eager with
/// measurement-based uncomputation on), which validates the classical
/// side channel.
/// With `cross_check`, the observable register (echoed inputs + the
/// store-protected result; the scratch cell between them is
/// legitimately policy-dependent) must also agree across every cell —
/// only sound for disciplined programs.
fn run_program(
    program: &Program,
    inputs: &[bool],
    cross_check: bool,
    stats: &mut CaseStats,
) -> Result<(), (Policy, SweepArch, RouterKind, ValidationError)> {
    let mut reference: Option<(Vec<bool>, bool)> = None;
    for machine in SweepArch::AUTO {
        for policy in Policy::ALL {
            for &router in machine.routers() {
                let v = validate(program, inputs, &machine.config(policy).with_router(router))
                    .map_err(|e| (policy, machine, router, e))?;
                stats.cells += 1;
                stats.gates += v.report.gates;
                stats.swaps += v.report.swaps;
                if !cross_check {
                    continue;
                }
                let echoed = v.outputs[..inputs.len()].to_vec();
                let result = *v.outputs.last().expect("entry register is non-empty");
                match &reference {
                    None => reference = Some((echoed, result)),
                    Some((ref_echo, ref_result)) => {
                        if *ref_echo != echoed || *ref_result != result {
                            // Name the first diverging bit and report
                            // *its* two values (an echoed input, or
                            // the result).
                            let (index, reference_value, cell_value) = ref_echo
                                .iter()
                                .zip(&echoed)
                                .position(|(a, b)| a != b)
                                .map(|i| (i, ref_echo[i], echoed[i]))
                                .unwrap_or((v.outputs.len() - 1, *ref_result, result));
                            let m = Mismatch::OutputDiff {
                                stage: Stage::ReferenceSemantics,
                                index,
                                virtual_value: reference_value,
                                other_value: cell_value,
                                virt: v.report.entry_register[index],
                                phys: None,
                                journey: vec![],
                            };
                            return Err((
                                policy,
                                machine,
                                router,
                                ValidationError::Mismatch(Box::new(m)),
                            ));
                        }
                    }
                }
            }
        }
    }
    // The budgeted cell: probe the frame-granularity width floor with
    // Eager, then demand Square fit under exactly that cap. The floor
    // is satisfiable by construction (the budget clamp never needs
    // more than the eager stack width), so any failure here — compile,
    // oracle mismatch, or a peak over the cap — is a real bug.
    let (machine, router) = (SweepArch::NisqAuto, RouterKind::Greedy);
    let floor = square_core::compile(program, &machine.config(Policy::Eager))
        .map_err(|e| (Policy::Eager, machine, router, ValidationError::Compile(e)))?
        .peak_active;
    let cfg = machine
        .config(Policy::Square)
        .with_router(router)
        .with_budget(Some(floor));
    let v = validate(program, inputs, &cfg).map_err(|e| (Policy::Square, machine, router, e))?;
    stats.cells += 1;
    stats.gates += v.report.gates;
    stats.swaps += v.report.swaps;
    if v.report.peak_active > floor {
        let e = ValidationError::BudgetExceeded {
            budget: floor,
            peak: v.report.peak_active,
        };
        return Err((Policy::Square, machine, router, e));
    }
    // The MBU cell: the same program with measurement-based
    // uncomputation enabled, under Eager — the policy that reclaims
    // every frame, so any MBU-eligible slice actually gets the
    // measure-and-correct lowering and the classical side channel is
    // exercised through all three oracles.
    let cfg = machine
        .config(Policy::Eager)
        .with_router(router)
        .with_mbu(true);
    let v = validate(program, inputs, &cfg).map_err(|e| (Policy::Eager, machine, router, e))?;
    stats.cells += 1;
    stats.gates += v.report.gates;
    stats.swaps += v.report.swaps;
    Ok(())
}

/// Runs one case: the *free* program through per-cell translation
/// validation (free programs may legitimately be policy-divergent, so
/// no cross-cell check), then the *disciplined* sibling — same seed,
/// same shape — through per-cell validation plus the cross-policy
/// differential check.
///
/// A generation error is a failure too: the fuzzer's contract is that
/// every generated program validates.
///
/// # Errors
///
/// The first failing cell, boxed with its case.
pub fn run_case(case: &FuzzCase) -> Result<CaseStats, Box<FuzzFailure>> {
    let mut stats = CaseStats::default();
    for disciplined in [false, true] {
        let fail = |policy, machine, router, error| {
            Box::new(FuzzFailure {
                case: case.clone(),
                policy,
                machine,
                router,
                disciplined,
                error,
            })
        };
        let generated = if disciplined {
            synthesize_disciplined(&case.params)
        } else {
            synthesize(&case.params)
        };
        let program = match generated {
            Ok(p) => p,
            Err(e) => {
                return Err(fail(
                    Policy::Lazy,
                    SweepArch::NisqAuto,
                    RouterKind::Greedy,
                    ValidationError::Compile(e.into()),
                ))
            }
        };
        // Frontend coverage for free: every generated program must
        // survive the `.sq` pretty → parse round trip unchanged
        // before it enters the semantic cells.
        if let Err(e) = square_lang::check_roundtrip(&program) {
            return Err(fail(
                Policy::Lazy,
                SweepArch::NisqAuto,
                RouterKind::Greedy,
                ValidationError::RoundTrip(e.to_string()),
            ));
        }
        if let Err((policy, machine, router, error)) =
            run_program(&program, &case.inputs, disciplined, &mut stats)
        {
            return Err(fail(policy, machine, router, error));
        }
    }
    Ok(stats)
}

/// Candidate one-step reductions of a case, largest-first.
fn reductions(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzCase)| {
        let mut c = case.clone();
        f(&mut c);
        if c.params != case.params || c.inputs != case.inputs {
            out.push(c);
        }
    };
    push(&|c| c.params.levels = (c.params.levels.saturating_sub(1)).max(1));
    push(&|c| c.params.max_callees = (c.params.max_callees.saturating_sub(1)).max(1));
    push(&|c| c.params.max_gates = (c.params.max_gates / 2).max(1));
    push(&|c| c.params.max_gates = (c.params.max_gates.saturating_sub(1)).max(1));
    push(&|c| c.params.max_ancilla = (c.params.max_ancilla.saturating_sub(1)).max(1));
    push(&|c| {
        c.params.inputs_per_fn = (c.params.inputs_per_fn.saturating_sub(1)).max(2);
        // Keep the case structurally valid: the entry register only
        // holds `inputs_per_fn` input cells, and over-long inputs
        // would fail as TooManyInputs instead of the bug being shrunk.
        let cap = c.params.inputs_per_fn.max(2);
        c.inputs.truncate(cap);
    });
    push(&|c| {
        for b in &mut c.inputs {
            *b = false;
        }
    });
    push(&|c| {
        let n = c.inputs.len();
        c.inputs.truncate(n.saturating_sub(1));
    });
    out
}

/// Coarse failure class used to keep shrinking on-topic: a candidate
/// only counts as "still failing" when it fails the same way as the
/// original (otherwise a reduction that merely trips a *different*
/// error — a compile failure, say — would hijack the reproducer).
fn failure_class(e: &ValidationError) -> &'static str {
    match e {
        ValidationError::Compile(_) => "compile",
        ValidationError::Sem(_) => "sem",
        ValidationError::RoundTrip(_) => "round-trip",
        ValidationError::BudgetExceeded { .. } => "budget",
        ValidationError::Mismatch(m) => match **m {
            Mismatch::Hygiene(ref fault) => match fault {
                TraceFault::DoubleAlloc { .. } => "double-alloc",
                TraceFault::UseAfterFree { .. } => "use-after-free",
                TraceFault::DirtyFree { .. } => "dirty-free",
                TraceFault::UnmeasuredGuard { .. } => "unmeasured-guard",
            },
            Mismatch::DecisionDrift { .. } => "decision-drift",
            Mismatch::OutputDiff { .. } => "output-diff",
            Mismatch::ScheduleInconsistent { .. } => "schedule",
            Mismatch::ClbitMismatch { .. } => "clbit",
        },
    }
}

/// Greedily shrinks a failing case: repeatedly applies the first
/// single-knob reduction that still fails *in the same way*, until
/// none does. Returns the shrunk case and its failure.
pub fn shrink(case: &FuzzCase) -> (FuzzCase, Box<FuzzFailure>) {
    let mut best = case.clone();
    let mut failure = run_case(&best).expect_err("shrink called on a passing case");
    let class = failure_class(&failure.error);
    loop {
        let mut improved = false;
        for candidate in reductions(&best) {
            match run_case(&candidate) {
                Err(f) if failure_class(&f.error) == class => {
                    best = candidate;
                    failure = f;
                    improved = true;
                    break;
                }
                _ => {}
            }
        }
        if !improved {
            return (best, failure);
        }
    }
}

// -------------------------------------------------------------------
// Stdlib-composition mode: random entry modules assembled from
// `lib/std.sq` calls, checked differentially against the flattened
// single-file form.

/// The standard library shipped at `lib/std.sq`, compiled in so
/// stdlib-composition cases need no filesystem.
pub const STDLIB_SOURCE: &str = include_str!("../../../lib/std.sq");

/// Domain separator for stdlib-case derivation.
const STDLIB_SEED_SALT: u64 = 0x5147_5344_4C49_B001;

/// Composable stdlib routines: (name, arity, leading input bits
/// eligible for X-prep — the remaining args are outputs and start
/// |0⟩). `fpmul4` pulls `mul4` and `add8` in transitively, so the
/// roster covers the whole arithmetic layer.
const STDLIB_ROSTER: &[(&str, usize, usize)] = &[
    ("add4", 13, 8),
    ("cla4", 13, 8),
    ("eq4", 9, 8),
    ("lt4", 9, 8),
    ("fpmul4", 12, 8),
    ("and4", 5, 4),
    ("or4", 5, 4),
    ("parity4", 5, 4),
    ("mark5", 5, 4),
];

/// One stdlib-composition case: a deterministic random entry module
/// over `import std;`, each call on its own ancilla region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdlibCase {
    /// Meta-seed the case derives from.
    pub seed: u64,
    /// The generated root-file source (starts with `import std;`).
    pub source: String,
}

impl StdlibCase {
    /// Derives the case for a meta-seed: 1–3 roster calls, disjoint
    /// ancilla regions, random X-prep over each call's input bits.
    pub fn from_seed(seed: u64) -> StdlibCase {
        let mut rng = StdRng::seed_from_u64(seed ^ STDLIB_SEED_SALT);
        let calls = rng.gen_range(1..=3usize);
        let mut preps = String::new();
        let mut body = String::new();
        let mut base = 0usize;
        for _ in 0..calls {
            let (name, arity, inputs) = STDLIB_ROSTER[rng.gen_range(0..STDLIB_ROSTER.len())];
            for i in 0..inputs {
                if rng.gen::<bool>() {
                    preps.push_str(&format!("    x a{};\n", base + i));
                }
            }
            let args: Vec<String> = (base..base + arity).map(|i| format!("a{i}")).collect();
            body.push_str(&format!("    call {name}({});\n", args.join(", ")));
            base += arity;
        }
        let source = format!(
            "import std;\nentry module main(0 params, {base} ancilla) {{\n  compute {{\n{preps}{body}  }}\n}}\n"
        );
        StdlibCase { seed, source }
    }
}

/// A failing stdlib-composition case: the seed reproduces it
/// (`fuzz_pipeline --stdlib --start SEED --count 1`), and the
/// generated source is carried for the reproducer artifact.
#[derive(Debug)]
pub struct StdlibFailure {
    /// The failing case (seed + generated source).
    pub case: StdlibCase,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for StdlibFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stdlib seed {}: {}", self.case.seed, self.detail)
    }
}

/// Runs one stdlib-composition case:
///
/// 1. the generated root resolves against the compiled-in stdlib
///    through the real multi-file pass ([`square_lang::parse_files`]
///    over a [`square_lang::MapLoader`]), and must round-trip;
/// 2. the program validates over the full machine × policy × router
///    product (plus the budgeted and MBU cells), like any fuzz case;
/// 3. differentially, the import path must agree bit-for-bit with the
///    *flattened* single-file form (entry concatenated with the whole
///    stdlib — module pruning and import resolution must not change
///    observable semantics) under both Square and Eager.
///
/// # Errors
///
/// The failing case with a one-line reason.
pub fn run_stdlib_case(case: &StdlibCase) -> Result<CaseStats, Box<StdlibFailure>> {
    let fail = |detail: String| {
        Box::new(StdlibFailure {
            case: case.clone(),
            detail,
        })
    };
    let mut loader = square_lang::MapLoader::new();
    loader.insert("std", STDLIB_SOURCE);
    let (_, parsed) = square_lang::parse_files("fuzz.sq", &case.source, &loader);
    let program = parsed.map_err(|diags| {
        let first = diags.first().map(|d| d.to_string()).unwrap_or_default();
        fail(format!("multi-file frontend rejected the case: {first}"))
    })?;
    if let Err(e) = square_lang::check_roundtrip(&program) {
        return Err(fail(format!("round trip failed: {e}")));
    }
    let flat_source = format!(
        "{}\n{STDLIB_SOURCE}",
        case.source.replacen("import std;\n", "", 1)
    );
    let flat = square_lang::parse_program(&flat_source).map_err(|diags| {
        let first = diags.first().map(|d| d.to_string()).unwrap_or_default();
        fail(format!("flattened form rejected: {first}"))
    })?;

    let mut stats = CaseStats::default();
    run_program(&program, &[], false, &mut stats).map_err(|(policy, machine, router, e)| {
        fail(format!(
            "{}/{machine}/{} failed: {e}",
            policy.cli_name(),
            router.cli_name()
        ))
    })?;
    // Import-vs-flat differential: the resolved program and the
    // flattened one must observe identical entry registers.
    for policy in [Policy::Square, Policy::Eager] {
        let config = SweepArch::NisqAuto.config(policy);
        let via_import = validate(&program, &[], &config)
            .map_err(|e| fail(format!("import path under {}: {e}", policy.cli_name())))?;
        let via_flat = validate(&flat, &[], &config)
            .map_err(|e| fail(format!("flattened path under {}: {e}", policy.cli_name())))?;
        stats.cells += 2;
        stats.gates += via_import.report.gates + via_flat.report.gates;
        stats.swaps += via_import.report.swaps + via_flat.report.swaps;
        if via_import.outputs != via_flat.outputs {
            return Err(fail(format!(
                "import and flattened outputs diverge under {}: {:?} vs {:?}",
                policy.cli_name(),
                via_import.outputs,
                via_flat.outputs
            )));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_derive_deterministically() {
        let a = FuzzCase::from_seed(7);
        let b = FuzzCase::from_seed(7);
        assert_eq!(a, b);
        assert_ne!(a.params, FuzzCase::from_seed(8).params);
        assert!(a.params.levels >= 1 && a.params.levels <= 4);
        assert_eq!(a.inputs.len(), a.params.inputs_per_fn.max(2));
    }

    #[test]
    fn spec_round_trips() {
        let case = FuzzCase::from_seed(1234);
        let parsed = FuzzCase::parse_spec(&case.spec()).unwrap();
        assert_eq!(parsed.params, case.params);
        assert_eq!(parsed.inputs, case.inputs);
        assert_eq!(FuzzCase::parse_spec("garbage"), None);
        assert_eq!(FuzzCase::parse_spec("levels=x"), None);
    }

    #[test]
    fn a_handful_of_seeds_validate_cleanly() {
        for seed in 0..4u64 {
            let case = FuzzCase::from_seed(seed);
            let stats = run_case(&case).unwrap_or_else(|f| panic!("{f}"));
            // 4 policies × (3 swap-chain machines × 2 routers + ft) ×
            // 2 generation modes, plus one budgeted Square cell and
            // one MBU-enabled Eager cell per generated program.
            assert_eq!(stats.cells, 60, "full machine × router product");
            assert!(stats.gates > 0);
        }
    }

    #[test]
    fn stdlib_cases_derive_deterministically() {
        let a = StdlibCase::from_seed(11);
        assert_eq!(a, StdlibCase::from_seed(11));
        assert_ne!(a.source, StdlibCase::from_seed(12).source);
        assert!(a.source.starts_with("import std;\n"));
        assert!(a.source.contains("call "));
    }

    #[test]
    fn a_handful_of_stdlib_seeds_validate_cleanly() {
        for seed in 0..3u64 {
            let case = StdlibCase::from_seed(seed);
            let stats = run_stdlib_case(&case).unwrap_or_else(|f| panic!("{f}\n{}", f.case.source));
            // One program through the full matrix (half of run_case's
            // 60, which covers two programs) plus the four
            // import-vs-flat differential cells.
            assert_eq!(stats.cells, 30 + 4, "matrix + import/flat differential");
            assert!(stats.gates > 0);
        }
    }

    #[test]
    fn reductions_strictly_simplify() {
        let case = FuzzCase::from_seed(42);
        for r in reductions(&case) {
            let sum = |c: &FuzzCase| {
                c.params.levels
                    + c.params.max_callees
                    + c.params.max_gates
                    + c.params.max_ancilla
                    + c.params.inputs_per_fn
                    + c.inputs.iter().filter(|&&b| b).count()
                    + c.inputs.len()
            };
            assert!(sum(&r) < sum(&case), "{r:?}");
        }
    }
}
