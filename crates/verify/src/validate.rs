//! End-to-end translation validation of one compile.
//!
//! The oracle stack has three layers, each strictly stronger than the
//! last:
//!
//! 1. **Virtual replay** ([`replay_virtual`]): the compiler's executed
//!    trace, replayed on booleans with full hygiene checking — double
//!    allocations, use-after-free, and dirty frees (a reclaimed qubit
//!    not restored to |0⟩) are all hard failures.
//! 2. **Reference semantics** ([`check_reference`]): `square_qir::sem`
//!    re-executes the *lowered* program under a [`RecordedDecisions`]
//!    oracle replaying the compiler's actual per-frame reclamation choices,
//!    and the entry-register values must agree bit-for-bit. This works
//!    for every policy, including CER's machine-state-dependent
//!    decisions.
//! 3. **Physical replay** ([`check_physical`]): the routed, scheduled
//!    physical gate stream — inserted SWAP chains, relocated |0⟩
//!    cells, recycled ancilla slots and all — is stepped in record
//!    order through a [`PhysicalCheck`] (a basis state over every
//!    machine qubit) and read back through the final placement; the
//!    data register must again agree. Swap-chain schedules
//!    additionally pass the per-qubit ASAP consistency check.
//!
//! [`validate`] composes all three over a single compile, and
//! [`validate_benchmark`] runs a catalog benchmark cell. Unless the
//! caller asks for the schedule (`record_schedule`), `validate` never
//! records it: the machine streams each gate through the physical
//! check as it is emitted ([`compile_checked`]), so validation needs
//! memory for the machine and the virtual trace, not for the physical
//! schedule. The placement history exists only to explain a mismatch;
//! compiles are deterministic, so on any physical mismatch `validate`
//! compiles once more with recording on and reports the diagnosis of
//! the recorded schedule, placement journey included.

use std::fmt;

use square_arch::PhysId;
use square_core::{
    compile_checked, compile_prepared, CompileError, CompileReport, CompilerConfig, Policy,
    PreparedProgram, RouterKind, SweepArch,
};
use square_qir::sem::{replay, RecordedDecisions, SemError, TraceFault};
use square_qir::{ClbitId, Clbits, Program, TraceOp, VirtId};
use square_route::{journey_of, PhysicalCheck, ScheduleViolation};
use square_workloads::{build, Benchmark};

/// Which oracle layer detected a disagreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The virtual trace itself is malformed (hygiene violation).
    VirtualReplay,
    /// Virtual trace vs. reference semantics.
    ReferenceSemantics,
    /// Physical schedule vs. virtual trace.
    PhysicalReplay,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::VirtualReplay => "virtual replay",
            Stage::ReferenceSemantics => "reference semantics",
            Stage::PhysicalReplay => "physical replay",
        })
    }
}

/// A detected semantics break, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The virtual trace itself is malformed: a double alloc, a use
    /// after free, a dirty free (an uncompute failed) or a guard read
    /// before its measurement.
    Hygiene(TraceFault),
    /// The reference execution demanded a different number of
    /// reclamation decisions than the compiler recorded.
    DecisionDrift {
        /// Decisions the reference run consumed.
        consumed: usize,
        /// Decisions the compiler recorded.
        recorded: usize,
        /// True if the reference run ran out of recorded decisions.
        overrun: bool,
    },
    /// An entry-register bit differs between two oracle layers.
    OutputDiff {
        /// Layer that disagreed with the virtual trace.
        stage: Stage,
        /// Register position (entry ancilla index).
        index: usize,
        /// Value per the virtual trace.
        virtual_value: bool,
        /// Value per the disagreeing layer.
        other_value: bool,
        /// The virtual qubit at that register position.
        virt: VirtId,
        /// Its final physical cell, if placed.
        phys: Option<PhysId>,
        /// Every physical cell the qubit occupied, in order (empty if
        /// placement history was not recorded).
        journey: Vec<PhysId>,
    },
    /// A swap-chain schedule violated per-qubit ASAP consistency.
    ScheduleInconsistent {
        /// The violation.
        violation: ScheduleViolation,
    },
    /// A classical bit written by a mid-circuit measurement differs
    /// between the virtual trace and the physical replay — the routed
    /// measurement read the wrong cell, or a guarded correction was
    /// mis-scheduled.
    ClbitMismatch {
        /// The classical bit that disagrees.
        clbit: ClbitId,
        /// Its value per the virtual trace (`None`: never recorded
        /// virtually).
        virtual_value: Option<bool>,
        /// Its value per the physical replay (`None`: never recorded
        /// physically).
        physical_value: Option<bool>,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Hygiene(fault) => write!(f, "virtual replay: {fault}"),
            Mismatch::DecisionDrift {
                consumed,
                recorded,
                overrun,
            } => write!(
                f,
                "reference semantics visited {consumed} reclamation points, compiler recorded \
                 {recorded}{}",
                if *overrun { " (oracle overrun)" } else { "" }
            ),
            Mismatch::OutputDiff {
                stage,
                index,
                virtual_value,
                other_value,
                virt,
                phys,
                journey,
            } => {
                write!(
                    f,
                    "{stage}: register[{index}] ({virt}) is {} per the virtual trace but {} \
                     per {stage}",
                    *virtual_value as u8, *other_value as u8
                )?;
                if let Some(p) = phys {
                    write!(f, "; final cell {p}")?;
                }
                if !journey.is_empty() {
                    write!(f, "; journey")?;
                    for p in journey {
                        write!(f, " → {p}")?;
                    }
                }
                Ok(())
            }
            Mismatch::ScheduleInconsistent { violation } => {
                write!(f, "schedule consistency: {violation}")
            }
            Mismatch::ClbitMismatch {
                clbit,
                virtual_value,
                physical_value,
            } => {
                let show = |v: &Option<bool>| match v {
                    Some(b) => (*b as u8).to_string(),
                    None => "unrecorded".to_string(),
                };
                write!(
                    f,
                    "physical replay: classical bit {clbit} is {} per the virtual trace but {} \
                     per the schedule",
                    show(virtual_value),
                    show(physical_value)
                )
            }
        }
    }
}

/// Everything that can end a validation run unsuccessfully.
#[derive(Debug)]
pub enum ValidationError {
    /// The compile itself failed (e.g. out of qubits).
    Compile(CompileError),
    /// The reference execution failed outright.
    Sem(SemError),
    /// The layers disagree — the translation is wrong.
    Mismatch(Box<Mismatch>),
    /// The `.sq` frontend round-trip broke: the canonical listing of
    /// the program failed to parse back, or parsed to a different
    /// program (checked by the pipeline fuzzer for every generated
    /// program).
    RoundTrip(String),
    /// A budgeted compile reported a peak width above its own cap —
    /// the `budget:N` invariant (peak ≤ N for satisfiable cells) was
    /// violated even though the compile claimed success.
    BudgetExceeded {
        /// The requested hard cap.
        budget: usize,
        /// The peak simultaneously-active width actually reported.
        peak: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Compile(e) => write!(f, "compile failed: {e}"),
            ValidationError::Sem(e) => write!(f, "reference execution failed: {e}"),
            ValidationError::Mismatch(m) => write!(f, "semantic mismatch: {m}"),
            ValidationError::RoundTrip(detail) => {
                write!(f, "frontend round-trip failed: {detail}")
            }
            ValidationError::BudgetExceeded { budget, peak } => {
                write!(f, "budget violated: peak width {peak} over cap {budget}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<CompileError> for ValidationError {
    fn from(e: CompileError) -> Self {
        ValidationError::Compile(e)
    }
}

impl From<SemError> for ValidationError {
    fn from(e: SemError) -> Self {
        ValidationError::Sem(e)
    }
}

impl From<TraceFault> for Mismatch {
    fn from(fault: TraceFault) -> Self {
        Mismatch::Hygiene(fault)
    }
}

impl From<Mismatch> for ValidationError {
    fn from(m: Mismatch) -> Self {
        ValidationError::Mismatch(Box::new(m))
    }
}

/// A successfully validated compile.
#[derive(Debug)]
pub struct Validated {
    /// Final entry-register values (agreed on by all three layers).
    pub outputs: Vec<bool>,
    /// The full compile report. It carries the schedule and placement
    /// history only when the config asked for them
    /// (`record_schedule`); otherwise validation streamed the physical
    /// check and recorded neither.
    pub report: CompileReport,
}

/// Replays a virtual trace on booleans with hygiene checking and
/// returns the final values of `register`.
///
/// # Errors
///
/// [`Mismatch::Hygiene`] on malformed traces, including a register
/// qubit that is dead when the register is read after the last op.
pub fn replay_virtual(trace: &[TraceOp], register: &[VirtId]) -> Result<Vec<bool>, Mismatch> {
    Ok(replay(trace, register)?.0)
}

fn output_diff(
    stage: Stage,
    report: &CompileReport,
    virt_vals: &[bool],
    other_vals: &[bool],
) -> Option<Mismatch> {
    let index = virt_vals.iter().zip(other_vals).position(|(a, b)| a != b)?;
    let virt = report.entry_register[index];
    let phys = report.final_placement.get(&virt).copied();
    let journey = report
        .placement_history
        .as_deref()
        .map(|h| journey_of(h, virt))
        .unwrap_or_default();
    Some(Mismatch::OutputDiff {
        stage,
        index,
        virtual_value: virt_vals[index],
        other_value: other_vals[index],
        virt,
        phys,
        journey,
    })
}

/// Checks the compiled result against the reference semantics run
/// under the compiler's own recorded reclamation decisions. `lowered`
/// must be the MCX-lowered program (the form the executor actually
/// compiled, and the form whose frame order the decision log follows).
///
/// # Errors
///
/// [`ValidationError::Sem`] if the reference run fails,
/// [`ValidationError::Mismatch`] on decision drift or output
/// disagreement.
pub fn check_reference(
    lowered: &Program,
    inputs: &[bool],
    report: &CompileReport,
    virt_vals: &[bool],
) -> Result<(), ValidationError> {
    let mut oracle = RecordedDecisions::new(report.decision_bools());
    let sem = square_qir::sem::run(lowered, inputs, &mut oracle)?;
    if !oracle.in_sync() {
        return Err(Mismatch::DecisionDrift {
            consumed: oracle.consumed(),
            recorded: report.decision_log.len(),
            overrun: oracle.overrun(),
        }
        .into());
    }
    if let Some(m) = output_diff(Stage::ReferenceSemantics, report, virt_vals, &sem.outputs) {
        return Err(m.into());
    }
    Ok(())
}

/// Replays the routed physical schedule and checks the read-back
/// register against the virtual values. Swap-chain schedules also
/// pass the per-qubit ASAP consistency check, and every classical bit
/// recorded by mid-circuit measurements must agree between the
/// virtual trace and the physical replay (MBU cells are validated
/// through the same side channel that steers them).
///
/// # Errors
///
/// [`Mismatch::ScheduleInconsistent`] / [`Mismatch::OutputDiff`] /
/// [`Mismatch::ClbitMismatch`].
///
/// # Panics
///
/// Panics if the report carries no recorded schedule: compile with
/// `record_schedule` on. ([`validate`] needs no recording; it streams
/// the same check from the machine.)
pub fn check_physical(report: &CompileReport, virt_vals: &[bool]) -> Result<(), Mismatch> {
    let (_, virt) = replay(&report.trace, &[])?;
    check_physical_against(report, virt_vals, virt.clbits())
}

/// [`check_physical`] against the classical bits of a virtual replay
/// the caller already ran.
fn check_physical_against(
    report: &CompileReport,
    virt_vals: &[bool],
    virt_clbits: &Clbits,
) -> Result<(), Mismatch> {
    let schedule = report
        .schedule
        .as_deref()
        .expect("checking a report requires a recorded schedule");
    let check = PhysicalCheck::run(schedule, report.machine_qubits, report.comm);
    physical_verdict(report, &check, virt_vals, virt_clbits)
}

/// The physical layer's verdict on a finished [`PhysicalCheck`], in
/// priority order: the swap-chain interval test, then the read-back
/// register, then the classical side channel.
fn physical_verdict(
    report: &CompileReport,
    check: &PhysicalCheck,
    virt_vals: &[bool],
    virt_clbits: &Clbits,
) -> Result<(), Mismatch> {
    if let Some(violation) = check.violation() {
        return Err(Mismatch::ScheduleInconsistent { violation });
    }
    let phys_vals = check.read(&report.measure_map());
    if let Some(m) = output_diff(Stage::PhysicalReplay, report, virt_vals, &phys_vals) {
        return Err(m);
    }
    match virt_clbits.first_difference(check.clbits()) {
        Some(clbit) => Err(Mismatch::ClbitMismatch {
            clbit,
            virtual_value: virt_clbits.get(clbit),
            physical_value: check.clbits().get(clbit),
        }),
        None => Ok(()),
    }
}

/// Explains a physical mismatch found on a streamed compile: compiles
/// again with recording on (compiles are deterministic) and returns the
/// recorded schedule's diagnosis, placement journey included. A report
/// that was already recorded, or a recompile that somehow disagrees,
/// keeps `streamed`.
fn explain_physical(
    prepared: &PreparedProgram,
    inputs: &[bool],
    config: &CompilerConfig,
    report: &CompileReport,
    virt_vals: &[bool],
    virt_clbits: &Clbits,
    streamed: Mismatch,
) -> Mismatch {
    if report.schedule.is_some() {
        return streamed;
    }
    compile_prepared(prepared, inputs, &config.clone().with_schedule())
        .ok()
        .and_then(|recorded| check_physical_against(&recorded, virt_vals, virt_clbits).err())
        .unwrap_or(streamed)
}

/// Compiles `program` under `config` and validates the result through
/// all three oracle layers. The physical layer is streamed from the
/// machine unless `config.record_schedule` asks for the schedule, in
/// which case it runs over the recorded one (see the module docs).
///
/// # Errors
///
/// See [`ValidationError`].
pub fn validate(
    program: &Program,
    inputs: &[bool],
    config: &CompilerConfig,
) -> Result<Validated, ValidationError> {
    let prepared = PreparedProgram::new(program)?;
    let (report, check) = compile_checked(&prepared, inputs, config)?;
    let (virt_vals, virt) =
        replay(&report.trace, &report.entry_register).map_err(Mismatch::from)?;
    check_reference(prepared.lowered(), inputs, &report, &virt_vals)?;
    if let Err(streamed) = physical_verdict(&report, &check, &virt_vals, virt.clbits()) {
        let m = explain_physical(
            &prepared,
            inputs,
            config,
            &report,
            &virt_vals,
            virt.clbits(),
            streamed,
        );
        return Err(m.into());
    }
    Ok(Validated {
        outputs: virt_vals,
        report,
    })
}

/// Deterministic alternating input pattern for a benchmark's input
/// register (the pattern the integration suites use).
pub fn default_inputs(bench: Benchmark) -> Vec<bool> {
    (0..bench.input_qubits()).map(|i| i % 2 == 0).collect()
}

/// Validates one catalog benchmark under one policy on one target.
///
/// # Errors
///
/// See [`ValidationError`]; benchmark build failures surface as
/// [`ValidationError::Compile`].
pub fn validate_benchmark(
    bench: Benchmark,
    policy: Policy,
    machine: SweepArch,
) -> Result<Validated, ValidationError> {
    validate_benchmark_with(bench, policy, machine, RouterKind::Greedy)
}

/// [`validate_benchmark`] with an explicit swap-chain router.
///
/// # Errors
///
/// See [`ValidationError`].
pub fn validate_benchmark_with(
    bench: Benchmark,
    policy: Policy,
    machine: SweepArch,
    router: RouterKind,
) -> Result<Validated, ValidationError> {
    let program = build(bench).map_err(CompileError::from)?;
    validate(
        &program,
        &default_inputs(bench),
        &machine.config(policy).with_router(router),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_core::compile_with_inputs;
    use square_qir::{lower_mcx, Gate, ProgramBuilder};

    fn small_program() -> Program {
        let mut b = ProgramBuilder::new();
        let child = b
            .module("child", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let a = m.ancilla(0);
                m.cx(x, a);
                m.store();
                m.cx(a, out);
            })
            .unwrap();
        let main = b
            .module("main", 0, 3, |m| {
                let (x, s, out) = (m.ancilla(0), m.ancilla(1), m.ancilla(2));
                m.x(x);
                m.call(child, &[x, s]);
                m.store();
                m.cx(s, out);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    #[test]
    fn validate_passes_for_all_policies_on_both_targets() {
        let p = small_program();
        for policy in Policy::ALL {
            for machine in [SweepArch::NisqAuto, SweepArch::FtAuto] {
                let cfg = machine.config(policy);
                let v =
                    validate(&p, &[], &cfg).unwrap_or_else(|e| panic!("{policy}/{machine}: {e}"));
                assert!(v.outputs[2], "{policy}/{machine}: stored output");
                // The default streams the physical check and records
                // nothing; asking for the schedule records both.
                assert!(v.report.schedule.is_none());
                assert!(v.report.placement_history.is_none());
                let recorded = validate(&p, &[], &cfg.with_schedule())
                    .unwrap_or_else(|e| panic!("{policy}/{machine} recorded: {e}"));
                assert_eq!(recorded.outputs, v.outputs);
                assert!(recorded.report.schedule.is_some());
                assert!(recorded.report.placement_history.is_some());
            }
        }
    }

    #[test]
    fn tampered_schedule_is_caught() {
        let p = small_program();
        let cfg = CompilerConfig::nisq(Policy::Lazy).with_schedule();
        let mut report = compile_with_inputs(&p, &[], &cfg).unwrap();
        let virt_vals = replay_virtual(&report.trace, &report.entry_register).unwrap();
        check_physical(&report, &virt_vals).expect("untampered schedule validates");
        // Flip one program gate into an X on the measured output cell:
        // the physical replay must now disagree.
        let out_cell = report.measure_map()[2];
        let schedule = report.schedule.as_mut().unwrap();
        let last = schedule.last().unwrap().clone();
        schedule.push(square_route::ScheduledGate {
            gate: Gate::X { target: out_cell },
            start: last.end(),
            dur: 1,
            is_comm: false,
            guard: None,
            measure: None,
        });
        let err = check_physical(&report, &virt_vals).unwrap_err();
        match err {
            Mismatch::OutputDiff { stage, index, .. } => {
                assert_eq!(stage, Stage::PhysicalReplay);
                assert_eq!(index, 2);
            }
            other => panic!("wrong mismatch: {other}"),
        }
    }

    /// A program whose child frame is Toffoli-built, so MBU wins the
    /// weighted compare and the compile emits measure-and-correct.
    fn toffoli_program() -> Program {
        let mut b = ProgramBuilder::new();
        let child = b
            .module("and2", 3, 2, |m| {
                let (x, y, out) = (m.param(0), m.param(1), m.param(2));
                let (a, t) = (m.ancilla(0), m.ancilla(1));
                m.ccx(x, y, a);
                m.ccx(x, a, t);
                m.store();
                m.cx(t, out);
            })
            .unwrap();
        let main = b
            .module("main", 0, 4, |m| {
                let (x, y, t, out) = (m.ancilla(0), m.ancilla(1), m.ancilla(2), m.ancilla(3));
                m.x(x);
                m.x(y);
                m.call(child, &[x, y, t]);
                m.store();
                m.cx(t, out);
            })
            .unwrap();
        b.finish(main).unwrap()
    }

    #[test]
    fn mbu_compiles_validate_through_all_three_oracles() {
        let p = toffoli_program();
        for machine in [SweepArch::NisqAuto, SweepArch::FtAuto] {
            let cfg = machine.config(Policy::Eager).with_mbu(true);
            let v = validate(&p, &[], &cfg).unwrap_or_else(|e| panic!("{machine}: {e}"));
            assert!(
                v.report.mbu.is_some_and(|m| m.mbu_frames > 0),
                "{machine}: MBU actually engaged"
            );
            assert!(v.outputs[3], "{machine}: stored output survives MBU");
        }
    }

    #[test]
    fn tampered_clbit_is_caught_and_named() {
        let p = toffoli_program();
        let cfg = SweepArch::NisqAuto
            .config(Policy::Eager)
            .with_mbu(true)
            .with_schedule();
        let mut report = compile_with_inputs(&p, &[], &cfg).unwrap();
        let virt_vals = replay_virtual(&report.trace, &report.entry_register).unwrap();
        check_physical(&report, &virt_vals).expect("untampered MBU schedule validates");
        // Retarget one measurement to a fresh clbit: the recorded bit
        // vanishes physically and the diagnostic must name it.
        let schedule = report.schedule.as_mut().unwrap();
        let g = schedule
            .iter_mut()
            .find(|g| g.measure.is_some())
            .expect("MBU schedule contains a measurement");
        let original = g.measure.take().unwrap();
        g.measure = Some(ClbitId(original.0 + 1000));
        let err = check_physical(&report, &virt_vals).unwrap_err();
        match &err {
            Mismatch::ClbitMismatch { clbit, .. } => {
                assert!(*clbit == original || clbit.0 == original.0 + 1000);
            }
            other => panic!("wrong mismatch: {other}"),
        }
        assert!(err.to_string().contains("classical bit c"), "{err}");
    }

    #[test]
    fn tampered_decision_log_is_caught_as_drift() {
        let p = small_program();
        let cfg = CompilerConfig::nisq(Policy::Eager).with_schedule();
        let mut report = compile_with_inputs(&p, &[], &cfg).unwrap();
        let virt_vals = replay_virtual(&report.trace, &report.entry_register).unwrap();
        let lowered = lower_mcx(&p);
        check_reference(&lowered, &[], &report, &virt_vals).expect("clean log checks out");
        report.decision_log.pop();
        let err = check_reference(&lowered, &[], &report, &virt_vals).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::Mismatch(ref m)
                    if matches!(**m, Mismatch::DecisionDrift { overrun: true, .. })
            ),
            "got: {err}"
        );
    }

    #[test]
    fn dirty_trace_is_caught() {
        use TraceFault::*;
        use TraceOp::*;
        let v = VirtId(0);
        let trace = vec![Alloc(v), Gate(square_qir::Gate::X { target: v }), Free(v)];
        assert_eq!(
            replay_virtual(&trace, &[]),
            Err(Mismatch::Hygiene(DirtyFree { qubit: v, at: 2 }))
        );
        let use_after = vec![Alloc(v), Free(v), Gate(square_qir::Gate::X { target: v })];
        assert_eq!(
            replay_virtual(&use_after, &[]),
            Err(Mismatch::Hygiene(UseAfterFree { qubit: v, at: 2 }))
        );
        assert_eq!(
            replay_virtual(&[Alloc(v), Alloc(v)], &[]),
            Err(Mismatch::Hygiene(DoubleAlloc { qubit: v, at: 1 }))
        );
        // A register qubit dead at read-out is reported after the last
        // op, not at op #0.
        assert_eq!(
            replay_virtual(&[Alloc(v), Free(v)], &[v]),
            Err(Mismatch::Hygiene(UseAfterFree { qubit: v, at: 2 }))
        );
        let c = ClbitId(0);
        let unmeasured = vec![
            Alloc(v),
            CondGate {
                clbit: c,
                gate: square_qir::Gate::X { target: v },
            },
        ];
        assert_eq!(
            replay_virtual(&unmeasured, &[]),
            Err(Mismatch::Hygiene(UnmeasuredGuard { clbit: c, at: 1 }))
        );
    }

    #[test]
    fn streamed_mismatches_are_explained_by_a_recorded_recompile() {
        let p = small_program();
        let cfg = CompilerConfig::nisq(Policy::Square);
        let prepared = PreparedProgram::new(&p).unwrap();
        let (report, check) = compile_checked(&prepared, &[], &cfg).unwrap();
        assert!(report.placement_history.is_none(), "streamed");
        let (virt_vals, virt) = replay(&report.trace, &report.entry_register).unwrap();
        physical_verdict(&report, &check, &virt_vals, virt.clbits()).expect("clean compile");
        // Flip one register bit: the streamed verdict sees the diff
        // but has no placement history to explain it.
        let mut flipped = virt_vals.clone();
        flipped[0] = !flipped[0];
        let streamed = physical_verdict(&report, &check, &flipped, virt.clbits()).unwrap_err();
        assert!(
            matches!(&streamed, Mismatch::OutputDiff { journey, .. } if journey.is_empty()),
            "{streamed}"
        );
        let m = explain_physical(
            &prepared,
            &[],
            &cfg,
            &report,
            &flipped,
            virt.clbits(),
            streamed,
        );
        match &m {
            Mismatch::OutputDiff {
                stage,
                index,
                journey,
                ..
            } => {
                assert_eq!((*stage, *index), (Stage::PhysicalReplay, 0));
                assert!(!journey.is_empty(), "explained from the recorded recompile");
            }
            other => panic!("wrong mismatch: {other}"),
        }
        assert!(m.to_string().contains("journey"), "{m}");
    }

    #[test]
    fn mismatch_diagnostics_name_the_journey() {
        let p = small_program();
        let cfg = CompilerConfig::nisq(Policy::Square).with_schedule();
        let report = compile_with_inputs(&p, &[], &cfg).unwrap();
        let virt_vals = replay_virtual(&report.trace, &report.entry_register).unwrap();
        let mut flipped = virt_vals.clone();
        flipped[0] = !flipped[0];
        let m = output_diff(Stage::PhysicalReplay, &report, &virt_vals, &flipped).unwrap();
        let text = m.to_string();
        assert!(text.contains("register[0]"), "{text}");
        assert!(text.contains("journey"), "{text}");
    }
}
