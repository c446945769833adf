//! `squarec` — the `.sq` compiler driver.
//!
//! Compiles textual `.sq` programs (the `square-lang` frontend) end to
//! end through the SQUARE pipeline: parse → resolve → lower → compile
//! → route, optionally running the `square-verify` translation-
//! validation oracle stack over the result.
//!
//! ```text
//! squarec FILE.sq [FILE2.sq …] [flags]
//!   --search-path DIR    extra directory for `import` resolution
//!                        (repeatable; the importing file's directory
//!                        is always tried first, `lib/` always last)
//!   --policy SPEC        lazy | eager | square | laa, optionally
//!                        with a `,budget:N` hard width cap
//!                        (e.g. `square,budget:64`)           (default square)
//!   --arch SPEC          nisq | ft | grid:WxH | full:N | line:N
//!                        | heavyhex[:D] | ring[:N]          (default nisq)
//!   --router NAME        greedy | lookahead                 (default greedy)
//!   --mbu                lower eligible uncompute blocks to
//!                        measure-and-correct when cheaper     (default off)
//!   --all-policies       compile each file under all four policies
//!   --validate           replay + diff the compiled schedule against
//!                        the reference semantics (oracle stack)
//!   --emit WHAT          report | listing | schedule         (default report)
//!   --json               machine-readable output on stdout
//!   --roundtrip          also check parse → pretty → parse is the identity
//!   --dump-catalog DIR   write the 17 built-in benchmarks as .sq files
//! ```
//!
//! Parse errors render as spanned, multi-error diagnostics with
//! line/column carets on stderr. Exit code 0 when everything
//! succeeded, 1 on any parse/compile/validation failure, 2 on usage
//! errors. With `--json`, stdout carries exactly one JSON document
//! (`squarec … --json | jq .` stays valid), everything else goes to
//! stderr.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use serde::Value;
use square_core::{
    compile, error_json, report_json, BudgetPolicy, CompileError, CompileReport, Policy,
    RouterKind, SweepArch,
};
use square_qir::pretty::program_listing;
use square_qir::Program;
use square_workloads::{sq_file_stem, sq_source, Benchmark};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    Report,
    Listing,
    Schedule,
}

struct Options {
    files: Vec<PathBuf>,
    search_path: Vec<PathBuf>,
    policy: Policy,
    budget: Option<usize>,
    arch: SweepArch,
    router: RouterKind,
    mbu: bool,
    all_policies: bool,
    validate: bool,
    emit: Emit,
    json: bool,
    roundtrip: bool,
    dump_catalog: Option<PathBuf>,
}

/// Set as soon as any file fails, so an early exit (EPIPE on stdout)
/// still reports the failure through the exit code.
static FAILED: AtomicBool = AtomicBool::new(false);

fn mark_failed() {
    FAILED.store(true, Ordering::Relaxed);
}

const USAGE: &str = "usage: squarec FILE.sq [FILE2.sq …] \
     [--search-path DIR]… \
     [--policy lazy|eager|square|laa[,budget:N]] \
     [--arch nisq|ft|grid:WxH|full:N|line:N|heavyhex[:D]|ring[:N]] \
     [--router greedy|lookahead] [--mbu] [--all-policies] [--validate] \
     [--emit report|listing|schedule] [--json] [--roundtrip] [--dump-catalog DIR]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        search_path: Vec::new(),
        policy: Policy::Square,
        budget: None,
        arch: SweepArch::NisqAuto,
        router: RouterKind::Greedy,
        mbu: false,
        all_policies: false,
        validate: false,
        emit: Emit::Report,
        json: false,
        roundtrip: false,
        dump_catalog: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--search-path" => opts.search_path.push(PathBuf::from(value(arg)?)),
            "--policy" => {
                // Full spec grammar: base name, `budget:N` cap, or
                // both (`square,budget:64`).
                let v = value(arg)?;
                let spec = BudgetPolicy::parse(&v)
                    .ok_or_else(|| format!("--policy: unknown policy `{v}`"))?;
                opts.policy = spec.base;
                opts.budget = spec.budget;
            }
            "--arch" => {
                let v = value(arg)?;
                opts.arch = v.parse().map_err(|e| format!("--arch: {e}"))?;
            }
            "--router" => {
                let v = value(arg)?;
                opts.router = RouterKind::parse(&v)
                    .ok_or_else(|| format!("--router: unknown router `{v}`"))?;
            }
            "--mbu" => opts.mbu = true,
            "--all-policies" => opts.all_policies = true,
            "--validate" => opts.validate = true,
            "--emit" => {
                opts.emit = match value(arg)?.as_str() {
                    "report" => Emit::Report,
                    "listing" => Emit::Listing,
                    "schedule" => Emit::Schedule,
                    other => return Err(format!("--emit: unknown artifact `{other}`")),
                };
            }
            "--json" => opts.json = true,
            "--roundtrip" => opts.roundtrip = true,
            "--dump-catalog" => opts.dump_catalog = Some(PathBuf::from(value(arg)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if opts.files.is_empty() && opts.dump_catalog.is_none() {
        return Err("no input files (and no --dump-catalog)".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = &opts.dump_catalog {
        if let Err(message) = dump_catalog(dir) {
            eprintln!("{message}");
            mark_failed();
        }
    }

    let mut json_cells: Vec<Value> = Vec::new();
    for file in &opts.files {
        if !run_file(file, &opts, &mut json_cells) {
            mark_failed();
        }
    }
    if opts.json && !opts.files.is_empty() {
        match serde_json::to_string_pretty(&Value::Seq(json_cells)) {
            Ok(text) => {
                write_stdout(&text);
                write_stdout("\n");
            }
            Err(error) => {
                eprintln!("serialization failed: {error}");
                mark_failed();
            }
        }
    }
    if FAILED.load(Ordering::Relaxed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes every catalog benchmark as a `.sq` file under `dir`.
fn dump_catalog(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for bench in Benchmark::ALL {
        let source =
            sq_source(bench).map_err(|e| format!("{}: render failed: {e}", bench.name()))?;
        let path = dir.join(format!("{}.sq", sq_file_stem(bench)));
        std::fs::write(&path, &source)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "{:<12} -> {} ({} lines)",
            bench.name(),
            path.display(),
            source.lines().count()
        );
    }
    Ok(())
}

/// Processes one input file. Returns false on any failure.
fn run_file(file: &Path, opts: &Options, json_cells: &mut Vec<Value>) -> bool {
    let display = file.display().to_string();
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{display}: cannot read: {e}");
            return false;
        }
    };
    // Multi-file parse: `import`s resolve against the file's own
    // directory, then --search-path directories, then `lib/`. An
    // import-free file takes exactly the single-file path.
    let loader = square_lang::SearchPathLoader::with_default_lib(opts.search_path.clone());
    let (map, parsed) = square_lang::parse_files(&display, &source, &loader);
    let program = match parsed {
        Ok(p) => p,
        Err(diags) => {
            eprint!("{}", map.render(&diags));
            eprintln!(
                "{display}: {} error{}",
                diags.len(),
                if diags.len() == 1 { "" } else { "s" }
            );
            return false;
        }
    };

    if opts.roundtrip && !report_roundtrip(&program, &display) {
        return false;
    }

    // Listing emission needs no compile — but `--validate` still means
    // "run the oracle stack", so only skip the compile loop when
    // nothing asked for one.
    let policies: Vec<Policy> = if opts.all_policies {
        Policy::ALL.to_vec()
    } else {
        vec![opts.policy]
    };
    let mut ok = true;
    let mut rows: Vec<(Policy, CompileReport)> = Vec::new();
    if opts.validate || opts.emit != Emit::Listing {
        for &policy in &policies {
            let mut config = opts
                .arch
                .config(policy)
                .with_router(opts.router)
                .with_budget(opts.budget)
                .with_mbu(opts.mbu);
            if opts.emit == Emit::Schedule {
                config = config.with_schedule();
            }
            let outcome = if opts.validate {
                square_verify::validate(&program, &[], &config)
                    .map(|v| v.report)
                    .map_err(validation_failure)
            } else {
                compile(&program, &config).map_err(compile_failure)
            };
            let spec = BudgetPolicy {
                base: policy,
                budget: opts.budget,
            };
            match outcome {
                Ok(report) => rows.push((policy, report)),
                Err((error, detail)) => {
                    eprintln!("{display}: {} on {}: {error}", spec.cli_name(), opts.arch);
                    if opts.json {
                        let mut cell = vec![
                            ("file", Value::String(display.clone())),
                            ("policy", Value::String(policy.cli_name().to_string())),
                            ("arch", Value::String(opts.arch.to_string())),
                            ("router", Value::String(opts.router.cli_name().to_string())),
                            ("error", Value::String(error)),
                        ];
                        if let Some(n) = opts.budget {
                            cell.push(("budget", Value::UInt(n as u64)));
                        }
                        if let Some(detail) = detail {
                            cell.push(("error_detail", detail));
                        }
                        json_cells.push(Value::map(cell));
                    }
                    // Also mark globally, so a later early EPIPE exit
                    // still reports failure through the exit code.
                    mark_failed();
                    ok = false;
                }
            }
        }
    }

    if opts.emit == Emit::Listing {
        if !opts.json {
            write_stdout(&program_listing(&program));
        } else {
            json_cells.push(Value::map([
                ("file", Value::String(display.clone())),
                ("validated", Value::Bool(opts.validate && ok)),
                ("listing", Value::String(program_listing(&program))),
            ]));
        }
        return ok;
    }

    for (policy, report) in &rows {
        if opts.json {
            let mut cell = vec![
                ("file", Value::String(display.clone())),
                ("policy", Value::String(policy.cli_name().to_string())),
                ("arch", Value::String(opts.arch.to_string())),
                ("router", Value::String(opts.router.cli_name().to_string())),
            ];
            if let Some(n) = opts.budget {
                cell.push(("budget", Value::UInt(n as u64)));
            }
            cell.extend([
                ("validated", Value::Bool(opts.validate)),
                ("report", report_json(report)),
            ]);
            if opts.emit == Emit::Schedule {
                cell.push(("schedule", schedule_json(report)));
            }
            json_cells.push(Value::map(cell));
        } else if opts.emit == Emit::Schedule {
            let schedule = report.schedule.as_deref().unwrap_or(&[]);
            write_stdout(&format!(
                "# {display} {} {} — {} scheduled gates, depth {}\n",
                opts.arch,
                policy.cli_name(),
                schedule.len(),
                report.depth
            ));
            let mut chunk = String::new();
            for (i, g) in schedule.iter().enumerate() {
                let _ = writeln!(chunk, "{g}");
                // Flush in batches so multi-million-gate schedules
                // stream instead of materializing one giant string.
                if chunk.len() >= 1 << 16 || i + 1 == schedule.len() {
                    write_stdout(&chunk);
                    chunk.clear();
                }
            }
        }
    }
    if opts.emit == Emit::Report && !opts.json && !rows.is_empty() {
        write_stdout(&render_table(&display, opts, &rows));
    }
    ok
}

/// The scheduled physical circuit as a JSON array (one object per
/// gate, in record order).
fn schedule_json(report: &CompileReport) -> Value {
    let gates: Vec<Value> = report
        .schedule
        .as_deref()
        .unwrap_or(&[])
        .iter()
        .map(|g| {
            Value::map([
                ("gate", Value::String(g.gate.to_string())),
                ("start", Value::UInt(g.start)),
                ("dur", Value::UInt(u64::from(g.dur))),
                ("comm", Value::Bool(g.is_comm)),
            ])
        })
        .collect();
    Value::Seq(gates)
}

/// Writes to stdout, exiting quietly when the reader is gone —
/// `squarec … --emit schedule | head` must not panic on EPIPE. The
/// exit code still reflects any failure recorded so far.
fn write_stdout(text: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    if out.write_all(text.as_bytes()).is_err() || out.flush().is_err() {
        std::process::exit(i32::from(FAILED.load(Ordering::Relaxed)));
    }
}

/// Per-file mini sweep table (one row per compiled policy).
fn render_table(file: &str, opts: &Options, rows: &[(Policy, CompileReport)]) -> String {
    let mut out = String::new();
    let validated = if opts.validate { " [validated]" } else { "" };
    let budget = match opts.budget {
        Some(n) => format!(" budget:{n}"),
        None => String::new(),
    };
    out.push_str(&format!("{file} — {}{budget}{validated}\n", opts.arch));
    out.push_str(&format!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "policy", "gates", "swaps", "depth", "qubits", "peak", "aqv"
    ));
    for (policy, r) in rows {
        out.push_str(&format!(
            "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
            policy.label(),
            r.gates,
            r.swaps,
            r.depth,
            r.qubits,
            r.peak_active,
            r.aqv
        ));
    }
    out
}

/// Renders a compile failure for stderr and carries the structured
/// JSON diagnostic alongside. Out-of-qubits failures — the paper's
/// "too many qubits" mode — get an actionable hint: the error itself
/// already names the offending module, the live/capacity split and
/// (for budgeted runs) the minimum feasible budget.
fn compile_failure(e: CompileError) -> (String, Option<Value>) {
    let detail = error_json(&e);
    let message = match &e {
        CompileError::OutOfQubits {
            policy,
            min_feasible: Some(n),
            ..
        } => format!(
            "{e}\n  hint: retry with `--policy {},budget:{n}` or a larger --arch",
            policy.cli_name()
        ),
        CompileError::OutOfQubits { policy, .. } => format!(
            "{e}\n  hint: a width cap forces earlier reclamation — try \
             `--policy {},budget:N` with N at most the machine size, or a larger --arch",
            policy.cli_name()
        ),
        _ => e.to_string(),
    };
    (message, Some(detail))
}

/// [`compile_failure`] lifted over the oracle stack's error type:
/// compile failures keep their structured diagnostic, everything else
/// (a genuine translation-validation mismatch) stays message-only.
fn validation_failure(e: square_verify::ValidationError) -> (String, Option<Value>) {
    match e {
        square_verify::ValidationError::Compile(ce) => compile_failure(ce),
        other => (other.to_string(), None),
    }
}

/// Checks that the canonical listing of the parsed program parses back
/// to the identical program — the frontend/printer round-trip
/// (`square_lang::check_roundtrip`), reported per file.
fn report_roundtrip(program: &Program, display: &str) -> bool {
    match square_lang::check_roundtrip(program) {
        Ok(()) => {
            eprintln!("{display}: round-trip OK ({} modules)", program.len());
            true
        }
        Err(e) => {
            eprintln!("{display}: round-trip FAILED: {e}");
            false
        }
    }
}
