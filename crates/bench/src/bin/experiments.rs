//! Regenerates the paper's tables and figures, and runs policy sweeps.
//!
//! Legacy figure/table mode (one positional argument):
//!
//! ```text
//! experiments [fig1|fig5|table3|table4|fig8|fig8-fast|fig9|fig9-quick|fig10|fig10-quick|ablation|ablation-router|ablation-budget|ablation-budget-json|ablation-mbu|ablation-mbu-json|sweep|all|all-quick]
//! ```
//!
//! Sweep mode (any flag selects it): evaluates the
//! `benchmark × policy × arch` product in parallel and prints a table,
//! or a serialized matrix with `--json`.
//!
//! ```text
//! experiments [--bench RD53,ADDER4,...] [--policy lazy,eager,square,laa]
//!             [--arch nisq,ft,grid:WxH,full:N,line:N,heavyhex:D,ring:N]
//!             [--router greedy,lookahead|both] [--budgets N,M,inf] [--json]
//! ```
//!
//! Flag defaults: the NISQ benchmark set, all four policies, the
//! auto-sized NISQ lattice, the greedy router.

use std::process::ExitCode;
use std::time::Instant;

use std::sync::atomic::{AtomicUsize, Ordering};

use square_bench::{ablation, fig1, fig10, fig5, fig8, fig9, sweep, table3, table4};
use square_bench::{run_sweep_with_progress, SweepArch, SweepSpec};
use square_core::{Policy, RouterKind};
use square_workloads::Benchmark;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a.starts_with("--")) {
        run_sweep_cli(&args)
    } else {
        run_legacy(args.first().map(String::as_str).unwrap_or("all"))
    }
}

/// Splits a comma-separated flag value and parses each element.
fn parse_list<T>(
    flag: &str,
    value: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).ok_or_else(|| format!("{flag}: unknown value `{s}`")))
        .collect()
}

fn sweep_spec_from_flags(args: &[String]) -> Result<(SweepSpec, bool), String> {
    let mut spec = SweepSpec::nisq_default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--json" => json = true,
            "--bench" | "--benchmark" => {
                spec.benchmarks = parse_list(arg, flag_value(arg)?, Benchmark::from_name)?;
            }
            "--policy" => {
                spec.policies = parse_list(arg, flag_value(arg)?, Policy::parse)?;
            }
            "--arch" => {
                spec.archs = parse_list(arg, flag_value(arg)?, |s| s.parse::<SweepArch>().ok())?;
            }
            "--budgets" | "--budget" => {
                // `inf`/`none` is the unbudgeted base cell; numbers are
                // hard width caps (the `budget:N` policy dimension).
                spec.budgets = parse_list(arg, flag_value(arg)?, |s| {
                    if s.eq_ignore_ascii_case("inf")
                        || s == "\u{221e}"
                        || s.eq_ignore_ascii_case("none")
                    {
                        Some(None)
                    } else {
                        s.parse::<usize>().ok().filter(|&n| n > 0).map(Some)
                    }
                })?;
            }
            "--router" => {
                let value = flag_value(arg)?;
                spec.routers = if value.eq_ignore_ascii_case("both") {
                    RouterKind::ALL.to_vec()
                } else {
                    parse_list(arg, value, RouterKind::parse)?
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if spec.is_empty() {
        return Err("empty sweep: every axis needs at least one value".to_string());
    }
    Ok((spec, json))
}

fn run_sweep_cli(args: &[String]) -> ExitCode {
    let (spec, json) = match sweep_spec_from_flags(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: experiments [--bench A,B] [--policy lazy,eager,square,laa] \
                 [--arch nisq,ft,grid:WxH,full:N,line:N,heavyhex:D,ring:N] \
                 [--router greedy,lookahead|both] [--budgets N,M,inf] [--json]"
            );
            return ExitCode::from(2);
        }
    };
    // Progress always goes to stderr: with `--json`, stdout carries
    // exactly one JSON document so the output stays pipeable
    // (`experiments --json | jq .`).
    let total = spec.len();
    let done = AtomicUsize::new(0);
    let matrix = run_sweep_with_progress(&spec, |cell| {
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        let outcome = match &cell.report {
            Ok(r) => format!("aqv {}", r.aqv),
            Err(e) => format!("failed: {e}"),
        };
        eprintln!(
            "[{n}/{total}] {} {} {} {}: {} ({:.0}ms)",
            cell.benchmark,
            cell.arch,
            cell.policy.cli_name(),
            cell.router.cli_name(),
            outcome,
            cell.compile_ms
        );
    });
    if json {
        match serde_json::to_string_pretty(&matrix) {
            Ok(text) => println!("{text}"),
            Err(error) => {
                eprintln!("serialization failed: {error}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", matrix.render_table());
    }
    ExitCode::SUCCESS
}

fn run_legacy(arg: &str) -> ExitCode {
    let t = Instant::now();
    let run = |name: &str, body: &dyn Fn() -> String| {
        let start = Instant::now();
        println!("==== {name} ====");
        println!("{}", body());
        println!("({name} took {:?})\n", start.elapsed());
    };
    match arg {
        "fig1" => run("fig1", &fig1::render),
        "fig5" => run("fig5", &fig5::render),
        "table3" => run("table3", &table3::render),
        "table4" => run("table4", &table4::render),
        "fig8" => run("fig8", &|| fig8::render(8192)),
        "fig8-fast" => run("fig8", &|| fig8::render(1024)),
        "fig9" => run("fig9", &|| fig9::render(false)),
        "fig9-quick" => run("fig9", &|| fig9::render(true)),
        "fig10" => run("fig10", &|| fig10::render(false)),
        "fig10-quick" => run("fig10", &|| fig10::render(true)),
        "ablation" => run("ablation", &ablation::render),
        "ablation-router" => run("ablation-router", &ablation::render_router),
        "ablation-budget" => run("ablation-budget", &ablation::render_budget),
        "ablation-mbu" => run("ablation-mbu", &ablation::render_mbu),
        "ablation-mbu-json" => {
            // MBU on/off cells for the CI artifact: exactly one JSON
            // document on stdout, nothing else.
            let cells = ablation::ablation_mbu(&square_workloads::Benchmark::NISQ);
            match serde_json::to_string_pretty(&serde::Value::seq(&cells)) {
                Ok(text) => println!("{text}"),
                Err(error) => {
                    eprintln!("serialization failed: {error}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "ablation-budget-json" => {
            // Machine-readable frontier for the CI artifact: exactly
            // one JSON document on stdout, nothing else.
            let cells = ablation::budget_pareto(
                &[
                    square_workloads::Benchmark::Rd53,
                    square_workloads::Benchmark::Adder4,
                    square_workloads::Benchmark::BelleS,
                ],
                3,
            );
            match serde_json::to_string_pretty(&serde::Value::seq(&cells)) {
                Ok(text) => println!("{text}"),
                Err(error) => {
                    eprintln!("serialization failed: {error}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "sweep" => run("sweep", &sweep::render),
        "all" | "all-quick" => {
            let quick = arg == "all-quick";
            run("table4", &table4::render);
            run("fig1", &fig1::render);
            run("fig5", &fig5::render);
            run("table3", &table3::render);
            run("fig8", &|| fig8::render(if quick { 1024 } else { 8192 }));
            run("fig9", &|| fig9::render(quick));
            run("fig10", &|| fig10::render(quick));
            run("sweep", &sweep::render);
            run("ablation", &ablation::render);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            return ExitCode::from(2);
        }
    }
    println!("total: {:?}", t.elapsed());
    ExitCode::SUCCESS
}
