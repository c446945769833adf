//! The benchmark baseline recorder and CI regression gate.
//!
//! ```text
//! bench_gate record [--out PATH|-] [--set full|smoke|routing|service] [--samples N]
//! bench_gate check --baseline PATH [--set smoke|full|routing|service] [--samples N] [--tolerance 0.15]
//! ```
//!
//! `record` measures the cells of a set — whole compiles and executor
//! time of catalog benchmarks, or compile-service requests — and
//! writes the machine-readable baseline (calibration-normalized; see
//! `square_bench::baseline`). It writes `BENCH_squared.json` for the
//! service set and `BENCH_square.json` otherwise, unless `--out` says
//! where. `check` re-measures and fails (exit 1) when any
//! deterministic circuit fingerprint drifted, when a cell is missing
//! from the baseline, or when the geomean timing ratio regresses
//! beyond the tolerance.
//!
//! All progress goes to stderr; `record --out -` writes the JSON
//! baseline to stdout so it stays pipeable.

use std::process::ExitCode;

use square_bench::baseline::{self, BenchSet};

struct Options {
    set: BenchSet,
    samples: usize,
    tolerance: f64,
    baseline_path: Option<String>,
    out: Option<String>,
}

fn parse_options(mode: &str, args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        set: if mode == "record" {
            BenchSet::Full
        } else {
            BenchSet::Smoke
        },
        samples: if mode == "record" { 5 } else { 3 },
        tolerance: 0.15,
        baseline_path: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::to_owned)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--set" => {
                let v = value(arg)?;
                opts.set = BenchSet::parse(&v).ok_or_else(|| format!("--set: unknown `{v}`"))?;
            }
            "--samples" => {
                opts.samples = value(arg)?
                    .parse()
                    .map_err(|_| "--samples: not a number".to_string())?;
            }
            "--tolerance" => {
                opts.tolerance = value(arg)?
                    .parse()
                    .map_err(|_| "--tolerance: not a number".to_string())?;
            }
            "--baseline" => opts.baseline_path = Some(value(arg)?),
            "--out" => opts.out = Some(value(arg)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    let opts = parse_options(mode, args.get(1..).unwrap_or(&[]))?;
    match mode {
        "record" => {
            let measured = baseline::measure(opts.set, opts.samples, |line| eprintln!("{line}"))?;
            let json = serde_json::to_string_pretty(&measured).map_err(|e| e.to_string())? + "\n";
            let out = opts.out.unwrap_or_else(|| {
                match opts.set {
                    BenchSet::Service => "BENCH_squared.json",
                    _ => "BENCH_square.json",
                }
                .to_string()
            });
            if out == "-" {
                print!("{json}");
            } else {
                std::fs::write(&out, json).map_err(|e| format!("{out}: {e}"))?;
                eprintln!(
                    "wrote {out} ({} cells, calibration {:.1}ms)",
                    measured.cells.len(),
                    measured.calibration_ns as f64 / 1e6
                );
            }
            Ok(true)
        }
        "check" => {
            let path = opts
                .baseline_path
                .ok_or_else(|| "check needs --baseline <path>".to_string())?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let committed = baseline::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let current = baseline::measure(opts.set, opts.samples, |line| eprintln!("{line}"))?;
            let report = baseline::gate(&committed, &current, opts.tolerance);
            eprint!("{}", report.render());
            Ok(report.ok())
        }
        other => Err(format!(
            "usage: bench_gate record|check [flags] (got `{other}`)"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: bench_gate record [--out PATH|-] [--set full|smoke|routing|service] [--samples N]\n\
                 \x20      bench_gate check --baseline PATH [--set smoke|full|routing|service] [--samples N] [--tolerance F]"
            );
            ExitCode::from(2)
        }
    }
}
