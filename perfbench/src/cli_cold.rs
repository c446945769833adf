//! `cli-cold`: the user's `squarec file.sq` path, one cold process per
//! cell, run one after another.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use serde::Value;
use square_bench::SweepArch;
use square_core::{Policy, RouterKind};

use crate::common::{
    dump_catalog, fingerprint, geomean, json_fingerprint, median, ms, out_dir, remark,
    repeat_timed, run_measured, Args, Bins, Cell, Fingerprint, Finished, Outcome, SETUP_REPEATS,
};

/// The `examples/sq` programs (each resolves `import std;` or takes the
/// import-free path), compiled square/nisq/greedy.
pub const EXAMPLES: [&str; 5] = [
    "adder",
    "cmp_demo",
    "custom_uncompute",
    "fixmul",
    "grover_oracle",
];

/// Cells faster than this get extra samples after each pass.
const CHEAP_MS: f64 = 50.0;

/// Extra samples per cheap cell per pass.
const CHEAP_EXTRA: usize = 9;

/// One `squarec` invocation: a file plus the cell flags.
#[derive(Debug, Clone)]
pub struct CliCell {
    /// Short name for reports, e.g. `mul64 lazy/nisq/greedy`.
    pub name: String,
    /// The `.sq` file handed to `squarec`.
    pub file: PathBuf,
    /// Cell flags.
    pub cell: Cell,
}

/// The nine cells, with catalog files under `catalog`.
pub fn cells(catalog: &Path) -> Vec<CliCell> {
    let nisq = |p| Cell::new(p, SweepArch::NisqAuto, RouterKind::Greedy);
    let mut cells = vec![
        ("mul64", nisq(Policy::Square)),
        ("mul64", nisq(Policy::Lazy)),
        (
            "mul32",
            Cell::new(
                Policy::Square,
                SweepArch::HeavyHexAuto,
                RouterKind::Lookahead,
            ),
        ),
        (
            "sha2",
            Cell::new(Policy::Square, SweepArch::FtAuto, RouterKind::Greedy),
        ),
    ]
    .into_iter()
    .map(|(stem, cell)| CliCell {
        name: format!("{stem} {}", cell.label()),
        file: catalog.join(format!("{stem}.sq")),
        cell,
    })
    .collect::<Vec<_>>();
    for stem in EXAMPLES {
        let cell = nisq(Policy::Square);
        cells.push(CliCell {
            name: format!("{stem} {}", cell.label()),
            file: Path::new("examples/sq").join(format!("{stem}.sq")),
            cell,
        });
    }
    cells
}

/// Set-up: dump the catalog and check every input file is present.
///
/// # Errors
///
/// When the dump fails or an input is missing.
pub fn setup(bins: &Bins) -> Result<Vec<CliCell>, String> {
    let catalog = out_dir()?.join("catalog");
    dump_catalog(bins, &catalog)?;
    let cells = cells(&catalog);
    for c in &cells {
        if !c.file.is_file() {
            return Err(format!("missing input {}", c.file.display()));
        }
    }
    Ok(cells)
}

/// The `report` object of a `squarec --json` document.
fn report_of(stdout: &[u8]) -> Option<Value> {
    let text = std::str::from_utf8(stdout).ok()?;
    let doc = serde_json::from_str(text).ok()?;
    doc.as_seq()?.first()?.get("report").cloned()
}

/// Runs the end-to-end workload.
///
/// # Errors
///
/// Set-up failures (a failed cell is counted, not an error).
pub fn run(args: &Args, bins: &Bins) -> Result<Outcome, String> {
    let (cells, setup_s) = repeat_timed(SETUP_REPEATS, || setup(bins))?;
    let mut out = Outcome::default();

    // Timed region: whole passes over the nine cells until the time is
    // up, each followed by extra samples of the cells that take under
    // `CHEAP_MS` (their time is mostly process start-up, which needs
    // more samples to settle). Only spawn-to-exit is measured; outputs
    // are kept for later.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut rss: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut outputs: Vec<Vec<Option<Vec<u8>>>> = vec![Vec::new(); cells.len()];
    let mut passes = Vec::new();
    let mut sample = |i: usize| -> Result<f64, String> {
        let done = run_cell(bins, &cells[i])?;
        walls[i].push(ms(done.wall));
        rss[i].push(done.max_rss_kib as f64 / 1024.0);
        outputs[i].push(done.ok.then_some(done.stdout));
        Ok(ms(done.wall))
    };
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass_start = Instant::now();
        let pass_ms = (0..cells.len())
            .map(&mut sample)
            .collect::<Result<Vec<_>, _>>()?;
        passes.push(pass_start.elapsed().as_secs_f64());
        for (i, cell_ms) in pass_ms.into_iter().enumerate() {
            if cell_ms < CHEAP_MS {
                for _ in 0..CHEAP_EXTRA {
                    sample(i)?;
                }
            }
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    // Output checks, outside the timed region: each distinct cell is
    // validated in-process once, and every run's fingerprint must
    // equal the validated compile's.
    let mut aqv = Vec::new();
    let mut routed = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let expected = validated_fingerprint(c);
        if let Err(e) = &expected {
            remark(&format!("{}: validation failed: {e}", c.name));
        }
        for run in &outputs[i] {
            let got: Option<Fingerprint> = run
                .as_deref()
                .and_then(report_of)
                .and_then(|r| json_fingerprint(&r));
            let ok = matches!((&got, &expected), (Some(g), Ok(e)) if g == e);
            if !ok {
                remark(&format!("{}: run mismatch {got:?} vs {expected:?}", c.name));
            }
            out.count(ok);
        }
        if let Ok((gates, swaps, _, _, a)) = expected {
            aqv.push(a as f64);
            routed.push((gates + swaps) as f64);
        }
    }

    let cell_ms: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    for (c, t) in cells.iter().zip(&cell_ms) {
        remark(&format!("{:<44} {t:>10.2} ms", c.name));
    }
    let runs = walls.iter().map(Vec::len).sum::<usize>();
    let peak_rss = rss.iter().map(|r| median(r)).fold(0.0, f64::max);
    remark(&format!(
        "{} passes, {runs} processes in {timed_s:.2} s",
        passes.len()
    ));
    crate::common::note("cli_ms_geomean", geomean(&cell_ms), "ms");
    crate::common::note("cli_s_pass", median(&passes), "s");
    out.push("setup_s", setup_s, "s");
    out.push("latency_ms", geomean(&cell_ms), "ms");
    out.push(
        "throughput_per_s",
        cells.len() as f64 / median(&passes),
        "1/s",
    );
    out.push("peak_rss_mb", peak_rss, "MB");
    out.push("aqv_geomean", geomean(&aqv), "qubit-cycles");
    out.push("routed_gates_geomean", geomean(&routed), "gates");
    Ok(out)
}

/// Spawns `squarec FILE --json <cell flags>` and waits for it.
///
/// # Errors
///
/// When the process cannot be spawned or reaped.
pub fn run_cell(bins: &Bins, c: &CliCell) -> Result<Finished, String> {
    run_measured(
        Command::new(&bins.squarec)
            .arg(&c.file)
            .arg("--json")
            .args(c.cell.squarec_args()),
    )
}

/// Parses the cell's file the way `squarec` does (imports resolved
/// against the file's directory, then `lib/`).
///
/// # Errors
///
/// Rendered diagnostics when the file does not parse.
pub fn parse_file(file: &Path) -> Result<square_qir::Program, String> {
    let display = file.display().to_string();
    let source = std::fs::read_to_string(file).map_err(|e| format!("{display}: {e}"))?;
    let loader = square_lang::SearchPathLoader::with_default_lib(Vec::new());
    let (map, parsed) = square_lang::parse_files(&display, &source, &loader);
    parsed.map_err(|diags| map.render(&diags))
}

/// Compiles and validates the cell in-process through the three-oracle
/// stack and returns the compile's fingerprint.
fn validated_fingerprint(c: &CliCell) -> Result<Fingerprint, String> {
    let program = parse_file(&c.file)?;
    square_verify::validate(&program, &[], &c.cell.config())
        .map(|v| fingerprint(&v.report))
        .map_err(|e| e.to_string())
}

/// Distinct programs of the workload, by file, for the traced run.
pub fn programs(cells: &[CliCell]) -> (Vec<PathBuf>, Vec<usize>) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut index: HashMap<PathBuf, usize> = HashMap::new();
    let of_cell = cells
        .iter()
        .map(|c| {
            *index.entry(c.file.clone()).or_insert_with(|| {
                files.push(c.file.clone());
                files.len() - 1
            })
        })
        .collect();
    (files, of_cell)
}
