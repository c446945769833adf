//! `verify-matrix`: the research and CI path, in-process. (a) the
//! 17-benchmark × 4-policy × {nisq, ft} catalog sweep, (b) translation
//! validation of the same 136 cells, (c) pipeline fuzzing on seeds
//! derived from the benchmark seed.

use std::time::Instant;

use rayon::prelude::*;
use square_bench::{run_sweep, SweepArch, SweepSpec};
use square_core::{Policy, RouterKind};
use square_qir::Program;
use square_verify::validate::default_inputs;
use square_verify::{run_case, FuzzCase};
use square_workloads::{build, Benchmark};

use crate::common::{
    geomean, median, ms, note, remark, repeat_timed, Args, Cell, Outcome, SplitMix, SETUP_REPEATS,
};

/// Fuzz cases per pass (each validates dozens of cells).
pub const FUZZ_CASES: usize = 40;

/// The sweep product: every catalog benchmark under every policy on the
/// auto-sized NISQ and FT machines, greedy routing.
pub fn sweep_spec() -> SweepSpec {
    SweepSpec {
        benchmarks: Benchmark::ALL.to_vec(),
        policies: Policy::ALL.to_vec(),
        archs: vec![SweepArch::NisqAuto, SweepArch::FtAuto],
        routers: vec![RouterKind::Greedy],
        budgets: vec![None],
    }
}

/// The 136 cells as `(benchmark index, cell)`, in sweep order.
pub fn cells() -> Vec<(usize, Cell)> {
    sweep_spec()
        .cells()
        .into_iter()
        .map(|(bench, policy, arch, router, _)| {
            let index = Benchmark::ALL
                .iter()
                .position(|b| *b == bench)
                .expect("sweep benchmarks come from the catalog");
            (index, Cell::new(policy, arch, router))
        })
        .collect()
}

/// Fuzz meta-seeds derived from the benchmark seed.
pub fn fuzz_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(seed, 0xf022);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// Set-up: build the catalog programs and derive the fuzz seeds.
///
/// # Errors
///
/// When a catalog program fails to build.
pub fn setup(seed: u64) -> Result<(Vec<Program>, Vec<u64>), String> {
    let programs = Benchmark::ALL
        .iter()
        .map(|&b| build(b).map_err(|e| format!("{b}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((programs, fuzz_seeds(seed, FUZZ_CASES)))
}

/// Runs the end-to-end workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((programs, seeds), setup_s) = repeat_timed(SETUP_REPEATS, || setup(args.seed))?;
    let cells = cells();
    let spec = sweep_spec();
    let mut out = Outcome::default();

    let (mut sweep_s, mut validate_rate, mut fuzz_rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut verdict_ms: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let (mut aqv, mut routed) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while sweep_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // (a) the catalog sweep.
        let matrix = run_sweep(&spec);
        sweep_s.push(matrix.wall_ms / 1e3);

        // (b) translation validation of the same cells.
        let t = Instant::now();
        let verdicts: Vec<(bool, f64)> = cells
            .par_iter()
            .map(|(b, cell)| {
                let t = Instant::now();
                let bench = Benchmark::ALL[*b];
                let ok =
                    square_verify::validate(&programs[*b], &default_inputs(bench), &cell.config())
                        .is_ok();
                (ok, ms(t.elapsed()))
            })
            .collect();
        validate_rate.push(cells.len() as f64 / t.elapsed().as_secs_f64());

        // (c) pipeline fuzzing.
        let t = Instant::now();
        let cases: Vec<Result<usize, String>> = seeds
            .par_iter()
            .map(|&s| {
                run_case(&FuzzCase::from_seed(s))
                    .map(|stats| stats.cells)
                    .map_err(|f| format!("fuzz seed {s}: {}", f.error))
            })
            .collect();
        let fuzz_secs = t.elapsed().as_secs_f64();

        // Checks, outside the timed parts: the oracles are the workload.
        aqv.clear();
        routed.clear();
        for c in &matrix.cells {
            out.count(c.report.is_ok());
            if let Ok(r) = &c.report {
                aqv.push(r.aqv as f64);
                routed.push((r.gates + r.swaps) as f64);
            }
        }
        for (i, (ok, t)) in verdicts.into_iter().enumerate() {
            if !ok {
                let (b, cell) = &cells[i];
                remark(&format!(
                    "{} {}: validation failed",
                    Benchmark::ALL[*b],
                    cell.label()
                ));
            }
            out.count(ok);
            verdict_ms[i].push(t);
        }
        let mut fuzz_cells = 0;
        for case in &cases {
            match case {
                Ok(n) => fuzz_cells += n,
                Err(e) => remark(e),
            }
            out.count(case.is_ok());
        }
        fuzz_rate.push(fuzz_cells as f64 / fuzz_secs);
    }

    remark(&format!(
        "{} passes of {} sweep + {} validation cells + {} fuzz cases",
        sweep_s.len(),
        spec.len(),
        cells.len(),
        seeds.len()
    ));
    note("sweep_s", median(&sweep_s), "s");
    note("validate_cells_per_s", median(&validate_rate), "cells/s");
    note("fuzz_cells_per_s", median(&fuzz_rate), "cells/s");
    out.push("setup_s", setup_s, "s");
    let per_cell: Vec<f64> = verdict_ms.iter().map(|v| median(v)).collect();
    out.push("latency_ms", geomean(&per_cell), "ms");
    out.push(
        "throughput_per_s",
        spec.len() as f64 / median(&sweep_s),
        "1/s",
    );
    out.push(
        "peak_rss_mb",
        crate::common::vm_hwm_kib("self").unwrap_or(0) as f64 / 1024.0,
        "MB",
    );
    out.push("aqv_geomean", geomean(&aqv), "qubit-cycles");
    out.push("routed_gates_geomean", geomean(&routed), "gates");
    Ok(out)
}
