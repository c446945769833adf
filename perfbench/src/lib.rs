//! The SQUARE benchmark: three user paths, each measured end to end,
//! plus a traced run that times every layer's public entry point.
//!
//! * `cli-cold` — one cold `squarec --json` process per cell;
//! * `serve-mix` — a live `squared` under two closed-loop clients;
//! * `verify-matrix` — catalog sweep, translation validation and
//!   pipeline fuzzing, in-process.
//!
//! Run from the root of a checkout:
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload cli-cold --seed 1 --seconds 20 --trace 0`. The last line
//! of stdout is the JSON result; the lines before it name every
//! measurement with its unit.

pub mod cli_cold;
pub mod common;
pub mod layers;
pub mod replay;
pub mod serve_mix;
pub mod spans;
pub mod verify_matrix;

use common::{build_bins, Args, Bins, Outcome, Workload};
use layers::Inputs;
use serve_mix::ServeProgram;

/// Requests of the `serve-mix` stream the traced run replays.
const TRACED_REQUESTS: usize = 3000;

/// Runs one workload, end to end or traced.
///
/// # Errors
///
/// Build or set-up failures; failed operations are counted in the
/// outcome instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let bins = build_bins()?;
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        let inputs = traced_inputs(args, &bins)?;
        return layers::run(args, &bins, &inputs);
    }
    match args.workload {
        Workload::CliCold => cli_cold::run(args, &bins),
        Workload::ServeMix => serve_mix::run(args, &bins),
        Workload::VerifyMatrix => verify_matrix::run(args),
    }
}

/// The inputs the traced run replays for `args.workload`: the same
/// programs and cells as the end-to-end run, as single-file sources.
fn traced_inputs(args: &Args, bins: &Bins) -> Result<Inputs, String> {
    match args.workload {
        Workload::CliCold => {
            let cells = cli_cold::setup(bins)?;
            let (files, of_cell) = cli_cold::programs(&cells);
            let programs = files
                .iter()
                .map(|f| {
                    let program = cli_cold::parse_file(f)?;
                    Ok(ServeProgram {
                        name: f.display().to_string(),
                        source: square_qir::pretty::program_listing(&program),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let n = cells.len();
            Ok(Inputs {
                programs,
                cells: of_cell
                    .into_iter()
                    .zip(cells.iter().map(|c| c.cell))
                    .collect(),
                requests: (0..n).chain(0..n).collect(),
                warm: false,
                catalog_sweep: false,
            })
        }
        Workload::ServeMix => {
            let setup = serve_mix::setup(bins, args.seed)?;
            setup.server.stop();
            Ok(Inputs {
                programs: setup.programs,
                cells: setup.pool,
                requests: setup
                    .stream
                    .iter()
                    .take(TRACED_REQUESTS)
                    .map(|&c| c as usize)
                    .collect(),
                warm: true,
                catalog_sweep: false,
            })
        }
        Workload::VerifyMatrix => {
            let programs = square_workloads::Benchmark::ALL
                .iter()
                .map(|&b| {
                    square_workloads::sq_source(b)
                        .map(|source| ServeProgram {
                            name: b.name().to_string(),
                            source,
                        })
                        .map_err(|e| format!("{b}: {e}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let cells = verify_matrix::cells();
            let n = cells.len();
            Ok(Inputs {
                programs,
                cells,
                requests: (0..n).chain(0..n).collect(),
                warm: false,
                catalog_sweep: true,
            })
        }
    }
}
