//! The traced run: replays a workload's inputs in-process, calling each
//! layer's public entry point inside a span, and derives the per-layer
//! metrics from the spans' self times and the layers' own counters.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use square_arch::Topology;
use square_bench::{report_json, SweepArch};
use square_core::{compile, compile_prepared_on, ModuleCostTable, PreparedProgram};
use square_qir::analysis::ProgramStats;
use square_qir::Program;
use square_service::proto::Request;
use square_service::{CompileService, ServiceConfig};
use square_verify::validate::{check_physical, check_reference, replay_virtual};

use crate::common::{
    fingerprint, median, ms, out_dir, remark, run_measured, Args, Bins, Cell, Outcome,
};
use crate::replay::replay;
use crate::serve_mix::{self, ServeProgram};
use crate::spans::Tracer;

/// What the traced run replays for one workload.
pub struct Inputs {
    /// Distinct programs as single-file sources.
    pub programs: Vec<ServeProgram>,
    /// Distinct cells: program index plus cell.
    pub cells: Vec<(usize, Cell)>,
    /// The service stream, as indices into `cells`.
    pub requests: Vec<usize>,
    /// Warm the service caches (as `serve-mix` set-up does) before the
    /// stream.
    pub warm: bool,
    /// Run the sweep layer through `square_bench::run_sweep` on the
    /// catalog product instead of compiling `cells` in parallel.
    pub catalog_sweep: bool,
}

/// A one-module program for `cli.startup_ms`.
const ONE_MODULE: &str = "entry module main(0 params, 3 ancilla) {\n  \
     compute { x a0; cx a0 a1; }\n  store { cx a1 a2; }\n}\n";

/// `squarec` start-up samples.
const STARTUP_RUNS: usize = 15;

/// Frontend-and-prepare repeats per program (medians are reported).
const PREFIX_REPEATS: usize = 5;

/// Executor runs and route replays per cell (medians are reported).
const CORE_REPEATS: usize = 3;

/// Fuzz cases timed per traced run.
const FUZZ_CASES: usize = 4;

/// Largest source sent through the service layers. `Request::parse`
/// grows faster than linearly with line length (MUL32's 245 KB line
/// takes over a second, MUL64's 1 MB line about fifteen), so the
/// MUL32 and MUL64 requests would dominate the traced run.
const WIRE_MAX_BYTES: usize = 128 * 1024;

/// Per-cell sums the metrics are built from.
#[derive(Default)]
struct Totals {
    exec_ns: f64,
    routed_gates: f64,
    decisions: u64,
    cer_hits: u64,
    cer_misses: u64,
    replayed: u64,
    omitted: u64,
    replay_ns: f64,
    replayed_exec_ns: f64,
    swaps: u64,
    swap_replay_ns: f64,
    report_bytes: u64,
    oracle_gates: f64,
    recorded_ns: f64,
    overhead_ms: f64,
    untraced_ms: f64,
}

/// Runs the traced per-layer measurement for `inputs`.
///
/// # Errors
///
/// Set-up failures (a failed cell is counted, not an error).
pub fn run(args: &Args, bins: &Bins, inputs: &Inputs) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let mut out = Outcome::default();
    let mut totals = Totals::default();

    imports(&mut t, &mut out)?;
    let prepared = prefix(&mut t, &mut out, &mut totals, &inputs.programs);
    let topos = topologies(&mut t, inputs, &prepared);
    cells(&mut t, &mut out, &mut totals, inputs, &prepared, &topos);
    sweep(&mut t, &mut out, inputs, &prepared);
    let service = service(&mut t, &mut out, inputs)?;
    let transport = transport(bins, &mut out, inputs, &service)?;
    let startup = startup(bins, &mut out)?;
    let fuzz_rate = fuzz(&mut t, &mut out, args.seed);

    let spans_file = out_dir()?.join(format!("spans-{}.json", args.workload.name()));
    t.write_json(&spans_file)?;
    remark(&format!(
        "{} spans written to {}",
        t.spans().len(),
        spans_file.display()
    ));

    let bytes: usize = inputs.programs.iter().map(|p| p.source.len()).sum();
    let (parse, lower) = (t.self_ms("lang.parse"), t.self_ms("lang.lower"));
    let cells_n = inputs.cells.len() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.push("lang.parse_ms", parse, "ms");
    out.push("lang.lower_ms", lower, "ms");
    out.push("lang.imports_ms", t.self_ms("lang.imports"), "ms");
    out.push(
        "lang.mb_per_s",
        ratio(bytes as f64 / 1e6, (parse + lower) / 1e3),
        "MB/s",
    );
    out.push("prepare.validate_ms", t.self_ms("prepare.validate"), "ms");
    out.push("prepare.lower_mcx_ms", t.self_ms("prepare.lower_mcx"), "ms");
    out.push(
        "prepare.cost_table_ms",
        t.self_ms("prepare.cost_table"),
        "ms",
    );
    out.push("arch.build_ms", t.self_ms("arch.build"), "ms");
    out.push(
        "arch.qubits",
        topos.values().map(|topo| topo.qubit_count() as f64).sum(),
        "count",
    );
    out.push("core.exec_ms", totals.exec_ns / 1e6, "ms");
    out.push(
        "core.ns_per_routed_gate",
        ratio(totals.exec_ns, totals.routed_gates),
        "ns",
    );
    out.push("core.decisions", totals.decisions as f64, "count");
    out.push(
        "core.cer_memo_hit_ratio",
        ratio(
            totals.cer_hits as f64,
            (totals.cer_hits + totals.cer_misses) as f64,
        ),
        "ratio",
    );
    out.push(
        "core.decide_ms",
        (totals.replayed_exec_ns - totals.replay_ns) / 1e6,
        "ms",
    );
    out.push("route.replay_ms", totals.replay_ns / 1e6, "ms");
    out.push("route.swaps", totals.swaps as f64, "count");
    out.push(
        "route.ns_per_swap",
        ratio(totals.swap_replay_ns, totals.swaps as f64),
        "ns",
    );
    out.push("route.cells_replayed", totals.replayed as f64, "count");
    out.push("route.cells_omitted", totals.omitted as f64, "count");
    out.push(
        "report.encode_us",
        median(&t.durations_ms("report.encode")) * 1e3,
        "us",
    );
    out.push(
        "report.bytes",
        ratio(totals.report_bytes as f64, cells_n),
        "bytes",
    );
    let oracle_ms =
        t.self_ms("verify.virtual") + t.self_ms("verify.reference") + t.self_ms("verify.physical");
    out.push("verify.virtual_ms", t.self_ms("verify.virtual"), "ms");
    out.push("verify.reference_ms", t.self_ms("verify.reference"), "ms");
    out.push("verify.physical_ms", t.self_ms("verify.physical"), "ms");
    out.push(
        "verify.record_ms",
        (totals.recorded_ns - totals.exec_ns) / 1e6,
        "ms",
    );
    out.push(
        "verify.gates_per_s",
        ratio(totals.oracle_gates, oracle_ms / 1e3),
        "gates/s",
    );
    out.push("verify.fuzz_cells_per_s", fuzz_rate, "cells/s");
    let sweep_cells = t.durations_ms("sweep.cell");
    let sweep_wall = t.durations_ms("sweep").first().copied().unwrap_or(0.0);
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(sweep_cells.len().max(1)) as f64;
    out.push(
        "sweep.cell_ms_max",
        sweep_cells.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.push(
        "sweep.busy_ratio",
        ratio(sweep_cells.iter().sum(), threads * sweep_wall),
        "ratio",
    );
    out.push("service.request_parse_us", service.parse_us, "us");
    out.push(
        "service.request_parse_ns_per_byte",
        service.parse_ns_per_byte,
        "ns",
    );
    out.push("service.compile_source_us.hit", service.hit_us, "us");
    out.push("service.compile_source_us.miss", service.miss_us, "us");
    out.push(
        "service.report_hit_ratio",
        service.report_hit_ratio,
        "ratio",
    );
    out.push(
        "service.prepared_hit_ratio",
        service.prepared_hit_ratio,
        "ratio",
    );
    out.push(
        "service.topology_hit_ratio",
        service.topology_hit_ratio,
        "ratio",
    );
    out.push("service.coalesced_ratio", service.coalesced_ratio, "ratio");
    out.push("service.transport_ms", transport, "ms");
    out.push("cli.startup_ms", startup, "ms");
    out.push("trace.overhead_ms", totals.overhead_ms, "ms");
    out.push(
        "trace.overhead_pct",
        100.0 * ratio(totals.overhead_ms, totals.untraced_ms),
        "%",
    );
    out.push("trace.spans", t.spans().len() as f64, "count");
    Ok(out)
}

/// `lang.imports`: multi-file parses of the `examples/sq` roots through
/// the filesystem loader (with `lib/` as the fallback search path).
fn imports(t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let loader = square_lang::SearchPathLoader::with_default_lib(Vec::new());
    for (i, stem) in crate::cli_cold::EXAMPLES.iter().enumerate() {
        let file = Path::new("examples/sq").join(format!("{stem}.sq"));
        let display = file.display().to_string();
        let source = std::fs::read_to_string(&file).map_err(|e| format!("{display}: {e}"))?;
        let ok = t.span("lang.imports", i as u32, |_| {
            square_lang::parse_files(&display, &source, &loader)
                .1
                .is_ok()
        });
        out.count(ok);
    }
    Ok(())
}

/// Frontend and prepare per distinct program, each public call in its
/// own span, alternating with the same path untraced (`parse_program` +
/// `PreparedProgram::new`); the difference of their medians is the
/// tracing overhead.
fn prefix(
    t: &mut Tracer,
    out: &mut Outcome,
    totals: &mut Totals,
    programs: &[ServeProgram],
) -> Vec<Option<PreparedProgram>> {
    programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let id = i as u32;
            let (mut traced, mut untraced) = (Vec::new(), Vec::new());
            let (mut program, mut prepared) = (None, None);
            for _ in 0..PREFIX_REPEATS {
                // Drop the previous round's results outside the timings.
                drop((program.take(), prepared.take()));
                let start = Instant::now();
                let traced_program = t.span("program", id, |t| traced_prefix(t, id, &p.source));
                traced.push(ms(start.elapsed()));
                let start = Instant::now();
                let untraced_prepared = square_lang::parse_program(&p.source)
                    .ok()
                    .and_then(|program| PreparedProgram::new(&program).ok());
                untraced.push(ms(start.elapsed()));
                (program, prepared) = (traced_program, untraced_prepared);
            }
            totals.overhead_ms += median(&traced) - median(&untraced);
            totals.untraced_ms += median(&untraced);
            let ok = program.is_some() && prepared.is_some();
            if !ok {
                remark(&format!("{}: frontend or prepare failed", p.name));
            }
            out.count(ok);
            prepared
        })
        .collect()
}

/// Parse, lower, validate, `lower_mcx` and the cost table, each in its
/// own span.
fn traced_prefix(t: &mut Tracer, id: u32, source: &str) -> Option<Program> {
    let (ast, diags) = t.span("lang.parse", id, |_| square_lang::parse_source(source));
    if !diags.is_empty() {
        return None;
    }
    let program = t
        .span("lang.lower", id, |_| square_lang::lower(&ast))
        .ok()?;
    t.span("prepare.validate", id, |_| {
        square_qir::validate::validate_program(&program)
    })
    .ok()?;
    let lowered = t.span("prepare.lower_mcx", id, |_| square_qir::lower_mcx(&program));
    t.span("prepare.cost_table", id, |_| {
        let stats = ProgramStats::analyze(&lowered);
        ModuleCostTable::build(&lowered, &stats)
    });
    Some(program)
}

/// Topology key: arch plus the program's capacity hint.
type TopoKey = (SweepArch, usize);

fn topo_key(cell: &Cell, prepared: &PreparedProgram) -> TopoKey {
    (cell.arch, prepared.capacity_hint())
}

/// `arch.build`: one topology per distinct `(arch, capacity)`, with its
/// flat distance tables forced.
fn topologies(
    t: &mut Tracer,
    inputs: &Inputs,
    prepared: &[Option<PreparedProgram>],
) -> HashMap<TopoKey, Arc<dyn Topology>> {
    let mut topos: HashMap<TopoKey, Arc<dyn Topology>> = HashMap::new();
    for (k, (p, cell)) in inputs.cells.iter().enumerate() {
        let Some(prep) = &prepared[*p] else { continue };
        let key = topo_key(cell, prep);
        if topos.contains_key(&key) {
            continue;
        }
        let topo = t.span("arch.build", k as u32, |_| {
            let topo: Arc<dyn Topology> = Arc::from(cell.config().arch.build(key.1));
            let _ = topo.flat_tables();
            topo
        });
        topos.insert(key, topo);
    }
    topos
}

/// Per cell: the executor with recording off (`core.exec`), report
/// encoding, the executor with recording on, the route replay, and the
/// three oracles.
fn cells(
    t: &mut Tracer,
    out: &mut Outcome,
    totals: &mut Totals,
    inputs: &Inputs,
    prepared: &[Option<PreparedProgram>],
    topos: &HashMap<TopoKey, Arc<dyn Topology>>,
) {
    let mut omitted: HashMap<String, usize> = HashMap::new();
    for (k, (p, cell)) in inputs.cells.iter().enumerate() {
        let id = k as u32;
        let Some(prep) = &prepared[*p] else {
            out.count(false);
            continue;
        };
        let topo = &topos[&topo_key(cell, prep)];
        let config = cell.config();
        let mut recording = config.clone();
        recording.record_schedule = true;
        let ok = t.span("cell", id, |t| {
            let start = Instant::now();
            let on = t.span("core.exec_recorded", id, |_| {
                compile_prepared_on(prep, &[], &recording, Arc::clone(topo))
            });
            let recorded_ns = start.elapsed().as_nanos() as f64;
            let Ok(on) = on else { return false };
            // The executor and the replay alternate, so both see the
            // same machine conditions; each contributes its median.
            let (mut exec, mut replayed, mut skipped) = (Vec::new(), Vec::new(), None);
            let mut off = None;
            for _ in 0..CORE_REPEATS {
                let start = Instant::now();
                let report = t.span("core.exec", id, |_| {
                    compile_prepared_on(prep, &[], &config, Arc::clone(topo))
                });
                exec.push(start.elapsed().as_nanos() as f64);
                let Ok(report) = report else { return false };
                off = Some(report);
                if skipped.is_none() {
                    match replay(&on, &recording, Arc::clone(topo)) {
                        Ok(d) => {
                            let now = Instant::now();
                            t.record("route.replay", id, before(now, d), now);
                            replayed.push(d.as_nanos() as f64);
                        }
                        Err(skip) => skipped = Some(skip),
                    }
                }
            }
            let Some(off) = off else { return false };
            let exec_ns = median(&exec);
            let bytes = t.span("report.encode", id, |_| {
                serde_json::to_string(&report_json(&off)).map_or(0, |s| s.len())
            });
            totals.exec_ns += exec_ns;
            totals.recorded_ns += recorded_ns;
            totals.routed_gates += (off.gates + off.swaps) as f64;
            totals.decisions +=
                off.decisions.reclaimed + off.decisions.garbage + off.decisions.forced;
            totals.cer_hits += off.cer_cache.hits;
            totals.cer_misses += off.cer_cache.misses;
            totals.report_bytes += bytes as u64;
            match skipped {
                None => {
                    let replay_ns = median(&replayed);
                    totals.replayed += 1;
                    totals.replay_ns += replay_ns;
                    totals.replayed_exec_ns += exec_ns;
                    if on.swaps > 0 {
                        totals.swaps += on.swaps;
                        totals.swap_replay_ns += replay_ns;
                    }
                }
                Some(skip) => {
                    totals.omitted += 1;
                    *omitted.entry(skip.to_string()).or_default() += 1;
                }
            }

            let virt = t.span("verify.virtual", id, |_| {
                replay_virtual(&on.trace, &on.entry_register)
            });
            let Ok(virt) = virt else { return false };
            let reference = t.span("verify.reference", id, |_| {
                check_reference(prep.lowered(), &[], &on, &virt)
            });
            let physical = t.span("verify.physical", id, |_| check_physical(&on, &virt));
            totals.oracle_gates += (on.gates + on.swaps) as f64;
            // Recording must not change the circuit.
            reference.is_ok() && physical.is_ok() && fingerprint(&off) == fingerprint(&on)
        });
        if !ok {
            remark(&format!(
                "{} {}: compile, oracle or fingerprint check failed",
                inputs.programs[*p].name,
                cell.label()
            ));
        }
        out.count(ok);
    }
    for (reason, n) in omitted {
        remark(&format!("route.replay omitted on {n} cells: {reason}"));
    }
}

/// `sweep`: the workload's cells compiled from scratch in parallel on
/// the default pool, the way the catalog sweep runs.
fn sweep(t: &mut Tracer, out: &mut Outcome, inputs: &Inputs, prepared: &[Option<PreparedProgram>]) {
    let start = Instant::now();
    let results: Vec<(bool, f64)> = if inputs.catalog_sweep {
        let matrix = square_bench::run_sweep(&crate::verify_matrix::sweep_spec());
        matrix
            .cells
            .iter()
            .map(|c| (c.report.is_ok(), c.compile_ms))
            .collect()
    } else {
        let programs: Vec<Option<Program>> = inputs
            .programs
            .iter()
            .zip(prepared)
            .map(|(p, prep)| {
                prep.as_ref()
                    .and_then(|_| square_lang::parse_program(&p.source).ok())
            })
            .collect();
        inputs
            .cells
            .par_iter()
            .map(|(p, cell)| {
                let t0 = Instant::now();
                let ok = programs[*p]
                    .as_ref()
                    .is_some_and(|program| compile(program, &cell.config()).is_ok());
                (ok, ms(t0.elapsed()))
            })
            .collect()
    };
    let end = Instant::now();
    t.record_with("sweep", 0, start, end, |t| {
        for (k, (ok, cell_ms)) in results.iter().enumerate() {
            let dur = Duration::from_secs_f64(cell_ms / 1e3);
            t.record("sweep.cell", k as u32, before(end, dur), end);
            out.count(*ok);
        }
    });
}

/// The instant `d` before `end` (clamped to `end` if that underflows).
fn before(end: Instant, d: Duration) -> Instant {
    end.checked_sub(d).unwrap_or(end)
}

/// Service-layer results.
struct ServiceNumbers {
    parse_us: f64,
    parse_ns_per_byte: f64,
    hit_us: f64,
    miss_us: f64,
    report_hit_ratio: f64,
    prepared_hit_ratio: f64,
    topology_hit_ratio: f64,
    coalesced_ratio: f64,
}

/// The request lines of the stream, newline-terminated.
/// Requests whose source exceeds [`WIRE_MAX_BYTES`] are left out.
fn request_lines(inputs: &Inputs) -> Vec<String> {
    inputs
        .requests
        .iter()
        .filter_map(|&c| {
            let (p, cell) = &inputs.cells[c];
            let source = &inputs.programs[*p].source;
            (source.len() <= WIRE_MAX_BYTES).then(|| cell.wire(source) + "\n")
        })
        .collect()
}

/// Warm-up request lines (outside the stream), as `serve-mix` sends.
fn warm_lines(inputs: &Inputs) -> Vec<String> {
    if !inputs.warm {
        return Vec::new();
    }
    inputs
        .programs
        .iter()
        .flat_map(|p| {
            [
                SweepArch::NisqAuto,
                SweepArch::FtAuto,
                SweepArch::HeavyHexAuto,
                SweepArch::RingAuto,
            ]
            .map(|a| serve_mix::warm_cell(a).wire(&p.source) + "\n")
        })
        .collect()
}

/// `service`: the stream through an in-process `CompileService` on two
/// threads (like two clients): `Request::parse` and `compile_source`
/// timed per request, cache ratios from `stats()`.
fn service(t: &mut Tracer, out: &mut Outcome, inputs: &Inputs) -> Result<ServiceNumbers, String> {
    let svc = CompileService::new(ServiceConfig::default());
    for line in warm_lines(inputs) {
        if let Ok(Request::Compile { req, .. }) = Request::parse(line.trim_end()) {
            let _ = svc.compile_source(&req);
        }
    }
    let warm_stats = svc.stats();
    let lines = request_lines(inputs);
    let left_out = inputs.requests.len() - lines.len();
    if left_out > 0 {
        remark(&format!(
            "{left_out} requests with sources over {} KiB left out of the service layers",
            WIRE_MAX_BYTES / 1024
        ));
    }
    let next = AtomicUsize::new(0);
    // (request, start, parse time, compile time, cached, coalesced, ok)
    type Entry = (usize, Instant, Duration, Duration, bool, bool, bool);
    let log: Mutex<Vec<Entry>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(line) = lines.get(i) else { break };
                let t0 = Instant::now();
                let parsed = Request::parse(line.trim_end());
                let parse = t0.elapsed();
                let Ok(Request::Compile { req, .. }) = parsed else {
                    let entry = (i, t0, parse, Duration::ZERO, false, false, false);
                    log.lock().expect("log lock").push(entry);
                    continue;
                };
                let t1 = Instant::now();
                let outcome = svc.compile_source(&req);
                let compile = t1.elapsed();
                let (cached, coalesced) = outcome
                    .as_ref()
                    .map_or((false, false), |o| (o.cached, o.coalesced));
                let entry = (i, t0, parse, compile, cached, coalesced, outcome.is_ok());
                log.lock().expect("log lock").push(entry);
            });
        }
    });
    let end = Instant::now();
    let log = log.into_inner().expect("log lock");
    let stats = svc.stats();
    t.record_with("service", 0, start, end, |t| {
        for &(i, t0, parse, compile, _, _, ok) in &log {
            t.record_with("service.request", i as u32, t0, t0 + parse + compile, |t| {
                t.record("service.request_parse", i as u32, t0, t0 + parse);
                let t1 = t0 + parse;
                t.record("service.compile_source", i as u32, t1, t1 + compile);
            });
            out.count(ok);
        }
    });
    let us = |d: &Duration| d.as_secs_f64() * 1e6;
    let hit: Vec<f64> = log.iter().filter(|r| r.4).map(|r| us(&r.3)).collect();
    let miss: Vec<f64> = log
        .iter()
        .filter(|r| !r.4 && !r.5)
        .map(|r| us(&r.3))
        .collect();
    let ratio = |h: u64, m: u64| {
        if h + m > 0 {
            h as f64 / (h + m) as f64
        } else {
            0.0
        }
    };
    let d = |now: u64, before: u64| now - before;
    Ok(ServiceNumbers {
        parse_us: median(&log.iter().map(|r| us(&r.2)).collect::<Vec<_>>()),
        parse_ns_per_byte: log.iter().map(|r| r.2.as_nanos() as f64).sum::<f64>()
            / lines.iter().map(String::len).sum::<usize>().max(1) as f64,
        hit_us: median(&hit),
        miss_us: median(&miss),
        report_hit_ratio: ratio(
            d(stats.reports.hits, warm_stats.reports.hits),
            d(stats.reports.misses, warm_stats.reports.misses),
        ),
        prepared_hit_ratio: ratio(
            d(stats.prepared.hits, warm_stats.prepared.hits),
            d(stats.prepared.misses, warm_stats.prepared.misses),
        ),
        topology_hit_ratio: ratio(
            d(stats.topologies.hits, warm_stats.topologies.hits),
            d(stats.topologies.misses, warm_stats.topologies.misses),
        ),
        coalesced_ratio: ratio(
            d(stats.coalesced, warm_stats.coalesced),
            d(stats.requests, warm_stats.requests) - d(stats.coalesced, warm_stats.coalesced),
        ),
    })
}

/// `service.transport_ms`: the same stream through a live `squared`
/// with two clients; the median client latency of report-cache hits
/// minus the median in-process `compile_source` time of hits.
fn transport(
    bins: &Bins,
    out: &mut Outcome,
    inputs: &Inputs,
    service: &ServiceNumbers,
) -> Result<f64, String> {
    let server = serve_mix::Server::start(bins)?;
    let warm = warm_lines(inputs);
    if !warm.is_empty() {
        serve_mix::call_all(&server, &warm)?;
    }
    let lines = request_lines(inputs);
    let replies = serve_mix::closed_loop(&server, &lines, |k| (k < lines.len()).then_some(k))?;
    server.stop();
    let mut hits = Vec::new();
    for reply in replies {
        let (ok, cached, _) = reply
            .response
            .as_deref()
            .map_or((false, false, None), serve_mix::parse_response);
        out.count(ok);
        if cached {
            hits.push(reply.latency_ms);
        }
    }
    Ok(median(&hits) - service.hit_us / 1e3)
}

/// `cli.startup_ms`: `squarec` on a one-module program, median of
/// several cold processes.
fn startup(bins: &Bins, out: &mut Outcome) -> Result<f64, String> {
    let file = out_dir()?.join("one_module.sq");
    std::fs::write(&file, ONE_MODULE).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut walls = Vec::new();
    for _ in 0..STARTUP_RUNS {
        let done = run_measured(Command::new(&bins.squarec).arg(&file).arg("--json"))?;
        out.count(done.ok);
        walls.push(ms(done.wall));
    }
    Ok(median(&walls))
}

/// `verify.fuzz`: a few pipeline-fuzz cases on seeds derived from the
/// benchmark seed; returns validated cells per second.
fn fuzz(t: &mut Tracer, out: &mut Outcome, seed: u64) -> f64 {
    let mut cells = 0;
    let start = Instant::now();
    for (i, s) in crate::verify_matrix::fuzz_seeds(seed, FUZZ_CASES)
        .into_iter()
        .enumerate()
    {
        let result = t.span("verify.fuzz", i as u32, |_| {
            square_verify::run_case(&square_verify::FuzzCase::from_seed(s))
        });
        out.count(result.is_ok());
        cells += result.map_or(0, |stats| stats.cells);
    }
    cells as f64 / start.elapsed().as_secs_f64()
}
