//! Machine-readable benchmark baselines (`BENCH_square.json`,
//! `BENCH_squared.json`) and the regression gate that CI runs against
//! them.
//!
//! A baseline is a calibration plus a list of measured cells, each
//! tagged `{layer, program, policy}`:
//!
//! * `compile` — one whole compile of a catalog benchmark on the
//!   auto-sized NISQ machine;
//! * `exec` — the executor share of those same compiles (allocation,
//!   CER decisions, routing, scheduling: `CompileReport::route_ns`);
//! * `service` — one [`CompileService`] request with the finished-report
//!   cache flushed, so every run pays a real compile over warm
//!   prepared/topology caches (the steady state of a long-running
//!   server under novel cells).
//!
//! Every cell carries two kinds of data:
//!
//! * the **circuit fingerprint** (gates, swaps, depth, qubits, AQV),
//!   read from the report JSON: fully deterministic, compared exactly.
//!   Any drift means the compiler changed behaviour, which a pure
//!   performance PR must not do.
//! * the **timing** (p50/min ns per run over `samples` windows):
//!   machine-dependent, so every baseline also records a
//!   `calibration_ns` — the median runtime of a fixed arithmetic
//!   workload on the recording machine. Comparisons use
//!   calibration-normalized times, which transfer tolerably across
//!   hosts of different speeds; the gate fails when the geometric mean
//!   of per-cell ratios regresses beyond the configured tolerance (15%
//!   in CI).
//!
//! Refreshing the committed baselines after an intentional change:
//!
//! ```text
//! cargo run --release -p square-bench --bin bench_gate -- record --set full --out BENCH_square.json
//! cargo run --release -p square-bench --bin bench_gate -- record --set service --samples 20 --out BENCH_squared.json
//! ```

use std::fmt;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};
use square_core::{compile, report_json, CompilerConfig, Policy, RouterKind, SweepArch};
use square_service::{load_corpus, CompileRequest, CompileService, ServiceConfig};
use square_workloads::{build, Benchmark};

/// Schema marker for the baseline files (bump on layout changes).
pub const SCHEMA_VERSION: u64 = 2;

/// Which cells a run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchSet {
    /// `compile` cells of the seven NISQ benchmarks — the hot path the
    /// CI gate guards; fast enough to run on every push.
    Smoke,
    /// `compile` cells of the full 17-benchmark catalog plus the
    /// routing set's `exec` cells (what `BENCH_square.json` records).
    Full,
    /// MUL32/MUL64 under the SQUARE policy, `compile` and `exec`
    /// cells: the two workloads whose swap chains dominate compile
    /// time, where whole-compile times would dilute an executor
    /// regression.
    Routing,
    /// `service` cells: `examples/sq` plus three catalog programs
    /// through a [`CompileService`] (what `BENCH_squared.json`
    /// records).
    Service,
}

/// The benchmarks whose executor the `Routing` set (and the full
/// baseline) records as `exec` cells.
const ROUTING_BENCHMARKS: [Benchmark; 2] = [Benchmark::Mul32, Benchmark::Mul64];

/// Catalog programs served next to `examples/sq` by the `Service` set:
/// small, fast benchmarks spanning the arithmetic / oracle /
/// modular-exponentiation families.
const SERVICE_CATALOG: [Benchmark; 3] = [Benchmark::Rd53, Benchmark::Adder4, Benchmark::Modexp];

impl BenchSet {
    /// The catalog benchmarks in this set.
    pub fn benchmarks(&self) -> &'static [Benchmark] {
        match self {
            BenchSet::Smoke => &Benchmark::NISQ,
            BenchSet::Full => &Benchmark::ALL,
            BenchSet::Routing => &ROUTING_BENCHMARKS,
            BenchSet::Service => &SERVICE_CATALOG,
        }
    }

    /// The policies this set measures each program under.
    pub fn policies(&self) -> &'static [Policy] {
        match self {
            BenchSet::Smoke | BenchSet::Full => &Policy::ALL,
            BenchSet::Routing | BenchSet::Service => &[Policy::Square],
        }
    }

    /// Whether this set records `exec` cells (for the
    /// [`ROUTING_BENCHMARKS`] under [`Policy::Square`]). The smoke set
    /// deliberately does not: it guards whole-compile timing.
    fn records_exec_cells(&self) -> bool {
        matches!(self, BenchSet::Full | BenchSet::Routing)
    }

    /// Parses `smoke` / `full` / `routing` / `service`.
    pub fn parse(name: &str) -> Option<BenchSet> {
        match name.to_ascii_lowercase().as_str() {
            "smoke" | "nisq" => Some(BenchSet::Smoke),
            "full" | "all" => Some(BenchSet::Full),
            "routing" | "route" => Some(BenchSet::Routing),
            "service" => Some(BenchSet::Service),
            _ => None,
        }
    }
}

/// What a cell's timing measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole compile.
    Compile,
    /// The executor inside that compile.
    Exec,
    /// One compile-service request.
    Service,
}

impl Layer {
    /// The serialized tag.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Compile => "compile",
            Layer::Exec => "exec",
            Layer::Service => "service",
        }
    }

    fn parse(name: &str) -> Option<Layer> {
        [Layer::Compile, Layer::Exec, Layer::Service]
            .into_iter()
            .find(|l| l.name() == name)
    }
}

/// One measured `{layer, program, policy}` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCell {
    /// What the timing measures.
    pub layer: Layer,
    /// Catalog benchmark name (`compile`/`exec`), or corpus name
    /// (`service`: `adder` for `adder.sq`, `catalog:RD53` for catalog
    /// programs).
    pub program: String,
    /// Policy used.
    pub policy: Policy,
    /// Median time of one run, nanoseconds.
    pub p50_ns: u64,
    /// Fastest observed run, nanoseconds.
    pub min_ns: u64,
    /// Timed samples taken.
    pub samples: usize,
    /// Deterministic circuit fingerprint: program gates.
    pub gates: u64,
    /// Routing swaps.
    pub swaps: u64,
    /// Schedule depth.
    pub depth: u64,
    /// Physical qubits touched.
    pub qubits: u64,
    /// Active quantum volume.
    pub aqv: u64,
}

impl MeasuredCell {
    fn fingerprint(&self) -> [u64; 5] {
        [self.gates, self.swaps, self.depth, self.qubits, self.aqv]
    }

    /// `layer program/policy`, as the gate names the cell.
    fn label(&self) -> String {
        format!(
            "{} {}/{}",
            self.layer.name(),
            self.program,
            self.policy.cli_name()
        )
    }
}

/// A recorded baseline: calibration plus every measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Schema marker ([`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Median runtime of the fixed calibration workload on the
    /// recording machine, nanoseconds.
    pub calibration_ns: u64,
    /// Measured cells.
    pub cells: Vec<MeasuredCell>,
}

impl Baseline {
    /// Looks up one cell.
    pub fn get(&self, layer: Layer, program: &str, policy: Policy) -> Option<&MeasuredCell> {
        self.cells
            .iter()
            .find(|c| c.layer == layer && c.program == program && c.policy == policy)
    }
}

impl Serialize for MeasuredCell {
    fn serialize(&self) -> Value {
        Value::map([
            ("layer", Value::String(self.layer.name().to_string())),
            ("program", Value::String(self.program.clone())),
            ("policy", Value::String(self.policy.cli_name().to_string())),
            ("p50_ns", Value::UInt(self.p50_ns)),
            ("min_ns", Value::UInt(self.min_ns)),
            ("samples", Value::UInt(self.samples as u64)),
            ("gates", Value::UInt(self.gates)),
            ("swaps", Value::UInt(self.swaps)),
            ("depth", Value::UInt(self.depth)),
            ("qubits", Value::UInt(self.qubits)),
            ("aqv", Value::UInt(self.aqv)),
        ])
    }
}

impl Serialize for Baseline {
    fn serialize(&self) -> Value {
        Value::map([
            ("schema", Value::UInt(self.schema)),
            ("calibration_ns", Value::UInt(self.calibration_ns)),
            ("cells", Value::seq(&self.cells)),
        ])
    }
}

/// Baseline parse/shape failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError(String);

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad baseline: {}", self.0)
    }
}

impl std::error::Error for BaselineError {}

fn field_u64(v: &Value, key: &str) -> Result<u64, BaselineError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| BaselineError(format!("missing numeric field `{key}`")))
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, BaselineError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| BaselineError(format!("missing string field `{key}`")))
}

fn parse_cell(cell: &Value) -> Result<MeasuredCell, BaselineError> {
    let layer = field_str(cell, "layer")?;
    let layer =
        Layer::parse(layer).ok_or_else(|| BaselineError(format!("unknown layer `{layer}`")))?;
    let program = field_str(cell, "program")?;
    // Compile-side cells name catalog benchmarks; service cells name
    // corpus files, which only the corpus itself can vouch for.
    if layer != Layer::Service && Benchmark::from_name(program).is_none() {
        return Err(BaselineError(format!("unknown benchmark `{program}`")));
    }
    let policy = field_str(cell, "policy")?;
    Ok(MeasuredCell {
        layer,
        program: program.to_string(),
        policy: Policy::parse(policy)
            .ok_or_else(|| BaselineError(format!("unknown policy `{policy}`")))?,
        p50_ns: field_u64(cell, "p50_ns")?,
        min_ns: field_u64(cell, "min_ns")?,
        samples: field_u64(cell, "samples")? as usize,
        gates: field_u64(cell, "gates")?,
        swaps: field_u64(cell, "swaps")?,
        depth: field_u64(cell, "depth")?,
        qubits: field_u64(cell, "qubits")?,
        aqv: field_u64(cell, "aqv")?,
    })
}

/// Parses a baseline back from its JSON text.
///
/// # Errors
///
/// [`BaselineError`] on malformed JSON, wrong schema version, or
/// unknown layer/benchmark/policy names.
pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
    let root = serde_json::from_str(text).map_err(|e| BaselineError(e.to_string()))?;
    let schema = field_u64(&root, "schema")?;
    if schema != SCHEMA_VERSION {
        return Err(BaselineError(format!(
            "schema {schema} != supported {SCHEMA_VERSION}; refresh the baseline"
        )));
    }
    let cells = root
        .get("cells")
        .and_then(Value::as_seq)
        .ok_or_else(|| BaselineError("missing `cells` array".into()))?
        .iter()
        .map(parse_cell)
        .collect::<Result<Vec<_>, BaselineError>>()?;
    Ok(Baseline {
        schema,
        calibration_ns: field_u64(&root, "calibration_ns")?,
        cells,
    })
}

/// Times the fixed calibration workload: a deterministic integer mix
/// long enough to dwarf timer granularity (~tens of ms). The median
/// of several runs gives each machine a speed yardstick that timing
/// comparisons normalize by.
pub fn calibrate() -> u64 {
    fn one_run() -> u64 {
        let start = Instant::now();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..12_000_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            acc = acc.wrapping_add(state ^ i);
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos() as u64
    }
    let mut runs: Vec<u64> = (0..5).map(|_| one_run()).collect();
    runs.sort_unstable();
    percentile(&runs, 0.5)
}

/// The `p`-quantile of an ascending slice (nearest rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The one timing loop every cell goes through: an untimed warm-up
/// (returned, for the fingerprint), one timed estimate, then `samples`
/// windows each batching enough back-to-back runs to span ≥ 1 ms —
/// microsecond compiles sit far below scheduler noise. Each run's
/// output is dropped inside the window, so the timed region is the
/// steady state a caller sees. Returns the warm-up result plus, per
/// window, the mean wall-clock ns of one run and the mean of `inner`
/// (a time the run reports about itself).
fn time_runs<T>(
    samples: usize,
    mut run: impl FnMut() -> Result<T, String>,
    inner: impl Fn(&T) -> u64,
) -> Result<(T, Vec<u64>, Vec<u64>), String> {
    let warm = run()?;
    let start = Instant::now();
    std::hint::black_box(run()?);
    let est_ns = (start.elapsed().as_nanos() as u64).max(1);
    let iters = (1_000_000 / est_ns).clamp(1, 256);
    let mut wall = Vec::with_capacity(samples);
    let mut inside = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut inner_sum = 0;
        let start = Instant::now();
        for _ in 0..iters {
            let out = run()?;
            inner_sum += inner(&out);
            std::hint::black_box(out);
        }
        wall.push(start.elapsed().as_nanos() as u64 / iters);
        inside.push(inner_sum / iters);
    }
    Ok((warm, wall, inside))
}

/// Builds a cell from its timings and the report JSON it fingerprints.
fn cell(
    layer: Layer,
    program: &str,
    policy: Policy,
    mut times: Vec<u64>,
    report: &Value,
) -> Result<MeasuredCell, String> {
    times.sort_unstable();
    let field = |key: &str| {
        report
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{program}: report missing `{key}`"))
    };
    Ok(MeasuredCell {
        layer,
        program: program.to_string(),
        policy,
        p50_ns: percentile(&times, 0.5),
        min_ns: times[0],
        samples: times.len(),
        gates: field("gates")?,
        swaps: field("swaps")?,
        depth: field("depth")?,
        qubits: field("qubits")?,
        aqv: field("aqv")?,
    })
}

/// Measures every cell of `set`: `samples` timing windows per cell
/// (see `time_runs`) plus the circuit fingerprint. `progress`
/// receives one line per completed cell (route it to stderr so stdout
/// stays machine-readable).
///
/// # Errors
///
/// Any program that fails to build, parse or compile.
pub fn measure(
    set: BenchSet,
    samples: usize,
    mut progress: impl FnMut(&str),
) -> Result<Baseline, String> {
    let samples = samples.max(1);
    let calibration_ns = calibrate();
    let mut cells = Vec::new();
    let mut push = |cell: MeasuredCell| {
        progress(&format!(
            "measured {}: p50 {:.3}ms over {samples} samples",
            cell.label(),
            cell.p50_ns as f64 / 1e6
        ));
        cells.push(cell);
    };
    if set == BenchSet::Service {
        let service = CompileService::new(ServiceConfig::default());
        let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sq");
        for (name, source) in load_corpus(&[examples], &SERVICE_CATALOG)? {
            let req = CompileRequest {
                source,
                policy: Policy::Square,
                arch: SweepArch::NisqAuto,
                router: RouterKind::Greedy,
                budget: None,
                mbu: false,
            };
            // Flushing inside the timed run keeps every request an
            // honest compile; the flush is part of the request path.
            let (served, times, _) = time_runs(
                samples,
                || {
                    service.flush_reports();
                    service
                        .compile_source(&req)
                        .map_err(|e| format!("{name}: {e}"))
                },
                |_| 0,
            )?;
            push(cell(
                Layer::Service,
                &name,
                Policy::Square,
                times,
                &served.report,
            )?);
        }
    } else {
        for &benchmark in set.benchmarks() {
            let program = build(benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
            for &policy in set.policies() {
                let config = CompilerConfig::nisq(policy);
                let (report, wall, exec) = time_runs(
                    samples,
                    || compile(&program, &config).map_err(|e| format!("{benchmark}/{policy}: {e}")),
                    |r| r.route_ns,
                )?;
                let report = report_json(&report);
                let name = benchmark.name();
                push(cell(Layer::Compile, name, policy, wall, &report)?);
                if set.records_exec_cells()
                    && policy == Policy::Square
                    && ROUTING_BENCHMARKS.contains(&benchmark)
                {
                    push(cell(Layer::Exec, name, policy, exec, &report)?);
                }
            }
        }
    }
    Ok(Baseline {
        schema: SCHEMA_VERSION,
        calibration_ns,
        cells,
    })
}

/// One cell's timing comparison.
#[derive(Debug, Clone)]
pub struct CellComparison {
    /// The cell, as `layer program/policy`.
    pub cell: String,
    /// Calibration-normalized p50 in the baseline.
    pub baseline_norm: f64,
    /// Calibration-normalized p50 in the current run.
    pub current_norm: f64,
    /// The smaller of the p50-based and min-based normalized ratios
    /// (> 1 means slower). Taking the better of the two makes the gate
    /// robust to one-sided scheduler noise — a genuine regression
    /// slows the fastest sample too, while a noisy median on a shared
    /// CI runner does not move `min_ns`.
    pub ratio: f64,
}

/// Outcome of gating a current run against a baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Cells whose deterministic circuit fingerprint drifted — always
    /// a failure.
    pub fingerprint_mismatches: Vec<String>,
    /// Cells measured now but absent from the baseline (stale
    /// baseline) — always a failure.
    pub missing_cells: Vec<String>,
    /// Per-cell timing comparisons (cells present in both runs).
    pub timings: Vec<CellComparison>,
    /// Geometric mean of timing ratios — the regression metric the
    /// gate thresholds.
    pub geomean_ratio: f64,
    /// The configured tolerance (0.15 = fail above +15%).
    pub tolerance: f64,
}

impl GateReport {
    /// True when the gate passes.
    pub fn ok(&self) -> bool {
        self.fingerprint_mismatches.is_empty()
            && self.missing_cells.is_empty()
            && self.geomean_ratio <= 1.0 + self.tolerance
    }

    /// Renders the human-readable gate summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.fingerprint_mismatches {
            out.push_str(&format!("FINGERPRINT DRIFT: {m}\n"));
        }
        for m in &self.missing_cells {
            out.push_str(&format!("MISSING FROM BASELINE: {m}\n"));
        }
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>8}\n",
            "cell", "base(norm)", "now(norm)", "ratio"
        ));
        for t in &self.timings {
            out.push_str(&format!(
                "{:<40} {:>14.4} {:>14.4} {:>8.3}\n",
                t.cell, t.baseline_norm, t.current_norm, t.ratio
            ));
        }
        out.push_str(&format!(
            "geomean ratio {:.3} (tolerance +{:.0}%): {}\n",
            self.geomean_ratio,
            self.tolerance * 100.0,
            if self.ok() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Gates `current` against `baseline`: exact fingerprint equality on
/// every shared cell, and a geometric-mean timing regression bound of
/// `tolerance` over the shared cells. Cells only present in the
/// baseline (e.g. the full catalog vs. a smoke run) are ignored; cells
/// only present in `current` fail the gate (the committed baseline is
/// stale).
pub fn gate(baseline: &Baseline, current: &Baseline, tolerance: f64) -> GateReport {
    let mut fingerprint_mismatches = Vec::new();
    let mut missing_cells = Vec::new();
    let mut timings = Vec::new();
    let base_cal = baseline.calibration_ns.max(1) as f64;
    let cur_cal = current.calibration_ns.max(1) as f64;
    for cell in &current.cells {
        let Some(base) = baseline.get(cell.layer, &cell.program, cell.policy) else {
            missing_cells.push(cell.label());
            continue;
        };
        if base.fingerprint() != cell.fingerprint() {
            let [g, s, d, q, a] = base.fingerprint();
            fingerprint_mismatches.push(format!(
                "{}: baseline (gates {g}, swaps {s}, depth {d}, qubits {q}, aqv {a}) vs current (gates {}, swaps {}, depth {}, qubits {}, aqv {})",
                cell.label(),
                cell.gates, cell.swaps, cell.depth, cell.qubits, cell.aqv,
            ));
        }
        let norm_ratio = |b: u64, c: u64| {
            let b = b as f64 / base_cal;
            if b > 0.0 {
                (c as f64 / cur_cal) / b
            } else {
                1.0
            }
        };
        timings.push(CellComparison {
            cell: cell.label(),
            baseline_norm: base.p50_ns as f64 / base_cal,
            current_norm: cell.p50_ns as f64 / cur_cal,
            ratio: norm_ratio(base.p50_ns, cell.p50_ns).min(norm_ratio(base.min_ns, cell.min_ns)),
        });
    }
    let geomean_ratio = if timings.is_empty() {
        1.0
    } else {
        let log_sum: f64 = timings
            .iter()
            .map(|t| t.ratio.max(f64::MIN_POSITIVE).ln())
            .sum();
        (log_sum / timings.len() as f64).exp()
    };
    GateReport {
        fingerprint_mismatches,
        missing_cells,
        timings,
        geomean_ratio,
        tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(layer: Layer, program: &str, p50_ns: u64, gates: u64) -> MeasuredCell {
        MeasuredCell {
            layer,
            program: program.to_string(),
            policy: Policy::Square,
            p50_ns,
            min_ns: p50_ns,
            samples: 3,
            gates,
            swaps: 1,
            depth: 2,
            qubits: 3,
            aqv: 4,
        }
    }

    fn rd53(p50_ns: u64, gates: u64) -> MeasuredCell {
        cell(Layer::Compile, "RD53", p50_ns, gates)
    }

    fn baseline_of(cells: Vec<MeasuredCell>, calibration_ns: u64) -> Baseline {
        Baseline {
            schema: SCHEMA_VERSION,
            calibration_ns,
            cells,
        }
    }

    #[test]
    fn serialize_parse_round_trip() {
        let b = baseline_of(
            vec![
                rd53(1_000_000, 42),
                cell(Layer::Exec, "MUL32", 2_000_000, 99),
                cell(Layer::Service, "catalog:RD53", 3_000, 7),
            ],
            50_000_000,
        );
        let text = serde_json::to_string_pretty(&b).unwrap();
        assert_eq!(parse(&text).unwrap(), b);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_names() {
        assert!(parse("{}").is_err());
        for schema in [1, 999] {
            let text = format!(r#"{{"schema":{schema},"calibration_ns":1,"cells":[]}}"#);
            assert!(parse(&text).unwrap_err().to_string().contains("schema"));
        }
        let with = |layer: &str, program: &str, policy: &str| {
            let b = baseline_of(vec![rd53(1, 1)], 1);
            let text = serde_json::to_string(&b)
                .unwrap()
                .replace("\"compile\"", &format!("\"{layer}\""))
                .replace("\"RD53\"", &format!("\"{program}\""))
                .replace("\"square\"", &format!("\"{policy}\""));
            parse(&text).map_err(|e| e.to_string())
        };
        assert!(with("compile", "NOPE", "square")
            .unwrap_err()
            .contains("NOPE"));
        assert!(with("route", "RD53", "square")
            .unwrap_err()
            .contains("route"));
        assert!(with("exec", "RD53", "yolo").unwrap_err().contains("yolo"));
        // Service cells name corpus files, not catalog benchmarks.
        assert!(with("service", "adder", "square").is_ok());
    }

    #[test]
    fn identical_runs_pass_and_regressions_beyond_tolerance_fail() {
        let base = baseline_of(vec![rd53(1_000, 42)], 100);
        let same = gate(&base, &base.clone(), 0.15);
        assert!(same.ok());
        assert!((same.geomean_ratio - 1.0).abs() < 1e-12);
        let slow = baseline_of(vec![rd53(1_200, 42)], 100);
        let report = gate(&base, &slow, 0.15);
        assert!(!report.ok());
        assert!((report.geomean_ratio - 1.2).abs() < 1e-9);
        // The same 20% slowdown passes a looser gate.
        assert!(gate(&base, &slow, 0.25).ok());
    }

    #[test]
    fn calibration_normalizes_machine_speed() {
        // Current machine twice as slow overall: calibration 200, cell
        // 2000 — normalized ratio 1.0, no regression.
        let base = baseline_of(vec![rd53(1_000, 42)], 100);
        let cur = baseline_of(vec![rd53(2_000, 42)], 200);
        let report = gate(&base, &cur, 0.01);
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn one_sided_median_noise_passes_but_real_regressions_fail() {
        let base = baseline_of(vec![rd53(1_000, 42)], 100);
        // p50 drifted +30% but the fastest sample is unchanged:
        // scheduler noise, not a regression — the min-based ratio
        // rescues the cell.
        let noisy = baseline_of(
            vec![MeasuredCell {
                min_ns: 1_000,
                ..rd53(1_300, 42)
            }],
            100,
        );
        assert!(gate(&base, &noisy, 0.15).ok());
        // Both p50 and min moved: a real slowdown still fails.
        let slow = baseline_of(vec![rd53(1_300, 42)], 100);
        assert!(!gate(&base, &slow, 0.15).ok());
    }

    #[test]
    fn fingerprint_drift_fails_even_when_faster() {
        let base = baseline_of(vec![rd53(1_000, 42)], 100);
        let cur = baseline_of(vec![rd53(500, 43)], 100);
        let report = gate(&base, &cur, 0.15);
        assert!(!report.ok());
        assert_eq!(report.fingerprint_mismatches.len(), 1);
        assert!(report.render().contains("FINGERPRINT DRIFT"));
    }

    #[test]
    fn baseline_only_cells_are_ignored_and_new_cells_fail() {
        let base = baseline_of(
            vec![rd53(1_000, 42), cell(Layer::Compile, "MODEXP", 9_000, 7)],
            100,
        );
        // A smoke run covers a subset: fine.
        assert!(gate(&base, &baseline_of(vec![rd53(1_000, 42)], 100), 0.15).ok());
        // A cell the baseline has never seen — here the same program
        // under another layer — means a stale baseline.
        let newer = baseline_of(
            vec![rd53(1_000, 42), cell(Layer::Exec, "RD53", 1_000, 42)],
            100,
        );
        let report = gate(&base, &newer, 0.15);
        assert!(!report.ok());
        assert_eq!(report.missing_cells, vec!["exec RD53/square".to_string()]);
    }

    #[test]
    fn percentile_picks_sane_indices() {
        let xs = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&xs, 0.5), 30);
        assert_eq!(percentile(&xs, 0.99), 50);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[7, 9], 0.0), 7);
    }

    #[test]
    fn smoke_measure_records_fingerprints_and_timing() {
        let baseline = measure(BenchSet::Smoke, 1, |_| {}).unwrap();
        assert_eq!(baseline.schema, SCHEMA_VERSION);
        assert!(baseline.calibration_ns > 0);
        assert_eq!(
            baseline.cells.len(),
            Benchmark::NISQ.len() * Policy::ALL.len()
        );
        for cell in &baseline.cells {
            assert_eq!(cell.layer, Layer::Compile);
            assert!(cell.gates > 0, "{}", cell.program);
            assert!(cell.p50_ns > 0);
        }
        // Identical compilers gate cleanly against themselves.
        let again = measure(BenchSet::Smoke, 1, |_| {}).unwrap();
        let report = gate(&baseline, &again, 10.0);
        assert!(
            report.fingerprint_mismatches.is_empty(),
            "{}",
            report.render()
        );
    }
}
