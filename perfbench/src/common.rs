//! Pieces every workload shares: arguments, results, statistics, the
//! compile cell, the seeded generator, and process plumbing.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use square_bench::SweepArch;
use square_core::{BudgetPolicy, CompileReport, CompilerConfig, Policy, RouterKind};

/// Where the benchmark writes catalog dumps, helper programs and span
/// files, relative to the checkout root (git-ignored).
pub const OUT_DIR: &str = "perfbench/out";

/// The three user paths the benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `squarec --json` process per cell.
    CliCold,
    /// A live `squared` driven by two closed-loop clients.
    ServeMix,
    /// Catalog sweep, translation validation and pipeline fuzzing,
    /// in-process.
    VerifyMatrix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CliCold,
        Workload::ServeMix,
        Workload::VerifyMatrix,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliCold => "cli-cold",
            Workload::ServeMix => "serve-mix",
            Workload::VerifyMatrix => "verify-matrix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the timed region lasts.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
}

/// Usage line printed on bad arguments.
pub const USAGE: &str = "usage: perfbench --workload cli-cold|serve-mix|verify-matrix \
     --seed N --seconds S --trace 0|1";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("seconds out of range: {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    });
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run: the final JSON line's content.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (processes, requests, cells).
    pub attempted: u64,
    /// Operations that failed: nonzero exit, error response, mismatch.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric and echoes it as a human-readable line.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        note(name, value, unit);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts one operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let metrics = Value::map(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Value::map([
                    ("value", Value::Float(m.value)),
                    ("unit", Value::String(m.unit.to_string())),
                ]),
            )
        }));
        let line = Value::map([
            (
                "correct",
                Value::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", metrics),
        ]);
        serde_json::to_string(&line).expect("result line serializes")
    }
}

/// Prints one named measurement with its unit on stdout (everything
/// before the final JSON line is for people).
pub fn note(name: &str, value: f64, unit: &str) {
    println!("  {name:<34} {value:>14.4} {unit}");
}

/// Prints a free-form remark on stdout.
pub fn remark(text: &str) {
    println!("  # {text}");
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the 99th, 95th, 90th and 50th percentiles that still
/// has at least ten samples above it, as `(percentile, value)`.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    for p in [99.0, 95.0, 90.0, 50.0] {
        let above = values.len() as f64 * (1.0 - p / 100.0);
        if above >= 10.0 {
            return (p, percentile(values, p));
        }
    }
    (50.0, median(values))
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Runs `f` `times` times and returns the last result plus the median
/// wall time in seconds (set-up is repeated so `setup_s` is a median).
pub fn repeat_timed<T>(
    times: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        last = Some(f()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("ran at least once"), median(&secs)))
}

// ---------------------------------------------------------------------
// Seeded generator
// ---------------------------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness, so the same
/// seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` in the domain `salt` (independent
    /// streams for independent uses of one seed).
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        SplitMix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

// ---------------------------------------------------------------------
// Compile cells
// ---------------------------------------------------------------------

/// One compile configuration, spelled the way users spell it on the
/// `squarec` command line and the `squared` wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Reclamation policy.
    pub policy: Policy,
    /// Target architecture.
    pub arch: SweepArch,
    /// Swap-chain router.
    pub router: RouterKind,
    /// Optional `budget:N` width cap.
    pub budget: Option<usize>,
    /// Measurement-based uncomputation on.
    pub mbu: bool,
}

impl Cell {
    /// An unbudgeted, MBU-off cell.
    pub fn new(policy: Policy, arch: SweepArch, router: RouterKind) -> Cell {
        Cell {
            policy,
            arch,
            router,
            budget: None,
            mbu: false,
        }
    }

    /// The compiler configuration, built exactly as `squarec` and the
    /// service build it.
    pub fn config(&self) -> CompilerConfig {
        self.arch
            .config(self.policy)
            .with_router(self.router)
            .with_budget(self.budget)
            .with_mbu(self.mbu)
    }

    /// The `--policy` / wire `policy` spelling.
    pub fn policy_spec(&self) -> String {
        BudgetPolicy {
            base: self.policy,
            budget: self.budget,
        }
        .cli_name()
    }

    /// Short label, e.g. `square/heavyhex/lookahead+mbu`.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}",
            self.policy_spec(),
            self.arch,
            self.router.cli_name()
        );
        if self.mbu {
            s.push_str("+mbu");
        }
        s
    }

    /// `squarec` flags selecting this cell.
    pub fn squarec_args(&self) -> Vec<String> {
        let mut args = vec![
            "--policy".to_string(),
            self.policy_spec(),
            "--arch".to_string(),
            self.arch.to_string(),
            "--router".to_string(),
            self.router.cli_name().to_string(),
        ];
        if self.mbu {
            args.push("--mbu".to_string());
        }
        args
    }

    /// One `squared` request line (without the trailing newline).
    pub fn wire(&self, source: &str) -> String {
        let mut fields = vec![
            ("v", Value::UInt(1)),
            ("source", Value::String(source.to_string())),
            ("policy", Value::String(self.policy_spec())),
            ("arch", Value::String(self.arch.to_string())),
            ("router", Value::String(self.router.cli_name().to_string())),
        ];
        if self.mbu {
            fields.push(("mbu", Value::Bool(true)));
        }
        serde_json::to_string(&Value::map(fields)).expect("request line serializes")
    }
}

/// The circuit fingerprint the repository's baselines pin: gates,
/// swaps, depth, qubits, AQV.
pub type Fingerprint = (u64, u64, u64, u64, u64);

/// Fingerprint of an in-process report.
pub fn fingerprint(r: &CompileReport) -> Fingerprint {
    (r.gates, r.swaps, r.depth, r.qubits as u64, r.aqv)
}

/// Fingerprint of a JSON report object (`report_json`'s encoding).
pub fn json_fingerprint(report: &Value) -> Option<Fingerprint> {
    let field = |k: &str| report.get(k).and_then(Value::as_u64);
    Some((
        field("gates")?,
        field("swaps")?,
        field("depth")?,
        field("qubits")?,
        field("aqv")?,
    ))
}

// ---------------------------------------------------------------------
// Binaries and processes
// ---------------------------------------------------------------------

/// The user-facing binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    /// The one-shot compiler driver.
    pub squarec: PathBuf,
    /// The compile service daemon.
    pub squared: PathBuf,
}

/// Builds `squarec` and `squared` from the checkout (a no-op when they
/// are fresh) and returns their paths. Runs before any timing.
///
/// # Errors
///
/// When the working directory is not a checkout root or the build
/// fails.
pub fn build_bins() -> Result<Bins, String> {
    if !Path::new("crates/service/Cargo.toml").is_file() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the root of a SQUARE checkout (crates/ not found)".to_string());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "square-service",
            "--bin",
            "squarec",
            "--bin",
            "squared",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building squarec/squared failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bins = Bins {
        squarec: target.join("release/squarec"),
        squared: target.join("release/squared"),
    };
    for bin in [&bins.squarec, &bins.squared] {
        if !bin.is_file() {
            return Err(format!("{} missing after build", bin.display()));
        }
    }
    Ok(bins)
}

/// Creates (if needed) and returns the output directory.
///
/// # Errors
///
/// When the directory cannot be created.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    Ok(dir)
}

/// Writes every catalog benchmark as `.sq` through `squarec
/// --dump-catalog`, the way a user obtains them.
///
/// # Errors
///
/// When `squarec` cannot run or fails.
pub fn dump_catalog(bins: &Bins, dir: &Path) -> Result<(), String> {
    let status = Command::new(&bins.squarec)
        .arg("--dump-catalog")
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run squarec: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("squarec --dump-catalog failed: {status}"))
    }
}

/// A finished child process, measured from spawn to exit.
#[derive(Debug)]
pub struct Finished {
    /// Exit status was 0.
    pub ok: bool,
    /// Spawn-to-exit wall time.
    pub wall: Duration,
    /// Peak resident set of the child, KiB (`ru_maxrss` from `wait4`).
    pub max_rss_kib: u64,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Runs `cmd` to completion with stdout captured and stderr discarded,
/// timing it from spawn to exit and reading its peak RSS.
///
/// # Errors
///
/// When the process cannot be spawned or reaped.
pub fn run_measured(cmd: &mut Command) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn failed: {e}"))?;
    let mut stdout = Vec::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_end(&mut stdout)
            .map_err(|e| format!("reading child stdout: {e}"))?;
    }
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on a
        // `Child` unless asked, and we do not), and both out-pointers
        // refer to live, correctly sized locals: `RUsage` mirrors the
        // 64-bit Linux `struct rusage` (two timevals, then 14 longs).
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 failed: {err}"));
        }
    }
    let wall = start.elapsed();
    Ok(Finished {
        ok: status == 0,
        wall,
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        stdout,
    })
}

/// Peak resident set (`VmHWM`) of a live process, KiB, read from
/// `/proc/<pid>/status`.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}
