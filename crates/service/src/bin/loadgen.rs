//! `loadgen` — the squared traffic generator.
//!
//! ```text
//! loadgen --addr HOST:PORT [--corpus DIR]… [--catalog NAME,NAME,…]
//!         [--clients N] [--requests M] [--open --rate R]
//!         [--policy NAME] [--arch SPEC] [--router NAME]
//!         [--json] [--assert-zero-errors] [--assert-cache-hits]
//! ```
//!
//! `N` concurrent clients (default 8) each send `M` requests (default
//! 50) over their own TCP connection, cycling through the corpus:
//! every `.sq` file in each `--corpus` directory plus any `--catalog`
//! benchmarks rendered from the built-in workload catalog. Clients
//! start at staggered corpus offsets so identical programs are in
//! flight simultaneously — exactly the duplicate traffic the server's
//! report cache and in-flight coalescing exist for.
//!
//! Closed loop by default (send, await response, repeat). `--open`
//! with `--rate R` schedules sends at `R` req/s per client and
//! measures latency from the *scheduled* send time, so a stalling
//! server cannot hide queueing delay (no coordinated omission).
//!
//! The summary — request counts, errors, req/s, latency percentiles,
//! per-program p50 and the server's final cache counters — prints to
//! stdout (JSON with `--json`, `loadgen … --json | jq .` stays
//! valid); progress goes to stderr. `--assert-zero-errors` and
//! `--assert-cache-hits` turn the summary into a CI check via the
//! exit code.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use square_core::{Policy, RouterKind, SweepArch};
use square_service::proto::PROTO_VERSION;
use square_workloads::Benchmark;

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--corpus DIR]... \
     [--catalog NAME,NAME,...] [--clients N] [--requests M] [--open --rate R] \
     [--policy lazy|eager|square|laa] [--arch SPEC] [--router greedy|lookahead] \
     [--json] [--assert-zero-errors] [--assert-cache-hits]";

struct Options {
    addr: String,
    corpus_dirs: Vec<PathBuf>,
    catalog: Vec<Benchmark>,
    clients: usize,
    requests: usize,
    open_loop: bool,
    rate: f64,
    policy: Policy,
    arch: SweepArch,
    router: RouterKind,
    json: bool,
    assert_zero_errors: bool,
    assert_cache_hits: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: String::new(),
        corpus_dirs: Vec::new(),
        catalog: Vec::new(),
        clients: 8,
        requests: 50,
        open_loop: false,
        rate: 0.0,
        policy: Policy::Square,
        arch: SweepArch::NisqAuto,
        router: RouterKind::Greedy,
        json: false,
        assert_zero_errors: false,
        assert_cache_hits: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value(arg)?,
            "--corpus" => opts.corpus_dirs.push(PathBuf::from(value(arg)?)),
            "--catalog" => {
                for name in value(arg)?.split(',').filter(|s| !s.is_empty()) {
                    opts.catalog.push(
                        Benchmark::from_name(name)
                            .ok_or_else(|| format!("--catalog: unknown benchmark `{name}`"))?,
                    );
                }
            }
            "--clients" => {
                opts.clients = value(arg)?
                    .parse()
                    .map_err(|_| "--clients: not a number".to_string())?;
            }
            "--requests" => {
                opts.requests = value(arg)?
                    .parse()
                    .map_err(|_| "--requests: not a number".to_string())?;
            }
            "--open" => opts.open_loop = true,
            "--rate" => {
                opts.rate = value(arg)?
                    .parse()
                    .map_err(|_| "--rate: not a number".to_string())?;
            }
            "--policy" => {
                let v = value(arg)?;
                opts.policy =
                    Policy::parse(&v).ok_or_else(|| format!("--policy: unknown policy `{v}`"))?;
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
            "--json" => opts.json = true,
            "--assert-zero-errors" => opts.assert_zero_errors = true,
            "--assert-cache-hits" => opts.assert_cache_hits = true,
            flag => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if opts.corpus_dirs.is_empty() && opts.catalog.is_empty() {
        return Err("no corpus: pass --corpus DIR and/or --catalog NAMES".to_string());
    }
    if opts.open_loop && opts.rate <= 0.0 {
        return Err("--open needs --rate R > 0".to_string());
    }
    if opts.clients == 0 || opts.requests == 0 {
        return Err("--clients and --requests must be > 0".to_string());
    }
    Ok(opts)
}

/// One completed request as seen by a client.
struct Sample {
    program: String,
    latency_ns: u64,
    ok: bool,
}

/// JSON-escapes into a request line without building a `Value` tree —
/// the hot path of the generator.
fn request_line(id: usize, source: &str, opts: &Options) -> String {
    let escaped = serde_json::to_string(&Value::String(source.to_string()))
        .expect("string serialization is infallible");
    format!(
        "{{\"v\": {v}, \"id\": {id}, \"source\": {escaped}, \"policy\": \"{}\", \"arch\": \"{}\", \"router\": \"{}\"}}\n",
        opts.policy.cli_name(),
        opts.arch,
        opts.router.cli_name(),
        v = PROTO_VERSION
    )
}

/// Runs one client's closed or open loop. Returns its samples.
fn run_client(
    client: usize,
    corpus: &[(String, String)],
    opts: &Options,
) -> Result<Vec<Sample>, String> {
    let stream =
        TcpStream::connect(&opts.addr).map_err(|e| format!("connect {}: {e}", opts.addr))?;
    // One small line per request: Nagle + delayed ACK would turn
    // every microsecond compile into a ~40ms round trip.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut samples = Vec::with_capacity(opts.requests);
    let start = Instant::now();
    let mut line = String::new();
    for i in 0..opts.requests {
        // Staggered start offset: client k begins at corpus item k, so
        // several clients request the same program at the same time.
        let (name, source) = &corpus[(client + i) % corpus.len()];
        let scheduled = if opts.open_loop {
            let at = Duration::from_secs_f64(i as f64 / opts.rate);
            let now = start.elapsed();
            if at > now {
                std::thread::sleep(at - now);
            }
            at
        } else {
            start.elapsed()
        };
        let request = request_line(i, source, opts);
        writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".to_string());
        }
        let latency = start.elapsed().saturating_sub(scheduled);
        let ok = serde_json::from_str(&line)
            .ok()
            .and_then(|v: Value| v.get("ok").and_then(Value::as_bool))
            .unwrap_or(false);
        samples.push(Sample {
            program: name.clone(),
            latency_ns: latency.as_nanos() as u64,
            ok,
        });
    }
    Ok(samples)
}

/// Asks the server for its cache counters.
fn fetch_stats(addr: &str) -> Result<Value, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    writer
        .write_all(b"{\"v\": 1, \"cmd\": \"stats\"}\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("recv: {e}"))?;
    let response = serde_json::from_str(&line).map_err(|e| format!("stats response: {e}"))?;
    response
        .get("cache")
        .cloned()
        .ok_or_else(|| "stats response missing `cache`".to_string())
}

fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
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
    let corpus = match square_service::load_corpus(&opts.corpus_dirs, &opts.catalog) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loadgen: {} clients x {} requests over {} programs against {} ({})",
        opts.clients,
        opts.requests,
        corpus.len(),
        opts.addr,
        if opts.open_loop {
            format!("open loop, {} req/s per client", opts.rate)
        } else {
            "closed loop".to_string()
        }
    );

    let corpus = Arc::new(corpus);
    let opts = Arc::new(opts);
    let bench_start = Instant::now();
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let corpus = Arc::clone(&corpus);
                let opts = Arc::clone(&opts);
                scope.spawn(move || run_client(client, &corpus, &opts))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let duration_s = bench_start.elapsed().as_secs_f64().max(1e-9);

    let mut samples = Vec::new();
    let mut client_failures = 0usize;
    for result in results {
        match result {
            Ok(mut s) => samples.append(&mut s),
            Err(e) => {
                eprintln!("loadgen: client failed: {e}");
                client_failures += 1;
            }
        }
    }
    let errors = samples.iter().filter(|s| !s.ok).count() + client_failures * opts.requests;
    let total = samples.len();
    let mut latencies: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let mean_ns = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };

    let mut per_program: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for s in &samples {
        per_program
            .entry(s.program.clone())
            .or_default()
            .push(s.latency_ns);
    }
    let per_program_json: Vec<(String, Value)> = per_program
        .iter()
        .map(|(name, times)| {
            let mut times = times.clone();
            times.sort_unstable();
            (
                name.clone(),
                Value::map([
                    ("requests", Value::UInt(times.len() as u64)),
                    ("p50_ms", Value::Float(ms(percentile_ns(&times, 0.5)))),
                    ("p99_ms", Value::Float(ms(percentile_ns(&times, 0.99)))),
                ]),
            )
        })
        .collect();

    let cache = match fetch_stats(&opts.addr) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("loadgen: cannot fetch server stats: {e}");
            Value::Null
        }
    };
    let report_hits = cache
        .get("reports")
        .and_then(|r| r.get("hits"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let coalesced = cache.get("coalesced").and_then(Value::as_u64).unwrap_or(0);

    let summary = Value::map([
        ("clients", Value::UInt(opts.clients as u64)),
        ("requests_per_client", Value::UInt(opts.requests as u64)),
        ("total", Value::UInt(total as u64)),
        ("errors", Value::UInt(errors as u64)),
        ("duration_s", Value::Float(duration_s)),
        ("rps", Value::Float(total as f64 / duration_s)),
        (
            "latency_ms",
            Value::map([
                ("p50", Value::Float(ms(percentile_ns(&latencies, 0.5)))),
                ("p90", Value::Float(ms(percentile_ns(&latencies, 0.9)))),
                ("p99", Value::Float(ms(percentile_ns(&latencies, 0.99)))),
                (
                    "max",
                    Value::Float(ms(latencies.last().copied().unwrap_or(0))),
                ),
                ("mean", Value::Float(ms(mean_ns))),
            ]),
        ),
        ("per_program", Value::Map(per_program_json)),
        ("cache", cache),
    ]);

    if opts.json {
        match serde_json::to_string_pretty(&summary) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("loadgen: serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "{} requests in {:.2}s ({:.0} req/s), {} errors",
            total,
            duration_s,
            total as f64 / duration_s,
            errors
        );
        println!(
            "latency p50 {:.2}ms p90 {:.2}ms p99 {:.2}ms max {:.2}ms",
            ms(percentile_ns(&latencies, 0.5)),
            ms(percentile_ns(&latencies, 0.9)),
            ms(percentile_ns(&latencies, 0.99)),
            ms(latencies.last().copied().unwrap_or(0)),
        );
        println!("report-cache hits {report_hits}, coalesced {coalesced}");
    }

    if opts.assert_zero_errors && errors > 0 {
        eprintln!("loadgen: FAIL: {errors} errors (asserted zero)");
        return ExitCode::FAILURE;
    }
    if opts.assert_cache_hits && report_hits + coalesced == 0 {
        eprintln!("loadgen: FAIL: no shared-cache hits on duplicate traffic");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
