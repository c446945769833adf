//! `serve-mix`: a live `squared` driven by two closed-loop clients with
//! a seeded, skewed request stream over more distinct cells than the
//! default report cache holds.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use serde::Value;
use square_bench::{report_json, SweepArch};
use square_core::{Policy, RouterKind};

use crate::common::{
    dump_catalog, geomean, median, ms, note, out_dir, remark, supported_tail, vm_hwm_kib, Args,
    Bins, Cell, Outcome, SplitMix, SETUP_REPEATS,
};

/// Catalog programs served (from `squarec --dump-catalog`). SALSA20,
/// SHA2 and Belle are left out and Belle-s stands in for Belle: their
/// cells cost 14 s, 6 s and 2 s of compile, and a cell that falls out
/// of the report cache is compiled again on every later request, so a
/// run's throughput would hinge on where the draw puts them.
/// `cli-cold` and `verify-matrix` compile all three.
pub const CATALOG: [&str; 8] = [
    "rd53", "6sym", "2of5", "adder4", "adder32", "modexp", "jasmine", "belle-s",
];

/// Swap-chain architectures of the cell grid (`ft` is added once per
/// policy: braiding never runs the router).
const SWAP_ARCHS: [SweepArch; 3] = [
    SweepArch::NisqAuto,
    SweepArch::HeavyHexAuto,
    SweepArch::RingAuto,
];

/// Every architecture, in warm-up order.
const ALL_ARCHS: [SweepArch; 4] = [
    SweepArch::NisqAuto,
    SweepArch::FtAuto,
    SweepArch::HeavyHexAuto,
    SweepArch::RingAuto,
];

/// Zipf exponent of the request draw.
const ZIPF_S: f64 = 1.0;

/// Requests generated per run (the clients wrap around if they finish
/// them, which a 60-second run does not).
const STREAM_LEN: usize = 200_000;

/// Budget of the warm-up cells: far above any machine, so it never
/// binds, while still making the cells distinct from the timed ones.
const WARM_BUDGET: usize = 1 << 20;

/// `squared` worker threads (the box has two cores).
const WORKERS: &str = "2";

/// A single-file program as sent on the wire.
#[derive(Debug, Clone)]
pub struct ServeProgram {
    /// Short name.
    pub name: String,
    /// Single-file `.sq` source (imports flattened away).
    pub source: String,
}

/// One cell of the pool: program index plus cell.
pub type PoolCell = (usize, Cell);

/// Everything set-up produces.
pub struct Setup {
    /// Programs served.
    pub programs: Vec<ServeProgram>,
    /// The pool of distinct cells.
    pub pool: Vec<PoolCell>,
    /// Request line per pool cell, newline-terminated.
    pub lines: Vec<String>,
    /// The seeded stream: pool indices in request order.
    pub stream: Vec<u32>,
    /// The warmed server.
    pub server: Server,
}

/// Flattens `examples/sq` files (the wire protocol has no imports) and
/// reads the dumped catalog files.
///
/// # Errors
///
/// When a file is missing or does not parse.
pub fn programs(catalog: &Path) -> Result<Vec<ServeProgram>, String> {
    let mut out = Vec::new();
    for stem in crate::cli_cold::EXAMPLES {
        let file = Path::new("examples/sq").join(format!("{stem}.sq"));
        let program = crate::cli_cold::parse_file(&file)?;
        out.push(ServeProgram {
            name: stem.to_string(),
            source: square_qir::pretty::program_listing(&program),
        });
    }
    for stem in CATALOG {
        let file = catalog.join(format!("{stem}.sq"));
        let source =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        out.push(ServeProgram {
            name: stem.to_string(),
            source,
        });
    }
    Ok(out)
}

/// The warm-up cell of one program on one architecture.
pub fn warm_cell(arch: SweepArch) -> Cell {
    Cell {
        budget: Some(WARM_BUDGET),
        ..Cell::new(Policy::Lazy, arch, RouterKind::Greedy)
    }
}

/// The distinct cells of one program. `machine[a]` is the machine size
/// the program auto-sizes to on `SWAP_ARCHS[a]`; a `budget:N` at that
/// size is always satisfiable.
pub fn program_cells(machine: &[usize; 3]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for arch in SWAP_ARCHS {
        for policy in Policy::ALL {
            for router in RouterKind::ALL {
                cells.push(Cell::new(policy, arch, router));
            }
        }
    }
    for policy in Policy::ALL {
        cells.push(Cell::new(policy, SweepArch::FtAuto, RouterKind::Greedy));
    }
    for arch in SWAP_ARCHS {
        for policy in Policy::ALL {
            for router in RouterKind::ALL {
                cells.push(Cell {
                    mbu: true,
                    ..Cell::new(policy, arch, router)
                });
            }
        }
    }
    for (arch, &n) in SWAP_ARCHS.iter().zip(machine) {
        cells.push(Cell {
            budget: Some(n),
            ..Cell::new(Policy::Square, *arch, RouterKind::Greedy)
        });
    }
    cells
}

/// The seeded, skewed request stream: a Zipf draw over a popularity
/// ranking. The ranking interleaves the programs (rank `k` belongs to
/// program `k mod P`), so every run sends the same mix of program
/// sizes; the seed orders each program's cells (which policy, arch and
/// router are hot) and draws the request sequence.
pub fn stream(seed: u64, pool: &[PoolCell], len: usize) -> Vec<u32> {
    let mut rng = SplitMix::new(seed, 0x5e77e);
    let programs = pool.iter().map(|(p, _)| p + 1).max().unwrap_or(0);
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); programs];
    for (i, (p, _)) in pool.iter().enumerate() {
        groups[*p].push(i as u32);
    }
    for g in &mut groups {
        for i in (1..g.len()).rev() {
            g.swap(i, rng.below(i + 1));
        }
    }
    let depth = groups.iter().map(Vec::len).max().unwrap_or(0);
    let ranking: Vec<u32> = (0..depth)
        .flat_map(|j| groups.iter().filter_map(move |g| g.get(j).copied()))
        .collect();
    let mut cdf = Vec::with_capacity(ranking.len());
    let mut total = 0.0;
    for rank in 0..ranking.len() {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(ranking.len() - 1);
            ranking[rank]
        })
        .collect()
}

/// A running `squared` process.
pub struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `squared` on an OS-chosen port with two workers.
    ///
    /// # Errors
    ///
    /// When it cannot start or never reports its address.
    pub fn start(bins: &Bins) -> Result<Server, String> {
        let mut child = Command::new(&bins.squared)
            .args(["--addr", "127.0.0.1:0", "--workers", WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start squared: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("squared exited before listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        // Keep draining its log so the server never blocks on stderr.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// Opens a client connection.
    ///
    /// # Errors
    ///
    /// When the connection fails.
    pub fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// The server's peak resident set, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_kib(&self.child.id().to_string()).unwrap_or(0) as f64 / 1024.0
    }

    /// Asks the server to shut down and waits for it to exit (killing
    /// it if it does not within five seconds).
    pub fn stop(mut self) {
        if let Ok(mut client) = self.connect() {
            let _ = client.call("{\"cmd\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One client connection speaking the line protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Sends one newline-terminated request line and returns the
    /// response line.
    ///
    /// # Errors
    ///
    /// On socket errors or a closed connection.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One answered request of [`closed_loop`].
pub struct Reply {
    /// Index into the request lines.
    pub index: usize,
    /// Client time from sending the line to receiving the reply.
    pub latency_ms: f64,
    /// The response line, or why the connection broke.
    pub response: Result<String, String>,
}

/// Drives two closed-loop clients: each sends `lines[pick(k)]` for the
/// next shared `k = 0, 1, 2, …` and waits for the reply before sending
/// again, until `pick` returns `None`. A client stops at its first
/// broken connection.
///
/// # Errors
///
/// When a client cannot connect.
pub fn closed_loop(
    server: &Server,
    lines: &[String],
    pick: impl Fn(usize) -> Option<usize> + Sync,
) -> Result<Vec<Reply>, String> {
    let next = AtomicUsize::new(0);
    let mut clients = [server.connect()?, server.connect()?];
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, pick) = (&next, &pick);
                s.spawn(move || {
                    let mut log = Vec::new();
                    while let Some(index) = pick(next.fetch_add(1, Ordering::Relaxed)) {
                        let t0 = Instant::now();
                        let response = client.call(&lines[index]);
                        let broken = response.is_err();
                        log.push(Reply {
                            index,
                            latency_ms: ms(t0.elapsed()),
                            response,
                        });
                        if broken {
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    }))
}

/// Sends every line once over two connections and returns the
/// responses in input order.
///
/// # Errors
///
/// On connection failure.
pub fn call_all(server: &Server, lines: &[String]) -> Result<Vec<String>, String> {
    let mut replies = closed_loop(server, lines, |k| (k < lines.len()).then_some(k))?;
    replies.sort_by_key(|r| r.index);
    if replies.len() != lines.len() {
        return Err("server closed a connection".to_string());
    }
    replies.into_iter().map(|r| r.response).collect()
}

/// Parses a response line into `(ok, cached, report)`.
pub fn parse_response(line: &str) -> (bool, bool, Option<Value>) {
    let Ok(v) = serde_json::from_str(line.trim_end()) else {
        return (false, false, None);
    };
    let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
    let cached = v.get("cached").and_then(Value::as_bool) == Some(true);
    (ok, cached, v.get("report").cloned())
}

/// Starts and warms a server: every program once on every architecture,
/// with cells outside the timed stream, filling the program, prepared
/// and topology caches. Returns the server and the auto-sized machine
/// size per program and swap-chain architecture.
///
/// # Errors
///
/// When the server fails or a warm-up compile fails.
pub fn start_warm(
    bins: &Bins,
    programs: &[ServeProgram],
) -> Result<(Server, Vec<[usize; 3]>), String> {
    let server = Server::start(bins)?;
    let lines: Vec<String> = programs
        .iter()
        .flat_map(|p| {
            ALL_ARCHS
                .iter()
                .map(move |&a| warm_cell(a).wire(&p.source) + "\n")
        })
        .collect();
    let responses = call_all(&server, &lines)?;
    let mut machine = vec![[0usize; 3]; programs.len()];
    for (i, response) in responses.iter().enumerate() {
        let (program, arch) = (i / ALL_ARCHS.len(), ALL_ARCHS[i % ALL_ARCHS.len()]);
        let (ok, _, report) = parse_response(response);
        let qubits = report
            .as_ref()
            .and_then(|r| r.get("machine_qubits"))
            .and_then(Value::as_u64);
        match (ok, qubits) {
            (true, Some(n)) => {
                if let Some(slot) = SWAP_ARCHS.iter().position(|&a| a == arch) {
                    machine[program][slot] = n as usize;
                }
            }
            _ => {
                return Err(format!(
                    "warm-up of {} on {arch} failed: {}",
                    programs[program].name,
                    response.trim_end()
                ))
            }
        }
    }
    Ok((server, machine))
}

/// Set-up: dump the catalog, flatten the examples, start and warm the
/// server, then build the pool and the seeded stream.
///
/// # Errors
///
/// See [`start_warm`] and [`programs`].
pub fn setup(bins: &Bins, seed: u64) -> Result<Setup, String> {
    let catalog = out_dir()?.join("catalog");
    dump_catalog(bins, &catalog)?;
    let programs = programs(&catalog)?;
    let (server, machine) = start_warm(bins, &programs)?;
    let pool: Vec<PoolCell> = machine
        .iter()
        .enumerate()
        .flat_map(|(p, m)| program_cells(m).into_iter().map(move |c| (p, c)))
        .collect();
    let lines = pool
        .iter()
        .map(|(p, c)| c.wire(&programs[*p].source) + "\n")
        .collect();
    let stream = stream(seed, &pool, STREAM_LEN);
    Ok(Setup {
        programs,
        pool,
        lines,
        stream,
        server,
    })
}

/// The report JSON text an in-process compile produces for every pool
/// cell (the service's documented byte-identity promise), computed in
/// parallel. `None` marks a cell that failed to compile.
pub fn references(programs: &[ServeProgram], pool: &[PoolCell]) -> Vec<Option<(String, u64, u64)>> {
    let parsed: Vec<Option<square_qir::Program>> = programs
        .par_iter()
        .map(|p| square_lang::parse_program(&p.source).ok())
        .collect();
    pool.par_iter()
        .map(|(p, cell)| {
            let program = parsed[*p].as_ref()?;
            let report = square_core::compile(program, &cell.config()).ok()?;
            let text = serde_json::to_string(&report_json(&report)).ok()?;
            Some((text, report.aqv, report.gates + report.swaps))
        })
        .collect()
}

/// Runs the end-to-end workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args, bins: &Bins) -> Result<Outcome, String> {
    // Set up `SETUP_REPEATS` times and keep the last; each earlier
    // server is shut down outside the timed set-up.
    let mut setup_secs = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            previous.server.stop();
        }
        let t = Instant::now();
        kept = Some(setup(bins, args.seed)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_secs);
    let Setup {
        programs,
        pool,
        lines,
        stream,
        server,
    } = kept.expect("set-up ran");

    // Timed region: two closed-loop clients pull the next request of
    // the shared stream until the time is up.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let replies = closed_loop(&server, &lines, |k| {
        (Instant::now() < deadline).then(|| stream[k % stream.len()] as usize)
    })?;
    let timed_s = start.elapsed().as_secs_f64();
    let peak_rss = server.peak_rss_mb();
    server.stop();

    // Output checks: every served report must be byte-identical to an
    // in-process compile of the same cell.
    let reference = references(&programs, &pool);
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let (mut hits, mut distinct) = (0usize, vec![false; pool.len()]);
    for Reply {
        index: cell,
        latency_ms,
        response,
    } in replies
    {
        latencies.push(latency_ms);
        let (ok, cached, report) = match &response {
            Ok(line) => parse_response(line),
            Err(_) => (false, false, None),
        };
        hits += usize::from(cached);
        distinct[cell] = true;
        let served = report.and_then(|r| serde_json::to_string(&r).ok());
        let expected = reference[cell].as_ref().map(|r| &r.0);
        let good = ok && served.is_some() && served.as_ref() == expected;
        if !good {
            let (p, c) = &pool[cell];
            remark(&format!(
                "{} {}: mismatch or error: {}",
                programs[*p].name,
                c.label(),
                response.as_deref().unwrap_or_else(|e| e).trim_end()
            ));
        }
        out.count(good);
    }
    let aqv: Vec<f64> = reference.iter().flatten().map(|r| r.1 as f64).collect();
    let routed: Vec<f64> = reference.iter().flatten().map(|r| r.2 as f64).collect();
    if aqv.len() != pool.len() {
        remark("some pool cells failed to compile in-process");
        out.failed += (pool.len() - aqv.len()) as u64;
    }

    let n = latencies.len();
    let (p, tail) = supported_tail(&latencies);
    remark(&format!(
        "{n} requests in {timed_s:.2} s over {} distinct of {} pool cells; {:.1}% report-cache hits",
        distinct.iter().filter(|d| **d).count(),
        pool.len(),
        100.0 * hits as f64 / n.max(1) as f64
    ));
    note("req_ms_p50", median(&latencies), "ms");
    note(&format!("req_ms_p{p:.0}"), tail, "ms");
    note("rps", n as f64 / timed_s, "req/s");
    out.push("setup_s", setup_s, "s");
    out.push("latency_ms", median(&latencies), "ms");
    out.push("throughput_per_s", n as f64 / timed_s, "1/s");
    out.push("peak_rss_mb", peak_rss, "MB");
    out.push("aqv_geomean", geomean(&aqv), "qubit-cycles");
    out.push("routed_gates_geomean", geomean(&routed), "gates");
    Ok(out)
}
