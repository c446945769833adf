//! Concurrency tests for the squared service: many client threads
//! hammering one server with interleaved identical and distinct
//! requests, and every response checked **byte-identical** to a
//! one-shot compile of the same cell through the same encoder the
//! CLI uses. Dedupe and caching must never cross-contaminate cells.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread;

use serde::Value;
use square_core::{compile, report_json, Policy, RouterKind, SweepArch};
use square_service::server::{serve, ServerConfig};
use square_service::{CompileService, ServiceConfig};

/// One test cell: a source plus its compile options.
#[derive(Clone)]
struct Cell {
    source: String,
    policy: Policy,
    arch: SweepArch,
    router: RouterKind,
}

impl Cell {
    /// The ground truth: a one-shot compile through the public API,
    /// serialized by the same encoder the server uses.
    fn expected_report(&self) -> String {
        let program = square_lang::parse_program(&self.source).expect("corpus parses");
        let config = self.arch.config(self.policy).with_router(self.router);
        let report = compile(&program, &config).expect("corpus compiles");
        serde_json::to_string(&report_json(&report)).expect("serializes")
    }

    fn request_line(&self, id: usize) -> String {
        let escaped = serde_json::to_string(&Value::String(self.source.clone())).unwrap();
        format!(
            "{{\"id\": {id}, \"source\": {escaped}, \"policy\": \"{}\", \"arch\": \"{}\", \"router\": \"{}\"}}\n",
            self.policy.cli_name(),
            self.arch,
            self.router.cli_name()
        )
    }
}

fn corpus_sources() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sq");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/sq exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sq"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| square_service::wire_source(p).expect("corpus file resolves"))
        .collect()
}

/// Distinct cells over the corpus: different policies, archs and
/// routers, so the cache has to keep them apart.
fn distinct_cells() -> Vec<Cell> {
    let sources = corpus_sources();
    let mut cells = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        for &policy in &[Policy::Square, Policy::Eager] {
            cells.push(Cell {
                source: source.clone(),
                policy,
                arch: SweepArch::NisqAuto,
                router: RouterKind::Greedy,
            });
        }
        // Both routers on the source's auto-sized heavy-hex machine:
        // the two cells share one cached topology, so concurrent
        // compiles fill its lazily-built distance rows at once.
        for router in RouterKind::ALL {
            cells.push(Cell {
                source: source.clone(),
                policy: Policy::Square,
                arch: SweepArch::HeavyHexAuto,
                router,
            });
        }
        // Stagger some extra cells so archs/routers interleave too.
        if i % 2 == 0 {
            cells.push(Cell {
                source: source.clone(),
                policy: Policy::Lazy,
                arch: SweepArch::Grid {
                    width: 12,
                    height: 12,
                },
                router: RouterKind::Lookahead,
            });
        }
    }
    cells
}

/// Boots an in-process server on an OS-picked port.
fn boot_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let service = Arc::new(CompileService::new(ServiceConfig::default()));
    thread::spawn(move || {
        serve(
            listener,
            service,
            ServerConfig {
                workers: 4,
                queue_depth: 8,
            },
        )
        .expect("serve");
    });
    addr
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Value {
    writer.write_all(line.as_bytes()).expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    assert!(!response.is_empty(), "server closed connection");
    serde_json::from_str(&response).expect("valid response JSON")
}

#[test]
fn hammered_server_serves_byte_identical_reports() {
    let cells = distinct_cells();
    let expected: Vec<String> = cells.iter().map(Cell::expected_report).collect();
    let addr = boot_server();

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 24;
    let cells = Arc::new(cells);
    let expected = Arc::new(expected);
    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let cells = Arc::clone(&cells);
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                let (mut reader, mut writer) = connect(addr);
                for i in 0..REQUESTS {
                    // Even clients walk forward from a staggered
                    // offset (lots of identical in-flight requests);
                    // odd clients walk backward (distinct interleave).
                    let idx = if client % 2 == 0 {
                        (client / 2 + i) % cells.len()
                    } else {
                        (cells.len() * REQUESTS - client - i) % cells.len()
                    };
                    let response = roundtrip(&mut reader, &mut writer, &cells[idx].request_line(i));
                    assert_eq!(
                        response.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "request failed: {response:?}"
                    );
                    assert_eq!(
                        response.get("id").and_then(Value::as_u64),
                        Some(i as u64),
                        "response id mismatch"
                    );
                    let served = serde_json::to_string(
                        response.get("report").expect("response carries report"),
                    )
                    .expect("serializes");
                    assert_eq!(
                        served, expected[idx],
                        "served report differs from one-shot compile (cell {idx})"
                    );
                }
            });
        }
    });

    // Duplicate traffic must have hit the shared caches.
    let (mut reader, mut writer) = connect(addr);
    let stats = roundtrip(&mut reader, &mut writer, "{\"cmd\": \"stats\"}\n");
    let cache = stats.get("cache").expect("stats carries cache");
    let report_hits = cache
        .get("reports")
        .and_then(|r| r.get("hits"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let coalesced = cache.get("coalesced").and_then(Value::as_u64).unwrap_or(0);
    assert!(
        report_hits + coalesced > 0,
        "duplicate traffic produced no cache hits: {stats:?}"
    );
    // Every distinct cell compiled at least once, but far fewer
    // compiles than requests.
    let compiles = cache.get("compiles").and_then(Value::as_u64).unwrap_or(0);
    let requests = cache.get("requests").and_then(Value::as_u64).unwrap_or(0);
    assert!(compiles >= cells.len() as u64);
    assert!(
        compiles < requests,
        "no request ever reused a cached compile"
    );

    let ack = roundtrip(&mut reader, &mut writer, "{\"cmd\": \"shutdown\"}\n");
    assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true));
}

#[test]
fn protocol_errors_do_not_poison_the_session() {
    let addr = boot_server();
    let (mut reader, mut writer) = connect(addr);

    let pong = roundtrip(&mut reader, &mut writer, "{\"cmd\": \"ping\"}\n");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));

    let bad = roundtrip(&mut reader, &mut writer, "this is not json\n");
    assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        bad.get("error_kind").and_then(Value::as_str),
        Some("bad_request")
    );

    // A future-protocol client gets a structured version error, not a
    // field-level parse failure, and the session keeps serving.
    let wrong_v = roundtrip(&mut reader, &mut writer, "{\"v\": 99, \"cmd\": \"ping\"}\n");
    assert_eq!(wrong_v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        wrong_v.get("error_kind").and_then(Value::as_str),
        Some("unsupported_version")
    );

    // Current-version and version-less lines both work.
    let pong = roundtrip(&mut reader, &mut writer, "{\"v\": 1, \"cmd\": \"ping\"}\n");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    assert_eq!(pong.get("v").and_then(Value::as_u64), Some(1));

    let unparsable = roundtrip(
        &mut reader,
        &mut writer,
        "{\"id\": 9, \"source\": \"entry module main(0 params, 1 ancilla) { compute { nope; } }\"}\n",
    );
    assert_eq!(unparsable.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(unparsable.get("id").and_then(Value::as_u64), Some(9));
    let message = unparsable
        .get("error")
        .and_then(Value::as_str)
        .expect("error message");
    assert!(message.contains("parse error"), "got: {message}");

    // The session still works after both failures.
    let source = &corpus_sources()[0];
    let cell = Cell {
        source: source.clone(),
        policy: Policy::Square,
        arch: SweepArch::NisqAuto,
        router: RouterKind::Greedy,
    };
    let good = roundtrip(&mut reader, &mut writer, &cell.request_line(10));
    assert_eq!(good.get("ok").and_then(Value::as_bool), Some(true));

    let ack = roundtrip(&mut reader, &mut writer, "{\"cmd\": \"shutdown\"}\n");
    assert_eq!(ack.get("shutdown").and_then(Value::as_bool), Some(true));
}
