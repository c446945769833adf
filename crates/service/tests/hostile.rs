//! Hostile-input tests for a live `squared`: a request that used to
//! panic a compile, a request line past the length cap, a line nested
//! too deep to parse, and lines naming cells that do not parse. Each
//! checks that the bad request gets a typed answer and that a fresh
//! connection is still served afterwards. Every read has a 10 s
//! timeout, so a wedged server fails the test instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use serde::Value;
use square_service::server::{serve, MAX_REQUEST_BYTES};
use square_service::{CompileService, ServiceConfig};

/// Boots an in-process server with `workers` compile permits.
fn boot_server(workers: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let service = Arc::new(CompileService::new(ServiceConfig::default()));
    thread::spawn(move || serve(listener, service, workers).expect("serve"));
    addr
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Reads one response line; `None` when the server closed the
/// connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Value> {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response within 10 s");
    (!line.is_empty()).then(|| serde_json::from_str(&line).expect("valid response JSON"))
}

fn roundtrip(addr: SocketAddr, line: &str) -> Value {
    let (mut reader, mut writer) = connect(addr);
    writer.write_all(line.as_bytes()).expect("send");
    read_response(&mut reader).expect("server answered")
}

fn error_kind(response: &Value) -> Option<&str> {
    response.get("error_kind").and_then(Value::as_str)
}

/// A 2^62-ancilla entry frame on `grid:4x4` once panicked its compile
/// with `capacity overflow`, which took down the only compile worker
/// of a one-worker server. It is now an out-of-qubits answer, and a
/// normal compile on a new connection still gets served.
#[test]
fn huge_frame_leaves_a_one_worker_server_serving() {
    let addr = boot_server(1);
    let huge = roundtrip(
        addr,
        "{\"id\": 1, \"source\": \"entry module main(0 params, 4611686018427387904 ancilla) \
         { compute { x a0; } }\", \"arch\": \"grid:4x4\"}\n",
    );
    assert_eq!(error_kind(&huge), Some("out_of_qubits"), "{huge:?}");
    let detail = huge.get("detail").expect("structured detail");
    assert_eq!(
        detail.get("requested").and_then(Value::as_u64),
        Some(1 << 62)
    );

    let good = roundtrip(
        addr,
        "{\"id\": 2, \"source\": \"entry module main(0 params, 3 ancilla) \
         { compute { x a0; cx a0 a1; } store { cx a1 a2; } }\", \"arch\": \"grid:4x4\"}\n",
    );
    assert_eq!(
        good.get("ok").and_then(Value::as_bool),
        Some(true),
        "{good:?}"
    );
    assert_eq!(good.get("id").and_then(Value::as_u64), Some(2));
}

/// A line that runs past the cap without a newline is refused with a
/// typed error and its connection is closed; the server keeps
/// answering new connections.
#[test]
fn over_cap_line_is_refused_and_the_server_keeps_answering() {
    let addr = boot_server(1);
    let (mut reader, mut writer) = connect(addr);
    writer
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("send");
    let refusal = read_response(&mut reader).expect("refusal before close");
    assert_eq!(
        error_kind(&refusal),
        Some("request_too_large"),
        "{refusal:?}"
    );
    assert_eq!(refusal.get("ok").and_then(Value::as_bool), Some(false));
    assert!(read_response(&mut reader).is_none(), "connection closed");

    let pong = roundtrip(addr, "{\"cmd\": \"ping\"}\n");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
}

/// A megabyte of `[` once overflowed the session thread's stack in the
/// JSON parser, which aborts the whole process. It is now refused as a
/// bad request, and the server still compiles.
#[test]
fn deeply_nested_line_is_a_bad_request() {
    let addr = boot_server(1);
    let mut line = vec![b'['; 1 << 20];
    line.push(b'\n');
    let (mut reader, mut writer) = connect(addr);
    writer.write_all(&line).expect("send");
    let refusal = read_response(&mut reader).expect("server answered");
    assert_eq!(error_kind(&refusal), Some("bad_request"), "{refusal:?}");
    let error = refusal
        .get("error")
        .and_then(Value::as_str)
        .expect("message");
    assert!(error.contains("nesting deeper than"), "{error}");

    let good = roundtrip(
        addr,
        &compile_line(
            2,
            "entry module main(0 params, 2 ancilla) { compute { x a0; cx a0 a1; } }",
        ),
    );
    assert_eq!(
        good.get("ok").and_then(Value::as_bool),
        Some(true),
        "{good:?}"
    );
}

/// A well-formed line whose cell cannot be parsed (an unknown policy
/// or arch, an ill-typed budget) is a bad request answered with the
/// line's own id, so a pipelining client can tell which request
/// failed; the connection keeps serving.
#[test]
fn request_errors_echo_the_request_id() {
    let addr = boot_server(1);
    let (mut reader, mut writer) = connect(addr);
    let lines = [
        (7, r#""policy": "yolo""#, "unknown policy `yolo`"),
        (8, r#""arch": "torus:3""#, "invalid arch"),
        (
            9,
            r#""budget": "lots""#,
            "`budget` must be a non-negative integer",
        ),
    ];
    for (id, field, message) in lines {
        let line = format!("{{\"id\": {id}, \"source\": \"x\", {field}}}\n");
        writer.write_all(line.as_bytes()).expect("send");
        let refusal = read_response(&mut reader).expect("server answered");
        assert_eq!(error_kind(&refusal), Some("bad_request"), "{refusal:?}");
        assert_eq!(refusal.get("id").and_then(Value::as_u64), Some(id));
        let error = refusal
            .get("error")
            .and_then(Value::as_str)
            .expect("message");
        assert!(error.contains(message), "{error}");
    }
    writer
        .write_all(b"{\"id\": 10, \"cmd\": \"ping\"}\n")
        .expect("send");
    let pong = read_response(&mut reader).expect("server answered");
    assert_eq!(pong.get("id").and_then(Value::as_u64), Some(10));
}

/// The source of a request line: `source` as a JSON string.
fn compile_line(id: u64, source: &str) -> String {
    format!(
        "{{\"id\": {id}, \"source\": {}, \"arch\": \"nisq\"}}\n",
        serde_json::to_string(&Value::String(source.to_string())).expect("encodes")
    )
}

/// Equally close "did you mean" candidates resolve to the first module
/// in source order, so the answer is the same on every request.
#[test]
fn suggestion_ties_name_the_first_module() {
    let addr = boot_server(1);
    let mut src = String::new();
    for s in ["a", "b", "c", "d", "e", "f", "g", "h"] {
        src.push_str(&format!(
            "module f{s}(1 params, 0 ancilla) {{ compute {{ x p0; }} }}\n"
        ));
    }
    src.push_str("entry module main(0 params, 1 ancilla) { compute { call f(a0); } }\n");
    let resp = roundtrip(addr, &compile_line(1, &src));
    assert_eq!(error_kind(&resp), Some("compile_failed"), "{resp:?}");
    let error = resp.get("error").and_then(Value::as_str).expect("message");
    assert!(error.contains("^ did you mean `fa`?"), "{error}");
}

/// A call chain one level past the depth bound is refused before the
/// executor recurses into it, and the session keeps serving.
#[test]
fn a_call_chain_past_the_depth_bound_is_refused() {
    let addr = boot_server(1);
    let levels = square_core::MAX_CALL_DEPTH + 1;
    let mut src = String::from("module m0(1 params, 0 ancilla) { compute { x p0; } }\n");
    for k in 1..levels {
        src.push_str(&format!(
            "module m{k}(1 params, 0 ancilla) {{ compute {{ call m{}(p0); }} }}\n",
            k - 1
        ));
    }
    src.push_str(&format!(
        "entry module main(0 params, 1 ancilla) {{ compute {{ call m{}(a0); }} }}\n",
        levels - 1
    ));
    let deep = roundtrip(addr, &compile_line(1, &src));
    assert_eq!(error_kind(&deep), Some("compile_failed"), "{deep:?}");
    let error = deep.get("error").and_then(Value::as_str).expect("message");
    assert!(error.contains("calls too deep"), "{error}");

    let good = roundtrip(
        addr,
        &compile_line(
            2,
            "entry module main(0 params, 2 ancilla) { compute { x a0; cx a0 a1; } }",
        ),
    );
    assert_eq!(
        good.get("ok").and_then(Value::as_bool),
        Some(true),
        "{good:?}"
    );
}
