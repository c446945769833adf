//! The versioned newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order.
//! Every line carries the protocol version in a `"v"` field
//! ([`PROTO_VERSION`], currently `1`). Requests may omit it — a line
//! without `"v"` is treated as speaking the current version, so
//! pre-versioning clients keep working — but a request naming any
//! *other* version is rejected with a structured
//! `"error_kind": "unsupported_version"` error instead of a confusing
//! field-level failure. Responses always carry `"v"`.
//!
//! A compile request names the source plus an optional cell:
//!
//! ```text
//! {"v": 1, "id": 1, "source": "entry module main(...) { ... }",
//!  "policy": "square", "arch": "nisq", "router": "greedy"}
//! ```
//!
//! `policy`/`arch`/`router` default to `square`/`nisq`/`greedy`. The
//! `policy` field speaks the full spec grammar (`"square,budget:64"`),
//! or the cap can come as a separate integer `"budget"` field —
//! naming it in both is rejected. The optional `id` is echoed
//! verbatim in the response so clients can pipeline. Control requests
//! use `cmd`: `{"cmd":"ping"}`, `{"cmd":"stats"}` and
//! `{"cmd":"shutdown"}`.
//!
//! Both directions are typed: a line parses into a [`Request`], and
//! the server answers by serializing a [`Response`] — there is no
//! ad-hoc field assembly outside this module. Responses are
//! `{"v", "id", "ok": true, …}` or
//! `{"v", "id", "ok": false, "error_kind": "…", "error": "…"}`. A
//! successful compile carries the cell echo (`policy`, `arch`,
//! `router`, plus `budget` and `mbu` when set), the `cached` and
//! `coalesced` flags, `compile_ms` and the `report` object
//! (byte-identical to `squarec --json`'s `report` field for the same
//! cell), and nothing else. Service counters are served only by
//! `{"cmd":"stats"}`, whose `cache` block is the live
//! [`ServiceStats`].

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Serialize, Value};
use square_core::{error_json, BudgetPolicy, Policy, RouterKind, SweepArch};
use square_workloads::{sq_source, Benchmark};

use crate::service::{CompileOutcome, CompileRequest, ServiceError, ServiceStats};

/// The wire protocol version this build speaks.
pub const PROTO_VERSION: u64 = 1;

/// Why a request line was rejected before reaching the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The request named a protocol version this build does not speak
    /// (`None` when `"v"` was present but not an integer).
    UnsupportedVersion {
        /// The version the client asked for.
        got: Option<u64>,
    },
    /// Anything else: invalid JSON, missing/ill-typed fields, unknown
    /// command / policy / arch / router.
    Malformed(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnsupportedVersion { got: Some(v) } => {
                write!(
                    f,
                    "unsupported protocol version {v} (this server speaks {PROTO_VERSION})"
                )
            }
            ParseError::UnsupportedVersion { got: None } => {
                write!(
                    f,
                    "`v` must be an integer (this server speaks {PROTO_VERSION})"
                )
            }
            ParseError::Malformed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a source under a cell.
    Compile {
        /// Client-chosen id, echoed in the response (`Null` if absent).
        id: Value,
        /// The compile to run.
        req: CompileRequest,
    },
    /// Liveness probe.
    Ping {
        /// Echoed id.
        id: Value,
    },
    /// Cache/counter snapshot.
    Stats {
        /// Echoed id.
        id: Value,
    },
    /// Ask the server to stop accepting connections and exit.
    Shutdown {
        /// Echoed id.
        id: Value,
    },
}

impl Request {
    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// [`ParseError::UnsupportedVersion`] when the line names a
    /// protocol version other than [`PROTO_VERSION`];
    /// [`ParseError::Malformed`] when it is not valid JSON, is not an
    /// object, or names an unknown command / policy / arch / router.
    /// Either comes with the id to echo in the error [`Response`]: the
    /// line's `id` when the line is a JSON object, else `null`.
    pub fn parse(line: &str) -> Result<Request, (Value, ParseError)> {
        let malformed = |message| (Value::Null, ParseError::Malformed(message));
        let value: Value =
            serde_json::from_str(line).map_err(|e| malformed(format!("invalid JSON: {e}")))?;
        if !matches!(value, Value::Map(_)) {
            return Err(malformed("request must be a JSON object".to_string()));
        }
        let id = value.get("id").cloned().unwrap_or(Value::Null);
        Self::from_object(&value, id.clone()).map_err(|e| (id, e))
    }

    /// The request a JSON object line carrying `id` spells.
    fn from_object(value: &Value, id: Value) -> Result<Request, ParseError> {
        let malformed = ParseError::Malformed;
        // Version gate first: a client speaking a different protocol
        // revision should learn *that*, not trip over a field change.
        if let Some(v) = value.get("v") {
            let got = v.as_u64();
            if got != Some(PROTO_VERSION) {
                return Err(ParseError::UnsupportedVersion { got });
            }
        }
        if let Some(cmd) = value.get("cmd") {
            let cmd = cmd
                .as_str()
                .ok_or_else(|| malformed("`cmd` must be a string".to_string()))?;
            return match cmd {
                "ping" => Ok(Request::Ping { id }),
                "stats" => Ok(Request::Stats { id }),
                "shutdown" => Ok(Request::Shutdown { id }),
                other => Err(malformed(format!(
                    "unknown cmd `{other}` (expected ping, stats or shutdown)"
                ))),
            };
        }
        let source = value
            .get("source")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("missing string field `source`".to_string()))?
            .to_string();
        // The policy field speaks the full `BudgetPolicy` spec grammar
        // (`"square"`, `"square,budget:64"`, `"budget:64"`), and the
        // cap can equivalently come as a separate integer `budget`
        // field; naming it in both places is ambiguous and rejected.
        let spec = match value.get("policy").and_then(Value::as_str) {
            None => BudgetPolicy::unbudgeted(Policy::Square),
            Some(name) => BudgetPolicy::parse(name)
                .ok_or_else(|| malformed(format!("unknown policy `{name}`")))?,
        };
        let policy = spec.base;
        let mut budget = spec.budget;
        if let Some(b) = value.get("budget") {
            let n = b
                .as_u64()
                .ok_or_else(|| malformed("`budget` must be a non-negative integer".to_string()))?;
            if budget.is_some() {
                return Err(malformed(
                    "budget named in both `policy` and `budget`".to_string(),
                ));
            }
            budget = Some(n as usize);
        }
        let arch = match value.get("arch").and_then(Value::as_str) {
            None => SweepArch::NisqAuto,
            Some(spec) => spec.parse().map_err(|e| malformed(format!("{e}")))?,
        };
        let router = match value.get("router").and_then(Value::as_str) {
            None => RouterKind::Greedy,
            Some(name) => RouterKind::parse(name)
                .ok_or_else(|| malformed(format!("unknown router `{name}`")))?,
        };
        // Absent means off, so pre-MBU clients keep speaking the same
        // cells (and getting the same bytes) as before the field existed.
        let mbu = match value.get("mbu") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| malformed("`mbu` must be a boolean".to_string()))?,
        };
        Ok(Request::Compile {
            id,
            req: CompileRequest {
                source,
                policy,
                arch,
                router,
                budget,
                mbu,
            },
        })
    }

    /// The id to echo, whatever the request kind.
    pub fn id(&self) -> &Value {
        match self {
            Request::Compile { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id } => id,
        }
    }
}

/// Machine-readable classification of an error response, carried in
/// the `error_kind` field so clients can branch without parsing
/// message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request spoke a protocol version this server does not.
    UnsupportedVersion,
    /// The request line could not be parsed into a [`Request`].
    BadRequest,
    /// The request was well-formed but the compile failed.
    CompileFailed,
    /// The compile failed because the machine (or the `budget:N` cap)
    /// ran out of qubits. The error response additionally carries a
    /// structured `detail` object: `requested`, `capacity`, `live`,
    /// `policy`, `budget`, `module` and `min_feasible`.
    OutOfQubits,
    /// The request line ran past the server's length cap without a
    /// newline; the server closes the connection after this answer.
    RequestTooLarge,
}

impl ErrorKind {
    /// The wire spelling of the kind.
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::UnsupportedVersion => "unsupported_version",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::CompileFailed => "compile_failed",
            ErrorKind::OutOfQubits => "out_of_qubits",
            ErrorKind::RequestTooLarge => "request_too_large",
        }
    }
}

/// A typed response line — the only way the server emits output, so
/// every wire field (including `"v"`) is stamped in one place.
#[derive(Debug, Clone)]
pub enum Response {
    /// A successful compile.
    Compile {
        /// Echoed request id.
        id: Value,
        /// The cell that was compiled (echoed back normalized).
        req: CompileRequest,
        /// The served result.
        outcome: CompileOutcome,
    },
    /// Any failure: version mismatch, parse error, compile error.
    Error {
        /// Echoed request id (`Null` when none could be extracted).
        id: Value,
        /// Machine-readable classification.
        kind: ErrorKind,
        /// Human-readable message.
        message: String,
        /// Structured diagnostic payload (today: the out-of-qubits
        /// detail object), absent for message-only errors.
        detail: Option<Value>,
    },
    /// The `ping` acknowledgement.
    Pong {
        /// Echoed request id.
        id: Value,
    },
    /// The `stats` snapshot.
    Stats {
        /// Echoed request id.
        id: Value,
        /// Live cache/counter snapshot.
        stats: ServiceStats,
    },
    /// The `shutdown` acknowledgement (sent before the listener
    /// stops).
    Shutdown {
        /// Echoed request id.
        id: Value,
    },
}

impl Response {
    /// Wraps a [`ParseError`] with the matching [`ErrorKind`].
    pub fn parse_error(id: &Value, error: &ParseError) -> Response {
        let kind = match error {
            ParseError::UnsupportedVersion { .. } => ErrorKind::UnsupportedVersion,
            ParseError::Malformed(_) => ErrorKind::BadRequest,
        };
        Response::Error {
            id: id.clone(),
            kind,
            message: error.to_string(),
            detail: None,
        }
    }

    /// Wraps a [`ServiceError`] with the matching [`ErrorKind`] —
    /// out-of-qubits failures keep their typed kind plus the
    /// structured `detail` object, everything else degrades to
    /// `compile_failed` with a message.
    pub fn service_error(id: &Value, error: &ServiceError) -> Response {
        let (kind, detail) = match error {
            ServiceError::OutOfQubits(e) => (ErrorKind::OutOfQubits, Some(error_json(e))),
            ServiceError::Parse(_) | ServiceError::Compile(_) => (ErrorKind::CompileFailed, None),
        };
        Response::Error {
            id: id.clone(),
            kind,
            message: error.to_string(),
            detail,
        }
    }

    /// Lowers the response to the wire JSON object.
    pub fn serialize(&self) -> Value {
        let envelope = |id: &Value, ok: bool| {
            vec![
                ("v", Value::Int(PROTO_VERSION as i64)),
                ("id", id.clone()),
                ("ok", Value::Bool(ok)),
            ]
        };
        match self {
            Response::Compile { id, req, outcome } => {
                let mut fields = envelope(id, true);
                fields.extend([
                    ("policy", Value::String(req.policy.cli_name().to_string())),
                    ("arch", Value::String(req.arch.to_string())),
                    ("router", Value::String(req.router.cli_name().to_string())),
                ]);
                // Echoed only for budgeted cells so unbudgeted
                // responses stay byte-identical to the pre-budget wire.
                if let Some(n) = req.budget {
                    fields.push(("budget", Value::UInt(n as u64)));
                }
                // Same presence-gating for the MBU flag.
                if req.mbu {
                    fields.push(("mbu", Value::Bool(true)));
                }
                fields.extend([
                    ("cached", Value::Bool(outcome.cached)),
                    ("coalesced", Value::Bool(outcome.coalesced)),
                    ("compile_ms", Value::Float(outcome.compile_ms)),
                    ("report", (*outcome.report).clone()),
                ]);
                Value::map(fields)
            }
            Response::Error {
                id,
                kind,
                message,
                detail,
            } => {
                let mut fields = envelope(id, false);
                fields.extend([
                    ("error_kind", Value::String(kind.wire_name().to_string())),
                    ("error", Value::String(message.clone())),
                ]);
                if let Some(detail) = detail {
                    fields.push(("detail", detail.clone()));
                }
                Value::map(fields)
            }
            Response::Pong { id } => {
                let mut fields = envelope(id, true);
                fields.push(("pong", Value::Bool(true)));
                Value::map(fields)
            }
            Response::Stats { id, stats } => {
                let mut fields = envelope(id, true);
                fields.push(("cache", stats.serialize()));
                Value::map(fields)
            }
            Response::Shutdown { id } => {
                let mut fields = envelope(id, true);
                fields.push(("shutdown", Value::Bool(true)));
                Value::map(fields)
            }
        }
    }
}

/// Reads a `.sq` file as single-file wire-protocol source.
///
/// The wire carries one self-contained program per request, so files
/// written against the multi-file frontend are flattened at load time:
/// import-free sources pass through **byte-identical** (the raw file
/// is the wire payload), while sources with `import` items resolve
/// against the importing file's directory plus the workspace `lib/`
/// and render back to their canonical single-file listing.
///
/// # Errors
///
/// I/O failures, or rendered diagnostics when the program does not
/// resolve.
pub fn wire_source(path: &Path) -> Result<String, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if square_lang::parse_program(&source).is_ok() {
        return Ok(source);
    }
    let lib = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../lib");
    let loader = square_lang::SearchPathLoader::with_default_lib(vec![lib]);
    let display = path.display().to_string();
    let (map, parsed) = square_lang::parse_files(&display, &source, &loader);
    match parsed {
        Ok(program) => Ok(square_qir::pretty::program_listing(&program)),
        Err(diags) => Err(format!(
            "{display} does not resolve:\n{}",
            map.render(&diags)
        )),
    }
}

/// Loads a request corpus as `(name, source)` pairs: every `.sq` file
/// in each of `dirs` (sorted per directory, named by file stem,
/// flattened through [`wire_source`]), then each of `catalog` rendered
/// from the workload catalog as `catalog:NAME`.
///
/// # Errors
///
/// Unreadable directories, or a file or benchmark that does not
/// render.
pub fn load_corpus(
    dirs: &[PathBuf],
    catalog: &[Benchmark],
) -> Result<Vec<(String, String)>, String> {
    let mut corpus = Vec::new();
    for dir in dirs {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "sq"))
            .collect();
        files.sort();
        for path in files {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            corpus.push((name, wire_source(&path)?));
        }
    }
    for &bench in catalog {
        let source = sq_source(bench).map_err(|e| format!("{}: {e}", bench.name()))?;
        corpus.push((format!("catalog:{}", bench.name()), source));
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_request_defaults_fill_in() {
        let req = Request::parse(r#"{"source": "x"}"#).unwrap();
        match req {
            Request::Compile { id, req } => {
                assert!(id.is_null());
                assert_eq!(req.policy, Policy::Square);
                assert_eq!(req.arch, SweepArch::NisqAuto);
                assert_eq!(req.router, RouterKind::Greedy);
            }
            other => panic!("expected compile, got {other:?}"),
        }
    }

    #[test]
    fn explicit_cell_and_id_parse() {
        let line = r#"{"v": 1, "id": 7, "source": "x", "policy": "lazy",
                       "arch": "grid:4x4", "router": "lookahead"}"#;
        match Request::parse(line).unwrap() {
            Request::Compile { id, req } => {
                assert_eq!(id.as_u64(), Some(7));
                assert_eq!(req.policy, Policy::Lazy);
                assert_eq!(
                    req.arch,
                    SweepArch::Grid {
                        width: 4,
                        height: 4
                    }
                );
                assert_eq!(req.router, RouterKind::Lookahead);
            }
            other => panic!("expected compile, got {other:?}"),
        }
    }

    #[test]
    fn mebibyte_source_lines_parse() {
        // A long line costs time linear in its length: quadratic
        // string scanning would tie a worker up for minutes here.
        let module = "entry module main(0 params, 3 ancilla) {\n  compute { x a0; cx a0 a1; }\n}\n";
        let source = module.repeat((1 << 20) / module.len() + 1);
        let line = serde_json::to_string(&Value::map([
            ("id", Value::UInt(1)),
            ("source", Value::String(source.clone())),
        ]))
        .unwrap();
        assert!(line.len() >= 1 << 20);
        match Request::parse(&line).unwrap() {
            Request::Compile { req, .. } => assert_eq!(req.source, source),
            other => panic!("expected compile, got {other:?}"),
        }
    }

    #[test]
    fn commands_and_errors() {
        assert!(matches!(
            Request::parse(r#"{"cmd": "ping"}"#).unwrap(),
            Request::Ping { .. }
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd": "stats", "id": "s"}"#).unwrap(),
            Request::Stats { .. }
        ));
        assert!(matches!(
            Request::parse(r#"{"v": 1, "cmd": "shutdown"}"#).unwrap(),
            Request::Shutdown { .. }
        ));
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("[1, 2]").is_err());
        assert!(Request::parse(r#"{"cmd": "dance"}"#).is_err());
        assert!(Request::parse(r#"{"source": "x", "policy": "yolo"}"#).is_err());
        assert!(Request::parse(r#"{"source": "x", "arch": "torus:3"}"#).is_err());
        // A machine too large to allocate is refused before any compile.
        let huge = Request::parse(r#"{"source": "x", "arch": "grid:60000x60000"}"#);
        assert!(matches!(huge, Err((_, ParseError::Malformed(m))) if m.contains("2^20")));
        assert!(Request::parse(r#"{"source": "x", "router": "bgp"}"#).is_err());
        assert!(Request::parse(r#"{}"#).is_err(), "no source, no cmd");
    }

    #[test]
    fn parse_errors_carry_the_id_of_an_object_line() {
        let id_of = |line: &str| Request::parse(line).unwrap_err().0;
        assert_eq!(
            id_of(r#"{"id": 1, "source": "x", "policy": "yolo"}"#),
            Value::UInt(1)
        );
        // The version gate answers with the id too.
        let (id, err) = Request::parse(r#"{"id": "a", "v": 2, "cmd": "ping"}"#).unwrap_err();
        assert_eq!(id, Value::String("a".to_string()));
        assert_eq!(err, ParseError::UnsupportedVersion { got: Some(2) });
        for line in [
            "not json",
            "[1, 2]",
            r#"{"source": "x", "arch": "torus:3"}"#,
        ] {
            assert_eq!(id_of(line), Value::Null, "{line}");
        }
    }

    #[test]
    fn budget_parses_from_either_spelling() {
        // Inline in the policy spec…
        match Request::parse(r#"{"source": "x", "policy": "square,budget:64"}"#).unwrap() {
            Request::Compile { req, .. } => {
                assert_eq!(req.policy, Policy::Square);
                assert_eq!(req.budget, Some(64));
            }
            other => panic!("expected compile, got {other:?}"),
        }
        // …or as a dedicated integer field.
        match Request::parse(r#"{"source": "x", "policy": "lazy", "budget": 7}"#).unwrap() {
            Request::Compile { req, .. } => {
                assert_eq!(req.policy, Policy::Lazy);
                assert_eq!(req.budget, Some(7));
            }
            other => panic!("expected compile, got {other:?}"),
        }
        // Both at once is ambiguous; ill-typed budgets are malformed.
        assert!(Request::parse(r#"{"source": "x", "policy": "budget:3", "budget": 4}"#).is_err());
        assert!(Request::parse(r#"{"source": "x", "budget": "lots"}"#).is_err());
    }

    #[test]
    fn mbu_parses_gated_and_defaults_off() {
        // Absent means off — the pre-MBU wire is unchanged.
        match Request::parse(r#"{"source": "x"}"#).unwrap() {
            Request::Compile { req, .. } => assert!(!req.mbu),
            other => panic!("expected compile, got {other:?}"),
        }
        match Request::parse(r#"{"source": "x", "mbu": true}"#).unwrap() {
            Request::Compile { req, .. } => assert!(req.mbu),
            other => panic!("expected compile, got {other:?}"),
        }
        assert!(Request::parse(r#"{"source": "x", "mbu": "yes"}"#).is_err());
    }

    #[test]
    fn out_of_qubits_errors_carry_typed_kind_and_detail() {
        let e = square_core::CompileError::OutOfQubits {
            requested: 4,
            capacity: 16,
            live: 14,
            policy: Policy::Square,
            budget: Some(16),
            module: Some("mul".to_string()),
            min_feasible: Some(18),
        };
        let resp = Response::service_error(&Value::Int(9), &ServiceError::OutOfQubits(Box::new(e)))
            .serialize();
        assert_eq!(
            resp.get("error_kind").and_then(Value::as_str),
            Some("out_of_qubits")
        );
        let detail = resp.get("detail").expect("structured detail present");
        assert_eq!(detail.get("requested").and_then(Value::as_u64), Some(4));
        assert_eq!(detail.get("min_feasible").and_then(Value::as_u64), Some(18));
        assert_eq!(detail.get("module").and_then(Value::as_str), Some("mul"));
        // Plain compile failures stay message-only.
        let plain =
            Response::service_error(&Value::Null, &ServiceError::Compile("boom".to_string()))
                .serialize();
        assert_eq!(
            plain.get("error_kind").and_then(Value::as_str),
            Some("compile_failed")
        );
        assert!(plain.get("detail").is_none());
    }

    #[test]
    fn version_gate_rejects_other_versions() {
        let (_, err) = Request::parse(r#"{"v": 2, "cmd": "ping"}"#).unwrap_err();
        assert_eq!(err, ParseError::UnsupportedVersion { got: Some(2) });
        let (_, err) = Request::parse(r#"{"v": "one", "cmd": "ping"}"#).unwrap_err();
        assert_eq!(err, ParseError::UnsupportedVersion { got: None });
        // Version-less lines speak the current protocol.
        assert!(Request::parse(r#"{"cmd": "ping"}"#).is_ok());
        // The structured response names the kind on the wire.
        let resp = Response::parse_error(&Value::Null, &err).serialize();
        assert_eq!(
            resp.get("error_kind").and_then(Value::as_str),
            Some("unsupported_version")
        );
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn responses_carry_the_version() {
        for resp in [
            Response::Pong { id: Value::Int(3) },
            Response::Shutdown { id: Value::Null },
        ] {
            let v = resp.serialize();
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(PROTO_VERSION));
        }
    }
}
