//! Pins the exact bytes of the optional report blocks.
//!
//! The committed goldens are unbudgeted with MBU off, so neither the
//! `budget`/`recompute` keys nor the `mbu` block appear in them. This
//! test fixes one cell that engages all three —
//! `examples/sq/cmp_demo.sq` under `lazy,budget:18 --mbu` on the
//! auto-sized NISQ grid, which early-uncomputes one frame, recomputes
//! it once and lowers one frame by measure-and-correct — under both
//! routers, and checks:
//!
//! * the exact `report_json` text of each compile;
//! * that `squared` serves the same report for each cell;
//! * the exact key lists of a compile response, with and without the
//!   optional `budget`/`mbu` echoes, and of the `stats` response's
//!   `cache` block: a compile answers with its cell and its report
//!   only, and counters live in `stats` alone.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread;

use serde::Value;
use square_core::{compile, report_json, Policy, RouterKind, SweepArch};
use square_service::server::serve;
use square_service::{CompileService, ServiceConfig};

const GREEDY: &str = concat!(
    r#"{"router":"greedy","gates":132,"swaps":212,"depth":540,"qubits":24,"#,
    r#""peak_active":16,"aqv":7308,"comm_factor":3.1176470588235294,"machine_qubits":49,"#,
    r#""decisions":{"reclaimed":3,"garbage":1,"forced":2},"#,
    r#""budget":18,"#,
    r#""recompute":{"early_uncomputed_frames":1,"early_uncompute_gates":2,"#,
    r#""recomputed_frames":1,"recompute_gates":2},"#,
    r#""mbu":{"mbu_frames":1,"measurements":4,"cond_corrections":4,"mbu_cost":8,"#,
    r#""unitary_cost":12}}"#,
);

const LOOKAHEAD: &str = concat!(
    r#"{"router":"lookahead","gates":132,"swaps":120,"depth":453,"qubits":23,"#,
    r#""peak_active":16,"aqv":6776,"comm_factor":1.7647058823529411,"machine_qubits":49,"#,
    r#""decisions":{"reclaimed":3,"garbage":1,"forced":2},"#,
    r#""budget":18,"#,
    r#""recompute":{"early_uncomputed_frames":1,"early_uncompute_gates":2,"#,
    r#""recomputed_frames":1,"recompute_gates":2},"#,
    r#""mbu":{"mbu_frames":1,"measurements":4,"cond_corrections":4,"mbu_cost":8,"#,
    r#""unitary_cost":12}}"#,
);

fn cmp_demo_source() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sq/cmp_demo.sq");
    square_service::wire_source(&path).expect("cmp_demo resolves")
}

fn report_text(source: &str, router: RouterKind) -> String {
    let program = square_lang::parse_program(source).expect("cmp_demo parses");
    let config = SweepArch::NisqAuto
        .config(Policy::Lazy)
        .with_router(router)
        .with_budget(Some(18))
        .with_mbu(true);
    let report = compile(&program, &config).expect("cmp_demo compiles");
    serde_json::to_string(&report_json(&report)).expect("serializes")
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Value {
    writer.write_all(line.as_bytes()).expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    assert!(!response.is_empty(), "server closed connection");
    serde_json::from_str(&response).expect("valid response JSON")
}

/// The keys of a JSON object, in wire order.
fn keys(object: &Value) -> Vec<&str> {
    match object {
        Value::Map(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

const CELL_KEYS: [&str; 6] = ["v", "id", "ok", "policy", "arch", "router"];
const RESULT_KEYS: [&str; 4] = ["cached", "coalesced", "compile_ms", "report"];

#[test]
fn budget_and_mbu_blocks_and_the_response_shapes_are_pinned() {
    let source = cmp_demo_source();
    let cells = [
        (RouterKind::Greedy, GREEDY),
        (RouterKind::Lookahead, LOOKAHEAD),
    ];
    for (router, expected) in cells {
        assert_eq!(report_text(&source, router), expected, "{router:?}");
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let service = Arc::new(CompileService::new(ServiceConfig::default()));
    thread::spawn(move || {
        serve(listener, service, 1).expect("serve");
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let escaped = serde_json::to_string(&Value::String(source)).unwrap();
    for (router, expected) in cells {
        let line = format!(
            "{{\"id\": 1, \"source\": {escaped}, \"policy\": \"lazy,budget:18\", \
             \"arch\": \"nisq\", \"router\": \"{}\", \"mbu\": true}}\n",
            router.cli_name()
        );
        let response = roundtrip(&mut reader, &mut writer, &line);
        assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response:?}");
        let served = serde_json::to_string(response.get("report").expect("report")).unwrap();
        assert_eq!(served, expected, "{router:?}");
        let budgeted: Vec<&str> = [&CELL_KEYS[..], &["budget", "mbu"], &RESULT_KEYS[..]].concat();
        assert_eq!(keys(&response), budgeted);
    }

    // The same cell without the budget and MBU echoes.
    let plain = roundtrip(
        &mut reader,
        &mut writer,
        &format!("{{\"id\": 3, \"source\": {escaped}, \"policy\": \"lazy\"}}\n"),
    );
    assert_eq!(plain.get("ok"), Some(&Value::Bool(true)), "{plain:?}");
    assert_eq!(keys(&plain), [&CELL_KEYS[..], &RESULT_KEYS[..]].concat());

    let stats = roundtrip(
        &mut reader,
        &mut writer,
        "{\"id\": 2, \"cmd\": \"stats\"}\n",
    );
    assert_eq!(keys(&stats), ["v", "id", "ok", "cache"]);
    let cache = stats.get("cache").expect("stats carries cache");
    assert_eq!(
        keys(cache),
        [
            "prepared",
            "topologies",
            "reports",
            "requests",
            "compiles",
            "coalesced"
        ]
    );
    assert_eq!(cache.get("requests").and_then(Value::as_u64), Some(3));
    roundtrip(&mut reader, &mut writer, "{\"cmd\": \"shutdown\"}\n");
}
