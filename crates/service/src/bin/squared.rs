//! `squared` — the standalone compile-service daemon.
//!
//! ```text
//! squared [--addr HOST:PORT] [--workers N]
//!         [--prepared-cap N] [--topologies-cap N] [--reports-cap N]
//! ```
//!
//! Binds the address (default `127.0.0.1:7878`; use port 0 to let the
//! OS pick — the chosen port is in the stderr `listening on` line),
//! then serves the newline-delimited JSON protocol documented in
//! `square_service::proto` until a client sends `{"cmd":"shutdown"}`.
//! Each connection compiles on its own session thread; `--workers`
//! caps how many compile at once (default: available parallelism).
//! All logging goes to stderr; stdout is never written.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use square_service::server::serve;
use square_service::{CompileService, ServiceConfig};

const USAGE: &str = "usage: squared [--addr HOST:PORT] [--workers N] \
     [--prepared-cap N] [--topologies-cap N] [--reports-cap N]";

struct Options {
    addr: String,
    /// Concurrent compiles (0 ⇒ available parallelism).
    workers: usize,
    service: ServiceConfig,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7878".to_string(),
        workers: 0,
        service: ServiceConfig::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{flag}: not a number: `{v}`"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value(arg)?,
            "--workers" => opts.workers = number(arg, value(arg)?)?,
            "--prepared-cap" => opts.service.prepared_cap = number(arg, value(arg)?)?,
            "--topologies-cap" => opts.service.topologies_cap = number(arg, value(arg)?)?,
            "--reports-cap" => opts.service.reports_cap = number(arg, value(arg)?)?,
            flag => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(opts)
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
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("squared: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let service = Arc::new(CompileService::new(opts.service));
    match serve(listener, service, opts.workers) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("squared: {e}");
            ExitCode::FAILURE
        }
    }
}
