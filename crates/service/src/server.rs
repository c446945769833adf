//! The TCP front end: sessions, the compile permits, shutdown.
//!
//! Each accepted connection gets a session thread that reads protocol
//! lines and writes one response line per request, in order. A session
//! compiles on its own thread, holding one of `workers` permits, so
//! total concurrent compiles are capped at the worker count no matter
//! how many clients connect; a session without a permit waits for one.
//! The permit goes back when its guard drops, also when a compile
//! unwinds, and a panic ends only the session it happened in.
//!
//! A request line longer than [`MAX_REQUEST_BYTES`] is answered with a
//! `request_too_large` error and the connection is closed, so a client
//! that never sends a newline cannot grow a session's buffer without
//! bound.
//!
//! All logging goes to **stderr**; stdout is never written, so
//! `squared`'s own output (and anything piping the protocol) stays
//! clean for `jq`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use serde::Value;

use crate::proto::{ErrorKind, Request, Response};
use crate::service::CompileService;

/// The longest request line a session reads, newline excluded: 16 MiB,
/// far above the largest catalog source (MUL64, about 1 MB).
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// A counting semaphore over the compile slots.
struct Permits {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Permits {
    fn new(count: usize) -> Self {
        Permits {
            free: Mutex::new(count),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a slot is free and takes it until the guard drops.
    fn acquire(&self) -> Permit<'_> {
        let mut free = self.free.lock().unwrap();
        while *free == 0 {
            free = self.cv.wait(free).unwrap();
        }
        *free -= 1;
        Permit(self)
    }
}

/// One held compile slot, returned on drop.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap() += 1;
        self.0.cv.notify_one();
    }
}

/// Runs the accept loop until a client sends `{"cmd":"shutdown"}`,
/// admitting at most `workers` concurrent compiles (0 ⇒ available
/// parallelism). Session threads are detached; when `serve` returns,
/// in-flight sessions finish their current response and die with the
/// process.
///
/// # Errors
///
/// Propagates listener I/O errors (a failed `accept` on a live
/// listener); per-connection errors only end that session.
pub fn serve(
    listener: TcpListener,
    service: Arc<CompileService>,
    workers: usize,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let workers = if workers > 0 {
        workers
    } else {
        thread::available_parallelism().map_or(4, |n| n.get())
    };
    let permits = Arc::new(Permits::new(workers));
    let shutdown = Arc::new(AtomicBool::new(false));
    eprintln!("squared: listening on {addr} ({workers} workers)");

    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("squared: accept failed: {e}");
                continue;
            }
        };
        // Responses are single small lines; Nagle + delayed ACK would
        // add ~40ms to every request on loopback.
        let _ = stream.set_nodelay(true);
        let service = Arc::clone(&service);
        let permits = Arc::clone(&permits);
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || {
            if let Err(e) = session(&stream, &service, &permits, &shutdown, addr) {
                eprintln!("squared: session ended: {e}");
            }
        });
    }
    eprintln!("squared: shutting down");
    Ok(())
}

/// One connection: read a line, answer a line, repeat until EOF.
fn session(
    stream: &TcpStream,
    service: &CompileService,
    permits: &Permits,
    shutdown: &AtomicBool,
    listen_addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        // One byte past the cap tells an over-cap line from one that
        // fills it exactly. Read bytes, not a `String`: a character the
        // cap cuts in two must not fail the read before the refusal.
        let cap = MAX_REQUEST_BYTES as u64 + 1;
        if (&mut reader).take(cap).read_until(b'\n', &mut bytes)? == 0 {
            return Ok(()); // client hung up
        }
        if bytes.len() > MAX_REQUEST_BYTES && !bytes.ends_with(b"\n") {
            let refusal = Response::Error {
                id: Value::Null,
                kind: ErrorKind::RequestTooLarge,
                message: format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                detail: None,
            };
            return write_line(&mut writer, &refusal.serialize());
        }
        let line = std::str::from_utf8(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse(line) {
            Err(e) => Response::parse_error(&Value::Null, &e),
            Ok(Request::Ping { id }) => Response::Pong { id },
            Ok(Request::Stats { id }) => Response::Stats {
                id,
                stats: service.stats(),
            },
            Ok(Request::Shutdown { id }) => {
                let ack = Response::Shutdown { id };
                write_line(&mut writer, &ack.serialize())?;
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(listen_addr);
                return Ok(());
            }
            Ok(Request::Compile { id, req }) => {
                let outcome = {
                    let _permit = permits.acquire();
                    service.compile_source(&req)
                };
                match outcome {
                    Ok(outcome) => Response::Compile {
                        id,
                        req,
                        outcome,
                        stats: service.stats(),
                    },
                    Err(e) => Response::service_error(&id, &e),
                }
            }
        };
        write_line(&mut writer, &response.serialize())?;
    }
}

fn write_line(writer: &mut TcpStream, value: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compile that panics while holding a permit gives it back as
    /// it unwinds, so the server still admits `workers` compiles.
    #[test]
    fn a_panicking_permit_holder_returns_its_permit() {
        let permits = Permits::new(2);
        thread::scope(|scope| {
            for _ in 0..2 {
                let holder = scope.spawn(|| {
                    let _permit = permits.acquire();
                    panic!("injected compile panic");
                });
                assert!(holder.join().is_err());
            }
        });
        let both = (permits.acquire(), permits.acquire());
        assert_eq!(*permits.free.lock().unwrap(), 0);
        drop(both);
        assert_eq!(*permits.free.lock().unwrap(), 2);
    }
}
