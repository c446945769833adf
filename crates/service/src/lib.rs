//! # square-service — the `squared` concurrent compile service
//!
//! A long-running compile server for `.sq` programs. Clients connect
//! over TCP, send newline-delimited JSON requests naming a source
//! program plus a `(policy, arch, router)` cell, and receive the same
//! report JSON that `squarec --json` prints — the two front ends share
//! one compile path ([`CompileService`]), so a served `report` is
//! byte-identical to a one-shot CLI compile of the same cell.
//!
//! What makes the service worth running over a fleet of one-shot
//! processes is the shared state between requests:
//!
//! * **Prepared programs** (lowered QIR +
//!   [`ModuleCostTable`](square_core::ModuleCostTable) memos) are
//!   cached by source content hash; a source is parsed only on a miss.
//! * **Topologies** — including heavy-hex, whose per-target BFS
//!   distance rows build lazily — are cached per `(arch, capacity)`
//!   and shared across concurrent compiles via `Arc<dyn Topology>`.
//! * **Full reports** are cached per `(program, policy, arch, router)`
//!   cell, and identical cells *in flight* are coalesced so a burst of
//!   duplicate requests costs one compile.
//!
//! A compile response carries the cell and its report only; the
//! hit/miss/eviction counters of all three caches and the request,
//! compile and coalesce counts are served by `{"cmd":"stats"}`. The
//! crate also ships the `squared` server bin, the `loadgen` traffic
//! generator, and the `squarec` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{content_hash, CacheStats, LruCache};
pub use proto::{load_corpus, wire_source};
pub use service::{
    CompileOutcome, CompileRequest, CompileService, ServiceConfig, ServiceError, ServiceStats,
};
