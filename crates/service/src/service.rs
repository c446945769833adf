//! The shared compile path behind every front end.
//!
//! [`CompileService`] owns the three cross-request caches and the
//! in-flight dedupe table. `squared` sessions and the `bench_gate`
//! service cells call [`CompileService::compile_source`] on their own
//! threads; the report `Value` it returns is produced by the same
//! [`report_json`] encoder the CLI uses, so a served response
//! serializes byte-identically to a one-shot `squarec --json` compile
//! of the same cell.
//!
//! Identical requests in flight at once share one compile. The table
//! maps each cell to a `OnceLock`: the first caller runs its
//! initializer and leads, the others wait on it and follow. A compile
//! that panics leaves its cell empty, so a waiter or the next request
//! compiles it again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Serialize, Value};
use square_arch::Topology;
use square_core::{
    build_topology, compile_prepared_on, report_json, CerCacheStats, CompileError, Policy,
    PreparedProgram, RecomputeStats, RouterKind, SweepArch,
};

use crate::cache::{content_hash, CacheStats, LruCache};

/// Cache capacities for a [`CompileService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Prepared-program (lowered QIR + cost table) cache entries.
    pub prepared_cap: usize,
    /// Shared-topology cache entries (keyed by arch + capacity).
    pub topologies_cap: usize,
    /// Finished-report cache entries (keyed by full request cell).
    pub reports_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            prepared_cap: 128,
            topologies_cap: 64,
            reports_cap: 512,
        }
    }
}

/// One compile request: a source program plus the cell to compile it
/// under.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// `.sq` source text.
    pub source: String,
    /// Reclamation policy.
    pub policy: Policy,
    /// Target architecture.
    pub arch: SweepArch,
    /// Swap-chain router (normalized to greedy on braided archs,
    /// matching the compiler itself).
    pub router: RouterKind,
    /// Optional `budget:N` hard width cap. Part of the cell identity:
    /// a budgeted compile of the same source is a different cell (and
    /// a different report) from the unbudgeted one.
    pub budget: Option<usize>,
    /// Whether measurement-based uncomputation may replace unitary
    /// inverse blocks. Part of the cell identity, like `budget`: the
    /// MBU compile of a source is a different cell with a different
    /// report.
    pub mbu: bool,
}

/// A served compile result.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// The report, already lowered to the shared JSON data model.
    pub report: Arc<Value>,
    /// Wall-clock milliseconds this cell took to produce when it was
    /// actually compiled (a cache hit reports the original cost).
    pub compile_ms: f64,
    /// FNV-1a content hash of the request source.
    pub program_hash: String,
    /// True when the report came straight from the finished-report
    /// cache.
    pub cached: bool,
    /// True when this request piggybacked on an identical request
    /// already in flight.
    pub coalesced: bool,
}

/// Why a request failed. Errors are never cached: a follower of a
/// failed in-flight leader sees the error once, and the next request
/// for the cell retries from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The source did not parse; carries the fully rendered
    /// multi-error diagnostic listing.
    Parse(String),
    /// The compiler rejected or failed the program.
    Compile(String),
    /// The machine (or the `budget:N` cap) ran out of qubits. Kept
    /// structured — rather than flattened to a message — so front ends
    /// can surface the offending module, the live/capacity split and
    /// the minimum feasible budget as typed fields.
    OutOfQubits(Box<CompileError>),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Parse(msg) => write!(f, "parse error: {msg}"),
            ServiceError::Compile(msg) => write!(f, "compile error: {msg}"),
            ServiceError::OutOfQubits(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Keeps out-of-qubits failures structured; every other compile
/// failure travels as its message.
fn compile_error(e: CompileError) -> ServiceError {
    match e {
        e @ CompileError::OutOfQubits { .. } => ServiceError::OutOfQubits(Box::new(e)),
        other => ServiceError::Compile(other.to_string()),
    }
}

/// A snapshot of every cache plus the service-level counters,
/// embedded in each response and served by the `stats` command.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Prepared-program cache.
    pub prepared: CacheStats,
    /// Shared-topology cache.
    pub topologies: CacheStats,
    /// Finished-report cache.
    pub reports: CacheStats,
    /// Total compile requests accepted.
    pub requests: u64,
    /// Requests that ran the compiler (neither cached nor coalesced).
    pub compiles: u64,
    /// Requests coalesced onto an identical in-flight compile.
    pub coalesced: u64,
    /// Cumulative CER decision-memo counters summed over every compile
    /// this service actually ran (cache hits and coalesced followers
    /// add nothing — they did no CER work).
    pub cer_cache: CerCacheStats,
    /// Cumulative budget-driven early-uncompute/recompute counters,
    /// summed the same way.
    pub recompute: RecomputeStats,
}

impl Serialize for ServiceStats {
    fn serialize(&self) -> Value {
        Value::map([
            ("prepared", self.prepared.serialize()),
            ("topologies", self.topologies.serialize()),
            ("reports", self.reports.serialize()),
            ("requests", Value::UInt(self.requests)),
            ("compiles", Value::UInt(self.compiles)),
            ("coalesced", Value::UInt(self.coalesced)),
            ("cer_cache", self.cer_cache.serialize()),
            ("recompute", self.recompute.serialize()),
        ])
    }
}

/// The full identity of a compile: same key ⇒ byte-identical report.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellKey {
    hash: String,
    policy: Policy,
    arch: SweepArch,
    router: RouterKind,
    budget: Option<usize>,
    mbu: bool,
}

impl CellKey {
    fn of(req: &CompileRequest) -> CellKey {
        // The compiler never runs the swap-chain router on braided
        // archs; fold that into the key so `ft`+lookahead and
        // `ft`+greedy share one cell instead of compiling twice.
        let router = if req.arch.is_braided() {
            RouterKind::Greedy
        } else {
            req.router
        };
        CellKey {
            hash: content_hash(req.source.as_bytes()),
            policy: req.policy,
            arch: req.arch,
            router,
            budget: req.budget,
            mbu: req.mbu,
        }
    }
}

/// A finished compile: the shared report plus the leader's compile time.
type CellResult = Result<(Arc<Value>, f64), ServiceError>;

/// The concurrent compile service: shared caches + in-flight dedupe
/// around the square-core compile pipeline. Cheap to share as
/// `Arc<CompileService>`; every method takes `&self`.
pub struct CompileService {
    prepared: Mutex<LruCache<String, Arc<PreparedProgram>>>,
    topologies: Mutex<LruCache<(SweepArch, usize), Arc<dyn Topology>>>,
    reports: Mutex<LruCache<CellKey, (Arc<Value>, f64)>>,
    /// Compiles in progress, one flight per cell. The caller whose
    /// `get_or_init` closure runs leads; everyone else who finds the
    /// flight follows and reads the leader's result.
    inflight: Mutex<HashMap<CellKey, Arc<OnceLock<CellResult>>>>,
    requests: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    /// Cumulative CER-memo and early-uncompute counters of every
    /// compile this service ran, behind one lock.
    totals: Mutex<(CerCacheStats, RecomputeStats)>,
}

impl CompileService {
    /// Creates a service with the given cache capacities.
    pub fn new(config: ServiceConfig) -> Self {
        CompileService {
            prepared: Mutex::new(LruCache::new(config.prepared_cap)),
            topologies: Mutex::new(LruCache::new(config.topologies_cap)),
            reports: Mutex::new(LruCache::new(config.reports_cap)),
            inflight: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            totals: Mutex::default(),
        }
    }

    /// Compiles one request, going through the caches:
    ///
    /// 1. finished-report cache — hit returns immediately;
    /// 2. in-flight table — an identical compile already running makes
    ///    this request a follower that waits for the leader's result;
    /// 3. otherwise this request leads: prepare (parsing only on a
    ///    prepared-cache miss), build or reuse the topology, compile,
    ///    and fill the report cache and the flight its followers read.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Parse`] with rendered diagnostics when the
    /// source does not parse; [`ServiceError::Compile`] when the
    /// compiler rejects the program. Errors are not cached.
    pub fn compile_source(&self, req: &CompileRequest) -> Result<CompileOutcome, ServiceError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = CellKey::of(req);
        let program_hash = key.hash.clone();

        if let Some((report, compile_ms)) = self.reports.lock().unwrap().get(&key) {
            return Ok(CompileOutcome {
                report,
                compile_ms,
                program_hash,
                cached: true,
                coalesced: false,
            });
        }

        let (result, leader) = self.fly(&key, || self.compile_cell(req, &key));
        result.map(|(report, compile_ms)| CompileOutcome {
            report,
            compile_ms,
            program_hash,
            cached: false,
            coalesced: !leader,
        })
    }

    /// Runs `compile` for `key` unless an identical compile is already
    /// in flight, in which case this call follows it and shares its
    /// result. Returns the result and whether this call led.
    ///
    /// The leader counts the compile and fills the report cache inside
    /// its initializer, then unregisters the flight, so an error lives
    /// only as long as its flight; a follower counts as coalesced. A
    /// panicking initializer leaves the cell empty and registered: a
    /// waiting follower, or the next request for the cell, runs its
    /// own initializer and leads.
    fn fly(&self, key: &CellKey, compile: impl FnOnce() -> CellResult) -> (CellResult, bool) {
        let flight = Arc::clone(
            self.inflight
                .lock()
                .unwrap()
                .entry(key.clone())
                .or_default(),
        );
        let mut leader = false;
        let result = flight
            .get_or_init(|| {
                leader = true;
                let result = compile();
                if let Ok((report, compile_ms)) = &result {
                    self.compiles.fetch_add(1, Ordering::Relaxed);
                    self.reports
                        .lock()
                        .unwrap()
                        .insert(key.clone(), (Arc::clone(report), *compile_ms));
                }
                result
            })
            .clone();
        if leader {
            self.inflight.lock().unwrap().remove(key);
        } else {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        (result, leader)
    }

    /// The leader's actual compile: every prefix stage consults its
    /// shared cache before doing work.
    fn compile_cell(
        &self,
        req: &CompileRequest,
        key: &CellKey,
    ) -> Result<(Arc<Value>, f64), ServiceError> {
        let start = Instant::now();

        // Each lookup binds through a `let` so the guard drops before
        // the miss path re-locks the same cache to insert. The parsed
        // program only feeds `PreparedProgram::new`, so a source is
        // parsed on a prepared miss and never cached on its own.
        let cached_prepared = self.prepared.lock().unwrap().get(&key.hash);
        let prepared = match cached_prepared {
            Some(p) => p,
            None => {
                let display = format!("sq:{}", key.hash);
                let program = square_lang::parse_program(&req.source).map_err(|diags| {
                    ServiceError::Parse(square_lang::render(&req.source, &display, &diags))
                })?;
                let built = PreparedProgram::new(&program)
                    .map_err(|e| ServiceError::Compile(e.to_string()))?;
                let built = Arc::new(built);
                self.prepared
                    .lock()
                    .unwrap()
                    .insert(key.hash.clone(), Arc::clone(&built));
                built
            }
        };

        let config = key
            .arch
            .config(key.policy)
            .with_router(key.router)
            .with_budget(key.budget)
            .with_mbu(key.mbu);
        // Fixed-size archs build the same machine for every program;
        // auto-sized ones depend on the program's ancilla footprint.
        // Key accordingly so a fixed arch is one shared entry.
        let capacity = if key.arch.is_auto_sized() {
            prepared.capacity_hint()
        } else {
            0
        };
        let topo_key = (key.arch, capacity);
        let cached_topo = self.topologies.lock().unwrap().get(&topo_key);
        let topo = match cached_topo {
            Some(t) => t,
            None => {
                let built = build_topology(&config, &prepared).map_err(compile_error)?;
                self.topologies
                    .lock()
                    .unwrap()
                    .insert(topo_key, Arc::clone(&built));
                built
            }
        };

        let report = compile_prepared_on(&prepared, &[], &config, topo).map_err(compile_error)?;
        {
            let mut totals = self.totals.lock().unwrap();
            totals.0 += report.cer_cache;
            if let Some(b) = &report.budget {
                totals.1 += b.recompute;
            }
        }
        let compile_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok((Arc::new(report_json(&report)), compile_ms))
    }

    /// Drops every finished report (counters survive) while leaving
    /// the prepared/topology caches warm. The latency gate
    /// uses this to re-measure real compiles under steady-state
    /// prefix caches.
    pub fn flush_reports(&self) {
        self.reports.lock().unwrap().flush();
    }

    /// A snapshot of all cache and service counters.
    pub fn stats(&self) -> ServiceStats {
        // One read of the totals lock per snapshot: taking it twice in
        // one struct literal would deadlock on the live guard.
        let (cer_cache, recompute) = *self.totals.lock().unwrap();
        ServiceStats {
            prepared: self.prepared.lock().unwrap().stats(),
            topologies: self.topologies.lock().unwrap().stats(),
            reports: self.reports.lock().unwrap().stats(),
            requests: self.requests.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            cer_cache,
            recompute,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    use super::*;

    const SRC: &str = "entry module main(0 params, 3 ancilla) {\n  \
         compute { x a0; cx a0 a1; }\n  store { cx a1 a2; }\n}\n";

    fn request(source: &str) -> CompileRequest {
        CompileRequest {
            source: source.to_string(),
            policy: Policy::Square,
            arch: SweepArch::NisqAuto,
            router: RouterKind::Greedy,
            budget: None,
            mbu: false,
        }
    }

    #[test]
    fn second_identical_request_hits_the_report_cache() {
        let svc = CompileService::new(ServiceConfig::default());
        let first = svc.compile_source(&request(SRC)).unwrap();
        assert!(!first.cached && !first.coalesced);
        let second = svc.compile_source(&request(SRC)).unwrap();
        assert!(second.cached);
        assert_eq!(first.report, second.report);
        assert_eq!(first.program_hash, second.program_hash);
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.reports.hits, 1);
    }

    /// A program that would auto-size its machine past the qubit limit
    /// gets a compile error before anything is allocated, and the
    /// service keeps compiling.
    #[test]
    fn oversized_auto_machine_is_an_error_not_an_abort() {
        let svc = CompileService::new(ServiceConfig::default());
        let huge = "entry module main(0 params, 268435456 ancilla) {\n  compute { x a0; }\n}\n";
        for arch in SweepArch::AUTO {
            let mut req = request(huge);
            req.arch = arch;
            match svc.compile_source(&req) {
                Err(ServiceError::Compile(msg)) => assert!(msg.contains("2^20"), "{arch}: {msg}"),
                other => panic!("{arch}: expected a compile error, got {other:?}"),
            }
        }
        let next = svc.compile_source(&request(SRC)).unwrap();
        assert!(!next.cached);
        assert_eq!(svc.stats().compiles, 1, "failed compiles are not counted");
    }

    /// A frame declaring more ancillas than an explicit machine holds
    /// is refused as out of qubits, naming the declaring module, before
    /// one id per ancilla is collected: 2^28 ids would be a 1 GB
    /// allocation and 2^62 a capacity-overflow panic. The service keeps
    /// compiling afterwards.
    #[test]
    fn oversized_frames_on_a_small_machine_are_out_of_qubits() {
        let svc = CompileService::new(ServiceConfig::default());
        for count in [1u64 << 28, 1 << 62] {
            let entry = format!(
                "entry module main(0 params, {count} ancilla) {{\n  compute {{ x a0; }}\n}}\n"
            );
            let callee = format!(
                "module big(1 params, {count} ancilla) {{\n  compute {{ cx p0 a0; }}\n}}\n\
                 entry module main(0 params, 1 ancilla) {{\n  compute {{ call big(a0); }}\n}}\n"
            );
            for (source, module, live) in [(entry, "main", 0), (callee, "big", 1)] {
                let mut req = request(&source);
                req.arch = SweepArch::Grid {
                    width: 4,
                    height: 4,
                };
                match svc.compile_source(&req) {
                    Err(ServiceError::OutOfQubits(e)) => match *e {
                        CompileError::OutOfQubits {
                            requested,
                            capacity,
                            live: got_live,
                            module: got_module,
                            ..
                        } => {
                            assert_eq!(requested as u64, count);
                            assert_eq!((capacity, got_live), (16, live));
                            assert_eq!(got_module.as_deref(), Some(module));
                        }
                        other => panic!("wrong compile error: {other}"),
                    },
                    other => panic!("{module} with {count}: expected out of qubits, got {other:?}"),
                }
            }
        }
        let next = svc.compile_source(&request(SRC)).unwrap();
        assert!(!next.cached && !next.coalesced);
        assert_eq!(svc.stats().compiles, 1);
    }

    /// A follower waiting on a flight whose initializer panics is not
    /// left parked: it runs its own initializer, leads, and unregisters
    /// the flight.
    #[test]
    fn follower_of_a_panicking_flight_gets_a_result() {
        let svc = CompileService::new(ServiceConfig::default());
        let key = CellKey::of(&request(SRC));
        let leading = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                svc.fly(&key, || {
                    leading.store(true, Ordering::SeqCst);
                    // Hold the flight until the follower has joined it
                    // (the table, this thread and the follower).
                    while Arc::strong_count(&svc.inflight.lock().unwrap()[&key]) < 3 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("injected compile panic");
                })
            });
            while !leading.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let (result, led) = svc.fly(&key, || Ok((Arc::new(Value::Null), 1.0)));
            assert_eq!(result.unwrap().1, 1.0);
            assert!(led, "the follower ran its own initializer");
            assert!(leader.join().is_err(), "the first leader panicked");
        });
        assert!(svc.inflight.lock().unwrap().is_empty());
        assert_eq!((svc.stats().compiles, svc.stats().coalesced), (1, 0));
    }

    /// A cell whose leader panicked with nobody waiting compiles on the
    /// next request instead of parking it on the dead flight.
    #[test]
    fn a_cell_whose_leader_panicked_compiles_on_the_next_request() {
        let svc = CompileService::new(ServiceConfig::default());
        let key = CellKey::of(&request(SRC));
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| svc.fly(&key, || panic!("injected compile panic")));
            assert!(leader.join().is_err());
        });
        let next = svc.compile_source(&request(SRC)).unwrap();
        assert!(!next.cached && !next.coalesced);
        assert_eq!(svc.stats().compiles, 1);
        assert!(svc.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn flush_reports_keeps_prefix_caches_warm() {
        let svc = CompileService::new(ServiceConfig::default());
        svc.compile_source(&request(SRC)).unwrap();
        svc.flush_reports();
        let again = svc.compile_source(&request(SRC)).unwrap();
        assert!(!again.cached, "flushed report must recompile");
        let stats = svc.stats();
        assert_eq!(stats.compiles, 2);
        assert!(stats.prepared.hits >= 1, "prepared cache stayed warm");
        assert!(stats.topologies.hits >= 1, "topology cache stayed warm");
    }

    #[test]
    fn braided_arch_router_variants_share_one_cell() {
        let svc = CompileService::new(ServiceConfig::default());
        let mut req = request(SRC);
        req.arch = SweepArch::FtAuto;
        req.router = RouterKind::Lookahead;
        let first = svc.compile_source(&req).unwrap();
        req.router = RouterKind::Greedy;
        let second = svc.compile_source(&req).unwrap();
        assert!(second.cached, "ft+lookahead and ft+greedy are one cell");
        assert_eq!(first.report, second.report);
    }

    #[test]
    fn budget_is_part_of_the_cell_key() {
        let svc = CompileService::new(ServiceConfig::default());
        let unbudgeted = svc.compile_source(&request(SRC)).unwrap();
        let mut capped = request(SRC);
        capped.budget = Some(3);
        let budgeted = svc.compile_source(&capped).unwrap();
        assert!(
            !budgeted.cached,
            "a budgeted compile must not hit the unbudgeted cell"
        );
        // The budgeted report carries the budget/recompute fields, the
        // unbudgeted one must not (byte-stability of existing cells).
        assert_eq!(
            budgeted.report.get("budget").and_then(Value::as_u64),
            Some(3)
        );
        assert!(unbudgeted.report.get("budget").is_none());
        // And the budgeted cell caches under its own key.
        let again = svc.compile_source(&capped).unwrap();
        assert!(again.cached);
    }

    const CHILD_SRC: &str = "module fun1(4 params, 1 ancilla) {\n  \
         compute { ccx p0 p1 p2; cx p2 a0; }\n  store { cx a0 p3; }\n}\n\
         entry module main(0 params, 4 ancilla) {\n  \
         compute { call fun1(a0, a1, a2, a3); }\n}\n";

    #[test]
    fn mbu_is_part_of_the_cell_key() {
        let svc = CompileService::new(ServiceConfig::default());
        let plain = svc.compile_source(&request(CHILD_SRC)).unwrap();
        let mut req = request(CHILD_SRC);
        req.mbu = true;
        let mbu = svc.compile_source(&req).unwrap();
        assert!(!mbu.cached, "an MBU compile must not hit the plain cell");
        // The MBU report carries the gated block, the plain one must
        // not (byte-stability of existing cells).
        assert!(mbu.report.get("mbu").is_some());
        assert!(plain.report.get("mbu").is_none());
        // And the MBU cell caches under its own key.
        let again = svc.compile_source(&req).unwrap();
        assert!(again.cached);
    }

    #[test]
    fn stats_accumulate_cer_work_across_compiles() {
        let svc = CompileService::new(ServiceConfig::default());
        // A child-frame program under SQUARE consults CER at frame
        // completion, so the cumulative memo counters move.
        svc.compile_source(&request(CHILD_SRC)).unwrap();
        let first = svc.stats();
        assert!(
            first.cer_cache.hits + first.cer_cache.misses > 0,
            "{:?}",
            first.cer_cache
        );
        // A report-cache hit does no CER work and adds nothing.
        svc.compile_source(&request(CHILD_SRC)).unwrap();
        let second = svc.stats();
        assert_eq!(first.cer_cache, second.cer_cache);
        assert_eq!(first.recompute, second.recompute);
        // Both cumulative blocks ride along in the serialized snapshot.
        let wire = serde_json::to_string(&second.serialize()).unwrap();
        assert!(wire.contains("\"cer_cache\""), "{wire}");
        assert!(wire.contains("\"recompute\""), "{wire}");
    }

    #[test]
    fn out_of_qubits_surfaces_structured() {
        let svc = CompileService::new(ServiceConfig::default());
        let mut req = request(SRC);
        req.budget = Some(1);
        match svc.compile_source(&req).unwrap_err() {
            ServiceError::OutOfQubits(e) => match *e {
                CompileError::OutOfQubits {
                    budget,
                    min_feasible,
                    ..
                } => {
                    assert_eq!(budget, Some(1));
                    assert!(min_feasible.is_some());
                }
                other => panic!("wrong compile error: {other}"),
            },
            other => panic!("expected structured out-of-qubits, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_rendered_and_not_cached() {
        let svc = CompileService::new(ServiceConfig::default());
        let bad = request("entry module main(0 params, 1 ancilla) { compute { nope; } }");
        let err = svc.compile_source(&bad).unwrap_err();
        match &err {
            ServiceError::Parse(msg) => assert!(!msg.is_empty()),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert_eq!(svc.stats().compiles, 0);
        // Retrying reruns the parse (errors are never cached) and
        // fails the same way.
        assert_eq!(svc.compile_source(&bad).unwrap_err(), err);
    }
}
