//! Schedule digests: each cell's recorded schedule, hashed.
//!
//! The report fingerprints pinned by `routing_bitcompat` (gates, swaps,
//! depth, qubits, AQV) cannot tell two equal-length swap chains apart,
//! so a router change that picks a different shortest path of the same
//! length passes them. This suite hashes the recorded schedule itself
//! (`record_schedule`): a 64-bit FNV-1a digest of its `--emit schedule`
//! listing, one line per gate. `tests/golden/schedule_digest.json`
//! holds the digests, recorded before the lattice gather became a
//! closed-form walk.
//!
//! The quick test replays the ADDER32/MODEXP cells. The full set
//! (MUL64 nisq included, ~4M gates per schedule) is `#[ignore]`d and
//! runs in release by CI's `routing` job:
//!
//! ```sh
//! cargo test --release --test schedule_digest -- --ignored
//! ```

use std::fmt::Write as _;

use square_repro::core::{compile, Policy, RouterKind, SweepArch};
use square_repro::workloads::{build, Benchmark};

const GOLDEN: &str = include_str!("golden/schedule_digest.json");

/// 64-bit FNV-1a over everything written into it.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Compiles `benchmark/policy/arch/router` with the schedule recorded
/// and returns `(cell name, gate count, digest)`.
fn digest(
    benchmark: Benchmark,
    policy: Policy,
    arch: &str,
    router: RouterKind,
) -> (String, usize, String) {
    let name = format!(
        "{}/{}/{arch}/{}",
        benchmark.name(),
        policy.cli_name(),
        router.cli_name()
    );
    let arch: SweepArch = arch.parse().expect("arch parses");
    let config = arch.config(policy).with_router(router).with_schedule();
    let program = build(benchmark).expect("benchmark builds");
    let report = compile(&program, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
    let schedule = report.schedule.as_deref().expect("schedule recorded");
    let mut hash = Fnv1a::new();
    for gate in schedule {
        writeln!(hash, "{gate}").expect("hashing never fails");
    }
    (name, schedule.len(), format!("{:016x}", hash.0))
}

/// Checks each cell against its golden entry, matched by name.
fn check(cells: &[(Benchmark, Policy, &str, RouterKind)]) {
    let golden = serde_json::from_str(GOLDEN).expect("golden parses");
    let recorded = golden
        .get("cells")
        .and_then(|c| c.as_seq())
        .expect("golden has cells");
    for &(benchmark, policy, arch, router) in cells {
        let (name, gates, digest) = digest(benchmark, policy, arch, router);
        let line = format!(r#"{{"cell": "{name}", "gates": {gates}, "digest": "{digest}"}}"#);
        let want = recorded
            .iter()
            .find(|c| c.get("cell").and_then(|v| v.as_str()) == Some(name.as_str()))
            .unwrap_or_else(|| panic!("golden missing {line}"));
        assert_eq!(
            (
                want.get("gates").and_then(|v| v.as_u64()),
                want.get("digest").and_then(|v| v.as_str())
            ),
            (Some(gates as u64), Some(digest.as_str())),
            "{name}: schedule drifted, now {line}"
        );
    }
}

#[test]
fn small_schedules_match_their_digests() {
    use Policy::*;
    use RouterKind::*;
    check(&[
        (Benchmark::Adder32, Square, "nisq", Greedy),
        (Benchmark::Adder32, Lazy, "line:272", Greedy),
        (Benchmark::Adder32, Lazy, "line:272", Lookahead),
        (Benchmark::Modexp, Lazy, "nisq", Lookahead),
        (Benchmark::Modexp, Square, "heavyhex", Lookahead),
    ]);
}

#[test]
#[ignore = "MUL64 schedules hold ~4M gates; run in release (CI routing job)"]
fn large_schedules_match_their_digests() {
    use Policy::*;
    use RouterKind::*;
    check(&[
        (Benchmark::Mul64, Lazy, "nisq", Greedy),
        (Benchmark::Mul64, Square, "nisq", Greedy),
        (Benchmark::Mul32, Square, "nisq", Lookahead),
        (Benchmark::Mul32, Square, "heavyhex", Lookahead),
        (Benchmark::Mul32, Square, "ring", Lookahead),
        (Benchmark::Adder64, Lazy, "line:506", Greedy),
    ]);
}
