//! Bit-compatibility regression gate for the routing engine.
//!
//! The greedy router was pulled out of `route::machine` and has been
//! reshaped since (a trait, then enum-dispatched functions that swap
//! live); this suite pins every such refactor to the committed seed
//! sweep (`tests/golden/sweep_seed.json`, generated by the pre-trait
//! compiler): every deterministic report field of the
//! `benchmark × policy × {nisq, ft}` matrix must be *identical* —
//! same gates, same swaps, same depth, same AQV, same reclamation
//! decision counts, down to the floating-point communication factor.
//!
//! A second golden, `tests/golden/topology_seed.json`, pins the
//! graph-backed layouts the same way: heavy-hex and ring cells under
//! both routers, recorded before their distance queries moved from
//! eager all-pairs tables to per-target rows built on demand.
//!
//! The quick tests cover the NISQ set, every benchmark on the FT
//! machine and three topology benchmarks; the full 17-benchmark matrix
//! (136 cells, multi-million-gate schedules included) and the full
//! topology set are `#[ignore]`d here and run in release by CI's
//! `routing` job:
//!
//! ```sh
//! cargo test --release --test routing_bitcompat -- --ignored
//! ```

use square_repro::bench::{report_json, run_sweep, SweepArch, SweepSpec};
use square_repro::core::{Policy, RouterKind};
use square_repro::workloads::Benchmark;

const GOLDEN: &str = include_str!("golden/sweep_seed.json");

/// Heavy-hex and ring cells under both routers, recorded before the
/// graph layouts moved from eager all-pairs tables to per-target
/// distance rows: the NISQ set plus ADDER32 and MODEXP × every policy
/// × {heavyhex, ring} × {greedy, lookahead}, and MUL32/square on
/// heavy-hex (the largest auto-sized heavy-hex machine) under both
/// routers.
const TOPOLOGY_GOLDEN: &str = include_str!("golden/topology_seed.json");

/// The deterministic scalar fields of a report cell (everything the
/// seed golden records except the nested counter maps).
const SCALAR_FIELDS: [&str; 8] = [
    "gates",
    "swaps",
    "depth",
    "qubits",
    "peak_active",
    "aqv",
    "comm_factor",
    "machine_qubits",
];

/// Runs `spec` and checks every cell field for field against its twin
/// in `golden`, matched on benchmark, policy, arch and router (a golden
/// cell without a `router` key is a greedy cell). Counter groups are
/// compared where the golden records them. Returns the number of cells
/// compared.
fn check_against(golden: &str, spec: SweepSpec) -> usize {
    let golden = serde_json::from_str(golden).expect("golden parses");
    let golden_cells = golden
        .get("cells")
        .and_then(|c| c.as_seq())
        .expect("golden has cells");

    let matrix = run_sweep(&spec);
    assert_eq!(matrix.cells.len(), spec.len());

    for cell in &matrix.cells {
        let golden_cell = golden_cells
            .iter()
            .find(|g| {
                g.get("benchmark").and_then(|v| v.as_str()) == Some(cell.benchmark.name())
                    && g.get("policy").and_then(|v| v.as_str()) == Some(cell.policy.cli_name())
                    && g.get("arch").and_then(|v| v.as_str()) == Some(&cell.arch.to_string())
                    && g.get("router").and_then(|v| v.as_str()).unwrap_or("greedy")
                        == cell.router.cli_name()
            })
            .unwrap_or_else(|| {
                panic!(
                    "golden missing {}/{}/{}/{}",
                    cell.benchmark,
                    cell.policy.cli_name(),
                    cell.arch,
                    cell.router.cli_name()
                )
            });
        let name = format!(
            "{}/{}/{}/{}",
            cell.benchmark,
            cell.policy.cli_name(),
            cell.arch,
            cell.router.cli_name()
        );
        let report = cell
            .report
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let now = report_json(report);
        let want = golden_cell.get("report").expect("golden cell has report");
        for field in SCALAR_FIELDS {
            let got = now.get(field);
            let expect = want.get(field);
            let same = match (
                expect.and_then(|v| v.as_f64()),
                got.and_then(|v| v.as_f64()),
            ) {
                // Numeric fields (including comm_factor) must match
                // exactly — the computation is deterministic, so any
                // drift is a semantic change, not noise.
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            assert!(
                same,
                "{name}: field `{field}` drifted: seed {expect:?} vs now {got:?}"
            );
        }
        let expect_decisions = want.get("decisions").expect("golden cell has decisions");
        for key in ["reclaimed", "garbage", "forced"] {
            let got = now
                .get("decisions")
                .and_then(|g| g.get(key))
                .and_then(|v| v.as_u64());
            let expect = expect_decisions.get(key).and_then(|v| v.as_u64());
            assert_eq!(got, expect, "{name}: decisions.{key} drifted");
        }
    }
    matrix.cells.len()
}

fn check_bitcompat(benchmarks: &[Benchmark]) {
    let spec = SweepSpec {
        benchmarks: benchmarks.to_vec(),
        policies: Policy::ALL.to_vec(),
        archs: vec![SweepArch::NisqAuto, SweepArch::FtAuto],
        // The correctness anchor: the *extracted* greedy router must
        // reproduce the historical inlined router cell for cell.
        routers: vec![RouterKind::Greedy],
        budgets: vec![None],
    };
    let compared = check_against(GOLDEN, spec);
    assert_eq!(compared, benchmarks.len() * Policy::ALL.len() * 2);
}

/// Every policy × {heavyhex, ring} × both routers over `benchmarks`.
fn topology_spec(benchmarks: &[Benchmark]) -> SweepSpec {
    SweepSpec {
        benchmarks: benchmarks.to_vec(),
        policies: Policy::ALL.to_vec(),
        archs: vec![SweepArch::HeavyHexAuto, SweepArch::RingAuto],
        routers: RouterKind::ALL.to_vec(),
        budgets: vec![None],
    }
}

#[test]
fn nisq_set_is_bit_compatible_with_seed_reports() {
    check_bitcompat(&Benchmark::NISQ);
}

#[test]
#[ignore = "full 136-cell matrix; run in release (CI routing job)"]
fn full_matrix_is_bit_compatible_with_seed_reports() {
    check_bitcompat(&Benchmark::ALL);
}

/// Every benchmark × policy on the auto-sized FT machine: the braid
/// field's conflict test, queuing and orientation choice must keep
/// every FT schedule, depth, AQV and `comm_factor` of the seed.
#[test]
fn ft_matrix_is_bit_compatible_with_seed_reports() {
    let spec = SweepSpec {
        benchmarks: Benchmark::ALL.to_vec(),
        policies: Policy::ALL.to_vec(),
        archs: vec![SweepArch::FtAuto],
        routers: vec![RouterKind::Greedy],
        budgets: vec![None],
    };
    assert_eq!(check_against(GOLDEN, spec), 68);
}

#[test]
fn graph_topologies_are_bit_compatible_with_seed_reports() {
    let benchmarks = [Benchmark::Rd53, Benchmark::Adder4, Benchmark::BelleS];
    let compared = check_against(TOPOLOGY_GOLDEN, topology_spec(&benchmarks));
    assert_eq!(compared, benchmarks.len() * Policy::ALL.len() * 2 * 2);
}

#[test]
#[ignore = "full topology golden incl. MUL32 on heavy-hex; run in release (CI routing job)"]
fn full_topology_set_is_bit_compatible_with_seed_reports() {
    let mut benchmarks = Benchmark::NISQ.to_vec();
    benchmarks.extend([Benchmark::Adder32, Benchmark::Modexp]);
    let mut compared = check_against(TOPOLOGY_GOLDEN, topology_spec(&benchmarks));
    compared += check_against(
        TOPOLOGY_GOLDEN,
        SweepSpec {
            benchmarks: vec![Benchmark::Mul32],
            policies: vec![Policy::Square],
            archs: vec![SweepArch::HeavyHexAuto],
            routers: RouterKind::ALL.to_vec(),
            budgets: vec![None],
        },
    );
    let golden = serde_json::from_str(TOPOLOGY_GOLDEN).expect("golden parses");
    let recorded = golden
        .get("cells")
        .and_then(|c| c.as_seq())
        .map_or(0, |c| c.len());
    assert_eq!(compared, recorded, "every recorded cell is replayed");
}

/// The explicit-greedy configuration and the default configuration
/// are the same compiler — `--router greedy` is not a third code
/// path.
#[test]
fn default_router_is_greedy() {
    use square_repro::core::{compile, CompilerConfig};
    use square_repro::workloads::build;

    let program = build(Benchmark::Rd53).unwrap();
    let default = compile(&program, &CompilerConfig::nisq(Policy::Square)).unwrap();
    let explicit = compile(
        &program,
        &CompilerConfig::nisq(Policy::Square).with_router(RouterKind::Greedy),
    )
    .unwrap();
    assert_eq!(default.router, RouterKind::Greedy);
    assert_eq!(default.gates, explicit.gates);
    assert_eq!(default.swaps, explicit.swaps);
    assert_eq!(default.depth, explicit.depth);
    assert_eq!(default.aqv, explicit.aqv);
}
