//! The route replay reproduces the compile it replays: on every greedy
//! NISQ smoke cell (and the braided FT twins) it must hit the report's
//! swaps, depth and AQV exactly, and it must refuse the cells it cannot
//! replay.

use std::sync::Arc;

use square_arch::Topology;
use square_bench::BenchSet;
use square_core::{compile_prepared_on, CompilerConfig, PreparedProgram, RouterKind};
use square_perfbench::replay::{replay, Skip};
use square_workloads::build;

fn compile_recorded(
    prepared: &PreparedProgram,
    config: &CompilerConfig,
) -> (square_core::CompileReport, Arc<dyn Topology>) {
    let topo: Arc<dyn Topology> = Arc::from(config.arch.build(prepared.capacity_hint()));
    let mut recording = config.clone();
    recording.record_schedule = true;
    let report = compile_prepared_on(prepared, &[], &recording, Arc::clone(&topo))
        .expect("smoke cell compiles");
    (report, topo)
}

#[test]
fn replay_reproduces_every_greedy_smoke_cell() {
    let set = BenchSet::Smoke;
    for &bench in set.benchmarks() {
        let program = build(bench).expect("catalog program builds");
        let prepared = PreparedProgram::new(&program).expect("catalog program prepares");
        for &policy in set.policies() {
            for config in [CompilerConfig::nisq(policy), CompilerConfig::ft(policy)] {
                let (report, topo) = compile_recorded(&prepared, &config);
                let mut recording = config.clone();
                recording.record_schedule = true;
                if let Err(skip) = replay(&report, &recording, topo) {
                    panic!("{bench} {policy:?} {:?}: {skip}", config.comm);
                }
            }
        }
    }
}

#[test]
fn replay_refuses_lookahead_and_unrecorded_cells() {
    let program = build(square_workloads::Benchmark::Rd53).expect("RD53 builds");
    let prepared = PreparedProgram::new(&program).expect("RD53 prepares");
    let lookahead =
        CompilerConfig::nisq(square_core::Policy::Square).with_router(RouterKind::Lookahead);
    let (report, topo) = compile_recorded(&prepared, &lookahead);
    assert_eq!(
        replay(&report, &lookahead, topo).unwrap_err(),
        Skip::Lookahead
    );

    let greedy = CompilerConfig::nisq(square_core::Policy::Square);
    let topo: Arc<dyn Topology> = Arc::from(greedy.arch.build(prepared.capacity_hint()));
    let unrecorded =
        compile_prepared_on(&prepared, &[], &greedy, Arc::clone(&topo)).expect("RD53 compiles");
    assert_eq!(
        replay(&unrecorded, &greedy, topo).unwrap_err(),
        Skip::NoHistory
    );
}
