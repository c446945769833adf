//! The benchmark's inputs are a pure function of its seed, and the
//! compiler-quality metrics repeat exactly.

use square_bench::{run_sweep, SweepArch, SweepSpec};
use square_core::{Policy, RouterKind};
use square_perfbench::common::geomean;
use square_perfbench::serve_mix::{program_cells, stream, PoolCell};
use square_perfbench::verify_matrix::fuzz_seeds;
use square_workloads::Benchmark;

/// A pool shaped like `serve-mix`'s (13 programs) without a server.
fn pool() -> Vec<PoolCell> {
    (0..13)
        .flat_map(|p| {
            program_cells(&[16 + p, 32 + p, 48 + p])
                .into_iter()
                .map(move |c| (p, c))
        })
        .collect()
}

#[test]
fn pool_outgrows_the_default_report_cache() {
    let pool = pool();
    assert!(pool.len() > 512, "{} distinct cells", pool.len());
    let mut distinct = pool.clone();
    distinct.sort_by_key(|(p, c)| (*p, c.label()));
    distinct.dedup();
    assert_eq!(distinct.len(), pool.len(), "pool cells are distinct");
}

#[test]
fn same_seed_same_stream_and_fuzz_seeds() {
    let pool = pool();
    assert_eq!(stream(7, &pool, 5000), stream(7, &pool, 5000));
    assert_eq!(fuzz_seeds(7, 40), fuzz_seeds(7, 40));
}

#[test]
fn different_seed_different_stream_and_fuzz_seeds() {
    let pool = pool();
    assert_ne!(stream(7, &pool, 5000), stream(8, &pool, 5000));
    assert_ne!(fuzz_seeds(7, 40), fuzz_seeds(8, 40));
}

#[test]
fn stream_is_skewed_and_reaches_the_whole_pool() {
    let pool = pool();
    let draws = stream(3, &pool, 100_000);
    let mut counts = vec![0usize; pool.len()];
    for &c in &draws {
        counts[c as usize] += 1;
    }
    let hottest = *counts.iter().max().expect("non-empty pool");
    assert!(hottest > 100_000 / 20, "hottest cell drew {hottest}");
    assert!(counts.iter().all(|&n| n > 0), "every cell is requested");
}

#[test]
fn quality_geomeans_repeat_exactly() {
    let spec = SweepSpec {
        benchmarks: Benchmark::NISQ.to_vec(),
        policies: Policy::ALL.to_vec(),
        archs: vec![SweepArch::NisqAuto, SweepArch::FtAuto],
        routers: vec![RouterKind::Greedy],
        budgets: vec![None],
    };
    let quality = || {
        let matrix = run_sweep(&spec);
        let reports: Vec<_> = matrix
            .cells
            .iter()
            .map(|c| c.report.as_ref().expect("NISQ cell compiles"))
            .collect();
        let aqv: Vec<f64> = reports.iter().map(|r| r.aqv as f64).collect();
        let routed: Vec<f64> = reports.iter().map(|r| (r.gates + r.swaps) as f64).collect();
        (geomean(&aqv), geomean(&routed))
    };
    let first = quality();
    assert_eq!(first, quality());
    assert!(first.0 > 0.0 && first.1 > 0.0);
}
