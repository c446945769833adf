//! Property tests for the machine model: a byte script drives
//! [`Machine`] and a naive lock-step model through random placements,
//! releases, and routed gates on small grids, checking after every
//! operation that
//!
//! * no two live virtual qubits ever share a physical cell, and the
//!   occupancy bookkeeping (`is_free` / `phys_of` / `active_count` on [`Placement`])
//!   stays mutually consistent;
//! * `clock().avail` is monotone per qubit — the ASAP timeline never
//!   travels backwards;
//! * the reuse pool ([`Placement::pooled`]) holds each cell at most
//!   once, only free cells, and exactly as many as were released minus
//!   those bound again — so placing from the pool (what the compiler's
//!   allocator does) can never collide with a live qubit;
//!
//! and at the end that the pool is a function of the placement
//! history: replaying its events with the pool's three rules (a release
//! appends, a bind of a pooled cell swap-removes it, a move into a
//! pooled cell renames that entry to the cell left) rebuilds the last
//! pool, order included.

use proptest::prelude::*;
use square_arch::{GridTopology, PhysId};
use square_qir::{Gate, VirtId};
use square_route::{Machine, MachineConfig, Placement, PlacementEvent};

/// Rebuilds the reuse pool from a placement history.
fn pool_from_history(history: &[PlacementEvent]) -> Vec<PhysId> {
    let mut pool: Vec<PhysId> = Vec::new();
    for ev in history {
        match *ev {
            PlacementEvent::Place { phys, .. } => {
                if let Some(i) = pool.iter().position(|&p| p == phys) {
                    pool.swap_remove(i);
                }
            }
            PlacementEvent::Release { phys, .. } => pool.push(phys),
            PlacementEvent::Move { from, to, .. } => {
                if let Some(entry) = pool.iter_mut().find(|p| **p == to) {
                    *entry = from;
                }
            }
        }
    }
    pool
}

/// Asserts the pool invariants after one step of the script.
fn check_pool(pl: &Placement, releases: usize, pooled_binds: usize) {
    let pool = pl.pooled();
    let mut sorted = pool.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    prop_assert_eq!(
        sorted.len(),
        pool.len(),
        "a cell is pooled twice: {:?}",
        pool
    );
    for p in pool {
        prop_assert!(pl.is_free(*p), "pooled cell {} is occupied", p);
    }
    prop_assert_eq!(pool.len(), releases - pooled_binds);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn machine_matches_naive_model(
        width in 2u32..6,
        height in 2u32..6,
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()),
            0..160,
        ),
    ) {
        let n = (width * height) as usize;
        let mut m = Machine::new(
            Box::new(GridTopology::new(width, height)),
            MachineConfig::nisq().with_schedule(),
        );
        // Naive model state.
        let mut live: Vec<VirtId> = Vec::new();
        let mut releases = 0usize;
        let mut pooled_binds = 0usize;
        let mut next_virt = 0u32;
        let mut avail_before: Vec<u64> = (0..n).map(|i| m.clock().avail(PhysId(i as u32))).collect();

        for (op, x, y) in script {
            match op % 4 {
                // Place a fresh virtual qubit: alternately from the
                // reuse pool (the allocator's reuse path) and from a
                // scan of any free cell (the expansion path, which may
                // also land on a pooled cell).
                0 => {
                    if live.len() == n {
                        continue;
                    }
                    let v = VirtId(next_virt);
                    next_virt += 1;
                    let pool = m.placement().pooled();
                    let slot = if !pool.is_empty() && x % 2 == 0 {
                        pool[usize::from(y) % pool.len()]
                    } else {
                        let center = (i32::from(x % 8), i32::from(y % 8));
                        match m.nearest_free(center, false) {
                            Some(p) => p,
                            None => continue,
                        }
                    };
                    if pool.contains(&slot) {
                        pooled_binds += 1;
                    }
                    // A pool that lost track of a swap could name an
                    // occupied slot, and this would error.
                    m.place_at(v, slot).expect("pool/scan slots are free");
                    prop_assert!(!m.placement().pooled().contains(&slot), "bound cell still pooled");
                    live.push(v);
                }
                // Release a live qubit into the reuse pool.
                1 => {
                    if live.is_empty() {
                        continue;
                    }
                    let v = live.remove(usize::from(x) % live.len());
                    let p = m.release(v).expect("live qubits release");
                    releases += 1;
                    prop_assert_eq!(m.placement().pooled().last(), Some(&p), "release appends");
                }
                // Apply a CNOT between two live qubits (drives swap
                // chains, which is what renames pooled cells).
                2 => {
                    if live.len() < 2 {
                        continue;
                    }
                    let a = live[usize::from(x) % live.len()];
                    let b = live[usize::from(y) % live.len()];
                    if a == b {
                        continue;
                    }
                    m.apply(&Gate::Cx { control: a, target: b }).expect("routable");
                }
                // Apply a Toffoli over three live qubits.
                _ => {
                    if live.len() < 3 {
                        continue;
                    }
                    let c0 = live[usize::from(x) % live.len()];
                    let c1 = live[usize::from(y) % live.len()];
                    let t = live[usize::from(x ^ y) % live.len()];
                    if c0 == c1 || c0 == t || c1 == t {
                        continue;
                    }
                    m.apply(&Gate::Ccx { c0, c1, target: t }).expect("routable");
                }
            }

            // 1. Occupancy: live virtuals sit on distinct free-marked
            //    cells; counts agree.
            let mut cells: Vec<PhysId> = Vec::with_capacity(live.len());
            for v in &live {
                let p = m.placement().phys_of(*v).expect("live qubit is placed");
                prop_assert!(!m.placement().is_free(p), "cell of live {v} reads free");
                cells.push(p);
            }
            cells.sort_unstable();
            let distinct = cells.windows(2).all(|w| w[0] != w[1]);
            prop_assert!(distinct, "two live virtuals share a cell");
            prop_assert_eq!(m.placement().active_count(), live.len());
            prop_assert_eq!(m.placement().free_count(), n - live.len());

            // 2. Timeline monotonicity.
            for (i, before) in avail_before.iter_mut().enumerate() {
                let now = m.clock().avail(PhysId(i as u32));
                prop_assert!(
                    now >= *before,
                    "avail of Q{i} went backwards: {before} -> {now}"
                );
                *before = now;
            }

            // 3. The reuse pool: distinct free cells, one per release
            //    not yet bound again.
            check_pool(m.placement(), releases, pooled_binds);
        }
        let last_pool = m.placement().pooled().to_vec();

        // Liveness closure: the final report closes one segment per
        // virtual qubit that ever carried a gate or release.
        let report = m.finish();
        prop_assert_eq!(report.stats.program_gates + report.stats.swaps,
            report.schedule.as_ref().expect("recorded").len() as u64);
        // The pool follows from the placement history alone.
        let history = report.placement_history.as_deref().expect("recorded");
        prop_assert_eq!(pool_from_history(history), last_pool);
        for seg in &report.segments {
            prop_assert!(seg.end >= seg.start, "segment runs backwards");
            prop_assert!(seg.end <= report.depth, "segment outlives the circuit");
        }
    }
}
