//! Locality-Aware Allocation (Algorithm 1 of the paper).
//!
//! For each requested ancilla, two candidates are scored — the best
//! reclaimed qubit in the machine's reuse pool
//! ([`Placement::pooled`](square_route::Placement::pooled)) and the
//! nearest brand-new qubit — and the cheaper one wins. Scores balance
//! the paper's three considerations (Section III-A1):
//!
//! * **communication** — distance to the centroid of the qubits the
//!   new ancilla will interact with (obtained by look-ahead: the
//!   caller passes the frame's argument qubits, the compile-time
//!   analogue of `get_interact_qubits()`);
//! * **serialization** — reusing a qubit whose timeline is still busy
//!   adds a false dependency and delays the allocation site;
//! * **area expansion** — a fresh qubit grows the active region,
//!   lengthening future swap chains / braids; the premium scales with
//!   the paper's `√((N_active + 1)/N_active)` factor.
//!
//! Choosing removes nothing: the caller's `Machine::place_at` takes a
//! pooled cell out of the pool when it binds it.

use square_arch::PhysId;
use square_qir::VirtId;
use square_route::Machine;

// Weights of the LAA score (Section IV-C). Scores are in scheduler
// cycles: distance is weighted by the swap cost it implies, waiting
// time enters directly, and fresh allocations carry an area-expansion
// premium.

/// Cost per unit distance to the interaction centroid (one hop is one
/// SWAP, three cycles).
const W_COMM: f64 = 3.0;
/// Cost per cycle of waiting for a reused qubit to become available
/// (reuse adds data dependencies → serialization).
const W_SERIAL: f64 = 0.05;
/// Premium on fresh qubits, scaled by the paper's area-expansion
/// factor `√((N_active + 1)/N_active)` at allocation time.
const W_AREA: f64 = 2.0;

/// Outcome of one allocation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocChoice {
    /// The chosen slot.
    pub phys: PhysId,
    /// Whether it came from the reuse pool or is brand new.
    pub reused: bool,
    /// The winning score (cycles-equivalent; for diagnostics).
    pub score: f64,
}

/// Picks the physical slot for one new ancilla under LAA.
///
/// Returns `None` when the machine is completely full (no pooled
/// qubits and no free fresh slot) — the caller then reports capacity
/// exhaustion or forces reclamation.
pub fn choose_slot(machine: &Machine, interact: &[VirtId]) -> Option<AllocChoice> {
    let center = machine
        .placement()
        .centroid_of(interact)
        .or_else(|| machine.placement().active_centroid())
        .unwrap_or_else(|| {
            // Empty machine: start in the middle of the fabric.
            let mid = PhysId((machine.qubit_count() / 2) as u32);
            machine.topo().coord(mid)
        });
    // Serialization reference: the time at which the consumer could
    // start anyway. For look-ahead-less allocations (uncompute replay)
    // fall back to the schedule frontier — a reused qubit only pays a
    // penalty for availability *beyond* what the schedule already
    // imposes.
    let ready_ref = if interact.is_empty() {
        machine.clock().depth()
    } else {
        machine.ready_time(interact).max(1) - 1
    };

    // Candidate 1: best pooled qubit (communication + serialization);
    // ties keep the first in pool order.
    let reuse_candidate = machine
        .placement()
        .pooled()
        .iter()
        .map(|&p| {
            let dist = dist_to(machine, p, center);
            let wait = machine.clock().avail(p).saturating_sub(ready_ref) as f64;
            (p, W_COMM * dist + W_SERIAL * wait)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1));

    // Candidate 2: nearest never-used qubit (communication + area).
    let fresh_candidate = machine.nearest_free(center, true).map(|p| {
        let dist = dist_to(machine, p, center);
        let n_active = machine.placement().active_count().max(1) as f64;
        let expansion = ((n_active + 1.0) / n_active).sqrt();
        let score = W_COMM * dist + W_AREA * expansion;
        (p, score)
    });

    let (phys, reused, score) = match (reuse_candidate, fresh_candidate) {
        (Some((p, rs)), Some((_, fs))) if rs <= fs => (p, true, rs),
        (Some((p, rs)), None) => (p, true, rs),
        (_, Some((p, fs))) => (p, false, fs),
        // Pool empty and no fresh qubit: fall back to *any* free slot
        // (one a swap chain carried a |0⟩ into, neither fresh nor
        // pooled); none left means full capacity.
        (None, None) => (machine.nearest_free(center, false)?, false, f64::INFINITY),
    };
    Some(AllocChoice {
        phys,
        reused,
        score,
    })
}

/// Locality-blind allocation of the Eager/Lazy baselines: the most
/// recently pooled qubit (LIFO), else a pseudo-random free cell.
///
/// Prior work's "global pool of identical qubits" carries no geometry
/// (Section III-A): when it maps onto a real lattice, fresh qubits
/// land wherever the pool hands them out. We model that with a
/// deterministic pseudo-random draw (`salt` advances per allocation),
/// which is precisely the locality blindness LAA was designed to fix.
pub fn choose_slot_naive(machine: &Machine, salt: u64) -> Option<AllocChoice> {
    if let Some(&phys) = machine.placement().pooled().last() {
        return Some(AllocChoice {
            phys,
            reused: true,
            score: 0.0,
        });
    }
    let n = machine.qubit_count() as u64;
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for _ in 0..64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let candidate = PhysId(((state >> 33) % n) as u32);
        if machine.placement().is_free(candidate) {
            return Some(AllocChoice {
                phys: candidate,
                reused: false,
                score: 0.0,
            });
        }
    }
    // Dense machine: rejection sampling gave up; linear fallback.
    (0..machine.qubit_count() as u32)
        .map(PhysId)
        .find(|&p| machine.placement().is_free(p))
        .map(|p| AllocChoice {
            phys: p,
            reused: false,
            score: 0.0,
        })
}

fn dist_to(machine: &Machine, p: PhysId, center: (i32, i32)) -> f64 {
    let (x, y) = machine.topo().coord(p);
    ((x - center.0).abs() + (y - center.1).abs()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_arch::GridTopology;
    use square_route::MachineConfig;

    fn machine_5x5() -> Machine {
        Machine::new(Box::new(GridTopology::new(5, 5)), MachineConfig::nisq())
    }

    /// Places `v_i` on each cell in turn, then releases them in the
    /// same order: the reuse pool is exactly `cells`.
    fn pool_cells(m: &mut Machine, first_virt: u32, cells: &[u32]) {
        for (i, &p) in cells.iter().enumerate() {
            m.place_at(VirtId(first_virt + i as u32), PhysId(p))
                .unwrap();
        }
        for i in 0..cells.len() as u32 {
            m.release(VirtId(first_virt + i)).unwrap();
        }
        let pooled: Vec<u32> = m.placement().pooled().iter().map(|p| p.0).collect();
        assert_eq!(pooled, cells);
    }

    #[test]
    fn prefers_nearby_pooled_qubit() {
        let mut m = machine_5x5();
        // Interacting qubit at (2,2) = PhysId 12.
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        // The pool holds a far corner and a neighbor.
        pool_cells(&mut m, 1, &[24, 13]); // (4,4) dist 4, (3,2) dist 1
        let choice = choose_slot(&m, &[VirtId(0)]).unwrap();
        assert_eq!(choice.phys, PhysId(13));
        assert!(choice.reused);
        // Binding the choice takes it out of the pool.
        m.place_at(VirtId(9), choice.phys).unwrap();
        assert_eq!(m.placement().pooled(), &[PhysId(24)]);
    }

    #[test]
    fn prefers_fresh_when_pool_is_far() {
        let mut m = machine_5x5();
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        pool_cells(&mut m, 1, &[24]); // far corner (4,4): dist 4 → score 12
        let choice = choose_slot(&m, &[VirtId(0)]).unwrap();
        // Fresh neighbor at dist 1: 3·1 + 2·√(2/1) ≈ 5.8 < 12.
        assert!(!choice.reused);
        let d = dist_to(&m, choice.phys, (2, 2));
        assert!(d <= 1.0);
        m.place_at(VirtId(9), choice.phys).unwrap();
        assert_eq!(
            m.placement().pooled(),
            &[PhysId(24)],
            "far pooled qubit left pooled"
        );
    }

    #[test]
    fn serialization_penalty_disfavors_busy_reuse() {
        let mut m = machine_5x5();
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        // Make the neighbor slot busy until t=10000 by scheduling work
        // on a qubit placed there, then releasing it into the pool.
        m.place_at(VirtId(1), PhysId(13)).unwrap();
        for _ in 0..10_000 {
            m.apply(&square_qir::Gate::X { target: VirtId(1) }).unwrap();
        }
        m.release(VirtId(1)).unwrap();
        assert_eq!(m.placement().pooled(), &[PhysId(13)]);
        let choice = choose_slot(&m, &[VirtId(0)]).unwrap();
        // Busy neighbor scores 3·1 + 0.05·10000 = 503; fresh ≈ 5.8.
        assert!(!choice.reused, "busy pooled qubit rejected");
    }

    #[test]
    fn ties_keep_the_first_pooled_qubit() {
        let mut m = machine_5x5();
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        // (2,1) and (1,2) are both one hop from the centroid (2,2), and
        // the pool order is the release order.
        pool_cells(&mut m, 1, &[7, 11]);
        assert_eq!(choose_slot(&m, &[VirtId(0)]).unwrap().phys, PhysId(7));
        let mut m = machine_5x5();
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        pool_cells(&mut m, 1, &[11, 7]);
        assert_eq!(choose_slot(&m, &[VirtId(0)]).unwrap().phys, PhysId(11));
    }

    #[test]
    fn naive_is_lifo_then_pool_random() {
        // Empty pool: a pseudo-random free cell, deterministic per salt.
        let m = machine_5x5();
        let c = choose_slot_naive(&m, 1).unwrap();
        assert!(!c.reused && m.placement().is_free(c.phys));
        assert_eq!(choose_slot_naive(&machine_5x5(), 1).unwrap().phys, c.phys);
        // Pooled qubits first, newest first.
        let mut m = machine_5x5();
        pool_cells(&mut m, 0, &[20, 3]);
        let c2 = choose_slot_naive(&m, 2).unwrap();
        assert_eq!(c2.phys, PhysId(3), "newest pooled qubit first");
        assert!(c2.reused);
        m.place_at(VirtId(9), c2.phys).unwrap();
        assert_eq!(choose_slot_naive(&m, 3).unwrap().phys, PhysId(20));
    }

    #[test]
    fn full_machine_yields_none() {
        let mut m = Machine::new(Box::new(GridTopology::new(2, 1)), MachineConfig::nisq());
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(1)).unwrap();
        assert!(choose_slot(&m, &[]).is_none());
        assert!(choose_slot_naive(&m, 7).is_none());
    }
}
