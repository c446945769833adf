//! Locality-Aware Allocation (Algorithm 1 of the paper).
//!
//! For each requested ancilla, two candidates are scored — the best
//! qubit in the reclaimed-ancilla heap and the nearest brand-new qubit
//! — and the cheaper one wins. Scores balance the paper's three
//! considerations (Section III-A1):
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

use square_arch::PhysId;
use square_qir::VirtId;
use square_route::Machine;

use crate::heap::AncillaHeap;

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
    /// Whether it came from the heap (reuse) or is brand new.
    pub reused: bool,
    /// The winning score (cycles-equivalent; for diagnostics).
    pub score: f64,
}

/// Picks the physical slot for one new ancilla under LAA.
///
/// Returns `None` when the machine is completely full (no heap qubits
/// and no free fresh slot) — the caller then reports capacity
/// exhaustion or forces reclamation.
pub fn choose_slot(
    machine: &Machine,
    heap: &mut AncillaHeap,
    interact: &[VirtId],
) -> Option<AllocChoice> {
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

    // Candidate 1: best heap qubit (communication + serialization).
    let heap_candidate = heap.peek_best(|p| {
        let dist = dist_to(machine, p, center);
        let wait = machine.clock().avail(p).saturating_sub(ready_ref) as f64;
        W_COMM * dist + W_SERIAL * wait
    });

    // Candidate 2: nearest never-used qubit (communication + area).
    let fresh_candidate = machine.nearest_free(center, true).map(|p| {
        let dist = dist_to(machine, p, center);
        let n_active = machine.placement().active_count().max(1) as f64;
        let expansion = ((n_active + 1.0) / n_active).sqrt();
        let score = W_COMM * dist + W_AREA * expansion;
        (p, score)
    });

    match (heap_candidate, fresh_candidate) {
        (Some((handle, hs)), Some((fp, fs))) => {
            if hs <= fs {
                let phys = heap.take(handle).expect("handle minted this decision");
                Some(AllocChoice {
                    phys,
                    reused: true,
                    score: hs,
                })
            } else {
                Some(AllocChoice {
                    phys: fp,
                    reused: false,
                    score: fs,
                })
            }
        }
        (Some((handle, hs)), None) => {
            let phys = heap.take(handle).expect("handle minted this decision");
            Some(AllocChoice {
                phys,
                reused: true,
                score: hs,
            })
        }
        (None, Some((fp, fs))) => Some(AllocChoice {
            phys: fp,
            reused: false,
            score: fs,
        }),
        // Heap empty and no fresh qubit: fall back to *any* free slot
        // (a previously used, freed one outside the heap cannot exist —
        // every freed slot enters the heap — so this is full capacity).
        (None, None) => machine.nearest_free(center, false).map(|p| AllocChoice {
            phys: p,
            reused: false,
            score: f64::INFINITY,
        }),
    }
}

/// Locality-blind allocation of the Eager/Lazy baselines: LIFO heap
/// pop, else a pseudo-random free cell.
///
/// Prior work's "global pool of identical qubits" carries no geometry
/// (Section III-A): when it maps onto a real lattice, fresh qubits
/// land wherever the pool hands them out. We model that with a
/// deterministic pseudo-random draw (`salt` advances per allocation),
/// which is precisely the locality blindness LAA was designed to fix.
pub fn choose_slot_naive(
    machine: &Machine,
    heap: &mut AncillaHeap,
    salt: u64,
) -> Option<AllocChoice> {
    if let Some(p) = heap.pop_lifo() {
        return Some(AllocChoice {
            phys: p,
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

    #[test]
    fn prefers_nearby_heap_qubit() {
        let mut m = machine_5x5();
        let mut heap = AncillaHeap::new();
        // Interacting qubit at (2,2) = PhysId 12.
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        // Heap holds a neighbor and a far corner.
        heap.push(PhysId(24)); // (4,4), dist 4
        heap.push(PhysId(13)); // (3,2), dist 1
        let choice = choose_slot(&m, &mut heap, &[VirtId(0)]).unwrap();
        assert_eq!(choice.phys, PhysId(13));
        assert!(choice.reused);
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn prefers_fresh_when_heap_is_far() {
        let mut m = machine_5x5();
        let mut heap = AncillaHeap::new();
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        heap.push(PhysId(24)); // far corner (4,4): dist 4 → score 12
        let choice = choose_slot(&m, &mut heap, &[VirtId(0)]).unwrap();
        // Fresh neighbor at dist 1: 3·1 + 2·√(2/1) ≈ 5.8 < 12.
        assert!(!choice.reused);
        assert_eq!(heap.len(), 1, "far heap qubit left pooled");
        let d = dist_to(&m, choice.phys, (2, 2));
        assert!(d <= 1.0);
    }

    #[test]
    fn serialization_penalty_disfavors_busy_reuse() {
        let mut m = machine_5x5();
        let mut heap = AncillaHeap::new();
        m.place_at(VirtId(0), PhysId(12)).unwrap();
        // Make the neighbor slot busy until t=10000 by scheduling work
        // on a qubit placed there, then releasing it into the heap.
        m.place_at(VirtId(1), PhysId(13)).unwrap();
        for _ in 0..10_000 {
            m.apply(&square_qir::Gate::X { target: VirtId(1) }).unwrap();
        }
        m.release(VirtId(1)).unwrap();
        heap.push(PhysId(13));
        let choice = choose_slot(&m, &mut heap, &[VirtId(0)]).unwrap();
        // Busy neighbor scores 3·1 + 0.05·10000 = 503; fresh ≈ 5.8.
        assert!(!choice.reused, "busy heap qubit rejected");
    }

    #[test]
    fn naive_is_lifo_then_pool_random() {
        let mut m = machine_5x5();
        let mut heap = AncillaHeap::new();
        let c = choose_slot_naive(&m, &mut heap, 1).unwrap();
        assert!(m.placement().is_free(c.phys));
        m.place_at(VirtId(0), c.phys).unwrap();
        heap.push(PhysId(20));
        let c2 = choose_slot_naive(&m, &mut heap, 2).unwrap();
        assert_eq!(c2.phys, PhysId(20), "heap first");
        assert!(c2.reused);
        // Deterministic per salt.
        let mut m2 = machine_5x5();
        let mut h2 = AncillaHeap::new();
        let c3 = choose_slot_naive(&m2, &mut h2, 1).unwrap();
        assert_eq!(c3.phys, c.phys);
        let _ = &mut m2;
    }

    #[test]
    fn full_machine_yields_none() {
        let mut m = Machine::new(Box::new(GridTopology::new(2, 1)), MachineConfig::nisq());
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(1)).unwrap();
        let mut heap = AncillaHeap::new();
        assert!(choose_slot(&m, &mut heap, &[]).is_none());
        assert!(choose_slot_naive(&m, &mut heap, 7).is_none());
    }
}
