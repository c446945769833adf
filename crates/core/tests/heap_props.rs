//! Property tests for the arena-backed ancilla heap: a byte script
//! drives the heap and a naive reference model (the historical
//! `Vec` + `swap_remove` pool) in lock-step, checking that
//!
//! * pool content and *order* match the model exactly (LAA
//!   tie-breaking depends on scan order, so this is what guarantees
//!   bit-identical compiled circuits);
//! * double releases are always rejected and never corrupt state;
//! * handles never alias across generations: once a slot leaves the
//!   pool, every handle minted for its earlier residency is dead,
//!   even after the same qubit is pushed again;
//! * alloc/release round-trips preserve the free count.

use proptest::prelude::*;
use square_arch::PhysId;
use square_core::{AncillaHeap, HeapError, HeapHandle};

/// Reference model: the historical linear-scan pool.
#[derive(Default)]
struct ModelPool {
    slots: Vec<PhysId>,
}

impl ModelPool {
    fn push(&mut self, p: PhysId) -> bool {
        if self.slots.contains(&p) {
            return false;
        }
        self.slots.push(p);
        true
    }

    fn pop_lifo(&mut self) -> Option<PhysId> {
        self.slots.pop()
    }

    /// Removes the first slot with the minimum score, the way LAA
    /// picks (`peek_best` + `take`).
    fn take_best(&mut self, mut score: impl FnMut(PhysId) -> f64) -> Option<PhysId> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in self.slots.iter().enumerate() {
            let s = score(p);
            if best.is_none_or(|(_, b)| s < b) {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| self.slots.swap_remove(i))
    }

    fn relocate(&mut self, from: PhysId, to: PhysId) {
        if let Some(slot) = self.slots.iter_mut().find(|p| **p == from) {
            *slot = to;
        }
    }
}

const UNIVERSE: u32 = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn heap_matches_reference_model(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()),
            0..300,
        ),
    ) {
        let mut heap = AncillaHeap::with_capacity(8);
        let mut model = ModelPool::default();
        // Every handle ever minted, with whether the model says its
        // residency has ended (it must then be stale).
        let mut minted: Vec<HeapHandle> = Vec::new();
        let mut round_trips = 0u64;

        for (op, x, y) in script {
            match op % 5 {
                // Push (possibly a double release).
                0 => {
                    let p = PhysId(u32::from(x) % UNIVERSE);
                    let model_ok = model.push(p);
                    match heap.try_push(p) {
                        Ok(handle) => {
                            prop_assert!(model_ok, "heap accepted a double release of {p}");
                            minted.push(handle);
                        }
                        Err(e) => {
                            prop_assert!(!model_ok, "heap rejected a legal push: {e}");
                            prop_assert_eq!(e, HeapError::DoubleRelease(p));
                        }
                    }
                }
                // LIFO pop.
                1 => {
                    let got = heap.pop_lifo();
                    prop_assert_eq!(got, model.pop_lifo());
                    if got.is_some() {
                        round_trips += 1;
                    }
                }
                // Scored removal through LAA's path, `peek_best` then
                // `take` (a pseudo-random but deterministic metric;
                // exercises tie-breaking when m is small).
                2 => {
                    let a = u64::from(x) | 1;
                    let m = u64::from(y % 4) + 1;
                    let score = |p: PhysId| ((u64::from(p.0) * a) % m) as f64;
                    let got = heap
                        .peek_best(score)
                        .map(|(handle, _)| heap.take(handle).expect("a fresh handle redeems"));
                    prop_assert_eq!(got, model.take_best(score));
                    if got.is_some() {
                        round_trips += 1;
                    }
                }
                // Redeem an arbitrary previously-minted handle: it
                // must succeed exactly when its slot is still in its
                // original residency (i.e. the model still pools the
                // qubit AND no newer handle exists for it).
                3 => {
                    if minted.is_empty() {
                        continue;
                    }
                    let handle = minted[usize::from(x) % minted.len()];
                    let newest_for_phys = minted
                        .iter()
                        .rfind(|h| h.phys == handle.phys)
                        .copied()
                        .expect("handle exists");
                    let current = model.slots.contains(&handle.phys)
                        && handle == newest_for_phys;
                    match heap.take(handle) {
                        Ok(p) => {
                            prop_assert!(current, "stale handle {handle:?} redeemed");
                            prop_assert_eq!(p, handle.phys);
                            let model_got = model.take_best(
                                |q| if q == p { 0.0 } else { f64::INFINITY },
                            );
                            prop_assert_eq!(model_got, Some(p));
                            round_trips += 1;
                        }
                        Err(e) => {
                            prop_assert!(!current, "live handle {handle:?} rejected: {e}");
                            prop_assert_eq!(e, HeapError::StaleHandle(handle.phys));
                        }
                    }
                }
                // Routing relocation: rename a pooled slot.
                _ => {
                    let from = PhysId(u32::from(x) % UNIVERSE);
                    let to = PhysId(UNIVERSE + (u32::from(y) % UNIVERSE));
                    // Model precondition (mirrors the executor):
                    // relocation targets are cells that are not
                    // pooled; our `to` universe is disjoint unless a
                    // previous relocation moved something there.
                    if model.slots.contains(&to) {
                        continue;
                    }
                    model.relocate(from, to);
                    heap.relocate(from, to);
                }
            }

            // Lock-step invariants after every operation.
            prop_assert_eq!(heap.len(), model.slots.len(), "free count diverged");
            let heap_order: Vec<PhysId> = heap.iter().collect();
            prop_assert_eq!(&heap_order, &model.slots, "pool order diverged");
            for &p in &model.slots {
                prop_assert!(heap.contains(p));
            }
        }
        // Round-trip conservation: every successful removal paired
        // with its push leaves the final free count consistent.
        let pushes = minted.len() as u64;
        prop_assert_eq!(heap.len() as u64 + round_trips, pushes, "alloc/release round-trip lost slots");
    }
}
