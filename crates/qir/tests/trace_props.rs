//! Property tests for the mechanical-uncomputation core: for arbitrary
//! generated traces, replaying `invert_slice` of a slice undoes it
//! exactly — including nested alloc/free structure — and the inverse
//! of the inverse has the same cost.

use proptest::prelude::*;
use square_qir::sem::replay;
use square_qir::{invert_slice, ClbitId, Gate, TraceOp, VirtId};

/// Generates a structurally valid trace over `ext` pre-existing qubits
/// (ids 0..ext) plus nested alloc/gate/free activity, from a byte
/// script. Allocated-inside ids start at `ext`.
fn trace_from_script(ext: u32, script: &[u8]) -> Vec<TraceOp> {
    let mut live: Vec<VirtId> = (0..ext).map(VirtId).collect();
    let mut inner: Vec<VirtId> = Vec::new(); // allocated in-slice, still clean
    let mut dirty: Vec<VirtId> = Vec::new(); // allocated in-slice, gated since
    let mut next = ext;
    let mut next_clbit = 0u32;
    let mut ops = Vec::new();
    for chunk in script.chunks(4) {
        let (a, b, c, d) = (
            chunk[0],
            chunk.get(1).copied().unwrap_or(1),
            chunk.get(2).copied().unwrap_or(2),
            chunk.get(3).copied().unwrap_or(3),
        );
        match a % 5 {
            0 => {
                let v = VirtId(next);
                next += 1;
                inner.push(v);
                live.push(v);
                ops.push(TraceOp::Alloc(v));
            }
            1 if b % 2 == 0 && !inner.is_empty() => {
                // Unitary free of an in-slice qubit. It must be |0⟩ at
                // runtime, so emit a self-cancelling pair first (net
                // zero) and free only qubits we allocated and never
                // gated.
                let v = inner.pop().unwrap();
                live.retain(|q| *q != v);
                ops.push(TraceOp::Gate(Gate::X { target: v }));
                ops.push(TraceOp::Gate(Gate::X { target: v }));
                ops.push(TraceOp::Free(v));
            }
            1 if !dirty.is_empty() || !inner.is_empty() => {
                // Measurement-based free: measure-and-correct resets
                // the qubit to |0⟩ whatever its value, so *dirty*
                // in-slice qubits can be reclaimed too — the whole
                // point of MBU.
                let v = dirty.pop().unwrap_or_else(|| inner.pop().unwrap());
                live.retain(|q| *q != v);
                let clbit = ClbitId(next_clbit);
                next_clbit += 1;
                ops.push(TraceOp::Measure { qubit: v, clbit });
                ops.push(TraceOp::CondGate {
                    clbit,
                    gate: Gate::X { target: v },
                });
                ops.push(TraceOp::Free(v));
            }
            _ if live.len() >= 3 => {
                let q0 = live[b as usize % live.len()];
                let q1 = live[c as usize % live.len()];
                let q2 = live[d as usize % live.len()];
                // A gated in-slice qubit may become dirty; it can no
                // longer be freed unitarily (a dirty free is an
                // irreversible discard, which the real executors
                // forbid) — it moves to the MBU-reclaimable pool.
                for q in [q0, q1, q2] {
                    if inner.contains(&q) {
                        inner.retain(|i| *i != q);
                        dirty.push(q);
                    }
                }
                if q0 != q1 && q1 != q2 && q0 != q2 {
                    match a % 3 {
                        0 => ops.push(TraceOp::Gate(Gate::X { target: q0 })),
                        1 => ops.push(TraceOp::Gate(Gate::Cx {
                            control: q0,
                            target: q1,
                        })),
                        _ => ops.push(TraceOp::Gate(Gate::Ccx {
                            c0: q0,
                            c1: q1,
                            target: q2,
                        })),
                    }
                }
            }
            _ => {}
        }
    }
    ops
}

proptest! {
    /// slice ⨟ invert(slice) restores every pre-existing qubit and
    /// leaves no leaked allocations.
    #[test]
    fn inversion_restores_state(
        ext in 3u32..8,
        script in proptest::collection::vec(any::<u8>(), 0..200),
        seed_bits in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let slice = trace_from_script(ext, &script);
        let mut next = 10_000u32;
        let inv = invert_slice(&slice, || {
            let v = VirtId(next);
            next += 1;
            v
        });
        let external: Vec<VirtId> = (0..ext).map(VirtId).collect();
        let before: Vec<bool> = (0..ext as usize)
            .map(|i| seed_bits[i % seed_bits.len()])
            .collect();
        // Prepare the external qubits, then replay slice ⨟ inverse in
        // one trace: the classical side channel persists across the
        // inverse, so the inverted CondGate replays against the outcome
        // recorded by the forward Measure.
        let mut trace: Vec<TraceOp> = external.iter().copied().map(TraceOp::Alloc).collect();
        for (&target, _) in external.iter().zip(&before).filter(|(_, &value)| value) {
            trace.push(TraceOp::Gate(Gate::X { target }));
        }
        trace.extend(slice.iter().chain(&inv).cloned());
        // Any hygiene fault fails the case; reading the register also
        // checks that every external qubit is still live.
        let (after, end) = replay(&trace, &external)
            .unwrap_or_else(|fault| panic!("trace replay: {fault}"));
        prop_assert_eq!(after, before, "external qubits changed");
        let leaked = slice.iter().chain(&inv).find_map(|op| match op {
            TraceOp::Alloc(v) if end.is_live(*v) => Some(*v),
            _ => None,
        });
        prop_assert_eq!(leaked, None, "leaked allocation");
    }

    /// Inversion preserves gate count and swaps alloc/free counts.
    #[test]
    fn inversion_preserves_costs(
        ext in 3u32..8,
        script in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let slice = trace_from_script(ext, &script);
        let mut next = 20_000u32;
        let inv = invert_slice(&slice, || {
            let v = VirtId(next);
            next += 1;
            v
        });
        let count = |ops: &[TraceOp]| {
            let mut g = 0u64;
            let mut a = 0u64;
            let mut f = 0u64;
            for op in ops {
                match op {
                    TraceOp::Gate(_) | TraceOp::Measure { .. } | TraceOp::CondGate { .. } => g += 1,
                    TraceOp::Alloc(_) => a += 1,
                    TraceOp::Free(_) => f += 1,
                }
            }
            (g, a, f)
        };
        let (g1, a1, f1) = count(&slice);
        let (g2, a2, f2) = count(&inv);
        prop_assert_eq!(g1, g2, "gate counts differ");
        prop_assert_eq!(a1, f2, "allocs must become frees");
        prop_assert_eq!(f1, a2, "frees must become allocs");
    }
}
