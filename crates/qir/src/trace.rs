//! Executed instruction traces and mechanical uncomputation.
//!
//! The instrumentation-driven compilation of the SQUARE paper executes
//! the program's (fully known) control flow at compile time, producing
//! a flat stream of allocation, gate, and free events over *virtual*
//! qubits. Uncomputing a compute block is a purely mechanical
//! transformation of the recorded trace slice: replay it in reverse,
//! inverting each gate (all gates in this IR are self-inverse), turning
//! `Alloc` into `Free` and `Free` into a fresh `Alloc`.
//!
//! This single transformation yields both phenomena the paper studies:
//!
//! * **Recursive recomputation** (Eager): a child that reclaimed its
//!   ancilla has `Alloc … gates … Free` inside the parent's compute
//!   slice; the inverse slice *re-allocates and re-runs* the child —
//!   the `2^ℓ` blowup of Section III.
//! * **Qubit reservation sweep** (Lazy): a child that kept garbage has
//!   an `Alloc` with no matching `Free` in the slice; the inverse slice
//!   ends the garbage's life with a `Free` — the ancestor's uncompute
//!   cleans it up.

use crate::gate::Gate;
use std::collections::HashMap;
use std::fmt;

/// A program-wide virtual qubit id, unique per allocation event.
///
/// Virtual ids are never reused: re-allocating a reclaimed physical
/// qubit mints a fresh `VirtId`. This keeps trace inversion and
/// liveness bookkeeping unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtId(pub u32);

impl VirtId {
    /// Raw index (dense, allocation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<VirtId> for usize {
    fn from(v: VirtId) -> usize {
        v.index()
    }
}

impl fmt::Display for VirtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A program-wide classical bit id, unique per measurement site.
///
/// Like [`VirtId`]s, classical-bit ids are never reused: every frame
/// activation mints fresh ids for its module-local classical bits, so
/// a recursive module's measurement outcomes stay distinguishable in
/// the trace and in validator diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClbitId(pub u32);

impl ClbitId {
    /// Raw index (dense, mint order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClbitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The classical side channel: the value each measured classical bit
/// holds, dense by [`ClbitId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clbits(Vec<Option<bool>>);

impl Clbits {
    /// An empty side channel (no bit measured yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a measurement outcome into `clbit`.
    pub fn record(&mut self, clbit: ClbitId, value: bool) {
        let i = clbit.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(value);
    }

    /// The bit's value, or `None` if no measurement wrote it.
    pub fn get(&self, clbit: ClbitId) -> Option<bool> {
        self.0.get(clbit.index()).copied().flatten()
    }

    /// The lowest classical bit whose value (or absence) differs
    /// between the two side channels.
    pub fn first_difference(&self, other: &Clbits) -> Option<ClbitId> {
        let bound = self.0.len().max(other.0.len()) as u32;
        (0..bound)
            .map(ClbitId)
            .find(|&c| self.get(c) != other.get(c))
    }
}

/// One event in an executed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// A fresh virtual qubit comes alive in state |0⟩.
    Alloc(VirtId),
    /// The virtual qubit is reclaimed (must be |0⟩ for non-garbage
    /// frees; checked by the reference semantics).
    Free(VirtId),
    /// A gate over live virtual qubits.
    Gate(Gate<VirtId>),
    /// A mid-circuit computational-basis measurement: the qubit's
    /// current value is recorded into `clbit`. In this IR's
    /// basis-state model measurement is non-destructive — the qubit
    /// keeps its value (the boolean analog of the X-basis
    /// measure-and-fix-up of measurement-based uncomputation).
    Measure {
        /// Qubit being read.
        qubit: VirtId,
        /// Classical bit receiving the outcome.
        clbit: ClbitId,
    },
    /// A classically controlled gate: `gate` fires iff `clbit` holds 1.
    CondGate {
        /// Classical guard bit (must have been measured).
        clbit: ClbitId,
        /// The guarded gate.
        gate: Gate<VirtId>,
    },
}

impl TraceOp {
    /// True for gate events. Measurements and classically controlled
    /// gates count: both occupy their cell for a cycle, so every gate
    /// counter (trace, semantics, executor) treats them as gates.
    pub fn is_gate(&self) -> bool {
        matches!(
            self,
            TraceOp::Gate(_) | TraceOp::Measure { .. } | TraceOp::CondGate { .. }
        )
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOp::Alloc(v) => write!(f, "alloc {v}"),
            TraceOp::Free(v) => write!(f, "free {v}"),
            TraceOp::Gate(g) => write!(f, "{g}"),
            TraceOp::Measure { qubit, clbit } => write!(f, "measure {qubit} {clbit}"),
            TraceOp::CondGate { clbit, gate } => write!(f, "cond {clbit} {gate}"),
        }
    }
}

/// Mechanically inverts a trace slice.
///
/// `fresh` mints virtual ids for qubits that the inverse slice must
/// re-allocate (those that were freed inside the original slice). Ids
/// allocated *outside* the slice (live-through qubits and garbage from
/// non-reclaimed children) keep their identity, so the inverse acts on
/// the same live qubits.
///
/// Replaying `slice` followed by `invert_slice(slice, …)` on any state
/// restores that state (see the property tests in this module and in
/// `sem`).
pub fn invert_slice(slice: &[TraceOp], fresh: impl FnMut() -> VirtId) -> Vec<TraceOp> {
    let mut out = Vec::new();
    invert_slice_into(slice, &mut out, fresh);
    out
}

/// [`invert_slice`] writing into a caller-owned buffer.
///
/// `out` is cleared first; its capacity is reused, which lets a
/// compile loop invert one frame slice per reclamation without
/// allocating a fresh vector each time.
pub fn invert_slice_into(
    slice: &[TraceOp],
    out: &mut Vec<TraceOp>,
    mut fresh: impl FnMut() -> VirtId,
) {
    out.clear();
    out.reserve(slice.len());
    let mut remap: HashMap<VirtId, VirtId> = HashMap::new();
    for op in slice.iter().rev() {
        match op {
            TraceOp::Free(v) => {
                let nv = fresh();
                remap.insert(*v, nv);
                out.push(TraceOp::Alloc(nv));
            }
            TraceOp::Alloc(v) => {
                let mapped = remap.get(v).copied().unwrap_or(*v);
                out.push(TraceOp::Free(mapped));
            }
            TraceOp::Gate(g) => {
                let inv = g.inverse().map(|q| remap.get(q).copied().unwrap_or(*q));
                out.push(TraceOp::Gate(inv));
            }
            // Measurement is idempotent on basis states: re-measuring
            // at the replay point reads the same value into the same
            // classical bit, so the inverse of a measurement is the
            // measurement itself (qubit remapped, clbit kept).
            TraceOp::Measure { qubit, clbit } => {
                let qubit = remap.get(qubit).copied().unwrap_or(*qubit);
                out.push(TraceOp::Measure {
                    qubit,
                    clbit: *clbit,
                });
            }
            // A guarded gate inverts to the same guard over the
            // inverted gate: the clbit's value is unchanged between
            // forward pass and sweep (classical bits are write-once per
            // measurement site), so the guard fires iff it fired
            // forward, undoing exactly what was done.
            TraceOp::CondGate { clbit, gate } => {
                let inv = gate.inverse().map(|q| remap.get(q).copied().unwrap_or(*q));
                out.push(TraceOp::CondGate {
                    clbit: *clbit,
                    gate: inv,
                });
            }
        }
    }
}

/// Counts the gate events in a trace slice (allocation bookkeeping
/// events are free at runtime and excluded from gate costs).
pub fn gate_count(slice: &[TraceOp]) -> u64 {
    slice.iter().filter(|op| op.is_gate()).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::sem::{replay, BitState};

    /// Replays `parts` in order after allocating qubits
    /// `0..values.len()` with `values`, panicking on any hygiene fault
    /// (double alloc, use after free, dirty free, unmeasured guard).
    fn run(values: &[bool], parts: &[&[TraceOp]]) -> BitState {
        let ids = (0..values.len() as u32).map(VirtId);
        let mut trace: Vec<TraceOp> = ids.clone().map(TraceOp::Alloc).collect();
        for (target, _) in ids.zip(values).filter(|(_, &value)| value) {
            trace.push(TraceOp::Gate(Gate::X { target }));
        }
        trace.extend(parts.iter().flat_map(|part| part.iter().cloned()));
        replay(&trace, &[])
            .unwrap_or_else(|fault| panic!("trace replay: {fault}"))
            .1
    }

    #[test]
    fn inverse_restores_state_including_inner_alloc_free() {
        // Slice: alloc q2; CX q0->q2; CCX q0,q2->q1; CX q0->q2; free q2
        // (an "eager child" that allocates, computes, reclaims).
        let q0 = VirtId(0);
        let q1 = VirtId(1);
        let q2 = VirtId(2);
        let slice = vec![
            TraceOp::Alloc(q2),
            TraceOp::Gate(Gate::Cx {
                control: q0,
                target: q2,
            }),
            TraceOp::Gate(Gate::Ccx {
                c0: q0,
                c1: q2,
                target: q1,
            }),
            TraceOp::Gate(Gate::Cx {
                control: q0,
                target: q2,
            }),
            TraceOp::Free(q2),
        ];
        let mut next = 3u32;
        let inv = invert_slice(&slice, || {
            let v = VirtId(next);
            next += 1;
            v
        });
        // Inverse must re-allocate a fresh qubit where the free was.
        assert!(matches!(inv[0], TraceOp::Alloc(VirtId(3))));
        assert!(matches!(inv[4], TraceOp::Free(VirtId(3))));

        let forward = run(&[true, false], &[&slice]);
        assert!(forward.get(q1), "CCX fired: q2 held q0's value");
        let state = run(&[true, false], &[&slice, &inv]);
        assert!(state.get(q0));
        assert!(!state.get(q1), "inverse undid the compute");
        assert!(
            !state.is_live(q2) && !state.is_live(VirtId(3)),
            "no leaked allocations"
        );
    }

    #[test]
    fn inverse_frees_unmatched_garbage_alloc() {
        // Slice: alloc q1; CX q0->q1  (a "lazy child" leaving garbage).
        let q0 = VirtId(0);
        let q1 = VirtId(1);
        let slice = vec![
            TraceOp::Alloc(q1),
            TraceOp::Gate(Gate::Cx {
                control: q0,
                target: q1,
            }),
        ];
        let inv = invert_slice(&slice, || unreachable!("no frees in slice"));
        assert_eq!(
            inv,
            vec![
                TraceOp::Gate(Gate::Cx {
                    control: q0,
                    target: q1
                }),
                TraceOp::Free(q1),
            ]
        );

        assert!(run(&[true], &[&slice]).get(q1), "garbage holds a copy");
        let state = run(&[true], &[&slice, &inv]);
        assert!(!state.is_live(q1), "garbage swept by ancestor");
        assert!(state.get(q0));
    }

    #[test]
    fn double_inversion_has_same_shape() {
        let q0 = VirtId(0);
        let slice = vec![
            TraceOp::Alloc(VirtId(1)),
            TraceOp::Gate(Gate::Cx {
                control: q0,
                target: VirtId(1),
            }),
            TraceOp::Free(VirtId(1)),
        ];
        let mut next = 10u32;
        let mut fresh = || {
            let v = VirtId(next);
            next += 1;
            v
        };
        let inv = invert_slice(&slice, &mut fresh);
        let inv2 = invert_slice(&inv, &mut fresh);
        assert_eq!(inv2.len(), slice.len());
        assert_eq!(gate_count(&inv2), gate_count(&slice));
    }

    #[test]
    fn gate_count_ignores_bookkeeping() {
        let slice = vec![
            TraceOp::Alloc(VirtId(0)),
            TraceOp::Gate(Gate::X { target: VirtId(0) }),
            TraceOp::Free(VirtId(0)),
        ];
        assert_eq!(gate_count(&slice), 1);
    }

    #[test]
    fn gate_count_includes_measure_and_cond() {
        let slice = vec![
            TraceOp::Alloc(VirtId(0)),
            TraceOp::Measure {
                qubit: VirtId(0),
                clbit: ClbitId(0),
            },
            TraceOp::CondGate {
                clbit: ClbitId(0),
                gate: Gate::X { target: VirtId(0) },
            },
            TraceOp::Free(VirtId(0)),
        ];
        assert_eq!(gate_count(&slice), 2);
    }

    #[test]
    fn measure_and_correct_resets_ancilla_and_survives_inversion() {
        // The MBU reclaim sequence on a dirty ancilla: measure into a
        // clbit, conditionally flip. The ancilla ends |0⟩ regardless of
        // its value, and the mechanical inverse of the sequence (same
        // clbit, re-measure + same guard) is a no-op on the restored
        // state — replaying slice + inverse round-trips.
        let a = VirtId(0);
        let c = ClbitId(0);
        let slice = vec![
            TraceOp::Measure { qubit: a, clbit: c },
            TraceOp::CondGate {
                clbit: c,
                gate: Gate::X { target: a },
            },
        ];
        for dirty in [false, true] {
            let end = run(&[dirty], &[&slice]);
            assert!(!end.get(a), "ancilla reset (dirty={dirty})");
            assert_eq!(end.clbits().get(c), Some(dirty), "outcome recorded");
        }
        let inv = invert_slice(&slice, || unreachable!("no frees"));
        assert_eq!(
            inv,
            vec![
                TraceOp::CondGate {
                    clbit: c,
                    gate: Gate::X { target: a },
                },
                TraceOp::Measure { qubit: a, clbit: c },
            ]
        );
        assert!(inv.iter().all(|op| op.is_gate()));
    }
}
