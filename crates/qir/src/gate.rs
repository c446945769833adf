//! Classical reversible gates, generic over the qubit naming scheme.
//!
//! The same [`Gate`] type is used at three abstraction levels:
//! `Gate<Operand>` inside module bodies (qubits named relative to the
//! module frame), `Gate<VirtId>` in executed traces (program-wide
//! virtual qubits), and `Gate<PhysId>`-like instantiations after
//! placement. All gates here are their own inverse, which makes
//! uncomputation a purely mechanical transformation.

use std::fmt;

/// A classical reversible logic gate over qubits named by `Q`.
///
/// The gate set is the reversible-arithmetic subset the SQUARE paper
/// operates on: NOT, CNOT, Toffoli, SWAP and the generalized
/// multi-controlled NOT. Every variant is self-inverse.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Gate<Q> {
    /// NOT: flips `target`.
    X {
        /// Qubit to flip.
        target: Q,
    },
    /// Controlled-NOT: flips `target` iff `control` is 1.
    Cx {
        /// Control qubit (read-only).
        control: Q,
        /// Target qubit (written).
        target: Q,
    },
    /// Toffoli: flips `target` iff both controls are 1.
    Ccx {
        /// First control qubit.
        c0: Q,
        /// Second control qubit.
        c1: Q,
        /// Target qubit (written).
        target: Q,
    },
    /// Exchanges the states of the two qubits.
    Swap {
        /// First qubit.
        a: Q,
        /// Second qubit.
        b: Q,
    },
    /// Multi-controlled NOT: flips `target` iff every control is 1.
    ///
    /// `Mcx` with zero controls is `X`; with one, `Cx`; with two, `Ccx`.
    /// Higher control counts are used by logic-synthesis workloads.
    /// `lower_mcx` rewrites every `Mcx` into that lowered set (a k ≥ 3
    /// chain becomes a call) before the back end runs, and the router
    /// rejects any `Mcx` it is handed.
    Mcx {
        /// Control qubits (read-only).
        controls: Vec<Q>,
        /// Target qubit (written).
        target: Q,
    },
}

impl<Q> Gate<Q> {
    /// Number of qubits the gate touches.
    pub fn arity(&self) -> usize {
        match self {
            Gate::X { .. } => 1,
            Gate::Cx { .. } | Gate::Swap { .. } => 2,
            Gate::Ccx { .. } => 3,
            Gate::Mcx { controls, .. } => controls.len() + 1,
        }
    }

    /// Visits every qubit the gate touches, controls first.
    pub fn for_each_qubit(&self, mut f: impl FnMut(&Q)) {
        match self {
            Gate::X { target } => f(target),
            Gate::Cx { control, target } => {
                f(control);
                f(target);
            }
            Gate::Ccx { c0, c1, target } => {
                f(c0);
                f(c1);
                f(target);
            }
            Gate::Swap { a, b } => {
                f(a);
                f(b);
            }
            Gate::Mcx { controls, target } => {
                for c in controls {
                    f(c);
                }
                f(target);
            }
        }
    }

    /// All qubits the gate touches, collected in control-then-target order.
    pub fn qubits(&self) -> Vec<Q>
    where
        Q: Clone,
    {
        let mut v = Vec::with_capacity(self.arity());
        self.for_each_qubit(|q| v.push(q.clone()));
        v
    }

    /// Visits every qubit the gate *writes* (may change state), without
    /// allocating. Controls are excluded.
    pub fn for_each_write(&self, mut f: impl FnMut(&Q)) {
        match self {
            Gate::X { target }
            | Gate::Cx { target, .. }
            | Gate::Ccx { target, .. }
            | Gate::Mcx { target, .. } => f(target),
            Gate::Swap { a, b } => {
                f(a);
                f(b);
            }
        }
    }

    /// Qubits the gate *writes*, collected (see [`Gate::for_each_write`]).
    pub fn written_qubits(&self) -> Vec<Q>
    where
        Q: Clone,
    {
        let mut v = Vec::with_capacity(2);
        self.for_each_write(|q| v.push(q.clone()));
        v
    }

    /// Maps the qubit names through `f`, preserving the gate kind.
    pub fn map<R>(&self, mut f: impl FnMut(&Q) -> R) -> Gate<R> {
        match self {
            Gate::X { target } => Gate::X { target: f(target) },
            Gate::Cx { control, target } => Gate::Cx {
                control: f(control),
                target: f(target),
            },
            Gate::Ccx { c0, c1, target } => Gate::Ccx {
                c0: f(c0),
                c1: f(c1),
                target: f(target),
            },
            Gate::Swap { a, b } => Gate::Swap { a: f(a), b: f(b) },
            Gate::Mcx { controls, target } => Gate::Mcx {
                controls: controls.iter().map(&mut f).collect(),
                target: f(target),
            },
        }
    }

    /// Returns the inverse gate. Every gate in this set is self-inverse,
    /// so this is a clone; it exists to make inversion sites explicit.
    pub fn inverse(&self) -> Gate<Q>
    where
        Q: Clone,
    {
        self.clone()
    }

    /// Standard duration in scheduler cycles: X and CNOT take one,
    /// SWAP is three back-to-back CNOTs, and a Toffoli is its depth in
    /// the standard Clifford+T decomposition. A k ≥ 3 control MCX costs
    /// its `2k − 3` Toffoli V-chain. The one per-gate cost table: the
    /// scheduler, routing swaps and the MBU price all read it, and it
    /// depends only on the gate shape, so virtual and physical gates
    /// agree.
    pub fn duration(&self) -> u64 {
        match self {
            Gate::X { .. } => 1,
            Gate::Cx { .. } => 1,
            Gate::Swap { .. } => 3,
            Gate::Ccx { .. } => 6,
            Gate::Mcx { controls, .. } => match controls.len() {
                0 | 1 => 1,
                2 => 6,
                n => 6 * (2 * n as u64 - 3),
            },
        }
    }
}

impl<Q: Copy> Gate<Q>
where
    usize: From<Q>,
{
    /// Applies the gate's boolean semantics to a computational-basis
    /// state, indexing `bits` by each operand's dense id.
    ///
    /// This is the one gate-on-bits rule in the repository: the
    /// reference semantics, the virtual and physical replays and the
    /// trajectory simulator all evaluate gates through it. Their
    /// independence as oracles comes from replaying different artifacts
    /// (the program vs. the compiler's routed output), not from
    /// re-implementing this rule.
    pub fn apply_bits(&self, bits: &mut [bool]) {
        let at = |q: &Q| usize::from(*q);
        match self {
            Gate::X { target } => bits[at(target)] ^= true,
            Gate::Cx { control, target } => bits[at(target)] ^= bits[at(control)],
            Gate::Ccx { c0, c1, target } => bits[at(target)] ^= bits[at(c0)] && bits[at(c1)],
            Gate::Swap { a, b } => bits.swap(at(a), at(b)),
            Gate::Mcx { controls, target } => {
                bits[at(target)] ^= controls.iter().all(|c| bits[at(c)]);
            }
        }
    }
}

impl<Q: Eq> Gate<Q> {
    /// True if any qubit appears more than once in the operand list.
    pub fn has_duplicate_operand(&self) -> bool
    where
        Q: Clone,
    {
        let qs = self.qubits();
        for (i, a) in qs.iter().enumerate() {
            for b in &qs[i + 1..] {
                if a == b {
                    return true;
                }
            }
        }
        false
    }
}

impl<Q: fmt::Display> fmt::Display for Gate<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::X { target } => write!(f, "X {target}"),
            Gate::Cx { control, target } => write!(f, "CNOT {control} {target}"),
            Gate::Ccx { c0, c1, target } => write!(f, "Toffoli {c0} {c1} {target}"),
            Gate::Swap { a, b } => write!(f, "SWAP {a} {b}"),
            Gate::Mcx { controls, target } => {
                write!(f, "MCX")?;
                for c in controls {
                    write!(f, " {c}")?;
                }
                write!(f, " {target}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_qubits_len() {
        let g: Gate<u32> = Gate::Ccx {
            c0: 0,
            c1: 1,
            target: 2,
        };
        assert_eq!(g.arity(), 3);
        assert_eq!(g.qubits(), vec![0, 1, 2]);
    }

    #[test]
    fn written_qubits_excludes_controls() {
        let g: Gate<u32> = Gate::Cx {
            control: 4,
            target: 7,
        };
        assert_eq!(g.written_qubits(), vec![7]);
        let s: Gate<u32> = Gate::Swap { a: 1, b: 2 };
        assert_eq!(s.written_qubits(), vec![1, 2]);
    }

    #[test]
    fn map_renames_all_operands() {
        let g: Gate<u32> = Gate::Mcx {
            controls: vec![0, 1, 2],
            target: 3,
        };
        let h = g.map(|q| q * 10);
        assert_eq!(
            h,
            Gate::Mcx {
                controls: vec![0, 10, 20],
                target: 30
            }
        );
    }

    #[test]
    fn self_inverse() {
        let g: Gate<u32> = Gate::Swap { a: 5, b: 6 };
        assert_eq!(g.inverse(), g);
    }

    #[test]
    fn duplicate_detection() {
        let bad: Gate<u32> = Gate::Cx {
            control: 3,
            target: 3,
        };
        assert!(bad.has_duplicate_operand());
        let ok: Gate<u32> = Gate::Cx {
            control: 3,
            target: 4,
        };
        assert!(!ok.has_duplicate_operand());
    }

    #[test]
    fn durations() {
        assert_eq!(Gate::X { target: 0u32 }.duration(), 1);
        assert_eq!(Gate::Swap { a: 0u32, b: 1 }.duration(), 3);
        assert_eq!(
            Gate::Ccx {
                c0: 0u32,
                c1: 1,
                target: 2
            }
            .duration(),
            6
        );
    }

    /// Operand slots for the truth tables: unsorted and non-contiguous
    /// inside a `WIDTH`-bit state.
    const SLOTS: [u32; 5] = [11, 3, 14, 6, 0];
    const WIDTH: usize = 16;
    /// Values of the non-operand bits (and its complement), which every
    /// gate must leave untouched.
    const BACKGROUND: u32 = 0b1010_0110_1100_1011;

    /// Every gate variant over the first operands in `SLOTS`, `Mcx`
    /// with 0..=4 controls.
    fn truth_table_gates<Q: Copy>(id: impl Fn(u32) -> Q) -> Vec<Gate<Q>> {
        let q = |k: usize| id(SLOTS[k]);
        let mut gates = vec![
            Gate::X { target: q(0) },
            Gate::Cx {
                control: q(0),
                target: q(1),
            },
            Gate::Ccx {
                c0: q(0),
                c1: q(1),
                target: q(2),
            },
            Gate::Swap { a: q(0), b: q(1) },
        ];
        gates.extend((0..=4).map(|k| Gate::Mcx {
            controls: (0..k).map(q).collect(),
            target: q(k),
        }));
        gates
    }

    /// The gate's effect on the operand word `x` (bit `k` holds the
    /// `k`-th operand in control-then-target order), as an integer
    /// formula.
    fn expected_word<Q>(gate: &Gate<Q>, x: u32) -> u32 {
        match gate {
            Gate::X { .. } => x ^ 1,
            Gate::Cx { .. } => x ^ ((x & 1) << 1),
            Gate::Ccx { .. } => x ^ (u32::from(x & 0b11 == 0b11) << 2),
            Gate::Swap { .. } => (x >> 1) | ((x & 1) << 1),
            Gate::Mcx { controls, .. } => {
                let k = controls.len();
                let mask = (1u32 << k) - 1;
                x ^ (u32::from(x & mask == mask) << k)
            }
        }
    }

    /// Runs every gate of [`truth_table_gates`] on every assignment of
    /// its operands, over both background patterns. Operand positions
    /// in the state come from `usize::from`, so an id type whose dense
    /// index differs from its raw value is checked too.
    fn check_truth_table<Q: Copy + fmt::Debug>(id: fn(u32) -> Q)
    where
        usize: From<Q>,
    {
        let bit = |word: u32, i: usize| (word >> i) & 1 == 1;
        for gate in truth_table_gates(id) {
            let operands: Vec<usize> = SLOTS[..gate.arity()]
                .iter()
                .map(|&s| usize::from(id(s)))
                .collect();
            for background in [BACKGROUND, !BACKGROUND] {
                for x in 0..1u32 << operands.len() {
                    let mut bits: Vec<bool> = (0..WIDTH).map(|i| bit(background, i)).collect();
                    for (k, &i) in operands.iter().enumerate() {
                        bits[i] = bit(x, k);
                    }
                    gate.apply_bits(&mut bits);
                    let word = operands
                        .iter()
                        .enumerate()
                        .fold(0, |w, (k, &i)| w | (u32::from(bits[i]) << k));
                    assert_eq!(word, expected_word(&gate, x), "{gate:?} on {x:b}");
                    for i in (0..WIDTH).filter(|i| !operands.contains(i)) {
                        assert_eq!(bits[i], bit(background, i), "{gate:?} wrote bit {i}");
                    }
                }
            }
        }
    }

    /// A test-local id whose dense index mirrors its raw value inside
    /// the `WIDTH`-bit state.
    #[derive(Debug, Clone, Copy)]
    struct Mirrored(u32);

    impl From<Mirrored> for usize {
        fn from(m: Mirrored) -> usize {
            WIDTH - 1 - m.0 as usize
        }
    }

    #[test]
    fn apply_bits_truth_table_on_virtual_ids() {
        check_truth_table(crate::trace::VirtId);
    }

    #[test]
    fn apply_bits_truth_table_indexes_through_usize_from() {
        check_truth_table(Mirrored);
    }

    #[test]
    fn display_formats() {
        let g: Gate<u32> = Gate::Ccx {
            c0: 1,
            c1: 2,
            target: 3,
        };
        assert_eq!(g.to_string(), "Toffoli 1 2 3");
    }
}
