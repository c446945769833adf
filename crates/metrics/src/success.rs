//! Worst-case analytical program success rate (Fig. 8b).
//!
//! The paper estimates success by "multiplying the single-qubit /
//! two-qubit gate success rates and the probability of qubit
//! coherence" (Section V-C2). We do the same: every elementary gate
//! succeeds independently, and every live qubit-cycle of exposure
//! (i.e. the active quantum volume) decays against T1.

use square_arch::NoiseParams;
use square_qir::Gate;

/// Tally of elementary gate counts for error accounting. Composite
/// gates decompose: SWAP = 3 CNOTs; Toffoli = 6 CNOTs + 9 single-qubit
/// gates (standard Clifford+T network).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateTally {
    /// Elementary single-qubit gates.
    pub one_qubit: u64,
    /// Elementary two-qubit gates.
    pub two_qubit: u64,
}

impl GateTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one IR gate's elementary decomposition to the tally.
    pub fn add_gate<Q>(&mut self, gate: &Gate<Q>) {
        match gate {
            Gate::X { .. } => self.one_qubit += 1,
            Gate::Cx { .. } => self.two_qubit += 1,
            Gate::Swap { .. } => self.two_qubit += 3,
            Gate::Ccx { .. } => {
                self.two_qubit += 6;
                self.one_qubit += 9;
            }
            Gate::Mcx { controls, .. } => match controls.len() {
                0 => self.one_qubit += 1,
                1 => self.two_qubit += 1,
                n => {
                    let toffolis = 2 * n as u64 - 3;
                    self.two_qubit += 6 * toffolis;
                    self.one_qubit += 9 * toffolis;
                }
            },
        }
    }
}

/// Worst-case success probability of a program run:
/// `(1−p1)^n1 · (1−p2)^n2 · exp(−AQV·t_cycle/T1)`.
///
/// `aqv_cycles` is the program's active quantum volume in scheduler
/// cycles — using AQV rather than `qubits × depth` is precisely the
/// paper's argument for the metric (Section III-B, advantage 1).
pub fn success_rate(tally: &GateTally, aqv_cycles: u64, noise: &NoiseParams) -> f64 {
    let gate_term = (1.0 - noise.p1).powf(tally.one_qubit as f64)
        * (1.0 - noise.p2).powf(tally.two_qubit as f64);
    gate_term * noise.coherence_prob(aqv_cycles)
}

/// Paper-style worst-case success estimate: per *scheduled gate*
/// success rates (1q gates at `1−p1`, multi-qubit gates — including
/// routing swaps — at `1−p2`) times a single coherence factor over the
/// circuit's wall-clock duration, `exp(−depth·t_cycle/T1)`. This is
/// the granularity at which Section V-C2 multiplies probabilities;
/// [`success_rate`] provides the stricter elementary-gate accounting.
pub fn worst_case_success(
    gates_1q: u64,
    gates_multi: u64,
    depth_cycles: u64,
    noise: &NoiseParams,
) -> f64 {
    (1.0 - noise.p1).powf(gates_1q as f64)
        * (1.0 - noise.p2).powf(gates_multi as f64)
        * noise.coherence_prob(depth_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_arch::NoiseParams;

    #[test]
    fn tally_decomposes_composites() {
        let mut t = GateTally::new();
        t.add_gate(&Gate::Swap { a: 0u32, b: 1 });
        t.add_gate(&Gate::Ccx {
            c0: 0u32,
            c1: 1,
            target: 2,
        });
        assert_eq!(t.two_qubit, 3 + 6);
        assert_eq!(t.one_qubit, 9);
    }

    #[test]
    fn more_gates_lower_success() {
        let noise = NoiseParams::paper_simulation();
        let small = GateTally {
            one_qubit: 10,
            two_qubit: 10,
        };
        let large = GateTally {
            one_qubit: 100,
            two_qubit: 100,
        };
        assert!(success_rate(&small, 0, &noise) > success_rate(&large, 0, &noise));
    }

    #[test]
    fn more_volume_lowers_success() {
        let noise = NoiseParams::paper_simulation();
        let t = GateTally {
            one_qubit: 10,
            two_qubit: 10,
        };
        assert!(success_rate(&t, 100, &noise) > success_rate(&t, 100_000, &noise));
    }

    #[test]
    fn noiseless_is_certain() {
        let noise = NoiseParams::noiseless();
        let t = GateTally {
            one_qubit: 1000,
            two_qubit: 1000,
        };
        assert!((success_rate(&t, 1_000_000, &noise) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_case_success_in_paper_range() {
        // A SQUARE-like NISQ schedule: ~100 multi-qubit gates, depth
        // ~250 cycles — success should land in the paper's 0.1–0.6.
        let noise = NoiseParams::paper_simulation();
        let s = worst_case_success(30, 110, 260, &noise);
        assert!((0.05..0.7).contains(&s), "got {s}");
    }

    #[test]
    fn empty_tally_and_zero_volume_are_certain() {
        // Boundary: no gates and no exposure — success is exactly 1
        // even under realistic noise (0^0-style powf edge).
        let noise = NoiseParams::paper_simulation();
        assert_eq!(success_rate(&GateTally::new(), 0, &noise), 1.0);
        assert_eq!(worst_case_success(0, 0, 0, &noise), 1.0);
    }

    #[test]
    fn single_gate_matches_closed_form() {
        let noise = NoiseParams::paper_simulation();
        let t = GateTally {
            one_qubit: 1,
            two_qubit: 0,
        };
        assert!((success_rate(&t, 0, &noise) - (1.0 - noise.p1)).abs() < 1e-15);
        assert!((worst_case_success(0, 1, 0, &noise) - (1.0 - noise.p2)).abs() < 1e-15);
    }

    #[test]
    fn mcx_tally_boundaries() {
        // 0 controls = X; 1 control = CNOT; the generic branch starts
        // at 2 where it must coincide with the Toffoli decomposition.
        let mut t0 = GateTally::new();
        t0.add_gate(&Gate::Mcx {
            controls: vec![],
            target: 0u32,
        });
        assert_eq!((t0.one_qubit, t0.two_qubit), (1, 0));
        let mut t1 = GateTally::new();
        t1.add_gate(&Gate::Mcx {
            controls: vec![1u32],
            target: 0,
        });
        assert_eq!((t1.one_qubit, t1.two_qubit), (0, 1));
        let mut t2 = GateTally::new();
        t2.add_gate(&Gate::Mcx {
            controls: vec![1u32, 2],
            target: 0,
        });
        let mut ccx = GateTally::new();
        ccx.add_gate(&Gate::Ccx {
            c0: 1u32,
            c1: 2,
            target: 0,
        });
        assert_eq!(t2, ccx, "2-control MCX ≡ Toffoli accounting");
    }

    #[test]
    fn success_bounded_by_unit_interval() {
        let noise = NoiseParams::paper_simulation();
        let t = GateTally {
            one_qubit: 12345,
            two_qubit: 6789,
        };
        let s = success_rate(&t, 987654, &noise);
        assert!((0.0..=1.0).contains(&s));
    }
}
