//! Worst-case analytical program success rate (Fig. 8b).
//!
//! The paper estimates success by "multiplying the single-qubit /
//! two-qubit gate success rates and the probability of qubit
//! coherence" (Section V-C2). [`worst_case_success`] does exactly that
//! over a scheduled circuit: each scheduled one-qubit gate succeeds
//! with `1−p1`, each multi-qubit gate (routing swaps included) with
//! `1−p2`, and the whole circuit decoheres once over its depth in
//! cycles against T1. Fig. 8 counts the gates of the recorded schedule
//! and passes its depth.

use square_arch::NoiseParams;

/// Paper-style worst-case success estimate: per *scheduled gate*
/// success rates (1q gates at `1−p1`, multi-qubit gates — including
/// routing swaps — at `1−p2`) times a single coherence factor over the
/// circuit's wall-clock duration, `exp(−depth·t_cycle/T1)`. This is
/// the granularity at which Section V-C2 multiplies probabilities.
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
    fn worst_case_success_in_paper_range() {
        // A SQUARE-like NISQ schedule: ~100 multi-qubit gates, depth
        // ~250 cycles — success should land in the paper's 0.1–0.6.
        let noise = NoiseParams::paper_simulation();
        let s = worst_case_success(30, 110, 260, &noise);
        assert!((0.05..0.7).contains(&s), "got {s}");
    }

    #[test]
    fn no_gates_and_zero_depth_are_certain() {
        // Boundary: no gates and no duration — success is exactly 1
        // even under realistic noise (0^0-style powf edge).
        let noise = NoiseParams::paper_simulation();
        assert_eq!(worst_case_success(0, 0, 0, &noise), 1.0);
    }

    #[test]
    fn single_gate_matches_closed_form() {
        let noise = NoiseParams::paper_simulation();
        assert!((worst_case_success(0, 1, 0, &noise) - (1.0 - noise.p2)).abs() < 1e-15);
    }
}
