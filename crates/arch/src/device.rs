//! Device parameters: communication model and noise figures.
//!
//! Noise figures follow Table IV of the paper: our simulation point is
//! 0.1% single-qubit error, 1% two-qubit error, T1 = 50 µs,
//! T2 = 70 µs, alongside the published IBM and IonQ device figures for
//! context.

/// How long-distance two-qubit gates are resolved on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommModel {
    /// NISQ: chains of SWAP gates; latency grows with distance
    /// (each SWAP is three CNOTs).
    SwapChains,
    /// FT (surface code): braids of arbitrary length complete in
    /// constant time but may not cross; conflicts serialize.
    Braiding,
}

impl CommModel {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            CommModel::SwapChains => "swap-chains",
            CommModel::Braiding => "braiding",
        }
    }
}

/// Gate-error and coherence parameters (Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Single-qubit gate error probability.
    pub p1: f64,
    /// Two-qubit gate error probability.
    pub p2: f64,
    /// Amplitude-damping (relaxation) time constant, microseconds.
    pub t1_us: f64,
    /// Dephasing time constant, microseconds.
    pub t2_us: f64,
    /// Duration of one scheduler cycle (one gate), nanoseconds.
    pub cycle_ns: f64,
}

impl NoiseParams {
    /// The simulation point of Table IV: 0.1% / 1% gate errors,
    /// T1 = 50 µs, T2 = 70 µs. Cycle time 200 ns approximates
    /// superconducting two-qubit gate durations.
    pub fn paper_simulation() -> Self {
        NoiseParams {
            p1: 0.001,
            p2: 0.01,
            t1_us: 50.0,
            t2_us: 70.0,
            cycle_ns: 200.0,
        }
    }

    /// IBM superconducting device figures quoted in Table IV
    /// (< 1% / < 2%, T1 = 55 µs, T2 = 60 µs).
    pub fn ibm_sup() -> Self {
        NoiseParams {
            p1: 0.01,
            p2: 0.02,
            t1_us: 55.0,
            t2_us: 60.0,
            cycle_ns: 200.0,
        }
    }

    /// IonQ trapped-ion figures quoted in Table IV (< 1% / < 2%,
    /// T1 and T2 effectively unbounded).
    pub fn ionq_trap() -> Self {
        NoiseParams {
            p1: 0.01,
            p2: 0.02,
            t1_us: 1e6,
            t2_us: 1e6,
            cycle_ns: 200.0,
        }
    }

    /// This noise model, uniformly scaled: error probabilities are
    /// multiplied by `factor` and coherence times divided by it.
    /// Used to calibrate simulation magnitudes to the paper's reported
    /// figures while preserving orderings.
    pub fn scaled(&self, factor: f64) -> Self {
        NoiseParams {
            p1: (self.p1 * factor).min(1.0),
            p2: (self.p2 * factor).min(1.0),
            t1_us: self.t1_us / factor,
            t2_us: self.t2_us / factor,
            cycle_ns: self.cycle_ns,
        }
    }

    /// Idealized noiseless device (for differential testing).
    pub fn noiseless() -> Self {
        NoiseParams {
            p1: 0.0,
            p2: 0.0,
            t1_us: f64::INFINITY,
            t2_us: f64::INFINITY,
            cycle_ns: 200.0,
        }
    }

    /// Probability that a qubit stays coherent for `cycles` scheduler
    /// cycles (worst-case exponential model used by Fig. 8b).
    pub fn coherence_prob(&self, cycles: u64) -> f64 {
        if !self.t1_us.is_finite() {
            return 1.0;
        }
        let t_ns = cycles as f64 * self.cycle_ns;
        (-t_ns / (self.t1_us * 1000.0)).exp()
    }

    /// Probability a basis state |1⟩ relaxes to |0⟩ over `cycles`
    /// cycles (used by the Monte-Carlo trajectory simulator).
    pub fn relax_prob(&self, cycles: u64) -> f64 {
        1.0 - self.coherence_prob(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherence_decays_monotonically() {
        let n = NoiseParams::paper_simulation();
        let p0 = n.coherence_prob(0);
        let p1k = n.coherence_prob(1000);
        let p10k = n.coherence_prob(10_000);
        assert!((p0 - 1.0).abs() < 1e-12);
        assert!(p1k > p10k);
        assert!(p10k > 0.0);
    }

    #[test]
    fn ionq_is_effectively_coherent() {
        // T1 > 10^6 µs: 100k cycles of 200 ns is 20 ms, still > 95%.
        let n = NoiseParams::ionq_trap();
        assert!(n.coherence_prob(100_000) > 0.95);
    }

    #[test]
    fn noiseless_never_relaxes() {
        let n = NoiseParams::noiseless();
        assert_eq!(n.relax_prob(u64::MAX / 2), 0.0);
    }

    #[test]
    fn table_iv_simulation_point() {
        let n = NoiseParams::paper_simulation();
        assert_eq!(n.p1, 0.001);
        assert_eq!(n.p2, 0.01);
        assert_eq!(n.t1_us, 50.0);
        assert_eq!(n.t2_us, 70.0);
    }
}
