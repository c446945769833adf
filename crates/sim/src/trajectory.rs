//! Trajectory execution of scheduled physical circuits.
//!
//! Runs a compiled, scheduled circuit (from `square-route`) shot by
//! shot: ideal boolean gate semantics plus stochastic error injection
//! per the gate's Clifford+T decomposition (6 CNOT-events and 9
//! one-qubit events per Toffoli, 3 CNOT-events per SWAP — the same
//! accounting as the analytical model), and T1 relaxation over each
//! qubit's idle gaps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use square_arch::{CommModel, PhysId};
use square_metrics::Histogram;
use square_qir::{Clbits, Gate};
use square_route::{step_gate, PhysicalCheck, ScheduledGate};

use crate::noise::NoiseModel;

/// Options for trajectory sampling.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryConfig {
    /// Number of shots (the paper uses 8192 in Fig. 8c).
    pub shots: u32,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            shots: 8192,
            seed: 0x51A5,
        }
    }
}

/// Numbers of (1q, 2q) elementary error-injection events for a gate:
/// its standard Clifford+T decomposition (SWAP = 3 CNOTs, Toffoli = 6
/// CNOTs + 9 one-qubit gates, a k ≥ 3 MCX its `2k − 3` Toffolis). This
/// is the one table of elementary operations; scheduling costs come
/// from `Gate::duration`.
fn error_events(gate: &Gate<PhysId>) -> (u32, u32) {
    match gate {
        Gate::X { .. } => (1, 0),
        Gate::Cx { .. } => (0, 1),
        Gate::Swap { .. } => (0, 3),
        Gate::Ccx { .. } => (9, 6),
        Gate::Mcx { controls, .. } => match controls.len() {
            0 => (1, 0),
            1 => (0, 1),
            n => {
                let t = 2 * n as u32 - 3;
                (9 * t, 6 * t)
            }
        },
    }
}

/// Runs the circuit noiselessly from |0…0⟩ and returns the final
/// basis state over `n_qubits` physical qubits.
///
/// Gates are applied in record order — the machine's emission order —
/// which is the correct data-dependency order for both swap-chain and
/// braided schedules (see `square_route::schedule` for why start-cycle
/// sorting is unsound on braided composite gates).
pub fn run_ideal(schedule: &[ScheduledGate], n_qubits: usize) -> Vec<bool> {
    PhysicalCheck::run(schedule, n_qubits, CommModel::Braiding)
        .into_state()
        .0
}

/// Runs one noisy trajectory and returns the final basis state.
pub fn run_noisy(
    schedule: &[ScheduledGate],
    n_qubits: usize,
    noise: &NoiseModel,
    rng: &mut impl Rng,
) -> Vec<bool> {
    run_noisy_shot(schedule, n_qubits, noise, rng, &mut Vec::new())
}

/// Runs one noisy trajectory, appending every mid-circuit measurement
/// outcome (in record order) to `outcomes`, and returns the final
/// basis state.
///
/// Mid-circuit measurements read the *noisy* bit — errors that flipped
/// an ancilla before its measurement propagate into the classical side
/// channel and steer the guarded corrections, exactly as feedback
/// hardware would behave. Guarded gates that do not fire still occupy
/// their cell (idle relaxation applies) but inject no gate errors.
pub fn run_noisy_shot(
    schedule: &[ScheduledGate],
    n_qubits: usize,
    noise: &NoiseModel,
    rng: &mut impl Rng,
    outcomes: &mut Vec<bool>,
) -> Vec<bool> {
    // Record order (not start-cycle order): same rationale as
    // [`run_ideal`]. Idle-gap accounting is per-qubit against explicit
    // start/end cycles, so cross-qubit processing order only permutes
    // the RNG draw sequence, which is statistically equivalent.
    let mut bits = vec![false; n_qubits];
    let mut clbits = Clbits::new();
    let mut last_time = vec![0u64; n_qubits];
    let mut depth = 0u64;
    for g in schedule {
        depth = depth.max(g.end());
        // Relax each operand over its idle gap before the gate.
        let mut operands: Vec<PhysId> = Vec::with_capacity(g.gate.arity());
        g.gate.for_each_qubit(|q| operands.push(*q));
        for q in &operands {
            let idle = g.start.saturating_sub(last_time[q.index()]);
            if bits[q.index()] && noise.sample_relax(idle, rng) {
                bits[q.index()] = false;
            }
        }
        let fired = step_gate(g, &mut bits, &mut clbits);
        if let Some(c) = g.measure {
            outcomes.push(clbits.get(c) == Some(true));
        }
        if fired {
            // Gate-error injection in the Clifford+T decomposition.
            let (e1, e2) = error_events(&g.gate);
            for _ in 0..e1 {
                if noise.sample_1q(rng) {
                    let victim = operands[rng.gen_range(0..operands.len())];
                    bits[victim.index()] ^= true;
                }
            }
            for _ in 0..e2 {
                let f = noise.sample_2q(rng);
                if f.flip_a {
                    let victim = operands[rng.gen_range(0..operands.len())];
                    bits[victim.index()] ^= true;
                }
                if f.flip_b && operands.len() >= 2 {
                    let victim = operands[rng.gen_range(0..operands.len())];
                    bits[victim.index()] ^= true;
                }
            }
        }
        // Relaxation during the event itself (measurement readout and
        // skipped guards occupy the cell too).
        for q in &operands {
            if bits[q.index()] && noise.sample_relax(u64::from(g.dur), rng) {
                bits[q.index()] = false;
            }
            last_time[q.index()] = g.end();
        }
    }
    // Final idle until measurement at circuit end.
    for q in 0..n_qubits {
        let idle = depth.saturating_sub(last_time[q]);
        if bits[q] && noise.sample_relax(idle, rng) {
            bits[q] = false;
        }
    }
    bits
}

/// Samples `config.shots` noisy trajectories, measuring the listed
/// qubits (little-endian packing), and returns the outcome histogram.
pub fn sample_histogram(
    schedule: &[ScheduledGate],
    n_qubits: usize,
    measure: &[PhysId],
    noise: &NoiseModel,
    config: &TrajectoryConfig,
) -> Histogram {
    sample_histogram_traced(schedule, n_qubits, measure, noise, config).0
}

/// Like [`sample_histogram`], additionally returning the concatenated
/// stream of mid-circuit measurement outcomes across all shots (in
/// shot-major, record order). The stream is a pure function of the
/// schedule, noise model, and meta-seed — the determinism contract the
/// seeded golden test pins down.
pub fn sample_histogram_traced(
    schedule: &[ScheduledGate],
    n_qubits: usize,
    measure: &[PhysId],
    noise: &NoiseModel,
    config: &TrajectoryConfig,
) -> (Histogram, Vec<bool>) {
    assert!(measure.len() <= 64, "at most 64 measured qubits");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut hist = Histogram::new();
    let mut outcomes = Vec::new();
    for _ in 0..config.shots {
        let bits = run_noisy_shot(schedule, n_qubits, noise, &mut rng, &mut outcomes);
        let outcome: Vec<bool> = measure.iter().map(|q| bits[q.index()]).collect();
        hist.record(Histogram::pack(&outcome));
    }
    (hist, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use square_arch::NoiseParams;

    fn sched(gates: Vec<(Gate<PhysId>, u64, u32)>) -> Vec<ScheduledGate> {
        gates
            .into_iter()
            .map(|(gate, start, dur)| ScheduledGate {
                gate,
                start,
                dur,
                is_comm: false,
                guard: None,
                measure: None,
            })
            .collect()
    }

    #[test]
    fn ideal_run_computes_classically() {
        // X q0; CX q0->q1; CCX q0,q1->q2
        let s = sched(vec![
            (Gate::X { target: PhysId(0) }, 0, 1),
            (
                Gate::Cx {
                    control: PhysId(0),
                    target: PhysId(1),
                },
                1,
                1,
            ),
            (
                Gate::Ccx {
                    c0: PhysId(0),
                    c1: PhysId(1),
                    target: PhysId(2),
                },
                2,
                6,
            ),
        ]);
        assert_eq!(run_ideal(&s, 3), vec![true, true, true]);
    }

    #[test]
    fn noiseless_trajectory_matches_ideal() {
        let s = sched(vec![
            (Gate::X { target: PhysId(0) }, 0, 1),
            (
                Gate::Swap {
                    a: PhysId(0),
                    b: PhysId(2),
                },
                1,
                3,
            ),
        ]);
        let noise = NoiseModel::new(NoiseParams::noiseless());
        let mut rng = StdRng::seed_from_u64(3);
        let bits = run_noisy(&s, 3, &noise, &mut rng);
        assert_eq!(bits, run_ideal(&s, 3));
        assert_eq!(bits, vec![false, false, true]);
    }

    #[test]
    fn histogram_concentrates_on_ideal_under_light_noise() {
        let s = sched(vec![
            (Gate::X { target: PhysId(0) }, 0, 1),
            (
                Gate::Cx {
                    control: PhysId(0),
                    target: PhysId(1),
                },
                1,
                1,
            ),
        ]);
        let noise = NoiseModel::new(NoiseParams::paper_simulation());
        let hist = sample_histogram(
            &s,
            2,
            &[PhysId(0), PhysId(1)],
            &noise,
            &TrajectoryConfig {
                shots: 4096,
                seed: 42,
            },
        );
        // Ideal outcome 0b11: overwhelmingly likely with 2 gates.
        assert!(hist.probability(0b11) > 0.95);
    }

    #[test]
    fn deeper_circuits_are_noisier() {
        let noise = NoiseModel::new(NoiseParams::paper_simulation());
        let shallow = sched(vec![(Gate::X { target: PhysId(0) }, 0, 1)]);
        let mut deep_gates = vec![(Gate::X { target: PhysId(0) }, 0u64, 1u32)];
        for i in 0..200u64 {
            // 100 CNOT pairs that cancel: identity circuit with depth.
            deep_gates.push((
                Gate::Cx {
                    control: PhysId(0),
                    target: PhysId(1),
                },
                1 + i,
                1,
            ));
        }
        let deep = sched(deep_gates);
        let cfg = TrajectoryConfig {
            shots: 4096,
            seed: 9,
        };
        let h_shallow = sample_histogram(&shallow, 2, &[PhysId(0), PhysId(1)], &noise, &cfg);
        let h_deep = sample_histogram(&deep, 2, &[PhysId(0), PhysId(1)], &noise, &cfg);
        assert!(
            h_deep.probability(0b01) < h_shallow.probability(0b01),
            "more gates, lower success: {} vs {}",
            h_deep.probability(0b01),
            h_shallow.probability(0b01)
        );
    }

    #[test]
    fn relaxation_decays_idle_ones() {
        // X at t=0, then nothing until a dummy gate at t=5000 on
        // another qubit stretches the circuit: q0 idles 5000 cycles
        // (1 ms over T1 = 50 µs) and should essentially always decay.
        let s = sched(vec![
            (Gate::X { target: PhysId(0) }, 0, 1),
            (Gate::X { target: PhysId(1) }, 5000, 1),
        ]);
        let noise = NoiseModel::new(NoiseParams::paper_simulation());
        let hist = sample_histogram(
            &s,
            2,
            &[PhysId(0)],
            &noise,
            &TrajectoryConfig {
                shots: 2048,
                seed: 5,
            },
        );
        assert!(hist.probability(0b0) > 0.99, "idle |1⟩ relaxed");
    }

    /// The MBU cell — prep, measure, guarded correction — as routing
    /// emits it: the measurement carrier names the cell and records
    /// into c0; the correction fires only on outcome 1.
    fn mbu_cell() -> Vec<ScheduledGate> {
        use square_qir::ClbitId;
        vec![
            ScheduledGate {
                gate: Gate::X { target: PhysId(0) },
                start: 0,
                dur: 1,
                is_comm: false,
                guard: None,
                measure: None,
            },
            ScheduledGate {
                gate: Gate::X { target: PhysId(0) },
                start: 1,
                dur: 1,
                is_comm: false,
                guard: None,
                measure: Some(ClbitId(0)),
            },
            ScheduledGate {
                gate: Gate::X { target: PhysId(0) },
                start: 2,
                dur: 1,
                is_comm: false,
                guard: Some(ClbitId(0)),
                measure: None,
            },
        ]
    }

    #[test]
    fn noiseless_feedback_corrects_the_ancilla() {
        let s = mbu_cell();
        let noise = NoiseModel::new(NoiseParams::noiseless());
        let mut rng = StdRng::seed_from_u64(1);
        let mut outcomes = Vec::new();
        let bits = run_noisy_shot(&s, 1, &noise, &mut rng, &mut outcomes);
        assert_eq!(bits, vec![false], "guarded X returned the cell to |0⟩");
        assert_eq!(outcomes, vec![true], "measurement saw the prepped 1");
        assert_eq!(bits, run_ideal(&s, 1), "noiseless trajectory = replay");
    }

    #[test]
    fn seeded_golden_outcome_stream_under_mid_circuit_measurement() {
        // Satellite: trajectory-sim determinism under mid-circuit
        // measurement. One meta-seed drives every shot's RNG, so the
        // concatenated outcome stream and the histogram are exact
        // functions of (schedule, noise, config): two runs with the
        // same meta-seed must agree bit for bit, and a different
        // meta-seed must not reproduce the stream.
        let s = mbu_cell();
        let noise = NoiseModel::new(NoiseParams::paper_simulation());
        let cfg = TrajectoryConfig {
            shots: 256,
            seed: 0x6B1D,
        };
        let (h1, o1) = sample_histogram_traced(&s, 1, &[PhysId(0)], &noise, &cfg);
        let (h2, o2) = sample_histogram_traced(&s, 1, &[PhysId(0)], &noise, &cfg);
        assert_eq!(h1, h2, "same meta-seed, same histogram");
        assert_eq!(o1, o2, "same meta-seed, same outcome stream");
        assert_eq!(o1.len(), 256, "exactly one measurement per shot");
        // Under light noise the prep almost always survives to the
        // measurement, and the correction then restores |0⟩.
        assert!(o1.iter().filter(|&&b| b).count() > 240);
        assert!(h1.probability(0b0) > 0.95);
        let (_, o3) = sample_histogram_traced(
            &s,
            1,
            &[PhysId(0)],
            &noise,
            &TrajectoryConfig {
                shots: 256,
                seed: 0x6B1E,
            },
        );
        assert_ne!(o1, o3, "a different meta-seed perturbs the stream");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let s = sched(vec![(Gate::X { target: PhysId(0) }, 0, 1)]);
        let noise = NoiseModel::new(NoiseParams::paper_simulation());
        let cfg = TrajectoryConfig {
            shots: 512,
            seed: 77,
        };
        let h1 = sample_histogram(&s, 1, &[PhysId(0)], &noise, &cfg);
        let h2 = sample_histogram(&s, 1, &[PhysId(0)], &noise, &cfg);
        assert_eq!(h1, h2);
    }
}
