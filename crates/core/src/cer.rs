//! Cost-Effective Reclamation (Algorithm 2, Eqs. 1–2 of the paper).
//!
//! At each potential reclamation point the compiler compares
//!
//! * `C1 = N_active · G_uncomp · S · 2^ℓ` — the cost of uncomputing:
//!   `G_uncomp` gates now, multiplied by the worst-case recomputation
//!   factor `2^ℓ` (every ancestor that later uncomputes replays this
//!   frame's uncompute), weighted by machine congestion (`N_active`)
//!   and communication (`S`);
//! * `C0 = N_anc · G_p · S · √((N_active + N_anc)/N_active)` — the cost
//!   of holding `N_anc` garbage qubits for the `G_p` gates until the
//!   parent's uncompute block, with the square root capturing the
//!   swap/braid lengthening caused by area expansion.
//!
//! Uncompute iff `C1 ≤ C0`. Under capacity pressure (free qubits below
//! the configured reserve) reclamation is forced, which is how SQUARE
//! throttles parallelism to fit constrained machines (Section IV-C).
//!
//! # Incremental evaluation
//!
//! The executor reaches a reclamation point once per frame, and a
//! large program executes the same module as millions of frames (MCX
//! lowering alone turns every wide gate into a micro-frame), so the
//! per-decision work must be O(1). [`ModuleCostTable`] memoizes every
//! *static* cost term per module — custom-uncompute gate totals and
//! per-block suffix gate sums — so neither `G_uncomp` nor the `G_p`
//! look-ahead ever re-walks statement lists at decision time (the
//! historical executor re-summed the tail of every block per
//! statement, O(n²) per block, and re-summed custom uncompute blocks
//! per frame). What is left per decision is the handful of multiplies
//! of Eqs. 1–2, which [`decide`] evaluates fresh every time.

use square_qir::analysis::ProgramStats;
use square_qir::{ModuleId, Program, Stmt};

use crate::config::CerParams;

/// Lower bound on the communication factor `S`, so early decisions
/// (before any swap history exists) are not degenerate.
const S_FLOOR: f64 = 1.0;

/// Everything the CER decision sees at one reclamation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CerInputs {
    /// Currently live qubits on the machine (`N_active`).
    pub n_active: usize,
    /// Ancilla this frame would reclaim (`N_anc`).
    pub n_anc: usize,
    /// Measured gates of the would-be uncompute block (`G_uncomp`):
    /// the size of this frame's executed compute slice, children
    /// included.
    pub g_uncomp: u64,
    /// Estimated gates from here to the parent's uncompute (`G_p`).
    pub g_p: u64,
    /// Call depth (`ℓ`, entry = 0).
    pub level: usize,
    /// Running communication factor (`S`): average swap-chain length
    /// per gate (NISQ) or braid conflicts per braid (FT).
    pub comm_factor: f64,
    /// Free physical qubits remaining.
    pub free_qubits: usize,
    /// Machine capacity (for the fractional pressure threshold).
    pub capacity: usize,
    /// Running fraction of frames that chose to uncompute (for the
    /// adaptive recomputation factor).
    pub reclaim_rate: f64,
    /// The frame's working set: argument + ancilla qubits (the
    /// liveness the uncompute extends under frame-scoped C1).
    pub frame_qubits: usize,
}

/// The decision with its evaluated costs (kept for reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CerDecision {
    /// True → uncompute and reclaim.
    pub reclaim: bool,
    /// Evaluated `C1`.
    pub c1: f64,
    /// Evaluated `C0`.
    pub c0: f64,
    /// True when capacity pressure forced reclamation.
    pub forced: bool,
}

/// The recursive-recomputation factor `base^ℓ` at call depth `level`:
/// the configured base (worst case) when one is set, else the adaptive
/// expectation `(1+ρ)^ℓ` under the running reclaim rate `ρ`. The one
/// place the base is resolved — [`decide`] and [`early_reclaim_score`]
/// both read it from here.
fn recompute_factor(params: &CerParams, reclaim_rate: f64, level: usize) -> f64 {
    let base = if params.recompute_base > 0.0 {
        params.recompute_base
    } else {
        1.0 + reclaim_rate.clamp(0.0, 1.0)
    };
    base.powi(level.min(60) as i32)
}

/// Evaluates Eqs. 1–2 and decides.
pub fn decide(inputs: &CerInputs, params: &CerParams) -> CerDecision {
    let s = inputs.comm_factor.max(S_FLOOR);
    let recompute = recompute_factor(params, inputs.reclaim_rate, inputs.level);
    let n_active = inputs.n_active.max(1) as f64;
    let n_anc = inputs.n_anc as f64;
    let c1_qubits = if params.c1_frame_scope {
        inputs.frame_qubits.max(1) as f64
    } else {
        n_active
    };
    let c1 = c1_qubits * inputs.g_uncomp as f64 * s * recompute;
    let c0 = n_anc * inputs.g_p as f64 * s * ((n_active + n_anc) / n_active).sqrt();
    if inputs.free_qubits < params.pressure_threshold(inputs.capacity) {
        return CerDecision {
            reclaim: true,
            c1,
            c0,
            forced: true,
        };
    }
    CerDecision {
        reclaim: c1 <= c0,
        c1,
        c0,
        forced: false,
    }
}

/// Scores an early-uncompute candidate under the `budget:N` cap: the
/// expected total cost of uncomputing the frame *now* plus recomputing
/// it later (amplified by the recursive factor `base^ℓ` at the
/// frame's call depth, resolved exactly as for [`decide`]), per qubit
/// freed. Lower is better.
pub fn early_reclaim_score(
    params: &CerParams,
    gates: u64,
    freed: usize,
    reclaim_rate: f64,
    level: usize,
) -> f64 {
    let recompute = recompute_factor(params, reclaim_rate, level);
    gates as f64 * (1.0 + recompute) / freed.max(1) as f64
}

/// Per-block memoized gate costs of one module: total custom-uncompute
/// gates plus suffix sums over every block, so "gates remaining after
/// statement `i`" is a single array lookup.
#[derive(Debug, Clone, Default)]
struct ModuleCosts {
    /// Total forward gates of the custom uncompute block, if any.
    custom_gates: Option<u64>,
    /// `compute_suffix[i]` = forward gates of `compute()[i..]`.
    compute_suffix: Vec<u64>,
    /// `store_suffix[i]` = forward gates of `store()[i..]`.
    store_suffix: Vec<u64>,
    /// Suffix sums of the custom uncompute block (empty when none).
    custom_suffix: Vec<u64>,
}

/// Memoized static cost terms for every module of a program, built
/// once per compile and read in O(1) on the executor's per-frame hot
/// path.
#[derive(Debug, Clone)]
pub struct ModuleCostTable {
    modules: Vec<ModuleCosts>,
}

fn suffix_sums(stats: &ProgramStats, stmts: &[Stmt]) -> Vec<u64> {
    let mut suffix = vec![0u64; stmts.len() + 1];
    for (i, stmt) in stmts.iter().enumerate().rev() {
        suffix[i] = suffix[i + 1].saturating_add(stats.stmt_forward_gates(stmt));
    }
    suffix
}

impl ModuleCostTable {
    /// Builds the table for `program`; each module's terms depend only
    /// on `stats`.
    pub fn build(program: &Program, stats: &ProgramStats) -> Self {
        let modules = program
            .modules()
            .iter()
            .map(|module| {
                let custom_suffix = module
                    .custom_uncompute()
                    .map(|stmts| suffix_sums(stats, stmts))
                    .unwrap_or_default();
                ModuleCosts {
                    custom_gates: module
                        .custom_uncompute()
                        .map(|_| custom_suffix.first().copied().unwrap_or(0)),
                    compute_suffix: suffix_sums(stats, module.compute()),
                    store_suffix: suffix_sums(stats, module.store()),
                    custom_suffix,
                }
            })
            .collect();
        ModuleCostTable { modules }
    }

    /// Total forward gates of the module's custom uncompute block, or
    /// `None` when the module has no custom block (the executor then
    /// measures the recorded compute slice instead).
    pub fn custom_uncompute_gates(&self, id: ModuleId) -> Option<u64> {
        self.modules[id.index()].custom_gates
    }

    /// Forward gates of the compute block strictly after statement
    /// `index`.
    pub fn compute_tail(&self, id: ModuleId, index: usize) -> u64 {
        self.modules[id.index()].compute_suffix[index + 1]
    }

    /// Forward gates of the store block strictly after statement
    /// `index`.
    pub fn store_tail(&self, id: ModuleId, index: usize) -> u64 {
        self.modules[id.index()].store_suffix[index + 1]
    }

    /// Forward gates of the custom uncompute block strictly after
    /// statement `index`.
    pub fn custom_tail(&self, id: ModuleId, index: usize) -> u64 {
        self.modules[id.index()].custom_suffix[index + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CerInputs {
        CerInputs {
            n_active: 50,
            n_anc: 4,
            g_uncomp: 100,
            g_p: 10_000,
            level: 1,
            comm_factor: 1.0,
            free_qubits: 100,
            capacity: 200,
            reclaim_rate: 1.0,
            frame_qubits: 50,
        }
    }

    #[test]
    fn cheap_uncompute_long_reservation_reclaims() {
        // Small uncompute, long wait until the parent cleans up.
        let d = decide(
            &CerInputs {
                g_uncomp: 10,
                g_p: 1_000_000,
                ..base()
            },
            &CerParams::default(),
        );
        assert!(d.reclaim);
        assert!(d.c1 <= d.c0);
    }

    #[test]
    fn deep_frames_resist_recomputation() {
        // Same costs, but deep in the call graph: 2^ℓ dominates.
        let shallow = decide(&CerInputs { level: 0, ..base() }, &CerParams::default());
        let deep = decide(
            &CerInputs {
                level: 12,
                ..base()
            },
            &CerParams::default(),
        );
        assert!(shallow.c1 < deep.c1);
        assert!(deep.c1 > deep.c0, "deep frame prefers leaving garbage");
        assert!(!deep.reclaim);
    }

    #[test]
    fn zero_gp_never_reclaims_uncoerced() {
        // Entry frame: nothing follows, C0 = 0.
        let d = decide(
            &CerInputs {
                g_p: 0,
                level: 0,
                ..base()
            },
            &CerParams::default(),
        );
        assert!(!d.reclaim);
        assert_eq!(d.c0, 0.0);
    }

    #[test]
    fn pressure_forces_reclamation() {
        let d = decide(
            &CerInputs {
                g_p: 0,
                free_qubits: 2,
                ..base()
            },
            &CerParams::default(),
        );
        assert!(d.reclaim);
        assert!(d.forced);
    }

    #[test]
    fn comm_factor_scales_both_sides() {
        let lo = decide(
            &CerInputs {
                comm_factor: 1.0,
                ..base()
            },
            &CerParams::default(),
        );
        let hi = decide(
            &CerInputs {
                comm_factor: 5.0,
                ..base()
            },
            &CerParams::default(),
        );
        assert_eq!(lo.reclaim, hi.reclaim, "S scales both C1 and C0");
        assert!(hi.c1 > lo.c1 && hi.c0 > lo.c0);
    }

    #[test]
    fn s_floor_applies() {
        let d = decide(
            &CerInputs {
                comm_factor: 0.0,
                ..base()
            },
            &CerParams {
                pressure_reserve: 0,
                pressure_fraction: 0.0,
                recompute_base: 2.0,
                c1_frame_scope: false,
            },
        );
        // With S floored at 1, C1 = 50·100·1·2 = 10000.
        assert_eq!(d.c1, 10_000.0);
    }

    #[test]
    fn cost_table_suffix_sums_match_naive_tail_walk() {
        use square_qir::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let leaf = b
            .module("leaf", 2, 1, |m| {
                let (x, out) = (m.param(0), m.param(1));
                let a = m.ancilla(0);
                m.cx(x, a);
                m.store();
                m.ccx(x, a, out);
            })
            .unwrap();
        let main = b
            .module("main", 0, 3, |m| {
                let (x, t, out) = (m.ancilla(0), m.ancilla(1), m.ancilla(2));
                m.x(x);
                m.call(leaf, &[x, t]);
                m.x(x);
                m.store();
                m.cx(t, out);
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let stats = ProgramStats::analyze(&p);
        let table = ModuleCostTable::build(&p, &stats);
        for id in [leaf, main] {
            let module = p.module(id);
            for (i, _) in module.compute().iter().enumerate() {
                let naive: u64 = module.compute()[i + 1..]
                    .iter()
                    .map(|s| stats.stmt_forward_gates(s))
                    .sum();
                assert_eq!(table.compute_tail(id, i), naive, "{id:?} compute[{i}]");
            }
            for (i, _) in module.store().iter().enumerate() {
                let naive: u64 = module.store()[i + 1..]
                    .iter()
                    .map(|s| stats.stmt_forward_gates(s))
                    .sum();
                assert_eq!(table.store_tail(id, i), naive, "{id:?} store[{i}]");
            }
            assert_eq!(table.custom_uncompute_gates(id), None);
        }
        // main compute: X(1) + call leaf (2 gates) + X(1) = tail after
        // stmt 0 is 3.
        assert_eq!(table.compute_tail(main, 0), 3);
    }

    #[test]
    fn cost_table_memoizes_custom_uncompute() {
        use square_qir::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let main = b
            .module("main", 0, 2, |m| {
                let (x, out) = (m.ancilla(0), m.ancilla(1));
                m.x(x);
                m.store();
                m.cx(x, out);
                m.uncompute();
                m.x(x);
                m.x(x);
            })
            .unwrap();
        let p = b.finish(main).unwrap();
        let stats = ProgramStats::analyze(&p);
        let table = ModuleCostTable::build(&p, &stats);
        assert_eq!(table.custom_uncompute_gates(main), Some(2));
        assert_eq!(table.custom_tail(main, 0), 1);
        assert_eq!(table.custom_tail(main, 1), 0);
    }
}
