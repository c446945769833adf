//! Compiler configuration: target machine, policy, heuristic knobs.

use square_arch::{
    CommModel, FullTopology, GridTopology, HeavyHexTopology, LineTopology, RingTopology, Topology,
};
use square_route::{RouterConfig, RouterKind};

use crate::policy::Policy;

/// Target machine layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchSpec {
    /// 2-D lattice with the given dimensions.
    Grid {
        /// Width in qubits.
        width: u32,
        /// Height in qubits.
        height: u32,
    },
    /// Fully connected machine with `n` qubits.
    Full {
        /// Qubit count.
        n: u32,
    },
    /// Linear chain with `n` qubits.
    Line {
        /// Qubit count.
        n: u32,
    },
    /// IBM-style heavy-hex lattice of distance `d`.
    HeavyHex {
        /// Lattice distance parameter.
        d: u32,
    },
    /// 1-D ring (cycle) of `n` qubits.
    Ring {
        /// Qubit count.
        n: u32,
    },
    /// A near-square lattice auto-sized from the program's worst-case
    /// footprint (total forward ancilla allocations plus slack) — the
    /// "large enough machine" setting for AQV studies.
    AutoGrid,
    /// A heavy-hex lattice auto-sized the same way (smallest odd
    /// distance that fits).
    AutoHeavyHex,
    /// A ring auto-sized the same way.
    AutoRing,
}

/// Why an architecture spec string failed to parse.
///
/// Carries the offending spec so front ends can surface it verbatim
/// in a usage message, plus the specific constraint that rejected it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSpecParseError {
    spec: String,
    reason: &'static str,
}

impl ArchSpecParseError {
    /// The constraint the spec violated (e.g. "ring needs at least 3
    /// qubits").
    pub fn reason(&self) -> &'static str {
        self.reason
    }
}

impl std::fmt::Display for ArchSpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid arch `{}` (expected grid[:WxH], full:N, line:N, heavyhex[:D] or ring[:N]): {}",
            self.spec, self.reason
        )
    }
}

impl std::error::Error for ArchSpecParseError {}

/// The one arch-spec grammar, shared by every front end (`squarec
/// --arch`, the sweep CLI, the compile-service wire protocol):
/// `grid:WxH`, `full:N`, `line:N`, `heavyhex:D`, `ring:N`, with bare
/// `grid`, `heavyhex` and `ring` selecting the auto-sized variants.
/// Case-insensitive. Dimensions must be nonzero, a grid's total qubit
/// count must fit `u32`, `grid`, `line`, `full` and `ring` may name at
/// most [`ArchSpec::MAX_QUBITS`] qubits, heavy-hex distance is capped
/// at 63 (its qubit count grows ~5d²/2 — 9,828 qubits at 63 — and
/// each distance row a compile routes toward costs 4 bytes per qubit,
/// so a program spread over the whole device could still hold ~390 MB
/// of rows), and a ring needs at least 3 qubits to be a cycle
/// (`ring:1`/`ring:2` degenerate into self-loops or doubled edges) —
/// all enforced here so invalid sizes surface as a typed parse error,
/// not a panic inside a routing worker or an aborted allocation.
impl std::str::FromStr for ArchSpec {
    type Err = ArchSpecParseError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let err = |reason: &'static str| ArchSpecParseError {
            spec: spec.to_string(),
            reason,
        };
        let bad = || err("unrecognized spec");
        let lower = spec.to_ascii_lowercase();
        match lower.as_str() {
            "grid" => return Ok(ArchSpec::AutoGrid),
            "heavyhex" => return Ok(ArchSpec::AutoHeavyHex),
            "ring" => return Ok(ArchSpec::AutoRing),
            _ => {}
        }
        let dim = |s: &str| s.parse::<u32>().ok().filter(|&n| n > 0);
        let fits = |n: u32| {
            (n <= ArchSpec::MAX_QUBITS)
                .then_some(n)
                .ok_or_else(|| err("machine exceeds 1048576 (2^20) qubits"))
        };
        let (kind, arg) = lower.split_once(':').ok_or_else(bad)?;
        match kind {
            "grid" => {
                let (w, h) = arg.split_once('x').ok_or_else(bad)?;
                let dims = dim(w).zip(dim(h));
                let (width, height) = dims.ok_or_else(|| err("dimensions must be nonzero"))?;
                let n = width
                    .checked_mul(height)
                    .ok_or_else(|| err("qubit count overflows u32"))?;
                fits(n)?;
                Ok(ArchSpec::Grid { width, height })
            }
            "full" => Ok(ArchSpec::Full {
                n: fits(dim(arg).ok_or_else(|| err("qubit count must be nonzero"))?)?,
            }),
            "line" => Ok(ArchSpec::Line {
                n: fits(dim(arg).ok_or_else(|| err("qubit count must be nonzero"))?)?,
            }),
            "heavyhex" => Ok(ArchSpec::HeavyHex {
                d: dim(arg)
                    .filter(|&d| d <= 63)
                    .ok_or_else(|| err("distance must be in 1..=63"))?,
            }),
            "ring" => Ok(ArchSpec::Ring {
                n: fits(
                    dim(arg)
                        .filter(|&n| n >= 3)
                        .ok_or_else(|| err("ring needs at least 3 qubits"))?,
                )?,
            }),
            _ => Err(bad()),
        }
    }
}

impl ArchSpec {
    /// The most qubits a `grid`, `line`, `full` or `ring` spec may
    /// name: 2^20, a 1024 × 1024 grid. A machine allocates its
    /// per-qubit state (placement, clock, a ring's adjacency and
    /// distance-row slots) before it compiles anything, and an
    /// allocation failure aborts the process rather than unwinding, so
    /// the size is checked where the spec is parsed. A ring is the
    /// heaviest layout per qubit: a one-gate program on `ring:1048576`
    /// peaks near 130 MB and a one-Toffoli program near 150 MB (x86-64
    /// Linux, release build); the same programs on `grid:1024x1024`
    /// peak near 22 MB.
    pub const MAX_QUBITS: u32 = 1 << 20;

    /// The auto-sizing slack shared by every `Auto*` variant: worst
    /// case every forward allocation is simultaneously live, plus
    /// slack for uncompute re-allocations.
    fn auto_capacity(capacity_hint: usize) -> usize {
        capacity_hint.saturating_mul(3) / 2 + 16
    }

    /// The qubits an `Auto*` layout is asked to hold for a program
    /// with `capacity_hint`; `None` for an explicit layout, whose size
    /// [`ArchSpec::from_str`](std::str::FromStr) already checked.
    pub(crate) fn auto_size(&self, capacity_hint: usize) -> Option<usize> {
        matches!(
            self,
            ArchSpec::AutoGrid | ArchSpec::AutoHeavyHex | ArchSpec::AutoRing
        )
        .then(|| Self::auto_capacity(capacity_hint))
    }

    /// Builds the topology; `capacity_hint` feeds the `Auto*`
    /// variants, which this does not size-check (compiles go through
    /// [`build_topology`](crate::build_topology), which does).
    pub fn build(&self, capacity_hint: usize) -> Box<dyn Topology> {
        match self {
            ArchSpec::Grid { width, height } => Box::new(GridTopology::new(*width, *height)),
            ArchSpec::Full { n } => Box::new(FullTopology::new(*n)),
            ArchSpec::Line { n } => Box::new(LineTopology::new(*n)),
            ArchSpec::HeavyHex { d } => Box::new(HeavyHexTopology::new(*d)),
            ArchSpec::Ring { n } => Box::new(RingTopology::new(*n)),
            ArchSpec::AutoGrid => Box::new(GridTopology::with_capacity(Self::auto_capacity(
                capacity_hint,
            ))),
            ArchSpec::AutoHeavyHex => Box::new(HeavyHexTopology::with_capacity(
                Self::auto_capacity(capacity_hint),
            )),
            ArchSpec::AutoRing => Box::new(RingTopology::with_capacity(Self::auto_capacity(
                capacity_hint,
            ))),
        }
    }
}

/// A compile target: a machine layout plus its communication model,
/// as every front end names it (`squarec --arch`, the sweep CLI, the
/// compile-service wire protocol). Auto-sized variants let every
/// program pick its own machine, which keeps sweep cells independent
/// (no shared probe pass) and therefore embarrassingly parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepArch {
    /// NISQ: auto-sized 2-D lattice, swap-chain communication.
    NisqAuto,
    /// FT: auto-sized logical-tile grid, braid communication.
    FtAuto,
    /// Explicit lattice, swap chains.
    Grid {
        /// Width in qubits.
        width: u32,
        /// Height in qubits.
        height: u32,
    },
    /// Fully connected machine, swap chains (distance 1: none occur).
    Full {
        /// Qubit count.
        n: u32,
    },
    /// Linear chain, swap chains.
    Line {
        /// Qubit count.
        n: u32,
    },
    /// IBM-style heavy-hex lattice of distance `d`, swap chains.
    HeavyHex {
        /// Lattice distance parameter.
        d: u32,
    },
    /// Auto-sized heavy-hex lattice (smallest odd distance that fits
    /// the program), swap chains.
    HeavyHexAuto,
    /// 1-D ring of `n` qubits, swap chains.
    Ring {
        /// Qubit count.
        n: u32,
    },
    /// Auto-sized ring, swap chains.
    RingAuto,
}

impl SweepArch {
    /// Every auto-sized target, in validation-matrix order (fuzz cells
    /// and seeds are laid out over this order).
    pub const AUTO: [SweepArch; 4] = [
        SweepArch::NisqAuto,
        SweepArch::FtAuto,
        SweepArch::HeavyHexAuto,
        SweepArch::RingAuto,
    ];

    /// The compiler configuration this target implies for `policy`.
    pub fn config(&self, policy: Policy) -> CompilerConfig {
        match *self {
            SweepArch::NisqAuto => CompilerConfig::nisq(policy),
            SweepArch::FtAuto => CompilerConfig::ft(policy),
            SweepArch::Grid { width, height } => {
                CompilerConfig::nisq(policy).with_arch(ArchSpec::Grid { width, height })
            }
            SweepArch::Full { n } => CompilerConfig::nisq(policy).with_arch(ArchSpec::Full { n }),
            SweepArch::Line { n } => CompilerConfig::nisq(policy).with_arch(ArchSpec::Line { n }),
            SweepArch::HeavyHex { d } => {
                CompilerConfig::nisq(policy).with_arch(ArchSpec::HeavyHex { d })
            }
            SweepArch::HeavyHexAuto => {
                CompilerConfig::nisq(policy).with_arch(ArchSpec::AutoHeavyHex)
            }
            SweepArch::Ring { n } => CompilerConfig::nisq(policy).with_arch(ArchSpec::Ring { n }),
            SweepArch::RingAuto => CompilerConfig::nisq(policy).with_arch(ArchSpec::AutoRing),
        }
    }

    /// True when this target communicates by braiding — the
    /// swap-chain router never runs there.
    pub fn is_braided(&self) -> bool {
        matches!(self, SweepArch::FtAuto)
    }

    /// True when the machine size depends on the program compiled.
    pub fn is_auto_sized(&self) -> bool {
        SweepArch::AUTO.contains(self)
    }

    /// The routers worth running on this target: both on swap-chain
    /// machines, greedy alone under braiding (the router never runs
    /// there, so the cells would be identical).
    pub fn routers(&self) -> &'static [RouterKind] {
        if self.is_braided() {
            &[RouterKind::Greedy]
        } else {
            &RouterKind::ALL
        }
    }
}

/// Parses `nisq`, `ft`, or any [`ArchSpec`] spelling (`grid:WxH`,
/// `full:N`, `line:N`, `heavyhex:D` or bare `heavyhex`, `ring:N` or
/// bare `ring`), case-insensitive.
impl std::str::FromStr for SweepArch {
    type Err = ArchSpecParseError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        match spec.to_ascii_lowercase().as_str() {
            "nisq" => Ok(SweepArch::NisqAuto),
            "ft" => Ok(SweepArch::FtAuto),
            _ => spec.parse::<ArchSpec>().map(SweepArch::from),
        }
    }
}

impl From<ArchSpec> for SweepArch {
    /// Embeds a machine layout as a swap-chain target (`AutoGrid` maps
    /// to the NISQ auto target; `ft` has no `ArchSpec` spelling —
    /// braiding is a communication model, not a layout).
    fn from(arch: ArchSpec) -> SweepArch {
        match arch {
            ArchSpec::AutoGrid => SweepArch::NisqAuto,
            ArchSpec::Grid { width, height } => SweepArch::Grid { width, height },
            ArchSpec::Full { n } => SweepArch::Full { n },
            ArchSpec::Line { n } => SweepArch::Line { n },
            ArchSpec::HeavyHex { d } => SweepArch::HeavyHex { d },
            ArchSpec::AutoHeavyHex => SweepArch::HeavyHexAuto,
            ArchSpec::Ring { n } => SweepArch::Ring { n },
            ArchSpec::AutoRing => SweepArch::RingAuto,
        }
    }
}

impl std::fmt::Display for SweepArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SweepArch::NisqAuto => f.write_str("nisq"),
            SweepArch::FtAuto => f.write_str("ft"),
            SweepArch::Grid { width, height } => write!(f, "grid:{width}x{height}"),
            SweepArch::Full { n } => write!(f, "full:{n}"),
            SweepArch::Line { n } => write!(f, "line:{n}"),
            SweepArch::HeavyHex { d } => write!(f, "heavyhex:{d}"),
            SweepArch::HeavyHexAuto => f.write_str("heavyhex"),
            SweepArch::Ring { n } => write!(f, "ring:{n}"),
            SweepArch::RingAuto => f.write_str("ring"),
        }
    }
}

/// CER cost-model parameters (Section III-A2 / IV-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CerParams {
    /// Absolute forced-reclamation floor: when fewer free qubits
    /// remain, CER reclaims regardless of cost — this is how SQUARE
    /// "fits computations into resource-constrained machines".
    pub pressure_reserve: usize,
    /// Fractional pressure threshold: reclamation is also forced when
    /// the free fraction of the machine drops below this value.
    pub pressure_fraction: f64,
    /// Base of the recursive-recomputation factor in Eq. 1. The paper
    /// uses the worst case `2^ℓ` (every ancestor later uncomputes);
    /// `0.0` (the default) selects the adaptive estimate
    /// `(1 + ρ)^ℓ`, where ρ is the running fraction of frames that
    /// actually chose to uncompute. `experiments ablation` compares
    /// both bases.
    pub recompute_base: f64,
    /// Scope of Eq. 1's `N_active` factor. `true` (default) uses the
    /// frame's working set (its arguments + ancilla) — the qubits
    /// whose liveness the uncompute actually extends under ASAP
    /// scheduling. `false` uses the paper's literal machine-wide
    /// active count, which over-penalizes the micro-frames produced
    /// by MCX lowering (see `experiments ablation`).
    pub c1_frame_scope: bool,
}

impl Default for CerParams {
    fn default() -> Self {
        CerParams {
            pressure_reserve: 8,
            pressure_fraction: 0.08,
            recompute_base: 0.0,
            c1_frame_scope: true,
        }
    }
}

impl CerParams {
    /// The effective forced-reclamation threshold on a machine with
    /// `capacity` qubits.
    ///
    /// The fractional term rounds **half-up** (`⌊x + 0.5⌋`), not by
    /// truncation: pressure-mode onset must be deterministic at exact
    /// fraction boundaries and must not silently shift when a
    /// `budget:N` run lowers the effective capacity fed in here.
    pub fn pressure_threshold(&self, capacity: usize) -> usize {
        let fractional = (capacity as f64 * self.pressure_fraction + 0.5).floor() as usize;
        self.pressure_reserve.max(fractional)
    }
}

/// Full compiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerConfig {
    /// Ancilla-reuse policy (Table I).
    pub policy: Policy,
    /// Machine layout.
    pub arch: ArchSpec,
    /// Communication model (swap chains vs braiding).
    pub comm: CommModel,
    /// Record the scheduled physical circuit (needed for noise
    /// simulation; memory-heavy on large programs).
    pub record_schedule: bool,
    /// Swap-chain routing engine options (strategy, lookahead window
    /// depth). Braiding never consults
    /// it; the compiler normalizes the recorded selection to greedy on
    /// FT targets.
    pub router: RouterConfig,
    /// CER cost-model parameters.
    pub cer: CerParams,
    /// Hard cap on simultaneously live qubits (the `budget:N` policy
    /// dimension). `None` (the default, `budget:∞`) disables the cap
    /// entirely and compiles bit-identically to the base policy; with
    /// `Some(n)`, allocations that would exceed `min(n, capacity)`
    /// live qubits first early-uncompute a reclaimable garbage frame
    /// (Reqomp-style), trading gates for width.
    pub budget: Option<usize>,
    /// Enables measurement-based uncomputation: eligible frames
    /// (Toffoli-built compute over their own ancilla, no live garbage)
    /// may replace the unitary inverse block with one mid-circuit
    /// measurement plus one classically controlled NOT per written
    /// ancilla, whenever the per-gate-class cost model says that is
    /// cheaper. `false` (the default) compiles bit-identically to the
    /// pre-MBU compiler.
    pub mbu: bool,
}

impl CompilerConfig {
    /// NISQ target: auto-sized lattice, swap-chain communication.
    pub fn nisq(policy: Policy) -> Self {
        CompilerConfig {
            policy,
            arch: ArchSpec::AutoGrid,
            comm: CommModel::SwapChains,
            record_schedule: false,
            router: RouterConfig::default(),
            cer: CerParams::default(),
            budget: None,
            mbu: false,
        }
    }

    /// FT target: auto-sized lattice of logical tiles, braiding.
    pub fn ft(policy: Policy) -> Self {
        CompilerConfig {
            policy,
            arch: ArchSpec::AutoGrid,
            comm: CommModel::Braiding,
            record_schedule: false,
            router: RouterConfig::default(),
            cer: CerParams::default(),
            budget: None,
            mbu: false,
        }
    }

    /// Overrides the machine layout.
    pub fn with_arch(mut self, arch: ArchSpec) -> Self {
        self.arch = arch;
        self
    }

    /// Enables schedule recording.
    pub fn with_schedule(mut self) -> Self {
        self.record_schedule = true;
        self
    }

    /// Selects the swap-chain routing options (a bare [`RouterKind`]
    /// converts, keeping the other knobs default).
    pub fn with_router(mut self, router: impl Into<RouterConfig>) -> Self {
        self.router = router.into();
        self
    }

    /// Sets the qubit budget (`None` = unbudgeted, identical to the
    /// base policy).
    pub fn with_budget(mut self, budget: Option<usize>) -> Self {
        self.budget = budget;
        self
    }

    /// Enables or disables measurement-based uncomputation (`false` =
    /// identical to the pre-MBU compiler).
    pub fn with_mbu(mut self, mbu: bool) -> Self {
        self.mbu = mbu;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_grid_scales_with_hint() {
        let small = ArchSpec::AutoGrid.build(10);
        let large = ArchSpec::AutoGrid.build(1000);
        assert!(small.qubit_count() >= 10);
        assert!(large.qubit_count() >= 1000);
        assert!(large.qubit_count() > small.qubit_count());
    }

    #[test]
    fn explicit_specs_build_exactly() {
        assert_eq!(
            ArchSpec::Grid {
                width: 4,
                height: 5
            }
            .build(0)
            .qubit_count(),
            20
        );
        assert_eq!(ArchSpec::Full { n: 7 }.build(0).qubit_count(), 7);
        assert_eq!(ArchSpec::Line { n: 9 }.build(0).qubit_count(), 9);
    }

    #[test]
    fn arch_specs_parse_from_str() {
        for (text, arch) in [
            ("grid", ArchSpec::AutoGrid),
            (
                "grid:8x4",
                ArchSpec::Grid {
                    width: 8,
                    height: 4,
                },
            ),
            ("full:64", ArchSpec::Full { n: 64 }),
            ("line:100", ArchSpec::Line { n: 100 }),
            ("HeavyHex:5", ArchSpec::HeavyHex { d: 5 }),
            ("heavyhex", ArchSpec::AutoHeavyHex),
            ("ring:24", ArchSpec::Ring { n: 24 }),
            ("ring", ArchSpec::AutoRing),
        ] {
            assert_eq!(text.parse::<ArchSpec>(), Ok(arch), "{text}");
        }
        for bad in [
            "nisq",
            "grid:8",
            "hex:3",
            "heavyhex:0",
            "heavyhex:99",
            "ring:0",
            "ring:1",
            "ring:2",
            "grid:0x4",
            "full:0",
            "grid:70000x70000",
            "grid:60000x60000",
            "grid:1025x1024",
            "line:1048577",
            "full:1048577",
            "ring:1048577",
        ] {
            let err = bad.parse::<ArchSpec>().unwrap_err();
            assert!(err.to_string().contains(bad), "{bad}: {err}");
        }
    }

    /// Machines up to the qubit limit parse; one qubit more does not.
    #[test]
    fn explicit_machines_stop_at_the_qubit_limit() {
        let max = ArchSpec::MAX_QUBITS;
        for (text, arch) in [
            (
                "grid:1024x1024",
                ArchSpec::Grid {
                    width: 1024,
                    height: 1024,
                },
            ),
            (
                "grid:1x1048576",
                ArchSpec::Grid {
                    width: 1,
                    height: max,
                },
            ),
            ("line:1048576", ArchSpec::Line { n: max }),
            ("full:1048576", ArchSpec::Full { n: max }),
            ("ring:1048576", ArchSpec::Ring { n: max }),
        ] {
            assert_eq!(text.parse::<ArchSpec>(), Ok(arch), "{text}");
        }
        for bad in [
            "grid:60000x60000",
            "grid:2x524289",
            "line:1048577",
            "ring:4294967295",
        ] {
            let err = bad.parse::<ArchSpec>().unwrap_err();
            assert!(err.reason().contains("2^20"), "{bad}: {}", err.reason());
        }
    }

    #[test]
    fn sweep_archs_parse_and_round_trip() {
        for (text, arch) in [
            ("nisq", SweepArch::NisqAuto),
            ("ft", SweepArch::FtAuto),
            (
                "grid:8x4",
                SweepArch::Grid {
                    width: 8,
                    height: 4,
                },
            ),
            ("full:64", SweepArch::Full { n: 64 }),
            ("line:100", SweepArch::Line { n: 100 }),
            ("heavyhex:5", SweepArch::HeavyHex { d: 5 }),
            ("heavyhex", SweepArch::HeavyHexAuto),
            ("ring:24", SweepArch::Ring { n: 24 }),
            ("ring", SweepArch::RingAuto),
        ] {
            assert_eq!(text.parse::<SweepArch>(), Ok(arch), "{text}");
            assert_eq!(arch.to_string().parse::<SweepArch>(), Ok(arch));
        }
        // Degenerate and overflowing sizes are parse errors, not
        // panics inside a sweep worker.
        for bad in [
            "grid:8",
            "hex:3",
            "heavyhex:0",
            "heavyhex:99",
            "ring:0",
            "grid:0x4",
            "full:0",
            "line:0",
            "grid:70000x70000",
            "grid:60000x60000",
            "ring:1048577",
        ] {
            assert!(bad.parse::<SweepArch>().is_err(), "{bad}");
        }
    }

    #[test]
    fn degenerate_specs_carry_the_violated_constraint() {
        for (bad, reason) in [
            ("ring:2", "at least 3"),
            ("grid:0x4", "nonzero"),
            ("heavyhex:0", "1..=63"),
            ("grid:70000x70000", "overflows"),
        ] {
            let err = bad.parse::<ArchSpec>().unwrap_err();
            assert!(err.reason().contains(reason), "{bad}: {}", err.reason());
        }
    }

    #[test]
    fn pressure_threshold_rounds_half_up_at_exact_boundaries() {
        let params = CerParams {
            pressure_reserve: 0,
            pressure_fraction: 0.1,
            ..CerParams::default()
        };
        // 25 · 0.1 = 2.5: exactly on the boundary, rounds *up* (the
        // historical `as usize` truncation gave 2).
        assert_eq!(params.pressure_threshold(25), 3);
        // 24 · 0.1 = 2.4 rounds down; 26 · 0.1 = 2.6 rounds up.
        assert_eq!(params.pressure_threshold(24), 2);
        assert_eq!(params.pressure_threshold(26), 3);
        // Exact integers are fixed points.
        assert_eq!(params.pressure_threshold(30), 3);
        assert_eq!(params.pressure_threshold(0), 0);
        // The absolute reserve still floors the result.
        let reserved = CerParams {
            pressure_reserve: 8,
            pressure_fraction: 0.1,
            ..CerParams::default()
        };
        assert_eq!(reserved.pressure_threshold(25), 8);
        assert_eq!(reserved.pressure_threshold(95), 10);
    }

    #[test]
    fn presets_pick_comm_model() {
        assert_eq!(
            CompilerConfig::nisq(Policy::Square).comm,
            CommModel::SwapChains
        );
        assert_eq!(CompilerConfig::ft(Policy::Square).comm, CommModel::Braiding);
    }
}
