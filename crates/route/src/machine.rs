//! The machine model: placement, routing, scheduling, liveness.
//!
//! [`Machine`] is the stateful target the compile-time executor
//! drives, split into three cohesive parts it orchestrates:
//!
//! * [`Placement`] — who sits where: flat occupancy arrays, free /
//!   fresh cell bitsets, and the reuse pool of released cells the
//!   allocator draws from (read via [`Machine::placement`]);
//! * [`Clock`] — when: per-qubit ASAP availability and the makespan
//!   (read via [`Machine::clock`]);
//! * [`ScheduleSink`] — what came out: statistics, liveness segments,
//!   and the physical gates — dropped, recorded with the placement
//!   history, or streamed through a [`PhysicalCheck`].
//!
//! Placing a virtual qubit binds it to a physical slot; applying a
//! gate resolves connectivity (swap chains on NISQ, braids on FT),
//! schedules it ASAP, and updates the communication statistics that
//! feed the CER heuristic's `S` factor. Releasing a qubit closes its
//! liveness segment, from which active quantum volume is computed.
//!
//! Swap-chain routing dispatches on the configured [`RouterKind`] to
//! the greedy or lookahead router, which reuse the machine's scratch
//! arenas, so the hot path allocates nothing. A router decides a swap
//! chain's cells (a shortest path comes from `Machine::path_to`,
//! closed form on a lattice) and hands them to one chain mover,
//! `Machine::shift_along`, which walks the mover down the chain in one
//! pass: per swap it picks the ASAP slot, steps the displaced qubit (or
//! free cell) back and emits the swap, and it writes the mover's own
//! binding, liveness and clock once at the end. It is the only code
//! that moves a qubit during routing.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use square_arch::{CommModel, FlatTables, PhysId, Topology};
use square_qir::{ClbitId, Gate, VirtId};

use crate::braid::BraidField;
use crate::config::RouterConfig;
use crate::ctx::NeighborTable;
use crate::error::RouteError;
use crate::placement::Placement;
use crate::router::{self, RouterKind, RouterScratch};
use crate::schedule::{PhysicalCheck, ScheduledGate};
use crate::sink::ScheduleSink;
use crate::timeline::Clock;

/// Construction options for [`Machine`].
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Communication model: swap chains (NISQ) or braiding (FT).
    pub comm: CommModel,
    /// Record the full scheduled physical circuit (needed for noise
    /// simulation; costs memory on large programs).
    pub record_schedule: bool,
    /// Swap-chain routing engine options (ignored under braiding).
    pub router: RouterConfig,
}

impl MachineConfig {
    /// NISQ defaults: swap chains, greedy router, schedule recording
    /// off.
    pub fn nisq() -> Self {
        MachineConfig {
            comm: CommModel::SwapChains,
            record_schedule: false,
            router: RouterConfig::default(),
        }
    }

    /// FT defaults: braiding, schedule recording off.
    pub fn ft() -> Self {
        MachineConfig {
            comm: CommModel::Braiding,
            record_schedule: false,
            router: RouterConfig::default(),
        }
    }

    /// Enables schedule recording.
    pub fn with_schedule(mut self) -> Self {
        self.record_schedule = true;
        self
    }

    /// Selects the swap-chain routing options (a bare
    /// [`RouterKind`] converts, keeping the other knobs default).
    pub fn with_router(mut self, router: impl Into<RouterConfig>) -> Self {
        self.router = router.into();
        self
    }
}

/// Communication / scheduling statistics, accumulated online.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Program gates scheduled (excludes routing swaps).
    pub program_gates: u64,
    /// Multi-qubit program gates (denominator of the swap `S` factor).
    pub multi_qubit_gates: u64,
    /// SWAP gates inserted by routing.
    pub swaps: u64,
    /// Braids committed (FT machines).
    pub braids: u64,
    /// Braid conflicts that forced queuing (FT machines).
    pub braid_conflicts: u64,
    /// Toffoli operand-gathering passes that needed a retry.
    pub gather_retries: u64,
    /// Toffoli gathers that gave up before reaching full adjacency.
    pub gather_failures: u64,
}

/// One event in a machine's placement history: where a virtual qubit
/// was bound, every cell routing moved it through, and where it was
/// released. Recorded only when schedule recording is on (same knob,
/// same memory rationale), and consumed by the translation validator
/// to explain *how* a mismatching qubit reached its final cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementEvent {
    /// The qubit was bound to a physical cell.
    Place {
        /// The virtual qubit.
        virt: VirtId,
        /// The cell it was bound to.
        phys: PhysId,
    },
    /// A routing swap carried the qubit between adjacent cells.
    Move {
        /// The virtual qubit.
        virt: VirtId,
        /// Cell it left.
        from: PhysId,
        /// Cell it arrived in.
        to: PhysId,
    },
    /// The qubit was released; its cell returned to the free pool.
    Release {
        /// The virtual qubit.
        virt: VirtId,
        /// The cell it vacated.
        phys: PhysId,
    },
}

impl PlacementEvent {
    /// The virtual qubit this event concerns.
    pub fn virt(&self) -> VirtId {
        match self {
            PlacementEvent::Place { virt, .. }
            | PlacementEvent::Move { virt, .. }
            | PlacementEvent::Release { virt, .. } => *virt,
        }
    }
}

/// The sequence of physical cells `virt` occupied, in order, extracted
/// from a placement history (first entry is the initial placement).
pub fn journey_of(history: &[PlacementEvent], virt: VirtId) -> Vec<PhysId> {
    let mut cells = Vec::new();
    for ev in history {
        match ev {
            PlacementEvent::Place { virt: v, phys } if *v == virt => cells.push(*phys),
            PlacementEvent::Move { virt: v, to, .. } if *v == virt => cells.push(*to),
            _ => {}
        }
    }
    cells
}

/// One closed liveness interval of a virtual qubit: from its first
/// gate to the end of its last gate (or to program end for qubits
/// never reclaimed). Heap time — after `Free`, before reuse — is
/// excluded by construction, matching the paper's AQV definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessSegment {
    /// The virtual qubit.
    pub virt: VirtId,
    /// Physical slot it occupied when released.
    pub phys: PhysId,
    /// First cycle the qubit was touched by a gate.
    pub start: u64,
    /// Cycle after its last gate (or program end if never reclaimed).
    pub end: u64,
}

impl LivenessSegment {
    /// Segment duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Final output of a machine run.
#[derive(Debug, Clone)]
pub struct RouteReport {
    /// Circuit makespan in cycles.
    pub depth: u64,
    /// Communication statistics.
    pub stats: CommStats,
    /// Closed liveness segments of every virtual qubit that was used.
    pub segments: Vec<LivenessSegment>,
    /// The scheduled physical circuit (if recording was enabled).
    pub schedule: Option<Vec<ScheduledGate>>,
    /// Peak number of simultaneously placed qubits.
    pub peak_active: usize,
    /// Physical qubits that ever *held* a program qubit (excludes
    /// cells merely traversed by swap chains).
    pub footprint: usize,
    /// Final placement of still-live virtual qubits.
    pub final_placement: HashMap<VirtId, PhysId>,
    /// Full placement history (if recording was enabled): every bind,
    /// routing move, and release, in machine order.
    pub placement_history: Option<Vec<PlacementEvent>>,
    /// Which swap-chain router produced this schedule.
    pub router: RouterKind,
    /// The physical check every emitted gate was streamed through (if
    /// [`Machine::enable_physical_check`] was called).
    pub check: Option<PhysicalCheck>,
}

/// Distance acceleration mode, resolved once at construction: the
/// routing hot path answers distance/adjacency queries from cached
/// coordinates or flat tables instead of virtual calls where it can.
#[derive(Debug, Clone)]
enum DistAccel {
    /// Hop distance equals Manhattan distance on the cached embedding
    /// (grid, line). `rect` is the `(width, height)` of the lattice
    /// when the cells fill one exactly from the origin, row-major (a
    /// line is `n × 1`).
    Manhattan { rect: Option<(u32, u32)> },
    /// Graph-backed layout with shared per-target distance rows,
    /// built on demand (heavy-hex).
    Tables(FlatTables),
    /// Fall through to the topology's own (closed-form) answers.
    Virtual,
}

/// The `(width, height)` of the rectangle a placement's cells fill
/// exactly, anchored at the origin and indexed row-major (`PhysId(i)`
/// at `(i % w, i / w)`, the indexing the lattice gather walk assumes);
/// `None` otherwise.
fn filled_rect(placement: &Placement) -> Option<(u32, u32)> {
    let n = placement.qubit_count();
    let coord = |i: usize| placement.coord(PhysId(i as u32));
    let w = usize::try_from((0..n).map(|i| coord(i).0).max()?).ok()? + 1;
    let row_major = (0..n).all(|i| coord(i) == ((i % w) as i32, (i / w) as i32));
    (row_major && n.is_multiple_of(w)).then_some((w as u32, (n / w) as u32))
}

/// A machine being scheduled onto: topology + placement + clock.
pub struct Machine {
    /// Shared so a long-running compile service can hand many
    /// concurrent machines the same topology (and its lazily-built
    /// distance rows) without rebuilding per compile.
    topo: Arc<dyn Topology>,
    comm: CommModel,
    config: RouterConfig,
    accel: DistAccel,
    /// Flat neighbour rows for the Toffoli gather search, built on the
    /// first gather.
    neighbors: OnceLock<NeighborTable>,
    /// Upcoming-gate hint window for lookahead routers, filled by the
    /// executor before each gate.
    lookahead: Vec<Gate<VirtId>>,
    clock: Clock,
    placement: Placement,
    sink: ScheduleSink,
    braid_field: BraidField,
    /// Router scratch arenas, taken out while routing borrows the
    /// machine mutably.
    scratch: RouterScratch,
    /// Reusable physical-operand buffer for gate scheduling.
    phys_buf: Vec<PhysId>,
    /// Classical guard for the program gate currently being applied
    /// (set by [`Machine::apply_guarded`], consumed at record time;
    /// routing swaps stay unconditional).
    pending_guard: Option<ClbitId>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.topo.name())
            .field("comm", &self.comm)
            .field("qubits", &self.topo.qubit_count())
            .field("active", &self.placement.active_count())
            .field("depth", &self.clock.depth())
            .finish()
    }
}

impl Machine {
    /// Creates a machine over `topo` with the given configuration.
    pub fn new(topo: Box<dyn Topology>, config: MachineConfig) -> Self {
        Self::with_shared(Arc::from(topo), config)
    }

    /// Creates a machine over a *shared* topology: several machines
    /// (concurrent compiles) may hold the same `Arc`, reusing its
    /// cached distance rows. The machine never mutates the topology.
    pub fn with_shared(topo: Arc<dyn Topology>, config: MachineConfig) -> Self {
        let placement = Placement::new(topo.as_ref());
        let accel = if topo.manhattan_distance() {
            DistAccel::Manhattan {
                rect: filled_rect(&placement),
            }
        } else if let Some(tables) = topo.flat_tables() {
            DistAccel::Tables(tables)
        } else {
            DistAccel::Virtual
        };
        Machine {
            clock: Clock::new(topo.qubit_count()),
            placement,
            sink: ScheduleSink::new(config.record_schedule),
            braid_field: BraidField::new(),
            comm: config.comm,
            config: config.router,
            accel,
            neighbors: OnceLock::new(),
            lookahead: Vec::new(),
            scratch: RouterScratch::default(),
            phys_buf: Vec::new(),
            pending_guard: None,
            topo,
        }
    }

    /// Streams every gate the machine emits from now on through a
    /// [`PhysicalCheck`] over all its qubits, instead of recording or
    /// dropping it; [`Machine::finish`] hands the check back in
    /// [`RouteReport::check`]. Translation validation this way needs
    /// memory for the machine, not for the schedule. Replaces schedule
    /// and history recording, if it was on.
    ///
    /// # Panics
    ///
    /// Panics if a gate was already emitted: the check must see the
    /// whole stream.
    pub fn enable_physical_check(&mut self) {
        let stats = self.sink.stats();
        assert!(
            stats.program_gates == 0 && stats.swaps == 0,
            "physical check enabled after gates were emitted"
        );
        self.sink
            .check_with(PhysicalCheck::new(self.qubit_count(), self.comm));
    }

    /// The machine's topology.
    pub fn topo(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The communication model in effect.
    pub fn comm(&self) -> CommModel {
        self.comm
    }

    /// Total physical qubits.
    pub fn qubit_count(&self) -> usize {
        self.placement.qubit_count()
    }

    /// The placement state: occupancy, free cells, centroids.
    #[inline]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The scheduling clock: per-qubit availability and the makespan.
    #[inline]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Coupling-graph distance, answered from the acceleration mode
    /// resolved at construction (cached coordinates, flat tables, or
    /// the topology's closed form) — same values as `topo().distance`.
    #[inline]
    pub fn distance(&self, a: PhysId, b: PhysId) -> u32 {
        match &self.accel {
            DistAccel::Manhattan { .. } => {
                let (ax, ay) = self.placement.coord(a);
                let (bx, by) = self.placement.coord(b);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            DistAccel::Tables(t) => t.distance(a, b),
            DistAccel::Virtual => self.topo.distance(a, b),
        }
    }

    /// True if a two-qubit gate can act directly on `a` and `b`
    /// (equivalent to `topo().are_coupled`, via [`Machine::distance`]).
    #[inline]
    pub fn coupled(&self, a: PhysId, b: PhysId) -> bool {
        self.distance(a, b) == 1
    }

    /// Lays out in `path` the shortest `a → b` path a swap chain
    /// walks, `a` first and `b` last, each cell the next hop
    /// (`topo().next_hop`) from the one before toward `b`. On a filled
    /// lattice the path is closed form, read from the cached
    /// coordinates: the x run, then the y run, the step order of every
    /// Manhattan layout (see [`Topology::manhattan_distance`]).
    /// Elsewhere each hop comes from the flat tables where built, else
    /// from the topology.
    pub(crate) fn path_to(&self, a: PhysId, b: PhysId, path: &mut Vec<PhysId>) {
        path.clear();
        path.push(a);
        if let Some((w, _)) = self.lattice() {
            let ((ax, ay), (bx, by)) = (self.placement.coord(a), self.placement.coord(b));
            let run = |path: &mut Vec<PhysId>, steps: u32, forward: bool, stride: u32| {
                let from = path.last().expect("path starts at a").0;
                path.extend((1..=steps).map(|k| {
                    PhysId(if forward {
                        from + k * stride
                    } else {
                        from - k * stride
                    })
                }));
            };
            run(path, ax.abs_diff(bx), bx > ax, 1);
            run(path, ay.abs_diff(by), by > ay, w);
            return;
        }
        let mut cur = a;
        while cur != b {
            let hop = match &self.accel {
                DistAccel::Tables(t) => t.next_hop(cur, b),
                _ => self.topo.next_hop(cur, b),
            };
            cur = hop.expect("connected fabric");
            path.push(cur);
        }
    }

    /// The coupling graph's flat neighbour rows (built on first use).
    pub(crate) fn neighbor_table(&self) -> &NeighborTable {
        self.neighbors
            .get_or_init(|| NeighborTable::new(self.topo.as_ref()))
    }

    /// `(width, height)` when the cells fill a Manhattan lattice
    /// row-major: cell `(x, y)` is `PhysId(y · width + x)`.
    pub(crate) fn lattice(&self) -> Option<(u32, u32)> {
        match self.accel {
            DistAccel::Manhattan { rect } => rect,
            _ => None,
        }
    }

    /// Earliest start for a gate over the given virtual qubits.
    pub fn ready_time(&self, virts: &[VirtId]) -> u64 {
        virts
            .iter()
            .filter_map(|v| self.placement.phys_of(*v))
            .map(|p| self.clock.avail(p))
            .max()
            .unwrap_or(0)
    }

    /// Always empty: the placement renames its own reuse pool when a
    /// swap moves a free cell's |0⟩ (see [`Placement::pooled`]), so
    /// there is nothing to hand off. Kept only because the benchmark's
    /// route replay (`perfbench/src/replay.rs`) still calls it; delete
    /// it with those calls.
    pub fn drain_relocations(&mut self) -> Vec<(PhysId, PhysId)> {
        Vec::new()
    }

    /// The free slot nearest `center`. With `require_fresh`, only
    /// never-used slots qualify (a "brand new" qubit in the paper's
    /// allocation algorithm).
    pub fn nearest_free(&self, center: (i32, i32), require_fresh: bool) -> Option<PhysId> {
        let cells = if require_fresh {
            // Once every cell has been touched, a fresh-only query can
            // only fail — skip it outright. Never-used cells are
            // necessarily free, so the fresh set needs no occupancy
            // check.
            if self.placement.fresh_count() == 0 {
                return None;
            }
            self.placement.fresh_cells()
        } else {
            self.placement.free_cells()
        };
        self.topo.nearest_in(center, cells.words())
    }

    /// Places virtual qubit `v` on slot `p`, taking `p` out of the
    /// reuse pool if it was pooled.
    ///
    /// # Errors
    ///
    /// [`RouteError::SlotOccupied`] / [`RouteError::AlreadyPlaced`].
    pub fn place_at(&mut self, v: VirtId, p: PhysId) -> Result<(), RouteError> {
        self.placement.bind(v, p)?;
        self.sink.event(PlacementEvent::Place { virt: v, phys: p });
        Ok(())
    }

    /// Releases virtual qubit `v`, closing its liveness segment, and
    /// returns the physical slot it held, which joins the end of the
    /// reuse pool ([`Placement::pooled`]).
    ///
    /// # Errors
    ///
    /// [`RouteError::UnplacedQubit`] if `v` is not placed.
    pub fn release(&mut self, v: VirtId) -> Result<PhysId, RouteError> {
        let p = self.placement.unbind(v)?;
        self.sink
            .event(PlacementEvent::Release { virt: v, phys: p });
        if let Some((first, last)) = self.sink.take_usage(v) {
            self.sink.push_segment(LivenessSegment {
                virt: v,
                phys: p,
                start: first,
                end: last,
            });
        }
        Ok(p)
    }

    /// The running communication factor `S` (Section IV-D): average
    /// swap-chain length per multi-qubit gate on NISQ machines, average
    /// braid conflicts per braid on FT machines.
    pub fn comm_factor(&self) -> f64 {
        match self.comm {
            CommModel::SwapChains => {
                let stats = self.sink.stats();
                if stats.multi_qubit_gates == 0 {
                    0.0
                } else {
                    stats.swaps as f64 / stats.multi_qubit_gates as f64
                }
            }
            CommModel::Braiding => self.braid_field.avg_conflicts(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CommStats {
        self.sink.stats()
    }

    /// True when the active router consumes the lookahead window —
    /// callers skip building the window otherwise.
    pub fn wants_lookahead(&self) -> bool {
        self.comm == CommModel::SwapChains && self.config.kind.wants_lookahead()
    }

    /// The upcoming-gate hint window the router sees on the next
    /// [`Machine::apply`]. Callers clear and refill it per gate; a
    /// stale window only degrades routing scores, never correctness.
    pub fn lookahead_mut(&mut self) -> &mut Vec<Gate<VirtId>> {
        &mut self.lookahead
    }

    /// Records a Toffoli operand-gathering retry (router bookkeeping).
    pub(crate) fn note_gather_retry(&mut self) {
        self.sink.stats.gather_retries += 1;
    }

    /// Records a Toffoli gather that gave up before full adjacency.
    pub(crate) fn note_gather_failure(&mut self) {
        self.sink.stats.gather_failures += 1;
    }

    /// Moves the qubit on `path[0]` along `path`, one routing SWAP
    /// ([`Gate::duration`] cycles) per pair of consecutive, coupled
    /// cells. Each swap starts once both its cells are free; the qubit
    /// it meets (or a free cell's |0⟩, with its reuse-pool entry) steps
    /// back into the cell the mover left, and its liveness widens over
    /// the swap. When the sink records or checks, each swap is emitted
    /// with its two [`PlacementEvent::Move`]s, the mover's first. The
    /// mover's own binding, liveness and final-cell clock are written
    /// once, after the last swap. This is the only code that moves a
    /// qubit during routing.
    pub(crate) fn shift_along(&mut self, path: &[PhysId]) {
        debug_assert!(
            path.windows(2).all(|w| self.coupled(w[0], w[1])),
            "swap chain over non-coupled cells"
        );
        let (&[first, second, ..], Some(&last)) = (path, path.last()) else {
            return;
        };
        let mover = self
            .placement
            .occupant_of(first)
            .expect("a swap chain moves a placed qubit");
        let dur = Gate::Swap {
            a: first,
            b: second,
        }
        .duration();
        let emit = self.sink.emits_gates();
        let (clock, sink) = (&mut self.clock, &mut self.sink);
        let began = clock.avail(first).max(clock.avail(second));
        let mut ready = began;
        self.placement.shift_along(path, |from, to, displaced| {
            let start = ready.max(clock.avail(to));
            ready = start + dur;
            clock.hold(from, ready);
            if let Some(v) = displaced {
                sink.note_usage(v, start, ready);
            }
            if emit {
                sink.event(PlacementEvent::Move {
                    virt: mover,
                    from,
                    to,
                });
                if let Some(v) = displaced {
                    sink.event(PlacementEvent::Move {
                        virt: v,
                        from: to,
                        to: from,
                    });
                }
                sink.record(Gate::Swap { a: from, b: to }, start, dur, true);
            }
        });
        clock.hold(last, ready);
        sink.note_usage(mover, began, ready);
        sink.stats.swaps += path.len() as u64 - 1;
    }

    /// Applies a program gate: resolves connectivity, schedules ASAP,
    /// updates statistics and liveness. Returns the start cycle.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnloweredMcx`] for any `Mcx`, before anything
    /// moves; [`RouteError::UnplacedQubit`] if an operand has no
    /// placement.
    pub fn apply(&mut self, gate: &Gate<VirtId>) -> Result<u64, RouteError> {
        if let Gate::Mcx { controls, .. } = gate {
            return Err(RouteError::UnloweredMcx {
                controls: controls.len(),
            });
        }
        match self.comm {
            CommModel::SwapChains => self.apply_swapchain(gate),
            CommModel::Braiding => self.apply_braided(gate),
        }
    }

    /// Schedules a mid-circuit measurement of `v` into `clbit`: the
    /// qubit's cell is occupied for one cycle, the event counts as a
    /// program gate, and the recorded schedule (when on) carries the
    /// classical destination so simulators and validators can replay
    /// the feedback. No routing is needed — measurement is local.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnplacedQubit`] if `v` has no placement.
    pub fn measure(&mut self, v: VirtId, clbit: ClbitId) -> Result<u64, RouteError> {
        let p = self
            .placement
            .phys_of(v)
            .ok_or(RouteError::UnplacedQubit { virt: v })?;
        let start = self.clock.occupy_asap(&[p], 1);
        self.sink.note_usage(v, start, start + 1);
        self.sink.stats.program_gates += 1;
        if self.sink.emits_gates() {
            self.sink
                .record_classical(Gate::X { target: p }, start, 1, false, None, Some(clbit));
        }
        Ok(start)
    }

    /// Applies a classically controlled program gate: routed and
    /// scheduled exactly like the bare gate (its cell is occupied
    /// whether or not the guard fires at runtime), recorded with the
    /// guarding classical bit. Routing swaps the gate may need stay
    /// unconditional — they move data, not outcomes.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnplacedQubit`] if an operand has no placement.
    pub fn apply_guarded(
        &mut self,
        gate: &Gate<VirtId>,
        clbit: ClbitId,
    ) -> Result<u64, RouteError> {
        self.pending_guard = Some(clbit);
        let result = self.apply(gate);
        self.pending_guard = None;
        result
    }

    /// Equal to [`Machine::apply`] on each gate in order; perfbench's route replay uses it.
    pub fn apply_layer(&mut self, gates: &[Gate<VirtId>]) -> Result<(), RouteError> {
        for gate in gates {
            self.apply(gate)?;
        }
        Ok(())
    }

    /// Takes the reused operand buffer out of the machine, filled with
    /// the gate's placements in control-then-target order; hand it back
    /// through `self.phys_buf` when done.
    fn take_phys_operands(&mut self, gate: &Gate<VirtId>) -> Result<Vec<PhysId>, RouteError> {
        let mut buf = std::mem::take(&mut self.phys_buf);
        buf.clear();
        let mut missing = None;
        gate.for_each_qubit(|v| match self.placement.phys_of(*v) {
            Some(p) => buf.push(p),
            None => missing = Some(*v),
        });
        match missing {
            Some(v) => {
                self.phys_buf = buf;
                Err(RouteError::UnplacedQubit { virt: v })
            }
            None => Ok(buf),
        }
    }

    /// Placement of an operand that routing already verified.
    pub(crate) fn phys_must(&self, v: VirtId) -> PhysId {
        self.placement.phys_of(v).expect("operand placed")
    }

    /// Schedules an already-routed program gate ASAP and updates
    /// statistics, liveness, and the recorded circuit.
    fn schedule_program_gate(&mut self, gate: &Gate<VirtId>) -> Result<u64, RouteError> {
        let buf = self.take_phys_operands(gate)?;
        let dur = gate.duration();
        let start = self.clock.occupy_asap(&buf, dur);
        self.phys_buf = buf;
        self.note_program_gate(gate, start, dur);
        Ok(start)
    }

    fn apply_swapchain(&mut self, gate: &Gate<VirtId>) -> Result<u64, RouteError> {
        if gate.arity() >= 2 {
            router::check_placed(self, gate)?;
            // The scratch arenas and window leave the machine while the
            // router moves qubits through it.
            let mut scratch = std::mem::take(&mut self.scratch);
            match self.config.kind {
                RouterKind::Greedy => router::greedy(self, &mut scratch, gate),
                RouterKind::Lookahead => {
                    let window = std::mem::take(&mut self.lookahead);
                    router::lookahead(self, &mut scratch, &window, gate);
                    self.lookahead = window;
                }
            }
            self.scratch = scratch;
        }
        self.schedule_program_gate(gate)
    }

    fn apply_braided(&mut self, gate: &Gate<VirtId>) -> Result<u64, RouteError> {
        let phys = self.take_phys_operands(gate)?;
        let (start, dur) = match gate {
            // `apply` refuses `Mcx` before it gets here.
            Gate::X { .. } | Gate::Mcx { .. } => {
                let dur = gate.duration();
                (self.clock.occupy_asap(&phys, dur), dur)
            }
            Gate::Cx { .. } | Gate::Swap { .. } => {
                let dur = gate.duration();
                (self.braid_pair(phys[0], phys[1], dur), dur)
            }
            Gate::Ccx { .. } => {
                // Three sequential pairwise braids of two cycles each —
                // the braided Toffoli of the magic-state literature.
                let s1 = self.braid_pair(phys[0], phys[2], 2);
                let s2 = self.braid_pair(phys[1], phys[2], 2);
                let s3 = self.braid_pair(phys[0], phys[1], 2);
                let start = s1.min(s2).min(s3);
                let end = (s1 + 2).max(s2 + 2).max(s3 + 2);
                (start, end - start)
            }
        };
        self.phys_buf = phys;
        self.note_program_gate(gate, start, dur);
        Ok(start)
    }

    /// Liveness/stats/record bookkeeping for a scheduled program gate.
    fn note_program_gate(&mut self, gate: &Gate<VirtId>, start: u64, dur: u64) {
        let sink = &mut self.sink;
        gate.for_each_qubit(|v| sink.note_usage(*v, start, start + dur));
        sink.stats.program_gates += 1;
        if gate.arity() >= 2 {
            sink.stats.multi_qubit_gates += 1;
        }
        let guard = self.pending_guard;
        if self.sink.emits_gates() {
            let phys_gate = gate.map(|v| self.phys_must(*v));
            self.sink
                .record_classical(phys_gate, start, dur, false, guard, None);
        }
    }

    /// Schedules one braid between two placed qubits; returns start.
    fn braid_pair(&mut self, a: PhysId, b: PhysId, dur: u64) -> u64 {
        let ready = self.clock.ready_at(&[a, b]);
        let ca = self.placement.coord(a);
        let cb = self.placement.coord(b);
        let before = self.braid_field.conflicts();
        let start = self.braid_field.route(ca, cb, ready, dur);
        self.sink.stats.braids += 1;
        self.sink.stats.braid_conflicts += self.braid_field.conflicts() - before;
        self.clock.occupy(&[a, b], start, dur);
        start
    }

    /// Finishes the run: closes open liveness segments at the final
    /// makespan and returns the report.
    pub fn finish(self) -> RouteReport {
        let depth = self.clock.depth();
        let final_placement = self.placement.final_placement();
        let footprint = self.placement.footprint();
        let peak_active = self.placement.peak_active();
        let (stats, schedule, history, check, mut segments, open) = self.sink.into_parts();
        for (v, (first, last)) in open {
            // Still-live qubits (outputs, garbage never reclaimed)
            // stay exposed until program end.
            let phys = final_placement.get(&v).copied().unwrap_or(PhysId(0));
            segments.push(LivenessSegment {
                virt: v,
                phys,
                start: first,
                end: depth.max(last),
            });
        }
        RouteReport {
            depth,
            stats,
            segments,
            schedule,
            peak_active,
            footprint,
            final_placement,
            placement_history: history,
            router: self.config.kind,
            check,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix;
    use square_arch::{FullTopology, GridTopology, HeavyHexTopology, LineTopology, RingTopology};

    fn grid_machine(w: u32, h: u32) -> Machine {
        Machine::new(
            Box::new(GridTopology::new(w, h)),
            MachineConfig::nisq().with_schedule(),
        )
    }

    #[test]
    fn place_and_release_round_trip() {
        let mut m = grid_machine(3, 3);
        m.place_at(VirtId(0), PhysId(4)).unwrap();
        assert_eq!(m.placement().active_count(), 1);
        assert!(!m.placement().is_free(PhysId(4)));
        assert!(m.placement().was_ever_used(PhysId(4)));
        let p = m.release(VirtId(0)).unwrap();
        assert_eq!(p, PhysId(4));
        assert!(m.placement().is_free(PhysId(4)));
        assert!(
            m.placement().was_ever_used(PhysId(4)),
            "fresh vs reused distinction"
        );
    }

    #[test]
    fn double_place_and_bad_release_error() {
        let mut m = grid_machine(2, 2);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        assert!(matches!(
            m.place_at(VirtId(0), PhysId(1)),
            Err(RouteError::AlreadyPlaced { .. })
        ));
        assert!(matches!(
            m.place_at(VirtId(1), PhysId(0)),
            Err(RouteError::SlotOccupied { .. })
        ));
        assert!(matches!(
            m.release(VirtId(9)),
            Err(RouteError::UnplacedQubit { .. })
        ));
    }

    #[test]
    fn distant_cnot_inserts_swaps() {
        let mut m = grid_machine(5, 1);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(4)).unwrap();
        m.apply(&Gate::Cx {
            control: VirtId(0),
            target: VirtId(1),
        })
        .unwrap();
        // distance 4 → 3 swaps to become adjacent.
        assert_eq!(m.stats().swaps, 3);
        // control moved next to target
        assert_eq!(m.placement().phys_of(VirtId(0)), Some(PhysId(3)));
        assert!(m.comm_factor() > 0.0);
    }

    #[test]
    fn adjacent_cnot_needs_no_swaps() {
        let mut m = grid_machine(2, 1);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(1)).unwrap();
        m.apply(&Gate::Cx {
            control: VirtId(0),
            target: VirtId(1),
        })
        .unwrap();
        assert_eq!(m.stats().swaps, 0);
        assert_eq!(m.comm_factor(), 0.0);
    }

    #[test]
    fn toffoli_gathers_operands() {
        let mut m = grid_machine(5, 5);
        m.place_at(VirtId(0), PhysId(0)).unwrap(); // (0,0)
        m.place_at(VirtId(1), PhysId(24)).unwrap(); // (4,4)
        m.place_at(VirtId(2), PhysId(12)).unwrap(); // (2,2) target
        m.apply(&Gate::Ccx {
            c0: VirtId(0),
            c1: VirtId(1),
            target: VirtId(2),
        })
        .unwrap();
        let pt = m.placement().phys_of(VirtId(2)).unwrap();
        let p0 = m.placement().phys_of(VirtId(0)).unwrap();
        let p1 = m.placement().phys_of(VirtId(1)).unwrap();
        assert!(m.topo().are_coupled(p0, pt));
        assert!(m.topo().are_coupled(p1, pt));
        assert_eq!(m.stats().gather_failures, 0);
    }

    #[test]
    fn full_topology_never_swaps() {
        let mut m = Machine::new(Box::new(FullTopology::new(8)), MachineConfig::nisq());
        for i in 0..8 {
            m.place_at(VirtId(i), PhysId(i)).unwrap();
        }
        for i in 0..7u32 {
            m.apply(&Gate::Cx {
                control: VirtId(i),
                target: VirtId(i + 1),
            })
            .unwrap();
        }
        m.apply(&Gate::Ccx {
            c0: VirtId(0),
            c1: VirtId(4),
            target: VirtId(7),
        })
        .unwrap();
        assert_eq!(m.stats().swaps, 0);
    }

    #[test]
    fn braided_machine_counts_conflicts() {
        let mut m = Machine::new(Box::new(GridTopology::new(6, 6)), MachineConfig::ft());
        // Two crossing long braids on fresh qubits.
        m.place_at(VirtId(0), PhysId(6)).unwrap(); // (0,1)
        m.place_at(VirtId(1), PhysId(11)).unwrap(); // (5,1)
        m.place_at(VirtId(2), PhysId(2)).unwrap(); // (2,0)
        m.place_at(VirtId(3), PhysId(26)).unwrap(); // (2,4)
        m.apply(&Gate::Cx {
            control: VirtId(0),
            target: VirtId(1),
        })
        .unwrap();
        m.apply(&Gate::Cx {
            control: VirtId(2),
            target: VirtId(3),
        })
        .unwrap();
        assert_eq!(m.stats().swaps, 0, "braiding inserts no swaps");
        assert_eq!(m.stats().braids, 2);
        // Both L-orientations of the second braid cross the first; it
        // must have queued.
        assert!(m.clock().depth() >= 2);
    }

    #[test]
    fn liveness_segments_cover_usage() {
        let mut m = grid_machine(3, 1);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(1)).unwrap();
        m.apply(&Gate::Cx {
            control: VirtId(0),
            target: VirtId(1),
        })
        .unwrap();
        m.release(VirtId(1)).unwrap();
        let report = m.finish();
        assert_eq!(report.segments.len(), 2);
        let seg1 = report
            .segments
            .iter()
            .find(|s| s.virt == VirtId(1))
            .unwrap();
        assert_eq!((seg1.start, seg1.end), (0, 1));
        // VirtId(0) never released: closed at program end.
        let seg0 = report
            .segments
            .iter()
            .find(|s| s.virt == VirtId(0))
            .unwrap();
        assert_eq!(seg0.end, report.depth);
        assert_eq!(report.peak_active, 2);
        assert_eq!(report.footprint, 2);
        assert_eq!(report.schedule.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn placement_history_tracks_routing_moves() {
        let mut m = grid_machine(5, 1);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(4)).unwrap();
        m.apply(&Gate::Cx {
            control: VirtId(0),
            target: VirtId(1),
        })
        .unwrap();
        m.release(VirtId(1)).unwrap();
        let report = m.finish();
        let history = report.placement_history.expect("recording on");
        // VirtId(0) journeyed 0 → 1 → 2 → 3 chasing its target.
        assert_eq!(
            journey_of(&history, VirtId(0)),
            vec![PhysId(0), PhysId(1), PhysId(2), PhysId(3)]
        );
        assert_eq!(journey_of(&history, VirtId(1)), vec![PhysId(4)]);
        assert!(history.contains(&PlacementEvent::Release {
            virt: VirtId(1),
            phys: PhysId(4)
        }));
        assert!(history.iter().all(|ev| ev.virt().0 <= 1));
    }

    #[test]
    fn history_off_by_default() {
        let mut m = Machine::new(Box::new(GridTopology::new(2, 2)), MachineConfig::nisq());
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        assert!(m.finish().placement_history.is_none());
    }

    #[test]
    fn streamed_check_equals_a_run_over_the_recorded_schedule() {
        let drive = |m: &mut Machine| {
            m.place_at(VirtId(0), PhysId(0)).unwrap();
            m.place_at(VirtId(1), PhysId(4)).unwrap();
            m.apply(&Gate::X { target: VirtId(0) }).unwrap();
            m.apply(&Gate::Cx {
                control: VirtId(0),
                target: VirtId(1),
            })
            .unwrap();
            m.measure(VirtId(1), ClbitId(0)).unwrap();
            m.apply_guarded(&Gate::X { target: VirtId(1) }, ClbitId(0))
                .unwrap();
        };
        let mut recorded = grid_machine(5, 1);
        drive(&mut recorded);
        let recorded = recorded.finish();
        assert!(recorded.check.is_none());
        let schedule = recorded.schedule.expect("recording on");
        let mut streamed = Machine::new(Box::new(GridTopology::new(5, 1)), MachineConfig::nisq());
        streamed.enable_physical_check();
        drive(&mut streamed);
        let streamed = streamed.finish();
        assert!(streamed.schedule.is_none() && streamed.placement_history.is_none());
        let check = streamed.check.expect("check on");
        assert_eq!(
            check,
            PhysicalCheck::run(&schedule, 5, CommModel::SwapChains)
        );
        assert_eq!(check.gates(), schedule.len() as u64);
        assert!(check.comm_gates() > 0, "routing swapped");
        assert_eq!(check.clbits().get(ClbitId(0)), Some(true));
        assert_eq!(check.violation(), None);
    }

    #[test]
    #[should_panic(expected = "after gates were emitted")]
    fn physical_check_must_see_the_whole_stream() {
        let mut m = Machine::new(Box::new(GridTopology::new(2, 1)), MachineConfig::nisq());
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.apply(&Gate::X { target: VirtId(0) }).unwrap();
        m.enable_physical_check();
    }

    #[test]
    fn measure_and_guarded_gate_record_their_clbit() {
        let mut m = grid_machine(2, 1);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        let s0 = m.measure(VirtId(0), ClbitId(5)).unwrap();
        let s1 = m
            .apply_guarded(&Gate::X { target: VirtId(0) }, ClbitId(5))
            .unwrap();
        assert_eq!((s0, s1), (0, 1), "measurement occupies its cell");
        assert_eq!(m.stats().program_gates, 2);
        assert_eq!(m.stats().swaps, 0);
        let report = m.finish();
        let sched = report.schedule.unwrap();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched[0].measure, Some(ClbitId(5)));
        assert_eq!(sched[0].guard, None);
        assert_eq!(sched[1].guard, Some(ClbitId(5)));
        assert_eq!(sched[1].measure, None);
        assert_eq!(sched[1].gate, Gate::X { target: PhysId(0) });
    }

    #[test]
    fn guard_does_not_leak_to_later_gates_or_swaps() {
        let mut m = grid_machine(5, 1);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(4)).unwrap();
        // A guarded distant CNOT: the inserted routing swaps must stay
        // unconditional, and a following bare gate must be unguarded.
        m.apply_guarded(
            &Gate::Cx {
                control: VirtId(0),
                target: VirtId(1),
            },
            ClbitId(0),
        )
        .unwrap();
        m.apply(&Gate::X { target: VirtId(1) }).unwrap();
        let sched = m.finish().schedule.unwrap();
        let guarded: Vec<_> = sched.iter().filter(|g| g.guard.is_some()).collect();
        assert_eq!(guarded.len(), 1);
        assert!(matches!(guarded[0].gate, Gate::Cx { .. }));
        assert!(sched
            .iter()
            .filter(|g| g.is_comm)
            .all(|g| g.guard.is_none()));
        assert!(sched.last().unwrap().guard.is_none());
    }

    /// Every operand is looked up before the first swap: an unplaced
    /// operand in any slot fails the gate with nothing emitted, and
    /// names the same qubit under both routers (with two missing, the
    /// control of a `Cx`, the first of a `Swap`, the target of a `Ccx`).
    #[test]
    fn unplaced_operand_is_an_error() {
        let (a, b, c, gone, also_gone) = (VirtId(0), VirtId(1), VirtId(2), VirtId(9), VirtId(8));
        let cx = |control, target| Gate::Cx { control, target };
        let swap = |a, b| Gate::Swap { a, b };
        let ccx = |c0, c1, target| Gate::Ccx { c0, c1, target };
        let cases = [
            (cx(gone, b), gone),
            (cx(a, gone), gone),
            (cx(gone, also_gone), gone),
            (swap(gone, b), gone),
            (swap(a, gone), gone),
            (swap(gone, also_gone), gone),
            (ccx(gone, b, c), gone),
            (ccx(a, gone, c), gone),
            (ccx(a, b, gone), gone),
            (ccx(also_gone, b, gone), gone),
            (ccx(a, also_gone, gone), gone),
        ];
        for kind in RouterKind::ALL {
            for (gate, named) in &cases {
                // Placed operands sit far apart, so routing would swap.
                let mut m = Machine::new(
                    Box::new(GridTopology::new(5, 5)),
                    MachineConfig::nisq().with_router(kind),
                );
                m.place_at(a, PhysId(0)).unwrap();
                m.place_at(b, PhysId(24)).unwrap();
                m.place_at(c, PhysId(4)).unwrap();
                let err = m.apply(gate);
                assert_eq!(
                    err,
                    Err(RouteError::UnplacedQubit { virt: *named }),
                    "{kind}: {gate:?}"
                );
                assert_eq!(m.stats().swaps, 0, "{kind}: {gate:?} swapped");
            }
        }
    }

    #[test]
    fn mcx_is_refused_before_routing() {
        let configs = [
            MachineConfig::nisq().with_router(RouterKind::Greedy),
            MachineConfig::nisq().with_router(RouterKind::Lookahead),
            MachineConfig::ft(),
        ];
        // Operands on the corners and the centre: any routing or
        // braiding would have to move or braid something.
        let cells = [0, 24, 4, 20, 12];
        for config in configs {
            for k in 0..cells.len() {
                let mut m = Machine::new(Box::new(GridTopology::new(5, 5)), config.with_schedule());
                for (v, &p) in cells.iter().enumerate() {
                    m.place_at(VirtId(v as u32), PhysId(p)).unwrap();
                }
                let gate = Gate::Mcx {
                    controls: (0..k as u32).map(VirtId).collect(),
                    target: VirtId(k as u32),
                };
                let want = Err(RouteError::UnloweredMcx { controls: k });
                assert_eq!(m.apply(&gate), want, "{config:?}: {k} controls");
                assert_eq!(m.apply_guarded(&gate, ClbitId(0)), want);
                let stats = *m.stats();
                assert_eq!(stats, CommStats::default(), "{config:?}: {k} controls");
                let report = m.finish();
                assert_eq!(report.schedule.map(|s| s.len()), Some(0));
            }
        }
    }

    #[test]
    fn nearest_free_respects_freshness() {
        let mut m = grid_machine(3, 1);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.release(VirtId(0)).unwrap();
        // Slot 0 is free but used; slot 1 is fresh.
        assert_eq!(m.nearest_free((0, 0), false), Some(PhysId(0)));
        assert_eq!(m.nearest_free((0, 0), true), Some(PhysId(1)));
    }

    /// The lattice gather walk names cells `y · width + x`, so a
    /// Manhattan layout numbered any other way gets no lattice rect.
    #[test]
    fn lattice_rect_requires_row_major_cells() {
        /// A grid whose coordinates are transposed: column-major cells.
        struct ColumnMajor(GridTopology);
        impl Topology for ColumnMajor {
            fn name(&self) -> &str {
                "column-major"
            }
            fn qubit_count(&self) -> usize {
                self.0.qubit_count()
            }
            fn coord(&self, q: PhysId) -> (i32, i32) {
                let (x, y) = self.0.coord(q);
                (y, x)
            }
            fn distance(&self, a: PhysId, b: PhysId) -> u32 {
                self.0.distance(a, b)
            }
            fn for_each_neighbor(&self, q: PhysId, f: &mut dyn FnMut(PhysId)) {
                self.0.for_each_neighbor(q, f)
            }
            fn manhattan_distance(&self) -> bool {
                true
            }
            fn next_hop(&self, a: PhysId, b: PhysId) -> Option<PhysId> {
                self.0.next_hop(a, b)
            }
            fn nearest_in(&self, center: (i32, i32), cells: &[u64]) -> Option<PhysId> {
                self.0.nearest_in((center.1, center.0), cells)
            }
        }
        let nisq = MachineConfig::nisq;
        assert_eq!(grid_machine(5, 3).lattice(), Some((5, 3)));
        let line = Machine::new(Box::new(LineTopology::new(7)), nisq());
        assert_eq!(line.lattice(), Some((7, 1)));
        let transposed = Machine::new(Box::new(ColumnMajor(GridTopology::new(5, 3))), nisq());
        assert_eq!(transposed.lattice(), None);
        let column = Machine::new(Box::new(ColumnMajor(GridTopology::new(1, 4))), nisq());
        assert_eq!(
            column.lattice(),
            Some((4, 1)),
            "a 1-wide column reads as a row"
        );
    }

    /// `apply_layer` must be bit-identical to gate-at-a-time routing
    /// (perfbench's route replay relies on it): same swaps, depth,
    /// liveness, history, and schedule.
    #[test]
    fn apply_layer_matches_gate_at_a_time() {
        let gates: Vec<Gate<VirtId>> = (0..12u32)
            .map(|i| Gate::Cx {
                control: VirtId(i),
                target: VirtId((i + 7) % 16),
            })
            .chain([
                Gate::Ccx {
                    c0: VirtId(0),
                    c1: VirtId(15),
                    target: VirtId(8),
                },
                Gate::X { target: VirtId(3) },
                Gate::Cx {
                    control: VirtId(3),
                    target: VirtId(0),
                },
            ])
            .collect();
        let build = || {
            let mut m = Machine::new(
                Box::new(GridTopology::new(8, 8)),
                MachineConfig::nisq()
                    .with_router(RouterKind::Greedy)
                    .with_schedule(),
            );
            for i in 0..16u32 {
                // Spread operands so routing has real work.
                m.place_at(VirtId(i), PhysId(i * 4)).unwrap();
            }
            m
        };
        let mut serial = build();
        for g in &gates {
            serial.apply(g).unwrap();
        }
        let mut layered = build();
        layered.apply_layer(&gates).unwrap();
        let (a, b) = (serial.finish(), layered.finish());
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.swaps > 0, "scenario must actually route");
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.final_placement, b.final_placement);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.placement_history, b.placement_history);
    }

    /// Chain paths, closed form on a lattice, step exactly as the
    /// layout's own `next_hop`, for every ordered pair of cells: on
    /// every grid up to 9 × 9, every line up to 40, and rings and
    /// heavy-hex lattices, which take the per-hop path.
    #[test]
    fn chain_paths_follow_the_topology_next_hops() {
        let grids = (1..=9).flat_map(|w| (1..=9).map(move |h| (w, h)));
        let nisq = MachineConfig::nisq;
        let machines = grids
            .map(|(w, h)| grid_machine(w, h))
            .chain((1..=40).map(|n| Machine::new(Box::new(LineTopology::new(n)), nisq())))
            .chain((3..=12).map(|n| Machine::new(Box::new(RingTopology::new(n)), nisq())))
            .chain((1..=3).map(|d| Machine::new(Box::new(HeavyHexTopology::new(d)), nisq())));
        let mut path = Vec::new();
        for m in machines {
            let n = m.qubit_count() as u32;
            for a in (0..n).map(PhysId) {
                for b in (0..n).map(PhysId) {
                    let mut want = vec![a];
                    while let Some(hop) = m.topo().next_hop(*want.last().unwrap(), b) {
                        want.push(hop);
                    }
                    m.path_to(a, b, &mut path);
                    assert_eq!(path, want, "{m:?}: {a} → {b}");
                }
            }
        }
    }

    /// Where the gates of a lockstep run go.
    #[derive(Debug, Clone, Copy)]
    enum Emission {
        Off,
        Record,
        Check,
    }

    fn emitting(topo: &Arc<dyn Topology>, emission: Emission) -> Machine {
        let config = MachineConfig::nisq();
        let config = match emission {
            Emission::Record => config.with_schedule(),
            Emission::Off | Emission::Check => config,
        };
        let mut m = Machine::with_shared(Arc::clone(topo), config);
        if let Emission::Check = emission {
            m.enable_physical_check();
        }
        m
    }

    /// One routing SWAP as the machine applied it before chains moved
    /// in one pass (`swap_cells`): an ASAP slot for both cells, the
    /// occupants exchanged, both movers' liveness widened and their
    /// moves logged, the swap counted and emitted.
    fn reference_swap(m: &mut Machine, p: PhysId, q: PhysId) {
        let swap = Gate::Swap { a: p, b: q };
        let dur = swap.duration();
        let start = m.clock.ready_at(&[p, q]);
        m.clock.occupy(&[p, q], start, dur);
        let (vp, vq) = m.placement.swap_occupants_reference(p, q);
        for (v, from, to) in [(vp, p, q), (vq, q, p)] {
            if let Some(virt) = v {
                m.sink.note_usage(virt, start, start + dur);
                m.sink.event(PlacementEvent::Move { virt, from, to });
            }
        }
        m.sink.stats.swaps += 1;
        m.sink.record(swap, start, dur, true);
    }

    /// What the cells a chain enters held before it ran.
    #[derive(Debug, Default)]
    struct Entered {
        occupied: usize,
        pooled: usize,
        fresh: usize,
        /// Free, used and not pooled: left behind by an earlier chain.
        spent: usize,
    }

    /// Drives a machine that moves chains with [`Machine::shift_along`]
    /// and one that applies [`reference_swap`] per hop through the same
    /// seeded script: `seated` qubits placed and half of them released
    /// (filling the reuse pool), then `chains` chains — random walks
    /// and next-hop walks of up to `max_len` cells from a placed qubit
    /// — mixed with placements, releases and one-qubit gates. Checks
    /// the chain's cells after every chain and the whole placement,
    /// clock and sink every `full_every` chains and at the end.
    fn lockstep(
        topo: Arc<dyn Topology>,
        emission: Emission,
        seed: u64,
        (seated, chains, max_len, full_every): (usize, usize, u64, usize),
    ) -> Entered {
        let mut rng = SplitMix(seed);
        let (mut a, mut b) = (emitting(&topo, emission), emitting(&topo, emission));
        let n = topo.qubit_count() as u64;
        let mut live: Vec<VirtId> = Vec::new();
        let mut next_virt = 0u32;
        let mut entered = Entered::default();
        let mut path = Vec::new();
        let same = |a: &Machine, b: &Machine, at: usize| {
            assert!(
                a.placement == b.placement,
                "placement diverged at chain {at}"
            );
            assert!(a.clock == b.clock, "clock diverged at chain {at}");
            assert!(a.sink == b.sink, "sink diverged at chain {at}");
        };
        let mut place =
            |a: &mut Machine, b: &mut Machine, rng: &mut SplitMix, live: &mut Vec<VirtId>| {
                let start = rng.below(n);
                let Some(p) = (0..n)
                    .map(|i| PhysId(((start + i) % n) as u32))
                    .find(|&p| a.placement.is_free(p))
                else {
                    return;
                };
                let v = VirtId(next_virt);
                next_virt += 1;
                a.place_at(v, p).unwrap();
                b.place_at(v, p).unwrap();
                live.push(v);
            };
        let release =
            |a: &mut Machine, b: &mut Machine, rng: &mut SplitMix, live: &mut Vec<VirtId>| {
                if !live.is_empty() {
                    let v = live.swap_remove(rng.below(live.len() as u64) as usize);
                    assert_eq!(a.release(v).unwrap(), b.release(v).unwrap());
                }
            };
        for _ in 0..seated {
            place(&mut a, &mut b, &mut rng, &mut live);
        }
        for _ in 0..seated / 2 {
            release(&mut a, &mut b, &mut rng, &mut live);
        }
        let mut done = 0;
        while done < chains {
            match rng.below(10) {
                0..=2 => place(&mut a, &mut b, &mut rng, &mut live),
                3 | 4 => release(&mut a, &mut b, &mut rng, &mut live),
                5 if !live.is_empty() => {
                    let v = live[rng.below(live.len() as u64) as usize];
                    let gate = Gate::X { target: v };
                    assert_eq!(a.apply(&gate), b.apply(&gate));
                }
                _ if !live.is_empty() => {
                    let v = live[rng.below(live.len() as u64) as usize];
                    let len = 1 + rng.below(max_len) as usize;
                    if rng.below(2) == 0 {
                        let goal = PhysId(rng.below(n) as u32);
                        a.path_to(a.phys_must(v), goal, &mut path);
                        path.truncate(len);
                    } else {
                        path.clear();
                        path.push(a.phys_must(v));
                        let mut nbrs = Vec::new();
                        while path.len() < len {
                            nbrs.clear();
                            topo.for_each_neighbor(*path.last().unwrap(), &mut |q| nbrs.push(q));
                            path.push(nbrs[rng.below(nbrs.len() as u64) as usize]);
                        }
                    }
                    for &p in &path[1..] {
                        let pl = &a.placement;
                        if !pl.is_free(p) {
                            entered.occupied += 1;
                        } else if pl.pooled().contains(&p) {
                            entered.pooled += 1;
                        } else if !pl.was_ever_used(p) {
                            entered.fresh += 1;
                        } else {
                            entered.spent += 1;
                        }
                    }
                    a.shift_along(&path);
                    for w in path.windows(2) {
                        reference_swap(&mut b, w[0], w[1]);
                    }
                    for &p in &path {
                        assert_eq!(a.placement.occupant_of(p), b.placement.occupant_of(p));
                        assert_eq!(a.clock.avail(p), b.clock.avail(p), "chain {done}");
                    }
                    done += 1;
                    if done % full_every == 0 {
                        same(&a, &b, done);
                    }
                }
                _ => {}
            }
        }
        same(&a, &b, done);
        assert!(a.stats().swaps > 0);
        entered
    }

    /// The chain mover against the per-swap reference on every
    /// swap-routed layout, with gates dropped, recorded (schedule and
    /// history) and streamed through the physical check, over chains
    /// that enter occupied, pooled, fresh and spent free cells.
    #[test]
    fn chain_mover_matches_the_per_swap_reference() {
        let fabrics: [Arc<dyn Topology>; 4] = [
            Arc::new(GridTopology::new(9, 7)),
            Arc::new(LineTopology::new(40)),
            Arc::new(RingTopology::new(30)),
            Arc::new(HeavyHexTopology::new(3)),
        ];
        for (i, topo) in fabrics.iter().enumerate() {
            for emission in [Emission::Off, Emission::Record, Emission::Check] {
                let seated = topo.qubit_count() * 2 / 3;
                let e = lockstep(
                    Arc::clone(topo),
                    emission,
                    0x5eed + i as u64,
                    (seated, 400, 24, 1),
                );
                let name = topo.name();
                assert!(
                    e.occupied > 0 && e.pooled > 0 && e.fresh > 0 && e.spent > 0,
                    "{name} {emission:?}: {e:?}"
                );
            }
        }
    }

    /// 200,000 seeded chains of up to 128 cells on a 127 × 127 lattice
    /// whose reuse pool starts with 3,000 released cells, with the
    /// physical check on. Release builds only (CI's `routing` job runs
    /// it).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "200k chains; run in release")]
    fn chain_mover_matches_the_reference_on_a_large_lattice() {
        let topo: Arc<dyn Topology> = Arc::new(GridTopology::new(127, 127));
        let e = lockstep(
            topo,
            Emission::Check,
            0xc4a1_2500,
            (6_000, 200_000, 128, 1_000),
        );
        assert!(
            e.occupied > 0 && e.pooled > 0 && e.fresh > 0 && e.spent > 0,
            "{e:?}"
        );
    }
}
