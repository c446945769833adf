//! The two swap-chain routers.
//!
//! Routing decides which SWAP chains bring a gate's operands into
//! coupled positions. [`RouterKind`] names the strategy, and
//! `Machine::apply` dispatches on it to one of two functions here:
//!
//! * `greedy`: the per-gate shortest-path swapper, *bit-compatible*
//!   with the historical code (same shortest-path walks, same
//!   bounded-search operand gathering, same swap order) — the
//!   correctness anchor every regression suite pins against.
//! * `lookahead`: a SABRE-style scorer (Li, Ding & Xie, ASPLOS 2019).
//!   Each candidate swap on an edge incident to the current gate's
//!   operands is scored against the *front* (the gate being routed)
//!   plus an *extended set* — a sliding window of upcoming multi-qubit
//!   gates supplied by the compile-time executor — with a decay factor
//!   penalizing cells swapped moments ago (the anti-ping-pong term).
//!   Distances come from the machine's acceleration tables and are
//!   carried *incrementally*: the winning candidate's post-swap
//!   distance becomes the next iteration's baseline, halving the
//!   distance queries per swap.
//!
//! Both share one chain walk (`walk`: the mover hops along cached next
//! hops until coupled to its partner) — greedy's two-qubit routing,
//! lookahead's stall fallback and both gathers' last resort — and one
//! bounded gather search (`BfsScratch::gather_to`). The two Toffoli
//! gathers differ only in how they steer the second control.
//!
//! A router only chooses cells: each swap chain (a walk, a gather path,
//! lookahead's one scored swap) is a path of coupled cells starting at
//! the qubit that moves, which the routers hand to the machine's one
//! chain mover (`Machine::shift_along`) to move live in one pass. Gate
//! scheduling, statistics, and liveness stay in the machine.
//! Braided (FT) communication does not route through swap chains and
//! is unaffected by the router choice.

use std::fmt;

use square_qir::{Gate, VirtId};

use square_arch::PhysId;

use crate::ctx::BfsScratch;
use crate::error::RouteError;
use crate::machine::Machine;

/// Which swap-chain router a machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterKind {
    /// Per-gate shortest-path swapper (the historical router).
    Greedy,
    /// SABRE-style lookahead scorer over a window of upcoming gates.
    Lookahead,
}

impl RouterKind {
    /// Both routers, greedy first.
    pub const ALL: [RouterKind; 2] = [RouterKind::Greedy, RouterKind::Lookahead];

    /// Parses a CLI-style router name, case-insensitively: `greedy`,
    /// `lookahead` (alias `sabre`).
    pub fn parse(name: &str) -> Option<RouterKind> {
        match name.to_ascii_lowercase().as_str() {
            "greedy" => Some(RouterKind::Greedy),
            "lookahead" | "sabre" => Some(RouterKind::Lookahead),
            _ => None,
        }
    }

    /// The CLI name accepted back by [`RouterKind::parse`].
    pub fn cli_name(&self) -> &'static str {
        match self {
            RouterKind::Greedy => "greedy",
            RouterKind::Lookahead => "lookahead",
        }
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            RouterKind::Greedy => "GREEDY",
            RouterKind::Lookahead => "LOOKAHEAD",
        }
    }

    /// True if this router consumes the executor's lookahead window
    /// (callers skip building the window otherwise).
    pub fn wants_lookahead(&self) -> bool {
        matches!(self, RouterKind::Lookahead)
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Reusable routing scratch, owned by the machine and lent to the
/// router for one gate, so the steady-state hot path allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct RouterScratch {
    /// Lookahead: per-cell decay factors (≥ 1.0), reset between gates
    /// via `touched` so the cost stays proportional to swaps inserted.
    decay: Vec<f64>,
    /// Lookahead: cells whose decay is currently above 1.0.
    touched: Vec<PhysId>,
    /// Lookahead: virtual operand pairs of the window gates.
    pairs: Vec<(VirtId, VirtId)>,
    /// Toffoli gather-search arrays.
    bfs: BfsScratch,
    /// Gather path buffer.
    chain: Vec<PhysId>,
}

/// Looks up every operand of a multi-qubit gate before either router
/// moves anything, so an unplaced operand fails the gate with no swap
/// emitted. The error names the first missing operand in the order the
/// greedy router always read them: `Cx`/`Swap` in slot order, `Ccx`
/// target first. `Machine::apply` refuses `Mcx` before routing, so
/// neither this check nor the routers see one.
pub(crate) fn check_placed(m: &Machine, gate: &Gate<VirtId>) -> Result<(), RouteError> {
    let placed = |v: &VirtId| match m.placement().phys_of(*v) {
        Some(_) => Ok(()),
        None => Err(RouteError::UnplacedQubit { virt: *v }),
    };
    match gate {
        Gate::X { .. } | Gate::Mcx { .. } => Ok(()),
        Gate::Cx { control, target } => placed(control).and_then(|()| placed(target)),
        Gate::Swap { a, b } => placed(a).and_then(|()| placed(b)),
        Gate::Ccx { c0, c1, target } => {
            placed(target)?;
            placed(c0)?;
            placed(c1)
        }
    }
}

/// The chain walk: `mover` hops along cached next hops until it is
/// coupled to `anchor`, which never moves (the last hop — onto the
/// anchor's own cell — is never taken). Next hops read only the
/// topology, so the whole chain is laid out in `path` before the mover
/// runs it.
fn walk(m: &mut Machine, path: &mut Vec<PhysId>, mover: VirtId, anchor: VirtId) {
    m.path_to(m.phys_must(mover), m.phys_must(anchor), path);
    // Drop the anchor's own cell.
    path.pop();
    m.shift_along(path);
}

/// Cells a Toffoli gather search may dequeue before it gives up and the
/// gather falls back to a plain chain walk.
pub(crate) const GATHER_VISIT_CAP: usize = 4096;

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

/// Routes one placed gate the greedy way: every two-qubit gate walks
/// its first operand to its second, and a Toffoli gathers both
/// controls next to the target. Every decision reads only operand
/// positions and the topology, never occupancy or the clock.
pub(crate) fn greedy(m: &mut Machine, s: &mut RouterScratch, gate: &Gate<VirtId>) {
    match gate {
        Gate::X { .. } | Gate::Mcx { .. } => {}
        Gate::Cx { control, target } => walk(m, &mut s.chain, *control, *target),
        Gate::Swap { a, b } => walk(m, &mut s.chain, *a, *b),
        Gate::Ccx { c0, c1, target } => gather(m, s, *c0, *c1, *target),
    }
}

/// The greedy Toffoli gather: bring both controls adjacent to the
/// target, trying not to displace already-gathered operands. Gives up
/// after four attempts, each after the first counted as a retry.
fn gather(m: &mut Machine, s: &mut RouterScratch, c0: VirtId, c1: VirtId, t: VirtId) {
    for attempt in 0..4 {
        let pt = m.phys_must(t);
        let p0 = m.phys_must(c0);
        let p1 = m.phys_must(c1);
        let ok0 = m.coupled(p0, pt);
        let ok1 = m.coupled(p1, pt);
        if ok0 && ok1 {
            return;
        }
        if attempt > 0 {
            m.note_gather_retry();
        }
        if !ok0 {
            walk(m, &mut s.chain, c0, t);
            continue;
        }
        // c0 is in place; bring c1 next to t without crossing c0/t.
        if s.bfs
            .gather_to(m, p1, pt, p0, GATHER_VISIT_CAP, &mut s.chain)
        {
            m.shift_along(&s.chain);
        } else {
            // No avoiding route (e.g. a line topology cut); route
            // plainly and let the next attempt repair c0.
            walk(m, &mut s.chain, c1, t);
        }
    }
    m.note_gather_failure();
}

// ---------------------------------------------------------------------------
// Lookahead
// ---------------------------------------------------------------------------

/// Weight of the extended set (upcoming-gate window) relative to the
/// front gate in the swap score. SABRE's W.
const EXT_WEIGHT: f64 = 0.5;
/// Decay added to a cell each time a swap touches it while routing
/// one gate; discourages undoing a swap just made.
const DECAY_BUMP: f64 = 0.1;
/// Consecutive non-improving swaps tolerated before falling back to
/// the guaranteed-terminating chain walk.
const STALL_LIMIT: u32 = 3;

/// Routes one placed gate the SABRE way: candidate swaps on edges
/// incident to the operands are scored against the gate plus the
/// decayed `window` of upcoming multi-qubit gates.
pub(crate) fn lookahead(
    m: &mut Machine,
    s: &mut RouterScratch,
    window: &[Gate<VirtId>],
    gate: &Gate<VirtId>,
) {
    la_collect_pairs(s, window);
    match gate {
        Gate::X { .. } | Gate::Mcx { .. } => {}
        Gate::Cx { control, target } => la_route_pair(m, s, *control, *target, true),
        Gate::Swap { a, b } => la_route_pair(m, s, *a, *b, true),
        Gate::Ccx { c0, c1, target } => la_gather(m, s, *c0, *c1, *target),
    }
}

fn la_reset_decay(s: &mut RouterScratch, n: usize) {
    if s.decay.len() != n {
        s.decay = vec![1.0; n];
        s.touched.clear();
        return;
    }
    for p in s.touched.drain(..) {
        s.decay[p.index()] = 1.0;
    }
}

fn la_bump_decay(s: &mut RouterScratch, p: PhysId) {
    if s.decay[p.index()] == 1.0 {
        s.touched.push(p);
    }
    s.decay[p.index()] += DECAY_BUMP;
}

fn la_collect_pairs(s: &mut RouterScratch, window: &[Gate<VirtId>]) {
    s.pairs.clear();
    for g in window {
        match g {
            Gate::X { .. } | Gate::Mcx { .. } => {}
            Gate::Cx { control, target } => s.pairs.push((*control, *target)),
            Gate::Swap { a, b } => s.pairs.push((*a, *b)),
            Gate::Ccx { c0, c1, target } => {
                s.pairs.push((*c0, *target));
                s.pairs.push((*c1, *target));
            }
        }
    }
}

/// Scores swapping cells `u`/`v`: front-pair distance after the
/// hypothetical swap, plus the decayed average over the window pairs.
/// Lower is better.
fn la_score_swap(
    m: &Machine,
    s: &RouterScratch,
    u: PhysId,
    v: PhysId,
    front: (PhysId, PhysId),
) -> f64 {
    let adj = |p: PhysId| {
        if p == u {
            v
        } else if p == v {
            u
        } else {
            p
        }
    };
    let d_front = m.distance(adj(front.0), adj(front.1)) as f64;
    let mut ext = 0.0;
    let mut ext_n = 0usize;
    for &(a, b) in &s.pairs {
        if let (Some(pa), Some(pb)) = (m.placement().phys_of(a), m.placement().phys_of(b)) {
            ext += m.distance(adj(pa), adj(pb)) as f64;
            ext_n += 1;
        }
    }
    let base = d_front
        + if ext_n > 0 {
            EXT_WEIGHT * ext / ext_n as f64
        } else {
            0.0
        };
    base * s.decay[u.index()].max(s.decay[v.index()])
}

/// Routes one virtual pair until coupled, one scored swap at a time.
/// Candidate swaps may never *increase* the front distance (streaming
/// window hints are too weak to justify detours — on low-degree
/// fabrics like heavy-hex they systematically mislead). With
/// `move_anchor` false only `a`'s side moves, which is how Toffoli
/// gathering keeps the target parked. Falls back to the chain walk
/// after [`STALL_LIMIT`] consecutive distance-preserving swaps, which
/// guarantees termination. The front
/// distance is carried incrementally: the winning candidate's exact
/// post-swap distance seeds the next iteration's baseline.
fn la_route_pair(m: &mut Machine, s: &mut RouterScratch, a: VirtId, b: VirtId, move_anchor: bool) {
    let mut pa = m.phys_must(a);
    let mut pb = m.phys_must(b);
    la_reset_decay(s, m.qubit_count());
    let mut stall = 0u32;
    let mut dist = m.distance(pa, pb);
    loop {
        if pa == pb || dist == 1 {
            return;
        }
        let before = dist;
        // Candidate swaps: every edge incident to a movable endpoint
        // that keeps the front distance from growing.
        let ends_buf = [pa, pb];
        let ends: &[PhysId] = if move_anchor {
            &ends_buf
        } else {
            &ends_buf[..1]
        };
        let mut best: Option<(f64, PhysId, PhysId, u32)> = None;
        {
            let mm: &Machine = m;
            let sc: &RouterScratch = s;
            for &end in ends {
                mm.topo().for_each_neighbor(end, &mut |nb| {
                    let adj = |p: PhysId| {
                        if p == end {
                            nb
                        } else if p == nb {
                            end
                        } else {
                            p
                        }
                    };
                    let after = mm.distance(adj(pa), adj(pb));
                    if after > before {
                        return;
                    }
                    let score = la_score_swap(mm, sc, end, nb, (pa, pb));
                    if best.is_none_or(|(bs, be, bn, _)| (score, end.0, nb.0) < (bs, be.0, bn.0)) {
                        best = Some((score, end, nb, after));
                    }
                });
            }
        }
        let Some((_, u, v, after)) = best else {
            // No distance-preserving edge at all (cannot happen on a
            // connected fabric, where the next hop qualifies) — walk
            // the guaranteed-progress chain.
            walk(m, &mut s.chain, a, b);
            return;
        };
        // `u` is an operand's cell: a one-swap chain.
        m.shift_along(&[u, v]);
        la_bump_decay(s, u);
        la_bump_decay(s, v);
        pa = m.phys_must(a);
        pb = m.phys_must(b);
        dist = after;
        if after >= before {
            stall += 1;
            if stall >= STALL_LIMIT {
                walk(m, &mut s.chain, a, b);
                return;
            }
        } else {
            stall = 0;
        }
    }
}

/// Gathers a Toffoli: lookahead-routes `c0` to the target, then
/// steers `c1` to the cheapest free neighbour of the target along
/// cached next hops, side-stepping the cells holding `t`/`c0`.
fn la_gather(m: &mut Machine, s: &mut RouterScratch, c0: VirtId, c1: VirtId, t: VirtId) {
    for attempt in 0..4 {
        let pt = m.phys_must(t);
        let p0 = m.phys_must(c0);
        let p1 = m.phys_must(c1);
        let ok0 = m.coupled(p0, pt);
        let ok1 = m.coupled(p1, pt);
        if ok0 && ok1 {
            return;
        }
        if attempt > 0 {
            m.note_gather_retry();
        }
        if !ok0 {
            la_route_pair(m, s, c0, t, true);
            continue;
        }
        // c0 is in place: pick the goal cell for c1 — the
        // target-adjacent cell nearest c1 that is not c0's — and walk
        // next hops toward it, side-stepping t/c0.
        let mut goal_key: Option<(u32, u32)> = None;
        {
            let mm: &Machine = m;
            mm.topo().for_each_neighbor(pt, &mut |nb| {
                if nb == p0 {
                    return;
                }
                let key = (mm.distance(p1, nb), nb.0);
                if goal_key.is_none_or(|g| key < g) {
                    goal_key = Some(key);
                }
            });
        }
        let Some((_, goal)) = goal_key else {
            // Degree-1 target (line end): plain routing, and let the
            // next attempt repair whatever it displaced.
            la_route_pair(m, s, c1, t, false);
            continue;
        };
        let goal = PhysId(goal);
        // Walk cached next hops toward the goal while the path is
        // clean; each hop strictly shrinks the table distance, so the
        // walk terminates. Detouring *around* a blocked cell hop by
        // hop loses badly on low-degree fabrics (it circles hexagon
        // faces), so the moment the path runs into t/c0 we hand the
        // remainder to the bounded gather search instead.
        m.path_to(p1, goal, &mut s.chain);
        if let Some(blocked) = s.chain.iter().position(|&c| c == pt || c == p0) {
            s.chain.truncate(blocked);
        }
        m.shift_along(&s.chain);
        let cur = *s.chain.last().expect("the chain starts at c1");
        if cur != goal {
            if s.bfs
                .gather_to(m, cur, pt, p0, GATHER_VISIT_CAP, &mut s.chain)
            {
                m.shift_along(&s.chain);
            } else {
                walk(m, &mut s.chain, c1, t);
            }
        }
    }
    m.note_gather_failure();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use square_arch::{GridTopology, LineTopology, RingTopology};

    fn machine(topo: Box<dyn square_arch::Topology>, router: RouterKind) -> Machine {
        Machine::new(topo, MachineConfig::nisq().with_router(router))
    }

    #[test]
    fn router_kind_parses_and_round_trips() {
        for kind in RouterKind::ALL {
            assert_eq!(RouterKind::parse(kind.cli_name()), Some(kind));
            assert_eq!(
                RouterKind::parse(&kind.cli_name().to_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(RouterKind::parse("sabre"), Some(RouterKind::Lookahead));
        assert_eq!(RouterKind::parse("nope"), None);
        assert!(RouterKind::Lookahead.wants_lookahead());
        assert!(!RouterKind::Greedy.wants_lookahead());
    }

    #[test]
    fn both_routers_make_distant_cnot_operands_adjacent() {
        for kind in RouterKind::ALL {
            let mut m = machine(Box::new(GridTopology::new(6, 6)), kind);
            m.place_at(VirtId(0), PhysId(0)).unwrap();
            m.place_at(VirtId(1), PhysId(35)).unwrap();
            m.apply(&Gate::Cx {
                control: VirtId(0),
                target: VirtId(1),
            })
            .unwrap();
            let p0 = m.placement().phys_of(VirtId(0)).unwrap();
            let p1 = m.placement().phys_of(VirtId(1)).unwrap();
            assert!(m.topo().are_coupled(p0, p1), "{kind}: not adjacent");
            assert!(m.stats().swaps > 0, "{kind}: distance 10 needs swaps");
        }
    }

    #[test]
    fn both_routers_gather_toffolis_on_a_ring() {
        for kind in RouterKind::ALL {
            let mut m = machine(Box::new(RingTopology::new(12)), kind);
            m.place_at(VirtId(0), PhysId(0)).unwrap();
            m.place_at(VirtId(1), PhysId(6)).unwrap();
            m.place_at(VirtId(2), PhysId(3)).unwrap();
            m.apply(&Gate::Ccx {
                c0: VirtId(0),
                c1: VirtId(1),
                target: VirtId(2),
            })
            .unwrap();
            let pt = m.placement().phys_of(VirtId(2)).unwrap();
            for v in [VirtId(0), VirtId(1)] {
                let p = m.placement().phys_of(v).unwrap();
                assert!(m.topo().are_coupled(p, pt), "{kind}: {v} not gathered");
            }
            assert_eq!(m.stats().gather_failures, 0, "{kind}");
        }
    }

    #[test]
    fn lookahead_window_steers_toward_upcoming_gates() {
        // Front: (0 ↔ 2) on a line, with 1 sitting between them at
        // cell 2. Upcoming window says qubit 0 next talks to qubit 3
        // at cell 4 — the scored route moves 0 rightward (toward both
        // goals) rather than dragging 2 leftward.
        let mut m = machine(Box::new(LineTopology::new(6)), RouterKind::Lookahead);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(2)).unwrap();
        m.place_at(VirtId(2), PhysId(3)).unwrap();
        m.place_at(VirtId(3), PhysId(5)).unwrap();
        m.lookahead_mut().push(Gate::Cx {
            control: VirtId(0),
            target: VirtId(3),
        });
        m.apply(&Gate::Cx {
            control: VirtId(0),
            target: VirtId(2),
        })
        .unwrap();
        let p0 = m.placement().phys_of(VirtId(0)).unwrap();
        let p2 = m.placement().phys_of(VirtId(2)).unwrap();
        assert!(m.topo().are_coupled(p0, p2));
        assert!(
            p0 > PhysId(0),
            "qubit 0 moved toward the window's future partner"
        );
    }

    #[test]
    fn greedy_router_swap_chain_matches_historical_behaviour() {
        // The exact scenario of the historical machine test: distance
        // 4 on a 5×1 line → 3 swaps, control parked next to target.
        let mut m = machine(Box::new(GridTopology::new(5, 1)), RouterKind::Greedy);
        m.place_at(VirtId(0), PhysId(0)).unwrap();
        m.place_at(VirtId(1), PhysId(4)).unwrap();
        m.apply(&Gate::Cx {
            control: VirtId(0),
            target: VirtId(1),
        })
        .unwrap();
        assert_eq!(m.stats().swaps, 3);
        assert_eq!(m.placement().phys_of(VirtId(0)), Some(PhysId(3)));
    }
}
