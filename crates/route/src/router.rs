//! Pluggable swap-chain routers.
//!
//! Routing — deciding which SWAP chains bring a gate's operands into
//! coupled positions — sits behind the [`Router`] trait. Routers are
//! *stateless strategy objects*: `route()` takes `&self` and a
//! [`RoutingCtx`] lending the machine, the reusable scratch arenas, and
//! the lookahead window, so one `&'static` instance per kind (from
//! [`RouterKind::instance`]) serves every machine concurrently and the
//! hot path allocates nothing. Two implementations:
//!
//! * [`GreedyRouter`]: the original per-gate shortest-path swapper,
//!   kept *bit-compatible* with the historical inlined code (same
//!   shortest-path walks, same bounded-BFS operand gathering, same
//!   swap order) — the correctness anchor every regression suite pins
//!   against. Greedy decisions depend only on operand positions and
//!   the topology, so the router first *plans* the swap chain against
//!   tracked positions, then applies it.
//! * [`LookaheadRouter`]: a SABRE-style scorer (Li, Ding & Xie,
//!   ASPLOS 2019). Each candidate swap on an edge incident to the
//!   current gate's operands is scored against the *front* (the gate
//!   being routed) plus an *extended set* — a sliding window of
//!   upcoming multi-qubit gates supplied by the compile-time executor
//!   — with a decay factor penalizing cells swapped moments ago (the
//!   anti-ping-pong term). Distances come from the machine's
//!   acceleration tables and are carried *incrementally*: the winning
//!   candidate's post-swap distance becomes the next iteration's
//!   baseline, halving the distance queries per swap.
//!
//! Routers only *move* qubits (via [`Machine::swap_cells`]); gate
//! scheduling, statistics, and liveness stay in the machine. Braided
//! (FT) communication does not route through swap chains and is
//! unaffected by the router choice.

use std::fmt;

use square_qir::{Gate, VirtId};

use square_arch::PhysId;

use crate::ctx::{BfsScratch, RouterScratch, RoutingCtx};
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

    /// The shared router instance for this kind. Routers are
    /// stateless (all mutable state lives in the machine's
    /// [`RouterScratch`]), so every machine — across threads — uses
    /// the same `&'static` object; nothing is boxed per compile.
    pub fn instance(self) -> &'static dyn Router {
        match self {
            RouterKind::Greedy => &GreedyRouter,
            RouterKind::Lookahead => &LookaheadRouter,
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A swap-chain routing strategy.
///
/// `route` must leave every multi-qubit operand pair the gate needs
/// coupled (or give up the way the greedy gatherer does, which is
/// recorded as a gather failure); it moves qubits exclusively through
/// [`Machine::swap_cells`], which keeps placement, liveness,
/// relocation, and history bookkeeping consistent. Implementations
/// are stateless — per-route mutable state lives in the context's
/// scratch arenas — so one instance may serve many machines at once.
pub trait Router: Send + Sync {
    /// Which kind this router is.
    fn kind(&self) -> RouterKind;

    /// Routes one program gate: inserts whatever swaps make the
    /// gate's operands adjacent, using the machine, scratch, and
    /// lookahead window in `ctx`.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnplacedQubit`] if an operand has no placement.
    fn route(&self, ctx: &mut RoutingCtx<'_>, gate: &Gate<VirtId>) -> Result<(), RouteError>;
}

// ---------------------------------------------------------------------------
// Greedy planning (position-pure: no machine mutation)
// ---------------------------------------------------------------------------
//
// Every greedy decision is a pure function of the gate's operand
// positions and the topology — never of occupancy or the clock. The
// planner exploits that: it walks *tracked* operand positions and
// records the swap chain, and the caller replays the chain through
// `swap_cells`. This is bit-identical to the historical
// mutate-as-you-go code.

/// Tracked position of `v` (operands are distinct, so first match).
#[inline]
fn tpos(tracked: &[(VirtId, PhysId)], v: VirtId) -> PhysId {
    tracked
        .iter()
        .find(|&&(tv, _)| tv == v)
        .map(|&(_, p)| p)
        .expect("operand resolved")
}

/// Mirrors a `swap_cells(u, v)` on the tracked positions.
#[inline]
fn tswap(tracked: &mut [(VirtId, PhysId)], u: PhysId, v: PhysId) {
    for (_, p) in tracked.iter_mut() {
        if *p == u {
            *p = v;
        } else if *p == v {
            *p = u;
        }
    }
}

/// Resolves a gate's operands to `(virt, phys)` pairs, in the order
/// the historical router read them (so single-unplaced-operand errors
/// name the same qubit): `Ccx`/`Mcx` read the target first.
fn resolve_operands(
    m: &Machine,
    gate: &Gate<VirtId>,
    out: &mut Vec<(VirtId, PhysId)>,
) -> Result<(), RouteError> {
    out.clear();
    let mut push = |v: VirtId| -> Result<(), RouteError> {
        let p = m
            .placement()
            .phys_of(v)
            .ok_or(RouteError::UnplacedQubit { virt: v })?;
        out.push((v, p));
        Ok(())
    };
    match gate {
        Gate::X { target } => push(*target),
        Gate::Cx { control, target } => {
            push(*control)?;
            push(*target)
        }
        Gate::Swap { a, b } => {
            push(*a)?;
            push(*b)
        }
        Gate::Ccx { c0, c1, target } => {
            push(*target)?;
            push(*c0)?;
            push(*c1)
        }
        Gate::Mcx { controls, target } => {
            push(*target)?;
            for c in controls {
                push(*c)?;
            }
            Ok(())
        }
    }
}

/// Plans the historical greedy chain walk: `mover` hops along a
/// shortest path until coupled to `anchor` (the last hop — onto the
/// anchor's own cell — is never taken).
fn plan_chain(
    m: &Machine,
    tracked: &mut [(VirtId, PhysId)],
    swaps: &mut Vec<(PhysId, PhysId)>,
    mover: VirtId,
    anchor: VirtId,
) {
    let mut pm = tpos(tracked, mover);
    let pa = tpos(tracked, anchor);
    if pm == pa || m.coupled(pm, pa) {
        return;
    }
    loop {
        let hop = m.hop(pm, pa).expect("connected fabric");
        if hop == pa {
            break;
        }
        swaps.push((pm, hop));
        tswap(tracked, pm, hop);
        pm = hop;
    }
}

/// Cells a Toffoli gather search may dequeue before it gives up and the
/// gather falls back to a plain chain walk.
pub(crate) const GATHER_VISIT_CAP: usize = 4096;

/// Plans the historical Toffoli gather: bring both controls adjacent
/// to the target, trying not to displace already-gathered operands.
/// Returns `(retries, gave_up)` for the caller's statistics.
// Two scratch arenas and three operands are the function's whole job;
// bundling them into a struct would only rename the argument list.
#[allow(clippy::too_many_arguments)]
fn plan_gather(
    m: &Machine,
    tracked: &mut [(VirtId, PhysId)],
    swaps: &mut Vec<(PhysId, PhysId)>,
    bfs: &mut BfsScratch,
    path: &mut Vec<PhysId>,
    c0: VirtId,
    c1: VirtId,
    t: VirtId,
) -> (u64, bool) {
    let mut retries = 0u64;
    for attempt in 0..4 {
        let pt = tpos(tracked, t);
        let p0 = tpos(tracked, c0);
        let p1 = tpos(tracked, c1);
        let ok0 = m.coupled(p0, pt);
        let ok1 = m.coupled(p1, pt);
        if ok0 && ok1 {
            return (retries, false);
        }
        if attempt > 0 {
            retries += 1;
        }
        if !ok0 {
            plan_chain(m, tracked, swaps, c0, t);
            continue;
        }
        // c0 is in place; bring c1 next to t without crossing c0/t.
        if bfs.gather_to(m, p1, pt, p0, GATHER_VISIT_CAP, path) {
            for i in 0..path.len().saturating_sub(1) {
                let (a, b) = (path[i], path[i + 1]);
                swaps.push((a, b));
                tswap(tracked, a, b);
            }
        } else {
            // No avoiding route (e.g. a line topology cut); route
            // plainly and let the next attempt repair c0.
            plan_chain(m, tracked, swaps, c1, t);
        }
    }
    (retries, true)
}

/// Plans the full greedy treatment of one gate. Dispatch mirrors the
/// historical `route_gate` exactly.
fn plan_greedy(
    m: &Machine,
    gate: &Gate<VirtId>,
    tracked: &mut [(VirtId, PhysId)],
    swaps: &mut Vec<(PhysId, PhysId)>,
    bfs: &mut BfsScratch,
    path: &mut Vec<PhysId>,
) -> (u64, bool) {
    match gate {
        Gate::X { .. } => (0, false),
        Gate::Cx { control, target } => {
            plan_chain(m, tracked, swaps, *control, *target);
            (0, false)
        }
        Gate::Swap { a, b } => {
            plan_chain(m, tracked, swaps, *a, *b);
            (0, false)
        }
        Gate::Ccx { c0, c1, target } => {
            plan_gather(m, tracked, swaps, bfs, path, *c0, *c1, *target)
        }
        Gate::Mcx { controls, target } => {
            // Lowered programs never reach here with ≥ 3 controls;
            // handle small cases for completeness.
            match controls.len() {
                0 => (0, false),
                1 => {
                    plan_chain(m, tracked, swaps, controls[0], *target);
                    (0, false)
                }
                _ => {
                    let (retries, failed) = plan_gather(
                        m,
                        tracked,
                        swaps,
                        bfs,
                        path,
                        controls[0],
                        controls[1],
                        *target,
                    );
                    for c in &controls[2..] {
                        plan_chain(m, tracked, swaps, *c, *target);
                    }
                    (retries, failed)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// GreedyRouter
// ---------------------------------------------------------------------------

/// The original per-gate shortest-path router. Stateless; swap
/// sequences are bit-identical to the pre-trait inlined code on every
/// topology.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyRouter;

impl Router for GreedyRouter {
    fn kind(&self) -> RouterKind {
        RouterKind::Greedy
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, gate: &Gate<VirtId>) -> Result<(), RouteError> {
        if gate.arity() < 2 {
            return Ok(());
        }
        let m = &mut *ctx.machine;
        let s = &mut *ctx.scratch;
        resolve_operands(m, gate, &mut s.tracked)?;
        s.swaps.clear();
        let (retries, failed) = {
            let RouterScratch {
                tracked,
                swaps,
                bfs,
                chain,
                ..
            } = &mut *s;
            plan_greedy(m, gate, tracked, swaps, bfs, chain)
        };
        for i in 0..s.swaps.len() {
            let (u, v) = s.swaps[i];
            m.swap_cells(u, v);
        }
        m.bump_gather(retries, failed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// LookaheadRouter
// ---------------------------------------------------------------------------

/// Weight of the extended set (upcoming-gate window) relative to the
/// front gate in the swap score. SABRE's W.
const EXT_WEIGHT: f64 = 0.5;
/// Decay added to a cell each time a swap touches it while routing
/// one gate; discourages undoing a swap just made.
const DECAY_BUMP: f64 = 0.1;
/// Consecutive non-improving swaps tolerated before falling back to
/// the guaranteed-terminating greedy walk.
const STALL_LIMIT: u32 = 3;

/// SABRE-style lookahead router: scores candidate swaps on edges
/// incident to the current gate's operands against the front gate and
/// a decayed window of upcoming multi-qubit gates. Stateless — the
/// decay table and window pairs live in the machine's scratch.
#[derive(Debug, Default, Clone, Copy)]
pub struct LookaheadRouter;

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
            Gate::X { .. } => {}
            Gate::Cx { control, target } => s.pairs.push((*control, *target)),
            Gate::Swap { a, b } => s.pairs.push((*a, *b)),
            Gate::Ccx { c0, c1, target } => {
                s.pairs.push((*c0, *target));
                s.pairs.push((*c1, *target));
            }
            Gate::Mcx { controls, target } => {
                for c in controls {
                    s.pairs.push((*c, *target));
                }
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
/// gathering keeps the target parked. Falls back to the greedy
/// next-hop walk after [`STALL_LIMIT`] consecutive
/// distance-preserving swaps, which guarantees termination. The front
/// distance is carried incrementally: the winning candidate's exact
/// post-swap distance seeds the next iteration's baseline.
fn la_route_pair(
    m: &mut Machine,
    s: &mut RouterScratch,
    a: VirtId,
    b: VirtId,
    move_anchor: bool,
) -> Result<(), RouteError> {
    let mut pa = m
        .placement()
        .phys_of(a)
        .ok_or(RouteError::UnplacedQubit { virt: a })?;
    let mut pb = m
        .placement()
        .phys_of(b)
        .ok_or(RouteError::UnplacedQubit { virt: b })?;
    la_reset_decay(s, m.qubit_count());
    let mut stall = 0u32;
    let mut dist = m.distance(pa, pb);
    loop {
        if pa == pb || dist == 1 {
            return Ok(());
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
            return la_greedy_walk(m, a, b);
        };
        m.swap_cells(u, v);
        la_bump_decay(s, u);
        la_bump_decay(s, v);
        pa = m.placement().phys_of(a).expect("still placed");
        pb = m.placement().phys_of(b).expect("still placed");
        dist = after;
        if after >= before {
            stall += 1;
            if stall >= STALL_LIMIT {
                return la_greedy_walk(m, a, b);
            }
        } else {
            stall = 0;
        }
    }
}

/// Deterministic escape hatch: walk `a` toward `b` along cached next
/// hops (each swap shrinks the distance by one, so this always
/// terminates).
fn la_greedy_walk(m: &mut Machine, a: VirtId, b: VirtId) -> Result<(), RouteError> {
    let mut pa = m
        .placement()
        .phys_of(a)
        .ok_or(RouteError::UnplacedQubit { virt: a })?;
    let mut pb = m
        .placement()
        .phys_of(b)
        .ok_or(RouteError::UnplacedQubit { virt: b })?;
    while pa != pb && !m.coupled(pa, pb) {
        let hop = m.hop(pa, pb).expect("connected fabric");
        m.swap_cells(pa, hop);
        pa = hop;
        pb = m.placement().phys_of(b).expect("still placed");
    }
    Ok(())
}

/// Moves `mover` along cached next hops until coupled to `anchor` —
/// the historical greedy chain walk, applied live (the lookahead
/// gatherer's last-resort fallback).
fn route_adjacent_live(m: &mut Machine, mover: VirtId, anchor: VirtId) -> Result<(), RouteError> {
    let mut pm = m
        .placement()
        .phys_of(mover)
        .ok_or(RouteError::UnplacedQubit { virt: mover })?;
    let pa = m
        .placement()
        .phys_of(anchor)
        .ok_or(RouteError::UnplacedQubit { virt: anchor })?;
    if pm == pa || m.coupled(pm, pa) {
        return Ok(());
    }
    loop {
        let hop = m.hop(pm, pa).expect("connected fabric");
        if hop == pa {
            break;
        }
        m.swap_cells(pm, hop);
        pm = hop;
    }
    Ok(())
}

/// Gathers a Toffoli: lookahead-routes `c0` to the target, then
/// steers `c1` to the cheapest free neighbour of the target along
/// cached next hops, side-stepping the cells holding `t`/`c0`.
fn la_gather(
    m: &mut Machine,
    s: &mut RouterScratch,
    c0: VirtId,
    c1: VirtId,
    t: VirtId,
) -> Result<(), RouteError> {
    for attempt in 0..4 {
        let pt = m
            .placement()
            .phys_of(t)
            .ok_or(RouteError::UnplacedQubit { virt: t })?;
        let p0 = m
            .placement()
            .phys_of(c0)
            .ok_or(RouteError::UnplacedQubit { virt: c0 })?;
        let p1 = m
            .placement()
            .phys_of(c1)
            .ok_or(RouteError::UnplacedQubit { virt: c1 })?;
        let ok0 = m.coupled(p0, pt);
        let ok1 = m.coupled(p1, pt);
        if ok0 && ok1 {
            return Ok(());
        }
        if attempt > 0 {
            m.note_gather_retry();
        }
        if !ok0 {
            la_route_pair(m, s, c0, t, true)?;
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
            la_route_pair(m, s, c1, t, false)?;
            continue;
        };
        let goal = PhysId(goal);
        // Walk cached next hops toward the goal while the path is
        // clean; each hop strictly shrinks the table distance, so the
        // walk terminates. Detouring *around* a blocked cell hop by
        // hop loses badly on low-degree fabrics (it circles hexagon
        // faces), so the moment the path runs into t/c0 we hand the
        // remainder to the greedy bounded BFS instead.
        let mut cur = p1;
        while cur != goal {
            let hop = m.hop(cur, goal).expect("connected fabric");
            if hop == pt || hop == p0 {
                break;
            }
            m.swap_cells(cur, hop);
            cur = hop;
        }
        if cur != goal {
            let RouterScratch { bfs, chain, .. } = &mut *s;
            if bfs.gather_to(m, cur, pt, p0, GATHER_VISIT_CAP, chain) {
                for w in chain.windows(2) {
                    m.swap_cells(w[0], w[1]);
                }
            } else {
                route_adjacent_live(m, c1, t)?;
            }
        }
    }
    m.note_gather_failure();
    Ok(())
}

impl Router for LookaheadRouter {
    fn kind(&self) -> RouterKind {
        RouterKind::Lookahead
    }

    fn route(&self, ctx: &mut RoutingCtx<'_>, gate: &Gate<VirtId>) -> Result<(), RouteError> {
        if gate.arity() < 2 {
            return Ok(()); // nothing to route; don't touch the window
        }
        let m = &mut *ctx.machine;
        let s = &mut *ctx.scratch;
        la_collect_pairs(s, ctx.window);
        match gate {
            Gate::X { .. } => Ok(()),
            Gate::Cx { control, target } => la_route_pair(m, s, *control, *target, true),
            Gate::Swap { a, b } => la_route_pair(m, s, *a, *b, true),
            Gate::Ccx { c0, c1, target } => la_gather(m, s, *c0, *c1, *target),
            Gate::Mcx { controls, target } => match controls.len() {
                0 => Ok(()),
                1 => la_route_pair(m, s, controls[0], *target, true),
                _ => {
                    la_gather(m, s, controls[0], controls[1], *target)?;
                    for c in &controls[2..] {
                        la_route_pair(m, s, *c, *target, false)?;
                    }
                    Ok(())
                }
            },
        }
    }
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
            assert_eq!(kind.instance().kind(), kind, "shared instance kind");
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
