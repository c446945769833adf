//! Pins the routing engine to the paper's original semantics: random
//! programs are routed twice — once through [`Machine::apply`] (the
//! enum-dispatched greedy router, which applies each swap as it
//! chooses it) and once through an independent reimplementation of
//! the *historical* greedy
//! algorithm (hop-walk chains, 4-attempt avoid-BFS gather) that keeps
//! its own placement in hash maps, the way the pre-redesign code did.
//! The full scheduled gate sequence, swap counts, gather statistics,
//! and final placements must agree **exactly**, on all five topology
//! families, and on a lattice large enough that the gather search hits
//! its visit cap.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use square_arch::{
    FullTopology, GridTopology, HeavyHexTopology, LineTopology, PhysId, RingTopology, Topology,
};
use square_qir::{Gate, VirtId};
use square_route::{Machine, MachineConfig};

/// The historical greedy router, reimplemented from the paper's
/// description with none of the flat-state machinery: placement in
/// hash maps, per-gate path vectors, a `VecDeque` BFS. Deliberately
/// naive — its only job is to disagree if the rewrite changed
/// semantics.
struct HistoricalGreedy<'t> {
    topo: &'t dyn Topology,
    pos: HashMap<VirtId, PhysId>,
    occ: HashMap<PhysId, VirtId>,
    /// `(gate, is_comm)` in emission order — the mirror of the
    /// machine's recorded schedule.
    schedule: Vec<(Gate<PhysId>, bool)>,
    swaps: u64,
    gather_retries: u64,
    gather_failures: u64,
    /// Avoid-BFS searches that ran out of their visit budget.
    capped_searches: u64,
}

impl<'t> HistoricalGreedy<'t> {
    fn new(topo: &'t dyn Topology) -> Self {
        Self {
            topo,
            pos: HashMap::new(),
            occ: HashMap::new(),
            schedule: Vec::new(),
            swaps: 0,
            gather_retries: 0,
            gather_failures: 0,
            capped_searches: 0,
        }
    }

    fn place(&mut self, v: VirtId, p: PhysId) {
        assert!(self.occ.insert(p, v).is_none(), "model placement clash");
        self.pos.insert(v, p);
    }

    fn swap(&mut self, p: PhysId, q: PhysId) {
        let vp = self.occ.remove(&p);
        let vq = self.occ.remove(&q);
        if let Some(v) = vp {
            self.occ.insert(q, v);
            self.pos.insert(v, q);
        }
        if let Some(v) = vq {
            self.occ.insert(p, v);
            self.pos.insert(v, p);
        }
        self.swaps += 1;
        self.schedule.push((Gate::Swap { a: p, b: q }, true));
    }

    fn coupled(&self, a: PhysId, b: PhysId) -> bool {
        self.topo.distance(a, b) == 1
    }

    /// Historical chain walk: `mover` hops along shortest paths until
    /// coupled to `anchor`; the hop onto the anchor is never taken.
    fn chain(&mut self, mover: VirtId, anchor: VirtId) {
        let mut pm = self.pos[&mover];
        let pa = self.pos[&anchor];
        if pm == pa || self.coupled(pm, pa) {
            return;
        }
        loop {
            let hop = self.topo.next_hop(pm, pa).expect("connected fabric");
            if hop == pa {
                break;
            }
            self.swap(pm, hop);
            pm = hop;
        }
    }

    /// Historical avoid-BFS: shortest path from `from` to any cell
    /// coupled to `pt` other than `p0`, never crossing `pt` or `p0`,
    /// goal-tested at discovery, 4096-visit budget.
    fn bfs_avoiding(&mut self, from: PhysId, pt: PhysId, p0: PhysId) -> Option<Vec<PhysId>> {
        let goal = |c: PhysId| self.coupled(c, pt) && c != p0;
        if goal(from) {
            return Some(vec![from]);
        }
        let n = self.topo.qubit_count();
        let mut prev: Vec<Option<PhysId>> = vec![None; n];
        let mut queue = VecDeque::new();
        queue.push_back(from);
        prev[from.index()] = Some(from);
        let mut visits = 0usize;
        while let Some(cur) = queue.pop_front() {
            visits += 1;
            if visits > 4096 {
                self.capped_searches += 1;
                return None;
            }
            let mut found = None;
            self.topo.for_each_neighbor(cur, &mut |nb| {
                if found.is_some() || prev[nb.index()].is_some() || nb == pt || nb == p0 {
                    return;
                }
                prev[nb.index()] = Some(cur);
                if goal(nb) {
                    found = Some(nb);
                    return;
                }
                queue.push_back(nb);
            });
            if let Some(nb) = found {
                let mut path = vec![nb];
                let mut c = nb;
                while c != from {
                    c = prev[c.index()].expect("walked cells have parents");
                    path.push(c);
                }
                path.reverse();
                return Some(path);
            }
        }
        None
    }

    /// Historical Toffoli gather: up to four repair attempts bringing
    /// both controls adjacent to the target.
    fn gather(&mut self, c0: VirtId, c1: VirtId, t: VirtId) {
        for attempt in 0..4 {
            let pt = self.pos[&t];
            let p0 = self.pos[&c0];
            let p1 = self.pos[&c1];
            let ok0 = self.coupled(p0, pt);
            let ok1 = self.coupled(p1, pt);
            if ok0 && ok1 {
                return;
            }
            if attempt > 0 {
                self.gather_retries += 1;
            }
            if !ok0 {
                self.chain(c0, t);
                continue;
            }
            match self.bfs_avoiding(p1, pt, p0) {
                Some(path) => {
                    for w in path.windows(2) {
                        self.swap(w[0], w[1]);
                    }
                }
                None => self.chain(c1, t),
            }
        }
        self.gather_failures += 1;
    }

    fn route_gate(&mut self, gate: &Gate<VirtId>) {
        match gate {
            Gate::X { .. } => {}
            Gate::Cx { control, target } => self.chain(*control, *target),
            Gate::Swap { a, b } => self.chain(*a, *b),
            Gate::Ccx { c0, c1, target } => self.gather(*c0, *c1, *target),
            Gate::Mcx { .. } => unreachable!("the machine refuses Mcx; scripts hold none"),
        }
        self.schedule.push((gate.map(|v| self.pos[v]), false));
    }
}

/// One topology per family, small enough for fast cases but large
/// enough that chains, gathers and avoid-BFS all fire.
fn fabrics() -> Vec<(&'static str, Box<dyn Topology>)> {
    vec![
        (
            "grid",
            Box::new(GridTopology::new(4, 3)) as Box<dyn Topology>,
        ),
        ("full", Box::new(FullTopology::new(10))),
        ("line", Box::new(LineTopology::new(10))),
        ("heavyhex", Box::new(HeavyHexTopology::new(3))),
        ("ring", Box::new(RingTopology::new(10))),
        // Scattered operands sit ~64 hops apart here, so gathers
        // exhaust the 4,096-visit search budget.
        ("grid96", Box::new(GridTopology::new(96, 96))),
    ]
}

/// Decodes one raw script entry into a gate over `k` live qubits,
/// skipping degenerate operand collisions.
fn decode_gate(op: u8, x: u8, y: u8, z: u8, k: u32) -> Option<Gate<VirtId>> {
    let q = |raw: u8| VirtId(u32::from(raw) % k);
    let (a, b, c) = (q(x), q(y), q(z));
    match op % 6 {
        0 => Some(Gate::X { target: a }),
        1 if a != b => Some(Gate::Cx {
            control: a,
            target: b,
        }),
        2 if a != b => Some(Gate::Swap { a, b }),
        3 if a != b && a != c && b != c => Some(Gate::Ccx {
            c0: a,
            c1: b,
            target: c,
        }),
        // Ops 4 and 5 repeat ops 1 and 3, keeping the script's mix of
        // chain walks and gathers.
        4 if a != b => Some(Gate::Cx {
            control: a,
            target: b,
        }),
        5 if a != b && a != c && b != c => Some(Gate::Ccx {
            c0: a,
            c1: b,
            target: c,
        }),
        _ => None,
    }
}

/// Routes `script` on a recording machine and on the historical model
/// from the same initial placement, and checks they agree exactly.
/// Returns the model's capped-search count.
fn assert_matches_model(
    name: &str,
    topo: Arc<dyn Topology>,
    placement: &[(VirtId, PhysId)],
    script: &[Gate<VirtId>],
) -> u64 {
    let mut m = Machine::with_shared(Arc::clone(&topo), MachineConfig::nisq().with_schedule());
    let mut model = HistoricalGreedy::new(&*topo);
    for &(v, p) in placement {
        m.place_at(v, p).expect("cell is free");
        model.place(v, p);
    }
    for gate in script {
        m.apply(gate).expect("routable");
        model.route_gate(gate);
    }

    // The machine and the model must have emitted the exact same
    // physical gate sequence...
    let report = m.finish();
    assert_eq!(report.stats.swaps, model.swaps, "swap count ({name})");
    assert_eq!(
        report.stats.gather_retries, model.gather_retries,
        "gather retries ({name})"
    );
    assert_eq!(
        report.stats.gather_failures, model.gather_failures,
        "gather failures ({name})"
    );
    let schedule = report.schedule.as_ref().expect("recording enabled");
    assert_eq!(
        schedule.len(),
        model.schedule.len(),
        "schedule length ({name})"
    );
    for (got, want) in schedule.iter().zip(&model.schedule) {
        assert_eq!(&got.gate, &want.0, "gate mismatch ({name})");
        assert_eq!(got.is_comm, want.1, "comm flag mismatch ({name})");
    }
    // ...and agree on where every qubit ended up.
    assert_eq!(
        report.final_placement, model.pos,
        "final placement diverged ({name})"
    );
    model.capped_searches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn routing_ctx_greedy_matches_historical_greedy(
        k in 3u32..7,
        seeds in proptest::collection::vec(any::<u16>(), 8),
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..32,
        ),
    ) {
        let script: Vec<_> = script
            .iter()
            .filter_map(|&(op, x, y, z)| decode_gate(op, x, y, z, k))
            .collect();
        for (name, topo) in fabrics() {
            let n = topo.qubit_count();
            assert!(n >= k as usize, "fabric too small for the script");
            // Deterministic scattered placement: seed-probed cells,
            // linear-probing past collisions.
            let mut placement: Vec<(VirtId, PhysId)> = Vec::new();
            for v in 0..k {
                let mut cell = usize::from(seeds[v as usize % seeds.len()]) % n;
                while placement.iter().any(|&(_, p)| p.index() == cell) {
                    cell = (cell + 1) % n;
                }
                placement.push((VirtId(v), PhysId(cell as u32)));
            }
            assert_matches_model(name, Arc::from(topo), &placement, &script);
        }
    }
}

/// A Toffoli whose second control starts across a 96 × 96 lattice from
/// the target: the avoid-BFS runs out of budget, the gather falls back
/// to a chain walk, and the machine must still agree with the model.
#[test]
fn capped_gather_matches_historical_greedy() {
    let topo: Arc<dyn Topology> = Arc::new(GridTopology::new(96, 96));
    let at = |x: u32, y: u32| PhysId(y * 96 + x);
    let (c0, c1, t) = (VirtId(0), VirtId(1), VirtId(2));
    let placement = [(t, at(50, 50)), (c0, at(51, 50)), (c1, at(0, 0))];
    let script = [
        Gate::Ccx { c0, c1, target: t },
        Gate::Ccx {
            c0: c1,
            c1: c0,
            target: t,
        },
    ];
    let capped = assert_matches_model("grid96", topo, &placement, &script);
    assert!(capped > 0, "the gather never hit its visit cap");
}
