//! The model's rules, written once and driven by every engine.
//!
//! Two parts:
//!
//! * [`VcTable`] — the VC capacity state of a set of edges: holder
//!   counts, per-router pool and shared-credit counters, dead edges, and
//!   the policy queries over them ([`VcTable::free_vcs`],
//!   [`VcTable::acquire`], [`VcTable::release`], [`VcTable::wait_key`],
//!   [`VcTable::arbitrate`]). The sequential engines own one table for
//!   the whole graph; each parallel region owns one for the edges its
//!   routers send on.
//! * [`Worm`] — one message's record (kinematics, route, arbitration
//!   keys, outcome) and the [`Kernel`] step rules over it: classify,
//!   hop selection, route extension, advance, the closed-form drain and
//!   discard.
//!
//! The three drivers ([`crate::wormhole`]'s legacy stepper,
//! [`crate::engine`] and [`crate::parallel`]) only decide *which* worms a
//! step visits and what happens to the losers; every rule lives here.

use rand::prelude::*;
use rand::rngs::StdRng;

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::{EdgeId, Graph, NodeId};
use wormhole_topology::path::Path;

use crate::config::{Arbitration, FinalEdgePolicy, RouteSelection, SimConfig, VcPolicy};
use crate::message::MessageSpec;
use crate::stats::{DiscardReason, MessageOutcome};

/// A worm's route: the spec's path, owned, for oblivious worms; for
/// adaptive ones, the hop-by-hop built route (the adaptive prefix plus,
/// after a fallback, the escape tail) and its endpoints.
#[derive(Debug)]
pub(crate) enum Route {
    Fixed(Path),
    Built {
        edges: Vec<EdgeId>,
        /// Injection node (the head position at `advance == 0`).
        src: NodeId,
        /// Destination node (the arrival test).
        dst: NodeId,
    },
}

impl Route {
    #[inline]
    pub(crate) fn edges(&self) -> &[EdgeId] {
        match self {
            Route::Fixed(p) => p.edges(),
            Route::Built { edges, .. } => edges,
        }
    }

    /// The endpoints of a built (adaptive) route.
    #[inline]
    fn ends(&self) -> (NodeId, NodeId) {
        match *self {
            Route::Built { src, dst, .. } => (src, dst),
            Route::Fixed(_) => unreachable!("only adaptive routes are built"),
        }
    }
}

/// The wanted-hop decision of a pending adaptive worm, refreshed every
/// step it classifies (occupancies change, so yesterday's choice is
/// stale). Read back by route extension and by the deadlock report /
/// blocked tracing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum SelectedHop {
    /// Not yet classified this run (fresh worm before its first step).
    #[default]
    None,
    /// Extend by one adaptive-lane hop. `misroute` spends one unit of
    /// the worm's [`SimConfig::misroute_quota`] when crossed.
    Adaptive { edge: u32, misroute: bool },
    /// Fall back to the escape network: contend for `edge` (the first
    /// escape hop from the current node) and, on winning, append the
    /// whole escape route and freeze the path.
    Escape { edge: u32 },
}

impl SelectedHop {
    /// The wanted edge id, if a selection was made.
    #[inline]
    pub(crate) fn edge(self) -> Option<u32> {
        match self {
            SelectedHop::None => None,
            SelectedHop::Adaptive { edge, .. } | SelectedHop::Escape { edge } => Some(edge),
        }
    }
}

/// One message's record. The sequential engines index a table of these
/// by message id; the parallel engine moves them into the region that
/// owns their next wanted edge and back out at retirement.
///
/// Laid out in declaration order, 128 bytes: everything a step reads to
/// classify and advance a worm fills the first 64, the outcome and the
/// arbitration keys the rest.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Worm {
    /// Edges crossed by the (virtual) header pipeline; see the
    /// [`crate::wormhole`] module docs.
    pub(crate) advance: u32,
    /// Known path length. Fixed for oblivious worms; for adaptive worms
    /// it grows with each route extension (and equals `advance` while
    /// `pending_route`), freezing when the header reaches the
    /// destination or the escape tail is appended.
    pub(crate) hops: u32,
    pub(crate) length: u32,
    pub(crate) id: u32,
    /// `true` while the route may still grow (adaptive worm whose header
    /// has not committed to a complete path). Always `false` under
    /// [`RouteSelection::Oblivious`].
    pub(crate) pending_route: bool,
    /// Parallel engine only: the worm's held and remaining path edges
    /// all belong to its region, so it never bounds the window grant.
    pub(crate) local_path: bool,
    /// This step's wanted-hop selection (pending worms only).
    pub(crate) selected: SelectedHop,
    /// Remaining misroute budget (`FullyAdaptive`).
    pub(crate) budget: u32,
    pub(crate) route: Route,
    pub(crate) out: MessageOutcome,
    /// Spec release time (the `OldestFirst` arbitration key).
    pub(crate) release: u64,
    /// Spec priority (the `PriorityRank` arbitration key).
    pub(crate) priority: u32,
}

impl Default for Worm {
    /// An inert placeholder: an id slot not yet admitted (or whose
    /// record a parallel region currently holds).
    fn default() -> Self {
        Worm {
            advance: 0,
            hops: 0,
            length: 1,
            id: 0,
            pending_route: false,
            local_path: false,
            selected: SelectedHop::None,
            budget: 0,
            route: Route::Fixed(Path::new(Vec::new())),
            out: MessageOutcome::default(),
            release: 0,
            priority: 0,
        }
    }
}

impl Worm {
    /// The record of freshly admitted message `id`, taking ownership of
    /// the spec's path. `adaptive` carries the graph the endpoints are
    /// resolved on and the misroute budget; the route then starts empty
    /// and grows hop by hop.
    pub(crate) fn new(id: u32, spec: MessageSpec, adaptive: Option<(&Graph, u32)>) -> Self {
        let mut w = Worm {
            length: spec.length,
            id,
            release: spec.release,
            priority: spec.priority,
            ..Worm::default()
        };
        match adaptive {
            Some((g, budget)) => {
                w.pending_route = true;
                w.budget = budget;
                w.route = Route::Built {
                    edges: Vec::with_capacity(spec.path.len()),
                    src: spec.path.src(g),
                    dst: spec.path.dst(g),
                };
            }
            None => {
                w.hops = spec.hops();
                w.route = Route::Fixed(spec.path);
            }
        }
        w
    }

    #[inline]
    pub(crate) fn done(&self) -> bool {
        // A pending worm is never done: `advance == hops` merely means
        // its header sits at the end of the known path awaiting the next
        // hop (for L = 1 that coincides with `hops + length − 1`).
        !self.pending_route && self.advance == self.hops + self.length - 1
    }

    /// Finished or discarded: no longer in the network.
    #[inline]
    pub(crate) fn retired(&self) -> bool {
        self.done() || self.out.discarded.is_some()
    }

    /// Header delivered, route frozen: the worm only drains from here.
    #[inline]
    pub(crate) fn draining(&self) -> bool {
        !self.pending_route && self.advance >= self.hops
    }

    /// 1-based range of path edges on which this worm currently holds a VC.
    #[inline]
    pub(crate) fn held_range(&self) -> (u32, u32) {
        if self.advance == 0 {
            return (1, 0); // empty
        }
        let lo = (self.advance + 1).saturating_sub(self.length).max(1);
        let hi = self.advance.min(self.hops);
        (lo, hi)
    }

    /// Number of flits that cross an edge when the worm advances once.
    #[inline]
    pub(crate) fn crossing_width(&self) -> u32 {
        let next = self.advance + 1;
        let lo = (next + 1).saturating_sub(self.length).max(1);
        let hi = next.min(self.hops);
        hi - lo + 1
    }

    /// Whether crossing 1-based path edge `j` requires holding a VC. An
    /// edge strictly before the end of the path always does; so does the
    /// newest edge of a still-growing route (`pending_route` — nothing
    /// marks it final yet, and `hops` only grows, so the answer is stable
    /// from acquisition to release); the true final edge follows
    /// [`FinalEdgePolicy`].
    #[inline]
    pub(crate) fn needs_vc(&self, final_edge: FinalEdgePolicy, j: u32) -> bool {
        j < self.hops || self.pending_route || final_edge == FinalEdgePolicy::RequiresVc
    }

    /// The id of 1-based path edge `j`.
    #[inline]
    pub(crate) fn edge(&self, j: u32) -> usize {
        self.route.edges()[j as usize - 1].idx()
    }

    /// An adaptive worm's destination node.
    #[inline]
    fn dst(&self) -> NodeId {
        self.route.ends().1
    }

    /// The node the header stands on (where a pending worm selects).
    #[inline]
    pub(crate) fn head_node(&self, g: &Graph) -> NodeId {
        if self.advance == 0 {
            self.route.ends().0
        } else {
            g.dst(EdgeId(self.edge(self.advance) as u32))
        }
    }

    /// The edge a blocked worm wanted this step (for traces and the
    /// deadlock report): the freshly selected hop for pending worms, the
    /// next path edge otherwise.
    pub(crate) fn wanted_edge(&self) -> u32 {
        if self.pending_route {
            self.selected
                .edge()
                .expect("blocked pending worm was classified")
        } else {
            self.edge(self.advance + 1) as u32
        }
    }
}

/// Seeds the stateless per-arbitration RNG for `(seed, t, e)`.
///
/// [`Arbitration::Random`] draws from a counter-based stream keyed by the
/// configured seed, the flit step, and the edge id — never from a
/// sequential global stream. Runs stay deterministic per seed, but the
/// draw no longer depends on how many arbitration events preceded it,
/// which is what lets the event-driven engine skip blocked steps and
/// still reproduce the legacy stepper bit for bit.
fn arb_rng(seed: u64, t: u64, e: usize) -> StdRng {
    let mut x = seed
        ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (e as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    StdRng::seed_from_u64(x)
}

/// Orders `contenders` — indices into `worms` — so the first `free`
/// entries win edge `e`. Every key starts with (or is) the message id,
/// and ids are unique, so the result is canonical in the contender
/// *set*: the engines discover contenders in different orders and index
/// records differently (by id, or region-locally), yet the sorted id
/// sequence is the same — including under `Random`, whose shuffle
/// permutes positions keyed only by `(seed, t, e)`.
pub(crate) fn order_contenders(
    config: &SimConfig,
    worms: &[Worm],
    t: u64,
    e: usize,
    contenders: &mut [u32],
) {
    let w = |i: u32| &worms[i as usize];
    match config.arbitration {
        Arbitration::FifoById => contenders.sort_unstable_by_key(|&i| w(i).id),
        Arbitration::OldestFirst => contenders.sort_unstable_by_key(|&i| (w(i).release, w(i).id)),
        Arbitration::PriorityRank => {
            contenders.sort_unstable_by_key(|&i| (w(i).priority, w(i).id));
        }
        Arbitration::Random => {
            contenders.sort_unstable_by_key(|&i| w(i).id);
            contenders.shuffle(&mut arb_rng(config.seed, t, e));
        }
    }
}

/// Flat per-step contender buckets: a CSR-style `(edge, worm)` arena
/// that never allocates in steady state and never pays an
/// `O(num_edges)` clear.
///
/// Usage per step: [`clear`](Self::clear), [`push`](Self::push) each
/// contender, [`group`](Self::group) once, then iterate groups by index.
pub(crate) struct FlatBuckets {
    /// `(edge, worm)` pairs in discovery order.
    pairs: Vec<(u32, u32)>,
    /// Distinct edges touched this step, in first-touch order.
    touched: Vec<u32>,
    /// Per-edge contender count, then scatter cursor (dense, reset via
    /// `touched`).
    count: Vec<u32>,
    /// Contenders grouped contiguously per touched edge.
    slots: Vec<u32>,
    /// Group boundaries into `slots`, aligned with `touched` (+1 tail).
    starts: Vec<u32>,
}

impl FlatBuckets {
    pub(crate) fn with_edges(num_edges: usize) -> Self {
        Self {
            pairs: Vec::new(),
            touched: Vec::new(),
            count: vec![0; num_edges],
            slots: Vec::new(),
            starts: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        for &e in &self.touched {
            self.count[e as usize] = 0;
        }
        self.pairs.clear();
        self.touched.clear();
    }

    /// Records `m` contending for edge `e`. Only valid before `group`.
    #[inline]
    pub(crate) fn push(&mut self, e: usize, m: u32) {
        if self.count[e] == 0 {
            self.touched.push(e as u32);
        }
        self.count[e] += 1;
        self.pairs.push((e as u32, m));
    }

    /// Groups the pushed pairs into contiguous per-edge slices (first-touch
    /// edge order; discovery order within an edge) and returns the group
    /// count. Leaves `count` holding end offsets; `clear` resets it.
    pub(crate) fn group(&mut self) -> usize {
        self.starts.clear();
        self.slots.clear();
        self.slots.resize(self.pairs.len(), 0);
        let mut off = 0u32;
        self.starts.push(0);
        for &e in &self.touched {
            let c = self.count[e as usize];
            self.count[e as usize] = off; // becomes the scatter cursor
            off += c;
            self.starts.push(off);
        }
        for &(e, m) in &self.pairs {
            let cur = &mut self.count[e as usize];
            self.slots[*cur as usize] = m;
            *cur += 1;
        }
        self.touched.len()
    }

    /// The edge of group `i` (valid after `group`).
    #[inline]
    pub(crate) fn edge(&self, i: usize) -> usize {
        self.touched[i] as usize
    }

    /// The contenders of group `i` (valid after `group`).
    #[inline]
    pub(crate) fn group_mut(&mut self, i: usize) -> &mut [u32] {
        let (s, e) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        &mut self.slots[s..e]
    }
}

/// VC capacity state and the policy queries over it. Every capacity
/// decision asks this table rather than comparing with a scalar `B`:
///
/// * **acquirability** ([`Self::free_vcs`]) — static: `holders < B`;
///   pooled: below the per-edge floor, or below the per-edge cap with
///   shared credit left at the source router;
/// * **arbitration** ([`Self::arbitrate`]) — under pooling, sibling
///   edges of one router competing for the same shared credits within a
///   step are granted in **ascending edge-id order**, a canonical rule
///   that reads only start-of-step state and the contender sets;
/// * **park/wake keying** ([`Self::wait_key`]) — a blocked worm's edge
///   can become acquirable when a VC releases on the edge itself
///   (static) or on *any* outgoing edge of its source router (pooled).
///   Acquirability is monotone non-increasing between releases on that
///   key under both policies, which keeps parked-interval stall
///   arithmetic exact.
pub(crate) struct VcTable<'a> {
    /// Edge → source-router index (the router whose pool it debits).
    edge_src: &'a [u32],
    /// A parallel region's table: edge → owning region, and this
    /// table's region. Releases on edges owned elsewhere go to `remote`.
    owner: Option<(&'a [u32], u32)>,
    pooled: bool,
    /// Guaranteed VCs per edge (`B` under the static policy).
    per_edge_min: u32,
    /// Hard per-edge cap (`B` under the static policy).
    per_edge_max: u32,
    /// Pool size per router (0 under the static policy — unused).
    pool: u32,
    /// Pooled only: each router's shared-portion capacity,
    /// `pool − per_edge_min · fanout`.
    shared_cap: Vec<u32>,
    /// Per-edge dead flags from applied fault kills; empty until the
    /// first kill, so the hot-path guard is a single `is_empty`.
    dead: Vec<bool>,
    /// VCs currently held per edge.
    pub(crate) holders: Vec<u16>,
    /// VCs held across the outgoing edges of each router (Σ `holders`
    /// per source node) — kept under both policies so
    /// `max_pool_in_use` is policy- and engine-identical.
    pub(crate) pool_used: Vec<u32>,
    /// Pooled only: VCs drawn from each router's shared portion, Σ over
    /// out-edges of `max(0, holders − floor)`.
    shared_used: Vec<u32>,
    /// Pooled arbitration scratch: shared credits already granted to
    /// lower-id edges of the same router within this step.
    planned_shared: Vec<u32>,
    /// Routers with nonzero `planned_shared` this step (reset list).
    touched_routers: Vec<u32>,
    /// Pooled arbitration scratch: bucket-group indices in ascending
    /// edge-id order.
    group_order: Vec<u32>,
    /// Edges acquired this step; drained by [`Self::settle_max`].
    pub(crate) acquired: Vec<u32>,
    pub(crate) max_vcs: u16,
    pub(crate) max_pool: u32,
    /// Wait keys of releases, recorded while `track_releases` is set
    /// (the event engine sets it while any worm is parked; regions
    /// always).
    pub(crate) released: Vec<u32>,
    pub(crate) track_releases: bool,
    /// Region tables only: releases on edges another region owns,
    /// applied by the coordinator between windows.
    pub(crate) remote: Vec<u32>,
}

impl<'a> VcTable<'a> {
    /// An empty table over `graph` under `policy`. Panics if a router
    /// cannot honor its pooled floors out of the pool.
    pub(crate) fn new(graph: &'a Graph, policy: VcPolicy) -> Self {
        let (pooled, per_edge_min, per_edge_max, pool) = match policy {
            VcPolicy::Static(b) => (false, b, b, 0),
            VcPolicy::RouterPooled {
                pool,
                per_edge_min,
                per_edge_max,
            } => (true, per_edge_min, per_edge_max, pool),
        };
        let shared_cap: Vec<u32> = if pooled {
            graph
                .nodes()
                .map(|v| {
                    let fanout = graph.out_degree(v) as u32;
                    pool.checked_sub(per_edge_min * fanout).unwrap_or_else(|| {
                        panic!(
                            "router {v:?}: per_edge_min {per_edge_min} x fanout {fanout} \
                             exceeds pool {pool}"
                        )
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let n_pooled = shared_cap.len();
        VcTable {
            edge_src: graph.edge_sources(),
            owner: None,
            pooled,
            per_edge_min,
            per_edge_max,
            pool,
            shared_cap,
            dead: Vec::new(),
            holders: vec![0; graph.num_edges()],
            pool_used: vec![0; graph.num_nodes()],
            shared_used: vec![0; n_pooled],
            planned_shared: vec![0; n_pooled],
            touched_routers: Vec::new(),
            group_order: Vec::new(),
            acquired: Vec::new(),
            max_vcs: 0,
            max_pool: 0,
            released: Vec::new(),
            track_releases: false,
            remote: Vec::new(),
        }
    }

    /// Restricts this table to the edges region `region` owns
    /// (`edge_region` maps edge → region). Releases always record their
    /// wait keys, for the region's park/wake queue.
    pub(crate) fn owned_by(mut self, edge_region: &'a [u32], region: u32) -> Self {
        self.owner = Some((edge_region, region));
        self.track_releases = true;
        self
    }

    #[inline]
    pub(crate) fn pooled(&self) -> bool {
        self.pooled
    }

    /// Number of distinct wait keys ([`Self::wait_key`]'s range).
    pub(crate) fn num_wait_keys(&self) -> usize {
        if self.pooled {
            self.pool_used.len()
        } else {
            self.holders.len()
        }
    }

    /// Whether any fault kill has been applied.
    #[inline]
    pub(crate) fn any_dead(&self) -> bool {
        !self.dead.is_empty()
    }

    /// Whether edge `e` has been killed by an applied fault.
    #[inline]
    pub(crate) fn is_dead(&self, e: usize) -> bool {
        !self.dead.is_empty() && self.dead[e]
    }

    /// Marks edge `e` dead: it never grants another VC.
    pub(crate) fn kill(&mut self, e: usize) {
        if self.dead.is_empty() {
            self.dead = vec![false; self.holders.len()];
        }
        self.dead[e] = true;
    }

    /// How many additional VCs edge `e` can grant right now. Static:
    /// `B − holders`. Pooled: below the floor is free; past it, each VC
    /// draws one credit from the source router's shared portion (net of
    /// the credits [`Self::arbitrate`] has already granted to lower-id
    /// sibling edges this step); the per-edge cap always binds.
    #[inline]
    pub(crate) fn free_vcs(&self, e: usize) -> u32 {
        if self.is_dead(e) {
            return 0;
        }
        let h = self.holders[e] as u32;
        let cap_free = self.per_edge_max.saturating_sub(h);
        if !self.pooled {
            return cap_free;
        }
        let r = self.edge_src[e] as usize;
        let floor_free = self.per_edge_min.saturating_sub(h);
        let shared_free =
            (self.shared_cap[r] - self.shared_used[r]).saturating_sub(self.planned_shared[r]);
        cap_free.min(floor_free + shared_free)
    }

    /// Whether edge `e` could grant at least one VC right now — monotone
    /// between releases on its [`Self::wait_key`].
    #[inline]
    pub(crate) fn acquirable(&self, e: usize) -> bool {
        self.free_vcs(e) > 0
    }

    /// The park/wake key for a worm blocked on edge `e`: the edge itself
    /// under the static policy (only a release there can unblock it),
    /// the source router under pooling (a release on *any* sibling edge
    /// can return shared credit — the pool-release wakeup rule).
    #[inline]
    pub(crate) fn wait_key(&self, e: usize) -> usize {
        if self.pooled {
            self.edge_src[e] as usize
        } else {
            e
        }
    }

    /// Hard capacity-invariant check for edge `e`: the per-edge cap, and
    /// under pooling the source router's shared-portion and total-pool
    /// bounds.
    pub(crate) fn check_capacity(&self, e: usize) {
        let h = self.holders[e] as u32;
        assert!(
            h <= self.per_edge_max,
            "edge {e} holds {h} > {} VCs",
            self.per_edge_max
        );
        if self.pooled {
            let r = self.edge_src[e] as usize;
            assert!(
                self.shared_used[r] <= self.shared_cap[r],
                "router {r} draws {} > {} shared VCs",
                self.shared_used[r],
                self.shared_cap[r]
            );
            assert!(
                self.pool_used[r] <= self.pool,
                "router {r} holds {} > pool {} VCs",
                self.pool_used[r],
                self.pool
            );
        }
    }

    /// Acquires one VC on `e`, debiting the source router's pool.
    #[inline]
    pub(crate) fn acquire(&mut self, e: usize) {
        debug_assert!(
            self.owner.is_none_or(|(own, r)| own[e] == r),
            "acquire on a foreign edge"
        );
        let h = self.holders[e];
        self.holders[e] = h + 1;
        let r = self.edge_src[e] as usize;
        self.pool_used[r] += 1;
        if self.pooled && h as u32 >= self.per_edge_min {
            self.shared_used[r] += 1;
        }
        if cfg!(debug_assertions) {
            self.check_capacity(e);
        }
    }

    /// Releases one VC on `e`, returning its pool credit and recording
    /// the wait key while `track_releases` is set. In a region table, a
    /// release on an edge owned elsewhere is deferred to `remote` — the
    /// `t + 1` visibility every mid-step release has anyway.
    #[inline]
    pub(crate) fn release(&mut self, e: usize) {
        if let Some((own, r)) = self.owner {
            if own[e] != r {
                self.remote.push(e as u32);
                return;
            }
        }
        let h = self.holders[e];
        self.holders[e] = h - 1;
        let r = self.edge_src[e] as usize;
        self.pool_used[r] -= 1;
        if self.pooled && h as u32 > self.per_edge_min {
            self.shared_used[r] -= 1;
        }
        if self.track_releases {
            let key = self.wait_key(e) as u32;
            self.released.push(key);
        }
    }

    /// Folds edge `e`'s current occupancy into the maxima.
    #[inline]
    pub(crate) fn sample(&mut self, e: usize) {
        self.max_vcs = self.max_vcs.max(self.holders[e]);
        self.max_pool = self.max_pool.max(self.pool_used[self.edge_src[e] as usize]);
    }

    /// Folds this step's acquisitions into `max_vcs_in_use`.
    ///
    /// Holder counts are sampled at **end of step**: within a step, the
    /// apply order of same-step acquires and releases on one edge is an
    /// implementation detail (and differs between engines), whereas the
    /// end-of-step count — and therefore the reported maximum — is
    /// order-free and engine-identical.
    pub(crate) fn settle_max(&mut self) {
        for i in 0..self.acquired.len() {
            self.sample(self.acquired[i] as usize);
        }
        self.acquired.clear();
    }

    /// Splits each edge's contender group in `buckets` into winners
    /// (`movers`) and losers (`blocked`) from start-of-step holder
    /// counts; `worms` supplies the arbitration keys.
    ///
    /// Under pooling, sibling edges of one router can compete for the
    /// same shared credits within a single step, so the per-edge `free`
    /// counts are **allocated in ascending edge-id order** (tracked in
    /// `planned_shared`) — never in the order the groups were
    /// discovered. The static policy keeps the plain per-edge split.
    pub(crate) fn arbitrate(
        &mut self,
        config: &SimConfig,
        worms: &[Worm],
        t: u64,
        buckets: &mut FlatBuckets,
        movers: &mut Vec<u32>,
        blocked: &mut Vec<u32>,
    ) {
        let groups = buckets.group();
        if self.pooled {
            self.group_order.clear();
            self.group_order.extend(0..groups as u32);
            self.group_order
                .sort_unstable_by_key(|&gi| buckets.edge(gi as usize));
        }
        for i in 0..groups {
            let gi = if self.pooled {
                self.group_order[i] as usize
            } else {
                i
            };
            let e = buckets.edge(gi);
            let free = self.free_vcs(e) as usize;
            let group = buckets.group_mut(gi);
            let granted = free.min(group.len());
            if granted > 0 && granted < group.len() {
                order_contenders(config, worms, t, e, group);
            }
            movers.extend_from_slice(&group[..granted]);
            blocked.extend_from_slice(&group[granted..]);
            if self.pooled {
                let floor_free = self.per_edge_min.saturating_sub(self.holders[e] as u32);
                let shared_taken = (granted as u32).saturating_sub(floor_free);
                let r = self.edge_src[e] as usize;
                if shared_taken > 0 {
                    if self.planned_shared[r] == 0 {
                        self.touched_routers.push(r as u32);
                    }
                    self.planned_shared[r] += shared_taken;
                }
            }
        }
        for &r in &self.touched_routers {
            self.planned_shared[r as usize] = 0;
        }
        self.touched_routers.clear();
    }

    /// Recomputes the per-router pool counters from the holder counts and
    /// runs [`Self::check_capacity`] on every edge.
    pub(crate) fn validate_counts(&self) {
        let mut pool_expect = vec![0u32; self.pool_used.len()];
        let mut shared_expect = vec![0u32; self.shared_used.len()];
        for (e, &h) in self.holders.iter().enumerate() {
            let r = self.edge_src[e] as usize;
            pool_expect[r] += h as u32;
            if self.pooled {
                shared_expect[r] += (h as u32).saturating_sub(self.per_edge_min);
            }
        }
        assert_eq!(
            pool_expect, self.pool_used,
            "router pool accounting mismatch"
        );
        assert_eq!(
            shared_expect, self.shared_used,
            "shared-portion accounting mismatch"
        );
        for e in 0..self.holders.len() {
            self.check_capacity(e);
        }
    }

    /// Replaces this table's counts with the sum of `tables`' and folds
    /// their maxima in. Region tables count disjoint edge and router
    /// sets, so the sum is the global table.
    pub(crate) fn gather<'b>(&mut self, tables: impl IntoIterator<Item = &'b VcTable<'b>>) {
        self.holders.fill(0);
        self.pool_used.fill(0);
        self.shared_used.fill(0);
        for o in tables {
            self.holders
                .iter_mut()
                .zip(&o.holders)
                .for_each(|(x, y)| *x += y);
            self.pool_used
                .iter_mut()
                .zip(&o.pool_used)
                .for_each(|(x, y)| *x += y);
            self.shared_used
                .iter_mut()
                .zip(&o.shared_used)
                .for_each(|(x, y)| *x += y);
            self.max_vcs = self.max_vcs.max(o.max_vcs);
            self.max_pool = self.max_pool.max(o.max_pool);
        }
    }
}

/// Run counters the step rules accumulate (summed across regions).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub(crate) flit_hops: u64,
    /// Worms that fell back onto the escape network.
    pub(crate) escape_fallbacks: u64,
    /// Non-minimal hops crossed.
    pub(crate) misroute_hops: u64,
    /// Misroute hops taken after the first applied kill.
    pub(crate) fault_detour_hops: u64,
}

impl Counters {
    pub(crate) fn add(&mut self, o: &Counters) {
        self.flit_hops += o.flit_hops;
        self.escape_fallbacks += o.escape_fallbacks;
        self.misroute_hops += o.misroute_hops;
        self.fault_detour_hops += o.fault_detour_hops;
    }
}

/// The step rules over [`Worm`] records, with the [`VcTable`] they read
/// and write and the per-step scratch. A step is [`Self::contend`]
/// (classify + arbitrate), then the driver applies [`Self::advance`] to
/// `movers`, [`Self::discard`] to `doomed`, and its own loser policy to
/// `blocked`. Handles in the scratch lists index the driver's record
/// slice.
pub(crate) struct Kernel<'a> {
    pub(crate) config: &'a SimConfig,
    /// Present iff `config.route_selection` is adaptive.
    pub(crate) router: Option<&'a dyn AdaptiveRouter>,
    pub(crate) vc: VcTable<'a>,
    pub(crate) buckets: FlatBuckets,
    pub(crate) movers: Vec<u32>,
    pub(crate) blocked: Vec<u32>,
    /// Pending adaptive worms whose only remaining option this step — the
    /// escape continuation — crosses a dead edge. Classification parks
    /// them here and the apply phase discards them, so mid-step holder
    /// counts (which selection reads) stay identical across engines.
    pub(crate) doomed: Vec<u32>,
    /// Candidate scratch for [`AdaptiveRouter::candidates`].
    cand: Vec<(EdgeId, bool)>,
    pub(crate) counts: Counters,
}

impl<'a> Kernel<'a> {
    pub(crate) fn new(
        config: &'a SimConfig,
        router: Option<&'a dyn AdaptiveRouter>,
        vc: VcTable<'a>,
    ) -> Self {
        let n = vc.holders.len();
        Kernel {
            config,
            router,
            vc,
            buckets: FlatBuckets::with_edges(n),
            movers: Vec::new(),
            blocked: Vec::new(),
            doomed: Vec::new(),
            cand: Vec::new(),
            counts: Counters::default(),
        }
    }

    /// Phases 1–2 of a step: classifies the worms `handles` names into
    /// `movers`, contenders and `doomed`, then arbitrates the contenders
    /// into `movers` and `blocked` from start-of-step holder counts.
    pub(crate) fn contend(
        &mut self,
        worms: &mut [Worm],
        handles: impl IntoIterator<Item = u32>,
        t: u64,
    ) {
        self.movers.clear();
        self.blocked.clear();
        self.buckets.clear();
        self.doomed.clear();
        for i in handles {
            self.classify(worms, i);
        }
        self.vc.arbitrate(
            self.config,
            worms,
            t,
            &mut self.buckets,
            &mut self.movers,
            &mut self.blocked,
        );
    }

    /// Classifies worm `worms[i]` for this step: draining worms and
    /// VC-free final hops go to `movers`, everything else contends in
    /// `buckets` for its wanted edge (pending worms select it first).
    fn classify(&mut self, worms: &mut [Worm], i: u32) {
        let w = &mut worms[i as usize];
        if w.pending_route {
            let sel = self.select_pending(w);
            let edge = sel.edge().expect("selection always yields a hop");
            let router = self.router.expect("pending worm without a router");
            let g = router.graph();
            // Under faults, falling back to a severed escape continuation
            // means the worm has nowhere left to go: the adaptive
            // candidates are already filtered to live edges, and the
            // escape route is the only guaranteed-progress fallback. Doom
            // it — the apply phase discards it with `LinkDown`, after
            // arbitration, so selection by other pending worms this step
            // still reads unchanged start-of-step holder counts.
            if let (true, SelectedHop::Escape { edge }) = (self.vc.any_dead(), sel) {
                let head = g.src(EdgeId(edge));
                let tail = router.escape_route(head, w.dst());
                if tail.edges().iter().any(|&e| self.vc.is_dead(e.idx())) {
                    self.doomed.push(i);
                    return;
                }
            }
            let lands_final = g.dst(EdgeId(edge)) == w.dst();
            if lands_final && self.config.final_edge == FinalEdgePolicy::Unlimited {
                self.movers.push(i); // delivery absorbs without a VC
            } else {
                self.buckets.push(edge as usize, i);
            }
        } else if w.advance >= w.hops || !w.needs_vc(self.config.final_edge, w.advance + 1) {
            self.movers.push(i); // draining, or a VC-free final hop
        } else {
            self.buckets.push(w.edge(w.advance + 1), i);
        }
    }

    /// Selects the wanted hop for pending worm `w` from start-of-step
    /// state and records it in `w.selected`. Two engines evaluating it at
    /// the same step with the same holder counts make the same choice:
    ///
    /// 1. profitable adaptive candidate with a free VC, minimizing
    ///    `(holder count, edge id)`;
    /// 2. else (fully adaptive, budget left) the same rule over the
    ///    misroute candidates, u-turns excluded;
    /// 3. else the first hop of the escape route from the current node.
    fn select_pending(&mut self, w: &mut Worm) -> SelectedHop {
        let router = self.router.expect("pending worm without a router");
        let g = router.graph();
        let (head, dst) = (w.head_node(g), w.dst());
        let prev = (w.advance > 0).then(|| g.src(EdgeId(w.edge(w.advance) as u32)));
        debug_assert_ne!(head, dst, "pending worm already at its destination");
        let misroutes_ok =
            self.config.route_selection == RouteSelection::FullyAdaptive && w.budget > 0;
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        router.candidates(head, dst, misroutes_ok, &mut cand);
        let vc = &self.vc;
        let best = |want_profitable: bool, skip: Option<NodeId>| {
            cand.iter()
                .filter(|&&(e, p)| p == want_profitable && vc.acquirable(e.idx()))
                .filter(|&&(e, _)| skip != Some(g.dst(e)))
                .map(|&(e, _)| (vc.holders[e.idx()], e.0))
                .min()
        };
        let sel = if let Some((_, edge)) = best(true, None) {
            SelectedHop::Adaptive {
                edge,
                misroute: false,
            }
        } else if let Some((_, edge)) = misroutes_ok.then(|| best(false, prev)).flatten() {
            SelectedHop::Adaptive {
                edge,
                misroute: true,
            }
        } else {
            SelectedHop::Escape {
                edge: router.escape_hop(head, dst).0,
            }
        };
        self.cand = cand;
        w.selected = sel;
        sel
    }

    /// Commits pending worm `w`'s selected hop just before it advances:
    /// one adaptive edge (spending misroute budget where flagged), or
    /// the whole escape tail — after which the route is frozen and the
    /// worm is an ordinary oblivious worm for the rest of its journey.
    fn extend_route(&mut self, w: &mut Worm) {
        let router = self.router.expect("pending worm without a router");
        let dst = w.dst();
        let Route::Built { edges: route, .. } = &mut w.route else {
            unreachable!("pending worm with a fixed route")
        };
        debug_assert_eq!(route.len() as u32, w.advance);
        match w.selected {
            SelectedHop::Adaptive { edge, misroute } => {
                route.push(EdgeId(edge));
                if misroute {
                    self.counts.misroute_hops += 1;
                    w.budget -= 1;
                    if self.vc.any_dead() {
                        self.counts.fault_detour_hops += 1;
                    }
                }
                w.hops += 1;
                if router.graph().dst(EdgeId(edge)) == dst {
                    w.pending_route = false;
                }
            }
            SelectedHop::Escape { edge } => {
                let head = router.graph().src(EdgeId(edge));
                let tail = router.escape_route(head, dst);
                debug_assert_eq!(tail.edges()[0], EdgeId(edge));
                route.extend_from_slice(tail.edges());
                self.counts.escape_fallbacks += 1;
                w.hops += tail.len() as u32;
                w.pending_route = false;
            }
            SelectedHop::None => unreachable!("pending worm advanced without a selection"),
        }
    }

    /// Advances `w` one step at step `t`: a pending worm extends its
    /// route first, then the header acquires the newly crossed edge and
    /// the tail releases the edge it left (the final edge on
    /// completion). Returns whether the worm finished (at `t + 1`).
    pub(crate) fn advance(&mut self, w: &mut Worm, t: u64) -> bool {
        if w.pending_route {
            self.extend_route(w);
        }
        let fe = self.config.final_edge;
        let (hops, length) = (w.hops, w.length);
        self.counts.flit_hops += w.crossing_width() as u64;
        if w.out.first_move.is_none() {
            w.out.first_move = Some(t);
        }
        w.advance += 1;
        let a = w.advance;
        if a <= hops && w.needs_vc(fe, a) {
            let e = w.edge(a);
            self.vc.acquire(e);
            self.vc.acquired.push(e as u32);
        }
        if a > length && w.needs_vc(fe, a - length) {
            self.vc.release(w.edge(a - length)); // always ≤ hops − 1 here
        }
        if !w.done() {
            return false;
        }
        if w.needs_vc(fe, hops) {
            self.vc.release(w.edge(hops));
        }
        w.out.finished = Some(t + 1);
        true
    }

    /// Batch-advances draining worm `w` from step `t` to `min(stop,
    /// finish)` in O(released edges): drains acquire nothing and finish
    /// at `advance = hops + L − 1`, so the per-step effects collapse to a
    /// closed-form `flit_hops` sum, the tail's release sequence, and the
    /// finish stamp. Exact only where no third party can observe the
    /// intermediate states. Returns the steps covered.
    pub(crate) fn drain(&mut self, w: &mut Worm, t: u64, stop: u64) -> u64 {
        debug_assert!(w.draining() && t < stop);
        let fe = self.config.final_edge;
        let (hops, length, a0) = (w.hops, w.length, w.advance);
        let fin_a = hops + length - 1;
        let k = ((fin_a - a0) as u64).min(stop - t);
        if k == 0 {
            return 0;
        }
        let a1 = a0 + k as u32;
        // flit_hops: Σ width(a) for a ∈ (a0, a1]; width(a) = hops while
        // a ≤ L (the tail is still injecting) and hops + L − a after.
        let (d, l, b0, b1) = (hops as u64, length as u64, a0 as u64, a1 as u64);
        let flat_hi = b1.min(l);
        if flat_hi > b0 {
            self.counts.flit_hops += d * (flat_hi - b0);
        }
        let s = b0.max(l) + 1;
        if b1 >= s {
            self.counts.flit_hops += (2 * (d + l) - s - b1) * (b1 - s + 1) / 2;
        }
        // The tail leaves edges (a0+1−L ..= a1−L) ∩ [1, hops−1].
        let lo = (a0 + 1).saturating_sub(length).max(1);
        for rel in lo..=a1.saturating_sub(length) {
            if w.needs_vc(fe, rel) {
                self.vc.release(w.edge(rel));
            }
        }
        w.advance = a1;
        if a1 == fin_a {
            if w.needs_vc(fe, hops) {
                self.vc.release(w.edge(hops));
            }
            w.out.finished = Some(t + k); // the finishing advance ran at t+k−1
        }
        k
    }

    /// Drops `w` from the network: releases every VC it holds and
    /// records `reason` on its outcome.
    pub(crate) fn discard(&mut self, w: &mut Worm, reason: DiscardReason) {
        let (lo, hi) = w.held_range();
        for j in lo..=hi {
            if w.needs_vc(self.config.final_edge, j) {
                self.vc.release(w.edge(j));
            }
        }
        w.out.discarded = Some(reason);
    }

    /// Checks the full-bandwidth invariants over the in-network `worms`:
    /// holder counts recomputed from their held spans, pool accounting,
    /// per-worm flit conservation, and adaptive route bookkeeping.
    pub(crate) fn validate<'w>(&self, worms: impl Iterator<Item = &'w Worm> + Clone) {
        let fe = self.config.final_edge;
        let mut expect = vec![0u16; self.vc.holders.len()];
        for w in worms.clone() {
            let (lo, hi) = w.held_range();
            for j in lo..=hi {
                if w.needs_vc(fe, j) {
                    expect[w.edge(j)] += 1;
                }
            }
        }
        assert_eq!(expect, self.vc.holders, "VC accounting mismatch");
        self.vc.validate_counts();
        for w in worms {
            let m = w.id;
            let injected = w.advance.min(w.length);
            // A pending worm's header sits in the buffer of its newest
            // edge (advance == hops) and has delivered nothing. Otherwise
            // the held-edge count equals the in-network flit count, except
            // that once the header has arrived (advance ≥ hops) the
            // destination edge's buffer clears instantly while its VC is
            // still held — one extra held edge.
            let (delivered, slack) = if w.pending_route {
                (0, 0)
            } else {
                (
                    (w.advance + 1).saturating_sub(w.hops).min(w.length),
                    u32::from(w.advance >= w.hops),
                )
            };
            let (lo, hi) = w.held_range();
            let in_net = (hi + 1).saturating_sub(lo);
            let expected = injected - delivered;
            assert!(
                in_net == expected + slack,
                "flit conservation violated for message {m}: in_net={in_net} injected={injected} delivered={delivered}"
            );
            let Some(router) = self.router else { continue };
            let route = w.route.edges();
            assert_eq!(
                route.len() as u32,
                w.hops,
                "route length out of sync for message {m}"
            );
            if w.pending_route {
                assert_eq!(w.advance, w.hops, "pending worm ahead of its route");
            } else {
                let last = *route.last().expect("fixed route is nonempty");
                assert_eq!(router.graph().dst(last), w.dst(), "frozen route misses dst");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormhole_topology::graph::GraphBuilder;

    fn chain(n: u32) -> (Graph, Vec<EdgeId>) {
        let mut b = GraphBuilder::new(n as usize);
        let edges = (0..n - 1)
            .map(|i| b.add_edge(NodeId(i), NodeId(i + 1)))
            .collect();
        (b.build(), edges)
    }

    fn worm(id: u32, path: Vec<EdgeId>, length: u32) -> Worm {
        Worm::new(id, MessageSpec::new(Path::new(path), length), None)
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn worm_record_is_128_bytes() {
        assert_eq!(std::mem::size_of::<Worm>(), 128);
    }

    #[test]
    fn pooled_shared_credit_goes_to_the_lowest_edge_id_first() {
        // Router 0 has three out-edges, floor 1 each, and one shared
        // credit. Every edge sits at its floor, so only one of the three
        // contenders can win — the one on the lowest edge id, whatever
        // order the buckets were discovered in.
        let mut b = GraphBuilder::new(4);
        let es: Vec<EdgeId> = (1..4).map(|v| b.add_edge(NodeId(0), NodeId(v))).collect();
        let g = b.build();
        let config = SimConfig::new(1).vc_policy(VcPolicy::pooled(4, 1, 2));
        let worms: Vec<Worm> = (0..3).map(|i| worm(i, vec![es[i as usize]], 2)).collect();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]] {
            let mut vc = VcTable::new(&g, config.vc_policy);
            for e in &es {
                vc.acquire(e.idx());
            }
            let mut buckets = FlatBuckets::with_edges(g.num_edges());
            for i in order {
                buckets.push(es[i].idx(), i as u32);
            }
            let (mut movers, mut blocked) = (Vec::new(), Vec::new());
            vc.arbitrate(&config, &worms, 0, &mut buckets, &mut movers, &mut blocked);
            blocked.sort_unstable();
            assert_eq!(movers, vec![0], "discovery order {order:?}");
            assert_eq!(blocked, vec![1, 2], "discovery order {order:?}");
        }
    }

    #[test]
    fn random_arbitration_depends_only_on_seed_step_edge_and_the_set() {
        // The same contender set, presented in any order and indexed
        // either by id or through a permuted (region-local) record slice,
        // yields the same winner sequence of ids.
        let (_, edges) = chain(2);
        let config = SimConfig::new(1).arbitration(Arbitration::Random).seed(7);
        let ids = [3u32, 9, 4, 12, 0, 7];
        let by_id: Vec<Worm> = (0..13).map(|i| worm(i, edges.clone(), 1)).collect();
        let local: Vec<Worm> = ids
            .iter()
            .rev()
            .map(|&i| worm(i, edges.clone(), 1))
            .collect();
        for (t, e) in [(0u64, 0usize), (5, 3), (1 << 40, 17)] {
            let canonical = {
                let mut c = ids.to_vec();
                order_contenders(&config, &by_id, t, e, &mut c);
                c
            };
            for rot in 0..ids.len() {
                let mut c = ids.to_vec();
                c.rotate_left(rot);
                order_contenders(&config, &by_id, t, e, &mut c);
                assert_eq!(c, canonical, "t={t} e={e} rot={rot}");
                let mut l: Vec<u32> = (0..ids.len() as u32).collect();
                l.rotate_left(rot);
                order_contenders(&config, &local, t, e, &mut l);
                let seq: Vec<u32> = l.iter().map(|&i| local[i as usize].id).collect();
                assert_eq!(seq, canonical, "local indexing, t={t} e={e} rot={rot}");
            }
        }
    }

    /// A kernel over `g` with `w` placed at `advance = a0` and its held
    /// VCs acquired, recording every release.
    fn placed<'a>(g: &'a Graph, config: &'a SimConfig, w: &mut Worm, a0: u32) -> Kernel<'a> {
        let mut k = Kernel::new(config, None, VcTable::new(g, config.vc_policy));
        w.advance = a0;
        let (lo, hi) = w.held_range();
        for j in lo..=hi {
            if w.needs_vc(config.final_edge, j) {
                k.vc.acquire(w.edge(j));
            }
        }
        k.vc.track_releases = true;
        k
    }

    #[test]
    fn closed_form_drain_equals_stepping_advance() {
        for fe in [FinalEdgePolicy::RequiresVc, FinalEdgePolicy::Unlimited] {
            let config = SimConfig::new(1).final_edge(fe);
            for hops in 1..=6u32 {
                let (g, edges) = chain(hops + 1);
                for l in 1..=6u32 {
                    let fin_a = hops + l - 1;
                    for a0 in hops..fin_a {
                        for t0 in [0u64, 5] {
                            for stop in t0 + 1..=t0 + (fin_a - a0) as u64 + 2 {
                                let mut ws = worm(0, edges.clone(), l);
                                let mut ks = placed(&g, &config, &mut ws, a0);
                                let mut t = t0;
                                while t < stop && !ws.done() {
                                    ks.advance(&mut ws, t);
                                    t += 1;
                                }
                                let mut wd = worm(0, edges.clone(), l);
                                let mut kd = placed(&g, &config, &mut wd, a0);
                                let k = kd.drain(&mut wd, t0, stop);
                                let case =
                                    format!("{fe:?} hops={hops} L={l} a0={a0} t0={t0} stop={stop}");
                                assert_eq!(k, t - t0, "{case}: steps");
                                assert_eq!(wd.advance, ws.advance, "{case}: advance");
                                assert_eq!(
                                    kd.counts.flit_hops, ks.counts.flit_hops,
                                    "{case}: flit_hops"
                                );
                                assert_eq!(kd.vc.released, ks.vc.released, "{case}: releases");
                                assert_eq!(wd.out.finished, ws.out.finished, "{case}: finish");
                                assert_eq!(kd.vc.holders, ks.vc.holders, "{case}: holders");
                            }
                        }
                    }
                }
            }
        }
    }
}
