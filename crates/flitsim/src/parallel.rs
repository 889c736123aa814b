//! The partitioned parallel engine behind [`Engine::Parallel`].
//!
//! The network is decomposed into the regions of a
//! [`RegionPlan`] (from [`SimConfig::regions`], or a default contiguous
//! cut): every node — and with it every outgoing edge, i.e. the VC
//! holder state that lives at the sending router — is owned by exactly
//! one region, and each region is advanced on its own worker thread.
//! Workers synchronize on conservative time windows in the
//! Chandy–Misra style: a region may run ahead only as far as the
//! earliest instant it could influence (or be influenced by) a
//! neighbor. Unlike the global lookahead-1 bound — which collapses the
//! windows to lockstep supersteps — the window grant here is
//! *plan-aware and per-worm*: [`RegionPlan::distance_to_cut`] gives the
//! minimum number of flit steps before a header at node `v` can
//! traverse a cross-region edge, and [`worm_bound`] refines that to the
//! exact worm population (a drain whose held edges are all local can
//! never influence another region again; an in-flight worm whose
//! remaining path stays inside its region is bounded only by the next
//! admission). The coordinator takes the minimum over the populated
//! regions, caps it at the next message release and the step cap, and
//! broadcasts one *window* `[t, t + w)`; each worker then runs its
//! regions through the whole window without any synchronization — a
//! null-message-style window grant.
//!
//! # Why a window is exactly the sequential steps it replaces
//!
//! Within a window each region runs the step kernel's classify →
//! arbitrate → apply phases — the same calls the sequential drivers
//! make — one step at a time, over the worm records *resident* in it (a worm resides in the region owning
//! its next wanted edge; draining worms stay where they finished
//! acquiring; a pending adaptive worm resides in its head node's
//! region). The grant construction guarantees that for every step of
//! the window strictly before the last, every acquire, release, and
//! candidate/arbitration read touches only region-owned state:
//!
//! * **Held edges**: a worm holding a foreign edge caps its bound at 1,
//!   so multi-step windows only ever contain worms whose held — and
//!   therefore releasable — edges are all local.
//! * **Oblivious worms** advance at most one hop per step, so a worm
//!   whose first foreign path edge sits `j` hops past its head cannot
//!   contend for it before relative step `j − 1` — the last step of a
//!   `j − 1`-step window, where crossing it is exactly the handoff the
//!   coordinator applies at the boundary.
//! * **Pending adaptive worms** contend only for out-edges of their
//!   head node, all owned by the head's region; by
//!   [`RegionPlan::distance_to_cut`] the head cannot reach a foreign
//!   node in fewer steps than the granted window, and any escape tail
//!   committed mid-window is itself a walk from the head, so its
//!   in-window prefix stays local too.
//!
//! Because regions are mutually invisible inside a window, the
//! sequential engines' accelerations apply verbatim *per region*.
//! Each region keeps a **per-region event queue**: a worm that loses
//! arbitration under [`BlockedPolicy::Stall`] and whose wanted edge is
//! still full at the end of the step *parks* on that edge's wait key
//! (the edge itself, or the source router under pooling — the event
//! engine's parking discipline, applied region-locally). A parked worm
//! is skipped by the step loop — its edge provably stays full until a
//! release on its key, so skipping is behavior-free — and its stall
//! counts settle arithmetically at wake (`t − parked_at`), making the
//! per-step cost proportional to movers and wakeups, not residents.
//! When every runnable resident is draining and the queue is empty,
//! the region batch-advances them with the kernel's closed-form drain; and when a step moves
//! nothing the region is *frozen* — provably identical until the
//! window ends (releases only come from moves, and nothing external
//! arrives mid-window) — so it stops stepping and the coordinator tops
//! up the skipped stall counts afterwards. A region whose worms all
//! retire simply stops. An all-regions-frozen window reproduces the
//! sequential deadlock verdict at the exact step the last region
//! froze.
//!
//! Each region owns its own VC table, and worm records move whole: into
//! a region at admission, between regions at handoff, and back into the
//! per-id table at retirement. Between windows the coordinator merges
//! outboxes in region-index order: remote releases (possible only in
//! one-step windows, where a worm may hold a foreign edge) land before
//! the occupancy maxima are sampled, finished/discarded worms retire
//! into the per-id table (their completion callbacks flushed in
//! canonical `(time, id)` order, as always), and worms whose next wanted edge crossed the cut
//! migrate. Admissions happen at window starts only — the grant never
//! extends past the source's next release, and a reactive source pins
//! the window to one step. Every cross-region effect is therefore
//! either commutative or canonically ordered, and the result is
//! byte-identical for every worker count and every valid plan.
//!
//! # Accepted configurations and the explicit fallback
//!
//! The engine accepts static and pooled VC policies, every arbitration
//! and blocked policy, oblivious *and* adaptive (`MinimalAdaptive` /
//! `FullyAdaptive`) routing under the full-bandwidth model. Adaptive
//! hop selection is region-local by construction: candidates are
//! out-edges of the pending head, whose occupancies the resident region
//! owns. The remaining fallbacks are fault plans (kills apply globally
//! at start-of-step), the restricted one-flit-per-step model, and event
//! tracing — those run on a sequential engine instead, reported in
//! [`SimResult::engine_fallback`](crate::stats::SimResult); see
//! [`EngineFallback`](crate::stats::EngineFallback). The dispatch
//! never falls back silently.
//!
//! [`Engine::Parallel`]: crate::config::Engine::Parallel
//! [`SimConfig::regions`]: crate::config::SimConfig::regions

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use wormhole_topology::adaptive::AdaptiveRouter;
use wormhole_topology::graph::Graph;
use wormhole_topology::region::RegionPlan;

use crate::config::{BlockedPolicy, SimConfig};
use crate::events::DeadlockReport;
use crate::kernel::{Kernel, VcTable, Worm};
use crate::stats::{DiscardReason, Outcome};
use crate::wormhole::Sim;

/// Default region count when [`SimConfig::regions`] is `None`
/// (clamped to the node count by [`RegionPlan::contiguous`]).
///
/// [`SimConfig::regions`]: crate::config::SimConfig::regions
const DEFAULT_REGIONS: u32 = 8;

/// Immutable per-run lookup state shared by the coordinator and every
/// worker: the configuration, the region layout and the lookahead.
/// Everything borrows run-outliving state (config, graph, router), so
/// it never conflicts with the coordinator's `&mut Sim`.
struct Ctx<'a> {
    config: &'a SimConfig,
    graph: &'a Graph,
    /// Adaptive routing only: the shared hop-selection router.
    router: Option<&'a dyn AdaptiveRouter>,
    /// Edge → owning region (= region of the source router).
    edge_region: Vec<u32>,
    /// Node → owning region ([`RegionPlan::node_regions`] copy).
    node_region: Vec<u32>,
    /// Node → minimum flit steps before a header there can traverse a
    /// cross-region edge ([`RegionPlan::distance_to_cut`]).
    dist_to_cut: Vec<u64>,
}

impl<'a> Ctx<'a> {
    fn new(sim: &Sim<'a>, plan: &RegionPlan) -> Ctx<'a> {
        let graph = sim.graph;
        let node_region = plan.node_regions().to_vec();
        let edge_region = graph
            .edge_sources()
            .iter()
            .map(|&s| node_region[s as usize])
            .collect();
        Ctx {
            config: sim.config,
            graph,
            router: sim.k.router,
            edge_region,
            node_region,
            dist_to_cut: plan.distance_to_cut(graph),
        }
    }

    /// The region a worm belongs to: its head node's region while the
    /// route is pending, `here` while it drains (it has no wanted edge
    /// left), the owner of its next wanted edge otherwise.
    fn home(&self, w: &Worm, here: u32) -> u32 {
        if w.pending_route {
            self.node_region[w.head_node(self.graph).idx()]
        } else if w.advance >= w.hops {
            here
        } else {
            self.edge_region[w.edge(w.advance + 1)]
        }
    }
}

/// How many steps worm `w`, resident in region `home`, can run before
/// it could first touch (acquire, release, or contend for) an edge
/// owned by another region — the per-worm refinement of the plan's
/// lookahead, and the quantity the window grant minimizes over.
///
/// * Any *held* foreign edge caps the bound at 1: its release may need
///   to cross the cut on the very next step.
/// * A pending adaptive head only contends for out-edges of its current
///   node, so it is bounded by [`RegionPlan::distance_to_cut`] — it
///   cannot stand on a foreign node (or commit a route prefix leaving
///   the region) any sooner.
/// * A draining worm only releases held (hence local) edges: unbounded.
/// * An in-flight oblivious worm advances one hop per step, so its
///   first foreign path edge at 1-based index `j` cannot be contended
///   before relative step `j − 1 − advance`.
fn worm_bound(ctx: &Ctx, w: &Worm, home: u32) -> u64 {
    let (lo, hi) = w.held_range();
    let fe = ctx.config.final_edge;
    if (lo..=hi).any(|j| w.needs_vc(fe, j) && ctx.edge_region[w.edge(j)] != home) {
        return 1;
    }
    if w.pending_route {
        return ctx.dist_to_cut[w.head_node(ctx.graph).idx()].max(1);
    }
    if w.advance >= w.hops {
        return u64::MAX;
    }
    debug_assert_eq!(
        ctx.edge_region[w.edge(w.advance + 1)],
        home,
        "resident worm's next wanted edge is foreign"
    );
    ((w.advance + 2)..=w.hops)
        .find(|&j| ctx.edge_region[w.edge(j)] != home)
        .map_or(u64::MAX, |j| (j - 1 - w.advance) as u64)
}

/// No waiter — the wait-queue chain terminator.
const NONE: u32 = u32::MAX;

/// A slab entry in a region's wait queue: a parked worm plus the
/// intrusive chain link. `w == None` marks a free slot.
struct ParkSlot {
    w: Option<Worm>,
    /// The step the worm parked at (its stall for that step is already
    /// counted); a wake at `t` settles the skipped steps arithmetically
    /// as `t - parked_at`.
    parked_at: u64,
    /// Next slot waiting on the same key, or [`NONE`].
    next: u32,
}

/// One region's owned state: the step kernel over a VC table for its
/// edges and routers (full-size arrays indexed by *global* ids — foreign
/// entries stay zero, so ascending local edge order is ascending global
/// order for free), its resident worm records, and the outboxes the
/// coordinator drains between windows (remote releases live in the
/// table's `remote` list).
struct Region<'c> {
    idx: u32,
    k: Kernel<'c>,
    worms: Vec<Worm>,
    /// Swap buffer for the retire/handoff sweep (keeps capacity).
    scratch: Vec<Worm>,
    /// This step's losers to park, indexed like `worms`; read by the
    /// sweep.
    park_mark: Vec<bool>,
    /// Outbox: worms whose next wanted edge crossed the cut.
    handoffs: Vec<(u32, Worm)>,
    /// Outbox: worms that finished or were discarded this window, with
    /// their completion time — `t + 1` for deliveries, `t` for discards,
    /// the same stamps the sequential engines record.
    retired: Vec<(Worm, u64)>,
    /// The per-region event queue: worms blocked on a full edge under
    /// [`BlockedPolicy::Stall`] park here (slab + per-key intrusive
    /// chains) instead of re-contending every step, exactly as in the
    /// sequential event engine — a parked worm's edge stays full until
    /// a release on its wait key, so skipping it is behavior-free and
    /// the per-step cost drops from all residents to movers + wakeups.
    park_slab: Vec<ParkSlot>,
    /// Free slots in `park_slab`.
    free_slots: Vec<u32>,
    /// Head slot of each wait key's chain ([`NONE`] = no waiters).
    /// Blocked worms only ever wait on region-owned keys: the wanted
    /// edge defines residency, and an edge's region is its source
    /// router's.
    waiter_head: Vec<u32>,
    /// Live entries in `park_slab`.
    n_parked: usize,
    /// Running minimum [`worm_bound`] over the parked population
    /// (monotone while any worm stays parked; reset when the queue
    /// empties). Folding this into `safe` keeps the window grant sound
    /// without rescanning parked worms — conservative after wakes.
    parked_safe: u64,
    /// Whether any resident worm advanced this step.
    moved: bool,
    /// `1 + `the last in-window step that moved a resident (0 = none).
    last_move_plus1: u64,
    /// First in-window step at which the region froze (nothing moved
    /// under [`BlockedPolicy::Stall`] with residents left); `u64::MAX`
    /// when it did not freeze. Frozen steps skip their stall counting —
    /// the coordinator tops it up from this mark.
    static_from: u64,
    /// Window grant: how far the residents can run before touching a
    /// cross edge (minimum [`worm_bound`]; refreshed at window end and
    /// tightened by the coordinator on every handoff/admission).
    safe: u64,
}

impl<'c> Region<'c> {
    fn new(idx: u32, ctx: &'c Ctx<'_>) -> Region<'c> {
        let vc = VcTable::new(ctx.graph, ctx.config.vc_policy).owned_by(&ctx.edge_region, idx);
        let n_keys = vc.num_wait_keys();
        Region {
            idx,
            k: Kernel::new(ctx.config, ctx.router, vc),
            worms: Vec::new(),
            scratch: Vec::new(),
            park_mark: Vec::new(),
            handoffs: Vec::new(),
            retired: Vec::new(),
            park_slab: Vec::new(),
            free_slots: Vec::new(),
            waiter_head: vec![NONE; n_keys],
            n_parked: 0,
            parked_safe: u64::MAX,
            moved: false,
            last_move_plus1: 0,
            static_from: u64::MAX,
            safe: u64::MAX,
        }
    }

    /// Whether any worm still lives in this region — runnable or
    /// parked. Parked worms are invisible to the step loop but fully
    /// resident: they hold VCs, pin the window grant, and count as
    /// active for termination.
    #[inline]
    fn has_residents(&self) -> bool {
        !self.worms.is_empty() || self.n_parked > 0
    }

    /// Every resident record, runnable then parked.
    fn residents(&self) -> impl Iterator<Item = &Worm> + Clone {
        let parked = self.park_slab.iter().filter_map(|s| s.w.as_ref());
        self.worms.iter().chain(parked)
    }

    /// Moves every resident record back into its id slot of `table`.
    fn evict(&mut self, table: &mut [Worm]) {
        let parked = self.park_slab.drain(..).filter_map(|s| s.w);
        for w in self.worms.drain(..).chain(parked) {
            let id = w.id as usize;
            table[id] = w;
        }
    }

    /// Moves `w`, blocked at step `t` on its (provably full) wanted
    /// edge, onto the wait queue. Its stall for step `t` is already
    /// counted; the skipped steps settle arithmetically at wake.
    fn park_worm(&mut self, ctx: &Ctx, w: Worm, t: u64) {
        if !w.local_path {
            self.parked_safe = self.parked_safe.min(worm_bound(ctx, &w, self.idx));
        }
        let key = self.k.vc.wait_key(w.edge(w.advance + 1));
        let entry = ParkSlot {
            w: Some(w),
            parked_at: t,
            next: self.waiter_head[key],
        };
        self.waiter_head[key] = match self.free_slots.pop() {
            Some(s) => {
                self.park_slab[s as usize] = entry;
                s
            }
            None => {
                self.park_slab.push(entry);
                (self.park_slab.len() - 1) as u32
            }
        };
        self.n_parked += 1;
    }

    /// Wakes every waiter of every key released during step `t` (or,
    /// on the coordinator's call in one-step windows, released by a
    /// remote worm during that window's step). A woken worm's skipped
    /// stalls settle as `t - parked_at` — it was provably blocked at
    /// every one of those steps, its edge being full throughout — and
    /// it re-contends at `t + 1`, exactly when the release becomes
    /// visible sequentially. Waking is conservative: a still-blocked
    /// worm re-parks after its next (stall-counted) step.
    fn wake_parked(&mut self, t: u64) {
        if self.n_parked == 0 {
            self.k.vc.released.clear();
            return;
        }
        while let Some(key) = self.k.vc.released.pop() {
            let mut slot = std::mem::replace(&mut self.waiter_head[key as usize], NONE);
            while slot != NONE {
                let s = &mut self.park_slab[slot as usize];
                let next = s.next;
                let mut w = s.w.take().expect("free slot on a waiter chain");
                w.out.stalls += t - s.parked_at;
                self.free_slots.push(slot);
                self.n_parked -= 1;
                self.worms.push(w);
                slot = next;
            }
        }
        if self.n_parked == 0 {
            self.parked_safe = u64::MAX;
        }
    }

    /// Returns every parked worm to the runnable list with its stalls
    /// settled through step `through` — the run is ending (deadlock or
    /// step cap) and the sequential engines count a stall for each of
    /// those steps.
    fn settle_parked(&mut self, through: u64) {
        if self.n_parked == 0 {
            return;
        }
        for slot in self.park_slab.drain(..) {
            if let Some(mut w) = slot.w {
                w.out.stalls += through.saturating_sub(slot.parked_at);
                self.worms.push(w);
            }
        }
        self.waiter_head.fill(NONE);
        self.free_slots.clear();
        self.n_parked = 0;
        self.parked_safe = u64::MAX;
    }

    /// Runs this region through the window `[t0, end)` without touching
    /// any other region's state: per-step classify → arbitrate → apply
    /// while interaction is possible, the all-draining closed form when
    /// it is not, and an early stop once the region is provably static
    /// (frozen) or empty. Refreshes the `safe` grant for the next
    /// window on the way out.
    fn run_window(&mut self, ctx: &Ctx, t0: u64, end: u64) {
        self.static_from = u64::MAX;
        self.last_move_plus1 = 0;
        // Multi-step windows are interaction-free, so the end-of-step
        // occupancy sample is exact locally; one-step windows keep the
        // coordinator's settle (remote releases may still land).
        let local_settle = end - t0 > 1;
        let mut t = t0;
        while t < end {
            if self.worms.is_empty() {
                // Runnable empty with worms still parked: every parked
                // worm waits on a full edge, and local releases only
                // come from local moves — none can happen. Static from
                // here (only a cross-region release could wake anyone,
                // and that is a between-windows event).
                if self.n_parked > 0 {
                    self.static_from = t;
                }
                break;
            }
            if local_settle && self.n_parked == 0 && self.worms.iter().all(Worm::draining) {
                self.drain_all(ctx, t, end);
                break;
            }
            self.step(ctx, t);
            if self.moved {
                self.last_move_plus1 = t + 1;
            }
            if local_settle {
                self.k.vc.settle_max();
            }
            if !self.moved
                && ctx.config.blocked == BlockedPolicy::Stall
                && (self.n_parked > 0 || !self.worms.is_empty())
            {
                // Frozen: releases only come from moves and nothing
                // external arrives mid-window, so every remaining step
                // of the window repeats this one exactly. Stop stepping;
                // the coordinator tops up the skipped stall counts (the
                // runnable residents'; parked worms settle at wake).
                self.static_from = t;
                break;
            }
            t += 1;
        }
        let mut safe = self.parked_safe;
        for w in self.worms.iter().filter(|w| !w.local_path) {
            safe = safe.min(worm_bound(ctx, w, self.idx));
        }
        self.safe = safe;
    }

    /// Batch-advances an all-draining population from `t` to `end` (or
    /// each worm's finish, whichever is first) with the kernel's closed
    /// form. Safe because drains acquire nothing and only release held
    /// edges, which the window grant proved local.
    fn drain_all(&mut self, ctx: &Ctx, t: u64, end: u64) {
        debug_assert_eq!(self.n_parked, 0, "fast drain with a populated wait queue");
        for w in &mut self.worms {
            let k = self.k.drain(w, t, end);
            debug_assert!(k > 0, "a finished worm survived the sweep");
            self.last_move_plus1 = self.last_move_plus1.max(t + k);
        }
        self.sweep(ctx, t);
        // Nobody is waiting (asserted above) — drop the release keys
        // the drain recorded so they cannot wake a later parkee.
        self.k.vc.released.clear();
    }

    /// One step over the resident worms: the kernel's phases, then
    /// losers are discarded or marked to park, and the retire/handoff
    /// sweep runs. Reads and writes only region-owned state;
    /// cross-region effects go to the outboxes.
    fn step(&mut self, ctx: &Ctx, t: u64) {
        let n = self.worms.len();
        self.k.contend(&mut self.worms, 0..n as u32, t);
        self.moved = !self.k.movers.is_empty();
        for i in 0..self.k.movers.len() {
            self.k
                .advance(&mut self.worms[self.k.movers[i] as usize], t);
        }
        self.park_mark.resize(n, false);
        for i in 0..self.k.blocked.len() {
            let m = self.k.blocked[i] as usize;
            let w = &mut self.worms[m];
            w.out.stalls += 1;
            if ctx.config.blocked == BlockedPolicy::Discard {
                self.k.discard(w, DiscardReason::Delay);
            } else if !w.pending_route {
                // Park a loser whose wanted edge is still full after
                // every move and release of this step landed: it stays
                // blocked — and stalls — until a release on its wait
                // key. Pending adaptive worms re-select each step.
                self.park_mark[m] = !self.k.vc.acquirable(w.edge(w.advance + 1));
            }
        }
        self.sweep(ctx, t);
        self.wake_parked(t);
    }

    /// End-of-step sweep: retire finished and discarded worms, park this
    /// step's marked losers, keep residents, and emigrate worms whose
    /// next wanted edge is owned elsewhere. A parked worm never migrates
    /// — it did not move, so its wanted edge (and with it its residency)
    /// is unchanged.
    fn sweep(&mut self, ctx: &Ctx, t: u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut self.worms, &mut scratch);
        for (i, w) in scratch.drain(..).enumerate() {
            if w.retired() {
                let at = w.out.finished.unwrap_or(t);
                self.retired.push((w, at));
            } else if self.park_mark.get(i) == Some(&true) {
                self.park_worm(ctx, w, t);
            } else {
                let target = ctx.home(&w, self.idx);
                if target == self.idx {
                    self.worms.push(w);
                } else {
                    self.handoffs.push((target, w));
                }
            }
        }
        self.scratch = scratch;
        self.park_mark.clear();
    }
}

/// Locks a region. The lock is poisoned only if a worker panicked while
/// stepping it, and that panic then ends the run anyway.
fn lock<'r, 'c>(cell: &'r Mutex<Region<'c>>) -> MutexGuard<'r, Region<'c>> {
    cell.lock().expect("a region worker panicked")
}

/// Everything the worker threads can see: the regions (each behind its
/// own mutex — workers step disjoint index sets, so locks are always
/// uncontended), the window barriers, and the broadcast clock/grant.
struct Shared<'c> {
    regions: Vec<Mutex<Region<'c>>>,
    /// Opens a window (workers wait here between windows).
    start: Barrier,
    /// Closes a window (the coordinator merges after this).
    end: Barrier,
    /// The window's start step, broadcast before `start` opens.
    /// Relaxed ordering suffices — the barriers synchronize.
    t_now: AtomicU64,
    /// The window's width in steps, broadcast alongside `t_now`.
    w_now: AtomicU64,
    /// Set by the coordinator before the final `start` wave.
    stop: AtomicBool,
    ctx: &'c Ctx<'c>,
}

impl Shared<'_> {
    /// Moves record `w` into region `target`, caching its local-path
    /// flag and tightening that region's window grant.
    fn place(&self, mut w: Worm, target: u32) {
        let bound = worm_bound(self.ctx, &w, target);
        w.local_path = bound == u64::MAX && !w.pending_route;
        let mut reg = lock(&self.regions[target as usize]);
        reg.safe = reg.safe.min(bound);
        reg.worms.push(w);
    }

    /// Sums the region VC tables into `sim`'s, so the sequential
    /// invariant checks and the result read one global table.
    fn gather(&self, sim: &mut Sim<'_>) {
        let regs: Vec<_> = self.regions.iter().map(lock).collect();
        sim.k.vc.gather(regs.iter().map(|r| &r.k.vc));
    }
}

/// Worker `w` of `nthreads`: run regions `w, w + nthreads, …` through
/// each window until the coordinator raises `stop`.
fn worker_loop(shared: &Shared<'_>, w: usize, nthreads: usize) {
    loop {
        shared.start.wait();
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let t = shared.t_now.load(Ordering::Relaxed);
        let win = shared.w_now.load(Ordering::Relaxed);
        run_regions(shared, w, nthreads, t, t + win);
        shared.end.wait();
    }
}

/// Runs regions `first, first + stride, …` through the window
/// `[t, end)`.
fn run_regions(shared: &Shared<'_>, first: usize, stride: usize, t: u64, end: u64) {
    for reg in shared.regions.iter().skip(first).step_by(stride) {
        lock(reg).run_window(shared.ctx, t, end);
    }
}

/// Advances every region through the window `[t, t + w)` — on the
/// worker pool when there is one, inline otherwise.
fn step_window(shared: &Shared<'_>, nthreads: usize, t: u64, w: u64) {
    if nthreads == 1 {
        run_regions(shared, 0, 1, t, t + w);
        return;
    }
    shared.t_now.store(t, Ordering::Relaxed);
    shared.w_now.store(w, Ordering::Relaxed);
    shared.start.wait();
    // The coordinator doubles as worker 0.
    run_regions(shared, 0, nthreads, t, t + w);
    shared.end.wait();
}

/// The coordinator: the sequential loop head ([`Sim::loop_head`]) and
/// admissions around the window grant, then merges outboxes in
/// region-index order.
fn run_loop(
    sim: &mut Sim<'_>,
    shared: &Shared<'_>,
    nthreads: usize,
) -> (Outcome, u64, Option<DeadlockReport>) {
    let ctx = shared.ctx;
    let mut t: u64 = 0;
    let mut n_active: usize = 0;
    let mut fresh: Vec<u32> = Vec::new();
    let mut rel_buf: Vec<u32> = Vec::new();
    let mut handoff_buf: Vec<(u32, Worm)> = Vec::new();
    let mut retired_buf: Vec<(Worm, u64)> = Vec::new();
    let outcome = loop {
        if let Some(end) = sim.loop_head(n_active == 0, &mut t) {
            break end;
        }
        // Every new record moves to its region.
        sim.admit_ready(t, &mut fresh);
        for m in fresh.drain(..) {
            let w = std::mem::take(&mut sim.worms[m as usize]);
            let home = ctx.home(&w, 0);
            shared.place(w, home);
            n_active += 1;
        }

        // The window grant: the minimum per-region `safe` bound over
        // populated regions, capped at the next admission and the step
        // cap. Reactive sources pin the window to one step (a delivery
        // may spawn a release mid-window otherwise); so does any worm
        // near a cut. `peek_next_release` is an idempotent peek for
        // non-reactive sources, so consulting it every window leaves
        // the admission sequence untouched.
        let mut grant = u64::MAX;
        for cell in &shared.regions {
            let reg = lock(cell);
            if reg.has_residents() {
                grant = grant.min(reg.safe);
            }
        }
        let w = if sim.reactive || grant <= 1 {
            1
        } else {
            let mut horizon = sim.config.max_steps.saturating_sub(t).max(1);
            if let Some(r) = sim.peek_next_release(t) {
                horizon = horizon.min(r.saturating_sub(t).max(1));
            }
            grant.min(horizon)
        };

        step_window(shared, nthreads, t, w);

        // Merge, in region-index order (the effects are commutative or
        // canonically re-sorted downstream; fixing the order makes the
        // run reproducible by inspection, not just by argument).
        let mut t_dead: u64 = 0;
        let mut all_static = true;
        let mut any_worms = false;
        let mut any_frozen = false;
        for cell in &shared.regions {
            let mut reg = lock(cell);
            t_dead = t_dead.max(reg.last_move_plus1);
            if reg.has_residents() {
                any_worms = true;
                if reg.static_from == u64::MAX {
                    all_static = false;
                } else {
                    t_dead = t_dead.max(reg.static_from);
                }
            }
            any_frozen |= reg.static_from != u64::MAX;
            rel_buf.append(&mut reg.k.vc.remote);
            handoff_buf.append(&mut reg.handoffs);
            retired_buf.append(&mut reg.retired);
        }
        debug_assert!(
            w == 1 || rel_buf.is_empty(),
            "remote release inside a multi-step window"
        );
        // Cross-region releases land now — visible to step `t + 1`,
        // like any sequential mid-step release...
        for e in rel_buf.drain(..) {
            let owner = ctx.edge_region[e as usize] as usize;
            lock(&shared.regions[owner]).k.vc.release(e as usize);
        }
        // ...and *before* the occupancy maxima are sampled, so the
        // sample is the end-of-step state, as in the sequential
        // engines. (Multi-step windows already settled in-region.)
        // The wake pass runs here too: a remote release during step
        // `t` unblocks its local waiters exactly like a local one —
        // skipped stalls settle through `t`, re-contention at `t + 1`.
        if w == 1 {
            for cell in &shared.regions {
                let mut reg = lock(cell);
                reg.wake_parked(t);
                reg.k.vc.settle_max();
            }
        }
        // A frozen region repeats its freeze step verbatim until the
        // window ends (or until the deadlock instant, below): top up
        // the stall counts its skipped steps would have recorded. At
        // the freeze step every resident was blocked — a mover would
        // have unfrozen it — so the top-up is uniform.
        let deadlocked =
            sim.config.blocked == BlockedPolicy::Stall && any_worms && all_static && t_dead < t + w;
        if any_frozen {
            let end_count = if deadlocked { t_dead } else { t + w - 1 };
            for cell in &shared.regions {
                let mut reg = lock(cell);
                if reg.static_from != u64::MAX {
                    let extra = end_count - reg.static_from;
                    for wm in &mut reg.worms {
                        wm.out.stalls += extra;
                    }
                }
            }
        }
        for (w, at) in retired_buf.drain(..) {
            let id = w.id;
            let delivered = w.out.discarded.is_none();
            sim.record_done(id, at, delivered);
            if delivered {
                sim.last_finish = sim.last_finish.max(at);
            }
            sim.unfinished -= 1;
            n_active -= 1;
            sim.worms[id as usize] = w;
        }
        for (target, w) in handoff_buf.drain(..) {
            shared.place(w, target);
        }

        if deadlocked {
            // Static state, nothing can ever move again: deadlock at
            // the first globally move-free step.
            t = t_dead;
            break Outcome::Deadlock(Vec::new());
        }
        if sim.config.check_invariants {
            shared.gather(sim);
            let regs: Vec<_> = shared.regions.iter().map(lock).collect();
            sim.k.validate(regs.iter().flat_map(|r| r.residents()));
        }
        t += w;
    };
    // Parked worms were blocked at every step through the end of the
    // run — the deadlock instant, or the last step the cap let run
    // (`max_steps - 1`) — and the sequential engines counted each one.
    // Then every record returns to the per-id table.
    let through = match outcome {
        Outcome::MaxSteps => sim.config.max_steps.saturating_sub(1),
        _ => t,
    };
    for cell in &shared.regions {
        let mut reg = lock(cell);
        reg.settle_parked(through);
        reg.evict(&mut sim.worms);
        sim.k.counts.add(&reg.k.counts);
    }
    shared.gather(sim);
    if let Outcome::Deadlock(_) = outcome {
        // The same report the sequential engines build.
        sim.rebuild_active();
        let report = sim.build_deadlock_report();
        return (Outcome::Deadlock(sim.active.clone()), t, Some(report));
    }
    (outcome, t, None)
}

/// Entry point from the engine dispatch: runs `sim` to its outcome on
/// the partitioned engine with `threads` workers (0 = all available;
/// always clamped to the region count). The caller has already
/// verified the configuration is supported — unsupported ones take the
/// explicit-fallback path and never reach this function.
pub(crate) fn drive(sim: &mut Sim<'_>, threads: u32) -> (Outcome, u64, Option<DeadlockReport>) {
    let graph = sim.graph;
    if graph.num_nodes() == 0 {
        // Nothing to partition (and no message can have a valid path);
        // the legacy driver resolves the source bookkeeping.
        return sim.drive_legacy();
    }
    let plan = match &sim.config.regions {
        Some(p) => {
            assert!(
                p.matches(graph),
                "region plan does not match the simulated graph"
            );
            p.clone()
        }
        None => RegionPlan::contiguous(graph, DEFAULT_REGIONS),
    };
    let k = plan.num_regions() as usize;
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let req = if threads == 0 {
        avail
    } else {
        threads as usize
    };
    let nthreads = req.min(k).max(1);
    let ctx = Ctx::new(sim, &plan);
    let shared = Shared {
        regions: (0..k)
            .map(|r| Mutex::new(Region::new(r as u32, &ctx)))
            .collect(),
        start: Barrier::new(nthreads),
        end: Barrier::new(nthreads),
        t_now: AtomicU64::new(0),
        w_now: AtomicU64::new(1),
        stop: AtomicBool::new(false),
        ctx: &ctx,
    };
    if nthreads == 1 {
        run_loop(sim, &shared, 1)
    } else {
        std::thread::scope(|s| {
            let sh = &shared;
            for w in 1..nthreads {
                s.spawn(move || worker_loop(sh, w, nthreads));
            }
            let out = run_loop(sim, sh, nthreads);
            sh.stop.store(true, Ordering::Relaxed);
            sh.start.wait();
            out
        })
    }
}
